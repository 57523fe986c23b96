"""Empirical loss values, gradients, and Monte Carlo H^1 estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakgal import loss, network as net, pde
from weakgal.expr import parse
from weakgal.loss import (
    H1Reference,
    NonFiniteLossError,
    as_evaluator,
    empirical_loss,
    h1_error,
    loss_gradients,
)
from weakgal.network import NetworkArch, NetworkParams, TANH, flat_to_params, init, params_to_flat
from weakgal.pde import (
    EmpiricalBatch,
    ZERO_BOUNDARY,
    constant_vector,
    identity_matrix,
    manufactured_problem,
    sample_batch,
    unit_hypercube,
)

LIN = NetworkArch(widths=(1, 1), activation=TANH, b_theta=10.0)


def _affine(a, b):
    return NetworkParams(LIN, np.array([float(a), float(b)]))


def _neumann_problem(c="0", f="1"):
    return pde.EllipticProblem(
        domain=unit_hypercube(1), a=identity_matrix(1), b=constant_vector(1, 0.0),
        c=parse(c, 1), f=parse(f, 1), g=ZERO_BOUNDARY,
        alpha=0.0, beta=1.0, bc_kind="neumann",
    )


def _endpoint_batch(x_interior):
    X = np.asarray(x_interior, dtype=float).reshape(-1, 1)
    Y = np.array([[0.0], [1.0]])
    normals = np.array([[-1.0], [1.0]])
    return EmpiricalBatch(interior=X, boundary=Y, normals=normals)


def test_hand_computed_interior_value():
    # u = 2x, v = x, a=1, b=0, c=0, f=1: integrand = 2*1 - 1*x at X={0.5} -> 1.5
    prob = _neumann_problem()
    lv = empirical_loss(_affine(2, 0), _affine(1, 0), prob, _endpoint_batch([0.5]))
    assert lv.total == pytest.approx(1.5, abs=1e-15)
    assert lv.interior == pytest.approx(1.5, abs=1e-15)
    assert lv.boundary == 0.0


def test_boundary_term_weighting():
    # alpha=1, beta=0.5, g=0: boundary = |dOmega|/(beta m) sum alpha u v
    prob = pde.EllipticProblem(
        domain=unit_hypercube(1), a=identity_matrix(1), b=constant_vector(1, 0.0),
        c=parse("0", 1), f=parse("0", 1), g=ZERO_BOUNDARY,
        alpha=1.0, beta=0.5, bc_kind="robin",
    )
    u = _affine(1, 1)  # u(0)=1, u(1)=2
    v = _affine(0, 1)  # v == 1
    lv = empirical_loss(u, v, prob, _endpoint_batch([0.5]))
    want = 2.0 / (0.5 * 2) * (1.0 * 1.0 + 2.0 * 1.0)
    assert lv.boundary == pytest.approx(want, rel=1e-15)


def test_beta_halving_doubles_boundary_component():
    prob1 = pde.EllipticProblem(
        domain=unit_hypercube(1), a=identity_matrix(1), b=constant_vector(1, 0.0),
        c=parse("1", 1), f=parse("1", 1), g=ZERO_BOUNDARY,
        alpha=1.0, beta=1.0, bc_kind="robin",
    )
    prob2 = pde.EllipticProblem(
        domain=unit_hypercube(1), a=identity_matrix(1), b=constant_vector(1, 0.0),
        c=parse("1", 1), f=parse("1", 1), g=ZERO_BOUNDARY,
        alpha=1.0, beta=0.5, bc_kind="robin",
    )
    arch = NetworkArch(widths=(1, 6, 1), activation=TANH, b_theta=3.0)
    u, v = init(arch, 0), init(arch, 1)
    batch = sample_batch(prob1.domain, 64, 64, 5)
    l1 = empirical_loss(u, v, prob1, batch)
    l2 = empirical_loss(u, v, prob2, batch)
    assert l2.interior == l1.interior
    assert l2.boundary == pytest.approx(2.0 * l1.boundary, rel=1e-12)


def test_boundary_alpha_half_switch():
    prob = pde.EllipticProblem(
        domain=unit_hypercube(1), a=identity_matrix(1), b=constant_vector(1, 0.0),
        c=parse("0", 1), f=parse("0", 1), g=ZERO_BOUNDARY,
        alpha=1.0, beta=1.0, bc_kind="robin",
    )
    u, v = _affine(1, 1), _affine(0, 1)
    batch = _endpoint_batch([0.5])
    full = empirical_loss(u, v, prob, batch, boundary_alpha_half=False)
    half = empirical_loss(u, v, prob, batch, boundary_alpha_half=True)
    assert half.boundary == pytest.approx(0.5 * full.boundary, rel=1e-15)


def test_loss_is_linear_in_v():
    prob = manufactured_problem(
        parse("sin(pi*x1)", 1), identity_matrix(1), constant_vector(1, 0.0),
        parse("1", 1), 1.0, 1.0, unit_hypercube(1), "robin",
    )
    arch = NetworkArch(widths=(1, 5, 1), activation=TANH, b_theta=5.0)
    u = init(arch, 3)
    batch = sample_batch(prob.domain, 32, 32, 9)

    def value_with_v_scale(s):
        flat = params_to_flat(init(arch, 4)).copy()
        flat[-6:] *= s  # the output layer: A (1, 5) and b (1,)
        return empirical_loss(u, NetworkParams(arch, flat), prob, batch).total

    l0 = value_with_v_scale(0.0)
    l1 = value_with_v_scale(1.0)
    l2 = value_with_v_scale(2.0)
    assert l0 == pytest.approx(0.0, abs=1e-12)
    assert l2 == pytest.approx(2.0 * l1, rel=1e-12)


def test_gradients_match_fd_on_loss():
    rng = np.random.default_rng(2718)
    prob = manufactured_problem(
        parse("sin(pi*x1)*cos(pi*x2)", 2), identity_matrix(2),
        (parse("0.3", 2), parse("-0.2", 2)), parse("1 + x1", 2),
        1.0, 0.5, unit_hypercube(2), "robin",
    )
    arch = NetworkArch(widths=(2, 5, 4, 1), activation=TANH, b_theta=3.0)
    batch = sample_batch(prob.domain, 16, 16, 0)
    h = 1e-5
    for trial in range(5):
        u = init(arch, 100 + trial)
        v = init(arch, 200 + trial)
        gu, gv, lv = loss_gradients(u, v, prob, batch, False, need_u=True, need_v=True)
        assert lv.total == empirical_loss(u, v, prob, batch).total
        fu, fv = params_to_flat(u), params_to_flat(v)
        idx = rng.choice(fu.size, size=10, replace=False)
        for i in idx:
            up = fu.copy(); up[i] += h
            um = fu.copy(); um[i] -= h
            fd = (
                empirical_loss(flat_to_params(arch, up), v, prob, batch).total
                - empirical_loss(flat_to_params(arch, um), v, prob, batch).total
            ) / (2 * h)
            assert abs(gu[i] - fd) <= 1e-4 * (1.0 + abs(fd))
            vp = fv.copy(); vp[i] += h
            vm = fv.copy(); vm[i] -= h
            fd_v = (
                empirical_loss(u, flat_to_params(arch, vp), prob, batch).total
                - empirical_loss(u, flat_to_params(arch, vm), prob, batch).total
            ) / (2 * h)
            assert abs(gv[i] - fd_v) <= 1e-4 * (1.0 + abs(fd_v))


def test_gradients_with_alpha_half_match_fd():
    prob = manufactured_problem(
        parse("sin(pi*x1)", 1), identity_matrix(1), constant_vector(1, 0.0),
        parse("1", 1), 1.0, 1.0, unit_hypercube(1), "robin",
    )
    arch = NetworkArch(widths=(1, 4, 1), activation=TANH, b_theta=3.0)
    u, v = init(arch, 1), init(arch, 2)
    batch = sample_batch(prob.domain, 8, 8, 3)
    gu, gv, _ = loss_gradients(u, v, prob, batch, True, need_u=True, need_v=True)
    h = 1e-6
    fu = params_to_flat(u)
    i = 3
    up = fu.copy(); up[i] += h
    um = fu.copy(); um[i] -= h
    fd = (
        empirical_loss(flat_to_params(arch, up), v, prob, batch, True).total
        - empirical_loss(flat_to_params(arch, um), v, prob, batch, True).total
    ) / (2 * h)
    assert gu[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_cached_empirical_loss_matches_uncached(monkeypatch):
    prob = manufactured_problem(
        parse("sin(pi*x1)*cos(pi*x2)", 2), identity_matrix(2),
        (parse("0.3", 2), parse("-0.2", 2)), parse("1 + x1", 2),
        1.0, 0.5, unit_hypercube(2), "robin",
    )
    arch = NetworkArch(widths=(2, 5, 4, 1), activation=TANH, b_theta=3.0)
    batch = sample_batch(prob.domain, 16, 16, 0)
    pairs = [(init(arch, 10 + k), init(arch, 20 + k)) for k in range(3)]
    want = [empirical_loss(u, v, prob, batch, True) for u, v in pairs]
    calls = []
    original = pde.EllipticProblem.a_values
    monkeypatch.setattr(pde.EllipticProblem, "a_values", lambda self, x: calls.append(1) or original(self, x))
    cache = loss.GradientCache()
    for (u, v), lv in zip(pairs, want):
        assert empirical_loss(u, v, prob, batch, True, cache=cache) == lv
        assert loss_gradients(u, v, prob, batch, True, cache=cache)[2] == lv
    assert len(calls) == 1


def test_need_flags_skip_outputs():
    prob = _neumann_problem()
    arch = NetworkArch(widths=(1, 3, 1), activation=TANH, b_theta=2.0)
    u, v = init(arch, 5), init(arch, 6)
    batch = sample_batch(prob.domain, 8, 8, 1)
    gu, gv, lv = loss_gradients(u, v, prob, batch, False, need_u=True, need_v=False)
    assert gu is not None and gv is None
    gu2, gv2, _ = loss_gradients(u, v, prob, batch, False, need_u=False, need_v=True)
    assert gu2 is None and gv2 is not None
    both_u, both_v, _ = loss_gradients(u, v, prob, batch, False, need_u=True, need_v=True)
    np.testing.assert_array_equal(gu, both_u)
    np.testing.assert_array_equal(gv2, both_v)


def test_non_finite_loss_reports_component_and_sample():
    prob = pde.EllipticProblem(
        domain=unit_hypercube(1), a=identity_matrix(1), b=constant_vector(1, 0.0),
        c=parse("0", 1), f=parse("1/(x1 - 0.25)", 1), g=ZERO_BOUNDARY,
        alpha=0.0, beta=1.0, bc_kind="neumann",
    )
    batch = _endpoint_batch([0.25, 0.75])
    with pytest.raises((NonFiniteLossError, Exception)) as err:
        empirical_loss(_affine(1, 0), _affine(1, 0), prob, batch)
    assert err.value is not None


def test_h1_error_closed_form():
    # ||sin(pi x)||_{H1([0,1])}^2 = 1/2 + pi^2/2
    est = h1_error(parse("sin(pi*x1)", 1), None, unit_hypercube(1), n_quad=100000, seed=10)
    want = math.sqrt(0.5 + math.pi**2 / 2)
    assert est.h1 == pytest.approx(want, rel=0.01)
    assert est.l2_part == pytest.approx(math.sqrt(0.5), rel=0.01)
    assert est.seminorm_part == pytest.approx(math.pi / math.sqrt(2), rel=0.01)


def test_h1_error_zero_for_identical_functions():
    e = parse("x1^2 + sin(x2)", 2)
    est = h1_error(e, e, unit_hypercube(2), n_quad=512, seed=0)
    assert est.h1 == 0.0


def test_h1_error_network_vs_expression():
    arch = NetworkArch(widths=(1, 8, 1), activation=TANH, b_theta=5.0)
    p = init(arch, 0)
    est_net = h1_error(p, None, unit_hypercube(1), n_quad=4096, seed=3)
    assert est_net.h1 > 0.0


# The three H^1 formulas the estimator replaced, kept as its reference: the
# soft projection's norm, the approximation probe's held-out distance, and the
# (l2_part, seminorm_part, h1) of h1_error.


def _projection_norm(params, quad, volume):
    vals, grads = net.forward_dual_batch(params, quad)
    sq = volume * float(np.mean(vals**2 + np.einsum("ni,ni->n", grads, grads)))
    return math.sqrt(max(sq, 0.0))


def _held_out_distance(params, quad, volume, t_vals, t_grads):
    vals, grads = net.forward_dual_batch(params, quad)
    sq = volume * float(np.mean((vals - t_vals) ** 2 + np.sum((grads - t_grads) ** 2, axis=1)))
    return math.sqrt(max(sq, 0.0))


def _separate_parts(u, u_ref, domain, n_quad, seed):
    X = pde.sample_interior(domain, n_quad, seed)
    u_vals, u_grads = as_evaluator(u, domain.dim)(X)
    r_vals, r_grads = as_evaluator(u_ref, domain.dim)(X)
    du, dg = u_vals - r_vals, u_grads - r_grads
    l2_sq = float(np.mean(domain.volume * du**2))
    semi_sq = float(np.mean(domain.volume * np.einsum("ni,ni->n", dg, dg)))
    return math.sqrt(max(l2_sq, 0.0)), math.sqrt(max(semi_sq, 0.0)), math.sqrt(max(l2_sq + semi_sq, 0.0))


def _ulps(a, b):
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


_REF_TEXTS = {1: "sin(pi*x1)", 2: "sin(pi*x1)*sin(pi*x2)", 3: "x1*exp(x2) - x3^2"}


@st.composite
def _h1_cases(draw):
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        domain = unit_hypercube(d)
    else:
        radius = draw(st.sampled_from([0.1, 0.3, 0.5]))
        domain = pde.Domain("ball", d, center=(0.5,) * d, radius=radius)
    widths = (d, *draw(st.lists(st.integers(1, 8), min_size=1, max_size=2)), 1)
    arch = NetworkArch(widths=widths, activation=TANH, b_theta=draw(st.sampled_from([1.0, 2.0, 10.0])))
    s = draw(st.sampled_from([0.1, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u = flat_to_params(arch, np.clip(rng.uniform(-s, s, arch.n_params()), -arch.b_theta, arch.b_theta))
    kind = draw(st.sampled_from(["zero", "expression", "network"]))
    ref = {"zero": None, "expression": parse(_REF_TEXTS[d], d), "network": init(arch, draw(st.integers(0, 99)))}[kind]
    return domain, u, ref, draw(st.integers(2, 300)), draw(st.integers(0, 2**16))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_h1_cases())
def test_h1_reference_matches_the_formulas_it_replaced(case):
    domain, u, ref, n, seed = case
    X = pde.sample_interior(domain, n, seed)
    # the soft projection's norm, against the zero reference
    assert H1Reference(None, X, domain.volume).distance(u).h1 == _projection_norm(u, X, domain.volume)
    # h1_error: both parts bitwise, h1 summed in one pass instead of two.  With
    # a zero reference from three dimensions on, the old h1_error rounded the
    # network's gradients after a layout-changing copy; the projection, which
    # the estimator follows, did not
    est = h1_error(u, ref, domain, n_quad=n, seed=seed)
    l2, semi, h1 = _separate_parts(u, ref, domain, n, seed)
    assert est.l2_part == l2
    assert _ulps(est.seminorm_part, semi) <= (4 if ref is None and domain.dim >= 3 else 0)
    assert _ulps(est.h1, h1) <= 4
    # the probe's held-out distance; np.sum over the gradient axis rounds like
    # einsum for one or two components only
    if domain.dim <= 2:
        t_vals, t_grads = as_evaluator(ref, domain.dim)(X)
        want = _held_out_distance(u, X, domain.volume, t_vals, t_grads)
        assert H1Reference(ref, X, domain.volume).distance(u).h1 == want


def test_h1_estimate_clt_rate():
    # squared-norm MC error shrinks like 1/sqrt(n): fit the log-log slope
    e = parse("sin(pi*x1)", 1)
    truth = 0.5 + math.pi**2 / 2
    ns = [100, 1000, 10000]
    mean_abs = []
    for n in ns:
        errs = []
        for seed in range(20):
            est = h1_error(e, None, unit_hypercube(1), n_quad=n, seed=[seed, n])
            errs.append(abs(est.h1**2 - truth))
        mean_abs.append(np.mean(errs))
    slope = np.polyfit(np.log(ns), np.log(mean_abs), 1)[0]
    assert -0.65 <= slope <= -0.35


def test_as_evaluator_kinds():
    dom = unit_hypercube(2)
    X = np.array([[0.2, 0.8], [0.5, 0.5]])
    ev_zero = as_evaluator(None, 2)
    vals, grads = ev_zero(X)
    assert vals.shape == (2,) and grads.shape == (2, 2)
    assert np.all(vals == 0.0) and np.all(grads == 0.0)
    e = parse("x1*x2", 2)
    vals_e, grads_e = as_evaluator(e, 2)(X)
    np.testing.assert_allclose(vals_e, X[:, 0] * X[:, 1])
    np.testing.assert_allclose(grads_e, X[:, ::-1])
    arch = NetworkArch(widths=(2, 3, 1), activation=TANH, b_theta=2.0)
    p = init(arch, 0)
    vals_n, grads_n = as_evaluator(p, 2)(X)
    v2, g2 = net.forward_dual_batch(p, X)
    np.testing.assert_array_equal(vals_n, v2)
    np.testing.assert_array_equal(grads_n, g2)
