"""Empirical loss values, gradients, and Monte Carlo H^1 estimates."""

import dataclasses
import math
import warnings

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
from weakgal.network import LOGISTIC, NetworkArch, NetworkParams, TANH, flat_to_params, init
from weakgal.pde import (
    EmpiricalBatch,
    constant_vector,
    identity_matrix,
    manufactured_problem,
    sample_batch,
    unit_hypercube,
)

LIN = NetworkArch(widths=(1, 1), activation=TANH, b_theta=10.0)


def _affine(a, b):
    return NetworkParams(LIN, np.array([float(a), float(b)]))


def _neumann_problem(c="0", f="1", dim=1, domain=None):
    return pde.EllipticProblem(
        domain=domain or unit_hypercube(dim), a=identity_matrix(dim), b=constant_vector(dim, 0.0),
        c=parse(c, dim), f=parse(f, dim), g=None,
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
        c=parse("0", 1), f=parse("0", 1), g=None,
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
        c=parse("1", 1), f=parse("1", 1), g=None,
        alpha=1.0, beta=1.0, bc_kind="robin",
    )
    prob2 = pde.EllipticProblem(
        domain=unit_hypercube(1), a=identity_matrix(1), b=constant_vector(1, 0.0),
        c=parse("1", 1), f=parse("1", 1), g=None,
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
        c=parse("0", 1), f=parse("0", 1), g=None,
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
        flat = init(arch, 4).flat.copy()
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
        fu, fv = u.flat, v.flat
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
    fu = u.flat
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


@pytest.mark.parametrize("dim", [1, 2])
def test_outer_step_computes_the_u_side_factors_once(monkeypatch, dim):
    """A training step's three calls on one batch and one ``u``, two for v's
    ascent and one for u's descent, compute the factors that depend on ``u``
    alone once, and give the bits of calls that share no cache."""
    u_exact = parse("sin(pi*x1)" if dim == 1 else "sin(pi*x1)*cos(pi*x2)", dim)
    a = [[parse("1+x1^2" if i == j else "0.25*x1", dim) for j in range(dim)] for i in range(dim)]
    prob = manufactured_problem(
        u_exact, a, [parse("0.3*x1", dim)] * dim, parse("1", dim), 1.0, 0.5, unit_hypercube(dim), "robin",
    )
    arch = NetworkArch(widths=(dim, 5, 4, 1), activation=TANH, b_theta=3.0)
    u, vs = init(arch, 1), [init(arch, 2 + k) for k in range(3)]
    batch = sample_batch(prob.domain, 16, 16, 3)
    fresh = [loss_gradients(u, v, prob, batch, True, need_u=False) for v in vs[:2]]
    fresh.append(loss_gradients(u, vs[2], prob, batch, True, need_v=False))

    einsum, a_u = np.einsum, []  # a_u = A grad u is one of the factors
    monkeypatch.setattr(np, "einsum", lambda spec, *ops, **kw: (
        a_u.append(1) if spec == "nij,ni->nj" else None) or einsum(spec, *ops, **kw))
    cache = loss.GradientCache()
    got = [loss_gradients(u, v, prob, batch, True, need_u=False, cache=cache) for v in vs[:2]]
    got.append(loss_gradients(u, vs[2], prob, batch, True, need_v=False, cache=cache))
    assert len(a_u) == 1
    for (gu, gv, value), (fu, fv, fvalue) in zip(got, fresh):
        assert value == fvalue
        for g, f in ((gu, fu), (gv, fv)):
            if f is None:
                assert g is None
            else:
                np.testing.assert_array_equal(g, f)
                np.testing.assert_array_equal(np.signbit(g), np.signbit(f))
    loss_gradients(init(arch, 9), vs[0], prob, batch, True, need_u=False, cache=cache)
    assert len(a_u) == 2  # another u: its own factors


def _record_keep_flags(monkeypatch) -> list:
    kept = []  # the keep flag of every forward, in call order
    original = net.forward_tape
    monkeypatch.setattr(net, "forward_tape", lambda *a, keep=True, **k: kept.append(keep) or original(*a, keep=keep, **k))
    return kept


def test_cache_keeps_u_tapes_only_for_gradients(monkeypatch):
    # a 2D batch: each network takes an interior and a boundary forward
    prob = _neumann_problem(dim=2)
    arch = NetworkArch(widths=(2, 4, 1), activation=TANH, b_theta=2.0)
    u, v = init(arch, 5), init(arch, 6)
    batch = sample_batch(prob.domain, 8, 8, 1)
    kept = _record_keep_flags(monkeypatch)  # u's and v's, interior then boundary
    cache = loss.GradientCache()
    value = empirical_loss(u, v, prob, batch, cache=cache)
    assert kept == [False] * 4
    assert loss_gradients(u, v, prob, batch, cache=cache)[2] == value  # u taped now, then v
    assert kept[4:] == [True] * 4
    loss_gradients(u, v, prob, batch, cache=cache)
    assert empirical_loss(u, v, prob, batch, cache=cache) == value  # u's tapes reused: v only
    assert kept[8:] == [True, True, False, False]


def test_cache_keeps_one_u_tape_per_batch_in_1d(monkeypatch):
    # 1D batches drawn on the cube and on a ball, and one built by hand: one
    # forward per network over the interior and the distinct boundary points
    cube, ball = _neumann_problem(), _neumann_problem(domain=pde.ball([0.5], 0.25))
    arch = NetworkArch(widths=(1, 4, 1), activation=TANH, b_theta=2.0)
    u, v = init(arch, 5), init(arch, 6)
    kept = _record_keep_flags(monkeypatch)  # u's, then v's
    for prob, batch in (
        (cube, sample_batch(cube.domain, 8, 8, 1)),
        (ball, sample_batch(ball.domain, 8, 8, 1)),
        (cube, _endpoint_batch([0.25, 0.5, 0.75])),
    ):
        kept.clear()
        cache = loss.GradientCache()
        value = empirical_loss(u, v, prob, batch, cache=cache)
        assert kept == [False] * 2
        assert loss_gradients(u, v, prob, batch, cache=cache)[2] == value  # u taped now, then v
        assert kept[2:] == [True] * 2
        loss_gradients(u, v, prob, batch, cache=cache)
        assert empirical_loss(u, v, prob, batch, cache=cache) == value  # u's tape reused: v only
        assert kept[4:] == [True, False]


def test_cache_frees_the_previous_u_before_evaluating_the_next(monkeypatch):
    # a new u, or u's tapes wanted after a value-only call, is evaluated with no
    # earlier evaluation of u still held by the cache
    prob = _neumann_problem(dim=2)
    arch = NetworkArch(widths=(2, 4, 1), activation=TANH, b_theta=2.0)
    u1, u2, v = init(arch, 5), init(arch, 6), init(arch, 7)
    batch = sample_batch(prob.domain, 8, 8, 1)
    cache, held = loss.GradientCache(), []
    original = loss._evaluate

    def evaluate(name, *args, **kwargs):
        if name == "u":
            held.append(cache._u_eval)
        return original(name, *args, **kwargs)

    monkeypatch.setattr(loss, "_evaluate", evaluate)
    empirical_loss(u1, v, prob, batch, cache=cache)
    loss_gradients(u1, v, prob, batch, cache=cache)
    loss_gradients(u2, v, prob, batch, cache=cache)
    empirical_loss(u1, v, prob, batch, cache=cache)
    assert held == [None] * 4


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
        c=parse("0", 1), f=parse("1/(x1 - 0.25)", 1), g=None,
        alpha=0.0, beta=1.0, bc_kind="neumann",
    )
    batch = _endpoint_batch([0.25, 0.75])
    with pytest.raises((NonFiniteLossError, Exception)) as err:
        empirical_loss(_affine(1, 0), _affine(1, 0), prob, batch)
    assert err.value is not None


# A 1D boundary has at most two points, and networks are evaluated once over
# the interior points stacked over those points.  Each case is (problem,
# boundary_alpha_half, boundary rows M).
_MERGED_CASES = {
    "robin": lambda: (manufactured_problem(
        parse("sin(pi*x1) + x1", 1), identity_matrix(1), (parse("0.3", 1),),
        parse("1 + x1", 1), 0.7, 0.5, unit_hypercube(1), "robin"), False, 24),
    "neumann": lambda: (manufactured_problem(
        parse("cos(pi*x1) + x1^2", 1), identity_matrix(1), constant_vector(1, 0.0),
        parse("1", 1), 0.0, 1.0, unit_hypercube(1), "neumann"), False, 24),
    "dirichlet-alpha-half": lambda: (manufactured_problem(
        parse("sin(pi*x1)", 1), identity_matrix(1), constant_vector(1, 0.0),
        parse("1", 1), 1.0, 0.1, unit_hypercube(1), "dirichlet"), True, 24),
    "one-face": lambda: (manufactured_problem(
        parse("sin(pi*x1) + x1", 1), identity_matrix(1), (parse("-0.4", 1),),
        parse("2", 1), 1.0, 1.0, unit_hypercube(1), "robin"), False, 1),
    "ball": lambda: (manufactured_problem(
        parse("sin(pi*x1) + x1", 1), identity_matrix(1), (parse("0.3", 1),),
        parse("1 + x1", 1), 0.7, 0.5, pde.ball([0.45], 0.3), "robin"), False, 24),
}
_ARCH_U = NetworkArch(widths=(1, 6, 5, 1), activation=TANH, b_theta=3.0)
_ARCH_V = NetworkArch(widths=(1, 7, 1), activation=LOGISTIC, b_theta=3.0)


def _two_call(u, v, prob, batch, half):
    """(value, grad_u, grad_v) from a tape of each network at the interior
    points and a value-only tape at the boundary points, each swept once."""
    X, Y = batch.interior, batch.boundary
    iu, iv = net.forward_tape(u, X), net.forward_tape(v, X)
    bu, bv = net.forward_tape(u, Y, grads=False), net.forward_tape(v, Y, grads=False)
    A, B, c, f = prob.a_values(X), prob.b_values(X), prob.c_values(X), prob.f_values(X)
    alpha = 0.5 * prob.alpha if half else prob.alpha
    w_int = prob.domain.volume / X.shape[0]
    w_bdy = prob.domain.surface / (prob.beta * Y.shape[0])
    a_u = np.einsum("nij,ni->nj", A, iu.grads)
    r_u = np.einsum("ni,ni->n", B, iu.grads) + c * iu.values - f
    r_y = alpha * bu.values - prob.g_values(Y, batch.normals)
    interior = w_int * float(np.sum(np.einsum("ni,ni->n", a_u, iv.grads) + r_u * iv.values))
    boundary = w_bdy * float(np.sum(r_y * bv.values))
    grad_u = net.backprop_tape(
        iu, w_int * c * iv.values, w_int * (np.einsum("nij,nj->ni", A, iv.grads) + B * iv.values[:, None])
    ) + net.backprop_tape(bu, w_bdy * alpha * bv.values)
    grad_v = net.backprop_tape(iv, w_int * r_u, w_int * a_u) + net.backprop_tape(bv, w_bdy * r_y)
    return loss.LossValue(interior + boundary, interior, boundary), grad_u, grad_v


def _merged_case(name, seed):
    prob, half, m = _MERGED_CASES[name]()
    batch = sample_batch(prob.domain, 32, m, seed)
    assert np.unique(batch.boundary).size == (2 if m > 1 else 1)
    return prob, half, batch


@pytest.mark.parametrize("name", sorted(_MERGED_CASES))
def test_merged_1d_path_matches_the_two_call_path(name):
    prob, half, batch = _merged_case(name, 4)
    for k in range(3):
        u, v = init(_ARCH_U, 10 + k), init(_ARCH_V, 20 + k)
        merged_value = empirical_loss(u, v, prob, batch, half)
        split_value, *two_call = _two_call(u, v, prob, batch, half)
        for field in ("total", "interior", "boundary"):
            assert getattr(merged_value, field) == pytest.approx(getattr(split_value, field), rel=1e-12)
        merged = loss_gradients(u, v, prob, batch, half)
        assert merged[2] == merged_value
        for got, want in zip(merged[:2], two_call):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name", sorted(_MERGED_CASES))
def test_merged_1d_gradients_match_fd(name):
    # criterion 1's step and tolerance
    prob, half, batch = _merged_case(name, 9)
    rng = np.random.default_rng(31)
    h = 1e-5
    u, v = init(_ARCH_U, 3), init(_ARCH_V, 4)
    gu, gv, _ = loss_gradients(u, v, prob, batch, half)

    def value(pu, pv):
        return empirical_loss(pu, pv, prob, batch, half).total

    for params, grad, other, is_u in ((u, gu, v, True), (v, gv, u, False)):
        flat0 = params.flat
        for i in rng.choice(flat0.size, size=8, replace=False):
            fp, fm = flat0.copy(), flat0.copy()
            fp[i] += h
            fm[i] -= h
            pp, pm = flat_to_params(params.arch, fp), flat_to_params(params.arch, fm)
            lp, lm = (value(pp, other), value(pm, other)) if is_u else (value(other, pp), value(other, pm))
            fd = (lp - lm) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-4 * (1.0 + abs(fd))


def test_cache_keys_cannot_change_under_the_cache():
    """The cache recognises a problem and a batch by identity, so neither may
    change in place: a shared cache would go on reading the old coefficients
    or points.  A changed copy is another object and gets a fresh reading."""
    prob = manufactured_problem(
        parse("sin(pi*x1)", 1), identity_matrix(1), constant_vector(1, 0.0),
        parse("1", 1), 1.0, 1.0, unit_hypercube(1), "robin",
    )
    batch = sample_batch(prob.domain, 32, 32, 0)
    arch = NetworkArch(widths=(1, 4, 1), activation=TANH, b_theta=2.0)
    u, v = init(arch, 1), init(arch, 2)
    cache = loss.GradientCache()
    before = empirical_loss(u, v, prob, batch, cache=cache)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.c = parse("5", 1)
    for name in ("interior", "boundary", "normals"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(batch, name)[:] = 0.5
    assert empirical_loss(u, v, prob, batch, cache=cache) == before
    changed = dataclasses.replace(prob, c=parse("5", 1))
    moved = EmpiricalBatch(np.full_like(batch.interior, 0.5), batch.boundary, batch.normals)
    for p, b in ((changed, batch), (prob, moved)):
        fresh = empirical_loss(u, v, p, b)
        assert fresh != before
        assert empirical_loss(u, v, p, b, cache=cache) == fresh


def test_overflowing_robin_trace_is_caught():
    """A callable g (``RobinTraceBoundary``) computes outside expr's trap, so
    the loss checks its values: beta = 1e308 overflows beta u' nu at x = 0."""
    prob = manufactured_problem(
        parse("sin(pi*x1)", 1), identity_matrix(1), constant_vector(1, 0.0),
        parse("1", 1), 1.0, 1e308, unit_hypercube(1), "robin",
    )
    batch = _endpoint_batch([0.5])
    arch = NetworkArch(widths=(1, 4, 1), activation=TANH, b_theta=2.0)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteLossError) as err:
        loss_gradients(init(arch, 1), init(arch, 2), prob, batch)
    assert (err.value.component, err.value.sample_index) == ("boundary g", 0)


@pytest.mark.parametrize("name", ["u", "v"])
def test_non_finite_weight_gradient_names_no_sample(monkeypatch, name):
    """A weight gradient's entries belong to no sample, so its error names none."""
    original = net.backprop_tape

    def poisoned(*args):
        grad = original(*args)
        grad[-1] = math.inf
        return grad

    monkeypatch.setattr(net, "backprop_tape", poisoned)
    arch = NetworkArch(widths=(1, 4, 1), activation=TANH, b_theta=2.0)
    with pytest.raises(NonFiniteLossError) as err:
        loss_gradients(init(arch, 1), init(arch, 2), _neumann_problem(), _endpoint_batch([0.25, 0.5]),
                       need_u=name == "u", need_v=name == "v")
    assert (err.value.component, err.value.sample_index) == (f"grad_{name}", -1)
    assert str(err.value) == f"non-finite value in grad_{name} term"


def test_non_finite_h1_estimate_raises_without_a_warning():
    # 1e200 squared overflows; the estimate raises instead of reading inf
    points = np.array([[0.25], [0.5], [0.75]])
    huge = H1Reference(parse("1e200*sin(pi*x1)", 1), points, 1.0)
    arch = NetworkArch(widths=(1, 4, 1), activation=TANH, b_theta=2.0)
    for call in (lambda: huge.distance(init(arch, 0)),
                 lambda: H1Reference(None, points, 1.0).distance_of(np.full(3, np.nan), np.zeros((3, 1)))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLossError) as err:
                call()
        assert (err.value.component, err.value.sample_index) == ("H1 estimate", -1)


def _blows_up_at_one(dim) -> NetworkParams:
    """A relu^2 network that is 0 where x1 <= 0.999 and overflows to inf at x1 = 1."""
    arch = NetworkArch(widths=(dim, 1, 1), activation=net.activation_by_name("relu2"), b_theta=1.0)
    return NetworkParams(arch, np.array([1e200] + [0.0] * (dim - 1) + [-0.999e200, 1.0, 0.0]))


@pytest.mark.parametrize("name", ["u", "v"])
def test_merged_1d_path_names_the_non_finite_boundary_row(name):
    # the 1D batch takes the merged path, the 2D batch two forwards per network
    for dim, seed in ((1, 17), (2, 24)):
        prob = _neumann_problem(dim=dim)
        batch = sample_batch(prob.domain, 16, 12, seed)
        assert batch.interior[:, 0].max() < 0.999
        row = int(np.argmax(batch.boundary[:, 0] > 0.999))
        assert row > 1  # a boundary row, not a distinct point's index
        finite = init(NetworkArch(widths=(dim, 4, 1), activation=TANH, b_theta=2.0), 0)
        u, v = (_blows_up_at_one(dim), finite) if name == "u" else (finite, _blows_up_at_one(dim))
        for call in (empirical_loss, loss_gradients):
            with np.errstate(all="ignore"), pytest.raises(NonFiniteLossError) as err:
                call(u, v, prob, batch)
            assert (err.value.component, err.value.sample_index) == (f"boundary {name}", row)


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
    with pytest.raises(TypeError, match="expected a network, an expression or None"):
        as_evaluator(lambda points: (v2, g2), 2)


def test_loss_takes_networks_only():
    prob, batch, e = _neumann_problem(), _endpoint_batch([0.5]), parse("x1", 1)
    for u, v, name in ((e, _affine(1, 0), "u"), (_affine(1, 0), lambda X: (X[:, 0], X), "v")):
        for call in (empirical_loss, loss_gradients):
            with pytest.raises(TypeError, match=f"{name} must be a network"):
                call(u, v, prob, batch)


# a small alphabet of coefficient expressions, written over x1 and the last
# coordinate x{d}: constants, and ones that vary on the domain
_CONSTANT = ("0", "1", "0.4", "-0.3")
_VARYING = ("1 + x1^2", "cos(x{d})", "0.5*x1 - x{d}", "exp(-x1*x{d})")
_ACTIVATIONS = ("tanh", "logistic", "relu3")


@st.composite
def _loss_routes(draw):
    """A problem, a batch, two networks of their own architectures and an alpha
    convention, over every route of the loss: 1D (stacked, summed boundary
    seeds) and 2D/3D (two tapes), cubes and balls, each boundary kind."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        domain = pde.unit_hypercube(dim)
    else:
        radius = draw(st.sampled_from([0.2, 0.35, 0.5]))
        domain = pde.ball([draw(st.floats(radius, 1.0 - radius)) for _ in range(dim)], radius)

    def coefficient(varying=True):
        text = draw(st.sampled_from(_CONSTANT + _VARYING if varying else _CONSTANT))
        return parse(text.replace("{d}", str(dim)), dim)

    if draw(st.booleans()):
        a = identity_matrix(dim)
    else:  # entries drawn one by one: a(x) need not be symmetric
        a = tuple(
            tuple(parse("1.5 + x1^2", dim) if i == j else coefficient() for j in range(dim))
            for i in range(dim)
        )
    varying = draw(st.booleans())
    b = tuple(coefficient(varying) for _ in range(dim))
    bc_kind = draw(st.sampled_from(["robin", "neumann", "dirichlet"]))
    alpha = 0.0 if bc_kind == "neumann" else draw(st.sampled_from([0.5, 1.0, 2.0]))
    g = None if draw(st.booleans()) else coefficient(varying)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a non-symmetric a warns
        problem = pde.EllipticProblem(
            domain=domain, a=a, b=b, c=coefficient(varying), f=coefficient(varying), g=g,
            alpha=alpha, beta=draw(st.sampled_from([0.1, 0.5, 1.0])), bc_kind=bc_kind,
        )
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    batch = sample_batch(domain, n, m, draw(st.integers(0, 2**16)))

    def network():
        hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))  # depth 2-4
        activation = net.activation_by_name(draw(st.sampled_from(_ACTIVATIONS)))
        arch = NetworkArch(widths=(dim, *hidden, 1), activation=activation, b_theta=3.0)
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        return NetworkParams(arch, rng.uniform(-1.0, 1.0, arch.n_params()))

    return problem, batch, network(), network(), draw(st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_loss_routes())
def test_gradients_match_fd_on_every_loss_route(case):
    """Both networks' ``loss_gradients`` are central differences of
    ``empirical_loss`` in every weight, at ``test_gradients_match_fd_on_loss``'s
    step and tolerance."""
    problem, batch, u, v, half = case
    gu, gv, value = loss_gradients(u, v, problem, batch, half)
    assert value == empirical_loss(u, v, problem, batch, half)
    h = 1e-5
    for params, grad, is_u in ((u, gu, True), (v, gv, False)):
        for i in range(params.flat.size):
            moved = []
            for step in (h, -h):
                flat = params.flat.copy()
                flat[i] += step
                p = NetworkParams(params.arch, flat)
                pu, pv = (p, v) if is_u else (u, p)
                moved.append(empirical_loss(pu, pv, problem, batch, half).total)
            fd = (moved[0] - moved[1]) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-4 * (1.0 + abs(fd)), ("u" if is_u else "v", i, grad[i], fd)
