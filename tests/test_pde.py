"""Domain sampling, problem assembly, and coercivity tests."""

import dataclasses
import math
import re

import numpy as np
import pytest

from weakgal import expr, pde
from weakgal.expr import parse
from weakgal.pde import (
    CoeffSupNorms,
    EllipticProblem,
    RobinTraceBoundary,
    ball,
    check_coercivity,
    constant_matrix,
    constant_vector,
    identity_matrix,
    manufactured_problem,
    probe_sup_norms,
    sample_batch,
    sample_boundary,
    sample_interior,
    unit_hypercube,
)


def _poisson_mass_1d():
    return manufactured_problem(
        parse("sin(pi*x1)", 1), identity_matrix(1), constant_vector(1, 0.0),
        parse("1", 1), 1.0, 1.0, unit_hypercube(1), "robin",
    )


def test_hypercube_measures():
    for d in (1, 2, 3, 5):
        dom = unit_hypercube(d)
        assert dom.volume == 1.0
        assert dom.surface == 2 * d


def test_ball_measures():
    b2 = ball([0.5, 0.5], 0.5)
    assert b2.volume == pytest.approx(math.pi * 0.25, rel=1e-12)
    assert b2.surface == pytest.approx(math.pi, rel=1e-12)
    b3 = ball([0.5, 0.5, 0.5], 0.25)
    assert b3.volume == pytest.approx(4.0 / 3.0 * math.pi * 0.25**3, rel=1e-12)
    assert b3.surface == pytest.approx(4.0 * math.pi * 0.25**2, rel=1e-12)
    with pytest.raises(ValueError):
        ball([0.5, 0.5], 0.6)  # must fit inside the unit cube
    with pytest.raises(ValueError):
        ball([0.5], 0.0)


def test_interior_samples_strictly_inside():
    for seed in range(5):
        dom = unit_hypercube(3)
        X = sample_interior(dom, 500, seed)
        assert X.shape == (500, 3)
        assert np.all(X > 0.0) and np.all(X < 1.0)
    bdom = ball([0.5, 0.5], 0.4)
    X = sample_interior(bdom, 500, 1)
    r = np.linalg.norm(X - 0.5, axis=1)
    assert np.all(r < 0.4)


def test_interior_sampling_uniform_mean():
    dom = unit_hypercube(2)
    X = sample_interior(dom, 200000, 3)
    np.testing.assert_allclose(X.mean(axis=0), [0.5, 0.5], atol=5e-3)
    np.testing.assert_allclose(X.var(axis=0), [1 / 12, 1 / 12], atol=5e-3)


def test_boundary_samples_on_faces_with_unit_normals():
    dom = unit_hypercube(2)
    Y, normals = sample_boundary(dom, 1000, 0)
    assert Y.shape == (1000, 2) and normals.shape == (1000, 2)
    on_face = (Y == 0.0) | (Y == 1.0)
    assert np.all(on_face.sum(axis=1) >= 1)
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0)
    # normal points along the pinned axis, outward
    for y, nv in zip(Y[:50], normals[:50]):
        axis = int(np.argmax(np.abs(nv)))
        assert y[axis] in (0.0, 1.0)
        assert nv[axis] == (1.0 if y[axis] == 1.0 else -1.0)


def test_boundary_samples_ball():
    dom = ball([0.5, 0.5, 0.5], 0.3)
    Y, normals = sample_boundary(dom, 400, 9)
    r = np.linalg.norm(Y - 0.5, axis=1)
    np.testing.assert_allclose(r, 0.3, rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(normals, (Y - 0.5) / 0.3, rtol=1e-9, atol=1e-12)


def test_sample_batch_deterministic_and_split():
    dom = unit_hypercube(2)
    b1 = sample_batch(dom, 64, 32, 123)
    b2 = sample_batch(dom, 64, 32, 123)
    np.testing.assert_array_equal(b1.interior, b2.interior)
    np.testing.assert_array_equal(b1.boundary, b2.boundary)
    assert b1.interior.shape == (64, 2) and b1.boundary.shape == b1.normals.shape == (32, 2)
    b3 = sample_batch(dom, 64, 32, 124)
    assert not np.array_equal(b1.interior, b3.interior)


def test_problem_validation():
    dom = unit_hypercube(1)
    with pytest.raises(ValueError):
        EllipticProblem(
            domain=dom, a=identity_matrix(1), b=constant_vector(1, 0.0),
            c=parse("1", 1), f=parse("1", 1), g=None,
            alpha=1.0, beta=0.0, bc_kind="robin",
        )
    # one rule, one message, whichever constructor meets it
    with pytest.raises(ValueError, match="^neumann requires alpha = 0$"):
        EllipticProblem(
            domain=dom, a=identity_matrix(1), b=constant_vector(1, 0.0),
            c=parse("1", 1), f=parse("1", 1), g=None,
            alpha=1.0, beta=1.0, bc_kind="neumann",
        )
    with pytest.raises(ValueError, match="^neumann requires alpha = 0$"):
        manufactured_problem(
            parse("x1", 1), identity_matrix(1), constant_vector(1, 0.0), parse("1", 1),
            1.0, 1.0, dom, "neumann",
        )
    one = parse("1", 2)
    for a, b in ((((one,),), (one, one)), (identity_matrix(2), (one,))):
        with pytest.raises(ValueError, match="a must be 2x2"):
            manufactured_problem(parse("x1", 2), a, b, one, 1.0, 1.0, unit_hypercube(2))


def test_expressions_must_have_the_domain_dimension():
    # checked at construction, naming the field, not at the first evaluation
    ok = dict(
        domain=unit_hypercube(1), a=identity_matrix(1), b=constant_vector(1, 0.0),
        c=parse("1", 1), f=parse("1", 1), g=parse("x1", 1), alpha=1.0, beta=1.0,
        u_exact=parse("x1", 1),
    )
    EllipticProblem(**ok)
    two = parse("x1 + x2", 2)
    for name, field in (("a[0][0]", {"a": ((two,),)}), ("b[0]", {"b": (two,)}), ("c", {"c": two}),
                        ("f", {"f": two}), ("g", {"g": two}), ("u_exact", {"u_exact": two})):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} is an expression in dim 2"):
            EllipticProblem(**{**ok, **field})
    # a dirichlet problem drops g before it is checked
    assert EllipticProblem(**{**ok, "g": two, "bc_kind": "dirichlet"}).g is None


def test_coefficient_evaluation_shapes():
    prob = _poisson_mass_1d()
    X = sample_interior(prob.domain, 16, 0)
    assert prob.a_values(X).shape == (16, 1, 1)
    assert prob.b_values(X).shape == (16, 1)
    assert prob.c_values(X).shape == (16,)
    assert prob.f_values(X).shape == (16,)


def test_manufactured_source_satisfies_pde():
    # f must equal -sum d_j(a_ij d_i u) + b . grad u + c u pointwise
    u = parse("sin(pi*x1)*exp(x2)", 2)
    a = (
        (parse("1 + x1^2", 2), parse("0.1", 2)),
        (parse("0.1", 2), parse("2", 2)),
    )
    b = (parse("x2", 2), parse("-1", 2))
    c = parse("1 + x1", 2)
    prob = manufactured_problem(u, a, b, c, 1.0, 1.0, unit_hypercube(2), "robin")
    X = sample_interior(prob.domain, 50, 4)
    h = 1e-5

    def op(pts):
        out = np.zeros(pts.shape[0])
        du = [expr.diff(u, 1), expr.diff(u, 2)]
        for i in range(2):
            for j in range(2):
                def flux(p, i=i, j=j):
                    return a[i][j](p) * du[i](p)
                pp = pts.copy(); pp[:, j] += h
                pm = pts.copy(); pm[:, j] -= h
                out -= (flux(pp) - flux(pm)) / (2 * h)
        for i in range(2):
            out += b[i](X) * du[i](X)
        out += c(X) * u(X)
        return out

    np.testing.assert_allclose(prob.f_values(X), op(X), rtol=1e-6, atol=1e-6)


def test_manufactured_robin_data_vanishes_at_solution():
    # g = alpha u* + beta sum a_ij d_i u* n_j on the boundary by construction
    u = parse("sin(pi*x1) + 2", 1)
    prob = manufactured_problem(
        u, identity_matrix(1), constant_vector(1, 0.0), parse("1", 1),
        2.0, 0.7, unit_hypercube(1), "robin",
    )
    Y = np.array([[0.0], [1.0]])
    normals = np.array([[-1.0], [1.0]])
    g = prob.g_values(Y, normals)
    du = expr.diff(u, 1)
    want = 2.0 * u(Y) + 0.7 * du(Y) * normals[:, 0]
    np.testing.assert_allclose(g, want, rtol=1e-12)


def test_manufactured_dirichlet_forces_zero_data():
    u = parse("sin(pi*x1)", 1)
    prob = manufactured_problem(
        u, identity_matrix(1), constant_vector(1, 0.0), parse("0", 1),
        1.0, 1e-3, unit_hypercube(1), "dirichlet",
    )
    assert prob.alpha == 1.0
    Y = np.array([[0.0], [1.0]])
    np.testing.assert_array_equal(prob.g_values(Y, np.array([[-1.0], [1.0]])), [0.0, 0.0])


def test_manufactured_dirichlet_warns_on_nonzero_trace():
    with pytest.warns(UserWarning):
        manufactured_problem(
            parse("sin(pi*x1) + 1", 1), identity_matrix(1), constant_vector(1, 0.0),
            parse("0", 1), 1.0, 1e-3, unit_hypercube(1), "dirichlet",
        )


def test_expr_boundary():
    g = parse("x1 + x2", 2)
    prob = EllipticProblem(
        domain=unit_hypercube(2), a=identity_matrix(2), b=constant_vector(2, 0.0),
        c=parse("1", 2), f=parse("1", 2), g=g, alpha=1.0, beta=1.0,
    )
    Y = np.array([[0.0, 0.5], [1.0, 0.25]])
    normals = np.array([[-1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(prob.g_values(Y, normals), [0.5, 1.25])
    # an expression g is evaluated as the expression, bit for bit
    Y, normals = sample_boundary(prob.domain, 257, 4)
    got = prob.g_values(Y, normals)
    assert got.dtype == np.float64 and got.tobytes() == expr.evaluate_many(g, Y).tobytes()


def test_dirichlet_problem_applies_the_penalty_rule():
    dom = unit_hypercube(2)
    prob = EllipticProblem(
        domain=dom, a=identity_matrix(2), b=constant_vector(2, 0.0),
        c=parse("1", 2), f=parse("1", 2), g=parse("x1 + 3*x2", 2),
        alpha=0.3, beta=0.1, bc_kind="dirichlet",
    )
    Y, normals = sample_boundary(dom, 64, 7)
    replaced = dataclasses.replace(prob, beta=1e-3)
    assert replaced.beta == 1e-3
    for p in (prob, replaced):
        assert p.alpha == 1.0 and p.g is None
        np.testing.assert_array_equal(p.g_values(Y, normals), np.zeros(64))


def test_robin_trace_boundary_matches_manual():
    u = parse("x1^2", 1)
    g = RobinTraceBoundary(
        u, identity_matrix(1), alpha=1.0, beta=2.0,
    )
    Y = np.array([[0.0], [1.0]])
    normals = np.array([[-1.0], [1.0]])
    # alpha u + beta a u' n = x^2 + 2 * 2x * n
    np.testing.assert_allclose(g(Y, normals), [0.0, 1.0 + 4.0])


def test_coercivity_holds_for_poisson_mass():
    rep = check_coercivity(_poisson_mass_1d())
    assert rep.holds
    assert rep.lambda_min == pytest.approx(1.0)
    assert rep.c_min == pytest.approx(1.0)
    assert rep.b_max == pytest.approx(0.0)
    assert rep.condition == pytest.approx(4.0)


def test_coercivity_fails_with_strong_advection():
    for b in ("10", "1e300"):  # sup|b|^2 overflows a float at 1e300
        prob = EllipticProblem(
            domain=unit_hypercube(1), a=identity_matrix(1),
            b=(parse(b, 1),), c=parse("0.1", 1), f=parse("1", 1),
            g=None, alpha=1.0, beta=1.0, bc_kind="robin",
        )
        rep = check_coercivity(prob)
        # 4 * 1 * 0.1 - 1 * 100 < 0
        assert not rep.holds
        assert rep.condition < 0


def test_coercivity_variable_diffusion():
    prob = EllipticProblem(
        domain=unit_hypercube(1), a=((parse("1 + x1", 1),),),
        b=constant_vector(1, 0.0), c=parse("2", 1), f=parse("1", 1),
        g=None, alpha=1.0, beta=1.0, bc_kind="robin",
    )
    rep = check_coercivity(prob, n_probes=4000, seed=11)
    assert rep.lambda_min >= 1.0
    assert rep.holds


def test_probe_sup_norms():
    prob = _poisson_mass_1d()
    sups = probe_sup_norms(prob, n_probes=4000, seed=2)
    assert isinstance(sups, CoeffSupNorms)
    assert sups.a_max == 1.0
    assert sups.b_max == 0.0
    assert sups.c_max == 1.0
    # f = (pi^2 + 1) sin(pi x) peaks near x = 1/2
    assert sups.f_max == pytest.approx(math.pi**2 + 1.0, rel=1e-3)
    assert sups.g_max > 0.0


def test_constant_matrix_and_vector():
    m = constant_matrix(2, diag=2.0, off=0.5)
    X = np.array([[0.1, 0.9]])
    assert m[0][0](X)[0] == 2.0
    assert m[0][1](X)[0] == 0.5
    assert m[1][1](X)[0] == 2.0
    v = constant_vector(3, 1.5)
    assert all(v[i](np.zeros((1, 3)))[0] == 1.5 for i in range(3))
