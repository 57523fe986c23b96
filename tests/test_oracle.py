"""Finite-difference reference solvers and the penalty-rate study."""

import dataclasses
import math

import numpy as np
import pytest

from weakgal import oracle
from weakgal.expr import parse
from weakgal.oracle import (
    Grid1D,
    SolveError,
    fd_solve_1d,
    grid_h1_error,
    penalty_rate_study,
)
from weakgal.pde import (
    ball,
    constant_vector,
    identity_matrix,
    manufactured_problem,
    unit_hypercube,
)


def _problem_1d(u_text, bc, alpha=1.0, beta=1.0, a=None, b=None, c="1"):
    return manufactured_problem(
        parse(u_text, 1),
        a if a is not None else identity_matrix(1),
        b if b is not None else constant_vector(1, 0.0),
        parse(c, 1), alpha, beta, unit_hypercube(1), bc,
    )


def test_dirichlet_solver_second_order():
    prob = _problem_1d("sin(pi*x1)", "dirichlet", c="0")
    u_star = parse("sin(pi*x1)", 1)
    errs = [grid_h1_error(fd_solve_1d(prob, n), u_star) for n in (64, 128, 256)]
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.6 <= e1 / e2 <= 4.4


def test_robin_solver_second_order():
    prob = _problem_1d("sin(pi*x1) + 2", "robin", alpha=1.0, beta=1.0)
    u_star = parse("sin(pi*x1) + 2", 1)
    errs = [grid_h1_error(fd_solve_1d(prob, n), u_star) for n in (64, 128, 256)]
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.6 <= e1 / e2 <= 4.4


def test_robin_solver_variable_coefficients():
    prob = _problem_1d(
        "cos(pi*x1) + x1^2", "robin", alpha=2.0, beta=0.5,
        a=((parse("1 + 0.5*x1", 1),),), b=(parse("0.3", 1),), c="1 + x1",
    )
    u_star = parse("cos(pi*x1) + x1^2", 1)
    errs = [grid_h1_error(fd_solve_1d(prob, n), u_star) for n in (64, 128, 256)]
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.5 <= e1 / e2 <= 4.5


def test_neumann_solver():
    # alpha = 0: pure flux data; c=1 keeps the operator invertible
    prob = _problem_1d("cos(pi*x1)", "robin", alpha=0.0, beta=1.0)
    u_star = parse("cos(pi*x1)", 1)
    errs = [grid_h1_error(fd_solve_1d(prob, n), u_star) for n in (128, 256)]
    assert errs[-1] < 1e-3
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_solver_exact_for_linear_solution():
    # u = 1 + x is in the FD space: only quadrature error remains
    prob = _problem_1d("1 + x1", "robin", alpha=1.0, beta=1.0, c="0")
    g = fd_solve_1d(prob, 128)
    x = g.nodes
    np.testing.assert_allclose(g.values, 1 + x, atol=1e-9)


def test_grid1d_invariants():
    with pytest.raises(ValueError):
        Grid1D(n=1, values=np.zeros(2))
    with pytest.raises(ValueError):
        Grid1D(n=4, values=np.zeros(4))  # needs n+1 nodes
    g = Grid1D(n=4, values=np.zeros(5))
    assert g.h == 0.25
    np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_h1_error_closed_form():
    # error of the zero grid against u = x is ||x||_{H1}^2 = 1/3 + 1
    n = 1024
    g = Grid1D(n=n, values=np.zeros(n + 1))
    err = grid_h1_error(g, parse("x1", 1))
    assert err == pytest.approx(math.sqrt(1.0 / 3.0 + 1.0), abs=1e-3)
    with pytest.raises(TypeError):  # a callable on points is not grid data
        grid_h1_error(g, lambda x: x[:, 0])


def test_grid_h1_error_identical_grids():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=65)
    g1 = Grid1D(n=64, values=vals)
    g2 = Grid1D(n=64, values=vals.copy())
    assert grid_h1_error(g1, g2) == 0.0


def test_penalty_rate_study_properties():
    prob = _problem_1d("sin(pi*x1)", "dirichlet", c="1")
    betas = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    study = penalty_rate_study(prob, betas, n=512)
    assert study.monotone
    assert study.slope >= 0.35
    assert study.within_half_rate
    # anchored fit: error(beta) <= c_fit sqrt(beta) with equality at beta_max
    b_max = max(betas)
    i_max = study.betas.index(b_max) if isinstance(study.betas, list) else list(study.betas).index(b_max)
    assert study.c_fit == pytest.approx(study.errors[i_max] / math.sqrt(b_max), rel=1e-12)
    for b, e in zip(study.betas, study.errors):
        assert e <= study.c_fit * math.sqrt(b) * (1 + 1e-9)


def test_penalty_study_rejects_2d():
    prob = manufactured_problem(
        parse("sin(pi*x1)*sin(pi*x2)", 2), identity_matrix(2), constant_vector(2, 0.0),
        parse("1", 2), 1.0, 1.0, unit_hypercube(2), "dirichlet",
    )
    with pytest.raises(ValueError):
        penalty_rate_study(prob, [1e-1, 1e-2], n=64)


def test_fd_solve_rejects_a_domain_other_than_the_unit_interval():
    prob = dataclasses.replace(_problem_1d("sin(pi*x1)", "dirichlet"), domain=ball([0.5], 0.25))
    with pytest.raises(ValueError, match="unit interval"):
        fd_solve_1d(prob, 16)
    with pytest.raises(ValueError, match="unit interval"):
        penalty_rate_study(prob, [1e-1, 1e-2], n=16)


def test_penalty_study_requires_two_betas():
    prob = _problem_1d("sin(pi*x1)", "dirichlet")
    with pytest.raises(ValueError):
        penalty_rate_study(prob, [1e-1], n=64)


def test_residual_guard_large_grid():
    # the solve must satisfy its own discrete system to near machine precision
    prob = _problem_1d("sin(pi*x1)", "dirichlet", c="0")
    g = fd_solve_1d(prob, 2048)
    assert g.values.shape == (2049,)
    u_star = parse("sin(pi*x1)", 1)
    assert grid_h1_error(g, u_star) < 1e-5


def test_tridiag_check_rejects_nan():
    # a NaN residual compares False with any tolerance; it must still fail
    ones = np.ones(4)
    with pytest.raises(SolveError, match="residual"):
        oracle._solve_tridiag(0.1 * ones, np.array([np.nan, 1.0, 1.0, 1.0]), 0.1 * ones, ones)


def test_tiny_beta_ghost_rows_raise():
    # 2h / (beta a) overflows to inf; the end rows would hold 0 * inf = NaN
    prob = _problem_1d("sin(pi*x1)", "robin", beta=1e-310)
    with pytest.raises(SolveError):
        fd_solve_1d(prob, 16)


def test_beta_times_a_underflowing_to_zero_raises():
    # beta and a(0) are both positive, but their product rounds to 0, so the
    # ghost rows' 2h / (beta a) divides by zero
    prob = _problem_1d("sin(pi*x1)", "robin", beta=5e-324, a=((parse("0.5", 1),),))
    with pytest.raises(SolveError, match="^finite-difference system: divide by zero encountered in scalar divide$"):
        fd_solve_1d(prob, 16)


@pytest.mark.parametrize("betas", [(1e-300, 1e-310), (1e-300, 1e-250)])
def test_penalty_study_rejects_unresolvable_beta(betas):
    # the study must not fit a slope through NaN or log(0)
    prob = _problem_1d("sin(pi*x1)", "dirichlet")
    with pytest.raises(SolveError):
        penalty_rate_study(prob, betas, n=16)


def test_penalty_rate_study_rejects_a_repeated_beta():
    # two equal betas leave np.polyfit a rank-deficient fit
    with pytest.raises(ValueError, match="distinct"):
        oracle.penalty_rate_study(_problem_1d("sin(pi*x1)", "dirichlet"), [0.1, 0.1], n=64)
