"""Finite-difference reference solver and grid norm.

This is the trusted, boring solver the neural results are judged against:
a conservative second-order scheme for the general 1d problem (Robin data via
ghost-point elimination, Dirichlet directly), solved by a dependency-free
Thomas recurrence.

The ghost-point rows evaluate coefficient expressions at -h/2 and 1 + h/2;
coefficients must extend smoothly there (true for closed-form expressions).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import expr as expr_mod
from .expr import ExprAst
from .pde import EllipticProblem, unit_hypercube

__all__ = [
    "PENALTY_GRID_N",
    "SolveError",
    "Grid1D",
    "fd_solve_1d",
    "grid_h1_error",
    "PenaltyStudy",
    "penalty_rate_study",
]


class SolveError(ArithmeticError):
    """Linear solve failed (singular pivot, overflow, bad residual)."""


@dataclass(frozen=True)
class Grid1D:
    """Nodal values on x_j = j/n, j = 0..n (boundary nodes included)."""

    n: int
    values: np.ndarray  # shape (n+1,)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 intervals, got {self.n}")
        if self.values.shape != (self.n + 1,):
            raise ValueError(f"values must have shape ({self.n + 1},), got {self.values.shape}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)


def _solve_tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas solve (forward elimination, back substitution), residual-checked.

    lower[i] multiplies x[i-1] in row i (lower[0] unused); upper[i] multiplies
    x[i+1] (upper[-1] unused).  No pivoting: rows are diagonally dominant for
    the schemes built here.  The residual is scaled by the largest row sum
    (unused entries included) and the data; a NaN residual fails the check.
    """
    n = diag.size
    c = np.empty(n)
    d = np.empty(n)
    piv = diag[0]
    if piv == 0.0:
        raise SolveError("zero pivot in tridiagonal solve")
    c[0] = upper[0] / piv if n > 1 else 0.0
    d[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i] * c[i - 1]
        if piv == 0.0:
            raise SolveError("zero pivot in tridiagonal solve")
        c[i] = upper[i] / piv if i < n - 1 else 0.0
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / piv
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]

    Ax = diag * x
    Ax[1:] += lower[1:] * x[:-1]
    Ax[:-1] += upper[:-1] * x[1:]
    scale = (
        (np.abs(lower) + np.abs(diag) + np.abs(upper)).max() * np.abs(x).max()
        + np.abs(rhs).max()
    )
    res = float(np.abs(Ax - rhs).max() / max(scale, 1.0))
    if not res <= 1e-10:
        raise SolveError(f"tridiagonal residual {res:.3g} exceeds tolerance")
    return x


def _eval1(ast: ExprAst, x: np.ndarray) -> np.ndarray:
    return expr_mod.evaluate_many(ast, x[:, None])


def fd_solve_1d(problem: EllipticProblem, n: int) -> Grid1D:
    """Second-order conservative scheme for the 1d problem on [0,1].

    -(a u')' + b u' + c u = f with either the problem's Robin data
    (alpha u + beta a u' nu = g at both ends, nu = -/+ 1) or, when its
    ``bc_kind`` is "dirichlet", zero Dirichlet data.  An overflow or invalid
    operation while building or solving the system (a beta so small that the
    ghost rows blow up) is a SolveError.
    """
    if problem.domain != unit_hypercube(1):
        raise ValueError(f"fd_solve_1d solves on the unit interval, not on {problem.domain}")
    if n < 2:
        raise ValueError("n must be >= 2")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return Grid1D(n=n, values=_fd_values_1d(problem, n))
    except FloatingPointError as err:
        raise SolveError(f"finite-difference system: {err}") from err


def _fd_values_1d(problem: EllipticProblem, n: int) -> np.ndarray:
    h = 1.0 / n
    nodes = np.linspace(0.0, 1.0, n + 1)
    half = np.linspace(-0.5 * h, 1.0 + 0.5 * h, n + 2)  # staggered flux points

    a_half = _eval1(problem.a[0][0], half)
    b_nodes = _eval1(problem.b[0], nodes)
    c_nodes = _eval1(problem.c, nodes)
    f_nodes = _eval1(problem.f, nodes)

    # row j:  -(a_{j+1/2}(u_{j+1}-u_j) - a_{j-1/2}(u_j-u_{j-1}))/h^2
    #         + b_j (u_{j+1}-u_{j-1})/(2h) + c_j u_j = f_j
    a_minus = a_half[:-1]  # a_{j-1/2} for node j
    a_plus = a_half[1:]  # a_{j+1/2} for node j
    lower = -a_minus / h**2 - b_nodes / (2 * h)
    diag = (a_minus + a_plus) / h**2 + c_nodes
    upper = -a_plus / h**2 + b_nodes / (2 * h)

    if problem.bc_kind == "dirichlet":
        values = np.zeros(n + 1)
        values[1:-1] = _solve_tridiag(lower[1:n], diag[1:n], upper[1:n], f_nodes[1:n])
        return values

    alpha, beta = problem.alpha, problem.beta
    g_ends = problem.g_values(np.array([[0.0], [1.0]]), np.array([[-1.0], [1.0]]))
    # numpy scalars, so that beta * a0 underflowing to 0 divides under the trap
    a0 = _eval1(problem.a[0][0], np.array([0.0]))[0]
    a1 = _eval1(problem.a[0][0], np.array([1.0]))[0]
    if a0 == 0.0 or a1 == 0.0:
        raise SolveError("diffusion coefficient vanishes at the boundary")
    q0 = 2.0 * h / (beta * a0)
    qn = 2.0 * h / (beta * a1)
    rhs = f_nodes.copy()
    lower[0] = upper[n] = 0.0  # unused, but they enter the residual's scale

    # left end: ghost value u_{-1} = u_1 - q0 (alpha u_0 - g_0)
    diag[0] = (a_plus[0] + a_minus[0]) / h**2 + a_minus[0] * q0 * alpha / h**2 \
        + b_nodes[0] * q0 * alpha / (2 * h) + c_nodes[0]
    upper[0] = -(a_plus[0] + a_minus[0]) / h**2
    rhs[0] += a_minus[0] * q0 * g_ends[0] / h**2 + b_nodes[0] * q0 * g_ends[0] / (2 * h)

    # right end: ghost value u_{n+1} = u_{n-1} + qn (g_n - alpha u_n)
    diag[n] = (a_plus[n] + a_minus[n]) / h**2 + a_plus[n] * qn * alpha / h**2 \
        - b_nodes[n] * qn * alpha / (2 * h) + c_nodes[n]
    lower[n] = -(a_plus[n] + a_minus[n]) / h**2
    rhs[n] += a_plus[n] * qn * g_ends[1] / h**2 - b_nodes[n] * qn * g_ends[1] / (2 * h)

    return _solve_tridiag(lower, diag, upper, rhs)


def grid_h1_error(grid: Grid1D, other: Grid1D | ExprAst) -> float:
    """Discrete H^1 distance: trapezoid L^2 part + forward-difference seminorm.

    Homogeneous of degree one in the difference (exactly, up to rounding).
    ``other`` is a grid with the same ``n`` or an expression, read at the
    grid's nodes.
    """
    if isinstance(other, Grid1D):
        if other.n != grid.n:
            raise ValueError("grids must share n")
        other_values = other.values
    elif isinstance(other, ExprAst):
        other_values = _eval1(other, grid.nodes)
    else:
        raise TypeError(f"cannot interpret {type(other).__name__} as 1d grid data")
    e = grid.values - other_values
    h = grid.h
    w = np.full(e.size, h)
    w[0] = w[-1] = 0.5 * h
    l2_sq = float(np.sum(w * e * e))
    d = np.diff(e) / h
    semi_sq = float(np.sum(d * d) * h)
    return math.sqrt(l2_sq + semi_sq)


@dataclass(frozen=True)
class PenaltyStudy:
    """Dirichlet-penalty sweep: H^1(u_robin(beta), u_dirichlet) per beta."""

    betas: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float  # fitted d log(err) / d log(beta)
    c_fit: float  # error(beta_max) / sqrt(beta_max)
    monotone: bool
    within_half_rate: bool  # error(beta) <= c_fit * sqrt(beta) for all betas


# grid intervals of a penalty study unless given
PENALTY_GRID_N = 2048


def penalty_rate_study(problem: EllipticProblem, betas, n: int = PENALTY_GRID_N) -> PenaltyStudy:
    """Solve the penalized-Robin family against the Dirichlet limit on one grid.

    ``problem`` supplies the differential data on the unit interval (see
    ``fd_solve_1d``); its own boundary data and beta are ignored.  Each sweep
    point solves its penalized-Dirichlet problem at the given beta with the
    Robin scheme.  An error that is not finite and positive (a beta below what
    the grid resolves) has no logarithm to fit, so it is a SolveError.
    """
    betas = tuple(float(b) for b in betas)
    if len(betas) < 2:
        raise ValueError("need at least two beta values")
    if len(set(betas)) < len(betas):  # a repeat re-runs a solve; two equal betas leave no slope to fit
        raise ValueError(f"beta values must be distinct, got {betas}")
    u_dir = fd_solve_1d(dataclasses.replace(problem, bc_kind="dirichlet"), n)
    errors = []
    for beta in betas:
        penalized = dataclasses.replace(problem, beta=beta, bc_kind="robin", alpha=1.0, g=None)
        error = grid_h1_error(fd_solve_1d(penalized, n), u_dir)
        if not (math.isfinite(error) and error > 0.0):
            raise SolveError(f"penalty error {error!r} at beta = {beta!r} is not finite and positive")
        errors.append(error)

    log_b = np.log(np.asarray(betas))
    log_e = np.log(np.asarray(errors))
    slope = float(np.polyfit(log_b, log_e, 1)[0])
    order = np.argsort(betas)[::-1]  # descending beta
    sorted_err = np.asarray(errors)[order]
    monotone = bool(np.all(np.diff(sorted_err) <= 0.0))
    b_max = max(betas)
    c_fit = errors[betas.index(b_max)] / math.sqrt(b_max)
    within = bool(all(e <= c_fit * math.sqrt(b) * (1.0 + 1e-12) for b, e in zip(betas, errors)))
    return PenaltyStudy(
        betas=betas, errors=tuple(errors), slope=slope,
        c_fit=c_fit, monotone=monotone, within_half_rate=within,
    )
