"""Divergence-form elliptic problems, sampling domains, and well-posedness probes.

The strong form is

    -sum_ij d_j(a_ij d_i u) + sum_i b_i d_i u + c u = f   in Omega,
    alpha u + beta sum_ij a_ij d_i u n_j = g              on the boundary,

with beta > 0.  Neumann data is alpha = 0; Dirichlet conditions are imposed by
penalization (alpha = 1, g = 0, small beta), and ``EllipticProblem`` applies
both rules itself.  Domains are the unit hypercube [0,1]^d and balls contained
in it; both come with exact uniform samplers and closed-form volume/surface
measures, which the Monte Carlo weak form relies on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr
from .expr import ExprAst

__all__ = [
    "Domain",
    "unit_hypercube",
    "ball",
    "sample_interior",
    "sample_boundary",
    "sample_batch",
    "EmpiricalBatch",
    "RobinTraceBoundary",
    "EllipticProblem",
    "CoercivityReport",
    "CoeffSupNorms",
    "check_coercivity",
    "probe_sup_norms",
    "manufactured_problem",
    "constant_matrix",
    "identity_matrix",
    "constant_vector",
]


@dataclass(frozen=True)
class Domain:
    """Sampling domain: 'hypercube' is [0,1]^dim; 'ball' must fit inside it."""

    kind: str
    dim: int
    center: tuple[float, ...] | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.kind == "hypercube":
            if self.center is not None or self.radius is not None:
                raise ValueError("hypercube takes no center/radius")
        elif self.kind == "ball":
            if self.center is None or self.radius is None:
                raise ValueError("ball needs center and radius")
            if len(self.center) != self.dim:
                raise ValueError("center length must equal dim")
            if not (self.radius > 0):
                raise ValueError("radius must be positive")
            for ci in self.center:
                if ci - self.radius < 0.0 or ci + self.radius > 1.0:
                    raise ValueError("ball must lie inside [0,1]^d")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @property
    def volume(self) -> float:
        if self.kind == "hypercube":
            return 1.0
        d, r = self.dim, self.radius
        return math.pi ** (d / 2.0) * r**d / math.gamma(d / 2.0 + 1.0)

    @property
    def surface(self) -> float:
        if self.kind == "hypercube":
            return 2.0 * self.dim
        return self.dim * self.volume / self.radius


def unit_hypercube(dim: int) -> Domain:
    return Domain(kind="hypercube", dim=dim)


def ball(center: Sequence[float], radius: float) -> Domain:
    return Domain(kind="ball", dim=len(tuple(center)), center=tuple(float(c) for c in center), radius=float(radius))


def _redraw_zeros(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    # rng.random lands in [0, 1): only 0.0 can touch the cube boundary.
    # Redrawing keeps "strictly interior" exact rather than almost-sure.
    while True:
        mask = (X == 0.0).any(axis=1)
        if not mask.any():
            return X
        X[mask] = rng.random((int(mask.sum()), X.shape[1]))


def _unit_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n directions uniform on the unit sphere in R^d (normalized Gaussians)."""
    dirs = rng.standard_normal((n, d))
    norms = np.linalg.norm(dirs, axis=1)
    while (norms == 0.0).any():
        bad = norms == 0.0
        dirs[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(dirs, axis=1)
    return dirs / norms[:, None]


def sample_interior(domain: Domain, n: int, seed) -> np.ndarray:
    """n i.i.d. uniform points strictly inside the domain, shape (n, dim)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    d = domain.dim
    if domain.kind == "hypercube":
        return _redraw_zeros(rng, rng.random((n, d)))
    dirs = _unit_directions(rng, n, d)
    radii = domain.radius * rng.random(n) ** (1.0 / d)
    return np.asarray(domain.center) + dirs * radii[:, None]


def sample_boundary(domain: Domain, m: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """m uniform boundary points with outward unit normals: (points, normals)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    rng = np.random.default_rng(seed)
    d = domain.dim
    if domain.kind == "hypercube":
        faces = rng.integers(0, 2 * d, size=m)
        axis = faces % d
        side = faces // d  # 0 -> coordinate 0, 1 -> coordinate 1
        pts = _redraw_zeros(rng, rng.random((m, d)))
        rows = np.arange(m)
        pts[rows, axis] = side.astype(np.float64)
        normals = np.zeros((m, d))
        normals[rows, axis] = 2.0 * side - 1.0
        return pts, normals
    normals = _unit_directions(rng, m, d)
    pts = np.asarray(domain.center) + domain.radius * normals
    return pts, normals


@dataclass(frozen=True)
class EmpiricalBatch:
    """One draw of quadrature points: interior (N, d), boundary (M, d) + normals."""

    interior: np.ndarray
    boundary: np.ndarray
    normals: np.ndarray


def sample_batch(domain: Domain, n: int, m: int, seed) -> EmpiricalBatch:
    """Interior and boundary samples from independent child streams of ``seed``.

    ``seed`` may be entropy (int or sequence of ints) or a SeedSequence.
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    s_int, s_bdy = ss.spawn(2)
    pts, normals = sample_boundary(domain, m, s_bdy)
    return EmpiricalBatch(
        interior=sample_interior(domain, n, s_int),
        boundary=pts,
        normals=normals,
    )


# ---------------------------------------------------------------------------
# boundary data


class RobinTraceBoundary:
    """g = alpha u* + beta sum_ij a_ij d_i u* n_j for a known solution u*.

    This is the Robin trace of u*, so the problem it closes is solved exactly
    by u*.  Needs normals, hence not representable as a plain expression.
    ``du[i]`` is the expression of d_{i+1} u*.
    """

    def __init__(self, u_exact: ExprAst, a: Sequence[Sequence[ExprAst]], alpha: float, beta: float):
        self.u_exact = u_exact
        self.a = a
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.du = [expr.diff(u_exact, i + 1) for i in range(u_exact.dim)]

    def __call__(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        d = self.u_exact.dim
        out = self.alpha * expr.evaluate_many(self.u_exact, points)
        for i in range(d):
            du_i = expr.evaluate_many(self.du[i], points)
            for j in range(d):
                a_ij = expr.evaluate_many(self.a[i][j], points)
                out = out + self.beta * a_ij * du_i * normals[:, j]
        return out


# ---------------------------------------------------------------------------
# problems


@dataclass
class EllipticProblem:
    """Coefficients as expression trees plus Robin data (alpha, beta, g).

    ``g`` is None (zero data), an expression of position, or a callable of
    ``(points, normals)`` such as ``RobinTraceBoundary``.  A dirichlet problem
    is imposed by penalty: the constructor sets alpha = 1 and g = None, so
    ``beta`` is the penalty strength, and ``dataclasses.replace`` keeps it so.
    """

    domain: Domain
    a: tuple[tuple[ExprAst, ...], ...]
    b: tuple[ExprAst, ...]
    c: ExprAst
    f: ExprAst
    g: ExprAst | Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    alpha: float
    beta: float
    bc_kind: str = "robin"
    u_exact: ExprAst | None = None

    def __post_init__(self):
        d = self.domain.dim
        self.a = tuple(tuple(row) for row in self.a)
        self.b = tuple(self.b)
        if len(self.a) != d or any(len(row) != d for row in self.a):
            raise ValueError(f"a must be {d}x{d}")
        if len(self.b) != d:
            raise ValueError(f"b must have length {d}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.bc_kind not in ("robin", "neumann", "dirichlet"):
            raise ValueError(f"unknown bc_kind {self.bc_kind!r}")
        if self.bc_kind == "dirichlet":
            self.alpha, self.g = 1.0, None
        if self.bc_kind == "neumann" and self.alpha != 0.0:
            raise ValueError("neumann requires alpha = 0")
        fields = [(f"a[{i}][{j}]", e) for i, row in enumerate(self.a) for j, e in enumerate(row)]
        fields += [(f"b[{i}]", e) for i, e in enumerate(self.b)]
        fields += [("c", self.c), ("f", self.f), ("g", self.g), ("u_exact", self.u_exact)]
        for name, e in fields:
            if isinstance(e, ExprAst) and e.dim != d:
                raise ValueError(f"{name} is an expression in dim {e.dim}, the domain's dim is {d}")
        for i in range(d):
            for j in range(i + 1, d):
                if self.a[i][j] != self.a[j][i]:
                    warnings.warn(f"diffusion matrix entry a[{i}][{j}] != a[{j}][{i}]; "
                                  "analysis assumes symmetry", stacklevel=2)

    @property
    def dim(self) -> int:
        return self.domain.dim

    def a_values(self, points: np.ndarray) -> np.ndarray:
        d = self.dim
        n = points.shape[0]
        out = np.empty((n, d, d))
        for i in range(d):
            for j in range(d):
                out[:, i, j] = expr.evaluate_many(self.a[i][j], points)
        return out

    def b_values(self, points: np.ndarray) -> np.ndarray:
        d = self.dim
        out = np.empty((points.shape[0], d))
        for i in range(d):
            out[:, i] = expr.evaluate_many(self.b[i], points)
        return out

    def c_values(self, points: np.ndarray) -> np.ndarray:
        return expr.evaluate_many(self.c, points)

    def f_values(self, points: np.ndarray) -> np.ndarray:
        return expr.evaluate_many(self.f, points)

    def g_values(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        if self.g is None:
            return np.zeros(points.shape[0])
        if isinstance(self.g, ExprAst):
            return expr.evaluate_many(self.g, points)
        return np.asarray(self.g(points, normals), dtype=np.float64)


def constant_matrix(dim: int, diag: float = 1.0, off: float = 0.0) -> tuple[tuple[ExprAst, ...], ...]:
    return tuple(
        tuple(ExprAst(expr.const(diag if i == j else off), dim) for j in range(dim))
        for i in range(dim)
    )


def identity_matrix(dim: int) -> tuple[tuple[ExprAst, ...], ...]:
    return constant_matrix(dim, 1.0, 0.0)


def constant_vector(dim: int, value: float = 0.0) -> tuple[ExprAst, ...]:
    return tuple(ExprAst(expr.const(value), dim) for _ in range(dim))


# ---------------------------------------------------------------------------
# well-posedness probes


@dataclass(frozen=True)
class CoercivityReport:
    """Sampled ellipticity/coercivity estimates.

    ``condition`` is 4 * lambda_min * c_min - d * (max_i sup|b_i|)^2; positive
    (with lambda_min > 0) is the sampled sufficient condition for the weak
    form to be coercive.
    """

    lambda_min: float
    c_min: float
    b_max: float
    condition: float
    holds: bool


def check_coercivity(problem: EllipticProblem, n_probes: int = 512, seed=0) -> CoercivityReport:
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    pts = sample_interior(problem.domain, n_probes, seed)
    A = problem.a_values(pts)
    sym = 0.5 * (A + np.transpose(A, (0, 2, 1)))
    eigs = np.linalg.eigvalsh(sym)
    lam_min = float(eigs[:, 0].min())
    c_min = float(problem.c_values(pts).min())
    b_max = float(np.abs(problem.b_values(pts)).max())
    condition = 4.0 * lam_min * c_min - problem.dim * b_max * b_max
    holds = bool(condition > 0.0 and lam_min > 0.0)
    return CoercivityReport(
        lambda_min=lam_min, c_min=c_min, b_max=b_max, condition=condition, holds=holds,
    )


@dataclass(frozen=True)
class CoeffSupNorms:
    """Sampled sup-norms of the problem data (inputs to the class-sup constants)."""

    a_max: float
    b_max: float
    c_max: float
    f_max: float
    g_max: float


def probe_sup_norms(problem: EllipticProblem, n_probes: int = 2048, seed=0) -> CoeffSupNorms:
    ss = np.random.SeedSequence(seed)
    s_int, s_bdy = ss.spawn(2)
    pts = sample_interior(problem.domain, n_probes, s_int)
    ypts, normals = sample_boundary(problem.domain, n_probes, s_bdy)
    return CoeffSupNorms(
        a_max=float(np.abs(problem.a_values(pts)).max()),
        b_max=float(np.abs(problem.b_values(pts)).max()),
        c_max=float(np.abs(problem.c_values(pts)).max()),
        f_max=float(np.abs(problem.f_values(pts)).max()),
        g_max=float(np.abs(problem.g_values(ypts, normals)).max()),
    )


# ---------------------------------------------------------------------------
# manufactured problems


def manufactured_problem(
    u_exact: ExprAst,
    a: tuple[tuple[ExprAst, ...], ...],
    b: tuple[ExprAst, ...],
    c: ExprAst,
    alpha: float,
    beta: float,
    domain: Domain,
    bc_kind: str = "robin",
) -> EllipticProblem:
    """Problem whose data is generated from a known solution.

    f is assembled symbolically from the strong form, and g is the Robin
    trace of u_exact, so u_exact solves a robin or neumann problem exactly.  A
    dirichlet problem drops g for the penalty formulation's zero data (see
    ``EllipticProblem``): the solved problem tends to u_exact only as
    beta -> 0, and u_exact must vanish on the boundary.
    """
    d = domain.dim
    if u_exact.dim != d:
        raise ValueError("u_exact dimension must match the domain")
    if len(a) != d or any(len(row) != d for row in a) or len(b) != d:
        raise ValueError(f"a must be {d}x{d} and b must have length {d}")

    g = RobinTraceBoundary(u_exact, a, alpha, beta)
    du = g.du
    f_node = expr.const(0.0)
    for i in range(d):
        for j in range(d):
            flux = expr.mul(a[i][j].root, du[i].root)
            f_node = expr.sub(f_node, expr.diff(ExprAst(flux, d), j + 1).root)
    for i in range(d):
        f_node = expr.add(f_node, expr.mul(b[i].root, du[i].root))
    f_node = expr.add(f_node, expr.mul(c.root, u_exact.root))
    f = ExprAst(f_node, d)

    if bc_kind == "dirichlet":
        _warn_if_nonzero_trace(u_exact, domain)
    return EllipticProblem(
        domain=domain, a=a, b=b, c=c, f=f, g=g,
        alpha=alpha, beta=beta, bc_kind=bc_kind, u_exact=u_exact,
    )


def _warn_if_nonzero_trace(u_exact: ExprAst, domain: Domain, tol: float = 1e-9) -> None:
    pts, _ = sample_boundary(domain, 256, 0)
    trace = np.abs(expr.evaluate_many(u_exact, pts))
    if trace.max() > tol:
        warnings.warn(
            f"u_exact has boundary trace up to {trace.max():.3g}; penalized-Dirichlet "
            "solutions converge to the zero-trace Dirichlet solution, not to u_exact",
            stacklevel=2,
        )
