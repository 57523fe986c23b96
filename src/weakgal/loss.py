"""Sampled weak-form objective and Monte Carlo H^1 error estimation.

The bilinear objective for trial network u and test network v is

    interior = |Omega|/N sum_k [ sum_ij a_ij d_i u d_j v + sum_i b_i d_i u v
                                 + c u v - f v ](X_k)
    boundary = |dOmega| / (beta M) sum_k [ alpha u v - g v ](Y_k)

with the boundary weight ``alpha`` optionally halved (``boundary_alpha_half``)
to match the alternative convention for the penalty term.  The objective is
linear in the test network's output, which the gradient computation exploits:
both parameter gradients come from one taped forward pass per network plus
per-sample seed vectors fed to the reverse sweep over that tape.  One function
assembles the integrand and the seeds for the value and the gradients alike.

Sums use numpy's pairwise float64 accumulation, so values are reproducible
bit-for-bit for a fixed batch.  Any non-finite intermediate raises
``NonFiniteLossError`` with the offending component and sample index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from . import expr as expr_mod
from . import network as net
from .network import NetworkParams
from .pde import Domain, EllipticProblem, EmpiricalBatch, sample_interior

__all__ = [
    "LossValue",
    "H1Estimate",
    "NonFiniteLossError",
    "Evaluator",
    "as_evaluator",
    "empirical_loss",
    "loss_gradients",
    "GradientCache",
    "H1Reference",
    "h1_error",
]

# an evaluator maps points (n, d) -> (values (n,), gradients (n, d))
Evaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class NonFiniteLossError(ArithmeticError):
    """A NaN/Inf appeared while assembling the objective."""

    def __init__(self, component: str, sample_index: int):
        super().__init__(f"non-finite value in {component} term at sample {sample_index}")
        self.component = component
        self.sample_index = sample_index


@dataclass(frozen=True)
class LossValue:
    total: float
    interior: float
    boundary: float


@dataclass(frozen=True)
class H1Estimate:
    """Monte Carlo H^1 distance: h1^2 = l2_part^2 + seminorm_part^2 up to
    rounding, since ``h1`` averages the summed squares in one pass."""

    l2_part: float
    seminorm_part: float
    h1: float


def as_evaluator(obj: Union[NetworkParams, expr_mod.ExprAst, Evaluator, None], dim: int) -> Evaluator:
    """Evaluator of a network, an expression (gradient by symbolic
    differentiation), the zero function (``None``), or an evaluator itself."""
    if obj is None:
        return lambda points: (np.zeros(points.shape[0]), np.zeros((points.shape[0], dim)))
    if isinstance(obj, NetworkParams):
        return lambda points: net.forward_dual_batch(obj, points)
    if isinstance(obj, expr_mod.ExprAst):
        grads = [expr_mod.diff(obj, i + 1) for i in range(obj.dim)]

        def ev(points: np.ndarray):
            vals = expr_mod.evaluate_many(obj, points)
            g = np.empty((points.shape[0], obj.dim))
            for i in range(obj.dim):
                g[:, i] = expr_mod.evaluate_many(grads[i], points)
            return vals, g

        return ev
    return obj


def _check_finite(arr: np.ndarray, component: str) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        flat = finite.reshape(finite.shape[0], -1).all(axis=1)
        raise NonFiniteLossError(component, int(np.argmin(flat)))


class _BatchTerms:
    """Checked coefficient values and quadrature weights of one batch."""

    def __init__(self, problem: EllipticProblem, batch: EmpiricalBatch, boundary_alpha_half: bool):
        self.X, self.Y = X, Y = batch.interior, batch.boundary
        if X.shape[0] == 0 or Y.shape[0] == 0:
            raise ValueError("batch must contain interior and boundary points")
        self.A, self.B, self.c, self.f = coeffs = (
            problem.a_values(X), problem.b_values(X), problem.c_values(X), problem.f_values(X)
        )
        for name, arr in zip("abcf", coeffs):
            _check_finite(arr, f"interior coefficient {name}")
        self.g = problem.g_values(Y, batch.normals)
        _check_finite(self.g, "boundary g")
        self.alpha = 0.5 * problem.alpha if boundary_alpha_half else problem.alpha
        self.w_int = problem.domain.volume / X.shape[0]
        self.w_bdy = problem.domain.surface / (problem.beta * Y.shape[0])


class _Eval(NamedTuple):
    """One network on a batch: interior values and gradients, boundary values,
    and the (interior, boundary) tapes when its weight gradient is wanted."""

    vals: np.ndarray
    grads: np.ndarray
    bdy: np.ndarray
    tapes: tuple[net.Tape, net.Tape] | None = None


def _evaluate(name: str, obj, terms: _BatchTerms, keep: bool = False) -> _Eval:
    """Checked values of ``u`` or ``v`` on the batch; networks are taped,
    value-only at the boundary, and keep their tapes with ``keep``."""
    if isinstance(obj, NetworkParams):
        inner = net.forward_tape(obj, terms.X, keep=keep)
        outer = net.forward_tape(obj, terms.Y, grads=False, keep=keep)
        ev = _Eval(inner.values, inner.grads, outer.values, (inner, outer) if keep else None)
    else:
        fn = as_evaluator(obj, terms.X.shape[1])
        ev = _Eval(*fn(terms.X), fn(terms.Y)[0])
    for where, arr in (("interior", ev.vals), ("interior grad", ev.grads), ("boundary", ev.bdy)):
        _check_finite(arr, f"{where} {name}")
    return ev


def _assemble(terms: _BatchTerms, u: _Eval, v: _Eval, need_u: bool, need_v: bool):
    """The sampled objective and, on request, each network's backprop seeds.

    Seeds are (interior value, interior gradient, boundary value) seeds: the
    partial derivatives of the objective in that network's values and
    gradients at the sample points.
    """
    # the objective is linear in v: w_int sum (a_u . grad v + r_u v) + w_bdy sum (r_y v)
    a_u = np.einsum("nij,ni->nj", terms.A, u.grads)
    r_u = np.einsum("ni,ni->n", terms.B, u.grads) + terms.c * u.vals - terms.f
    r_y = terms.alpha * u.bdy - terms.g
    integrand = np.einsum("ni,ni->n", a_u, v.grads) + r_u * v.vals
    _check_finite(integrand, "interior integrand")
    interior = terms.w_int * float(np.sum(integrand))
    b_integrand = r_y * v.bdy
    _check_finite(b_integrand, "boundary integrand")
    boundary = terms.w_bdy * float(np.sum(b_integrand))
    total = interior + boundary
    if not math.isfinite(total):
        raise NonFiniteLossError("total", -1)
    value = LossValue(total, interior, boundary)
    seeds_u = seeds_v = None
    if need_u:
        # d(integrand)/d(grad u) = A grad v + B v ; d/d(u) = c v
        seeds_u = (
            terms.w_int * (terms.c * v.vals),
            terms.w_int * (np.einsum("nij,nj->ni", terms.A, v.grads) + terms.B * v.vals[:, None]),
            terms.w_bdy * terms.alpha * v.bdy,
        )
    if need_v:
        seeds_v = (terms.w_int * r_u, terms.w_int * a_u, terms.w_bdy * r_y)
    return value, seeds_u, seeds_v


def _backprop(ev: _Eval, seeds, component: str) -> np.ndarray:
    inner, outer = ev.tapes
    grad = net.backprop_tape(inner, seeds[0], seeds[1]) + net.backprop_tape(outer, seeds[2])
    _check_finite(grad[None, :], component)
    return grad


def empirical_loss(
    u,
    v,
    problem: EllipticProblem,
    batch: EmpiricalBatch,
    boundary_alpha_half: bool = False,
    cache: GradientCache | None = None,
) -> LossValue:
    """Evaluate the sampled weak-form objective on one batch.

    ``u`` and ``v`` may be NetworkParams, ExprAst, or evaluator callables.  A
    ``cache`` shared with other calls on the same batch (see ``loss_gradients``)
    evaluates the coefficients once per batch and ``u`` once per object; a
    value needs no tapes, so this call keeps none.
    """
    if cache is None:
        terms = _BatchTerms(problem, batch, boundary_alpha_half)
        eu = _evaluate("u", u, terms)
    else:
        terms, eu = cache.lookup(u, problem, batch, boundary_alpha_half, keep=False)
    return _assemble(terms, eu, _evaluate("v", v, terms), False, False)[0]


class GradientCache:
    """Per-batch state shared by consecutive ``loss_gradients`` calls: the
    checked coefficients of one (problem, batch, alpha convention), rebuilt when
    any of them is another object, and the trial network's evaluation, redone
    when ``u`` is another object or its tapes are wanted and were not kept."""

    def __init__(self):
        self._key = self._terms = self._u = self._u_eval = None
        self._kept = False

    def lookup(self, u, problem, batch, boundary_alpha_half, keep: bool) -> tuple[_BatchTerms, _Eval]:
        key = (problem, batch, bool(boundary_alpha_half))
        if self._key is None or any(a is not b for a, b in zip(key, self._key)):
            self._terms, self._u = _BatchTerms(problem, batch, boundary_alpha_half), None
            self._key = key
        if u is not self._u or (keep and not self._kept):
            self._u_eval, self._u, self._kept = _evaluate("u", u, self._terms, keep=keep), u, keep
        return self._terms, self._u_eval


def loss_gradients(
    u: NetworkParams,
    v: NetworkParams,
    problem: EllipticProblem,
    batch: EmpiricalBatch,
    boundary_alpha_half: bool = False,
    need_u: bool = True,
    need_v: bool = True,
    cache: GradientCache | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None, LossValue]:
    """Exact gradients of the sampled objective in both networks' weights.

    Returns (grad_u, grad_v, loss) with flat gradients in the
    ``NetworkParams.flat`` layout.  The objective is an explicit finite sum,
    so these are the exact derivatives of ``empirical_loss`` on the same
    batch.  ``need_u``/``need_v`` skip one side's backprop (the corresponding entry is None); alternating
    optimizers use this to avoid paying for gradients they discard.  A
    ``cache`` shared by consecutive calls evaluates the coefficients once per
    batch and the trial network's kept forward pass once per ``u``.
    """
    if cache is None:
        cache = GradientCache()
    terms, eu = cache.lookup(u, problem, batch, boundary_alpha_half, keep=True)
    ev = _evaluate("v", v, terms, keep=need_v)
    value, seeds_u, seeds_v = _assemble(terms, eu, ev, need_u, need_v)
    grad_u = _backprop(eu, seeds_u, "grad_u") if need_u else None
    grad_v = _backprop(ev, seeds_v, "grad_v") if need_v else None
    return grad_u, grad_v, value


class H1Reference:
    """A reference function evaluated once on a fixed point set.

    ``distance(u)`` is the Monte Carlo H^1 distance of ``u`` from it over a
    domain of the given volume, with the points as quadrature nodes.  Either
    function may be a NetworkParams, an ExprAst, an evaluator, or None (zero).
    The arrays are only read after construction, so threads may share one
    reference.
    """

    def __init__(self, u_ref, points: np.ndarray, volume: float):
        self.points, self.volume = points, volume
        # a zero reference is not subtracted: the differences then keep the
        # memory layout of u's gradients, on which einsum's rounding depends
        # from three dimensions on
        self.ref = None if u_ref is None else as_evaluator(u_ref, points.shape[1])(points)

    def distance(self, u) -> H1Estimate:
        return self.distance_of(*as_evaluator(u, self.points.shape[1])(self.points))

    def distance_of(self, du: np.ndarray, dg: np.ndarray) -> H1Estimate:
        """``distance`` of a function with these values and gradients at the points."""
        if self.ref is not None:
            du, dg = du - self.ref[0], dg - self.ref[1]
        du_sq = du**2
        dg_sq = np.einsum("ni,ni->n", dg, dg)
        l2_sq = float(np.mean(self.volume * du_sq))
        semi_sq = float(np.mean(self.volume * dg_sq))
        h1_sq = self.volume * float(np.mean(du_sq + dg_sq))
        return H1Estimate(
            l2_part=math.sqrt(max(l2_sq, 0.0)),
            seminorm_part=math.sqrt(max(semi_sq, 0.0)),
            h1=math.sqrt(max(h1_sq, 0.0)),
        )


def h1_error(
    u,
    u_ref,
    domain: Domain,
    n_quad: int = 4096,
    seed=0,
) -> H1Estimate:
    """Monte Carlo H^1 distance between two functions over ``n_quad`` points
    sampled uniformly in the domain (see ``H1Reference``)."""
    if n_quad < 2:
        raise ValueError("n_quad must be >= 2")
    return H1Reference(u_ref, sample_interior(domain, n_quad, seed), domain.volume).distance(u)
