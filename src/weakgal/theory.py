"""Statistical-error machinery: exact Rademacher averages, capacity bounds,
and empirical probes that try to violate them.

Everything here is one of a matched pair:

* an exact or theoretical quantity (exact Rademacher average by sign
  enumeration, Massart's finite-class bound, the ball covering number, the
  chaining bound at resolution 1/sqrt(N), the per-family sup/Lipschitz
  constants, the end-to-end statistical error bound), and
* an empirical adversary (random and gradient-refined probes) whose job is to
  get as close to the bound as it can.  A probe exceeding its bound means a
  formula or an implementation is wrong; tests assert zero violations.

Bound formulas are evaluated in log space; reports carry both the float value
(+inf if out of range) and its natural log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import loss as loss_mod
from . import network as net
from .network import NetworkArch, exp_or_inf
from .pde import CoeffSupNorms, EllipticProblem, sample_batch, sample_boundary, sample_interior

__all__ = [
    "BoundNotApplicableError",
    "FiniteVectorSet",
    "BoundReport",
    "exact_rademacher",
    "massart_bound",
    "covering_bound_ball",
    "chaining_bound",
    "ClassConstants",
    "class_constants",
    "statistical_error_bound",
    "empirical_class_sups",
    "lipschitz_probe",
    "StaErrorEstimate",
    "empirical_sta_error",
]


class BoundNotApplicableError(ValueError):
    """A bound's precondition fails at the requested configuration."""


@dataclass(frozen=True)
class FiniteVectorSet:
    """A finite set of vectors in R^N, rows of ``vectors`` (m, N)."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"need a nonempty (m, N) array, got shape {arr.shape}")
        object.__setattr__(self, "vectors", arr)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


def _as_set(vectors) -> FiniteVectorSet:
    if isinstance(vectors, FiniteVectorSet):
        return vectors
    return FiniteVectorSet(np.asarray(vectors, dtype=np.float64))


@dataclass(frozen=True)
class BoundReport:
    """One theoretical/empirical comparison; ratio = empirical / theoretical."""

    lemma: str
    theoretical: float
    ln_theoretical: float
    empirical: float
    ratio: float
    details: dict

    @property
    def holds(self) -> bool:
        return self.empirical <= self.theoretical


def _make_report(lemma: str, ln_theoretical: float, empirical: float, details: dict) -> BoundReport:
    theoretical = exp_or_inf(ln_theoretical)
    if empirical > 0.0 and math.isfinite(ln_theoretical):
        ratio = exp_or_inf(math.log(empirical) - ln_theoretical)
    elif empirical > 0.0:
        ratio = 0.0 if ln_theoretical == math.inf else math.inf
    else:
        ratio = 0.0
    return BoundReport(
        lemma=lemma,
        theoretical=theoretical,
        ln_theoretical=ln_theoretical,
        empirical=float(empirical),
        ratio=ratio,
        details=details,
    )


# ---------------------------------------------------------------------------
# Rademacher averages


def exact_rademacher(vectors) -> float:
    """E_sigma sup_a (1/N) sum_k sigma_k a_k by full sign enumeration (N <= 20)."""
    vs = _as_set(vectors)
    n = vs.n
    if n > 20:
        raise ValueError(f"exact enumeration limited to N <= 20, got N = {n}")
    a_t = vs.vectors.T  # (N, m)
    n_signs = 1 << n
    chunk = 1 << min(n, 14)  # cap memory at 2^14 sign rows per block
    shifts = np.arange(n, dtype=np.uint32)
    total = 0.0
    for start in range(0, n_signs, chunk):
        idx = np.arange(start, min(start + chunk, n_signs), dtype=np.uint32)
        signs = (((idx[:, None] >> shifts[None, :]) & 1) * 2.0 - 1.0)
        total += float(np.sum((signs @ a_t).max(axis=1)))
    return total / n_signs / n


def massart_bound(vectors) -> float:
    """Finite-class bound D sqrt(2 log m) / N with D the largest l2 norm."""
    vs = _as_set(vectors)
    d_max = float(np.linalg.norm(vs.vectors, axis=1).max())
    return d_max * math.sqrt(2.0 * math.log(vs.size)) / vs.n


# ---------------------------------------------------------------------------
# covering and chaining


def covering_bound_ball(b: float, d: int, eps: float) -> float:
    """Covering-number bound (2 B sqrt(d) / eps)^d for a radius-B sup-ball in R^d."""
    if b <= 0 or eps <= 0 or d < 1:
        raise ValueError("need b > 0, eps > 0, d >= 1")
    ln_val = d * (math.log(2.0) + math.log(b) + 0.5 * math.log(d) - math.log(eps))
    return exp_or_inf(ln_val)


def chaining_bound(b_i: float, l_i: float, n_weights: int, b_theta: float, n_samples: int) -> float:
    """Rademacher bound for one parametric family at chaining resolution 1/sqrt(N):

        4/sqrt(N) + (6 sqrt(n) B_i / sqrt(N)) sqrt(log(2 L_i B_theta sqrt(n) sqrt(N)))

    with n the weight count.  Raises BoundNotApplicableError when the
    resolution is not below B_i/2 or the log factor is vacuous.
    """
    if b_i <= 0 or l_i <= 0 or n_weights < 1 or b_theta <= 0 or n_samples < 1:
        raise ValueError("all chaining inputs must be positive")
    delta = 1.0 / math.sqrt(n_samples)
    if not delta < b_i / 2.0:
        raise BoundNotApplicableError(
            f"bound not applicable at this N: resolution {delta:.3g} >= B_i/2 = {b_i / 2:.3g}"
        )
    ln_arg = (
        math.log(2.0) + math.log(l_i) + math.log(b_theta)
        + 0.5 * math.log(n_weights) + 0.5 * math.log(n_samples)
    )
    if ln_arg <= 0.0:
        raise BoundNotApplicableError("bound vacuous: covering log factor is <= 1")
    term = math.log(6.0) + 0.5 * math.log(n_weights) + math.log(b_i) - 0.5 * math.log(n_samples)
    return 4.0 / math.sqrt(n_samples) + exp_or_inf(term) * math.sqrt(ln_arg)


# ---------------------------------------------------------------------------
# per-family class constants


@dataclass(frozen=True)
class ClassConstants:
    """Sup bounds B_1..B_6 and weight-Lipschitz constants L_1..L_6.

    Families (u, v drawn from the same network class, x in the domain or on
    its boundary):  1: sum a_ij d_i u d_j v,  2: sum b_i d_i u v,  3: c u v,
    4: f v,  5: (alpha/2) u v on the boundary,  6: g v on the boundary.
    Index i=1..6 maps to tuple position i-1.  Values may be +inf; logs exact.
    """

    b: tuple[float, ...]
    l: tuple[float, ...]
    ln_b: tuple[float, ...]
    ln_l: tuple[float, ...]


def _ln(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def class_constants(
    arch: NetworkArch,
    n_nonzero: int,
    sups: CoeffSupNorms,
    alpha: float,
) -> ClassConstants:
    """Instantiate the six family constants for one architecture and problem data."""
    if n_nonzero < 1:
        raise ValueError("n_nonzero must be >= 1")
    depth = arch.depth
    d = arch.dim
    ln_bt = math.log(arch.b_theta)
    ln_prod = sum(math.log(w) for w in arch.hidden_widths)
    ln_last = math.log(arch.widths[-2] + 1)  # n_{D-1} + 1
    ln_n = math.log(n_nonzero)
    ln_2n = 0.5 * (math.log(2.0) + ln_n)  # log sqrt(2 n)
    ln_d = math.log(d)
    ln_half_alpha = _ln(alpha / 2.0)

    ln_b = (
        _ln(sups.a_max) + 2 * ln_d + 2 * depth * ln_bt + 2 * ln_prod,
        _ln(sups.b_max) + ln_d + ln_last + (depth + 1) * ln_bt + ln_prod,
        _ln(sups.c_max) + 2 * ln_last + 2 * ln_bt,
        _ln(sups.f_max) + ln_last + ln_bt,
        ln_half_alpha + 2 * ln_last + 2 * ln_bt,
        _ln(sups.g_max) + ln_last + ln_bt,
    )
    ln_l = (
        _ln(sups.a_max) + 2 * ln_d + ln_2n + math.log(depth + 1) + 3 * depth * ln_bt + 3 * ln_prod,
        _ln(sups.b_max) + ln_d + ln_2n + math.log(depth + 1) + ln_last + (2 * depth + 1) * ln_bt + 2 * ln_prod,
        _ln(sups.c_max) + ln_2n + ln_last + depth * ln_bt + ln_prod,
        _ln(sups.f_max) + 0.5 * ln_n + (depth - 1) * ln_bt + ln_prod,
        ln_half_alpha + ln_2n + ln_last + depth * ln_bt + ln_prod,
        _ln(sups.g_max) + 0.5 * ln_n + (depth - 1) * ln_bt + ln_prod,
    )
    return ClassConstants(
        b=tuple(exp_or_inf(v) for v in ln_b),
        l=tuple(exp_or_inf(v) for v in ln_l),
        ln_b=ln_b,
        ln_l=ln_l,
    )


def statistical_error_bound(
    arch: NetworkArch,
    n_nonzero: int,
    n_samples: int,
    beta: float,
    c_user: float = 1.0,
) -> tuple[float, float]:
    """End-to-end statistical error bound; returns (value, ln_value).

        (C/beta) d^3 sqrt(D) n^(7D/2 - 3/2) B_theta^(7D/2 + 1/2) / N^(1/4)
    """
    if n_nonzero < 1 or n_samples < 1:
        raise ValueError("n_nonzero and n_samples must be >= 1")
    if beta <= 0 or c_user <= 0:
        raise ValueError("beta and c_user must be positive")
    depth = arch.depth
    ln_val = (
        math.log(c_user)
        - math.log(beta)
        + 3.0 * math.log(arch.dim)
        + 0.5 * math.log(depth)
        + (3.5 * depth - 1.5) * math.log(n_nonzero)
        + (3.5 * depth + 0.5) * math.log(arch.b_theta)
        - 0.25 * math.log(n_samples)
    )
    return exp_or_inf(ln_val), ln_val


# ---------------------------------------------------------------------------
# empirical probes


def _random_flat(arch: NetworkArch, rng: np.random.Generator) -> np.ndarray:
    """Weights drawn entrywise uniform in the class box [-B_theta, B_theta]."""
    return rng.uniform(-arch.b_theta, arch.b_theta, size=arch.n_params())


# Probes are drawn one by one, in a fixed RNG order, and evaluated as stacks of
# networks.  A stack holds at most about this many weights, so memory stays
# bounded for wide architectures and large probe counts.
_PROBE_BLOCK_WEIGHTS = 1 << 18


def _probe_blocks(n_probes: int, arch: NetworkArch) -> list[range]:
    """Consecutive ranges of probe indices, one stacked forward each."""
    step = max(1, _PROBE_BLOCK_WEIGHTS // arch.n_params())
    return [range(i, min(i + step, n_probes)) for i in range(0, n_probes, step)]


def empirical_class_sups(
    arch: NetworkArch,
    problem: EllipticProblem,
    n_probes: int = 1000,
    seed=0,
    sups: CoeffSupNorms | None = None,
) -> list[BoundReport]:
    """Max of each family over random (theta_u, theta_v, x) probes vs B_1..B_6.

    Weights are drawn entrywise uniform in [-B_theta, B_theta] (the class's
    box), interior/boundary points uniform on the problem's domain.
    """
    from .pde import probe_sup_norms

    if sups is None:
        sups = probe_sup_norms(problem, max(2048, n_probes), seed=[seed, 0])
    consts = class_constants(arch, arch.n_params(), sups, problem.alpha)

    rng = np.random.default_rng([seed, 1])
    X = sample_interior(problem.domain, n_probes, [seed, 2])
    Y, normals = sample_boundary(problem.domain, n_probes, [seed, 3])
    A = problem.a_values(X)
    B = problem.b_values(X)
    c = problem.c_values(X)
    f = problem.f_values(X)
    g = problem.g_values(Y, normals)

    best = np.zeros(6)
    for idx in _probe_blocks(n_probes, arch):
        flats = np.array([(_random_flat(arch, rng), _random_flat(arch, rng)) for _ in idx])
        pts = np.stack([X[idx], Y[idx]], axis=1)  # each probe's interior and boundary point
        u_vals, u_grads = net.forward_dual_batch(net.NetworkParams(arch, flats[:, 0]), pts)
        v_vals, v_grads = net.forward_dual_batch(net.NetworkParams(arch, flats[:, 1]), pts)
        # interior gradients as rows (S, 1, d) and columns (S, d, 1)
        ug, ug_col, vg_col = u_grads[:, :1], u_grads[:, 0, :, None], v_grads[:, 0, :, None]
        vals = (
            ((ug @ A[idx]) @ vg_col)[:, 0, 0],
            (B[idx, None] @ ug_col)[:, 0, 0] * v_vals[:, 0],
            c[idx] * u_vals[:, 0] * v_vals[:, 0],
            f[idx] * v_vals[:, 0],
            0.5 * problem.alpha * u_vals[:, 1] * v_vals[:, 1],
            g[idx] * v_vals[:, 1],
        )
        np.maximum(best, np.abs(vals).max(axis=1), out=best)

    names = (
        "class_sup_diffusion",
        "class_sup_advection",
        "class_sup_reaction",
        "class_sup_source",
        "class_sup_boundary_penalty",
        "class_sup_boundary_data",
    )
    details = {"n_probes": n_probes, "arch_widths": arch.widths, "b_theta": arch.b_theta}
    return [
        _make_report(names[k], consts.ln_b[k], best[k], details)
        for k in range(6)
    ]


def lipschitz_probe(arch: NetworkArch, n_probes: int = 1000, seed=0) -> list[BoundReport]:
    """Probe the value/gradient weight-Lipschitz and gradient-sup bounds.

    Each probe draws two weight vectors in the class box and a point in the
    unit cube, then measures difference quotients against the architecture's
    ``network_bounds``.  The activation must be bounded (tanh/logistic).
    """
    if not arch.activation.smooth:
        raise ValueError("Lipschitz probing requires a bounded smooth activation")
    bounds = net.network_bounds(arch, arch.n_params())
    rng = np.random.default_rng(seed)
    best = np.zeros(3)  # value ratio, gradient sup, gradient ratio
    for idx in _probe_blocks(n_probes, arch):
        draws = [(_random_flat(arch, rng), _random_flat(arch, rng), rng.random(arch.dim)) for _ in idx]
        flat1, flat2, x = (np.array(col) for col in zip(*draws))
        v1, g1 = net.forward_dual_batch(net.NetworkParams(arch, flat1), x[:, None, :])
        v2, g2 = net.forward_dual_batch(net.NetworkParams(arch, flat2), x[:, None, :])
        diff = flat1 - flat2
        # row by row, the dot product that np.linalg.norm takes
        dist = np.sqrt(diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        moved = dist > 0
        vals = (
            np.abs(v1 - v2)[moved, 0] / dist[moved],
            np.maximum(np.abs(g1).max(axis=(1, 2)), np.abs(g2).max(axis=(1, 2))),
            np.abs(g1 - g2)[moved].max(axis=(1, 2)) / dist[moved],
        )
        np.maximum(best, [v.max(initial=0.0) for v in vals], out=best)
    max_val_ratio, max_grad_sup, max_grad_ratio = (float(v) for v in best)
    details = {"n_probes": n_probes, "arch_widths": arch.widths, "b_theta": arch.b_theta}
    return [
        _make_report("value_weight_lipschitz", bounds.ln_l_value, max_val_ratio, details),
        _make_report("gradient_sup", bounds.ln_b_grad, max_grad_sup, details),
        _make_report("gradient_weight_lipschitz", bounds.ln_l_grad, max_grad_ratio, details),
    ]


# the reference batch of empirical_sta_error is this many times the sampled one
_BIG_FACTOR = 100
# signed-gradient ascent steps refining the best probe, each moving the weights
# by this fraction of B_theta
_ASCENT_STEPS = 3
_ASCENT_STEP_FRAC = 0.05


@dataclass(frozen=True)
class StaErrorEstimate:
    """Empirical lower bound on the statistical error sup |L_small - L_big|."""

    n_samples: int
    trials: int
    trial_maxima: tuple[float, ...]
    mean: float
    bound: float
    ln_bound: float
    ratio: float


def empirical_sta_error(
    u_arch: NetworkArch,
    v_arch: NetworkArch,
    problem: EllipticProblem,
    n_samples: int,
    trials: int = 20,
    probe_budget: int = 20,
    seed=0,
) -> StaErrorEstimate:
    """Adversarial estimate of sup_(u,v) |L_hat_N(u,v) - L_hat_big(u,v)|.

    Per trial: a fresh N-point batch is compared against a ``_BIG_FACTOR``
    times larger reference batch; random network probes (the first probe is
    the zero network) are refined by ``_ASCENT_STEPS`` signed-gradient ascent
    steps, staying inside the weight box.  Each batch's coefficients are evaluated once per trial.
    Probe networks derive from seeds independent of N, so sweeps over N reuse
    the same probe parameters.  The reported bound is the statistical error
    bound with C_user = 1 instantiated conservatively with the
    elementwise-larger of the two architectures' (depth, weights, B_theta).
    """
    if trials < 1 or probe_budget < 1:
        raise ValueError("trials and probe_budget must be >= 1")
    maxima = []
    for t in range(trials):
        batch = sample_batch(problem.domain, n_samples, n_samples, [seed, 2000 + t])
        big = sample_batch(
            problem.domain, _BIG_FACTOR * n_samples, _BIG_FACTOR * n_samples, [seed, 3000 + t]
        )
        probe_rng = np.random.default_rng([seed, 1000 + t])
        small_cache, big_cache = loss_mod.GradientCache(), loss_mod.GradientCache()

        def discrepancy(pu, pv):
            small = loss_mod.empirical_loss(pu, pv, problem, batch, cache=small_cache)
            large = loss_mod.empirical_loss(pu, pv, problem, big, cache=big_cache)
            return abs(small.total - large.total)

        best_val = -1.0
        best_pair = None
        for k in range(probe_budget):
            pu, pv = (  # u's draw, then v's
                net.NetworkParams(arch, _random_flat(arch, probe_rng)) if k else net.zeros_like_arch(arch)
                for arch in (u_arch, v_arch)
            )
            val = discrepancy(pu, pv)
            if val > best_val:
                best_val, best_pair = val, (pu, pv)

        # each iterate's discrepancy is read from the gradient calls at it;
        # the first iterate is the best probe, already counted
        pu, pv = best_pair
        for _ in range(_ASCENT_STEPS):
            gu_s, gv_s, small = loss_mod.loss_gradients(pu, pv, problem, batch, cache=small_cache)
            gu_b, gv_b, large = loss_mod.loss_gradients(pu, pv, problem, big, cache=big_cache)
            best_val = max(best_val, abs(small.total - large.total))
            sign = 1.0 if small.total >= large.total else -1.0
            du = sign * (gu_s - gu_b)
            dv = sign * (gv_s - gv_b)
            scale_u = _ASCENT_STEP_FRAC * u_arch.b_theta / max(float(np.linalg.norm(du)), 1e-12)
            scale_v = _ASCENT_STEP_FRAC * v_arch.b_theta / max(float(np.linalg.norm(dv)), 1e-12)
            pu = net.clip_weights(net.NetworkParams(u_arch, pu.flat + scale_u * du))
            pv = net.clip_weights(net.NetworkParams(v_arch, pv.flat + scale_v * dv))
        best_val = max(best_val, discrepancy(pu, pv))
        maxima.append(best_val)

    mean = float(np.mean(maxima))
    ref_arch = u_arch if (u_arch.n_params(), u_arch.b_theta, u_arch.depth) >= (
        v_arch.n_params(), v_arch.b_theta, v_arch.depth
    ) else v_arch
    bound, ln_bound = statistical_error_bound(
        ref_arch,
        max(u_arch.n_params(), v_arch.n_params()),
        n_samples,
        problem.beta,
        c_user=1.0,
    )
    ratio = mean / bound if math.isfinite(bound) and bound > 0 else 0.0
    return StaErrorEstimate(
        n_samples=n_samples,
        trials=trials,
        trial_maxima=tuple(maxima),
        mean=mean,
        bound=bound,
        ln_bound=ln_bound,
        ratio=ratio,
    )
