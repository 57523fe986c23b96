"""Alternating minimax training of trial and test networks.

Each outer step runs ``inner_steps`` ascent updates on the test network's
weights followed by one descent update on the trial network's, both on the
same sampled batch; batches are redrawn every ``resample_every`` outer steps
from deterministic child seeds.  After every update the weights are clipped
entrywise to the architecture's box, and after each trial-network update its
estimated H^1 norm (on a fixed quadrature set) is softly projected back to
``h1_ball_radius`` by rescaling the final affine layer.  The estimate's
quadrature forward runs on the first step, after any step where the
projection fired, at history rows before the averaging window (which report
it), and whenever a bound on how far the weights moved since the last
estimate (``network.WeightMoveBound``) cannot prove the iterate is still
inside the ball.  A skipped step is one the exact projection would have left
unchanged, so skipping changes no result.

Plain alternating descent-ascent cycles in its last iterate, so the returned
trial network is the uniform (Polyak-Ruppert) average of the trial iterates
over the final quarter of the outer steps, clipped and softly projected like
any iterate.  The weight box is convex, so the average stays in the class.

Everything is driven by ``config.seed`` through numpy SeedSequence spawning:
two runs with the same problem and config produce bitwise-identical weights
and history (wall-clock ``seconds`` excepted).
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import loss as loss_mod
from . import network as net
from .loss import NonFiniteLossError
from .network import NetworkArch, NetworkParams
from .pde import EllipticProblem, check_coercivity, sample_batch, sample_interior

__all__ = [
    "TrainConfig",
    "HistoryRow",
    "TrainResult",
    "ProjectionCounts",
    "TrainingAborted",
    "minimax_train",
    "ProbeResult",
    "approx_error_probe",
]


class TrainingAborted(ArithmeticError):
    """Non-finite objective or gradient during training."""

    def __init__(self, step: int, component: str, sample_index: int):
        super().__init__(
            f"training aborted at outer step {step}: non-finite {component}"
            f" (sample {sample_index})"
        )
        self.step = step
        self.component = component
        self.sample_index = sample_index


@dataclass(frozen=True)
class TrainConfig:
    n_interior: int = 256
    m_boundary: int = 256
    outer_steps: int = 1000
    inner_steps: int = 2
    optimizer: str = "adam"  # or "sgd"
    lr_u: float = 1e-3
    lr_v: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    resample_every: int = 1  # 0 = never resample after the first batch
    clip_b_theta: float | None = None  # None: use each architecture's own bound
    grad_clip_norm: float = 10.0  # 0 disables
    h1_ball_radius: float = 2.0  # inf disables the soft projection
    h1_quad_points: int = 4096
    boundary_alpha_half: bool = False
    v_restart_every: int = 0  # 0 = never reinitialize the test network
    eval_every: int = 100
    seed: int = 0

    def __post_init__(self):
        for fld in fields(self):  # annotations are strings under postponed evaluation
            value = getattr(self, fld.name)
            if fld.type == "int" and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{fld.name} must be an integer, got {value!r}")
            if fld.type == "bool" and not isinstance(value, bool):
                raise ValueError(f"{fld.name} must be true or false, got {value!r}")
            if fld.type.startswith("float") and not (value is None and fld.type == "float | None"):
                if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                    raise ValueError(f"{fld.name} must be a number, got {value!r}")
                # h1_ball_radius = inf disables the projection; an int beyond the
                # float range would overflow where it meets an array
                finite = abs(value) <= sys.float_info.max
                if not (finite or fld.name == "h1_ball_radius" and value == math.inf):
                    raise ValueError(f"{fld.name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_interior < 1 or self.m_boundary < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.outer_steps < 0 or self.inner_steps < 1:
            raise ValueError("outer_steps must be >= 0 and inner_steps >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr_u < 0 or self.lr_v < 0:
            raise ValueError("learning rates must be >= 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam_beta1 and adam_beta2 must be in [0, 1)")
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be > 0")
        if self.grad_clip_norm < 0:
            raise ValueError("grad_clip_norm must be >= 0 (0 disables)")
        if self.clip_b_theta is not None and not self.clip_b_theta > 0:
            raise ValueError("clip_b_theta must be > 0 (or null for each architecture's own bound)")
        if self.resample_every < 0 or self.v_restart_every < 0:
            raise ValueError("period fields must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.h1_quad_points < 2:
            raise ValueError("h1_quad_points must be >= 2")
        if not (self.h1_ball_radius > 0):
            raise ValueError("h1_ball_radius must be positive (use inf to disable)")


@dataclass(frozen=True)
class HistoryRow:
    step: int
    loss_total: float
    loss_interior: float
    loss_boundary: float
    h1_u: float
    h1_v: float
    h1_error: float  # nan when no reference is available
    grad_u_norm: float
    grad_v_norm: float
    seconds: float  # wall time since training started; not deterministic


@dataclass(frozen=True)
class ProjectionCounts:
    """Soft projections of the trial network: quadrature forwards run, calls
    proved unable to fire and skipped, and forwards that rescaled ``u``."""

    exact: int
    skipped: int
    fired: int


@dataclass
class TrainResult:
    """``u`` is the projected final-quarter average of the trial iterates;
    ``v`` is the last test-network iterate."""

    u: NetworkParams
    v: NetworkParams
    history: list[HistoryRow]
    coercivity_holds: bool
    projection: ProjectionCounts


class _Optimizer:
    """Adam or plain SGD on a flat parameter vector; ``direction`` flips sign."""

    def __init__(self, config: TrainConfig, size: int, lr: float):
        self.kind = config.optimizer
        self.lr = lr
        self.b1 = config.adam_beta1
        self.b2 = config.adam_beta2
        self.eps = config.adam_eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray, direction: float) -> np.ndarray:
        if self.kind == "sgd":
            return flat + direction * self.lr * grad
        self.t += 1
        self.m = self.b1 * self.m + (1.0 - self.b1) * grad
        self.v = self.b2 * self.v + (1.0 - self.b2) * grad * grad
        m_hat = self.m / (1.0 - self.b1**self.t)
        v_hat = self.v / (1.0 - self.b2**self.t)
        return flat + direction * self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def reset(self):
        self.m[:] = 0.0
        self.v[:] = 0.0
        self.t = 0


def _clip_grad(grad: np.ndarray, max_norm: float, name: str) -> tuple[np.ndarray, float]:
    """Rescale ``grad`` to norm ``max_norm`` (0 disables); returns it and its
    norm.  A non-finite norm raises, since ``max_norm / inf`` would zero the step."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(grad))
    if not math.isfinite(norm):
        raise NonFiniteLossError(f"{name} norm", -1)
    if max_norm > 0 and norm > max_norm:
        return grad * (max_norm / norm), norm
    return grad, norm


def _soft_project(params: NetworkParams, zero: loss_mod.H1Reference, radius: float) -> tuple[NetworkParams, float]:
    """Rescale the final affine layer so the H^1 norm estimated against the
    zero reference ``zero`` is <= radius."""
    h1 = zero.distance(params).h1
    if not math.isfinite(radius) or h1 <= radius or h1 == 0.0:
        return params, h1
    flat = params.flat.copy()
    flat[-(params.arch.widths[-2] + 1) :] *= radius / h1  # the output layer's A and b end the vector
    return NetworkParams(params.arch, flat), radius


# relative slack below the radius that a proved bound must leave, covering the
# float rounding of the exact estimates it is compared with
_SKIP_MARGIN = 1e-9


class _Projector:
    """``_soft_project`` that skips the quadrature forward when it cannot fire.

    The anchor is the last iterate whose exact estimate ``h1_a`` did not fire.
    The estimate is an RMS over the quadrature points, so for any iterate
    ``h1 <= h1_a + sqrt(volume) * hypot(B_val, B_grad)`` with the bounds of
    ``network.WeightMoveBound`` over the points' radius.  When that sum is
    below the radius the exact projection would return the iterate unchanged,
    so skipping it changes nothing downstream.
    """

    def __init__(self, zero: loss_mod.H1Reference, radius: float):
        self.zero, self.radius = zero, radius
        self.x_radius = float(np.max(np.linalg.norm(zero.points, axis=1)))
        self.anchor: tuple[net.WeightMoveBound, float] | None = None
        self.exact = self.skipped = self.fired = 0

    def iterate(self, params: NetworkParams, need_h1: bool) -> tuple[NetworkParams, float]:
        """Project a trial iterate; the estimate is nan on a skipped call."""
        if not need_h1 and self._cannot_fire(params):
            self.skipped += 1
            return params, math.nan
        out, h1 = self.exact_project(params)
        self.anchor = (net.WeightMoveBound(params, self.x_radius), h1) if out is params else None
        return out, h1

    def exact_project(self, params: NetworkParams) -> tuple[NetworkParams, float]:
        out, h1 = _soft_project(params, self.zero, self.radius)
        self.exact += 1
        self.fired += out is not params
        return out, h1

    def _cannot_fire(self, params: NetworkParams) -> bool:
        if not math.isfinite(self.radius):
            return True
        if self.anchor is None:
            return False
        move_bound, h1_a = self.anchor
        b_val, b_grad = move_bound(params)
        reach = h1_a + math.sqrt(self.zero.volume) * math.hypot(b_val, b_grad)
        return reach < self.radius * (1.0 - _SKIP_MARGIN)  # False on nan


def minimax_train(
    problem: EllipticProblem,
    u_arch: NetworkArch,
    v_arch: NetworkArch,
    config: TrainConfig,
    u_ref=None,
    on_eval: Callable[[int, NetworkParams, NetworkParams, HistoryRow], None] | None = None,
) -> TrainResult:
    """Train trial network u against adversarial test network v.

    Returns as ``u`` the running mean of the trial iterates (after clipping
    and soft projection) over outer steps ``3 * outer_steps // 4`` onwards,
    itself clipped and softly projected; a constant trajectory returns its
    iterate bitwise.  ``u_ref`` (NetworkParams, ExprAst, evaluator, or None)
    is only used for error telemetry.  ``on_eval`` fires at every recorded
    history row.  Inside the averaging window the ``u`` it receives and the
    row's ``h1_u``/``h1_error`` describe the projected running average, so
    the last row describes the returned ``u``; loss and gradient-norm columns
    always describe the iterate pair.  Deterministic: all randomness derives
    from config.seed.
    """
    report = check_coercivity(problem)
    if not report.holds:
        warnings.warn(
            f"sampled coercivity condition fails (condition={report.condition:.3g}); "
            "training may not converge",
            stacklevel=2,
        )

    ss = np.random.SeedSequence(config.seed)
    ss_u, ss_v, ss_quad, ss_batches, ss_restarts = ss.spawn(5)
    u = net.init(u_arch, ss_u)
    v = net.init(v_arch, ss_v)
    clip_u = config.clip_b_theta if config.clip_b_theta is not None else u_arch.b_theta
    clip_v = config.clip_b_theta if config.clip_b_theta is not None else v_arch.b_theta
    u = net.clip_weights(u, clip_u)
    v = net.clip_weights(v, clip_v)

    # h1_u, h1_v and h1_error are all estimated on one quadrature set
    quad = sample_interior(problem.domain, config.h1_quad_points, ss_quad)
    zero = loss_mod.H1Reference(None, quad, problem.domain.volume)
    projector = _Projector(zero, config.h1_ball_radius)
    ref = None if u_ref is None else loss_mod.H1Reference(u_ref, quad, problem.domain.volume)

    opt_u = _Optimizer(config, u_arch.n_params(), config.lr_u)
    opt_v = _Optimizer(config, v_arch.n_params(), config.lr_v)

    # running mean of the trial iterates over the final quarter of the steps
    avg_start = (3 * config.outer_steps) // 4
    u_avg = np.zeros(u_arch.n_params())
    u_out = u

    history: list[HistoryRow] = []
    batch = None
    cache = loss_mod.GradientCache()  # coefficients once per batch, u's tapes once per u
    t0 = time.perf_counter()
    grad_u_norm = grad_v_norm = math.nan
    last_loss = None

    for step in range(config.outer_steps):
        if batch is None or (config.resample_every > 0 and step % config.resample_every == 0):
            batch = sample_batch(
                problem.domain, config.n_interior, config.m_boundary, ss_batches.spawn(1)[0]
            )
        if config.v_restart_every > 0 and step > 0 and step % config.v_restart_every == 0:
            v = net.clip_weights(net.init(v_arch, ss_restarts.spawn(1)[0]), clip_v)
            opt_v.reset()

        is_row = (step + 1) % config.eval_every == 0 or step == config.outer_steps - 1
        try:
            for _ in range(config.inner_steps):
                _, gv, _ = loss_mod.loss_gradients(
                    u, v, problem, batch, config.boundary_alpha_half, need_u=False, cache=cache
                )
                gv, grad_v_norm = _clip_grad(gv, config.grad_clip_norm, "grad_v")
                v = net.clip_weights(NetworkParams(v_arch, opt_v.step(v.flat, gv, +1.0)), clip_v)

            gu, _, value = loss_mod.loss_gradients(
                u, v, problem, batch, config.boundary_alpha_half, need_v=False, cache=cache
            )
            last_loss = value
            gu, grad_u_norm = _clip_grad(gu, config.grad_clip_norm, "grad_u")
            u = net.clip_weights(NetworkParams(u_arch, opt_u.step(u.flat, gu, -1.0)), clip_u)
            # a history row before the averaging window reports the iterate's h1
            u, h1_u = projector.iterate(u, need_h1=is_row and step < avg_start)
        except NonFiniteLossError as err:
            raise TrainingAborted(step, err.component, err.sample_index) from err

        if step >= avg_start:
            u_avg += (u.flat - u_avg) / (step - avg_start + 1)

        if is_row:
            u_out, h1_out = u, h1_u
            if step >= avg_start:
                u_out = net.clip_weights(net.flat_to_params(u_arch, u_avg), clip_u)
                u_out, h1_out = projector.exact_project(u_out)
            row = HistoryRow(
                step=step + 1,
                loss_total=last_loss.total,
                loss_interior=last_loss.interior,
                loss_boundary=last_loss.boundary,
                h1_u=h1_out,
                h1_v=zero.distance(v).h1,
                h1_error=math.nan if ref is None else ref.distance(u_out).h1,
                grad_u_norm=grad_u_norm,
                grad_v_norm=grad_v_norm,
                seconds=time.perf_counter() - t0,
            )
            history.append(row)
            if on_eval is not None:
                on_eval(step + 1, u_out, v, row)

    return TrainResult(
        u=u_out, v=v, history=history, coercivity_holds=report.holds,
        projection=ProjectionCounts(projector.exact, projector.skipped, projector.fired),
    )


# ---------------------------------------------------------------------------
# direct H^1 fitting (approximation-error probe)


@dataclass(frozen=True)
class ProbeResult:
    """Best H^1 distance achieved when fitting a target function directly."""

    h1_distance: float
    params: NetworkParams
    history: list[tuple[int, float]]  # (step, held-out H^1 distance)


def approx_error_probe(
    u_target,
    arch: NetworkArch,
    config: TrainConfig,
) -> ProbeResult:
    """Minimize the Monte Carlo H^1 distance to ``u_target`` over the class.

    Supervised proxy for the approximation error: reuses TrainConfig's
    optimizer/learning-rate (lr_u), batch (n_interior), resampling, and seed
    fields.  The reported distance is evaluated on a held-out quadrature set;
    the returned params are the best-scoring iterate, weights kept inside the
    architecture's box throughout.
    """
    target = loss_mod.as_evaluator(u_target, arch.dim)
    ss = np.random.SeedSequence(config.seed)
    ss_init, ss_quad, ss_batches = ss.spawn(3)
    from .pde import unit_hypercube

    domain = unit_hypercube(arch.dim)
    volume = domain.volume
    params = net.clip_weights(net.init(arch, ss_init), arch.b_theta)
    opt = _Optimizer(config, arch.n_params(), config.lr_u)
    quad = sample_interior(domain, config.h1_quad_points, ss_quad)
    held_out = loss_mod.H1Reference(target, quad, volume)

    best = held_out.distance(params).h1
    best_params = params
    history = [(0, best)]
    X = None
    for step in range(config.outer_steps):
        if X is None or (config.resample_every > 0 and step % config.resample_every == 0):
            X = sample_interior(domain, config.n_interior, ss_batches.spawn(1)[0])
            t_vals, t_grads = target(X)
        tape = net.forward_tape(params, X)
        w = volume / X.shape[0]
        seed_val = 2.0 * w * (tape.values - t_vals)
        seed_grad = 2.0 * w * (tape.grads - t_grads)
        g = net.backprop_tape(tape, seed_val, seed_grad)
        try:  # a non-finite entry makes the norm non-finite too
            g, _ = _clip_grad(g, config.grad_clip_norm, "fit gradient")
        except NonFiniteLossError as err:
            raise TrainingAborted(step, err.component, err.sample_index) from err
        params = net.clip_weights(NetworkParams(arch, opt.step(params.flat, g, -1.0)), arch.b_theta)
        if (step + 1) % config.eval_every == 0 or step == config.outer_steps - 1:
            dist = held_out.distance(params).h1
            history.append((step + 1, dist))
            if dist < best:
                best = dist
                best_params = params
    return ProbeResult(h1_distance=best, params=best_params, history=history)
