"""Alternating minimax training of trial and test networks.

Each outer step runs ``inner_steps`` ascent updates on the test network's
weights followed by one descent update on the trial network's, both on the
same sampled batch; batches are redrawn every ``resample_every`` outer steps
from deterministic child seeds.  After every update the weights are clipped
entrywise to the architecture's box, and after each trial-network update its
estimated H^1 norm (on a fixed quadrature set) is softly projected back to
``h1_ball_radius`` by rescaling the final affine layer; the projection skips
its quadrature forward where it provably cannot fire (``_Projector``).

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
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import loss as loss_mod
from . import network as net
from .loss import NonFiniteLossError
from .network import NetworkArch, NetworkParams
from .pde import (
    CoercivityReport, Domain, EllipticProblem, check_coercivity, sample_batch, sample_interior, unit_hypercube,
)

__all__ = [
    "TrainConfig",
    "HistoryRow",
    "TrainResult",
    "ProjectionCounts",
    "TrainingAborted",
    "minimax_train",
    "weight_bytes",
    "ProbeResult",
    "APPROX_PROBE_FIELDS",
    "approx_error_probe",
]


class TrainingAborted(ArithmeticError):
    """Non-finite objective or gradient during training."""

    def __init__(self, step: int, component: str, sample_index: int):
        sample = "" if sample_index == -1 else f" (sample {sample_index})"
        super().__init__(f"training aborted at outer step {step}: non-finite {component}{sample}")
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
    grad_clip_norm: float = 10.0  # 0 disables
    h1_ball_radius: float = 2.0  # inf disables the soft projection
    h1_quad_points: int = 4096
    boundary_alpha_half: bool = False
    v_restart_every: int = 0  # 0 = never reinitialize the test network
    eval_every: int = 100
    seed: int = 0

    def __post_init__(self):
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
    coercivity: CoercivityReport
    projection: ProjectionCounts


def weight_bytes(arch: NetworkArch) -> int:
    """Bytes of the float64 vectors of ``arch``'s weight count that a training
    holds at once: the weights before and after an update, the gradient, the
    two Adam moments, the optimizer's two work vectors and the tail average."""
    return 8 * 8 * arch.n_params()


class _Optimizer:
    """One network's weight update: the gradient's norm clipped to
    ``grad_clip_norm`` (0 disables), an Adam or plain SGD step along
    ``direction`` (+1 ascends, -1 descends), and the weight box applied.

    The moments and the step are built in place in two work vectors kept
    across updates, each operation rounding as the plain expression does:
    the Adam step is ``direction * lr * m_hat / (sqrt(v_hat) + eps)``."""

    def __init__(self, config: TrainConfig, size: int, lr: float, name: str):
        self.kind = config.optimizer
        self.lr = lr
        self.b1 = config.adam_beta1
        self.b2 = config.adam_beta2
        self.eps = config.adam_eps
        self.max_norm = config.grad_clip_norm
        self.name = name  # the gradient a NonFiniteLossError names
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._step = np.empty(size)
        self._den = np.empty(size)  # the clipped gradient, then Adam's denominator

    def update(self, params: NetworkParams, grad: np.ndarray, direction: float) -> tuple[NetworkParams, float]:
        """The updated params and the gradient's norm before clipping.  A
        non-finite norm raises, since ``max_norm / inf`` would zero the step."""
        # np.linalg.norm's sqrt(x . x), by the same BLAS dot; vdot warns of no overflow
        norm = math.sqrt(np.vdot(grad, grad))
        if not math.isfinite(norm):
            raise NonFiniteLossError(f"{self.name} norm", -1)
        step, den, rate = self._step, self._den, direction * self.lr
        if self.max_norm > 0 and norm > self.max_norm:
            grad = np.multiply(grad, self.max_norm / norm, out=den)
        if self.kind == "sgd":
            np.multiply(grad, rate, out=step)
        else:
            self.t += 1
            m, v = self.m, self.v
            m *= self.b1
            m += np.multiply(grad, 1.0 - self.b1, out=step)
            v *= self.b2
            np.multiply(grad, 1.0 - self.b2, out=step)
            step *= grad
            v += step  # the last read of grad
            np.divide(m, 1.0 - self.b1**self.t, out=step)
            step *= rate
            np.divide(v, 1.0 - self.b2**self.t, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            step /= den
        flat = np.add(params.flat, step)
        bound = params.arch.b_theta
        np.clip(flat, -bound, bound, out=flat)
        return NetworkParams(params.arch, flat), norm

    def reset(self):
        self.m[:] = 0.0
        self.v[:] = 0.0
        self.t = 0


class _MoveBound:
    """Upper bounds on how far a network moves from an anchor, without a forward.

    ``_MoveBound(anchor, x_radius)(params)`` returns ``(B_val, B_grad)`` with
    sup |f - f_a| <= B_val and sup ||grad f - grad f_a||_2 <= B_grad over
    ||x|| <= x_radius, where f_a has the ``anchor`` weights and f the ``params``
    of the same architecture, each a single network.  A layer recursion in the
    spirit of spectrally normalized perturbation bounds (Bartlett, Foster &
    Telgarsky, arXiv:1706.08498), with dA = A - A_a, db = b - b_a, the
    pre-activation move Z_k and its largest entry z_k, the hidden-state move
    delta_k and the Jacobian move eps_k of layer k:

        Z_k     <= ||A_k|| delta_{k-1} + ||dA_k|| H_{k-1} + ||db_k||
        z_k     <= max_i (||A_k[i]|| delta_{k-1} + ||dA_k[i]|| H_{k-1} + |db_k[i]|)
        delta_k <= l_rho Z_k
        eps_k   <= l_rho' z_k ||A_k|| G_{k-1} + b_rho' (||A_k|| eps_{k-1} + ||dA_k|| G_a,k-1)

    ||.|| is the spectral norm and ||A[i]|| a row's 2-norm.  H bounds the
    anchor's layer inputs (x_radius, then b_rho sqrt(n_k)); G and G_a bound the
    two networks' Jacobians (1, then b_rho' ||A_k|| G_{k-1}).  The affine output
    layer closes the recursion as Z_D and ||A_D|| eps_{D-1} + ||dA_D|| G_a,D-1.
    The anchor's spectral norms are computed once; a call bounds ||dA|| by its
    Frobenius norm and ||A|| by ||A_a|| + ||dA||_F, so it costs a few vector
    norms per layer.  Any infinite activation constant (the relu family) gives
    (inf, inf).
    """

    def __init__(self, anchor: NetworkParams, x_radius: float):
        act = anchor.arch.activation
        self.anchor = anchor
        self.finite = act.smooth
        self.norms = [float(np.linalg.norm(A, 2)) for A, _ in anchor.layers]
        self.inputs = [x_radius] + [act.b_rho * math.sqrt(w) for w in anchor.arch.hidden_widths]
        self.jacobians = [1.0]
        for a_a in self.norms[:-1]:
            self.jacobians.append(act.b_rho_prime * a_a * self.jacobians[-1])

    def __call__(self, params: NetworkParams) -> tuple[float, float]:
        if not self.finite:
            return math.inf, math.inf
        act = params.arch.activation
        delta = eps = 0.0  # moves of the layer input and of its Jacobian in x
        g = 1.0  # bound on the current network's Jacobian
        # the norms np.linalg.norm takes, without its wrapper: a row's is
        # sqrt(add.reduce(x * x)), a vector's sqrt(x.dot(x))
        moves = NetworkParams(params.arch, params.flat - self.anchor.flat).layers
        layers = zip(params.layers, moves, self.norms, self.inputs, self.jacobians)
        for (A, _), (dA, db), a_a, h_a, g_a in layers:
            rows = np.sqrt(np.add.reduce(dA * dA, axis=1))
            d_a = math.sqrt(rows.dot(rows))
            a = a_a + d_a
            z = a * delta + d_a * h_a + math.sqrt(db.dot(db))
            grad_move = a * eps + d_a * g_a
            reach = np.sqrt(np.add.reduce(A * A, axis=1))
            reach *= delta
            reach += rows * h_a
            reach += np.abs(db)
            z_max = float(reach.max())
            eps = act.l_rho_prime * z_max * a * g + act.b_rho_prime * grad_move
            delta = act.l_rho * z
            g *= act.b_rho_prime * a
        return z, grad_move


# relative slack below the radius that a proved bound must leave, covering the
# float rounding of the exact estimates it is compared with
_SKIP_MARGIN = 1e-9


class _Projector:
    """The soft H^1 projection of trial iterates, which skips the quadrature
    forward when it cannot fire.

    The forward runs on the first call, after any call where the projection
    fired, and whenever the caller needs the estimate.  Otherwise the anchor is
    the last iterate whose exact estimate ``h1_a`` did not fire.  The estimate
    is an RMS over the quadrature points, so for any iterate
    ``h1 <= h1_a + sqrt(volume) * hypot(B_val, B_grad)`` with the bounds of
    ``_MoveBound`` over the points' radius.  When that sum is below the radius
    the exact projection would return the iterate unchanged, so skipping it
    changes no result.
    """

    def __init__(self, zero: loss_mod.H1Reference, radius: float):
        self.zero, self.radius = zero, radius
        self.x_radius = float(np.max(np.linalg.norm(zero.points, axis=1)))
        self.anchor: tuple[_MoveBound, float] | None = None
        self.exact = self.skipped = self.fired = 0

    def iterate(self, params: NetworkParams, need_h1: bool):
        """``exact_project``, or on a skipped call the iterate itself with a
        nan estimate and no evaluation."""
        if not need_h1 and self._cannot_fire(params):
            self.skipped += 1
            return params, math.nan, None
        out, h1, ev = self.exact_project(params)
        self.anchor = (_MoveBound(params, self.x_radius), h1) if out is params else None
        return out, h1, ev

    def exact_project(self, params: NetworkParams) -> tuple[NetworkParams, float, tuple[np.ndarray, np.ndarray] | None]:
        """Rescale the final affine layer so the H^1 norm estimated against the
        zero reference is <= radius.  Returns the result, its estimate, and the
        values and gradients at the quadrature points that the estimate read,
        which describe the result unless it was rescaled (None)."""
        ev = net.forward_dual_batch(params, self.zero.points)
        h1 = self.zero.distance_of(*ev).h1
        self.exact += 1
        if not math.isfinite(self.radius) or h1 <= self.radius or h1 == 0.0:
            return params, h1, ev
        self.fired += 1
        return net.scale_output_layer(params, self.radius / h1), self.radius, None

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
    iterate bitwise.  ``u_ref`` (NetworkParams, ExprAst, or None) is only
    used for error telemetry.  ``on_eval`` fires at every recorded
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

    # h1_u, h1_v and h1_error are all estimated on one quadrature set
    quad = sample_interior(problem.domain, config.h1_quad_points, ss_quad)
    zero = loss_mod.H1Reference(None, quad, problem.domain.volume)
    projector = _Projector(zero, config.h1_ball_radius)
    ref = None if u_ref is None else loss_mod.H1Reference(u_ref, quad, problem.domain.volume)

    opt_u = _Optimizer(config, u_arch.n_params(), config.lr_u, "grad_u")
    opt_v = _Optimizer(config, v_arch.n_params(), config.lr_v, "grad_v")

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
            v = net.init(v_arch, ss_restarts.spawn(1)[0])
            opt_v.reset()

        is_row = (step + 1) % config.eval_every == 0 or step == config.outer_steps - 1
        try:
            for _ in range(config.inner_steps):
                _, gv, _ = loss_mod.loss_gradients(
                    u, v, problem, batch, config.boundary_alpha_half, need_u=False, cache=cache
                )
                v, grad_v_norm = opt_v.update(v, gv, +1.0)

            gu, _, value = loss_mod.loss_gradients(
                u, v, problem, batch, config.boundary_alpha_half, need_v=False, cache=cache
            )
            last_loss = value
            u, grad_u_norm = opt_u.update(u, gu, -1.0)
            # a history row before the averaging window reports the iterate's h1
            u, h1_u, ev_u = projector.iterate(u, need_h1=is_row and step < avg_start)

            if step >= avg_start:
                u_avg += (u.flat - u_avg) / (step - avg_start + 1)

            if is_row:
                u_out, h1_out, ev_out = u, h1_u, ev_u
                if step >= avg_start:
                    u_out = net.clip_weights(net.flat_to_params(u_arch, u_avg))
                    u_out, h1_out, ev_out = projector.exact_project(u_out)
                h1_error = math.nan
                if ref is not None:  # u_out needs its own forward only if the projection rescaled it
                    h1_error = (ref.distance(u_out) if ev_out is None else ref.distance_of(*ev_out)).h1
                row = HistoryRow(
                    step=step + 1,
                    loss_total=last_loss.total,
                    loss_interior=last_loss.interior,
                    loss_boundary=last_loss.boundary,
                    h1_u=h1_out,
                    h1_v=zero.distance(v).h1,
                    h1_error=h1_error,
                    grad_u_norm=grad_u_norm,
                    grad_v_norm=grad_v_norm,
                    seconds=time.perf_counter() - t0,
                )
                history.append(row)
        except NonFiniteLossError as err:
            raise TrainingAborted(step, err.component, err.sample_index) from err

        if is_row and on_eval is not None:
            on_eval(step + 1, u_out, v, row)

    return TrainResult(
        u=u_out, v=v, history=history, coercivity=report,
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


# the TrainConfig fields approx_error_probe reads; no other field changes its result
APPROX_PROBE_FIELDS = (
    "n_interior", "outer_steps", "optimizer", "lr_u", "adam_beta1", "adam_beta2", "adam_eps",
    "resample_every", "grad_clip_norm", "h1_quad_points", "eval_every", "seed",
)


def approx_error_probe(
    u_target,
    arch: NetworkArch,
    config: TrainConfig,
    domain: Domain | None = None,
) -> ProbeResult:
    """Minimize the Monte Carlo H^1 distance to ``u_target`` (NetworkParams,
    ExprAst, or None for zero) over the class.

    Supervised proxy for the approximation error over ``domain`` (by default
    the unit hypercube): reads only the TrainConfig fields in
    ``APPROX_PROBE_FIELDS``, with ``lr_u`` as its learning rate and
    ``n_interior`` as its batch size.  The reported distance is evaluated on a
    held-out quadrature set; the returned params are the best-scoring iterate,
    weights kept inside the architecture's box throughout.
    """
    target = loss_mod.as_evaluator(u_target, arch.dim)
    ss = np.random.SeedSequence(config.seed)
    ss_init, ss_quad, ss_batches = ss.spawn(3)
    domain = domain or unit_hypercube(arch.dim)
    volume = domain.volume
    params = net.init(arch, ss_init)  # already inside [-B_theta, B_theta]
    opt = _Optimizer(config, arch.n_params(), config.lr_u, "fit gradient")
    quad = sample_interior(domain, config.h1_quad_points, ss_quad)
    held_out = loss_mod.H1Reference(u_target, quad, volume)

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
            params, _ = opt.update(params, g, -1.0)
            if (step + 1) % config.eval_every == 0 or step == config.outer_steps - 1:
                dist = held_out.distance(params).h1
                history.append((step + 1, dist))
                if dist < best:
                    best = dist
                    best_params = params
        except NonFiniteLossError as err:
            raise TrainingAborted(step, err.component, err.sample_index) from err
    return ProbeResult(h1_distance=best, params=best_params, history=history)
