"""Dense feed-forward networks and their capacity metadata.

A network here is x -> A_D(rho(A_{D-1}(... rho(A_1 x + b_1) ...) + b_{D-1})) + b_D:
``depth`` counts affine layers, the last one has no activation, and every
weight is clipped to [-B_theta, B_theta].  The weights are one read-only
vector theta in that box, the object the capacity lemmas are stated on:
``NetworkParams.flat`` is (P,) for one network or (S, P) rows for a stack, and
its per-layer ``(A, b)`` are views into it.  Optimizer steps, clipping and
averaging act on the vector.  Two evaluations matter for weak-form training and
both are implemented directly:

* ``forward_tape`` - value and spatial gradient together (forward mode in x),
  keeping what the reverse sweep needs;
* ``backprop_tape`` - gradient with respect to the weights of
  w * f(x) + s . grad_x f(x), i.e. reverse mode over that tape.

The module also computes the class-capacity quantities attached to an
architecture (value/gradient Lipschitz constants in the weights, gradient sup
bound) and the recipe mapping a target accuracy to an architecture.  Those
products of widths and powers of B_theta overflow float64 quickly, so they are
accumulated in log space; callers get both the (possibly +inf) value and its
natural log.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ActivationKind",
    "TANH",
    "LOGISTIC",
    "activation_by_name",
    "NetworkArch",
    "NetworkParams",
    "DualEval",
    "Tape",
    "NetworkBounds",
    "RecipeResult",
    "RecipeError",
    "init",
    "zeros_like_arch",
    "forward_tape",
    "backprop_tape",
    "forward_dual",
    "forward_dual_batch",
    "backprop_params_batch",
    "clip_weights",
    "scale_output_layer",
    "network_bounds",
    "WeightMoveBound",
    "arch_recipe",
    "save_checkpoint",
    "load_checkpoint",
    "params_to_flat",
    "flat_to_params",
]

_LN_FLOAT_MAX = math.log(np.finfo(np.float64).max)


def exp_or_inf(ln_value: float) -> float:
    """exp(ln_value), returning +inf instead of overflowing."""
    if ln_value > _LN_FLOAT_MAX:
        return math.inf
    return math.exp(ln_value)


@dataclass(frozen=True)
class ActivationKind:
    """Activation plus the constants the capacity lemmas consume.

    ``d1`` gives rho'(z) as a function of the output rho(z), and ``d2`` gives
    rho''(z) from the output and rho'(z), so a forward pass that keeps the
    activations need not keep z, and a reverse sweep computes rho' once.
    ``b_rho``..``l_rho_prime`` are the conventional values used by the bound
    formulas (tanh and logistic both satisfy the <= 1 normalization, so all
    four are stored as 1.0).  ``smooth`` gates the Lipschitz lab: bounds
    assuming a bounded activation make no sense for relu-type activations.
    """

    name: str
    apply: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    b_rho: float
    l_rho: float
    b_rho_prime: float
    l_rho_prime: float
    smooth: bool = True

    def __repr__(self):
        return f"ActivationKind({self.name!r})"


def _logistic(z):
    # stable sigmoid
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# rho' and rho'' from the output, each built in one array.  They round as
# 1 - t*t, (-2t)(1 - t*t), s(1 - s) and s(1 - s)(1 - 2s) do: the same
# operations in the same order, a product's factors at most swapped.
def _tanh_d1(t):
    r = t * t
    return np.subtract(1.0, r, out=r)


def _tanh_d2(t, dt):
    r = -2.0 * t
    r *= dt
    return r


def _logistic_d1(s):
    r = 1.0 - s
    r *= s
    return r


def _logistic_d2(s, ds):
    r = 2.0 * s
    np.subtract(1.0, r, out=r)
    r *= ds
    return r


TANH = ActivationKind(
    name="tanh",
    apply=np.tanh,
    d1=_tanh_d1,
    d2=_tanh_d2,
    b_rho=1.0,
    l_rho=1.0,
    b_rho_prime=1.0,
    l_rho_prime=1.0,
)

LOGISTIC = ActivationKind(
    name="logistic",
    apply=_logistic,
    d1=_logistic_d1,
    d2=_logistic_d2,
    b_rho=1.0,
    l_rho=1.0,
    b_rho_prime=1.0,
    l_rho_prime=1.0,
)


def _relu_k(k: int) -> ActivationKind:
    # the output is m^k with m = max(z, 0), so m^j = output^(j/k) where m > 0
    def apply(z):
        return np.maximum(z, 0.0) ** k

    def d1(y):
        return np.where(y <= 0, 0.0, k * y ** ((k - 1) / k))

    def d2(y, dy):
        if k == 1:
            return np.zeros_like(y)
        return np.where(y <= 0, 0.0, k * (k - 1) * y ** ((k - 2) / k))

    return ActivationKind(
        name=f"relu{k}",
        apply=apply,
        d1=d1,
        d2=d2,
        b_rho=math.inf,
        l_rho=math.inf if k > 1 else 1.0,
        b_rho_prime=math.inf if k > 1 else 1.0,
        l_rho_prime=math.inf,
        smooth=False,
    )


def activation_by_name(name: str) -> ActivationKind:
    if name == "tanh":
        return TANH
    if name == "logistic":
        return LOGISTIC
    if name.startswith("relu"):
        suffix = name[4:] or "1"
        if suffix.isdigit() and int(suffix) >= 1:
            return _relu_k(int(suffix))
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class NetworkArch:
    """Architecture: widths (n_0 .. n_D), activation, weight bound B_theta >= 1."""

    widths: tuple[int, ...]
    activation: ActivationKind
    b_theta: float

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be positive, got {self.widths}")
        if any(w > sys.float_info.max for w in self.widths):  # init takes sqrt(6 / (n_in + n_out))
            raise ValueError("widths must be within the float range")
        if self.widths[-1] != 1:
            raise ValueError("output width must be 1 (scalar networks)")
        if not (self.b_theta >= 1.0):
            raise ValueError(f"b_theta must be >= 1, got {self.b_theta}")

    @property
    def depth(self) -> int:
        """Number of affine layers D."""
        return len(self.widths) - 1

    @property
    def dim(self) -> int:
        return self.widths[0]

    @property
    def max_width(self) -> int:
        return max(self.widths[1:])

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return self.widths[1:-1]

    def n_params(self) -> int:
        return sum(
            self.widths[k + 1] * self.widths[k] + self.widths[k + 1]
            for k in range(self.depth)
        )


@dataclass(frozen=True, eq=False)
class NetworkParams:
    """Weights for a NetworkArch as one read-only float64 vector ``flat``.

    ``flat`` is (P,) for one network, or (S, P) rows for a stack of S networks
    of one architecture (an ensemble).  ``layers[k] = (A, b)`` are views into
    it with A (n_{k+1}, n_k) and b (n_{k+1},), behind the stack's leading axis
    if any.  The constructor takes ``flat`` over and marks it read-only;
    ``flat_to_params`` copies first.
    """

    arch: NetworkArch
    flat: np.ndarray
    layers: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.float64)
        if flat.ndim not in (1, 2) or flat.shape[-1] != self.arch.n_params():
            raise ValueError(
                f"flat vector has {flat.shape}, arch needs ({self.arch.n_params()},) or (S, {self.arch.n_params()})"
            )
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "layers", _layer_views(self.arch, flat))

    @property
    def ensemble(self) -> tuple[int, ...]:
        """Leading shape of the weights: (S,) for a stack of S networks, () for one."""
        return self.flat.shape[:-1]


def _layer_views(arch: NetworkArch, flat: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Each layer's (A, b) as views of ``flat`` (..., P): A row-major, then b.

    The one place that knows the weight layout."""
    lead = flat.shape[:-1]
    layers, pos = [], 0
    for n_in, n_out in zip(arch.widths, arch.widths[1:]):
        A = flat[..., pos : pos + n_out * n_in].reshape(lead + (n_out, n_in))
        pos += n_out * n_in
        layers.append((A, flat[..., pos : pos + n_out]))
        pos += n_out
    return tuple(layers)


@dataclass(frozen=True)
class DualEval:
    value: float
    grad: np.ndarray  # shape (dim,)


def params_to_flat(params: NetworkParams) -> np.ndarray:
    """The weights' read-only buffer, (P,) or (S, P)."""
    return params.flat


def flat_to_params(arch: NetworkArch, flat: np.ndarray) -> NetworkParams:
    """Weights from a copy of a flat vector (P,), or a stack of S networks from rows (S, P)."""
    return NetworkParams(arch, np.array(flat, dtype=np.float64))


def init(arch: NetworkArch, seed) -> NetworkParams:
    """Deterministic Glorot initialization: each A uniform with half-width
    sqrt(6/(n_in+n_out)), zero biases, clipped to [-B_theta, B_theta]."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(arch.n_params())
    for A, _ in _layer_views(arch, flat):
        s = math.sqrt(6.0 / sum(A.shape))
        A[...] = rng.uniform(-s, s, size=A.shape)
    np.clip(flat, -arch.b_theta, arch.b_theta, out=flat)
    return NetworkParams(arch, flat)


def zeros_like_arch(arch: NetworkArch) -> NetworkParams:
    return NetworkParams(arch, np.zeros(arch.n_params()))


# ---------------------------------------------------------------------------
# evaluation


def _first_tangents(A: np.ndarray) -> np.ndarray:
    """Tangents of A x at any points x, stacked as (d, ..., 1, q) for A (..., q, d).

    The tangent in input direction i is row i of A^T at every point, so this
    broadcasts a C-ordered copy of A^T over the points; products with it come
    out C-ordered, as products with a full array do.  Adding +0.0 gives the
    bits of ``I @ A^T``, whose sums start from +0.0 and so turn -0.0 into +0.0."""
    return np.add(np.moveaxis(A, -1, 0), 0.0, order="C")[..., None, :]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, taking a product over one term as a broadcast multiply.

    A GEMM over one term adds its one rounded product to +0.0; the multiply
    plus +0.0 gives the same bits, -0.0 products turned to +0.0 included."""
    if a.shape[-1] != 1:
        return a @ b
    c = a * b
    c += 0.0
    return c


def _affine(f: np.ndarray, At: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f @ At + b for inputs f (..., n, p), with b added in place."""
    z = _dot(f, At)
    z += b[..., None, :]
    return z


@dataclass(frozen=True)
class Tape:
    """One forward pass over a batch, keeping what the reverse sweep needs.

    Per hidden layer the tape keeps the activation output rho(z) (n, q) and,
    unless it is value-only (``grads is None``), the pre-activation tangents
    P = J_in A^T (d, n, q), stacked over the input dimensions.  The first
    layer's are the same at every point, a (d, 1, q) broadcast of A^T.  The
    sweep derives rho'(z) and rho''(z) from the output and rebuilds the
    layer's output tangents as P * rho'(z), so neither z nor those are stored.

    A tape of a stack of S networks carries the ensemble axis after the
    tangent axis: outputs (S, n, q), tangents (d, S, n, q).
    """

    params: NetworkParams
    ins: list[np.ndarray]  # each layer's input: the points (n, dim), then the outputs
    values: np.ndarray  # (n,)
    grads: np.ndarray | None  # (n, dim); None on a value-only tape
    tangents: list[np.ndarray]  # empty on a value-only tape


# Memory budget, in float64 entries, of one temporary array of an evaluation.
# An unkept forward of one network runs in row blocks whose largest temporary
# holds about this many, and the bound lab stacks probe networks up to this
# many weights.
BLOCK_FLOATS = 1 << 18
# Row blocks start at multiples of this many rows.  BLAS then rounds each row
# of a block as one pass over all rows does, unless the block is only a few
# rows long, when it may take another kernel.
_BLOCK_ALIGN = 64


def _block_rows(arch: NetworkArch, grads: bool) -> int:
    """Rows whose widest layer's outputs and, with ``grads``, their tangents
    (dim of them per row) fit ``BLOCK_FLOATS``.  At least four alignments, so
    the nearly equal blocks of ``forward_tape`` hold over 64 rows each."""
    per_row = arch.max_width * (arch.dim if grads else 1)
    return max(4 * _BLOCK_ALIGN, BLOCK_FLOATS // per_row // _BLOCK_ALIGN * _BLOCK_ALIGN)


def forward_tape(params: NetworkParams, points: np.ndarray, grads: bool = True, keep: bool = True) -> Tape:
    """Values (and, with ``grads``, spatial gradients) at a batch of points.

    Forward mode: each hidden state carries its tangents with respect to the
    inputs alongside the value.  ``grads=False`` gives a value-only tape.
    ``keep=False`` drops each layer's record once the next layer is done; the
    result then holds values and gradients only and cannot be swept.  Such a
    forward of one network at C-ordered points runs in blocks of rows, so its
    temporaries stay near ``BLOCK_FLOATS`` entries.  It returns gradients in the
    memory layout of one pass over all rows, and the same bits wherever BLAS
    runs each product on one thread: a product it splits among threads rounds
    by each thread's share of rows, which one pass does as well.

    A stack of S networks evaluates each network at its own points: points
    (S, n, dim) give values (S, n) and grads (S, n, dim).
    """
    lead = params.ensemble
    X = np.asarray(points, dtype=np.float64)
    if X.shape[:-2] != lead or X.ndim != len(lead) + 2 or X.shape[-1] != params.arch.dim:
        raise ValueError(f"points must be {lead + ('n', params.arch.dim)}, got {X.shape}")
    if keep or lead or not X.flags.c_contiguous:
        return _forward(params, X, grads, keep)
    n, rows = X.shape[0], _block_rows(params.arch, grads)
    if n <= rows:
        return _forward(params, X, grads, keep=False)
    # blocks of nearly equal size: BLAS may round a product of a few rows
    # differently, so no block is left small
    k = -(-n // rows)
    starts = [_BLOCK_ALIGN * (j * n // (k * _BLOCK_ALIGN)) for j in range(k)] + [n]
    values = np.empty(n)
    g = np.empty((params.arch.dim, n)) if grads else None  # the layout of one pass's gradients
    for start, stop in zip(starts, starts[1:]):
        block = _forward(params, X[start:stop], grads, keep=False)
        values[start:stop] = block.values
        if grads:
            g[:, start:stop] = block.grads.T
    return Tape(params=params, ins=[X], values=values, grads=None if g is None else g.T, tangents=[])


def _forward(params: NetworkParams, X: np.ndarray, grads: bool, keep: bool) -> Tape:
    """``forward_tape`` in one pass over checked points."""
    act = params.arch.activation
    *hidden, (A_top, b_top) = params.layers
    ins, tangents = [X], []
    f, T = X, None  # T: tangents of f, None while f is the points
    for A, b in hidden:
        At = A.swapaxes(-1, -2)
        f = act.apply(_affine(f, At, b))
        if keep:
            ins.append(f)
        if grads:
            P = _first_tangents(A) if T is None else _dot(T, At)
            if keep:
                tangents.append(P)
            # an unkept layer's P is its own temporary; the first layer's is a broadcast
            T = P * act.d1(f) if keep or T is None else np.multiply(P, act.d1(f), out=P)
    At = A_top.swapaxes(-1, -2)
    values = _affine(f, At, b_top)[..., 0]
    g = None
    if grads:
        if T is None:  # an affine network: its gradient is its weight row at every point
            g = np.broadcast_to(_first_tangents(A_top)[..., 0], (X.shape[-1],) + X.shape[:-1]).copy()
        else:
            g = _dot(T, At)[..., 0]  # (d, ..., n)
        g = g.transpose(*range(1, g.ndim), 0)
    return Tape(params=params, ins=ins, values=values, grads=g, tangents=tangents)


def backprop_tape(tape: Tape, seed_values: np.ndarray, seed_grads: np.ndarray | None = None) -> np.ndarray:
    """Gradient in the weights of sum_k [w_k f(x_k) + s_k . grad f(x_k)].

    Reverse sweep over a kept tape; the spatial-gradient path runs through
    rho' and so needs rho''.  ``seed_grads`` needs a tape with tangents.
    Returns a flat vector in the ``NetworkParams.flat`` layout.  Linear in (w, s).

    The adjoints of a layer's value and its d tangents sweep as one C-ordered
    (m, n, q) stack, m = 1 + d with ``seed_grads`` and 1 without.  Its seed is
    a C-ordered copy of (w, s^T), and the first layer's input tangents stay a
    zero-stride identity broadcast; both keep the bits of separate sweeps.
    """
    params = tape.params
    if params.ensemble:
        raise ValueError("backprop_tape sweeps the tape of a single network, not a stack")
    act = params.arch.activation
    ins = tape.ins
    n, d = ins[0].shape
    depth = params.arch.depth
    if len(ins) != depth:
        raise ValueError("tape was not kept; run forward_tape with keep=True")
    w = np.asarray(seed_values, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"seed_values must be ({n},), got {w.shape}")
    G = np.empty((1 if seed_grads is None else 1 + d, n))  # adjoints of the output: w, then s^T
    G[0] = w
    if seed_grads is not None:
        if tape.grads is None:
            raise ValueError("a value-only tape takes no seed_grads")
        s = np.asarray(seed_grads, dtype=np.float64)
        if s.shape != (n, d):
            raise ValueError(f"seed_grads must be ({n}, {d}), got {s.shape}")
        G[1:] = s.T
    m = len(G)
    grad = np.empty_like(params.flat)
    out = _layer_views(params.arch, grad)  # each layer's (dA, db), written in place

    def weight_grad(k, adj, d1):
        """Layer k's (dA, db) from the adjoints ``adj`` of its outputs, (m, n)
        at the top and (m, n, q) below; ``d1`` is rho' at the layer's input."""
        dA, db = out[k]
        np.matmul(adj[0].T, ins[k], out=dA)
        if m > 1:
            T = np.broadcast_to(np.eye(d)[:, None], (d, n, d)) if k == 0 else tape.tangents[k - 1] * d1
            dA += adj[1:].reshape((d * n,) + adj.shape[2:]).T @ T.reshape(d * n, -1)
        db[...] = adj[0].sum(axis=0)

    d1 = act.d1(ins[-1]) if depth > 1 else None  # rho' at the current layer's input
    weight_grad(depth - 1, G, d1)
    U = G[..., None] * params.layers[-1][0][0]  # adjoints of the top layer's input
    for k in range(depth - 2, -1, -1):
        if m > 1:  # rho'' carries the tangents' adjoints into the value's
            d2 = act.d2(ins[k + 1], d1)
            d2 *= (U[1:] * tape.tangents[k]).sum(axis=0)
        U *= d1
        if m > 1:
            U[0] += d2
        d1 = act.d1(ins[k]) if k > 0 else None
        weight_grad(k, U, d1)
        if k > 0:
            U = _dot(U, params.layers[k][0])
    return grad


def forward_dual_batch(params: NetworkParams, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and spatial gradients at a batch of points.

    points (n, dim) -> (values (n,), grads (n, dim)); an unkept forward_tape.
    A stack of S networks takes points (S, n, dim) and gives (S, n), (S, n, dim).
    """
    tape = forward_tape(params, points, keep=False)
    return tape.values, tape.grads


def forward_dual(params: NetworkParams, x) -> DualEval:
    """Value and gradient at a single point."""
    X = np.asarray(x, dtype=np.float64).reshape(1, -1)
    values, grads = forward_dual_batch(params, X)
    return DualEval(float(values[0]), grads[0])


def backprop_params_batch(
    params: NetworkParams,
    points: np.ndarray,
    seed_values: np.ndarray,
    seed_grads: np.ndarray | None,
) -> np.ndarray:
    """Gradient in the weights of sum_k [w_k f(x_k) + s_k . grad f(x_k)].

    A forward_tape followed by backprop_tape; ``seed_grads=None`` takes the
    value-only path.  Returns a flat vector in the ``NetworkParams.flat`` layout.
    """
    tape = forward_tape(params, points, grads=seed_grads is not None)
    return backprop_tape(tape, seed_values, seed_grads)


def clip_weights(params: NetworkParams) -> NetworkParams:
    """Entrywise clip to the architecture's box [-B_theta, B_theta]; idempotent."""
    bound = params.arch.b_theta
    return NetworkParams(params.arch, np.clip(params.flat, -bound, bound))


def scale_output_layer(params: NetworkParams, factor: float) -> NetworkParams:
    """A copy of ``params`` with the final affine layer's A and b times ``factor``."""
    flat = params.flat.copy()
    for part in _layer_views(params.arch, flat)[-1]:
        part *= factor
    return NetworkParams(params.arch, flat)


# ---------------------------------------------------------------------------
# capacity quantities


@dataclass(frozen=True)
class NetworkBounds:
    """Weight-Lipschitz and gradient-sup constants for a network class.

    l_value bounds |f(x; theta) - f(x; theta~)| / ||theta - theta~||_2,
    b_grad bounds sup |partial_p f|, and l_grad does for the spatial gradient
    what l_value does for the value.  Values may be +inf; logs are exact.
    """

    l_value: float
    b_grad: float
    l_grad: float
    ln_l_value: float
    ln_b_grad: float
    ln_l_grad: float


def network_bounds(arch: NetworkArch, n_nonzero: int) -> NetworkBounds:
    if n_nonzero < 1:
        raise ValueError("n_nonzero must be >= 1")
    depth = arch.depth
    ln_btheta = math.log(arch.b_theta)
    ln_prod_hidden = sum(math.log(wd) for wd in arch.hidden_widths)
    ln_n = math.log(n_nonzero)
    ln_bp = math.log(arch.activation.b_rho_prime) if arch.activation.b_rho_prime > 0 else -math.inf

    ln_l_value = 0.5 * ln_n + (depth - 1) * ln_btheta + ln_prod_hidden
    ln_b_grad = ln_prod_hidden + depth * ln_btheta + (depth - 1) * ln_bp
    ln_l_grad = 0.5 * ln_n + math.log(depth + 1) + 2 * depth * ln_btheta + 2 * ln_prod_hidden
    return NetworkBounds(
        l_value=exp_or_inf(ln_l_value),
        b_grad=exp_or_inf(ln_b_grad),
        l_grad=exp_or_inf(ln_l_grad),
        ln_l_value=ln_l_value,
        ln_b_grad=ln_b_grad,
        ln_l_grad=ln_l_grad,
    )


class WeightMoveBound:
    """Upper bounds on how far a network moves from an anchor, without a forward.

    ``WeightMoveBound(anchor, x_radius)(params)`` returns ``(B_val, B_grad)``
    with sup |f - f_a| <= B_val and sup ||grad f - grad f_a||_2 <= B_grad over
    ||x|| <= x_radius, where f_a has the ``anchor`` weights and f the ``params``
    of the same architecture.  A layer recursion in the spirit of spectrally
    normalized perturbation bounds (Bartlett, Foster & Telgarsky,
    arXiv:1706.08498), with dA = A - A_a, db = b - b_a, the pre-activation move
    Z_k and its largest entry z_k, the hidden-state move delta_k and the
    Jacobian move eps_k of layer k:

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
        if anchor.ensemble:
            raise ValueError("WeightMoveBound takes a single anchor network, not a stack")
        act = anchor.arch.activation
        self.anchor = anchor
        self.finite = all(math.isfinite(c) for c in (act.b_rho, act.l_rho, act.b_rho_prime, act.l_rho_prime))
        self.norms = [float(np.linalg.norm(A, 2)) for A, _ in anchor.layers]
        self.inputs = [x_radius] + [act.b_rho * math.sqrt(w) for w in anchor.arch.hidden_widths]
        self.jacobians = [1.0]
        for a_a in self.norms[:-1]:
            self.jacobians.append(act.b_rho_prime * a_a * self.jacobians[-1])

    def __call__(self, params: NetworkParams) -> tuple[float, float]:
        if params.arch.widths != self.anchor.arch.widths or params.ensemble:
            raise ValueError("WeightMoveBound compares single networks of the anchor's architecture")
        if not self.finite:
            return math.inf, math.inf
        act = params.arch.activation
        delta = eps = 0.0  # moves of the layer input and of its Jacobian in x
        g = 1.0  # bound on the current network's Jacobian
        layers = zip(self.anchor.layers, params.layers, self.norms, self.inputs, self.jacobians)
        for (A_a, b_a), (A, b), a_a, h_a, g_a in layers:
            dA, db = A - A_a, b - b_a
            rows = np.linalg.norm(dA, axis=1)
            d_a = float(np.linalg.norm(rows))
            a = a_a + d_a
            z = a * delta + d_a * h_a + float(np.linalg.norm(db))
            grad_move = a * eps + d_a * g_a
            z_max = float(np.max(np.linalg.norm(A, axis=1) * delta + rows * h_a + np.abs(db)))
            eps = act.l_rho_prime * z_max * a * g + act.b_rho_prime * grad_move
            delta = act.l_rho * z
            g *= act.b_rho_prime * a
        return z, grad_move


class RecipeError(ValueError):
    """Raised when the accuracy target implies an unbuildable architecture."""


@dataclass(frozen=True)
class RecipeResult:
    arch: NetworkArch
    weight_budget: int
    requested_b_theta: float  # may exceed the cap; see b_theta_capped
    b_theta_capped: bool


# ceil() of float formulas gets an anti-roundoff nudge so limiting cases
# (e.g. a budget expression tending to exactly 1) do not round up spuriously
_CEIL_NUDGE = 1e-9


def _nudged_ceil(x: float) -> int:
    return int(math.ceil(x - _CEIL_NUDGE))


def arch_recipe(
    epsilon: float,
    d: int,
    mu: float,
    beta: float,
    c_user: float = 1.0,
    activation: ActivationKind = TANH,
    max_b_theta: float = 1e12,
    max_weights: int = 10_000_000,
) -> RecipeResult:
    """Architecture sized for target accuracy ``epsilon``.

    Depth grows like log2(d+1); the total weight budget scales like
    (beta^2 eps)^(-d/(1-mu)) and is spread over equal-width hidden layers; the
    weight bound scales like (beta^2 eps)^(-(9d+8)/(2-2mu)) and is capped at
    ``max_b_theta`` (the cap is flagged in the result).
    """
    if not (0.0 < epsilon < 1.0):
        raise RecipeError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < mu < 1.0):
        raise RecipeError(f"mu must be in (0, 1), got {mu}")
    if d < 1:
        raise RecipeError(f"dimension must be >= 1, got {d}")
    if beta <= 0:
        raise RecipeError(f"beta must be > 0, got {beta}")
    if c_user < 1:
        raise RecipeError(f"c_user must be >= 1, got {c_user}")
    if not (max_b_theta >= 1 and max_weights >= 1):
        raise RecipeError(f"max_b_theta and max_weights must be >= 1, got {max_b_theta}, {max_weights}")

    depth = max(1, _nudged_ceil(c_user * math.log2(d + 1)))
    base = beta * beta * epsilon
    ln_base = 2.0 * math.log(beta) + math.log(epsilon)  # log(beta^2 * eps)

    ln_budget = math.log(c_user) - (d / (1.0 - mu)) * ln_base
    if ln_budget > math.log(max_weights):
        raise RecipeError(
            f"weight budget exp({ln_budget:.2f}) exceeds limit {max_weights}; increase epsilon"
        )
    # safe to leave log-space: the guard above keeps this within double range
    budget = max(1, _nudged_ceil(c_user * math.pow(base, -d / (1.0 - mu))))

    try:
        requested = c_user * math.pow(base, -(9.0 * d + 8.0) / (2.0 - 2.0 * mu))
    except OverflowError:
        requested = math.inf
    capped = requested > max_b_theta
    b_theta = max(1.0, min(requested, max_b_theta))

    if depth == 1:
        widths = (d, 1)
    else:
        # largest equal hidden width whose dense weight count fits the budget
        def weight_count(w: int) -> int:
            return (d * w + w) + (depth - 2) * (w * w + w) + (w + 1)

        w = 1
        while weight_count(w + 1) <= budget:
            w += 1
        widths = (d,) + (w,) * (depth - 1) + (1,)

    arch = NetworkArch(widths=widths, activation=activation, b_theta=b_theta)
    return RecipeResult(arch=arch, weight_budget=budget, requested_b_theta=requested, b_theta_capped=capped)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: NetworkParams, path: str) -> None:
    """Write a single network's JSON checkpoint atomically (temp file + rename)."""
    if params.ensemble:
        raise ValueError("save_checkpoint writes a single network, not a stack")
    doc = {
        "arch": {
            "depth": params.arch.depth,
            "widths": list(params.arch.widths),
            "activation": params.arch.activation.name,
            "b_theta": params.arch.b_theta,
        },
        "layers": [{"A": A.reshape(-1).tolist(), "b": b.tolist()} for A, b in params.layers],
    }
    tmp = f"{path}.partial"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> NetworkParams:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    arch_doc = doc["arch"]
    widths = tuple(int(w) for w in arch_doc["widths"])
    if int(arch_doc["depth"]) != len(widths) - 1:
        raise ValueError("checkpoint depth disagrees with widths")
    arch = NetworkArch(
        widths=widths,
        activation=activation_by_name(arch_doc["activation"]),
        b_theta=float(arch_doc["b_theta"]),
    )
    if len(doc["layers"]) != arch.depth:
        raise ValueError(f"checkpoint has {len(doc['layers'])} layers, its widths imply {arch.depth}")
    flat = np.empty(arch.n_params())
    for (A, b), layer in zip(_layer_views(arch, flat), doc["layers"]):
        A[...] = np.reshape(np.asarray(layer["A"], dtype=np.float64), A.shape)
        b[...] = np.reshape(np.asarray(layer["b"], dtype=np.float64), b.shape)
    return NetworkParams(arch, flat)
