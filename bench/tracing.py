"""Outside-in tracing of weakgal's public functions.

The program is not modified.  ``Tracer.installed()`` replaces each traced
function at every attribute where a caller looks it up: the defining module,
every weakgal module that imported it by name (``train`` imports
``sample_batch``, so ``weakgal.train.sample_batch`` is wrapped too), and for
the coefficient methods the ``EllipticProblem`` class.  Module-global lookups
inside the defining module (``forward_dual`` calling ``forward_dual_batch``)
go through the wrapper as well.

A span is (id, name, start, end, parent, thread, points, flops).  Spans stay
in memory; the caller writes them out when the benchmark ends.  Each thread
keeps its own span stack, so the pool threads of a convergence study nest
correctly; a span opened on a thread with an empty stack gets the main
thread's open root span (the ``cli.run`` call) as its parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# (span name, defining module, attribute).  Several attributes may share a
# span name; the name is the per-layer metric group.
TARGETS = (
    ("expr.evaluate_many", "weakgal.expr", "evaluate_many"),
    ("expr.diff", "weakgal.expr", "diff"),
    ("pde.sample_batch", "weakgal.pde", "sample_batch"),
    ("pde.coefficients", "weakgal.pde", "EllipticProblem.a_values"),
    ("pde.coefficients", "weakgal.pde", "EllipticProblem.b_values"),
    ("pde.coefficients", "weakgal.pde", "EllipticProblem.c_values"),
    ("pde.coefficients", "weakgal.pde", "EllipticProblem.f_values"),
    ("pde.coefficients", "weakgal.pde", "EllipticProblem.g_values"),
    ("pde.manufactured_problem", "weakgal.pde", "manufactured_problem"),
    ("pde.check_coercivity", "weakgal.pde", "check_coercivity"),
    ("network.forward_dual_batch", "weakgal.network", "forward_dual_batch"),
    ("network.backprop_params_batch", "weakgal.network", "backprop_params_batch"),
    ("network.forward_dual", "weakgal.network", "forward_dual"),
    ("network.clip_weights", "weakgal.network", "clip_weights"),
    ("network.flat_params", "weakgal.network", "params_to_flat"),
    ("network.flat_params", "weakgal.network", "flat_to_params"),
    ("loss.loss_gradients", "weakgal.loss", "loss_gradients"),
    ("loss.empirical_loss", "weakgal.loss", "empirical_loss"),
    ("loss.h1_error", "weakgal.loss", "h1_error"),
    ("train.minimax_train", "weakgal.train", "minimax_train"),
    ("theory.lipschitz_probe", "weakgal.theory", "lipschitz_probe"),
    ("theory.empirical_class_sups", "weakgal.theory", "empirical_class_sups"),
    ("theory.empirical_sta_error", "weakgal.theory", "empirical_sta_error"),
    ("cli.run", "weakgal.cli", "run"),
)


def _dense_flops(params, n: int) -> int:
    """Computed multiply-add flops of one forward-dual pass over n points.

    Per affine layer the value path costs 2*n*w_in*w_out and the tangent path
    (one column per input dimension d) 2*n*w_in*w_out*d; activations and
    bookkeeping are not counted.
    """
    widths = params.arch.widths
    d = widths[0]
    return 2 * n * (1 + d) * sum(a * b for a, b in zip(widths, widths[1:]))


def _work(name: str, args: tuple) -> tuple[int, int]:
    """(points, computed flops) of one call, read from its arguments."""
    if name == "network.forward_dual_batch":
        n = len(args[1])
        return n, _dense_flops(args[0], n)
    if name == "network.backprop_params_batch":
        # forward recomputation plus a reverse sweep of about twice its cost
        n = len(args[1])
        return n, 3 * _dense_flops(args[0], n)
    if name == "pde.sample_batch":
        return int(args[1]) + int(args[2]), 0
    return 0, 0


@contextlib.contextmanager
def patched(replace):
    """Swap functions at every weakgal attribute that refers to them.

    ``replace(original, span_name)`` returns the stand-in, or None to leave
    that target alone.  Everything is restored on exit.
    """
    saved = []
    try:
        for span_name, mod_name, attr in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                stand_in = replace(original, span_name)
                if stand_in is not None:
                    saved.append((cls, meth, original))
                    setattr(cls, meth, stand_in)
                continue
            original = getattr(owner, attr)
            stand_in = replace(original, span_name)
            if stand_in is None:
                continue
            for mod_key, mod in list(sys.modules.items()):
                if mod is None or not (mod_key == "weakgal" or mod_key.startswith("weakgal.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, stand_in)
        yield
    finally:
        for holder, key, original in reversed(saved):
            setattr(holder, key, original)


class Tracer:
    """Records a span around every call of the traced functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None

    def _wrap(self, fn, name: str):
        tracer = self
        main = threading.main_thread()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            is_root = not stack and threading.current_thread() is main
            if is_root:
                tracer._root = sid
            points, flops = _work(name, args)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                tracer.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), points, flops)
                )

        return traced

    def installed(self):
        return patched(self._wrap)

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, *_ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - union_length([k for k in kids if k[1] > k[0]])
    return out


SELF_GROUPS = sorted({name for name, _, _ in TARGETS})
COUNTED = ("expr.evaluate_many", "expr.diff", "pde.sample_batch", "pde.coefficients",
           "network.forward_dual_batch", "network.backprop_params_batch",
           "network.forward_dual", "loss.loss_gradients", "loss.empirical_loss",
           "loss.h1_error")
POINTED = ("pde.sample_batch", "network.forward_dual_batch", "network.backprop_params_batch")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced run (the spans of one ``cli.run``)."""
    selfs = self_times(spans)
    names = {sid: name for sid, name, *_ in spans}
    m: dict[str, float] = {f"{g}.self_s": 0.0 for g in SELF_GROUPS}
    m.update({f"{g}.calls": 0 for g in COUNTED})
    m.update({f"{g}.points": 0 for g in POINTED})
    m["network.computed_flops"] = 0
    m["train.projection_forward_s"] = 0.0
    train_time = 0.0
    train_threads = set()
    run_wall = 0.0
    for sid, name, start, end, parent, thread, points, flops in spans:
        m[f"{name}.self_s"] += selfs[sid]
        if name in COUNTED:
            m[f"{name}.calls"] += 1
        if name in POINTED:
            m[f"{name}.points"] += points
        m["network.computed_flops"] += flops
        if name == "network.forward_dual_batch" and names.get(parent) == "train.minimax_train":
            m["train.projection_forward_s"] += selfs[sid]
        if name == "train.minimax_train":
            train_time += end - start
            train_threads.add(thread)
        if name == "cli.run" and parent is None:
            run_wall += end - start
    m["cli.pool.busy_ratio"] = (
        train_time / (run_wall * len(train_threads)) if train_threads and run_wall > 0 else 0.0
    )
    m["trace.self_total_s"] = sum(selfs.values())
    return m
