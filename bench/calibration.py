"""Machine-speed calibration for a shared host whose cores drift in speed.

On a small shared virtual machine the speed of the cores drifts by up to 1.5x
over periods of 20 s to several minutes, so the raw time of a workload run
measures the host as much as the program.  The benchmark therefore times a
fixed reference kernel right before every run and once after the last one.
The kernel does numpy and interpreter work of the same kind as weakgal's
(small dense tanh layers, their transposed products, Python-level glue), but
it uses no weakgal code, so no change to weakgal moves it.

A run's speed factor is ``REFERENCE_S`` divided by the mean of the kernel
times just before and just after it, one factor for wall time and one for CPU
time.  Multiplying a run's times by their factors gives seconds at a fixed
reference speed: a slow period of the host slows the
kernel and the run alike and cancels out, while a change to weakgal moves the
scaled time as much as the raw one.  The raw times are kept in the full
results beside the scaled ones.
"""

from __future__ import annotations

import concurrent.futures
import time

import numpy as np

# About the kernel's median time on one thread of the 2-vCPU x86_64 machine
# the benchmark was written on.  It only fixes the scale of the reported
# seconds.
REFERENCE_S = 0.13
_ITERATIONS = 1200
_WIDTHS = (20, 20, 20)


def _kernel(iterations: int) -> float:
    rng = np.random.default_rng(0)
    layers = [rng.standard_normal((w, w)) * 0.3 for w in _WIDTHS]
    x = rng.standard_normal((256, _WIDTHS[0]))
    big = rng.standard_normal((4096, _WIDTHS[0]))
    acc = 0.0
    for i in range(iterations):
        h = big if i % 50 == 0 else x
        for a in layers:
            h = np.tanh(h @ a)
        grad = (h.T @ h[:, : _WIDTHS[0]]) / len(h)
        acc += float(grad.sum())
        state = {"step": i, "acc": acc}
        acc += state["step"] * 1e-12
    return acc


def reference_times(threads: int = 1) -> tuple[float, float]:
    """(wall, process CPU) seconds of one fixed amount of kernel work split
    over ``threads``."""
    wall, cpu = time.perf_counter(), time.process_time()
    if threads <= 1:
        _kernel(_ITERATIONS)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_kernel, [_ITERATIONS // threads] * threads))
    return time.perf_counter() - wall, time.process_time() - cpu


def speed_factors(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """Scales from raw wall and raw CPU seconds to seconds at reference speed.

    Wall and CPU time get separate factors: when another tenant takes one of
    the cores, a multi-threaded run's wall time grows but its CPU time does
    not, and the kernel's two times move the same way.
    """
    return tuple(REFERENCE_S / (0.5 * (b + a)) for b, a in zip(before, after))
