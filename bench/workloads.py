"""The four benchmark workloads as weakgal experiment configs.

Each workload is one closed loop: a single caller runs the config through
``weakgal.cli.run`` back to back in one process.  ``config(seed, smoke)``
builds the config from the workload seed alone; ``smoke=True`` shrinks every
length so the whole set runs in seconds for the benchmark's own test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

# stabiliser knobs pinned by the acceptance suite (criteria 7 and 8)
_KNOBS = {"adam_beta1": 0.0, "adam_beta2": 0.9, "adam_eps": 3e-3, "h1_ball_radius": 3.0}

_POISSON_MASS_1D = {
    "dim": 1, "domain": {"kind": "hypercube"}, "c": "1",
    "alpha": 1.0, "beta": 1.0, "u_exact": "sin(pi*x1)",
}


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    config: Callable[[int, bool], dict]

    def outer_steps(self, cfg: dict) -> int:
        """Outer steps (solves) or probes (theory-check) one run performs."""
        if cfg["command"] == "theory-check":
            t = cfg["theory"]
            return 2 * t["probes"] + t["sta_trials"] * t["sta_probes"]
        runs = 1
        if cfg["command"] == "convergence-study":
            runs = len(cfg["sweep"]["n_values"]) * len(cfg["sweep"]["seeds"])
        return runs * cfg["train"]["outer_steps"]

    def threads(self, cfg: dict) -> int:
        """Threads a run keeps busy: the sweep's default pool, else one."""
        if cfg["command"] != "convergence-study":
            return 1
        jobs = len(cfg["sweep"]["n_values"]) * len(cfg["sweep"]["seeds"])
        return min(len(os.sched_getaffinity(0)), jobs)


def _solve_1d_robin(seed: int, smoke: bool) -> dict:
    steps = 3 if smoke else 150
    return {
        "command": "solve",
        "problem": _POISSON_MASS_1D,
        "u_arch": {"widths": [1, 20, 20, 1], "b_theta": 10.0},
        "v_arch": {"widths": [1, 20, 20, 1], "b_theta": 2.0},
        "train": {
            "n_interior": 256, "m_boundary": 256, "outer_steps": steps, "inner_steps": 2,
            "optimizer": "adam", "lr_u": 1e-3, "lr_v": 1e-3, "eval_every": 50,
            "h1_quad_points": 4096, "v_restart_every": 1000, "seed": seed, **_KNOBS,
        },
    }


def _solve_2d_varcoef(seed: int, smoke: bool) -> dict:
    steps = 3 if smoke else 80
    return {
        "command": "solve",
        "problem": {
            "dim": 2, "domain": {"kind": "hypercube"},
            "a": [["1+x1^2", "0.25*x1*x2"], ["0.25*x1*x2", "1+exp(x2)/2"]],
            "b": ["cos(x2)", "-x1"],
            "c": "1+x1*x2",
            "alpha": 1.0, "beta": 1e-2, "bc_kind": "dirichlet",
            "u_exact": "sin(pi*x1)*sin(pi*x2)",
        },
        "u_arch": {"widths": [2, 20, 20, 1], "b_theta": 10.0},
        "v_arch": {"widths": [2, 20, 20, 1], "b_theta": 2.0},
        "train": {
            "n_interior": 256, "m_boundary": 256, "outer_steps": steps, "inner_steps": 3,
            "optimizer": "adam", "lr_u": 3e-3, "lr_v": 3e-3, "eval_every": 40,
            "seed": seed, **_KNOBS,
        },
    }


def _sweep_1d(seed: int, smoke: bool) -> dict:
    steps = 2 if smoke else 10
    n_seeds = 2 if smoke else 4
    return {
        "command": "convergence-study",
        "problem": _POISSON_MASS_1D,
        "u_arch": {"widths": [1, 12, 12, 1], "b_theta": 10.0},
        "v_arch": {"widths": [1, 12, 12, 1], "b_theta": 2.0},
        "train": {
            "outer_steps": steps, "inner_steps": 2, "lr_u": 1e-3, "lr_v": 1e-3,
            "eval_every": steps, **_KNOBS,
        },
        "sweep": {
            "n_values": [8, 64] if smoke else [64, 4096],
            "seeds": [n_seeds * seed + i for i in range(n_seeds)],
        },
    }


def _theory_check(seed: int, smoke: bool) -> dict:
    return {
        "command": "theory-check",
        "problem": {
            "dim": 2, "domain": {"kind": "hypercube"}, "c": "1",
            "alpha": 1.0, "beta": 1.0, "u_exact": "sin(pi*x1)*sin(pi*x2)",
        },
        "u_arch": {"widths": [2, 8, 8, 1], "b_theta": 2.0},
        "theory": (
            {"probes": 10, "rademacher_sets": 5, "sta_trials": 1, "sta_n": 16,
             "sta_probes": 2, "seed": seed}
            if smoke else
            {"probes": 1000, "sta_trials": 2, "sta_n": 128, "sta_probes": 10, "seed": seed}
        ),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-1d-robin", 7, _solve_1d_robin),
        Workload("solve-2d-varcoef", 11, _solve_2d_varcoef),
        Workload("sweep-1d", 0, _sweep_1d),
        Workload("theory-check", 0, _theory_check),
    )
}
