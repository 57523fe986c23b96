"""Correctness checks on a workload's outputs.

Every failed check makes its run count as failed.  The checks are:

* ``exit_code``: ``cli.run`` returned 0;
* ``output_files``: the expected CSV/JSON files exist with the expected rows;
* ``coercivity`` (solves): the manifest reports the sampled coercivity holds;
* ``h1_finite`` (solves, sweep): the relative H1 error is finite;
* ``theory_bounds`` (theory-check): every bound holds, zero Massart violations;
* ``determinism``: every run of one invocation has the same output digest;
* ``gradient_fd`` (solves, sweep): on the first batch and initial weights,
  ``loss.loss_gradients`` matches central differences of
  ``loss.empirical_loss`` on a few coordinates of each network.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
import statistics

import numpy as np

import tracing

# 3 Lipschitz lemmas (tanh is smooth) + 6 class sups + Massart + statistical error
THEORY_ROWS = 11
H1_QUAD = 65536
H1_SEED = [12345, 0]


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class OutputChecker:
    """Checks one workload config's outputs; ``quality`` is its accuracy figure."""

    def __init__(self, weakgal, cfg: dict):
        self.wg = weakgal
        self.cfg = cfg
        self.command = cfg["command"]
        problem = cfg["problem"]
        self.domain = weakgal.pde.unit_hypercube(problem["dim"])
        self.u_exact = weakgal.expr.parse(problem["u_exact"], problem["dim"])
        self.ref_h1 = weakgal.loss.h1_error(
            None, self.u_exact, self.domain, n_quad=H1_QUAD, seed=H1_SEED
        ).h1

    def expected_rows(self) -> dict[str, int]:
        if self.command == "solve":
            t = self.cfg["train"]
            return {"history.csv": -(-t["outer_steps"] // t["eval_every"])}
        if self.command == "convergence-study":
            s = self.cfg["sweep"]
            return {"convergence.csv": len(s["n_values"]) * len(s["seeds"])}
        return {"theory.csv": THEORY_ROWS}

    def check(self, out_dir: str) -> tuple[list[str], list[str], str | None, float | None]:
        """Returns (checks run, failures, digest, quality) for one run's outputs."""
        ran, failures = ["output_files"], []
        extra = {"solve": ("u.json", "v.json"), "theory-check": ("theory.json",)}
        for name in ("manifest.json",) + extra.get(self.command, ()):
            if not os.path.isfile(os.path.join(out_dir, name)):
                failures.append(f"missing {name}")
        for name, want in self.expected_rows().items():
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path):
                failures.append(f"missing {name}")
            elif len(_rows(path)) != want:
                failures.append(f"{name}: {len(_rows(path))} rows, expected {want}")
        if failures:
            return ran, failures, None, None

        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        digest = hashlib.sha256()
        if self.command == "theory-check":
            ran.append("theory_bounds")
            if results["all_bounds_hold"] is not True or results["massart_violations"] != 0:
                failures.append(f"theory bounds: {results}")
            with open(os.path.join(out_dir, "theory.json"), encoding="utf-8") as fh:
                quality = statistics.mean(r["ratio"] for r in json.load(fh))
            digest.update(_read(os.path.join(out_dir, "theory.csv")))
        elif self.command == "convergence-study":
            rows = _rows(os.path.join(out_dir, "convergence.csv"))
            quality = statistics.median(float(r["h1_error"]) for r in rows) / self.ref_h1
            digest.update(_read(os.path.join(out_dir, "convergence.csv")))
        else:
            ran.append("coercivity")
            if results["coercivity_holds"] is not True:
                failures.append("sampled coercivity condition fails")
            u = self.wg.network.load_checkpoint(os.path.join(out_dir, "u.json"))
            quality = self.wg.loss.h1_error(
                u, self.u_exact, self.domain, n_quad=H1_QUAD, seed=H1_SEED
            ).h1 / self.ref_h1
            # the history's last column is wall-clock seconds
            text = _read(os.path.join(out_dir, "history.csv")).decode("utf-8")
            body = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
            digest.update(body.encode("utf-8"))
            digest.update(_read(os.path.join(out_dir, "u.json")))
        if self.command != "theory-check":
            ran.append("h1_finite")
            if not math.isfinite(quality):
                failures.append(f"relative H1 error is {quality}")
        return ran, failures, digest.hexdigest(), quality


def one_step_config(cfg: dict) -> dict:
    """The workload config cut to its first outer step (first sweep point)."""
    short = copy.deepcopy(cfg)
    short["train"]["outer_steps"] = 1
    short["train"]["eval_every"] = 1
    if "sweep" in short:
        short["sweep"]["n_values"] = short["sweep"]["n_values"][:1]
        short["sweep"]["seeds"] = short["sweep"]["seeds"][:1]
    return short


def gradient_check(weakgal, cfg_path: str, out_dir: str, seed: int) -> list[str]:
    """Compare exact and finite-difference objective gradients (criterion 1).

    ``cfg_path`` holds a one-step config; its first ``loss_gradients`` call
    carries the initial weights and the first batch, which are captured and
    checked.  Tolerance and step as in the acceptance suite.
    """
    captured = []

    def capture(original, span_name):
        if span_name != "loss.loss_gradients":
            return None

        def first_call(*args, **kwargs):
            if not captured:
                captured.append(args)
            return original(*args, **kwargs)

        return first_call

    with tracing.patched(capture):
        rc = weakgal.cli.run(cfg_path, out_dir=out_dir, quiet=True)
    if rc != 0 or not captured:
        return [f"one-step run exited {rc}, captured {len(captured)} gradient calls"]
    u, v, problem, batch = captured[0][:4]
    alpha_half = captured[0][4] if len(captured[0]) > 4 else False
    loss, net = weakgal.loss, weakgal.network
    gu, gv, _ = loss.loss_gradients(u, v, problem, batch, alpha_half)
    rng = np.random.default_rng([seed, 1])
    h = 1e-5
    failures = []
    for side, params, grad in (("u", u, gu), ("v", v, gv)):
        flat0 = net.params_to_flat(params)
        for i in rng.choice(flat0.size, size=min(4, flat0.size), replace=False):
            total = []
            for step in (h, -h):
                flat = flat0.copy()
                flat[i] += step
                moved = net.flat_to_params(params.arch, flat)
                pair = (moved, v) if side == "u" else (u, moved)
                total.append(loss.empirical_loss(*pair, problem, batch, alpha_half).total)
            fd = (total[0] - total[1]) / (2 * h)
            if not abs(grad[i] - fd) <= 1e-4 * (1.0 + abs(fd)):
                failures.append(f"grad_{side}[{i}] = {grad[i]!r}, central difference {fd!r}")
    return failures
