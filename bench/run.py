"""weakgal benchmark: four closed-loop workloads through ``weakgal.cli.run``.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke

Run from the root of a source checkout; weakgal is imported from its ``src``
directory, never from an installed copy.  One invocation:

1. times set-up in fresh child processes (``--trace 0`` only): process start
   through import, config validation, problem build and network init, up to
   the first outer step (first probe for theory-check);
2. checks exact against finite-difference gradients on the first batch;
3. runs the workload back to back for ``--seconds`` seconds, checking every
   run's outputs and that all runs produce the same digest;
   with ``--trace 0`` a fixed reference kernel is timed between runs and
   between set-up probes, and every time is scaled to reference speed
   (see calibration.py);
4. prints a summary and, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 1`` untraced runs (the baseline for ``trace.overhead_s``)
alternate with runs that wrap every public function of expr, pde, network,
loss, train, theory and cli (see tracing.py).
Spans and full results are written under ``.bench_out/``.

``--smoke`` runs every workload at tiny lengths in both modes and checks that
each declared metric is emitted with its unit and each check ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
MIN_REPEATS = 2


def _import_weakgal():
    """Import weakgal from the checkout's src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "weakgal" / "__init__.py").is_file():
        raise SystemExit(f"bench: no weakgal sources under {src}")
    sys.path.insert(0, str(src))
    import weakgal

    if Path(weakgal.__file__).resolve().parent != (src / "weakgal").resolve():
        raise SystemExit(f"bench: imported weakgal from {weakgal.__file__}, not {src}")
    return weakgal


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "WG_THREADS": os.environ.get("WG_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# set-up time, measured in child processes


def probe_setup(cfg_path: str, out_dir: str) -> int:
    """Child process: run the config and print the clock at its first step."""
    weakgal = _import_weakgal()
    import tracing

    first_step = ("pde.sample_batch", "theory.lipschitz_probe", "theory.empirical_class_sups")
    once = threading.Lock()  # sweep pool threads reach their first step together

    def stop(original, span_name):
        if span_name not in first_step:
            return None

        def at_first_step(*args, **kwargs):
            now = time.monotonic()
            with once:
                print(repr(now), flush=True)
                os._exit(0)  # also ends pool threads mid-run

        return at_first_step

    with tracing.patched(stop):
        weakgal.cli.run(cfg_path, out_dir=out_dir, quiet=True)
    print("bench: the workload finished without an outer step", file=sys.stderr)
    return 1


def measure_setup(cfg_path: Path, work: Path) -> tuple[list[float], list[float]]:
    """Raw set-up times of fresh child processes and the same at reference speed."""
    import calibration

    raw, scaled = [], []
    ref_before = calibration.reference_times()
    for k in range(SETUP_PROBES):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             str(cfg_path), str(work / f"setup{k}")],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
        raw.append(float(child.stdout.strip().splitlines()[-1]) - start)
        ref_after = calibration.reference_times()
        scaled.append(raw[-1] * calibration.speed_factors(ref_before, ref_after)[0])
        ref_before = ref_after
    return raw, scaled


# ---------------------------------------------------------------------------
# one benchmark invocation


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    # imported here, after main() has fixed the BLAS thread count, because
    # these modules import numpy
    weakgal = _import_weakgal()
    import calibration
    import checks
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    cfg = workload.config(seed, smoke)
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    env = _environment()
    env["loadavg_start"] = os.getloadavg()

    ran: set[str] = set()
    failures: list[str] = []
    attempted = 0
    failed = 0

    setup_raw, setup = ([], []) if trace else measure_setup(cfg_path, work)

    if cfg["command"] != "theory-check":
        short_path = work / "one_step.json"
        short_path.write_text(json.dumps(checks.one_step_config(cfg)))
        ran.add("gradient_fd")
        attempted += 1
        try:
            bad = checks.gradient_check(weakgal, str(short_path), str(work / "one_step"), seed)
        except Exception:  # a traceback is a failed check, not a crashed benchmark
            bad = [traceback.format_exc()]
        if bad:
            failed += 1
            failures.extend(bad)

    checker = checks.OutputChecker(weakgal, cfg)
    steps = workload.outer_steps(cfg)
    tracer = tracing.Tracer()
    train_spans: list[tuple[float, float]] = []

    def time_training(original, span_name):
        if span_name != "train.minimax_train":
            return None

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                train_spans.append((start, time.perf_counter()))

        return timed

    samples = {"untraced": [], "traced": []}
    first_digest = None
    quality = None
    # the first run warms caches and is not timed; with tracing, traced and
    # untraced runs alternate so both see the same machine load
    modes = ("untraced", "traced") if trace else ("untraced",)
    out_dir = str(work / "out")
    # untraced runs are scaled to reference speed (see calibration.py); the
    # kernel runs on as many threads as the workload's pool
    threads = workload.threads(cfg)
    ref_before = None if trace else calibration.reference_times(threads)
    runs = 0
    loop_start = time.perf_counter()
    while runs < 1 + MIN_REPEATS * len(modes) or time.perf_counter() - loop_start < seconds:
        warmup = runs == 0
        phase = "untraced" if warmup else modes[(runs - 1) % len(modes)]
        runs += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        attempted += 1
        train_spans.clear()
        hooks = tracer.installed() if phase == "traced" else tracing.patched(time_training)
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            with hooks:
                rc = weakgal.cli.run(str(cfg_path), out_dir=out_dir, quiet=True)
        except Exception:  # a traceback is a failed run, not a crashed benchmark
            rc = None
            failures.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        ran.add("exit_code")
        run_failures = [] if rc == 0 else [f"cli.run returned {rc}"]
        sample = {"wall_s": wall, "cpu_s": cpu}
        if ref_before is not None:
            ref_after = calibration.reference_times(threads)
            sample["speed_factor"], sample["cpu_speed_factor"] = calibration.speed_factors(
                ref_before, ref_after
            )
            ref_before = ref_after
        if rc == 0:
            kinds, bad, digest, q = checker.check(out_dir)
            ran.update(kinds)
            run_failures.extend(bad)
            if digest is not None:
                ran.add("determinism")
                if first_digest is None:
                    first_digest, quality = digest, q
                elif digest != first_digest:
                    run_failures.append(f"output digest {digest} != first run's {first_digest}")
            sample["bytes"] = sum(p.stat().st_size for p in Path(out_dir).iterdir())
        if phase == "traced":
            sample["spans"] = tracer.take()
        elif train_spans:
            sample["steps_per_s"] = steps / tracing.union_length(train_spans)
        else:
            sample["steps_per_s"] = steps / wall
        if run_failures:
            failed += 1
            failures.extend(run_failures)
        elif not warmup:
            samples[phase].append(sample)

    untraced = samples["untraced"]
    if not untraced or (trace and not samples["traced"]):
        raise RuntimeError("no successful run to report:\n" + "\n".join(failures))

    metrics = {}
    if not trace:
        def scaled(key, factor, power=1):
            return statistics.median([s[key] * s[factor] ** power for s in untraced])

        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (scaled("wall_s", "speed_factor"), "s"),
            "cpu_s": (scaled("cpu_s", "cpu_speed_factor"), "s"),
            "outer_steps_per_s": (scaled("steps_per_s", "speed_factor", -1), "1/s"),
            "h1_rel_error": (quality, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_rate": (1.0 - failed / attempted, "ratio"),
        }
    else:
        traced = samples["traced"]
        per_run = [tracing.layer_metrics(s["spans"]) for s in traced]
        for key in per_run[0]:
            metrics[key] = (statistics.median([m[key] for m in per_run]), _unit(key))
        traced_wall = statistics.median([s["wall_s"] for s in traced])
        metrics["cli.bytes_written"] = (statistics.median([s["bytes"] for s in traced]), "B")
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (
            traced_wall - statistics.median([s["wall_s"] for s in untraced]), "s"
        )
        spans_path = OUT / "spans" / f"{name}-seed{seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as fh:
            for run_index, s in enumerate(traced):
                for sid, span_name, start, end, parent, thread, points, flops in s["spans"]:
                    fh.write(json.dumps({
                        "run": run_index, "id": sid, "name": span_name, "start": start,
                        "end": end, "parent": parent, "thread": thread,
                        "points": points, "flops": flops,
                    }) + "\n")

    env["loadavg_end"] = os.getloadavg()
    factors = [s["speed_factor"] for s in untraced if "speed_factor" in s]
    env["speed_factor_median"] = statistics.median(factors) if factors else None
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "env": env, "checks_run": sorted(ran), "failures": failures,
        "setup_samples_s": setup, "setup_raw_samples_s": setup_raw,
        "runs": {k: [{m: v for m, v in s.items() if m != "spans"} for s in lst]
                 for k, lst in samples.items()},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_path = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(result, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return result


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("flops"):
        return "flop"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def _print_result(result: dict) -> None:
    print("env " + json.dumps(result["env"], sort_keys=True))
    for failure in result["failures"]:
        print("FAILED: " + failure.strip(), file=sys.stderr)
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']} "
          f"runs={result['attempted']} fail_rate={result['failed'] / result['attempted']:g}")
    for key, m in result["metrics"].items():
        print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


# ---------------------------------------------------------------------------
# smoke test of the benchmark itself

EXPECTED_CHECKS = {
    "solve": {"exit_code", "output_files", "coercivity", "h1_finite", "determinism", "gradient_fd"},
    "convergence-study": {"exit_code", "output_files", "h1_finite", "determinism", "gradient_fd"},
    "theory-check": {"exit_code", "output_files", "theory_bounds", "determinism"},
}


def smoke() -> int:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for name, workload in WORKLOADS.items():
        command = workload.config(workload.default_seed, True)["command"]
        for trace in (0, 1):
            result = run_benchmark(name, workload.default_seed, 0.0, bool(trace), smoke=True)
            where = f"{name} trace={trace}"
            if not result["correct"]:
                problems.append(f"{where}: failures {result['failures']}")
            for metric in declared[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{where}: metric {metric['name']} missing or unit {got}")
            missing = EXPECTED_CHECKS[command] - set(result["checks_run"])
            if missing:
                problems.append(f"{where}: checks not run: {sorted(missing)}")
            print(f"smoke {where}: {len(result['metrics'])} metrics, checks {result['checks_run']}")
    for p in problems:
        print("SMOKE FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    # One BLAS thread per process: the convergence-study pool already runs up
    # to nproc Python threads, and BLAS threads on top of them would
    # oversubscribe the cores and make times depend on the scheduler.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: pinned)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe-setup", nargs=2, metavar=("CONFIG", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        return probe_setup(*args.probe_setup)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")
    _print_result(run_benchmark(args.workload, seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
