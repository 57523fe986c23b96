"""Config-driven experiment runner.

``weakgal CONFIG.json [--out DIR] [--seed-override N] [--quiet]`` executes the
command named in the config (solve, penalty-study, convergence-study,
theory-check, approx-probe) and writes CSV results, JSON checkpoints, and a
run manifest into the output directory.  Configs are validated strictly:
unknown keys anywhere are an error.  All files are written atomically (a
``.partial`` temp file renamed into place), and every result CSV except the
measured ``seconds`` column of the solve history is byte-reproducible given
the same config and seed.  ``WG_THREADS`` caps the worker pool used for sweep
points.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import expr as expr_mod
from . import loss as loss_mod
from . import network as net
from . import oracle, theory, train as train_mod
from . import pde

__all__ = ["ConfigError", "run", "main"]


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending key path."""


COMMANDS = ("solve", "penalty-study", "convergence-study", "theory-check", "approx-probe")


# ---------------------------------------------------------------------------
# small helpers


def _worker_count() -> int:
    env = os.environ.get("WG_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as err:
            raise ConfigError(f"WG_THREADS must be an integer, got {env!r}") from err
    return max(1, min(4, os.cpu_count() or 1))


def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.partial"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_csv_cell(v) for v in row) + "\n")
    _atomic_write_text(path, buf.getvalue())


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_json(path: str, doc) -> None:
    _atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# validation


def _require_keys(cfg: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{path}.{key}: missing required key")


def _as_number(value, path: str, minimum=None, strict_min=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{path}: must be finite, got {x}")
    if minimum is not None:
        if strict_min and not x > minimum:
            raise ConfigError(f"{path}: must be > {minimum}, got {x}")
        if not strict_min and not x >= minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {x}")
    return x


def _as_int(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: must be one of {choices}, got {value!r}")
    return value


def _parse_expr(text, dim: int, path: str) -> expr_mod.ExprAst:
    if not isinstance(text, str):
        raise ConfigError(f"{path}: expected an expression string, got {text!r}")
    try:
        return expr_mod.parse(text, dim)
    except expr_mod.ExprError as err:
        raise ConfigError(f"{path}: {err}") from err


def _build_domain(cfg, dim: int, path: str) -> pde.Domain:
    _require_keys(cfg, path, ("kind",), ("center", "radius"))
    kind = _as_str(cfg["kind"], f"{path}.kind", ("hypercube", "ball"))
    if kind == "hypercube":
        if "center" in cfg or "radius" in cfg:
            raise ConfigError(f"{path}: hypercube takes no center/radius")
        return pde.unit_hypercube(dim)
    if "center" not in cfg or "radius" not in cfg:
        raise ConfigError(f"{path}: ball needs center and radius")
    center = cfg["center"]
    if not isinstance(center, list) or len(center) != dim:
        raise ConfigError(f"{path}.center: expected a list of {dim} numbers")
    center = [_as_number(c, f"{path}.center[{i}]") for i, c in enumerate(center)]
    radius = _as_number(cfg["radius"], f"{path}.radius", 0.0, strict_min=True)
    try:
        return pde.ball(center, radius)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _build_problem(cfg, path: str = "problem") -> pde.EllipticProblem:
    _require_keys(
        cfg, path,
        ("dim", "domain", "c", "alpha", "beta"),
        ("a", "b", "bc_kind", "u_exact", "f", "g"),
    )
    dim = _as_int(cfg["dim"], f"{path}.dim", 1)
    domain = _build_domain(cfg["domain"], dim, f"{path}.domain")
    bc_kind = _as_str(cfg.get("bc_kind", "robin"), f"{path}.bc_kind", ("robin", "neumann", "dirichlet"))
    alpha = _as_number(cfg["alpha"], f"{path}.alpha")
    beta = _as_number(cfg["beta"], f"{path}.beta", 0.0, strict_min=True)

    a_cfg = cfg.get("a", "identity")
    if a_cfg == "identity":
        a = pde.identity_matrix(dim)
    else:
        if not isinstance(a_cfg, list) or len(a_cfg) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in a_cfg
        ):
            raise ConfigError(f"{path}.a: expected 'identity' or a {dim}x{dim} list of expressions")
        a = tuple(
            tuple(_parse_expr(a_cfg[i][j], dim, f"{path}.a[{i}][{j}]") for j in range(dim))
            for i in range(dim)
        )
    b_cfg = cfg.get("b", "zero")
    if b_cfg == "zero":
        b = pde.constant_vector(dim, 0.0)
    else:
        if not isinstance(b_cfg, list) or len(b_cfg) != dim:
            raise ConfigError(f"{path}.b: expected 'zero' or a list of {dim} expressions")
        b = tuple(_parse_expr(b_cfg[i], dim, f"{path}.b[{i}]") for i in range(dim))
    c = _parse_expr(cfg["c"], dim, f"{path}.c")

    if "u_exact" in cfg:
        if "f" in cfg or "g" in cfg:
            raise ConfigError(f"{path}: give either u_exact (manufactured) or f/g, not both")
        u_exact = _parse_expr(cfg["u_exact"], dim, f"{path}.u_exact")
        return pde.manufactured_problem(u_exact, a, b, c, alpha, beta, domain, bc_kind)
    if "f" not in cfg:
        raise ConfigError(f"{path}.f: required when u_exact is absent")
    f = _parse_expr(cfg["f"], dim, f"{path}.f")
    if "g" in cfg:
        g: pde.BoundaryFunction = pde.ExprBoundary(_parse_expr(cfg["g"], dim, f"{path}.g"))
    else:
        g = pde.ZERO_BOUNDARY
    if bc_kind == "dirichlet":
        alpha, g = 1.0, pde.ZERO_BOUNDARY
    try:
        return pde.EllipticProblem(
            domain=domain, a=a, b=b, c=c, f=f, g=g,
            alpha=alpha, beta=beta, bc_kind=bc_kind,
        )
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _build_arch(cfg, problem: pde.EllipticProblem, path: str) -> net.NetworkArch:
    _require_keys(cfg, path, (), ("widths", "activation", "b_theta", "recipe"))
    if "recipe" in cfg:
        if "widths" in cfg or "b_theta" in cfg:
            raise ConfigError(f"{path}: give either widths/b_theta or recipe, not both")
        rcfg = cfg["recipe"]
        _require_keys(rcfg, f"{path}.recipe", ("epsilon", "mu"), ("c_user", "max_b_theta", "max_weights"))
        try:
            result = net.arch_recipe(
                epsilon=_as_number(rcfg["epsilon"], f"{path}.recipe.epsilon", 0.0, strict_min=True),
                d=problem.dim,
                mu=_as_number(rcfg["mu"], f"{path}.recipe.mu", 0.0, strict_min=True),
                beta=problem.beta,
                c_user=_as_number(rcfg.get("c_user", 1.0), f"{path}.recipe.c_user", 1.0),
                activation=net.activation_by_name(
                    _as_str(cfg.get("activation", "tanh"), f"{path}.activation")
                ),
                max_b_theta=_as_number(rcfg.get("max_b_theta", 1e12), f"{path}.recipe.max_b_theta", 1.0),
                max_weights=_as_int(rcfg.get("max_weights", 10_000_000), f"{path}.recipe.max_weights", 1),
            )
        except net.RecipeError as err:
            raise ConfigError(f"{path}.recipe: {err}") from err
        return result.arch
    if "widths" not in cfg:
        raise ConfigError(f"{path}.widths: required without a recipe")
    widths = cfg["widths"]
    if not isinstance(widths, list) or len(widths) < 2:
        raise ConfigError(f"{path}.widths: expected a list of at least 2 integers")
    widths = tuple(_as_int(w, f"{path}.widths[{i}]", 1) for i, w in enumerate(widths))
    if widths[0] != problem.dim:
        raise ConfigError(f"{path}.widths[0]: must equal problem dim {problem.dim}")
    try:
        activation = net.activation_by_name(_as_str(cfg.get("activation", "tanh"), f"{path}.activation"))
        return net.NetworkArch(
            widths=widths,
            activation=activation,
            b_theta=_as_number(cfg.get("b_theta", 10.0), f"{path}.b_theta", 1.0),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


_TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(train_mod.TrainConfig))


def _build_train_config(cfg, path: str, seed_override: int | None) -> train_mod.TrainConfig:
    _require_keys(cfg, path, (), _TRAIN_KEYS)
    kwargs = dict(cfg)
    if "h1_ball_radius" in kwargs and kwargs["h1_ball_radius"] == "inf":
        kwargs["h1_ball_radius"] = math.inf
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return train_mod.TrainConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(cfg: dict, out_dir: str, quiet: bool, seed_override, cfg_hash: str) -> dict:
    problem = _build_problem(cfg["problem"])
    u_arch = _build_arch(cfg.get("u_arch", {"widths": [problem.dim, 16, 16, 1]}), problem, "u_arch")
    v_arch = _build_arch(cfg.get("v_arch", {"widths": [problem.dim, 16, 16, 1]}), problem, "v_arch")
    tcfg = _build_train_config(cfg.get("train", {}), "train", seed_override)
    write_checkpoints = cfg.get("write_checkpoints", False)
    if not isinstance(write_checkpoints, bool):
        raise ConfigError(f"config.write_checkpoints: expected true or false, got {write_checkpoints!r}")

    def on_eval(step: int, u: net.NetworkParams, v: net.NetworkParams, row) -> None:
        if write_checkpoints:
            net.save_checkpoint(u, os.path.join(out_dir, f"u_{step:06d}.json"))
            net.save_checkpoint(v, os.path.join(out_dir, f"v_{step:06d}.json"))
        if not quiet:
            err = "" if math.isnan(row.h1_error) else f" h1_error={row.h1_error:.4g}"
            print(f"[solve] step {step}/{tcfg.outer_steps} loss={row.loss_total:.6g}{err}")

    result = train_mod.minimax_train(
        problem, u_arch, v_arch, tcfg, u_ref=problem.u_exact, on_eval=on_eval
    )
    header = [
        "step", "loss_total", "loss_interior", "loss_boundary", "h1_u", "h1_v",
        "h1_error", "grad_u_norm", "grad_v_norm", "seconds",
    ]
    rows = [
        [r.step, r.loss_total, r.loss_interior, r.loss_boundary, r.h1_u, r.h1_v,
         r.h1_error, r.grad_u_norm, r.grad_v_norm, r.seconds]
        for r in result.history
    ]
    _write_csv(os.path.join(out_dir, "history.csv"), header, rows)
    net.save_checkpoint(result.u, os.path.join(out_dir, "u.json"))
    net.save_checkpoint(result.v, os.path.join(out_dir, "v.json"))
    extras = {
        "coercivity_holds": result.coercivity_holds,
        "final_loss": result.history[-1].loss_total if result.history else None,
        "final_h1_error": (
            None if not result.history or math.isnan(result.history[-1].h1_error)
            else result.history[-1].h1_error
        ),
        "seeds": {"train": tcfg.seed},
    }
    return extras


def _cmd_penalty_study(cfg: dict, out_dir: str, quiet: bool, seed_override, cfg_hash: str) -> dict:
    problem = _build_problem(cfg["problem"])
    sweep = cfg.get("sweep", {})
    _require_keys(sweep, "sweep", ("betas",), ("grid_n",))
    betas = sweep["betas"]
    if not isinstance(betas, list) or len(betas) < 2:
        raise ConfigError("sweep.betas: expected a list of at least 2 numbers")
    betas = [_as_number(b, f"sweep.betas[{i}]", 0.0, strict_min=True) for i, b in enumerate(betas)]
    grid_n = _as_int(sweep.get("grid_n", 2048), "sweep.grid_n", 8)

    study = oracle.penalty_rate_study(problem, betas, n=grid_n)
    rows = [[b, e] for b, e in zip(study.betas, study.errors)]
    _write_csv(os.path.join(out_dir, "penalty.csv"), ["beta", "h1_error"], rows)
    if not quiet:
        print(f"[penalty-study] slope={study.slope:.3f} monotone={study.monotone}")
    return {
        "fitted_slope": study.slope,
        "c_fit": study.c_fit,
        "monotone": study.monotone,
        "within_half_rate": study.within_half_rate,
        "grid_n": grid_n,
    }


def _cmd_convergence_study(cfg: dict, out_dir: str, quiet: bool, seed_override, cfg_hash: str) -> dict:
    problem = _build_problem(cfg["problem"])
    u_arch = _build_arch(cfg.get("u_arch", {"widths": [problem.dim, 16, 16, 1]}), problem, "u_arch")
    v_arch = _build_arch(cfg.get("v_arch", {"widths": [problem.dim, 16, 16, 1]}), problem, "v_arch")
    base = _build_train_config(cfg.get("train", {}), "train", seed_override)
    sweep = cfg.get("sweep", {})
    _require_keys(sweep, "sweep", ("n_values", "seeds"), ("eval_quad",))
    n_values = sweep["n_values"]
    seeds = sweep["seeds"]
    if not isinstance(n_values, list) or not n_values:
        raise ConfigError("sweep.n_values: expected a nonempty list of integers")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("sweep.seeds: expected a nonempty list of integers")
    n_values = [_as_int(n, f"sweep.n_values[{i}]", 1) for i, n in enumerate(n_values)]
    seeds = [_as_int(s, f"sweep.seeds[{i}]", 0) for i, s in enumerate(seeds)]
    eval_quad = _as_int(sweep.get("eval_quad", 65536), "sweep.eval_quad", 2)
    if problem.u_exact is None:
        raise ConfigError("convergence-study needs a manufactured problem (u_exact)")

    jobs = [(n, s) for n in n_values for s in seeds]

    def run_point(job):
        n, s = job
        tcfg = dataclasses.replace(base, n_interior=n, m_boundary=n, seed=s)
        result = train_mod.minimax_train(problem, u_arch, v_arch, tcfg, u_ref=None)
        est = loss_mod.h1_error(
            result.u, problem.u_exact, problem.domain, n_quad=eval_quad, seed=[12345, 0]
        )
        return est.h1

    workers = min(_worker_count(), len(jobs))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            errors = list(pool.map(run_point, jobs))
    else:
        errors = [run_point(j) for j in jobs]

    rows = [[n, s, e] for (n, s), e in zip(jobs, errors)]
    _write_csv(os.path.join(out_dir, "convergence.csv"), ["n_samples", "seed", "h1_error"], rows)

    medians = {}
    for n in n_values:
        vals = [e for (nn, _), e in zip(jobs, errors) if nn == n]
        medians[str(n)] = float(np.median(vals))
    n_sorted = sorted(n_values)
    improves = medians[str(n_sorted[-1])] <= medians[str(n_sorted[0])]
    if not quiet:
        print(f"[convergence-study] medians={medians} improves={improves}")
    return {"medians": medians, "improves_smallest_to_largest": bool(improves), "eval_quad": eval_quad}


def _cmd_theory_check(cfg: dict, out_dir: str, quiet: bool, seed_override, cfg_hash: str) -> dict:
    problem = _build_problem(cfg["problem"])
    arch = _build_arch(cfg.get("u_arch", {"widths": [problem.dim, 4, 1], "b_theta": 2.0}), problem, "u_arch")
    topt = cfg.get("theory", {})
    _require_keys(topt, "theory", (), ("probes", "rademacher_sets", "seed", "sta_trials", "sta_n", "sta_probes"))
    probes = _as_int(topt.get("probes", 2000), "theory.probes", 1)
    n_sets = _as_int(topt.get("rademacher_sets", 200), "theory.rademacher_sets", 1)
    seed = seed_override if seed_override is not None else _as_int(topt.get("seed", 0), "theory.seed", 0)
    sta_trials = _as_int(topt.get("sta_trials", 5), "theory.sta_trials", 1)
    sta_n = _as_int(topt.get("sta_n", 64), "theory.sta_n", 2)
    sta_probes = _as_int(topt.get("sta_probes", 10), "theory.sta_probes", 1)

    reports = []
    if arch.activation.smooth:
        reports.extend(theory.lipschitz_probe(arch, n_probes=probes, seed=[seed, 10]))
    reports.extend(theory.empirical_class_sups(arch, problem, n_probes=probes, seed=[seed, 11]))

    # worst exact-vs-Massart ratio over random finite sets
    rng = np.random.default_rng([seed, 12])
    worst = None
    violations = 0
    for _ in range(n_sets):
        m = int(rng.integers(1, 16))
        n = int(rng.integers(1, 12))
        vs = theory.FiniteVectorSet(rng.normal(size=(m, n)) * float(rng.uniform(0.5, 3.0)))
        exact = theory.exact_rademacher(vs)
        bound = theory.massart_bound(vs)
        if exact > bound + 1e-12:
            violations += 1
        ratio = exact / bound if bound > 0 else 0.0
        if worst is None or ratio > worst[0]:
            worst = (ratio, exact, bound)
    reports.append(
        theory.BoundReport(
            lemma="rademacher_massart",
            theoretical=worst[2],
            ln_theoretical=math.log(worst[2]) if worst[2] > 0 else -math.inf,
            empirical=worst[1],
            ratio=worst[0],
            details={"sets": n_sets, "violations": violations},
        )
    )

    sta = theory.empirical_sta_error(
        arch, arch, problem, n_samples=sta_n, trials=sta_trials,
        probe_budget=sta_probes, seed=seed,
    )
    reports.append(
        theory.BoundReport(
            lemma="statistical_error",
            theoretical=sta.bound,
            ln_theoretical=sta.ln_bound,
            empirical=sta.mean,
            ratio=sta.ratio,
            details={"n_samples": sta.n_samples, "trials": sta.trials},
        )
    )

    rows = [[r.lemma, cfg_hash, r.theoretical, r.empirical, r.ratio] for r in reports]
    _write_csv(
        os.path.join(out_dir, "theory.csv"),
        ["lemma", "config_hash", "theoretical", "empirical", "ratio"],
        rows,
    )
    _write_json(
        os.path.join(out_dir, "theory.json"),
        [
            {
                "lemma": r.lemma,
                "theoretical": None if math.isinf(r.theoretical) else r.theoretical,
                "ln_theoretical": r.ln_theoretical,
                "empirical": r.empirical,
                "ratio": r.ratio,
                "holds": r.holds,
                "details": {k: list(v) if isinstance(v, tuple) else v for k, v in r.details.items()},
            }
            for r in reports
        ],
    )
    all_hold = all(r.holds for r in reports)
    if not quiet:
        print(f"[theory-check] {len(reports)} bounds, all_hold={all_hold}")
    return {"all_bounds_hold": bool(all_hold), "massart_violations": violations}


def _cmd_approx_probe(cfg: dict, out_dir: str, quiet: bool, seed_override, cfg_hash: str) -> dict:
    problem = _build_problem(cfg["problem"])
    if problem.u_exact is None:
        raise ConfigError("approx-probe needs a manufactured problem (u_exact)")
    arch = _build_arch(cfg.get("u_arch", {"widths": [problem.dim, 20, 1]}), problem, "u_arch")
    tcfg = _build_train_config(cfg.get("train", {}), "train", seed_override)
    result = train_mod.approx_error_probe(problem.u_exact, arch, tcfg)
    _write_csv(
        os.path.join(out_dir, "fit_history.csv"),
        ["step", "h1_distance"],
        [[s, d] for s, d in result.history],
    )
    net.save_checkpoint(result.params, os.path.join(out_dir, "fit.json"))
    if not quiet:
        print(f"[approx-probe] best h1 distance {result.h1_distance:.6g}")
    return {"h1_distance": result.h1_distance, "seeds": {"train": tcfg.seed}}


_RUNNERS = {
    "solve": _cmd_solve,
    "penalty-study": _cmd_penalty_study,
    "convergence-study": _cmd_convergence_study,
    "theory-check": _cmd_theory_check,
    "approx-probe": _cmd_approx_probe,
}

_TOP_KEYS = (
    "command", "output_dir", "problem", "u_arch", "v_arch", "train", "sweep",
    "theory", "write_checkpoints",
)


def run(config_path: str, out_dir: str | None = None, seed_override: int | None = None,
        quiet: bool = False) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"invalid JSON: {err}") from err
        if not isinstance(cfg, dict):
            raise ConfigError("top level: expected an object")
        _require_keys(cfg, "config", ("command", "problem"), _TOP_KEYS[2:] + ("output_dir",))
        command = _as_str(cfg["command"], "config.command", COMMANDS)
        if seed_override is not None:
            _as_int(seed_override, "--seed-override", 0)
        target = out_dir or cfg.get("output_dir")
        if not target:
            raise ConfigError("no output directory: set output_dir in the config or pass --out")

        effective = dict(cfg)
        if seed_override is not None:
            effective["seed_override"] = seed_override
        cfg_hash = _config_hash(effective)

        os.makedirs(target, exist_ok=True)
        started = _utc_now()
        t0 = time.perf_counter()
        extras = _RUNNERS[command](cfg, target, quiet, seed_override, cfg_hash)
        manifest = {
            "command": command,
            "config_hash": cfg_hash,
            "config_path": os.path.abspath(config_path),
            "seed_override": seed_override,
            "version": __version__,
            "started_utc": started,
            "finished_utc": _utc_now(),
            "runtime_seconds": time.perf_counter() - t0,
            "results": extras,
        }
        _write_json(os.path.join(target, "manifest.json"), manifest)
        return 0
    except (ConfigError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (train_mod.TrainingAborted, loss_mod.NonFiniteLossError, oracle.SolveError,
            theory.BoundNotApplicableError, expr_mod.EvalError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="weakgal",
        description="Run a weak-form adversarial solver or verification experiment from a JSON config.",
    )
    parser.add_argument("config", help="path to the experiment config (JSON)")
    parser.add_argument("--out", help="output directory (overrides config output_dir)")
    parser.add_argument("--seed-override", type=int, default=None, help="replace the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    return run(args.config, out_dir=args.out, seed_override=args.seed_override, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
