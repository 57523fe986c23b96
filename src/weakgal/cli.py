"""Config-driven experiment runner.

``weakgal CONFIG.json [--out DIR] [--seed-override N] [--quiet]`` executes the
command named in the config (solve, penalty-study, convergence-study,
theory-check, approx-probe) and writes CSV results, JSON checkpoints, and a
run manifest into the output directory.  Configs are validated strictly:
unknown keys anywhere, and sections the command does not read, are errors.
All files are written atomically (a ``.partial`` temp file renamed into
place), and every result CSV except the measured ``seconds`` column of the
solve history is byte-reproducible given the same config and seed.
``WG_THREADS`` caps the worker pool used for sweep points.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import expr as expr_mod
from . import loss as loss_mod
from . import network as net
from . import oracle, theory as theory_mod, train as train_mod
from . import pde

__all__ = ["ConfigError", "run", "main"]


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending key path."""


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


def _as_number(value, path: str, above=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond the float range
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    x = float(value)
    if above is not None and not x > above:
        raise ConfigError(f"{path}: must be > {above}, got {x}")
    return x


def _as_int(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _as_list(value, path: str, item, min_items: int = 0) -> list:
    """``item(entry, path[i])`` for each entry of a list of at least ``min_items``."""
    if not isinstance(value, list) or len(value) < min_items:
        need = f" of {min_items} or more entries" if min_items else ""
        raise ConfigError(f"{path}: expected a list{need}, got {value!r}")
    return [item(entry, f"{path}[{i}]") for i, entry in enumerate(value)]


def _parse_expr(text, path: str, dim: int) -> expr_mod.ExprAst:
    try:
        return expr_mod.parse(_as_str(text, path), dim)
    except expr_mod.ExprError as err:
        raise ConfigError(f"{path}: {err}") from err


def _build_domain(cfg, dim: int, path: str) -> pde.Domain:
    _require_keys(cfg, path, ("kind",), ("center", "radius"))
    return pde.Domain(
        kind=_as_str(cfg["kind"], f"{path}.kind"),
        dim=dim,
        center=tuple(_as_list(cfg["center"], f"{path}.center", _as_number)) if "center" in cfg else None,
        radius=_as_number(cfg["radius"], f"{path}.radius") if "radius" in cfg else None,
    )


def _build_problem(cfg, path: str = "problem") -> pde.EllipticProblem:
    _require_keys(
        cfg, path,
        ("dim", "domain", "c", "alpha", "beta"),
        ("a", "b", "bc_kind", "u_exact", "f", "g"),
    )
    dim = _as_int(cfg["dim"], f"{path}.dim")
    domain = _build_domain(cfg["domain"], dim, f"{path}.domain")
    bc_kind = _as_str(cfg.get("bc_kind", "robin"), f"{path}.bc_kind")
    alpha = _as_number(cfg["alpha"], f"{path}.alpha")
    beta = _as_number(cfg["beta"], f"{path}.beta")

    expr = functools.partial(_parse_expr, dim=dim)
    a_cfg = cfg.get("a", "identity")
    if a_cfg == "identity":
        a = pde.identity_matrix(dim)
    else:
        a = tuple(_as_list(a_cfg, f"{path}.a", lambda row, row_path: tuple(_as_list(row, row_path, expr))))
    b_cfg = cfg.get("b", "zero")
    if b_cfg == "zero":
        b = pde.constant_vector(dim, 0.0)
    else:
        b = tuple(_as_list(b_cfg, f"{path}.b", expr))
    c = expr(cfg["c"], f"{path}.c")

    if "u_exact" in cfg:
        if "f" in cfg or "g" in cfg:
            raise ConfigError(f"{path}: give either u_exact (manufactured) or f/g, not both")
        u_exact = expr(cfg["u_exact"], f"{path}.u_exact")
        return pde.manufactured_problem(u_exact, a, b, c, alpha, beta, domain, bc_kind)
    if "f" not in cfg:
        raise ConfigError(f"{path}.f: required when u_exact is absent")
    f = expr(cfg["f"], f"{path}.f")
    if "g" in cfg:
        g: pde.BoundaryFunction = pde.ExprBoundary(expr(cfg["g"], f"{path}.g"))
    else:
        g = pde.ZERO_BOUNDARY
    if bc_kind == "dirichlet":
        alpha, g = 1.0, pde.ZERO_BOUNDARY
    return pde.EllipticProblem(
        domain=domain, a=a, b=b, c=c, f=f, g=g,
        alpha=alpha, beta=beta, bc_kind=bc_kind,
    )


def _build_arch(cfg, problem: pde.EllipticProblem, path: str) -> net.NetworkArch:
    _require_keys(cfg, path, (), ("widths", "activation", "b_theta", "recipe"))
    activation = net.activation_by_name(_as_str(cfg.get("activation", "tanh"), f"{path}.activation"))
    if "recipe" in cfg:
        if "widths" in cfg or "b_theta" in cfg:
            raise ConfigError(f"{path}: give either widths/b_theta or recipe, not both")
        rcfg = cfg["recipe"]
        _require_keys(rcfg, f"{path}.recipe", ("epsilon", "mu"), ("c_user", "max_b_theta", "max_weights"))
        return net.arch_recipe(
            epsilon=_as_number(rcfg["epsilon"], f"{path}.recipe.epsilon"),
            d=problem.dim,
            mu=_as_number(rcfg["mu"], f"{path}.recipe.mu"),
            beta=problem.beta,
            c_user=_as_number(rcfg.get("c_user", 1.0), f"{path}.recipe.c_user"),
            activation=activation,
            max_b_theta=_as_number(rcfg.get("max_b_theta", 1e12), f"{path}.recipe.max_b_theta"),
            max_weights=_as_int(rcfg.get("max_weights", 10_000_000), f"{path}.recipe.max_weights"),
        ).arch
    if "widths" not in cfg:
        raise ConfigError(f"{path}.widths: required without a recipe")
    arch = net.NetworkArch(
        widths=tuple(_as_list(cfg["widths"], f"{path}.widths", _as_int)),
        activation=activation,
        b_theta=_as_number(cfg.get("b_theta", 10.0), f"{path}.b_theta"),
    )
    if arch.widths[0] != problem.dim:
        raise ConfigError(f"{path}.widths[0]: must equal problem dim {problem.dim}")
    return arch


def _build_train_config(cfg, seed_override: int | None) -> train_mod.TrainConfig:
    _require_keys(cfg, "train", (), tuple(f.name for f in dataclasses.fields(train_mod.TrainConfig)))
    kwargs = dict(cfg)
    if "h1_ball_radius" in kwargs and kwargs["h1_ball_radius"] == "inf":
        kwargs["h1_ball_radius"] = math.inf
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return train_mod.TrainConfig(**kwargs)


class _Option(NamedTuple):
    """A sweep/theory option: an integer >= ``minimum`` or, with no default, a
    required list of ``min_items`` or more of them (numbers > a float minimum)."""

    default: int | None
    minimum: int | float
    min_items: int = 1


def _build_options(cfg, path: str, specs: dict[str, _Option], seed_override: int | None) -> dict:
    _require_keys(cfg, path, tuple(k for k, o in specs.items() if o.default is None), tuple(specs))
    if "seed" in specs and seed_override is not None:
        cfg = dict(cfg, seed=seed_override)
    opts = {}
    for key, (default, minimum, min_items) in specs.items():
        def parse(value, key_path, minimum=minimum):
            return (_as_number if isinstance(minimum, float) else _as_int)(value, key_path, minimum)

        if default is None:
            opts[key] = _as_list(cfg[key], f"{path}.{key}", parse, min_items)
        else:
            opts[key] = parse(cfg.get(key, default), f"{path}.{key}")
    return opts


def _cmd_solve(out_dir, quiet, cfg_hash, problem, u_arch, v_arch, train, write_checkpoints) -> dict:
    def on_eval(step: int, u: net.NetworkParams, v: net.NetworkParams, row) -> None:
        if write_checkpoints:
            net.save_checkpoint(u, os.path.join(out_dir, f"u_{step:06d}.json"))
            net.save_checkpoint(v, os.path.join(out_dir, f"v_{step:06d}.json"))
        if not quiet:
            err = "" if math.isnan(row.h1_error) else f" h1_error={row.h1_error:.4g}"
            print(f"[solve] step {step}/{train.outer_steps} loss={row.loss_total:.6g}{err}")

    result = train_mod.minimax_train(
        problem, u_arch, v_arch, train, u_ref=problem.u_exact, on_eval=on_eval
    )
    header = [f.name for f in dataclasses.fields(train_mod.HistoryRow)]
    rows = [[getattr(r, name) for name in header] for r in result.history]
    _write_csv(os.path.join(out_dir, "history.csv"), header, rows)
    net.save_checkpoint(result.u, os.path.join(out_dir, "u.json"))
    net.save_checkpoint(result.v, os.path.join(out_dir, "v.json"))
    return {
        "coercivity_holds": result.coercivity_holds,
        "final_loss": result.history[-1].loss_total if result.history else None,
        "final_h1_error": (
            None if not result.history or math.isnan(result.history[-1].h1_error)
            else result.history[-1].h1_error
        ),
        "seeds": {"train": train.seed},
        "projection": dataclasses.asdict(result.projection),
    }


def _cmd_penalty_study(out_dir, quiet, cfg_hash, problem, sweep) -> dict:
    grid_n = sweep["grid_n"]
    study = oracle.penalty_rate_study(problem, sweep["betas"], n=grid_n)
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


def _cmd_convergence_study(out_dir, quiet, cfg_hash, problem, u_arch, v_arch, train, sweep) -> dict:
    n_values, eval_quad = sweep["n_values"], sweep["eval_quad"]
    jobs = [(n, s) for n in n_values for s in sweep["seeds"]]
    # one evaluation set and one u_exact evaluation, read by every job
    points = pde.sample_interior(problem.domain, eval_quad, [12345, 0])
    exact = loss_mod.H1Reference(problem.u_exact, points, problem.domain.volume)

    def run_point(job):
        n, s = job
        tcfg = dataclasses.replace(train, n_interior=n, m_boundary=n, seed=s)
        result = train_mod.minimax_train(problem, u_arch, v_arch, tcfg, u_ref=None)
        return exact.distance(result.u).h1

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


def _cmd_theory_check(out_dir, quiet, cfg_hash, problem, u_arch, theory) -> dict:
    probes, n_sets, seed = theory["probes"], theory["rademacher_sets"], theory["seed"]

    reports = []
    if u_arch.activation.smooth:
        reports.extend(theory_mod.lipschitz_probe(u_arch, n_probes=probes, seed=[seed, 10]))
    reports.extend(theory_mod.empirical_class_sups(u_arch, problem, n_probes=probes, seed=[seed, 11]))

    # worst exact-vs-Massart ratio over random finite sets
    rng = np.random.default_rng([seed, 12])
    worst = None
    violations = 0
    for _ in range(n_sets):
        m = int(rng.integers(1, 16))
        n = int(rng.integers(1, 12))
        vs = theory_mod.FiniteVectorSet(rng.normal(size=(m, n)) * float(rng.uniform(0.5, 3.0)))
        exact = theory_mod.exact_rademacher(vs)
        bound = theory_mod.massart_bound(vs)
        if exact > bound + 1e-12:
            violations += 1
        ratio = exact / bound if bound > 0 else 0.0
        if worst is None or ratio > worst[0]:
            worst = (ratio, exact, bound)
    reports.append(
        theory_mod.BoundReport(
            lemma="rademacher_massart",
            theoretical=worst[2],
            ln_theoretical=math.log(worst[2]) if worst[2] > 0 else -math.inf,
            empirical=worst[1],
            ratio=worst[0],
            details={"sets": n_sets, "violations": violations},
        )
    )

    sta = theory_mod.empirical_sta_error(
        u_arch, u_arch, problem, n_samples=theory["sta_n"], trials=theory["sta_trials"],
        probe_budget=theory["sta_probes"], seed=seed,
    )
    reports.append(
        theory_mod.BoundReport(
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


def _cmd_approx_probe(out_dir, quiet, cfg_hash, problem, u_arch, train) -> dict:
    result = train_mod.approx_error_probe(problem.u_exact, u_arch, train)
    _write_csv(
        os.path.join(out_dir, "fit_history.csv"),
        ["step", "h1_distance"],
        [[s, d] for s, d in result.history],
    )
    net.save_checkpoint(result.params, os.path.join(out_dir, "fit.json"))
    if not quiet:
        print(f"[approx-probe] best h1 distance {result.h1_distance:.6g}")
    return {"h1_distance": result.h1_distance, "seeds": {"train": train.seed}}


@dataclasses.dataclass(frozen=True)
class _Command:
    """What one command reads from its config, and its runner, which is called
    as ``run(out_dir, quiet, cfg_hash, problem, **sections)``.

    ``sections`` are the top-level keys it reads besides ``command``, ``problem``
    and ``output_dir``; any other key is a config error.  ``arch`` gives the
    hidden widths and ``b_theta`` of an absent ``u_arch``/``v_arch``;
    ``options`` are the keys of its ``sweep`` or ``theory`` section."""

    run: Callable[..., dict]
    sections: tuple[str, ...]
    arch: tuple[tuple[int, ...], float] = ((16, 16), 10.0)
    needs_u_exact: bool = False
    needs_1d: bool = False
    options: dict[str, _Option] = dataclasses.field(default_factory=dict)


_COMMANDS = {
    "solve": _Command(_cmd_solve, ("u_arch", "v_arch", "train", "write_checkpoints")),
    "penalty-study": _Command(
        _cmd_penalty_study, ("sweep",), needs_1d=True,
        options={"betas": _Option(None, 0.0, min_items=2), "grid_n": _Option(2048, 8)},
    ),
    "convergence-study": _Command(
        _cmd_convergence_study, ("u_arch", "v_arch", "train", "sweep"), needs_u_exact=True,
        options={"n_values": _Option(None, 1), "seeds": _Option(None, 0), "eval_quad": _Option(65536, 2)},
    ),
    "theory-check": _Command(
        _cmd_theory_check, ("u_arch", "theory"), arch=((4,), 2.0),
        options={
            "probes": _Option(2000, 1), "rademacher_sets": _Option(200, 1), "seed": _Option(0, 0),
            "sta_trials": _Option(5, 1), "sta_n": _Option(64, 2), "sta_probes": _Option(10, 1),
        },
    ),
    "approx-probe": _Command(_cmd_approx_probe, ("u_arch", "train"), arch=((20,), 10.0), needs_u_exact=True),
}


def _build_sections(cfg: dict, command: str, seed_override: int | None) -> dict:
    """The problem and each section ``command`` reads, built once.

    The constructors check their own ranges and shapes; their ValueError (or
    OverflowError) becomes a ConfigError naming the section, but an EvalError
    deriving a manufactured problem stays a numerical failure."""
    spec = _COMMANDS[command]
    built = {}
    for section in ("problem",) + spec.sections:
        try:
            if section == "problem":
                built[section] = problem = _build_problem(cfg[section])
            elif section in ("u_arch", "v_arch"):
                hidden, b_theta = spec.arch
                default = {"widths": [problem.dim, *hidden, 1], "b_theta": b_theta}
                built[section] = _build_arch(cfg.get(section, default), problem, section)
            elif section == "train":
                built[section] = _build_train_config(cfg.get(section, {}), seed_override)
            elif section == "write_checkpoints":
                built[section] = cfg.get(section, False)
                if not isinstance(built[section], bool):
                    raise ConfigError(f"config.{section}: expected true or false, got {built[section]!r}")
            else:
                built[section] = _build_options(cfg.get(section, {}), section, spec.options, seed_override)
        except (ConfigError, expr_mod.EvalError):
            raise
        except (ValueError, OverflowError) as err:
            raise ConfigError(f"{section}: {err}") from err
    if spec.needs_u_exact and problem.u_exact is None:
        raise ConfigError(f"problem.u_exact: {command} needs a manufactured problem")
    if spec.needs_1d and problem.dim != 1:
        raise ConfigError(f"problem.dim: {command} is a 1d experiment, got dim {problem.dim}")
    return built


def run(config_path: str, out_dir: str | None = None, seed_override: int | None = None,
        quiet: bool = False) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except ValueError as err:  # also an integer literal too long to convert
                raise ConfigError(f"invalid JSON: {err}") from err
        if not isinstance(cfg, dict):
            raise ConfigError("top level: expected an object")
        command = _as_str(cfg.get("command"), "config.command")
        if command not in _COMMANDS:
            raise ConfigError(f"config.command: must be one of {tuple(_COMMANDS)}, got {command!r}")
        _require_keys(cfg, "config", ("command", "problem"), ("output_dir",) + _COMMANDS[command].sections)
        if seed_override is not None:
            _as_int(seed_override, "--seed-override", 0)
        target = out_dir or _as_str(cfg.get("output_dir", ""), "config.output_dir")
        if not target:
            raise ConfigError("no output directory: set output_dir in the config or pass --out")

        effective = dict(cfg)
        if seed_override is not None:
            effective["seed_override"] = seed_override
        cfg_hash = _config_hash(effective)

        try:
            os.makedirs(target, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as err:
            raise ConfigError(f"output directory {target!r} is not a directory: {err.strerror}") from err
        started = _utc_now()
        t0 = time.perf_counter()
        sections = _build_sections(cfg, command, seed_override)
        extras = _COMMANDS[command].run(target, quiet, cfg_hash, **sections)
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
            theory_mod.BoundNotApplicableError, expr_mod.EvalError) as err:
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
