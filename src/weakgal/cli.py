"""Config-driven experiment runner.

``weakgal CONFIG.json [--out DIR] [--seed-override N] [--quiet]`` executes the
command named in the config (solve, penalty-study, convergence-study,
theory-check, approx-probe) and writes CSV results, JSON checkpoints, and a
run manifest into the output directory.  Configs are validated strictly:
unknown keys anywhere, and sections the command does not read, are errors.
All files are written atomically (a ``.partial`` temp file renamed into
place), and every result CSV except the measured ``seconds`` column of the
solve history is byte-reproducible given the same config and seed.
``WG_THREADS`` caps the worker pool that runs convergence-study's sweep
points.  ``theory-check`` only calls the ``theory`` lab, through its module
attributes, and writes the ``BoundReport``s it returns.  ``run`` calls
``apply_process_policy``, which once per process pins glibc's heap thresholds
so large temporaries stay mapped, one heap for all threads, and OpenBLAS to one
thread so results do not depend on its thread count; each manifest's
``resources`` block reports whether they took, the run's minor page faults,
the process's peak RSS, and the interpreter, numpy, BLAS and cores.

Exit codes: 0 success, 2 config error (a ``ConfigError``), 3 numerical
failure (any ``ArithmeticError``).  A run computes under
``np.errstate(all="ignore")``, so no floating-point warning reaches stderr: a
non-finite value exits 3 through the check that finds it (the traps of
``expr`` and ``oracle``, which nest inside and still raise, and the scans of
the loss, the optimizer and the H1 estimate).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import ctypes
import dataclasses
import functools
import glob
import hashlib
import io
import json
import math
import os
import platform
import sys
import time
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from . import expr as expr_mod
from . import loss as loss_mod
from . import network as net
from . import oracle, theory as theory_mod, train as train_mod
from . import pde

__all__ = ["ConfigError", "apply_process_policy", "run", "main"]


class ConfigError(Exception):
    """Malformed experiment config (exit 2); message names the offending key path."""


# ---------------------------------------------------------------------------
# small helpers


def _worker_count() -> int:
    env = os.environ.get("WG_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as err:
            raise ConfigError(f"WG_THREADS must be an integer, got {env!r}") from err
    # the cores this process may run on, which taskset or a cpuset can narrow
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(4, cores or 1))


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


def _finite_or_null(doc):
    """``doc`` with tuples as lists and every non-finite float as None."""
    if isinstance(doc, dict):
        return {key: _finite_or_null(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite_or_null(value) for value in doc]
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


def _write_json(path: str, doc) -> None:
    """Strict JSON: a non-finite float is written as null."""
    _atomic_write_text(path, json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# heap policy and resource report

# glibc's mallopt parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, set to the
# values its dynamic rule reaches after a large free on 64-bit builds, and
# M_ARENA_MAX, set to one heap for every thread
_HEAP_POLICY = ((-3, 32 << 20), (-1, 64 << 20), (-8, 1))


def _mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to open, or no such symbol
        return None
    fn.argtypes, fn.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return fn


def _blas_setter():
    """The thread-count setter of the OpenBLAS that numpy bundles, or None where none is found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or another OpenBLAS build
            continue
        fn.argtypes, fn.restype = (ctypes.c_int,), None
        return fn
    return None


@functools.cache
def apply_process_policy() -> tuple[bool, int | None]:
    """Pin glibc's heap policy and OpenBLAS's thread count, once per process.

    Returns whether all three heap settings took, and the BLAS thread count set
    (None where no setter is found); later calls return the same and set
    nothing.  ``run`` calls it; a script that calls the library directly
    (``train.minimax_train``, say) should call it first.  Importing weakgal
    does not.

    glibc serves each allocation above its mmap threshold (128 KiB at start)
    with its own mapping and unmaps it on free, and returns a freed heap top
    above its trim threshold to the system, so every evaluation on a large
    point set page-faults its arrays in afresh.  With the thresholds pinned
    at 32 and 64 MiB those arrays reuse heap memory the process keeps.
    A heap then keeps the most it ever held, so threads started after this
    call share the main one: with an arena per thread, a sweep worker that
    started while an earlier thread was still exiting got a new arena, and
    peak RSS rose by about 8 MB at random runs.  Threads allocate while they
    hold the GIL, so they seldom wait on the heap's lock.

    OpenBLAS splits a large product among its threads at row offsets that
    depend on the size, so results would change bits with the thread count.
    On these small products a second thread also buys little wall time for a
    core of CPU time, and the ``convergence-study`` pool gets the cores."""
    mallopt = _mallopt()
    heap_policy = mallopt is not None and all(mallopt(param, value) == 1 for param, value in _HEAP_POLICY)
    setter = _blas_setter()
    if setter is None:
        return heap_policy, None
    setter(1)
    return heap_policy, 1


def _usage():
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF)


def _resources(before, heap_policy: bool, blas_threads: int | None) -> dict:
    """Peak RSS of the process so far, minor page faults since ``before``, and
    the environment: interpreter, numpy, BLAS and its threads, cores, ``WG_THREADS``."""
    after = _usage()
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25, or a build without the entry
        pass
    per_mb = 1 << 20 if sys.platform == "darwin" else 1 << 10  # ru_maxrss is in bytes on macOS, else KiB
    return {
        "peak_rss_mb": None if after is None else after.ru_maxrss / per_mb,
        "minor_faults": None if after is None else after.ru_minflt - before.ru_minflt,
        "heap_policy": heap_policy,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "cpu_count": os.cpu_count(),
        "WG_THREADS": os.environ.get("WG_THREADS"),
    }


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


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
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


def _memory_bytes() -> int | None:
    """Bytes this process may hold at most: physical memory, or less under an
    address-space limit (``ulimit -v``); None where sysconf cannot tell."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None
    if resource is not None:
        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        if limit != resource.RLIM_INFINITY:
            memory = min(memory, limit)
    return memory if memory > 0 else None


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


def _build_problem(cfg, path: str = "problem", memory: int | None = None) -> pde.EllipticProblem:
    """The problem; ``dim`` is a config error when its (dim, dim) matrix of
    expressions would exceed ``memory`` bytes, before that matrix is built."""
    _require_keys(
        cfg, path,
        ("dim", "domain", "c", "alpha", "beta"),
        ("a", "b", "bc_kind", "u_exact", "f", "g"),
    )
    dim = _as_int(cfg["dim"], f"{path}.dim", 1)
    # every problem's `a` has dim^2 entries; one entry's objects and their attributes, as built
    entry = pde.identity_matrix(1)[0][0]
    need = dim * dim * sum(sys.getsizeof(obj) + sys.getsizeof(vars(obj)) for obj in (entry, entry.root))
    if memory is not None and need > memory:
        raise ConfigError(
            f"{path}.dim: a ({dim}, {dim}) matrix of expressions needs {need} bytes,"
            f" more than the {memory} bytes this process may hold"
        )
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
        try:
            return pde.manufactured_problem(u_exact, a, b, c, alpha, beta, domain, bc_kind)
        except expr_mod.ExprError as err:  # a derivative tree nests too deeply
            raise ConfigError(f"{path}.u_exact: deriving f and g: {err}") from err
    if "f" not in cfg:
        raise ConfigError(f"{path}.f: required when u_exact is absent")
    return pde.EllipticProblem(
        domain=domain, a=a, b=b, c=c, f=expr(cfg["f"], f"{path}.f"),
        g=expr(cfg["g"], f"{path}.g") if "g" in cfg else None,
        alpha=alpha, beta=beta, bc_kind=bc_kind,
    )


def _build_arch(cfg, problem: pde.EllipticProblem, path: str,
                b_theta: float) -> tuple[net.NetworkArch, net.RecipeResult | None]:
    """The architecture, and the recipe that sized it if ``cfg`` names one.
    ``b_theta`` is the command's bound, used when ``cfg`` gives none."""
    _require_keys(cfg, path, (), ("widths", "activation", "b_theta", "recipe"))
    name = _as_str(cfg.get("activation", "tanh"), f"{path}.activation")
    try:
        activation = net.activation_by_name(name)
    except ValueError as err:
        raise ConfigError(f"{path}.activation: {err}") from err
    if "recipe" in cfg:
        if "widths" in cfg or "b_theta" in cfg:
            raise ConfigError(f"{path}: give either widths/b_theta or recipe, not both")
        rcfg = cfg["recipe"]
        optional = {"c_user": _as_number, "max_b_theta": _as_number, "max_weights": _as_int}
        _require_keys(rcfg, f"{path}.recipe", ("epsilon", "mu"), tuple(optional))
        recipe = net.arch_recipe(
            epsilon=_as_number(rcfg["epsilon"], f"{path}.recipe.epsilon"),
            d=problem.dim,
            mu=_as_number(rcfg["mu"], f"{path}.recipe.mu"),
            beta=problem.beta,
            activation=activation,
            **{key: read(rcfg[key], f"{path}.recipe.{key}") for key, read in optional.items() if key in rcfg},
        )
        return recipe.arch, recipe
    if "widths" not in cfg:
        raise ConfigError(f"{path}.widths: required without a recipe")
    arch = net.NetworkArch(
        widths=tuple(_as_list(cfg["widths"], f"{path}.widths", _as_int)),
        activation=activation,
        b_theta=_as_number(cfg.get("b_theta", b_theta), f"{path}.b_theta"),
    )
    if arch.widths[0] != problem.dim:
        raise ConfigError(f"{path}.widths[0]: must equal problem dim {problem.dim}")
    return arch, None


def _network_doc(arch: net.NetworkArch, recipe: net.RecipeResult | None) -> dict:
    """What the manifest records of a network a run built."""
    return {
        "widths": arch.widths, "activation": arch.activation.name, "b_theta": arch.b_theta,
        "n_params": arch.n_params(),
        "recipe": None if recipe is None else {
            "weight_budget": recipe.weight_budget, "requested_b_theta": recipe.requested_b_theta,
            "b_theta_capped": recipe.b_theta_capped,
        },
    }


# each TrainConfig field's reader, by its type; annotations are strings under postponed evaluation
_READERS = {"int": _as_int, "float": _as_number, "bool": _as_bool, "str": _as_str}
_TRAIN_TYPES = {f.name: f.type for f in dataclasses.fields(train_mod.TrainConfig)}
_TRAIN_FIELDS = tuple(_TRAIN_TYPES)


def _build_train_config(cfg, seed_override: int | None, command: str) -> train_mod.TrainConfig:
    """A ``TrainConfig`` from the fields that ``command`` reads, each read by
    the reader of its type; a field it does not read is a config error, since
    setting it would change nothing."""
    _require_keys(cfg, "train", (), _TRAIN_FIELDS)
    kwargs = dict(cfg)
    for key, value in cfg.items():
        if key not in _COMMANDS[command].train_fields:
            raise ConfigError(f"train.{key}: {command} does not read it")
        if key == "h1_ball_radius" and value in ("inf", math.inf):  # disables the projection
            kwargs[key] = math.inf
        else:
            _READERS[_TRAIN_TYPES[key]](value, f"train.{key}")
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return train_mod.TrainConfig(**kwargs)


class _Option(NamedTuple):
    """A sweep/theory option: an integer >= ``minimum`` or, with no default, a
    required list of ``min_items`` or more distinct ones (numbers > a float
    minimum).  The arrays a size option sets are bounded by ``_SIZES``."""

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
            if len(set(opts[key])) < len(opts[key]):  # a repeated sweep point adds nothing
                raise ConfigError(f"{path}.{key}: entries must be distinct, got {cfg[key]!r}")
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
    # the sampled coercivity numbers behind the flag
    numbers = dataclasses.asdict(result.coercivity)
    return {
        "coercivity_holds": numbers.pop("holds"),
        **numbers,
        "final_loss": result.history[-1].loss_total if result.history else None,
        "final_h1_error": result.history[-1].h1_error if result.history else None,
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


# the TrainConfig fields that each sweep point sets, so a config may not
_SWEPT_FIELDS = ("n_interior", "m_boundary", "seed")


def _cmd_convergence_study(out_dir, quiet, cfg_hash, problem, u_arch, v_arch, train, sweep) -> dict:
    n_values, eval_quad = sweep["n_values"], sweep["eval_quad"]
    jobs = [(n, s) for n in n_values for s in sweep["seeds"]]
    # one evaluation set and one u_exact evaluation, read by every job
    points = pde.sample_interior(problem.domain, eval_quad, [12345, 0])
    exact = loss_mod.H1Reference(problem.u_exact, points, problem.domain.volume)

    def run_point(job):
        n, s = job
        tcfg = dataclasses.replace(train, n_interior=n, m_boundary=n, seed=s)
        with np.errstate(all="ignore"):  # a pool thread does not inherit run's
            result = train_mod.minimax_train(problem, u_arch, v_arch, tcfg, u_ref=None)
            return exact.distance(result.u).h1

    # the largest trainings start first, so the pool does not end on one of
    # them; errors, and the first failure, are read back in job order
    with concurrent.futures.ThreadPoolExecutor(max_workers=min(_worker_count(), len(jobs))) as pool:
        futures = {job: pool.submit(run_point, job) for job in sorted(jobs, key=lambda job: -job[0])}
        errors = [futures[job].result() for job in jobs]

    rows = [[n, s, e] for (n, s), e in zip(jobs, errors)]
    _write_csv(os.path.join(out_dir, "convergence.csv"), ["n_samples", "seed", "h1_error"], rows)

    medians = {}
    for n in n_values:
        vals = [e for (nn, _), e in zip(jobs, errors) if nn == n]
        medians[str(n)] = float(np.median(vals))
    n_sorted = sorted(n_values)
    improves = medians[str(n_sorted[-1])] <= medians[str(n_sorted[0])]
    # the least-squares slope of log median error on log n, against the paper's O(n^(-1/d))
    fitted_slope = paper_rate = None
    if len(n_sorted) >= 2 and all(0.0 < m < math.inf for m in medians.values()):
        log_e = [math.log(medians[str(n)]) for n in n_sorted]
        fitted_slope = float(np.polyfit(np.log(n_sorted), log_e, 1)[0])
        paper_rate = -1.0 / problem.dim
    if not quiet:
        print(f"[convergence-study] medians={medians} improves={improves} fitted_slope={fitted_slope}")
    return {
        "medians": medians, "improves_smallest_to_largest": bool(improves), "eval_quad": eval_quad,
        "fitted_slope": fitted_slope, "paper_rate": paper_rate,
    }


def _cmd_theory_check(out_dir, quiet, cfg_hash, problem, u_arch, theory) -> dict:
    probes, seed = theory["probes"], theory["seed"]
    # the Lipschitz, class-sup and statistical-error lemmas assume |rho|, |rho'| <= 1
    smooth = u_arch.activation.smooth
    reports = []
    if smooth:
        reports.extend(theory_mod.lipschitz_probe(u_arch, probes, [seed, 10]))
        reports.extend(theory_mod.empirical_class_sups(u_arch, problem, probes, [seed, 11]))
    massart = theory_mod.massart_sweep(theory["rademacher_sets"], [seed, 12])
    reports.append(massart)
    if smooth:
        reports.append(theory_mod.empirical_sta_error(
            u_arch, problem, theory["sta_n"], theory["sta_trials"], theory["sta_probes"], seed
        ))

    rows = [[r.lemma, cfg_hash, r.theoretical, r.empirical, r.ratio] for r in reports]
    _write_csv(os.path.join(out_dir, "theory.csv"), ["lemma", "config_hash", "theoretical", "empirical", "ratio"], rows)
    _write_json(os.path.join(out_dir, "theory.json"), [dict(dataclasses.asdict(r), holds=r.holds) for r in reports])
    all_hold = all(r.holds for r in reports)
    if not quiet:
        print(f"[theory-check] {len(reports)} bounds, all_hold={all_hold}")
    return {"all_bounds_hold": bool(all_hold), "massart_violations": massart.details["violations"]}


def _cmd_approx_probe(out_dir, quiet, cfg_hash, problem, u_arch, train) -> dict:
    result = train_mod.approx_error_probe(problem.u_exact, u_arch, train, problem.domain)
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
    hidden widths of an absent ``u_arch``/``v_arch`` and the ``b_theta`` of
    one without that key; ``train_fields`` are the keys its ``train`` section
    may set; ``options`` are the keys of its ``sweep`` or ``theory``
    section.  ``a_points`` is the number of points at which the run evaluates
    the (dim, dim) diffusion matrix whatever its sizes (a training's
    ``pde.COERCIVITY_PROBES``, the bound lab's ``theory.SUP_NORM_POINTS``), 0
    if it never evaluates that matrix."""

    run: Callable[..., dict]
    sections: tuple[str, ...]
    arch: tuple[tuple[int, ...], float] = ((16, 16), 10.0)
    needs_u_exact: bool = False
    needs_1d: bool = False
    train_fields: tuple[str, ...] = ()
    options: dict[str, _Option] = dataclasses.field(default_factory=dict)
    a_points: int = 0

    @property
    def reads_seed(self) -> bool:
        """Whether the command has one seed for ``--seed-override`` to replace."""
        return "seed" in self.train_fields or "seed" in self.options


_COMMANDS = {
    "solve": _Command(
        _cmd_solve, ("u_arch", "v_arch", "train", "write_checkpoints"), train_fields=_TRAIN_FIELDS,
        a_points=pde.COERCIVITY_PROBES,
    ),
    "penalty-study": _Command(
        _cmd_penalty_study, ("sweep",), needs_1d=True,
        options={"betas": _Option(None, 0.0, min_items=2), "grid_n": _Option(oracle.PENALTY_GRID_N, 8)},
    ),
    "convergence-study": _Command(
        _cmd_convergence_study, ("u_arch", "v_arch", "train", "sweep"), needs_u_exact=True,
        train_fields=tuple(f for f in _TRAIN_FIELDS if f not in _SWEPT_FIELDS),
        options={"n_values": _Option(None, 1), "seeds": _Option(None, 0), "eval_quad": _Option(65536, 2)},
        a_points=pde.COERCIVITY_PROBES,
    ),
    "theory-check": _Command(
        _cmd_theory_check, ("u_arch", "theory"), arch=((4,), 2.0),
        options={
            "probes": _Option(2000, 1), "rademacher_sets": _Option(200, 1), "seed": _Option(0, 0),
            "sta_trials": _Option(5, 1), "sta_n": _Option(64, 2), "sta_probes": _Option(10, 1),
        },
        a_points=theory_mod.SUP_NORM_POINTS,
    ),
    "approx-probe": _Command(
        _cmd_approx_probe, ("u_arch", "train"), arch=((20,), 10.0), needs_u_exact=True,
        train_fields=train_mod.APPROX_PROBE_FIELDS,
    ),
}


def _batch(n: int, d: int, w: int, a: int) -> list:
    """A training batch of n interior points: its kept tape, and the diffusion
    matrix at its points where the command evaluates it."""
    return [((n, w), d)] + [((n, d, d), 0)] * bool(a)


# each size key, to the float64 arrays a run allocates for a value n of it, as
# (shape, tangents), with tangents more of that shape beside it (a kept tape's
# outputs of the widest layer w of u_arch and v_arch); d is the problem's dim
# and a the command's a_points.  A list key bounds each entry.
_SIZES: dict[str, Callable[[int, int, int, int], list]] = {
    "problem.dim": lambda n, d, w, a: [((a, d, d), 0)],
    "train.n_interior": _batch,
    # a value-only tape, unless a 1D boundary's two points join the interior's
    "train.m_boundary": lambda n, d, w, a: [((n, max(w, d) if d > 1 else d), 0)],
    "train.h1_quad_points": lambda n, d, w, a: [((n, d), 0)],
    "sweep.n_values": _batch,  # each sets n_interior and m_boundary
    "sweep.eval_quad": lambda n, d, w, a: [((n, d), 0)],
    "sweep.grid_n": lambda n, d, w, a: [((n, d), 0)],
    "theory.probes": lambda n, d, w, a: [((max(a, n), d, d), 0)],
    # the reference batch, taped as a training batch
    "theory.sta_n": lambda n, d, w, a: _batch(theory_mod.BIG_FACTOR * n, d, w, a),
}


def _check_sizes(built: dict, spec: _Command, memory: int | None) -> None:
    """Reject a config when the weight-sized vectors a training holds for its
    networks together (``train.weight_bytes``), or any one array ``_SIZES``
    gives for a size key the command reads, would exceed ``memory`` bytes."""
    if memory is None:
        return
    over = f" more than the {memory} bytes this process may hold"
    keys = [key for key in ("u_arch", "v_arch") if key in built]
    archs = [built[key] for key in keys]
    for i, key in enumerate(keys):
        need = sum(train_mod.weight_bytes(arch) for arch in archs[: i + 1])
        if need > memory:
            weights = " + ".join(str(arch.n_params()) for arch in archs[: i + 1])
            raise ConfigError(f"{key}.widths: training networks of {weights} weights holds weight-sized vectors"
                              f" of {need} bytes,{over}")
    d, w = built["problem"].dim, max((arch.max_width for arch in archs), default=1)
    read = {"problem.dim": d, **{f"train.{key}": getattr(built["train"], key) for key in spec.train_fields}}
    read.update((f"{sec}.{key}", v) for sec in ("sweep", "theory") for key, v in built.get(sec, {}).items())
    for path, arrays in _SIZES.items():
        value = read.get(path, [])
        for suffix, n in [(f"[{i}]", n) for i, n in enumerate(value)] if isinstance(value, list) else [("", value)]:
            for shape, tangents in arrays(n, d, w, spec.a_points):
                need = 8 * math.prod(shape) * (1 + tangents)
                if need > memory:
                    more = f", with {tangents} more of its shape for tangents," if tangents else ""
                    raise ConfigError(f"{path}{suffix}: a {shape} float64 array{more} needs {need} bytes,{over}")


def _build_sections(cfg: dict, command: str, seed_override: int | None) -> tuple[dict, dict]:
    """The problem and each section ``command`` reads, built once, then
    checked against the memory this process may hold (``_check_sizes``), and
    the manifest's record of each network built (``_network_doc``).

    The constructors check their own ranges and shapes; their ValueError (or
    OverflowError) becomes a ConfigError naming the section, but an EvalError
    deriving a manufactured problem stays a numerical failure.  Only
    ``problem.dim`` is bounded before its section is built, since building
    the problem allocates dim^2 expressions."""
    spec, memory, built, networks = _COMMANDS[command], _memory_bytes(), {}, {}
    for section in ("problem",) + spec.sections:
        try:
            if section == "problem":
                built[section] = problem = _build_problem(cfg[section], memory=memory)
            elif section in ("u_arch", "v_arch"):
                hidden, b_theta = spec.arch
                default = {"widths": [problem.dim, *hidden, 1]}
                built[section], recipe = _build_arch(cfg.get(section, default), problem, section, b_theta)
                networks[section] = _network_doc(built[section], recipe)
            elif section == "train":
                built[section] = _build_train_config(cfg.get(section, {}), seed_override, command)
            elif section == "write_checkpoints":
                built[section] = _as_bool(cfg.get(section, False), f"config.{section}")
            else:
                built[section] = _build_options(cfg.get(section, {}), section, spec.options, seed_override)
        except (ValueError, OverflowError) as err:
            raise ConfigError(f"{section}: {err}") from err
    if spec.needs_u_exact and problem.u_exact is None:
        raise ConfigError(f"problem.u_exact: {command} needs a manufactured problem")
    if spec.needs_1d and problem.dim != 1:
        raise ConfigError(f"problem.dim: {command} is a 1d experiment, got dim {problem.dim}")
    if spec.needs_1d and problem.domain.kind != "hypercube":
        raise ConfigError(f"problem.domain: {command} solves on the unit interval, got a {problem.domain.kind}")
    _check_sizes(built, spec, memory)
    return built, networks


def run(config_path: str, out_dir: str | None = None, seed_override: int | None = None,
        quiet: bool = False) -> int:
    """Execute one experiment config; returns the process exit code."""
    heap_policy, blas_threads = apply_process_policy()
    usage = _usage()
    try:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as err:  # missing, a directory, unreadable
            raise ConfigError(f"cannot read {config_path!r}: {err.strerror or err}") from err
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
            if not _COMMANDS[command].reads_seed:
                raise ConfigError(f"--seed-override: {command} has no single seed to replace")
        target = out_dir or _as_str(cfg.get("output_dir", ""), "config.output_dir")
        if not target:
            raise ConfigError("no output directory: set output_dir in the config or pass --out")

        effective = dict(cfg)
        if seed_override is not None:
            effective["seed_override"] = seed_override
        cfg_hash = _config_hash(effective)

        try:
            os.makedirs(target, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory {target!r}: {err.strerror or err}") from err
        started = _utc_now()
        t0 = time.perf_counter()
        with np.errstate(all="ignore"):
            sections, networks = _build_sections(cfg, command, seed_override)
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
            "resources": _resources(usage, heap_policy, blas_threads),
            "networks": networks,
            "results": extras,
        }
        _write_json(os.path.join(target, "manifest.json"), manifest)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:
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
