"""End-to-end tests for the config-driven experiment runner."""

import ast
import copy
import dataclasses
import inspect
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weakgal
from weakgal import cli, expr, network as net, oracle, pde, theory, train as train_mod


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def solve_config(**overrides):
    doc = {
        "command": "solve",
        "problem": {
            "dim": 1,
            "domain": {"kind": "hypercube"},
            "c": "1",
            "alpha": 1.0,
            "beta": 1.0,
            "u_exact": "sin(pi*x1)",
        },
        "u_arch": {"widths": [1, 8, 1]},
        "v_arch": {"widths": [1, 8, 1]},
        "train": {
            "n_interior": 32,
            "m_boundary": 32,
            "outer_steps": 20,
            "eval_every": 10,
            "seed": 5,
        },
    }
    doc.update(overrides)
    return doc


_PROBLEM = solve_config()["problem"]
_TINY_STEPS = {"outer_steps": 2, "eval_every": 1, "h1_quad_points": 8}
_TINY_TRAIN = {"n_interior": 4, "m_boundary": 4, **_TINY_STEPS}

# the smallest valid config of each command, carrying every section it reads
TINY = {
    "solve": {
        "command": "solve", "problem": _PROBLEM, "u_arch": {"widths": [1, 3, 1]},
        "v_arch": {"widths": [1, 3, 1]}, "train": _TINY_TRAIN, "write_checkpoints": False,
    },
    "penalty-study": {
        "command": "penalty-study", "problem": _PROBLEM, "sweep": {"betas": [0.1, 0.01], "grid_n": 8},
    },
    "convergence-study": {
        "command": "convergence-study", "problem": _PROBLEM, "u_arch": {"widths": [1, 3, 1]},
        "v_arch": {"widths": [1, 3, 1]}, "train": _TINY_STEPS,
        "sweep": {"n_values": [4], "seeds": [0], "eval_quad": 8},
    },
    "theory-check": {
        "command": "theory-check", "problem": _PROBLEM, "u_arch": {"widths": [1, 3, 1], "b_theta": 2.0},
        "theory": {"probes": 2, "rademacher_sets": 1, "sta_trials": 1, "sta_n": 4, "sta_probes": 1},
    },
    "approx-probe": {
        "command": "approx-probe", "problem": _PROBLEM, "u_arch": {"widths": [1, 3, 1]},
        "train": {"n_interior": 4, **_TINY_STEPS},
    },
}


def _bytes_per_weight():
    """What a training holds per weight of a network, by ``train.weight_bytes``."""
    arch = net.NetworkArch((1, 1), net.activation_by_name("tanh"), 1.0)
    return train_mod.weight_bytes(arch) // arch.n_params()


def _run_under_address_limit(tmp_path, doc, limit):
    """``python -m weakgal`` on ``doc`` in a child process whose address
    space (``ulimit -v``) is ``limit`` bytes."""
    import resource

    return subprocess.run(
        [sys.executable, "-m", "weakgal", write_config(tmp_path, doc), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), capture_output=True, text=True,
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def _in_dim(doc, dim, hidden=1):
    """``doc`` in ``dim`` dimensions, every network ``(dim, hidden, 1)``."""
    doc = dict(copy.deepcopy(doc), problem=dict(_PROBLEM, dim=dim))
    for arch in ("u_arch", "v_arch"):
        if arch in doc:
            doc[arch] = {"widths": [dim, hidden, 1]}
    return doc


SECTIONS = ("u_arch", "v_arch", "train", "sweep", "theory", "write_checkpoints")
# a valid value of each section, taken from a command that reads it
SECTION_VALUES = {
    "u_arch": TINY["solve"]["u_arch"], "v_arch": TINY["solve"]["v_arch"], "train": _TINY_TRAIN,
    "sweep": TINY["convergence-study"]["sweep"], "theory": TINY["theory-check"]["theory"],
    "write_checkpoints": False,
}
NOT_READ = [(cmd, sec) for cmd, doc in TINY.items() for sec in SECTIONS if sec not in doc]


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConfigValidation:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.run(str(tmp_path / "nope.json")) == 2
        assert "config error" in capsys.readouterr().err

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        assert cli.run(str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.run(str(path)) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(bogus=1))
        assert cli.run(cfg, out_dir=str(tmp_path / "out")) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_nested_key_names_path(self, tmp_path, capsys):
        doc = solve_config()
        doc["problem"]["mystery"] = 3
        cfg = write_config(tmp_path, doc)
        assert cli.run(cfg, out_dir=str(tmp_path / "out")) == 2
        assert "problem.mystery" in capsys.readouterr().err

    def test_unknown_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(command="explode"))
        assert cli.run(cfg, out_dir=str(tmp_path / "out")) == 2
        assert "command" in capsys.readouterr().err

    def test_missing_output_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config())
        assert cli.run(cfg) == 2
        assert "output" in capsys.readouterr().err

    def test_u_exact_and_f_conflict(self, tmp_path, capsys):
        doc = solve_config()
        doc["problem"]["f"] = "1"
        cfg = write_config(tmp_path, doc)
        assert cli.run(cfg, out_dir=str(tmp_path / "out")) == 2
        assert "u_exact" in capsys.readouterr().err

    def test_arch_input_width_must_match_dim(self, tmp_path, capsys):
        doc = solve_config()
        doc["u_arch"] = {"widths": [2, 8, 1]}
        cfg = write_config(tmp_path, doc)
        assert cli.run(cfg, out_dir=str(tmp_path / "out")) == 2
        assert "widths[0]" in capsys.readouterr().err

    def test_bad_train_field(self, tmp_path, capsys):
        doc = solve_config()
        doc["train"]["outer_steps"] = -3
        cfg = write_config(tmp_path, doc)
        assert cli.run(cfg, out_dir=str(tmp_path / "out")) == 2
        assert "train" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, want", [
        ("outer_steps", 1.5, "expected an integer, got 1.5"),
        ("n_interior", 8.0, "expected an integer, got 8.0"),
        ("eval_every", "10", "expected an integer, got '10'"),
        ("seed", True, "expected an integer, got True"),
        ("boundary_alpha_half", "false", "expected true or false, got 'false'"),
        ("boundary_alpha_half", 1, "expected true or false, got 1"),
    ])
    def test_mistyped_train_field_exits_2_naming_it(self, tmp_path, capsys, key, value, want):
        doc = solve_config()
        doc["train"][key] = value
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 2
        assert capsys.readouterr().err == f"config error: train.{key}: {want}\n"
        assert not (out / "history.csv").exists()

    def test_every_train_field_is_read_by_a_reader_of_its_type(self, tmp_path, capsys):
        for field in dataclasses.fields(train_mod.TrainConfig):
            doc = solve_config()
            doc["train"][field.name] = [1]
            out = tmp_path / field.name
            assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 2, field.name
            assert capsys.readouterr().err.startswith(f"config error: train.{field.name}: expected "), field.name
            assert not (out / "history.csv").exists()

    def test_non_bool_write_checkpoints_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(write_checkpoints="false"))
        out = tmp_path / "out"
        assert cli.run(cfg, out_dir=str(out), quiet=True) == 2
        assert "write_checkpoints" in capsys.readouterr().err
        assert not any(name.startswith("u_") for name in os.listdir(out))

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        doc = solve_config()
        doc["train"]["seed"] = -1
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 2
        assert "seed" in capsys.readouterr().err
        assert not (out / "history.csv").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "theory-check",
            "problem": solve_config()["problem"],
            "theory": {"probes": 2, "rademacher_sets": 1, "sta_trials": 1, "sta_n": 4, "sta_probes": 1},
        })
        assert cli.run(cfg, out_dir=str(tmp_path / "out"), seed_override=-1, quiet=True) == 2
        assert "--seed-override" in capsys.readouterr().err

    def test_non_finite_or_out_of_range_number_exits_2(self, tmp_path, capsys):
        cases = (
            ("problem", "alpha", math.nan),
            ("problem", "beta", math.inf),
            ("train", "lr_u", math.nan),
            ("train", "lr_v", -math.inf),
            ("train", "grad_clip_norm", math.nan),
            ("train", "grad_clip_norm", -1.0),
            ("train", "adam_eps", -1.0),
            ("train", "adam_eps", 0.0),
            ("train", "adam_beta1", 2.0),
            ("train", "adam_beta2", 1.0),
            ("train", "adam_beta2", -0.1),
            ("train", "h1_ball_radius", math.nan),
            ("train", "lr_u", True),
            ("train", "lr_u", "fast"),
            ("train", "grad_clip_norm", True),
            ("train", "lr_u", 10**400),  # an integer beyond the float range
            ("problem", "alpha", 10**400),
        )
        for section, key, value in cases:
            doc = solve_config()
            doc[section][key] = value
            out = tmp_path / f"{key}_{value!s:.20}"
            assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 2, (key, value)
            assert key in capsys.readouterr().err
            assert not (out / "history.csv").exists()

    def test_expression_literal_beyond_float_range_exits_2(self, tmp_path, capsys):
        for key, text in (("c", "1e400"), ("u_exact", "sin(pi*x1) * 2e308")):
            doc = solve_config()
            doc["problem"][key] = text
            out = tmp_path / key
            assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 2, text
            err = capsys.readouterr().err
            assert f"problem.{key}" in err and "offset" in err, err
            assert not (out / "history.csv").exists()

    def test_too_deep_an_expression_exits_2_without_a_traceback(self, tmp_path, capsys):
        deep = {"parens": "(" * 1000 + "x1" + ")" * 1000, "long sum": "+".join(["x1"] * 1000)}
        for key in ("c", "u_exact"):
            for name, text in deep.items():
                doc = solve_config()
                doc["problem"][key] = text
                out = tmp_path / f"{key}_{name}"
                assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 2, name
                assert f"config error: problem.{key}: " in capsys.readouterr().err
                assert not (out / "history.csv").exists()

    def test_too_deep_a_derivative_names_u_exact(self, tmp_path, capsys):
        # a 400-factor product parses, but its derivative tree nests too deeply
        doc = solve_config()
        doc["problem"]["u_exact"] = "*".join(["x1"] * 400)
        out = tmp_path / "deep"
        assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 2
        err = capsys.readouterr().err
        assert "config error: problem.u_exact: deriving f and g: " in err, err
        assert not (out / "history.csv").exists()
        # an overflow evaluating the Dirichlet trace is still a numerical failure
        doc["problem"].update(u_exact="exp(800*x1)", bc_kind="dirichlet")
        assert cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "trace"), quiet=True) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_pinned_knobs_and_infinite_ball_stay_valid(self, tmp_path):
        doc = solve_config()
        doc["train"].update(
            outer_steps=2, eval_every=2, adam_beta1=0.0, adam_beta2=0.9, adam_eps=3e-3,
            h1_ball_radius=math.inf, grad_clip_norm=0.0,
        )
        assert cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True) == 0

    @pytest.mark.parametrize("command, section, key, value", [
        ("solve", "train", "n_interior", 10**12),
        ("solve", "train", "m_boundary", 10**12),
        ("solve", "train", "h1_quad_points", 10**12),
        ("approx-probe", "train", "n_interior", 10**12),
        ("convergence-study", "sweep", "n_values", [4, 10**12]),
        ("convergence-study", "sweep", "eval_quad", 10**12),
        ("theory-check", "theory", "probes", 10**12),
        ("theory-check", "theory", "sta_n", 10**12),
        ("penalty-study", "sweep", "grid_n", 10**12),
        ("solve", "problem", "dim", 10**6),  # its (dim, dim) matrix of expressions
    ])
    def test_size_beyond_physical_memory_exits_2_allocating_nothing(
        self, tmp_path, capsys, command, section, key, value
    ):
        doc = copy.deepcopy(TINY[command])
        doc[section][key] = value
        cfg = write_config(tmp_path, doc)
        tracemalloc.start()
        try:
            code = cli.run(cfg, out_dir=str(tmp_path / "out"), quiet=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        path = f"{section}.{key}[1]" if isinstance(value, list) else f"{section}.{key}"
        assert f"config error: {path}: a (" in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("command, section, key, widths, dim", [
        ("solve", "train", "n_interior", [1, 8, 1], 1),
        ("solve", "train", "n_interior", [2, 3, 1], 2),
        ("solve", "train", "m_boundary", [2, 8, 1], 2),
        ("approx-probe", "train", "n_interior", [1, 8, 1], 1),
        ("convergence-study", "sweep", "n_values", [1, 8, 1], 1),
    ])
    def test_batch_whose_tape_exceeds_memory_exits_2_allocating_nothing(
        self, tmp_path, capsys, command, section, key, widths, dim
    ):
        memory = cli._memory_bytes()
        if memory is None:
            pytest.skip("no memory size to bound by")
        # a kept tape's (rows, width) layer outputs, with their tangents unless at the
        # boundary, outgrow memory while the (rows, dim) points would fit
        per_row = 8 * widths[1] * (1 if key == "m_boundary" else 1 + dim)
        rows = memory // per_row + 1
        assert rows * dim * 8 <= memory
        doc = copy.deepcopy(TINY[command])
        if dim == 2:
            doc["problem"] = dict(_PROBLEM, dim=2, u_exact="x1*x2")
        for arch in ("u_arch", "v_arch"):
            if arch in doc:
                doc[arch] = {"widths": widths}
        doc[section][key] = [4, rows] if section == "sweep" else rows
        tracemalloc.start()
        try:
            code = cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        path = f"{section}.{key}[1]" if section == "sweep" else f"{section}.{key}"
        assert f"config error: {path}: a ({rows}, {widths[1]}) float64 array" in capsys.readouterr().err
        assert peak < 1 << 20
        # one row fewer fits: the bound is exact
        doc[section][key] = [4, rows - 1] if section == "sweep" else rows - 1
        cli._build_sections(doc, command, None)

    @pytest.mark.parametrize("section, arch", [
        ("u_arch", {"widths": [1, 1_000_000_000, 1]}),
        ("v_arch", {"widths": [1, 1_000_000_000, 1]}),
        ("u_arch", "recipe"),
        ("v_arch", "each fits alone"),
    ])
    def test_weights_beyond_memory_exit_2_before_init(self, tmp_path, capsys, monkeypatch, section, arch):
        memory = cli._memory_bytes()
        if memory is None:
            pytest.skip("no memory size to bound by")
        budget = memory // _bytes_per_weight()  # weights whose training fits
        doc = copy.deepcopy(TINY["solve"])
        if arch == "recipe":
            # depth 3 in 1D, (1, w, w, 1) with about w^2 weights for a budget of
            # 3 eps^-2 weights, twice what the bound lets through
            recipe = {"epsilon": math.sqrt(1.5 / budget), "mu": 0.5, "c_user": 3, "max_weights": 4 * budget}
            arch = {"recipe": recipe}
        elif arch == "each fits alone":
            # (1, w, 1) has 3 w + 1 weights: u and v each take two thirds of the budget
            width = 2 * budget // 9
            doc["u_arch"] = arch = {"widths": [1, width, 1]}
            cli._build_sections(doc, "solve", None)  # u fits beside a small v
        doc[section] = arch
        monkeypatch.setattr(net, "init", lambda *args: pytest.fail("a network was initialized"))
        tracemalloc.start()
        try:
            code = cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {section}.widths: training networks of " in err and "weight-sized vectors" in err
        assert peak < 1 << 20

    def test_weight_bound_is_exact_over_both_networks(self):
        memory = cli._memory_bytes()
        if memory is None:
            pytest.skip("no memory size to bound by")
        doc = copy.deepcopy(TINY["solve"])
        # (1, w, 1) has 3 w + 1 weights; the widest v that fits beside a (1, 8, 1) u, then one more
        width = (memory // _bytes_per_weight() - 25 - 1) // 3
        doc.update(u_arch={"widths": [1, 8, 1]}, v_arch={"widths": [1, width, 1]})
        cli._build_sections(doc, "solve", None)
        wider = {"widths": [1, width + 1, 1]}
        cli._build_sections(dict(doc, u_arch={"widths": [1, 1, 1]}, v_arch=wider), "solve", None)
        with pytest.raises(cli.ConfigError, match=r"^v_arch\.widths: training networks of 25 \+ "):
            cli._build_sections(dict(doc, v_arch=wider), "solve", None)

    @pytest.mark.skipif(sys.platform != "linux", reason="needs an address-space limit (setrlimit RLIMIT_AS)")
    def test_batch_beyond_the_address_space_limit_exits_2(self, tmp_path):
        # 40,000,000 rows of 8-wide outputs and their tangents need 5.1 GB: under a
        # 3 GB `ulimit -v` such a run exited 1 allocating them, whatever the machine
        doc = copy.deepcopy(TINY["solve"])
        doc["u_arch"] = doc["v_arch"] = {"widths": [1, 8, 1]}
        doc["train"]["n_interior"] = 40_000_000
        proc = _run_under_address_limit(tmp_path, doc, 3 << 30)
        assert proc.returncode == 2, proc.stderr
        assert "config error: train.n_interior: a (40000000, 8) float64 array" in proc.stderr

    @pytest.mark.skipif(sys.platform != "linux", reason="needs an address-space limit (setrlimit RLIMIT_AS)")
    @pytest.mark.parametrize("case", [
        # the reference batch of 100 x sta_n points is taped as a training batch
        "sta_n",
        # the (rows, dim, dim) diffusion matrix at a training batch's points
        "n_interior", "n_values",
        # ... at the bound lab's sup-norm probes
        "probes",
        # ... at the fixed 512 coercivity probes of a training, and 2048 sup-norm probes
        "dim, solve", "dim, theory-check",
    ])
    def test_arrays_beyond_the_address_space_limit_exit_2(self, tmp_path, case):
        # each of these configs passed validation and exited 1 in numpy's allocation
        limit, theory = 1 << 30, dict(TINY["theory-check"]["theory"], probes=2)
        doc, message = {
            "sta_n": (dict(TINY["theory-check"], theory=dict(theory, sta_n=1_000_000)),
                      "theory.sta_n: a (100000000, 3) float64 array, with 1 more of its shape"),
            "n_interior": (_in_dim(dict(TINY["solve"], train=dict(_TINY_TRAIN, n_interior=1_000_000)), 20),
                           "train.n_interior: a (1000000, 20, 20) float64 array"),
            "n_values": (_in_dim(dict(TINY["convergence-study"], sweep={"n_values": [4, 1_000_000], "seeds": [0]}), 20),
                         "sweep.n_values[1]: a (1000000, 20, 20) float64 array"),
            "probes": (_in_dim(dict(TINY["theory-check"], theory=dict(theory, probes=1_000_000)), 20, 3),
                       "theory.probes: a (1000000, 20, 20) float64 array"),
            "dim, solve": (_in_dim(TINY["solve"], 600),
                           "problem.dim: a (512, 600, 600) float64 array"),
            "dim, theory-check": (_in_dim(dict(TINY["theory-check"], theory=theory), 300, 3),
                                  "problem.dim: a (2048, 300, 300) float64 array"),
        }[case]
        proc = _run_under_address_limit(tmp_path, doc, limit)
        assert proc.returncode == 2, proc.stderr
        assert f"config error: {message}" in proc.stderr

    def test_mid_size_dim_builds_in_little_memory(self):
        # an identity `a` and a zero `b` hold one expression per distinct value;
        # with one per entry, this build peaked at 287 MiB and took seconds
        problem = {"dim": 1000, "domain": {"kind": "hypercube"}, "c": "1", "alpha": 1.0, "beta": 1.0, "f": "1"}
        tracemalloc.start()
        try:
            built = cli._build_problem(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built.dim == 1000
        assert peak < 32 << 20

    def test_recipe_beyond_memory_exits_2_naming_its_widths(self, tmp_path, capsys):
        # epsilon 0.03 in 3D asks for about 1.4e9 weights
        memory = cli._memory_bytes()
        recipe = {"epsilon": 0.03, "mu": 0.5, "max_weights": 10**10}
        if memory is None or train_mod.weight_bytes(net.arch_recipe(d=3, beta=1.0, **recipe).arch) <= memory:
            pytest.skip("the recipe's networks fit in memory")
        doc = dict(_in_dim(TINY["solve"], 3, 3), u_arch={"recipe": recipe})
        assert cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True) == 2
        assert "config error: u_arch.widths: training networks of " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["relu0", "relu01", "relu001", "relu\uff11", "relu\u0662", "relu\u00b2", "relu 2"])
    def test_activation_other_than_relu_k_in_plain_digits_exits_2(self, tmp_path, capsys, name):
        doc = copy.deepcopy(TINY["solve"])
        doc["u_arch"]["activation"] = name
        assert cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True) == 2
        assert "config error: u_arch.activation: unknown activation" in capsys.readouterr().err

    def test_penalty_needs_two_betas(self, tmp_path, capsys):
        doc = {
            "command": "penalty-study",
            "problem": solve_config()["problem"],
            "sweep": {"betas": [0.1]},
        }
        cfg = write_config(tmp_path, doc)
        assert cli.run(cfg, out_dir=str(tmp_path / "out")) == 2
        assert "betas" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section", NOT_READ)
    def test_section_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, section):
        doc = dict(TINY[command], **{section: SECTION_VALUES[section]})
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 2
        assert capsys.readouterr().err.count(f"config.{section}") == 1
        assert not (out / "manifest.json").exists()

    def test_constructor_error_exits_2_naming_its_section_once(self, tmp_path, capsys):
        plane = dict(_PROBLEM, dim=2)
        huge_recipe = {"recipe": {"epsilon": 0.5, "mu": 0.5, "c_user": 1.5e308}}
        cases = (
            ("solve", {"problem": dict(_PROBLEM, bc_kind="neumann")}, "problem", "alpha"),  # alpha is 1
            ("solve", {"u_arch": {"widths": [1, 3, 1], "b_theta": 0.5}}, "u_arch", "b_theta"),
            ("penalty-study", {"problem": plane}, "problem", "1d"),
            # the recipe's depth c_user * log2(3) overflows a float
            ("approx-probe", {"problem": plane, "u_arch": huge_recipe}, "u_arch", "infinity"),
        )
        for i, (command, sections, named, fragment) in enumerate(cases):
            doc = dict(TINY[command], **sections)
            assert cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / str(i)), quiet=True) == 2
            err = capsys.readouterr().err
            assert err.count(named) == 1 and fragment in err, err

    @pytest.mark.parametrize("command, keys", [
        # the fields approx_error_probe does not read
        ("approx-probe", {"m_boundary": 4, "inner_steps": 1, "lr_v": 1e-3, "h1_ball_radius": 2.0,
                          "v_restart_every": 0, "boundary_alpha_half": False}),
        # the fields each sweep point sets
        ("convergence-study", {"n_interior": 4, "m_boundary": 4, "seed": 0}),
    ])
    def test_train_key_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, keys):
        for key, value in keys.items():
            doc = copy.deepcopy(TINY[command])
            doc["train"][key] = value
            out = tmp_path / key
            assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 2, key
            assert f"config error: train.{key}: {command} does not read it" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()

    def test_seed_override_without_a_seed_to_replace_exits_2(self, tmp_path, capsys):
        for command in TINY:
            out = tmp_path / command
            code = cli.run(write_config(tmp_path, TINY[command]), out_dir=str(out), seed_override=3, quiet=True)
            if command in ("convergence-study", "penalty-study"):
                assert code == 2, command
                assert f"config error: --seed-override: {command} has" in capsys.readouterr().err
                assert not (out / "manifest.json").exists()
            else:
                assert code == 0, command
                assert json.loads((out / "manifest.json").read_text())["seed_override"] == 3

    def test_out_naming_a_regular_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory")
        assert cli.run(write_config(tmp_path, TINY["penalty-study"]), out_dir=str(target), quiet=True) == 2
        assert "taken" in capsys.readouterr().err
        assert target.read_text() == "not a directory"

    def test_width_beyond_float_range_exits_2(self, tmp_path, capsys):
        doc = dict(TINY["solve"], u_arch={"widths": [1, 10**400, 1]})
        assert cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True) == 2
        assert "u_arch: widths must be within the float range" in capsys.readouterr().err

    def test_ball_domain_requires_geometry(self, tmp_path, capsys):
        doc = solve_config()
        doc["problem"]["domain"] = {"kind": "ball"}
        cfg = write_config(tmp_path, doc)
        assert cli.run(cfg, out_dir=str(tmp_path / "out")) == 2
        assert "center" in capsys.readouterr().err


class TestSolve:
    def test_end_to_end_outputs(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out = tmp_path / "out"
        assert cli.run(cfg, out_dir=str(out), quiet=True) == 0

        header, rows = read_rows(out / "history.csv")
        assert header == [
            "step", "loss_total", "loss_interior", "loss_boundary", "h1_u",
            "h1_v", "h1_error", "grad_u_norm", "grad_v_norm", "seconds",
        ]
        assert [r[0] for r in rows] == ["10", "20"]
        assert all(math.isfinite(float(c)) for r in rows for c in r[1:])

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert len(manifest["config_hash"]) == 64
        assert manifest["seed_override"] is None
        assert manifest["results"]["coercivity_holds"] is True
        assert manifest["results"]["final_h1_error"] == float(rows[-1][6])
        # the sampled numbers behind the flag: a = 1, b = 0, c = 1 in 1D
        report = weakgal.pde.check_coercivity(cli._build_problem(solve_config()["problem"]))
        for key in ("lambda_min", "c_min", "b_max", "condition"):
            assert manifest["results"][key] == getattr(report, key)
        assert manifest["results"]["condition"] == 4.0
        # 20 iterates and, at step 20 inside the averaging window, the average
        projection = manifest["results"]["projection"]
        assert sorted(projection) == ["exact", "fired", "skipped"]
        assert projection["exact"] + projection["skipped"] == 21

        params = net.load_checkpoint(str(out / "u.json"))
        assert params.arch.widths == (1, 8, 1)
        assert not any(p.endswith(".partial") for p in os.listdir(out))

    def test_write_checkpoints_per_eval(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(write_checkpoints=True))
        out = tmp_path / "out"
        assert cli.run(cfg, out_dir=str(out), quiet=True) == 0
        names = sorted(os.listdir(out))
        assert "u_000010.json" in names and "v_000020.json" in names

    def test_rerun_history_identical_except_seconds(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        bodies = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.run(cfg, out_dir=str(out), quiet=True) == 0
            _, rows = read_rows(out / "history.csv")
            bodies.append([r[:-1] for r in rows])
        assert bodies[0] == bodies[1]

    def test_seed_override_changes_run_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.run(cfg, out_dir=str(out_a), quiet=True) == 0
        assert cli.run(cfg, out_dir=str(out_b), seed_override=99, quiet=True) == 0
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["seed_override"] == 99
        assert manifest["results"]["seeds"]["train"] == 99
        ua = net.load_checkpoint(str(out_a / "u.json")).flat
        ub = net.load_checkpoint(str(out_b / "u.json")).flat
        assert not np.array_equal(ua, ub)

    def test_numerical_blowup_exits_3(self, tmp_path, capsys):
        doc = solve_config()
        doc["u_arch"] = {"widths": [1, 8, 8, 1], "activation": "relu3", "b_theta": 1e30}
        doc["v_arch"] = {"widths": [1, 8, 8, 1], "activation": "relu3", "b_theta": 1e30}
        doc["train"] = {
            "n_interior": 32, "m_boundary": 32, "outer_steps": 200,
            "inner_steps": 1, "optimizer": "sgd", "lr_u": 1e8, "lr_v": 1e8,
            "grad_clip_norm": 0.0, "h1_ball_radius": "inf", "eval_every": 100,
            "seed": 0,
        }
        cfg = write_config(tmp_path, doc)
        old = np.seterr(all="ignore")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.run(cfg, out_dir=str(tmp_path / "out"), quiet=True)
        finally:
            np.seterr(**old)
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_gradient_norm_overflow_exits_3(self, tmp_path, capsys):
        # beta = 1e-300 weights the boundary term by ~1e300: every gradient
        # entry is finite but its norm overflows, which used to clip the step
        # to zero and exit 0
        doc = copy.deepcopy(TINY["solve"])
        doc["problem"]["beta"] = 1e-300
        doc["u_arch"] = doc["v_arch"] = {"widths": [1, 4, 1]}
        doc["train"] = dict(_TINY_TRAIN, outer_steps=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True)
        assert code == 3
        assert "grad_v norm" in capsys.readouterr().err

    def test_abort_names_no_sample_when_there_is_none(self, tmp_path, capsys):
        # a penalised-Dirichlet beta of 1e-300 overflows grad_v's norm, which
        # belongs to no sample
        doc = copy.deepcopy(TINY["solve"])
        doc["problem"].update(bc_kind="dirichlet", beta=1e-300)
        doc["train"] = dict(_TINY_TRAIN, outer_steps=3)
        assert cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: training aborted at outer step 0: non-finite grad_v norm\n", err

    def test_non_finite_h1_estimate_exits_3(self, tmp_path, capsys):
        # a step of ~1e155 in a box of 1e200 overflows the squares of the
        # projection's H1 estimate, which used to scale u by radius / inf = 0
        doc = copy.deepcopy(TINY["solve"])
        doc["u_arch"] = {"widths": [1, 8, 8, 1], "b_theta": 1e200}
        doc["v_arch"] = {"widths": [1, 8, 8, 1], "b_theta": 2.0}
        doc["train"] = {
            "n_interior": 32, "m_boundary": 32, "outer_steps": 3, "inner_steps": 1, "optimizer": "sgd",
            "lr_u": 1e155, "lr_v": 1e-3, "eval_every": 1, "h1_ball_radius": 2.0, "seed": 0,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True)
        assert code == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: training aborted at outer step 0: non-finite H1 estimate\n", err

    def test_overflowing_boundary_data_exits_3(self, tmp_path, capsys):
        # beta = 1e308 overflows the Robin trace g = alpha u + beta u' nu at
        # x = 0 and 1: the loss's check of g, which computes outside expr's trap
        doc = copy.deepcopy(TINY["solve"])
        doc["problem"]["beta"] = 1e308
        with np.errstate(over="ignore"):
            code = cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True)
        assert code == 3
        assert "non-finite boundary g (sample 0)" in capsys.readouterr().err

    def test_main_argv_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out = tmp_path / "out"
        assert cli.main([cfg, "--out", str(out), "--quiet", "--seed-override", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed_override"] == 5

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config())
        assert cli.run(cfg, out_dir=str(tmp_path / "out"), quiet=True) == 0
        assert capsys.readouterr().out == ""

    def test_output_dir_from_config(self, tmp_path):
        out = tmp_path / "from_cfg"
        cfg = write_config(tmp_path, solve_config(output_dir=str(out)))
        assert cli.run(cfg, quiet=True) == 0
        assert (out / "manifest.json").exists()


class TestPenaltyStudy:
    def config(self, tmp_path, betas=(0.1, 0.03, 0.01), grid_n=512):
        doc = {
            "command": "penalty-study",
            "problem": {
                "dim": 1,
                "domain": {"kind": "hypercube"},
                "c": "1",
                "alpha": 1.0,
                "beta": 1.0,
                "u_exact": "sin(pi*x1)",
                "bc_kind": "dirichlet",
            },
            "sweep": {"betas": list(betas), "grid_n": grid_n},
        }
        return write_config(tmp_path, doc)

    def test_outputs_and_monotone(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert cli.run(cfg, out_dir=str(out), quiet=True) == 0
        header, rows = read_rows(out / "penalty.csv")
        assert header == ["beta", "h1_error"]
        assert len(rows) == 3
        errs = [float(r[1]) for r in rows]
        assert errs == sorted(errs, reverse=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["monotone"] is True
        assert manifest["results"]["fitted_slope"] >= 0.35

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.config(tmp_path)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.run(cfg, out_dir=str(out), quiet=True) == 0
            blobs.append((out / "penalty.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_ball_domain_exits_2_naming_it(self, tmp_path, capsys):
        with open(self.config(tmp_path), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["problem"].update(domain={"kind": "ball", "center": [0.5], "radius": 0.25},
                              u_exact="sin(2*pi*(x1 - 0.25))")  # zero trace on the ball
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 2
        assert "config error: problem.domain: penalty-study solves on the unit interval" in capsys.readouterr().err
        assert not (out / "penalty.csv").exists()

    def test_repeated_beta_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(oracle, "fd_solve_1d", no_solve)
        out = tmp_path / "out"
        assert cli.run(self.config(tmp_path, (0.1, 0.1)), out_dir=str(out), quiet=True) == 2
        assert "config error: sweep.betas: entries must be distinct" in capsys.readouterr().err
        assert not (out / "penalty.csv").exists()

    @pytest.mark.parametrize("betas", [
        (1e-310, 1e-300),  # 2h / (beta a) overflows: 0 * inf in the end rows
        (1e-300, 1e-310),
        (1e-300, 1e-250),  # both solves equal the Dirichlet one: error 0 has no logarithm
    ])
    def test_unresolvable_beta_exits_3_without_nan(self, tmp_path, capsys, betas):
        out = tmp_path / "out"
        assert cli.run(self.config(tmp_path, betas, grid_n=16), out_dir=str(out), quiet=True) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "penalty.csv").exists() and not (out / "manifest.json").exists()


class TestConvergenceStudy:
    def config(self, tmp_path, **sweep):
        doc = {
            "command": "convergence-study",
            "problem": solve_config()["problem"],
            "u_arch": {"widths": [1, 6, 1]},
            "v_arch": {"widths": [1, 6, 1]},
            "train": {"outer_steps": 15, "eval_every": 15},
            "sweep": {"n_values": [16, 32], "seeds": [0, 1], "eval_quad": 1024, **sweep},
        }
        return write_config(tmp_path, doc)

    def test_grid_of_runs(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert cli.run(cfg, out_dir=str(out), quiet=True) == 0
        header, rows = read_rows(out / "convergence.csv")
        assert header == ["n_samples", "seed", "h1_error"]
        assert [(r[0], r[1]) for r in rows] == [("16", "0"), ("16", "1"), ("32", "0"), ("32", "1")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["results"]["medians"]) == {"16", "32"}

    @staticmethod
    def fake_errors(monkeypatch, errors):
        """Each training's H1 error set by its n_samples, with no training run."""
        monkeypatch.setattr(cli.train_mod, "minimax_train", lambda problem, u_arch, v_arch, config, u_ref=None:
                            train_mod.TrainResult(config.n_interior, None, [], None, None))
        monkeypatch.setattr(cli.loss_mod.H1Reference, "distance",
                            lambda self, u: weakgal.loss.H1Estimate(0.0, 0.0, errors[u]))

    def test_manifest_fits_the_rate_and_keeps_the_csv(self, tmp_path, monkeypatch):
        self.fake_errors(monkeypatch, {16: 0.4, 32: 0.2, 64: 0.15})
        out = tmp_path / "out"
        assert cli.run(self.config(tmp_path, n_values=[16, 32, 64], seeds=[0]), out_dir=str(out), quiet=True) == 0
        results = json.loads((out / "manifest.json").read_text())["results"]
        expected = np.polyfit(np.log([16, 32, 64]), np.log([0.4, 0.2, 0.15]), 1)[0]
        assert results["fitted_slope"] == pytest.approx(expected, rel=1e-12)
        assert results["paper_rate"] == -1.0
        _, rows = read_rows(out / "convergence.csv")
        assert [float(r[2]) for r in rows] == [0.4, 0.2, 0.15]

    @pytest.mark.parametrize("errors", [{16: 0.4}, {16: 0.4, 32: 0.0}])
    def test_no_rate_from_one_size_or_a_zero_median(self, tmp_path, monkeypatch, errors):
        self.fake_errors(monkeypatch, errors)
        out = tmp_path / "out"
        assert cli.run(self.config(tmp_path, n_values=list(errors), seeds=[0]), out_dir=str(out), quiet=True) == 0
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert results["fitted_slope"] is None and results["paper_rate"] is None

    def test_thread_cap_env_does_not_change_results(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path)
        blobs = []
        for sub, threads in (("a", "1"), ("b", "3")):
            monkeypatch.setenv("WG_THREADS", threads)
            out = tmp_path / sub
            assert cli.run(cfg, out_dir=str(out), quiet=True) == 0
            blobs.append((out / "convergence.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_largest_trainings_start_first_and_results_keep_job_order(self, tmp_path, monkeypatch):
        started = []
        minimax_train = train_mod.minimax_train

        def recording(problem, u_arch, v_arch, config, **kwargs):
            started.append((config.n_interior, config.seed))
            return minimax_train(problem, u_arch, v_arch, config, **kwargs)

        monkeypatch.setattr(train_mod, "minimax_train", recording)
        cfg = self.config(tmp_path)
        blobs = []
        for sub, threads in (("serial", "1"), ("pool", None)):
            if threads is None:
                monkeypatch.delenv("WG_THREADS", raising=False)
            else:
                monkeypatch.setenv("WG_THREADS", threads)
            out = tmp_path / sub
            assert cli.run(cfg, out_dir=str(out), quiet=True) == 0
            blobs.append((out / "convergence.csv").read_bytes())
            header, rows = read_rows(out / "convergence.csv")
            assert [(r[0], r[1]) for r in rows] == [("16", "0"), ("16", "1"), ("32", "0"), ("32", "1")]
        assert blobs[0] == blobs[1]
        assert started[:4] == [(32, 0), (32, 1), (16, 0), (16, 1)]  # one worker: the start order

    def test_abort_reports_the_first_failing_job_in_job_order(self, tmp_path, monkeypatch, capsys):
        minimax_train = train_mod.minimax_train

        def aborting(problem, u_arch, v_arch, config, **kwargs):
            if (config.n_interior, config.seed) in ((16, 1), (32, 0)):  # (32, 0) starts first
                raise train_mod.TrainingAborted(config.n_interior, "test loss", config.seed)
            return minimax_train(problem, u_arch, v_arch, config, **kwargs)

        monkeypatch.setattr(train_mod, "minimax_train", aborting)
        for threads in ("1", "2"):
            monkeypatch.setenv("WG_THREADS", threads)
            out = tmp_path / threads
            assert cli.run(self.config(tmp_path), out_dir=str(out), quiet=True) == 3
            err = capsys.readouterr().err
            assert "training aborted at outer step 16: non-finite test loss (sample 1)" in err, err
            assert not (out / "convergence.csv").exists()

    def test_evaluates_u_exact_once(self, tmp_path, monkeypatch):
        # the evaluation set is sampled and u_exact evaluated before the pool
        # starts, not once per (N, seed) job
        on_eval_set = []
        evaluate_many = expr.evaluate_many

        def counting(tree, points):
            if len(points) == 1024:  # eval_quad
                on_eval_set.append(tree)
            return evaluate_many(tree, points)

        monkeypatch.setattr(expr, "evaluate_many", counting)
        assert cli.run(self.config(tmp_path), out_dir=str(tmp_path / "out"), quiet=True) == 0
        assert len(on_eval_set) == 2  # u_exact and its one derivative, once each

    def test_bad_thread_env_exits_2(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path)
        monkeypatch.setenv("WG_THREADS", "many")
        assert cli.run(cfg, out_dir=str(tmp_path / "out"), quiet=True) == 2

    def test_pool_size_follows_the_usable_cores(self, monkeypatch):
        monkeypatch.delenv("WG_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert cli._worker_count() == 2  # the affinity mask, not the machine
        monkeypatch.setenv("WG_THREADS", "3")
        assert cli._worker_count() == 3
        monkeypatch.delenv("WG_THREADS")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli._worker_count() == 4  # no affinity call: the machine's cores, capped at 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._worker_count() == 1

    def test_requires_manufactured_problem(self, tmp_path, capsys):
        doc = {
            "command": "convergence-study",
            "problem": {
                "dim": 1,
                "domain": {"kind": "hypercube"},
                "c": "1",
                "alpha": 1.0,
                "beta": 1.0,
                "f": "1",
            },
            "sweep": {"n_values": [16], "seeds": [0]},
        }
        cfg = write_config(tmp_path, doc, name="noexact.json")
        assert cli.run(cfg, out_dir=str(tmp_path / "out"), quiet=True) == 2
        assert "u_exact" in capsys.readouterr().err


class TestTheoryCheck:
    def config(self, tmp_path):
        doc = {
            "command": "theory-check",
            "problem": solve_config()["problem"],
            "u_arch": {"widths": [1, 4, 1], "b_theta": 2.0},
            "theory": {
                "probes": 200, "rademacher_sets": 50, "sta_trials": 3,
                "sta_n": 32, "sta_probes": 5,
            },
        }
        return write_config(tmp_path, doc)

    def test_reports_all_lemmas(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert cli.run(cfg, out_dir=str(out), quiet=True) == 0
        header, rows = read_rows(out / "theory.csv")
        assert header == ["lemma", "config_hash", "theoretical", "empirical", "ratio"]
        lemmas = [r[0] for r in rows]
        assert "value_weight_lipschitz" in lemmas
        assert "class_sup_diffusion" in lemmas
        assert "rademacher_massart" in lemmas
        assert "statistical_error" in lemmas
        doc = json.loads((out / "theory.json").read_text())
        assert all(entry["holds"] for entry in doc)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["all_bounds_hold"] is True
        assert manifest["results"]["massart_violations"] == 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.config(tmp_path)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.run(cfg, out_dir=str(out), quiet=True) == 0
            blobs.append((out / "theory.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_runner_calls_the_lab_through_the_module_in_order(self, tmp_path, monkeypatch):
        """Each lab call goes through the ``theory`` module attribute, so a
        wrapper patched there (a tracer, a set-up clock) sees it."""
        calls = []
        for name in ("lipschitz_probe", "empirical_class_sups", "massart_sweep", "empirical_sta_error"):
            def recorded(*args, _name=name, _original=getattr(theory, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(theory, name, recorded)
        assert cli.run(write_config(tmp_path, TINY["theory-check"]), out_dir=str(tmp_path / "out"), quiet=True) == 0
        assert calls == ["lipschitz_probe", "empirical_class_sups", "massart_sweep", "empirical_sta_error"]

    @pytest.mark.parametrize("seed", [109, 222, 242])
    def test_one_vector_massart_set_holds(self, tmp_path, seed):
        # the only Rademacher set holds one vector, whose bound is exactly 0
        doc = copy.deepcopy(TINY["theory-check"])
        doc["theory"].update(rademacher_sets=1, seed=seed)
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"] == {"all_bounds_hold": True, "massart_violations": 0}
        massart = [e for e in json.loads((out / "theory.json").read_text()) if e["lemma"] == "rademacher_massart"]
        assert massart[0]["empirical"] == 0.0 and massart[0]["holds"]

    @pytest.mark.parametrize("activation, rows", [("relu", 1), ("relu2", 1), ("tanh", 11)])
    def test_unbounded_activation_reports_massart_only(self, tmp_path, activation, rows):
        """The class lemmas assume |rho|, |rho'| <= 1, which relu-family
        activations break; their runs report the Massart row alone."""
        doc = copy.deepcopy(TINY["theory-check"])
        doc["u_arch"] = {"widths": [1, 8, 8, 1], "b_theta": 2.0, "activation": activation}
        doc["theory"]["probes"] = 2000
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 0
        doc = json.loads((out / "theory.json").read_text())
        assert len(doc) == rows and all(e["holds"] for e in doc)
        assert "rademacher_massart" in [e["lemma"] for e in doc]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["all_bounds_hold"] is True

    def test_absent_b_theta_is_the_commands_default(self, tmp_path):
        """``u_arch`` without ``b_theta`` gets the 2.0 an absent ``u_arch`` gets."""
        doc = dict(TINY["theory-check"], u_arch={"widths": [1, 4, 1]})
        blobs = []
        for name, tiny in (("partial", doc), ("absent", {k: v for k, v in doc.items() if k != "u_arch"})):
            out = tmp_path / name
            assert cli.run(write_config(tmp_path, tiny, f"{name}.json"), out_dir=str(out), quiet=True) == 0
            lips = [e for e in json.loads((out / "theory.json").read_text()) if "b_theta" in e["details"]]
            assert lips and all(e["details"]["b_theta"] == 2.0 for e in lips)
            blobs.append((out / "theory.json").read_bytes())
        assert blobs[0] == blobs[1]


    def test_class_sups_hold_where_few_points_hit_a_coefficient_peak(self, tmp_path):
        # f is 1 but for a spike of height 1e6 and width about 1e-4 at x = 1/2;
        # probed on another draw than its sup norm, it read as a violated bound
        problem = {k: v for k, v in _PROBLEM.items() if k != "u_exact"}
        problem["f"] = "1 + 1000000*exp(-100000000*(x1-0.5)^2)"
        doc = {
            "command": "theory-check", "problem": problem, "u_arch": {"widths": [1, 4, 1], "b_theta": 2.0},
            "theory": {"probes": 1000, "rademacher_sets": 5, "sta_trials": 1, "sta_n": 16, "sta_probes": 2,
                       "seed": 2},
        }
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 0
        assert json.loads((out / "manifest.json").read_text())["results"]["all_bounds_hold"] is True


def _strict_json(path):
    """The file at ``path`` parsed as strict JSON, in which NaN and Infinity are errors."""
    def reject(name):
        raise ValueError(f"{path.name}: {name} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


class TestManifestNetworks:
    def manifest(self, tmp_path, doc):
        assert cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True) == 0
        return json.loads((tmp_path / "out" / "manifest.json").read_text())

    def test_a_capped_recipe_says_so(self, tmp_path):
        # epsilon 0.5, mu 0.5 in 1D asks for B_theta = 0.5^-17 = 131072, over the cap of 2
        recipe = {"epsilon": 0.5, "mu": 0.5, "max_b_theta": 2.0}
        networks = self.manifest(tmp_path, dict(TINY["solve"], u_arch={"recipe": recipe}))["networks"]
        assert networks["u_arch"] == {
            "widths": [1, 1], "activation": "tanh", "b_theta": 2.0, "n_params": 2,
            "recipe": {"weight_budget": 4, "requested_b_theta": 131072.0, "b_theta_capped": True},
        }
        assert networks["v_arch"]["recipe"] is None
        u = net.load_checkpoint(str(tmp_path / "out" / "u.json"))
        assert (list(u.arch.widths), u.arch.b_theta) == (networks["u_arch"]["widths"], 2.0)

    def test_a_convergence_study_names_both_networks(self, tmp_path):
        manifest = self.manifest(tmp_path, TINY["convergence-study"])
        assert "networks" not in manifest["results"]
        for key in ("u_arch", "v_arch"):
            assert manifest["networks"][key] == {
                "widths": [1, 3, 1], "activation": "tanh", "b_theta": 10.0, "n_params": 10, "recipe": None,
            }

    def test_commands_record_only_the_networks_they_build(self, tmp_path):
        assert self.manifest(tmp_path, TINY["penalty-study"])["networks"] == {}
        assert list(self.manifest(tmp_path, TINY["theory-check"])["networks"]) == ["u_arch"]


class TestStrictJson:
    """Every JSON file a run writes parses strictly: a non-finite float is null."""

    # the tiny configs, whose bound lab has a zero b, and two more with
    # non-finite bound numbers: a Neumann bound lab (alpha = 0), and one whose
    # class constants overflow
    CASES = {
        **TINY,
        "theory-check, neumann": dict(TINY["theory-check"], problem=dict(_PROBLEM, alpha=0.0, bc_kind="neumann")),
        "theory-check, overflow": dict(TINY["theory-check"], u_arch={"widths": [1, 8, 8, 8, 1], "b_theta": 1e40}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_json_output_parses_strictly(self, tmp_path, name):
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, self.CASES[name]), out_dir=str(out), quiet=True) == 0
        docs = {path.name: _strict_json(path) for path in out.glob("*.json")}
        assert "manifest.json" in docs
        if not name.startswith("theory-check"):
            return
        rows = {row["lemma"]: row for row in docs["theory.json"]}
        # a zero bound's log is -inf, and an overflowing bound is +inf
        assert rows["class_sup_advection"]["ln_theoretical"] is None
        assert (rows["class_sup_boundary_penalty"]["ln_theoretical"] is None) == name.endswith("neumann")
        for row in rows.values():
            overflows = row["ln_theoretical"] is not None and row["ln_theoretical"] > math.log(sys.float_info.max)
            assert (row["theoretical"] is None) == overflows, row
        assert any(row["theoretical"] is None for row in rows.values()) == name.endswith("overflow")

    def test_non_finite_results_are_null(self, tmp_path, monkeypatch):
        # a solve without u_exact has no H1 error, and these coercivity numbers overflowed
        report = pde.CoercivityReport(lambda_min=math.nan, c_min=1.0, b_max=math.inf, condition=-math.inf, holds=False)
        monkeypatch.setattr(train_mod, "check_coercivity", lambda problem: report)
        problem = {k: v for k, v in _PROBLEM.items() if k != "u_exact"}
        out = tmp_path / "out"
        doc = dict(TINY["solve"], problem=dict(problem, f="1"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 0
        results = _strict_json(out / "manifest.json")["results"]
        assert {key: results[key] for key in ("lambda_min", "c_min", "b_max", "condition", "final_h1_error")} == {
            "lambda_min": None, "c_min": 1.0, "b_max": None, "condition": None, "final_h1_error": None,
        }

    def test_writer_nulls_non_finite_floats_at_any_depth(self, tmp_path):
        path = tmp_path / "doc.json"
        cli._write_json(str(path), {"a": math.inf, "b": [math.nan, 1.5, (-math.inf, 2)], "c": {"d": np.float64("inf")}})
        assert _strict_json(path) == {"a": None, "b": [None, 1.5, [None, 2]], "c": {"d": None}}


def test_sizes_come_from_the_constants_their_owners_use():
    """The coercivity probes, the sup-norm sample, the reference batch's factor
    and the penalty grid are each sized once, by the module that allocates
    them; cli reads those constants and repeats no size."""
    coercivity_default = inspect.signature(pde.check_coercivity).parameters["n_probes"].default
    grid_default = inspect.signature(oracle.penalty_rate_study).parameters["n"].default
    assert cli._COMMANDS["solve"].a_points == cli._COMMANDS["convergence-study"].a_points == coercivity_default
    assert cli._COMMANDS["theory-check"].a_points == theory.SUP_NORM_POINTS
    assert cli._COMMANDS["penalty-study"].options["grid_n"].default == grid_default
    assert cli._SIZES["theory.sta_n"](3, 2, 5, 0) == [((3 * theory.BIG_FACTOR, 5), 2)]
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not literals & {coercivity_default, theory.SUP_NORM_POINTS, grid_default}


def test_every_size_key_is_a_real_size_key():
    """``_check_sizes`` reads a key it cannot find as no value, so a key that
    names no config key (a renamed option or TrainConfig field) would drop its
    memory bound without a word."""
    real = {"problem.dim"} | {f"train.{f.name}" for f in dataclasses.fields(train_mod.TrainConfig)}
    real |= {f"{section}.{option}" for spec in cli._COMMANDS.values()
             for section in ("sweep", "theory") if section in spec.sections for option in spec.options}
    assert set(cli._SIZES) <= real, sorted(set(cli._SIZES) - real)


class TestApproxProbe:
    def test_fit_history_written(self, tmp_path):
        doc = {
            "command": "approx-probe",
            "problem": solve_config()["problem"],
            "u_arch": {"widths": [1, 8, 1]},
            "train": {"outer_steps": 50, "eval_every": 25, "lr_u": 0.01, "seed": 2},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.run(cfg, out_dir=str(out), quiet=True) == 0
        header, rows = read_rows(out / "fit_history.csv")
        assert header == ["step", "h1_distance"]
        assert [r[0] for r in rows] == ["0", "25", "50"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["h1_distance"] == min(float(r[1]) for r in rows)
        assert net.load_checkpoint(str(out / "fit.json")).arch.widths == (1, 8, 1)

    def test_overflowing_target_names_no_sample(self, tmp_path, capsys):
        # a target of 1e200 sin(pi x) overflows the squares of the held-out H1
        # estimate, which belongs to no sample, and warns of nothing
        doc = copy.deepcopy(TINY["approx-probe"])
        doc["problem"]["u_exact"] = "1e200*sin(pi*x1)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(write_config(tmp_path, doc), out_dir=str(tmp_path / "out"), quiet=True)
        assert code == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: non-finite value in H1 estimate term\n", err

    def test_fits_and_scores_over_the_problems_domain(self, tmp_path):
        # u* = 1/(x1 - 0.2) has H1 norm 6.58 over the ball; it is singular at
        # 0.2, and this fit scored over the unit interval reads 191
        problem = dict(_PROBLEM, u_exact="1/(x1 - 0.2)", domain={"kind": "ball", "center": [0.5], "radius": 0.1})
        doc = dict(TINY["approx-probe"], problem=problem)
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path, doc), out_dir=str(out), quiet=True) == 0
        _, rows = read_rows(out / "fit_history.csv")
        assert all(float(d) < 20.0 for _, d in rows)

    def test_requires_manufactured_problem(self, tmp_path, capsys):
        doc = {
            "command": "approx-probe",
            "problem": {
                "dim": 1, "domain": {"kind": "hypercube"}, "c": "1",
                "alpha": 1.0, "beta": 1.0, "f": "1",
            },
        }
        cfg = write_config(tmp_path, doc)
        assert cli.run(cfg, out_dir=str(tmp_path / "out"), quiet=True) == 2
        assert "u_exact" in capsys.readouterr().err


# configs whose networks overflow: each printed numpy's RuntimeWarnings before
# it exited 3, and under ``python -W error`` ended in a traceback with exit 1
_OVERFLOWING = {
    "numerical failure: training aborted at outer step 1: non-finite fit gradient norm": {
        "command": "approx-probe", "problem": _PROBLEM, "u_arch": {"widths": [1, 3, 1], "b_theta": 1e200},
        "train": {"optimizer": "sgd", "lr_u": 1e180, "n_interior": 4, "outer_steps": 2, "h1_quad_points": 8},
    },
    "numerical failure: non-finite value in interior integrand term at sample 0": {
        "command": "theory-check", "problem": dict(_PROBLEM, dim=2, u_exact="sin(pi*x1)*sin(pi*x2)"),
        "u_arch": {"widths": [2, 8, 8, 1], "b_theta": 1e200},
        "theory": {"probes": 20, "rademacher_sets": 3, "sta_trials": 1, "sta_n": 16, "sta_probes": 2},
    },
    # on a pool of two threads
    "numerical failure: training aborted at outer step 1: non-finite interior u (sample 0)": {
        "command": "convergence-study", "problem": _PROBLEM,
        "u_arch": {"widths": [1, 3, 1], "b_theta": 1e200, "activation": "relu2"},
        "v_arch": {"widths": [1, 3, 1], "b_theta": 2},
        "train": {"optimizer": "sgd", "lr_u": 1e180, "lr_v": 1e-3, "outer_steps": 2, "inner_steps": 1,
                  "eval_every": 2, "h1_quad_points": 8, "h1_ball_radius": "inf"},
        "sweep": {"n_values": [4, 8], "seeds": [0], "eval_quad": 16},
    },
}

# valid configs that ended in a traceback with exit 1: a beta * a(0) that
# underflows to 0 in the finite-difference oracle's ghost rows, and a ball
# whose volume formula overflows
_TRACEBACKS = [
    (3, "numerical failure: finite-difference system: divide by zero encountered in scalar divide", {
        "command": "penalty-study",
        "problem": {"dim": 1, "domain": {"kind": "hypercube"}, "a": [["0.5"]], "c": "1", "alpha": 1.0,
                    "beta": 1.0, "f": "1"},
        "sweep": {"betas": [5e-324, 0.1], "grid_n": 16},
    }),
    (2, "config error: problem: a ball of radius 0.5 in dim 400 has a volume or surface outside the positive"
        " float range", {
        "command": "approx-probe",
        "problem": dict(_PROBLEM, dim=400, domain={"kind": "ball", "center": [0.5] * 400, "radius": 0.5},
                        u_exact="x1"),
        "train": {"n_interior": 8, "outer_steps": 1, "h1_quad_points": 8},
    }),
]

# run under ``-W error``: ``cli.main`` on each config path, with what it
# wrote to stderr; a warning that escapes ends the loop in a traceback
_MAIN_LOOP = """
import contextlib, io, json, sys
from weakgal import cli
results = []
for path, out in zip(sys.argv[1::2], sys.argv[2::2]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([path, "--out", out, "--quiet"])
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def _run_under_w_error(args):
    """``python -W error`` on ``args`` in a child process, on a pool of two threads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), WG_THREADS="2")
    return subprocess.run([sys.executable, "-W", "error", *args], env=env, capture_output=True, text=True, timeout=300)


class TestNoWarningLeavesARun:
    def test_module_entry_point_runs_silently(self, tmp_path):
        proc = _run_under_w_error(["-m", "weakgal", write_config(tmp_path, TINY["solve"]),
                                   "--out", str(tmp_path / "out"), "--quiet"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_every_command_and_every_overflow_exits_without_a_warning(self, tmp_path):
        docs = [(doc, 0, "") for command, doc in TINY.items() if command != "solve"]
        docs += [(doc, 3, line + "\n") for line, doc in _OVERFLOWING.items()]
        docs += [(doc, code, line + "\n") for code, line, doc in _TRACEBACKS]
        args = []
        for i, (doc, _, _) in enumerate(docs):
            args += [write_config(tmp_path, doc, f"config{i}.json"), str(tmp_path / f"out{i}")]
        proc = _run_under_w_error(["-c", _MAIN_LOOP, *args])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == [[code, err] for _, code, err in docs]


def test_cli_module_runs_a_config(tmp_path):
    # runpy warns that weakgal.cli was imported before it ran; the run is the same
    proc = subprocess.run(
        [sys.executable, "-m", "weakgal.cli", write_config(tmp_path, TINY["solve"]),
         "--out", str(tmp_path / "out"), "--quiet"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("error", [ZeroDivisionError("float division by zero"),
                                   OverflowError("math range error"), FloatingPointError("overflow")])
def test_any_arithmetic_error_exits_3_with_one_line(tmp_path, monkeypatch, capsys, error):
    def failing(*args, **kwargs):
        raise error

    spec = cli._COMMANDS["penalty-study"]
    monkeypatch.setitem(cli._COMMANDS, "penalty-study", dataclasses.replace(spec, run=failing))
    assert cli.run(write_config(tmp_path, TINY["penalty-study"]), out_dir=str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == f"numerical failure: {error}\n"


class TestResources:
    @pytest.fixture(autouse=True)
    def fresh_policy(self):
        # the process policies are applied once per process; each test starts
        # over, and the next caller re-applies the real ones
        cli.apply_process_policy.cache_clear()
        yield
        cli.apply_process_policy.cache_clear()

    def run_tiny(self, tmp_path, name="out"):
        cfg = write_config(tmp_path, TINY["solve"])
        assert cli.run(cfg, out_dir=str(tmp_path / name), quiet=True) == 0
        return json.loads((tmp_path / name / "manifest.json").read_text())["resources"]

    def test_manifest_reports_resources_and_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WG_THREADS", "1")
        res = self.run_tiny(tmp_path)
        assert res["peak_rss_mb"] > 0
        assert isinstance(res["minor_faults"], int) and res["minor_faults"] >= 0
        assert res["heap_policy"] is (platform.libc_ver()[0] == "glibc")
        assert res["python"] == platform.python_version()
        assert res["numpy"] == np.__version__
        assert isinstance(res["blas"], str) and res["blas"]
        assert res["blas_threads"] in (1, None)
        assert res["cpu_count"] == os.cpu_count()
        assert res["WG_THREADS"] == "1"

    def test_heap_policy_is_applied_once(self, tmp_path, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli, "_mallopt", lambda: mallopt)
        assert self.run_tiny(tmp_path, "a")["heap_policy"] is True
        assert self.run_tiny(tmp_path, "b")["heap_policy"] is True
        assert calls == list(cli._HEAP_POLICY)

    def test_heap_policy_without_mallopt_is_a_no_op(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_mallopt", lambda: None)
        assert self.run_tiny(tmp_path)["heap_policy"] is False

    def test_rejected_threshold_reports_false(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_mallopt", lambda: lambda param, value: 0)
        assert self.run_tiny(tmp_path)["heap_policy"] is False

    def test_blas_is_pinned_to_one_thread_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_blas_setter", lambda: calls.append)
        assert self.run_tiny(tmp_path, "a")["blas_threads"] == 1
        assert self.run_tiny(tmp_path, "b")["blas_threads"] == 1
        assert calls == [1]

    def test_a_second_call_reports_the_same_and_sets_nothing(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli, "_mallopt", lambda: mallopt)
        monkeypatch.setattr(cli, "_blas_setter", lambda: calls.append)
        assert weakgal.apply_process_policy() == (True, 1)
        assert calls == [*cli._HEAP_POLICY, 1]
        assert weakgal.apply_process_policy() == (True, 1)
        assert calls == [*cli._HEAP_POLICY, 1]

    def test_importing_weakgal_applies_no_policy(self):
        code = "import weakgal; assert weakgal.apply_process_policy.cache_info().currsize == 0"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_info is glibc's")
    def test_threads_started_after_the_policy_share_one_heap(self):
        # a heap per thread keeps what its thread freed, and how many heaps a
        # process ends with depends on when its threads exited
        code = """if True:
            import ctypes, re, tempfile, threading
            import numpy as np, weakgal
            assert weakgal.apply_process_policy()[0]
            for _ in range(3):
                threads = [threading.Thread(target=lambda: [np.ones(50000) for _ in range(20)]) for _ in range(4)]
                for t in threads: t.start()
                for t in threads: t.join()
            libc = ctypes.CDLL(None)
            libc.fopen.restype, libc.fopen.argtypes = ctypes.c_void_p, (ctypes.c_char_p, ctypes.c_char_p)
            libc.malloc_info.argtypes, libc.fclose.argtypes = (ctypes.c_int, ctypes.c_void_p), (ctypes.c_void_p,)
            with tempfile.NamedTemporaryFile("r") as out:
                fh = libc.fopen(out.name.encode(), b"w")
                libc.malloc_info(0, fh)
                libc.fclose(fh)
                print(len(re.findall('<heap nr=', out.read())))
        """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                              capture_output=True, text=True)
        assert done.stdout.split() == ["1"]

    def test_blas_threads_without_a_setter_is_a_no_op(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_blas_setter", lambda: None)
        assert self.run_tiny(tmp_path)["blas_threads"] is None

    @pytest.mark.skipif(np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name") != "scipy-openblas",
                        reason="numpy is not built on its bundled scipy-openblas")
    def test_bundled_openblas_setter_is_found(self):
        assert cli._blas_setter() is not None


# key names an inserted key is drawn from: those of the tiny configs and the optional ones
_CONFIG_KEYS = sorted(
    {"a", "b", "f", "g", "bc_kind", "center", "radius", "activation", "recipe", "epsilon", "mu",
     "seed", "optimizer", "lr_u", "h1_ball_radius", "output_dir", "bogus"}
    | set(SECTIONS) | {k for doc in TINY.values() for k in doc}
    | {k for doc in TINY.values() for sec in doc.values() if isinstance(sec, dict) for k in sec}
)
_NUMBERS = st.integers(-2, 9) | st.floats()
_LEAVES = st.one_of(
    st.none(), st.booleans(), _NUMBERS, st.text(max_size=6),
    st.sampled_from(["inf", "x1", "1/x1", "sin(pi*x1)", "exp(800*x1)", "x1^2^3", "01", "x1**2",
                     "ball", "neumann", "dirichlet", "relu2", "logistic", "identity", "zero", "sgd"]),
)
# generated objects have random keys, so a replaced section never falls back
# to its (long-running) defaults
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, min_size=1, max_size=2),
    max_leaves=5,
)


def _slots(node, path=()):
    """(path of a container, key or index in it) for every value in a config."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path, key
        yield from _slots(value, path + (key,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def _mutated_configs(draw):
    """A tiny config with one value replaced, or one key inserted, at any depth."""
    doc = copy.deepcopy(TINY[draw(st.sampled_from(sorted(TINY)))])
    slots = list(_slots(doc))
    if draw(st.booleans()):
        path, key = draw(st.sampled_from(slots))
        old = _at(doc, path)[key]
        # values of the old one's type get past the type checks to the range checks and the run
        if isinstance(old, bool):
            alike = st.booleans()
        else:
            alike = _NUMBERS if isinstance(old, (int, float)) else _JSON
        value = draw(alike | _JSON)
    else:
        objects = [()] + [p + (k,) for p, k in slots if isinstance(_at(doc, p + (k,)), dict)]
        path, key = draw(st.sampled_from(objects)), draw(st.sampled_from(_CONFIG_KEYS))
        value = draw(_JSON)
    _at(doc, path)[key] = value
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_mutated_configs())
def test_any_one_key_edit_exits_0_2_or_3(doc):
    """Whatever one key holds, a run exits 0, 2 or 3 and raises nothing.

    Integers come from [-2, 9] and the tiny configs keep every step, probe and
    grid count small, so each example takes milliseconds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            code = cli.run(path, out_dir=os.path.join(tmp, "out"), quiet=True)
    assert code in (0, 2, 3)


# small integers, or ones from 2**20 up, where a dim's d^2 expressions outgrow
# any memory; a dim in between fits, and building its problem takes seconds
_WIDE_INTEGERS = st.integers(-2, 9) | st.integers(2**20, 2**62)


@st.composite
def _widened_configs(draw):
    """A command and its tiny config with one value, at any depth, replaced by
    an integer up to 2**62."""
    command = draw(st.sampled_from(sorted(TINY)))
    doc = copy.deepcopy(TINY[command])
    path, key = draw(st.sampled_from(list(_slots(doc))))
    _at(doc, path)[key] = draw(_WIDE_INTEGERS)
    return command, doc


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_widened_configs())
def test_any_one_wide_integer_is_validated_without_an_allocation(case):
    """Validation returns or raises a config or evaluation error whatever
    size one key holds: every size is bounded before anything it sets is
    allocated.  Only validation runs, so the sizes need not be small."""
    command, doc = case
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            cli._build_sections(doc, command, None)
        except (cli.ConfigError, expr.EvalError):
            pass

