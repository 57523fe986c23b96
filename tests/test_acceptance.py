"""Acceptance suite: nine go/no-go checks for the solver and its bound lab.

Each test prints one ``[acceptance] criterion N ...: PASS`` line (visible under
``pytest -s``) and enforces the criterion's runtime budget.  Tolerances are
fixed here on purpose; loosening them is a contract change, not a test fix.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from weakgal import cli, expr, loss as loss_mod, network as net, oracle, pde, theory, train


def _elapsed_line(n, name, t0, budget):
    took = time.perf_counter() - t0
    assert took < budget, f"criterion {n} exceeded its {budget:.0f}s budget ({took:.1f}s)"
    print(f"[acceptance] criterion {n} ({name}): PASS ({took:.1f}s)")


def _rand_arch(rng, max_depth=4, max_width=8, b_theta=2.0):
    d = int(rng.integers(1, 4))
    depth = int(rng.integers(1, max_depth))
    widths = (d,) + tuple(int(rng.integers(2, max_width + 1)) for _ in range(depth)) + (1,)
    activation = net.TANH if rng.random() < 0.5 else net.LOGISTIC
    return net.NetworkArch(widths=widths, activation=activation, b_theta=b_theta)


def _poisson_mass_problem(dim, u_text, beta=1.0, bc_kind="robin"):
    return pde.manufactured_problem(
        expr.parse(u_text, dim),
        pde.identity_matrix(dim),
        pde.constant_vector(dim, 0.0),
        expr.parse("1", dim),
        1.0,
        beta,
        pde.unit_hypercube(dim),
        bc_kind,
    )


# criterion 7/8 regression pins: stabilizer knobs left free by the contract.
# The gates hold because the solver returns the average of its final-quarter
# trial iterates, which meets them across seeds, not because of one seed's
# last iterate or one platform's float rounding.
PINNED_1D_KNOBS = dict(
    adam_beta1=0.0,
    adam_beta2=0.9,
    adam_eps=3e-3,
    h1_ball_radius=3.0,
    v_restart_every=1000,
)
PINNED_2D = dict(
    widths=(2, 20, 20, 1),
    n=256,
    outer_steps=8000,
    seed=11,
    lr=3e-3,
    inner_steps=3,
    knobs=dict(adam_beta1=0.0, adam_beta2=0.9, adam_eps=3e-3, h1_ball_radius=3.0),
)
CONV_STUDY = dict(
    widths=(1, 12, 12, 1),
    outer_steps=1200,
    seeds=(0, 1, 2, 3, 4),
    n_small=64,
    n_large=4096,
    knobs=dict(adam_beta1=0.0, adam_beta2=0.9, adam_eps=3e-3, h1_ball_radius=3.0),
)


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)

    # spatial gradients on 20 random nets
    h = 1e-6
    for _ in range(20):
        arch = _rand_arch(rng)
        p = net.init(arch, int(rng.integers(1 << 31)))
        x = rng.uniform(0.1, 0.9, size=(3, arch.dim))
        _, grads = net.forward_dual_batch(p, x)
        for i in range(arch.dim):
            xp, xm = x.copy(), x.copy()
            xp[:, i] += h
            xm[:, i] -= h
            fd = (net.forward_dual_batch(p, xp)[0] - net.forward_dual_batch(p, xm)[0]) / (2 * h)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(grads[:, i] - fd).max() / scale <= 1e-6

    # parameter backprop on 20 random nets
    h = 1e-5
    for _ in range(20):
        arch = _rand_arch(rng)
        p = net.init(arch, int(rng.integers(1 << 31)))
        X = rng.uniform(0.1, 0.9, size=(4, arch.dim))
        w = rng.normal(size=4)
        s = rng.normal(size=(4, arch.dim))
        g = net.backprop_tape(net.forward_tape(p, X), w, s)
        flat0 = p.flat

        def functional(flat):
            vals, grads = net.forward_dual_batch(net.flat_to_params(arch, flat), X)
            return float(np.sum(w * vals) + np.sum(s * grads))

        for i in rng.choice(flat0.size, size=min(10, flat0.size), replace=False):
            fp, fm = flat0.copy(), flat0.copy()
            fp[i] += h
            fm[i] -= h
            fd = (functional(fp) - functional(fm)) / (2 * h)
            assert abs(g[i] - fd) <= 1e-4 * (1.0 + abs(fd))

    # full objective gradients on 20 random net pairs over a shared 2D problem
    problem = pde.manufactured_problem(
        expr.parse("sin(pi*x1)*x2^2", 2),
        ((expr.parse("1+0.5*x1^2", 2), expr.parse("0.1*x1*x2", 2)),
         (expr.parse("0.1*x1*x2", 2), expr.parse("1+0.5*x2^2", 2))),
        (expr.parse("0.3", 2), expr.parse("-0.2", 2)),
        expr.parse("1+x1", 2),
        0.7,
        0.9,
        pde.unit_hypercube(2),
        "robin",
    )
    batch = pde.sample_batch(problem.domain, 24, 24, 77)
    for _ in range(20):
        arch_u = _rand_arch(rng)
        arch_v = _rand_arch(rng)
        arch_u = net.NetworkArch(widths=(2,) + arch_u.widths[1:], activation=arch_u.activation, b_theta=2.0)
        arch_v = net.NetworkArch(widths=(2,) + arch_v.widths[1:], activation=arch_v.activation, b_theta=2.0)
        u = net.init(arch_u, int(rng.integers(1 << 31)))
        v = net.init(arch_v, int(rng.integers(1 << 31)))
        gu, gv, _ = loss_mod.loss_gradients(u, v, problem, batch)

        for params, arch, grad, other, is_u in (
            (u, arch_u, gu, v, True),
            (v, arch_v, gv, u, False),
        ):
            flat0 = params.flat
            for i in rng.choice(flat0.size, size=min(6, flat0.size), replace=False):
                fp, fm = flat0.copy(), flat0.copy()
                fp[i] += h
                fm[i] -= h
                pp = net.flat_to_params(arch, fp)
                pm = net.flat_to_params(arch, fm)
                if is_u:
                    lp = loss_mod.empirical_loss(pp, other, problem, batch).total
                    lm = loss_mod.empirical_loss(pm, other, problem, batch).total
                else:
                    lp = loss_mod.empirical_loss(other, pp, problem, batch).total
                    lm = loss_mod.empirical_loss(other, pm, problem, batch).total
                fd = (lp - lm) / (2 * h)
                assert abs(grad[i] - fd) <= 1e-4 * (1.0 + abs(fd))

    _elapsed_line(1, "gradient correctness", t0, 60.0)


def test_criterion_2_penalty_rate():
    t0 = time.perf_counter()
    problem = _poisson_mass_problem(1, "sin(pi*x1)", bc_kind="dirichlet")
    betas = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    study = oracle.penalty_rate_study(problem, betas, n=2048)
    assert study.monotone, f"errors not monotone: {study.errors}"
    assert study.slope >= 0.35, f"log-log slope {study.slope:.3f} < 0.35"
    assert study.within_half_rate, "error exceeds C_fit * sqrt(beta)"
    _elapsed_line(2, "penalty rate", t0, 60.0)


def test_criterion_3_lipschitz_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    probes_per_lemma = 0
    for k in range(10):
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))  # hidden layers; total D <= 4
        widths = (d,) + tuple(int(rng.integers(2, 9)) for _ in range(depth)) + (1,)
        b_theta = float(rng.uniform(1.0, 2.0))
        arch = net.NetworkArch(widths=widths, activation=net.TANH, b_theta=b_theta)
        reports = theory.lipschitz_probe(arch, n_probes=1000, seed=[3, k])
        assert {r.lemma for r in reports} == {
            "value_weight_lipschitz", "gradient_sup", "gradient_weight_lipschitz",
        }
        for r in reports:
            # empirical is the max over probes, so holds == zero violations
            assert r.holds, f"{r.lemma} violated: {r.empirical} > {r.theoretical}"
        probes_per_lemma += 1000
    assert probes_per_lemma == 10_000
    _elapsed_line(3, "Lipschitz bounds", t0, 120.0)


def test_criterion_4_rademacher_machinery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(500):
        m = int(rng.integers(1, 16))
        n = int(rng.integers(1, 13))
        vs = theory.FiniteVectorSet(rng.normal(size=(m, n)) * float(rng.uniform(0.1, 5.0)))
        exact = theory.exact_rademacher(vs)
        bound = theory.massart_bound(vs)
        assert exact <= bound + 1e-12

    assert theory.covering_bound_ball(1.0, 1, 1.0) == 2.0

    ladder, n = [], 64
    while n <= 65536:
        try:
            ladder.append(theory.chaining_bound(12.0, 1365.9, 10, 2.0, n))
        except theory.BoundNotApplicableError:
            ladder.append(None)
        n *= 2
    applicable = [b for b in ladder if b is not None]
    assert len(applicable) >= 3
    assert all(b2 < b1 for b1, b2 in zip(applicable, applicable[1:]))
    _elapsed_line(4, "Rademacher machinery", t0, 60.0)


def test_criterion_5_class_constant_sups():
    t0 = time.perf_counter()
    problems = [
        _poisson_mass_problem(1, "sin(pi*x1)"),
        pde.manufactured_problem(
            expr.parse("sin(pi*x1)*x2^2", 2),
            ((expr.parse("1+0.5*x1^2", 2), expr.parse("0.1*x1*x2", 2)),
             (expr.parse("0.1*x1*x2", 2), expr.parse("1+0.5*x2^2", 2))),
            (expr.parse("0.3", 2), expr.parse("-0.2", 2)),
            expr.parse("1+x1", 2),
            0.7,
            0.9,
            pde.unit_hypercube(2),
            "robin",
        ),
    ]
    for pi, problem in enumerate(problems):
        arch = net.NetworkArch(
            widths=(problem.dim, 4, 4, 1), activation=net.TANH, b_theta=2.0
        )
        reports = theory.empirical_class_sups(arch, problem, n_probes=5000, seed=[5, pi])
        assert len(reports) == 6
        for r in reports:
            assert r.lemma.startswith("class_sup_")
            assert r.holds, f"{r.lemma} violated: {r.empirical} > {r.theoretical}"
    _elapsed_line(5, "class constant sups", t0, 120.0)


@pytest.mark.slow
def test_criterion_6_statistical_error_direction():
    t0 = time.perf_counter()
    configs = [
        (net.NetworkArch(widths=(1, 4, 1), activation=net.TANH, b_theta=2.0),
         _poisson_mass_problem(1, "sin(pi*x1)")),
        (net.NetworkArch(widths=(2, 4, 1), activation=net.TANH, b_theta=2.0),
         _poisson_mass_problem(2, "sin(pi*x1)*sin(pi*x2)")),
    ]
    for ci, (arch, problem) in enumerate(configs):
        means = []
        for n_samples in (64, 128, 256):
            est = theory.empirical_sta_error(
                arch, problem, n_samples=n_samples, trials=20,
                probe_budget=10, seed=[6, ci],
            )
            assert est.ratio <= 1.0, (
                f"empirical {est.empirical} above bound {est.theoretical} at N={n_samples}"
            )
            means.append(est.empirical)
        for m_small, m_big in zip(means, means[1:]):
            assert m_big <= 1.10 * m_small, f"means increased with N: {means}"
    _elapsed_line(6, "statistical error direction", t0, 300.0)


@pytest.mark.slow
def test_criterion_7_solver_regressions():
    t0 = time.perf_counter()

    # pinned 1D run (all hyperparameters fixed by contract except the free
    # stabilizer knobs pinned at the top of this file)
    u_star = expr.parse("sin(pi*x1)", 1)
    problem = _poisson_mass_problem(1, "sin(pi*x1)")
    arch_u = net.NetworkArch(widths=(1, 20, 20, 1), activation=net.TANH, b_theta=10.0)
    arch_v = net.NetworkArch(widths=(1, 20, 20, 1), activation=net.TANH, b_theta=2.0)
    cfg = train.TrainConfig(
        n_interior=256, m_boundary=256, outer_steps=5000, inner_steps=2,
        optimizer="adam", lr_u=1e-3, lr_v=1e-3, eval_every=500, seed=7,
        **PINNED_1D_KNOBS,
    )
    result = train.minimax_train(problem, arch_u, arch_v, cfg, u_ref=u_star)
    ref_h1 = math.sqrt(0.5 + math.pi**2 / 2.0)
    err = loss_mod.h1_error(result.u, u_star, problem.domain, n_quad=65536, seed=[12345, 0])
    rel_h1 = err.h1 / ref_h1
    assert rel_h1 <= 0.15, f"1D pinned run: relative H1 error {rel_h1:.4f} > 0.15"

    # pinned 2D Dirichlet-via-penalty run, scored in relative L2
    u2 = expr.parse("sin(pi*x1)*sin(pi*x2)", 2)
    problem2 = _poisson_mass_problem(2, "sin(pi*x1)*sin(pi*x2)", beta=1e-2, bc_kind="dirichlet")
    p2 = PINNED_2D
    arch2_u = net.NetworkArch(widths=p2["widths"], activation=net.TANH, b_theta=10.0)
    arch2_v = net.NetworkArch(widths=p2["widths"], activation=net.TANH, b_theta=2.0)
    cfg2 = train.TrainConfig(
        n_interior=p2["n"], m_boundary=p2["n"], outer_steps=p2["outer_steps"],
        inner_steps=p2["inner_steps"], optimizer="adam", lr_u=p2["lr"], lr_v=p2["lr"],
        eval_every=500, seed=p2["seed"], **p2["knobs"],
    )
    result2 = train.minimax_train(problem2, arch2_u, arch2_v, cfg2, u_ref=u2)
    err2 = loss_mod.h1_error(result2.u, u2, problem2.domain, n_quad=65536, seed=[12345, 0])
    rel_l2 = err2.l2_part / 0.5  # ||sin*sin||_L2 over the unit square
    assert rel_l2 <= 0.15, f"2D pinned run: relative L2 error {rel_l2:.4f} > 0.15"

    _elapsed_line(7, "solver regressions", t0, 900.0)


@pytest.mark.slow
def test_criterion_8_convergence_study_property(tmp_path):
    # the ten trainings and their scoring at 65,536 points are one
    # convergence-study run (eval_quad's default), on the command's worker pool
    t0 = time.perf_counter()
    cs = CONV_STUDY
    doc = {
        "command": "convergence-study",
        "problem": {
            "dim": 1, "domain": {"kind": "hypercube"}, "c": "1",
            "alpha": 1.0, "beta": 1.0, "u_exact": "sin(pi*x1)",
        },
        "u_arch": {"widths": list(cs["widths"]), "activation": "tanh", "b_theta": 10.0},
        "v_arch": {"widths": list(cs["widths"]), "activation": "tanh", "b_theta": 2.0},
        "train": {
            "outer_steps": cs["outer_steps"], "inner_steps": 2, "lr_u": 1e-3, "lr_v": 1e-3,
            "eval_every": cs["outer_steps"], **cs["knobs"],
        },
        "sweep": {"n_values": [cs["n_small"], cs["n_large"]], "seeds": list(cs["seeds"])},
    }
    cfg_path = tmp_path / "convergence.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.run(str(cfg_path), out_dir=str(out), quiet=True) == 0
    assert json.loads((out / "manifest.json").read_text())["results"]["eval_quad"] == 65536
    errs = {}
    with open(out / "convergence.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            errs.setdefault(int(row["n_samples"]), []).append(float(row["h1_error"]))
    assert {n: len(e) for n, e in errs.items()} == {cs["n_small"]: 5, cs["n_large"]: 5}

    med_small = float(np.median(errs[cs["n_small"]]))
    med_large = float(np.median(errs[cs["n_large"]]))
    assert med_large <= med_small, (
        f"median H1 error did not improve: N={cs['n_small']} gives {med_small:.4f}, "
        f"N={cs['n_large']} gives {med_large:.4f}"
    )
    _elapsed_line(8, "convergence study property", t0, 1800.0)


def test_criterion_9_csv_determinism(tmp_path):
    t0 = time.perf_counter()

    solve_doc = {
        "command": "solve",
        "problem": {
            "dim": 1, "domain": {"kind": "hypercube"}, "c": "1",
            "alpha": 1.0, "beta": 1.0, "u_exact": "sin(pi*x1)",
        },
        "u_arch": {"widths": [1, 8, 1]},
        "v_arch": {"widths": [1, 8, 1]},
        "train": {"n_interior": 32, "m_boundary": 32, "outer_steps": 30,
                  "eval_every": 10, "seed": 5},
    }
    penalty_doc = {
        "command": "penalty-study",
        "problem": {
            "dim": 1, "domain": {"kind": "hypercube"}, "c": "1",
            "alpha": 1.0, "beta": 1.0, "u_exact": "sin(pi*x1)",
            "bc_kind": "dirichlet",
        },
        "sweep": {"betas": [0.1, 0.01, 0.001], "grid_n": 1024},
    }
    theory_doc = {
        "command": "theory-check",
        "problem": solve_doc["problem"],
        "u_arch": {"widths": [1, 4, 1], "b_theta": 2.0},
        "theory": {"probes": 300, "rademacher_sets": 60, "sta_trials": 3,
                   "sta_n": 32, "sta_probes": 5},
    }

    for name, doc, csv_name, drop_last_col in (
        ("solve", solve_doc, "history.csv", True),  # seconds column is wall time
        ("penalty", penalty_doc, "penalty.csv", False),
        ("theory", theory_doc, "theory.csv", False),
    ):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(doc))
        bodies = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            assert cli.run(str(cfg_path), out_dir=str(out), quiet=True) == 0
            text = (out / csv_name).read_text()
            if drop_last_col:
                text = "\n".join(
                    ",".join(line.split(",")[:-1]) for line in text.strip().split("\n")
                )
            bodies.append(text)
        assert bodies[0] == bodies[1], f"{csv_name} differs between identical runs"

    _elapsed_line(9, "CSV determinism", t0, 120.0)
