"""Tests for the alternating minimax trainer and the direct H^1 fitting probe."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakgal import expr, loss as loss_mod, network as net, pde, train


def robin_problem_1d():
    u_star = expr.parse("sin(pi*x1)", 1)
    return u_star, pde.manufactured_problem(
        u_star,
        pde.identity_matrix(1),
        pde.constant_vector(1, 0.0),
        expr.parse("1", 1),
        1.0,
        1.0,
        pde.unit_hypercube(1),
        "robin",
    )


def small_arch(b_theta=10.0, widths=(1, 6, 1)):
    return net.NetworkArch(widths=widths, activation=net.TANH, b_theta=b_theta)


def flat(params):
    return params.flat


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_interior": 0},
            {"m_boundary": 0},
            {"outer_steps": -1},
            {"inner_steps": 0},
            {"optimizer": "rmsprop"},
            {"lr_u": -1e-3},
            {"lr_v": -1.0},
            {"resample_every": -1},
            {"v_restart_every": -2},
            {"eval_every": 0},
            {"h1_quad_points": 1},
            {"h1_ball_radius": 0.0},
            {"h1_ball_radius": -2.0},
            {"h1_ball_radius": math.nan},
            {"seed": -1},
            {"adam_beta1": 1.0},
            {"adam_beta2": -0.1},
            {"adam_eps": 0.0},
            {"grad_clip_norm": -1.0},
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            train.TrainConfig(**kw)

    def test_defaults_are_valid(self):
        cfg = train.TrainConfig()
        assert cfg.optimizer == "adam"
        assert cfg.outer_steps == 1000


def _reference_update(state, params, grad, direction, config, lr):
    """``_Optimizer.update`` as plain expressions, each building a new array."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(grad))
    if config.grad_clip_norm > 0 and norm > config.grad_clip_norm:
        grad = grad * (config.grad_clip_norm / norm)
    if config.optimizer == "sgd":
        new = params.flat + direction * lr * grad
    else:
        b1, b2 = config.adam_beta1, config.adam_beta2
        state["t"] += 1
        state["m"] = b1 * state["m"] + (1.0 - b1) * grad
        state["v"] = b2 * state["v"] + (1.0 - b2) * grad * grad
        m_hat = state["m"] / (1.0 - b1 ** state["t"])
        v_hat = state["v"] / (1.0 - b2 ** state["t"])
        new = params.flat + direction * lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return net.clip_weights(net.NetworkParams(params.arch, new)), norm


def _same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("grad_clip_norm", [0.0, 0.5])
@pytest.mark.parametrize("knobs", [{}, {"adam_beta1": 0.0, "adam_beta2": 0.9, "adam_eps": 3e-3}])
def test_optimizer_update_keeps_the_bits_of_the_plain_expressions(optimizer, grad_clip_norm, knobs):
    arch = small_arch(b_theta=2.0, widths=(2, 5, 4, 1))
    config = train.TrainConfig(optimizer=optimizer, grad_clip_norm=grad_clip_norm, **knobs)
    rng = np.random.default_rng([len(optimizer), int(10 * grad_clip_norm), len(knobs)])
    start = rng.uniform(-2.0, 2.0, arch.n_params())
    start[::4], start[1::4], start[2::9] = 2.0, -2.0, -0.0  # on the box's faces, and -0.0
    for lr, direction in ((0.5, 1.0), (1e-3, -1.0)):  # steps past the box, and small ones
        opt = train._Optimizer(config, arch.n_params(), lr, "grad")
        state = {"m": np.zeros(arch.n_params()), "v": np.zeros(arch.n_params()), "t": 0}
        got = want = net.NetworkParams(arch, start.copy())
        for k in range(6):
            grad = rng.standard_normal(arch.n_params()) * (0.05 if k % 2 else 3.0)  # clipped or not
            grad[::3] = -0.0
            grad[1::7] = 0.0
            before = grad.copy()
            got, got_norm = opt.update(got, grad, direction)
            want, want_norm = _reference_update(state, want, grad, direction, config, lr)
            _same_bits(grad, before)  # the caller's gradient is left alone
            assert got_norm == want_norm
            _same_bits(got.flat, want.flat)
            if optimizer == "adam":
                _same_bits(opt.m, state["m"])
                _same_bits(opt.v, state["v"])
        assert np.abs(got.flat).max() <= arch.b_theta and not got.flat.flags.writeable


def _uniform_params(arch, seed, s):
    """Every weight, biases included, uniform in (-s, s) and clipped to the box."""
    rng = np.random.default_rng(seed)
    return net.flat_to_params(arch, np.clip(rng.uniform(-s, s, arch.n_params()), -arch.b_theta, arch.b_theta))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    activation=st.sampled_from([net.TANH, net.LOGISTIC]),
    hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3),  # depth 2-4
    d=st.integers(1, 3),
    weight_scale=st.floats(0.1, 3.0),
    log_move=st.floats(-6.0, 0.0),
    seed=st.integers(0, 2**16),
)
def test_move_bound_covers_the_h1_estimate(activation, hidden, d, weight_scale, log_move, seed):
    """sup |f - f_a| and sup |grad f - grad f_a| stay under the bound at sampled
    points, so the RMS H^1 estimate moves by at most sqrt(volume) * hypot(B)."""
    arch = net.NetworkArch(widths=(d, *hidden, 1), activation=activation, b_theta=10.0)
    anchor = _uniform_params(arch, seed, weight_scale)
    rng = np.random.default_rng(seed)
    flat_a = anchor.flat
    moved = net.flat_to_params(arch, flat_a + 10.0**log_move * rng.standard_normal(flat_a.shape))
    X = rng.uniform(-1.0, 1.0, size=(64, d))
    b_val, b_grad = train._MoveBound(anchor, float(np.max(np.linalg.norm(X, axis=1))))(moved)

    (va, ga), (vm, gm) = net.forward_dual_batch(anchor, X), net.forward_dual_batch(moved, X)
    assert np.max(np.abs(vm - va)) <= b_val
    assert np.max(np.linalg.norm(gm - ga, axis=1)) <= b_grad

    def h1(vals, grads):  # the trainer's estimate on a unit-volume domain
        return math.sqrt(np.mean(vals**2 + np.sum(grads**2, axis=1)))

    assert h1(vm, gm) <= h1(va, ga) + math.hypot(b_val, b_grad)


def _reference_move_bound(bound, params):
    """``train._MoveBound.__call__`` as plain per-layer code with np.linalg.norm."""
    act = params.arch.activation
    delta = eps = 0.0
    g = 1.0
    layers = zip(bound.anchor.layers, params.layers, bound.norms, bound.inputs, bound.jacobians)
    for (A_a, b_a), (A, b), a_a, h_a, g_a in layers:
        dA, db = A - A_a, b - b_a
        rows = np.linalg.norm(dA, axis=1)
        d_a = float(np.linalg.norm(rows))
        a = a_a + d_a
        z = a * delta + d_a * h_a + float(np.linalg.norm(db))
        grad_move = a * eps + d_a * g_a
        z_max = float(np.max(np.linalg.norm(A, axis=1) * delta + rows * h_a + np.abs(db)))
        eps = act.l_rho_prime * z_max * a * g + act.b_rho_prime * grad_move
        delta = act.l_rho * z
        g *= act.b_rho_prime * a
    return z, grad_move


def test_move_bound_keeps_the_bits_of_np_linalg_norm():
    rng = np.random.default_rng(21)
    hidden_choices = [(), (1,), (6,), (5, 1, 3), (7, 6), (4, 1), (20, 20)]
    for case in range(240):
        d = int(rng.integers(1, 4))
        hidden = hidden_choices[case % len(hidden_choices)]
        activation = (net.TANH, net.LOGISTIC)[case % 2]
        arch = net.NetworkArch(widths=(d,) + hidden + (1,), activation=activation, b_theta=10.0)
        anchor_flat = rng.uniform(-3.0, 3.0, arch.n_params())
        anchor_flat[::7] = -0.0
        move = 10.0 ** rng.uniform(-9.0, 0.0) * rng.standard_normal(arch.n_params())
        moved_flat = anchor_flat + move
        moved_flat[::5] = anchor_flat[::5]  # entries that do not move, -0.0 among them
        moved_flat[3::11] = -0.0
        bound = train._MoveBound(net.NetworkParams(arch, anchor_flat), float(rng.uniform(0.5, 2.0)))
        for params in (net.flat_to_params(arch, moved_flat), net.flat_to_params(arch, anchor_flat)):
            got, want = bound(params), _reference_move_bound(bound, params)
            assert got == want, (case, got, want)
            assert all(type(x) is float for x in got)


def test_move_bound_is_zero_without_a_move_and_inf_for_relu():
    arch = net.NetworkArch(widths=(2, 5, 4, 1), activation=net.TANH, b_theta=2.0)
    p = net.init(arch, 3)
    assert train._MoveBound(p, 1.5)(net.flat_to_params(arch, p.flat)) == (0.0, 0.0)
    for name in ("relu", "relu2"):
        relu = net.NetworkArch(widths=(2, 5, 4, 1), activation=net.activation_by_name(name), b_theta=2.0)
        q = net.init(relu, 3)
        assert train._MoveBound(q, 1.5)(q) == (math.inf, math.inf)


class TestMinimaxTrain:
    def test_zero_steps_returns_clipped_init(self):
        _, prob = robin_problem_1d()
        ua, va = small_arch(b_theta=1.0), small_arch(b_theta=1.0)
        cfg = train.TrainConfig(outer_steps=0, seed=11)
        res = train.minimax_train(prob, ua, va, cfg)
        assert res.history == []
        ss_u, ss_v = np.random.SeedSequence(11).spawn(5)[:2]
        exp_u = net.clip_weights(net.init(ua, ss_u))
        exp_v = net.clip_weights(net.init(va, ss_v))
        np.testing.assert_array_equal(flat(res.u), flat(exp_u))
        np.testing.assert_array_equal(flat(res.v), flat(exp_v))

    def test_bitwise_deterministic(self):
        u_star, prob = robin_problem_1d()
        cfg = train.TrainConfig(
            n_interior=32, m_boundary=32, outer_steps=25, eval_every=5, seed=42
        )
        runs = [
            train.minimax_train(prob, small_arch(), small_arch(), cfg, u_ref=u_star)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(flat(runs[0].u), flat(runs[1].u))
        np.testing.assert_array_equal(flat(runs[0].v), flat(runs[1].v))
        for r0, r1 in zip(runs[0].history, runs[1].history):
            assert r0.step == r1.step
            assert r0.loss_total == r1.loss_total
            assert r0.h1_error == r1.h1_error
            assert r0.grad_u_norm == r1.grad_u_norm

    def test_history_schema_and_eval_steps(self):
        u_star, prob = robin_problem_1d()
        cfg = train.TrainConfig(
            n_interior=16, m_boundary=16, outer_steps=10, eval_every=4, seed=1
        )
        res = train.minimax_train(prob, small_arch(), small_arch(), cfg, u_ref=u_star)
        assert [r.step for r in res.history] == [4, 8, 10]
        for r in res.history:
            assert math.isfinite(r.loss_total)
            assert r.loss_total == pytest.approx(r.loss_interior + r.loss_boundary)
            assert r.h1_u >= 0.0 and r.h1_v >= 0.0
            assert math.isfinite(r.h1_error)
            assert r.seconds >= 0.0

    def test_samples_quadrature_set_once(self, monkeypatch):
        # h1_u, h1_v and every row's h1_error are estimated on one set
        u_star, prob = robin_problem_1d()
        sizes = []

        def counting(domain, n, seed):
            sizes.append(n)
            return pde.sample_interior(domain, n, seed)

        for mod in (train, loss_mod):
            monkeypatch.setattr(mod, "sample_interior", counting)
        cfg = train.TrainConfig(
            n_interior=16, m_boundary=16, outer_steps=6, eval_every=2, h1_quad_points=333, seed=1
        )
        res = train.minimax_train(prob, small_arch(), small_arch(), cfg, u_ref=u_star)
        assert len(res.history) == 3
        assert sizes.count(333) == 1

    @pytest.mark.parametrize("radius", [math.inf, 0.05])
    def test_row_reads_h1_and_h1_error_from_one_forward(self, monkeypatch, radius):
        u_star, prob = robin_problem_1d()
        calls, rows = [], []
        original = net.forward_dual_batch

        def counting(params, X):
            calls.append((params, X))
            return original(params, X)

        def on_eval(step, u, v, row):
            rows.append((u, v, row, calls[:]))
            calls.clear()

        monkeypatch.setattr(net, "forward_dual_batch", counting)
        cfg = train.TrainConfig(
            n_interior=16, m_boundary=16, outer_steps=20, eval_every=5,
            h1_ball_radius=radius, h1_quad_points=64, seed=1,
        )
        res = train.minimax_train(prob, small_arch(), small_arch(), cfg, u_ref=u_star, on_eval=on_eval)
        assert len(rows) == 4 and (res.projection.fired > 0) == (radius < math.inf)
        for u, v, row, seen in rows:
            if radius == math.inf:  # u's forward for h1_u and h1_error, then v's for h1_v
                assert [p for p, _ in seen] == [u, v]
            # the row's h1_error is that of a fresh estimate of the u it reports
            ref = loss_mod.H1Reference(u_star, seen[0][1], prob.domain.volume)
            assert row.h1_error == ref.distance(u).h1

    def test_h1_error_nan_without_reference(self):
        _, prob = robin_problem_1d()
        cfg = train.TrainConfig(n_interior=16, m_boundary=16, outer_steps=2, eval_every=2, seed=1)
        res = train.minimax_train(prob, small_arch(), small_arch(), cfg)
        assert all(math.isnan(r.h1_error) for r in res.history)

    def test_weights_stay_inside_box(self):
        # aggressive steps against a tight box: every eval sees clipped weights
        _, prob = robin_problem_1d()
        b = 1.0
        seen = []

        def record(step, u, v, row):
            seen.append((np.abs(flat(u)).max(), np.abs(flat(v)).max()))

        cfg = train.TrainConfig(
            n_interior=32, m_boundary=32, outer_steps=40, eval_every=1,
            optimizer="sgd", lr_u=0.5, lr_v=0.5, grad_clip_norm=0.0,
            h1_ball_radius=math.inf, seed=3,
        )
        train.minimax_train(prob, small_arch(b_theta=b), small_arch(b_theta=b), cfg, on_eval=record)
        assert len(seen) == 40
        assert max(m for m, _ in seen) <= b + 1e-15
        assert max(m for _, m in seen) <= b + 1e-15

    def test_zero_lr_u_keeps_trial_network_fixed(self):
        _, prob = robin_problem_1d()
        ua = small_arch()
        cfg = train.TrainConfig(
            n_interior=16, m_boundary=16, outer_steps=12, eval_every=12,
            lr_u=0.0, lr_v=1e-3, h1_ball_radius=math.inf, seed=6,
        )
        res = train.minimax_train(prob, ua, small_arch(), cfg)
        exp_u = net.clip_weights(net.init(ua, np.random.SeedSequence(6).spawn(5)[0]))
        np.testing.assert_array_equal(flat(res.u), flat(exp_u))

    def test_returns_projected_final_quarter_average(self):
        # the trajectory does not depend on outer_steps, so a run four times
        # longer exposes, before its own window opens, every iterate of the
        # short run through on_eval
        u_star, prob = robin_problem_1d()
        ua, va = small_arch(b_theta=1.0), small_arch(b_theta=1.0)
        base = dict(
            n_interior=16, m_boundary=16, eval_every=1, optimizer="sgd",
            lr_u=0.1, lr_v=0.1, grad_clip_norm=0.0, h1_ball_radius=0.2, seed=2,
        )
        iterates = {}
        train.minimax_train(
            prob, ua, va, train.TrainConfig(outer_steps=48, **base),
            on_eval=lambda step, u, v, row: iterates.setdefault(step, flat(u)),
        )
        res = train.minimax_train(
            prob, ua, va, train.TrainConfig(outer_steps=12, **base), u_ref=u_star
        )

        window = [iterates[step] for step in (10, 11, 12)]  # steps 9..11, 0-based
        assert not np.allclose(window[0], window[-1])
        ss_quad = np.random.SeedSequence(2).spawn(5)[2]
        quad = pde.sample_interior(prob.domain, 4096, ss_quad)
        zero = loss_mod.H1Reference(None, quad, prob.domain.volume)
        mean = net.clip_weights(net.flat_to_params(ua, np.mean(window, axis=0)))
        expected, _, _ = train._Projector(zero, 0.2).exact_project(mean)
        np.testing.assert_allclose(flat(res.u), flat(expected), rtol=1e-12, atol=1e-14)

        last = res.history[-1]
        assert last.step == 12
        assert last.h1_u == 0.2  # the average itself left the ball and was projected
        assert last.h1_u == pytest.approx(zero.distance(res.u).h1, rel=1e-12)
        assert last.h1_error == pytest.approx(
            loss_mod.h1_error(res.u, u_star, prob.domain, n_quad=4096, seed=ss_quad).h1,
            rel=1e-12,
        )

    def test_inner_ascent_increases_loss_on_fixed_batch(self):
        # frozen u, fixed batch, sgd: recorded loss is evaluated after each
        # step's v updates, so the sequence must climb while grad_v is nonzero
        _, prob = robin_problem_1d()
        cfg = train.TrainConfig(
            n_interior=64, m_boundary=64, outer_steps=20, eval_every=1,
            optimizer="sgd", lr_u=0.0, lr_v=1e-3, resample_every=0,
            grad_clip_norm=0.0, h1_ball_radius=math.inf, seed=2,
        )
        res = train.minimax_train(prob, small_arch(), small_arch(b_theta=100.0), cfg)
        losses = [r.loss_total for r in res.history]
        diffs = np.diff(losses)
        assert (diffs > 0).mean() >= 0.95
        assert losses[-1] > losses[0]

    def test_outer_descent_decreases_loss_on_fixed_batch(self):
        # frozen v, fixed batch: the trial update minimizes a function linear
        # in u, so successive recorded losses must fall
        _, prob = robin_problem_1d()
        cfg = train.TrainConfig(
            n_interior=64, m_boundary=64, outer_steps=20, eval_every=1,
            optimizer="sgd", lr_u=1e-3, lr_v=0.0, resample_every=0,
            grad_clip_norm=0.0, h1_ball_radius=math.inf, seed=2,
        )
        res = train.minimax_train(prob, small_arch(b_theta=100.0), small_arch(), cfg)
        losses = [r.loss_total for r in res.history]
        diffs = np.diff(losses)
        assert (diffs < 0).mean() >= 0.95
        assert losses[-1] < losses[0]

    def test_soft_projection_caps_reported_h1(self):
        _, prob = robin_problem_1d()
        radius = 0.2
        cfg = train.TrainConfig(
            n_interior=32, m_boundary=32, outer_steps=30, eval_every=1,
            optimizer="sgd", lr_u=0.3, lr_v=0.3, grad_clip_norm=0.0,
            h1_ball_radius=radius, seed=8,
        )
        res = train.minimax_train(
            prob, small_arch(b_theta=50.0), small_arch(b_theta=50.0), cfg
        )
        assert all(r.h1_u <= radius + 1e-12 for r in res.history)
        # some step must actually have hit the cap for this to test anything
        assert any(r.h1_u == pytest.approx(radius) for r in res.history)

    @pytest.mark.parametrize("setup", ["fires", "skips"])
    def test_skipped_projections_match_forced_exact_reference(self, monkeypatch, setup):
        u_star, prob = robin_problem_1d()
        if setup == "fires":  # the setup of test_soft_projection_caps_reported_h1
            arch = small_arch(b_theta=50.0)
            cfg = train.TrainConfig(
                n_interior=32, m_boundary=32, outer_steps=30, eval_every=1,
                optimizer="sgd", lr_u=0.3, lr_v=0.3, grad_clip_norm=0.0,
                h1_ball_radius=0.2, seed=8,
            )
        else:
            arch = small_arch()
            cfg = train.TrainConfig(
                n_interior=32, m_boundary=32, outer_steps=40, eval_every=5,
                lr_u=1e-2, lr_v=1e-2, h1_ball_radius=0.5, seed=3,
            )
        skipping = train.minimax_train(prob, arch, arch, cfg, u_ref=u_star)
        monkeypatch.setattr(train._Projector, "_cannot_fire", lambda self, params: False)
        reference = train.minimax_train(prob, arch, arch, cfg, u_ref=u_star)

        np.testing.assert_array_equal(flat(skipping.u), flat(reference.u))
        np.testing.assert_array_equal(flat(skipping.v), flat(reference.v))
        untimed = [dataclasses.astuple(r)[:-1] for r in skipping.history]
        assert untimed == [dataclasses.astuple(r)[:-1] for r in reference.history]

        got, ref = skipping.projection, reference.projection
        rows_in_window = sum(1 for r in reference.history if r.step > (3 * cfg.outer_steps) // 4)
        assert ref.skipped == 0 and ref.exact == cfg.outer_steps + rows_in_window
        assert got.exact + got.skipped == ref.exact and got.fired == ref.fired
        assert (got.fired if setup == "fires" else got.skipped) > 0

    def test_infinite_ball_runs_no_projection_forward(self, monkeypatch):
        _, prob = robin_problem_1d()
        points = []
        original = net.forward_dual_batch

        def counting(params, X):
            points.append(len(X))
            return original(params, X)

        monkeypatch.setattr(net, "forward_dual_batch", counting)
        cfg = train.TrainConfig(
            n_interior=16, m_boundary=16, outer_steps=20, eval_every=5,
            h1_ball_radius=math.inf, h1_quad_points=64, seed=1,
        )
        res = train.minimax_train(prob, small_arch(), small_arch(), cfg)
        # rows 5, 10 and 15 report the iterate's h1, row 20 the average's, and
        # each row v's; no other step evaluates u on the quadrature set
        assert points == [64] * 8
        assert res.projection == train.ProjectionCounts(exact=4, skipped=17, fired=0)

    def test_v_restart_is_deterministic_and_changes_v(self):
        _, prob = robin_problem_1d()
        base = dict(
            n_interior=16, m_boundary=16, outer_steps=5, eval_every=5,
            lr_u=0.0, lr_v=0.0, seed=13,
        )
        plain = train.minimax_train(
            prob, small_arch(), small_arch(), train.TrainConfig(**base)
        )
        restarted = [
            train.minimax_train(
                prob, small_arch(), small_arch(),
                train.TrainConfig(v_restart_every=2, **base),
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(flat(restarted[0].v), flat(restarted[1].v))
        assert not np.array_equal(flat(plain.v), flat(restarted[0].v))
        np.testing.assert_array_equal(flat(plain.u), flat(restarted[0].u))

    def test_cached_gradients_match_uncached_reference(self, monkeypatch):
        # fixed batch, v restarts and variable coefficients: the trainer's
        # gradient cache must follow every u update and change nothing else
        parse = expr.parse
        a = ((parse("1+x1^2", 2), parse("0.25*x1*x2", 2)), (parse("0.25*x1*x2", 2), parse("1+x2", 2)))
        b = (parse("cos(x2)", 2), parse("-x1", 2))
        prob = pde.manufactured_problem(
            parse("sin(pi*x1)*x2", 2), a, b, parse("1+x1*x2", 2), 1.0, 0.5,
            pde.unit_hypercube(2), "robin",
        )
        arch = net.NetworkArch(widths=(2, 6, 5, 1), activation=net.TANH, b_theta=10.0)
        cfg = train.TrainConfig(
            n_interior=24, m_boundary=24, outer_steps=6, inner_steps=2, lr_u=1e-2,
            lr_v=1e-2, resample_every=0, v_restart_every=2, eval_every=2, seed=3,
        )
        cached = train.minimax_train(prob, arch, arch, cfg)

        original = loss_mod.loss_gradients
        caches = []

        def uncached(*args, cache=None, **kwargs):
            caches.append(cache)
            return original(*args, **kwargs)

        monkeypatch.setattr(loss_mod, "loss_gradients", uncached)
        reference = train.minimax_train(prob, arch, arch, cfg)
        assert len(caches) == 6 * 3 and all(c is not None for c in caches)
        np.testing.assert_allclose(flat(cached.u), flat(reference.u), rtol=0, atol=1e-10)
        np.testing.assert_allclose(flat(cached.v), flat(reference.v), rtol=0, atol=1e-10)
        for r0, r1 in zip(cached.history, reference.history):
            assert r0.loss_total == pytest.approx(r1.loss_total, rel=0, abs=1e-10)
            assert r0.grad_u_norm == pytest.approx(r1.grad_u_norm, rel=0, abs=1e-10)
            assert r0.grad_v_norm == pytest.approx(r1.grad_v_norm, rel=0, abs=1e-10)

    def test_coefficients_evaluated_once_per_batch(self, monkeypatch):
        _, prob = robin_problem_1d()
        sizes = []
        original = pde.EllipticProblem.a_values

        def counted(self, points):
            sizes.append(points.shape[0])
            return original(self, points)

        monkeypatch.setattr(pde.EllipticProblem, "a_values", counted)
        cfg = train.TrainConfig(
            n_interior=37, m_boundary=16, outer_steps=6, inner_steps=3,
            resample_every=2, eval_every=6, seed=2,
        )
        train.minimax_train(prob, small_arch(), small_arch(), cfg)
        # three batches; the other calls are the coercivity probe's
        assert sizes.count(37) == 3

    def test_coercivity_warning_and_flag(self):
        dom = pde.unit_hypercube(1)
        prob = pde.EllipticProblem(
            domain=dom,
            a=pde.identity_matrix(1),
            b=pde.constant_vector(1, 10.0),
            c=expr.parse("0.1", 1),
            f=expr.parse("1", 1),
            g=None,
            alpha=1.0,
            beta=1.0,
            bc_kind="robin",
        )
        cfg = train.TrainConfig(n_interior=8, m_boundary=8, outer_steps=1, eval_every=1, seed=0)
        with pytest.warns(UserWarning, match="coercivity"):
            res = train.minimax_train(prob, small_arch(), small_arch(), cfg)
        assert res.coercivity.holds is False

    def test_nonfinite_blowup_raises_training_aborted(self):
        _, prob = robin_problem_1d()
        r3 = net.activation_by_name("relu3")
        ua = net.NetworkArch(widths=(1, 8, 8, 1), activation=r3, b_theta=1e30)
        va = net.NetworkArch(widths=(1, 8, 8, 1), activation=r3, b_theta=1e30)
        cfg = train.TrainConfig(
            n_interior=32, m_boundary=32, outer_steps=200, inner_steps=1,
            optimizer="sgd", lr_u=1e8, lr_v=1e8, grad_clip_norm=0.0,
            h1_ball_radius=math.inf, eval_every=100, seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            old = np.seterr(all="ignore")
            try:
                with pytest.raises(train.TrainingAborted) as exc:
                    train.minimax_train(prob, ua, va, cfg)
            finally:
                np.seterr(**old)
        assert exc.value.step >= 0
        assert exc.value.component
        assert "non-finite" in str(exc.value)

    def test_abort_messages_name_a_sample_only_when_there_is_one(self):
        # a gradient norm or the total has no sample: its index is -1
        assert str(train.TrainingAborted(4, "fit gradient norm", -1)) == (
            "training aborted at outer step 4: non-finite fit gradient norm"
        )
        assert str(train.TrainingAborted(4, "boundary g", 0)).endswith("non-finite boundary g (sample 0)")
        assert str(loss_mod.NonFiniteLossError("total", -1)) == "non-finite value in total term"
        assert str(loss_mod.NonFiniteLossError("interior u", 3)) == "non-finite value in interior u term at sample 3"


class TestApproxErrorProbe:
    def test_zero_target_drives_distance_down(self):
        arch = small_arch(widths=(1, 8, 1))
        cfg = train.TrainConfig(
            n_interior=128, outer_steps=2000, lr_u=3e-2, eval_every=50,
            seed=3, h1_quad_points=2048, grad_clip_norm=0.0,
        )
        res = train.approx_error_probe(None, arch, cfg)
        assert res.history[0][1] > 0.1  # init is not already the target
        assert res.h1_distance <= 1e-4

    def test_realizable_target_fits_tightly(self):
        arch = small_arch(widths=(1, 8, 1))
        target = net.init(arch, np.random.SeedSequence(99))
        cfg = train.TrainConfig(
            n_interior=256, outer_steps=1500, lr_u=1e-2, eval_every=100,
            seed=4, h1_quad_points=2048, grad_clip_norm=0.0,
        )
        res = train.approx_error_probe(target, arch, cfg)
        assert res.h1_distance <= 1e-3

    def test_reported_distance_is_best_over_history(self):
        arch = small_arch(widths=(1, 8, 1))
        cfg = train.TrainConfig(
            n_interior=64, outer_steps=200, lr_u=1e-2, eval_every=25, seed=5,
        )
        res = train.approx_error_probe(expr.parse("sin(pi*x1)", 1), arch, cfg)
        assert res.h1_distance == min(d for _, d in res.history)

    def test_probe_deterministic(self):
        arch = small_arch(widths=(1, 6, 1))
        cfg = train.TrainConfig(n_interior=64, outer_steps=100, lr_u=1e-2, eval_every=20, seed=7)
        a = train.approx_error_probe(expr.parse("x1^2", 1), arch, cfg)
        b = train.approx_error_probe(expr.parse("x1^2", 1), arch, cfg)
        assert a.h1_distance == b.h1_distance
        np.testing.assert_array_equal(flat(a.params), flat(b.params))

    def test_params_respect_box(self):
        arch = small_arch(b_theta=1.0, widths=(1, 6, 1))
        cfg = train.TrainConfig(
            n_interior=64, outer_steps=100, optimizer="sgd", lr_u=0.5,
            eval_every=20, seed=8, grad_clip_norm=0.0,
        )
        res = train.approx_error_probe(expr.parse("sin(pi*x1)", 1), arch, cfg)
        assert np.abs(flat(res.params)).max() <= 1.0 + 1e-15

    def test_domain_defaults_to_the_unit_cube(self):
        arch = small_arch(widths=(1, 6, 1))
        cfg = train.TrainConfig(n_interior=16, outer_steps=12, lr_u=1e-2, eval_every=4, seed=2)
        target = expr.parse("x1^2", 1)
        default = train.approx_error_probe(target, arch, cfg)
        cube = train.approx_error_probe(target, arch, cfg, pde.unit_hypercube(1))
        assert cube.history == default.history
        np.testing.assert_array_equal(flat(cube.params), flat(default.params))
        on_ball = train.approx_error_probe(target, arch, cfg, pde.ball([0.5], 0.1))
        assert on_ball.history[0][1] < default.history[0][1]

    def test_fields_outside_the_read_list_change_nothing(self):
        # the CLI rejects every other TrainConfig field for approx-probe, so
        # none of them may change the probe's result
        arch = small_arch(widths=(1, 6, 1))
        base = train.TrainConfig(n_interior=16, outer_steps=12, lr_u=1e-2, eval_every=4, seed=2)
        ref = train.approx_error_probe(expr.parse("x1^2", 1), arch, base)
        others = {
            "m_boundary": 3, "inner_steps": 4, "lr_v": 0.5, "h1_ball_radius": 0.01,
            "boundary_alpha_half": True, "v_restart_every": 1,
        }
        fields = {f.name for f in dataclasses.fields(train.TrainConfig)}
        assert set(others) == fields - set(train.APPROX_PROBE_FIELDS)
        for name, value in others.items():
            res = train.approx_error_probe(expr.parse("x1^2", 1), arch, dataclasses.replace(base, **{name: value}))
            assert res.history == ref.history, name
            np.testing.assert_array_equal(flat(res.params), flat(ref.params))
