"""Network evaluation, AD, recipe, and checkpoint tests."""

import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from weakgal import network as net
from weakgal.network import (
    LOGISTIC,
    TANH,
    NetworkArch,
    NetworkParams,
    RecipeError,
    activation_by_name,
    arch_recipe,
    backprop_tape,
    clip_weights,
    flat_to_params,
    forward_dual_batch,
    forward_tape,
    init,
    load_checkpoint,
    save_checkpoint,
)


def _rand_arch(rng, dim=None, activation=TANH):
    d = dim if dim is not None else int(rng.integers(1, 4))
    depth = int(rng.integers(1, 5))
    widths = (d,) + tuple(int(rng.integers(2, 8)) for _ in range(depth - 1)) + (1,)
    return NetworkArch(widths=widths, activation=activation, b_theta=3.0)


def test_arch_validation():
    with pytest.raises(ValueError):
        NetworkArch(widths=(2,), activation=TANH, b_theta=2.0)
    with pytest.raises(ValueError):
        NetworkArch(widths=(2, 3, 2), activation=TANH, b_theta=2.0)  # output must be 1
    with pytest.raises(ValueError):
        NetworkArch(widths=(2, 3, 1), activation=TANH, b_theta=0.5)  # B_theta >= 1
    with pytest.raises(ValueError, match="float range"):
        NetworkArch(widths=(1, 10**400, 1), activation=TANH, b_theta=2.0)
    a = NetworkArch(widths=(2, 5, 3, 1), activation=TANH, b_theta=2.0)
    assert a.depth == 3 and a.dim == 2 and a.hidden_widths == (5, 3)
    assert a.n_params() == (2 * 5 + 5) + (5 * 3 + 3) + (3 * 1 + 1)


def test_flat_round_trip():
    rng = np.random.default_rng(0)
    arch = _rand_arch(rng, dim=2)
    p = init(arch, 1)
    flat = p.flat
    assert flat.shape == (arch.n_params(),)
    q = flat_to_params(arch, flat)
    for (A1, b1), (A2, b2) in zip(p.layers, q.layers):
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(b1, b2)


def test_init_respects_weight_box_and_is_deterministic():
    arch = NetworkArch(widths=(3, 6, 6, 1), activation=TANH, b_theta=1.0)
    p1 = init(arch, 42)
    p2 = init(arch, 42)
    np.testing.assert_array_equal(p1.flat, p2.flat)
    assert np.abs(p1.flat).max() <= 1.0
    p3 = init(arch, 43)
    assert not np.array_equal(p1.flat, p3.flat)


def _uniform_params(arch, seed, s):
    """Every weight, biases included, uniform in (-s, s) and clipped to the box."""
    rng = np.random.default_rng(seed)
    return flat_to_params(arch, np.clip(rng.uniform(-s, s, arch.n_params()), -arch.b_theta, arch.b_theta))


def test_params_are_read_only():
    arch = NetworkArch(widths=(2, 3, 1), activation=TANH, b_theta=2.0)
    x = np.arange(arch.n_params(), dtype=np.float64)
    p = flat_to_params(arch, x)
    with pytest.raises(ValueError, match="read-only"):
        p.flat[0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        p.layers[0][0][0] = 7.0
    x[:] = -1.0  # the params hold their own copy
    np.testing.assert_array_equal(p.flat, np.arange(arch.n_params()))
    # the layers are views of the flat vector, in A-then-b order per layer
    (A1, b1), (A2, b2) = p.layers
    np.testing.assert_array_equal(A1, [[0, 1], [2, 3], [4, 5]])
    np.testing.assert_array_equal(b1, [6, 7, 8])
    np.testing.assert_array_equal(A2, [[9, 10, 11]])
    np.testing.assert_array_equal(b2, [12])
    assert all(np.shares_memory(w, p.flat) for layer in p.layers for w in layer)


def test_depth_one_network_is_affine():
    arch = NetworkArch(widths=(2, 1), activation=TANH, b_theta=5.0)
    p = NetworkParams(arch, np.array([2.0, -1.0, 0.5]))
    vals, grads = forward_dual_batch(p, np.array([[1.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(vals, [1.5, 0.5])
    np.testing.assert_allclose(grads, [[2.0, -1.0], [2.0, -1.0]])


@pytest.mark.parametrize("activation", [TANH, LOGISTIC])
def test_spatial_gradients_match_fd(activation):
    rng = np.random.default_rng(101)
    h = 1e-6
    for _ in range(20):
        arch = _rand_arch(rng, activation=activation)
        p = init(arch, int(rng.integers(1 << 31)))
        x = rng.uniform(0.1, 0.9, size=(3, arch.dim))
        vals, grads = forward_dual_batch(p, x)
        for i in range(arch.dim):
            xp = x.copy()
            xm = x.copy()
            xp[:, i] += h
            xm[:, i] -= h
            fd = (forward_dual_batch(p, xp)[0] - forward_dual_batch(p, xm)[0]) / (2 * h)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(grads[:, i] - fd).max() / scale <= 1e-6


@pytest.mark.parametrize("activation", [TANH, LOGISTIC])
def test_parameter_backprop_matches_fd(activation):
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(10):
        arch = _rand_arch(rng, activation=activation)
        p = init(arch, int(rng.integers(1 << 31)))
        n = 4
        X = rng.uniform(0.1, 0.9, size=(n, arch.dim))
        w = rng.normal(size=n)
        s = rng.normal(size=(n, arch.dim))
        g = backprop_tape(forward_tape(p, X), w, s)

        def functional(flat):
            q = flat_to_params(arch, flat)
            vals, grads = forward_dual_batch(q, X)
            return float(np.sum(w * vals) + np.sum(s * grads))

        flat0 = p.flat
        idx = rng.choice(flat0.size, size=min(12, flat0.size), replace=False)
        for i in idx:
            fp = flat0.copy()
            fm = flat0.copy()
            fp[i] += h
            fm[i] -= h
            fd = (functional(fp) - functional(fm)) / (2 * h)
            assert abs(g[i] - fd) <= 1e-4 * (1.0 + abs(fd)), (arch.widths, i)


def test_backprop_value_only_seed():
    rng = np.random.default_rng(3)
    arch = _rand_arch(rng, dim=2)
    p = init(arch, 9)
    X = rng.uniform(size=(5, 2))
    w = rng.normal(size=5)
    g_none = backprop_tape(forward_tape(p, X, grads=False), w)
    g_zero = backprop_tape(forward_tape(p, X), w, np.zeros((5, 2)))
    np.testing.assert_array_equal(g_none, g_zero)


def test_backprop_is_linear_in_seeds():
    rng = np.random.default_rng(4)
    arch = _rand_arch(rng, dim=1)
    p = init(arch, 10)
    X = rng.uniform(size=(6, 1))
    w1, w2 = rng.normal(size=6), rng.normal(size=6)
    s1, s2 = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
    lhs = backprop_tape(forward_tape(p, X), 2.0 * w1 + w2, 2.0 * s1 + s2)
    rhs = 2.0 * backprop_tape(forward_tape(p, X), w1, s1) + backprop_tape(forward_tape(p, X), w2, s2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_clip_weights():
    arch = NetworkArch(widths=(1, 2, 1), activation=TANH, b_theta=2.0)
    # layer 0: A = [[2.5], [-3.0]], b = [0.1, -0.1]; layer 1: A = [[1.0, -1.0]], b = [4.0]
    p = NetworkParams(arch, np.array([2.5, -3.0, 0.1, -0.1, 1.0, -1.0, 4.0]))
    q = clip_weights(p)
    assert q.layers[0][0][0, 0] == 2.0
    assert q.layers[0][0][1, 0] == -2.0
    assert q.layers[1][1][0] == 2.0
    # idempotence
    q2 = clip_weights(q)
    np.testing.assert_array_equal(q.flat, q2.flat)


def test_scale_output_layer_scales_only_the_last_layer():
    arch = NetworkArch(widths=(2, 3, 4, 1), activation=TANH, b_theta=2.0)
    p = flat_to_params(arch, np.random.default_rng(3).normal(size=arch.n_params()))
    before = p.flat.copy()
    q = net.scale_output_layer(p, 0.375)
    np.testing.assert_array_equal(p.flat, before)
    for k, ((A, b), (qA, qb)) in enumerate(zip(p.layers, q.layers)):
        factor = 0.375 if k == arch.depth - 1 else 1.0
        np.testing.assert_array_equal(qA, A * factor)
        np.testing.assert_array_equal(qb, b * factor)


def test_count_nonzero():
    arch = NetworkArch(widths=(1, 3, 1), activation=TANH, b_theta=2.0)
    z = net.zeros_like_arch(arch)
    assert np.count_nonzero(z.flat) == 0
    p = flat_to_params(arch, np.full(arch.n_params(), 0.5))
    assert np.count_nonzero(p.flat) == 10  # 3 + 3 + 3 + 1 dense entries
    a1 = NetworkArch(widths=(1, 1), activation=TANH, b_theta=2.0)
    q = NetworkParams(a1, np.array([2.0, 1.0]))
    assert np.count_nonzero(q.flat) == 2


def test_activation_metadata():
    assert TANH.b_rho == 1.0 and TANH.l_rho == 1.0 and TANH.b_rho_prime == 1.0
    assert activation_by_name("tanh") is TANH
    assert activation_by_name("logistic") is LOGISTIC
    r3 = activation_by_name("relu3")
    assert not r3.smooth
    with pytest.raises(ValueError):
        activation_by_name("gelu")
    x = np.linspace(-3, 3, 31)
    np.testing.assert_allclose(TANH.apply(x), np.tanh(x))
    np.testing.assert_allclose(TANH.d1(TANH.apply(x)), 1 - np.tanh(x) ** 2)
    np.testing.assert_allclose(LOGISTIC.apply(x), 1 / (1 + np.exp(-x)), rtol=1e-12)
    np.testing.assert_allclose(r3.apply(x), np.maximum(x, 0.0) ** 3)


def test_activation_derivatives_match_fd():
    # d1 takes the activation's output rho(z), not z; d2 takes it and rho'(z)
    h = 1e-6
    x = np.linspace(-2.5, 2.5, 21)
    for act in (TANH, LOGISTIC):
        def rho1(z):
            return act.d1(act.apply(z))

        fd1 = (act.apply(x + h) - act.apply(x - h)) / (2 * h)
        fd2 = (rho1(x + h) - rho1(x - h)) / (2 * h)
        np.testing.assert_allclose(rho1(x), fd1, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(act.d2(act.apply(x), rho1(x)), fd2, rtol=1e-8, atol=1e-8)


def test_arch_recipe_worked_examples():
    r1 = arch_recipe(epsilon=0.5, d=1, mu=0.5, beta=1.0)
    assert r1.arch.depth == 1
    assert r1.weight_budget == 4
    assert r1.arch.b_theta == pytest.approx(131072.0, rel=1e-12)
    assert not r1.b_theta_capped

    r2 = arch_recipe(epsilon=0.5, d=2, mu=0.5, beta=1.0)
    assert r2.weight_budget == 16

    # limiting case: epsilon -> 1 drives budget and weight bound to 1
    r3 = arch_recipe(epsilon=1.0 - 1e-13, d=1, mu=0.5, beta=1.0)
    assert r3.weight_budget == 1
    assert r3.arch.b_theta == pytest.approx(1.0, abs=1e-9)


def test_arch_recipe_caps_and_errors():
    r = arch_recipe(epsilon=0.5, d=1, mu=0.5, beta=1.0, max_b_theta=100.0)
    assert r.b_theta_capped and r.arch.b_theta == 100.0
    assert r.requested_b_theta == pytest.approx(131072.0, rel=1e-12)
    with pytest.raises(RecipeError, match="increase epsilon"):
        arch_recipe(epsilon=1e-6, d=3, mu=0.5, beta=1.0, max_weights=1000)
    with pytest.raises(RecipeError):
        arch_recipe(epsilon=1.5, d=1, mu=0.5, beta=1.0)
    with pytest.raises(RecipeError):
        arch_recipe(epsilon=0.5, d=1, mu=0.5, beta=1.0, c_user=0.5)
    with pytest.raises(RecipeError, match="max_b_theta"):
        arch_recipe(epsilon=0.5, d=1, mu=0.5, beta=1.0, max_b_theta=0.5)
    with pytest.raises(RecipeError, match="max_weights"):
        arch_recipe(epsilon=0.5, d=1, mu=0.5, beta=1.0, max_weights=0)


def test_arch_recipe_budget_respected():
    for d, eps in [(1, 0.2), (2, 0.4), (3, 0.7)]:
        r = arch_recipe(epsilon=eps, d=d, mu=0.5, beta=1.0, c_user=2.0)
        assert r.arch.dim == d
        assert r.arch.widths[-1] == 1
        if r.arch.depth > 1:
            # dense parameter count of the chosen widths fits the budget
            assert r.arch.n_params() <= r.weight_budget
            w = r.arch.widths[1]
            grown = list(r.arch.widths)
            grown[1:-1] = [w + 1] * (len(grown) - 2)
            bigger = NetworkArch(widths=tuple(grown), activation=TANH, b_theta=2.0)
            assert bigger.n_params() > r.weight_budget


def test_arch_recipe_widths_match_a_linear_scan():
    # the reference: the largest equal hidden width whose weight count fits
    # the budget, found one width at a time
    for d in range(1, 5):
        for eps in (0.9, 0.7, 0.5, 0.35, 0.2):
            for c_user in (1.0, 2.0, 3.5):
                r = arch_recipe(epsilon=eps, d=d, mu=0.5, beta=1.0, c_user=c_user, max_weights=10**9)
                depth = len(r.arch.widths) - 1
                if depth == 1:
                    continue

                def count(w):
                    return (d * w + w) + (depth - 2) * (w * w + w) + (w + 1)

                w = 1
                while count(w + 1) <= r.weight_budget:
                    w += 1
                assert r.arch.widths == (d,) + (w,) * (depth - 1) + (1,), (d, eps, c_user)


def test_arch_recipe_finds_a_wide_layer_quickly():
    start = time.perf_counter()
    r = arch_recipe(epsilon=0.05, d=3, mu=0.5, beta=1.0, max_weights=10**8)
    assert r.arch.widths == (3, 12_799_999, 1)
    assert time.perf_counter() - start < 0.5


def test_checkpoint_round_trip(tmp_path):
    arch = NetworkArch(widths=(2, 5, 3, 1), activation=LOGISTIC, b_theta=4.0)
    p = init(arch, 77)
    path = os.path.join(tmp_path, "net.json")
    save_checkpoint(p, path)
    assert not os.path.exists(path + ".partial")
    q = load_checkpoint(path)
    assert q.arch.widths == arch.widths
    assert q.arch.activation.name == "logistic"
    assert q.arch.b_theta == 4.0
    np.testing.assert_array_equal(p.flat, q.flat)
    X = np.random.default_rng(0).uniform(size=(4, 2))
    np.testing.assert_array_equal(forward_dual_batch(p, X)[0], forward_dual_batch(q, X)[0])
    # a layer more or fewer than the widths imply is rejected, as is a stack
    doc = json.loads(open(path, encoding="utf-8").read())
    for layers in (doc["layers"] + [{"A": [0.5], "b": [0.0]}], doc["layers"][:-1]):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(doc, layers=layers), fh)
        with pytest.raises(ValueError, match="layers"):
            load_checkpoint(path)
    with pytest.raises(ValueError, match="single network"):
        save_checkpoint(flat_to_params(arch, np.stack([p.flat, p.flat])), path)


def _reference_dual_backprop(p, X, w, s):
    """The per-point-Jacobian (n, q, d) forward and reverse loops that the
    taped sweep replaced, kept as the reference for it."""
    act = p.arch.activation
    n, d = X.shape
    depth = p.arch.depth
    f_list, J_list, z_list, P_list = [X], [np.broadcast_to(np.eye(d), (n, d, d))], [], []
    for k in range(depth - 1):
        A, b = p.layers[k]
        z = f_list[-1] @ A.T + b
        P = np.einsum("qi,nip->nqp", A, J_list[-1])
        f = act.apply(z)
        z_list.append(z)
        P_list.append(P)
        f_list.append(f)
        J_list.append(act.d1(f)[:, :, None] * P)
    A_top, b_top = p.layers[-1]
    values = (f_list[-1] @ A_top.T + b_top)[:, 0]
    grads = np.einsum("qi,nip->nqp", A_top, J_list[-1])[:, 0, :]
    out = [None] * depth
    out[-1] = ((w @ f_list[-1] + np.einsum("np,nip->i", s, J_list[-1]))[None, :], np.array([w.sum()]))
    u = w[:, None] * A_top[0][None, :]
    V = A_top[0][None, :, None] * s[:, None, :]
    for k in range(depth - 2, -1, -1):
        A, _ = p.layers[k]
        f = f_list[k + 1]
        s1 = act.d1(f)
        s2 = act.d2(f, s1)
        zeta = u * s1 + s2 * np.einsum("nqp,nqp->nq", V, P_list[k])
        W = V * s1[:, :, None]
        out[k] = (zeta.T @ f_list[k] + np.einsum("nqp,nip->qi", W, J_list[k]), zeta.sum(axis=0))
        u = zeta @ A
        V = np.einsum("qi,nqp->nip", A, W)
    flat = np.concatenate([x.reshape(-1) for layer in out for x in layer])
    return values, grads, flat


@pytest.mark.parametrize("activation", [TANH, LOGISTIC, activation_by_name("relu2")])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("hidden", [(), (5, 4, 3)])
def test_taped_sweep_matches_reference(activation, dim, hidden):
    rng = np.random.default_rng([dim, len(hidden)])
    arch = NetworkArch(widths=(dim,) + hidden + (1,), activation=activation, b_theta=3.0)
    p = _uniform_params(arch, 11, 1.5)
    X = rng.uniform(-1.0, 1.0, size=(7, dim))
    w = rng.normal(size=7)
    s = rng.normal(size=(7, dim))
    ref_vals, ref_grads, ref_flat = _reference_dual_backprop(p, X, w, s)
    _, _, ref_value_only = _reference_dual_backprop(p, X, w, np.zeros((7, dim)))

    tape = net.forward_tape(p, X)
    np.testing.assert_allclose(tape.values, ref_vals, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(tape.grads, ref_grads, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(net.backprop_tape(tape, w, s), ref_flat, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(net.backprop_tape(tape, w), ref_value_only, rtol=1e-12, atol=1e-12)
    value_tape = net.forward_tape(p, X, grads=False)
    assert value_tape.grads is None
    np.testing.assert_array_equal(value_tape.values, tape.values)
    np.testing.assert_allclose(net.backprop_tape(value_tape, w), ref_value_only, rtol=1e-12, atol=1e-12)


def test_tape_misuse_is_rejected():
    arch = NetworkArch(widths=(2, 4, 1), activation=TANH, b_theta=3.0)
    p = init(arch, 0)
    X = np.random.default_rng(0).uniform(size=(3, 2))
    with pytest.raises(ValueError, match="not kept"):
        net.backprop_tape(net.forward_tape(p, X, keep=False), np.ones(3))
    with pytest.raises(ValueError, match="value-only"):
        net.backprop_tape(net.forward_tape(p, X, grads=False), np.ones(3), np.ones((3, 2)))
    with pytest.raises(ValueError, match="seed_values"):
        net.backprop_tape(net.forward_tape(p, X), np.ones(4))


def test_relu_derivatives_from_output():
    z = np.array([-1.5, -0.2, 0.0, 0.3, 1.7])
    m = np.maximum(z, 0.0)
    for k in (1, 2, 3):
        act = activation_by_name(f"relu{k}")
        y = act.apply(z)
        np.testing.assert_allclose(act.d1(y), k * m ** (k - 1) * (z > 0), rtol=1e-14)
        np.testing.assert_allclose(act.d2(y, act.d1(y)), k * (k - 1) * m ** max(k - 2, 0) * (z > 0), rtol=1e-14)


@pytest.mark.parametrize("activation", [TANH, LOGISTIC, activation_by_name("relu2")])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("hidden", [(), (4,), (5, 3, 4)])
def test_stacked_forward_matches_unstacked_calls(activation, dim, hidden):
    rng = np.random.default_rng([dim, len(hidden), 3])
    arch = NetworkArch(widths=(dim,) + hidden + (1,), activation=activation, b_theta=3.0)
    S, n = 6, 5
    flats = rng.uniform(-3.0, 3.0, size=(S, arch.n_params()))
    X = rng.uniform(-1.0, 1.0, size=(S, n, dim))
    stack = flat_to_params(arch, flats)
    assert stack.ensemble == (S,)
    values, grads = forward_dual_batch(stack, X)
    assert values.shape == (S, n) and grads.shape == (S, n, dim)
    value_only = net.forward_tape(stack, X, grads=False)
    for s in range(S):
        p = flat_to_params(arch, flats[s])
        assert p.ensemble == ()
        want_vals, want_grads = forward_dual_batch(p, X[s])
        np.testing.assert_allclose(values[s], want_vals, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[s], want_grads, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(value_only.values[s], want_vals, rtol=1e-12, atol=1e-12)
        for (A, b), (A_s, b_s) in zip(stack.layers, p.layers):
            np.testing.assert_array_equal(A[s], A_s)
            np.testing.assert_array_equal(b[s], b_s)


def _assert_same_evaluation(got, want):
    """Equal values and gradients, bit for bit, with the gradients' strides."""
    (v, g), (v_ref, g_ref) = got, want
    np.testing.assert_array_equal(v, v_ref)
    np.testing.assert_array_equal(g, g_ref)
    assert g.strides == g_ref.strides


@pytest.mark.parametrize("activation", [TANH, LOGISTIC, activation_by_name("relu2")])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_blocked_forward_matches_one_pass(monkeypatch, activation, dim):
    # the smallest blocks, and products small enough that BLAS runs each on
    # one thread; the kept forward is never blocked and is the reference
    monkeypatch.setattr(net, "BLOCK_FLOATS", 0)
    rng = np.random.default_rng([dim, 7])
    for depth in (1, 2, 3, 4):
        arch = NetworkArch(widths=(dim,) + (8,) * (depth - 1) + (1,), activation=activation, b_theta=3.0)
        p = flat_to_params(arch, rng.uniform(-1.0, 1.0, arch.n_params()))
        B = net._block_rows(arch, grads=True)
        for n in (1, B - 1, B, B + 1, 3 * B + 5):
            X = rng.uniform(-1.0, 1.0, size=(n, dim))
            one_pass = net.forward_tape(p, X)
            _assert_same_evaluation(forward_dual_batch(p, X), (one_pass.values, one_pass.grads))
            value_only = net.forward_tape(p, X, grads=False, keep=False)
            np.testing.assert_array_equal(value_only.values, one_pass.values)
        # a stack is evaluated in one pass, whatever its size
        S, n = 2, 3 * B + 5
        stack = flat_to_params(arch, rng.uniform(-1.0, 1.0, (S, arch.n_params())))
        X = rng.uniform(-1.0, 1.0, size=(S, n, dim))
        one_pass = net.forward_tape(stack, X)
        _assert_same_evaluation(forward_dual_batch(stack, X), (one_pass.values, one_pass.grads))


def test_blocked_forward_bounds_its_temporaries():
    arch = NetworkArch(widths=(2, 20, 20, 1), activation=TANH, b_theta=3.0)
    p = init(arch, 0)
    X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(1 << 17, 2))
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        values, grads = forward_dual_batch(p, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = values.nbytes + grads.nbytes
    block = 8 * net.BLOCK_FLOATS
    # one pass would hold (2, 2^17, 20) tangents, 40 MiB, several times over
    assert peak < outputs + 6 * block, (peak, outputs, block)


# A reference in the plain operation order: the points' identity tangents
# through a matmul, every product a GEMM, and rho' and rho'' each computed
# from the output.  The kernels must reproduce its bits.
_REFERENCE_DERIVATIVES = {
    "tanh": (lambda t: 1.0 - t * t, lambda t: -2.0 * t * (1.0 - t * t)),
    "logistic": (lambda s: s * (1.0 - s), lambda s: s * (1.0 - s) * (1.0 - 2.0 * s)),
}


def _reference_derivatives(act):
    return _REFERENCE_DERIVATIVES.get(act.name, (act.d1, lambda y: act.d2(y, act.d1(y))))


def _reference_identity(shape):
    d = shape[-1]
    return np.broadcast_to(np.eye(d).reshape((d,) + (1,) * (len(shape) - 1) + (d,)), (d,) + shape)


def _reference_forward(params, X, grads, keep):
    act = params.arch.activation
    d1, _ = _reference_derivatives(act)
    *hidden, (A_top, b_top) = params.layers
    ins, tangents = [X], []
    f, T = X, _reference_identity(X.shape)
    for A, b in hidden:
        At = A.swapaxes(-1, -2)
        f = act.apply(f @ At + b[..., None, :])
        if keep:
            ins.append(f)
        if grads:
            P = T @ At
            T = P * d1(f)
            if keep:
                tangents.append(P)
    At = A_top.swapaxes(-1, -2)
    values = (f @ At + b_top[..., None, :])[..., 0]
    g = None
    if grads:
        g = (T @ At)[..., 0]
        g = g.transpose(*range(1, g.ndim), 0)
    return net.Tape(params=params, ins=ins, values=values, grads=g, tangents=tangents)


def _reference_backprop(tape, w, s=None):
    params, ins = tape.params, tape.ins
    d1, d2 = _reference_derivatives(params.arch.activation)
    n, d = ins[0].shape
    depth = params.arch.depth
    S = None if s is None else np.ascontiguousarray(s.T)

    def tangent_in(k):
        T = _reference_identity((n, d)) if k == 0 else tape.tangents[k - 1] * d1(ins[k])
        return T.reshape(d * n, -1)

    grad = np.empty_like(params.flat)
    out = net._layer_views(params.arch, grad)
    a = params.layers[-1][0][0]
    dA, db = out[-1]
    np.matmul(w, ins[-1], out=dA[0])
    if S is not None:
        dA[0] += S.reshape(-1) @ tangent_in(depth - 1)
    db[0] = w.sum()
    u = np.outer(w, a)
    V = None if S is None else S[:, :, None] * a
    for k in range(depth - 2, -1, -1):
        A = params.layers[k][0]
        f = ins[k + 1]
        s1 = d1(f)
        zeta = u * s1
        if V is not None:
            zeta += d2(f) * (V * tape.tangents[k]).sum(axis=0)
            W = V * s1
        dA, db = out[k]
        np.matmul(zeta.T, ins[k], out=dA)
        if V is not None:
            dA += W.reshape(d * n, -1).T @ tangent_in(k)
        zeta.sum(axis=0, out=db)
        if k > 0:
            u = zeta @ A
            if V is not None:
                V = W @ A
    return grad


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # -0.0 and +0.0 too


def _params_with_negative_zeros(arch, rng, lead=()):
    flat = rng.uniform(-1.5, 1.5, lead + (arch.n_params(),))
    flat[..., ::5] = -0.0  # sums such as I @ A^T turn these into +0.0
    return flat_to_params(arch, flat)


@pytest.mark.parametrize("activation", [TANH, LOGISTIC, activation_by_name("relu2")])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("hidden", [(), (1,), (6,), (5, 1, 3), (7, 6), (4, 1)])
def test_kernels_keep_the_bits_of_the_reference_order(monkeypatch, activation, dim, hidden):
    rng = np.random.default_rng([dim, len(hidden), sum(hidden)])
    arch = NetworkArch(widths=(dim,) + hidden + (1,), activation=activation, b_theta=3.0)
    p = _params_with_negative_zeros(arch, rng)
    n = 37
    X = rng.uniform(-1.0, 1.0, size=(n, dim))
    w, s = rng.normal(size=n), rng.normal(size=(n, dim))
    # rows where both seeds are -0.0 carry signed-zero products through rho''
    w[::6], s[::4] = -0.0, -0.0
    for grads in (True, False):
        for keep in (True, False):
            got, want = net.forward_tape(p, X, grads, keep), _reference_forward(p, X, grads, keep)
            _assert_same_bits(got.values, want.values)
            if grads:
                _assert_same_bits(got.grads, want.grads)
            if keep:
                _assert_same_bits(net.backprop_tape(got, w), _reference_backprop(want, w))
            if keep and grads:
                _assert_same_bits(net.backprop_tape(got, w, s), _reference_backprop(want, w, s))
    stack = _params_with_negative_zeros(arch, rng, (3,))
    XS = rng.uniform(-1.0, 1.0, size=(3, n, dim))
    for grads in (True, False):
        got, want = net.forward_tape(stack, XS, grads), _reference_forward(stack, XS, grads, True)
        _assert_same_bits(got.values, want.values)
        if grads:
            _assert_same_bits(got.grads, want.grads)
    # blocked, in the smallest blocks
    monkeypatch.setattr(net, "BLOCK_FLOATS", 0)
    X = rng.uniform(-1.0, 1.0, size=(3 * net._block_rows(arch, grads=True) + 5, dim))
    got = net.forward_tape(p, X, keep=False)
    monkeypatch.setattr(net, "_forward", _reference_forward)
    want = net.forward_tape(p, X, keep=False)
    _assert_same_bits(got.values, want.values)
    _assert_same_bits(got.grads, want.grads)


@pytest.mark.parametrize("activation", [TANH, LOGISTIC, activation_by_name("relu2")])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("hidden", [(), (1,), (6,), (5, 1, 3), (7, 6)])
def test_sweep_bits_do_not_depend_on_the_seed_layout(activation, dim, hidden):
    rng = np.random.default_rng([dim, len(hidden), sum(hidden), 1])
    arch = NetworkArch(widths=(dim,) + hidden + (1,), activation=activation, b_theta=3.0)
    p = _params_with_negative_zeros(arch, rng)
    n = 37
    X = rng.uniform(-1.0, 1.0, size=(n, dim))
    w, s = rng.normal(size=n), rng.normal(size=(n, dim))
    w[::6], s[::5] = -0.0, -0.0
    values = {"contiguous": w, "strided": np.stack([w, -w], axis=1)[:, 0]}
    grads = {
        "C-ordered": s,
        "F-ordered": np.asfortranarray(s),
        "transposed view": np.ascontiguousarray(s.T).T,
        "strided": np.repeat(s, 2, axis=0)[::2],
    }
    assert not values["strided"].flags.c_contiguous and grads["F-ordered"].flags.f_contiguous
    tape, value_tape = net.forward_tape(p, X), net.forward_tape(p, X, grads=False)
    for t in (tape, value_tape):
        want = net.backprop_tape(t, w)
        _assert_same_bits(net.backprop_tape(t, values["strided"]), want)
    want = net.backprop_tape(tape, w, s)
    for w_in in values.values():
        for s_in in grads.values():
            _assert_same_bits(net.backprop_tape(tape, w_in, s_in), want)


def _traced_peak(fn):
    """Peak bytes numpy allocates while ``fn`` runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("widths", [(1, 12, 12, 1), (2, 20, 20, 1)])
def test_kernels_hold_no_more_memory_than_the_reference_order(monkeypatch, widths):
    arch = NetworkArch(widths=widths, activation=TANH, b_theta=3.0)
    p = init(arch, 0)
    rng = np.random.default_rng(3)
    n = 1 << 15
    X = rng.uniform(-1.0, 1.0, size=(n, arch.dim))
    w, s = rng.normal(size=n), rng.normal(size=(n, arch.dim))
    tape, ref_tape = net.forward_tape(p, X), _reference_forward(p, X, True, True)
    assert _traced_peak(lambda: net.backprop_tape(tape, w, s)) <= _traced_peak(
        lambda: _reference_backprop(ref_tape, w, s)
    )
    del tape, ref_tape
    X = rng.uniform(-1.0, 1.0, size=(1 << 16, arch.dim))  # a blocked unkept forward
    blocked = _traced_peak(lambda: forward_dual_batch(p, X))
    monkeypatch.setattr(net, "_forward", _reference_forward)
    assert blocked <= _traced_peak(lambda: forward_dual_batch(p, X))


def test_stacked_misuse_is_rejected():
    arch = NetworkArch(widths=(2, 4, 1), activation=TANH, b_theta=3.0)
    flats = np.random.default_rng(0).uniform(size=(3, arch.n_params()))
    stack = flat_to_params(arch, flats)
    X = np.random.default_rng(1).uniform(size=(3, 5, 2))
    with pytest.raises(ValueError, match="points must be"):
        net.forward_tape(stack, X[0])  # one point set for a stack
    with pytest.raises(ValueError, match="points must be"):
        net.forward_tape(stack, X[:2])  # fewer point sets than networks
    with pytest.raises(ValueError, match="points must be"):
        net.forward_tape(flat_to_params(arch, flats[0]), X)  # point sets for one network
    with pytest.raises(ValueError, match="single network"):
        net.backprop_tape(net.forward_tape(stack, X), np.ones(5))
    with pytest.raises(ValueError, match="flat vector"):
        flat_to_params(arch, flats[None])
