"""Rademacher machinery, covering/chaining, class constants, sta-error."""

import math

import numpy as np
import pytest

from weakgal import network as net
from weakgal import pde, theory
from weakgal.expr import parse
from weakgal.network import NetworkArch, TANH, activation_by_name
from weakgal.pde import (
    CoeffSupNorms,
    constant_vector,
    identity_matrix,
    manufactured_problem,
    unit_hypercube,
)
from weakgal.theory import (
    BoundNotApplicableError,
    FiniteVectorSet,
    chaining_bound,
    class_constants,
    covering_bound_ball,
    empirical_class_sups,
    empirical_sta_error,
    exact_rademacher,
    lipschitz_probe,
    massart_bound,
    massart_sweep,
    network_bounds,
    statistical_error_bound,
)

mp = pytest.importorskip("mpmath").mp


def _problem_2d():
    return manufactured_problem(
        parse("sin(pi*x1)*sin(pi*x2)", 2), identity_matrix(2), constant_vector(2, 0.0),
        parse("1", 2), 1.0, 1e-2, unit_hypercube(2), "dirichlet",
    )


def test_finite_vector_set_validation():
    with pytest.raises(ValueError):
        FiniteVectorSet(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        FiniteVectorSet(np.zeros(5))
    vs = FiniteVectorSet(np.ones((4, 6)))
    assert vs.size == 4 and vs.n == 6


def test_exact_rademacher_two_point_set():
    vs = FiniteVectorSet(np.array([[1.0, 1.0], [-1.0, -1.0]]))
    assert exact_rademacher(vs) == pytest.approx(0.5, abs=0)


def test_exact_rademacher_single_vector_is_zero():
    vs = FiniteVectorSet(np.array([[0.7, -0.3, 2.0]]))
    assert exact_rademacher(vs) == 0.0


def test_exact_rademacher_rejects_large_n():
    with pytest.raises(ValueError):
        exact_rademacher(FiniteVectorSet(np.ones((2, 21))))


def test_exact_rademacher_chunked_matches_direct():
    # N = 15 crosses the 2^14 chunk boundary; compare against brute force
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 15))
    got = exact_rademacher(FiniteVectorSet(a))
    total = 0.0
    for mask in range(1 << 15):
        signs = np.array([1.0 if mask >> k & 1 else -1.0 for k in range(15)])
        total += (a @ signs).max()
    want = total / (1 << 15) / 15
    assert got == pytest.approx(want, rel=1e-12)


def test_massart_two_point_value():
    vs = FiniteVectorSet(np.array([[1.0, 1.0], [-1.0, -1.0]]))
    want = math.sqrt(2.0) * math.sqrt(2.0 * math.log(2.0)) / 2.0
    assert massart_bound(vs) == pytest.approx(want, rel=1e-15)
    assert massart_bound(vs) == pytest.approx(0.832554611, rel=1e-8)


def test_exact_below_massart_property():
    rng = np.random.default_rng(20240401)
    for _ in range(500):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 13))
        scale = float(rng.uniform(0.1, 5.0))
        vs = FiniteVectorSet(rng.normal(size=(m, n)) * scale)
        assert exact_rademacher(vs) <= massart_bound(vs) + 1e-12


def test_massart_sweep_reports_the_worst_ratio_with_no_violation():
    report = massart_sweep(200, [0, 12])
    assert report.lemma == "rademacher_massart"
    assert report.details == {"sets": 200, "violations": 0}
    assert report.holds and 0.0 < report.ratio <= 1.0
    assert report.ratio == report.empirical / report.theoretical
    assert report.ln_theoretical == math.log(report.theoretical)
    assert massart_sweep(200, [0, 12]) == report
    # each draws one set of one vector, whose sign enumeration leaves about
    # 2e-17 of float noise above its Massart bound of exactly 0
    for seed in (109, 222, 242):
        single = massart_sweep(1, [seed, 12])
        assert single.holds and single.details["violations"] == 0
        assert (single.empirical, single.theoretical, single.ratio) == (0.0, 0.0, 0.0)


def test_covering_bound_values():
    assert covering_bound_ball(1.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert covering_bound_ball(1.0, 2.0, 2.0 * math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-12)
    assert covering_bound_ball(2.0, 1.0, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_covering_bound_monotonicity():
    assert covering_bound_ball(2.0, 3.0, 0.5) > covering_bound_ball(1.0, 3.0, 0.5)
    assert covering_bound_ball(1.0, 3.0, 0.25) > covering_bound_ball(1.0, 3.0, 0.5)


def test_chaining_bound_high_precision_cross_check():
    got = chaining_bound(12.0, 1366.0, 10, 2.0, 10000)
    with mp.workdps(50):
        n = mp.mpf(10)
        b_i = mp.mpf(12)
        l_i = mp.mpf(1366)
        bt = mp.mpf(2)
        N = mp.mpf(10000)
        want = 4 / mp.sqrt(N) + (6 * mp.sqrt(n) * b_i / mp.sqrt(N)) * mp.sqrt(
            mp.log(2 * l_i * bt * mp.sqrt(n) * mp.sqrt(N))
        )
        assert abs(got - float(want)) <= 1e-12 * float(want)


def test_chaining_log_is_the_covering_log_at_resolution_one_over_l_sqrt_n():
    b_i, l_i, n, b_theta, n_samples = 12.0, 1366.0, 10, 2.0, 10000
    cover = covering_bound_ball(b_theta, n, 1.0 / (l_i * math.sqrt(n_samples)))
    scale = 6.0 * math.sqrt(n) * b_i / math.sqrt(n_samples)
    want = 4.0 / math.sqrt(n_samples) + scale * math.sqrt(math.log(cover) / n)
    assert chaining_bound(b_i, l_i, n, b_theta, n_samples) == pytest.approx(want, rel=1e-12)


def test_chaining_bound_linear_in_b_i():
    base = chaining_bound(3.0, 100.0, 20, 2.0, 4096)
    doubled = chaining_bound(6.0, 100.0, 20, 2.0, 4096)
    first = 4.0 / math.sqrt(4096)
    assert doubled - first == pytest.approx(2.0 * (base - first), rel=1e-12)


def test_chaining_bound_decreasing_on_doubling_ladder():
    vals = [chaining_bound(12.0, 1366.0, 10, 2.0, n) for n in (256, 512, 1024, 2048, 4096)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_chaining_bound_not_applicable_when_resolution_too_coarse():
    # 1/sqrt(N) >= B_i / 2
    with pytest.raises(BoundNotApplicableError, match="not applicable"):
        chaining_bound(0.1, 100.0, 10, 2.0, 100)


def test_chaining_bound_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        chaining_bound(0.0, 1.0, 10, 2.0, 100)


def test_network_bounds_worked_values():
    arch = NetworkArch(widths=(1, 3, 1), activation=TANH, b_theta=2.0)
    nb = network_bounds(arch, 10)
    assert nb.l_value == pytest.approx(math.sqrt(10) * 2 * 3, rel=1e-12)
    assert nb.b_grad == pytest.approx(3 * 2**2, rel=1e-12)
    assert nb.l_grad == pytest.approx(math.sqrt(10) * 3 * 2**4 * 9, rel=1e-12)


def test_network_bounds_monotone_in_b_theta():
    for bt1, bt2 in [(1.0, 2.0), (2.0, 5.0), (5.0, 50.0)]:
        a1 = NetworkArch(widths=(2, 4, 4, 1), activation=TANH, b_theta=bt1)
        a2 = NetworkArch(widths=(2, 4, 4, 1), activation=TANH, b_theta=bt2)
        n1, n2 = network_bounds(a1, 29), network_bounds(a2, 29)
        assert n1.l_value <= n2.l_value
        assert n1.b_grad <= n2.b_grad
        assert n1.l_grad <= n2.l_grad


def test_network_bounds_overflow_reports_inf():
    arch = NetworkArch(widths=(1, 8, 8, 8, 8, 1), activation=TANH, b_theta=1e80)
    nb = network_bounds(arch, 1000)
    assert math.isinf(nb.l_grad)
    assert math.isfinite(nb.ln_l_grad)


def test_class_constants_worked_examples():
    arch = NetworkArch(widths=(1, 3, 1), activation=TANH, b_theta=2.0)
    sups = CoeffSupNorms(a_max=1.0, b_max=0.0, c_max=1.0, f_max=1.0, g_max=1.0)
    cc_alpha2 = class_constants(arch, 10, sups, alpha=2.0)
    assert cc_alpha2.b[4] == pytest.approx(64.0, rel=1e-12)
    cc_alpha1 = class_constants(arch, 10, sups, alpha=1.0)
    assert cc_alpha1.l[3] == pytest.approx(math.sqrt(10) * 2 * 3, rel=1e-12)


def test_class_constants_nonnegative_and_monotone_in_b_theta():
    sups = CoeffSupNorms(a_max=1.5, b_max=0.5, c_max=1.0, f_max=2.0, g_max=1.0)
    prev = None
    for bt in (1.0, 2.0, 4.0, 16.0):
        arch = NetworkArch(widths=(2, 5, 4, 1), activation=TANH, b_theta=bt)
        cc = class_constants(arch, arch.n_params(), sups, alpha=1.0)
        assert all(b >= 0 for b in cc.b)
        assert all(l >= 0 for l in cc.l)
        if prev is not None:
            assert all(b2 >= b1 for b1, b2 in zip(prev.b, cc.b))
            assert all(l2 >= l1 for l1, l2 in zip(prev.l, cc.l))
        prev = cc


def test_statistical_error_bound_worked_example():
    arch = NetworkArch(widths=(1, 3, 1), activation=TANH, b_theta=2.0)
    val, ln_val = statistical_error_bound(arch, 10, 256, beta=1.0)
    want = math.sqrt(2.0) * 10**5.5 * 2**7.5 / 4.0
    assert val == pytest.approx(want, rel=1e-12)
    assert ln_val == pytest.approx(math.log(want), rel=1e-12)


def test_statistical_error_bound_quarter_power_scaling():
    arch = NetworkArch(widths=(2, 4, 4, 1), activation=TANH, b_theta=3.0)
    v1, _ = statistical_error_bound(arch, 37, 100, beta=0.5)
    v4, _ = statistical_error_bound(arch, 37, 400, beta=0.5)
    assert v1 / v4 == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_statistical_error_bound_high_precision_cross_check():
    arch = NetworkArch(widths=(3, 5, 4, 1), activation=TANH, b_theta=2.5)
    n_nz, N, beta = 41, 777, 0.3
    val, _ = statistical_error_bound(arch, n_nz, N, beta=beta, c_user=2.0)
    with mp.workdps(50):
        d = mp.mpf(3)
        D = mp.mpf(arch.depth)
        n = mp.mpf(n_nz)
        bt = mp.mpf(2.5)
        want = (
            mp.mpf(2.0) / mp.mpf(beta) * d**3 * mp.sqrt(D)
            * n ** (mp.mpf(7) / 2 * D - mp.mpf(3) / 2)
            * bt ** (mp.mpf(7) / 2 * D + mp.mpf(1) / 2)
            / mp.mpf(N) ** mp.mpf(0.25)
        )
        assert abs(val - float(want)) <= 1e-12 * float(want)


def test_lipschitz_probe_holds_on_random_nets():
    rng = np.random.default_rng(17)
    for _ in range(4):
        depth = int(rng.integers(1, 5))
        widths = (int(rng.integers(1, 4)),) + tuple(
            int(rng.integers(2, 9)) for _ in range(depth - 1)
        ) + (1,)
        arch = NetworkArch(widths=widths, activation=TANH, b_theta=2.0)
        reports = lipschitz_probe(arch, n_probes=400, seed=int(rng.integers(1 << 31)))
        assert {r.lemma for r in reports} == {
            "value_weight_lipschitz", "gradient_sup", "gradient_weight_lipschitz",
        }
        for r in reports:
            assert r.holds, (r.lemma, r.ratio, widths)
            assert r.ratio <= 1.0


def test_lipschitz_probe_rejects_relu():
    arch = NetworkArch(widths=(1, 4, 1), activation=activation_by_name("relu2"), b_theta=2.0)
    with pytest.raises(ValueError):
        lipschitz_probe(arch, n_probes=10, seed=0)


@pytest.mark.parametrize("name", ["relu", "relu2", "relu3"])
def test_class_sups_and_sta_error_reject_unbounded_activations(name):
    arch = NetworkArch(widths=(2, 4, 1), activation=activation_by_name(name), b_theta=2.0)
    prob = _problem_2d()
    with pytest.raises(ValueError, match="bounded smooth activation"):
        empirical_class_sups(arch, prob, n_probes=10, seed=0)
    with pytest.raises(ValueError, match="bounded smooth activation"):
        empirical_sta_error(arch, prob, n_samples=8, trials=1, probe_budget=1, seed=0)


def test_empirical_class_sups_hold():
    prob = _problem_2d()
    arch = NetworkArch(widths=(2, 4, 1), activation=TANH, b_theta=2.0)
    reports = empirical_class_sups(arch, prob, n_probes=500, seed=0)
    assert len(reports) == 6
    names = [r.lemma for r in reports]
    assert names == [
        "class_sup_diffusion", "class_sup_advection", "class_sup_reaction",
        "class_sup_source", "class_sup_boundary_penalty", "class_sup_boundary_data",
    ]
    for r in reports:
        assert r.holds, (r.lemma, r.ratio)


def _spike_problem():
    """1D, a = 1, b = 0, c = 1, and f = 1 but for a spike of height 1e6 and
    width about 1e-4 at x = 1/2, which a few of 2048 uniform points hit."""
    return pde.EllipticProblem(
        domain=unit_hypercube(1), a=identity_matrix(1), b=constant_vector(1, 0.0), c=parse("1", 1),
        f=parse("1 + 1000000*exp(-100000000*(x1-0.5)^2)", 1), g=None, alpha=1.0, beta=1.0,
    )


def test_class_sups_hold_where_few_points_hit_a_coefficient_peak():
    # with the sup norms taken on one draw and the probes on another, a
    # probe point on the spike read as a violation at 18 of these 60 seeds
    arch = NetworkArch(widths=(1, 4, 1), activation=TANH, b_theta=2.0)
    prob = _spike_problem()
    violated = [
        (seed, r.lemma, r.ratio)
        for seed in range(60)
        for r in empirical_class_sups(arch, prob, n_probes=1000, seed=seed)
        if not r.holds
    ]
    assert violated == []


@pytest.mark.parametrize("n_probes", [60, theory.SUP_NORM_POINTS + 40])
def test_class_sups_probe_the_sample_their_sup_norms_come_from(monkeypatch, n_probes):
    arch = NetworkArch(widths=(2, 3, 1), activation=TANH, b_theta=1.7)
    prob = _advective_problem(2)
    samples, evaluated, probed = [], [], []
    original_sample = theory.sample_batch

    def sample(*args):
        samples.append(original_sample(*args))
        return samples[-1]

    monkeypatch.setattr(theory, "sample_batch", sample)
    for name in ("a_values", "b_values", "c_values", "f_values", "g_values"):
        def counted(self, *args, _name=name, _method=getattr(pde.EllipticProblem, name)):
            evaluated.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(pde.EllipticProblem, name, counted)
    original_forward = net.forward_dual_batch

    def forward(params, points):
        probed.append(points)
        return original_forward(params, points)

    monkeypatch.setattr(net, "forward_dual_batch", forward)
    reports = empirical_class_sups(arch, prob, n_probes=n_probes, seed=3)

    assert len(samples) == 1
    assert sorted(evaluated) == ["a_values", "b_values", "c_values", "f_values", "g_values"]
    sample = samples[0]
    n_points = max(theory.SUP_NORM_POINTS, n_probes)
    assert sample.interior.shape == sample.boundary.shape == (n_points, 2)
    # u's and v's forwards of each block, at the sample's first n_probes rows in order
    points = np.concatenate(probed[::2])
    np.testing.assert_array_equal(points[:, 0], sample.interior[:n_probes])
    np.testing.assert_array_equal(points[:, 1], sample.boundary[:n_probes])
    for u_points, v_points in zip(probed[::2], probed[1::2]):
        np.testing.assert_array_equal(u_points, v_points)
    # the sup norms are over the whole sample, and every row reports them
    sups = reports[0].details["sup_norms"]
    assert sups["f_max"] == float(np.abs(prob.f_values(sample.interior)).max())
    assert sups["b_max"] == 0.3
    assert all(r.details["sup_norms"] == sups for r in reports)
    assert not hasattr(pde, "probe_sup_norms")


def test_empirical_sta_error_below_bound_and_deterministic():
    prob = _problem_2d()
    arch = NetworkArch(widths=(2, 3, 1), activation=TANH, b_theta=2.0)
    est1 = empirical_sta_error(arch, prob, n_samples=32, trials=3, probe_budget=5, seed=11)
    est2 = empirical_sta_error(arch, prob, n_samples=32, trials=3, probe_budget=5, seed=11)
    assert est1.lemma == "statistical_error"
    assert est1.details["trial_maxima"] == est2.details["trial_maxima"]
    assert est1.empirical <= est1.theoretical
    assert est1.empirical > 0.0
    assert est1.ratio == pytest.approx(est1.empirical / est1.theoretical, rel=1e-12)
    est3 = empirical_sta_error(arch, prob, n_samples=32, trials=3, probe_budget=5, seed=12)
    assert est3.details["trial_maxima"] != est1.details["trial_maxima"]


def test_empirical_sta_error_probe_seeds_shared_across_n():
    # the random probe networks must not depend on N, so doubling N reuses them
    prob = _problem_2d()
    arch = NetworkArch(widths=(2, 3, 1), activation=TANH, b_theta=2.0)
    small = empirical_sta_error(arch, prob, n_samples=16, trials=2, probe_budget=4, seed=3)
    large = empirical_sta_error(arch, prob, n_samples=32, trials=2, probe_budget=4, seed=3)
    assert small.details["n_samples"] == 16 and large.details["n_samples"] == 32
    assert small.details["trial_maxima"] != large.details["trial_maxima"]


def test_bound_report_ratio_convention():
    prob = _problem_2d()
    arch = NetworkArch(widths=(2, 3, 1), activation=TANH, b_theta=2.0)
    for r in empirical_class_sups(arch, prob, n_probes=200, seed=1):
        if r.theoretical > 0:
            assert r.ratio == pytest.approx(r.empirical / r.theoretical, rel=1e-9)


# ---------------------------------------------------------------------------
# stacked probes against the per-probe loops they replaced


def _reference_lipschitz_maxima(arch, n_probes, seed):
    """lipschitz_probe's per-probe loop: one single-point forward per network."""
    rng = np.random.default_rng(seed)
    p = arch.n_params()
    max_val_ratio = max_grad_ratio = max_grad_sup = 0.0
    for _ in range(n_probes):
        flat1 = rng.uniform(-arch.b_theta, arch.b_theta, size=p)
        flat2 = rng.uniform(-arch.b_theta, arch.b_theta, size=p)
        x = rng.random(arch.dim)
        (v1,), (g1,) = net.forward_dual_batch(net.flat_to_params(arch, flat1), x[None, :])
        (v2,), (g2,) = net.forward_dual_batch(net.flat_to_params(arch, flat2), x[None, :])
        dist = float(np.linalg.norm(flat1 - flat2))
        if dist > 0:
            max_val_ratio = max(max_val_ratio, float(abs(v1 - v2)) / dist)
            max_grad_ratio = max(max_grad_ratio, float(np.abs(g1 - g2).max()) / dist)
        max_grad_sup = max(max_grad_sup, float(np.abs(g1).max()), float(np.abs(g2).max()))
    return {
        "value_weight_lipschitz": max_val_ratio,
        "gradient_sup": max_grad_sup,
        "gradient_weight_lipschitz": max_grad_ratio,
    }


def _reference_class_sup_maxima(arch, problem, n_probes, seed):
    """empirical_class_sups' per-probe loop: one two-point forward per network,
    at the first n_probes rows of the sample its sup norms come from."""
    rng = np.random.default_rng([seed, 1])
    n_points = max(theory.SUP_NORM_POINTS, n_probes)
    sample = pde.sample_batch(problem.domain, n_points, n_points, [seed, 0])
    X, Y, normals = sample.interior[:n_probes], sample.boundary[:n_probes], sample.normals[:n_probes]
    A, B = problem.a_values(X), problem.b_values(X)
    c, f, g = problem.c_values(X), problem.f_values(X), problem.g_values(Y, normals)
    best = np.zeros(6)
    for i in range(n_probes):
        pu = net.flat_to_params(arch, rng.uniform(-arch.b_theta, arch.b_theta, size=arch.n_params()))
        pv = net.flat_to_params(arch, rng.uniform(-arch.b_theta, arch.b_theta, size=arch.n_params()))
        pts = np.vstack([X[i], Y[i]])
        u_vals, u_grads = net.forward_dual_batch(pu, pts)
        v_vals, v_grads = net.forward_dual_batch(pv, pts)
        ug, vg = u_grads[0], v_grads[0]
        vals = (
            abs(float(ug @ A[i] @ vg)),
            abs(float((B[i] @ ug) * v_vals[0])),
            abs(c[i] * u_vals[0] * v_vals[0]),
            abs(f[i] * v_vals[0]),
            abs(0.5 * problem.alpha * u_vals[1] * v_vals[1]),
            abs(g[i] * v_vals[1]),
        )
        np.maximum(best, vals, out=best)
    return best


def _advective_problem(d):
    return manufactured_problem(
        parse("sin(pi*x1)", d), identity_matrix(d), constant_vector(d, 0.3),
        parse("1", d), 0.7, 1.0, unit_hypercube(d), "robin",
    )


def _counting_forward(monkeypatch):
    calls = []
    original = net.forward_dual_batch

    def counted(params, points):
        calls.append(np.shape(points))
        return original(params, points)

    monkeypatch.setattr(net, "forward_dual_batch", counted)
    return calls


@pytest.mark.parametrize("activation", ["tanh", "logistic"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("hidden", [(), (4,), (5, 3, 4)])
def test_stacked_probes_match_per_probe_reference(monkeypatch, activation, dim, hidden):
    arch = NetworkArch(widths=(dim,) + hidden + (1,), activation=activation_by_name(activation), b_theta=1.7)
    problem = _advective_problem(dim)
    n_probes = 60
    want_lip = _reference_lipschitz_maxima(arch, n_probes, [dim, 4])
    want_sups = _reference_class_sup_maxima(arch, problem, n_probes, 5)
    calls = _counting_forward(monkeypatch)
    # one stacked forward per network, then blocks of 7 probes (9 blocks)
    for block, n_forwards in ((None, 2), (7 * arch.n_params(), 18)):
        if block is not None:
            monkeypatch.setattr(theory, "_PROBE_BLOCK_WEIGHTS", block)
        calls.clear()
        lip = lipschitz_probe(arch, n_probes=n_probes, seed=[dim, 4])
        assert len(calls) == n_forwards
        assert {r.lemma for r in lip} == set(want_lip)
        for r in lip:
            assert r.empirical == pytest.approx(want_lip[r.lemma], rel=1e-12, abs=0)
        calls.clear()
        sups = empirical_class_sups(arch, problem, n_probes=n_probes, seed=5)
        assert len(calls) == n_forwards
        assert [r.lemma for r in sups] == [
            "class_sup_diffusion", "class_sup_advection", "class_sup_reaction",
            "class_sup_source", "class_sup_boundary_penalty", "class_sup_boundary_data",
        ]
        np.testing.assert_allclose([r.empirical for r in sups], want_sups, rtol=1e-12, atol=0)


def test_empirical_sta_error_evaluates_coefficients_once_per_batch(monkeypatch):
    prob = _problem_2d()
    arch = NetworkArch(widths=(2, 3, 1), activation=TANH, b_theta=2.0)
    sizes = []
    original = pde.EllipticProblem.a_values

    def counted(self, points):
        sizes.append(points.shape[0])
        return original(self, points)

    monkeypatch.setattr(pde.EllipticProblem, "a_values", counted)
    empirical_sta_error(arch, prob, n_samples=8, trials=3, probe_budget=10, seed=4)
    # one small and one 100x reference batch per trial (32 evaluations each before)
    assert sizes == [8, 800] * 3


def test_empirical_sta_error_pinned_maxima():
    # trial maxima of the per-probe implementation with these seeds
    prob = _problem_2d()
    arch = NetworkArch(widths=(2, 3, 1), activation=TANH, b_theta=2.0)
    cases = (
        (32, 3, 5, 11, (301.49695918307543, 527.1776194010525, 121.97470493144627)),
        (16, 2, 4, 3, (173.3938766576416, 256.24057486496014)),
        (32, 2, 4, 3, (261.5604934735384, 42.42483458124917)),
    )
    for n_samples, trials, budget, seed, want in cases:
        est = empirical_sta_error(arch, prob, n_samples=n_samples, trials=trials,
                                  probe_budget=budget, seed=seed)
        assert est.details["trial_maxima"] == pytest.approx(want, rel=1e-12, abs=0)
