import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpsmix.data import load_csv, write_demo_load_csv
from crpsmix import experts
from crpsmix.experts import (
    EM_MAX_ITER,
    EM_TOL,
    ConditioningError,
    DegenerateFit,
    Gmm2D,
    TriangularExpert,
    fit_gmm_ems,
    stack_models,
    triangular_cdf,
)
from crpsmix.experts import _condition_on_temperature
from crpsmix.grids import GridDomain
from crpsmix.roster import periodic_ramp
from crpsmix.rng import rng_from_seed

from conftest import (conditional_load_cdfs, reference_area, reference_fit_gmm_em,
                      reference_schedule_at)


def tri_density(e: TriangularExpert, u):
    u = np.asarray(u, dtype=float)
    span = e.right - e.left
    up = (u >= e.left) & (u <= e.peak)
    down = (u > e.peak) & (u <= e.right)
    out = np.zeros_like(u)
    out[up] = 2.0 * (u[up] - e.left) / (span * (e.peak - e.left))
    out[down] = 2.0 * (e.right - u[down]) / (span * (e.right - e.peak))
    return out


class TestTriangular:
    def test_symmetric_triangle_median(self):
        e = TriangularExpert(peak=0.5, left=0.0, right=1.0)
        dom = GridDomain(0.0, 1.0, 1000)
        f = triangular_cdf(e, dom)
        mid = np.searchsorted(dom.grid, 0.5)
        assert f[mid] == pytest.approx(0.5, abs=2e-3)

    def test_support_endpoints(self):
        e = TriangularExpert(peak=0.4, left=0.2, right=0.9)
        assert e.cdf_at(np.array([0.2]))[0] == 0.0
        assert e.cdf_at(np.array([0.9]))[0] == 1.0
        assert e.cdf_at(np.array([0.1]))[0] == 0.0
        assert e.cdf_at(np.array([0.95]))[0] == 1.0

    def test_cdf_matches_density_integral(self):
        # trapezoid integration of the density as an independent oracle
        rng = np.random.default_rng(8)
        for _ in range(5):
            left = float(rng.uniform(0.0, 0.3))
            right = float(rng.uniform(0.6, 1.0))
            peak = float(rng.uniform(left + 0.05, right - 0.05))
            e = TriangularExpert(peak=peak, left=left, right=right)
            u = np.linspace(0.0, 1.0, 200_001)
            dens = tri_density(e, u)
            cum = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(u))))
            dom = GridDomain(0.0, 1.0, 64)
            f = triangular_cdf(e, dom)
            oracle = np.interp(dom.grid, u, cum)
            np.testing.assert_allclose(f, oracle, atol=1e-6)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            TriangularExpert(peak=0.1, left=0.5, right=1.0)

    def test_support_outside_domain_rejected(self):
        e = TriangularExpert(peak=0.5, left=-0.1, right=0.9)
        with pytest.raises(ValueError, match="outside"):
            triangular_cdf(e, GridDomain(0.0, 1.0, 8))


def two_cluster_data(seed=5, n_per=250):
    rng = rng_from_seed(seed)
    a = rng.normal([-2.0, -1.0], [0.5, 0.4], size=(n_per, 2))
    b = rng.normal([2.0, 2.5], [0.5, 0.4], size=(n_per, 2))
    pts = np.vstack([a, b])
    rng.shuffle(pts)
    return pts


class TestFitGmmEm:
    def test_single_component_matches_moments(self):
        rng = np.random.default_rng(2)
        pts = rng.normal([1.0, -3.0], [2.0, 0.5], size=(300, 2))
        g, _ = fit_gmm_ems([pts], 1, [0])[0]
        np.testing.assert_allclose(g.means[0], pts.mean(axis=0), atol=1e-9)
        expected = np.cov(pts.T, bias=True) + 1e-6 * np.diag(pts.var(axis=0))
        np.testing.assert_allclose(g.covs[0], expected, atol=1e-9)

    def test_two_clusters_recovered(self):
        pts = two_cluster_data()
        g, history = fit_gmm_ems([pts], 2, [1])[0]
        order = np.argsort(g.means[:, 0])
        got = g.means[order]
        np.testing.assert_allclose(got[0], [-2.0, -1.0], atol=0.1 * 0.5)
        np.testing.assert_allclose(got[1], [2.0, 2.5], atol=0.1 * 0.5)
        assert np.all(np.diff(history) >= -1e-9 * np.maximum(1.0, np.abs(history[:-1])))

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0.0, 1.0, size=(200, 2))
        pts[:, 1] = 0.6 * pts[:, 0] + 0.8 * pts[:, 1]
        _, history = fit_gmm_ems([pts], 3, [2])[0]
        assert np.all(np.diff(history) >= -1e-9 * np.maximum(1.0, np.abs(history[:-1])))

    def test_deterministic_given_seed(self):
        pts = two_cluster_data(seed=9)
        a, _ = fit_gmm_ems([pts], 2, [7])[0]
        b, _ = fit_gmm_ems([pts], 2, [7])[0]
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covs, b.covs)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_degenerate_data_rejected(self):
        pts = np.tile([1.0, 2.0], (50, 1))
        with pytest.raises(DegenerateFit):
            raise fit_gmm_ems([pts], 2, [0])[0]  # the fit returns its error

    def test_preconditions(self):
        pts = np.random.default_rng(0).normal(size=(15, 2))
        with pytest.raises(ValueError):
            raise fit_gmm_ems([pts], 2, [0])[0]  # needs 20 points for k=2
        with pytest.raises(ValueError):
            raise fit_gmm_ems([pts], 4, [0])[0]

    def test_text_round_trip(self):
        g, _ = fit_gmm_ems([two_cluster_data(seed=4)], 2, [3])[0]
        back = Gmm2D.from_text(g.to_text())
        np.testing.assert_array_equal(back.weights, g.weights)
        np.testing.assert_array_equal(back.means, g.means)
        np.testing.assert_array_equal(back.covs, g.covs)


@pytest.fixture(scope="module")
def demo_year_segment(tmp_path_factory):
    """The summer-day segment of one demo year: its k=2 fit from seed 7
    runs to EM_MAX_ITER."""
    path = write_demo_load_csv(tmp_path_factory.mktemp("em") / "year.csv", hours=8760)
    records, _ = load_csv(path)
    return np.array([(r.temperature, r.load) for r in records
                     if reference_area(r.timestamp) == ("summer", "day")])


def _em_sets(demo_year_segment):
    rng = np.random.default_rng(3)
    correlated = rng.normal(0.0, 1.0, size=(200, 2))
    correlated[:, 1] = 0.6 * correlated[:, 0] + 0.8 * correlated[:, 1]
    return {
        "two_clusters": (two_cluster_data(), 1),
        "two_clusters_9": (two_cluster_data(seed=9), 7),
        "moments": (np.random.default_rng(2).normal([1.0, -3.0], [2.0, 0.5], size=(300, 2)), 0),
        "correlated": (correlated, 2),
        "demo_summer_day": (demo_year_segment, 7),
    }


def unstable_points():
    """44 near-collinear points in four tight clusters: their k=3 fit from
    seed 60 sees the log-likelihood fall between rounds 5 and 6, while the
    k=1 and k=2 fits converge in round 2."""
    rng = np.random.default_rng(60)
    x = rng.choice([0.0, 1.0, 2.0, 10.0], size=44) + rng.normal(size=44) * 1e-3 * rng.random()
    return np.column_stack([x, 2 * x + rng.normal(size=44) * 1e-4])


def assert_same_fit(fit, weights, means, covs, history, what):
    model, got = fit
    assert np.array_equal(got, history), what
    assert np.array_equal(model.weights, weights), what
    assert np.array_equal(model.means, means), what
    assert np.array_equal(model.covs, covs), what


@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_pass_em_matches_per_component_reference(k, demo_year_segment):
    for name, (pts, seed) in _em_sets(demo_year_segment).items():
        g, history = fit_gmm_ems([pts], k, [seed])[0]
        assert_same_fit((g, history), *reference_fit_gmm_em(pts, k, seed), (name, k))
        if (name, k) == ("demo_summer_day", 2):  # a fit that runs to the cap
            assert len(history) == EM_MAX_ITER and history[-1] - history[-2] >= EM_TOL


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lockstep_em_matches_per_set_reference(k, demo_year_segment):
    # one group of sets of 500, 500, 300, 200, 44 and ~550 points: each fit
    # stops in its own round (round 2 for k=1, the cap for the summer day at
    # k=2), or fails mid-run next to fits that must finish unchanged
    sets = dict(_em_sets(demo_year_segment), unstable=(unstable_points(), 60))
    fits = fit_gmm_ems([pts for pts, _ in sets.values()], k, [s for _, s in sets.values()])
    for (name, (pts, seed)), fit in zip(sets.items(), fits, strict=True):
        weights, means, covs, history = reference_fit_gmm_em(pts, k, seed)
        if (name, k) == ("unstable", 3):
            # the reference has no decrease check: it records the fall, then
            # stops on the negative improvement
            assert isinstance(fit, DegenerateFit)
            prev, ll = (float(x) for x in re.search(r"\((\S+) -> (\S+)\)", str(fit)).groups())
            assert (prev, ll) == tuple(history[4:6]) and len(history) == 6
            continue
        assert_same_fit(fit, weights, means, covs, history, (name, k))
        if k == 1:
            assert len(history) == 2
        if (name, k) == ("demo_summer_day", 2):
            assert len(history) == EM_MAX_ITER


def test_failed_fits_leave_only_their_own_result(monkeypatch, demo_year_segment):
    # every way a fit can fail, in one lockstep group; the two injected
    # faults hit the sets of 480 and 470 points only: weights that empty
    # component 0 after round 1, and a covariance that turns indefinite in
    # round 4
    k = 3
    sets = [
        (two_cluster_data(), 1),
        (np.random.default_rng(0).normal(size=(15, 2)), 0),
        (two_cluster_data(seed=9)[:480], 7),
        (demo_year_segment, 7),
        (np.tile([1.0, 2.0], (50, 1)), 0),
        (two_cluster_data(seed=4)[:470], 3),
        (unstable_points(), 60),
        (np.random.default_rng(2).normal([1.0, -3.0], [2.0, 0.5], size=(300, 2)), 0),
    ]
    alone = [fit_gmm_ems([pts], k, [seed])[0] for pts, seed in sets]
    real_m_step, m_steps = experts._m_step, [0]

    def faulty_m_step(pts, n, resp, nk, ridge):
        weights, means, covs, dev = real_m_step(pts, n, resp, nk, ridge)
        m_steps[0] += 1
        rows = list(n)
        if m_steps[0] == 1:
            weights[rows.index(480), 0] = 1e-300
        if m_steps[0] == 4:
            covs[rows.index(470), 0] = [[1.0, 2.0], [2.0, 1.0]]
        return weights, means, covs, dev

    monkeypatch.setattr(experts, "_m_step", faulty_m_step)
    fits = fit_gmm_ems([pts for pts, _ in sets], k, [seed for _, seed in sets])
    errors = {
        1: (ValueError, "need at least 30 points to fit k=3, got 15"),
        2: (DegenerateFit, "a mixture component collapsed to zero mass"),
        4: (DegenerateFit, "all points identical"),
        5: (DegenerateFit, "covariance lost positive definiteness"),
        6: (DegenerateFit, "log-likelihood decreased ("),
    }
    for i, (fit, solo) in enumerate(zip(fits, alone, strict=True)):
        if i in errors:
            kind, text = errors[i]
            assert type(fit) is kind and str(fit).startswith(text), (i, fit)
            if i == 6:
                assert str(fit) == str(solo)
            continue
        assert_same_fit(fit, solo[0].weights, solo[0].means, solo[0].covs, solo[1], i)


def test_capped_round_validates_the_model_it_returns(monkeypatch):
    # the cap outranks the indefiniteness test: a covariance that turns
    # indefinite in the capped round's M-step reaches Gmm2D's own check
    monkeypatch.setattr(experts, "EM_MAX_ITER", 6)
    monkeypatch.setattr(experts, "EM_TOL", -np.inf)
    sets = [(two_cluster_data(), 1), (two_cluster_data(seed=9)[:480], 7),
            (np.random.default_rng(2).normal([1.0, -3.0], [2.0, 0.5], size=(300, 2)), 0)]
    alone = [fit_gmm_ems([pts], 2, [seed])[0] for pts, seed in sets]
    real_m_step, m_steps = experts._m_step, [0]

    def faulty_m_step(pts, n, resp, nk, ridge):
        weights, means, covs, dev = real_m_step(pts, n, resp, nk, ridge)
        m_steps[0] += 1
        if m_steps[0] == 7:  # round 6, the cap
            covs[list(n).index(480), 1] = [[1.0, 2.0], [2.0, 1.0]]
        return weights, means, covs, dev

    monkeypatch.setattr(experts, "_m_step", faulty_m_step)
    fits = fit_gmm_ems([pts for pts, _ in sets], 2, [seed for _, seed in sets])
    assert m_steps[0] == 7
    assert type(fits[1]) is ValueError
    assert str(fits[1]) == "covariances must be positive definite"
    for i in (0, 2):
        model, history = alone[i]
        assert len(history) == 6
        assert_same_fit(fits[i], model.weights, model.means, model.covs, history, i)


def test_single_set_fit_raises_its_failure():
    with pytest.raises(DegenerateFit, match=r"log-likelihood decreased \("):
        raise fit_gmm_ems([unstable_points()], 3, [60])[0]


def make_gmm(weights, means, covs):
    return Gmm2D(np.asarray(weights, float), np.asarray(means, float), np.asarray(covs, float))


def joint_pdf(g: Gmm2D, t, l):
    """Independent evaluation of the mixture density on a (t, l) mesh."""
    t = np.asarray(t)[:, None] if np.ndim(t) == 1 else t
    total = 0.0
    for j in range(g.k):
        mu = g.means[j]
        c = g.covs[j]
        det = c[0, 0] * c[1, 1] - c[0, 1] ** 2
        dt = t - mu[0]
        dl = l - mu[1]
        quad = (c[1, 1] * dt**2 - 2 * c[0, 1] * dt * dl + c[0, 0] * dl**2) / det
        total = total + g.weights[j] * np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det))
    return total


class TestConditionalLoadCdf:
    def test_zero_covariance_matches_marginal(self):
        g = make_gmm([1.0], [[10.0, 5.0]], [[[4.0, 0.0], [0.0, 1.0]]])
        dom = GridDomain(0.0, 10.0, 200)
        a = conditional_load_cdfs([g], -20.0, dom)[0]
        b = conditional_load_cdfs([g], 35.0, dom)[0]
        np.testing.assert_allclose(a, b, atol=1e-12)
        from scipy.special import ndtr

        marginal = ndtr((dom.grid - 5.0) / 1.0)
        marginal[-1] = 1.0
        np.testing.assert_allclose(a, marginal, atol=1e-12)

    def test_conditional_mean_slope(self):
        rho, s_t, s_l = 0.6, 2.0, 1.5
        cov = [[s_t**2, rho * s_t * s_l], [rho * s_t * s_l, s_l**2]]
        g = make_gmm([1.0], [[0.0, 0.0]], [cov])
        slope = rho * s_l / s_t
        for temp in (-3.0, 0.0, 2.5):
            _, mean, var = (x[0] for x in _condition_on_temperature(stack_models([g]), temp))
            assert mean[0] == pytest.approx(slope * temp, abs=1e-12)
            assert var[0] == pytest.approx(s_l**2 * (1 - rho**2), abs=1e-12)

    def test_matches_joint_density_quadrature(self):
        # oracle: F(load <= L | temp) via quadrature of the joint density
        g = make_gmm(
            [0.3, 0.7],
            [[55.0, 100.0], [75.0, 160.0]],
            [
                [[36.0, 12.0], [12.0, 80.0]],
                [[25.0, -8.0], [-8.0, 60.0]],
            ],
        )
        dom = GridDomain(0.0, 300.0, 64)
        for temp in (50.0, 65.0, 90.0):
            got = conditional_load_cdfs([g], temp, dom)[0]
            loads = np.linspace(-200.0, 500.0, 140_001)
            dens = joint_pdf(g, np.array([temp]), loads[None, :])[0]
            cdf = np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(loads))
            cdf = np.concatenate(([0.0], cdf)) / np.trapezoid(dens, loads)
            oracle = np.interp(dom.grid, loads, cdf)
            oracle[-1] = 1.0
            np.testing.assert_allclose(got, oracle, atol=1e-6)

    def test_monte_carlo_draws_match_cdf(self):
        # sample from the conditional mixture parameters and compare the
        # empirical CDF against the analytic grid values
        g = make_gmm(
            [0.5, 0.5],
            [[60.0, 120.0], [80.0, 180.0]],
            [
                [[30.0, 10.0], [10.0, 90.0]],
                [[20.0, -6.0], [-6.0, 70.0]],
            ],
        )
        dom = GridDomain(0.0, 320.0, 256)
        temp = 70.0
        post, mean, var = (x[0] for x in _condition_on_temperature(stack_models([g]), temp))
        rng = rng_from_seed(99)
        n = 100_000
        comps = rng.choice(g.k, size=n, p=post)
        draws = rng.normal(mean[comps], np.sqrt(var[comps]))
        draws = np.clip(draws, dom.a, dom.b)
        ecdf = np.searchsorted(np.sort(draws), dom.grid, side="right") / n
        got = conditional_load_cdfs([g], temp, dom)[0]
        assert np.max(np.abs(got - ecdf)) < 0.01

    def test_output_is_valid_cdf(self):
        rng = np.random.default_rng(10)
        dom = GridDomain(-5.0, 5.0, 100)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            w = rng.random(k) + 0.1
            w /= w.sum()
            means = rng.normal(0, 2, size=(k, 2))
            covs = []
            for _ in range(k):
                m = rng.normal(0, 1, size=(2, 2))
                covs.append(m @ m.T + 0.3 * np.eye(2))
            g = make_gmm(w, means, covs)
            f = conditional_load_cdfs([g], float(rng.normal(0, 3)), dom)[0]
            assert np.all(np.diff(f) >= 0)
            assert f[-1] == 1.0

    def test_far_temperature_stays_finite(self):
        g = make_gmm([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.5, 1.0]]])
        dom = GridDomain(-50.0, 50.0, 64)
        f = conditional_load_cdfs([g], 1e3, dom)[0]
        assert np.all(np.isfinite(f))

    def test_batched_temperatures_match_per_temperature_calls(self):
        # repeats, both zeros, a far temperature whose squared distance
        # overflows for one component only, and a 2-D batch shape
        models = [
            make_gmm([0.3, 0.7], [[5.0, 40.0], [20.0, 60.0]],
                     [[[9.0, 4.0], [4.0, 30.0]], [[4.0, -2.0], [-2.0, 25.0]]]),
            make_gmm([0.5, 0.5], [[0.0, 30.0], [10.0, 70.0]],
                     [[[0.5, 0.1], [0.1, 20.0]], [[16.0, 6.0], [6.0, 40.0]]]),
        ]
        dom = GridDomain(0.0, 120.0, 64)
        temps = np.array([[3.0, -0.0, 0.0, 3.0], [1.2e154, 12.5, -7.25, 12.5]])
        got = conditional_load_cdfs(models, temps, dom)
        assert got.shape == (2, 4, len(models), dom.d)
        want = np.stack([conditional_load_cdfs(models, t, dom) for t in temps.ravel()])
        assert np.array_equal(got.reshape(want.shape), want)
        assert conditional_load_cdfs(models, 12.5, dom).shape == (len(models), dom.d)

    @pytest.mark.parametrize("temp", [1e160, -1e200, np.inf, np.nan])
    def test_unreachable_temperature_is_named(self, temp):
        g = make_gmm([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.5, 1.0]]])
        dom = GridDomain(-50.0, 50.0, 64)
        with pytest.raises(ConditioningError, match=re.escape(f"temperature {temp!r} ")):
            conditional_load_cdfs([g], [2.0, temp, 3.0], dom)

    def test_gmm_validation(self):
        with pytest.raises(ValueError):
            make_gmm([0.5, 0.6], [[0, 0], [1, 1]], [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError):
            make_gmm([1.0], [[0, 0]], [[[1.0, 2.0], [2.0, 1.0]]])  # not PD

    @pytest.mark.parametrize("text, match", [
        *(pytest.param(f"1\n{line}\n", "finite", id=line) for line in (
            "nan nan nan nan nan nan",
            "1.0 nan 0.0 1.0 0.0 1.0",  # a NaN mean, every other field valid
            "1.0 0.0 inf 1.0 0.0 1.0",
            "1.0 0.0 0.0 1.0 0.0 nan",
        )),
        pytest.param("", "empty", id="empty"),
        pytest.param("  \n", "empty", id="blank"),
    ])
    def test_gmm_rejects_non_finite_parameters(self, text, match):
        with pytest.raises(ValueError, match=match):
            Gmm2D.from_text(text)


class TestConfidenceSchedule:
    """The specialists' confidence schedule, `roster.periodic_ramp`."""

    def test_plateau_and_ramps(self):
        def at(t):
            return periodic_ramp(t, 10.0, 20.0, 4.0, 1000.0)

        assert at(10.0) == 1.0
        assert at(20.0) == 1.0
        assert at(15.0) == 1.0
        assert at(8.0) == pytest.approx(0.5)  # ramp-up midpoint
        assert at(22.0) == pytest.approx(0.5)  # ramp-down midpoint
        assert at(6.0) == 0.0
        assert at(24.0) == 0.0
        assert at(100.0) == 0.0

    def test_zero_length_ramp_is_step(self):
        def at(t):
            return periodic_ramp(t, 5.0, 9.0, 0.0, 24.0)

        assert at(4.999) == 0.0
        assert at(5.0) == 1.0
        assert at(9.0) == 1.0
        assert at(9.001) == 0.0

    def test_periodic_wrap(self):
        def at(t):
            return periodic_ramp(t, 20.0, 26.0, 2.0, 24.0)

        # plateau extends past the period boundary into the next cycle
        assert at(1.0) == 1.0  # 1 == 25 mod 24
        assert at(3.0) == pytest.approx(0.5)  # ramp-down at 27
        assert at(19.0) == pytest.approx(0.5)
        assert at(12.0) == 0.0
        assert at(45.0) == 1.0  # 45 mod 24 = 21

    def test_piecewise_linear_between_breakpoints(self):
        for lo, hi in ((70.0, 100.0), (200.0, 230.0)):
            ts = np.linspace(lo, hi, 7)
            diffs = np.diff(periodic_ramp(ts, 100.0, 200.0, 30.0, 1000.0))
            np.testing.assert_allclose(diffs, diffs[0], atol=1e-12)

    def test_array_matches_scalar_reference(self):
        ts = np.concatenate([np.linspace(0.0, 260.0, 5201), [23.0, 48.0, 4380.5]])
        for params in ((20.0, 26.0, 2.5, 24.0), (2.0, 4.0, 0.0, 24.0),
                       (100.0, 200.0, 30.0, 1000.0), (7.0, 7.0, 50.0, 60.0)):
            got = periodic_ramp(ts, *params)
            assert got.shape == ts.shape
            assert all(got[i] == reference_schedule_at(float(t), *params) for i, t in enumerate(ts))

    @given(st.floats(0, 500), st.floats(0, 500), st.floats(0, 40))
    @settings(max_examples=60)
    def test_always_within_unit_interval(self, t1, t2, ramp):
        for t in (t1, t2):
            assert 0.0 <= periodic_ramp(t, 50.0, 60.0, ramp, 100.0) <= 1.0
