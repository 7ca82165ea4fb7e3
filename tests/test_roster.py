from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest
from scipy.special import logsumexp, ndtr

from crpsmix.data import (
    DAY_PERIOD_NAMES,
    HOURS_PER_YEAR,
    SEASON_NAMES,
    calendar_segments,
    hour_of_year,
    load_csv,
    split_train_test,
    write_demo_load_csv,
)
from crpsmix.experts import EM_MAX_ITER, fit_gmm_ems, load_cdf_values
from crpsmix import roster
from crpsmix.grids import GridCDF, GridDomain, repair_cdf
from crpsmix.roster import (
    BATCH_ARGUMENT_BYTES,
    WINDOW_TABLE_BYTES,
    RosterStream,
    build_load_roster,
    day_schedule,
    roster_confidences,
    season_schedule,
)

from conftest import conditional_load_cdfs, reference_fit_gmm_em, reference_schedule_at


def reference_load_cdf(g, temp, domain):
    """Load CDF given the temperature for one model, evaluated
    component by component: posterior weights times normal CDFs."""
    mu_t, mu_l = g.means[:, 0], g.means[:, 1]
    s_tt, s_tl, s_ll = g.covs[:, 0, 0], g.covs[:, 0, 1], g.covs[:, 1, 1]
    log_dens = -0.5 * np.log(2.0 * np.pi * s_tt) - 0.5 * (temp - mu_t) ** 2 / s_tt
    log_post = np.log(g.weights) + log_dens
    post = np.exp(log_post - logsumexp(log_post))
    mean = mu_l + s_tl / s_tt * (temp - mu_t)
    sd = np.sqrt(np.maximum(s_ll - s_tl**2 / s_tt, 1e-300))
    vals = post @ ndtr((domain.grid[None, :] - mean[:, None]) / sd[:, None])
    vals[-1] = 1.0
    return GridCDF(domain, vals).values


@pytest.fixture(scope="module")
def fitted(demo_load_csv):
    records, _ = load_csv(demo_load_csv)
    train, test = split_train_test(records, records[-1200].timestamp)
    experts, failures = build_load_roster(
        train, components=2, seed=5, confidence="smooth"
    )
    return train, test, experts, failures


@pytest.fixture(scope="module")
def demo_year(tmp_path_factory):
    path = write_demo_load_csv(tmp_path_factory.mktemp("roster") / "year.csv", hours=8760)
    return load_csv(path)[0]


def expert_segment(name, records):
    """The (temperature, load) points of an expert's calendar segment,
    read from its name: expert01_anytime, expert02_winter, ...,
    expert21_autumn_evening."""
    _, *parts = name.split("_")
    labels = calendar_segments(records)
    mask = np.ones(len(records), dtype=bool)
    if parts != ["anytime"]:
        mask &= labels[:, 0] == SEASON_NAMES.index(parts[0])
    if len(parts) == 2:
        mask &= labels[:, 1] == DAY_PERIOD_NAMES.index(parts[1])
    return np.array([(r.temperature, r.load) for r in records])[mask]


class TestSchedules:
    def test_season_schedule_plateau_and_ramp(self):
        s = season_schedule(2)  # summer: Jun-Aug
        jun1 = HOURS_PER_YEAR and 3624  # cumulative hours to Jun 1
        assert s.at(float(jun1)) == 1.0
        assert s.at(float(jun1 + 500)) == 1.0
        # half-season ramp on each side
        dur = (30 + 31 + 31) * 24
        assert s.at(float(jun1 - dur / 4)) == pytest.approx(0.5)
        assert s.at(float(jun1 - dur)) == 0.0

    def test_winter_schedule_wraps_year_end(self):
        s = season_schedule(0)
        assert s.at(100.0) == 1.0  # early January
        assert s.at(8500.0) == 1.0  # December
        assert s.at(4380.0) == 0.0  # mid-summer

    def test_day_schedule(self):
        s = day_schedule(1)  # morning 06-11
        assert s.at(8.0) == 1.0
        assert s.at(5.0) == pytest.approx(0.5)
        assert s.at(12.0) == pytest.approx(0.5)
        assert s.at(13.0) == 0.0
        assert s.at(0.0) == 0.0

    def test_binary_ramps(self):
        s = day_schedule(1, ramp_hours=0.0)
        assert s.at(5.0) == 0.0 and s.at(6.0) == 1.0 and s.at(12.0) == 0.0


class TestRoster:
    def test_roster_size_and_names(self, fitted):
        _, _, experts, failures = fitted
        assert failures == []
        assert len(experts) == 21
        names = [e.name for e in experts]
        assert names[0] == "expert01_anytime"
        assert names[1] == "expert02_winter"
        assert names[5] == "expert06_winter_night"
        assert names[20] == "expert21_autumn_evening"

    def test_anytime_expert_always_confident(self, fitted):
        _, _, experts, _ = fitted
        p = roster_confidences(experts, [datetime(2010, 1, 1, 3), datetime(2010, 7, 15, 14)])
        np.testing.assert_array_equal(p[:, 0], [1.0, 1.0])

    def test_seasonal_confidences_at_midsummer_noon(self, fitted):
        _, _, experts, _ = fitted
        ts = datetime(2010, 7, 15, 13)
        p = roster_confidences(experts, [ts])[0]
        by_name = dict(zip([e.name for e in experts], p))
        assert by_name["expert04_summer"] == 1.0
        assert by_name["expert02_winter"] == 0.0
        assert by_name["expert16_summer_day"] == 1.0
        assert by_name["expert14_summer_night"] == 0.0

    def test_ramp_overlap_after_season_end(self, fitted):
        _, _, experts, _ = fitted
        ts = datetime(2010, 9, 20, 13)  # 20 days into autumn
        p = roster_confidences(experts, [ts])[0]
        by_name = dict(zip([e.name for e in experts], p))
        assert by_name["expert05_autumn"] == 1.0
        assert 0.0 < by_name["expert04_summer"] < 1.0  # still fading out

    def test_binary_mode_yields_zero_one(self, fitted):
        train, _, _, _ = fitted
        experts, failures = build_load_roster(
            train[: 380 * 24], components=1, seed=2, confidence="binary"
        )
        assert not failures
        p = roster_confidences(experts, [datetime(2010, 2, 10, 7), datetime(2010, 8, 3, 22)])
        assert set(np.unique(p)) <= {0.0, 1.0}

    def test_off_mode_attaches_no_schedules(self, fitted):
        train, _, _, _ = fitted
        experts, _ = build_load_roster(
            train[: 380 * 24], components=1, seed=2, confidence="off"
        )
        p = roster_confidences(experts, [datetime(2010, 2, 10, 7)])
        np.testing.assert_array_equal(p, np.ones((1, len(experts))))

    def test_span_confidences_match_per_step_products(self, fitted):
        # the per-step scalar path the whole-span array replaced: season
        # confidence at the hour of year times day confidence at the hour
        _, test, experts, _ = fitted
        stamps = [r.timestamp for r in test] + [datetime(2012, 2, 29, 23)]
        got = roster_confidences(experts, stamps)
        assert got.shape == (len(stamps), len(experts))
        for t, ts in enumerate(stamps):
            for i, e in enumerate(experts):
                c = 1.0
                if e.season_schedule is not None:
                    c *= reference_schedule_at(e.season_schedule, hour_of_year(ts))
                if e.day_schedule is not None:
                    c *= reference_schedule_at(e.day_schedule, ts.hour)
                assert got[t, i] == c

    def test_em_fit_records(self, fitted):
        train, _, experts, _ = fitted
        assert experts[0].fit_points == len(train)
        for e in experts:
            assert 1 <= len(e.fit_history) <= EM_MAX_ITER
            assert np.all(np.isfinite(e.fit_history))

    def test_forecast_rows_are_valid_cdfs(self, fitted):
        train, _, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), 64)
        for temp in (-10.0, 55.0, 101.5):
            m = conditional_load_cdfs([e.model for e in experts], temp, dom)
            assert m.shape == (len(experts), dom.d)
            assert np.all((m >= 0.0) & (m <= 1.0))
            assert np.all(np.diff(m, axis=1) >= 0)
            assert np.all(m[:, -1] == 1.0)

    def test_matrix_matches_per_expert_reference(self, fitted):
        # the per-expert loop the vectorised roster replaced; the tolerance
        # allows reordered float sums only
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), 128)
        for temp in [r.temperature for r in test[:48]] + [-40.0, 130.0]:
            got = conditional_load_cdfs([e.model for e in experts], temp, dom)
            want = np.stack([reference_load_cdf(e.model, temp, dom) for e in experts])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d, hours", [(128, 1200), (1024, 150)])
    @pytest.mark.parametrize("whole", [True, False], ids=["whole_degree", "fine"])
    def test_stream_matches_per_step_forecasts(self, fitted, d, hours, whole):
        # materialized with list(): a row yielded in one window must not
        # change when a later window refills the table
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), d)
        temps = [r.temperature for r in test[:hours]]
        if whole:
            temps = [float(round(t)) for t in temps]
        stream = RosterStream(experts, temps, dom)
        rows = list(stream)
        assert len(rows) == len(temps)
        models = [e.model for e in experts]
        for temp, got in zip(temps, rows):
            assert got.shape == (1, len(experts), d)
            # unchecked rows: `replay`'s repair_cdf makes them the checked ones
            assert np.array_equal(got[0], load_cdf_values(models, temp, dom))
            repair_cdf(got)
            assert np.array_equal(got[0], conditional_load_cdfs(models, temp, dom))
        assert len(set(temps)) <= stream.evaluations <= len(temps)

    @pytest.mark.parametrize("d", [128, 1024])
    def test_stream_windows_keep_their_byte_budgets(self, fitted, monkeypatch, d):
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), d)
        temps = [float(round(r.temperature)) for r in test[:300]]
        served, batches = [0], []

        def spy(models, temps, domain):
            batches.append((served[0], list(temps)))  # the hours served so far
            return load_cdf_values(models, temps, domain)

        monkeypatch.setattr(roster, "load_cdf_values", spy)
        stream = RosterStream(experts, temps, dom)
        for _ in stream:
            served[0] += 1
        n, k = len(experts), experts[0].model.k
        windows = {}
        for at, batch in batches:
            assert len(batch) == 1 or len(batch) * n * k * d * 8 <= BATCH_ARGUMENT_BYTES
            windows.setdefault(at, []).extend(batch)
        table_rows = WINDOW_TABLE_BYTES // (n * d * 8)
        assert table_rows == {128: 48, 1024: 6}[d]
        assert len(windows) > 1 if d == 1024 else len(windows) == 1
        for window in windows.values():
            assert len(set(window)) == len(window) <= table_rows
        assert stream.evaluations == len(sum(windows.values(), []))

    def test_insufficient_segment_reports_failure(self, fitted):
        train, _, _, _ = fitted
        experts, failures = build_load_roster(
            train[:200], components=2, seed=0, confidence="smooth"
        )
        assert failures  # many calendar cells lack data in 200 hours
        assert all(isinstance(name, str) and reason for name, reason in failures)

    def test_bad_confidence_mode_rejected(self, fitted):
        train, _, _, _ = fitted
        with pytest.raises(ValueError):
            build_load_roster(train, confidence="fuzzy")


class TestRosterFit:
    def test_every_fit_matches_per_set_reference(self, demo_year):
        # the roster fits its levels in lockstep; each expert must be the
        # per-component reference fit of its own segment, bit for bit
        experts, failures = build_load_roster(demo_year, components=2, seed=3)
        assert failures == [] and len(experts) == 21
        seeds = np.random.SeedSequence(3).generate_state(21)
        for e, seed in zip(experts, seeds, strict=True):
            segment = expert_segment(e.name, demo_year)
            weights, means, covs, history = reference_fit_gmm_em(segment, 2, int(seed))
            assert e.fit_points == len(segment), e.name
            assert np.array_equal(e.fit_history, history), e.name
            assert np.array_equal(e.model.weights, weights), e.name
            assert np.array_equal(e.model.means, means), e.name
            assert np.array_equal(e.model.covs, covs), e.name

    def test_failed_segments_drop_only_their_experts(self, demo_year):
        # summer made one repeated point fails its season and its four
        # periods; autumn evenings cut to 10 hours fail theirs
        labels = calendar_segments(demo_year)
        train, evenings = [], 0
        for r, (s, p) in zip(demo_year, labels):
            if SEASON_NAMES[s] == "summer":
                r = replace(r, temperature=70.0, load=100.0)
            if (SEASON_NAMES[s], DAY_PERIOD_NAMES[p]) == ("autumn", "evening"):
                evenings += 1
                if evenings > 10:
                    continue
            train.append(r)
        experts, failures = build_load_roster(train, components=2, seed=3)
        identical = "all points identical"
        assert failures == [
            ("expert04_summer", identical),
            ("expert14_summer_night", identical),
            ("expert15_summer_morning", identical),
            ("expert16_summer_day", identical),
            ("expert17_summer_evening", identical),
            ("expert21_autumn_evening", "need at least 20 points to fit k=2, got 10"),
        ]
        assert len(experts) == 15
        seeds = dict(zip([f"expert{i:02d}" for i in range(1, 22)],
                         np.random.SeedSequence(3).generate_state(21)))
        for e in experts:
            segment = expert_segment(e.name, train)
            model, history = fit_gmm_ems([segment], 2, [int(seeds[e.name[:8]])])[0]
            assert np.array_equal(e.fit_history, history), e.name
            assert np.array_equal(e.model.means, model.means), e.name
            assert np.array_equal(e.model.covs, model.covs), e.name
            assert np.array_equal(e.model.weights, model.weights), e.name
