from datetime import datetime, timedelta

import numpy as np
import pytest
from scipy import stats

from crpsmix.data import (
    CsvSchema,
    LoadRecord,
    MixtureSchedule,
    calendar_segments,
    day_period_of_hour,
    default_generators,
    default_test_boundary,
    hour_of_year,
    load_csv,
    rotating_leader_schedule,
    season_hour_interval,
    season_of_month,
    smooth_crossfade_schedule,
    split_train_test,
    synth_stream,
)


class TestSchedules:
    def test_rotating_leader_rows_are_one_hot(self):
        s = rotating_leader_schedule(600, 3, 6)
        assert s.steps == 600
        w = s.weights
        assert np.all((w == 0.0) | (w == 1.0))
        np.testing.assert_array_equal(w.sum(axis=1), np.ones(600))
        # leadership rotates 0,1,2,0,1,2
        leaders = w.argmax(axis=1)
        np.testing.assert_array_equal(np.unique(leaders[:100]), [0])
        np.testing.assert_array_equal(np.unique(leaders[100:200]), [1])
        np.testing.assert_array_equal(np.unique(leaders[500:]), [2])

    def test_crossfade_rows_are_distributions(self):
        s = smooth_crossfade_schedule(500, 3, 5)
        w = s.weights
        assert w.min() >= 0.0
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        # weights actually move over time
        assert np.max(np.abs(np.diff(w, axis=0))) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureSchedule(np.array([[0.5, 0.4]]))  # rows must sum to 1
        with pytest.raises(ValueError):
            rotating_leader_schedule(0, 3, 2)


class TestSynthStream:
    def test_single_leader_confines_support(self):
        gens = default_generators()
        w = np.zeros((200, 3))
        w[:, 1] = 1.0
        sched = MixtureSchedule(w)
        y = synth_stream(gens, sched, 200, seed=0)
        assert y.min() >= gens[1].left
        assert y.max() <= gens[1].right

    def test_reproducible_bit_for_bit(self):
        gens = default_generators()
        sched = rotating_leader_schedule(500, 3, 5)
        a = synth_stream(gens, sched, 500, seed=3)
        b = synth_stream(gens, sched, 500, seed=3)
        np.testing.assert_array_equal(a, b)
        c = synth_stream(gens, sched, 500, seed=4)
        assert not np.array_equal(a, c)

    def test_histogram_matches_mixture(self):
        # chi-square against exact bin probabilities at a fixed seed
        gens = default_generators()
        mix = np.array([0.3, 0.3, 0.4])
        w = np.tile(mix, (30_000, 1))
        sched = MixtureSchedule(w)
        y = synth_stream(gens, sched, 30_000, seed=12)
        edges = np.linspace(0.0, 1.0, 21)
        counts, _ = np.histogram(y, edges)
        cdf_at = lambda u: sum(m * g.cdf_at(u) for m, g in zip(mix, gens))  # noqa: E731
        probs = np.diff(cdf_at(edges))
        res = stats.chisquare(counts, probs * y.size)
        assert res.pvalue > 1e-3

    def test_schedule_must_cover_steps(self):
        gens = default_generators()
        sched = rotating_leader_schedule(100, 3, 2)
        with pytest.raises(ValueError):
            synth_stream(gens, sched, 200, seed=0)


def write_csv(path, rows, header="timestamp,load,temperature"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def hourly_rows(start, hours, load=100.0, temp=50.0):
    ts = start
    out = []
    for _ in range(hours):
        out.append(f"{ts.isoformat()},{load},{temp}")
        ts += timedelta(hours=1)
    return out


class TestLoadCsv:
    def test_well_formed_rows(self, tmp_path):
        p = write_csv(tmp_path / "ok.csv", hourly_rows(datetime(2010, 1, 1), 3))
        records, report = load_csv(p)
        assert len(records) == 3
        assert report.rows_parsed == 3
        assert not report.row_errors and not report.gaps

    def test_duplicate_timestamp_is_fatal_with_line(self, tmp_path):
        rows = [
            "2010-01-01T00:00:00,100,50",
            "2010-01-01T00:00:00,101,51",
        ]
        p = write_csv(tmp_path / "dup.csv", rows)
        with pytest.raises(ValueError, match=":3"):
            load_csv(p)

    def test_gap_flagged(self, tmp_path):
        rows = [
            "2010-01-01T00:00:00,100,50",
            "2010-01-01T01:00:00,100,50",
            "2010-01-01T05:00:00,100,50",
        ]
        p = write_csv(tmp_path / "gap.csv", rows)
        records, report = load_csv(p)
        assert len(records) == 3
        assert report.gaps == [(datetime(2010, 1, 1, 1), 3)]

    def test_bad_rows_collected_until_threshold(self, tmp_path):
        rows = hourly_rows(datetime(2010, 1, 1), 200)
        rows[50] = "not-a-time,xx,yy"
        p = write_csv(tmp_path / "bad.csv", rows)
        records, report = load_csv(p)
        assert len(records) == 199
        assert len(report.row_errors) == 1
        assert report.row_errors[0][0] == 52  # header + 1-based line

    def test_short_row_is_a_row_error(self, tmp_path):
        # the timestamp column comes last, so the short row lacks it
        ts = [datetime(2010, 1, 1) + timedelta(hours=h) for h in range(200)]
        rows = [f"100,50,{t.isoformat()}" for t in ts]
        rows[50] = "101,51"
        p = tmp_path / "short.csv"
        p.write_text("load,temperature,timestamp\n" + "\n".join(rows) + "\n",
                     encoding="utf-8")
        records, report = load_csv(p)
        assert len(records) == 199
        assert [line for line, _ in report.row_errors] == [52]

    def test_non_finite_values_are_row_errors(self, tmp_path):
        rows = hourly_rows(datetime(2010, 1, 1), 300)
        for i, (load, temp) in enumerate([("nan", "50"), ("100", "inf"), ("-inf", "nan")]):
            ts = rows[20 + i].split(",")[0]
            rows[20 + i] = f"{ts},{load},{temp}"
        p = write_csv(tmp_path / "nonfinite.csv", rows)
        records, report = load_csv(p)
        assert len(records) == 297
        assert report.row_errors == [
            (22 + i, "non-finite load or temperature") for i in range(3)
        ]

    def test_too_many_bad_rows_fatal(self, tmp_path):
        rows = hourly_rows(datetime(2010, 1, 1), 50)
        for i in range(5):
            rows[10 + i] = f"bad-row-{i},x,y"
        p = write_csv(tmp_path / "worse.csv", rows)
        with pytest.raises(ValueError, match="1%"):
            load_csv(p)

    def test_custom_schema(self, tmp_path):
        p = tmp_path / "semi.csv"
        p.write_text("ts;mw;degf\n2010-01-01T00:00:00;88;41\n", encoding="utf-8")
        records, _ = load_csv(
            p,
            CsvSchema(
                timestamp_col="ts", load_col="mw", temperature_col="degf",
                delimiter=";",
            ),
        )
        assert records[0] == LoadRecord(datetime(2010, 1, 1), 88.0, 41.0)

    def test_missing_column_fatal(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("timestamp,load\n2010-01-01T00:00:00,88\n", encoding="utf-8")
        with pytest.raises(ValueError, match="temperature"):
            load_csv(p)


class TestSplitAndCalendar:
    def make_records(self, hours, start=datetime(2010, 1, 1)):
        return [
            LoadRecord(start + timedelta(hours=i), 100.0, 50.0) for i in range(hours)
        ]

    def test_split_sizes(self):
        records = self.make_records(100)
        boundary = records[60].timestamp
        train, test = split_train_test(records, boundary)
        assert len(train) == 60 and len(test) == 40
        assert train[-1].timestamp < boundary <= test[0].timestamp

    def test_split_empty_side_rejected(self):
        records = self.make_records(10)
        with pytest.raises(ValueError):
            split_train_test(records, records[0].timestamp - timedelta(hours=1))
        with pytest.raises(ValueError):
            split_train_test(records, records[-1].timestamp + timedelta(hours=1))

    def test_default_boundary_reserves_final_hours(self):
        records = self.make_records(10_000)
        boundary = default_test_boundary(records)
        train, test = split_train_test(records, boundary)
        assert len(test) == 8760
        assert len(train) == 10_000 - 8760

    def test_day_period_convention(self):
        assert [day_period_of_hour(h) for h in (0, 5, 6, 11, 12, 17, 18, 23)] == [
            0, 0, 1, 1, 2, 2, 3, 3,
        ]

    def test_season_convention(self):
        assert season_of_month(12) == 0 and season_of_month(2) == 0
        assert season_of_month(3) == 1 and season_of_month(7) == 2
        assert season_of_month(10) == 3

    def test_july_noon_label(self):
        rec = LoadRecord(datetime(2011, 7, 15, 12), 1.0, 1.0)
        labels = calendar_segments([rec])
        assert labels[0].tolist() == [2, 2]  # summer, day

    def test_full_year_covers_every_cell(self):
        records = self.make_records(8760, start=datetime(2013, 1, 1))
        labels = calendar_segments(records)
        cells = {(s, p) for s, p in labels}
        assert len(cells) == 16

    def test_labels_partition(self):
        records = self.make_records(500)
        labels = calendar_segments(records)
        assert labels.shape == (500, 2)
        assert labels[:, 0].min() >= 0 and labels[:, 0].max() <= 3
        assert labels[:, 1].min() >= 0 and labels[:, 1].max() <= 3


class TestHourOfYear:
    def test_anchors(self):
        assert hour_of_year(datetime(2010, 1, 1, 0)) == 0
        assert hour_of_year(datetime(2010, 12, 31, 23)) == 8759
        assert hour_of_year(datetime(2010, 3, 1, 0)) == (31 + 28) * 24

    def test_leap_day_collapses(self):
        assert hour_of_year(datetime(2012, 2, 29, 10)) == hour_of_year(
            datetime(2012, 2, 28, 10)
        )

    def test_season_intervals(self):
        start, end, dur = season_hour_interval(2)  # summer: Jun-Aug
        assert start == hour_of_year(datetime(2010, 6, 1, 0))
        assert dur == (30 + 31 + 31) * 24
        assert end == start + dur - 1
        w_start, w_end, w_dur = season_hour_interval(0)  # winter wraps
        assert w_start == hour_of_year(datetime(2010, 12, 1, 0))
        assert w_dur == (31 + 31 + 28) * 24
        assert w_end == w_start + w_dur - 1  # extends past the year end
