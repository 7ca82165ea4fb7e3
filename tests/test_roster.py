import errno
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest
from scipy.special import logsumexp, ndtr

from crpsmix.data import (
    HOURS_PER_YEAR,
    LoadRecord,
    hour_of_year,
    load_csv,
    split_train_test,
    write_demo_load_csv,
)
from crpsmix.experts import EM_MAX_ITER, fit_gmm_ems, load_cdf_values, stack_models
from crpsmix import experts as experts_mod, roster
from crpsmix.grids import GridCDF, GridDomain, repair_cdf
from crpsmix.roster import (
    BATCH_ARGUMENT_BYTES,
    CONFIDENCE_RAMPS,
    DAY_PERIODS,
    DAY_RAMP_HOURS,
    SEASONS,
    WINDOW_TABLE_BYTES,
    RosterStream,
    area_confidence,
    build_load_roster,
    roster_confidences,
)

from conftest import (conditional_load_cdfs, deadline, reference_area, reference_fit_gmm_em,
                      reference_schedule_at, spy_forks)


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


#: Run in a fresh interpreter as `python -c EVALUATOR_PROBE DIR CASE`: the
#: roster stream of the experts, temperatures and domain pickled in
#: DIR/inputs, with the rows written to DIR/rows and what the evaluating
#: process had loaded, and how many threads it ran, to DIR/report.  CASE
#: "broken" makes the first import of `scipy.special._ufuncs` fail;
#: "no_fork" deletes os.fork.
EVALUATOR_PROBE = """
import json, os, pickle, sys
from pathlib import Path
from crpsmix import roster

out, case = Path(sys.argv[1]), sys.argv[2]
experts, temps, domain = pickle.loads((out / "inputs").read_bytes())
windows = roster._windows

def probed(*inputs):
    yield from windows(*inputs)
    status = Path("/proc/self/status")
    threads = None
    if status.exists():
        threads = int(next(line.split()[1] for line in status.read_text().splitlines()
                           if line.startswith("Threads:")))
    (out / "report").write_text(json.dumps({
        "forked": os.getpid() != parent,
        "stub": not hasattr(sys.modules["scipy.special"], "__file__"),
        "package_init": [m for m in ("scipy._lib._array_api", "numpy.f2py") if m in sys.modules],
        "threads": threads,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }))

class Broken:  # leaves sys.meta_path, so the public import's own load succeeds
    def find_spec(self, name, path, target=None):
        if name == "scipy.special._ufuncs":
            sys.meta_path.remove(self)
            raise ImportError("broken")

roster._windows = probed
if case == "broken":
    sys.meta_path.insert(0, Broken())
if case == "no_fork":
    del os.fork
parent = os.getpid()
with roster.RosterStream(experts, temps, domain) as stream:
    rows = [row.tobytes() for row in stream]
(out / "rows").write_bytes(b"".join(rows))
"""


@pytest.fixture(scope="module")
def fitted(demo_load_csv):
    records, _ = load_csv(demo_load_csv)
    train, test = split_train_test(records, records[-1200].timestamp)
    experts, failures = build_load_roster(train, components=2, seed=5)
    return train, test, experts, failures


@pytest.fixture(scope="module")
def small_roster(fitted):
    """The roster fitted on 380 days at one component: one fit, which
    serves every confidence mode."""
    experts, failures = build_load_roster(fitted[0][: 380 * 24], components=1, seed=2)
    assert not failures
    return experts


@pytest.fixture(scope="module")
def demo_year(tmp_path_factory):
    path = write_demo_load_csv(tmp_path_factory.mktemp("roster") / "year.csv", hours=8760)
    return load_csv(path)[0]


def expert_segment(name, records):
    """The (temperature, load) points of an expert's calendar segment by
    the month-based reference, read from its name: expert01_anytime,
    expert02_winter, ..., expert21_autumn_evening."""
    _, *parts = name.split("_")
    if parts == ["anytime"]:
        parts = []
    return np.array([(r.temperature, r.load) for r in records
                     if list(reference_area(r.timestamp)[:len(parts)]) == parts])


def confidence_at(expert, mode, hour_of_year, hour=0.0):
    """`area_confidence` of the expert's area under the mode's ramps at one
    hour of the year and of the day."""
    calendar = (np.array([float(hour_of_year)]), np.array([float(hour)]))
    return area_confidence(expert.season, expert.period, calendar, CONFIDENCE_RAMPS[mode])[0]


class TestSchedules:
    """Each expert's area, and the confidence that `area_confidence` and
    `roster_confidences` give it under each mode's ramps."""

    def test_ramps_per_mode(self):
        assert CONFIDENCE_RAMPS == {"smooth": (0.5, DAY_RAMP_HOURS), "binary": (0.0, 0.0),
                                    "off": None}
        assert DAY_RAMP_HOURS == 2.0

    def test_season_schedule_plateau_and_ramp(self, small_roster):
        summer = small_roster[3]  # Jun-Aug
        assert summer.name == "expert04_summer"
        assert (summer.season, summer.period) == ("summer", None)

        def at(t):
            return confidence_at(summer, "smooth", t)

        jun1 = 3624  # cumulative hours to Jun 1
        assert at(float(jun1)) == 1.0
        assert at(float(jun1 + 500)) == 1.0
        # half-season ramp on each side
        dur = (30 + 31 + 31) * 24
        assert at(float(jun1 - dur / 4)) == pytest.approx(0.5)
        assert at(float(jun1 - dur)) == 0.0

    def test_winter_schedule_wraps_year_end(self, small_roster):
        winter = small_roster[1]
        assert winter.name == "expert02_winter"
        assert (winter.season, winter.period) == ("winter", None)

        def at(t):
            return confidence_at(winter, "smooth", t)

        assert at(100.0) == 1.0  # early January
        assert at(8500.0) == 1.0  # December
        assert at(4380.0) == 0.0  # mid-summer

    def test_day_schedule(self, small_roster):
        morning = small_roster[6]  # 06-11
        assert morning.name == "expert07_winter_morning"
        assert (morning.season, morning.period) == ("winter", "morning")
        assert DAY_PERIODS["morning"] == (6, 11)

        def at(t):  # early January: inside the season's plateau
            return confidence_at(morning, "smooth", 100.0, t)

        assert at(8.0) == 1.0
        assert at(5.0) == pytest.approx(0.5)
        assert at(12.0) == pytest.approx(0.5)
        assert at(13.0) == 0.0
        assert at(0.0) == 0.0

    def test_binary_ramps(self, small_roster):
        morning = small_roster[6]

        def at(t):
            return confidence_at(morning, "binary", 100.0, t)

        assert at(5.0) == 0.0 and at(6.0) == 1.0 and at(12.0) == 0.0
        # the season's edge is a step too: Mar 1 is hour 1416
        assert confidence_at(morning, "binary", 1415.0, 8.0) == 1.0
        assert confidence_at(morning, "binary", 1416.0, 8.0) == 0.0
        # binary's ramps are the default pair
        hours = np.arange(HOURS_PER_YEAR, dtype=float)
        calendar = (hours, hours % 24)
        for e in small_roster:
            assert np.array_equal(area_confidence(e.season, e.period, calendar),
                                  area_confidence(e.season, e.period, calendar, (0.0, 0.0)))

    @pytest.mark.parametrize("mode", ["smooth", "binary", "off"])
    def test_every_hour_of_two_years_matches_the_scalar_reference(self, small_roster, mode):
        # 2012 is a leap year: hour_of_year counts Feb 29 as Feb 28
        stamps = [datetime(2011, 1, 1) + timedelta(hours=h) for h in range((365 + 366) * 24)]
        experts = small_roster
        got = roster_confidences(experts, stamps, mode)
        hours_of_year = np.array([hour_of_year(ts) for ts in stamps])
        hours = np.array([ts.hour for ts in stamps])
        season_scale = {"smooth": 0.5, "binary": 0.0}.get(mode)
        day_ramp = {"smooth": DAY_RAMP_HOURS, "binary": 0.0}.get(mode)
        want = np.ones((len(stamps), len(experts)))
        for i, e in enumerate(experts):
            _, *parts = e.name.split("_")
            if mode == "off" or parts == ["anytime"]:
                continue
            start, end = SEASONS[parts[0]]
            season = [reference_schedule_at(float(h), start, end,
                                            season_scale * (end - start + 1),
                                            HOURS_PER_YEAR) for h in range(HOURS_PER_YEAR)]
            want[:, i] *= np.array(season)[hours_of_year]
            if len(parts) == 2:
                day = [reference_schedule_at(float(h), *DAY_PERIODS[parts[1]], day_ramp, 24)
                       for h in range(24)]
                want[:, i] *= np.array(day)[hours]
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # bit for bit, signs of zeros too


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
        for mode in CONFIDENCE_RAMPS:
            p = roster_confidences(experts, [datetime(2010, 1, 1, 3), datetime(2010, 7, 15, 14)],
                                   mode)
            np.testing.assert_array_equal(p[:, 0], [1.0, 1.0])

    def test_seasonal_confidences_at_midsummer_noon(self, fitted):
        _, _, experts, _ = fitted
        ts = datetime(2010, 7, 15, 13)
        p = roster_confidences(experts, [ts], "smooth")[0]
        by_name = dict(zip([e.name for e in experts], p))
        assert by_name["expert04_summer"] == 1.0
        assert by_name["expert02_winter"] == 0.0
        assert by_name["expert16_summer_day"] == 1.0
        assert by_name["expert14_summer_night"] == 0.0

    def test_ramp_overlap_after_season_end(self, fitted):
        _, _, experts, _ = fitted
        ts = datetime(2010, 9, 20, 13)  # 20 days into autumn
        p = roster_confidences(experts, [ts], "smooth")[0]
        by_name = dict(zip([e.name for e in experts], p))
        assert by_name["expert05_autumn"] == 1.0
        assert 0.0 < by_name["expert04_summer"] < 1.0  # still fading out

    def test_binary_mode_yields_zero_one(self, small_roster):
        p = roster_confidences(small_roster, [datetime(2010, 2, 10, 7), datetime(2010, 8, 3, 22)],
                               "binary")
        assert set(np.unique(p)) <= {0.0, 1.0}

    def test_off_mode_attaches_no_schedules(self, small_roster):
        p = roster_confidences(small_roster, [datetime(2010, 2, 10, 7)], "off")
        np.testing.assert_array_equal(p, np.ones((1, len(small_roster))))

    def test_span_confidences_match_per_step_products(self, fitted):
        # the per-step scalar path the whole-span array replaced: season
        # confidence at the hour of year times day confidence at the hour
        _, test, experts, _ = fitted
        stamps = [r.timestamp for r in test] + [datetime(2012, 2, 29, 23)]
        got = roster_confidences(experts, stamps, "smooth")
        assert got.shape == (len(stamps), len(experts))
        for t, ts in enumerate(stamps):
            for i, e in enumerate(experts):
                c = 1.0
                if e.season is not None:
                    start, end = SEASONS[e.season]
                    c *= reference_schedule_at(hour_of_year(ts), start, end,
                                               0.5 * (end - start + 1), HOURS_PER_YEAR)
                if e.period is not None:
                    c *= reference_schedule_at(ts.hour, *DAY_PERIODS[e.period],
                                               DAY_RAMP_HOURS, 24)
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

    @pytest.mark.parametrize("d, hours, forked", [
        pytest.param(d, hours, forked, id=f"{d}-{hours}" + ("-forked" if forked else ""))
        for forked in (False, True) for d, hours in [(128, 1200), (1024, 150)]
    ])
    @pytest.mark.parametrize("whole", [True, False], ids=["whole_degree", "fine"])
    def test_stream_matches_per_step_forecasts(self, fitted, monkeypatch, d, hours, whole,
                                               forked):
        # materialized with list(): a row yielded in one window must not
        # change when a later window refills the table
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), d)
        temps = [r.temperature for r in test[:hours]]
        if whole:
            temps = [float(round(t)) for t in temps]
        if not forked:
            monkeypatch.delattr(os, "fork")  # the in-process branch
        with deadline(120), RosterStream(experts, temps, dom) as stream:
            rows = list(stream)
        assert len(rows) == len(temps)
        models = [e.model for e in experts]
        for temp, got in zip(temps, rows):
            assert got.shape == (1, len(experts), d)
            # unchecked rows: `replay`'s repair_cdf makes them the checked ones
            assert got[0].tobytes() == load_cdf_values(stack_models(models), temp, dom).tobytes()
            repair_cdf(got)
            assert np.array_equal(got[0], conditional_load_cdfs(models, temp, dom))
        assert len(set(temps)) <= stream.evaluations <= len(temps)
        if forked:
            monkeypatch.delattr(os, "fork")
            in_process = RosterStream(experts, temps, dom)
            assert len(list(in_process)) == len(temps)
            assert stream.evaluations == in_process.evaluations

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
        monkeypatch.delattr(os, "fork")  # the in-process branch: the spy sees every batch
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

    def test_stream_stacks_the_models_once(self, fitted, monkeypatch):
        # d=1024: 40 hours span several windows and batches
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), 1024)
        temps = [r.temperature for r in test[:40]]
        stacked = []

        def spy(models):
            stacked.append(len(models))
            return stack_models(models)

        monkeypatch.setattr(roster, "stack_models", spy)
        with deadline(120), RosterStream(experts, temps, dom) as stream:
            rows = list(stream)
        assert stacked == [len(experts)] and stream.evaluations > 6
        models = stack_models([e.model for e in experts])
        for temp, got in zip(temps, rows, strict=True):
            assert got[0].tobytes() == load_cdf_values(models, temp, dom).tobytes()

    def test_killed_evaluator_raises_after_the_rows_it_sent(self, fitted, monkeypatch):
        # d=1024: six temperatures a window, one per batch; the evaluator
        # dies in its eighth batch, in the second window
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), 1024)
        temps = [r.temperature for r in test[:40]]
        parent, batches = os.getpid(), []

        def spy(models, chunk, domain):
            batches.append(chunk)
            if os.getpid() != parent and len(batches) == 8:
                os.kill(os.getpid(), signal.SIGKILL)
            return load_cdf_values(models, chunk, domain)

        monkeypatch.setattr(roster, "load_cdf_values", spy)
        rows = []
        ended = f"the roster evaluation process ended by signal {int(signal.SIGKILL)}"
        with deadline(120), RosterStream(experts, temps, dom) as stream:
            with pytest.raises(RuntimeError, match=ended):
                rows.extend(stream)
        assert batches == [] and stream.evaluations == 6  # the parent evaluated nothing
        # the hours of the first window, those before a seventh temperature
        assert len(rows) == max(i for i in range(len(temps)) if len(set(temps[:i])) <= 6)
        monkeypatch.delattr(os, "fork")
        for got, want in zip(rows, RosterStream(experts, temps, dom)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [16, 128])
    def test_forked_windows_are_the_in_process_rows(self, fitted, monkeypatch, d):
        # 16 experts: a window of 512 (d=16) or 64 (d=128) distinct
        # temperatures fills WINDOW_TABLE_BYTES exactly; two full windows,
        # then a shorter last one
        train, _, experts, _ = fitted
        experts = experts[:16]
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), d)
        full = WINDOW_TABLE_BYTES // (16 * d * 8)
        assert full * 16 * d * 8 == WINDOW_TABLE_BYTES
        distinct = [float(t) for t in np.linspace(-5.0, 35.0, 2 * full + full // 3)]
        # every fifth temperature recurs at once, in its own window
        temps = [t for i, t in enumerate(distinct) for _ in range(1 + (i % 5 == 0))]
        with deadline(120), RosterStream(experts, temps, dom) as stream:
            forked = b"".join(row.tobytes() for row in stream)
        windows, real = [], roster._windows

        def spy(*inputs):
            for rows, slots in real(*inputs):
                windows.append(len(rows))
                yield rows, slots

        monkeypatch.setattr(roster, "_windows", spy)
        monkeypatch.delattr(os, "fork")
        in_process = RosterStream(experts, temps, dom)
        assert forked == b"".join(row.tobytes() for row in in_process)
        assert windows == [full, full, full // 3]
        assert stream.evaluations == in_process.evaluations == len(distinct)

    def test_evaluator_killed_inside_a_window_raises(self, fitted):
        # d=1024: a window's rows, 6 x 21 x 1024 x 8 bytes, overfill the
        # pipe, so the evaluator is still inside the second window's rows
        # while this process plays the first; it is killed there, once more
        # bytes wait in the pipe than any window's header holds
        fcntl, termios = pytest.importorskip("fcntl"), pytest.importorskip("termios")
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), 1024)
        temps = [r.temperature for r in test[:40]]
        ended = f"the roster evaluation process ended by signal {int(signal.SIGKILL)}"
        with deadline(120), RosterStream(experts, temps, dom) as stream:
            rows = [next(stream)]
            fd = stream._replies.fileno()
            while int.from_bytes(fcntl.ioctl(fd, termios.FIONREAD, bytes(4)),
                                 sys.byteorder) <= 4096:
                time.sleep(0.01)
            os.kill(stream._pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match=ended):
                rows.extend(stream)
        assert stream.evaluations == 6
        assert len(rows) == max(i for i in range(len(temps)) if len(set(temps[:i])) <= 6)

    def test_consumer_exception_reaps_the_evaluator(self, fitted, monkeypatch):
        # d=1024: a window's rows overfill the pipe, so the evaluator is
        # still at work on the second window when the consumer fails
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), 1024)
        temps = [r.temperature for r in test[:40]]
        forked = spy_forks(monkeypatch)
        with deadline(120), pytest.raises(ArithmeticError, match="consumer"):
            with RosterStream(experts, temps, dom) as stream:
                for _ in stream:
                    raise ArithmeticError("the consumer failed")
        assert stream.evaluations == 6  # after the first window
        [pid] = forked
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("site", ["fit", "evaluator"])
    def test_failed_fork_closes_its_pipe(self, fitted, demo_year, monkeypatch, site):
        # the fit forks twice: its first fork fails, then its second, whose
        # failure must kill and reap the first fit child
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), 16)
        pipes, forked, real_pipe, real_fork = [], [], os.pipe, os.fork

        def pipe():
            pipes.append(real_pipe())
            return pipes[-1]

        def fork():  # each fork follows its pipe
            if len(pipes) == failing:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            pid = real_fork()
            forked.extend([pid] if pid else [])
            return pid

        monkeypatch.setattr(os, "pipe", pipe)
        monkeypatch.setattr(os, "fork", fork)
        for failing in (1, 2) if site == "fit" else (1,):
            pipes.clear()
            forked.clear()
            with deadline(120), pytest.raises(BlockingIOError):
                if site == "fit":
                    build_load_roster(demo_year, components=2, seed=3)
                else:
                    RosterStream(experts, [r.temperature for r in test[:48]], dom)
            assert len(pipes) == failing and len(forked) == failing - 1
            for pid in forked:
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)
            for fd in sum(pipes, ()):
                with pytest.raises(OSError):
                    os.fstat(fd)

    @pytest.mark.parametrize("forked", [False, True], ids=["in_process", "forked"])
    def test_evaluator_without_scipy_raises_its_import_error(self, fitted, monkeypatch, forked):
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), 16)
        temps = [r.temperature for r in test[:48]]
        monkeypatch.setitem(sys.modules, "scipy.special", None)  # its import fails
        if not forked:
            monkeypatch.delattr(os, "fork")
        with deadline(120), RosterStream(experts, temps, dom) as stream:
            with pytest.raises(ImportError, match="scipy.special"):
                next(stream)

    @pytest.mark.parametrize("case", ["light", "broken", "no_fork"])
    def test_evaluator_loads_only_ndtr_on_one_thread(self, fitted, monkeypatch, tmp_path, case):
        # this module imports scipy.special, which every evaluator forked in
        # the test process inherits: only a fresh interpreter loads it cold
        train, test, experts, _ = fitted
        dom = GridDomain(0.0, 1.05 * max(r.load for r in train), 128)
        temps = [r.temperature for r in test[:300]]
        (tmp_path / "inputs").write_bytes(pickle.dumps((experts, temps, dom)))
        src = os.path.dirname(os.path.dirname(roster.__file__))
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        proc = subprocess.run([sys.executable, "-c", EVALUATOR_PROBE, str(tmp_path), case],
                              env={**env, "PYTHONPATH": src}, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.delattr(os, "fork")
        want = b"".join(row.tobytes() for row in RosterStream(experts, temps, dom))
        assert (tmp_path / "rows").read_bytes() == want
        report = json.loads((tmp_path / "report").read_text())
        forked = case != "no_fork"
        assert report["forked"] == forked
        assert report["stub"] == (case == "light")
        # the public import runs scipy.special's package init
        assert report["package_init"] == ([] if case == "light"
                                          else ["scipy._lib._array_api", "numpy.f2py"])
        assert report["openblas_num_threads"] == ("1" if forked else None)
        if forked and report["threads"] is not None:
            assert report["threads"] == 1

    def test_insufficient_segment_reports_failure(self, fitted):
        train, _, _, _ = fitted
        experts, failures = build_load_roster(train[:200], components=2, seed=0)
        assert failures  # many calendar cells lack data in 200 hours
        assert all(isinstance(name, str) and reason for name, reason in failures)

    def test_bad_confidence_mode_rejected(self, fitted):
        train, test, experts, _ = fitted
        bad = "confidence must be smooth, binary or off, got 'fuzzy'"
        with pytest.raises(ValueError, match=bad):
            build_load_roster(train, confidence="fuzzy")
        with pytest.raises(ValueError, match=bad):
            roster_confidences(experts, [r.timestamp for r in test[:24]], "fuzzy")


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
        train, evenings = [], 0
        for r in demo_year:
            season, period = reference_area(r.timestamp)
            if season == "summer":
                r = replace(r, temperature=70.0, load=100.0)
            if (season, period) == ("autumn", "evening"):
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


    def test_each_expert_trains_where_its_binary_confidence_is_1(self, monkeypatch):
        # every hour of 2011-2013: Feb 29 2012 and two December wraps
        stamps = [datetime(2011, 1, 1) + timedelta(hours=h) for h in range(1096 * 24)]
        rng = np.random.default_rng(8)
        loads, temps = rng.normal(100.0, 10.0, len(stamps)), rng.normal(50.0, 15.0, len(stamps))
        records = [LoadRecord(*row) for row in zip(stamps, loads, temps)]
        calls = []

        def spy(point_sets, k, seeds):
            calls.append(point_sets)
            return fit_gmm_ems(point_sets, k, seeds)

        monkeypatch.setattr(roster, "fit_gmm_ems", spy)
        monkeypatch.delattr(os, "fork")  # the in-process branch: the spy sees every level
        experts, failures = build_load_roster(records, components=1, seed=0)
        assert failures == [] and len(experts) == 21
        [anytime], seasons, periods = calls
        segments = [anytime, *seasons, *periods]
        points = np.array([(r.temperature, r.load) for r in records])
        awake = roster_confidences(experts, stamps, "binary")
        assert set(np.unique(awake)) == {0.0, 1.0}
        # each hour lies in one season and one season-by-day-period area
        assert np.all(awake[:, 1:5].sum(axis=1) == 1) and np.all(awake[:, 5:].sum(axis=1) == 1)
        for e, segment, p in zip(experts, segments, awake.T, strict=True):
            assert e.fit_points == len(segment)
            assert segment.tobytes() == points[p == 1.0].tobytes(), e.name
            assert segment.tobytes() == expert_segment(e.name, records).tobytes(), e.name


class TestForkedLevel:
    """build_load_roster fits its anytime and season levels in one forked
    child process and its season-by-day-period level in another, while the
    calling process only reads the fits."""

    @staticmethod
    def patch_m_step(monkeypatch, act, *, in_child):
        """Run `act()` before every M-step of the child (in_child) or of the
        parent process."""
        parent, real = os.getpid(), experts_mod._m_step

        def m_step(*args):
            if (os.getpid() != parent) == in_child:
                act()
            return real(*args)

        monkeypatch.setattr(experts_mod, "_m_step", m_step)

    def test_child_models_are_the_in_process_fits(self, demo_year, monkeypatch):
        forked = spy_forks(monkeypatch)
        experts, _ = build_load_roster(demo_year, components=2, seed=3)
        assert len(forked) == 2
        seeds = [int(x) for x in np.random.SeedSequence(3).generate_state(21)]
        segments = [expert_segment(e.name, demo_year) for e in experts]
        want = [fit for level in (slice(1), slice(1, 5), slice(5, None))  # one call per level
                for fit in fit_gmm_ems(segments[level], 2, seeds[level])]
        monkeypatch.delattr(os, "fork")  # the in-process branch
        unforked, _ = build_load_roster(demo_year, components=2, seed=3)
        assert len(forked) == 2
        for e, same, (model, history) in zip(experts, unforked, want, strict=True):
            assert e.name == same.name
            for got in (e.model, same.model):
                for name in ("weights", "means", "covs"):
                    assert not getattr(got, name).flags.writeable
                    assert getattr(got, name).tobytes() == getattr(model, name).tobytes()
            assert e.fit_history.tobytes() == same.fit_history.tobytes() == history.tobytes()

    def test_child_exception_reaches_the_parent(self, demo_year, monkeypatch):
        def fail():
            raise ArithmeticError("M-step failed in the child")

        self.patch_m_step(monkeypatch, fail, in_child=True)
        with pytest.raises(ArithmeticError, match="failed in the child"):
            build_load_roster(demo_year, components=2, seed=3)

    @pytest.mark.parametrize("act, ended", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}"),
        (lambda: os._exit(7), "exit status 7"),
    ], ids=["killed", "exited"])
    def test_child_without_a_result_raises(self, demo_year, monkeypatch, act, ended):
        self.patch_m_step(monkeypatch, act, in_child=True)
        with pytest.raises(RuntimeError, match=f"ended by {ended} without a result"):
            build_load_roster(demo_year, components=2, seed=3)

    def test_exception_in_a_fit_child_reaps_the_other(self, demo_year, monkeypatch):
        # the second child's result overfills its pipe (as below): it ends
        # only if killed, or if the parent, which stops reading, closes its
        # end and no other process holds that end open
        forked = spy_forks(monkeypatch)

        def fail():
            if not forked:  # in the first child, forked before any pid was recorded
                raise ArithmeticError("M-step failed in the first fit child")

        monkeypatch.setattr(experts_mod, "EM_TOL", -np.inf)
        self.patch_m_step(monkeypatch, fail, in_child=True)
        with deadline(120), pytest.raises(ArithmeticError, match="failed in the first fit child"):
            build_load_roster(demo_year, components=2, seed=3)
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_the_calling_process_fits_nothing(self, demo_year, monkeypatch):
        calls = []
        self.patch_m_step(monkeypatch, lambda: calls.append(os.getpid()), in_child=False)
        experts, failures = build_load_roster(demo_year, components=2, seed=3)
        assert failures == [] and len(experts) == 21
        assert calls == []
        monkeypatch.delattr(os, "fork")  # the in-process branch: the spy sees its M-steps
        build_load_roster(demo_year, components=2, seed=3)
        assert calls and set(calls) == {os.getpid()}

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
    def test_a_fit_child_runs_without_openssl(self, demo_year, monkeypatch, forked):
        # each fit reports, as its failure reason, the `_hashlib` entry of
        # the process that runs it
        def report(segments, components, seed):
            for _ in segments:
                yield ValueError(repr(sys.modules.get("_hashlib", "absent")))

        monkeypatch.setattr(roster, "fit_gmm_ems", report)
        monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
        if not forked:
            monkeypatch.delattr(os, "fork")
        experts, failures = build_load_roster(demo_year, components=2, seed=3)
        assert experts == [] and len(failures) == 21
        assert {reason for _, reason in failures} == {"None" if forked else "'absent'"}
        assert "_hashlib" not in sys.modules

    def test_a_child_holds_only_its_own_pipe(self):
        # the second child is forked while the first stream is open: it
        # closes that stream's read end, so only this process holds it
        with deadline(60), roster._Forked("first", lambda: ["first"]) as first:
            fd = first._replies.fileno()
            pipe = os.fstat(fd).st_ino

            def held():
                try:
                    yield os.fstat(fd).st_ino == pipe
                except OSError:
                    yield False

            with roster._Forked("second", held) as second:
                assert list(second) == [False]
            assert list(first) == ["first"]

    def test_result_larger_than_the_pipe_buffer(self, demo_year, monkeypatch):
        # no fit meets a stopping tolerance of -inf: 16 histories of
        # EM_MAX_ITER rounds overfill a 64 KiB pipe before the child ends,
        # so the parent must read before it waits
        monkeypatch.setattr(experts_mod, "EM_TOL", -np.inf)
        experts, failures = build_load_roster(demo_year, components=2, seed=3)
        assert failures == [] and len(experts) == 21
        assert [len(e.fit_history) for e in experts] == [EM_MAX_ITER] * 21
        sent = [(e.model.weights, e.model.means, e.model.covs, e.fit_history)
                for e in experts[5:]]
        assert len(pickle.dumps(sent)) > 1 << 16

    def test_cli_prints_its_line_once(self, tmp_path):
        # stdout is a pipe, so "pending" sits in the buffer the child
        # inherits; a child that flushed it at exit would print it twice
        src = os.path.dirname(os.path.dirname(roster.__file__))
        code = ("import sys; from crpsmix.cli import main; print('pending', end=' '); "
                "sys.exit(main(sys.argv[1:]))")
        data = write_demo_load_csv(tmp_path / "demo.csv", hours=8760 + 48)
        proc = subprocess.run(
            [sys.executable, "-c", code, "load", "--data", str(data),
             "--split", (datetime(2006, 1, 1) + timedelta(hours=8760)).isoformat(),
             "--grid", "16", "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("pending load: T=")
        assert proc.stdout.count("pending") == proc.stdout.count("load:") == 1
