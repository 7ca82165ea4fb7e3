"""The 21-expert roster for hourly load forecasting: one anytime expert,
four seasonal experts, and sixteen season-by-day-period experts, each a
temperature-conditioned Gaussian mixture with a calendar confidence
schedule."""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from .data import HOURS_PER_YEAR, hour_of_year
from .experts import Gmm2D, fit_gmm_ems, load_cdf_values, stack_models
from .grids import GridDomain

#: The specialists' areas, as inclusive (start, end) hours: the quarters
#: Dec-Feb, Mar-May, Jun-Aug and Sep-Nov of the fixed year of
#: `hour_of_year` (winter runs past its end into January), and the six-hour
#: periods of the day.
SEASONS = {"winter": (8016, 10175), "spring": (1416, 3623),
           "summer": (3624, 5831), "autumn": (5832, 8015)}
DAY_PERIODS = {"night": (0, 5), "morning": (6, 11), "day": (12, 17), "evening": (18, 23)}

DAY_RAMP_HOURS = 2.0  # confidence decrease of a daily expert

#: Bytes of the table that holds one window's roster matrices, one per
#: distinct temperature: 48 temperatures at N=21, d=128, and 6 at d=1024.
WINDOW_TABLE_BYTES = 1 << 20
#: Bytes of normal-CDF arguments, N * k * d per temperature, evaluated in
#: one batch; at least one temperature is.
BATCH_ARGUMENT_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class LoadExpert:
    """A fitted temperature-to-load model plus its area of competence, and
    its training-segment size and EM log-likelihood history."""

    name: str
    model: Gmm2D
    season_schedule: tuple | None = None  # (start, end, ramp) over hour-of-year
    day_schedule: tuple | None = None  # (start, end, ramp) over hour-of-day
    fit_points: int = 0
    fit_history: np.ndarray | None = None  # log-likelihood per EM round


def periodic_ramp(x, start, end, ramp, period):
    """Confidence at the times x, elementwise: 1 on the plateau [start,
    end], linear over `ramp` on each side, 0 elsewhere, periodic modulo
    `period` (the plateau may reach past it)."""
    x = x % period
    best = 0.0
    for c in (x - period, x, x + period):
        v = np.where((start <= c) & (c <= end), 1.0, 0.0)
        if ramp > 0:
            v = np.where((start - ramp <= c) & (c < start), (c - (start - ramp)) / ramp, v)
            v = np.where((end < c) & (c <= end + ramp), 1.0 - (c - end) / ramp, v)
        best = np.maximum(best, v)
    return best


def build_load_roster(
    train_records,
    *,
    components: int = 2,
    seed: int = 0,
    confidence: str = "smooth",
):
    """Fit the full roster on training records: each expert on the records
    in its area, where its binary confidence is 1.

    confidence "smooth" uses half-season / two-hour ramps, "binary" uses
    no ramps (experts sleep outside their exact training domain), and
    "off" attaches no schedules at all.  Returns (experts, failures) where
    failures is a list of (name, reason) for segments that could not be
    fitted; those experts are dropped from the roster.
    """
    if confidence not in ("smooth", "binary", "off"):
        raise ValueError(f"confidence must be smooth, binary or off, got {confidence!r}")
    points = np.array([(r.temperature, r.load) for r in train_records])
    hours_of_year, hours = _calendar_hours([r.timestamp for r in train_records])
    in_season = {s: periodic_ramp(hours_of_year, *SEASONS[s], 0.0, HOURS_PER_YEAR) == 1.0
                 for s in SEASONS}
    in_period = {p: periodic_ramp(hours, *DAY_PERIODS[p], 0.0, 24) == 1.0 for p in DAY_PERIODS}

    season_ramp = {"smooth": 0.5, "binary": 0.0}.get(confidence)
    day_ramp = {"smooth": DAY_RAMP_HOURS, "binary": 0.0}.get(confidence)

    specs = [("expert01_anytime", None, None)]
    for s in SEASONS:
        specs.append((f"expert{len(specs) + 1:02d}_{s}", s, None))
    for s in SEASONS:
        for p in DAY_PERIODS:
            specs.append((f"expert{len(specs) + 1:02d}_{s}_{p}", s, p))

    seeds = [int(x) for x in np.random.SeedSequence(seed).generate_state(len(specs))]
    segments = []
    for _, s, p in specs:
        mask = np.ones(len(points), dtype=bool)
        if s is not None:
            mask &= in_season[s]
        if p is not None:
            mask &= in_period[p]
        segments.append(points[mask])
    # one lockstep fit per level: the season-by-day-period experts in a
    # child process while this one fits the anytime expert and the seasons
    periods = 1 + len(SEASONS)
    with _ForkedFit(segments[periods:], components, seeds[periods:]) as child:
        fits = fit_gmm_ems(segments[:1], components, seeds[:1])
        fits += fit_gmm_ems(segments[1:periods], components, seeds[1:periods])
        fits += child.result()

    experts: list[LoadExpert] = []
    failures: list[tuple[str, str]] = []
    for (name, s, p), segment, fit in zip(specs, segments, fits):
        if isinstance(fit, Exception):
            failures.append((name, str(fit)))
            continue
        model, history = fit
        sched_s = sched_d = None
        if confidence != "off":
            if s is not None:
                start, end = SEASONS[s]
                sched_s = (start, end, season_ramp * (end - start + 1))
            if p is not None:
                sched_d = (*DAY_PERIODS[p], day_ramp)
        experts.append(
            LoadExpert(name=name, model=model, season_schedule=sched_s, day_schedule=sched_d,
                       fit_points=len(segment), fit_history=history)
        )
    return experts, failures


class _ForkedFit:
    """`fit_gmm_ems(point_sets, k, seeds)` run in a forked child process
    while the caller works, as a context: `result()` returns the child's
    results, bit for bit those of the call in this process, and leaving the
    context reaps the child on every path.  Where `os.fork` does not exist,
    the call runs in this process on entry.

    The child pickles the call's results as they are (a `Gmm2D` unpickles
    through its constructor, validated and read-only), or the exception the
    call raised, into a pipe, and ends with `os._exit` (no stdio flush, no
    atexit handlers).  The parent reads the whole pipe before `waitpid`,
    since the histories can exceed the pipe's buffer.
    """

    def __init__(self, point_sets, k, seeds):
        self._pid = None
        if not hasattr(os, "fork"):
            self._fits = fit_gmm_ems(point_sets, k, seeds)
            return
        read_fd, write_fd = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            os.close(read_fd)  # else a parent that stops reading cannot break the pipe
            _serve_fit(write_fd, point_sets, k, seeds)
        os.close(write_fd)
        self._reader = os.fdopen(read_fd, "rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pid is not None:
            self._reader.close()  # a child still writing gets EPIPE and ends
            os.waitpid(self._pid, 0)
            self._pid = None

    def result(self) -> list:
        if self._pid is None:
            return self._fits
        with self._reader:
            data = self._reader.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise RuntimeError(f"the EM fit process ended by {how} without a result")
        fits = pickle.loads(data)
        if isinstance(fits, Exception):
            raise fits
        return fits


def _serve_fit(write_fd, point_sets, k, seeds):
    """The forked child of `_ForkedFit`: fit, send and `os._exit`."""
    code = 1
    try:
        try:
            fits = fit_gmm_ems(point_sets, k, seeds)
        except Exception as exc:  # sent to the parent, which raises it
            fits = exc
        with open(write_fd, "wb") as out:
            pickle.dump(fits, out)
        code = 0
    finally:
        os._exit(code)


def roster_confidences(experts, timestamps) -> np.ndarray:
    """(T, N) confidences at the timestamps: each expert's season schedule
    over the hour-of-year times its day schedule over the hour, 1 where it
    has none."""
    hours_of_year, hours = _calendar_hours(timestamps)
    out = np.ones((len(hours), len(experts)))
    for i, e in enumerate(experts):
        if e.season_schedule is not None:
            out[:, i] *= periodic_ramp(hours_of_year, *e.season_schedule, HOURS_PER_YEAR)
        if e.day_schedule is not None:
            out[:, i] *= periodic_ramp(hours, *e.day_schedule, 24)
    return out


def _calendar_hours(timestamps):
    """The hours of the year and of the day at the timestamps, as floats."""
    return (np.array([hour_of_year(ts) for ts in timestamps], dtype=float),
            np.array([ts.hour for ts in timestamps], dtype=float))


class RosterStream:
    """Iterator of the (1, N, d) roster matrix of each temperature in turn,
    the per-step chunks `replay` takes: the `load_cdf_values` of the
    experts' models at that temperature, bit for bit.  The rows are not yet
    checked: `replay`'s `repair_cdf` check is their only one.

    The temperatures are split into consecutive windows whose distinct
    values fill at most one table of WINDOW_TABLE_BYTES, allocated once.
    A window's distinct temperatures are evaluated once each, from the
    models' parameters stacked once per stream, in batches of at most
    BATCH_ARGUMENT_BYTES of normal-CDF arguments, and each step
    gets a copy of its row, so no yielded matrix changes when a later
    window refills the table.  `evaluations` counts the temperatures
    evaluated so far.
    """

    def __init__(self, experts, temps, domain: GridDomain):
        self.evaluations = 0
        self._rows = self._windows(experts, list(temps), domain)

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        return next(self._rows)

    def _windows(self, experts, temps, domain):
        models = stack_models([e.model for e in experts])
        row_bytes = len(experts) * domain.d * 8
        table = np.empty((max(1, WINDOW_TABLE_BYTES // row_bytes), len(experts), domain.d))
        batch = max(1, BATCH_ARGUMENT_BYTES // (sum(e.model.k for e in experts) * domain.d * 8))
        start = 0
        while start < len(temps):
            slots = {}  # distinct temperature -> table row
            end = start
            while end < len(temps) and (temps[end] in slots or len(slots) < len(table)):
                slots.setdefault(temps[end], len(slots))
                end += 1
            distinct = list(slots)
            for i in range(0, len(distinct), batch):
                chunk = distinct[i : i + batch]
                table[i : i + len(chunk)] = load_cdf_values(models, chunk, domain)
            self.evaluations += len(distinct)
            for temp in temps[start:end]:
                yield table[slots[temp]][None].copy()
            start = end
