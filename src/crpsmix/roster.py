"""The 21-expert roster for hourly load forecasting: one anytime expert,
four seasonal experts, and sixteen season-by-day-period experts, each a
temperature-conditioned Gaussian mixture with a calendar confidence
schedule."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import (
    DAY_PERIOD_NAMES,
    HOURS_PER_YEAR,
    SEASON_NAMES,
    calendar_segments,
    day_period_hour_interval,
    hour_of_year,
    season_hour_interval,
)
from .experts import ConfidenceSchedule, Gmm2D, fit_gmm_ems, load_cdf_values
from .grids import GridDomain

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
    season_schedule: ConfidenceSchedule | None = None  # over hour-of-year
    day_schedule: ConfidenceSchedule | None = None  # over hour-of-day
    fit_points: int = 0
    fit_history: np.ndarray | None = None  # log-likelihood per EM round


def season_schedule(season: int, ramp_scale: float = 0.5) -> ConfidenceSchedule:
    """Confidence over the hour-of-year: 1 inside the season, decreasing
    linearly over ramps of `ramp_scale` times the season duration."""
    start, end, duration = season_hour_interval(season)
    ramp = ramp_scale * duration
    return ConfidenceSchedule(
        blocks=((start, end, ramp, ramp),), period=float(HOURS_PER_YEAR)
    )


def day_schedule(period: int, ramp_hours: float = DAY_RAMP_HOURS) -> ConfidenceSchedule:
    """Confidence over the hour-of-day: 1 inside the six-hour block,
    decreasing linearly over `ramp_hours` on each side."""
    start, end, _ = day_period_hour_interval(period)
    return ConfidenceSchedule(blocks=((start, end, ramp_hours, ramp_hours),), period=24.0)


def build_load_roster(
    train_records,
    *,
    components: int = 2,
    seed: int = 0,
    confidence: str = "smooth",
):
    """Fit the full roster on labeled training records.

    confidence "smooth" uses half-season / two-hour ramps, "binary" uses
    no ramps (experts sleep outside their exact training domain), and
    "off" attaches no schedules at all.  Returns (experts, failures) where
    failures is a list of (name, reason) for segments that could not be
    fitted; those experts are dropped from the roster.
    """
    if confidence not in ("smooth", "binary", "off"):
        raise ValueError(f"confidence must be smooth, binary or off, got {confidence!r}")
    labels = calendar_segments(train_records)
    points = np.array([(r.temperature, r.load) for r in train_records])

    season_ramp = {"smooth": 0.5, "binary": 0.0}.get(confidence)
    day_ramp = {"smooth": DAY_RAMP_HOURS, "binary": 0.0}.get(confidence)

    specs = [("expert01_anytime", None, None)]
    for s, sname in enumerate(SEASON_NAMES):
        specs.append((f"expert{len(specs) + 1:02d}_{sname}", s, None))
    for s, sname in enumerate(SEASON_NAMES):
        for p, pname in enumerate(DAY_PERIOD_NAMES):
            specs.append((f"expert{len(specs) + 1:02d}_{sname}_{pname}", s, p))

    seeds = [int(x) for x in np.random.SeedSequence(seed).generate_state(len(specs))]
    segments = []
    for _, s, p in specs:
        mask = np.ones(len(points), dtype=bool)
        if s is not None:
            mask &= labels[:, 0] == s
        if p is not None:
            mask &= labels[:, 1] == p
        segments.append(points[mask])
    fits = []  # one lockstep fit per level: anytime, seasons, season-periods
    for _, level in itertools.groupby(range(len(specs)), key=lambda i: specs[i][1:].count(None)):
        level = list(level)
        fits += fit_gmm_ems([segments[i] for i in level], components, [seeds[i] for i in level])

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
                sched_s = season_schedule(s, season_ramp)
            if p is not None:
                sched_d = day_schedule(p, day_ramp)
        experts.append(
            LoadExpert(name=name, model=model, season_schedule=sched_s, day_schedule=sched_d,
                       fit_points=len(segment), fit_history=history)
        )
    return experts, failures


def roster_confidences(experts, timestamps) -> np.ndarray:
    """(T, N) confidences at the timestamps: each expert's season schedule
    over the hour-of-year times its day schedule over the hour, 1 where it
    has none."""
    hours_of_year = np.array([hour_of_year(ts) for ts in timestamps], dtype=float)
    hours = np.array([ts.hour for ts in timestamps], dtype=float)
    out = np.ones((len(hours), len(experts)))
    for i, e in enumerate(experts):
        if e.season_schedule is not None:
            out[:, i] *= e.season_schedule.at(hours_of_year)
        if e.day_schedule is not None:
            out[:, i] *= e.day_schedule.at(hours)
    return out


class RosterStream:
    """Iterator of the (1, N, d) roster matrix of each temperature in turn,
    the per-step chunks `replay` takes: the `load_cdf_values` of the
    experts' models at that temperature, bit for bit.  The rows are not yet
    checked: `replay`'s `repair_cdf` check is their only one.

    The temperatures are split into consecutive windows whose distinct
    values fill at most one table of WINDOW_TABLE_BYTES, allocated once.
    A window's distinct temperatures are evaluated once each, in batches of
    at most BATCH_ARGUMENT_BYTES of normal-CDF arguments, and each step
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
        models = [e.model for e in experts]
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
