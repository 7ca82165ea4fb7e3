"""Synthetic outcome streams sampled from time-varying triangular mixtures,
and ingestion of hourly load/temperature series with calendar labels."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .experts import TriangularExpert
from .rng import rng_from_seed

logger = logging.getLogger(__name__)

SEASON_NAMES = ("winter", "spring", "summer", "autumn")
DAY_PERIOD_NAMES = ("night", "morning", "day", "evening")

#: Meteorological quarters: Dec-Feb, Mar-May, Jun-Aug, Sep-Nov.
DEFAULT_SEASON_OF_MONTH = {
    12: 0, 1: 0, 2: 0,
    3: 1, 4: 1, 5: 1,
    6: 2, 7: 2, 8: 2,
    9: 3, 10: 3, 11: 3,
}

DAY_PERIOD_HOURS = 6  # night 00-05, morning 06-11, day 12-17, evening 18-23

_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_CUM_MONTH_HOURS = tuple(int(x) for x in np.concatenate(([0], np.cumsum(_MONTH_DAYS) * 24)))
HOURS_PER_YEAR = _CUM_MONTH_HOURS[-1]  # 8760


# ---------------------------------------------------------------------------
# Synthetic streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MixtureSchedule:
    """Per-step mixture weights over the generating distributions; rows
    are probability vectors."""

    weights: np.ndarray  # (steps, n_generators)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError("weights must be a (steps, generators) matrix")
        if w.min() < 0 or np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("every row must be a probability vector")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def steps(self) -> int:
        return self.weights.shape[0]

    @property
    def n_generators(self) -> int:
        return self.weights.shape[1]


def _segment_length(steps: int, n_segments: int) -> int:
    if steps < 1 or n_segments < 1:
        raise ValueError("need positive steps and segment count")
    return max(1, steps // n_segments)


def rotating_leader_schedule(
    steps: int, n_generators: int = 3, n_segments: int = 6
) -> MixtureSchedule:
    """Method 1: a single generator holds weight 1 on each segment and the
    leadership rotates between segments."""
    seg = _segment_length(steps, n_segments)
    w = np.zeros((steps, n_generators))
    leaders = (np.arange(steps) // seg) % n_generators
    w[np.arange(steps), leaders] = 1.0
    return MixtureSchedule(w)


def smooth_crossfade_schedule(
    steps: int, n_generators: int = 3, n_segments: int = 6
) -> MixtureSchedule:
    """Method 2: weights move piecewise-linearly, each segment's leader
    peaking at the segment midpoint and crossfading into the next."""
    seg = _segment_length(steps, n_segments)
    n_seg_actual = int(np.ceil(steps / seg))
    anchors_t = [0.0]
    anchors_w = [np.eye(n_generators)[0]]
    for j in range(n_seg_actual):
        anchors_t.append(j * seg + seg / 2.0)
        anchors_w.append(np.eye(n_generators)[j % n_generators])
    anchors_t.append(float(steps))
    anchors_w.append(anchors_w[-1])
    anchors_w = np.array(anchors_w)
    t = np.arange(steps, dtype=float)
    w = np.stack(
        [np.interp(t, anchors_t, anchors_w[:, g]) for g in range(n_generators)],
        axis=1,
    )
    w /= w.sum(axis=1, keepdims=True)
    return MixtureSchedule(w)


def default_generators() -> tuple[TriangularExpert, ...]:
    """Three triangular generators with distinct peaks and overlapping
    supports inside [0, 1]."""
    return (
        TriangularExpert(peak=0.20, left=0.0, right=0.45),
        TriangularExpert(peak=0.50, left=0.25, right=0.75),
        TriangularExpert(peak=0.80, left=0.55, right=1.0),
    )


def synth_stream(generators, schedule: MixtureSchedule, steps: int, seed: int) -> np.ndarray:
    """Sample one outcome per step: pick a generator by the step's mixture
    weights, then draw from its triangular density.  Bit-reproducible for
    a given seed."""
    if schedule.steps < steps:
        raise ValueError(f"schedule covers {schedule.steps} steps, need {steps}")
    if schedule.n_generators != len(generators):
        raise ValueError("schedule width must match the generator count")
    rng = rng_from_seed(seed)
    cum = np.cumsum(schedule.weights[:steps], axis=1)
    picks = (rng.random(steps)[:, None] > cum).sum(axis=1)
    left = np.array([g.left for g in generators])[picks]
    peak = np.array([g.peak for g in generators])[picks]
    right = np.array([g.right for g in generators])[picks]
    return rng.triangular(left, peak, right)


# ---------------------------------------------------------------------------
# Hourly load/temperature ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadRecord:
    timestamp: datetime
    load: float
    temperature: float


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for hourly load CSVs, so any export with a header row
    can be ingested without reshaping."""

    timestamp_col: str = "timestamp"
    load_col: str = "load"
    temperature_col: str = "temperature"
    delimiter: str = ","


@dataclass
class DataQualityReport:
    rows_parsed: int = 0
    row_errors: list[tuple[int, str]] = field(default_factory=list)
    gaps: list[tuple[datetime, int]] = field(default_factory=list)  # (last ts before gap, missing rows)

    def as_dict(self) -> dict:
        return {
            "rows_parsed": self.rows_parsed,
            "rows_failed": len(self.row_errors),
            "gaps": len(self.gaps),
            "hours_missing": sum(n for _, n in self.gaps),
        }


def load_csv(path, schema: CsvSchema = CsvSchema()):
    """Parse an hourly load/temperature CSV.

    Returns (records, report).  Unparsable rows are collected with their
    line numbers and are fatal only if more than 1% of rows fail.
    Duplicate or backward timestamps and non-hourly spacing are structural
    corruption and raise immediately; multi-hour jumps are flagged as gaps.
    """
    records: list[LoadRecord] = []
    report = DataQualityReport()
    with open(path, newline="", encoding="utf-8") as fh:
        # a short row reads "" in its missing columns: a row error, not a crash
        reader = csv.DictReader(fh, delimiter=schema.delimiter, restval="")
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        for col in (schema.timestamp_col, schema.load_col, schema.temperature_col):
            if col not in reader.fieldnames:
                raise ValueError(f"{path}: missing column {col!r}")
        n_rows = 0
        for row in reader:
            n_rows += 1
            line = reader.line_num
            try:
                ts = datetime.fromisoformat(row[schema.timestamp_col].strip())
                load = float(row[schema.load_col])
                temp = float(row[schema.temperature_col])
                if not (math.isfinite(load) and math.isfinite(temp)):
                    raise ValueError("non-finite load or temperature")
            except (ValueError, TypeError, KeyError) as exc:
                report.row_errors.append((line, str(exc)))
                continue
            if records:
                prev = records[-1].timestamp
                try:
                    delta_h = (ts - prev).total_seconds() / 3600.0
                except TypeError as exc:  # timezone-aware mixed with naive
                    raise ValueError(f"{path}:{line}: {exc}") from exc
                if delta_h <= 0:
                    raise ValueError(
                        f"{path}:{line}: timestamp {ts.isoformat()} does not "
                        f"advance past {prev.isoformat()}"
                    )
                if delta_h != int(delta_h):
                    raise ValueError(
                        f"{path}:{line}: spacing of {delta_h} hours is not hourly"
                    )
                if delta_h > 1:
                    report.gaps.append((prev, int(delta_h) - 1))
            records.append(LoadRecord(ts, load, temp))
        report.rows_parsed = len(records)
        if n_rows == 0:
            raise ValueError(f"{path}: no data rows")
        if len(report.row_errors) > 0.01 * n_rows:
            raise ValueError(
                f"{path}: {len(report.row_errors)} of {n_rows} rows failed to "
                f"parse (>1%); first: line {report.row_errors[0][0]}: "
                f"{report.row_errors[0][1]}"
            )
    if report.row_errors:
        logger.warning(
            "%s: %d rows skipped (first at line %d)",
            path, len(report.row_errors), report.row_errors[0][0],
        )
    return records, report


def write_demo_load_csv(path, hours, start=datetime(2006, 1, 1), seed=11):
    """Write a synthetic hourly (timestamp, load, temperature) CSV whose
    temperature-load relation shifts with season and hour of day, so the
    calendar-specialized experts have something to specialize on."""
    rng = np.random.default_rng(seed)
    ts = start
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "load", "temperature"])
        for _ in range(hours):
            doy = ts.timetuple().tm_yday
            season_phase = math.cos(2 * math.pi * (doy - 15) / 365.0)
            diurnal = math.sin(2 * math.pi * (ts.hour - 6) / 24.0)
            temp = 45.0 - 22.0 * season_phase + 8.0 * diurnal + rng.normal(0, 3.5)
            comfort = abs(temp - 62.0)
            occupancy = 1.0 + 0.45 * math.sin(2 * math.pi * (ts.hour - 9) / 24.0)
            load = 95.0 + 2.1 * comfort * occupancy + 14.0 * occupancy
            load += rng.normal(0, 6.0)
            writer.writerow([ts.isoformat(), round(load, 3), round(temp, 2)])
            ts += timedelta(hours=1)
    return path


def split_train_test(records, boundary: datetime):
    """Partition records: timestamps before `boundary` train, the rest test."""
    try:
        train = [r for r in records if r.timestamp < boundary]
    except TypeError as exc:  # timezone-aware compared with naive
        raise ValueError(f"boundary {boundary.isoformat()}: {exc}") from exc
    test = [r for r in records if r.timestamp >= boundary]
    if not train or not test:
        raise ValueError(
            f"boundary {boundary.isoformat()} leaves an empty side "
            f"({len(train)} train, {len(test)} test)"
        )
    return train, test


def default_test_boundary(records) -> datetime:
    """Boundary putting the last HOURS_PER_YEAR records into the test side."""
    if len(records) <= HOURS_PER_YEAR:
        raise ValueError(
            f"need more than {HOURS_PER_YEAR} records to reserve them for testing"
        )
    return records[-HOURS_PER_YEAR].timestamp


def season_of_month(month: int) -> int:
    return DEFAULT_SEASON_OF_MONTH[month]


def day_period_of_hour(hour: int) -> int:
    return hour // DAY_PERIOD_HOURS


def calendar_segments(records) -> np.ndarray:
    """(n, 2) integer labels: season index and day-period index per record."""
    out = np.empty((len(records), 2), dtype=int)
    for i, r in enumerate(records):
        out[i, 0] = season_of_month(r.timestamp.month)
        out[i, 1] = day_period_of_hour(r.timestamp.hour)
    return out


def hour_of_year(ts: datetime) -> int:
    """Hour index in a fixed 365-day year; Feb 29 counts as Feb 28."""
    day = min(ts.day, _MONTH_DAYS[ts.month - 1])
    return _CUM_MONTH_HOURS[ts.month - 1] + (day - 1) * 24 + ts.hour


def season_hour_interval(season: int):
    """(start_hour, end_hour_inclusive, duration) of a season within the
    fixed year; the interval may extend past HOURS_PER_YEAR when the
    season wraps December into the new year."""
    months = [m for m in range(1, 13) if DEFAULT_SEASON_OF_MONTH[m] == season]
    if not months:
        raise ValueError(f"no months mapped to season {season}")
    member = set(months)
    # first month whose cyclic predecessor is outside the season
    start_month = next(m for m in months if ((m - 2) % 12) + 1 not in member)
    duration = sum(_MONTH_DAYS[m - 1] * 24 for m in months)
    start = _CUM_MONTH_HOURS[start_month - 1]
    return start, start + duration - 1, duration


def day_period_hour_interval(period: int):
    """(start_hour, end_hour_inclusive, duration) of a day period."""
    start = period * DAY_PERIOD_HOURS
    return start, start + DAY_PERIOD_HOURS - 1, DAY_PERIOD_HOURS
