"""The 21-expert roster for hourly load forecasting: one anytime expert,
four seasonal experts, and sixteen season-by-day-period experts, each a
temperature-conditioned Gaussian mixture fitted on its calendar area,
whose confidence under each mode `roster_confidences` gives."""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
import types
import weakref
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

#: Each mode's `area_confidence` ramps: half a season and DAY_RAMP_HOURS
#: for "smooth", none for "binary"; under "off" (None) every expert is awake.
CONFIDENCE_RAMPS = {"smooth": (0.5, DAY_RAMP_HOURS), "binary": (0.0, 0.0), "off": None}

#: Bytes of the table that holds one window's roster matrices, one per
#: distinct temperature: 48 temperatures at N=21, d=128, and 6 at d=1024.
WINDOW_TABLE_BYTES = 1 << 20
#: Bytes of normal-CDF arguments, N * k * d per temperature, evaluated in
#: one batch; at least one temperature is.
BATCH_ARGUMENT_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class LoadExpert:
    """A fitted temperature-to-load model plus its area of competence
    (`season`, a key of SEASONS, and `period`, one of DAY_PERIODS; None for
    all), and its training-segment size and EM log-likelihood history."""

    name: str
    model: Gmm2D
    season: str | None = None
    period: str | None = None
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


def area_confidence(season, period, calendar, ramps=(0.0, 0.0)) -> np.ndarray:
    """The confidence of the area (`season`, `period`) at the `calendar`
    hours (`_calendar_hours`): the season's `periodic_ramp` times the
    period's, 1 where either is None.  `ramps` is (the season ramp as a
    fraction of the season, the day ramp in hours); (0, 0) gives 1 inside
    the area and 0 outside it."""
    season_ramp, day_ramp = ramps
    hours_of_year, hours = calendar
    out = np.ones(len(hours))
    if season is not None:
        start, end = SEASONS[season]
        out *= periodic_ramp(hours_of_year, start, end, season_ramp * (end - start + 1),
                             HOURS_PER_YEAR)
    if period is not None:
        out *= periodic_ramp(hours, *DAY_PERIODS[period], day_ramp, 24)
    return out


def _check_confidence(confidence: str) -> None:
    if confidence not in CONFIDENCE_RAMPS:
        raise ValueError(f"confidence must be smooth, binary or off, got {confidence!r}")


def build_load_roster(
    train_records,
    *,
    components: int = 2,
    seed: int = 0,
    confidence: str = "smooth",
):
    """Fit the full roster on training records: each expert on the records
    in its area, where its `area_confidence` at zero ramps is 1.  Returns
    (experts, failures) where failures is a list of (name, reason) for
    segments that could not be fitted; those experts are dropped from the
    roster.

    The fit reads no confidence mode: one roster serves every mode through
    `roster_confidences`.  `confidence` stays for the callers that pass it;
    it is only checked, as `roster_confidences` checks it.

    The fits run as three lockstep calls of `fit_gmm_ems`, one per level,
    in two `_Forked` fit children that run at once: the anytime call then
    the season call in the first, the season-by-day-period call in the
    second.  Each child draws the roster's seeds itself, so this process
    fits nothing and never imports numpy.random; it reads the fits in that
    order, each a pickled (model, history) or the exception that failed
    the fit, and both children are reaped before this returns (an error in
    one kills and reaps the other).  Where `os.fork` does not exist, the
    three calls run here, in the same order.
    """
    _check_confidence(confidence)
    points = np.array([(r.temperature, r.load) for r in train_records])
    calendar = _calendar_hours([r.timestamp for r in train_records])

    specs = [("expert01_anytime", None, None)]
    for s in SEASONS:
        specs.append((f"expert{len(specs) + 1:02d}_{s}", s, None))
    for s in SEASONS:
        for p in DAY_PERIODS:
            specs.append((f"expert{len(specs) + 1:02d}_{s}_{p}", s, p))
    segments = [points[area_confidence(s, p, calendar) == 1.0] for _, s, p in specs]

    def fit_levels(*levels):  # one lockstep fit per level, in order
        seeds = [int(x) for x in np.random.SeedSequence(seed).generate_state(len(specs))]
        for level in levels:
            yield from fit_gmm_ems(segments[level], components, seeds[level])

    anytime, seasons, periods = slice(1), slice(1, 1 + len(SEASONS)), slice(1 + len(SEASONS), None)
    with (_Forked("anytime and season fit", lambda: fit_levels(anytime, seasons)) as first,
          _Forked("season-by-day-period fit", lambda: fit_levels(periods)) as second):
        fits = [*first, *second]

    experts: list[LoadExpert] = []
    failures: list[tuple[str, str]] = []
    for (name, s, p), segment, fit in zip(specs, segments, fits):
        if isinstance(fit, Exception):
            failures.append((name, str(fit)))
            continue
        model, history = fit
        experts.append(LoadExpert(name=name, model=model, season=s, period=p,
                                  fit_points=len(segment), fit_history=history))
    return experts, failures


#: (name, CPU seconds, peak RSS in MB) of each `_Forked` child reaped in
#: this process, in the order they were reaped (`wait4`'s rusage; ru_maxrss
#: is in KiB on Linux)
child_usage: list[tuple[str, float, float]] = []


class _Forked:
    """The items of `work()`, an iterable, made in a forked child process
    while this one works: an iterator and a context.  The one fork helper,
    under the fit children of `build_load_roster` and the evaluator of
    `RosterStream`.

    The child inherits what `work` reads through the fork, and every module
    loaded here, and runs `_serve`; each item crosses one pipe as `_send`
    writes it and `_receive` reads it, pickled unless a subclass says
    otherwise, so it is bit for bit the one `work` made (a `Gmm2D`
    unpickles through its constructor, validated and read-only).  An
    exception that `work` raises is raised here at the same point of the
    stream, and a child that ends without finishing its stream raises
    RuntimeError naming its exit status or signal, also inside an item
    that `_receive` reads.  The stream's end reaps the child; leaving the
    context kills and reaps a child not yet reaped, on every path.  A fork
    that fails closes the pipe before it raises.  Where `os.fork` does not
    exist, `work()` is called in this process when this is made.

    A child holds no pipe but its own write end: it closes the read ends
    of the streams open here when it is forked.  Each child reaped here
    (`os.wait4`) appends its name, CPU seconds and peak RSS to
    `child_usage`, which `crpsmix load --timings` prints.
    """

    #: the read ends of the streams open in this process
    _open = weakref.WeakSet()

    def __init__(self, name: str, work):
        self._name, self._pid, self._replies = name, None, None
        if not hasattr(os, "fork"):
            self._items = iter(work())
            return
        read, write = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:  # such as EAGAIN at a process limit
            os.close(read)
            os.close(write)
            raise
        if self._pid == 0:
            # else a parent that stops reading this stream, or another one
            # open here, cannot break its pipe
            os.close(read)
            for replies in _Forked._open:
                replies.close()
            _serve(work, write, self._send)
        os.close(write)
        self._replies = os.fdopen(read, "rb")
        _Forked._open.add(self._replies)
        self._items = self._stream()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()
        if self._replies is not None:
            self._replies.close()

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._items)

    @staticmethod
    def _send(item, up):
        """Write one item of the stream to the child's end `up` of the pipe:
        pickled, as a 1-tuple."""
        pickle.dump((item,), up)

    def _receive(self, item):
        """The item that `_send` wrote as the 1-tuple `(item,)`, read on:
        `item` itself.  An EOFError tells that the pipe ended inside it."""
        return item

    def _stream(self):
        try:
            while type(message := pickle.load(self._replies)) is tuple:
                yield self._receive(message[0])
            finished = True
        except (EOFError, pickle.UnpicklingError):  # the pipe ended inside the stream
            finished = False
        code = self._reap()
        if code or not finished:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise RuntimeError(f"the {self._name} process ended by {how} without a result")
        if message is not None:
            raise message

    def _reap(self) -> int:
        _, status, usage = os.wait4(self._pid, 0)
        self._pid = None
        child_usage.append((self._name, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024))
        return os.waitstatus_to_exitcode(status)


def _serve(work, fd, send):
    """The forked child of `_Forked`: apply the OpenSSL rule of `cli.main`
    (for callers that do not run through `main`, such as perfbench's
    set-up probe), so `work` imports numpy.random without OpenSSL; write
    each item of `work()` to the pipe `fd` with `send`, flushed, so the
    parent plays an item while the child makes the next; then None, or the
    exception `work` raised; and end with `os._exit`, which flushes no
    stdio buffer inherited from the parent and runs no atexit handler."""
    code = 1
    try:
        sys.modules.setdefault("_hashlib", None)
        with open(fd, "wb") as up:
            try:
                for item in work():
                    send(item, up)
                    up.flush()
                end = None
            except Exception as exc:  # sent to the parent, which raises it
                end = exc
            pickle.dump(end, up)
        code = 0
    finally:
        os._exit(code)


def roster_confidences(experts, timestamps, confidence: str) -> np.ndarray:
    """(T, N) confidences at the timestamps under the `confidence` mode:
    each expert's `area_confidence` at the mode's CONFIDENCE_RAMPS, or all
    ones for "off"; a ValueError for any other mode."""
    _check_confidence(confidence)
    ramps = CONFIDENCE_RAMPS[confidence]
    out = np.ones((len(timestamps), len(experts)))
    if ramps is not None:
        calendar = _calendar_hours(timestamps)
        for i, e in enumerate(experts):
            out[:, i] = area_confidence(e.season, e.period, calendar, ramps)
    return out


def _calendar_hours(timestamps):
    """The hours of the year and of the day at the timestamps, as floats."""
    return (np.array([hour_of_year(ts) for ts in timestamps], dtype=float),
            np.array([ts.hour for ts in timestamps], dtype=float))


class RosterStream(_Forked):
    """Iterator of the (1, N, d) roster matrix of each temperature in turn,
    the per-step chunks `replay` takes: the `load_cdf_values` of the
    experts' models at that temperature alone, bit for bit.  The rows are
    not yet checked: `replay`'s `repair_cdf` check is their only one.

    The temperatures are split into consecutive windows whose distinct
    values fill at most one table of WINDOW_TABLE_BYTES, allocated once
    per stream.  A window's distinct temperatures are evaluated once each,
    from the models' parameters stacked once per stream, in batches of at
    most BATCH_ARGUMENT_BYTES of normal-CDF arguments, and each step gets
    a copy of its row, so no yielded matrix changes when a later window
    refills the table and `list(stream)` is safe.  `evaluations` counts
    the temperatures evaluated so far: 40 for the 1000 whole-degree test
    hours of perfbench's load-int input at seed 3.  `wait` adds up the
    seconds (`time.perf_counter`) that the stream's reader waited for its
    windows, the end of the stream included, and `first_wait` is the part
    spent on the first window: each blocked read of a window from the
    evaluator, or each window's evaluation where it runs in this process.

    A `_Forked` stream of windows: its child, the evaluator, is forked when
    the stream is made, inherits the stacked models, the temperatures and
    the domain, and evaluates the next window while this process plays the
    steps of the last.  A window crosses the pipe as a pickled header (its
    row count and the table row of each step), then its rows' raw float64
    bytes, which this process reads with `readinto` into one window table
    of its own, allocated when the stream is made and freed once the last
    window is played: no pickle copy of the rows is made on either side.  A
    pipe that ends inside the rows ends the stream as `_Forked` says.
    Where `os.fork` does not exist a window is evaluated here when its
    first step is due, with the same rows and `evaluations`.
    """

    def __init__(self, experts, temps, domain: GridDomain):
        self.evaluations = 0
        self.wait = self.first_wait = 0.0
        inputs = (stack_models([e.model for e in experts]), list(temps), domain)
        caller = os.getpid()
        super().__init__("roster evaluation", lambda: _evaluate(inputs, caller))
        self._table = _window_table(len(experts), domain.d)  # the forked stream's windows
        self._rows = self._steps(self._items)

    def __next__(self) -> np.ndarray:
        return next(self._rows)

    @staticmethod
    def _send(window, up):
        rows, slots = window
        pickle.dump(((len(rows), slots),), up)
        up.write(rows)  # a leading slice of the table: C-contiguous

    def _receive(self, header):
        count, slots = header
        rows = self._table[:count]
        if self._replies.readinto(rows) < rows.nbytes:
            raise EOFError("the pipe ended inside a window's rows")
        return rows, slots

    def _steps(self, windows):
        while True:
            start = time.perf_counter()
            window = next(windows, None)
            self.wait += time.perf_counter() - start
            if window is None:
                break
            rows, slots = window
            if not self.evaluations:
                self.first_wait = self.wait
            self.evaluations += len(rows)
            for slot in slots:
                yield rows[slot][None].copy()
        self._table = None  # freed before the game that reads this stream ends


def _evaluate(inputs, caller):
    """The windows of `RosterStream`, evaluated from its `inputs` (stacked
    models, temperatures, domain).  In the forked evaluator, `ndtr`
    (`load_cdf_values`' only scipy use) is loaded alone: a bare
    `scipy.special` package in sys.modules, with scipy's `special`
    directory as its __path__, holds the `ndtr` of the compiled
    `scipy.special._ufuncs`, so `from scipy.special import ndtr` gets that
    very ufunc, and `scipy/special/__init__.py`, whose array-API layer
    imports numpy.f2py, numpy.testing and numpy.ma, never runs.  scipy's
    OpenBLAS, which the load brings in and the evaluator never calls, is
    held to one thread, so it starts no worker beside the process that
    plays the game.  An entry already in sys.modules (a module, or None)
    is left as it is; a light load that fails leaves none, and the public
    import runs.  The `caller` that made the stream, which runs this where
    `os.fork` does not exist, never gets the bare package: it keeps the
    public import."""
    if os.getpid() != caller and "scipy.special" not in sys.modules:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        import scipy

        special = sys.modules["scipy.special"] = types.ModuleType("scipy.special")
        special.__path__ = [os.path.join(scipy.__path__[0], "special")]
        try:  # an ImportError too where the extension lacks `ndtr`
            from scipy.special._ufuncs import ndtr

            special.ndtr = ndtr
        except ImportError:
            del sys.modules["scipy.special"]
    import scipy.special  # noqa: F401

    yield from _windows(*inputs)


def _window_table(n, d):
    """An empty table of (n, d) roster matrices: as many as fill
    WINDOW_TABLE_BYTES, and at least one."""
    return np.empty((max(1, WINDOW_TABLE_BYTES // (n * d * 8)), n, d))


def _windows(models, temps, domain):
    """Per window of `RosterStream`, the rows of its distinct temperatures
    (a view of the one table) and the table row of each of its
    temperatures, yielded as soon as the window is evaluated."""
    table = _window_table(len(models.weights), domain.d)
    batch = max(1, BATCH_ARGUMENT_BYTES // (models.weights.size * domain.d * 8))
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
        yield table[: len(distinct)], [slots[temp] for temp in temps[start:end]]
        start = end
