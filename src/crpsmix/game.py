"""Online aggregation games: drive the forecast/outcome loop, record
losses and weights, and test regrets against their theoretical bounds."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .aggregation import (
    SQUARE_LOSS_ETA,
    _as_confidence,
    _check_substitution,
    aa_learning_rate,
    confidence_step,
    logsumexp,
    normalized_weights,
    square_tables,
    substitute_tables,
    wa_learning_rate,
)
from .grids import GridCDF, GridDomain, _check_outcome, cdf_array, repair_cdf

#: Float slack allowed on the regret bound: see GameLog.bound_excess.
BOUND_TOL = 1e-9

#: Largest temporary, in bytes, of the block scoring in `replay`.
BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True)
class GameConfig:
    """Parameters of one aggregation run; eta defaults from the mode and
    the outcome interval (2/(b-a) for "aa", 1/(2(b-a)) for "wa"), and must
    be positive and finite, given or derived (an interval narrower than
    about 1e-308 derives an infinite one).  The rates live here alone: the
    weights are plain arrays, and `GameLog.eta` only records the rate for
    the bound."""

    domain: GridDomain
    mode: str = "aa"
    eta: float | None = None
    alpha: float = 0.0

    def __post_init__(self):
        if self.mode not in ("aa", "wa"):
            raise ValueError(f"mode must be 'aa' or 'wa', got {self.mode!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.eta is None:
            rate = aa_learning_rate if self.mode == "aa" else wa_learning_rate
            object.__setattr__(self, "eta", rate(self.domain.width))
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")


class GameLog:
    """Record of one finished run, one array row per step: the outcome y,
    the learner loss h, the expert losses l_1..l_n, the confidences
    p_1..p_n, the weights q_1..q_n that formed the forecast (after
    confidence reweighting), and the normalized pool weights w_1..w_n
    before it.  The fields are views of the `(steps, 2 + 4n)` rows, so row
    t of `weights` and `pool_weights` holds the weights before step t.  A
    log is built from finished arrays; an empty one has
    `np.empty((0, 2 + 4 * n))` rows.  `max_cdf_repair` is the largest
    change `repair_cdf` made to a cell of an expert matrix or a forecast
    of the run."""

    def __init__(self, n: int, eta: float, rows: np.ndarray, max_cdf_repair: float = 0.0):
        self.n = n
        self.eta = eta
        self.max_cdf_repair = max_cdf_repair
        self._rows = rows
        self.steps = len(self._rows)

    def _block(self, k: int) -> np.ndarray:
        return self._rows[:, 2 + k * self.n : 2 + (k + 1) * self.n]

    outcomes = property(lambda self: self._rows[:, 0])
    learner_losses = property(lambda self: self._rows[:, 1])
    expert_losses = property(lambda self: self._block(0))
    confidences = property(lambda self: self._block(1))
    weights = property(lambda self: self._block(2))
    pool_weights = property(lambda self: self._block(3))

    @property
    def asleep_steps(self) -> int:
        """Steps on which every expert had zero confidence."""
        return int(np.count_nonzero(~np.any(self.confidences > 0, axis=1)))

    @property
    def feedback_steps(self) -> int:
        """Steps whose weight update read the learner's loss: some expert
        awake and some confidence below 1."""
        return int(np.count_nonzero(_reads_learner_loss(self.confidences)))

    @property
    def bound(self) -> float:
        """Time-independent regret budget ln(n)/eta."""
        return math.log(self.n) / self.eta

    def learner_cumulative(self) -> np.ndarray:
        return np.cumsum(self.learner_losses)

    def expert_cumulative(self) -> np.ndarray:
        return np.cumsum(self.expert_losses, axis=0)

    def discounted_regret(self) -> np.ndarray:
        """(steps, n) prefix sums of p_i (h - l_i)."""
        h = self.learner_losses[:, None]
        return np.cumsum(self.confidences * (h - self.expert_losses), axis=0)

    def bound_excess(self) -> float:
        """The largest discounted regret of any expert at any prefix, minus
        ln(n)/eta: the bound holds when this is at most BOUND_TOL.  At full
        confidence the discounted regret is the regret H_t - L^i_t, so this
        is the learner's excess over the best expert."""
        return float(self.discounted_regret().max()) - self.bound

    def to_csv(self, path, leading=None) -> None:
        """One row per step: t, the `leading` columns ({name: one cell per
        step}, written with `str`), y, h, l_1..l_n, p_1..p_n, q_1..q_n (the
        weights that formed the forecast), w_1..w_n (the pool weights before
        confidence reweighting)."""
        n = self.n
        leading = leading or {}
        header = (
            ["t", *leading, "y", "h"]
            + [f"l_{i + 1}" for i in range(n)]
            + [f"p_{i + 1}" for i in range(n)]
            + [f"q_{i + 1}" for i in range(n)]
            + [f"w_{i + 1}" for i in range(n)]
        )
        lead = zip(*leading.values(), strict=True) if leading else [()] * self.steps
        rows = zip(lead, self._rows, strict=True)  # one row's floats as objects at a time
        # the bytes of csv.writer's default dialect: no cell needs quoting
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for t, (cells, row) in enumerate(rows, start=1):
                fh.write(",".join([str(t), *map(str, cells), *map(repr, row.tolist())]) + "\r\n")


def _check_losses(h: np.ndarray, losses: np.ndarray) -> None:
    """Learner losses (steps, C) and expert losses (steps, N) must be
    finite; both are non-negative by construction."""
    bad = ~(np.isfinite(h).all(axis=1) & np.isfinite(losses).all(axis=1))
    if bad.any():
        t = int(np.argmax(bad))
        raise RuntimeError(f"non-finite loss at step {t + 1}: h={h[t]}, l={losses[t]}")


def _reads_learner_loss(p: np.ndarray) -> np.ndarray:
    """Per step of the (T, N) confidences, whether the confidence update
    p_i l_i + (1 - p_i) h reads the learner's loss h: some expert is
    awake and some confidence is below 1."""
    return p.any(axis=1) & ~(p == 1.0).all(axis=1)


def replay(configs, experts, outcomes, confidences=None, keep=()):
    """Play C configurations over one stream in one pass: the one way to
    play a game.

    `configs` are GameConfigs on one domain.  `experts` is either the fixed
    (N, d) matrix of expert CDF values (anything `cdf_values` stacks),
    checked once, or an iterator of (k, N, d) chunks of per-step matrices,
    checked a chunk at a time.  `confidences` is the (T, N) array of the
    run, all ones when omitted, checked once with the outcomes.

    Each step, for every configuration at once: reweight the experts by
    confidence, aggregate (substitution for "aa", from the `square_tables`
    built once per fixed matrix or chunk; averaging for "wa"), check and
    repair the forecasts with `repair_cdf`, score everyone against the
    outcome, charge the virtual-expert update, then mix toward the uniform
    start vector.  When every expert sleeps the learners forecast from
    uniform weights and skip that step's weight update.

    Only the weight recursion is sequential.  An update reads the
    learner's loss h only on a step where some expert is awake with a
    confidence below 1; at full confidence, or when all sleep, the weights
    move on without the forecast.  So the steps are played in blocks, each
    ending at a step whose update reads h, at the end of a chunk, or after
    as many steps as keep each temporary within BLOCK_BYTES (one step, if
    larger): the block's expert losses, then its weights step by step, then
    its forecasts, check and learner losses at once, then the update of a
    last step that reads h.  With C configurations, C_aa of them "aa", a
    block holds at most BLOCK_BYTES // (8 d max(N C_aa, N, C)) steps: 2 for
    `crpsmix synth` at d=1024 (N=3, one "aa" and one "wa"), 10 for
    verify's synthetic-stream check at d=256, 3 for `crpsmix load
    --confidence off` at d=128 (N=21), and 1 for `scripts/alpha_sweep.py`
    (eight "aa" configurations).  A load run with smooth confidences,
    where every awake hour reads h, plays one-step blocks.  log p is
    taken once per run, and 1 - p at the one step of a block that reads
    it.

    Every row has the bits of its step played alone, and a configuration's
    numbers do not depend on the others replayed with it: the substitution
    sums over the experts in one order, an averaged forecast is
    `q @ values` and a learner loss `r @ r` per row, bits that `np.vecdot`
    and a broadcast `matmul` give (the tests check it).

    Returns one GameLog per configuration, and {t: [the forecast of each
    configuration as a GridCDF]} for the 1-based steps t in `keep`.
    """
    configs = list(configs)
    domain = configs[0].domain
    if any(cfg.domain != domain for cfg in configs):
        raise ValueError("configurations must share one domain")
    y = np.array([_check_outcome(domain, v) for v in outcomes])
    steps, c, d = len(y), len(configs), domain.d
    grid, delta = domain.grid, domain.delta
    aa = np.array([cfg.mode == "aa" for cfg in configs])  # the substitution configurations
    na = int(np.count_nonzero(aa))
    repair = np.zeros(c)  # largest repair of an expert matrix or forecast

    def checked(vals):  # a new (k, N, d) float array
        if vals.ndim != 3:
            raise ValueError("expert values must be (N, d) matrices, one per outcome")
        np.maximum(repair, np.max(repair_cdf(vals)), out=repair)
        return vals, square_tables(vals, SQUARE_LOSS_ETA) if na else None

    if isinstance(experts, Iterator):
        chunks = (checked(cdf_array(chunk, domain)) for chunk in experts)
    else:
        fixed, tables = checked(cdf_array(experts, domain)[None])
        stack = (steps,) + fixed.shape[1:]
        if tables:
            tables = tuple(np.broadcast_to(tab, stack) for tab in tables)
        chunks = iter([(np.broadcast_to(fixed, stack), tables)])
    first = next(chunks, None)
    if first is None:
        raise ValueError("expert values must be (N, d) matrices, one per outcome")
    n = first[0].shape[1]
    block = max(1, BLOCK_BYTES // (8 * d * max(n * na, n, c)))

    if confidences is None:
        p = np.broadcast_to(1.0, (steps, n))
    else:
        p = _as_confidence(confidences, (steps, n))
    # per-step flags as bytes of 0 or 1: a step whose update reads h ends a block
    awake, feedback = p.any(axis=1).tobytes(), _reads_learner_loss(p).tobytes()
    with np.errstate(divide="ignore"):
        log_p = np.log(p)  # -inf for a sleeper: exp gives it weight 0
    eta = np.array([[cfg.eta] for cfg in configs])
    step = confidence_step(eta, np.array([[cfg.alpha] for cfg in configs]), n)
    lw = np.full((c, n), -math.log(n))  # the (C, N) log weights
    h = np.empty((steps, c))
    losses = np.empty((steps, n))
    wq = np.empty((steps, 2, c, n))  # per step: the pool weights w, then the q that formed the forecast
    keep = set(keep)
    kept = {}
    t = 0
    for values, tables in itertools.chain([first], chunks):
        if values.shape[1:] != (n, d):
            raise ValueError(f"step {t + 1}: expert matrix of shape {values.shape[1:]}")
        if t + len(values) > steps:
            raise ValueError(f"expert stream is longer than the {steps} outcomes")
        j0 = 0
        while j0 < len(values):
            k = min(block, len(values) - j0)
            stop = feedback.find(1, t, t + k)
            if stop >= 0:
                k = stop + 1 - t
            j1, last = j0 + k, t + k - 1
            vals = values[j0:j1]
            ind = grid >= y[t : t + k, None]  # the outcome indicators
            res = vals - ind[:, None, :]
            losses[t : t + k] = delta * np.einsum("tij,tij->ti", res, res)
            del res
            asleep = []
            for s in range(t, t + k):  # the recursion: log weights before each step
                wq[s] = lw
                if not awake[s]:
                    asleep.append(s)
                elif not feedback[s]:  # full confidence: h is not read
                    lw = step(lw, losses[s])
            if feedback[last]:  # q is reweighted by confidence: lw + log p
                wq[last, 1] += log_p[last]
            # w and q of the block from one call; at full confidence q is w
            wq[t : t + k] = normalized_weights(wq[t : t + k])
            if asleep:
                wq[asleep, 1] = 1.0 / n
            q = wq[t : t + k, 1]  # the block's forecasts, their check and scores
            f = np.empty((k, c, d))
            if na:
                a, b = tables
                f[:, aa] = substitute_tables(
                    (a[j0:j1, None], b[j0:j1, None]), q[:, aa], SQUARE_LOSS_ETA)
            if na < c:
                f[:, ~aa] = np.matmul(q[:, ~aa, None, :], vals[:, None])[..., 0, :]
            try:
                change = repair_cdf(f)
            except ValueError:
                for ft in f:  # the first substitution at fault, step by step
                    for i in np.flatnonzero(aa):
                        _check_substitution(ft[i])
                raise
            if not isinstance(change, float):  # 0.0: nothing repaired
                np.maximum(repair, change.max(axis=0), out=repair)
            r = f - ind[:, None, :]  # crps of each row, as one dot product per row
            h[t : t + k] = delta * np.vecdot(r, r)
            if feedback[last]:
                lw = step(lw, p[last] * losses[last] + (1.0 - p[last]) * h[last, :, None])
            for s in range(t, t + k):
                if s + 1 in keep:
                    kept[s + 1] = [GridCDF(domain, row) for row in f[s - t]]
            t, j0 = t + k, j1
    if t < steps:
        raise ValueError(f"expert stream is shorter than the {steps} outcomes")
    _check_losses(h, losses)
    logs = [
        GameLog(n, cfg.eta,
                np.column_stack([y, h[:, j], losses, p, wq[:, 1, j], wq[:, 0, j]]),
                max_cdf_repair=float(repair[j]))
        for j, cfg in enumerate(configs)
    ]
    return logs, kept


def telescoping_gap(log: GameLog) -> np.ndarray:
    """H_T + (1/eta) ln W_{T+1} per prefix, where W_{T+1} is the weight sum
    from uniform starts after the plain exponential update.  Non-positive
    (up to float accumulation) for substitution runs with full confidence
    and no mixing."""
    cum = log.expert_cumulative()
    log_w = logsumexp(-log.eta * cum - math.log(log.n), axis=1)
    return log.learner_cumulative() + log_w / log.eta


def run_square_loss_game(expert_forecasts, outcomes, eta: float) -> GameLog:
    """Reference game for the scalar square loss on binary outcomes: the
    learner aggregates by substitution and updates weights by the plain
    exponential rule (the confidence update at full confidence).  Regret
    stays below ln(n)/eta."""
    f = np.asarray(expert_forecasts, dtype=float)
    if f.ndim != 2:
        raise ValueError("expert forecasts must be a (steps, n) matrix")
    if f.min() < 0 or f.max() > 1:
        raise ValueError("square-loss forecasts must lie in [0, 1]")
    y = np.asarray(outcomes, dtype=float)
    if y.shape != (f.shape[0],):
        raise ValueError("need one outcome per forecast row")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("square-loss outcomes must be binary")
    if not 0.0 < eta <= 2.0:
        raise ValueError(f"square loss admits 0 < eta <= 2, got {eta}")

    steps, n = f.shape
    losses = (f - y[:, None]) ** 2
    q = np.empty((steps, n))
    lw = np.full(n, -math.log(n))
    for t in range(steps):  # the weights first: at full confidence h is not read
        q[t] = lw
        lw = lw - eta * losses[t]
        lw -= lw.max()
    q = normalized_weights(q)
    tables = square_tables(f[..., None], eta)  # (T, N, 1): each step's tables
    pred = np.clip(substitute_tables(tables, q, eta)[:, 0], 0.0, 1.0)
    rows = np.column_stack([y, (pred - y) ** 2, losses, np.ones((steps, n)), q, q])
    return GameLog(n, eta, rows)
