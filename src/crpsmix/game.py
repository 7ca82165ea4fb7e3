"""Online aggregation games: drive the forecast/outcome loop, record
losses and weights, and report regrets against their theoretical bounds."""

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
    _reweight,
    _square_exponents,
    _substitute_exponents,
    _update,
    aa_learning_rate,
    logsumexp,
    mix_past_posteriors,
    normalized_weights,
    substitute_square_aa,
    update_weights_confidence,
    wa_learning_rate,
)
from .grids import GridCDF, GridDomain, _check_outcome, cdf_values, crps_rows

#: Float slack allowed on the regret bound of a RegretReport.
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class GameConfig:
    """Parameters of one aggregation run; eta defaults from the mode and
    the outcome interval (2/(b-a) for "aa", 1/(2(b-a)) for "wa")."""

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
        elif not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")


class GameLog:
    """Record of one finished run, one array row per step: the outcome y,
    the learner loss h, the expert losses l_1..l_n, the confidences
    p_1..p_n, the weights q_1..q_n that formed the forecast (after
    confidence reweighting), and the normalized pool weights w_1..w_n
    before it.  The fields are views of the `(steps, 2 + 4n)` rows."""

    def __init__(self, n: int, eta: float, rows: np.ndarray | None = None):
        self.n = n
        self.eta = eta
        self._rows = np.empty((0, 2 + 4 * n)) if rows is None else rows
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
    def bound(self) -> float:
        """Time-independent regret budget ln(n)/eta."""
        return math.log(self.n) / self.eta

    def learner_cumulative(self) -> np.ndarray:
        return np.cumsum(self.learner_losses)

    def expert_cumulative(self) -> np.ndarray:
        return np.cumsum(self.expert_losses, axis=0)

    def regret(self) -> np.ndarray:
        """(steps, n) prefix regrets H_t - L^i_t."""
        return self.learner_cumulative()[:, None] - self.expert_cumulative()

    def discounted_regret(self) -> np.ndarray:
        """(steps, n) prefix sums of p_i (h - l_i)."""
        h = self.learner_losses[:, None]
        return np.cumsum(self.confidences * (h - self.expert_losses), axis=0)

    def to_csv(self, path) -> None:
        """One row per step: t, y, h, l_1..l_n, p_1..p_n, q_1..q_n (the
        weights that formed the forecast), w_1..w_n (the pool weights before
        confidence reweighting), D_1..D_n."""
        n = self.n
        header = (
            ["t", "y", "h"]
            + [f"l_{i + 1}" for i in range(n)]
            + [f"p_{i + 1}" for i in range(n)]
            + [f"q_{i + 1}" for i in range(n)]
            + [f"w_{i + 1}" for i in range(n)]
            + [f"D_{i + 1}" for i in range(n)]
        )
        disc = self.discounted_regret()
        # the bytes of csv.writer's default dialect: no cell needs quoting
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for t, (row, d) in enumerate(zip(self._rows, disc), start=1):
                fh.write(f"{t}," + ",".join(map(repr, row.tolist() + d.tolist())) + "\r\n")


def _check_losses(h: np.ndarray, losses: np.ndarray) -> None:
    """Learner losses (steps, C) and expert losses (steps, N) must be
    finite; both are non-negative by construction."""
    bad = ~(np.isfinite(h).all(axis=1) & np.isfinite(losses).all(axis=1))
    if bad.any():
        t = int(np.argmax(bad))
        raise RuntimeError(f"non-finite loss at step {t + 1}: h={h[t]}, l={losses[t]}")


def replay(configs, experts, outcomes, confidences=None, keep=()):
    """Play C configurations over one stream in one pass.

    `configs` are GameConfigs on one domain.  `experts` is either the fixed
    (N, d) matrix of expert CDF values (anything `cdf_values` stacks),
    checked once, or an iterator of (k, N, d) chunks of per-step matrices,
    checked a chunk at a time.  `confidences` is the (T, N) array of the
    run, all ones when omitted, checked once with the outcomes.

    Each step, for every configuration at once: reweight the experts by
    confidence, aggregate (substitution for "aa", averaging for "wa"),
    score everyone against the outcome (the expert losses once for all C),
    charge the virtual-expert update, then mix toward the uniform start
    vector.  When every expert sleeps the learners forecast from uniform
    weights and skip that step's weight update.  A configuration's numbers
    do not depend on the others replayed with it.

    Returns one GameLog per configuration, and {t: [the forecast of each
    configuration as a GridCDF]} for the 1-based steps t in `keep`.
    """
    configs = list(configs)
    domain = configs[0].domain
    if any(cfg.domain != domain for cfg in configs):
        raise ValueError("configurations must share one domain")
    ys = [_check_outcome(domain, y) for y in outcomes]
    if isinstance(experts, Iterator):
        matrices = (m for chunk in experts for m in cdf_values(chunk, domain))
        exponents = None
    else:
        fixed = cdf_values(experts, domain)
        matrices = itertools.repeat(fixed, len(ys))
        exponents = _square_exponents(fixed, SQUARE_LOSS_ETA)
    first = next(matrices, None)
    if first is None or first.ndim != 2:
        raise ValueError("expert values must be (N, d) matrices, one per outcome")
    matrices = itertools.chain([first], matrices)
    steps, n, c = len(ys), len(first), len(configs)
    p = None if confidences is None else _as_confidence(confidences, (steps, n))
    aa = [i for i, cfg in enumerate(configs) if cfg.mode == "aa"]
    wa = [i for i, cfg in enumerate(configs) if cfg.mode == "wa"]
    eta = np.array([[cfg.eta] for cfg in configs])
    alpha = np.array([[cfg.alpha] for cfg in configs])
    lw = np.full((c, n), -math.log(n))  # the (C, N) log weights
    ones = np.ones(n)
    h = np.empty((steps, c))
    losses = np.empty((steps, n))
    q = np.empty((c, steps, n))
    w = np.empty_like(q)
    keep = set(keep)
    kept = {}
    for t, (y, values) in enumerate(zip(ys, matrices, strict=True)):
        if values.shape != first.shape:
            raise ValueError(f"step {t + 1}: expert matrix of shape {values.shape}")
        pt = ones if p is None else p[t]
        awake = pt.any()
        wt = normalized_weights(lw)
        if p is None:
            qt = wt  # reweighting by ones leaves w's bits alone
        elif awake:
            qt = _reweight(lw, pt)
        else:
            qt = np.full((c, n), 1.0 / n)
        f = np.empty((c, domain.d))
        if aa:
            ex = exponents or _square_exponents(values, SQUARE_LOSS_ETA)
            f[aa] = _substitute_exponents(ex, qt[aa], SQUARE_LOSS_ETA)
        for i in wa:
            f[i] = qt[i] @ values
        try:
            f = cdf_values(f, domain)
        except ValueError:
            for i in aa:
                _check_substitution(f[i])
            raise
        lt = crps_rows(values, domain, y)
        r = f - (domain.grid >= y)  # crps of each row, as dot products
        ht = domain.delta * np.array([row @ row for row in r])
        if awake:
            lw = mix_past_posteriors(_update(lw, eta, pt, lt, ht[:, None]), alpha)
        h[t], losses[t], q[:, t], w[:, t] = ht, lt, qt, wt
        if t + 1 in keep:
            kept[t + 1] = [GridCDF(domain, v) for v in f]
    _check_losses(h, losses)
    if p is None:
        p = np.ones((steps, n))
    y = np.array(ys)
    logs = [
        GameLog(n, cfg.eta, np.column_stack([y, h[:, i], losses, p, q[i], w[i]]))
        for i, cfg in enumerate(configs)
    ]
    return logs, kept


@dataclass(frozen=True)
class RegretReport:
    """Final losses and regrets of a run next to the ln(n)/eta budget."""

    steps: int
    learner_loss: float
    expert_losses: np.ndarray
    final_regret: np.ndarray
    final_discounted_regret: np.ndarray
    max_discounted_regret: np.ndarray  # per expert, over all prefixes
    bound: float
    bound_satisfied: np.ndarray  # per expert

    @property
    def all_bounds_satisfied(self) -> bool:
        return bool(np.all(self.bound_satisfied))


def regret_report(log: GameLog) -> RegretReport:
    """Final losses and regrets; an expert's bound holds when its largest
    discounted regret is within BOUND_TOL of ln(n)/eta."""
    if log.steps == 0:
        raise ValueError("empty game log")
    disc = log.discounted_regret()
    peak = disc.max(axis=0)
    return RegretReport(
        steps=log.steps,
        learner_loss=float(log.learner_cumulative()[-1]),
        expert_losses=log.expert_cumulative()[-1],
        final_regret=log.regret()[-1],
        final_discounted_regret=disc[-1],
        max_discounted_regret=peak,
        bound=log.bound,
        bound_satisfied=peak <= log.bound + BOUND_TOL,
    )


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
    log_weights = np.full(n, -math.log(n))
    ones = np.ones(n)
    rows = np.empty((steps, 2 + 4 * n))
    for t in range(steps):
        q = normalized_weights(log_weights)
        pred = substitute_square_aa(f[t], q, eta)
        losses = (f[t] - y[t]) ** 2
        log_weights = update_weights_confidence(log_weights, eta, ones, losses, 0.0)
        rows[t] = np.concatenate(([y[t], (pred - y[t]) ** 2], losses, ones, q, q))
    return GameLog(n, eta, rows)
