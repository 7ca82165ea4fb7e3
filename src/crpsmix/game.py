"""Online aggregation games: drive the forecast/outcome loop, record
losses and weights, and report regrets against their theoretical bounds."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .aggregation import (
    AllExpertsAsleep,
    aa_learning_rate,
    combine_wa,
    confidence_reweight,
    logsumexp,
    mix_past_posteriors,
    normalized_weights,
    substitute_crps_aa,
    substitute_square_aa,
    update_weights_confidence,
    wa_learning_rate,
)
from .grids import GridCDF, GridDomain, cdf_values, crps, crps_rows


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


@dataclass
class GameLog:
    """Per-step record of one run: outcomes, losses, confidences, the
    weights that formed each forecast (after confidence reweighting), and
    the normalized pool weights before it."""

    n: int
    eta: float
    outcomes: list[float] = field(default_factory=list)
    learner_losses: list[float] = field(default_factory=list)
    expert_losses: list[np.ndarray] = field(default_factory=list)
    confidences: list[np.ndarray] = field(default_factory=list)
    weights: list[np.ndarray] = field(default_factory=list)
    pool_weights: list[np.ndarray] = field(default_factory=list)

    def append(self, y, h, losses, p, q, w):
        self.outcomes.append(float(y))
        self.learner_losses.append(float(h))
        self.expert_losses.append(np.asarray(losses, dtype=float))
        self.confidences.append(np.asarray(p, dtype=float))
        self.weights.append(np.asarray(q, dtype=float))
        self.pool_weights.append(np.asarray(w, dtype=float))

    @property
    def steps(self) -> int:
        return len(self.outcomes)

    @property
    def bound(self) -> float:
        """Time-independent regret budget ln(n)/eta."""
        return math.log(self.n) / self.eta

    def learner_cumulative(self) -> np.ndarray:
        return np.cumsum(self.learner_losses)

    def expert_cumulative(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.expert_losses), axis=0)

    def regret(self) -> np.ndarray:
        """(steps, n) prefix regrets H_t - L^i_t."""
        return self.learner_cumulative()[:, None] - self.expert_cumulative()

    def discounted_regret(self) -> np.ndarray:
        """(steps, n) prefix sums of p_i (h - l_i)."""
        h = np.asarray(self.learner_losses)[:, None]
        l = np.asarray(self.expert_losses)
        p = np.asarray(self.confidences)
        return np.cumsum(p * (h - l), axis=0)

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
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t in range(self.steps):
                row = [t + 1, repr(self.outcomes[t]), repr(self.learner_losses[t])]
                row += [repr(float(x)) for x in self.expert_losses[t]]
                row += [repr(float(x)) for x in self.confidences[t]]
                row += [repr(float(x)) for x in self.weights[t]]
                row += [repr(float(x)) for x in self.pool_weights[t]]
                row += [repr(float(x)) for x in disc[t]]
                writer.writerow(row)


class OnlineGame:
    """Sequential aggregation of CDF forecasts under CRPS.

    Each step: reweight experts by confidence, aggregate (substitution for
    "aa", averaging for "wa"), score everyone against the outcome, charge
    the virtual-expert update, then mix toward the uniform start vector.
    When every expert sleeps the learner forecasts from uniform weights
    and skips that step's weight update.  The state is `log_weights`, the
    (N,) unnormalized log weights; eta and alpha are read from `config`.
    """

    def __init__(self, config: GameConfig, n_experts: int):
        self.config = config
        self.log_weights = np.full(n_experts, -math.log(n_experts))
        self.log = GameLog(n_experts, config.eta)

    def step(self, forecasts, outcome, confidences=None) -> GridCDF:
        """Play one round.  `forecasts` is the (N, d) matrix of expert CDF
        values on the game's grid, or a list of N GridCDFs on that domain;
        returns the aggregated forecast."""
        cfg = self.config
        n = self.log_weights.size
        if len(forecasts) != n:
            raise ValueError(f"expected {n} forecasts, got {len(forecasts)}")
        values = cdf_values(forecasts, cfg.domain)
        p = np.ones(n) if confidences is None else np.asarray(confidences, dtype=float)

        asleep = False
        try:
            q = confidence_reweight(self.log_weights, p)
        except AllExpertsAsleep:
            q = np.full(n, 1.0 / n)
            asleep = True

        rule = substitute_crps_aa if cfg.mode == "aa" else combine_wa
        forecast = GridCDF(cfg.domain, rule(values, q))

        y = float(outcome)
        if not cfg.domain.contains(y):
            raise ValueError(
                f"outcome {y} outside [{cfg.domain.a}, {cfg.domain.b}]; "
                "clip at ingestion"
            )
        h = crps(forecast, y)
        losses = crps_rows(values, cfg.domain, y)
        if not np.isfinite(h) or not np.all(np.isfinite(losses)):
            raise RuntimeError(
                f"non-finite loss at step {self.log.steps + 1}: h={h}, l={losses}"
            )

        w = normalized_weights(self.log_weights)
        if not asleep:
            lw = update_weights_confidence(self.log_weights, cfg.eta, p, losses, h)
            self.log_weights = mix_past_posteriors(lw, cfg.alpha)
        self.log.append(y, h, losses, p, q, w)
        return forecast


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


def regret_report(log: GameLog, tol: float = 1e-9) -> RegretReport:
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
        bound_satisfied=peak <= log.bound + tol,
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
    log = GameLog(n, eta)
    ones = np.ones(n)
    for t in range(steps):
        q = normalized_weights(log_weights)
        pred = substitute_square_aa(f[t], q, eta)
        h = (pred - y[t]) ** 2
        losses = (f[t] - y[t]) ** 2
        log_weights = update_weights_confidence(log_weights, eta, ones, losses, 0.0)
        log.append(y[t], h, losses, ones, q, q)
    return log
