"""Headless property suites: every theoretical guarantee the library rests
on, checked on randomized inputs with machine-readable failure witnesses."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from .aggregation import (
    aa_learning_rate,
    combine_wa,
    substitute_crps_aa,
    substitute_vector_aa,
    wa_learning_rate,
)
from .data import default_generators, rotating_leader_schedule, synth_stream
from .experts import triangular_cdf
from .game import BOUND_TOL, GameConfig, replay, run_square_loss_game, telescoping_gap
from .grids import GridDomain, cdf_values, crps_grid_profile
from .rng import spawn_rngs

MIX_TOL = 1e-9  # the mixability checks; the regret checks use game.BOUND_TOL
ENUM_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""
    witness: dict | None = None
    seconds: float = 0.0  # wall time of the check, set by run_all

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        msg = f"{status}  {self.name} ({self.cases} cases)"
        if self.detail:
            msg += f": {self.detail}"
        return msg


def random_grid_cdf(rng: np.random.Generator, domain: GridDomain) -> np.ndarray:
    """(d,) values of a random monotone CDF, valid by construction (the
    repair of `cdf_values` leaves them unchanged): diffuse half the time,
    steppy (few jumps, including point masses) otherwise — the steppy ones
    stress the aggregation rules far harder."""
    d = domain.d
    if rng.random() < 0.5:
        vals = np.sort(rng.random(d))
        vals[-1] = 1.0
    else:
        jumps = np.zeros(d)
        pos = rng.integers(0, d, size=int(rng.integers(1, 6)))
        np.add.at(jumps, pos, rng.random(pos.size) + 1e-3)
        vals = np.cumsum(jumps)
        vals /= vals[-1]
        vals[-1] = 1.0
    return vals


def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Probability vector, frequently heavily skewed."""
    q = rng.dirichlet(np.full(n, rng.uniform(0.1, 2.0)))
    q /= q.sum()
    return q


def _mixability_case(rng, aggregate, eta_for):
    """Worst slack of e^{-eta h(y)} >= sum_i q_i e^{-eta l_i(y)} over all
    grid outcomes, for one random pool of forecasts and weights."""
    n = int(rng.integers(2, 9))
    d = int(rng.choice([16, 256, 1024]))
    a = float(rng.uniform(-5, 5))
    b = a + float(rng.uniform(0.5, 20))
    domain = GridDomain(a, b, d)
    forecasts = cdf_values([random_grid_cdf(rng, domain) for _ in range(n)], domain)
    q = random_weights(rng, n)
    eta = eta_for(domain.width)
    combined = cdf_values(aggregate(forecasts, q), domain)
    lhs = np.exp(-eta * crps_grid_profile(combined, domain))
    rhs = np.exp(-eta * crps_grid_profile(forecasts, domain))
    slack = (q @ rhs) - lhs
    worst = int(np.argmax(slack))
    return float(slack[worst]), {
        "n": n,
        "d": d,
        "interval": [a, b],
        "eta": eta,
        "outcome_index": worst,
        "weights": q.tolist(),
    }


def _worst_case(name, seed, cases, case, tol, detail) -> CheckResult:
    """The largest value of `case(rng)` -> (value, witness) over `cases`
    generators spawned from `seed`, with the witness of its first case;
    the check passes when it is at most `tol`.  `detail` formats the
    worst value and the tolerance."""
    worst = -np.inf
    witness = None
    for rng in spawn_rngs(seed, cases):
        value, info = case(rng)
        if value > worst:
            worst, witness = value, info
    passed = worst <= tol
    return CheckResult(name, passed, cases, detail.format(worst, tol),
                       None if passed else witness)


def check_crps_mixability(seed=0, cases=100, aggregate=substitute_crps_aa) -> CheckResult:
    """Substitution output dominates the exponential loss mixture at
    eta = 2/(b-a), for every grid outcome."""
    return _worst_case("crps substitution mixability", seed, cases,
                       lambda rng: _mixability_case(rng, aggregate, aa_learning_rate),
                       MIX_TOL, "worst slack {:.3e} (tol {:g})")


def check_wa_exp_concavity(seed=0, cases=100) -> CheckResult:
    """Weighted averaging satisfies the same inequality at eta = 1/(2(b-a))."""
    return _worst_case("weighted-average exp-concavity", seed, cases,
                       lambda rng: _mixability_case(rng, combine_wa, wa_learning_rate),
                       MIX_TOL, "worst slack {:.3e} (tol {:g})")


def _vector_case(rng):
    """Worst slack of the mixability inequality over every binary outcome
    vector, for one random pool of vector forecasts and weights."""
    n = int(rng.integers(2, 5))
    d = int(rng.integers(1, 11))
    eta = 2.0
    m = rng.random((n, d))
    q = random_weights(rng, n)
    f = substitute_vector_aa(m, q, eta)
    worst = -np.inf
    witness = None
    for bits in product((0.0, 1.0), repeat=d):
        y = np.array(bits)
        lhs = math.exp(-(eta / d) * float(((f - y) ** 2).sum()))
        rhs = float(q @ np.exp(-(eta / d) * ((m - y) ** 2).sum(axis=1)))
        slack = rhs - lhs
        if slack > worst:
            worst = slack
            witness = {"n": n, "d": d, "outcome": list(bits), "weights": q.tolist()}
    return worst, witness


def check_vector_mixability(seed=0, cases=20) -> CheckResult:
    """Componentwise substitution beats the mixture for every binary
    outcome vector (exhaustive over {0,1}^d, d <= 10 here)."""
    return _worst_case("vector substitution mixability", seed, cases, _vector_case,
                       ENUM_TOL, "worst slack {:.3e} (tol {:g})")


def _square_loss_case(rng):
    n = int(rng.integers(2, 6))
    steps = int(rng.integers(20, 80))
    eta = float(rng.uniform(0.2, 2.0))
    f = rng.random((steps, n))
    y = rng.integers(0, 2, size=steps).astype(float)
    log = run_square_loss_game(f, y, eta)
    return log.bound_excess(), {"n": n, "steps": steps, "eta": eta}


def check_square_loss_regret(seed=0, cases=50) -> CheckResult:
    """Square-loss game regret against the best expert stays below
    ln(n)/eta on random adversarial streams at every prefix."""
    return _worst_case("square-loss regret bound", seed, cases, _square_loss_case,
                       BOUND_TOL, "worst excess {:.3e}")


def check_crps_game_bounds(seed=0) -> CheckResult:
    """On a 1500-step rotating-leader synthetic stream at d=256, with full
    confidence and no mixing: the substitution run obeys the ((b-a)/2) ln N
    regret bound and the per-prefix telescoping bound; the averaging run
    obeys 2(b-a) ln N."""
    steps = 1500
    domain = GridDomain(0.0, 1.0, 256)
    gens = default_generators()
    schedule = rotating_leader_schedule(steps, 3, 6)
    outcomes = synth_stream(gens, schedule, steps, seed)
    values = cdf_values([triangular_cdf(g, domain) for g in gens], domain)

    modes = ("aa", "wa")
    logs, _ = replay([GameConfig(domain, mode=m, alpha=0.0) for m in modes], values, outcomes)
    problems = []
    for mode, log in zip(modes, logs):
        if log.bound_excess() > BOUND_TOL:  # vs the best expert, at every prefix
            problems.append(f"{mode} regret exceeds ln(N)/eta")
        if mode == "aa":
            gap = telescoping_gap(log)
            budget = 1e-8 * np.arange(1, steps + 1)
            if np.any(gap > budget):
                problems.append("telescoping bound violated")
    passed = not problems
    return CheckResult(
        "synthetic-stream regret bounds",
        passed,
        2,
        "; ".join(problems) if problems else f"T={steps}",
        None if passed else {"seed": seed, "steps": steps},
    )


def _discounted_case(rng):
    n = int(rng.integers(2, 6))
    steps = int(rng.integers(20, 60))
    domain = GridDomain(0.0, 1.0, 16)
    mode = "aa" if rng.random() < 0.5 else "wa"
    matrices = np.empty((steps, n, domain.d))
    p = np.empty((steps, n))
    y = np.empty(steps)
    for t in range(steps):
        matrices[t] = [random_grid_cdf(rng, domain) for _ in range(n)]
        style = rng.random()
        if style < 0.1:
            p[t] = 0.0  # all asleep: learner falls back to uniform
        elif style < 0.5:
            p[t] = rng.integers(0, 2, size=n)
        else:
            p[t] = rng.random(n)
        y[t] = rng.random()
    config = GameConfig(domain, mode=mode, alpha=0.0)
    (log,), _ = replay([config], iter([matrices]), y, p)
    return log.bound_excess(), {"n": n, "steps": steps, "mode": mode}


def check_discounted_regret(seed=0, cases=40) -> CheckResult:
    """Confidence-weighted runs keep every expert's discounted regret below
    ln(N)/eta at every prefix, for random confidence patterns including
    binary sleeping and all-asleep steps."""
    return _worst_case("discounted regret bound", seed, cases, _discounted_case,
                       BOUND_TOL, "worst excess {:.3e}")


def run_all(seed: int = 0, cases: int = 100) -> list[CheckResult]:
    if cases < 1:
        raise ValueError("case count must be positive")
    small, half = max(1, cases // 5), max(1, cases // 2)
    suite = [
        (check_crps_mixability, seed, cases),
        (check_wa_exp_concavity, seed + 1, cases),
        (check_vector_mixability, seed + 2, small),
        (check_square_loss_regret, seed + 3, half),
        (check_crps_game_bounds, seed + 4),
        (check_discounted_regret, seed + 5, half),
    ]
    results = []
    for check, *args in suite:
        start = time.perf_counter()
        res = check(*args)
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results
