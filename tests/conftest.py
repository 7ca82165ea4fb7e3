"""Shared oracles, strategies and fixtures for the test suite."""

from __future__ import annotations

import csv
import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from crpsmix.aggregation import (
    _as_confidence,
    _check_probability,
    _share,
    combine_wa,
    logsumexp,
    normalized_weights,
    substitute_crps_aa,
    substitute_vector_aa,
)
from crpsmix.cli import main
from crpsmix.data import write_demo_load_csv
from crpsmix.experts import (COV_RIDGE, EM_MAX_ITER, EM_TOL, DegenerateFit, _kmeanspp_centers,
                              load_cdf_values, stack_models)
from crpsmix.game import GameLog
from crpsmix.grids import GridCDF, GridDomain, _check_outcome, cdf_values, crps, repair_cdf
from crpsmix.rng import rng_from_seed


# Step-at-a-time references that tests compare the library's array paths
# against: the weight functions of one step, per-outcome scores, checked
# roster CDFs.


class AllExpertsAsleep(ValueError):
    """Every confidence is zero: there is no expert mass to aggregate."""


def _as_losses(losses, n: int) -> np.ndarray:
    l = np.asarray(losses, dtype=float)
    if l.shape != (n,):
        raise ValueError(f"expected {n} losses, got shape {l.shape}")
    if not np.all(np.isfinite(l)) or l.min() < 0.0:
        raise ValueError("losses must be finite and non-negative")
    return l


def confidence_reweight(log_weights: np.ndarray, p) -> np.ndarray:
    """Probability vector proportional to p_i * w_i; experts with zero
    confidence get exactly zero mass."""
    p = _as_confidence(p, log_weights.shape[-1:])
    if not np.any(p > 0):
        raise AllExpertsAsleep("all confidences are zero at this step")
    with np.errstate(divide="ignore"):
        q = normalized_weights(log_weights + np.log(p))
    q[..., p == 0.0] = 0.0
    return q


def superprediction(losses, q, eta: float) -> float:
    """g = -(1/eta) ln sum_i q_i e^{-eta l_i}, the benchmark an aggregated
    forecast must dominate; always between min_i l_i and sum_i q_i l_i."""
    if not eta > 0:
        raise ValueError(f"learning rate must be positive, got {eta}")
    l = np.asarray(losses, dtype=float)
    q = _check_probability(q, l.size)
    with np.errstate(divide="ignore"):
        return float(-logsumexp(-eta * l + np.log(q)) / eta)


def update_weights_confidence(
    log_weights: np.ndarray, eta: float, p, expert_losses, learner_loss: float
) -> np.ndarray:
    """Virtual-expert update at learning rate eta: expert i is charged
    p_i l_i + (1-p_i) h, its loss discounted toward the learner's by its
    confidence.  Returns the new log weights, rescaled so the largest is 0."""
    n = log_weights.size
    p = _as_confidence(p, (n,))
    l = _as_losses(expert_losses, n)
    h = float(learner_loss)
    if not np.isfinite(h) or h < 0:
        raise ValueError(f"learner loss must be finite and non-negative, got {h}")
    lw = log_weights - eta * (p * l + (1.0 - p) * h)
    return lw - lw.max()


def mix_past_posteriors(log_weights: np.ndarray, alpha) -> np.ndarray:
    """Fixed-share mix toward the uniform start vector:
    w_i <- alpha/n + (1-alpha) w_i / sum_j w_j.  Returns log weights that
    sum to 1 with floor alpha/n; alpha = 0 is plain normalization.  (C, N)
    log weights take a (C, 1) alpha, one per row.  The mixing step is the
    library's `aggregation._share`, the one `replay` runs."""
    share = _share(alpha, log_weights.shape[-1])
    return share(log_weights - logsumexp(log_weights, axis=-1)[..., None])


def crps_rows(values: np.ndarray, domain: GridDomain, y: float) -> np.ndarray:
    """CRPS of several forecasts (rows of `values`) against one outcome."""
    y = _check_outcome(domain, y)
    r = np.atleast_2d(values) - (domain.grid >= y)
    return domain.delta * np.einsum("ij,ij->i", r, r)


def empirical_cdf(samples, domain: GridDomain) -> GridCDF:
    """Empirical CDF of the samples on the grid: f_s = #(samples <= z_s)/n."""
    s = np.asarray(samples, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("need at least one sample")
    if s.min() < domain.a or s.max() > domain.b:
        raise ValueError(
            f"samples outside [{domain.a}, {domain.b}] "
            f"(range [{s.min()}, {s.max()}])"
        )
    counts = np.searchsorted(np.sort(s), domain.grid, side="right")
    vals = counts / s.size
    vals[-1] = 1.0
    return GridCDF(domain, vals)


def cdf_from_row(row) -> GridCDF:
    """The GridCDF of a d+3 column CSV row (a, b, d, f_1..f_d), as
    `grids.cdf_to_row` writes it."""
    vals = [float(x) for x in row]
    if len(vals) < 4:
        raise ValueError("CDF row needs at least 4 columns: a, b, d, values")
    a, b, d = vals[0], vals[1], int(vals[2])
    if len(vals) != d + 3:
        raise ValueError(f"CDF row for d={d} must have {d + 3} columns")
    return GridCDF(GridDomain(a, b, d), np.array(vals[3:]))


def conditional_load_cdfs(models, temps, domain: GridDomain) -> np.ndarray:
    """`load_cdf_values` of the stacked list of `Gmm2D` models after its
    `repair_cdf` check: the checked load CDFs of each model at each
    temperature."""
    vals = load_cdf_values(stack_models(models), temps, domain)
    repair_cdf(vals)
    return vals


def read_game_log(path) -> np.ndarray:
    """A game_log.csv as numpy's structured array, one field per column,
    as the README reads it."""
    return np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding="utf-8")


def game_log_block(g: np.ndarray, prefix: str) -> np.ndarray:
    """The (steps, n) columns prefix_1..prefix_n of a read game log."""
    return np.column_stack([g[name] for name in g.dtype.names if name.startswith(prefix + "_")])


def numeric_crps(cdf_fn, y, a, b, n=20001):
    """Quadrature oracle for the integral form of the score:
    trapezoid rule on (F(u) - 1{u >= y})^2 over [a, b]."""
    u = np.linspace(a, b, n)
    integrand = (np.asarray(cdf_fn(u)) - (u >= y)) ** 2
    return float(np.trapezoid(integrand, u))


def step_cdf_fn(domain: GridDomain, values: np.ndarray):
    """The piecewise-constant function represented by grid values:
    F(u) = f_k for z_{k-1} < u <= z_k, F(a) = 0."""
    edges = np.concatenate(([domain.a], domain.grid))

    def fn(u):
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(edges[1:], u, side="left")
        idx = np.minimum(idx, domain.d - 1)
        out = np.asarray(values, dtype=float)[idx]
        return np.where(u <= domain.a, 0.0, out)

    return fn


def random_cdf_values(rng: np.random.Generator, d: int) -> np.ndarray:
    vals = np.sort(rng.random(d))
    vals[-1] = 1.0
    return vals


#: The month-based calendar the roster's areas must agree with:
#: meteorological quarters by month, and six-hour periods of the day.
REFERENCE_SEASON_OF_MONTH = {
    12: "winter", 1: "winter", 2: "winter",
    3: "spring", 4: "spring", 5: "spring",
    6: "summer", 7: "summer", 8: "summer",
    9: "autumn", 10: "autumn", 11: "autumn",
}
REFERENCE_DAY_PERIODS = ("night", "morning", "day", "evening")  # 00-05, ..., 18-23


def reference_area(ts) -> tuple[str, str]:
    """(season, day period) of a timestamp by its month and hour."""
    return REFERENCE_SEASON_OF_MONTH[ts.month], REFERENCE_DAY_PERIODS[ts.hour // 6]


def reference_schedule_at(t: float, start, end, ramp, period) -> float:
    """`roster.periodic_ramp` evaluated one scalar at a time in plain
    Python: the wrap candidates, each one's plateau or ramp, combined by
    max."""
    t = t % period
    best = 0.0
    for x in (t - period, t, t + period):
        if start <= x <= end:
            v = 1.0
        elif ramp > 0 and start - ramp <= x < start:
            v = (x - (start - ramp)) / ramp
        elif ramp > 0 and end < x <= end + ramp:
            v = 1.0 - (x - end) / ramp
        else:
            v = 0.0
        best = max(best, v)
    return best


def reference_game(config, experts, outcomes, confidences=None):
    """One configuration played a step at a time from the public checked
    functions, as a reference for `game.replay`.  `experts` is the fixed
    (N, d) matrix (or N GridCDFs) or the (T, N, d) stack of per-step
    matrices; `confidences` is (T, N), all ones when omitted.

    Returns the GameLog, the forecast of every step as a GridCDF, and the
    (T, N) log weights held before each step."""
    domain = config.domain
    matrices = cdf_values(experts, domain)
    if matrices.ndim == 2:
        matrices = np.broadcast_to(matrices, (len(outcomes),) + matrices.shape)
    n = matrices.shape[1]
    if confidences is None:
        confidences = np.ones((len(outcomes), n))
    rule = substitute_crps_aa if config.mode == "aa" else combine_wa
    lw = np.full(n, -math.log(n))
    rows, forecasts, states = [], [], []
    for y, values, p in zip(outcomes, matrices, np.asarray(confidences), strict=True):
        states.append(lw)
        w = normalized_weights(lw)
        q = confidence_reweight(lw, p) if p.any() else np.full(n, 1.0 / n)
        f = GridCDF(domain, rule(values, q))
        h = crps(f, y)
        losses = crps_rows(values, domain, y)
        if p.any():
            lw = update_weights_confidence(lw, config.eta, p, losses, h)
            lw = mix_past_posteriors(lw, config.alpha)
        rows.append(np.concatenate(([y, h], losses, p, q, w)))
        forecasts.append(f)
    return GameLog(n, config.eta, np.array(rows)), forecasts, np.array(states)


def reference_square_loss_game(forecasts, outcomes, eta):
    """`game.run_square_loss_game` played a step at a time from the public
    checked functions: substitution with the current weights, then the
    confidence update at full confidence against a zero learner loss."""
    n = forecasts.shape[1]
    lw = np.full(n, -math.log(n))
    ones = np.ones(n)
    rows = []
    for f, y in zip(forecasts, outcomes, strict=True):
        q = normalized_weights(lw)
        pred = substitute_vector_aa(np.reshape(f, (-1, 1)), q, eta)[0]
        losses = (f - y) ** 2
        lw = update_weights_confidence(lw, eta, ones, losses, 0.0)
        # np.square rounds the square correctly; a scalar ** 2 may call pow
        rows.append(np.concatenate(([y, np.square(pred - y)], losses, ones, q, q)))
    return GameLog(n, eta, np.array(rows))


# The per-component EM, kept as the reference for the vectorised fits:
# every history entry, weight, mean and covariance must match it bit for bit,
# since a last-bit change can move the EM_TOL stopping test by a round.


def _reference_log_gauss2(points, mean, cov):
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if det <= 0:
        raise DegenerateFit("covariance lost positive definiteness")
    d = points - mean
    quad = (
        cov[1, 1] * d[:, 0] ** 2
        - 2.0 * cov[0, 1] * d[:, 0] * d[:, 1]
        + cov[0, 0] * d[:, 1] ** 2
    ) / det
    return -np.log(2.0 * np.pi) - 0.5 * np.log(det) - 0.5 * quad


def _reference_m_step(pts, resp, ridge):
    nk = resp.sum(axis=0)
    if np.any(nk < 1e-10):
        raise DegenerateFit("a mixture component collapsed to zero mass")
    weights = nk / len(pts)
    means = (resp.T @ pts) / nk[:, None]
    covs = np.empty((resp.shape[1], 2, 2))
    for j in range(resp.shape[1]):
        d = pts - means[j]
        cov = (resp[:, j, None] * d).T @ d / nk[j]
        cov[0, 0] += ridge[0]
        cov[1, 1] += ridge[1]
        covs[j] = 0.5 * (cov + cov.T)
    return weights, means, covs


def reference_fit_gmm_em(pts, k, seed):
    pts = np.asarray(pts, dtype=float)
    ridge = COV_RIDGE * np.maximum(pts.var(axis=0), 1e-12)
    centers = _kmeanspp_centers(pts, k, rng_from_seed(seed))
    d2 = np.stack([np.sum((pts - c) ** 2, axis=1) for c in centers], axis=1)
    resp = np.zeros((len(pts), k))
    resp[np.arange(len(pts)), d2.argmin(axis=1)] = 1.0
    weights, means, covs = _reference_m_step(pts, resp, ridge)
    history = []
    prev_ll = -np.inf
    for _ in range(EM_MAX_ITER):
        log_joint = np.stack(
            [np.log(weights[j]) + _reference_log_gauss2(pts, means[j], covs[j])
             for j in range(k)],
            axis=1,
        )
        row_ll = logsumexp(log_joint, axis=1)
        ll = float(row_ll.sum())
        history.append(ll)
        if ll - prev_ll < EM_TOL:
            break
        prev_ll = ll
        resp = np.exp(log_joint - row_ll[:, None])
        weights, means, covs = _reference_m_step(pts, resp, ridge)
    return weights, means, covs, np.array(history)


@st.composite
def grid_cdfs(draw, min_d=2, max_d=32):
    """Hypothesis strategy for valid grid CDFs on [0, 1]."""
    d = draw(st.integers(min_d, max_d))
    raw = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=d, max_size=d)
    )
    vals = np.sort(np.asarray(raw))
    vals[-1] = 1.0
    return GridCDF(GridDomain(0.0, 1.0, d), vals)


@st.composite
def probability_vectors(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    raw = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    q = np.asarray(raw)
    return q / q.sum()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or not yet
    reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (pid {pid or 'still running'})")


@pytest.fixture(scope="session")
def demo_load_csv(tmp_path_factory):
    """Two years of training data plus a short test stretch."""
    path = tmp_path_factory.mktemp("demo") / "demo_load.csv"
    return str(write_demo_load_csv(path, hours=2 * 8760 + 1200))


@pytest.fixture(scope="session")
def small_runs(tmp_path_factory):
    """The --out directories of a short synth run, and of a short load run
    whose timestamps carry a UTC offset."""
    path = tmp_path_factory.mktemp("small_runs")
    with open(write_demo_load_csv(path / "demo.csv", hours=8760 + 48), encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    aware = [[ts + "+01:00", *rest] for ts, *rest in rows]
    with open(path / "aware.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *aware])
    synth, load = path / "synth", path / "load"
    assert main(["synth", "--method", "1", "--steps", "50", "--grid", "16",
                 "--out", str(synth)]) == 0
    assert main(["load", "--data", str(path / "aware.csv"), "--split", aware[8760][0],
                 "--grid", "16", "--components", "1", "--out", str(load)]) == 0
    return synth, load


@pytest.fixture(scope="session")
def gefcom_csv():
    """User-supplied real dataset, if configured."""
    path = os.environ.get("CRPSMIX_GEFCOM_CSV")
    if not path:
        pytest.skip(
            "set CRPSMIX_GEFCOM_CSV to a GEFCom-format CSV "
            "(timestamp, load, temperature) to run this check"
        )
    return path
