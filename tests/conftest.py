"""Shared oracles, strategies and fixtures for the test suite."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from crpsmix.aggregation import (
    combine_wa,
    confidence_reweight,
    logsumexp,
    mix_past_posteriors,
    normalized_weights,
    substitute_crps_aa,
    substitute_square_aa,
    update_weights_confidence,
)
from crpsmix.data import write_demo_load_csv
from crpsmix.experts import COV_RIDGE, EM_MAX_ITER, EM_TOL, DegenerateFit, _kmeanspp_centers
from crpsmix.game import GameLog
from crpsmix.grids import GridCDF, GridDomain, cdf_values, crps, crps_rows
from crpsmix.rng import rng_from_seed


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


def reference_schedule_at(schedule, t: float) -> float:
    """ConfidenceSchedule.at evaluated one scalar at a time in plain Python:
    the wrap candidates, each block's plateau or ramp, combined by max."""
    if schedule.period is not None:
        t = t % schedule.period
        candidates = (t - schedule.period, t, t + schedule.period)
    else:
        candidates = (t,)
    best = 0.0
    for ps, pe, ru, rd in schedule.blocks:
        for x in candidates:
            if ps <= x <= pe:
                v = 1.0
            elif ru > 0 and ps - ru <= x < ps:
                v = (x - (ps - ru)) / ru
            elif rd > 0 and pe < x <= pe + rd:
                v = 1.0 - (x - pe) / rd
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
        pred = substitute_square_aa(f, q, eta)
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


@pytest.fixture(scope="session")
def demo_load_csv(tmp_path_factory):
    """Two years of training data plus a short test stretch."""
    path = tmp_path_factory.mktemp("demo") / "demo_load.csv"
    return str(write_demo_load_csv(path, hours=2 * 8760 + 1200))


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
