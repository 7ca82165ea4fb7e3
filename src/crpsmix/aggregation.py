"""Exponential-weights aggregation of forecasts.

Implements the substitution rule that turns expert forecasts and a weight
vector into an aggregated forecast dominating the weighted exponential
mixture of losses, for the unit-interval square loss and for grid CDFs
under CRPS, together with weighted-average aggregation and the weight
step: the confidence-discounted update and the fixed-share mix.

The weight state is one (N,) array of log weights, unnormalized, or a
(C, N) array inside `replay`, one configuration per row: the update
rescales it so the largest weight is 1, which leaves every normalized
quantity unchanged.  The learning rate and the mixing rate are passed in;
they live in `GameConfig` alone.
"""

from __future__ import annotations

import numpy as np

from .grids import check_cdf

#: The unit square loss (f - w)^2 on [0, 1] x {0, 1} admits aggregation at
#: learning rates up to 2; the pointwise CRPS rule always runs at this cap.
SQUARE_LOSS_ETA = 2.0


class SubstitutionError(RuntimeError):
    """The aggregation rule produced an invalid CDF beyond float noise,
    which indicates a bug rather than bad data."""


def aa_learning_rate(width: float) -> float:
    """Learning rate paired with the substitution rule on [a, b]: 2/(b-a)."""
    return 2.0 / width


def wa_learning_rate(width: float) -> float:
    """Learning rate paired with weighted averaging on [a, b]: 1/(2(b-a))."""
    return 1.0 / (2.0 * width)


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """log sum_i e^{a_i}, max-shifted; weighted sums pass a_i + ln q_i.

    Safe for entries that are -inf or very negative (zero or denormal
    weights, which arise after long runs); at least one entry along each
    reduced axis must be finite.  The package's one log-sum-exp: the
    weights, EM, the experts' posterior component weights (through
    `normalized_weights`) and `telescoping_gap` use it; the substitution
    rule needs none (`substitute_tables`).
    """
    m = a.max(axis=axis, keepdims=axis is not None)
    out = np.log(np.exp(a - m).sum(axis=axis))
    return out + (m.squeeze(axis) if axis is not None else m)


def _as_confidence(p, shape: tuple) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != shape:
        raise ValueError(f"expected confidences of shape {shape}, got {p.shape}")
    if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("confidences must lie in [0, 1]")
    return p


def normalized_weights(log_weights: np.ndarray) -> np.ndarray:
    """Probability vector q_i = w_i / sum_j w_j (per row of a (C, N)
    array of log weights)."""
    return np.exp(log_weights - logsumexp(log_weights, axis=-1)[..., None])


def _check_probability(q, n: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"expected {n} expert weights, got shape {q.shape}")
    if not (q.min() >= 0 and abs(q.sum() - 1.0) <= 1e-9):  # a NaN fails the test
        raise ValueError("weights must form a probability vector")
    return q


def square_tables(values: np.ndarray, eta: float) -> tuple:
    """The tables A = e^{-eta F^2} and B = e^{-eta (1-F)^2} of the
    substitution rule, for any (..., N, d) stack of values F in [0, 1].
    `replay` builds them once per fixed matrix or chunk,
    `run_square_loss_game` once per run as (T, N, 1) tables, and
    `substitute_crps_aa` and `substitute_vector_aa` once per call."""
    # in place, one temporary per table: the bits of exp(-eta * F**2)
    a = np.square(values)
    b = np.square(1.0 - values)
    a *= -eta
    b *= -eta
    return np.exp(a, out=a), np.exp(b, out=b)


def substitute_tables(tables: tuple, q: np.ndarray, eta: float) -> np.ndarray:
    """The substitution rule, cell by cell, from the `square_tables` (A, B)
    of an (N, d) matrix, without clipping:

        F = 1/2 - ln( sum_i q_i A_i / sum_i q_i B_i ) / (2 eta).

    An (N,) q gives a (d,) row; a (C, N) q gives C rows, each summed over
    the experts in one order (numpy's reduction over the expert axis), so
    a row does not depend on how many others are formed with it.

    No max shift is needed: with F in [0, 1] and 0 < eta <= 2 every
    exponent lies in [-eta, 0], so every table entry lies in
    [e^{-2}, 1], and each sum, a convex combination of them under the
    probability vector q, lies in [e^{-2}, 1] too: it neither underflows
    nor vanishes, and a zero weight adds an exact zero instead of a log.
    """
    a, b = tables
    qc = q[..., None]
    return 0.5 - np.log((qc * a).sum(axis=-2) / (qc * b).sum(axis=-2)) / (2.0 * eta)


def substitute_vector_aa(forecast_matrix, q, eta: float) -> np.ndarray:
    """Componentwise substitution for d-dimensional square-loss forecasts
    in [0, 1].

    Applied to rows c_1..c_N it yields a vector f with
    e^{-(eta/d) L(f, y)} >= sum_i q_i e^{-(eta/d) L(c_i, y)} for every
    binary outcome vector y, where L(f, y) = sum_s (f^s - y^s)^2.
    """
    if not 0.0 < eta <= SQUARE_LOSS_ETA:
        raise ValueError(
            f"square-loss aggregation needs 0 < eta <= {SQUARE_LOSS_ETA}, got {eta}"
        )
    m = np.atleast_2d(np.asarray(forecast_matrix, dtype=float))
    if not (m.min() >= 0.0 and m.max() <= 1.0):
        raise ValueError("square-loss forecasts must lie in [0, 1]")
    q = _check_probability(q, m.shape[0])
    return np.clip(substitute_tables(square_tables(m, eta), q, eta), 0.0, 1.0)


def _check_substitution(vals: np.ndarray) -> None:
    """Raise SubstitutionError when the output of the rule is not a CDF up
    to float noise."""
    try:
        check_cdf(vals)
    except ValueError as exc:
        raise SubstitutionError(f"aggregated CDF is invalid: {exc}") from exc


def _forecast_matrix(values, q):
    m = np.asarray(values, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected an (n_experts, d) matrix, got shape {m.shape}")
    return m, _check_probability(q, m.shape[0])


def substitute_crps_aa(values, q) -> np.ndarray:
    """Aggregated CDF values from the (n_experts, d) matrix of expert CDF
    values, applying the square-loss substitution at every grid cell with
    the capped rate:

        F(u) = 1/2 - (1/4) ln( sum_i q_i e^{-2 F_i(u)^2}
                              / sum_i q_i e^{-2 (1-F_i(u))^2} ).

    The output is a valid CDF up to float noise; larger violations raise
    SubstitutionError because they indicate a broken rule, not bad data.
    """
    matrix, q = _forecast_matrix(values, q)
    eta = SQUARE_LOSS_ETA
    vals = substitute_tables(square_tables(matrix, eta), q, eta)
    _check_substitution(vals)
    return vals


def combine_wa(values, q) -> np.ndarray:
    """Pointwise convex combination of the rows of the (n_experts, d)
    matrix of expert CDF values."""
    matrix, q = _forecast_matrix(values, q)
    return q @ matrix


def _share(alpha, n: int):
    """The fixed-share step on log weights that sum to 1, in place:
    log(alpha/n + (1-alpha) w_i), and the weights themselves where
    alpha = 0 (where the log is never taken, so log(0) cannot arise)."""
    alpha = np.asarray(alpha, dtype=float)
    plain = alpha == 0.0
    if plain.all():
        return lambda norm: norm
    share, keep, mixed = alpha / n, 1.0 - alpha, ~plain
    return lambda norm: np.log(share + keep * np.exp(norm), out=norm, where=mixed)


def confidence_step(eta, alpha, n: int):
    """The weight step of a replay, as a function of the (..., n) log
    weights and the charge p*l + (1-p)*h of each expert (just l at full
    confidence), with a (C, 1) eta and alpha for (C, n) log weights: the
    update rescaled so the largest log weight is exactly 0 (so the
    normalizing logsumexp needs no max shift), then the fixed-share mix.
    `replay` builds it once per call."""
    share = _share(alpha, n)

    def step(lw, charge):
        lw = lw - eta * charge
        lw -= lw.max(axis=-1, keepdims=True)
        lw -= np.log(np.exp(lw).sum(axis=-1, keepdims=True))
        return share(lw)

    return step
