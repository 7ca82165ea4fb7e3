"""Forecasting experts: fixed triangular densities and bivariate Gaussian
mixtures conditioned on temperature."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .aggregation import logsumexp, normalized_weights
from .grids import GridDomain
from .rng import rng_from_seed

EM_TOL = 1e-8
EM_MAX_ITER = 500
COV_RIDGE = 1e-6  # times the per-dimension data variance


class DegenerateFit(RuntimeError):
    """EM cannot proceed: the data carry no usable spread."""


class ConditioningError(ValueError):
    """A temperature the fitted mixtures cannot condition the load on."""


# ---------------------------------------------------------------------------
# Triangular experts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangularExpert:
    """Fixed triangular density with the given peak and support."""

    peak: float
    left: float
    right: float

    def __post_init__(self):
        if not self.left < self.peak < self.right:
            raise ValueError(
                f"need left < peak < right, got ({self.left}, {self.peak}, {self.right})"
            )

    def cdf_at(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        L, P, R = self.left, self.peak, self.right
        span = R - L
        out = np.zeros_like(u)
        rising = (u > L) & (u <= P)
        falling = (u > P) & (u < R)
        out[rising] = (u[rising] - L) ** 2 / (span * (P - L))
        out[falling] = 1.0 - (R - u[falling]) ** 2 / (span * (R - P))
        out[u >= R] = 1.0
        return out


def triangular_cdf(expert: TriangularExpert, domain: GridDomain) -> np.ndarray:
    """(d,) values of the exact triangular CDF at the grid points, its
    support checked against the domain.  Not checked as a CDF: `replay`
    checks the matrix it takes, and `cdf_values` checks a standalone
    use."""
    if expert.left < domain.a or expert.right > domain.b:
        raise ValueError(
            f"support [{expert.left}, {expert.right}] outside "
            f"[{domain.a}, {domain.b}]"
        )
    vals = expert.cdf_at(domain.grid)
    vals[-1] = 1.0
    return vals


# ---------------------------------------------------------------------------
# Gaussian mixtures over (temperature, load)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Gmm2D:
    """Gaussian mixture over (temperature, load) pairs, 1 to 3 components."""

    weights: np.ndarray  # (k,)
    means: np.ndarray  # (k, 2), columns (temperature, load)
    covs: np.ndarray  # (k, 2, 2)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        m = np.array(self.means, dtype=float)
        c = np.array(self.covs, dtype=float)
        k = w.size
        if not 1 <= k <= 3:
            raise ValueError(f"component count must be 1..3, got {k}")
        if m.shape != (k, 2) or c.shape != (k, 2, 2):
            raise ValueError("means must be (k, 2) and covariances (k, 2, 2)")
        if not all(np.isfinite(arr).all() for arr in (w, m, c)):
            raise ValueError("mixture parameters must be finite")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("component weights must be positive and sum to 1")
        dets = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
        if np.any(c[:, 0, 0] <= 0) or np.any(c[:, 1, 1] <= 0) or np.any(dets <= 0):
            raise ValueError("covariances must be positive definite")
        if np.max(np.abs(c[:, 0, 1] - c[:, 1, 0])) > 1e-9 * (1 + np.abs(c).max()):
            raise ValueError("covariances must be symmetric")
        for arr in (w, m, c):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", c)

    def __reduce__(self):
        # unpickled through the constructor: validated, and read-only again
        return Gmm2D, (self.weights, self.means, self.covs)

    @property
    def k(self) -> int:
        return self.weights.size

    def to_text(self) -> str:
        """k on the first line, then one line per component:
        weight, 2 means, 3 covariance entries (tt, tl, ll)."""
        lines = [str(self.k)]
        for j in range(self.k):
            c = self.covs[j]
            fields = [self.weights[j], *self.means[j], c[0, 0], c[0, 1], c[1, 1]]
            lines.append(" ".join(repr(float(x)) for x in fields))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Gmm2D":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty model text")
        k = int(lines[0])
        if len(lines) != k + 1:
            raise ValueError(f"expected {k} component lines, got {len(lines) - 1}")
        w, m, c = [], [], []
        for ln in lines[1:]:
            vals = [float(x) for x in ln.split()]
            if len(vals) != 6:
                raise ValueError("component line needs 6 fields")
            w.append(vals[0])
            m.append(vals[1:3])
            c.append([[vals[3], vals[4]], [vals[4], vals[5]]])
        return cls(np.array(w), np.array(m), np.array(c))


def _kmeanspp_centers(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [pts[rng.integers(len(pts))]]
    for _ in range(k - 1):
        d2 = np.min(
            [np.sum((pts - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if not np.isfinite(total):
            raise DegenerateFit("points too far apart: their seeding distances overflow")
        if total <= 0:
            raise DegenerateFit("all points identical; cannot seed components")
        centers.append(pts[rng.choice(len(pts), p=d2 / total)])
    return np.array(centers)


def _em_start(points, k: int, seed: int):
    """Checked (n, 2) points, their covariance ridge and the (k, n) hard
    responsibilities of k-means++ seeding; raises ValueError or
    DegenerateFit for a set that cannot be fitted."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of (temp, load) pairs")
    if k not in (1, 2, 3):
        raise ValueError(f"component count must be 1, 2 or 3, got {k}")
    if len(pts) < 10 * k:
        raise ValueError(f"need at least {10 * k} points to fit k={k}, got {len(pts)}")
    data_var = pts.var(axis=0)
    if not np.isfinite(data_var).all():
        raise DegenerateFit("points too far apart: their variance overflows")
    if np.all(data_var < 1e-12):
        raise DegenerateFit("all points identical")
    centers = _kmeanspp_centers(pts, k, rng_from_seed(seed))
    d2 = np.sum((pts - centers[:, None, :]) ** 2, axis=2)
    resp = (d2.argmin(axis=0) == np.arange(k)[:, None]).astype(float)
    return pts, COV_RIDGE * np.maximum(data_var, 1e-12), resp


def _m_step(pts, n, resp, nk, ridge):
    """Weights, means and covariances of G fits from their (G, k, w)
    responsibilities and (G, k) masses, plus the (G, k, w, 2) deviations
    of the points from the new means, which the next E-step reuses.  The
    (G, w, 2) points are padded past each fit's size n; padded points
    carry responsibility 0.

    Bit for bit the per-component M-step of one unpadded set (the tests
    check it against that reference): padded points add exact zeros to
    every sum, and the BLAS products see per fit the layouts they saw
    there, (w, k) C-order responsibilities and (w, 2) C-order blocks, since
    gemm results depend on layout.  Rows are taken as complex numbers
    (temperature + i load), so that subtracting a mean and scaling by a
    responsibility are contiguous passes of the same float operations.
    """
    weights = nk / n[:, None]
    means = (resp.swapaxes(1, 2).copy().swapaxes(1, 2) @ pts) / nk[..., None]
    dev_c = _as_complex(pts)[:, None] - _as_complex(means)[..., None]
    dev = dev_c.view(float).reshape(dev_c.shape + (2,))
    weighted = (dev_c * resp).view(float).reshape(dev.shape)
    covs = np.matmul(weighted.swapaxes(2, 3), dev) / nk[..., None, None]
    covs[..., 0, 0] += ridge[:, 0, None]
    covs[..., 1, 1] += ridge[:, 1, None]
    covs = 0.5 * (covs + covs.swapaxes(2, 3))
    return weights, means, covs, dev


def _as_complex(pairs: np.ndarray) -> np.ndarray:
    """(..., m, 2) float rows as (..., m) complex numbers, without copying
    when C-order."""
    return np.ascontiguousarray(pairs).view(complex)[..., 0]


def _e_step(weights, covs, det, dev):
    """(G, k, w) log joint densities log w_j + log N(x_i; mu_j, S_j), from
    the (G, k) covariance determinants."""
    s_tt, s_tl, s_ll = covs[..., 0, 0], covs[..., 0, 1], covs[..., 1, 1]
    d_t, d_l = dev[..., 0], dev[..., 1]
    # explicit 2x2 inverse
    quad = (
        s_ll[..., None] * d_t**2
        - 2.0 * s_tl[..., None] * d_t * d_l
        + s_tt[..., None] * d_l**2
    ) / det[..., None]
    log_norm = -np.log(2.0 * np.pi) - 0.5 * np.log(det)
    return np.log(weights)[..., None] + (log_norm[..., None] - 0.5 * quad)


def _fitted(weights, means, covs, history):
    try:
        return Gmm2D(weights, means, covs), np.array(history)
    except ValueError as exc:
        return exc


def fit_gmm_ems(point_sets, k: int, seeds) -> list:
    """Fit a k-component bivariate Gaussian mixture by EM to each point
    set, all sets in lockstep.

    Seeding is k-means++ style from each set's seed, so every fit is
    deterministic.  A fit iterates until its log-likelihood improves by
    less than EM_TOL or for EM_MAX_ITER rounds; the log-likelihood must
    not decrease between rounds (a decrease beyond float noise raises
    DegenerateFit).  Covariances carry a ridge of COV_RIDGE times the
    per-dimension variance of the set.

    Each round is one pass over (G, k, w) arrays for the G fits still
    running, each set padded to the largest size w with points of
    responsibility 0; a fit's total log-likelihood sums its own points
    only.  Every fit in the stack runs the whole round (each batched
    operation is per fit), then one pass decides each fit's fate, and the
    fits that stop or raise leave the stack at one cut: each result is bit
    for bit that of fitting its set alone.

    A set whose numbers overflow (points too far apart) raises
    DegenerateFit, and leaves the other fits' numbers as they are.

    Returns, per set in order, (model, log-likelihood history) or the
    ValueError or DegenerateFit its fit raised.
    """
    with np.errstate(all="ignore"):  # each fit checks its own numbers
        results = [None] * len(point_sets)
        starts = []
        for i, (points, seed) in enumerate(zip(point_sets, seeds, strict=True)):
            try:
                starts.append((i, *_em_start(points, k, seed)))
            except (ValueError, DegenerateFit) as exc:
                results[i] = exc
        if not starts:
            return results
        ids = np.array([i for i, *_ in starts])
        n = np.array([len(p) for _, p, _, _ in starts])
        pts = np.zeros((len(starts), n.max(), 2))
        resp = np.zeros((len(starts), k, n.max()))
        for g, (_, p, _, r) in enumerate(starts):
            pts[g, : n[g]] = p
            resp[g, :, : n[g]] = r
        ridge = np.array([c for _, _, c, _ in starts])
        histories = {i: [] for i in ids}

        for rnd in range(EM_MAX_ITER + 1):
            nk = np.cumsum(resp, axis=-1)[..., -1]  # sequential sums, as the reference's
            weights, means, covs, dev = _m_step(pts, n, resp, nk, ridge)
            det = covs[..., 0, 0] * covs[..., 1, 1] - covs[..., 0, 1] * covs[..., 1, 0]
            if rnd < EM_MAX_ITER:
                log_joint = _e_step(weights, covs, det, dev)
                row_ll = logsumexp(log_joint, axis=1)
                resp = np.exp(log_joint - row_ll[:, None])
                if n.min() < pts.shape[1]:
                    resp *= np.arange(pts.shape[1]) < n[:, None, None]  # padding: exactly 0
            collapsed, indefinite = (nk < 1e-10).any(axis=1), (det <= 0).any(axis=1)
            gone = []
            for g, i in enumerate(ids):
                history, fate = histories[i], None
                if collapsed[g]:
                    fate = DegenerateFit("a mixture component collapsed to zero mass")
                elif rnd == EM_MAX_ITER:
                    fate = _fitted(weights[g], means[g], covs[g], history)
                elif indefinite[g]:
                    fate = DegenerateFit("covariance lost positive definiteness")
                else:
                    ll, prev = float(row_ll[g, : n[g]].sum()), history[-1] if history else -np.inf
                    if not np.isfinite(ll):
                        fate = DegenerateFit("log-likelihood overflowed: points too far apart")
                    elif ll < prev - 1e-9 * max(1.0, abs(prev)):
                        fate = DegenerateFit(
                            f"log-likelihood decreased ({prev} -> {ll}); fit is unstable")
                    else:
                        history.append(ll)
                        if ll - prev < EM_TOL:
                            fate = _fitted(weights[g], means[g], covs[g], history)
                if fate is not None:
                    results[i] = fate
                    gone.append(g)
            if gone:
                ids, n, pts, ridge, resp = (np.delete(a, gone, axis=0)
                                            for a in (ids, n, pts, ridge, resp))
            if not len(ids):
                break
    return results


def em_hit_max_iter(history) -> bool:
    """Whether a `fit_gmm_ems` history ran EM_MAX_ITER rounds without
    meeting the EM_TOL stopping test."""
    return len(history) == EM_MAX_ITER and not history[-1] - history[-2] < EM_TOL


class GmmStack(NamedTuple):
    """The parameters of N mixtures with one component count k, stacked:
    weights (N, k), means (N, k, 2) and covariances (N, k, 2, 2)."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray


def stack_models(models) -> GmmStack:
    """The stacked parameters of a list of `Gmm2D` models, for callers that
    evaluate the same models at many temperatures."""
    return GmmStack(*(np.stack([getattr(g, f) for g in models]) for f in GmmStack._fields))


def _condition_on_temperature(models: GmmStack, temps):
    """Posterior component weights and per-component mean of load given
    each temperature, by exact bivariate-normal conditioning, each a
    (..., N, k) array over the shape of `temps`, N stacked models and k
    components per model; and the (N, k) conditional variances, which do
    not depend on the temperature.

    Raises ConditioningError for a temperature that is not finite, or so
    far from every component of some model that all its densities vanish.
    """
    temps = np.asarray(temps, dtype=float)
    weights, means, covs = models
    mu_t, mu_l = means[..., 0], means[..., 1]
    s_tt, s_tl, s_ll = covs[..., 0, 0], covs[..., 0, 1], covs[..., 1, 1]
    dt = temps[..., None, None] - mu_t
    with np.errstate(over="ignore"):  # an overflow is a zero density
        log_dens = -0.5 * np.log(2.0 * np.pi * s_tt) - 0.5 * dt**2 / s_tt
    log_post = np.log(weights) + log_dens
    reachable = np.isfinite(log_post.max(axis=-1)).all(axis=-1)
    if not reachable.all():
        temp = float(temps[~reachable].flat[0])
        raise ConditioningError(
            f"temperature {temp!r} is not finite, or too far from the fitted "
            "mixtures to condition the load on"
        )
    post = normalized_weights(log_post)
    cond_mean = mu_l + s_tl / s_tt * dt
    cond_var = s_ll - s_tl**2 / s_tt
    return post, cond_mean, cond_var


def load_cdf_values(models: GmmStack, temps, domain: GridDomain) -> np.ndarray:
    """(..., N, d) load CDF values given each temperature, one row per model
    of the `GmmStack` (see `stack_models`), from one vectorised normal-CDF
    call; a scalar temperature gives (N, d), and each row has the bits of a
    call at its temperature alone.  Mass outside [a, b] goes to the
    endpoints.  Not checked: a cell before the last may exceed 1 by a
    rounding error (the posterior weights of normal CDFs that are all 1 sum
    above 1)."""
    # the only scipy use, so `import crpsmix` skips scipy; in `crpsmix load`'s
    # evaluator process `ndtr` is all of scipy.special (`roster._evaluate`)
    from scipy.special import ndtr

    post, mean, var = _condition_on_temperature(models, temps)
    sd = np.sqrt(np.maximum(var, 1e-300))
    comp = ndtr((domain.grid - mean[..., None]) / sd[..., None])
    vals = np.matmul(post[..., None, :], comp)[..., 0, :]
    vals[..., -1] = 1.0
    return vals
