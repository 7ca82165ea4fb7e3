"""Grid-discretized distribution functions on a finite interval and the
CRPS loss evaluated exactly on that representation.

A CDF is stored by its values at the right cell edges z_s = a + s*delta,
s = 1..d, of a uniform grid on [a, b].  The score of a forecast F against
an outcome y is

    crps(F, y) = delta * sum_s (f_s - 1{z_s >= y})^2,

which is the step-function CRPS of the discretized game.

Inside the library a CDF is a (d,) array of its values and a pool of
forecasts an (N, d) matrix.  `GridCDF` (values plus their `GridDomain`)
appears only at the edges: `cdf_values` accepts N of them, `replay`
returns the forecasts of the steps it keeps as GridCDFs, `heaviside_cdf`
returns one, `crps` and `quantile` take one, and `cdf_to_row` writes one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: CDF invariant violations up to this size are treated as float noise and
#: repaired by clamping; anything larger is rejected.
REPAIR_TOL = 1e-12


@dataclass(frozen=True)
class GridDomain:
    """Uniform grid of d cells on [a, b]."""

    a: float
    b: float
    d: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if self.d < 1:
            raise ValueError(f"need at least one grid cell, got d={self.d}")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def delta(self) -> float:
        return (self.b - self.a) / self.d

    @cached_property
    def grid(self) -> np.ndarray:
        """Right cell edges z_1..z_d; the last edge is exactly b."""
        z = np.linspace(self.a, self.b, self.d + 1)[1:]
        z.flags.writeable = False
        return z

    def contains(self, y: float) -> bool:
        return self.a <= y <= self.b


def _check_outcome(domain: GridDomain, y: float) -> float:
    y = float(y)
    if not np.isfinite(y) or not domain.contains(y):
        raise ValueError(
            f"outcome {y} outside [{domain.a}, {domain.b}]; "
            "clip at ingestion before scoring"
        )
    return y


@dataclass(frozen=True, eq=False)
class GridCDF:
    """Piecewise-constant CDF: values f_1..f_d at the grid of `domain`,
    monotone non-decreasing with f_d = 1.

    Construction checks and repairs the values with `cdf_values`.
    """

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        if np.ndim(self.values) != 1:
            raise ValueError(
                f"expected {self.domain.d} CDF values, got shape {np.shape(self.values)}"
            )
        vals = cdf_values(self.values, self.domain)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def check_cdf(vals: np.ndarray) -> None:
    """Raise ValueError unless every row of the (..., d) float array is,
    up to REPAIR_TOL, a CDF: finite, monotone non-decreasing in [0, 1]
    and ending at 1.  The one statement of the CDF invariants, shared by
    `repair_cdf` (so by `cdf_values`, `GridCDF` construction and `replay`)
    and by the check of the substitution rule's output (SubstitutionError,
    also for a NaN)."""
    if not np.isfinite(vals).all():
        raise ValueError("CDF values must be finite")
    if vals.min() < -REPAIR_TOL or vals.max() > 1.0 + REPAIR_TOL:
        raise ValueError(f"CDF values outside [0, 1] by more than {REPAIR_TOL}")
    if vals.shape[-1] > 1:
        worst_drop = float((vals[..., 1:] - vals[..., :-1]).min())
        if worst_drop < -REPAIR_TOL:
            raise ValueError(
                f"CDF not monotone: decrease of {-worst_drop:.3e} between cells"
            )
    last = vals[..., -1]
    if (np.abs(last - 1.0) > REPAIR_TOL).any():
        raise ValueError(f"CDF must end at 1, got {last.min()!r}")


def repair_cdf(vals: np.ndarray):
    """Check the (..., d) float array of CDF rows and repair it in place,
    bit for bit as the full clamp of `cdf_values` does.

    One pass of reductions (the minimum, the least step between cells, the
    largest cell before the last, the last column) passes rows that lie in
    [0, 1], are monotone and end within REPAIR_TOL of 1: only their last
    value is set to 1 (and a -0.0 made 0.0).  Rows that only exceed 1, by
    at most REPAIR_TOL, are clipped into [0, 1]; when that leaves them
    monotone, the monotone clamp would change nothing, so it is skipped
    (the load roster's rows are like this: `load_cdf_values`).  Anything
    else must pass `check_cdf` and is clamped into [0, 1], then to
    monotone, then its last value set to 1.  Returns the largest change made to a cell of each row
    other than the last, which is 1 by definition (0.0 when nothing was
    out of place).
    """
    def least_step(v):
        return (v[..., 1:] - v[..., :-1]).min() if v.shape[-1] > 1 else 0.0

    fixed = None
    lo = vals.min()
    if lo >= 0.0 and np.abs(vals[..., -1] - 1.0).max() <= REPAIR_TOL:
        hi = vals[..., :-1].max(initial=0.0)
        if hi <= 1.0 and least_step(vals) >= 0.0:
            if lo == 0.0:
                np.maximum(vals, 0.0, out=vals)  # -0.0 -> 0.0, as the clamp does
            vals[..., -1] = 1.0
            return 0.0
        if hi <= 1.0 + REPAIR_TOL:  # passes check_cdf if monotone once clipped
            fixed = np.minimum(np.maximum(vals, 0.0), 1.0)
            if least_step(fixed) < 0.0:
                fixed = None
    if fixed is None:
        check_cdf(vals)
        # clamp into [0, 1] (the finite-value form of np.clip), then to monotone
        fixed = np.maximum.accumulate(np.minimum(np.maximum(vals, 0.0), 1.0), axis=-1)
    fixed[..., -1] = 1.0
    change = np.abs(fixed - vals)[..., :-1].max(axis=-1, initial=0.0)
    vals[...] = fixed
    return change


def cdf_array(forecasts, domain: GridDomain) -> np.ndarray:
    """A new float array of CDF rows on `domain`, not yet checked: a (d,)
    vector from one row of values, an (N, d) matrix from N rows or from N
    GridCDFs on `domain`, or any (..., d) stack of rows."""
    if isinstance(forecasts, (list, tuple)) and forecasts and isinstance(forecasts[0], GridCDF):
        if any(f.domain != domain for f in forecasts):
            raise ValueError("forecast domain does not match the grid domain")
        forecasts = [f.values for f in forecasts]
    vals = np.array(forecasts, dtype=float)
    if vals.ndim == 0 or vals.shape[-1] != domain.d:
        raise ValueError(
            f"expected rows of {domain.d} CDF values, got shape {vals.shape}"
        )
    return vals


def cdf_values(forecasts, domain: GridDomain) -> np.ndarray:
    """Checked and repaired CDF values on `domain`, from anything
    `cdf_array` stacks.

    Every row must pass `check_cdf`; violations up to REPAIR_TOL are
    float noise, repaired by `repair_cdf`.
    """
    vals = cdf_array(forecasts, domain)
    repair_cdf(vals)
    return vals


def heaviside_cdf(domain: GridDomain, y: float) -> GridCDF:
    """Step CDF of the point mass at y: f_s = 1 iff z_s >= y."""
    y = _check_outcome(domain, y)
    return GridCDF(domain, (domain.grid >= y).astype(float))


def crps(forecast: GridCDF, y: float) -> float:
    """CRPS of the forecast against outcome y, in outcome units."""
    y = _check_outcome(forecast.domain, y)
    r = forecast.values - (forecast.domain.grid >= y)
    return forecast.domain.delta * float(r @ r)


def crps_grid_profile(values: np.ndarray, domain: GridDomain) -> np.ndarray:
    """CRPS of each row of the (..., d) stack of CDF values on `domain`
    against every grid outcome z_1..z_d.

    One O(d) pass per row via prefix sums; entry k of a row equals the
    crps of that row at z_k.  Outcomes strictly between grid points share
    the indicator vector of the edge above them, so these d values cover
    all of [a, b].
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != (domain.d,):
        raise ValueError(f"expected rows of {domain.d} CDF values, got shape {v.shape}")
    sq = np.cumsum(v * v, axis=-1)
    sq1 = np.cumsum((v - 1.0) ** 2, axis=-1)
    zero = np.zeros(v.shape[:-1] + (1,))
    below = np.concatenate((zero, sq[..., :-1]), axis=-1)
    above = sq1[..., -1:] - np.concatenate((zero, sq1[..., :-1]), axis=-1)
    return domain.delta * (below + above)


def quantile(forecast: GridCDF, tau: float) -> float:
    """Smallest grid point z_s with f_s >= tau (right-continuous inverse)."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {tau}")
    idx = int(np.searchsorted(forecast.values, tau, side="left"))
    return float(forecast.domain.grid[idx])


def cdf_to_row(forecast: GridCDF) -> list:
    """Flatten to the d+3 column CSV row (a, b, d, f_1..f_d)."""
    dom = forecast.domain
    return [dom.a, dom.b, dom.d, *forecast.values.tolist()]
