import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpsmix.grids import (
    GridCDF,
    REPAIR_TOL,
    GridDomain,
    cdf_from_row,
    cdf_values,
    cdf_to_row,
    check_cdf,
    crps,
    crps_grid_profile,
    crps_rows,
    empirical_cdf,
    heaviside_cdf,
    quantile,
    repair_cdf,
)
from crpsmix.rng import spawn_rngs
from crpsmix.verify import random_grid_cdf

from crpsmix import grids

from conftest import grid_cdfs, numeric_crps, random_cdf_values, step_cdf_fn


class TestGridDomain:
    def test_basic(self):
        dom = GridDomain(0.0, 2.0, 4)
        assert dom.delta == 0.5
        assert dom.width == 2.0
        np.testing.assert_allclose(dom.grid, [0.5, 1.0, 1.5, 2.0])
        assert dom.grid[-1] == 2.0  # exact right endpoint

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            GridDomain(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            GridDomain(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            GridDomain(0.0, np.inf, 4)


class TestGridCdfValidation:
    def test_random_grid_cdf_needs_no_repair(self):
        for rng in spawn_rngs(17, 2000):
            dom = GridDomain(0.0, 1.0, int(rng.choice([1, 2, 16, 256])))
            vals = random_grid_cdf(rng, dom)
            np.testing.assert_array_equal(cdf_values(vals, dom), vals)

    def test_rejects_large_monotonicity_violation(self):
        dom = GridDomain(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="monotone"):
            GridCDF(dom, [0.5, 0.3, 0.8, 1.0])

    def test_repairs_float_noise(self):
        dom = GridDomain(0.0, 1.0, 4)
        f = GridCDF(dom, [0.2, 0.2 - 1e-15, 0.9, 1.0 + 1e-15])
        assert np.all(np.diff(f.values) >= 0)
        assert f.values[-1] == 1.0

    def test_rejects_wrong_endpoint(self):
        dom = GridDomain(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="end at 1"):
            GridCDF(dom, [0.1, 0.2, 0.3, 0.9])

    def test_rejects_out_of_unit_values(self):
        dom = GridDomain(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            GridCDF(dom, [-0.2, 0.5, 1.0])

    def test_values_are_frozen(self):
        f = GridCDF(GridDomain(0.0, 1.0, 3), [0.1, 0.5, 1.0])
        with pytest.raises(ValueError):
            f.values[0] = 0.9


def clamp_reference(vals):
    """The repair of `cdf_values` as one full pass: check every row, clamp
    into [0, 1], then to monotone, then set the last value to 1."""
    check_cdf(vals)
    out = np.maximum.accumulate(np.minimum(np.maximum(vals, 0.0), 1.0), axis=-1)
    out[..., -1] = 1.0
    return out


def noisy_rows(rng, shape):
    """Random CDF rows of `shape` (..., d), with -0.0 cells and, in about
    half the rows, float-noise violations of every kind up to REPAIR_TOL."""
    rows = np.sort(rng.random(shape), axis=-1)
    rows[..., -1] = 1.0
    flat = rows.reshape(-1, shape[-1])  # a view
    for row in flat:
        row[: int(rng.integers(0, min(2, len(row) - 1) + 1))] = -0.0  # a prefix
    for row in flat[rng.random(len(flat)) < 0.5]:
        k = int(rng.integers(0, shape[-1]))
        noise = float(rng.uniform(0.0, REPAIR_TOL))
        kind = rng.integers(0, 4)
        if kind == 0:
            row[0] = -noise  # below 0
        elif kind == 1:
            row[k:] = 1.0 + noise  # above 1
        elif kind == 2 and k > 0:
            row[k] = row[k - 1] - noise  # a drop
        else:
            row[-1] = 1.0 - noise  # the end
    return rows


class TestRepairCdf:
    def test_bit_identical_to_the_full_clamp(self):
        rng = np.random.default_rng(5)
        for shape in [(1,), (2,), (16,), (7, 16), (5, 3, 128), (4, 1024)]:
            for _ in range(50):
                vals = noisy_rows(rng, shape)
                want = clamp_reference(vals)
                got = vals.copy()
                change = repair_cdf(got)
                assert got.tobytes() == want.tobytes()  # -0.0 included
                want_change = np.abs(want - vals)[..., :-1].max(axis=-1, initial=0.0)
                np.testing.assert_array_equal(np.broadcast_to(change, shape[:-1]), want_change)

    def test_clean_rows_report_no_repair(self):
        rng = np.random.default_rng(6)
        for shape in [(1,), (16,), (3, 256)]:
            vals = np.sort(rng.random(shape), axis=-1)
            vals[..., -1] = 1.0 - REPAIR_TOL / 2  # the end is set, not repaired
            assert repair_cdf(vals) == 0.0
            assert np.all(vals[..., -1] == 1.0)

    def test_change_is_the_injected_violation(self):
        vals = np.array([[0.0, 0.25, 0.5, 1.0], [0.0, 0.5, 0.75, 1.0]])
        vals[1, 2] = 0.5 - 2.0**-42  # a drop of 2.3e-13, exact in floats
        assert list(repair_cdf(vals)) == [0.0, 2.0**-42]

    def test_rows_just_above_one_take_the_clip_bit_for_bit(self, monkeypatch):
        # the load roster's fault: cells before the last above 1 by a
        # rounding error, and the row back at 1 in the last cell
        rng = np.random.default_rng(7)
        checks = []
        monkeypatch.setattr(grids, "check_cdf", lambda v: checks.append(v.shape))
        for shape in [(2,), (16,), (7, 16), (1, 21, 128), (3, 2, 1024)]:
            for _ in range(40):
                vals = np.sort(rng.random(shape), axis=-1)
                vals[..., -1] = 1.0
                vals[..., : int(rng.integers(0, min(2, shape[-1] - 1) + 1))] = -0.0
                flat = vals.reshape(-1, shape[-1])
                for i in np.flatnonzero(rng.random(len(flat)) < 0.6):
                    row, k = flat[i], int(rng.integers(0, shape[-1]))  # a view of vals
                    row[k:-1] = 1.0 + rng.uniform(0.0, REPAIR_TOL, shape[-1] - 1 - k)
                want = clamp_reference(vals)
                got = vals.copy()
                change = repair_cdf(got)
                assert got.tobytes() == want.tobytes()  # -0.0 included
                want_change = np.abs(want - vals)[..., :-1].max(axis=-1, initial=0.0)
                np.testing.assert_array_equal(np.broadcast_to(change, shape[:-1]), want_change)
        assert checks == []  # no row needed the full check and clamp
        # above 1 and a drop: the clip alone leaves the row not monotone
        vals = np.array([[0.0, 0.5, 0.5 - 2.0**-42, 1.0 + 2.0**-43, 1.0]])
        want = clamp_reference(vals)
        assert list(repair_cdf(vals)) == [2.0**-42]
        assert vals.tobytes() == want.tobytes() and checks == [(1, 5)]

    def test_clip_reports_the_excess_over_one(self):
        vals = np.array([[0.0, 0.5, 1.0, 1.0], [0.0, 1.0 + 2.0**-44, 1.0 + 2.0**-42, 1.0]])
        assert list(repair_cdf(vals)) == [0.0, 2.0**-42]
        assert vals.tolist() == [[0.0, 0.5, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]]

    @pytest.mark.parametrize("bad", [
        [0.1, np.nan, 1.0], [0.1, 0.5, np.inf], [-0.1, 0.5, 1.0], [0.1, 1.2, 1.0],
        [0.5, 0.3, 1.0], [0.1, 0.5, 0.9], [0.1, 0.5, 1.0 + 1e-9],
    ])
    def test_raises_the_messages_of_check_cdf(self, bad):
        vals = np.array([[0.0, 0.5, 1.0], bad])
        with pytest.raises(ValueError) as want:
            check_cdf(vals)
        before = vals.copy()
        with pytest.raises(ValueError) as got:
            repair_cdf(vals)
        assert str(got.value) == str(want.value)
        assert before.tobytes() == vals.tobytes()  # left as it was


class TestHeaviside:
    def test_outcome_at_left_end_gives_all_ones(self):
        dom = GridDomain(0.0, 1.0, 8)
        np.testing.assert_array_equal(heaviside_cdf(dom, 0.0).values, np.ones(8))

    def test_outcome_at_right_end(self):
        dom = GridDomain(0.0, 1.0, 8)
        vals = heaviside_cdf(dom, 1.0).values
        assert vals[-1] == 1.0
        np.testing.assert_array_equal(vals[:-1], np.zeros(7))

    def test_interior_outcome_by_inspection(self):
        dom = GridDomain(0.0, 1.0, 4)
        np.testing.assert_array_equal(heaviside_cdf(dom, 0.6).values, [0, 0, 1, 1])

    def test_rejects_outside_interval(self):
        dom = GridDomain(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            heaviside_cdf(dom, 1.5)


class TestCrps:
    def test_point_mass_scores_zero(self):
        dom = GridDomain(-3.0, 5.0, 64)
        for y in (-3.0, 0.13, 4.99, 5.0):
            assert crps(heaviside_cdf(dom, y), y) == 0.0

    def test_uniform_cdf_outcome_zero(self):
        # identity CDF on [0, 1]: closed form int_0^1 (u-1)^2 du = 1/3
        dom = GridDomain(0.0, 1.0, 1000)
        f = GridCDF(dom, dom.grid.copy())
        got = crps(f, 0.0)
        oracle = numeric_crps(lambda u: u, 0.0, 0.0, 1.0)
        assert abs(oracle - 1.0 / 3.0) < 1e-8
        assert abs(got - 1.0 / 3.0) < 2 * dom.delta
        assert abs(got - oracle) < 2 * dom.delta

    def test_uniform_cdf_outcome_half(self):
        # int_0^.5 u^2 + int_.5^1 (u-1)^2 = 1/12
        dom = GridDomain(0.0, 1.0, 1000)
        f = GridCDF(dom, dom.grid.copy())
        got = crps(f, 0.5)
        oracle = numeric_crps(lambda u: u, 0.5, 0.0, 1.0)
        assert abs(oracle - 1.0 / 12.0) < 1e-8
        assert abs(got - 1.0 / 12.0) < 2 * dom.delta
        assert abs(got - oracle) < 2 * dom.delta

    def test_matches_quadrature_on_step_functions(self):
        rng = np.random.default_rng(7)
        dom = GridDomain(-1.0, 3.0, 50)
        for _ in range(10):
            vals = random_cdf_values(rng, dom.d)
            f = GridCDF(dom, vals)
            y = float(rng.uniform(-1.0, 3.0))
            oracle = numeric_crps(step_cdf_fn(dom, f.values), y, -1.0, 3.0)
            # grid score differs from the exact step integral only inside
            # the cell holding y
            assert abs(crps(f, y) - oracle) <= dom.delta + 1e-9

    def test_rejects_outcome_outside_interval(self):
        dom = GridDomain(0.0, 1.0, 10)
        f = heaviside_cdf(dom, 0.5)
        with pytest.raises(ValueError, match="outside"):
            crps(f, 1.2)

    @given(grid_cdfs(), st.floats(0.0, 1.0, allow_nan=False))
    def test_bounded_by_interval_width(self, f, y):
        assert 0.0 <= crps(f, y) <= f.domain.width + 1e-12

    def test_affine_rescaling_scales_by_width(self):
        rng = np.random.default_rng(3)
        vals = random_cdf_values(rng, 32)
        small = GridCDF(GridDomain(0.0, 1.0, 32), vals)
        big = GridCDF(GridDomain(10.0, 20.0, 32), vals)
        for frac in (0.0, 0.31, 0.77, 1.0):
            lhs = crps(big, 10.0 + 10.0 * frac)
            rhs = 10.0 * crps(small, frac)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)

    def test_refinement_changes_score_by_at_most_two_delta(self):
        # the same underlying step CDF represented at d and 2d
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 40))
            dom = GridDomain(0.0, 1.0, d)
            fine = GridDomain(0.0, 1.0, 2 * d)
            vals = random_cdf_values(rng, d)
            f = GridCDF(dom, vals)
            f2 = GridCDF(fine, np.repeat(vals, 2))
            y = float(rng.uniform(0.0, 1.0))
            assert abs(crps(f, y) - crps(f2, y)) <= 2 * dom.delta + 1e-12


class TestCrpsProfileAndRows:
    def test_profile_matches_pointwise_crps(self):
        rng = np.random.default_rng(5)
        dom = GridDomain(-2.0, 7.0, 33)
        for _ in range(5):
            f = GridCDF(dom, random_cdf_values(rng, dom.d))
            profile = crps_grid_profile(f.values, dom)
            direct = np.array([crps(f, z) for z in dom.grid])
            np.testing.assert_allclose(profile, direct, atol=1e-12)
        # an (N, d) stack gives every row's profile, bit for bit
        stack = cdf_values([random_cdf_values(rng, dom.d) for _ in range(6)], dom)
        profiles = crps_grid_profile(stack, dom)
        assert profiles.shape == (6, dom.d)
        for row, profile in zip(stack, profiles):
            np.testing.assert_array_equal(profile, crps_grid_profile(row, dom))
            direct = [crps(GridCDF(dom, row), z) for z in dom.grid]
            np.testing.assert_allclose(profile, direct, atol=1e-12)
        with pytest.raises(ValueError, match="33"):
            crps_grid_profile(stack[:, :-1], dom)

    def test_rows_matches_single(self):
        rng = np.random.default_rng(6)
        dom = GridDomain(0.0, 1.0, 17)
        fs = [GridCDF(dom, random_cdf_values(rng, dom.d)) for _ in range(4)]
        y = 0.42
        got = crps_rows(np.stack([f.values for f in fs]), dom, y)
        np.testing.assert_allclose(got, [crps(f, y) for f in fs], atol=1e-14)


class TestQuantile:
    def test_point_mass_quantiles(self):
        dom = GridDomain(0.0, 1.0, 100)
        f = heaviside_cdf(dom, 0.314)
        target = dom.grid[np.searchsorted(dom.grid, 0.314)]
        for tau in (0.01, 0.5, 0.99):
            assert quantile(f, tau) == target

    def test_identity_cdf_inverse(self):
        dom = GridDomain(0.0, 1.0, 1000)
        f = GridCDF(dom, dom.grid.copy())
        assert abs(quantile(f, 0.25) - 0.25) <= dom.delta

    @given(grid_cdfs(), st.floats(0.001, 0.999))
    @settings(max_examples=60)
    def test_matches_linear_scan_oracle(self, f, tau):
        # oracle: first grid point whose CDF value reaches tau
        idx = next(i for i, v in enumerate(f.values) if v >= tau)
        assert quantile(f, tau) == f.domain.grid[idx]

    def test_rejects_bad_levels(self):
        f = heaviside_cdf(GridDomain(0.0, 1.0, 4), 0.5)
        for tau in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                quantile(f, tau)


class TestEmpiricalCdf:
    def test_single_sample_equals_point_mass(self):
        dom = GridDomain(0.0, 1.0, 16)
        np.testing.assert_array_equal(
            empirical_cdf([0.4], dom).values, heaviside_cdf(dom, 0.4).values
        )

    def test_two_samples_by_counting(self):
        dom = GridDomain(0.0, 1.0, 4)
        np.testing.assert_allclose(
            empirical_cdf([0.25, 0.75], dom).values, [0.5, 0.5, 1.0, 1.0]
        )

    def test_uniform_samples_approach_identity(self):
        # Dvoretzky-Kiefer-Wolfowitz-style check at a fixed seed
        rng = np.random.default_rng(123)
        n = 10_000
        dom = GridDomain(0.0, 1.0, 512)
        f = empirical_cdf(rng.random(n), dom)
        assert np.max(np.abs(f.values - dom.grid)) < 3.0 / np.sqrt(n)

    def test_rejects_empty_and_out_of_range(self):
        dom = GridDomain(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            empirical_cdf([], dom)
        with pytest.raises(ValueError):
            empirical_cdf([0.2, 1.4], dom)


class TestClipAndRows:
    def test_row_round_trip(self):
        rng = np.random.default_rng(9)
        dom = GridDomain(-1.0, 4.0, 12)
        f = GridCDF(dom, random_cdf_values(rng, dom.d))
        back = cdf_from_row(cdf_to_row(f))
        assert back.domain == dom
        np.testing.assert_array_equal(back.values, f.values)

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            cdf_from_row([0.0, 1.0, 4.0, 0.5, 1.0])
