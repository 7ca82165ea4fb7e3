import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpsmix.aggregation import (
    SubstitutionError,
    aa_learning_rate,
    combine_wa,
    logsumexp,
    normalized_weights,
    square_tables,
    substitute_crps_aa,
    substitute_vector_aa,
    substitute_tables,
    wa_learning_rate,
)
import crpsmix.aggregation as agg
import crpsmix.game as game_mod
from crpsmix.game import GameConfig, replay
from crpsmix.grids import GridCDF, GridDomain, cdf_values, check_cdf, crps_grid_profile

from conftest import (AllExpertsAsleep, confidence_reweight, mix_past_posteriors,
                      probability_vectors, random_cdf_values, superprediction,
                      update_weights_confidence)


def log_w(weights):
    return np.log(np.asarray(weights, dtype=float))


def plain_update(lw, losses, eta=1.0):
    """The plain exponential update: the confidence update at full
    confidence, where the learner's loss drops out."""
    return update_weights_confidence(lw, eta, np.ones(lw.size), losses, 0.0)


class TestLearningRates:
    def test_rates_by_mode(self):
        assert aa_learning_rate(2.0) == 1.0
        assert wa_learning_rate(2.0) == 0.25
        np.testing.assert_allclose(normalized_weights(np.zeros(3)), np.ones(3) / 3)


class TestNormalizedWeights:
    def test_examples(self):
        np.testing.assert_allclose(
            normalized_weights(log_w([1, 1, 1])), np.ones(3) / 3
        )
        np.testing.assert_allclose(
            normalized_weights(log_w([2, 6])), [0.25, 0.75]
        )

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
    def test_sums_to_one(self, lw):
        assert abs(normalized_weights(np.array(lw)).sum() - 1.0) < 1e-12


class TestConfidenceReweight:
    def test_full_confidence_is_plain_normalization(self):
        lw = log_w([3.0, 1.0, 2.0])
        np.testing.assert_allclose(
            confidence_reweight(lw, np.ones(3)), normalized_weights(lw)
        )

    def test_sleeping_expert_gets_zero_mass(self):
        np.testing.assert_allclose(
            confidence_reweight(log_w([1.0, 1.0]), [1.0, 0.0]), [1.0, 0.0]
        )

    def test_partial_confidence(self):
        np.testing.assert_allclose(
            confidence_reweight(log_w([2.0, 1.0]), [0.5, 1.0]), [0.5, 0.5]
        )

    def test_all_asleep_raises(self):
        with pytest.raises(AllExpertsAsleep):
            confidence_reweight(log_w([1.0, 1.0]), [0.0, 0.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            confidence_reweight(log_w([1.0, 1.0]), [0.5, 1.2])


class TestSquareSubstitution:
    def test_single_active_expert_passthrough(self):
        q = np.array([1.0, 0.0, 0.0])
        for f1 in (0.0, 0.2, 0.9, 1.0):
            got = substitute_vector_aa(np.reshape([f1, 0.7, 0.1], (-1, 1)), q, 2.0)[0]
            assert abs(got - f1) < 1e-12

    def test_symmetric_split(self):
        assert substitute_vector_aa([[0.0], [1.0]], [0.5, 0.5], 2.0)[0] == pytest.approx(0.5)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
        st.floats(0.05, 2.0),
        st.integers(0, 10_000),
    )
    @settings(max_examples=120)
    def test_mixability_inequality(self, forecasts, eta, seed):
        f = np.array(forecasts)
        rng = np.random.default_rng(seed)
        q = rng.random(f.size) + 1e-6
        q /= q.sum()
        pred = substitute_vector_aa(np.reshape(f, (-1, 1)), q, eta)[0]
        for w in (0.0, 1.0):
            lhs = (pred - w) ** 2
            rhs = -math.log(float(q @ np.exp(-eta * (f - w) ** 2))) / eta
            assert lhs <= rhs + 1e-10

    def test_eta_range_enforced(self):
        for eta in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                substitute_vector_aa([[0.5]], [1.0], eta)


class TestVectorSubstitution:
    def test_single_column_reduces_to_scalar_rule(self):
        rng = np.random.default_rng(0)
        m = rng.random((4, 1))
        q = np.full(4, 0.25)
        got = substitute_vector_aa(m, q, 2.0)
        assert got.shape == (1,)
        # f = 1/2 - (1/(2 eta)) ln( sum_i q_i e^{-eta f_i^2} / sum_i q_i e^{-eta (1-f_i)^2} )
        f = m[:, 0]
        want = 0.5 - math.log((q @ np.exp(-2.0 * f**2)) / (q @ np.exp(-2.0 * (1.0 - f) ** 2))) / 4.0
        assert got[0] == pytest.approx(want)

    def test_identical_rows_pass_through(self):
        row = np.array([0.1, 0.4, 0.9])
        m = np.tile(row, (3, 1))
        got = substitute_vector_aa(m, np.ones(3) / 3, 2.0)
        np.testing.assert_allclose(got, row, atol=1e-12)

    def test_generalized_inequality_small_exhaustive(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n, d, eta = 3, 4, 2.0
            m = rng.random((n, d))
            q = rng.random(n)
            q /= q.sum()
            f = substitute_vector_aa(m, q, eta)
            for bits in np.ndindex(*(2,) * d):
                y = np.array(bits, dtype=float)
                lhs = math.exp(-(eta / d) * float(((f - y) ** 2).sum()))
                rhs = float(q @ np.exp(-(eta / d) * ((m - y) ** 2).sum(axis=1)))
                assert lhs >= rhs - 1e-10


class TestCrpsSubstitution:
    def test_single_expert_identity(self):
        rng = np.random.default_rng(1)
        f = random_cdf_values(rng, 20)
        out = substitute_crps_aa(f[None, :], np.array([1.0]))
        np.testing.assert_allclose(out, f, atol=1e-12)

    def test_identical_experts_identity(self):
        rng = np.random.default_rng(2)
        f = random_cdf_values(rng, 20)
        out = substitute_crps_aa(np.stack([f, f, f]), np.ones(3) / 3)
        np.testing.assert_allclose(out, f, atol=1e-12)

    def test_opposite_point_masses_cross_at_half(self):
        lo = np.ones(8)  # mass at a
        hi = np.eye(8)[-1]  # mass at b
        out = substitute_crps_aa(np.stack([lo, hi]), [0.5, 0.5])
        np.testing.assert_allclose(out[:-1], 0.5, atol=1e-12)
        assert out[-1] == 1.0

    def test_mixability_at_every_grid_outcome(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(4, 64))
            a = float(rng.uniform(-10, 0))
            b = a + float(rng.uniform(0.1, 30))
            dom = GridDomain(a, b, d)
            n = int(rng.integers(2, 6))
            fs = cdf_values([random_cdf_values(rng, d) for _ in range(n)], dom)
            q = rng.random(n)
            q /= q.sum()
            eta = 2.0 / dom.width
            out = cdf_values(substitute_crps_aa(fs, q), dom)
            lhs = np.exp(-eta * crps_grid_profile(out, dom))
            rhs = q @ np.exp(-eta * crps_grid_profile(fs, dom))
            assert np.all(lhs >= rhs - 1e-9)

    def test_output_monotone_for_monotone_inputs(self):
        rng = np.random.default_rng(4)
        dom = GridDomain(0.0, 1.0, 128)
        for _ in range(20):
            fs = cdf_values([random_cdf_values(rng, 128) for _ in range(4)], dom)
            q = rng.random(4)
            q /= q.sum()
            # raises beyond float noise
            check_cdf(substitute_tables(square_tables(fs, 2.0), q, 2.0))

    def test_large_violation_raises_substitution_error(self, monkeypatch):
        monkeypatch.setattr(
            agg, "substitute_tables", lambda tables, q, eta: np.array([0.2, 0.1, 1.0])
        )
        with pytest.raises(SubstitutionError, match="monotone"):
            substitute_crps_aa(np.array([[0.1, 0.5, 1.0]]), np.array([1.0]))

    @pytest.mark.parametrize(
        "bad, message", [([0.1, 0.5, 0.9], "end at 1"), ([0.1, np.nan, 1.0], "finite")]
    )
    def test_invalid_output_raises_substitution_error(self, monkeypatch, bad, message):
        # the CDF checks of `grids` reject the output, as SubstitutionError
        monkeypatch.setattr(agg, "substitute_tables", lambda tables, q, eta: np.array(bad))
        with pytest.raises(SubstitutionError, match=message):
            substitute_crps_aa(np.array([[0.1, 0.5, 1.0]]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [[0.2, 0.1, 1.0], [0.1, np.nan, 1.0]])
    def test_broken_rule_raises_substitution_error_in_replay(self, monkeypatch, bad):
        monkeypatch.setattr(
            game_mod, "substitute_tables", lambda tables, q, eta: np.array([bad] * len(q))
        )
        dom = GridDomain(0.0, 1.0, 3)
        with pytest.raises(SubstitutionError):
            replay([GameConfig(dom)], [[0.1, 0.5, 1.0], [0.3, 0.6, 1.0]], [0.4])

    def test_domain_mismatch_rejected(self):
        # the rules see bare values; stacking GridCDFs at the edge checks
        # that they share one domain
        dom = GridDomain(0.0, 1.0, 4)
        f1 = GridCDF(dom, [0.1, 0.2, 0.5, 1.0])
        f2 = GridCDF(GridDomain(0.0, 2.0, 4), [0.1, 0.2, 0.5, 1.0])
        with pytest.raises(ValueError, match="domain"):
            cdf_values([f1, f2], dom)


class TestCombineWa:
    def test_single_expert_identity(self):
        f = np.array([0.0, 0.1, 0.4, 0.4, 0.9, 1.0])
        np.testing.assert_array_equal(combine_wa(f[None, :], np.array([1.0])), f)

    def test_point_mass_average(self):
        out = combine_wa(np.stack([np.ones(8), np.eye(8)[-1]]), [0.5, 0.5])
        np.testing.assert_allclose(out[:-1], 0.5)
        assert out[-1] == 1.0

    def test_output_within_pointwise_envelope(self):
        rng = np.random.default_rng(5)
        stack = np.stack([random_cdf_values(rng, 40) for _ in range(5)])
        q = rng.random(5)
        q /= q.sum()
        out = combine_wa(stack, q)
        assert np.all(out >= stack.min(axis=0) - 1e-12)
        assert np.all(out <= stack.max(axis=0) + 1e-12)
        assert np.all(np.diff(out) >= -1e-15)

    @pytest.mark.parametrize("q", [[math.nan, 0.5], [0.5, math.nan], [math.nan, math.nan]])
    def test_nan_weights_rejected(self, q):
        # averaging and vector substitution share one weight check
        m = np.stack([np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 8) ** 2])
        with pytest.raises(ValueError, match="probability vector"):
            combine_wa(m, q)
        with pytest.raises(ValueError, match="probability vector"):
            substitute_vector_aa(m, q, 2.0)


class TestSuperprediction:
    def test_equal_losses(self):
        assert superprediction([3.0, 3.0], [0.4, 0.6], 1.7) == pytest.approx(3.0)

    def test_one_hot_weights(self):
        assert superprediction([3.0, 100.0], [1.0, 0.0], 0.5) == pytest.approx(3.0)

    def test_frozen_value(self):
        # -ln((1 + e^{-1})/2), evaluated independently at high precision
        got = superprediction([0.0, 1.0], [0.5, 0.5], 1.0)
        assert got == pytest.approx(0.3798854930417224, abs=1e-12)

    @given(
        st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6),
        st.floats(0.05, 5.0),
        st.integers(0, 10_000),
    )
    @settings(max_examples=80)
    def test_between_min_and_mean(self, losses, eta, seed):
        l = np.array(losses)
        rng = np.random.default_rng(seed)
        q = rng.random(l.size) + 1e-6
        q /= q.sum()
        g = superprediction(l, q, eta)
        assert l.min() - 1e-9 <= g <= float(q @ l) + 1e-9


class TestWeightUpdates:
    def test_zero_losses_leave_weights(self):
        lw = log_w([0.2, 1.0, 0.5])
        before = normalized_weights(lw)
        after = normalized_weights(plain_update(lw, np.zeros(3)))
        np.testing.assert_allclose(after, before, atol=1e-15)

    def test_huge_loss_drives_weight_to_zero(self):
        out = plain_update(log_w([1.0, 1.0]), [0.0, 5000.0])
        np.testing.assert_allclose(normalized_weights(out), [1.0, 0.0], atol=1e-300)

    def test_hand_computed_example(self):
        out = plain_update(log_w([1.0, 1.0]), [math.log(2.0), 0.0], eta=1.0)
        np.testing.assert_allclose(normalized_weights(out), [1 / 3, 2 / 3])

    def test_max_weight_is_one_after_update(self):
        out = plain_update(log_w([0.3, 0.8]), [0.1, 0.7], eta=2.0)
        assert out.max() == 0.0

    def test_rejects_bad_losses(self):
        lw = log_w([1.0, 1.0])
        for bad in ([np.nan, 0.0], [-0.1, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError):
                plain_update(lw, bad)


class TestConfidenceUpdate:
    def test_full_confidence_matches_plain_update(self):
        lw, eta = log_w([0.4, 1.0, 0.7]), 1.3
        losses = np.array([0.2, 0.9, 0.05])
        a = update_weights_confidence(lw, eta, np.ones(3), losses, 0.4)
        raw = lw - eta * losses  # w_i <- w_i e^{-eta l_i}
        np.testing.assert_allclose(a, raw - raw.max(), atol=1e-12)

    def test_zero_confidence_follows_learner(self):
        # with p = 0 everywhere, every weight moves by the same factor
        lw = log_w([2.0, 1.0])
        out = update_weights_confidence(lw, 1.0, np.zeros(2), [9.0, 0.1], 0.7)
        np.testing.assert_allclose(
            normalized_weights(out), normalized_weights(lw), atol=1e-15
        )

    def test_half_confidence_example(self):
        lw = np.array([0.0])
        out = update_weights_confidence(lw, 1.0, [0.5], [2.0], 4.0)
        # exponent -(0.5*2 + 0.5*4) = -3, then rescaled so max is 1
        assert out[0] == 0.0
        raw = lw[0] - 1.0 * (0.5 * 2.0 + 0.5 * 4.0)
        assert raw == -3.0


class TestMixPastPosteriors:
    def test_alpha_zero_is_normalization(self):
        out = mix_past_posteriors(log_w([4.0, 1.0]), 0.0)
        np.testing.assert_allclose(np.exp(out), [0.8, 0.2])

    def test_alpha_one_is_uniform(self):
        out = mix_past_posteriors(log_w([9.0, 1.0, 2.0]), 1.0)
        np.testing.assert_allclose(np.exp(out), np.ones(3) / 3)

    def test_hand_computed_example(self):
        w = np.exp(mix_past_posteriors(log_w([0.9, 0.05, 0.05]), 0.001))
        np.testing.assert_allclose(
            w,
            [0.001 / 3 + 0.999 * 0.9, 0.001 / 3 + 0.999 * 0.05, 0.001 / 3 + 0.999 * 0.05],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            w, [0.8994333333333333, 0.05028333333333333, 0.05028333333333333]
        )

    @given(
        st.lists(st.floats(-200, 5), min_size=2, max_size=6),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=80)
    def test_floor_and_normalization(self, lw, alpha):
        w = np.exp(mix_past_posteriors(np.array(lw), alpha))
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w >= alpha / w.size - 1e-15)


    @pytest.mark.parametrize(
        "alpha",
        [0.0, 0.001, 1.0, [[0.0], [0.0], [0.0]], [[0.001], [0.0], [1.0]], [[0.3], [0.001], [1.0]]],
    )
    def test_fixed_share_is_the_mixing_formula_bit_for_bit(self, alpha):
        # the library's mixing step, aggregation._share, against the formula
        lw = np.random.default_rng(1).normal(size=(3, 5)) * 30.0
        alpha = np.asarray(alpha, dtype=float)
        norm = lw - logsumexp(lw, axis=-1)[..., None]
        mixed = np.log(alpha / 5 + (1.0 - alpha) * np.exp(norm))
        want = np.where(alpha == 0.0, norm, mixed)
        assert np.array_equal(agg._share(alpha, 5)(norm.copy()), want)
        assert np.array_equal(mix_past_posteriors(lw, alpha), want)


class TestScaleInvariance:
    @given(probability_vectors(min_n=2, max_n=5), st.floats(-40, 40))
    @settings(max_examples=60)
    def test_rescaled_weights_change_nothing(self, q0, shift):
        n = q0.size
        lw = np.log(q0)
        shifted = lw + shift
        np.testing.assert_allclose(
            normalized_weights(lw), normalized_weights(shifted), atol=1e-12
        )
        p = np.linspace(0.1, 1.0, n)
        np.testing.assert_allclose(
            confidence_reweight(lw, p), confidence_reweight(shifted, p), atol=1e-12
        )
        f = np.linspace(0.05, 0.95, n)
        a = substitute_vector_aa(np.reshape(f, (-1, 1)), normalized_weights(lw), 2.0)[0]
        b = substitute_vector_aa(np.reshape(f, (-1, 1)), normalized_weights(shifted), 2.0)[0]
        assert abs(a - b) < 1e-12
