import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpsmix.aggregation import (
    SubstitutionError,
    confidence_reweight,
    normalized_weights,
    square_tables,
    substitute_crps_aa,
    substitute_tables,
    superprediction,
)
from crpsmix.data import default_generators, rotating_leader_schedule, synth_stream
from crpsmix.experts import triangular_cdf
import crpsmix.game as game_mod
from crpsmix.game import (
    GameConfig,
    GameLog,
    regret_report,
    replay,
    run_square_loss_game,
    telescoping_gap,
)
from crpsmix.grids import GridCDF, GridDomain, cdf_values, crps

from conftest import random_cdf_values, reference_game, reference_square_loss_game


def synth_setup(T=600, d=128, seed=0, n_segments=6):
    dom = GridDomain(0.0, 1.0, d)
    gens = default_generators()
    cdfs = [GridCDF(dom, triangular_cdf(g, dom)) for g in gens]
    sched = rotating_leader_schedule(T, 3, n_segments)
    y = synth_stream(gens, sched, T, seed)
    return dom, cdfs, y


def play(dom, cdfs, outcomes, mode="aa", alpha=0.0, confidences=None):
    config = GameConfig(dom, mode=mode, alpha=alpha)
    (log,), _ = replay([config], cdfs, outcomes, confidences)
    return log


class TestGameConfig:
    def test_eta_defaults(self):
        dom = GridDomain(0.0, 4.0, 8)
        assert GameConfig(dom, mode="aa").eta == 0.5
        assert GameConfig(dom, mode="wa").eta == 0.125
        assert GameConfig(dom, mode="aa", eta=3.0).eta == 3.0

    def test_validation(self):
        dom = GridDomain(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            GameConfig(dom, mode="avg")
        with pytest.raises(ValueError):
            GameConfig(dom, alpha=-0.1)
        with pytest.raises(ValueError):
            GameConfig(dom, eta=0.0)


class TestStepBasics:
    def test_single_expert_zero_regret(self):
        dom, cdfs, y = synth_setup(T=50)
        for mode in ("aa", "wa"):
            log = play(dom, cdfs[:1], y, mode=mode)
            np.testing.assert_allclose(log.regret()[:, 0], 0.0, atol=1e-12)
            report = regret_report(log)
            assert report.all_bounds_satisfied

    def test_forecast_equals_single_expert(self):
        dom, cdfs, y = synth_setup(T=5)
        _, kept = replay([GameConfig(dom, mode="aa")], cdfs[:1], y, keep=[1, 5])
        for t in (1, 5):
            np.testing.assert_allclose(kept[t][0].values, cdfs[0].values, atol=1e-12)

    def test_full_confidence_matches_no_confidence_path(self):
        dom, cdfs, y = synth_setup(T=80)
        ones = [np.ones(3)] * 80
        a = play(dom, cdfs, y, confidences=ones)
        b = play(dom, cdfs, y)
        np.testing.assert_array_equal(a.learner_losses, b.learner_losses)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_matrix_and_gridcdf_list_agree(self):
        dom, cdfs, y = synth_setup(T=60)
        matrix = np.stack([f.values for f in cdfs])
        p = np.ones((60, 3))
        p[1::2] = [1.0, 0.5, 0.0]
        configs = [GameConfig(dom, mode=mode, alpha=0.01) for mode in ("aa", "wa")]
        steps = range(1, 61)
        by_list, list_kept = replay(configs, cdfs, y, p, keep=steps)
        by_matrix, matrix_kept = replay(configs, matrix, y, p, keep=steps)
        for t in steps:
            for f1, f2 in zip(list_kept[t], matrix_kept[t]):
                np.testing.assert_array_equal(f1.values, f2.values)
        for a, b in zip(by_list, by_matrix):
            np.testing.assert_array_equal(a.learner_losses, b.learner_losses)

    def test_domain_mismatch_rejected(self):
        dom, cdfs, y = synth_setup(T=5)
        other = GridDomain(0.0, 2.0, dom.d)
        bad = GridCDF(other, cdfs[0].values.copy())
        with pytest.raises(ValueError, match="domain"):
            replay([GameConfig(dom)], [bad, bad, bad], y)

    def test_outcome_outside_domain_rejected(self):
        dom, cdfs, y = synth_setup(T=5)
        with pytest.raises(ValueError, match="outside"):
            replay([GameConfig(dom)], cdfs, [y[0], 1.5])

    def test_all_asleep_falls_back_and_skips_update(self):
        dom, cdfs, y = synth_setup(T=3)
        p = np.array([[1.0, 0.2, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        log = play(dom, cdfs, y, alpha=0.01, confidences=p)
        np.testing.assert_array_equal(log.weights[1], np.full(3, 1 / 3))
        # the weights after the asleep step are the weights before it
        np.testing.assert_array_equal(log.pool_weights[2], log.pool_weights[1])
        # the asleep step contributes nothing to discounted regret
        disc = log.discounted_regret()
        np.testing.assert_array_equal(disc[1], disc[0])

    def test_logged_weights_formed_the_forecast(self):
        # q is the confidence-reweighted vector the rule aggregated with
        # (uniform when all sleep); w is the normalized weights before it
        dom, cdfs, y = synth_setup(T=40)
        matrix = np.stack([f.values for f in cdfs])
        config = GameConfig(dom, alpha=0.01)
        rng = np.random.default_rng(4)
        p = rng.integers(0, 3, (40, 3)) / 2.0
        p[3::7] = 0.0
        (log,), kept = replay([config], matrix, y, p, keep=range(1, 41))
        _, _, states = reference_game(config, matrix, y, p)
        for t in range(40):
            lw, q, w = states[t], log.weights[t], log.pool_weights[t]
            np.testing.assert_array_equal(w, normalized_weights(lw))
            if p[t].any():
                np.testing.assert_array_equal(q, confidence_reweight(lw, p[t]))
                assert np.all(q[p[t] == 0] == 0.0)
            else:
                np.testing.assert_array_equal(q, np.full(3, 1 / 3))
            np.testing.assert_array_equal(
                kept[t + 1][0].values, GridCDF(dom, substitute_crps_aa(matrix, q)).values
            )

    def test_full_confidence_weights_equal_pool_weights(self):
        dom, cdfs, y = synth_setup(T=50)
        log = play(dom, cdfs, y, alpha=0.01)
        np.testing.assert_array_equal(log.weights, log.pool_weights)


class TestBounds:
    def test_substitution_regret_bound_every_prefix(self):
        dom, cdfs, y = synth_setup(T=1000)
        log = play(dom, cdfs, y, mode="aa", alpha=0.0)
        bound = (dom.width / 2.0) * math.log(3)
        assert log.bound == pytest.approx(bound)
        regret_vs_best = log.regret().min(axis=1)
        assert np.all(regret_vs_best <= bound + 1e-9)

    def test_averaging_regret_bound_every_prefix(self):
        dom, cdfs, y = synth_setup(T=1000)
        log = play(dom, cdfs, y, mode="wa", alpha=0.0)
        bound = 2.0 * dom.width * math.log(3)
        assert log.bound == pytest.approx(bound)
        assert np.all(log.regret().min(axis=1) <= bound + 1e-9)

    def test_per_step_mixability_vs_superprediction(self):
        dom, cdfs, y = synth_setup(T=200)
        config = GameConfig(dom, mode="aa")
        (log,), _ = replay([config], cdfs, y)
        for t in range(200):
            # q: the normalized weights that formed step t's forecast
            g = superprediction(log.expert_losses[t], log.weights[t], config.eta)
            assert log.learner_losses[t] <= g + 1e-9

    def test_telescoping_gap_nonpositive(self):
        dom, cdfs, y = synth_setup(T=400)
        gap = telescoping_gap(play(dom, cdfs, y, mode="aa", alpha=0.0))
        budget = 1e-8 * np.arange(1, 401)
        assert np.all(gap <= budget)

    def test_discounted_regret_bound_random_confidences(self):
        rng = np.random.default_rng(17)
        dom = GridDomain(0.0, 1.0, 16)
        for mode in ("aa", "wa"):
            for trial in range(10):
                n = int(rng.integers(2, 5))
                matrices = np.empty((50, n, 16))
                p = np.empty((50, n))
                y = np.empty(50)
                for t in range(50):
                    matrices[t] = [random_cdf_values(rng, 16) for _ in range(n)]
                    style = rng.random()
                    if style < 0.15:
                        p[t] = 0.0
                    elif style < 0.5:
                        p[t] = rng.integers(0, 2, n)
                    else:
                        p[t] = rng.random(n)
                    y[t] = rng.random()
                config = GameConfig(dom, mode=mode, alpha=0.0)
                (log,), _ = replay([config], iter([matrices]), y, p)
                disc = log.discounted_regret()
                assert np.all(disc.max(axis=0) <= log.bound + 1e-9)

    def test_mpp_keeps_weight_floor(self):
        dom, cdfs, y = synth_setup(T=100)
        alpha = 0.01
        snaps = play(dom, cdfs, y, mode="aa", alpha=alpha).weights
        assert np.all(snaps[1:] >= alpha / 3 - 1e-12)


#: Batched reductions may reorder float sums, so a configuration replayed
#: among others may differ from its step-at-a-time reference game in the
#: last bits; allowed relative difference, fixed before the engine was
#: written.
REPLAY_RTOL = 1e-12

LOG_FIELDS = (
    "outcomes", "learner_losses", "expert_losses", "confidences", "weights",
    "pool_weights",
)


def assert_logs_close(got, want, rtol):
    assert (got.n, got.eta, got.steps) == (want.n, want.eta, want.steps)
    for name in LOG_FIELDS:
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=rtol, atol=0, err_msg=name
        )


def assert_replay_matches_reference(configs, experts, y, p=None, *, rtol=0.0, chunks=None):
    """Replay `configs` (over `chunks` when given, else `experts`) and compare
    every configuration with its own reference game, kept forecasts of every
    step included."""
    steps = range(1, len(y) + 1)
    logs, kept = replay(configs, experts if chunks is None else chunks, y, p, keep=steps)
    assert len(logs) == len(configs) and sorted(kept) == list(steps)
    for i, (cfg, log) in enumerate(zip(configs, logs)):
        want, forecasts, _ = reference_game(cfg, experts, y, p)
        assert_logs_close(log, want, rtol)
        for t in steps:
            np.testing.assert_allclose(
                kept[t][i].values, forecasts[t - 1].values, rtol=rtol, atol=0
            )
    return logs


class TestReplay:
    def test_configurations_match_their_own_games(self):
        dom, cdfs, y = synth_setup(T=400, d=64)
        cells = [(m, a) for m in ("aa", "wa") for a in (0.0, 0.001, 0.01)]
        configs = [GameConfig(dom, mode=m, alpha=a) for m, a in cells]
        assert_replay_matches_reference(configs, cdfs, y, rtol=REPLAY_RTOL)

    def test_eight_configurations_with_confidences_are_exact(self):
        rng = np.random.default_rng(12)
        dom = GridDomain(0.0, 1.0, 16)
        T, n = 300, 5
        matrices = np.stack([
            np.stack([random_cdf_values(rng, 16) for _ in range(n)]) for _ in range(T)
        ])
        p = rng.random((T, n))
        p[rng.random((T, n)) < 0.3] = 0.0
        p[5::11] = 0.0  # all asleep
        y = rng.random(T)
        configs = [
            GameConfig(dom, mode=m, alpha=a)
            for m in ("aa", "wa") for a in (0.0, 0.001, 0.01, 0.2)
        ]
        chunks = iter([matrices[:7], matrices[7:]])
        logs = assert_replay_matches_reference(configs, matrices, y, p, chunks=chunks)
        assert all(log.asleep_steps == 27 for log in logs)

    def test_synth_matrix_at_full_grid_is_exact(self):
        dom, cdfs, y = synth_setup(T=300, d=1024)
        cells = [(m, a) for m in ("aa", "wa") for a in (0.0, 0.01)]
        configs = [GameConfig(dom, mode=m, alpha=a) for m, a in cells]
        assert_replay_matches_reference(configs, cdfs, y)

    def test_chunked_matrices_with_asleep_steps_match_steps(self):
        rng = np.random.default_rng(8)
        dom = GridDomain(0.0, 2.0, 16)
        T, n = 90, 4
        matrices = np.stack([
            np.stack([random_cdf_values(rng, 16) for _ in range(n)]) for _ in range(T)
        ])
        p = rng.random((T, n))
        p[rng.random((T, n)) < 0.3] = 0.0
        p[::9] = 0.0  # all asleep
        y = 2.0 * rng.random(T)
        for mode, alpha in (("aa", 0.0), ("wa", 0.01), ("aa", 0.01)):
            cfg = GameConfig(dom, mode=mode, alpha=alpha)
            chunks = iter([matrices[:1], matrices[1:40], matrices[40:]])
            (log,) = assert_replay_matches_reference([cfg], matrices, y, p, chunks=chunks)
            assert log.asleep_steps == 10

    def test_broken_fixed_matrix_raises_before_step_one(self, monkeypatch):
        dom, cdfs, y = synth_setup(T=20)
        broken = np.stack([f.values for f in cdfs])
        k = int(np.argmax(broken[1] > 0.5))
        broken[1, k] = broken[1, k - 1] - 1e-6  # a decrease: not a CDF
        monkeypatch.setattr(
            game_mod, "substitute_tables", lambda *a, **k: pytest.fail("a step ran")
        )
        with pytest.raises(ValueError, match="monotone"):
            replay([GameConfig(dom)], broken, y)

    def test_broken_chunk_raises(self):
        dom, cdfs, y = synth_setup(T=6)
        matrices = np.stack([np.stack([f.values for f in cdfs])] * 6)
        matrices[4, 0] *= 0.5  # ends at 1/2
        chunks = iter([matrices[:3], matrices[3:]])
        with pytest.raises(ValueError, match="end at 1"):
            replay([GameConfig(dom)], chunks, y)

    def test_step_count_must_match_outcomes(self):
        dom, cdfs, y = synth_setup(T=6)
        m = cdf_values(cdfs, dom)
        with pytest.raises(ValueError, match="shorter|longer"):
            replay([GameConfig(dom)], iter([np.stack([m] * 5)]), y)
        with pytest.raises(ValueError, match="shorter|longer"):
            replay([GameConfig(dom)], iter([np.stack([m] * 7)]), y)
        with pytest.raises(ValueError, match="outside"):
            replay([GameConfig(dom)], m, [0.5, 1.5])

    def test_a_chunk_of_another_shape_names_its_first_step(self):
        dom, cdfs, y = synth_setup(T=6)
        m = cdf_values(cdfs, dom)
        chunks = iter([np.stack([m] * 3), np.stack([np.vstack([m, m[:1]])] * 3)])
        with pytest.raises(ValueError, match=r"^step 4: expert matrix of shape \(4, 128\)$"):
            replay([GameConfig(dom)], chunks, y)

    def test_roster_sized_stream_with_confidences_is_exact(self):
        # the load roster's size: 21 experts at d=128, scored three steps
        # per block, in chunks that split blocks
        rng = np.random.default_rng(21)
        dom = GridDomain(0.0, 3.0, 128)
        T, n = 70, 21
        matrices = np.stack([
            np.stack([random_cdf_values(rng, 128) for _ in range(n)]) for _ in range(T)
        ])
        p = rng.random((T, n))
        p[rng.random((T, n)) < 0.4] = 0.0
        p[9::23] = 0.0  # all asleep
        y = 3.0 * rng.random(T)
        configs = [GameConfig(dom, mode="aa", alpha=0.0), GameConfig(dom, mode="wa", alpha=0.01),
                   GameConfig(dom, mode="aa", alpha=0.001)]
        chunks = iter([matrices[:1], matrices[1:26], matrices[26:]])
        logs = assert_replay_matches_reference(configs, matrices, y, p, chunks=chunks)
        assert all(log.asleep_steps == 3 for log in logs)

    def test_max_cdf_repair_is_the_largest_clamp(self):
        dom, cdfs, y = synth_setup(T=30)
        matrix = np.stack([f.values for f in cdfs])
        configs = [GameConfig(dom, mode="aa"), GameConfig(dom, mode="wa", alpha=0.01)]
        clean, _ = replay(configs, matrix, y)
        assert clean[0].max_cdf_repair == 0.0
        assert 0.0 <= clean[1].max_cdf_repair <= 1e-15  # averaging's rounding
        violation = 4e-13
        low = int(np.argmax(matrix[0] == 0.0))  # a cell at zero
        matrix[0, low] = -violation
        for experts in (matrix, iter([np.stack([matrix] * 30)])):
            logs, _ = replay(configs, experts, y)
            assert [log.max_cdf_repair for log in logs] == [violation, violation]
        # in one chunk of a stream
        stack = np.stack([np.stack([f.values for f in cdfs])] * 30)
        stack[17, 2, -2] = 1.0 + 2.0**-42
        (log,), _ = replay(configs[:1], iter([stack[:10], stack[10:]]), y)
        assert log.max_cdf_repair == 2.0**-42

    def test_configurations_share_one_domain(self):
        dom, cdfs, y = synth_setup(T=6)
        other = GridDomain(0.0, 2.0, dom.d)
        with pytest.raises(ValueError, match="domain"):
            replay([GameConfig(dom), GameConfig(other)], cdfs, y)


#: The kinds of step the block engine tells apart: full confidence (the
#: update does not read the learner's loss), a confidence below 1 next to
#: an awake expert (it does), and every expert asleep (no update).
STEP_KINDS = ("full", "feedback", "asleep")


def confidence_rows(rng, kinds, n):
    """(T, N) confidences with one row of each kind in `kinds`."""
    p = np.ones((len(kinds), n))
    for row, kind in zip(p, kinds):
        if kind == "asleep":
            row[:] = 0.0
        elif kind == "feedback":
            row[:] = rng.integers(0, 2, n) if rng.random() < 0.3 else rng.random(n)
            row[rng.random(n) < 0.3] = 0.0
            if not row.any() or (row == 1.0).all():
                row[int(rng.integers(0, n))] = 0.5
    return p


@st.composite
def block_games(draw):
    """A replay case: runs of each step kind, C <= 8 configurations of both
    rules and three alphas, a fixed matrix or a chunked stream, and a block
    budget from one step to the default."""
    n = draw(st.integers(1, 5))
    d = draw(st.sampled_from([1, 4, 16, 64]))
    runs = draw(st.lists(st.tuples(st.sampled_from(STEP_KINDS), st.integers(1, 9)),
                         min_size=1, max_size=6))
    kinds = [kind for kind, length in runs for _ in range(length)]
    cells = draw(st.lists(st.tuples(st.sampled_from(["aa", "wa"]),
                                    st.sampled_from([0.0, 0.001, 0.2])), min_size=1, max_size=8))
    cuts = draw(st.lists(st.integers(0, len(kinds)), max_size=4))
    return {
        "n": n, "d": d, "kinds": kinds, "cells": cells,
        "fixed": draw(st.booleans()), "cuts": sorted(set(cuts) | {0, len(kinds)}),
        "no_confidences": "feedback" not in kinds and "asleep" not in kinds and draw(st.booleans()),
        "block_steps": draw(st.sampled_from([1, 2, 3, 7, None])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def block_case(case):
    rng = np.random.default_rng(case["seed"])
    n, d, T = case["n"], case["d"], len(case["kinds"])
    dom = GridDomain(0.0, 2.0, d)
    configs = [GameConfig(dom, mode=m, alpha=a) for m, a in case["cells"]]
    if case["fixed"]:
        matrices = np.stack([random_cdf_values(rng, d) for _ in range(n)])
        chunks = None
    else:
        matrices = np.stack([
            np.stack([random_cdf_values(rng, d) for _ in range(n)]) for _ in range(T)
        ])
        cuts = case["cuts"]
        chunks = iter([matrices[a:b] for a, b in zip(cuts, cuts[1:])])
    p = None if case["no_confidences"] else confidence_rows(rng, case["kinds"], n)
    y = 2.0 * rng.random(T)
    steps = case["block_steps"]
    budget = game_mod.BLOCK_BYTES if steps is None else steps * 8 * d * n * len(configs)
    return configs, matrices, chunks, p, y, budget


class TestBlockEngine:
    def test_block_products_have_the_bits_of_one_row(self):
        # what the engine batches: the learner loss stays row @ row, a "wa"
        # forecast q_i @ values, a substitution one row of q at a time
        rng = np.random.default_rng(3)
        for k, c, n, d in [(1, 1, 1, 1), (3, 2, 3, 16), (10, 8, 5, 256), (2, 4, 21, 128),
                           (4, 3, 9, 1024)]:
            r = rng.standard_normal((k, c, d))
            assert np.array_equal(np.vecdot(r, r), [[row @ row for row in rows] for rows in r])
            q = rng.dirichlet(np.ones(n), size=(k, c))
            for values in (rng.random((k, n, d)), np.broadcast_to(rng.random((n, d)), (k, n, d))):
                got = np.matmul(q[:, :, None, :], values[:, None])[..., 0, :]
                assert np.array_equal(got, [[qi @ m for qi in qs] for qs, m in zip(q, values)])
                a, b = square_tables(values, 2.0)
                got = substitute_tables((a[:, None], b[:, None]), q, 2.0)
                want = [[substitute_tables((ta, tb), qi, 2.0) for qi in qs]
                        for qs, ta, tb in zip(q, a, b)]
                assert np.array_equal(got, want)

    @given(block_games())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_step_at_a_time_reference_bit_for_bit(self, case):
        configs, matrices, chunks, p, y, budget = block_case(case)
        with mock.patch.object(game_mod, "BLOCK_BYTES", budget):
            logs = assert_replay_matches_reference(configs, matrices, y, p, chunks=chunks)
        kinds = case["kinds"]
        for log in logs:
            assert log.feedback_steps == kinds.count("feedback")
            assert log.asleep_steps == kinds.count("asleep")

    @given(block_games(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_broken_rule_raises_at_its_first_broken_step(self, case, data):
        configs, matrices, chunks, p, y, budget = block_case(case)
        if not any(cfg.mode == "aa" for cfg in configs):
            configs.append(GameConfig(configs[0].domain, mode="aa"))
        T = len(y)
        broken = sorted(data.draw(st.sets(st.integers(0, T - 1), min_size=1, max_size=2)))
        rule = game_mod.substitute_tables

        def breaking(tables, q, eta):
            f = rule(tables, q, eta)
            for s in range(formed[0], formed[0] + len(f)):
                if s in broken:  # the first broken step rises above 1, a later one ends low
                    f[s - formed[0], -1, -1] = 1.5 if s == broken[0] else 0.5
            formed[0] += len(f)
            return f

        messages = []
        for size in (budget, 1):  # a block of steps, then one step at a time
            formed = [0]
            experts = matrices if chunks is None else iter(
                [matrices[a:b] for a, b in zip(case["cuts"], case["cuts"][1:])])
            with mock.patch.object(game_mod, "BLOCK_BYTES", size), \
                    mock.patch.object(game_mod, "substitute_tables", breaking):
                with pytest.raises(SubstitutionError) as err:
                    replay(configs, experts, y, p)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "outside [0, 1]" in messages[0]


class TestRegretReport:
    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            regret_report(GameLog(3, 1.0))

    def test_report_fields(self):
        dom, cdfs, y = synth_setup(T=300)
        log = play(dom, cdfs, y)
        report = regret_report(log)
        assert report.steps == 300
        assert report.expert_losses.shape == (3,)
        np.testing.assert_allclose(
            report.final_regret, report.learner_loss - report.expert_losses
        )
        assert report.bound == log.bound
        assert report.all_bounds_satisfied  # alpha = 0 substitution run


class TestSquareLossGame:
    def test_constant_outcomes_converge_to_good_expert(self):
        T = 60
        f = np.tile([0.0, 1.0], (T, 1))
        y = np.zeros(T)
        log = run_square_loss_game(f, y, eta=2.0)
        assert log.bound == pytest.approx(math.log(2) / 2)
        assert np.all(log.regret().min(axis=1) <= log.bound + 1e-9)
        # learner's final prediction is near the good expert
        assert log.learner_losses[-1] < 1e-6
        q_last = log.weights[-1]
        np.testing.assert_allclose(q_last, [1.0, 0.0], atol=1e-12)

    def test_single_expert_zero_regret(self):
        rng = np.random.default_rng(1)
        f = rng.random((40, 1))
        y = rng.integers(0, 2, 40).astype(float)
        log = run_square_loss_game(f, y, eta=1.0)
        np.testing.assert_allclose(log.regret()[:, 0], 0.0, atol=1e-12)

    def test_adversarial_alternation_stays_bounded(self):
        T = 200
        f = np.tile([0.0, 1.0], (T, 1))
        y = (np.arange(T) % 2).astype(float)  # alternating outcomes
        for eta in (0.5, 1.0, 2.0):
            log = run_square_loss_game(f, y, eta)
            assert np.all(log.regret().min(axis=1) <= log.bound + 1e-9)

    @pytest.mark.parametrize("n", [2, 5, 9, 21])
    def test_matches_step_at_a_time_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            steps = int(rng.integers(1, 80))
            f = rng.random((steps, n))
            f[rng.random((steps, n)) < 0.1] = 1.0
            y = rng.integers(0, 2, size=steps).astype(float)
            eta = float(rng.uniform(0.2, 2.0))
            got = run_square_loss_game(f, y, eta)
            want = reference_square_loss_game(f, y, eta)
            assert_logs_close(got, want, rtol=0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_square_loss_game(np.array([[0.5, 0.5]]), np.array([0.3]), 2.0)
        with pytest.raises(ValueError):
            run_square_loss_game(np.array([[0.5, 1.2]]), np.array([1.0]), 2.0)
        with pytest.raises(ValueError):
            run_square_loss_game(np.array([[0.5, 0.5]]), np.array([1.0]), 3.0)


class TestGameLog:
    def test_fields_expose_the_steps_played(self):
        dom, cdfs, y = synth_setup(T=40)
        (log,), kept = replay([GameConfig(dom, alpha=0.01)], cdfs, y, keep=range(1, 41))
        assert log.steps == 40
        for name in LOG_FIELDS:
            assert len(getattr(log, name)) == 40
        for t in range(40):
            assert log.outcomes[t] == y[t]
            assert log.learner_losses[t] == crps(kept[t + 1][0], y[t])


class TestGameLogCsv:
    def test_round_trip_columns(self, tmp_path):
        dom, cdfs, y = synth_setup(T=20)
        log = play(dom, cdfs, y)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        import csv

        with open(path) as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == (
            ["t", "y", "h"]
            + [f"l_{i}" for i in (1, 2, 3)]
            + [f"p_{i}" for i in (1, 2, 3)]
            + [f"q_{i}" for i in (1, 2, 3)]
            + [f"w_{i}" for i in (1, 2, 3)]
            + [f"D_{i}" for i in (1, 2, 3)]
        )
        assert len(body) == 20
        assert float(body[4][2]) == log.learner_losses[4]
        disc = log.discounted_regret()
        assert float(body[-1][-1]) == disc[-1, -1]
