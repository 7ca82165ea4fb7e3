import math

import numpy as np
import pytest

from crpsmix.aggregation import (
    confidence_reweight,
    normalized_weights,
    substitute_crps_aa,
    superprediction,
)
from crpsmix.data import default_generators, rotating_leader_schedule, synth_stream
from crpsmix.experts import triangular_cdf
import crpsmix.game as game_mod
from crpsmix.game import (
    GameConfig,
    GameLog,
    OnlineGame,
    regret_report,
    replay,
    run_square_loss_game,
    telescoping_gap,
)
from crpsmix.grids import GridCDF, GridDomain, cdf_values, crps

from conftest import random_cdf_values


def synth_setup(T=600, d=128, seed=0, n_segments=6):
    dom = GridDomain(0.0, 1.0, d)
    gens = default_generators()
    cdfs = [triangular_cdf(g, dom) for g in gens]
    sched = rotating_leader_schedule(T, 3, n_segments)
    y = synth_stream(gens, sched, T, seed)
    return dom, cdfs, y


def play(dom, cdfs, outcomes, mode="aa", alpha=0.0, confidences=None):
    game = OnlineGame(GameConfig(dom, mode=mode, alpha=alpha), len(cdfs))
    for t, y in enumerate(outcomes):
        p = None if confidences is None else confidences[t]
        game.step(cdfs, y, p)
    return game


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
            game = play(dom, cdfs[:1], y, mode=mode)
            np.testing.assert_allclose(game.log.regret()[:, 0], 0.0, atol=1e-12)
            report = regret_report(game.log)
            assert report.all_bounds_satisfied

    def test_forecast_equals_single_expert(self):
        dom, cdfs, y = synth_setup(T=5)
        game = OnlineGame(GameConfig(dom, mode="aa"), 1)
        f = game.step(cdfs[:1], y[0])
        np.testing.assert_allclose(f.values, cdfs[0].values, atol=1e-12)

    def test_full_confidence_matches_no_confidence_path(self):
        dom, cdfs, y = synth_setup(T=80)
        ones = [np.ones(3)] * 80
        a = play(dom, cdfs, y, confidences=ones)
        b = play(dom, cdfs, y)
        np.testing.assert_array_equal(a.log.learner_losses, b.log.learner_losses)
        np.testing.assert_array_equal(
            np.asarray(a.log.weights), np.asarray(b.log.weights)
        )

    def test_matrix_and_gridcdf_list_agree(self):
        dom, cdfs, y = synth_setup(T=60)
        matrix = np.stack([f.values for f in cdfs])
        for mode in ("aa", "wa"):
            by_list = OnlineGame(GameConfig(dom, mode=mode, alpha=0.01), 3)
            by_matrix = OnlineGame(GameConfig(dom, mode=mode, alpha=0.01), 3)
            for t in range(60):
                p = np.array([1.0, 0.5, 0.0]) if t % 2 else None
                f1 = by_list.step(cdfs, y[t], p)
                f2 = by_matrix.step(matrix, y[t], p)
                np.testing.assert_array_equal(f1.values, f2.values)
            np.testing.assert_array_equal(
                by_list.log.learner_losses, by_matrix.log.learner_losses
            )

    def test_domain_mismatch_rejected(self):
        dom, cdfs, y = synth_setup(T=5)
        other = GridDomain(0.0, 2.0, dom.d)
        bad = GridCDF(other, cdfs[0].values.copy())
        game = OnlineGame(GameConfig(dom), 3)
        with pytest.raises(ValueError, match="domain"):
            game.step([bad, bad, bad], y[0])

    def test_outcome_outside_domain_rejected(self):
        dom, cdfs, y = synth_setup(T=5)
        game = OnlineGame(GameConfig(dom), 3)
        with pytest.raises(ValueError, match="outside"):
            game.step(cdfs, 1.5)

    def test_all_asleep_falls_back_and_skips_update(self):
        dom, cdfs, y = synth_setup(T=3)
        game = OnlineGame(GameConfig(dom), 3)
        game.step(cdfs, y[0], np.array([1.0, 0.2, 0.0]))
        before = game.log_weights.copy()
        game.step(cdfs, y[1], np.zeros(3))
        np.testing.assert_array_equal(game.log_weights, before)
        # the asleep step contributes nothing to discounted regret
        disc = game.log.discounted_regret()
        np.testing.assert_array_equal(disc[1], disc[0])

    def test_logged_weights_formed_the_forecast(self):
        # q is the confidence-reweighted vector the rule aggregated with
        # (uniform when all sleep); w is the normalized weights before it
        dom, cdfs, y = synth_setup(T=40)
        matrix = np.stack([f.values for f in cdfs])
        game = OnlineGame(GameConfig(dom, alpha=0.01), 3)
        rng = np.random.default_rng(4)
        for t in range(40):
            p = np.zeros(3) if t % 7 == 3 else rng.integers(0, 3, 3) / 2.0
            lw = game.log_weights.copy()
            f = game.step(matrix, y[t], p)
            q, w = game.log.weights[-1], game.log.pool_weights[-1]
            np.testing.assert_array_equal(w, normalized_weights(lw))
            if p.any():
                np.testing.assert_array_equal(q, confidence_reweight(lw, p))
                assert np.all(q[p == 0] == 0.0)
            else:
                np.testing.assert_array_equal(q, np.full(3, 1 / 3))
            np.testing.assert_array_equal(f.values, GridCDF(dom, substitute_crps_aa(matrix, q)).values)

    def test_full_confidence_weights_equal_pool_weights(self):
        dom, cdfs, y = synth_setup(T=50)
        game = play(dom, cdfs, y, alpha=0.01)
        np.testing.assert_array_equal(game.log.weights, game.log.pool_weights)


class TestBounds:
    def test_substitution_regret_bound_every_prefix(self):
        dom, cdfs, y = synth_setup(T=1000)
        game = play(dom, cdfs, y, mode="aa", alpha=0.0)
        log = game.log
        bound = (dom.width / 2.0) * math.log(3)
        assert log.bound == pytest.approx(bound)
        regret_vs_best = log.regret().min(axis=1)
        assert np.all(regret_vs_best <= bound + 1e-9)

    def test_averaging_regret_bound_every_prefix(self):
        dom, cdfs, y = synth_setup(T=1000)
        game = play(dom, cdfs, y, mode="wa", alpha=0.0)
        log = game.log
        bound = 2.0 * dom.width * math.log(3)
        assert log.bound == pytest.approx(bound)
        assert np.all(log.regret().min(axis=1) <= bound + 1e-9)

    def test_per_step_mixability_vs_superprediction(self):
        dom, cdfs, y = synth_setup(T=200)
        game = OnlineGame(GameConfig(dom, mode="aa"), 3)
        for t in range(200):
            q = np.exp(game.log_weights - np.logaddexp.reduce(game.log_weights))
            game.step(cdfs, y[t])
            h = game.log.learner_losses[-1]
            g = superprediction(game.log.expert_losses[-1], q, game.config.eta)
            assert h <= g + 1e-9

    def test_telescoping_gap_nonpositive(self):
        dom, cdfs, y = synth_setup(T=400)
        game = play(dom, cdfs, y, mode="aa", alpha=0.0)
        gap = telescoping_gap(game.log)
        budget = 1e-8 * np.arange(1, 401)
        assert np.all(gap <= budget)

    def test_discounted_regret_bound_random_confidences(self):
        rng = np.random.default_rng(17)
        dom = GridDomain(0.0, 1.0, 16)
        for mode in ("aa", "wa"):
            for trial in range(10):
                n = int(rng.integers(2, 5))
                game = OnlineGame(GameConfig(dom, mode=mode, alpha=0.0), n)
                for _ in range(50):
                    fs = [
                        GridCDF(dom, random_cdf_values(rng, 16)) for _ in range(n)
                    ]
                    style = rng.random()
                    if style < 0.15:
                        p = np.zeros(n)
                    elif style < 0.5:
                        p = rng.integers(0, 2, n).astype(float)
                    else:
                        p = rng.random(n)
                    game.step(fs, float(rng.random()), p)
                disc = game.log.discounted_regret()
                assert np.all(disc.max(axis=0) <= game.log.bound + 1e-9)

    def test_mpp_keeps_weight_floor(self):
        dom, cdfs, y = synth_setup(T=100)
        alpha = 0.01
        game = play(dom, cdfs, y, mode="aa", alpha=alpha)
        snaps = np.asarray(game.log.weights)
        assert np.all(snaps[1:] >= alpha / 3 - 1e-12)


#: Batched reductions may reorder float sums, so a configuration replayed
#: among others may differ from its own game in the last bits; allowed
#: relative difference, fixed before the engine was written.
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


class TestReplay:
    def test_configurations_match_their_own_games(self):
        dom, cdfs, y = synth_setup(T=400, d=64)
        cells = [(m, a) for m in ("aa", "wa") for a in (0.0, 0.001, 0.01)]
        configs = [GameConfig(dom, mode=m, alpha=a) for m, a in cells]
        logs, kept = replay(configs, cdfs, y, keep=[1, 200, 400])
        assert len(logs) == len(cells)
        for i, (cfg, log) in enumerate(zip(configs, logs)):
            game = OnlineGame(cfg, 3)
            forecasts = {t: game.step(cdfs, yt) for t, yt in enumerate(y, start=1)}
            assert_logs_close(log, game.log, REPLAY_RTOL)
            for t in (1, 200, 400):
                np.testing.assert_allclose(
                    kept[t][i].values, forecasts[t].values, rtol=REPLAY_RTOL, atol=0
                )
        assert sorted(kept) == [1, 200, 400]

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
            (log,), _ = replay([cfg], chunks, y, p)
            game = OnlineGame(cfg, n)
            for t in range(T):
                game.step(matrices[t], y[t], p[t])
            assert_logs_close(log, game.log, 0.0)
            assert log.asleep_steps == game.log.asleep_steps == 10

    def test_broken_fixed_matrix_raises_before_step_one(self, monkeypatch):
        dom, cdfs, y = synth_setup(T=20)
        broken = np.stack([f.values for f in cdfs])
        k = int(np.argmax(broken[1] > 0.5))
        broken[1, k] = broken[1, k - 1] - 1e-6  # a decrease: not a CDF
        monkeypatch.setattr(
            game_mod._Kernel, "play", lambda *a, **k: pytest.fail("a step ran")
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

    def test_configurations_share_one_domain(self):
        dom, cdfs, y = synth_setup(T=6)
        other = GridDomain(0.0, 2.0, dom.d)
        with pytest.raises(ValueError, match="domain"):
            replay([GameConfig(dom), GameConfig(other)], cdfs, y)


class TestRegretReport:
    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            regret_report(GameLog(3, 1.0))

    def test_report_fields(self):
        dom, cdfs, y = synth_setup(T=300)
        game = play(dom, cdfs, y)
        report = regret_report(game.log)
        assert report.steps == 300
        assert report.expert_losses.shape == (3,)
        np.testing.assert_allclose(
            report.final_regret, report.learner_loss - report.expert_losses
        )
        assert report.bound == game.log.bound
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
        game = OnlineGame(GameConfig(dom, alpha=0.01), 3)
        for t in range(40):
            f = game.step(cdfs, y[t])
            log = game.log
            assert log.steps == t + 1
            for name in LOG_FIELDS:
                assert len(getattr(log, name)) == t + 1
            assert log.outcomes[-1] == y[t]
            assert log.learner_losses[-1] == crps(f, y[t])


class TestGameLogCsv:
    def test_round_trip_columns(self, tmp_path):
        dom, cdfs, y = synth_setup(T=20)
        game = play(dom, cdfs, y)
        path = tmp_path / "log.csv"
        game.log.to_csv(path)
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
        assert float(body[4][2]) == game.log.learner_losses[4]
        disc = game.log.discounted_regret()
        assert float(body[-1][-1]) == disc[-1, -1]
