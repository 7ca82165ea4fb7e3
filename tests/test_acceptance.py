"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with -s to see the lines for passing criteria)."""

import csv
import math
import time
from itertools import product

import numpy as np
import pytest

from crpsmix.aggregation import combine_wa, substitute_crps_aa, substitute_vector_aa
from crpsmix.cli import main, read_manifest
from crpsmix.data import default_generators, rotating_leader_schedule, synth_stream
from crpsmix.experts import fit_gmm_ems, triangular_cdf
from crpsmix.game import GameConfig, replay, telescoping_gap
from crpsmix.grids import GridCDF, GridDomain, crps
from crpsmix.rng import rng_from_seed, spawn_rngs
from crpsmix.verify import _mixability_case, random_grid_cdf, random_weights

from conftest import random_cdf_values


def report(num, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {detail}")
    assert passed, f"criterion {num}: {detail}"


def mixability_suite(aggregate, eta_for, seed, cases=500):
    """Worst slack of e^(-eta h(y)) >= sum q_i e^(-eta l_i(y)) over all
    grid outcomes across randomized pools."""
    return max(
        _mixability_case(rng, aggregate, eta_for)[0] for rng in spawn_rngs(seed, cases)
    )


def test_01_crps_mixability():
    start = time.perf_counter()
    worst = mixability_suite(substitute_crps_aa, lambda w: 2.0 / w, seed=101)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    report(1, ok, f"substitution mixability: worst slack {worst:.3e}, {elapsed:.1f}s")


def test_02_wa_exp_concavity():
    worst = mixability_suite(combine_wa, lambda w: 1.0 / (2.0 * w), seed=202)
    report(2, worst <= 1e-9, f"averaging exp-concavity: worst slack {worst:.3e}")


@pytest.fixture(scope="module")
def method1_race():
    """Shared Method-1 stream and full-confidence runs for criteria 3/4/7."""
    domain = GridDomain(0.0, 1.0, 1024)
    gens = default_generators()
    cdfs = [triangular_cdf(g, domain) for g in gens]
    steps = 3000
    outcomes = synth_stream(gens, rotating_leader_schedule(steps, 3, 6), steps, 7)

    modes = ("aa", "wa")
    start = time.perf_counter()
    logs, _ = replay([GameConfig(domain, mode=m, alpha=0.0) for m in modes], cdfs, outcomes)
    elapsed = time.perf_counter() - start  # both games, one pass
    return domain, {mode: (log, elapsed) for mode, log in zip(modes, logs)}


def test_03_substitution_regret_bound(method1_race):
    domain, runs = method1_race
    log, elapsed = runs["aa"]
    bound = (domain.width / 2.0) * math.log(3)
    worst = log.bound_excess()
    ok = worst <= 1e-9 and math.isclose(log.bound, bound) and elapsed < 10.0
    report(3, ok, f"regret-bound slack {worst:.3e} (bound {bound:.4f}), {elapsed:.1f}s")


def test_04_averaging_regret_bound(method1_race):
    domain, runs = method1_race
    log, _ = runs["wa"]
    bound = 2.0 * domain.width * math.log(3)
    worst = log.bound_excess()
    ok = worst <= 1e-9 and math.isclose(log.bound, bound)
    report(4, ok, f"regret-bound slack {worst:.3e} (bound {bound:.4f})")


def test_05_discounted_regret_bound():
    worst = -np.inf
    for rng in spawn_rngs(505, 100):
        n = int(rng.integers(2, 7))
        steps = int(rng.integers(25, 60))
        domain = GridDomain(0.0, 1.0, 16)
        mode = "aa" if rng.random() < 0.5 else "wa"
        matrices = np.empty((steps, n, domain.d))
        p = np.empty((steps, n))
        y = np.empty(steps)
        for t in range(steps):
            matrices[t] = [random_grid_cdf(rng, domain) for _ in range(n)]
            style = rng.random()
            if style < 0.1:
                p[t] = 0.0  # all asleep, learner falls back to uniform
            elif style < 0.5:
                p[t] = rng.integers(0, 2, n)  # binary sleeping
            else:
                p[t] = rng.random(n)
            y[t] = rng.random()
        config = GameConfig(domain, mode=mode, alpha=0.0)
        (log,), _ = replay([config], iter([matrices]), y, p)
        worst = max(worst, log.bound_excess())
    report(5, worst <= 1e-9, f"100 adversarial runs: worst excess {worst:.3e}")


def test_06_vector_mixability_exhaustive():
    worst = -np.inf
    eta = 2.0
    rng = rng_from_seed(606)
    combos = [(2, 4), (3, 8), (4, 10), (4, 12), (2, 12), (2, 1)]
    for n, d in combos:
        m = rng.random((n, d))
        q = random_weights(rng, n)
        f = substitute_vector_aa(m, q, eta)
        for bits in product((0.0, 1.0), repeat=d):
            y = np.array(bits)
            lhs = math.exp(-(eta / d) * float(((f - y) ** 2).sum()))
            rhs = float(q @ np.exp(-(eta / d) * ((m - y) ** 2).sum(axis=1)))
            worst = max(worst, rhs - lhs)
    report(6, worst <= 1e-10, f"exhaustive binary outcomes: worst slack {worst:.3e}")


def test_07_telescoping_identity(method1_race):
    _, runs = method1_race
    log, _ = runs["aa"]
    gap = telescoping_gap(log)
    budget = 1e-8 * np.arange(1, log.steps + 1)
    worst = float((gap - budget).max())
    report(7, worst <= 0.0, f"per-step telescoping slack {worst:.3e}")


def test_08_discretization_error():
    worst_ratio = 0.0
    for rng in spawn_rngs(808, 200):
        d = int(rng.integers(2, 100))
        a = float(rng.uniform(-3, 3))
        b = a + float(rng.uniform(0.5, 10.0))
        coarse = GridDomain(a, b, d)
        fine = GridDomain(a, b, 2 * d)
        vals = random_cdf_values(rng, d)
        f_coarse = GridCDF(coarse, vals)
        f_fine = GridCDF(fine, np.repeat(vals, 2))  # same underlying step CDF
        y = float(rng.uniform(a, b))
        gap = abs(crps(f_coarse, y) - crps(f_fine, y))
        worst_ratio = max(worst_ratio, gap / (2.0 * coarse.delta))
    report(8, worst_ratio <= 1.0, f"max |change|/(2*delta) = {worst_ratio:.3f}")


def test_09_alpha_sweep_orderings():
    # Fixed-seed rotating-leader stream; the acceptance target is the
    # orderings, not the loss ratios.  Note: at alpha=0 the averaging rule
    # consistently edges out substitution on iid triangular streams by
    # ~0.1-0.3% (measured across presets, seeds, grids and horizons), so
    # that leg of the ordering fails; the nonzero-alpha legs and the
    # tracking improvement hold with wide margins.
    domain = GridDomain(0.0, 1.0, 256)
    gens = default_generators()
    cdfs = [triangular_cdf(g, domain) for g in gens]
    steps = 3000
    outcomes = synth_stream(gens, rotating_leader_schedule(steps, 3, 6), steps, 42)

    cells = [(mode, alpha) for mode in ("aa", "wa") for alpha in (0.0, 0.001, 0.01)]
    logs, _ = replay(
        [GameConfig(domain, mode=mode, alpha=alpha) for mode, alpha in cells],
        cdfs, outcomes,
    )
    losses = {
        cell: float(log.learner_cumulative()[-1]) for cell, log in zip(cells, logs)
    }
    problems = []
    for alpha in (0.0, 0.001, 0.01):
        aa, wa = losses[("aa", alpha)], losses[("wa", alpha)]
        if not aa < wa:
            problems.append(f"alpha={alpha}: aa={aa:.4f} !< wa={wa:.4f}")
    if not losses[("aa", 0.001)] < losses[("aa", 0.0)]:
        problems.append("aa: alpha=0.001 not better than alpha=0")
    report(9, not problems, "; ".join(problems) or "all orderings hold")


def run_load(csv_path, out, mode, confidence):
    code = main([
        "load", "--data", str(csv_path), "--mode", mode,
        "--confidence", confidence, "--alpha", "0.001", "--grid", "256",
        "--components", "2", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    return read_manifest(f"{out}/manifest.txt")


def test_10_load_forecasting_orderings(gefcom_csv, tmp_path):
    # runs only when CRPSMIX_GEFCOM_CSV points at a real dataset
    results = {}
    for mode, confidence in (
        ("aa", "smooth"), ("aa", "binary"), ("aa", "off"), ("wa", "smooth"),
    ):
        manifest = run_load(gefcom_csv, tmp_path / f"{mode}_{confidence}", mode, confidence)
        results[(mode, confidence)] = float(manifest["metric_final_average_loss"])

    smooth = results[("aa", "smooth")]
    problems = []
    if not smooth < results[("aa", "off")]:
        problems.append("smooth confidence does not beat confidence off")
    if not smooth < results[("aa", "binary")]:
        problems.append("smooth confidence does not beat binary confidence")
    if not smooth <= results[("wa", "smooth")]:
        problems.append("substitution does not beat averaging")

    # discounted regrets below ln(21)/eta throughout, from the smooth run
    out = tmp_path / "aa_smooth"
    with open(out / "regret_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if float(row["max_discounted_regret"]) > float(row["bound"]) + 1e-9:
            problems.append(f"{row['expert']} exceeds the regret bound")
    report(10, not problems, "; ".join(problems) or f"orderings hold ({len(rows)} experts)")


def test_11_em_two_clusters():
    rng = rng_from_seed(1111)
    true_means = np.array([[-2.0, -1.0], [2.0, 2.5]])
    sigma = 0.5
    # cluster size keeps the sample-mean noise (sigma/sqrt(n) per axis)
    # well inside the 0.1 sigma tolerance
    pts = np.vstack([
        rng.normal(true_means[0], sigma, size=(2500, 2)),
        rng.normal(true_means[1], sigma, size=(2500, 2)),
    ])
    rng.shuffle(pts)
    model, history = fit_gmm_ems([pts], 2, [3])[0]
    order = np.argsort(model.means[:, 0])
    err = np.abs(model.means[order] - true_means).max()
    monotone = np.all(
        np.diff(history) >= -1e-9 * np.maximum(1.0, np.abs(history[:-1]))
    )
    ok = err <= 0.1 * sigma and monotone
    report(11, ok, f"mean error {err:.4f} (tol {0.1 * sigma}), monotone={monotone}")


def test_12_cli_determinism(tmp_path):
    flags = ["synth", "--method", "1", "--mode", "aa", "--alpha", "0.001",
             "--steps", "500", "--seed", "9", "--grid", "256"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(flags + ["--out", str(out1)]) == 0
    assert main(flags + ["--out", str(out2)]) == 0
    names = ["game_log.csv", "cdf_snapshots.csv", "regret_report.csv"]
    same = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    report(12, same, f"{len(names)} summary CSVs byte-identical")
