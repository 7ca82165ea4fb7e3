import csv
import dataclasses
import hashlib
import io
import itertools
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crpsmix
import crpsmix.cli as cli_mod
from crpsmix.cli import _fmt, _write_csv, config_hash, main, read_manifest
from crpsmix.data import default_test_boundary, load_csv, split_train_test, write_demo_load_csv
from crpsmix.experts import EM_MAX_ITER, em_hit_max_iter
from crpsmix.game import GameConfig, GameLog, replay
from crpsmix.grids import GridDomain
from crpsmix.rng import spawn_rngs
from crpsmix import roster as roster_mod
from crpsmix.roster import build_load_roster, roster_confidences
from crpsmix import verify as verify_mod

from conftest import (cdf_from_row, conditional_load_cdfs, deadline, game_log_block,
                      read_game_log, spy_forks)


def run_cli(*args):
    return main(list(args))


def usage_error(*args):
    with pytest.raises(SystemExit) as exc:
        run_cli(*args)
    assert exc.value.code == 2


def run_cli_process(*args):
    src = os.path.dirname(os.path.dirname(crpsmix.__file__))
    return subprocess.run(
        [sys.executable, "-m", "crpsmix.cli", *args],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )


def demo_rows(path, hours):
    """Header and rows of a fresh demo load CSV."""
    with open(write_demo_load_csv(path, hours=hours), encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def assert_regret_headroom(manifest, out):
    """The last three manifest keys are the bound minus the largest
    discounted regret in regret_report.csv, the largest CDF repair and the
    count of steps whose weight update read the learner's loss."""
    with open(out / "regret_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    peak = max(float(row["max_discounted_regret"]) for row in rows)
    assert list(manifest)[-3:] == [
        "metric_min_regret_headroom", "metric_max_cdf_repair", "metric_feedback_steps"]
    assert float(manifest["metric_min_regret_headroom"]) == float(rows[0]["bound"]) - peak


def assert_metric_order(manifest, n, own):
    """The manifest's metric keys, in order: the regret numbers of `n`
    experts, the command's `own` keys, then headroom, repair and feedback."""
    regret = (["steps", "final_learner_loss", "min_expert_loss", "final_regret_vs_best",
               "regret_bound"]
              + [f"expert_{i}_loss" for i in range(1, n + 1)] + ["bound_satisfied"])
    last = ["min_regret_headroom", "max_cdf_repair", "feedback_steps"]
    keys = [k.removeprefix("metric_") for k in manifest if k.startswith("metric_")]
    assert keys == regret + own + last


def assert_game_log_rebuilds_the_summaries(out):
    """H, L_i and D_i, rebuilt from game_log.csv alone by the README's
    recipes, equal regret_report.csv and the manifest's learner loss and
    regret headroom.  Returns the game log."""
    g = read_game_log(out / "game_log.csv")
    h, l, p = g["h"], game_log_block(g, "l"), game_log_block(g, "p")
    H = np.cumsum(h)
    L = np.cumsum(l, axis=0)
    D = np.cumsum(p * (h[:, None] - l), axis=0)
    with open(out / "regret_report.csv") as fh:
        report = list(csv.DictReader(fh))
    assert [float(r["final_loss"]) for r in report] == L[-1].tolist()
    assert [float(r["final_regret"]) for r in report] == (H[-1] - L[-1]).tolist()
    assert [float(r["final_discounted_regret"]) for r in report] == D[-1].tolist()
    assert [float(r["max_discounted_regret"]) for r in report] == D.max(axis=0).tolist()
    manifest = read_manifest(out / "manifest.txt")
    assert float(manifest["metric_final_learner_loss"]) == H[-1]
    assert float(manifest["metric_min_regret_headroom"]) == float(report[0]["bound"]) - D.max()
    return g


SYNTH_FILES = {"game_log.csv", "cdf_snapshots.csv", "regret_report.csv", "manifest.txt"}
LOAD_FILES = {"game_log.csv", "regret_report.csv", "quantile_bands.csv", "experts",
              "manifest.txt"}
INGEST_COUNTS = ["rows_parsed", "rows_failed", "gaps", "hours_missing"]
EXPERT_FITS = ["fit_points", "em_rounds", "em_log_likelihood", "em_at_max_iter"]


SYNTH_FLAGS = ["synth", "--method", "1", "--steps", "400", "--grid", "128",
               "--seed", "3"]


class TestSynth:
    def test_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(*SYNTH_FLAGS, "--mode", "aa", "--alpha", "0", "--out", str(out))
        assert code == 0
        assert set(os.listdir(out)) == SYNTH_FILES
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["experiment"] == "synth"
        assert manifest["metric_bound_satisfied"] == "true"
        assert float(manifest["metric_regret_bound"]) == pytest.approx(
            0.5 * math.log(3)
        )
        assert "metric_loss_normalized_vs_wa_alpha0" in manifest

    @pytest.mark.parametrize("mode", ["aa", "wa"])
    def test_manifest_key_order(self, tmp_path, mode):
        out = tmp_path / "run"
        assert run_cli(*SYNTH_FLAGS, "--mode", mode, "--out", str(out)) == 0
        own = ["wa_alpha0_baseline_loss", "loss_normalized_vs_wa_alpha0", "bound_expression",
               "asleep_steps"]
        assert_metric_order(read_manifest(out / "manifest.txt"), 3, own)

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*SYNTH_FLAGS, "--out", str(out1)) == 0
        assert run_cli(*SYNTH_FLAGS, "--out", str(out2)) == 0
        assert set(os.listdir(out1)) == SYNTH_FILES
        for name in ("game_log.csv", "cdf_snapshots.csv", "regret_report.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_snapshot_rows_reparse_as_valid_cdfs(self, tmp_path):
        out = tmp_path / "snap"
        assert run_cli(*SYNTH_FLAGS, "--out", str(out)) == 0
        with open(out / "cdf_snapshots.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows
        for row in rows:
            f = cdf_from_row(row[1:])  # first column is the step index
            assert np.all(np.diff(f.values) >= 0)
            assert f.values[-1] == 1.0

    def test_numeric_cells_parse_as_floats(self, tmp_path):
        out = tmp_path / "wa"
        assert run_cli(*SYNTH_FLAGS, "--mode", "wa", "--out", str(out)) == 0
        assert set(os.listdir(out)) == SYNTH_FILES
        with open(out / "game_log.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 400
        for row in rows:
            [float(x) for x in row]
        manifest = read_manifest(out / "manifest.txt")
        assert float(manifest["metric_regret_bound"]) == pytest.approx(
            2.0 * math.log(3)
        )

    def test_game_log_rebuilds_the_dropped_numbers(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*SYNTH_FLAGS, "--out", str(out)) == 0
        g = assert_game_log_rebuilds_the_summaries(out)
        assert g.dtype.names[:3] == ("t", "y", "h")

    def test_method_two_runs(self, tmp_path):
        out = tmp_path / "m2"
        assert run_cli("synth", "--method", "2", "--steps", "300", "--grid", "64",
                       "--out", str(out)) == 0

    def test_zero_steps_is_usage_error(self, tmp_path):
        usage_error("synth", "--method", "1", "--steps", "0", "--out", str(tmp_path))

    def test_nonpositive_segments_is_usage_error(self, tmp_path):
        proc = run_cli_process("synth", "--method", "1", "--segments", "0",
                               "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "--segments" in proc.stderr
        assert "Traceback" not in proc.stderr
        usage_error("synth", "--method", "2", "--segments", "-3", "--out", str(tmp_path))

    def test_manifest_counts_asleep_steps(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*SYNTH_FLAGS, "--out", str(out)) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["metric_asleep_steps"] == "0"
        assert_regret_headroom(manifest, out)
        assert manifest["metric_max_cdf_repair"] == "0.0"
        assert manifest["metric_feedback_steps"] == "0"  # full confidence throughout

    @pytest.mark.parametrize("where", ["below 0", "above 1"])
    def test_max_cdf_repair_reports_an_injected_violation(self, tmp_path, monkeypatch, where):
        violation = 2.0**-42  # 2.3e-13, exact in floats
        triangular = cli_mod.triangular_cdf

        def noisy(expert, domain):
            vals = triangular(expert, domain)
            if where == "below 0":
                vals[: np.argmax(vals > 0.0)] = -violation  # the cells at 0
            else:
                vals[np.argmax(vals == 1.0):-1] = 1.0 + violation  # cells at 1
            return vals

        monkeypatch.setattr(cli_mod, "triangular_cdf", noisy)
        out = tmp_path / "run"
        assert run_cli(*SYNTH_FLAGS, "--out", str(out)) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert float(manifest["metric_max_cdf_repair"]) == violation

    def test_one_cell_grid_is_usage_error(self, tmp_path):
        proc = run_cli_process("synth", "--method", "1", "--steps", "20", "--grid", "1",
                               "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "--grid" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_flags_are_usage_errors(self, tmp_path):
        usage_error("synth", "--method", "3", "--out", str(tmp_path))
        usage_error("synth", "--method", "1", "--alpha", "1.5", "--out", str(tmp_path))
        usage_error("synth", "--method", "1", "--grid", "0", "--out", str(tmp_path))

    def test_out_required_without_env(self, monkeypatch):
        monkeypatch.delenv("CRPSMIX_OUT", raising=False)
        usage_error("synth", "--method", "1")

    def test_out_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRPSMIX_OUT", str(tmp_path / "env_out"))
        assert run_cli("synth", "--method", "1", "--steps", "50", "--grid", "32") == 0
        assert (tmp_path / "env_out" / "manifest.txt").exists()

    def test_allocation_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def replay(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli_mod, "replay", replay)
        code = main(["synth", "--method", "1", "--steps", "10", "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == "cannot allocate: Unable to allocate 7.28 TiB\n"


@pytest.fixture(scope="module")
def load_run(demo_load_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("load_run")
    code = main([
        "load", "--data", demo_load_csv, "--mode", "aa",
        "--confidence", "smooth", "--alpha", "0.001", "--grid", "128",
        "--components", "2", "--seed", "5", "--out", str(out),
    ])
    return code, out


class TestLoad:
    def test_run_succeeds_with_artifacts(self, load_run):
        code, out = load_run
        assert code == 0
        assert set(os.listdir(out)) == LOAD_FILES
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["metric_n_experts"] == "21"
        assert float(manifest["metric_final_average_loss"]) > 0

    def test_expert_parameter_files(self, load_run):
        _, out = load_run
        files = sorted(os.listdir(out / "experts"))
        assert len(files) == 21
        assert files[0] == "expert01_anytime.txt"
        text = (out / "experts" / files[0]).read_text()
        assert text.splitlines()[0] == "2"  # component count

    def test_manifest_holds_each_expert_fit(self, load_run, demo_load_csv):
        # every number of the former em_fits.csv, by the expert's manifest index
        _, out = load_run
        manifest = read_manifest(out / "manifest.txt")
        with open(out / "regret_report.csv") as fh:
            names = [row["expert"] for row in csv.DictReader(fh)]
        assert [n + ".txt" for n in names] == sorted(os.listdir(out / "experts"))
        records = load_csv(demo_load_csv)[0]
        train, _ = split_train_test(records, default_test_boundary(records))
        experts, _ = build_load_roster(train, components=2, seed=5)
        assert [e.name for e in experts] == names
        at_cap = []
        for i, e in enumerate(experts, start=1):
            fit = {k: manifest[f"metric_expert_{i}_{k}"] for k in EXPERT_FITS}
            assert int(fit["fit_points"]) == e.fit_points >= 20
            assert int(fit["em_rounds"]) == len(e.fit_history) <= EM_MAX_ITER
            assert float(fit["em_log_likelihood"]) == e.fit_history[-1]
            assert math.isfinite(e.fit_history[-1])
            assert fit["em_at_max_iter"] == _fmt(em_hit_max_iter(e.fit_history))
            if fit["em_at_max_iter"] == "true":
                assert len(e.fit_history) == EM_MAX_ITER
            at_cap.append(fit["em_at_max_iter"] == "true")
        assert int(manifest["metric_em_fits_at_max_iter"]) == sum(at_cap)

    def test_quantile_bands_at_noon(self, load_run):
        _, out = load_run
        with open(out / "quantile_bands.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert "T12:00:00" in row["timestamp"]
            q05, q25 = float(row["q05"]), float(row["q25"])
            q75, q95 = float(row["q75"]), float(row["q95"])
            assert q05 <= q25 <= q75 <= q95

    def test_game_log_rebuilds_the_dropped_numbers(self, load_run, demo_load_csv):
        _, out = load_run
        g = assert_game_log_rebuilds_the_summaries(out)
        manifest = read_manifest(out / "manifest.txt")
        assert float(manifest["metric_final_average_loss"]) == np.cumsum(g["h"])[-1] / g["t"][-1]
        # what records.csv and conf_blocks.csv carried
        records = load_csv(demo_load_csv)[0]
        train, test = split_train_test(records, default_test_boundary(records))
        top = 1.05 * max(r.load for r in train)
        assert g["timestamp"].tolist() == [r.timestamp.isoformat() for r in test]
        assert g["temperature"].tolist() == [r.temperature for r in test]
        assert g["y"].tolist() == [min(max(r.load, 0.0), top) for r in test]
        experts, _ = build_load_roster(train, components=2, seed=5)
        confidences = roster_confidences(experts, [r.timestamp for r in test], "smooth")
        assert np.array_equal(game_log_block(g, "p"), confidences)

    def test_manifest_counters(self, load_run, demo_load_csv):
        _, out = load_run
        manifest = read_manifest(out / "manifest.txt")
        with open(out / "game_log.csv") as fh:
            rows = list(csv.reader(fh))
        p_cols = [i for i, name in enumerate(rows[0]) if name.startswith("p_")]
        asleep = sum(not any(float(row[i]) > 0 for i in p_cols) for row in rows[1:])
        assert manifest["metric_asleep_steps"] == str(asleep)
        # smooth confidences: every awake hour has an expert below 1
        partial = sum(any(float(row[i]) > 0 for i in p_cols)
                      and any(float(row[i]) < 1 for i in p_cols) for row in rows[1:])
        assert manifest["metric_feedback_steps"] == str(partial) == str(len(rows) - 1 - asleep)
        records = load_csv(demo_load_csv)[0]
        _, test = split_train_test(records, default_test_boundary(records))
        j = rows[0].index("y")
        clipped = sum(float(row[j]) != r.load for row, r in zip(rows[1:], test, strict=True))
        assert manifest["metric_test_outcomes_clipped"] == str(clipped)
        keys = list(manifest)
        assert keys[keys.index("metric_roster_evaluations") + 1] == "metric_data_rows_parsed"
        assert 0 < int(manifest["metric_roster_evaluations"]) <= int(manifest["metric_steps"])
        assert_regret_headroom(manifest, out)
        assert float(manifest["metric_min_regret_headroom"]) > 0.0
        # the roster's rows reach `replay` unchecked: their clamps are counted
        assert 0.0 < float(manifest["metric_max_cdf_repair"]) <= 1e-12

    def test_manifest_key_order(self, load_run):
        _, out = load_run
        own = ["n_experts", "n_fit_failures", "em_fits_at_max_iter", "domain_b",
               "final_average_loss", "asleep_steps", "test_outcomes_clipped",
               "roster_evaluations"]
        own += [f"data_{k}" for k in INGEST_COUNTS]
        own += [f"expert_{i}_{k}" for k in EXPERT_FITS for i in range(1, 22)]
        assert_metric_order(read_manifest(out / "manifest.txt"), 21, own)

    def test_whole_degree_run_matches_per_step_roster(self, tmp_path):
        # the replay cmd_load ran before the windowed roster stream: one
        # roster evaluation per hour.  300 whole-degree hours take fewer
        # than the 48 distinct temperatures of one window at d=128.
        rows = demo_rows(tmp_path / "demo.csv", 8760 + 300)
        for row in rows[1:]:
            row[2] = repr(float(round(float(row[2]))))
        data = write_rows(tmp_path / "whole.csv", rows)
        split = rows[1 + 8760][0]
        out = tmp_path / "out"
        assert main(["load", "--data", data, "--split", split, "--grid", "128",
                     "--seed", "5", "--out", str(out)]) == 0

        train, test = split_train_test(load_csv(data)[0], datetime.fromisoformat(split))
        experts, _ = build_load_roster(train, components=2, seed=5)
        domain = GridDomain(0.0, 1.05 * max(r.load for r in train), 128)
        temps = [train[-1].temperature] + [r.temperature for r in test[:-1]]
        models = [e.model for e in experts]
        (log,), _ = replay(
            [GameConfig(domain, mode="aa", alpha=0.001)],
            (conditional_load_cdfs(models, temp, domain)[None] for temp in temps),
            [min(max(r.load, domain.a), domain.b) for r in test],
            roster_confidences(experts, [r.timestamp for r in test], "smooth"),
        )
        log.to_csv(tmp_path / "per_step_log.csv", {
            "timestamp": [r.timestamp.isoformat() for r in test],
            "temperature": [r.temperature for r in test],
        })
        assert (out / "game_log.csv").read_bytes() == (tmp_path / "per_step_log.csv").read_bytes()
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["metric_roster_evaluations"] == str(len(set(temps)))

    def test_the_fits_do_not_depend_on_the_confidence_mode(self, tmp_path):
        # one fit, and each mode's confidences, give each mode's run
        rows = demo_rows(tmp_path / "demo.csv", 8760 + 48)
        data, split = write_rows(tmp_path / "in.csv", rows), rows[1 + 8760][0]
        train, test = split_train_test(load_csv(data)[0], datetime.fromisoformat(split))
        experts, _ = build_load_roster(train, components=2, seed=5)
        files = {f"{e.name}.txt": e.model.to_text().encode() for e in experts}
        fit_key = re.compile(r"metric_expert_\d+_(fit_points|em_rounds|em_log_likelihood)")
        fits = []
        for mode in ("smooth", "binary", "off"):
            out = tmp_path / mode
            assert main(["load", "--data", data, "--split", split, "--grid", "16",
                         "--seed", "5", "--confidence", mode, "--out", str(out)]) == 0
            assert {f.name: f.read_bytes() for f in (out / "experts").iterdir()} == files
            manifest = read_manifest(out / "manifest.txt")
            fits.append([(k, v) for k, v in manifest.items() if fit_key.fullmatch(k)])
            p = game_log_block(read_game_log(out / "game_log.csv"), "p")
            want = roster_confidences(experts, [r.timestamp for r in test], mode)
            assert p.dtype == want.dtype and p.tobytes() == want.tobytes(), mode
        assert len(fits[0]) == 3 * 21 and fits[0] == fits[1] == fits[2]

    @pytest.mark.parametrize("temp", ["1e160", "-1e200"])
    def test_unreachable_test_temperature_is_data_error(self, tmp_path, temp):
        # its squared distance from every component overflows
        rows = demo_rows(tmp_path / "demo.csv", 8760 + 48)
        rows[1 + 8760 + 5][2] = temp
        data = write_rows(tmp_path / "huge.csv", rows)
        proc = run_cli_process("load", "--data", data, "--split", rows[1 + 8760][0],
                               "--grid", "64", "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert f"temperature {float(temp)!r}" in line

    def test_game_log_header(self, load_run):
        _, out = load_run
        with open(out / "game_log.csv") as fh:
            header = next(csv.reader(fh))
        assert header == (["t", "timestamp", "temperature", "y", "h"]
                          + [f"{c}_{i}" for c in "lpqw" for i in range(1, 22)])

    def test_numeric_cells_parse_as_floats(self, load_run):
        _, out = load_run
        with open(out / "game_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8760
        for row in rows:
            datetime.fromisoformat(row["timestamp"])
            [float(v) for k, v in row.items() if k != "timestamp"]

    def test_discounted_regret_within_bound(self, load_run):
        _, out = load_run
        with open(out / "regret_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        bound = float(rows[0]["bound"])
        for row in rows:
            assert float(row["max_discounted_regret"]) <= bound + 1e-9

    def test_split_flag_variant(self, demo_load_csv, tmp_path):
        code = main([
            "load", "--data", demo_load_csv, "--split", "2007-11-01T00:00:00",
            "--mode", "wa", "--confidence", "off", "--grid", "64",
            "--components", "1", "--out", str(tmp_path / "split_run"),
        ])
        assert code == 0

    def test_train_test_files_match_the_split_run(self, tmp_path):
        header, *rows = demo_rows(tmp_path / "demo.csv", 8760 + 48)
        train = write_rows(tmp_path / "train.csv", [header] + rows[:8760])
        test = write_rows(tmp_path / "test.csv", [header] + rows[8760:])
        flags = ["--grid", "16", "--seed", "5"]
        assert main(["load", "--train", train, "--test", test, *flags,
                     "--out", str(tmp_path / "files")]) == 0
        assert main(["load", "--data", str(tmp_path / "demo.csv"), "--split", rows[8760][0],
                     *flags, "--out", str(tmp_path / "split")]) == 0
        names = ["game_log.csv", "regret_report.csv", "quantile_bands.csv"]
        names += [f"experts/{n}" for n in sorted(os.listdir(tmp_path / "split" / "experts"))]
        assert len(names) == 3 + 21
        for name in names:
            got = (tmp_path / "files" / name).read_bytes()
            assert got == (tmp_path / "split" / name).read_bytes(), name
        # the manifests' metric lines agree but for the per-input ingest counts
        ingest = re.compile(rf"metric_(data|train|test)_({'|'.join(INGEST_COUNTS)})=")
        metrics = {}
        for run in ("files", "split"):
            lines = (tmp_path / run / "manifest.txt").read_text(encoding="utf-8").splitlines()
            metrics[run] = [line for line in lines
                            if line.startswith("metric_") and not ingest.match(line)]
        assert metrics["files"] == metrics["split"]
        assert len(metrics["split"]) == 5 + 21 + 1 + 8 + 4 * 21 + 3

    @pytest.mark.parametrize("mode", ["data", "train_test"])
    def test_manifest_counts_a_bad_row_and_a_gap(self, tmp_path, mode):
        header, *rows = demo_rows(tmp_path / "demo.csv", 8760 + 48)
        del rows[200:203]  # a 3-hour gap
        rows.insert(100, ["not a timestamp", "1", "1"])  # one bad row of 8806: under 1%
        first_test = 8760 - 3 + 1
        if mode == "data":
            inputs = {"data": write_rows(tmp_path / "data.csv", [header, *rows])}
            argv = ["--data", inputs["data"], "--split", rows[first_test][0]]
        else:
            inputs = {"train": write_rows(tmp_path / "train.csv", [header, *rows[:first_test]]),
                      "test": write_rows(tmp_path / "test.csv", [header, *rows[first_test:]])}
            argv = ["--train", inputs["train"], "--test", inputs["test"]]
        out = tmp_path / "out"
        assert main(["load", *argv, "--grid", "16", "--components", "1",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out / "manifest.txt")
        reports = {label: load_csv(path)[1].as_dict() for label, path in inputs.items()}
        for label, report in reports.items():
            assert {k: int(manifest[f"metric_{label}_{k}"]) for k in INGEST_COUNTS} == report
        defects = reports["data" if mode == "data" else "train"]
        assert (defects["rows_failed"], defects["gaps"], defects["hours_missing"]) == (1, 1, 3)
        # each count over the inputs in turn
        ingest = [f"metric_{label}_{k}" for k in INGEST_COUNTS for label in inputs]
        assert [k for k in manifest if k in ingest] == ingest

    @pytest.mark.parametrize("span", ["overlapping", "naive_after_aware"])
    def test_test_span_not_after_the_training_span_is_data_error(
            self, demo_load_csv, tmp_path, capsys, span):
        # an overlap would fit the experts on the hours they forecast
        with open(demo_load_csv, encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        train, test = rows, rows[:2000]
        if span == "naive_after_aware":
            train, test = [[ts + "+00:00", *rest] for ts, *rest in rows[:2000]], rows[2000:2100]
        code = main(["load", "--train", write_rows(tmp_path / "train.csv", [header] + train),
                     "--test", write_rows(tmp_path / "test.csv", [header] + test),
                     "--grid", "16", "--out", str(tmp_path / "o")])
        assert code == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("cannot ingest data: ")

    def test_missing_file_is_io_error(self, tmp_path):
        code = main([
            "load", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
        ])
        assert code == 3

    def test_corrupt_csv_is_io_error(self, tmp_path):
        bad = tmp_path / "corrupt.csv"
        bad.write_text(
            "timestamp,load,temperature\n"
            "2010-01-01T00:00:00,1,1\n2010-01-01T00:00:00,2,2\n",
            encoding="utf-8",
        )
        code = main(["load", "--data", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("rows, split", [
        # aware and naive rows in one file
        (["2010-01-01T00:00:00+00:00,1,1", "2010-01-01T01:00:00,2,2"], None),
        # aware rows, naive boundary
        (["2010-01-01T00:00:00+00:00,1,1", "2010-01-01T01:00:00+00:00,2,2"],
         "2010-01-01T01:00:00"),
    ], ids=["mixed_rows", "naive_split"])
    def test_mixed_timezones_are_data_errors(self, tmp_path, rows, split):
        data = tmp_path / "tz.csv"
        data.write_text("timestamp,load,temperature\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        argv = ["load", "--data", str(data), "--out", str(tmp_path / "o")]
        if split:
            argv += ["--split", split]
        proc = run_cli_process(*argv)
        assert proc.returncode == 3
        assert "cannot ingest data" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_field_over_the_csv_size_limit_is_data_error(self, tmp_path):
        # the csv module rejects a field over 131072 characters by default
        rows = demo_rows(tmp_path / "demo.csv", 300)
        rows[280][1] = "1" * 200_000
        data = write_rows(tmp_path / "huge.csv", rows)
        proc = run_cli_process("load", "--data", data, "--split", rows[250][0],
                               "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        assert f"cannot ingest data: {data}:281: field larger than field limit" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_nonpositive_training_loads_are_data_errors(self, tmp_path):
        demo = write_demo_load_csv(tmp_path / "demo.csv", hours=300)
        with open(demo, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        negated = tmp_path / "negated.csv"
        with open(negated, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            writer.writerows([ts, repr(-float(load)), temp] for ts, load, temp in rows[1:])
        proc = run_cli_process("load", "--data", str(negated), "--split",
                               rows[250][0], "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        assert "cannot ingest data" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_outcome_domain_is_data_error(self, tmp_path, capsys):
        # 1.05 times this training load overflows the end of the outcome domain
        rows = demo_rows(tmp_path / "demo.csv", 300)
        rows[100][1] = "1.75e308"
        data = write_rows(tmp_path / "huge.csv", rows)
        code = run_cli("load", "--data", data, "--split", rows[250][0],
                       "--out", str(tmp_path / "o"))
        assert code == 3
        assert "cannot ingest data: interval endpoints must be finite" in capsys.readouterr().err

    def test_training_loads_too_small_for_a_finite_rate_are_data_error(self, tmp_path,
                                                                        capsys, monkeypatch):
        # 2 / (1.05 * max train load) overflows: the aa learning rate is inf
        rows = demo_rows(tmp_path / "demo.csv", 8760 + 48)
        for row in rows[1:]:
            row[1] = repr(float(row[1]) * 1e-322)
        data = write_rows(tmp_path / "tiny.csv", rows)
        forked, out = spy_forks(monkeypatch), tmp_path / "o"
        code = run_cli("load", "--data", data, "--split", rows[1 + 8760][0], "--grid", "64",
                       "--out", str(out))
        assert code == 3
        assert ("cannot ingest data: eta must be positive and finite, got inf"
                in capsys.readouterr().err)
        assert forked == [] and not out.exists()

    @pytest.mark.parametrize("constant", [False, True], ids=["too_short", "constant"])
    def test_unfittable_training_span_is_data_error(self, tmp_path, constant):
        # 10 training hours are too few to fit k=2; 40 identical hours
        # carry no spread: either way no expert fits
        rows = demo_rows(tmp_path / "demo.csv", 50)
        if constant:
            rows[1:] = [[ts, "100.0", "50.0"] for ts, _, _ in rows[1:]]
        else:
            rows = rows[:16]
        data = write_rows(tmp_path / "train.csv", rows)
        proc = run_cli_process("load", "--data", data, "--split",
                               rows[-5][0], "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        reason = "all points identical" if constant else "need at least 20 points"
        assert f"roster fit failed for expert01_anytime: {reason}" in proc.stderr
        assert "roster too small to aggregate" in proc.stderr
        assert "Traceback" not in proc.stderr
        # each failure is reported once, as "<name>: <reason>"
        failed = [line.removeprefix("roster fit failed for ")
                  for line in proc.stderr.splitlines() if line.startswith("roster fit failed")]
        assert len(failed) == 21
        assert all(proc.stderr.count(f) == 1 for f in failed)

    def test_multicharacter_delimiter_is_usage_error(self, demo_load_csv, tmp_path):
        proc = run_cli_process("load", "--data", demo_load_csv, "--delimiter", ";;",
                               "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "--delimiter" in proc.stderr
        assert "Traceback" not in proc.stderr
        usage_error("load", "--data", demo_load_csv, "--delimiter", "",
                    "--out", str(tmp_path / "o"))

    def test_bad_split_is_usage_error(self, demo_load_csv, tmp_path):
        usage_error("load", "--data", demo_load_csv, "--split", "yesterday",
                    "--out", str(tmp_path))

    def test_usage_errors(self, demo_load_csv, tmp_path, capsys):
        usage_error("load", "--out", str(tmp_path))  # no data source
        usage_error("load", "--data", demo_load_csv, "--train", demo_load_csv,
                    "--out", str(tmp_path))
        usage_error("load", "--train", demo_load_csv, "--out", str(tmp_path))
        usage_error("load", "--data", demo_load_csv, "--components", "4",
                    "--out", str(tmp_path))
        usage_error("load", "--data", demo_load_csv, "--band-hour", "24",
                    "--out", str(tmp_path))
        usage_error("load", "--data", demo_load_csv, "--grid", "1",
                    "--out", str(tmp_path))
        # a flag of the other input mode is rejected before any file is read
        absent = str(tmp_path / "absent.csv")
        for mixed, flag in ((["--data", absent, "--test", absent], "--test"),
                            (["--train", absent, "--test", absent,
                              "--split", "2010-01-01T00:00:00"], "--split")):
            capsys.readouterr()
            usage_error("load", *mixed, "--out", str(tmp_path))
            err = capsys.readouterr().err
            assert err.count("error: ") == 1
            assert err.splitlines()[-1].startswith(f"crpsmix: error: {flag} goes with")


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    """A scratch directory and the rows of a 600-hour demo CSV."""
    path = tmp_path_factory.mktemp("fuzz")
    return path, demo_rows(path / "demo.csv", 600)


@settings(max_examples=25, deadline=None)
@given(
    row=st.integers(0, 599),
    column=st.sampled_from([1, 2]),  # load, temperature
    value=st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
        st.floats(1e10, 1.79e308).flatmap(lambda x: st.sampled_from([x, -x])),  # huge
        st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),  # zero or negative
    ),
)
def test_a_bad_numeric_cell_is_data_or_success(fuzz_input, row, column, value):
    """Whatever one training (first 500 hours) or test cell holds, a load
    run succeeds or exits with a data error, and raises nothing (no
    RuntimeWarning either)."""
    path, rows = fuzz_input
    rows = list(rows)
    rows[1 + row] = list(rows[1 + row])
    rows[1 + row][column] = repr(value)
    data = write_rows(path / "cell.csv", rows)
    code = run_cli("load", "--data", data, "--split", rows[1 + 500][0], "--grid", "16",
                   "--components", "1", "--out", str(path / "o"))
    assert code in (0, 3)


@pytest.mark.parametrize("command", ["synth", "load", "verify"])
def test_negative_seed_is_usage_error(command, demo_load_csv, tmp_path):
    args = {
        "synth": ["synth", "--method", "1", "--steps", "20", "--grid", "16"],
        "load": ["load", "--data", demo_load_csv, "--grid", "16"],
        "verify": ["verify", "--cases", "1"],
    }[command]
    if command != "verify":
        args += ["--out", str(tmp_path / "o")]
    proc = run_cli_process(*args, "--seed", "-1")
    assert proc.returncode == 2
    assert "--seed" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
@pytest.mark.parametrize("flag", ["--out", "CRPSMIX_OUT", "--data", "--train", "--test"])
def test_a_line_break_in_a_path_is_usage_error(tmp_path, monkeypatch, capsys, flag, brk):
    # the manifest holds one key=value per line; such a path would add a line
    header, *rows = demo_rows(tmp_path / "demo.csv", 300)
    forged = brk + "metric_steps=999"

    def csv_file(name, part):
        name += forged if flag == f"--{name}" else ""
        return write_rows(tmp_path / name, [header, *part])

    if flag in ("--out", "CRPSMIX_OUT"):
        argv = ["synth", "--method", "1", "--steps", "20", "--grid", "16"]
        out = str(tmp_path / ("out" + forged))
    elif flag == "--data":
        argv = ["load", "--data", csv_file("data", rows), "--split", rows[250][0], "--grid", "16"]
        out = str(tmp_path / "out")
    else:
        argv = ["load", "--train", csv_file("train", rows[:250]),
                "--test", csv_file("test", rows[250:]), "--grid", "16"]
        out = str(tmp_path / "out")
    if flag == "CRPSMIX_OUT":
        monkeypatch.setenv("CRPSMIX_OUT", out)
    else:
        argv += ["--out", out]
    before = sorted(os.listdir(tmp_path))
    usage_error(*argv)
    assert sorted(os.listdir(tmp_path)) == before  # nothing written
    named = "--out" if flag == "CRPSMIX_OUT" else flag
    assert f"{named} must not contain a line break" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported where it is used, by the load experiment's expert
    # evaluation, and numpy.random by the draws and fits that use it, so
    # synth and verify start without them; OpenSSL (_hashlib) is never
    # imported for the manifest's config_hash
    src = os.path.dirname(os.path.dirname(crpsmix.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, crpsmix, crpsmix.cli; "
         "print('scipy' in sys.modules, 'numpy.random' in sys.modules, "
         "'_hashlib' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False"


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
@pytest.mark.parametrize("command", ["synth", "verify", "load"])
def test_no_command_maps_openssl(tmp_path, command):
    # main's first statement keeps `_hashlib`, and with it OpenSSL's
    # libcrypto, out of the command process, numpy.random's draws included
    src = os.path.dirname(os.path.dirname(crpsmix.__file__))
    argv = {
        "synth": [*SYNTH_FLAGS, "--out", str(tmp_path / "o")],
        "verify": ["verify", "--cases", "2", "--seed", "3"],
        "load": TestEvaluatorProcess.argv(tmp_path, "success"),
    }[command]
    code = ("import sys; from crpsmix.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy.random' in sys.modules, "
            "any('libcrypto' in line for line in open('/proc/self/maps')))")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {command != 'load'} False"


def test_main_keeps_a_loaded_openssl_hashlib(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    openssl = pytest.importorskip("_hashlib")
    assert main([*SYNTH_FLAGS, "--steps", "20", "--grid", "16", "--out", str(tmp_path)]) == 0
    assert sys.modules["_hashlib"] is openssl


@pytest.mark.parametrize("blob", [b"", b"grid=16|mode=aa", "alpha=0.001|\u00e9".encode()])
def test_config_hash_is_the_sha256_prefix(blob):
    assert config_hash(blob) == hashlib.sha256(blob).hexdigest()[:16]


def test_manifest_config_hash_covers_the_config(load_run):
    _, out = load_run
    manifest = read_manifest(os.path.join(out, "manifest.txt"))
    config = {k[len("cfg_"):]: v for k, v in manifest.items() if k.startswith("cfg_")}
    blob = "|".join(f"{k}={v}" for k, v in sorted(config.items()))
    assert manifest["config_hash"] == hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestEvaluatorProcess:
    """`crpsmix load` fits its roster in two forked processes and evaluates
    it in a third, forked after the fit."""

    @staticmethod
    def argv(tmp_path, case):
        rows = demo_rows(tmp_path / "demo.csv", 8760 + 48)
        split = rows[1 + 8760][0]
        if case == "bad_ingest":
            return ["load", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        if case == "roster_too_small":
            rows, split = rows[:16], rows[11][0]
        if case == "conditioning":
            rows[1 + 8760 + 5][2] = "1e160"
        return ["load", "--data", write_rows(tmp_path / "in.csv", rows), "--split", split,
                "--grid", "16", "--out", str(tmp_path / "o")]

    @pytest.mark.parametrize("case, code", [
        ("success", 0), ("bad_ingest", 3), ("roster_too_small", 3), ("conditioning", 3),
    ])
    def test_no_child_outlives_the_command(self, tmp_path, monkeypatch, case, code):
        argv = self.argv(tmp_path, case)
        forked = spy_forks(monkeypatch)
        spied, unreaped = os.fork, []

        def fork():  # records the earlier children not yet reaped, without reaping them
            unreaped.append([])
            for pid in forked:
                try:
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
                    unreaped[-1].append(pid)
                except ChildProcessError:
                    pass
            return spied()

        monkeypatch.setattr(os, "fork", fork)
        with deadline(120):
            assert main(argv) == code
        # the two fit children, then the evaluator
        assert len(forked) == {"bad_ingest": 0, "roster_too_small": 2}.get(case, 3)
        # both fit children run at once, and are reaped before the evaluator is forked
        assert unreaped == [[], forked[:1], []][:len(forked)]
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("case", ["conditioning", "allocation"])
    def test_evaluator_errors_exit_as_in_process(self, tmp_path, monkeypatch, capsys, case):
        # without os.fork the evaluation runs in this process
        argv = self.argv(tmp_path, case)
        if case == "allocation":
            def fail(*args):
                raise MemoryError("Unable to allocate 7.28 TiB")

            monkeypatch.setattr(roster_mod, "load_cdf_values", fail)
        errors = []
        for fork in (True, False):
            if not fork:
                monkeypatch.delattr(os, "fork")
            with deadline(120):
                assert main(argv) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0] == {
            "conditioning": "cannot forecast the test span: temperature 1e+160 is not finite, "
                            "or too far from the fitted mixtures to condition the load on\n",
            "allocation": "cannot allocate: Unable to allocate 7.28 TiB\n",
        }[case]

    def test_the_command_process_leaves_scipy_unloaded(self, tmp_path):
        src = os.path.dirname(os.path.dirname(crpsmix.__file__))
        argv = self.argv(tmp_path, "success")
        code = ("import sys; from crpsmix.cli import main; main(sys.argv[1:]); "
                "print('scipy' in sys.modules, 'numpy.random' in sys.modules, "
                "sys.modules.get('_hashlib') is None)")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        [line, loaded] = proc.stdout.splitlines()
        # OpenSSL stays unloaded: main leaves None at sys.modules["_hashlib"]
        assert line.startswith("load: T=48 ") and loaded == "False False True"


class TestVerify:
    #: the stdout of `crpsmix verify --cases 100` at seeds 3 and 8, as the
    #: sequential suite printed it: the checks and their order, seeds, case
    #: counts and formatting must keep these exact lines
    PINNED = {
        3: (
            "pass  crps substitution mixability (100 cases): worst slack -7.896e-09 (tol 1e-09)\n"
            "pass  weighted-average exp-concavity (100 cases): worst slack -1.162e-06 (tol 1e-09)\n"
            "pass  vector substitution mixability (20 cases): worst slack -2.434e-03 (tol 1e-10)\n"
            "pass  square-loss regret bound (50 cases): worst excess -5.647e-02\n"
            "pass  synthetic-stream regret bounds (2 cases): T=1500\n"
            "pass  discounted regret bound (50 cases): worst excess -2.712e-01\n"
        ),
        8: (
            "pass  crps substitution mixability (100 cases): worst slack -1.963e-05 (tol 1e-09)\n"
            "pass  weighted-average exp-concavity (100 cases): worst slack -3.229e-06 (tol 1e-09)\n"
            "pass  vector substitution mixability (20 cases): worst slack -2.470e-04 (tol 1e-10)\n"
            "pass  square-loss regret bound (50 cases): worst excess -4.572e-02\n"
            "pass  synthetic-stream regret bounds (2 cases): T=1500\n"
            "pass  discounted regret bound (50 cases): worst excess -1.878e-01\n"
        ),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_stdout_is_pinned(self, capsys, seed):
        assert main(["verify", "--seed", str(seed), "--cases", "100"]) == 0
        assert capsys.readouterr().out == self.PINNED[seed]

    def test_default_run_passes(self, capsys):
        assert main(["verify", "--cases", "8", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("pass") for line in lines)

    def test_zero_cases_is_usage_error(self):
        usage_error("verify", "--cases", "0")

    def test_broken_substitution_is_caught_with_witness(self):
        # substitution constant doubled: the mixability suite must fail and
        # produce a concrete witness
        from crpsmix.aggregation import square_tables, substitute_tables

        def broken(values, q):
            vals = substitute_tables(square_tables(values, 4.0), np.asarray(q, float), 4.0)
            return np.clip(vals, 0.0, 1.0)

        res = verify_mod.check_crps_mixability(seed=0, cases=10, aggregate=broken)
        assert not res.passed
        assert res.witness is not None
        assert {"n", "d", "eta", "weights", "outcome_index"} <= set(res.witness)

    @pytest.mark.parametrize("values, first_nan", [([np.nan] * 3, 0),
                                                   ([0.5, np.nan, 2.0, np.nan], 1)],
                             ids=["all_nan", "among_numbers"])
    def test_a_nan_case_fails_with_its_witness(self, values, first_nan):
        # the first NaN is the worst value, whatever comes before or after
        draws = iter(enumerate(values))

        def case(rng):
            i, value = next(draws)
            return value, {"case": i}

        res = verify_mod._worst_case("demo", 0, len(values), case, 1.0, "worst {:.3e}")
        assert res.line() == f"FAIL  demo ({len(values)} cases): worst nan"
        assert res.witness == {"case": first_nan}

    def test_vector_case_matches_the_outcome_loop(self):
        # the reference: one binary outcome at a time, the worst by `_worse`
        def one_at_a_time(rng):
            n, d, eta = int(rng.integers(2, 5)), int(rng.integers(1, 11)), 2.0
            m = rng.random((n, d))
            q = verify_mod.random_weights(rng, n)
            f = verify_mod.substitute_vector_aa(m, q, eta)
            worst, witness = -np.inf, None
            for bits in itertools.product((0.0, 1.0), repeat=d):
                y = np.array(bits)
                lhs = math.exp(-(eta / d) * float(((f - y) ** 2).sum()))
                rhs = float(q @ np.exp(-(eta / d) * ((m - y) ** 2).sum(axis=1)))
                if verify_mod._worse(rhs - lhs, worst):
                    worst = rhs - lhs
                    witness = {"n": n, "d": d, "outcome": list(bits), "weights": q.tolist()}
            return worst, witness

        for rng, ref in zip(spawn_rngs(5, 200), spawn_rngs(5, 200)):
            slack, witness = verify_mod._vector_case(rng)
            want, want_witness = one_at_a_time(ref)
            assert np.float64(slack).tobytes() == np.float64(want).tobytes()
            assert witness == want_witness

    def test_a_nan_vector_slack_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "substitute_vector_aa",
                            lambda m, q, eta: np.full(m.shape[1], np.nan))
        res = verify_mod.check_vector_mixability(seed=0, cases=3)
        assert res.line() == ("FAIL  vector substitution mixability (3 cases): "
                              "worst slack nan (tol 1e-10)")
        assert res.witness["outcome"] == [0.0] * res.witness["d"]  # the first outcome

    @pytest.mark.parametrize("nan_in, detail", [
        ("bound_excess", "aa regret exceeds ln(N)/eta; wa regret exceeds ln(N)/eta"),
        ("telescoping_gap", "telescoping bound violated"),
    ], ids=["bound_excess", "telescoping_gap"])
    def test_a_nan_bound_fails_the_game_check(self, monkeypatch, nan_in, detail):
        if nan_in == "bound_excess":
            monkeypatch.setattr(GameLog, "bound_excess", lambda log: np.nan)
        else:
            monkeypatch.setattr(verify_mod, "telescoping_gap", lambda log: np.full(1500, np.nan))
        res = verify_mod.check_crps_game_bounds(seed=0)
        assert not res.passed and res.detail == detail

    def test_report_file_written_on_failure(self, tmp_path, capsys):
        import crpsmix.verify as v
        import crpsmix.cli as cli_mod

        def fake_run_all(seed, cases):
            return [v.CheckResult("stub", False, 1, "boom", {"n": 2})]

        orig = cli_mod.verify_mod.run_all
        cli_mod.verify_mod.run_all = fake_run_all
        try:
            report = tmp_path / "fail.json"
            code = main(["verify", "--cases", "1", "--report", str(report)])
        finally:
            cli_mod.verify_mod.run_all = orig
        assert code == 1
        assert "boom" in report.read_text()


class TestVerifyFork:
    """`run_all` runs the discounted-regret check in a forked child beside
    the other five; without `os.fork`, in this process, last."""

    #: `crpsmix verify --cases 4 --seed 3 --report ...` with every regret
    #: check failing (BOUND_TOL = -1), as the one-process suite wrote it
    REPORT = """{
  "failures": [
    {
      "name": "square-loss regret bound",
      "detail": "worst excess -5.135e-01",
      "witness": {
        "n": 2,
        "steps": 40,
        "eta": 0.7059704789820873
      }
    },
    {
      "name": "synthetic-stream regret bounds",
      "detail": "aa regret exceeds ln(N)/eta",
      "witness": {
        "seed": 7,
        "steps": 1500
      }
    },
    {
      "name": "discounted regret bound",
      "detail": "worst excess -3.179e-01",
      "witness": {
        "n": 2,
        "steps": 42,
        "mode": "aa"
      }
    }
  ]
}
"""

    def test_forked_and_in_process_results_are_equal(self, monkeypatch):
        forked = spy_forks(monkeypatch)
        results = {}
        for mode in ("forked", "in_process"):
            if mode == "in_process":
                monkeypatch.delattr(os, "fork")
            results[mode] = [dataclasses.replace(r, seconds=0.0)
                             for r in verify_mod.run_all(seed=3, cases=10)]
        assert len(forked) == 1  # the discounted check's child, reaped
        assert results["forked"] == results["in_process"]
        assert [r.name for r in results["forked"]][-1] == "discounted regret bound"
        assert all(r.passed for r in results["forked"])

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
    def test_an_error_in_the_discounted_check_is_raised_here(self, monkeypatch, forked):
        spied = spy_forks(monkeypatch)
        if not forked:
            monkeypatch.delattr(os, "fork")
        ran = []
        for name in ("check_crps_mixability", "check_crps_game_bounds"):  # run here
            check = getattr(verify_mod, name)
            monkeypatch.setattr(verify_mod, name,
                                lambda *args, check=check: ran.append(check) or check(*args))

        def broken(rng):
            raise ArithmeticError("no case for you")

        monkeypatch.setattr(verify_mod, "_discounted_case", broken)
        usage = len(roster_mod.child_usage)
        with pytest.raises(ArithmeticError, match="^no case for you$"):
            verify_mod.run_all(seed=0, cases=2)
        assert len(ran) == 2  # the first and the fifth check ran before it raised
        assert len(spied) == forked
        for pid in spied:  # reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert [name for name, *_ in roster_mod.child_usage[usage:]] == (
            ["discounted regret check"] if forked else [])

    def test_an_error_here_kills_and_reaps_the_child(self, monkeypatch):
        spied = spy_forks(monkeypatch)

        def broken(*args):
            raise ArithmeticError("the square-loss check broke")

        monkeypatch.setattr(verify_mod, "check_square_loss_regret", broken)
        with pytest.raises(ArithmeticError, match="square-loss"):
            verify_mod.run_all(seed=0, cases=100)
        assert len(spied) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(spied[0], os.WNOHANG)

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
    def test_report_on_a_forced_failure_is_unchanged(self, tmp_path, capsys, monkeypatch,
                                                     forked):
        spied = spy_forks(monkeypatch)
        if not forked:
            monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(verify_mod, "BOUND_TOL", -1.0)  # inherited by the child
        report = tmp_path / "report.json"
        assert main(["verify", "--cases", "4", "--seed", "3", "--report", str(report)]) == 1
        assert report.read_bytes() == self.REPORT.encode()
        out = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[0] for line in out] == ["pass"] * 3 + ["FAIL"] * 3
        assert len(spied) == forked


def outputs(out):
    """Every file under `out`, by relative path, as bytes."""
    return {
        os.path.relpath(os.path.join(root, name), out): Path(root, name).read_bytes()
        for root, _, names in os.walk(out) for name in names
    }


class TestTimings:
    @pytest.mark.parametrize("command, phases", [
        ("synth", ["setup", "replay", "write"]),
        ("load", ["ingest", "fit", "replay", "replay_wait_first", "replay_wait", "write"]),
        ("verify", None),
    ])
    def test_outputs_are_unchanged(self, tmp_path, capsys, command, phases):
        out = tmp_path / "out"
        if command == "synth":
            args = [*SYNTH_FLAGS, "--out", str(out)]
        elif command == "load":
            rows = demo_rows(tmp_path / "demo.csv", 8760 + 150)
            data = write_rows(tmp_path / "short.csv", rows)
            args = ["load", "--data", data, "--split", rows[1 + 8760][0],
                    "--grid", "64", "--out", str(out)]
        else:
            args = ["verify", "--cases", "4", "--seed", "2"]
        runs = []
        for flags in ([], ["--timings"]):
            shutil.rmtree(out, ignore_errors=True)
            assert main(args + flags) == 0
            captured = capsys.readouterr()
            runs.append((captured.out, outputs(out) if out.exists() else {}, captured.err))
        (out0, files0, err0), (out1, files1, err1) = runs
        assert out1 == out0
        assert files1 == files0
        assert "timing" not in err0
        timed = [line for line in err1.splitlines() if line.startswith("timing ")]
        if phases is None:  # one line per check, named as on stdout
            phases = [line.split("  ", 1)[1].split(" (")[0] for line in out0.splitlines()]
        assert [line[len("timing "):].split(":")[0] for line in timed] == phases
        assert all(line.endswith(" s") and float(line.split()[-2]) >= 0 for line in timed)

    def test_load_reports_each_process(self, tmp_path, capsys, monkeypatch):
        rows = demo_rows(tmp_path / "demo.csv", 8760 + 48)
        args = ["load", "--data", write_rows(tmp_path / "in.csv", rows),
                "--split", rows[1 + 8760][0], "--grid", "16", "--out", str(tmp_path / "o")]
        pattern = re.compile(r"process (.+): cpu (\d+\.\d{6}) s, peak (\d+\.\d) MB")
        children = ["anytime and season fit", "season-by-day-period fit", "roster evaluation"]
        for forked in (True, False):
            if not forked:  # the fits and the evaluation run in the command process
                monkeypatch.delattr(os, "fork")
            assert main(args) == 0
            assert "process " not in capsys.readouterr().err
            assert main(args + ["--timings"]) == 0
            err = capsys.readouterr().err.splitlines()
            reported = [pattern.fullmatch(e).groups() for e in err if e.startswith("process ")]
            assert [name for name, _, _ in reported] == (children if forked else []) + ["load"]
            assert err[-len(reported):] == [e for e in err if e.startswith("process ")]
            for _, cpu, peak in reported:
                assert float(cpu) > 0 and float(peak) > 0

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
    @pytest.mark.parametrize("tol, code", [(1e-9, 0), (-1.0, 1)], ids=["pass", "fail"])
    def test_verify_reports_each_process(self, capsys, monkeypatch, forked, tol, code):
        monkeypatch.setattr(verify_mod, "BOUND_TOL", tol)  # -1 fails the regret checks
        if not forked:  # the discounted check runs in the command process
            monkeypatch.delattr(os, "fork")
        args = ["verify", "--cases", "4", "--seed", "2"]
        pattern = re.compile(r"process (.+): cpu (\d+\.\d{6}) s, peak (\d+\.\d) MB")
        assert main(args) == code
        plain = capsys.readouterr()
        assert "process " not in plain.err
        assert main(args + ["--timings"]) == code
        timed = capsys.readouterr()
        assert timed.out == plain.out
        err = timed.err.splitlines()
        reported = [pattern.fullmatch(e).groups() for e in err if e.startswith("process ")]
        assert [name for name, _, _ in reported] == (
            ["discounted regret check"] if forked else []) + ["verify"]
        assert err[-len(reported):] == [e for e in err if e.startswith("process ")]
        for _, cpu, peak in reported:
            assert float(cpu) > 0 and float(peak) > 0

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
    def test_load_reports_the_wait_on_the_roster(self, tmp_path, capsys, monkeypatch, forked):
        rows = demo_rows(tmp_path / "demo.csv", 8760 + 48)
        out = tmp_path / "o"
        args = ["load", "--data", write_rows(tmp_path / "in.csv", rows),
                "--split", rows[1 + 8760][0], "--grid", "16", "--out", str(out)]
        if not forked:  # the roster is evaluated in the command process
            monkeypatch.delattr(os, "fork")
        runs = []
        for flags in ([], ["--timings"]):
            shutil.rmtree(out, ignore_errors=True)
            assert main(args + flags) == 0
            captured = capsys.readouterr()
            runs.append((captured.out, outputs(out), captured.err.splitlines()))
        (out0, files0, err0), (out1, files1, err1) = runs
        assert (out1, files1) == (out0, files0)
        assert not [e for e in err0 if e.startswith(("timing ", "process "))]
        assert [e for e in err1 if not e.startswith(("timing ", "process "))] == err0
        timed = dict(e[len("timing "):].removesuffix(" s").split(": ")
                     for e in err1 if e.startswith("timing "))
        assert list(timed) == ["ingest", "fit", "replay", "replay_wait_first", "replay_wait",
                               "write"]
        first, total, replay = (float(timed[k])
                                for k in ("replay_wait_first", "replay_wait", "replay"))
        assert 0 < first <= total <= replay

    @pytest.mark.parametrize("case, children", [
        ("conditioning", ["anytime and season fit", "season-by-day-period fit",
                          "roster evaluation"]),
        ("roster_too_small", ["anytime and season fit", "season-by-day-period fit"]),
    ])
    def test_a_data_error_reports_each_process(self, tmp_path, capsys, case, children):
        argv = TestEvaluatorProcess.argv(tmp_path, case)
        assert main(argv) == 3
        plain = capsys.readouterr().err
        assert main(argv + ["--timings"]) == 3
        err = capsys.readouterr().err.splitlines()
        processes = [e for e in err if e.startswith("process ")]
        assert [e[len("process "):].split(":")[0] for e in processes] == children + ["load"]
        assert err[-len(processes):] == processes
        assert [e for e in err if not e.startswith(("process ", "timing "))] \
            == plain.splitlines()


    def test_a_killed_evaluator_reports_each_process(self, tmp_path, capsys, monkeypatch):
        # the evaluator dies in its first batch: the stream's RuntimeError
        # leaves `main` as it does without --timings, after every process line
        argv = TestEvaluatorProcess.argv(tmp_path, "success")
        parent = os.getpid()

        def kill(*args):
            assert os.getpid() != parent
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(roster_mod, "load_cdf_values", kill)
        ended = (f"the roster evaluation process ended by signal {int(signal.SIGKILL)} "
                 "without a result")
        errors = []
        for flags in ([], ["--timings"]):
            with deadline(120), pytest.raises(RuntimeError, match=ended):
                main(argv + flags)
            errors.append(capsys.readouterr().err.splitlines())
        plain, timed = errors
        processes = [e for e in timed if e.startswith("process ")]
        assert [e[len("process "):].split(":")[0] for e in processes] == [
            "anytime and season fit", "season-by-day-period fit", "roster evaluation", "load"]
        assert timed[-len(processes):] == processes
        assert [e for e in timed if not e.startswith(("process ", "timing "))] == plain


def test_csv_writer_matches_csv_module(tmp_path):
    stamp = datetime(2010, 3, 28, 1, 30, tzinfo=timezone(timedelta(hours=1)))
    header = ["t", "timestamp", "name", "value", "flag"]
    rows = [
        [1, stamp.isoformat(), "expert01_anytime", 0.1, True],
        [np.int64(2), datetime(2010, 1, 1).isoformat(), "x", np.float64(1e-300), False],
        [3, "2010-01-01T00:00:00", "y", np.float32(0.25), np.float64(-0.0)],
        [4, "z", "", float("inf"), 12345678901234567890],
        [5, 2.5, 1 / 3, -7, np.bool_(True)],
    ]
    want = tmp_path / "want.csv"
    with open(want, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    got = tmp_path / "got.csv"
    _write_csv(got, header, iter(rows))
    assert got.read_bytes() == want.read_bytes()


def test_every_written_csv_has_the_csv_module_bytes(small_runs):
    # _write_csv and GameLog.to_csv join the cells themselves, relying on
    # no cell needing quoting; timestamps with a UTC offset included
    synth, load = small_runs
    paths = sorted(synth.glob("*.csv")) + sorted(load.glob("*.csv"))
    assert len(paths) == 3 + 3
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(rows)
        assert buf.getvalue().encode() == path.read_bytes(), path.name
    assert read_game_log(load / "game_log.csv")["timestamp"][0].endswith("+01:00")
