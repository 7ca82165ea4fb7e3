"""The benchmark's own tests, at a tiny size:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import trace_runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Goldens recorded from this checkout at the tiny scale, and a work dir."""
    base = tmp_path_factory.mktemp("perfbench")
    goldens, work = base / "goldens.json", base / "work"
    proc = run_bench("--record-goldens", "--scale", "tiny", "--seed", "0",
                     "--goldens", str(goldens), "--work", str(work))
    assert proc.returncode == 0, proc.stderr
    return goldens, work


def tiny_args(workload, trace, goldens, work, seconds="0"):
    return ["--workload", workload, "--seed", "0", "--seconds", seconds,
            "--trace", str(trace), "--scale", "tiny",
            "--goldens", str(goldens), "--work", str(work)]


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_metric_appears_with_its_unit(tiny, workload, trace):
    goldens, work = tiny
    proc = run_bench(*tiny_args(workload, trace, goldens, work))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace:
        assert "tracing overhead" in proc.stdout


@pytest.mark.parametrize("corruption", ["perturbed", "vanished"])
def test_corrupted_golden_counts_as_failure(tiny, tmp_path, corruption):
    goldens, work = tiny
    blob = json.loads(goldens.read_text(encoding="utf-8"))
    metrics = blob["workloads"]["synth"]["0"]["metrics"]
    if corruption == "perturbed":
        metrics["final_learner_loss"] = repr(float(metrics["final_learner_loss"]) * (1 + 1e-9))
    else:
        metrics["metric_that_the_manifest_lacks"] = "1.0"
    bad = tmp_path / "goldens.json"
    bad.write_text(json.dumps(blob), encoding="utf-8")
    proc = run_bench(*tiny_args("synth", 0, bad, work))
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] >= bench.MIN_RUNS  # every CLI run; the probes pass
    assert "FAILED CLI run" in proc.stdout


def test_forced_nonzero_exit_counts_as_failure(tiny, monkeypatch, capsys):
    goldens, work = tiny
    real = bench.cli_argv
    monkeypatch.setattr(bench, "cli_argv", lambda *a: real(*a) + ["--grid", "0"])
    assert bench.main(tiny_args("synth", 0, goldens, work)) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert result["correct"] is False
    assert result["failed"] == bench.MIN_RUNS
    assert f"failed_ratio {bench.MIN_RUNS}/{result['attempted']}" in out
    assert "exit code 2" in out


def test_absent_hook_is_reported_not_raised():
    hooks = [("aggregation.gone", "crpsmix.aggregation", "no_such_function"),
             ("grids.Gone.method", "crpsmix.grids", "NoSuchClass.method")]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        status = trace_runner.install(trace_runner.Recorder("t"), hooks)
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert set(status.values()) == {"absent"}


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "load-fine", "--seed", "1", "--seconds", "15",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
