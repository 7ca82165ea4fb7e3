"""crpsmix benchmark: time the CLI end to end on four workloads, check every
run's outputs against goldens, and split a traced run by module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI run is a fresh ``python -m crpsmix.cli ...`` process with
PYTHONPATH=src, started only after the previous one has exited (a closed loop
with one client).  ``--trace 0`` reports the end-to-end metrics: the median
wall time of a CLI run, the median set-up time of fresh set-up probes, and the
median peak RSS.  ``--trace 1`` adds one run under perfbench/trace_runner.py
and reports the per-layer metrics taken from its spans.  The last line of
standard output is the result as one JSON object; the full record, with the
environment block, goes to perfbench/.work/.

Inputs come from the seed: workload seed = seed mod N_GOLDEN_SEEDS, and
perfbench/goldens.json holds, per workload and workload seed, the outputs and
input hashes that the code at the seed commit produced.  A run fails on an
unexpected exit code, a traceback, a golden mismatch beyond a relative 1e-12,
or artifacts that differ byte for byte from the first run of the same code.

``--record-goldens`` rewrites the goldens from the code in this checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_GOLDENS = BENCH_DIR / "goldens.json"
DEFAULT_WORK = BENCH_DIR / ".work"

N_GOLDEN_SEEDS = 16
REL_TOL = 1e-12  # ROADMAP aim 3: float reordering may move the last bits only
MIN_SETUPS = 3  # set-up probes per run; setup_s is their median
MIN_RUNS = 2  # CLI runs per run; the load runs cost ~5-9 s each
OVERRUN_S = 60.0  # no new process starts this long after the window ends
BUDGET_S = 170.0  # a run must end within 180 s, whatever the machine does

LOAD_START = datetime(2006, 2, 15)  # the test span crosses winter -> spring
LOAD_GRID = 128


@dataclass(frozen=True)
class Scale:
    train_hours: int
    test_hours: int
    synth_steps: int
    synth_grid: int
    verify_cases: int


SCALES = {
    # One year of training.  1000 test hours (Feb 15 - Mar 28) cross the
    # season boundary and every day-period boundary, and make expert
    # evaluation outweigh the EM fit on load-fine.  1000 synth steps (~2.5 s)
    # give ~8 runs per 20 s window: single runs here vary by ~10%.
    "full": Scale(train_hours=8760, test_hours=1000, synth_steps=1000,
                  synth_grid=1024, verify_cases=100),
    # For the benchmark's own tests only.
    "tiny": Scale(train_hours=1500, test_hours=48, synth_steps=60,
                  synth_grid=64, verify_cases=2),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "load", "synth" or "verify"
    round_temperature: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("load-fine", "load"),
        Workload("load-int", "load", round_temperature=True),
        Workload("synth", "synth"),
        Workload("verify", "verify"),
    )
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "import.s": "s",
    "data.load_csv.s": "s",
    "data.load_csv.rows": "count",
    "data.clipped_outcomes": "count",
    "experts.fit_gmm_em.s": "s",
    "experts.fit_gmm_em.calls": "count",
    "experts.conditional_load_cdf.s": "s",
    "experts.conditional_load_cdf.self_s": "s",
    "experts.conditional_load_cdf.calls": "count",
    "experts.logsumexp.calls": "count",
    "experts.logsumexp.s": "s",
    "roster.roster_forecasts.self_s": "s",
    "roster.roster_confidences.s": "s",
    "roster.forecast_cache_hit_ratio": "ratio",
    "roster.zero_confidence_share": "ratio",
    "grids.GridCDF.constructions": "count",
    "grids.GridCDF.s": "s",
    "grids.crps.s": "s",
    "grids.crps_rows.s": "s",
    "aggregation.substitute_crps_aa.s": "s",
    "aggregation.combine_wa.s": "s",
    "aggregation.confidence_reweight.s": "s",
    "aggregation.update_weights_confidence.s": "s",
    "aggregation.mix_past_posteriors.s": "s",
    "aggregation.normalized_weights.s": "s",
    "aggregation.logsumexp.calls": "count",
    "aggregation.logsumexp.s": "s",
    "game.step.calls": "count",
    "game.step.self_s": "s",
    "game.step.p50_us": "us",
    "game.step.p99_us": "us",
    "game.all_asleep_steps": "count",
    "game.GameLog.to_csv.s": "s",
    "game.regret_report.s": "s",
    "cli.cmd.self_s": "s",
    "cli.write.s": "s",
    "cli.artifact_bytes": "bytes",
    "verify.check_crps_mixability.s": "s",
    "verify.check_wa_exp_concavity.s": "s",
    "verify.check_vector_mixability.s": "s",
    "verify.check_square_loss_regret.s": "s",
    "verify.check_crps_game_bounds.s": "s",
    "verify.check_discounted_regret.s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.hooks_absent": "count",
}


class SourceMissing(RuntimeError):
    """The checkout lacks the program or the input generator."""


# ---------------------------------------------------------------------------
# inputs and CLI arguments
# ---------------------------------------------------------------------------


def load_split(scale: Scale) -> str:
    return (LOAD_START + timedelta(hours=scale.train_hours)).isoformat()


def cli_argv(wl: Workload, scale: Scale, wseed: int) -> list[str]:
    """CLI arguments; the CLI runs in <run dir>/run with the input one level up."""
    if wl.kind == "load":
        return ["load", "--data", "../input.csv", "--split", load_split(scale),
                "--mode", "aa", "--confidence", "smooth", "--alpha", "0.001",
                "--grid", str(LOAD_GRID), "--components", "2", "--out", "out"]
    if wl.kind == "synth":
        return ["synth", "--method", "1", "--mode", "aa", "--alpha", "0.001",
                "--grid", str(scale.synth_grid), "--steps", str(scale.synth_steps),
                "--seed", str(wseed), "--out", "out"]
    return ["verify", "--seed", str(wseed), "--cases", str(scale.verify_cases)]


def probe_argv(wl: Workload, scale: Scale, wseed: int, run_dir: Path) -> list[str]:
    if wl.kind == "load":
        return ["load", str(run_dir / "input.csv"), load_split(scale)]
    if wl.kind == "synth":
        segments = "6"  # the CLI's default --segments
        return ["synth", str(wseed), str(scale.synth_steps), str(scale.synth_grid), segments]
    return ["verify"]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_sources(wl: Workload) -> None:
    needed = [ROOT / "src" / "crpsmix" / "cli.py"]
    if wl.kind == "load":
        needed.append(ROOT / "scripts" / "make_demo_load_csv.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SourceMissing(f"not a crpsmix checkout: missing {', '.join(missing)}")


def make_input(wl: Workload, scale: Scale, wseed: int, run_dir: Path) -> str | None:
    """Write <run_dir>/input.csv for a load workload and return its sha256."""
    if wl.kind != "load":
        return None
    raw = run_dir / "generated.csv"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_demo_load_csv.py"),
         "--hours", str(scale.train_hours + scale.test_hours),
         "--start", LOAD_START.isoformat(), "--seed", str(wseed), "--out", str(raw)],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
        timeout=60,
    )
    target = run_dir / "input.csv"
    if wl.round_temperature:
        with open(raw, newline="", encoding="utf-8") as src, \
                open(target, "w", newline="", encoding="utf-8") as dst:
            reader, writer = csv.reader(src), csv.writer(dst)
            header = next(reader)
            col = header.index("temperature")
            writer.writerow(header)
            for row in reader:
                row[col] = repr(float(round(float(row[col]))))
                writer.writerow(row)
        raw.unlink()
    else:
        raw.replace(target)
    return sha256_file(target)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    wall_s: float
    code: int
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_process(argv, cwd: Path, timeout: float) -> Proc:
    """Run one child to completion; wall time from launch to exit, peak RSS
    from its wait4 rusage.  The child is killed after `timeout` seconds."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr)


# ---------------------------------------------------------------------------
# outputs, goldens and artifacts
# ---------------------------------------------------------------------------

_VERIFY_LINE = re.compile(r"^(pass|FAIL)\s+(.+?) \((\d+) cases\)")


def observe(wl: Workload, cwd: Path, stdout: str) -> dict:
    """What the goldens pin: manifest metric_* values, or verify's checks."""
    if wl.kind == "verify":
        checks = {}
        for line in stdout.splitlines():
            m = _VERIFY_LINE.match(line)
            if m:
                checks[m.group(2)] = {"passed": m.group(1) == "pass", "cases": int(m.group(3))}
        return {"checks": checks}
    metrics = {}
    manifest = cwd / "out" / "manifest.txt"
    if manifest.is_file():
        for line in manifest.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition("=")
            if key.startswith("metric_"):
                metrics[key[len("metric_"):]] = value
    return {"metrics": metrics}


def _same_value(golden: str, got: str) -> bool:
    try:
        g, x = float(golden), float(got)
    except ValueError:
        return golden == got
    return abs(g - x) <= REL_TOL * max(abs(g), abs(x))


def golden_problems(golden: dict | None, observed: dict, input_sha: str | None) -> list[str]:
    """Differences from the golden; keys the golden lacks are ignored."""
    if golden is None:
        return ["no golden for this workload and seed"]
    if golden.get("input_sha256") != input_sha:
        return [f"input sha256 {input_sha} differs from the golden's "
                f"{golden.get('input_sha256')}; refusing to compare"]
    problems = []
    for key, want in golden.get("metrics", {}).items():
        got = observed["metrics"].get(key)
        if got is None:
            problems.append(f"manifest metric {key} disappeared")
        elif not _same_value(want, got):
            problems.append(f"metric {key}: {got} != golden {want}")
    for name, want in golden.get("checks", {}).items():
        got = observed["checks"].get(name)
        if got is None:
            problems.append(f"verify check {name!r} disappeared")
        elif got != want:
            problems.append(f"verify check {name!r}: {got} != golden {want}")
    return problems


def artifacts(cwd: Path, stdout: str) -> tuple[dict, int]:
    """sha256 of every file the CLI wrote, plus its stdout; and the bytes
    of the files."""
    hashes = {"<stdout>": hashlib.sha256(stdout.encode()).hexdigest()}
    total = 0
    out = cwd / "out"
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                hashes[str(path.relative_to(out))] = sha256_file(path)
                total += path.stat().st_size
    return hashes, total


def read_goldens(path: Path, scale_name: str) -> dict:
    try:
        blob = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    if blob.get("scale") != scale_name:
        return {}
    return blob.get("workloads", {})


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


class Bench:
    """State of one benchmark run: its inputs, the goldens it checks against,
    and every attempt with its outcome."""

    def __init__(self, wl: Workload, seed: int, scale_name: str, goldens: dict,
                 work: Path, trace: bool):
        check_sources(wl)
        self.t0 = time.perf_counter()
        self.wl, self.scale = wl, SCALES[scale_name]
        self.seed, self.wseed = seed, seed % N_GOLDEN_SEEDS
        self.golden = goldens.get(wl.name, {}).get(str(self.wseed))
        self.dir = work / f"{wl.name}-seed{seed}-trace{int(trace)}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        (self.dir / "run").mkdir(parents=True)
        self.input_sha = make_input(wl, self.scale, self.wseed, self.dir)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict | None = None  # artifact hashes of the first run
        self.artifact_bytes = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def _record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what} #{self.attempted}: " + "; ".join(problems))

    def _run(self, argv, cwd: Path) -> Proc:
        return run_process(argv, cwd, BUDGET_S - self.elapsed())

    def setup_probe(self) -> float:
        """set-up seconds as the probe measured them; a failed probe counts
        as a failure and contributes its wall time."""
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
                *probe_argv(self.wl, self.scale, self.wseed, self.dir)]
        p = self._run(argv, self.dir)
        try:
            setup_s = float(json.loads(p.stdout.strip().splitlines()[-1])["setup_s"])
        except (IndexError, KeyError, ValueError):
            setup_s = None
        if p.code == 0 and setup_s is not None:
            self._record("set-up probe", [])
            return setup_s
        self._record("set-up probe", [f"exit {p.code}: {p.stderr.strip()[-300:]}"])
        return p.wall_s

    def cli_run(self, traced_spans: Path | None = None) -> Proc:
        cwd = self.dir / "run"
        if (cwd / "out").exists():
            shutil.rmtree(cwd / "out")
        argv = cli_argv(self.wl, self.scale, self.wseed)
        if traced_spans is None:
            cmd = [sys.executable, "-m", "crpsmix.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "trace_runner.py"),
                   "--spans", str(traced_spans), "--run-id",
                   f"{self.wl.name}-seed{self.seed}", "--", *argv]
        p = self._run(cmd, cwd)
        problems = []
        if p.code != 0:
            problems.append(f"exit code {p.code}: {p.stderr.strip()[-300:]}")
        if "Traceback (most recent call last)" in p.stderr:
            problems.append("traceback on stderr")
        problems += golden_problems(self.golden, observe(self.wl, cwd, p.stdout),
                                    self.input_sha)
        hashes, self.artifact_bytes = artifacts(cwd, p.stdout)
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            changed = sorted(k for k in set(hashes) | set(self.reference)
                             if hashes.get(k) != self.reference.get(k))
            problems.append("artifacts differ from the first run: " + ", ".join(changed))
        self._record("traced CLI run" if traced_spans else "CLI run", problems)
        return p

    def clean(self) -> None:
        """Drop inputs and artifacts; keep the result and the spans."""
        shutil.rmtree(self.dir / "run", ignore_errors=True)
        for name in ("input.csv", "generated.csv"):
            (self.dir / name).unlink(missing_ok=True)


def measure(bench: Bench, seconds: float) -> dict:
    """Closed loop: alternate set-up probes and CLI runs until `seconds`
    have passed and both minimum counts are met."""
    setups, runs = [], []

    def done() -> bool:
        t = bench.elapsed()
        return bool(runs) and (t >= seconds + OVERRUN_S or (
            t >= seconds and len(runs) >= MIN_RUNS and len(setups) >= MIN_SETUPS))

    while True:
        if len(setups) < MIN_SETUPS:
            setups.append(bench.setup_probe())
        if done():
            break
        runs.append(bench.cli_run())
        if done():
            break
    return {"setup_s": setups, "run_s": [p.wall_s for p in runs],
            "peak_rss_mb": [p.peak_rss_mb for p in runs]}


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """One untraced run, the traced run, then untraced runs while another
    fits in `seconds`; the traced run must leave the same artifacts."""
    untraced = [bench.cli_run().wall_s]
    spans_path = bench.dir / "spans.json"
    traced = bench.cli_run(traced_spans=spans_path)
    while bench.elapsed() + statistics.median(untraced) < seconds:
        untraced.append(bench.cli_run().wall_s)
    try:
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        trace = {"names": [], "spans": [], "counters": {}, "hooks": {}, "import_s": 0.0}
    return {"run_s": untraced, "traced_run_s": traced.wall_s}, trace


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def span_totals(trace: dict) -> dict:
    """Per span name: calls, inclusive seconds, self seconds (duration minus
    the time its child spans cover) and the list of durations."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []} for n in names}
    for i, (k, start, end, _) in enumerate(spans):
        row = out[names[k]]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
        row["durations"].append(end - start)
    return out


def _clipped_outcomes(cwd: Path) -> int:
    path = cwd / "out" / "data_quality.txt"
    if not path.is_file():
        return 0
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key == "test_outcomes_clipped":
            return int(value)
    return 0


def layer_metrics(trace: dict, totals: dict, bench: Bench, samples: dict) -> dict:
    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    counters = trace["counters"]
    served = counters.get("roster.forecasts_served", 0)
    evaluated = get("experts.conditional_load_cdf", "calls")
    confidences = counters.get("roster.confidences", 0)
    steps = sorted(get("game.step", "durations") or [0.0])
    m = {
        "import.s": trace["import_s"],
        "data.load_csv.rows": counters.get("data.load_csv.rows", 0),
        "data.clipped_outcomes": _clipped_outcomes(bench.dir / "run"),
        # Forecasts the roster served without evaluating an expert; 0 when
        # the expert hook is absent rather than a false 1.
        "roster.forecast_cache_hit_ratio":
            (served - evaluated) / served if served and "experts.conditional_load_cdf" in totals
            else 0.0,
        "roster.zero_confidence_share":
            counters.get("roster.confidences_zero", 0) / confidences if confidences else 0.0,
        "grids.GridCDF.constructions": get("grids.GridCDF", "calls"),
        "game.step.p50_us": 1e6 * steps[len(steps) // 2],
        "game.step.p99_us": 1e6 * steps[min(len(steps) - 1, int(0.99 * len(steps)))],
        "game.all_asleep_steps": counters.get("game.all_asleep_steps", 0),
        "cli.artifact_bytes": bench.artifact_bytes,
        "trace.run_s": samples["traced_run_s"],
        "trace.overhead_s": samples["traced_run_s"] - statistics.median(samples["run_s"]),
        "trace.spans": len(trace["spans"]),
        "trace.hooks_absent": sum(v == "absent" for v in trace["hooks"].values()),
    }
    timers = trace.get("timers", {})
    for name in PER_LAYER:
        if name in m:
            continue
        span, _, field = name.rpartition(".")
        if span in timers:
            calls, seconds = timers[span]
            m[name] = calls if field == "calls" else seconds
        elif field in ("s", "self_s", "calls"):
            m[name] = get(span, field)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return m


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_vars": {k: os.environ.get(k, "unset") for k in thread_vars},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _spread(values: list[float]) -> str:
    vals = sorted(values)
    n = len(vals)
    text = f"median {statistics.median(vals):.4f} max {vals[-1]:.4f} n={n}"
    if n > 20:  # at least ten samples beyond the reported percentile
        p = int(100 * (1 - 10 / n))
        text += f" p{p} {statistics.quantiles(vals, n=100, method='inclusive')[p - 1]:.4f}"
    else:
        text += " (no tail percentile: fewer than 21 samples)"
    return text


def print_split(trace: dict, totals: dict) -> None:
    print("traced split (seconds; self = minus time in child spans):")
    rows = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(f"  {name:42s} self {row['self_s']:9.4f}  incl {row['s']:9.4f}"
              f"  calls {row['calls']}")
    print("library calls (their time is inside the callers' self time):")
    for name, (calls, seconds) in sorted(trace.get("timers", {}).items()):
        print(f"  {name:42s} time {seconds:9.4f}  calls {calls}")
    hooks = trace["hooks"]
    absent = sorted(k for k, v in hooks.items() if v == "absent")
    if absent:
        print("absent hooks: " + ", ".join(absent))


def run_benchmark(args) -> int:
    wl = WORKLOADS[args.workload]
    goldens = read_goldens(args.goldens, args.scale)
    try:
        bench = Bench(wl, args.seed, args.scale, goldens, args.work, bool(args.trace))
    except (SourceMissing, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {wl.name}, seed {args.seed} (workload seed {bench.wseed}), "
          f"{args.seconds} s, trace {args.trace}, scale {args.scale}")
    if args.trace:
        samples, trace = measure_traced(bench, args.seconds)
        totals = span_totals(trace)
        metrics = layer_metrics(trace, totals, bench, samples)
        units = PER_LAYER
        print_split(trace, totals)
        print(f"tracing overhead {metrics['trace.overhead_s']:.4f} s "
              f"(traced run {samples['traced_run_s']:.4f} s, untraced {_spread(samples['run_s'])})")
    else:
        samples = measure(bench, args.seconds)
        metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
        units = END_TO_END
        for name in END_TO_END:
            print(f"{name} [{END_TO_END[name]}]: {_spread(samples[name])}")
    failed = len(bench.failures)
    print(f"failed_ratio {failed}/{bench.attempted} = {failed / max(bench.attempted, 1):.4f}")
    for line in bench.failures:
        print(f"FAILED {line}")
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {"result": result, "environment": env, "samples": samples,
              "failures": bench.failures, "workload": asdict(wl), "seed": args.seed,
              "workload_seed": bench.wseed, "scale": args.scale,
              "input_sha256": bench.input_sha}
    (bench.dir / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                           encoding="utf-8")
    bench.clean()
    print(json.dumps(result))
    return 0


def record_goldens(args) -> int:
    """Run each workload once per workload seed and store what it produced."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    seeds = [args.seed % N_GOLDEN_SEEDS] if args.seed is not None else range(N_GOLDEN_SEEDS)
    try:
        blob = json.loads(args.goldens.read_text(encoding="utf-8"))
    except FileNotFoundError:
        blob = {}
    if blob.get("scale") != args.scale:
        blob = {"scale": args.scale, "workloads": {}}
    blob["relative_tolerance"] = REL_TOL
    env = environment()
    blob["recorded_at"] = {"git_commit": env["git_commit"], "src_sha256": env["src_sha256"]}
    for name in names:
        for wseed in seeds:
            bench = Bench(WORKLOADS[name], wseed, args.scale, {}, args.work, False)
            p = bench.cli_run()
            if p.code != 0 or "Traceback" in p.stderr:
                print(f"{name} seed {wseed}: exit {p.code}\n{p.stderr}", file=sys.stderr)
                return 1
            entry = observe(bench.wl, bench.dir / "run", p.stdout)
            if bench.input_sha is not None:
                entry["input_sha256"] = bench.input_sha
            blob["workloads"].setdefault(name, {})[str(wseed)] = entry
            bench.clean()
            print(f"{name} seed {wseed}: {p.wall_s:.2f} s", flush=True)
    args.goldens.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--goldens", type=Path, default=DEFAULT_GOLDENS)
    ap.add_argument("--work", type=Path, default=DEFAULT_WORK)
    ap.add_argument("--record-goldens", action="store_true",
                    help="rewrite the goldens (all workloads and workload seeds "
                         "unless --workload / --seed narrow it)")
    args = ap.parse_args(argv)
    if args.record_goldens:
        return record_goldens(args)
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
