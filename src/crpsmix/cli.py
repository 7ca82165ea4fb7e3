"""Experiment runner.

Subcommands:
  synth   -- aggregate three fixed triangular experts on a synthetic
             mixture stream and write the per-step game log, CDF
             snapshots and the regret report.
  load    -- fit the 21-expert calendar roster on hourly load data and
             replay the test year with confidence-weighted aggregation.
  verify  -- run the randomized property suites headlessly.

All outputs are CSV plus a flat key=value manifest; plotting is left to
downstream tools.  Exit codes: 0 success, 1 property/bound failure,
2 usage, 3 I/O or data (unreadable input, a training span too short
to fit the roster, or an allocation that fails).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from datetime import datetime

import numpy as np

from . import verify as verify_mod
from .data import (
    CsvSchema,
    default_generators,
    default_test_boundary,
    load_csv,
    rotating_leader_schedule,
    smooth_crossfade_schedule,
    split_train_test,
    synth_stream,
)
from .experts import ConditioningError, em_hit_max_iter, triangular_cdf
from .game import BOUND_TOL, GameConfig, GameLog, replay
from .grids import GridDomain, cdf_to_row, quantile
from .roster import RosterStream, build_load_roster, child_usage, roster_confidences

try:  # CPython's own SHA-256, so that no OpenSSL libcrypto is loaded
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

logger = logging.getLogger(__name__)

QUANTILE_LEVELS = (0.05, 0.25, 0.75, 0.95)


def _fmt(x) -> str:
    """A CSV cell or manifest value: `repr(float(x))` for every float,
    numpy floats included, so it reads back exactly; true/false for a
    bool."""
    if type(x) is float:
        return repr(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows) -> None:
    """Write the header and the rows, every cell formatted by `_fmt`, in
    the bytes of csv.writer's default dialect: no cell written here needs
    quoting (numbers, booleans, ISO timestamps and identifiers)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\r\n")


def _phase_clock(enabled: bool):
    """`mark(phase)`: with `enabled`, print the wall time since the last
    mark (or since this call) to stderr as `timing <phase>: <s> s`."""
    last = time.perf_counter()

    def mark(phase: str) -> None:
        nonlocal last
        now = time.perf_counter()
        if enabled:
            print(f"timing {phase}: {now - last:.6f} s", file=sys.stderr)
        last = now

    return mark


def config_hash(blob: bytes) -> str:
    """The manifest's `config_hash`: the first 16 hex digits of the
    SHA-256 of `blob`.  It is taken from CPython's builtin module
    (`_sha2`, or `_sha256` before 3.12), not from `hashlib`, whose import
    loads OpenSSL's libcrypto (~3.5 MB) into the command process; `hashlib`
    only where neither exists."""
    return sha256(blob).hexdigest()[:16]


def read_manifest(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                k, _, v = line.partition("=")
                out[k] = v
    return out


def _finish_run(out, log: GameLog, experiment, config, seed, inputs, metrics,
                names=None, leading=None) -> int:
    """Write the game log, the regret report and the manifest of one
    finished game into `out`; return 1 when config["alpha"] is 0 and the
    largest discounted regret exceeds the ln(N)/eta bound by more than
    BOUND_TOL (`GameLog.bound_excess`), else 0.

    The manifest is a flat record of the run: `experiment`, a hash of
    `config`, `seed`, `config`, `inputs` and `out`, then the metrics: the
    regret numbers, the command's own `metrics` in their order, and last
    the regret headroom, the largest CDF repair and the feedback steps.
    It is written last, under a temporary name renamed into place, so a
    `manifest.txt` marks a finished run; the command writes its other
    files before calling this.  `names` label the experts of the report,
    and `leading` are the game log's leading columns (see
    GameLog.to_csv)."""
    os.makedirs(out, exist_ok=True)
    log.to_csv(os.path.join(out, "game_log.csv"), leading)
    learner, experts = log.learner_cumulative()[-1], log.expert_cumulative()[-1]
    final = learner - experts
    disc = log.discounted_regret()
    peak = disc.max(axis=0)
    _write_csv(
        os.path.join(out, "regret_report.csv"),
        ["expert", "final_loss", "final_regret", "final_discounted_regret",
         "max_discounted_regret", "bound", "bound_satisfied"],
        ([names[i] if names else f"expert_{i + 1}", float(experts[i]), float(final[i]),
          float(disc[-1, i]), float(peak[i]), log.bound, bool(peak[i] - log.bound <= BOUND_TOL)]
         for i in range(log.n)),
    )

    top = float(disc.max())
    asserted = config["alpha"] == 0.0
    satisfied = top - log.bound <= BOUND_TOL
    metrics = {
        "steps": log.steps,
        "final_learner_loss": float(learner),
        "min_expert_loss": float(experts.min()),
        "final_regret_vs_best": float(final.max()),
        "regret_bound": log.bound,
        **{f"expert_{i + 1}_loss": float(loss) for i, loss in enumerate(experts)},
        "bound_satisfied": satisfied if asserted else "not_asserted_for_alpha>0",
        **metrics,
        "min_regret_headroom": log.bound - top,
        "max_cdf_repair": log.max_cdf_repair,
        "feedback_steps": log.feedback_steps,
    }
    cfg = sorted(config.items())
    blob = "|".join(f"{k}={_fmt(v)}" for k, v in cfg)
    lines = [
        f"experiment={experiment}",
        f"config_hash={config_hash(blob.encode())}",
        f"seed={seed}",
    ]
    lines += [f"cfg_{k}={_fmt(v)}" for k, v in cfg]
    lines += [f"input_{i}={p}" for i, p in enumerate(inputs)]
    lines.append(f"out_dir={out}")
    lines += [f"metric_{k}={_fmt(v)}" for k, v in metrics.items()]
    path = os.path.join(out, "manifest.txt")
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(path + ".tmp", path)
    return int(asserted and not satisfied)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _print_processes(command: str, children: int) -> None:
    """The `--timings` line of each `_Forked` child reaped since
    `child_usage` held `children` entries, then of this process, named
    `command`: CPU seconds and peak RSS."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    for name, cpu, peak in [*child_usage[children:],
                            (command, own.ru_utime + own.ru_stime, own.ru_maxrss / 1024)]:
        print(f"process {name}: cpu {cpu:.6f} s, peak {peak:.1f} MB", file=sys.stderr)


def cmd_synth(args) -> int:
    mark = _phase_clock(args.timings)
    domain = GridDomain(0.0, 1.0, args.grid)
    gens = default_generators()
    if args.method == 1:
        schedule = rotating_leader_schedule(args.steps, len(gens), args.segments)
    else:
        schedule = smooth_crossfade_schedule(args.steps, len(gens), args.segments)
    outcomes = synth_stream(gens, schedule, args.steps, args.seed)
    values = [triangular_cdf(g, domain) for g in gens]  # checked once, by replay

    snap_steps = sorted({int(t) for t in np.linspace(1, args.steps, num=min(8, args.steps))})
    configs = [
        GameConfig(domain, mode=args.mode, alpha=args.alpha),
        GameConfig(domain, mode="wa", alpha=0.0),  # the baseline
    ]
    mark("setup")
    (log, baseline), kept = replay(configs, values, outcomes, keep=snap_steps)
    mark("replay")

    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "cdf_snapshots.csv"),
        ["t", "a", "b", "d"] + [f"f_{s + 1}" for s in range(domain.d)],
        [[t] + cdf_to_row(kept[t][0]) for t in snap_steps],
    )
    final = float(log.learner_cumulative()[-1])
    base = float(baseline.learner_cumulative()[-1])
    config = {
        "method": args.method, "mode": args.mode, "alpha": args.alpha,
        "steps": args.steps, "grid": args.grid, "segments": args.segments,
    }
    metrics = {"wa_alpha0_baseline_loss": base, "loss_normalized_vs_wa_alpha0": final / base}
    metrics["bound_expression"] = "(b-a)/2*ln(N)" if args.mode == "aa" else "2*(b-a)*ln(N)"
    metrics["asleep_steps"] = log.asleep_steps
    code = _finish_run(args.out, log, "synth", config, args.seed, [], metrics)
    mark("write")

    print(f"synth: T={args.steps} mode={args.mode} alpha={args.alpha} "
          f"loss={final:.6g} bound={log.bound:.6g}")
    if code:
        print("regret bound violated", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


def _load_records(args, schema):
    """The training and test records, the inputs, their ingest counts and
    the outcome domain [0, 1.05 * max training load]; a ValueError when the
    data give no such domain (no positive load, or an end that overflows)."""
    if args.data:
        records, report = load_csv(args.data, schema)
        boundary = args.split or default_test_boundary(records)
        train, test = split_train_test(records, boundary)
        inputs = [args.data]
        reports = [("data", report.as_dict())]
    else:
        train, rep_train = load_csv(args.train, schema)
        test, rep_test = load_csv(args.test, schema)
        try:
            overlap = test[0].timestamp <= train[-1].timestamp
        except TypeError as exc:  # timezone-aware compared with naive
            raise ValueError(f"--train and --test timestamps: {exc}") from exc
        if overlap:
            raise ValueError(f"test span starts at {test[0].timestamp.isoformat()}, not after "
                             f"the training span ends ({train[-1].timestamp.isoformat()})")
        inputs = [args.train, args.test]
        reports = [("train", rep_train.as_dict()), ("test", rep_test.as_dict())]
    top = max(r.load for r in train)
    if not top > 0:
        raise ValueError("no positive load in the training span")
    return train, test, inputs, reports, GridDomain(0.0, 1.05 * top, args.grid)


def cmd_load(args) -> int:
    """Ingest, fit the roster, play the test span and write the artifacts.

    The manifest is the run's one summary: after the game's numbers it
    holds each input's ingest counts and each expert's EM fit numbers.

    The run spans four processes, at most three at a time:
    - this one, which ingests, reads the fitted models, plays the game and
      writes; it fits nothing and loads neither scipy nor numpy.random;
    - the two fit children of `build_load_roster`, which load numpy.random
      and send each fit back pickled;
    - the evaluator of `RosterStream`, forked once both fit children are
      reaped, which loads scipy's `ndtr` alone and sends each window as a
      pickled header and the rows' raw bytes.

    None of them loads OpenSSL (the process rule of `main`).
    `--timings` prints each process's CPU time and peak RSS.  An exit
    before the stream (bad ingest, a roster too small) forks no evaluator,
    and bad ingest forks nothing.  An error in a child is raised here where
    it would have been raised in this process (`roster._Forked`), so exit
    codes and stderr lines do not depend on the fork.
    """
    mark = _phase_clock(args.timings)
    children = len(child_usage)
    try:
        schema = CsvSchema(
            timestamp_col=args.timestamp_col,
            load_col=args.load_col,
            temperature_col=args.temperature_col,
            delimiter=args.delimiter,
        )
        try:
            train, test, inputs, reports, domain = _load_records(args, schema)
            game = GameConfig(domain, mode=args.mode, alpha=args.alpha)
        except (OSError, ValueError) as exc:  # such as a domain too narrow for a finite eta
            print(f"cannot ingest data: {exc}", file=sys.stderr)
            return 3
        mark("ingest")

        experts, failures = build_load_roster(train, components=args.components, seed=args.seed)
        for name, reason in failures:
            print(f"roster fit failed for {name}: {reason}", file=sys.stderr)
        if len(experts) < 2 or (failures and failures[0][0] == "expert01_anytime"):
            print("roster too small to aggregate", file=sys.stderr)
            return 3
        mark("fit")

        # each hour is forecast from the temperature of the hour before; the
        # game reads no other training record, so none is kept through it
        temps = [train[-1].temperature] + [rec.temperature for rec in test[:-1]]
        del train
        with RosterStream(experts, temps, domain) as forecasts:
            outcomes = [min(max(rec.load, domain.a), domain.b) for rec in test]
            clipped = sum(y != rec.load for y, rec in zip(outcomes, test))
            if clipped:
                logger.warning("%d test outcomes clipped into [%g, %g]",
                               clipped, domain.a, domain.b)
            confidences = roster_confidences(experts, [rec.timestamp for rec in test],
                                             args.confidence)
            band_steps = [t for t, rec in enumerate(test, start=1)
                          if rec.timestamp.hour == args.band_hour]
            try:
                (log,), kept = replay([game], forecasts, outcomes, confidences,
                                      keep=band_steps)
            except ConditioningError as exc:
                print(f"cannot forecast the test span: {exc}", file=sys.stderr)
                return 3
        mark("replay")
        if args.timings:  # within the replay phase: the game's wait on the roster
            print(f"timing replay_wait_first: {forecasts.first_wait:.6f} s", file=sys.stderr)
            print(f"timing replay_wait: {forecasts.wait:.6f} s", file=sys.stderr)

        expert_dir = os.path.join(args.out, "experts")
        os.makedirs(expert_dir, exist_ok=True)
        for e in experts:
            with open(os.path.join(expert_dir, f"{e.name}.txt"), "w", encoding="utf-8") as fh:
                fh.write(e.model.to_text())
        _write_csv(
            os.path.join(args.out, "quantile_bands.csv"),
            ["t", "timestamp"] + [f"q{int(100 * tau):02d}" for tau in QUANTILE_LEVELS]
            + ["actual"],
            ([t, test[t - 1].timestamp.isoformat()]
             + [quantile(kept[t][0], tau) for tau in QUANTILE_LEVELS] + [outcomes[t - 1]]
             for t in band_steps),
        )

        config = {
            "mode": args.mode, "confidence": args.confidence, "alpha": args.alpha,
            "grid": args.grid, "components": args.components,
            "band_hour": args.band_hour,
        }
        average = float(log.learner_cumulative()[-1] / log.steps)
        em_rows = [(e.fit_points, len(e.fit_history), e.fit_history[-1],
                    em_hit_max_iter(e.fit_history)) for e in experts]
        metrics = {
            "n_experts": len(experts),
            "n_fit_failures": len(failures),
            "em_fits_at_max_iter": sum(row[-1] for row in em_rows),
            "domain_b": domain.b,
            "final_average_loss": average,
            "asleep_steps": log.asleep_steps,
            "test_outcomes_clipped": clipped,
            "roster_evaluations": forecasts.evaluations,
        }
        for key in reports[0][1]:
            metrics.update((f"{label}_{key}", counts[key]) for label, counts in reports)
        em_keys = ("fit_points", "em_rounds", "em_log_likelihood", "em_at_max_iter")
        for key, values in zip(em_keys, zip(*em_rows)):
            metrics.update((f"expert_{i}_{key}", v) for i, v in enumerate(values, start=1))
        code = _finish_run(
            args.out, log, "load", config, args.seed, inputs, metrics,
            names=[e.name for e in experts],
            leading={"timestamp": [rec.timestamp.isoformat() for rec in test],
                     "temperature": [rec.temperature for rec in test]},
        )
        mark("write")

        print(f"load: T={log.steps} experts={len(experts)} mode={args.mode} "
              f"confidence={args.confidence} avg_loss={average:.6g}")
        if code:
            print("discounted regret bound violated", file=sys.stderr)
        return code
    finally:
        if args.timings:
            _print_processes("load", children)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    """Run the property suites; print one line per check in `run_all`'s
    order, and exit 1 with the failures' JSON report if any check failed.

    The suite spans two processes: this one runs five checks while a
    `_Forked` child runs the discounted-regret check, the longest, on the
    other core (`verify.run_all`).  Its result and any exception it raises
    come back here, so stdout, the report and exit codes do not depend on
    the fork.  `--timings` prints each check's wall time and, on every
    exit, the child's CPU time and peak RSS, then this process's.
    """
    children = len(child_usage)
    try:
        results = verify_mod.run_all(args.seed, args.cases)
        failures = []
        for res in results:
            print(res.line())
            if args.timings:
                print(f"timing {res.name}: {res.seconds:.6f} s", file=sys.stderr)
            if not res.passed:
                failures.append({"name": res.name, "detail": res.detail,
                                 "witness": res.witness})
        if failures:
            blob = json.dumps({"failures": failures}, indent=2)
            if args.report:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(blob + "\n")
            else:
                print(blob, file=sys.stderr)
            return 1
        return 0
    finally:
        if args.timings:  # on every exit: the child reaped, then this process
            _print_processes("verify", children)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crpsmix",
        description="Online aggregation of probabilistic forecasts under CRPS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    timings_help = "print the wall time of each phase to stderr"
    game = argparse.ArgumentParser(add_help=False)  # the flags synth and load share
    game.add_argument("--mode", choices=("aa", "wa"), default="aa")
    game.add_argument("--alpha", type=float, default=0.001)
    game.add_argument("--seed", type=int, default=0)
    game.add_argument("--grid", type=int, default=1024)
    game.add_argument("--out", default=os.environ.get("CRPSMIX_OUT"))
    game.add_argument("--timings", action="store_true", help=timings_help)

    ps = sub.add_parser("synth", parents=[game], help="synthetic triangular-mixture experiment")
    ps.add_argument("--method", type=int, choices=(1, 2), required=True,
                    help="1: rotating leader, 2: smooth crossfade")
    ps.add_argument("--steps", type=int, default=3000)
    ps.add_argument("--segments", type=int, default=6)
    ps.set_defaults(func=cmd_synth)

    pl = sub.add_parser("load", parents=[game], help="hourly load forecasting experiment")
    pl.add_argument("--train", help="training CSV")
    pl.add_argument("--test", help="testing CSV")
    pl.add_argument("--data", help="single CSV to split by --split")
    pl.add_argument("--split", type=datetime.fromisoformat,
                    help="ISO timestamp boundary for --data")
    pl.add_argument("--confidence", choices=("smooth", "binary", "off"),
                    default="smooth")
    pl.add_argument("--components", type=int, default=2)
    pl.add_argument("--band-hour", type=int, default=12)
    pl.add_argument("--timestamp-col", default="timestamp")
    pl.add_argument("--load-col", default="load")
    pl.add_argument("--temperature-col", default="temperature")
    pl.add_argument("--delimiter", default=",")
    pl.set_defaults(func=cmd_load)

    pv = sub.add_parser("verify", help="run the property suites")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--cases", type=int, default=100)
    pv.add_argument("--report", help="write the JSON failure report here")
    pv.add_argument("--timings", action="store_true", help=timings_help)
    pv.set_defaults(func=cmd_verify)
    return parser


def _validate(parser, args) -> None:
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.command == "synth":
        if args.steps < 1:
            parser.error("--steps must be positive (empty run)")
        if args.segments < 1:
            parser.error("--segments must be positive")
    elif args.command == "load":
        if bool(args.data) == bool(args.train):
            parser.error("give either --data [--split] or --train with --test")
        if args.train and not args.test:
            parser.error("--train requires --test")
        if args.data and args.test:
            parser.error("--test goes with --train, not with --data")
        if args.train and args.split is not None:
            parser.error("--split goes with --data, not with --train")
        if len(args.delimiter) != 1:
            parser.error("--delimiter must be one character")
        if args.components not in (1, 2, 3):
            parser.error("--components must be 1, 2 or 3")
        if not 0 <= args.band_hour <= 23:
            parser.error("--band-hour must be an hour 0..23")
    elif args.command == "verify" and args.cases < 1:
        parser.error("--cases must be positive")
    if args.command != "verify":
        if args.grid < 2:
            parser.error("--grid must be at least 2")
        if not 0.0 <= args.alpha <= 1.0:
            parser.error("--alpha must lie in [0, 1]")
        if args.out is None:
            parser.error("need --out or the CRPSMIX_OUT environment variable")
        for flag in ("out", "data", "train", "test"):  # a manifest line holds one path
            if any(c in (getattr(args, flag, None) or "") for c in "\r\n"):
                parser.error(f"--{flag} must not contain a line break")


def main(argv=None) -> int:
    """Run one `crpsmix` command; return its exit code.

    The process rule: before anything else, `main` puts None at
    `sys.modules["_hashlib"]` unless an entry is there, so a process that
    already loaded OpenSSL's hashlib keeps it.  The `secrets` -> `hmac` ->
    `hashlib` imports that `numpy.random` makes then take CPython's builtin
    hashes, and no command maps OpenSSL's libcrypto (~3.4 MB): not `synth`
    or `verify`, whose draws import numpy.random here, nor any process a
    command forks, which inherits the entry.  `config_hash` takes its
    SHA-256 from the builtin module either way.
    """
    sys.modules.setdefault("_hashlib", None)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # such as a --grid too large to allocate
        print(f"cannot allocate: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
