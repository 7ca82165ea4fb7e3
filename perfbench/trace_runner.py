"""Traced CLI run: time the calls into each crpsmix module from outside.

Usage (from the repository root, with PYTHONPATH=src):

    python3 perfbench/trace_runner.py --spans SPANS.json --run-id ID -- <crpsmix CLI args>

The runner imports crpsmix, installs pass-through wrappers on the public
functions listed in HOOKS, then calls ``crpsmix.cli.main(argv)`` in this
process.  Every wrapped call becomes a span (name, start, end, parent span);
spans stay in memory and are written to SPANS.json when the run ends, next to
the counters the wrappers observe.  The program's own code is not changed:
wrappers are installed by object identity, so a function that ``cli.py`` or
``game.py`` imported by name is wrapped wherever it is bound.

A hook whose target no longer exists is reported as ``absent``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
import types

#: (span name, module, attribute path).  The span name is the layer and the
#: function, as the per-layer metrics name them.  Several targets may share a
#: span name; their calls then count as one.  "{module}" in a name marks a
#: library function: each crpsmix module that binds it gets a timer named
#: after that module, which counts calls and seconds but opens no span, so the
#: time stays in the calling function's self time.
HOOKS = (
    ("data.load_csv", "crpsmix.data", "load_csv"),
    ("data.split_train_test", "crpsmix.data", "split_train_test"),
    ("experts.fit_gmm_em", "crpsmix.experts", "fit_gmm_em"),
    ("experts.conditional_load_cdf", "crpsmix.experts", "conditional_load_cdf"),
    ("experts.triangular_cdf", "crpsmix.experts", "triangular_cdf"),
    ("roster.build_load_roster", "crpsmix.roster", "build_load_roster"),
    ("roster.roster_confidences", "crpsmix.roster", "roster_confidences"),
    ("roster.roster_forecasts", "crpsmix.roster", "roster_forecasts"),
    ("grids.GridCDF", "crpsmix.grids", "GridCDF.__post_init__"),
    ("grids.crps", "crpsmix.grids", "crps"),
    ("grids.crps_rows", "crpsmix.grids", "crps_rows"),
    ("aggregation.substitute_crps_aa", "crpsmix.aggregation", "substitute_crps_aa"),
    ("aggregation.combine_wa", "crpsmix.aggregation", "combine_wa"),
    ("aggregation.confidence_reweight", "crpsmix.aggregation", "confidence_reweight"),
    ("aggregation.update_weights_confidence", "crpsmix.aggregation", "update_weights_confidence"),
    ("aggregation.update_weights", "crpsmix.aggregation", "update_weights"),
    ("aggregation.mix_past_posteriors", "crpsmix.aggregation", "mix_past_posteriors"),
    ("aggregation.normalized_weights", "crpsmix.aggregation", "normalized_weights"),
    # scipy's logsumexp, timed per crpsmix module that binds it.
    ("{module}.logsumexp", "scipy.special", "logsumexp"),
    ("game.step", "crpsmix.game", "OnlineGame.step"),
    ("game.GameLog.to_csv", "crpsmix.game", "GameLog.to_csv"),
    ("game.regret_report", "crpsmix.game", "regret_report"),
    ("game.run_square_loss_game", "crpsmix.game", "run_square_loss_game"),
    ("cli.cmd", "crpsmix.cli", "cmd_load"),
    ("cli.cmd", "crpsmix.cli", "cmd_synth"),
    ("cli.cmd", "crpsmix.cli", "cmd_verify"),
    ("cli.write", "crpsmix.cli", "_write_csv"),
    ("cli.write", "crpsmix.cli", "RunManifest.write"),
    ("verify.check_crps_mixability", "crpsmix.verify", "check_crps_mixability"),
    ("verify.check_wa_exp_concavity", "crpsmix.verify", "check_wa_exp_concavity"),
    ("verify.check_vector_mixability", "crpsmix.verify", "check_vector_mixability"),
    ("verify.check_square_loss_regret", "crpsmix.verify", "check_square_loss_regret"),
    ("verify.check_crps_game_bounds", "crpsmix.verify", "check_crps_game_bounds"),
    ("verify.check_discounted_regret", "crpsmix.verify", "check_discounted_regret"),
)


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.timers: dict[str, list] = {}  # name -> [calls, seconds]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, observe=None):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_idx = self._name_index[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_idx, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def timed(self, name: str, fn):
        timer = self.timers.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timer[0] += 1
                timer[1] += clock() - t0

        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        blob = {"run_id": self.run_id, "names": self.names, "spans": self.spans,
                "counters": self.counters, "timers": self.timers, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, separators=(",", ":"))


# numpy is imported inside the observers rather than at the top of this
# module, so that import_s, timed around the crpsmix import, still covers it.


def _observe_load_csv(rec, args, kwargs, result):
    rec.count("data.load_csv.rows", len(result[0]))


def _observe_forecasts(rec, args, kwargs, result):
    rec.count("roster.forecasts_served", len(result))


def _observe_confidences(rec, args, kwargs, result):
    import numpy as np

    p = np.asarray(result)
    rec.count("roster.confidences", int(p.size))
    rec.count("roster.confidences_zero", int(np.count_nonzero(p == 0.0)))


def _observe_step(rec, args, kwargs, result):
    import numpy as np

    game = args[0]
    p = args[3] if len(args) > 3 else kwargs.get("confidences")
    enabled = getattr(getattr(game, "config", None), "confidence_enabled", True)
    if p is not None and enabled and not np.any(np.asarray(p, dtype=float) > 0):
        rec.count("game.all_asleep_steps")


OBSERVERS = {
    "data.load_csv": _observe_load_csv,
    "roster.roster_forecasts": _observe_forecasts,
    "roster.roster_confidences": _observe_confidences,
    "game.step": _observe_step,
}


def _crpsmix_modules():
    return [m for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (name == "crpsmix" or name.startswith("crpsmix."))]


def _functions_in(modules):
    """Every plain function defined at module level or in a class of these
    modules: the holders of default arguments a wrapper may need to replace."""
    seen = {}
    for mod in modules:
        for value in list(vars(mod).values()):
            members = vars(value).values() if isinstance(value, type) else (value,)
            for fn in members:
                if isinstance(fn, types.FunctionType):
                    seen[id(fn)] = fn
    return list(seen.values())


def install(recorder: Recorder, hooks=HOOKS) -> dict[str, str]:
    """Wrap every hook target and return {module:attr: "installed"|"absent"}.

    A module-level target is rebound in every crpsmix module that holds the
    same object, and replaced where it is a default argument of a crpsmix
    function.  A method is replaced on its class.
    """
    import importlib

    modules = _crpsmix_modules()
    functions = _functions_in(modules)
    status = {}
    for name, module_name, attr_path in hooks:
        key = f"{module_name}:{attr_path}"
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            target = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            status[key] = "absent"
            continue
        per_module = "{module}" in name
        shared = None if per_module else recorder.wrap(name, target, OBSERVERS.get(name))
        bound = 0
        if isinstance(owner, type):
            setattr(owner, attr, shared)
            bound = 1
        else:
            for mod in modules:
                for var, value in list(vars(mod).items()):
                    if value is target:
                        short = mod.__name__.rpartition(".")[2]
                        setattr(mod, var, recorder.timed(name.format(module=short), target)
                                if per_module else shared)
                        bound += 1
            for fn in [] if per_module else functions:
                if fn.__defaults__ and any(d is target for d in fn.__defaults__):
                    fn.__defaults__ = tuple(shared if d is target else d
                                            for d in fn.__defaults__)
                    bound += 1
        status[key] = "installed" if bound else "absent"
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="write spans and counters here")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import crpsmix.cli  # every crpsmix module, as the CLI loads them

    import_s = time.perf_counter() - t0
    recorder = Recorder(args.run_id)
    hooks = install(recorder)
    try:
        code = crpsmix.cli.main(cli_args)
    except SystemExit as exc:  # argparse errors; sys.exit() means success
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # reported like an uncaught error of the CLI itself
        traceback.print_exc()
        code = 1
    recorder.dump(args.spans, {"import_s": import_s, "hooks": hooks, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
