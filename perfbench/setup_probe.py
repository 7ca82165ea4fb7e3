"""Set-up probe: time ``import crpsmix`` plus a workload's public set-up calls.

Usage (from the repository root, with PYTHONPATH=src; one fresh process per
probe, no wrappers installed):

    python3 perfbench/setup_probe.py load CSV SPLIT_ISO
    python3 perfbench/setup_probe.py synth SEED STEPS GRID SEGMENTS
    python3 perfbench/setup_probe.py verify

Prints one JSON object: {"setup_s": ..., "import_s": ...}.  The calls and
their arguments are the ones ``crpsmix load`` / ``crpsmix synth`` make
before their replay loops, so work moved out of a replay into fitting shows
here.
"""

import json
import sys
import time


def main(argv) -> int:
    kind, rest = argv[0], argv[1:]
    t0 = time.perf_counter()
    import crpsmix

    t_import = time.perf_counter()
    if kind == "load":
        from datetime import datetime

        csv_path, split = rest
        records, _ = crpsmix.load_csv(csv_path)
        train, _ = crpsmix.split_train_test(records, datetime.fromisoformat(split))
        crpsmix.build_load_roster(train, components=2, seed=0, confidence="smooth")
    elif kind == "synth":
        seed, steps, grid, segments = (int(x) for x in rest)
        gens = crpsmix.default_generators()
        schedule = crpsmix.rotating_leader_schedule(steps, len(gens), segments)
        crpsmix.synth_stream(gens, schedule, steps, seed)
        domain = crpsmix.GridDomain(0.0, 1.0, grid)
        for g in gens:
            crpsmix.triangular_cdf(g, domain)
    elif kind != "verify":
        print(f"unknown workload kind {kind!r}", file=sys.stderr)
        return 2
    t_end = time.perf_counter()
    print(json.dumps({"setup_s": t_end - t0, "import_s": t_import - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
