#!/usr/bin/env python3
"""Sweep the fixed-share parameter on one synthetic rotating-leader stream
and print final losses for both aggregation rules, normalized by the
averaging rule at alpha=0.  All 16 games are replayed in one pass."""

import argparse

from crpsmix.data import default_generators, rotating_leader_schedule, synth_stream
from crpsmix.experts import triangular_cdf
from crpsmix.game import GameConfig, replay
from crpsmix.grids import GridDomain, cdf_values

ALPHAS = (0.0, 0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.2)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=3000)
    ap.add_argument("--segments", type=int, default=6)
    ap.add_argument("--grid", type=int, default=256)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    domain = GridDomain(0.0, 1.0, args.grid)
    gens = default_generators()
    values = cdf_values([triangular_cdf(g, domain) for g in gens], domain)
    schedule = rotating_leader_schedule(args.steps, len(gens), args.segments)
    outcomes = synth_stream(gens, schedule, args.steps, args.seed)

    cells = [(mode, alpha) for mode in ("aa", "wa") for alpha in ALPHAS]
    logs, _ = replay(
        [GameConfig(domain, mode=mode, alpha=alpha) for mode, alpha in cells],
        values, outcomes,
    )
    final = {cell: float(log.learner_cumulative()[-1]) for cell, log in zip(cells, logs)}
    base = final[("wa", 0.0)]
    print(f"stream: T={args.steps}, segments={args.segments}, seed={args.seed}; "
          f"normalizer (wa, alpha=0): {base:.4f}")
    header = "alpha".ljust(8) + "".join(f"{a:>10g}" for a in ALPHAS)
    print(header)
    for mode in ("aa", "wa"):
        row = mode.ljust(8)
        for alpha in ALPHAS:
            row += f"{final[(mode, alpha)] / base:>10.3f}"
        print(row)


if __name__ == "__main__":
    main()
