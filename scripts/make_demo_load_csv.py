#!/usr/bin/env python3
"""Write a synthetic hourly load/temperature CSV in the format the `load`
subcommand ingests, for trying the pipeline without a real dataset.  The
temperature-load relation shifts with season and hour of day, so the
calendar-specialized experts have something to specialize on.  Needs
`crpsmix` importable (installed, or PYTHONPATH=src)."""

import argparse
from datetime import datetime

from crpsmix.data import write_demo_load_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--hours", type=int, default=3 * 8760,
                    help="series length (default three years)")
    ap.add_argument("--start", default="2006-01-01T00:00:00")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default="demo_load.csv")
    args = ap.parse_args()

    write_demo_load_csv(args.out, args.hours, datetime.fromisoformat(args.start), args.seed)
    print(f"wrote {args.hours} hourly rows to {args.out}")


if __name__ == "__main__":
    main()
