#!/usr/bin/env python3
"""Sweep the cooling instance over catalyst sizes and report how the ground
population approaches 1, alongside the closed form and the unitary-bath
optimum.

Usage: python scripts/cooling_sweep.py [--max-d 16] [--csv out.csv]
"""
import argparse
import csv
import sys

from thermoforge import max_ground_population_TO, run_cooling
from thermoforge.cooling import DEFAULT_INPUT, SYSTEM_SPECTRUM, build_cooling_catalyst, closed_form


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-d", type=int, default=16)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    rows = []
    for d in range(2, args.max_d + 1):
        final, inv = run_cooling(d)
        oracle = max_ground_population_TO(
            DEFAULT_INPUT, SYSTEM_SPECTRUM, build_cooling_catalyst(d)
        )
        rows.append({
            "D": d,
            "catalyst_dim": (1 << d) - 1,
            "ground": final.populations[0],
            "closed_form": closed_form(d)[0],
            "invariant_level": inv,
            "to_optimum": oracle,
        })

    print(f"{'D':>3} {'dim':>6} {'ground':>12} {'1-1/D':>12} {'optimum':>12}")
    for r in rows:
        print(f"{r['D']:>3} {r['catalyst_dim']:>6} {r['ground']:>12.9f} "
              f"{r['closed_form']:>12.9f} {r['to_optimum']:>12.9f}")

    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
