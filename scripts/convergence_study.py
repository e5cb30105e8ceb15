#!/usr/bin/env python3
"""Measure the convergence order of the approximate compiler back-ends.

Runs the first-order product formula (expected slope -1) and the
group-commutator synthesis (expected slope -1/2) on a non-commuting
generator pair, printing error versus slice count and the fitted slope.

Usage: python scripts/convergence_study.py [--t 0.9] [--csv out.csv]
"""
import argparse
import csv
import sys

import numpy as np

from thermoforge import (
    Spectrum,
    compile_bch,
    compile_trotter,
    energy_blocks,
    expm_skew,
    reconstruct,
)
from thermoforge.generators import ElementaryGenerator


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t", type=float, default=0.9)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    s = Spectrum.from_energies([0.0])
    c = Spectrum.from_energies([0.0, 0.0])
    blocks = energy_blocks(s, c)
    e = float(blocks.reps[0])
    a, b = blocks.pairs(blocks.members(0))
    gh = ElementaryGenerator("h", e, a, b)
    gm = ElementaryGenerator("m", e, a, b)
    jm, km = gh.matrix(blocks.dims), gm.matrix(blocks.dims)

    rows = []

    coeffs = {gh: 0.8, gm: 0.6}
    target = expm_skew(args.t * (0.8 * jm + 0.6 * km))
    ms = [8, 16, 32, 64, 128, 256]
    errs = []
    for m in ms:
        seq = compile_trotter(coeffs, args.t, m, blocks.dims)
        err = np.linalg.norm(reconstruct(seq) - target)
        errs.append(err)
        rows.append({"backend": "product-formula", "m": m, "error": err})
    slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
    print("product formula: m, error")
    for m, err in zip(ms, errs):
        print(f"  {m:>5} {err:.3e}")
    print(f"  fitted slope {slope:.3f} (expected -1)\n")

    target = expm_skew(args.t * (jm @ km - km @ jm))
    ms = [16, 64, 256, 1024, 4096]
    errs = []
    for m in ms:
        seq = compile_bch(gh, gm, args.t, m, blocks.dims)
        err = np.linalg.norm(reconstruct(seq) - target)
        errs.append(err)
        rows.append({"backend": "group-commutator", "m": m, "error": err})
    slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
    print("group commutator: m, error")
    for m, err in zip(ms, errs):
        print(f"  {m:>5} {err:.3e}")
    print(f"  fitted slope {slope:.3f} (expected -0.5)")

    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=["backend", "m", "error"])
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
