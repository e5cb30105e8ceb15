#!/usr/bin/env python3
"""Walk through the cooling instance end to end for one catalyst size:
build the catalyst and gate list, run the process, and print the catalysis
verdicts before and after the catalyst is rethermalized.

Usage: python scripts/catalysis_demo.py [--D 3]
"""
import argparse
import sys

import numpy as np

from thermoforge import build_cooling_instance, run_gc_eto
from thermoforge.cooling import DEFAULT_INPUT, closed_form


def show(title, v):
    print(f"{title}:")
    print(f"  strict                    {v.strict}")
    print(f"  correlated                {v.correlated}")
    print(f"  catalyst marginal dist.   {v.catalyst_marginal_distance:.3e}")
    print(f"  product defect            {v.product_defect:.3e}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--D", type=int, default=3)
    args = ap.parse_args()

    inst = build_cooling_instance(args.D)
    print(f"catalyst dimension {inst.catalyst.dim}, "
          f"{len(inst.gates)} two-level gates")

    sigma, pre, post = run_gc_eto(
        DEFAULT_INPUT.to_dense(), inst.catalyst, inst.gates, system=inst.system
    )
    pops = np.real(np.diag(sigma))
    print(f"input populations   {DEFAULT_INPUT.populations}")
    print(f"output populations  {np.round(pops, 10)}")
    ground, excited, _ = closed_form(args.D)
    print(f"closed form         ({ground}, {excited}, {excited})\n")
    show("before rethermalizing", pre)
    show("after rethermalizing", post)
    return 0


if __name__ == "__main__":
    sys.exit(main())
