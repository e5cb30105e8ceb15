"""Command-line frontend: compile, cool, verify, curve, simulate.

Exit codes: 0 success, 2 parse failure, 3 domain violation, 4 capacity,
5 coherence guard.  Every command prints one RunReport as JSON; reruns
are byte-identical modulo the wall_time field.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import cooling
from .compiler import GateSequence, compile_approximate, compile_exact, reconstruct
from .errors import (
    CapacityError,
    CoherenceError,
    DomainError,
    FormatError,
    PreconditionError,
    ShapeError,
)
from .linalg import frobenius_distance
from .majorization import max_ground_population_TO, thermo_curve, thermo_majorizes
from .channels import STRICT_TOL, run_gc_eto
from .thermal import DiagonalState, Spectrum, energy_blocks, gibbs_state
from .verify import SUITES, run_suites

DEFAULT_SEED = 7
COHERENCE_TOL = 1e-10  # largest off-diagonal mass of a state read as diagonal
COOL_TOL = 1e-12  # closed-form, invariant and TO-limit deviation of a cool row


@dataclass
class RunReport:
    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    def add_check(self, name: str, passed: bool, measured: float, tolerance: float) -> None:
        self.checks.append(
            {"name": name, "pass": bool(passed), "measured": float(measured),
             "tolerance": float(tolerance)}
        )

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def emit(self) -> int:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": self.checks,
            "wall_time": self.wall_time,
        }
        sys.stdout.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return 0 if self.all_pass else 1


def _load_json(path: str):
    with open(path) as f:
        return json.load(f)


def _complex_array(obj) -> np.ndarray:
    """re + 1j * im of a matrix or state object; re and im of one shape."""
    re, im = np.array(obj["re"], dtype=float), np.array(obj["im"], dtype=float)
    if re.shape != im.shape:
        raise ShapeError(f"'re' has shape {re.shape} but 'im' has shape {im.shape}")
    return re + 1j * im


def _load_matrix(path: str) -> np.ndarray:
    obj = _load_json(path)
    if "re" not in obj or "im" not in obj:
        raise KeyError("matrix JSON needs 're' and 'im' keys")
    return _complex_array(obj)


def _load_state(path: str, coherence_guard: bool = False):
    """Returns (dense matrix, populations-or-None)."""
    obj = _load_json(path)
    if "populations" in obj:
        p = DiagonalState(np.array(obj["populations"], dtype=float))
        return p.to_dense(), p
    rho = _complex_array(obj)
    off = rho - np.diag(np.diag(rho))
    if coherence_guard and np.abs(off).sum() > COHERENCE_TOL:
        raise CoherenceError(
            f"state has off-diagonal mass {np.abs(off).sum():.3e}; "
            "dephasing is not silently applied"
        )
    if np.abs(off).sum() <= COHERENCE_TOL:
        return rho, DiagonalState(np.clip(np.real(np.diag(rho)), 0, None))
    return rho, None


def _seed_from_env(default: int) -> int:
    return int(os.environ.get("THERMOFORGE_SEED", default))


# ---------------------------------------------------------------- compile

def cmd_compile(args) -> int:
    t0 = time.perf_counter()
    spec_s = Spectrum.from_json(args.system)
    spec_c = Spectrum.from_json(args.catalyst)
    u = _load_matrix(args.unitary)
    blocks = energy_blocks(spec_s, spec_c)
    report = RunReport(
        command="compile",
        inputs={"system": args.system, "catalyst": args.catalyst,
                "unitary": args.unitary, "method": args.method,
                "accuracy": args.accuracy},
    )
    if args.method == "exact":
        seq = compile_exact(u, blocks)
        err = frobenius_distance(reconstruct(seq), u)
        report.add_check("reconstruction_error", err < 1e-8, err, 1e-8)
    else:
        seq, err = compile_approximate(u, blocks, args.method, args.accuracy)
        report.outputs["trotter_m"] = seq.trotter_m
        report.add_check("reconstruction_error", err < args.accuracy, err, args.accuracy)
    report.outputs["gate_count"] = len(seq)
    report.outputs["layers"] = seq.layers
    report.outputs["sizes"] = {"joint_dim": blocks.joint_dim,
                               "block_sizes": blocks.block_sizes(),
                               "slice_gates": len(seq.kinds)}
    report.outputs["method"] = seq.method
    report.outputs["error_bound"] = seq.error_bound
    if args.out:
        seq.save(args.out)
        report.outputs["sequence_file"] = args.out
    report.wall_time = time.perf_counter() - t0
    return report.emit()


# ---------------------------------------------------------------- cool

def _cool_row(d: int) -> dict:
    catalyst = cooling.build_cooling_catalyst(d)
    tau_c = gibbs_state(catalyst)
    final, inv = cooling.run_cooling(d, tau_c=tau_c)
    oracle = max_ground_population_TO(cooling.DEFAULT_INPUT, cooling.SYSTEM_SPECTRUM,
                                      catalyst, tau_c=tau_c)
    g, e1, e2 = (float(x) for x in final.populations)
    to_limit_dev = abs(oracle - g)
    return {
        "D": d,
        "ground": g,
        "excited1": e1,
        "excited2": e2,
        "invariant_level_population": inv,
        "closed_form_dev": max(abs(g - (1 - 1 / d)), abs(e1 - 1 / (2 * d)),
                               abs(e2 - 1 / (2 * d))),
        "invariant_dev": abs(inv - 2.0 ** (-d) / d),
        "to_limit_dev": to_limit_dev,
        "to_limit_check": bool(to_limit_dev < COOL_TOL),
    }


def _parse_sweep(text: str) -> list[int]:
    """`lo..hi` with lo <= hi, as the inclusive list of catalyst sizes."""
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if match is None:
        raise DomainError(f"--sweep must be lo..hi with integers lo <= hi, got {text!r}")
    lo, hi = int(match[1]), int(match[2])
    if lo > hi:
        raise DomainError(f"--sweep bounds are reversed in {text!r}")
    if hi > cooling.MAX_D_DIAGONAL:
        raise CapacityError(
            f"--sweep {text!r} exceeds the diagonal-path cap D <= {cooling.MAX_D_DIAGONAL}"
        )
    return list(range(lo, hi + 1))


def cmd_cool(args) -> int:
    t0 = time.perf_counter()
    if args.sweep:
        ds = _parse_sweep(args.sweep)
    else:
        if args.D is None:
            raise DomainError("either --D or --sweep is required")
        ds = [args.D]
    rows = [_cool_row(d) for d in ds]
    report = RunReport(command="cool", inputs={"D": ds, "csv": args.csv})
    for row in rows:
        report.add_check(f"q_prime_closed_form_D{row['D']}",
                         row["closed_form_dev"] < COOL_TOL, row["closed_form_dev"], COOL_TOL)
        report.add_check(f"invariant_level_population_D{row['D']}",
                         row["invariant_dev"] < COOL_TOL, row["invariant_dev"], COOL_TOL)
        report.add_check(f"to_limit_check_D{row['D']}", row["to_limit_check"],
                         row["to_limit_dev"], COOL_TOL)
    report.outputs["rows"] = rows
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)
        report.outputs["csv_file"] = args.csv
    report.wall_time = time.perf_counter() - t0
    return report.emit()


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.trials < 0:
        raise DomainError(f"--trials must be nonnegative, got {args.trials}")
    seed = _seed_from_env(args.seed)
    report = RunReport(
        command="verify",
        inputs={"suite": args.suite, "seed": seed, "trials": args.trials},
    )
    results = run_suites(args.suite, seed, args.trials,
                         inject_failure=args.inject_failure)
    if args.trials == 0:
        report.outputs["note"] = "zero trials requested; vacuous pass"
    for r in results:
        report.add_check(r.name, r.passed, r.measured, r.tolerance)
    report.wall_time = time.perf_counter() - t0
    return report.emit()


# ---------------------------------------------------------------- curve

def cmd_curve(args) -> int:
    t0 = time.perf_counter()
    spec = Spectrum.from_json(args.spectrum)
    _, p = _load_state(args.state, coherence_guard=True)
    curve = thermo_curve(p, spec)
    report = RunReport(command="curve", inputs={"state": args.state,
                                                "spectrum": args.spectrum})
    report.outputs["vertices"] = [list(v) for v in curve.vertices]
    if args.out:
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["x", "y"])
            w.writerows(curve.vertices)
        report.outputs["csv_file"] = args.out
    if args.compare:
        _, q = _load_state(args.compare, coherence_guard=True)
        report.outputs["p_majorizes_q"] = thermo_majorizes(p, q, spec)
        report.outputs["q_majorizes_p"] = thermo_majorizes(q, p, spec)
    report.wall_time = time.perf_counter() - t0
    return report.emit()


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    rho, _ = _load_state(args.state)
    catalyst = Spectrum.from_json(args.catalyst)
    seq = GateSequence.from_json(args.gates)
    sigma, pre, post = run_gc_eto(rho, catalyst, seq, rethermalize=args.rethermalize)
    report = RunReport(
        command="simulate",
        inputs={"state": args.state, "catalyst": args.catalyst,
                "gates": args.gates, "rethermalize": args.rethermalize,
                "epsilon": args.epsilon},
    )
    report.outputs["system_populations"] = [float(x) for x in np.real(np.diag(sigma))]
    def verdict_json(v):
        return {
            "strict": v.strict,
            "correlated": v.correlated,
            "approximate": v.approximate(args.epsilon),
            "catalyst_marginal_distance": v.catalyst_marginal_distance,
            "product_defect": v.product_defect,
        }
    report.outputs["pre_verdict"] = verdict_json(pre)
    if post is not None:
        report.outputs["post_verdict"] = verdict_json(post)
        report.add_check("rethermalized_strict", post.strict,
                         post.catalyst_marginal_distance, STRICT_TOL)
    report.wall_time = time.perf_counter() - t0
    return report.emit()


# ---------------------------------------------------------------- main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    p = argparse.ArgumentParser(prog="thermoforge")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="decompose an energy-preserving unitary")
    c.add_argument("--system", required=True)
    c.add_argument("--catalyst", required=True)
    c.add_argument("--unitary", required=True)
    c.add_argument("--method", choices=("exact", "trotter", "bch"), default="exact")
    c.add_argument("--accuracy", type=float, default=1e-6)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_compile)

    c = sub.add_parser("cool", help="run the qutrit cooling instance")
    c.add_argument("--D", type=int, default=None)
    c.add_argument("--sweep", default=None, help="range lo..hi")
    c.add_argument("--csv", default=None)
    c.set_defaults(func=cmd_cool)

    c = sub.add_parser("verify", help="run the randomized invariant suites")
    c.add_argument("--suite", choices=("all",) + SUITES, default="all")
    c.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--inject-failure", action="store_true",
                   help="add a deliberately failing check (self-test)")
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("curve", help="export a beta-ordered Lorenz curve")
    c.add_argument("--state", required=True)
    c.add_argument("--spectrum", required=True)
    c.add_argument("--compare", default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_curve)

    c = sub.add_parser("simulate", help="run a gate sequence as a GC-ETO process")
    c.add_argument("--state", required=True)
    c.add_argument("--catalyst", required=True)
    c.add_argument("--gates", required=True)
    c.add_argument("--rethermalize", action="store_true")
    c.add_argument("--epsilon", type=float, default=1e-10)
    c.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as e:
        print(f"parse error: {e.msg} at line {e.lineno}, column {e.colno}", file=sys.stderr)
        return 2
    except (KeyError, FileNotFoundError, FormatError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except CoherenceError as e:
        print(f"coherence guard: {e}", file=sys.stderr)
        return 5
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 4
    except (DomainError, PreconditionError, ShapeError) as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
