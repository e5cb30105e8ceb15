"""Workload definitions: seeded input generation, CLI argv and the
reference check of every op.

Inputs are drawn in rounds.  A round holds one op of each size class in
a seeded order, so every run sees the same mix of sizes and the seed
only changes the concrete instances (see ApproxCompile for the one
workload whose cost is not set by a size).  This keeps medians and tail
percentiles comparable across seeds.  Input files are written with
numpy and json alone; the program reads only those files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

TROTTER_ACCURACY = 3e-3
BCH_ACCURACY = 1e-1
VERIFY_TRIALS = 20


@dataclass
class Op:
    """One closed-loop op: CLI calls run back to back, then one check.

    `check` gets (exit code, stdout) per call and returns None when the
    output matches the reference, else the reason it does not."""

    kind: str
    calls: list[list[str]]
    check: Callable[[list[tuple[int, str]]], str | None]


def _report(out: tuple[int, str]) -> tuple[int, dict | None]:
    code, text = out
    try:
        return code, json.loads(text)
    except ValueError:
        return code, None


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _haar(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_unitary(rng, es, ec) -> np.ndarray:
    """Haar-random unitary on each joint level set of equal integer energy."""
    total = np.add.outer(es, ec).ravel()
    u = np.zeros((total.size, total.size), dtype=complex)
    for e in np.unique(total):
        idx = np.flatnonzero(total == e)
        u[np.ix_(idx, idx)] = _haar(rng, idx.size)
    return u


def _compile_files(d: Path, tag: str, es, ec, u) -> dict:
    return {
        "system": _write(d / f"{tag}-sys.json", {"energies": [float(x) for x in es]}),
        "catalyst": _write(d / f"{tag}-cat.json", {"energies": [float(x) for x in ec]}),
        "unitary": _write(d / f"{tag}-u.json", {"re": u.real.tolist(), "im": u.imag.tolist()}),
        "out": str(d / f"{tag}-seq.json"),
    }


def _compile_argv(files: dict, method: str, accuracy: float | None = None) -> list[str]:
    argv = ["compile", "--system", files["system"], "--catalyst", files["catalyst"],
            "--unitary", files["unitary"], "--method", method, "--out", files["out"]]
    if accuracy is not None:
        argv += ["--accuracy", repr(accuracy)]
    return argv


def _check_sequence(out, files: dict, u, dims, tol) -> str | None:
    code, report = _report(out)
    if code != 0:
        return f"compile exited {code}"
    try:
        seq = json.loads(Path(files["out"]).read_text())
    except (OSError, ValueError) as e:
        return f"unreadable sequence file: {e}"
    return reference.check_compile(code, report, seq, u, dims, tol)


class Workload:
    name: str
    why: str

    def round_ops(self, rng, d: Path) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self, rng, d: Path) -> list[Op]:
        """One untimed op of each kind, paid for in set-up."""
        raise NotImplementedError


class CompileRun(Workload):
    name = "compile_run"
    why = ("exact compile then simulate --rethermalize, joint dim 30-108: dense "
           "per-gate application in channels.run_gc_eto and compiler.reconstruct")
    # (system dim, catalyst dim) per round: joint dims 30, 48, 70, 90, 108.
    # Five classes put the median in the middle class and the 90th
    # percentile in the middle of the largest, away from a class boundary.
    DIMS = ((3, 10), (4, 12), (5, 14), (6, 15), (6, 18))
    ENERGIES = 4  # integer energies 0..3

    def _energies(self, rng, dim: int) -> np.ndarray:
        # Each energy used equally often, in seeded order: the block sizes,
        # and so the gate count and op cost, depend on the dims alone.
        return rng.permutation(np.arange(dim) % self.ENERGIES)

    def _op(self, rng, d: Path, tag: str, ds: int, dc: int) -> Op:
        es, ec = self._energies(rng, ds), self._energies(rng, dc)
        u = block_unitary(rng, es, ec)
        p = rng.dirichlet(np.ones(ds))
        files = _compile_files(d, tag, es, ec, u)
        state = _write(d / f"{tag}-p.json", {"populations": p.tolist()})
        expected = reference.simulated_populations(u, p, ec)
        calls = [
            _compile_argv(files, "exact"),
            ["simulate", "--state", state, "--catalyst", files["catalyst"],
             "--gates", files["out"], "--rethermalize"],
        ]

        def check(outs):
            if len(outs) != 2:
                return f"compile exited {outs[0][0]}"
            return (_check_sequence(outs[0], files, u, (ds, dc), reference.EXACT_TOL)
                    or reference.check_simulate(*_report(outs[1]), expected))
        return Op("compile_run", calls, check)

    def round_ops(self, rng, d):
        return [self._op(rng, d, f"op{i}", *self.DIMS[k])
                for i, k in enumerate(rng.permutation(len(self.DIMS)))]

    def warmup_ops(self, rng, d):
        return [self._op(rng, d, "warm", *self.DIMS[0])]


class ApproxCompile(Workload):
    """The slice count m of a Haar-random unitary ranges over 4..1024 and
    op time follows it, so independent draws per run gave seed-to-seed
    spreads of 13% (ops_per_s) and 21% (op_p90_s).  Every round therefore
    runs one fixed pool of Haar-random unitaries.  The seed sets the order
    and, per unitary, a symmetry that leaves m unchanged.  Swapping the two
    energy blocks keeps m for both methods, since gates of different blocks
    commute.  For trotter, complex conjugation and swapping the levels
    inside a block map each slice to its conjugate or permuted image, so
    the error is the same; for bch they reorder a commutator pair and can
    change m, so bch uses the block swap only."""

    name = "approx_compile"
    why = ("trotter 3e-3 and bch 1e-1 compiles of joint dim 4, blocks [2,2]: tens of "
           "thousands of 4x4 gates and the CLI's slice-doubling loop")
    SYSTEM_ENERGIES = (0.0, 1.0)
    CATALYST_ENERGIES = (0.0, 0.0)
    POOL_SEED, POOL_SIZE = 2024, 25
    METHODS = (("trotter", TROTTER_ACCURACY), ("bch", BCH_ACCURACY))

    def __init__(self):
        rng = np.random.default_rng(self.POOL_SEED)
        es, ec = np.array(self.SYSTEM_ENERGIES), np.array(self.CATALYST_ENERGIES)
        self.pool = [(method, accuracy, block_unitary(rng, es, ec))
                     for _ in range(self.POOL_SIZE) for method, accuracy in self.METHODS]

    @staticmethod
    def _variant(rng, method: str, u: np.ndarray) -> np.ndarray:
        order = np.arange(4)
        if rng.random() < 0.5:
            order = order[[2, 3, 0, 1]]
        if method == "trotter":
            for block in ([0, 1], [2, 3]):
                if rng.random() < 0.5:
                    order[block] = order[block[::-1]]
        v = u[np.ix_(order, order)]
        return v.conj() if method == "trotter" and rng.random() < 0.5 else v

    def _op(self, d: Path, tag: str, method: str, accuracy: float, u: np.ndarray) -> Op:
        files = _compile_files(d, tag, self.SYSTEM_ENERGIES, self.CATALYST_ENERGIES, u)
        dims = (len(self.SYSTEM_ENERGIES), len(self.CATALYST_ENERGIES))
        return Op(method, [_compile_argv(files, method, accuracy)],
                  lambda outs: _check_sequence(outs[0], files, u, dims, accuracy))

    def round_ops(self, rng, d):
        return [self._op(d, f"op{i}", method, accuracy, self._variant(rng, method, u))
                for i, (method, accuracy, u) in
                enumerate(self.pool[k] for k in rng.permutation(len(self.pool)))]

    def warmup_ops(self, rng, d):
        # A 10x looser accuracy: the warm-up pays the lazy scipy import and
        # first calls, not thousands of gates.
        es, ec = np.array(self.SYSTEM_ENERGIES), np.array(self.CATALYST_ENERGIES)
        return [self._op(d, f"warm-{method}", method, 10 * accuracy, block_unitary(rng, es, ec))
                for method, accuracy in self.METHODS]


class CoolingSweep(Workload):
    name = "cooling_sweep"
    why = ("cool --sweep 2..Dmax, Dmax 9-13, default 2-thread pool: no dense gate, "
           "time goes to GateStep churn, Spectrum construction and the TO oracle")
    D_MAX = (9, 10, 11, 12, 13)

    def _op(self, d_max: int) -> Op:
        return Op("cool", [["cool", "--sweep", f"2..{d_max}"]],
                  lambda outs: reference.check_cooling(*_report(outs[0]), d_max))

    def round_ops(self, rng, d):
        return [self._op(int(x)) for x in rng.permutation(self.D_MAX)]

    def warmup_ops(self, rng, d):
        return [self._op(self.D_MAX[0])]


class VerifySuites(Workload):
    name = "verify_suites"
    why = ("verify --suite all --trials 20 with a per-op seed: the only workload that "
           "reaches lie_closure, thermo_majorizes and apply_TO on many tiny instances")

    def round_ops(self, rng, d):
        seed = int(rng.integers(1 << 31))
        return [Op("verify",
                   [["verify", "--suite", "all", "--trials", str(VERIFY_TRIALS),
                     "--seed", str(seed)]],
                   lambda outs: reference.check_verify(*_report(outs[0]), seed))]

    warmup_ops = round_ops


WORKLOADS = {w.name: w for w in (CompileRun(), CoolingSweep(), ApproxCompile(), VerifySuites())}
