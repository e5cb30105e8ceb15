"""Independent references for every benchmark op.

Nothing here imports thermoforge.  The gate-sequence interpreter is
written from the format description in docs/formats.md: closed-form 2x2
exponentials for `h`, `m` and `g_diag`, exp(-i*theta) for `p`, and the
explicit `u2` block for `givens`.  Each check returns None when the op's
output is correct and a one-line reason otherwise.
"""
from __future__ import annotations

import math

import numpy as np

EXACT_TOL = 1e-8
SIMULATE_TOL = 1e-9
COOLING_TOL = 1e-12

# `verify --suite all` check names at the commit that defined this benchmark.
VERIFY_CHECK_NAMES = (
    "kron_associative", "kron_trace_product", "partial_trace_of_product",
    "expm_skew_unitarity", "expm_skew_inverse", "trace_distance_triangle",
    "generator_commutes_with_H0", "generator_antihermitian",
    "basis_count_sum_d_squared", "basis_gram_full_rank",
    "closure_rank2_equals_full", "rank1_from_rank2_combination",
    "exact_roundtrip_error", "exact_gate_count_bound",
    "trotter_commuting_exact_m1", "trotter_error_monotone",
    "bch_equal_pair_identity", "apply_to_trace_preserving",
    "apply_to_positive", "gibbs_fixed_point", "rethermalized_strict_recovery",
    "rethermalized_product_defect", "verdict_implication_chain",
    "beta_swap_fixes_gibbs", "to_monotonicity_violations",
    "beta_swap_majorized", "curve_transitivity", "to_oracle_upper_bound",
    "q_prime_closed_form", "dense_diagonal_cross_check",
    "gate_order_independence", "to_optimality_attained",
    "catalyst_out_of_equilibrium",
)


class BadSequence(ValueError):
    """The gate-sequence JSON does not describe valid two-level gates."""


def _flat(pair, dims) -> int:
    s, c = pair
    if not (0 <= s < dims[0] and 0 <= c < dims[1]):
        raise BadSequence(f"joint index {list(pair)} out of range for dims {list(dims)}")
    return s * dims[1] + c


def _block(step) -> np.ndarray:
    """The 2x2 unitary a two-index step applies to its ordered level pair."""
    kind = step["kind"]
    if kind == "givens":
        return np.array([complex(re, im) for re, im in step["u2"]]).reshape(2, 2)
    theta = float(step["param"])
    c, s = math.cos(theta), math.sin(theta)
    if kind == "h":  # exp(theta * -i X)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "m":  # exp(theta * i Y)
        return np.array([[c, s], [-s, c]], dtype=complex)
    if kind == "g_diag":  # exp(i theta) on both levels
        return np.exp(1j * theta) * np.eye(2)
    raise BadSequence(f"unknown two-level gate kind {kind!r}")


def sequence_product(steps, dims) -> np.ndarray:
    """Ordered product of the steps, steps[0] acting first."""
    n = dims[0] * dims[1]
    u = np.eye(n, dtype=complex)
    for step in steps:
        idx = [_flat(p, dims) for p in step["indices"]]
        if step["kind"] == "p":
            if len(idx) != 1:
                raise BadSequence("a 'p' step takes one index")
            u[idx[0]] *= np.exp(-1j * float(step["param"]))
            continue
        if len(idx) != 2 or idx[0] == idx[1]:
            raise BadSequence(f"a {step['kind']!r} step takes two distinct indices")
        u[idx] = _block(step) @ u[idx]
    return u


def periodic_product(seq: dict) -> np.ndarray:
    """Product of a sequence, using slice^m when the JSON lists one slice
    repeated `trotter_m` times (checked entry by entry)."""
    steps, dims, m = seq["steps"], tuple(seq["dims"]), seq.get("trotter_m")
    if m and len(steps) % m == 0:
        period = len(steps) // m
        if all(steps[k] == steps[k % period] for k in range(period, len(steps))):
            return np.linalg.matrix_power(sequence_product(steps[:period], dims), m)
    return sequence_product(steps, dims)


def check_compile(code: int, report: dict | None, seq: dict, u: np.ndarray,
                  dims: tuple[int, int], tol: float) -> str | None:
    if code != 0 or report is None:
        return f"compile exited {code}"
    if tuple(seq["dims"]) != tuple(dims):
        return f"sequence dims {seq['dims']} != instance dims {list(dims)}"
    if report["outputs"].get("gate_count") != len(seq["steps"]):
        return "reported gate_count differs from the saved sequence"
    try:
        err = float(np.linalg.norm(periodic_product(seq) - u))
    except (BadSequence, KeyError, TypeError, ValueError) as e:
        return f"unreadable gate sequence: {e}"
    if not err < tol:
        return f"sequence product is {err:.3e} from the unitary (tolerance {tol:g})"
    return None


def simulated_populations(u: np.ndarray, p: np.ndarray, catalyst_energies) -> np.ndarray:
    """diag Tr_C[u (p ⊗ tau_C) u†] for diagonal p, with beta = 1."""
    w = np.exp(-(np.asarray(catalyst_energies) - np.min(catalyst_energies)))
    joint = np.kron(p, w / w.sum())
    out = (np.abs(u) ** 2) @ joint
    return out.reshape(len(p), len(w)).sum(axis=1)


def check_simulate(code: int, report: dict | None, expected: np.ndarray) -> str | None:
    if code != 0 or report is None:
        return f"simulate exited {code}"
    got = np.asarray(report["outputs"]["system_populations"], dtype=float)
    if got.shape != expected.shape:
        return f"{got.size} system populations, expected {expected.size}"
    dev = float(np.abs(got - expected).max())
    if not dev < SIMULATE_TOL:
        return f"system populations off by {dev:.3e}"
    if report["outputs"].get("post_verdict", {}).get("strict") is not True:
        return "post_verdict.strict is not true"
    return None


def check_cooling(code: int, report: dict | None, d_max: int) -> str | None:
    if code != 0 or report is None:
        return f"cool exited {code}"
    rows = report["outputs"]["rows"]
    if [r["D"] for r in rows] != list(range(2, d_max + 1)):
        return f"rows cover D={[r['D'] for r in rows]}, expected 2..{d_max}"
    for r in rows:
        d = r["D"]
        want = {"ground": 1 - 1 / d, "excited1": 1 / (2 * d), "excited2": 1 / (2 * d),
                "invariant_level_population": 2.0 ** -d / d}
        for key, value in want.items():
            if not abs(r[key] - value) <= COOLING_TOL:
                return f"D={d} {key}={r[key]!r}, closed form {value!r}"
    return None


def check_verify(code: int, report: dict | None, seed: int) -> str | None:
    if code != 0 or report is None:
        return f"verify exited {code}"
    if report["inputs"].get("seed") != seed:
        return f"verify ran seed {report['inputs'].get('seed')}, asked for {seed}"
    names = [c["name"] for c in report["checks"]]
    missing = sorted(set(VERIFY_CHECK_NAMES) - set(names))
    if missing:
        return f"verify checks missing: {', '.join(missing)}"
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    if failed:
        return f"verify checks failed: {', '.join(failed)}"
    return None
