"""The qutrit-cooling instance: an exponentially degenerate catalyst and a
commuting family of two-level swap gates that pump population into the
ground state.

System: energies (0, E, E) with E = ln 2 (so exp(-E) = 1/2 at beta = 1).
Catalyst for parameter D: levels n*E with degeneracy 2^n, n = 0..D-1,
total dimension 2^D - 1.  The closed form for the default input
p = (0, 1/2, 1/2) is (1 - 1/D, 1/(2D), 1/(2D)); the untouched top-energy
joint levels each carry population 2^(-D)/D.

The swap gates have disjoint supports: every gate moves one level with
system state 0 and one with system state 1 or 2, and no level twice.
Together they form a single permutation of the joint population vector,
which `run_cooling` applies in one indexed assignment; the gate sequence
is built only for the dense path and for `verify`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import KIND_CODE, GateSequence, apply_gates
from .errors import CapacityError, DomainError
from .linalg import kron, partial_trace
from .thermal import DiagonalState, Spectrum, gibbs_state

E_UNIT = math.log(2.0)
MAX_D_DIAGONAL = 20
MAX_D_DENSE = 10  # joint dim 3*(2^D - 1) stays under the 4096 dense cap

SYSTEM_SPECTRUM = Spectrum.from_energies([0.0, E_UNIT, E_UNIT])
DEFAULT_INPUT = DiagonalState(np.array([0.0, 0.5, 0.5]))

SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _cat_index(n: int, j: int) -> int:
    """Flat catalyst index of degenerate partner j (1-based) at energy n*E."""
    return (1 << n) - 1 + (j - 1)


def build_cooling_catalyst(d: int) -> Spectrum:
    if d < 1:
        raise DomainError(f"catalyst parameter must be >= 1, got {d}")
    if d > MAX_D_DIAGONAL:
        raise CapacityError(f"catalyst parameter {d} exceeds the diagonal-path cap")
    # 2^n levels at energy n*E, from index 2^n - 1; from_energies labels
    # each shell 0..2^n - 1 in listed order.
    return Spectrum.from_energies(np.repeat(np.arange(d) * E_UNIT, 1 << np.arange(d)))


def _swap_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat joint indices a[i], b[i] of swap i, in build_cooling_sequence order.

    Level |n-1, k>_C (0-based k) is catalyst index c = 2^(n-1) - 1 + k, so
    the b side runs over c = 0 .. 2^(d-1) - 2 and a = (0, c + x*2^(n-1)).
    """
    c = np.arange((1 << (d - 1)) - 1)
    shells = 1 << np.arange(d - 1)
    half = shells.repeat(shells)  # 2^(n-1) per c
    dim_c = (1 << d) - 1
    # Column x - 1 holds swap (c, x), written by one 1-D pass per column:
    # broadcasting over the length-2 x axis runs a 2-element loop per c.
    a, b = np.empty((2, c.size, 2), dtype=c.dtype)
    np.add(c, half, out=a[:, 0])
    np.add(a[:, 0], half, out=a[:, 1])
    np.add(c, dim_c, out=b[:, 0])
    np.add(c, 2 * dim_c, out=b[:, 1])
    return a.ravel(), b.ravel()


def build_cooling_sequence(d: int) -> GateSequence:
    """2(2^(d-1) - 1) pairwise-commuting transpositions.

    Gate (n, k, x) swaps |0>_S |n, k+(x-1)*2^(n-1)>_C with |x>_S |n-1, k>_C
    for n = 1..d-1, k = 1..2^(n-1), x in {1, 2}.
    """
    if d < 2:
        raise DomainError(f"cooling sequence needs d >= 2, got {d}")
    dims = (3, (1 << d) - 1)
    a, b = _swap_pairs(d)
    return GateSequence(
        kinds=np.full(a.size, KIND_CODE["givens"]), flats=np.stack([a, b], axis=1),
        blocks=np.broadcast_to(SWAP2, (a.size, 2, 2)), params=np.full(a.size, np.nan),
        method="handcrafted", dims=dims,
    )


@dataclass(frozen=True)
class CoolingInstance:
    d: int
    system: Spectrum
    catalyst: Spectrum
    gates: GateSequence


def build_cooling_instance(d: int) -> CoolingInstance:
    return CoolingInstance(
        d=d,
        system=SYSTEM_SPECTRUM,
        catalyst=build_cooling_catalyst(d),
        gates=build_cooling_sequence(d),
    )


def run_cooling(d: int, p: DiagonalState | None = None,
                tau_c: DiagonalState | None = None) -> tuple[DiagonalState, float]:
    """Diagonal fast path: apply the swap permutation to the population
    vector of p ⊗ tau_C.

    tau_c is the catalyst's Gibbs state, for a caller that already has it;
    by default it is built from build_cooling_catalyst(d).
    Returns the final system marginal and the mean population of the
    untouched top-energy joint levels (all equal for the default input).
    """
    if p is None:
        p = DEFAULT_INPUT
    if p.dim != 3:
        raise DomainError("cooling input must be a qutrit population vector")
    if d < 2:
        raise DomainError(f"cooling needs d >= 2, got {d}")
    if tau_c is None:
        tau_c = gibbs_state(build_cooling_catalyst(d))
    if tau_c.dim != (1 << d) - 1:
        raise DomainError(f"catalyst state dim {tau_c.dim} != {(1 << d) - 1} for d = {d}")
    gamma = tau_c.populations
    q = np.multiply.outer(p.populations, gamma)  # q[s, c]
    a, b = _swap_pairs(d)
    flat = q.reshape(-1)  # a view: q is C-contiguous
    flat[a], flat[b] = flat[b], flat[a]  # fancy indexing copies both sides first
    final = DiagonalState(q.sum(axis=1))
    top = slice(_cat_index(d - 1, 1), _cat_index(d - 1, 1 << (d - 1)) + 1)
    invariant = float(np.mean(q[1:, top]))
    return final, invariant


def run_cooling_dense(d: int, p: DiagonalState | None = None) -> DiagonalState:
    """Dense cross-check: conjugate the full joint density matrix
    p ⊗ tau_C gate by gate and trace the catalyst out."""
    if d > MAX_D_DENSE:
        raise CapacityError(f"dense path limited to d <= {MAX_D_DENSE}")
    if p is None:
        p = DEFAULT_INPUT
    inst = build_cooling_instance(d)
    tau = gibbs_state(inst.catalyst).to_dense()
    joint = apply_gates(inst.gates, kron(p.to_dense(), tau), conjugate=True)
    sigma = partial_trace(joint, inst.gates.dims, keep=0)
    return DiagonalState(np.real(np.diag(sigma)))
