"""The qutrit-cooling instance: an exponentially degenerate catalyst and a
commuting family of two-level swap gates that pump population into the
ground state.

System: energies (0, E, E) with E = ln 2 (so exp(-E) = 1/2 at beta = 1).
Catalyst for parameter D: levels n*E with degeneracy 2^n, n = 0..D-1,
total dimension 2^D - 1.  The closed form for the default input
p = (0, 1/2, 1/2) is (1 - 1/D, 1/(2D), 1/(2D)); the untouched top-energy
joint levels each carry population 2^(-D)/D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compiler import GateSequence, GateStep, apply_gates
from .errors import CapacityError, DomainError
from .linalg import kron, partial_trace
from .thermal import DiagonalState, Spectrum, ThermalContext, gibbs_state

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
    energies = []
    for n in range(d):
        energies.extend([n * E_UNIT] * (1 << n))
    return Spectrum.from_energies(energies)


def build_cooling_sequence(d: int) -> GateSequence:
    """2(2^(d-1) - 1) pairwise-commuting transpositions.

    Gate (n, k, x) swaps |0>_S |n, k+(x-1)*2^(n-1)>_C with |x>_S |n-1, k>_C
    for n = 1..d-1, k = 1..2^(n-1), x in {1, 2}.
    """
    if d < 2:
        raise DomainError(f"cooling sequence needs d >= 2, got {d}")
    dims = (3, (1 << d) - 1)
    steps = []
    for n in range(1, d):
        half = 1 << (n - 1)
        for k in range(1, half + 1):
            for x in (1, 2):
                a = (0, _cat_index(n, k + (x - 1) * half))
                b = (x, _cat_index(n - 1, k))
                steps.append(GateStep("givens", (a, b), u2=SWAP2))
    return GateSequence(steps=steps, method="handcrafted", dims=dims)


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
                ctx: ThermalContext = ThermalContext()) -> tuple[DiagonalState, float]:
    """Diagonal fast path: evolve p ⊗ tau_C through the swap sequence on
    population vectors only.

    Returns the final system marginal and the mean population of the
    untouched top-energy joint levels (all equal for the default input).
    """
    if p is None:
        p = DEFAULT_INPUT
    if p.dim != 3:
        raise DomainError("cooling input must be a qutrit population vector")
    catalyst = build_cooling_catalyst(d)
    seq = build_cooling_sequence(d)
    gamma = gibbs_state(catalyst, ctx).populations
    q = np.outer(p.populations, gamma)  # q[s, c]
    for step in seq.steps:
        (sa, ca), (sb, cb) = step.indices
        q[sa, ca], q[sb, cb] = q[sb, cb], q[sa, ca]
    final = DiagonalState(q.sum(axis=1))
    top = slice(_cat_index(d - 1, 1), _cat_index(d - 1, 1 << (d - 1)) + 1)
    invariant = float(np.mean(q[1:, top]))
    return final, invariant


def run_cooling_dense(d: int, p: DiagonalState | None = None,
                      ctx: ThermalContext = ThermalContext()) -> DiagonalState:
    """Dense cross-check: conjugate the full joint density matrix
    p ⊗ tau_C gate by gate and trace the catalyst out."""
    if d > MAX_D_DENSE:
        raise CapacityError(f"dense path limited to d <= {MAX_D_DENSE}")
    if p is None:
        p = DEFAULT_INPUT
    inst = build_cooling_instance(d)
    tau = gibbs_state(inst.catalyst, ctx).to_dense()
    joint = apply_gates(inst.gates, kron(p.to_dense(), tau), conjugate=True)
    sigma = partial_trace(joint, inst.gates.dims, keep=0)
    return DiagonalState(np.real(np.diag(sigma)))
