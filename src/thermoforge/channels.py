"""Thermal-operation channels, beta-swaps, rethermalization, and
Gibbs-catalytic elementary runs with catalysis classification."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiler import reconstruct
from .errors import DomainError, ShapeError
from .gates import GateSequence
from .linalg import as_operator, dagger, kron, partial_trace, trace_distance
from .thermal import DiagonalState, Spectrum, energy_blocks, gibbs_state, require_energy_preserving

STRICT_TOL = 1e-10  # largest catalyst-marginal and product distance of a strict verdict


@dataclass(frozen=True)
class ChannelSpec:
    """A thermal operation in dilated form: bath Gibbs state + joint unitary."""

    system: Spectrum
    bath: Spectrum
    unitary: np.ndarray

    def __post_init__(self):
        u = as_operator(self.unitary)
        require_energy_preserving(u, energy_blocks(self.system, self.bath))
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)


@dataclass(frozen=True)
class CatalysisVerdict:
    strict: bool
    correlated: bool
    catalyst_marginal_distance: float
    product_defect: float

    def approximate(self, epsilon: float) -> bool:
        return self.catalyst_marginal_distance <= epsilon


def apply_TO(rho, channel: ChannelSpec) -> np.ndarray:
    """Tr_bath[U (rho ⊗ tau_bath) U†]."""
    rho = as_operator(rho)
    ds, db = channel.system.dim, channel.bath.dim
    if rho.shape[0] != ds:
        raise ShapeError(f"state dim {rho.shape[0]} != system dim {ds}")
    tau = gibbs_state(channel.bath).to_dense()
    joint = channel.unitary @ kron(rho, tau) @ channel.unitary.conj().T
    return partial_trace(joint, (ds, db), keep=0)


def beta_swap(p: DiagonalState, spec: Spectrum, i: int, j: int) -> DiagonalState:
    """Extremal two-level thermal map between levels i and j.

    With w = exp(-(E_j - E_i)) and E_i <= E_j:
    p_i' = (1-w) p_i + p_j, p_j' = w p_i.
    """
    if not (0 <= i < spec.dim and 0 <= j < spec.dim) or i == j:
        raise ShapeError(f"invalid level pair ({i}, {j}) for dim {spec.dim}")
    if spec.energies[i] > spec.energies[j]:
        i, j = j, i
    w = float(np.exp(-(spec.energies[j] - spec.energies[i])))
    q = np.array(p.populations)
    q[i], q[j] = (1 - w) * p.populations[i] + p.populations[j], w * p.populations[i]
    return DiagonalState(q)


def thermalize(rho, specs: tuple[Spectrum, Spectrum], which: int) -> np.ndarray:
    """Replace subsystem `which` (0 or 1) by its Gibbs state, dropping all
    correlations to it."""
    rho = as_operator(rho)
    if which not in (0, 1):
        raise ShapeError(f"which must select one of two subsystems, got {which!r}")
    dims = (specs[0].dim, specs[1].dim)
    if rho.shape[0] != dims[0] * dims[1]:
        raise ShapeError(f"state dim {rho.shape[0]} != joint dim {dims[0] * dims[1]}")
    marg = partial_trace(rho, dims, keep=1 - which)
    tau = gibbs_state(specs[which]).to_dense()
    if which == 1:
        return kron(marg, tau)
    return kron(tau, marg)


def classify_catalysis(sigma_sc, mu_c, dims: tuple[int, int]) -> CatalysisVerdict:
    """Classify a post-process joint state against the catalyst it started
    from: strict (product with exact marginal), correlated (exact marginal,
    correlations allowed); CatalysisVerdict.approximate(epsilon) tests
    the marginal distance against a caller's epsilon."""
    sigma_sc = as_operator(sigma_sc)
    mu_c = as_operator(mu_c)
    if sigma_sc.shape[0] != dims[0] * dims[1] or mu_c.shape[0] != dims[1]:
        raise ShapeError("dims inconsistent with the supplied states")
    sigma_s = partial_trace(sigma_sc, dims, keep=0)
    sigma_c = partial_trace(sigma_sc, dims, keep=1)
    marginal_dist = trace_distance(sigma_c, mu_c)
    product_dist = trace_distance(sigma_sc, kron(sigma_s, mu_c))
    product_defect = trace_distance(sigma_sc, kron(sigma_s, sigma_c))
    strict = product_dist < STRICT_TOL and marginal_dist < STRICT_TOL
    correlated = marginal_dist < STRICT_TOL
    return CatalysisVerdict(
        strict=strict,
        correlated=correlated,
        catalyst_marginal_distance=marginal_dist,
        product_defect=product_defect,
    )


def run_gc_eto(rho_s, catalyst: Spectrum, seq: GateSequence,
               rethermalize: bool = True,
               system: Spectrum | None = None,
               ) -> tuple[np.ndarray, CatalysisVerdict, CatalysisVerdict | None]:
    """Evolve rho ⊗ tau(H_C) through an elementary gate sequence: the
    joint state U (rho ⊗ tau_C) U† with U = reconstruct(seq), as apply_TO
    forms it with the catalyst as bath.

    Returns the system marginal and the catalysis verdicts before and
    (when requested) after rethermalizing the catalyst.  Given the system
    spectrum, every step must keep its two levels in one joint energy
    block (DomainError names the first that does not); without it the
    energies are unknown and nothing is checked.
    """
    rho_s = as_operator(rho_s)
    ds = rho_s.shape[0]
    if seq.dims != (ds, catalyst.dim):
        raise ShapeError(
            f"sequence dims {seq.dims} != (system {ds}, catalyst {catalyst.dim})"
        )
    if system is not None:
        if system.dim != ds:
            raise ShapeError(f"system spectrum dim {system.dim} != state dim {ds}")
        blocks = energy_blocks(system, catalyst)
        block = blocks.block_of_flat()[seq.flats]
        crossing = np.flatnonzero(block[:, 0] != block[:, 1])
        if len(crossing):
            k = int(crossing[0])
            a, b = blocks.pairs(seq.flats[k])
            energy = np.add.outer(system.energies, catalyst.energies)
            raise DomainError(f"step {k}: levels {a} and {b} lie in different energy blocks "
                              f"(joint energies {energy[a]} and {energy[b]})")
    tau_c = gibbs_state(catalyst).to_dense()
    u = reconstruct(seq)
    joint = u @ kron(rho_s, tau_c) @ dagger(u)
    del u  # an n x n array less through the verdicts
    dims = (ds, catalyst.dim)
    pre = classify_catalysis(joint, tau_c, dims)
    sigma_s = partial_trace(joint, dims, keep=0)
    post = None
    if rethermalize:
        # thermalize(joint, (system, catalyst), which=1), from what is at hand
        post = classify_catalysis(kron(sigma_s, tau_c), tau_c, dims)
    return sigma_s, pre, post
