"""Elementary generating sets of the energy-preserving Lie algebra.

Each generator is anti-Hermitian, supported on at most two joint basis
states inside one energy block:

    h       -i(|a><b| + |b><a|)        rank 2
    m         |a><b| - |b><a|          rank 2
    p       -i |a><a|                  rank 1
    g_diag   i(|a><a| + |b><b|)        rank 2

where a, b are joint (system, catalyst) indices sharing one total energy.
The full algebra restricted to a block of size d is u(d), dimension d^2.

Cost model of lie_closure: inputs whose supports share no level commute,
so the closure splits into connected support components (found by
linalg.components over the levels each input touches, after O(k n^2) to
read the supports) and only d_c x d_c blocks are ever multiplied.  Each
basis element of a component is commuted once with the k elements
present at that time: O(k d_c^3) for the commutators plus O(r k d_c^2)
to project the r surviving candidates out of the basis.  A component of
closure dimension D_c therefore costs O(D_c^2 d_c^3) in at most D_c
numpy batches; for the full block algebra (D_c = d_c^2) that is
O(d_c^7) per block instead of O(D^2 n^3) for the whole n-level space.
The batches stop once the basis holds d_c^2 elements: it then spans all
of u(d_c), which is closed under commutators.  Inputs that already span
u(d_c), as enumerate_basis gives on a block, take no commutator batch
at all; the rank-2 set of a 2 x 2 block takes one.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, PreconditionError
from .linalg import components
from .thermal import EnergyBlocks, flat_index

KINDS = ("h", "m", "p", "g_diag")
RANK_TOL = 1e-9  # smallest normalised residual of a candidate that joins a closure basis


@dataclass(frozen=True, order=True)
class ElementaryGenerator:
    kind: str
    block_energy: float
    first: tuple[int, int]
    second: tuple[int, int]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown generator kind {self.kind!r}")
        if self.kind == "p" and self.first != self.second:
            raise DomainError("rank-1 'p' generator must have first == second")
        if self.kind != "p" and self.first == self.second:
            raise DomainError(f"kind {self.kind!r} needs two distinct joint indices")

    def matrix(self, dims: tuple[int, int]) -> np.ndarray:
        """Dense n x n matrix; ShapeError if an index pair is not a joint
        level of dims (thermal.flat_index)."""
        n = dims[0] * dims[1]
        a, b = flat_index(self.first, dims), flat_index(self.second, dims)
        k = np.zeros((n, n), dtype=complex)
        if self.kind == "h":
            k[a, b] = -1j
            k[b, a] = -1j
        elif self.kind == "m":
            k[a, b] = 1.0
            k[b, a] = -1.0
        elif self.kind == "p":
            k[a, a] = -1j
        else:  # g_diag
            k[a, a] = 1j
            k[b, b] = 1j
        return k

    def support(self) -> tuple[tuple[int, int], ...]:
        if self.kind == "p":
            return (self.first,)
        return (self.first, self.second)


def enumerate_basis(blocks: EnergyBlocks, include_rank1: bool = True) -> list[ElementaryGenerator]:
    """Real-linear basis of the energy-preserving algebra.

    With rank-1 projectors: sum of d^2 over blocks.  Without them only
    the off-diagonal h/m pairs remain: sum of d(d-1).
    """
    return _pair_walk(blocks, ("h", "m"), include_rank1)


def rank2_basis(blocks: EnergyBlocks) -> list[ElementaryGenerator]:
    """Rank-2-only generating set: h, m and g_diag over index pairs.

    Requires every block to have size >= 2; tensor a two-dimensional
    zero-Hamiltonian catalyst first if the structure has singletons.
    """
    for energy, size in zip(blocks.reps.tolist(), blocks.block_sizes()):
        if size < 2:
            raise PreconditionError(
                f"block at energy {energy} is a singleton; append a "
                "two-level zero-energy catalyst to double it first"
            )
    return _pair_walk(blocks, ("h", "m", "g_diag"), rank1=False)


def _pair_walk(blocks: EnergyBlocks, kinds: tuple[str, ...],
               rank1: bool) -> list[ElementaryGenerator]:
    """Per block, one generator of each kind on each level pair a < b
    (pairs in lexicographic order), then with rank1 one 'p' per level."""
    out: list[ElementaryGenerator] = []
    for energy, members in blocks.items():
        idx = blocks.pairs(members)
        out += [ElementaryGenerator(kind, energy, a, b)
                for a, b in itertools.combinations(idx, 2) for kind in kinds]
        if rank1:
            out += [ElementaryGenerator("p", energy, a, a) for a in idx]
    return out


def _to_matrix(g, dims) -> np.ndarray:
    if isinstance(g, ElementaryGenerator):
        if dims is None:
            raise DomainError("dims required to materialize generator records")
        return g.matrix(dims)
    return np.asarray(g, dtype=complex)


def _components(mats: np.ndarray) -> list[np.ndarray]:
    """Split a (k, n, n) stack of inputs by the connected components of
    their supports, each input restricted to its component's levels.

    An input's support is the set of levels (rows and columns) holding a
    nonzero entry; linalg.components joins supports that share a level,
    through an edge from each input's first level to each of its levels.
    Returns one (k_c, d_c, d_c) stack per component, in the order of their
    first inputs.  All-zero inputs are dropped.
    """
    nz = mats != 0
    touched = nz.any(axis=1) | nz.any(axis=2)  # (k, n)
    first = touched.argmax(axis=1)
    which, levels = np.nonzero(touched)
    root = components(first[which], levels, mats.shape[1])
    comp = np.where(touched.any(axis=1), root[first], -1)
    used = touched.any(axis=0)
    out = []
    for r in dict.fromkeys(comp[comp >= 0].tolist()):
        keep = np.flatnonzero(used & (root == r))
        out.append(mats[comp == r][:, keep[:, None], keep])
    return out


def _component_closure(mats: np.ndarray, cap: int) -> int:
    """Closure dimension of a (k, d, d) stack of inputs on one component;
    CapacityError once it would exceed cap.

    The orthonormal basis lives in one complex (rows, d, d) array whose
    float view is the (rows, 2 d^2) real stack of Re/Im vectors, so real
    inner products Re tr(A^dagger B) are plain dot products of rows.  The
    inputs are anti-Hermitian and so is the anti-Hermitian part of every
    commutator batch, which is all that is kept: the span stays in u(d),
    of real dimension d^2.  (Rounding leaves commutators of anti-Hermitian
    matrices with Hermitian noise; kept, that noise could fill up to
    2 d^2 dimensions of complex matrices.)
    """
    d = mats.shape[1]
    basis = np.empty((min(cap, d * d), d, d), dtype=complex)
    flat = basis.reshape(len(basis), d * d).view(float)
    count = 0

    def extend(cands: np.ndarray) -> None:
        # Normalise, drop candidates below RANK_TOL, project out the basis
        # twice in one product (CGS2), then add the survivors one by one,
        # each projected twice against the rows added in this batch.  The
        # residual is measured relative to the normalised candidate.
        nonlocal count
        v = np.ascontiguousarray(cands).reshape(len(cands), d * d).view(float)
        norms = np.linalg.norm(v, axis=1)
        keep = norms >= RANK_TOL
        v = v[keep] / norms[keep, None]
        for _ in range(2):
            v -= (v @ flat[:count].T) @ flat[:count]
        start = count
        for w in v[np.linalg.norm(v, axis=1) >= RANK_TOL]:
            for _ in range(2):
                w -= (flat[start:count] @ w) @ flat[start:count]
            res = np.linalg.norm(w)
            if res >= RANK_TOL:
                if count == len(flat):
                    raise CapacityError("closure exceeded its cap")
                flat[count] = w / res
                count += 1

    extend(mats)
    i = 0
    while i < count < d * d:  # each basis element, in the order it was added, until u(d)
        a, known = basis[i], basis[:count]
        c = a @ known - known @ a
        extend((c - c.conj().transpose(0, 2, 1)) / 2)
        i += 1
    return count


def lie_closure(gens, max_dim: int = 512, dims: tuple[int, int] | None = None) -> int:
    """Dimension of the smallest real commutator-closed span of the inputs.

    Matrices on disjoint sets of levels multiply to zero both ways, so the
    closure is the direct sum of the closures of the support components
    (see _components); a generator's block_energy label is never read.
    Each component's orthonormal basis (real inner product Re tr(A†B))
    grows by commuting every basis element, in order, with the whole
    current basis, until it spans all of u(d_c) (d_c^2 elements, d_c the
    component's level count) or no element is left to commute;
    candidates are orthonormalized by classical Gram-Schmidt applied
    twice.  A candidate joins the basis when, after
    normalisation, its residual is at least RANK_TOL.

    Raises DomainError if an input is not anti-Hermitian (to 1e-12 of its
    largest entry), ShapeError if a generator record names a level
    outside dims, and CapacityError as soon as the running total over
    components exceeds max_dim.
    """
    mats = np.array([_to_matrix(g, dims) for g in gens])
    if not len(mats):
        return 0
    defect = np.abs(mats + mats.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    bad = defect > 1e-12 * np.maximum(np.abs(mats).max(axis=(1, 2)), 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"input {i} is not anti-Hermitian (|K + K†| up to {defect[i]:.3e})")
    total = 0
    for comp in _components(mats):
        try:
            total += _component_closure(comp, max_dim - total)
        except CapacityError:
            raise CapacityError(f"closure exceeded max_dim {max_dim}") from None
    return total
