"""Compile energy-preserving unitaries into elementary two-level gates.

Back-ends:
  exact   per-block Givens-style column elimination (<= d(d-1)/2 two-level
          gates plus <= d phase gates per block)
  trotter first-order product formula over a generator combination
  bch     group-commutator synthesis of exp(t[K_j, K_k])
  nested  outer Trotter over a depth-1 mix of linear and commutator terms

A GateSequence (gates.py) applies steps[0] first, i.e. reconstruct()
multiplies steps right-to-left.  It stores one slice of L steps as
columns (kind codes, flat level pairs, 2x2 blocks, parameters) plus a
repeat count: trotter, bch and nested build one slice and repeat it
m = trotter_m times.  GateStep is the value type of a JSON step and of
the loader's error messages, and seq.steps views a sequence as GateStep
values.

Cost model: apply_gates groups the slice, order unchanged, into ASAP
layers: each step goes into the earliest layer after every earlier step
that shares a level with it.  The steps of one layer act on disjoint
levels, so each row of the operand is changed by at most one of them,
from its own and its partner's old values; applying the layer's gates
one by one in any order, or all at once, gives the same numbers.  Under
x -> x U† the same holds for columns.  A layer of k two-level gates is
one batched (k,2,2) @ (k,2,n) row update plus one multiply for its
phases, so L gates in Λ layers cost O(Λ) numpy calls of O(k n) work
each, O(L n) in all.  Conjugation x -> U x U† adds a column pass of the
same cost.  compile_exact's triangular order has about 2 max_b d_b
layers (50 layers for 990 gates at n = 108).  reconstruct costs O(n^2)
for the identity plus one pass, and a sequence of one slice repeated m
times is reconstructed as slice^m: O(L n + n^3 log m).

compile_exact stacks the energy blocks of size >= 2, largest first,
each padded with the identity to its stack's first block D_s; a stack
holds at most 2 sum_b d_b^2 entries of the blocks in it (_stacks).  It
makes one closed-form numpy pass per column of each stack but the last,
sum_s (D_s - 1) passes in all (28 at n = 108, against 983 rotations),
the pass for column c costing O(k_s (D_s - c)^2) for k_s blocks.  The
padding bound gives k_s D_s^3 <= 2^{3/2} sum_b d_b^3 over the stack, so
the work is O(sum_b d_b^3), with no Python step per rotation.

compile_approximate doubles m until the accuracy is met.  It plans the
slice once, O(L) Python: kind codes, level pairs, each term's base
coefficient with its m-scaling (_Slice) and the layer order.  Each
doubling then evaluates the 2x2 blocks, runs one layered pass over
eye(n) and raises every energy block of the slice to the m-th power,
stacked by block size: O(Λ n + sum_b d_b^3 log m).  The sequence is
built once, for the m returned.

The approximate back-ends start from K = log u, which is block-diagonal
like u, and never form it as an n x n matrix.  _log_unitary works on one
d_b x d_b block at a time: an eigh of its Hermitian part, plus one small
eigh per cluster of near-equal eigenvalues, and a few products, O(d_b^3)
per block and O(sum_b d_b^3) in all.  The h/m/p and rank-2 coefficients
are then read off the entries of each K_b, O(sum_b d_b^2).  numpy is the
only dependency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError
# GateStep is re-exported: thermoforge.compiler.GateStep is public API.
from .gates import (  # noqa: F401
    KIND_CODE, GateSequence, GateStep, apply_layers, kind_blocks, layer_order, layer_views,
)
from .generators import ElementaryGenerator
from .thermal import EnergyBlocks, is_energy_preserving, max_cross_block_entry

_ELIM_TOL = 1e-13
_COEFF_TOL = 1e-14  # generator coefficients at or below this are dropped
M_CAP = 1 << 14  # largest slice count compile_approximate tries
_P, _GIVENS = KIND_CODE["p"], KIND_CODE["givens"]


def reconstruct(seq: GateSequence) -> np.ndarray:
    """Ordered product of the steps, steps[0] acting first: the slice
    layer by layer over the identity, then slice^repeat by repeated
    squaring when repeat > 1."""
    u = np.eye(seq.dims[0] * seq.dims[1], dtype=complex)
    apply_layers(seq._plan(), 1, u)
    return u if seq.repeat == 1 else np.linalg.matrix_power(u, seq.repeat)


def _require_energy_preserving(u: np.ndarray, blocks: EnergyBlocks) -> None:
    if not is_energy_preserving(u, blocks):
        i, j, mag = max_cross_block_entry(u, blocks)
        raise DomainError(
            f"unitary entry ({i},{j}) of magnitude {mag:.3e} couples energy blocks"
        )


def _stacks(sizes: list[int]) -> list[list[int]]:
    """The blocks of size >= 2, largest first (ties in block order), cut
    into stacks.  A stack is padded to its first block's size D; the next
    block joins it unless the stack would then hold more than
    2 sum_b d_b^2 entries, summed over the blocks it holds."""
    stacks: list[list[int]] = []
    held = 0  # sum of d_b^2 over the last stack
    for b in sorted((b for b, d in enumerate(sizes) if d >= 2), key=lambda b: -sizes[b]):
        d2 = sizes[b] ** 2
        if stacks and (len(stacks[-1]) + 1) * sizes[stacks[-1][0]] ** 2 <= 2 * (held + d2):
            stacks[-1].append(b)
            held += d2
        else:
            stacks.append([b])
            held = d2
    return stacks


def _eliminate(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Reduce a stack of unitaries a, (k, D, D), to diagonal phases in
    place by Givens rotations of rows (col, row), column by column and
    row by row within a column; an entry below _ELIM_TOL is skipped.

    Every rotation of column col shares row col, so the chain is solved
    in closed form: with b_1, b_2, ... the entries below a_cc (skipped
    ones as 0), rotation k sees x = r_{k-1}, the running norm
    hypot(|a_cc|, |b_1|, ..., |b_{k-1}|), and leaves row col as
    S_k / r_k with S_k = conj(a_cc) A_col + sum_{i<=k} conj(b_i) A_i.
    Until the first rotation, x is a_cc and row col is A_col.  Each row
    below is rotated once, from its own and row col's values, and only
    columns >= col are touched.

    Returns the (stack index, col, row) of every rotation, in that
    lexicographic order, and the gate R† emitted for the R that zeroes
    a[row, col].
    """
    k, d, _ = a.shape
    rotated = np.zeros((k, d, d), dtype=bool)
    seen = np.zeros((2, k, d, d), dtype=complex)  # x / r_k and b / r_k of each rotation
    for col in range(d - 1):
        w = a[:, col:, col:]
        kept = np.abs(w[:, :, 0]) >= _ELIM_TOL
        kept[:, 0] = True
        rot = kept[:, 1:]
        if not rot.any():
            continue
        c = np.where(kept, w[:, :, 0], 0.0)  # a_cc, b_1, b_2, ...
        r = np.hypot.accumulate(np.abs(c), axis=1)
        s = (c.conj()[:, :, None] * w).cumsum(axis=1)
        count = rot.cumsum(axis=1)
        first = count == rot  # no rotation above in this column
        rk = np.where(rot, r[:, 1:], 1.0)
        xr = np.where(rot, np.where(first, c[:, :1], r[:, :-1]) / rk, 1.0)
        br = c[:, 1:] / rk
        # Row j leaves as (x A_j - b P) / r_k with P = S_{j-1} / r_{j-1}, or
        # A_col up to the first rotation; a row that does not rotate (b = 0,
        # xr = 1) keeps A_j.  The rows are updated in place.
        mix = np.divide(br, r[:, :-1], out=np.zeros(br.shape, dtype=complex), where=~first)
        lead = np.where(first, br, 0.0)
        below = w[:, 1:]
        below *= xr[:, :, None]
        below -= mix[:, :, None] * s[:, :-1]
        below -= lead[:, :, None] * w[:, :1]
        np.divide(s[:, -1], r[:, -1:], out=w[:, 0], where=count[:, -1:] > 0)
        rotated[:, col, col + 1:] = rot
        seen[0, :, col, col + 1:] = xr
        seen[1, :, col, col + 1:] = br
    x, b = seen[:, rotated]
    gates = np.stack([x, -b.conj(), b, x.conj()], axis=1).reshape(-1, 2, 2)
    return (*np.nonzero(rotated), gates)


def compile_exact(u, blocks: EnergyBlocks) -> GateSequence:
    """Two-level elimination of each energy block's sub-unitary.

    The blocks are eliminated together, stacked by _stacks and padded
    with the identity, one closed-form pass per column (_eliminate).
    The gates are those of the triangular order: every phase (block
    order, then level order) acts first, then each block's rotations
    undone in reverse."""
    u = np.asarray(u, dtype=complex)
    _require_energy_preserving(u, blocks)
    order, offsets = blocks.order, blocks.offsets
    sizes = np.diff(offsets)
    diag = u[order, order]  # the final diagonal, in the order of `order`
    # (block, flat pair, emitted gate) per rotation, each stack's listed in
    # reverse (block, col, row) order; a stable sort by block keeps that.
    parts = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros((0, 2, 2), dtype=complex),)]
    for stack in _stacks(sizes.tolist()):
        d = sizes[stack[0]]
        pos = offsets[stack][:, None] + np.arange(d)
        real = np.arange(d) < sizes[stack][:, None]
        idx = order[np.where(real, pos, 0)]
        a = np.where(real[:, :, None] & real[:, None, :], u[idx[:, :, None], idx[:, None, :]],
                     np.eye(d))
        blk, col, row, gates = _eliminate(a)
        diag[pos[real]] = np.diagonal(a, axis1=1, axis2=2)[real]
        parts.append(tuple(x[::-1] for x in (np.asarray(stack)[blk], idx[blk, col],
                                             idx[blk, row], gates)))
    block, first, second, gates = map(np.concatenate, zip(*parts))
    by_block = np.argsort(block, kind="stable")
    phased = np.flatnonzero(np.abs(diag - 1.0) > 1e-12)
    levels = order[phased]
    n_p, n_g = len(phased), len(by_block)
    return GateSequence(
        kinds=np.repeat(np.array([_P, _GIVENS]), [n_p, n_g]),
        flats=np.concatenate([np.stack([levels, levels], axis=1),
                              np.stack([first[by_block], second[by_block]], axis=1)]),
        blocks=np.concatenate([np.zeros((n_p, 2, 2), dtype=complex), gates[by_block]]),
        params=np.concatenate([-np.angle(diag[phased]), np.full(n_g, math.nan)]),
        method="exact", dims=blocks.dims,
    )


def _sorted_coeffs(coeffs) -> list[tuple[ElementaryGenerator, float]]:
    items = list(coeffs.items()) if isinstance(coeffs, dict) else list(coeffs)
    items.sort(key=lambda t: t[0])
    return items


class _Slice(NamedTuple):
    """The slice a product-formula back-end repeats, before the slice
    count m is chosen: kind codes, flat level pairs and base coefficients
    of its generator steps, in order.

    At slice count m a linear term (sign 0) gets the parameter base/m and
    a term of a commutator group sign * sqrt(base/m); the error bound is
    bound/m for trotter, bound/sqrt(m) for bch and 0 for nested.
    """

    method: str
    dims: tuple[int, int]
    kinds: np.ndarray
    flats: np.ndarray
    base: np.ndarray
    sign: np.ndarray
    bound: float

    def params(self, m: int) -> np.ndarray:
        p = self.base / m
        root = self.sign != 0
        np.sqrt(p, out=p, where=root)
        np.multiply(p, self.sign, out=p, where=root)
        return p

    def sequence(self, m: int) -> GateSequence:
        """The slice at slice count m, repeated m times."""
        bound = {"trotter": self.bound / m, "bch": self.bound / math.sqrt(m)}.get(self.method, 0.0)
        return GateSequence(self.kinds, self.flats, np.zeros((len(self.kinds), 2, 2)),
                            self.params(m), method=self.method, dims=self.dims,
                            error_bound=bound, trotter_m=m, repeat=m)


def _slice(method: str, dims: tuple[int, int], linear=(), groups=(),
           bound: float = 0.0) -> _Slice:
    """A _Slice of (generator, base) linear terms, then one group
    commutator e^{-sJ} e^{-sK} e^{sJ} e^{sK} per (J, K, base) group with
    base > 0, its four steps listed first-acting first.  A joint index
    outside dims raises ShapeError."""
    terms = [*linear]
    for j, k, c in groups:
        terms += [(k, c), (j, c), (k, c), (j, c)]
    ds, dc = dims
    flats = []
    for g, _ in terms:
        for s, c in (g.first, g.second):
            if not (0 <= s < ds and 0 <= c < dc):
                raise ShapeError(f"joint index ({s}, {c}) out of range for dims {dims}")
        flats.append((g.first[0] * dc + g.first[1], g.second[0] * dc + g.second[1]))
    return _Slice(method, dims,
                  np.array([KIND_CODE[g.kind] for g, _ in terms], dtype=np.int8),
                  np.array(flats, dtype=np.intp).reshape(-1, 2),
                  np.array([c for _, c in terms], dtype=float),
                  np.array([0.0] * len(linear) + [1.0, 1.0, -1.0, -1.0] * len(groups)),
                  bound)


def _trotter_slice(coeffs, t: float, dims: tuple[int, int]) -> _Slice:
    items = [(g, r) for g, r in _sorted_coeffs(coeffs) if r != 0.0]
    if not items or t == 0.0:
        return _slice("trotter", dims)
    total = sum(abs(r) for _, r in items)  # every kind has unit spectral norm
    return _slice("trotter", dims, [(g, t * r) for g, r in items], bound=(t * total) ** 2)


def compile_trotter(coeffs, t: float, m: int, dims: tuple[int, int]) -> GateSequence:
    """First-order product formula for exp(t * sum_j r_j K_j).

    One slice applies every generator in lexicographic order with parameter
    t*r_j/m; the slice repeats m times.  The reported bound uses the
    heuristic constant c=1 on the O(t^2/M) term.
    """
    if m <= 0:
        raise DomainError(f"trotter step count must be positive, got {m}")
    return _trotter_slice(coeffs, t, dims).sequence(m)


def _bch_slice(j: ElementaryGenerator, k: ElementaryGenerator, t: float,
               dims: tuple[int, int]) -> _Slice:
    if t < 0:
        j, k, t = k, j, -t
    if t == 0.0:
        return _slice("bch", dims)
    return _slice("bch", dims, groups=[(j, k, t)], bound=t ** 1.5)


def compile_bch(j: ElementaryGenerator, k: ElementaryGenerator, t: float, m: int,
                dims: tuple[int, int]) -> GateSequence:
    """Group-commutator synthesis of exp(t [K_j, K_k]), 4m gates.

    Negative t swaps the pair ([K_k, K_j] = -[K_j, K_k]) so sqrt(t/m)
    stays real.  Error decays as t^{3/2}/sqrt(m).
    """
    if m <= 0:
        raise DomainError(f"bch step count must be positive, got {m}")
    return _bch_slice(j, k, t, dims).sequence(m)


@dataclass(frozen=True)
class GeneratorCombination:
    """Depth-1 description of -i H_int: linear terms plus single commutators."""

    linear: tuple[tuple[ElementaryGenerator, float], ...] = ()
    commutators: tuple[tuple[ElementaryGenerator, ElementaryGenerator, float], ...] = ()

    def __post_init__(self):
        for a, b, _ in self.commutators:
            if not (isinstance(a, ElementaryGenerator) and isinstance(b, ElementaryGenerator)):
                raise DomainError("commutator terms deeper than one level are unsupported")

    def target_matrix(self, dims: tuple[int, int]) -> np.ndarray:
        n = dims[0] * dims[1]
        k = np.zeros((n, n), dtype=complex)
        for g, c in self.linear:
            k += c * g.matrix(dims)
        for a, b, c in self.commutators:
            am, bm = a.matrix(dims), b.matrix(dims)
            k += c * (am @ bm - bm @ am)
        return k


def _nested_slice(combo: GeneratorCombination, t: float, dims: tuple[int, int]) -> _Slice:
    if not combo.commutators:
        summed: dict[ElementaryGenerator, float] = {}
        for g, c in combo.linear:  # repeated generators add
            summed[g] = summed.get(g, 0.0) + c
        return _trotter_slice(summed, t, dims)
    if not combo.linear and len(combo.commutators) == 1:
        a, b, c = combo.commutators[0]
        return _bch_slice(a, b, t * c, dims)
    linear = [(g, t * c) for g, c in sorted(combo.linear, key=lambda p: p[0]) if c != 0.0]
    groups = []
    for a, b, c in combo.commutators:
        tc = t * c
        if tc < 0:
            a, b, tc = b, a, -tc
        if tc != 0.0:
            groups.append((a, b, tc))
    return _slice("nested", dims, linear, groups)


def compile_nested(combo: GeneratorCombination, t: float, m: int,
                   dims: tuple[int, int]) -> GateSequence:
    """Outer Trotter over the combination's summands; each commutator
    summand is realized by one BCH group per slice.  Without commutators
    this is compile_trotter, and one commutator alone is compile_bch."""
    if m <= 0:
        raise DomainError(f"step count must be positive, got {m}")
    return _nested_slice(combo, t, dims).sequence(m)


_CLUSTER_TOL = 1e-3  # eigenvalue gap that separates two clusters in _unitary_eigvecs
_BRANCH_TOL = 1e-12  # a phase this close to -pi is taken as +pi (principal branch)


def _unitary_eigvecs(u: np.ndarray, level: int = 0) -> np.ndarray:
    """Orthonormal eigenvectors of a unitary u, as the columns of V.

    Level 0 diagonalises the Hermitian part (u + u†)/2, eigenvalues
    cos(theta).  It commutes with u, so each cluster of eigenvalues
    closer than _CLUSTER_TOL spans an invariant subspace; u restricted to
    it goes one level down: level 1 diagonalises (u - u†)/2i, eigenvalues
    sin(theta), which splits e^{i theta} from e^{-i theta}; later levels
    use (e^{-i phi} u - e^{i phi} u†)/2i with phi the phase of tr u,
    eigenvalues sin(theta - phi), which is monotone on the short arc a
    cluster has left.  A level past 1 that splits nothing is final.
    """
    if level == 0:
        a = (u + u.conj().T) / 2
    else:
        z = 1.0 if level == 1 else np.exp(-1j * np.angle(np.trace(u)))
        a = (z * u - (z * u).conj().T) / 2j
    w, v = np.linalg.eigh(a)
    cuts = (np.flatnonzero(np.diff(w) > _CLUSTER_TOL) + 1).tolist()
    if level > 1 and not cuts:
        return v
    for lo, hi in zip([0, *cuts], [*cuts, len(w)]):
        if hi - lo > 1:
            vc = v[:, lo:hi]
            v[:, lo:hi] = vc @ _unitary_eigvecs(vc.conj().T @ u @ vc, level + 1)
    return v


def _log_unitary(u: np.ndarray, blocks: EnergyBlocks) -> list[np.ndarray]:
    """Anti-Hermitian K_b with e^{K_b} = u_b (principal branch, phases in
    (-pi, pi]) for each energy block, in block order.

    u_b = V diag(e^{i theta}) V† with V from _unitary_eigvecs and theta
    the angles of diag(V† u_b V); K_b = V diag(i theta) V†, projected on
    its anti-Hermitian part.  Entries between blocks are zero: K is the
    list of its diagonal blocks.
    """
    out = []
    for _, members in blocks.items():
        ub = u[np.ix_(members, members)]
        v = _unitary_eigvecs(ub)
        theta = np.angle(np.einsum("ij,ij->j", v.conj(), ub @ v))
        theta[theta <= -np.pi + _BRANCH_TOL] += 2 * np.pi
        kb = (v * (1j * theta)) @ v.conj().T
        out.append((kb - kb.conj().T) / 2)
    return out


def _expand_in_basis(k: list[np.ndarray], blocks: EnergyBlocks) -> dict[ElementaryGenerator, float]:
    """Coefficients of K over the orthogonal h/m/p basis, read off the
    entries of each block K_b: h_ab = -Im K_ab, m_ab = Re K_ab (a < b)
    and p_a = -Im K_aa.

    The kept coefficients must rebuild every K_b; a residual above 1e-8
    (K_b not anti-Hermitian, or large dropped terms) raises DomainError.
    """
    coeffs = {}
    resid2 = 0.0
    for (energy, members), kb in zip(blocks.items(), k):
        idx = blocks.pairs(members)
        iu, ju = np.triu_indices(len(idx), 1)
        h, m, p = (np.where(np.abs(c) > _COEFF_TOL, c, 0.0)
                   for c in (-kb.imag[iu, ju], kb.real[iu, ju], -kb.imag.diagonal()))
        for i, j, rh, rm in zip(iu.tolist(), ju.tolist(), h.tolist(), m.tolist()):
            if rh:
                coeffs[ElementaryGenerator("h", energy, idx[i], idx[j])] = rh
            if rm:
                coeffs[ElementaryGenerator("m", energy, idx[i], idx[j])] = rm
        for a, rp in zip(idx, p.tolist()):
            if rp:
                coeffs[ElementaryGenerator("p", energy, a, a)] = rp
        rebuilt = np.diag(-1j * p)
        rebuilt[iu, ju] = m - 1j * h
        rebuilt[ju, iu] = -m - 1j * h
        resid2 += np.linalg.norm(rebuilt - kb) ** 2
    resid = math.sqrt(resid2)
    if resid > 1e-8:
        raise DomainError(f"generator expansion residual {resid:.3e}")
    return coeffs


def _rank2_combination(k: list[np.ndarray], blocks: EnergyBlocks) -> GeneratorCombination:
    """Depth-1 rank-2-only description of K: h/m linear terms read off the
    entries of each block K_b as in _expand_in_basis, plus f-type
    commutators and one g_diag per block for the diagonal part."""
    linear: list[tuple[ElementaryGenerator, float]] = []
    comms: list[tuple[ElementaryGenerator, ElementaryGenerator, float]] = []
    for (energy, members), kb in zip(blocks.items(), k):
        idx = blocks.pairs(members)
        d = len(idx)
        diag = kb.imag.diagonal()
        if d == 1:
            if abs(diag[0]) > 1e-12:
                raise DomainError(
                    f"singleton block at energy {energy} carries a phase; "
                    "tensor a two-level zero-energy catalyst to double it"
                )
            continue
        iu, ju = np.triu_indices(d, 1)
        for i, j, rh, rm in zip(iu.tolist(), ju.tolist(),
                                (-kb.imag[iu, ju]).tolist(), kb.real[iu, ju].tolist()):
            for kind, r in (("h", rh), ("m", rm)):
                if abs(r) > _COEFF_TOL:
                    linear.append((ElementaryGenerator(kind, energy, idx[i], idx[j]), r))
        # diag = sum c_i * f_(i,i+1) + c_g * g_(0,1) in the +/-1 patterns.
        cols = np.zeros((d, d))
        for i in range(d - 1):
            cols[i, i], cols[i + 1, i] = 1.0, -1.0
        cols[0, d - 1] = cols[1, d - 1] = 1.0
        sol = np.linalg.solve(cols, diag)
        for i in range(d - 1):
            if abs(sol[i]) > _COEFF_TOL:
                gh = ElementaryGenerator("h", energy, idx[i], idx[i + 1])
                gm = ElementaryGenerator("m", energy, idx[i], idx[i + 1])
                comms.append((gh, gm, float(sol[i]) / 2.0))
        if abs(sol[d - 1]) > _COEFF_TOL:
            linear.append((ElementaryGenerator("g_diag", energy, idx[0], idx[1]), float(sol[d - 1])))
    return GeneratorCombination(linear=tuple(linear), commutators=tuple(comms))


def _power_error(sl: _Slice, u: np.ndarray, blocks: EnergyBlocks):
    """err(m) = ||S^m - u||_F for the slice S of sl at slice count m.

    S is block-diagonal like u, so err^2 is the sum over energy blocks of
    ||S_b^m - u_b||_F^2 plus ||u off the blocks||_F^2.  The layer order,
    the block members stacked by block size and the off-block term are
    computed once; each m costs one evaluation of the 2x2 blocks, one
    layered pass over eye(n) and one stacked matrix_power per block size.
    """
    n = blocks.joint_dim
    order, cuts = layer_order(sl.flats, sl.kinds, n)
    kinds, flats = sl.kinds[order], sl.flats[order]
    sizes = np.diff(blocks.offsets)
    stacks = []  # (rows, cols, u_b stacked) per distinct block size
    off = u.copy()
    for d in np.unique(sizes).tolist():
        idx = np.stack([blocks.members(b) for b in np.flatnonzero(sizes == d).tolist()])
        rows, cols = idx[:, :, None], idx[:, None, :]
        stacks.append((rows, cols, u[rows, cols]))
        off[rows, cols] = 0.0
    off2 = np.vdot(off, off).real

    def error(m: int) -> float:
        s = np.eye(n, dtype=complex)
        apply_layers(layer_views(flats, kind_blocks(kinds, sl.params(m)[order]), cuts), 1, s)
        e2 = off2
        for rows, cols, ub in stacks:
            r = (np.linalg.matrix_power(s[rows, cols], m) - ub).ravel()
            e2 += np.vdot(r, r).real
        return math.sqrt(e2)

    return error


def compile_approximate(u, blocks: EnergyBlocks, method: str,
                        accuracy: float) -> tuple[GateSequence, float]:
    """Approximate u = e^K with the trotter or bch back-end.

    trotter expands K over the h/m/p basis; bch over rank-2 h/m terms
    plus commutators (compile_nested).  The slice count m doubles from 1
    until the Frobenius error is below `accuracy`, up to M_CAP.  Returns
    the sequence and its error; if M_CAP is not enough, the M_CAP
    sequence and an error at or above `accuracy`.  The slice is planned
    once and the sequence built once, for the m returned.
    """
    u = np.asarray(u, dtype=complex)
    _require_energy_preserving(u, blocks)
    k = _log_unitary(u, blocks)
    if method == "trotter":
        sl = _trotter_slice(_expand_in_basis(k, blocks), 1.0, blocks.dims)
    elif method == "bch":
        sl = _nested_slice(_rank2_combination(k, blocks), 1.0, blocks.dims)
    else:
        raise DomainError(f"unknown approximate method {method!r}")
    error = _power_error(sl, u, blocks)
    m = 1
    while True:
        err = error(m)
        if err < accuracy or 2 * m > M_CAP:
            return sl.sequence(m), err
        m *= 2
