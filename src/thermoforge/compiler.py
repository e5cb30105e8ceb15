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
m = trotter_m times.  GateStep is the value type at the API edge
(seq.steps).

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
compile_approximate, which doubles m until the accuracy is met, pays
that once per doubling.

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

import numpy as np

from .errors import DomainError, ShapeError
# GateStep is re-exported: thermoforge.compiler.GateStep is public API.
from .gates import KIND_CODE, GateSequence, GateStep, apply_gates  # noqa: F401
from .generators import ElementaryGenerator
from .linalg import frobenius_distance
from .thermal import EnergyBlocks, is_energy_preserving, max_cross_block_entry

_ELIM_TOL = 1e-13
_COEFF_TOL = 1e-14  # generator coefficients at or below this are dropped
M_CAP = 1 << 14  # largest slice count compile_approximate tries
_P, _GIVENS = KIND_CODE["p"], KIND_CODE["givens"]


def reconstruct(seq: GateSequence) -> np.ndarray:
    """Ordered product of the steps, steps[0] acting first.

    A sequence of one slice repeated m times (repeat > 1) is
    reconstructed as slice^m by repeated squaring; any other sequence
    (including one loaded from JSON) layer by layer.
    """
    n = seq.dims[0] * seq.dims[1]
    if seq.repeat == 1:
        return apply_gates(seq, np.eye(n, dtype=complex))
    one = seq.first_slice()
    return np.linalg.matrix_power(apply_gates(one, np.eye(n, dtype=complex)), seq.repeat)


def _require_energy_preserving(u: np.ndarray, blocks: EnergyBlocks) -> None:
    if not is_energy_preserving(u, blocks):
        i, j, mag = max_cross_block_entry(u, blocks)
        raise DomainError(
            f"unitary entry ({i},{j}) of magnitude {mag:.3e} couples energy blocks"
        )


def compile_exact(u, blocks: EnergyBlocks) -> GateSequence:
    """Two-level elimination of each energy block's sub-unitary."""
    u = np.asarray(u, dtype=complex)
    _require_energy_preserving(u, blocks)
    phases: list[tuple[int, float]] = []  # (flat level, param)
    givens: list[tuple[int, int, np.ndarray]] = []  # (flat levels, R with R† emitted)
    for _, members in blocks.items():
        flats = members.tolist()
        d = len(flats)
        a = u[np.ix_(flats, flats)].copy()
        block_rots = []
        for col in range(d - 1):
            # Rotating rows (col, row) leaves a[row', col] of later rows alone.
            for row, b in enumerate(a[col + 1:, col].tolist(), start=col + 1):
                if abs(b) < _ELIM_TOL:
                    continue
                x = a[col, col]
                r = math.hypot(abs(x), abs(b))
                # R zeroes a[row, col]; the emitted gate is R†.
                r2 = np.array([[x.conjugate(), b.conjugate()], [-b, x]]) / r
                pair = a[col:row + 1:row - col]  # a view of rows col and row
                pair[...] = r2 @ pair
                block_rots.append((flats[col], flats[row], r2))
        # a is now diagonal with unit-modulus phases.
        diag = np.diag(a)
        for k in np.flatnonzero(np.abs(diag - 1.0) > 1e-12).tolist():
            phases.append((flats[k], -float(np.angle(diag[k]))))
        givens.extend(reversed(block_rots))
    # Phases act first; eliminations are undone outermost-last.
    rots = np.array([r2 for _, _, r2 in givens]).reshape(-1, 2, 2)
    blocks_out = np.zeros((len(phases) + len(givens), 2, 2), dtype=complex)
    blocks_out[len(phases):] = rots.conj().transpose(0, 2, 1)
    return GateSequence.from_arrays(
        kinds=[_P] * len(phases) + [_GIVENS] * len(givens),
        flats=[(f, f) for f, _ in phases] + [(i, j) for i, j, _ in givens],
        blocks=blocks_out,
        params=[p for _, p in phases] + [math.nan] * len(givens),
        method="exact", dims=blocks.dims,
    )


def _sorted_coeffs(coeffs) -> list[tuple[ElementaryGenerator, float]]:
    items = list(coeffs.items()) if isinstance(coeffs, dict) else list(coeffs)
    items.sort(key=lambda t: t[0])
    return items


def _generator_columns(terms, dims: tuple[int, int]):
    """Columns of one slice of steps exp(param * K_g) for (generator,
    param) terms, in order; a joint index outside dims raises ShapeError."""
    ds, dc = dims
    flats = []
    for g, _ in terms:
        for s, c in (g.first, g.second):
            if not (0 <= s < ds and 0 <= c < dc):
                raise ShapeError(f"joint index ({s}, {c}) out of range for dims {dims}")
        flats.append((g.first[0] * dc + g.first[1], g.second[0] * dc + g.second[1]))
    kinds = [KIND_CODE[g.kind] for g, _ in terms]
    return kinds, flats, np.zeros((len(terms), 2, 2)), [p for _, p in terms]


def compile_trotter(coeffs, t: float, m: int, dims: tuple[int, int]) -> GateSequence:
    """First-order product formula for exp(t * sum_j r_j K_j).

    One slice applies every generator in lexicographic order with parameter
    t*r_j/m; the slice repeats m times.  The reported bound uses the
    heuristic constant c=1 on the O(t^2/M) term.
    """
    if m <= 0:
        raise DomainError(f"trotter step count must be positive, got {m}")
    items = [(g, r) for g, r in _sorted_coeffs(coeffs) if r != 0.0]
    if not items or t == 0.0:
        return GateSequence(steps=[], method="trotter", dims=dims, trotter_m=m)
    terms = [(g, t * r / m) for g, r in items]
    total = sum(abs(r) for _, r in items)  # every kind has unit spectral norm
    bound = (t * total) ** 2 / m
    return GateSequence.from_arrays(*_generator_columns(terms, dims), method="trotter",
                                    dims=dims, error_bound=bound, trotter_m=m, repeat=m)


def _bch_group(j: ElementaryGenerator, k: ElementaryGenerator,
               s: float) -> list[tuple[ElementaryGenerator, float]]:
    # Product e^{-sJ} e^{-sK} e^{sJ} e^{sK}; terms listed first-acting first.
    return [(k, s), (j, s), (k, -s), (j, -s)]


def compile_bch(j: ElementaryGenerator, k: ElementaryGenerator, t: float, m: int,
                dims: tuple[int, int]) -> GateSequence:
    """Group-commutator synthesis of exp(t [K_j, K_k]), 4m gates.

    Negative t swaps the pair ([K_k, K_j] = -[K_j, K_k]) so sqrt(t/m)
    stays real.  Error decays as t^{3/2}/sqrt(m).
    """
    if m <= 0:
        raise DomainError(f"bch step count must be positive, got {m}")
    if t < 0:
        j, k, t = k, j, -t
    if t == 0.0:
        return GateSequence(steps=[], method="bch", dims=dims, trotter_m=m)
    s = math.sqrt(t / m)
    bound = t ** 1.5 / math.sqrt(m)
    return GateSequence.from_arrays(*_generator_columns(_bch_group(j, k, s), dims),
                                    method="bch", dims=dims, error_bound=bound,
                                    trotter_m=m, repeat=m)


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


def compile_nested(combo: GeneratorCombination, t: float, m: int,
                   dims: tuple[int, int]) -> GateSequence:
    """Outer Trotter over the combination's summands; each commutator
    summand is realized by one BCH group per slice."""
    if m <= 0:
        raise DomainError(f"step count must be positive, got {m}")
    if not combo.commutators:
        return compile_trotter(dict(combo.linear), t, m, dims)
    if not combo.linear and len(combo.commutators) == 1:
        a, b, c = combo.commutators[0]
        return compile_bch(a, b, t * c, m, dims)
    terms = [(g, t * c / m) for g, c in sorted(combo.linear, key=lambda p: p[0]) if c != 0.0]
    for a, b, c in combo.commutators:
        tc = t * c / m
        if tc == 0.0:
            continue
        if tc < 0:
            a, b, tc = b, a, -tc
        terms.extend(_bch_group(a, b, math.sqrt(tc)))
    return GateSequence.from_arrays(*_generator_columns(terms, dims), method="nested",
                                    dims=dims, trotter_m=m, repeat=m)


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


def compile_approximate(u, blocks: EnergyBlocks, method: str,
                        accuracy: float) -> tuple[GateSequence, float]:
    """Approximate u = e^K with the trotter or bch back-end.

    trotter expands K over the h/m/p basis; bch over rank-2 h/m terms
    plus commutators (compile_nested).  The slice count m doubles from 1
    until the Frobenius error is below `accuracy`, up to M_CAP.  Returns
    the sequence and its error; if M_CAP is not enough, the M_CAP
    sequence and an error at or above `accuracy`.
    """
    u = np.asarray(u, dtype=complex)
    _require_energy_preserving(u, blocks)
    k = _log_unitary(u, blocks)
    if method == "trotter":
        coeffs = _expand_in_basis(k, blocks)
        build = lambda m: compile_trotter(coeffs, 1.0, m, blocks.dims)
    elif method == "bch":
        combo = _rank2_combination(k, blocks)
        build = lambda m: compile_nested(combo, 1.0, m, blocks.dims)
    else:
        raise DomainError(f"unknown approximate method {method!r}")
    m = 1
    while True:
        seq = build(m)
        err = frobenius_distance(reconstruct(seq), u)
        if err < accuracy or 2 * m > M_CAP:
            return seq, err
        m *= 2
