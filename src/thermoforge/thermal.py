"""Hamiltonian spectra, Gibbs states, joint-energy blocks and samplers.

All Hamiltonians are diagonal in the declared level basis.  The inverse
temperature is fixed at beta = 1: energies are supplied pre-multiplied by
beta, so a Gibbs weight is exp(-E) and no function takes a temperature.

Energies that agree within ENERGY_TOL form one group, by one rule shared
by the check of a `levels`-form spectrum file and the joint energy
blocks: sort the energies; a group's representative is its smallest
member, and the next group starts at the first energy >= representative
+ ENERGY_TOL.  A run of small steps is therefore split every ENERGY_TOL
rather than chained into one group.  _energy_groups walks this rule,
one searchsorted per group; a joint energy past the float range is inf,
and each +inf opens a group of its own.

Storage is array-backed.  A Spectrum holds one read-only, flat, finite
float array, `energies`: degeneracy is which levels share an energy, and
only the joint energy blocks ask that.  EnergyBlocks holds the joint
partition in CSR form:

    order    flat joint indices s * dims[1] + c, sorted by block and
             ascending within a block
    offsets  block b is order[offsets[b]:offsets[b + 1]]
    reps     each block's representative energy, ascending

EnergyBlocks keeps no tuple view: `items()` yields each block's energy
and members, and `pairs()` turns flat indices into (s, c) pairs;
flat_index, the one joint-index check, turns a pair back.

random_energy_preserving_unitary samples one structure (with a seed, or
an array of seeds for a (..., n, n) stack) or a list of structures with
one seed each (a list of unitaries).  Both are one ragged batch: one rng
and one standard_normal draw per seed, in order, then one stacked QR per
distinct block size across every block of every instance, and one
scatter.  The population rule of DiagonalState and the Gibbs weights
read (..., n) stacks row by row, for majorization's stacked curves.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError, ShapeError, json_reals, load_json_object
from .linalg import as_operator, unitarity_defect

ENERGY_TOL = 1e-9
PRESERVING_TOL = 1e-9  # largest ||U†U - I||_F and cross-block |u_ij| of an energy-preserving unitary
POPULATION_FLOOR = -1e-14  # lowest population entry read (as 0) rather than refused
POPULATION_SUM_TOL = 1e-12  # largest distance of a population sum from 1


def _energy_groups(energies: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tolerance groups of an energy array, by the rule in the module
    docstring, in CSR form: (order, offsets, reps) with group k holding the
    entries order[offsets[k]:offsets[k + 1]] in ascending index order.
    Groups are numbered by ascending representative `reps[k]`.
    """
    order = energies.argsort(kind="stable")
    s = energies[order]
    starts, i = [], 0
    while i < len(s):
        starts.append(i)
        rep = float(s[i])
        # The next float keeps equal energies together where ENERGY_TOL is
        # below half an ulp.  Neither reaches past +inf, so each +inf opens
        # a group of its own.
        i = max(i + 1, int(s.searchsorted(max(rep + ENERGY_TOL, math.nextafter(rep, math.inf)))))
    offsets = np.array(starts + [len(s)], dtype=np.intp)
    reps = s[starts]
    # The stable sort leaves a group in index order unless its members
    # differ in energy.
    if (s[offsets[1:] - 1] != reps).any():
        order = order[np.lexsort((order, np.repeat(np.arange(len(starts)), np.diff(offsets))))]
    return order, offsets, reps


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NOT_FLAT = "energies {} must be flat and labels, if given, of that shape"


class Spectrum:
    """An ordered energy list, one energy per level, whose order is the
    basis index of all matrices.  from_energies is the one constructor."""

    @classmethod
    def from_energies(cls, energies) -> "Spectrum":
        """A spectrum from a flat list or array of finite energies."""
        e = np.array(energies, dtype=float)
        if e.ndim != 1:
            raise ShapeError(_NOT_FLAT.format(e.shape))
        if not np.isfinite(e).all():
            raise DomainError("spectrum energies must be finite")
        spec = cls.__new__(cls)
        object.__setattr__(spec, "energies", _read_only(e))
        return spec

    def __setattr__(self, name, value):
        raise AttributeError(f"Spectrum is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return np.array_equal(self.energies, other.energies)

    def __hash__(self):
        return hash(tuple(self.energies.tolist()))

    def __repr__(self):
        return f"Spectrum.from_energies({self.energies.tolist()!r})"

    @classmethod
    def from_json(cls, obj) -> "Spectrum":
        """A spectrum from a path or a parsed object, in either form of
        docs/formats.md, its numbers read by errors.json_reals.  The `deg`
        labels of the `levels` form are checked (after the shapes and the
        energies), then dropped."""
        obj = load_json_object(obj, "a spectrum")
        if "energies" in obj:
            return cls.from_energies(json_reals(obj["energies"], "energies"))
        if "levels" in obj:
            levels = obj["levels"]
            if not (isinstance(levels, list) and all(isinstance(l, dict) for l in levels)):
                raise FormatError("'levels' must be a list of objects")
            e = json_reals([l["energy"] for l in levels], "energy")
            g = json_reals([l["deg"] for l in levels], "deg")
            if g.shape != e.shape:
                raise ShapeError(_NOT_FLAT.format(e.shape))
            spec = cls.from_energies(e)
            _check_labels(g, e)
            return spec
        raise FormatError("spectrum JSON needs an 'energies' or 'levels' key")

    @property
    def dim(self) -> int:
        return len(self.energies)


def _check_labels(g: np.ndarray, energies: np.ndarray) -> None:
    """Raise DomainError unless the float labels g are nonnegative and,
    within each tolerance group of `energies`, 0..size-1 in some order.

    Each label that fits its group claims slot offsets[group] + label; the
    labels are valid iff every slot is claimed exactly once.
    """
    if (g < 0).any():
        raise DomainError("degeneracy labels must be nonnegative")
    order, offsets, reps = _energy_groups(energies)
    n = len(g)
    sizes = np.diff(offsets)
    gid = np.arange(len(sizes)).repeat(sizes)  # group of each sorted position
    g = np.where(np.isfinite(g) & (g == np.round(g)), g, n)  # n fits no slot
    sorted_g = np.minimum(g, n).astype(np.int64)[order]
    slot = np.where(sorted_g < sizes[gid], offsets[gid] + sorted_g, n)
    bad = np.flatnonzero(np.bincount(slot, minlength=n + 1)[:n] != 1)
    if len(bad):
        k = gid[bad[0]]
        raise DomainError(f"degeneracy labels at energy {reps[k]} are not 0..{sizes[k] - 1}")


def _checked_populations(p: np.ndarray) -> np.ndarray:
    """Each row of a float (..., n) array as a population vector: no entry
    below POPULATION_FLOOR, entries clipped at 0, a sum within
    POPULATION_SUM_TOL of 1.  Raises
    DomainError for the first row, in C order, that fails, naming its
    first failed rule."""
    # NaN propagates through min and sum and fails both tests, which are
    # written to be False on it; +inf and an empty row fail the sum.
    low = p.min(axis=-1, initial=0.0)
    p = np.maximum(p, 0.0)
    total = p.sum(axis=-1)
    ok = (low >= POPULATION_FLOOR) & (abs(total - 1.0) <= POPULATION_SUM_TOL)
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        low, total = np.ravel(low)[i], np.ravel(total)[i]
        if not low >= POPULATION_FLOOR:
            raise DomainError(f"negative or NaN population {low}")
        raise DomainError(f"populations sum to {total}, not 1")
    return p


@dataclass(frozen=True)
class DiagonalState:
    """A population vector over a spectrum's levels."""

    populations: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.populations, dtype=float)
        if p.ndim != 1:
            raise ShapeError(f"populations must be a flat list, got shape {p.shape}")
        p = _checked_populations(p)
        p.flags.writeable = False
        object.__setattr__(self, "populations", p)

    @property
    def dim(self) -> int:
        return len(self.populations)

    def to_dense(self) -> np.ndarray:
        return np.diag(self.populations).astype(complex)


def flat_index(pair, dims: tuple[int, int]) -> int:
    """Flat joint index s * dims[1] + c of a joint index pair (s, c), the
    inverse of EnergyBlocks.pairs.  ShapeError unless s and c are integers
    with 0 <= s < dims[0] and 0 <= c < dims[1]; otherwise the pair would
    alias another flat level."""
    try:
        s, c = (operator.index(i) for i in pair)
    except (TypeError, ValueError):
        raise ShapeError(f"joint index {pair!r} is not an integer pair") from None
    if not (0 <= s < dims[0] and 0 <= c < dims[1]):
        raise ShapeError(f"joint index ({s}, {c}) out of range for dims {tuple(dims)}")
    return s * dims[1] + c


@dataclass(frozen=True, eq=False)
class EnergyBlocks:
    """Partition of the joint (system, catalyst) index set by total
    energy, in the CSR form of the module docstring."""

    order: np.ndarray
    offsets: np.ndarray
    reps: np.ndarray
    dims: tuple[int, int]

    @property
    def joint_dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def pairs(self, flats) -> list[tuple[int, int]]:
        """(system, catalyst) index pair of each flat joint index."""
        s, c = np.divmod(np.asarray(flats), self.dims[1])
        return list(zip(s.tolist(), c.tolist()))

    def members(self, b: int) -> np.ndarray:
        """Flat joint indices of block b, ascending (a view of `order`)."""
        return self.order[self.offsets[b]:self.offsets[b + 1]]

    def items(self):
        """(representative energy, members) of each block, in block order."""
        return zip(self.reps.tolist(), np.split(self.order, self.offsets[1:-1]))

    def block_sizes(self) -> list[int]:
        return np.diff(self.offsets).tolist()

    def block_of_flat(self) -> np.ndarray:
        """Block id per flat joint index."""
        out = np.empty(self.joint_dim, dtype=int)
        out[self.order] = np.repeat(np.arange(len(self.reps)), np.diff(self.offsets))
        return out


def _gibbs_weights(energies: np.ndarray) -> np.ndarray:
    """exp(-E_i) / Z along the last axis of an (..., n) energy array."""
    with np.errstate(over="ignore"):  # a span past the float range: weight 0
        w = np.exp(-(energies - energies.min(axis=-1, keepdims=True)))
    return w / w.sum(axis=-1, keepdims=True)


def gibbs_state(spec: Spectrum) -> DiagonalState:
    """exp(-E_i) / Z over the spectrum's levels.

    The weights are nonnegative and sum to 1 within rounding by
    construction, so they skip the population rule of DiagonalState,
    whose clip and sum they would pass unchanged."""
    state = DiagonalState.__new__(DiagonalState)
    object.__setattr__(state, "populations", _read_only(_gibbs_weights(spec.energies)))
    return state


def energy_blocks(spec_s: Spectrum, spec_c: Spectrum) -> EnergyBlocks:
    """Group joint indices (i, j) by total energy E_i + E_j (ENERGY_TOL).

    Blocks are ordered by representative energy, indices within a block
    ascending, i.e. by (i, j).
    """
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        total = np.add.outer(spec_s.energies, spec_c.energies).ravel()
    order, offsets, reps = _energy_groups(total)
    return EnergyBlocks(_read_only(order), _read_only(offsets), _read_only(reps),
                        dims=(spec_s.dim, spec_c.dim))


def random_energy_preserving_unitary(blocks, seed):
    """Block-diagonal unitary with an independent Haar block per energy.

    One rng.standard_normal call draws sum_b 2 d_b^2 values; block b, in
    block order, takes the next d_b^2 as the real parts of a d_b x d_b
    matrix Z (row-major), then the next d_b^2 as its imaginary parts.
    Each Z is QR-factored and Q's columns are multiplied by the phases of
    R's diagonal.

    `blocks` is one EnergyBlocks or a sequence of them.  For one, an array
    of seeds, such as a sequence of T, gives the stack of shape (T, n, n)
    whose slice i is the unitary of seed i, bit for bit.  For a sequence,
    `seed` holds one seed per structure, and the result is the list of
    their unitaries, each bit-equal to its single call.  Either way there
    is one rng per seed, one stacked qr per block size over every block of
    every instance, and one scatter.
    """
    if isinstance(blocks, EnergyBlocks):
        lead = np.shape(seed)
        n = blocks.joint_dim
        seeds = np.ravel(seed).tolist()
        return _haar_unitaries([blocks] * len(seeds), seeds).reshape(lead + (n, n))
    blocks, seeds = list(blocks), np.ravel(seed).tolist()
    if len(seeds) != len(blocks):
        raise ShapeError(f"{len(seeds)} seeds for {len(blocks)} block structures")
    flat = _haar_unitaries(blocks, seeds)
    ns = [b.joint_dim for b in blocks]
    ends = np.cumsum([n * n for n in ns]).tolist()
    return [flat[end - n * n:end].reshape(n, n) for n, end in zip(ns, ends)]


def _haar_unitaries(structures: list[EnergyBlocks], seeds: list[int]) -> np.ndarray:
    """The unitaries of random_energy_preserving_unitary, one per
    (structure, seed), row-major one after another in one flat array."""
    ns = np.array([b.joint_dim for b in structures], dtype=np.intp)
    nblocks = np.array([len(b.reps) for b in structures], dtype=np.intp)
    u = np.zeros(int((ns * ns).sum()), dtype=complex)
    if not len(u):
        return u
    # Every block of every instance, in instance then block order: its size,
    # the start of its members in `order`, and its instance's size and
    # start in u.
    first = np.concatenate([b.offsets[:-1] for b in structures])
    sizes = np.concatenate([b.offsets[1:] for b in structures]) - first
    order = np.concatenate([b.order for b in structures])
    member = first + np.repeat(np.cumsum(ns) - ns, nblocks)
    dim = np.repeat(ns, nblocks)
    base = np.repeat(np.cumsum(ns * ns) - ns * ns, nblocks)
    # Block k takes draw[ends[k]:ends[k + 1]]; instance i draws the values
    # of its blocks in one call.
    ends = np.concatenate(([0], np.cumsum(2 * sizes * sizes)))
    totals = np.diff(ends[np.concatenate(([0], np.cumsum(nblocks)))])
    draw = np.concatenate([np.random.default_rng(s).standard_normal(t)
                           for s, t in zip(seeds, totals.tolist())])
    at, values = [], []
    for d in np.flatnonzero(np.bincount(sizes)).tolist():
        bs = np.flatnonzero(sizes == d)
        z = draw[ends[bs][:, None] + np.arange(2 * d * d)].reshape(-1, 2, d, d)
        q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
        diag = r.diagonal(axis1=-2, axis2=-1)
        q *= (diag / np.abs(diag))[..., None, :]
        idx = order[member[bs][:, None] + np.arange(d)]
        at.append((base[bs, None, None] + idx[:, :, None] * dim[bs, None, None]
                   + idx[:, None, :]).ravel())
        values.append(q.ravel())
    u[np.concatenate(at)] = np.concatenate(values)
    return u


def _preserving_fault(u, blocks: EnergyBlocks, tol: float) -> str | None:
    """Why u is not an energy-preserving unitary to tol, or None: its worst
    entry coupling two energy blocks or, when no entry does, its
    unitarity defect ||U†U - I||_F (inf if it overflows)."""
    u = as_operator(u)
    if u.shape[0] != blocks.joint_dim:
        raise ShapeError(f"unitary dim {u.shape[0]} != joint dim {blocks.joint_dim}")
    bid = blocks.block_of_flat()
    mags = np.where(bid[:, None] != bid[None, :], np.abs(u), 0.0)
    if mags.max(initial=0.0) >= tol:
        i, j = np.unravel_index(np.argmax(mags), mags.shape)
        return f"unitary entry ({i},{j}) of magnitude {mags[i, j]:.3e} couples energy blocks"
    defect = unitarity_defect(u)
    if defect >= tol:
        return f"matrix is not unitary: ||U†U - I||_F = {defect:.3e}"
    return None


def is_energy_preserving(u, blocks: EnergyBlocks, tol: float = PRESERVING_TOL) -> bool:
    """True iff u is unitary and couples no distinct energy blocks."""
    return _preserving_fault(u, blocks, tol) is None


def require_energy_preserving(u, blocks: EnergyBlocks) -> None:
    """Raise DomainError unless is_energy_preserving(u, blocks), naming the
    worst cross-block entry of u or, when no entry couples two blocks, its
    unitarity defect ||U†U - I||_F."""
    fault = _preserving_fault(u, blocks, PRESERVING_TOL)
    if fault is not None:
        raise DomainError(fault)
