"""Hamiltonian spectra, Gibbs states, joint-energy blocks and samplers.

All Hamiltonians are diagonal in the declared level basis.  The inverse
temperature is fixed at beta = 1: energies are supplied pre-multiplied by
beta, so a Gibbs weight is exp(-E) and no function takes a temperature.

Energies that agree within ENERGY_TOL form one group, by one rule shared
by spectrum labels and joint energy blocks: sort the energies; a group's
representative is its smallest member, and the next group starts at the
first energy >= representative + ENERGY_TOL.  A run of small steps is
therefore split every ENERGY_TOL rather than chained into one group.

Storage is array-backed.  A Spectrum holds two read-only arrays,
`energies` (float) and `labels` (int, the degeneracy label of each
level).  EnergyBlocks holds the joint partition in CSR form:

    order    flat joint indices s * dims[1] + c, sorted by block and
             ascending within a block
    offsets  block b is order[offsets[b]:offsets[b + 1]]
    reps     each block's representative energy, ascending

`Spectrum.levels`, the (energy, label) pairs, is the one tuple view,
built on first use: `__hash__` and `__repr__` read it, and the
`Spectrum(levels)` constructor takes the same form.  EnergyBlocks keeps
no tuple view: `items()` yields each block's energy and members, and
`pairs()` turns flat indices into (s, c) pairs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import as_operator, is_unitary

ENERGY_TOL = 1e-9
PRESERVING_TOL = 1e-9  # largest ||U†U - I||_F and cross-block |u_ij| of an energy-preserving unitary


def _energy_groups(energies: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tolerance groups of an energy array, by the rule in the module
    docstring, in CSR form: (order, offsets, reps) with group k holding the
    entries order[offsets[k]:offsets[k + 1]] in ascending index order.
    Groups are numbered by ascending representative `reps[k]`.
    """
    n = len(energies)
    order = energies.argsort(kind="stable")
    s = energies[order]
    # The group of representative s[i] ends below reach[i] =
    # max(s[i] + ENERGY_TOL, nextafter(s[i])): the next float keeps equal
    # energies together where ENERGY_TOL is below half an ulp, the only
    # place it exceeds s[i] + ENERGY_TOL.  A step to reach[i - 1] or beyond
    # opens a group whatever the representative, so the greedy rule is
    # walked only inside a chain of smaller steps that spans reach of its
    # first energy.
    reach = s + ENERGY_TOL
    flat = reach == s
    if flat.any():
        reach[flat] = np.nextafter(s[flat], np.inf)
    opens = np.empty(n, dtype=bool)
    opens[:1] = True
    np.greater_equal(s[1:], reach[:-1], out=opens[1:])
    starts = opens.nonzero()[0]
    offsets = np.empty(len(starts) + 1, dtype=np.intp)
    offsets[:-1], offsets[-1] = starts, n
    last = s[offsets[1:] - 1]
    wide = last >= reach[starts]
    if wide.any():
        for i, end in zip(starts[wide].tolist(), offsets[1:][wide].tolist()):
            while True:
                i = max(i + 1, int(s.searchsorted(reach[i])))
                if i >= end:
                    break
                opens[i] = True
        starts = opens.nonzero()[0]
        offsets = np.append(starts, n)
        last = s[offsets[1:] - 1]
    reps = s[starts]
    # The stable energy sort leaves a group in index order unless its
    # members differ in energy; only such groups are sorted again, on the
    # key group * n + index, which orders by group and then by index.
    if (last != reps).any():
        descents = (order[1:] < order[:-1]) & ~opens[1:]
        if descents.any():
            gid = opens.cumsum() - 1
            unsorted = np.zeros(len(starts), dtype=bool)
            unsorted[gid[1:][descents]] = True
            redo = unsorted[gid].nonzero()[0]
            base = gid[redo] * n
            key = base + order[redo]
            key.sort()
            order[redo] = key - base
    return order, offsets, reps


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Spectrum:
    """An ordered energy list with degeneracy labels.

    The list order defines the basis index used by all matrices.  Every
    construction path (levels, energies, arrays, JSON) groups the energies
    once and checks the same rules: finite energies, nonnegative labels,
    and labels 0..size-1 within each tolerance group.
    """

    def __init__(self, levels):
        levels = tuple(levels)
        self._init(np.array([e for e, _ in levels], dtype=float),
                   np.array([g for _, g in levels]))

    @classmethod
    def from_arrays(cls, energies, labels) -> "Spectrum":
        """A spectrum from an energy array and a label array of one length."""
        e, g = np.array(energies, dtype=float), np.array(labels)
        if e.ndim != 1 or g.shape != e.shape:
            raise ShapeError(f"energies {e.shape} and labels {g.shape} must be flat and of one length")
        spec = cls.__new__(cls)
        spec._init(e, g)
        return spec

    @classmethod
    def from_energies(cls, energies) -> "Spectrum":
        """Auto-assign degeneracy labels in listed order."""
        e = np.array(energies, dtype=float)
        if e.ndim != 1:
            raise ShapeError(f"energies must be a flat list, got shape {e.shape}")
        spec = cls.__new__(cls)
        spec._init(e, None)
        return spec

    def _init(self, e: np.ndarray, g: np.ndarray | None) -> None:
        """Validate and store; g None assigns labels in listed order."""
        if not np.isfinite(e).all():
            raise DomainError("spectrum energies must be finite")
        if g is not None and (g < 0).any():
            raise DomainError("degeneracy labels must be nonnegative")
        order, offsets, reps = _energy_groups(e)
        sizes = offsets[1:] - offsets[:-1]
        if g is None:
            g = np.empty(len(e), dtype=np.int64)
            g[order] = np.arange(len(e)) - offsets[:-1].repeat(sizes)
        else:
            gid = np.arange(len(sizes)).repeat(sizes)  # group of each sorted position
            g = _checked_labels(g, order, offsets, reps, gid)
        object.__setattr__(self, "energies", _read_only(e))
        object.__setattr__(self, "labels", _read_only(g))

    def __setattr__(self, name, value):
        raise AttributeError(f"Spectrum is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (np.array_equal(self.energies, other.energies)
                and np.array_equal(self.labels, other.labels))

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        return f"Spectrum({self.levels!r})"

    @classmethod
    def from_json(cls, obj) -> "Spectrum":
        if isinstance(obj, str):
            with open(obj) as f:
                obj = json.load(f)
        if "energies" in obj:
            return cls.from_energies(obj["energies"])
        if "levels" in obj:
            return cls(tuple((float(l["energy"]), int(l["deg"])) for l in obj["levels"]))
        raise DomainError("spectrum JSON needs an 'energies' or 'levels' key")

    def to_json(self) -> dict:
        return {"levels": [{"energy": e, "deg": g}
                           for e, g in zip(self.energies.tolist(), self.labels.tolist())]}

    @property
    def dim(self) -> int:
        return len(self.energies)

    @cached_property
    def levels(self) -> tuple[tuple[float, int], ...]:
        """(energy, label) per level, a tuple view built on first use."""
        return tuple(zip(self.energies.tolist(), self.labels.tolist()))


def _checked_labels(g: np.ndarray, order, offsets, reps, gid) -> np.ndarray:
    """g as int64 if each group's labels are 0..size-1 in some order.

    Each label that fits its group claims slot offsets[group] + label; the
    labels are valid iff every slot is claimed exactly once.  Labels known
    to be nonnegative.
    """
    n = len(g)
    if g.dtype.kind not in "biu":  # a non-integral label fits no slot
        g = g.astype(float)
        g = np.where(np.isfinite(g) & (g == np.round(g)), g, n)
    g = np.minimum(g, n).astype(np.int64)
    sizes = np.diff(offsets)
    sorted_g = g[order]
    slot = np.where(sorted_g < sizes[gid], offsets[gid] + sorted_g, n)
    bad = np.flatnonzero(np.bincount(slot, minlength=n + 1)[:n] != 1)
    if len(bad):
        k = gid[bad[0]]
        raise DomainError(f"degeneracy labels at energy {reps[k]} are not 0..{sizes[k] - 1}")
    return g


@dataclass(frozen=True)
class DiagonalState:
    """A population vector over a spectrum's levels."""

    populations: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.populations, dtype=float)
        # NaN propagates through min and sum and fails both tests, which are
        # written to be False on it; +inf and an empty vector fail the sum.
        low = p.min(initial=0.0)
        if not low >= -1e-14:
            raise DomainError(f"negative or NaN population {low}")
        p = np.maximum(p, 0.0)
        total = p.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise DomainError(f"populations sum to {total}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "populations", p)

    @property
    def dim(self) -> int:
        return len(self.populations)

    def to_dense(self) -> np.ndarray:
        return np.diag(self.populations).astype(complex)


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

    def flat(self, pair: tuple[int, int]) -> int:
        s, c = pair
        return s * self.dims[1] + c

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


def gibbs_state(spec: Spectrum) -> DiagonalState:
    """exp(-E_i) / Z over the spectrum's levels."""
    w = np.exp(-(spec.energies - spec.energies.min()))
    return DiagonalState(w / w.sum())


def energy_blocks(spec_s: Spectrum, spec_c: Spectrum) -> EnergyBlocks:
    """Group joint indices (i, j) by total energy E_i + E_j (ENERGY_TOL).

    Blocks are ordered by representative energy, indices within a block
    ascending, i.e. by (i, j).
    """
    order, offsets, reps = _energy_groups(
        np.add.outer(spec_s.energies, spec_c.energies).ravel())
    return EnergyBlocks(_read_only(order), _read_only(offsets), _read_only(reps),
                        dims=(spec_s.dim, spec_c.dim))


def random_energy_preserving_unitary(blocks: EnergyBlocks, seed: int) -> np.ndarray:
    """Block-diagonal unitary with an independent Haar block per energy.

    One rng.standard_normal call draws sum_b 2 d_b^2 values; block b, in
    block order, takes the next d_b^2 as the real parts of a d_b x d_b
    matrix Z (row-major), then the next d_b^2 as its imaginary parts.
    Each Z is QR-factored (one stacked qr per block size) and Q's columns
    are multiplied by the phases of R's diagonal.
    """
    rng = np.random.default_rng(seed)
    n = blocks.joint_dim
    sizes = np.diff(blocks.offsets)
    width = 2 * sizes * sizes
    starts = np.cumsum(width) - width
    draw = rng.standard_normal(int(width.sum()))
    u = np.zeros((n, n), dtype=complex)
    for d in sorted(set(sizes.tolist())):
        bs = np.flatnonzero(sizes == d)
        z = draw[starts[bs][:, None] + np.arange(2 * d * d)].reshape(-1, 2, d, d)
        q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
        diag = r.diagonal(axis1=1, axis2=2)
        q *= (diag / np.abs(diag))[:, None, :]
        idx = blocks.order[blocks.offsets[bs][:, None] + np.arange(d)]
        u[idx[:, :, None], idx[:, None, :]] = q
    return u


def is_energy_preserving(u, blocks: EnergyBlocks, tol: float = PRESERVING_TOL) -> bool:
    """True iff u is unitary and couples no distinct energy blocks."""
    u = as_operator(u)
    if u.shape[0] != blocks.joint_dim:
        raise ShapeError(f"unitary dim {u.shape[0]} != joint dim {blocks.joint_dim}")
    if not is_unitary(u, tol):
        return False
    bid = blocks.block_of_flat()
    mask = bid[:, None] != bid[None, :]
    return bool(np.all(np.abs(u[mask]) < tol))


def max_cross_block_entry(u, blocks: EnergyBlocks) -> tuple[int, int, float]:
    """Largest entry coupling two blocks, for error reporting."""
    u = as_operator(u)
    bid = blocks.block_of_flat()
    mask = bid[:, None] != bid[None, :]
    mags = np.where(mask, np.abs(u), 0.0)
    i, j = np.unravel_index(np.argmax(mags), mags.shape)
    return int(i), int(j), float(mags[i, j])
