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
import math
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
    order = np.argsort(energies, kind="stable")
    s = energies[order]
    starts = []
    i = 0
    while i < len(s):
        starts.append(i)
        rep = float(s[i])
        # nextafter keeps equal energies together where ENERGY_TOL is below an ulp.
        i = max(i + 1, int(np.searchsorted(s, max(rep + ENERGY_TOL, math.nextafter(rep, math.inf)))))
    offsets = np.array(starts + [len(s)])
    # The stable energy sort leaves a group in index order unless its
    # members differ in energy; only then is a second sort needed.
    opens = np.zeros(len(s), dtype=bool)
    opens[starts] = True
    if np.any((np.diff(order) < 0) & ~opens[1:]):
        gid = np.repeat(np.arange(len(starts)), np.diff(offsets))
        order = order[np.lexsort((order, gid))]
    return order, offsets, s[starts]


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
        if not np.all(np.isfinite(e)):
            raise DomainError("spectrum energies must be finite")
        if g is not None and np.any(g < 0):
            raise DomainError("degeneracy labels must be nonnegative")
        order, offsets, reps = _energy_groups(e)
        sizes = np.diff(offsets)
        gid = np.repeat(np.arange(len(sizes)), sizes)  # group of each sorted position
        if g is None:
            g = np.empty(len(e), dtype=np.int64)
            g[order] = np.arange(len(e)) - offsets[gid]
        else:
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
        if np.any(p < -1e-14):
            raise DomainError(f"negative population {p.min()}")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > 1e-12:
            raise DomainError(f"populations sum to {p.sum()}, not 1")
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
    """Block-diagonal unitary with an independent Haar block per energy."""
    rng = np.random.default_rng(seed)
    n = blocks.joint_dim
    u = np.zeros((n, n), dtype=complex)
    for _, flats in blocks.items():
        d = len(flats)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        u[np.ix_(flats, flats)] = q
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
