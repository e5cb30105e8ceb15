"""Hamiltonian spectra, Gibbs states, joint-energy blocks and samplers.

All Hamiltonians are diagonal in the declared level basis.  Energies are
supplied pre-multiplied by beta (beta = 1 convention); only beta*E products
matter anywhere downstream.

Energies that agree within ENERGY_TOL form one group, by one rule shared
by spectrum labels and joint energy blocks: sort the energies; a group's
representative is its smallest member, and the next group starts at the
first energy >= representative + ENERGY_TOL.  A run of small steps is
therefore split every ENERGY_TOL rather than chained into one group.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import as_operator, is_unitary

ENERGY_TOL = 1e-9


def _energy_groups(energies) -> tuple[np.ndarray, np.ndarray]:
    """Tolerance groups of an energy array, by the rule in the module docstring.

    Returns the group id of every entry (groups numbered by ascending
    representative) and each group's representative energy.
    """
    e = np.asarray(energies, dtype=float)
    order = np.argsort(e, kind="stable")
    s = e[order]
    # nextafter keeps equal energies together where ENERGY_TOL is below an ulp.
    thresholds = np.maximum(s + ENERGY_TOL, np.nextafter(s, np.inf))
    starts = []
    i = 0
    while i < len(s):
        starts.append(i)
        i = max(i + 1, int(np.searchsorted(s, thresholds[i])))
    sorted_gid = np.zeros(len(s), dtype=int)
    sorted_gid[starts[1:]] = 1
    gid = np.empty(len(s), dtype=int)
    gid[order] = np.cumsum(sorted_gid)
    return gid, s[starts]


def _ranks_within(sorted_gid: np.ndarray) -> np.ndarray:
    """0, 1, 2, ... restarting at every new id of a grouped id array."""
    n = len(sorted_gid)
    new = np.ones(n, dtype=bool)
    new[1:] = sorted_gid[1:] != sorted_gid[:-1]
    starts = np.flatnonzero(new)
    return np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))


@dataclass(frozen=True)
class ThermalContext:
    beta: float = 1.0

    def __post_init__(self):
        if not (self.beta > 0):
            raise DomainError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class Spectrum:
    """An ordered energy list with degeneracy labels.

    The list order defines the basis index used by all matrices.
    """

    levels: tuple[tuple[float, int], ...]

    def __post_init__(self):
        e = self.energies
        g = np.array([g for _, g in self.levels])
        if not np.all(np.isfinite(e)):
            raise DomainError("spectrum energies must be finite")
        if np.any(g < 0):
            raise DomainError("degeneracy labels must be nonnegative")
        # Within one energy group the labels must be 0..delta-1 with no gaps.
        gid, reps = _energy_groups(e)
        order = np.lexsort((g, gid))
        bad = np.flatnonzero(g[order] != _ranks_within(gid[order]))
        if len(bad):
            k = gid[order[bad[0]]]
            size = np.count_nonzero(gid == k)
            raise DomainError(
                f"degeneracy labels at energy {reps[k]} are not 0..{size - 1}"
            )

    @classmethod
    def from_energies(cls, energies) -> "Spectrum":
        """Auto-assign degeneracy labels in listed order."""
        e = np.array(energies, dtype=float)
        if e.ndim != 1:
            raise ShapeError(f"energies must be a flat list, got shape {e.shape}")
        gid, _ = _energy_groups(e)
        order = np.argsort(gid, kind="stable")
        labels = np.empty(len(e), dtype=int)
        labels[order] = _ranks_within(gid[order])
        return cls(tuple(zip(e.tolist(), labels.tolist())))

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
        return {"levels": [{"energy": e, "deg": g} for e, g in self.levels]}

    @property
    def dim(self) -> int:
        return len(self.levels)

    @cached_property
    def energies(self) -> np.ndarray:
        """Level energies in basis order (read-only)."""
        e = np.array([e for e, _ in self.levels], dtype=float)
        e.flags.writeable = False
        return e

    def index_of(self, energy: float, deg: int) -> int:
        for i, (e, g) in enumerate(self.levels):
            if abs(e - energy) < ENERGY_TOL and g == deg:
                return i
        raise ShapeError(f"no level with energy {energy}, deg {deg}")


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


@dataclass(frozen=True)
class EnergyBlocks:
    """Partition of the joint (system, catalyst) index set by total energy."""

    blocks: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]
    dims: tuple[int, int]

    @property
    def joint_dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def flat(self, pair: tuple[int, int]) -> int:
        s, c = pair
        return s * self.dims[1] + c

    def block_sizes(self) -> list[int]:
        return [len(idx) for _, idx in self.blocks]

    def block_of_flat(self) -> np.ndarray:
        """Block id per flat joint index."""
        out = np.empty(self.joint_dim, dtype=int)
        for b, (_, idx) in enumerate(self.blocks):
            for pair in idx:
                out[self.flat(pair)] = b
        return out


def gibbs_state(spec: Spectrum, ctx: ThermalContext = ThermalContext()) -> DiagonalState:
    """exp(-beta E_i) / Z over the spectrum's levels."""
    w = np.exp(-ctx.beta * (spec.energies - spec.energies.min()))
    return DiagonalState(w / w.sum())


def energy_blocks(spec_s: Spectrum, spec_c: Spectrum) -> EnergyBlocks:
    """Group joint indices (i, j) by total energy E_i + E_j (ENERGY_TOL).

    Blocks are ordered by representative energy, pairs within a block by
    (i, j).
    """
    gid, reps = _energy_groups(np.add.outer(spec_s.energies, spec_c.energies).ravel())
    order = np.argsort(gid, kind="stable")
    s, c = np.divmod(order, spec_c.dim)
    pairs = list(zip(s.tolist(), c.tolist()))
    ends = np.cumsum(np.bincount(gid, minlength=len(reps))).tolist()
    return EnergyBlocks(
        tuple((e, tuple(pairs[a:b])) for e, a, b in zip(reps.tolist(), [0] + ends, ends)),
        dims=(spec_s.dim, spec_c.dim),
    )


def random_energy_preserving_unitary(blocks: EnergyBlocks, seed: int) -> np.ndarray:
    """Block-diagonal unitary with an independent Haar block per energy."""
    rng = np.random.default_rng(seed)
    n = blocks.joint_dim
    u = np.zeros((n, n), dtype=complex)
    for _, idx in blocks.blocks:
        d = len(idx)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        flats = [blocks.flat(p) for p in idx]
        u[np.ix_(flats, flats)] = q
    return u


def is_energy_preserving(u, blocks: EnergyBlocks, tol: float = 1e-9) -> bool:
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
