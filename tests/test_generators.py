import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoforge import (
    ElementaryGenerator,
    Spectrum,
    build_cooling_catalyst,
    energy_blocks,
    enumerate_basis,
    lie_closure,
    rank2_basis,
)
from thermoforge.errors import CapacityError, DomainError, PreconditionError
from util import random_antihermitian, random_resonant_spectra, reference_lie_closure

LN2 = math.log(2.0)


def qutrit_cooling_blocks(d=2):
    s = Spectrum.from_energies([0.0, LN2, LN2])
    return energy_blocks(s, build_cooling_catalyst(d))


def doubled(spec: Spectrum) -> Spectrum:
    """Tensor with a two-level zero-energy catalyst (doubles every level)."""
    energies = []
    for e, _ in spec.levels:
        energies.extend([e, e])
    return Spectrum.from_energies(energies)


class TestEnumerateBasis:
    def test_singleton_blocks_only_rank1(self):
        s = Spectrum.from_energies([0.0, 1.0])
        c = Spectrum.from_energies([0.0, math.sqrt(3)])
        blocks = energy_blocks(s, c)
        basis = enumerate_basis(blocks, include_rank1=True)
        assert len(basis) == blocks.joint_dim
        assert all(g.kind == "p" for g in basis)

    def test_single_size2_block_counts(self):
        s = Spectrum.from_energies([0.0])
        c = Spectrum.from_energies([0.0, 0.0])
        blocks = energy_blocks(s, c)
        basis = enumerate_basis(blocks, include_rank1=True)
        kinds = sorted(g.kind for g in basis)
        assert kinds == ["h", "m", "p", "p"]

    def test_cooling_d2_count(self):
        blocks = qutrit_cooling_blocks(2)
        assert sorted(blocks.block_sizes()) == [1, 4, 4]
        assert len(enumerate_basis(blocks, True)) == 1 + 16 + 16
        assert len(enumerate_basis(blocks, False)) == 0 + 12 + 12

    def test_all_antihermitian_energy_preserving(self):
        blocks = qutrit_cooling_blocks(2)
        s = Spectrum.from_energies([0.0, LN2, LN2])
        c = build_cooling_catalyst(2)
        h0 = np.diag(np.add.outer(s.energies, c.energies).ravel()).astype(complex)
        for g in enumerate_basis(blocks, True):
            k = g.matrix(blocks.dims)
            assert np.linalg.norm(k + k.conj().T) < 1e-12
            assert np.linalg.norm(k @ h0 - h0 @ k) < 1e-12

    def test_linear_independence(self):
        blocks = qutrit_cooling_blocks(2)
        mats = [g.matrix(blocks.dims) for g in enumerate_basis(blocks, True)]
        gram = np.array([[np.real(np.trace(a.conj().T @ b)) for b in mats] for a in mats])
        assert np.linalg.eigvalsh(gram).min() > 1e-9


class TestRank2Basis:
    def test_singleton_block_rejected(self):
        blocks = qutrit_cooling_blocks(2)  # has a singleton at energy 0
        with pytest.raises(PreconditionError, match="energy"):
            rank2_basis(blocks)

    def test_size2_block_closure(self):
        s = Spectrum.from_energies([0.0])
        c = Spectrum.from_energies([0.0, 0.0])
        blocks = energy_blocks(s, c)
        gens = rank2_basis(blocks)
        assert sorted(g.kind for g in gens) == ["g_diag", "h", "m"]
        assert lie_closure(gens, max_dim=16, dims=blocks.dims) == 4

    def test_doubled_cooling_closure(self):
        s = Spectrum.from_energies([0.0, LN2, LN2])
        c = doubled(build_cooling_catalyst(2))
        blocks = energy_blocks(s, c)
        assert sorted(blocks.block_sizes()) == [2, 8, 8]
        gens = rank2_basis(blocks)
        assert lie_closure(gens, max_dim=200, dims=blocks.dims) == 4 + 64 + 64


def raw_antihermitian(rng, n):
    """An n x n anti-Hermitian matrix on one or two random levels, with
    entries re + i im for integers re, im in [-2, 2]."""
    size = int(rng.integers(1, min(2, n) + 1))
    levels = rng.choice(n, size=size, replace=False)
    z = rng.integers(-1, 2, (size, size)) + 1j * rng.integers(-1, 2, (size, size))
    k = np.zeros((n, n), dtype=complex)
    k[np.ix_(levels, levels)] = z - z.conj().T
    return k


@st.composite
def closure_inputs(draw):
    """(inputs, dims): a random subset of enumerate_basis (with or without
    rank-1 generators) or rank2_basis on a random resonant structure,
    sometimes with wrong block_energy labels or with raw anti-Hermitian
    matrices mixed in; or raw matrices alone.  Joint dims stay small so
    the reference's Python double loop stays fast.  Raw matrices are
    small and integer-valued: with random real entries, or blocks of
    three levels, both algorithms sometimes amplify rounding past
    RANK_TOL, each in different places, and count more than u(d) holds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(("full", "no_rank1", "rank2", "raw")))
    if source == "raw":
        n = int(rng.integers(1, 7))
        return [raw_antihermitian(rng, n) for _ in range(rng.integers(1, 5))], (1, n)
    if source == "rank2":
        spec_s, spec_c = random_resonant_spectra(rng, max_s=3, max_c=2)
        blocks = energy_blocks(spec_s, doubled(spec_c))
        gens = rank2_basis(blocks)
    else:
        blocks = energy_blocks(*random_resonant_spectra(rng, max_s=3, max_c=3))
        gens = enumerate_basis(blocks, include_rank1=source == "full")
    assume(max(blocks.block_sizes()) <= 5)
    keep = rng.uniform(0.1, 1.0)
    inputs = [g for g in gens if rng.random() < keep]
    if draw(st.booleans()):
        inputs = [dataclasses.replace(g, block_energy=float(rng.integers(0, 3)))
                  for g in inputs]
    n = blocks.joint_dim
    if n <= 6 and draw(st.booleans()):
        inputs += [raw_antihermitian(rng, n) for _ in range(rng.integers(1, 3))]
    rng.shuffle(inputs)
    return inputs, blocks.dims


@st.composite
def gaussian_inputs(draw):
    """(inputs, supports): 1-4 Gaussian anti-Hermitian matrices, each on a
    random set of 2 or 3 levels out of n <= 6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    inputs, supports = [], []
    for _ in range(draw(st.integers(1, 4))):
        levels = rng.choice(n, size=int(rng.integers(2, min(3, n) + 1)), replace=False)
        k = np.zeros((n, n), dtype=complex)
        k[np.ix_(levels, levels)] = random_antihermitian(rng, len(levels))
        inputs.append(k)
        supports.append(set(levels.tolist()))
    return inputs, supports


def component_sizes(supports):
    """Level counts d_c of the connected components of the supports."""
    comps = []
    for levels in supports:
        joined = [c for c in comps if c & levels]
        comps = [c for c in comps if not c & levels] + [set(levels).union(*joined)]
    return [len(c) for c in comps]


class TestLieClosure:
    @settings(max_examples=300, deadline=None)
    @given(gaussian_inputs())
    def test_gaussian_inputs_stay_within_block_algebra(self, case):
        # The closure lies in the direct sum of u(d_c) over the support
        # components, of real dimension sum d_c^2.
        inputs, supports = case
        bound = sum(d * d for d in component_sizes(supports))
        assert lie_closure(inputs, max_dim=10_000) <= bound

    def test_rejects_non_antihermitian_input(self):
        k = np.zeros((3, 3), dtype=complex)
        k[0, 1] = k[1, 0] = 1.0  # Hermitian
        with pytest.raises(DomainError, match="anti-Hermitian"):
            lie_closure([k])
        with pytest.raises(DomainError, match="anti-Hermitian"):
            lie_closure([np.diag([1.0, 0.0, 0.0])])

    def test_empty(self):
        assert lie_closure([], max_dim=10) == 0

    def test_h_m_pair_gives_su2(self):
        s = Spectrum.from_energies([0.0])
        c = Spectrum.from_energies([0.0, 0.0])
        blocks = energy_blocks(s, c)
        e, members = list(blocks.items())[0]
        a, b = sorted(blocks.pairs(members))
        gens = [ElementaryGenerator("h", e, a, b), ElementaryGenerator("m", e, a, b)]
        assert lie_closure(gens, max_dim=16, dims=blocks.dims) == 3

    def test_full_basis_closed(self):
        blocks = qutrit_cooling_blocks(2)
        expected = sum(d * d for d in blocks.block_sizes())
        basis = enumerate_basis(blocks, True)
        assert lie_closure(basis, max_dim=2 * expected, dims=blocks.dims) == expected

    def test_max_dim_guard(self):
        blocks = qutrit_cooling_blocks(2)
        with pytest.raises(CapacityError):
            lie_closure(enumerate_basis(blocks, True), max_dim=5, dims=blocks.dims)

    @settings(max_examples=200, deadline=None)
    @given(closure_inputs())
    def test_matches_sequential_reference(self, case):
        inputs, dims = case
        expected = reference_lie_closure(inputs, max_dim=10_000, dims=dims)
        assert lie_closure(inputs, max_dim=expected, dims=dims) == expected
        if expected:
            with pytest.raises(CapacityError):
                lie_closure(inputs, max_dim=expected - 1, dims=dims)

    def test_split_follows_support_not_labels(self):
        # One block of three levels: h on (a, b) and h on (b, c) share level
        # b, so they do not commute, though their labels name two blocks.
        blocks = energy_blocks(Spectrum.from_energies([0.0]),
                               Spectrum.from_energies([0.0, 0.0, 0.0, 5.0]))
        (e, members), _ = blocks.items()
        a, b, c = sorted(blocks.pairs(members))
        gens = [ElementaryGenerator("h", e, a, b), ElementaryGenerator("h", 1.0, b, c)]
        expected = reference_lie_closure(gens, dims=blocks.dims)
        assert expected == 3
        assert lie_closure(gens, dims=blocks.dims) == expected
        # A raw matrix coupling the two energy blocks merges them.
        bridge = np.zeros((4, 4), dtype=complex)
        bridge[2, 3], bridge[3, 2] = 1.0, -1.0
        expected = reference_lie_closure(gens + [bridge], dims=blocks.dims)
        assert lie_closure(gens + [bridge], dims=blocks.dims) == expected == 6

    def test_full_basis_joint_dim_20(self):
        blocks = energy_blocks(Spectrum.from_energies([0.0, 0.0, 1.0, 2.0]),
                               Spectrum.from_energies([0.0, 0.0, 1.0, 1.0, 2.0]))
        assert blocks.block_sizes() == [4, 6, 6, 3, 1]
        basis = enumerate_basis(blocks, True)
        assert lie_closure(basis, dims=blocks.dims) == 98
        assert lie_closure(basis, max_dim=98, dims=blocks.dims) == 98
        with pytest.raises(CapacityError):
            lie_closure(basis, max_dim=97, dims=blocks.dims)


class TestRank1Decomposition:
    def test_p_equals_minus_half_f_plus_g(self):
        s = Spectrum.from_energies([0.0])
        c = Spectrum.from_energies([0.0, 0.0])
        blocks = energy_blocks(s, c)
        e, members = list(blocks.items())[0]
        a, b = sorted(blocks.pairs(members))
        dims = blocks.dims
        h = ElementaryGenerator("h", e, a, b).matrix(dims)
        m = ElementaryGenerator("m", e, a, b).matrix(dims)
        g = ElementaryGenerator("g_diag", e, a, b).matrix(dims)
        p = ElementaryGenerator("p", e, a, a).matrix(dims)
        f = (h @ m - m @ h) / 2
        assert np.linalg.norm(p + (f + g) / 2) < 1e-12
