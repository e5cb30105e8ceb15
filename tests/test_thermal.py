import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoforge import (
    DiagonalState,
    Spectrum,
    energy_blocks,
    gibbs_state,
    is_energy_preserving,
    random_energy_preserving_unitary,
)
from thermoforge import thermal
from thermoforge.errors import DomainError, ShapeError
from thermoforge.thermal import ENERGY_TOL
from util import (
    random_resonant_spectra,
    reference_clipped_populations,
    reference_energy_blocks,
    reference_energy_groups,
    reference_random_energy_preserving_unitary,
    reference_spectrum_error,
)

LN2 = math.log(2.0)


class TestSpectrum:
    def test_auto_degeneracy_labels(self):
        s = Spectrum.from_energies([0.0, 1.0, 1.0, 2.0])
        assert s.levels == ((0.0, 0), (1.0, 0), (1.0, 1), (2.0, 0))

    def test_explicit_labels_validated(self):
        with pytest.raises(DomainError):
            Spectrum(((0.0, 0), (0.0, 2)))  # gap: labels must be 0..delta-1

    def test_json_both_forms(self, tmp_path):
        f1 = tmp_path / "a.json"
        f1.write_text(json.dumps({"energies": [0.0, 1.0, 1.0]}))
        f2 = tmp_path / "b.json"
        f2.write_text(json.dumps({"levels": [{"energy": 0.0, "deg": 0},
                                             {"energy": 1.0, "deg": 0},
                                             {"energy": 1.0, "deg": 1}]}))
        assert Spectrum.from_json(str(f1)) == Spectrum.from_json(str(f2))

    def test_documented_forms_load_to_one_spectrum(self):
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        section = doc.split("## Spectrum\n", 1)[1].split("\n## ", 1)[0]
        examples = re.findall(r"```json\n(.*?)```", section, re.S)
        assert len(examples) == 2
        a, b = (Spectrum.from_json(json.loads(text)) for text in examples)
        assert a == b
        assert b.to_json() == json.loads(examples[1])

    def test_energies_cached_and_read_only(self):
        s = Spectrum.from_energies([0.0, 1.0])
        assert s.energies is s.energies
        with pytest.raises(ValueError):
            s.energies[0] = 5.0

    def test_array_backed_and_immutable(self):
        s = Spectrum.from_arrays([1.0, 0.0, 1.0], [1, 0, 0])
        assert s.labels.tolist() == [1, 0, 0]
        assert s.labels.dtype == np.int64
        with pytest.raises(ValueError):
            s.labels[0] = 0
        with pytest.raises(AttributeError):
            s.energies = np.zeros(3)
        assert s.levels is s.levels
        assert s == Spectrum(s.levels)
        assert hash(s) == hash(Spectrum(s.levels))
        assert s != Spectrum.from_energies([1.0, 0.0, 1.0])  # labels differ

    def test_from_arrays_shape_errors(self):
        with pytest.raises(ShapeError):
            Spectrum.from_arrays([[0.0, 1.0]], [0, 0])
        with pytest.raises(ShapeError):
            Spectrum.from_arrays([0.0, 1.0], [0])

    def test_non_integral_labels_rejected(self):
        with pytest.raises(DomainError, match="not 0..0"):
            Spectrum(((0.0, 0.5),))
        assert Spectrum(((0.0, 1.0), (0.0, 0.0))).labels.tolist() == [1, 0]

    def test_tolerance_group_starts_at_representative_plus_tol(self):
        # 6e-10 and 0 lie within ENERGY_TOL of the smallest member 0; 1.2e-9
        # does not, although it is within ENERGY_TOL of 6e-10.
        s = Spectrum.from_energies([6e-10, 0.0, 1.2e-9])
        assert tuple(g for _, g in s.levels) == (0, 1, 0)
        one_level = Spectrum.from_energies([0.0])
        assert energy_blocks(s, one_level).block_sizes() == [2, 1]

    def test_equal_energies_grouped_where_tolerance_is_below_an_ulp(self):
        # at 1e8 the float spacing exceeds ENERGY_TOL, so e + ENERGY_TOL == e
        s = Spectrum.from_energies([1e8, 1e8, 1e8 + 1.0])
        assert tuple(g for _, g in s.levels) == (0, 1, 0)


def energy_lists(max_size):
    """Energy lists whose tolerance groups are unambiguous: small integers
    with jitter well below ENERGY_TOL / 4, or multiples of 0.3 * ENERGY_TOL
    (runs of sub-tolerance steps that chain past ENERGY_TOL)."""
    jitter = st.floats(-0.2 * ENERGY_TOL, 0.2 * ENERGY_TOL)
    near_integer = st.builds(lambda k, j: k + j, st.integers(0, 3), jitter)
    small_steps = st.integers(0, 6).map(lambda k: k * 0.3 * ENERGY_TOL)
    return st.one_of(
        st.lists(near_integer, min_size=1, max_size=max_size),
        st.lists(small_steps, min_size=1, max_size=max_size),
    )


class TestToleranceGroups:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_energy_blocks_match_double_loop(self, data):
        energies = data.draw(energy_lists(9))
        es = energies[: data.draw(st.integers(1, len(energies)))]
        ec = data.draw(st.sampled_from([energies, energies[::-1], [0.0]]))
        s, c = Spectrum.from_energies(es), Spectrum.from_energies(ec)
        blocks = energy_blocks(s, c)
        got = tuple((e, tuple(blocks.pairs(members))) for e, members in blocks.items())
        assert got == reference_energy_blocks(es, ec)

    @given(energy_lists(12))
    @settings(max_examples=200, deadline=None)
    def test_labels_follow_blocks_in_listed_order(self, energies):
        s = Spectrum.from_energies(energies)
        blocks = energy_blocks(s, Spectrum.from_energies([0.0]))
        assert sum(blocks.block_sizes()) == s.dim
        for _, members in blocks.items():
            idx = blocks.pairs(members)
            assert [s.levels[i][1] for i, _ in idx] == list(range(len(idx)))


class TestCsrBlocks:
    """The CSR arrays (order, offsets, reps) and block_of_flat against the
    double-loop reference, on tolerance-chain spectra too."""

    @staticmethod
    def _expected(es, ec):
        ref = reference_energy_blocks(es, ec)
        order = [i * len(ec) + j for _, idx in ref for i, j in idx]
        offsets = np.cumsum([0] + [len(idx) for _, idx in ref]).tolist()
        bid = np.empty(len(es) * len(ec), dtype=int)
        bid[order] = np.repeat(np.arange(len(ref)), np.diff(offsets))
        return order, offsets, [e for e, _ in ref], bid.tolist()

    def _check(self, es, ec):
        blocks = energy_blocks(Spectrum.from_energies(es), Spectrum.from_energies(ec))
        order, offsets, reps, bid = self._expected(es, ec)
        assert blocks.order.tolist() == order
        assert blocks.offsets.tolist() == offsets
        assert blocks.reps.tolist() == reps
        assert blocks.block_of_flat().tolist() == bid
        assert blocks.block_sizes() == np.diff(offsets).tolist()
        for arr in (blocks.order, blocks.offsets, blocks.reps):
            assert not arr.flags.writeable

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_tolerance_spectra(self, data):
        energies = data.draw(energy_lists(9))
        es = energies[: data.draw(st.integers(1, len(energies)))]
        ec = data.draw(st.sampled_from([energies, energies[::-1], [0.0]]))
        self._check(es, ec)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=5),
           st.lists(st.integers(0, 3), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_resonant_spectra(self, es, ec):
        self._check([float(e) for e in es], [float(e) for e in ec])

    @given(st.lists(st.one_of(
        st.integers(0, 12).map(lambda k: k * 0.3 * ENERGY_TOL),
        st.sampled_from([0.0, ENERGY_TOL, 2 * ENERGY_TOL, 1.0, 1.0 + ENERGY_TOL, 1e8,
                         1e8 + 1.0, 1e17, -1e17, 1e308, -1e308, math.inf, -math.inf])),
        max_size=20))
    @example([1.0, 1.0 + ENERGY_TOL, 0.0, ENERGY_TOL, 1e8, 1e8, math.inf, math.inf])
    @settings(max_examples=300, deadline=None)
    def test_groups_match_greedy_walk(self, energies):
        """Bit-equal to the walk with one searchsorted per group, on chains
        of sub-tolerance steps, steps of exactly ENERGY_TOL, energies whose
        ulp exceeds ENERGY_TOL and the infinite sums that energies near the
        float range give."""
        e = np.array(energies, dtype=float)
        for got, want in zip(thermal._energy_groups(e), reference_energy_groups(e)):
            assert np.array_equal(got, want)

    def test_hundred_thousand_levels(self):
        # Mostly distinct energies, with exact repeats and sub-tolerance
        # chains that span several groups, shuffled together.
        rng = np.random.default_rng(5)
        chains = [50.0 + 0.3 * ENERGY_TOL * k for k in range(40)] * 2
        es = np.concatenate([rng.random(10 ** 5 - 2000) * 100, np.repeat(rng.random(480), 2),
                             chains, rng.integers(0, 20, 960).astype(float)])
        assert len(es) == 10 ** 5
        self._check(rng.permutation(es).tolist(), [0.0])


def level_lists(max_size):
    """(energy, label) lists hitting every rejection: non-finite energies,
    negative labels, gaps and repeats within a tolerance group."""
    energy = st.one_of(
        st.integers(0, 2).map(float),
        st.integers(0, 6).map(lambda k: k * 0.3 * ENERGY_TOL),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    return st.lists(st.tuples(energy, st.integers(-1, 3)), max_size=max_size)


class TestConstructionPaths:
    @given(level_lists(8))
    @settings(max_examples=300, deadline=None)
    def test_levels_path_rejects_what_the_reference_rejects(self, levels):
        expected = reference_spectrum_error(levels)
        if expected is None:
            assert Spectrum(tuple(levels)).dim == len(levels)
        else:
            with pytest.raises(DomainError) as err:
                Spectrum(tuple(levels))
            assert str(err.value) == expected

    @given(level_lists(8))
    @settings(max_examples=300, deadline=None)
    def test_array_path_rejects_exactly_what_levels_path_rejects(self, levels):
        energies = np.array([e for e, _ in levels], dtype=float)
        labels = np.array([g for _, g in levels], dtype=int)
        try:
            want = Spectrum(tuple(levels))
        except DomainError as e:
            with pytest.raises(DomainError) as err:
                Spectrum.from_arrays(energies, labels)
            assert str(err.value) == str(e)
        else:
            got = Spectrum.from_arrays(energies, labels)
            assert got == want
            assert got.levels == want.levels

    @given(st.lists(st.one_of(st.integers(0, 2).map(float),
                              st.sampled_from([math.nan, math.inf])), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_from_energies_checks_finiteness(self, energies):
        if all(map(math.isfinite, energies)):
            s = Spectrum.from_energies(energies)
            assert reference_spectrum_error(s.levels) is None
        else:
            with pytest.raises(DomainError, match="finite"):
                Spectrum.from_energies(energies)


class TestGibbs:
    def test_two_level(self):
        s = Spectrum.from_energies([0.0, LN2])
        assert np.allclose(gibbs_state(s).populations, [2 / 3, 1 / 3])

    def test_qutrit_example(self):
        s = Spectrum.from_energies([0.0, LN2, LN2])
        assert np.allclose(gibbs_state(s).populations, [0.5, 0.25, 0.25])

    def test_degenerate_uniform(self):
        s = Spectrum.from_energies([0.0] * 5)
        assert np.allclose(gibbs_state(s).populations, 0.2)

    def test_beta_scaling(self):
        # beta = ln 2 on a gap of 1, written as the pre-multiplied gap ln 2
        s = Spectrum.from_energies([0.0, LN2])
        p = gibbs_state(s).populations
        assert np.allclose(p, [2 / 3, 1 / 3])


class TestDiagonalState:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            DiagonalState(np.array([1.1, -0.1]))

    def test_clamps_tiny_negative(self):
        p = DiagonalState(np.array([1.0, -1e-15]))
        assert p.populations[1] == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            DiagonalState(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("populations", [
        [math.nan, 1.0], [1.0, math.nan], [math.nan], [math.inf, 1.0], [-math.inf, 1.0],
        [math.inf, -math.inf], [], [1.5, -0.5], [1.0, -2e-14],
    ])
    def test_rejects_non_finite_empty_and_negative(self, populations):
        with pytest.raises(DomainError):
            DiagonalState(np.array(populations, dtype=float))

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0.01),
           st.lists(st.one_of(st.sampled_from([-0.0, 0.0, -1e-14, -1e-300]),
                              st.floats(-1e-14, 0.0)), max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_populations_equal_the_clip_formulation(self, weights, tiny, rnd):
        p = list(np.array(weights) / sum(weights)) + tiny
        rnd.shuffle(p)
        try:
            want = reference_clipped_populations(p)
        except DomainError:
            with pytest.raises(DomainError):
                DiagonalState(np.array(p))
            return
        assert DiagonalState(np.array(p)).populations.tobytes() == want.tobytes()


class TestEnergyBlocks:
    def test_resonant_qubits(self):
        s = Spectrum.from_energies([0.0, 1.0])
        assert sorted(energy_blocks(s, s).block_sizes()) == [1, 1, 2]

    def test_cooling_instance_d2(self):
        s = Spectrum.from_energies([0.0, LN2, LN2])
        c = Spectrum.from_energies([0.0, LN2, LN2])
        blocks = energy_blocks(s, c)
        # Oracle: enumerate the nine joint sums directly.
        sums = sorted(
            round((s.energies[i] + c.energies[j]) / LN2)
            for i in range(3) for j in range(3)
        )
        expected = sorted([sums.count(v) for v in set(sums)])
        assert sorted(blocks.block_sizes()) == expected == [1, 4, 4]

    def test_incommensurate_all_singletons(self):
        s = Spectrum.from_energies([0.0, 1.0])
        c = Spectrum.from_energies([0.0, math.sqrt(2)])
        assert energy_blocks(s, c).block_sizes() == [1, 1, 1, 1]

    def test_partition_covers_everything(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = random_resonant_spectra(rng)
            blocks = energy_blocks(a, b)
            all_pairs = [p for _, members in blocks.items() for p in blocks.pairs(members)]
            assert sorted(all_pairs) == [(i, j) for i in range(a.dim) for j in range(b.dim)]

    def test_degenerate_relabeling_invariant(self):
        a = Spectrum.from_energies([0.0, 1.0, 1.0])
        b1 = Spectrum.from_energies([0.0, 1.0, 1.0])
        b2 = Spectrum(((1.0, 1), (0.0, 0), (1.0, 0)))
        sizes1 = sorted(energy_blocks(a, b1).block_sizes())
        sizes2 = sorted(energy_blocks(a, b2).block_sizes())
        assert sizes1 == sizes2


class TestRandomUnitary:
    def test_singleton_blocks_give_phases(self):
        s = Spectrum.from_energies([0.0, 1.0])
        c = Spectrum.from_energies([0.0, math.sqrt(2)])
        u = random_energy_preserving_unitary(energy_blocks(s, c), seed=0)
        off = u - np.diag(np.diag(u))
        assert np.linalg.norm(off) < 1e-14
        assert np.allclose(np.abs(np.diag(u)), 1.0)

    def test_unitary_and_commuting_over_seeds(self):
        s = Spectrum.from_energies([0.0, 1.0, 1.0])
        c = Spectrum.from_energies([0.0, 1.0])
        blocks = energy_blocks(s, c)
        h0 = np.diag(np.add.outer(s.energies, c.energies).ravel())
        for seed in range(100):
            u = random_energy_preserving_unitary(blocks, seed)
            assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-10
            assert np.linalg.norm(u @ h0 - h0 @ u) < 1e-10
            assert is_energy_preserving(u, blocks, tol=1e-9)

    def test_deterministic_per_seed(self):
        s = Spectrum.from_energies([0.0, 1.0])
        blocks = energy_blocks(s, s)
        assert np.array_equal(
            random_energy_preserving_unitary(blocks, 42),
            random_energy_preserving_unitary(blocks, 42),
        )

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(1, 4), min_size=1, max_size=16),  # repeated sizes, many 1x1
        st.integers(5, 16).map(lambda d: [d]),  # one large block
        st.tuples(st.integers(5, 12), st.lists(st.just(1), max_size=12))
        .map(lambda t: [t[0]] + t[1]),  # one large block among 1x1 blocks
    ), st.integers(0, 2 ** 16), st.booleans(), st.integers(0, 2 ** 31 - 1))
    def test_matches_per_block_reference(self, sizes, shuffle, two_system_levels, seed):
        # Block k of the catalyst holds sizes[k] levels at energy k, placed in
        # a shuffled order; a second system level at an incommensurate energy
        # interleaves a second copy of every block in the flat indices.
        energies = np.repeat(np.arange(len(sizes), dtype=float), sizes)
        cat = Spectrum.from_energies(np.random.default_rng(shuffle).permutation(energies))
        system = Spectrum.from_energies([0.0, math.sqrt(2)] if two_system_levels else [0.0])
        blocks = energy_blocks(system, cat)
        got = random_energy_preserving_unitary(blocks, seed)
        want = reference_random_energy_preserving_unitary(blocks, seed)
        assert got.tobytes() == want.tobytes()


class TestIsEnergyPreserving:
    def setup_method(self):
        s = Spectrum.from_energies([0.0, 1.0])
        self.blocks = energy_blocks(s, s)
        # Joint levels 1 = (0,1) and 2 = (1,0) share total energy 1.
        self.in_block = (1, 2)
        self.cross_block = (0, 3)

    def _swap(self, i, j):
        u = np.eye(4, dtype=complex)
        u[i, i] = u[j, j] = 0
        u[i, j] = u[j, i] = 1
        return u

    def test_identity(self):
        assert is_energy_preserving(np.eye(4), self.blocks, 1e-9)

    def test_in_block_swap(self):
        assert is_energy_preserving(self._swap(*self.in_block), self.blocks, 1e-9)

    def test_cross_block_swap(self):
        assert not is_energy_preserving(self._swap(*self.cross_block), self.blocks, 1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            is_energy_preserving(np.eye(5), self.blocks, 1e-9)
