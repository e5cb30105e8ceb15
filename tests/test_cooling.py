"""Tests for the degenerate-catalyst qutrit cooling instance."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoforge import (
    DiagonalState,
    Spectrum,
    build_cooling_catalyst,
    build_cooling_instance,
    build_cooling_sequence,
    energy_blocks,
    gibbs_state,
    max_ground_population_TO,
    run_cooling,
    run_cooling_dense,
)
from thermoforge.compiler import reconstruct
from thermoforge.cooling import (
    DEFAULT_INPUT,
    E_UNIT,
    MAX_D_DENSE,
    SYSTEM_SPECTRUM,
    _cat_index,
)
from thermoforge.errors import CapacityError, DomainError
from thermoforge.thermal import is_energy_preserving
from util import reference_cooling_populations, sequence


class TestCatalyst:
    def test_dimension_and_partition(self):
        for d, dim in ((1, 1), (2, 3), (3, 7), (4, 15)):
            cat = build_cooling_catalyst(d)
            assert cat.dim == dim

    def test_level_layout(self):
        cat = build_cooling_catalyst(3)
        # energies n * E with degeneracy 2^n: 0, E, E, 2E x4
        expect = [0.0, E_UNIT, E_UNIT] + [2 * E_UNIT] * 4
        assert np.allclose(cat.energies, expect)

    def test_partition_function(self):
        # each shell contributes 2^n * 2^-n = 1, so Z = d
        for d in (2, 4, 6):
            cat = build_cooling_catalyst(d)
            z = np.exp(-np.asarray(cat.energies)).sum()
            assert abs(z - d) < 1e-12

    @pytest.mark.parametrize("d", range(1, 21))
    def test_auto_labels_equal_explicit_shell_labels(self, d):
        # Shell n holds catalyst indices 2^n - 1 .. 2^(n+1) - 2, all at n * E.
        energies = [n * E_UNIT for n in range(d) for _ in range(1 << n)]
        assert build_cooling_catalyst(d).energies.tolist() == energies

    def test_flat_index_map(self):
        assert _cat_index(0, 1) == 0
        assert _cat_index(1, 1) == 1
        assert _cat_index(1, 2) == 2
        assert _cat_index(3, 1) == 7

    def test_rejects_bad_parameter(self):
        with pytest.raises(DomainError):
            build_cooling_catalyst(0)
        with pytest.raises(CapacityError):
            build_cooling_catalyst(21)


class TestSequence:
    def test_gate_counts(self):
        for d, count in ((2, 2), (3, 6), (4, 14)):
            seq = build_cooling_sequence(d)
            assert len(seq.steps) == count
            assert count == 2 * ((1 << (d - 1)) - 1)

    def test_rejects_d_below_two(self):
        with pytest.raises(DomainError):
            build_cooling_sequence(1)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_gate_order_follows_the_docstring(self, d):
        # Gate (n, k, x) swaps |0>|n, k + (x-1) 2^(n-1)> with |x>|n-1, k>,
        # listed by n, then k, then x.
        dim_c = (1 << d) - 1
        want = [[_cat_index(n, k + (x - 1) * (1 << (n - 1))), x * dim_c + _cat_index(n - 1, k)]
                for n in range(1, d) for k in range(1, (1 << (n - 1)) + 1) for x in (1, 2)]
        assert build_cooling_sequence(d).flats.tolist() == want

    def test_gates_are_energy_preserving(self):
        inst = build_cooling_instance(3)
        blocks = energy_blocks(inst.system, inst.catalyst)
        for step in inst.gates.steps:
            u = step.matrix(inst.gates.dims)
            assert is_energy_preserving(u, blocks, tol=1e-12)

    def test_gates_pairwise_commute(self):
        inst = build_cooling_instance(4)
        mats = [s.matrix(inst.gates.dims) for s in inst.gates.steps]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i]) < 1e-14

    def test_shuffle_invariance(self):
        d = 4
        seq = build_cooling_sequence(d)
        rng = random.Random(3)
        steps = list(seq.steps)
        rng.shuffle(steps)
        shuffled = sequence(steps, seq.method, seq.dims)
        assert np.allclose(reconstruct(seq), reconstruct(shuffled), atol=1e-14)

    def test_gate_supports_are_disjoint(self):
        seq = build_cooling_sequence(5)
        seen = set()
        for step in seq.steps:
            for idx in step.indices:
                assert idx not in seen
                seen.add(idx)


class TestRun:
    def test_closed_form(self):
        for d in range(2, 13):
            final, _ = run_cooling(d)
            expect = np.array([1 - 1 / d, 1 / (2 * d), 1 / (2 * d)])
            assert np.max(np.abs(final.populations - expect)) < 1e-12

    def test_invariant_top_population(self):
        for d in range(2, 13):
            _, inv = run_cooling(d)
            assert abs(inv - 2.0 ** (-d) / d) < 1e-12

    def test_dense_cross_check(self):
        # up to MAX_D_DENSE = 10, joint dim 3069
        for d in range(2, MAX_D_DENSE + 1):
            fast, _ = run_cooling(d)
            dense = run_cooling_dense(d)
            assert np.max(np.abs(fast.populations - dense.populations)) < 1e-10
            assert abs(dense.populations[0] - (1 - 1 / d)) < 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_dense_matches_gate_by_gate_swaps(self, d):
        # apply_TO of the reconstructed cooling gates against swapping the
        # joint populations entry by entry, for the default and a mixed input
        for p in (DEFAULT_INPUT, DiagonalState([0.2, 0.3, 0.5])):
            q = reference_cooling_populations(d, p.populations)
            dense = run_cooling_dense(d, p)
            assert np.max(np.abs(dense.populations - q.sum(axis=1))) < 1e-12

    def test_dense_capacity_guard(self):
        with pytest.raises(CapacityError):
            run_cooling_dense(11)

    def test_matches_to_oracle(self):
        # the handcrafted sequence attains the best any thermal operation
        # with this catalyst-as-bath can do
        for d in range(2, 21):
            final, _ = run_cooling(d)
            cat = build_cooling_catalyst(d)
            bound = max_ground_population_TO(DEFAULT_INPUT, SYSTEM_SPECTRUM, cat)
            assert abs(final.populations[0] - bound) < 1e-12
            assert final.populations[0] <= bound + 1e-12

    def test_given_catalyst_state(self):
        tau = gibbs_state(build_cooling_catalyst(7))
        final, inv = run_cooling(7, tau_c=tau)
        ref_final, ref_inv = run_cooling(7)
        assert np.array_equal(final.populations, ref_final.populations)
        assert inv == ref_inv
        with pytest.raises(DomainError):
            run_cooling(6, tau_c=tau)

    def test_catalyst_arrays_match_listed_levels(self):
        for d in (1, 2, 5, 9):
            listed = Spectrum.from_json({"levels": [{"energy": n * E_UNIT, "deg": g}
                                                    for n in range(d) for g in range(1 << n)]})
            cat = build_cooling_catalyst(d)
            assert cat == listed
            assert cat.energies.tobytes() == listed.energies.tobytes()

    def test_gibbs_input_is_fixed(self):
        tau = gibbs_state(SYSTEM_SPECTRUM)
        for d in (2, 3, 5):
            final, _ = run_cooling(d, tau)
            assert np.max(np.abs(final.populations - tau.populations)) < 1e-12

    def test_custom_input(self):
        p = DiagonalState([0.2, 0.3, 0.5])
        fast, _ = run_cooling(3, p)
        dense = run_cooling_dense(3, p)
        assert np.max(np.abs(fast.populations - dense.populations)) < 1e-10
        assert fast.populations[0] > 0.2  # cooling never hurts the ground level

    def test_rejects_wrong_input_dim(self):
        with pytest.raises(DomainError):
            run_cooling(3, DiagonalState([0.5, 0.5]))

    @given(st.integers(2, 12),
           st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda v: sum(v) > 1e-3))
    @settings(max_examples=60, deadline=None)
    def test_matches_gate_by_gate_swaps(self, d, weights):
        p = DiagonalState(np.array(weights) / sum(weights))
        final, inv = run_cooling(d, p)
        q = reference_cooling_populations(d, p.populations)
        top = slice(_cat_index(d - 1, 1), None)
        assert final.populations.tobytes() == DiagonalState(q.sum(axis=1)).populations.tobytes()
        assert inv == float(np.mean(q[1:, top]))

    def test_ground_population_increases_with_d(self):
        grounds = [run_cooling(d)[0].populations[0] for d in range(2, 10)]
        assert all(b > a for a, b in zip(grounds, grounds[1:]))
