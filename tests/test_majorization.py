"""Tests for beta-ordered Lorenz curves, thermomajorization checks,
the TO ground-population oracle, and the beta-swap reach search."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoforge import (
    ChannelSpec,
    DiagonalState,
    Spectrum,
    apply_TO,
    beta_swap,
    energy_blocks,
    eto_reach_search,
    gibbs_state,
    max_ground_population_TO,
    random_energy_preserving_unitary,
    thermo_curve,
    thermo_majorizes,
)
from thermoforge import majorization
from thermoforge.cooling import build_cooling_catalyst
from thermoforge.errors import CapacityError, DomainError
from thermoforge.majorization import ThermoCurve

from util import (
    random_populations,
    random_resonant_spectra,
    reference_max_ground_population,
    reference_max_ground_population_lexsort,
    reference_thermo_majorizes,
)

LN2 = math.log(2.0)


def qutrit():
    return Spectrum.from_energies([0.0, LN2, LN2])


class TestCurve:
    def test_cold_input_vertices(self):
        # Gibbs weights are (1/2, 1/4, 1/4); ratios for (0, 1/2, 1/2) put
        # the excited levels first.
        c = thermo_curve(DiagonalState([0.0, 0.5, 0.5]), qutrit())
        expect = ((0.0, 0.0), (0.25, 0.5), (0.5, 1.0), (1.0, 1.0))
        assert np.allclose(c.vertices, expect, atol=1e-15)

    def test_pure_ground_vertices(self):
        c = thermo_curve(DiagonalState([1.0, 0.0, 0.0]), qutrit())
        expect = ((0.0, 0.0), (0.5, 1.0), (0.75, 1.0), (1.0, 1.0))
        assert np.allclose(c.vertices, expect, atol=1e-15)

    def test_gibbs_is_diagonal_line(self):
        spec = qutrit()
        c = thermo_curve(gibbs_state(spec), spec)
        xs = np.linspace(0, 1, 11)
        assert np.allclose(c.evaluate(xs), xs, atol=1e-12)

    def test_tie_break_by_index(self):
        spec = qutrit()
        # levels 1 and 2 have equal ratios; level 1 must come first
        c = thermo_curve(DiagonalState([0.0, 0.5, 0.5]), spec)
        assert abs(c.vertices[1][1] - 0.5) < 1e-15

    def test_invariants_enforced(self):
        with pytest.raises(DomainError, match="start"):
            ThermoCurve(((0.1, 0.0), (1.0, 1.0)))
        with pytest.raises(DomainError, match="increase"):
            ThermoCurve(((0.0, 0.0), (0.5, 0.5), (0.5, 0.7), (1.0, 1.0)))
        with pytest.raises(DomainError, match="concave"):
            ThermoCurve(((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            thermo_curve(DiagonalState([0.5, 0.5]), qutrit())

    def test_equal_x_vertices_merge_to_the_last(self):
        # exp(-50) is below an ulp of 1: after level 0 the cumulative Gibbs
        # weight is already 1.0, so level 1 adds a vertex at the same x.
        spec = Spectrum.from_energies([0.0, 50.0])
        c = thermo_curve(DiagonalState([1.0, 0.0]), spec)
        assert c.vertices == ((0.0, 0.0), (1.0, 1.0))
        assert thermo_majorizes(DiagonalState([1.0, 0.0]), gibbs_state(spec), spec)
        assert not thermo_majorizes(gibbs_state(spec), DiagonalState([0.0, 1.0]), spec)

    def test_zero_gibbs_weight_levels_go_first_or_last(self):
        # exp(-800) underflows to 0.  Holding population, the level goes
        # first, on the one vertical segment, at x = 0; holding none, last.
        spec = Spectrum.from_energies([0.0, 800.0])
        gibbs = gibbs_state(spec)
        p = DiagonalState([0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert thermo_curve(p, spec).vertices == ((0.0, 0.0), (0.0, 0.5), (1.0, 1.0))
            assert thermo_curve(gibbs, spec).vertices == ((0.0, 0.0), (1.0, 1.0))
            four = Spectrum.from_energies([0.0, 800.0, 900.0, 1.0])
            q = DiagonalState([0.25, 0.25, 0.0, 0.5])
            xs = thermo_curve(q, four).xs.tolist()  # levels 1, 3, 0, then 2 merged at x = 1
            assert xs == [0.0, 0.0, gibbs_state(four).populations[3], 1.0]
            assert thermo_majorizes(p, gibbs, spec)
            assert not thermo_majorizes(gibbs, p, spec)
        with pytest.raises(DomainError, match="x must increase strictly"):
            ThermoCurve(((0.0, 0.0), (0.5, 0.5), (0.5, 0.75), (1.0, 1.0)))
        with pytest.raises(DomainError, match="x must increase strictly"):
            ThermoCurve(((0.0, 0.0), (0.0, 0.0), (1.0, 1.0)))

    def test_subnormal_gibbs_weight_raises_no_warning(self):
        # exp(-740) is subnormal: p / gamma and the first slope overflow to
        # inf, which still orders that level first.
        spec = Spectrum.from_energies([0.0, 740.0])
        gibbs = gibbs_state(spec)
        p = DiagonalState([0.5, 0.5])
        gamma = gibbs.populations[1]
        assert 0.0 < gamma < np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert thermo_curve(p, spec).vertices == ((0.0, 0.0), (gamma, 0.5), (1.0, 1.0))
            assert thermo_majorizes(p, gibbs, spec)
            assert not thermo_majorizes(gibbs, p, spec)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_curve_invariants(self, seed):
        rng = np.random.default_rng(seed)
        spec, _ = random_resonant_spectra(rng)
        p = DiagonalState(random_populations(rng, spec.dim))
        c = thermo_curve(p, spec)
        v = np.asarray(c.vertices)
        assert v[0, 0] == 0.0 and v[0, 1] == 0.0
        assert abs(v[-1, 0] - 1.0) < 1e-12 and abs(v[-1, 1] - 1.0) < 1e-12
        slopes = np.diff(v[:, 1]) / np.diff(v[:, 0])
        assert np.all(np.diff(slopes) <= 1e-9)


class TestMajorizes:
    def test_lightest_level_dominates_everything(self):
        # all population on a smallest-Gibbs-weight level is maximal
        spec = qutrit()
        rng = np.random.default_rng(0)
        pure = DiagonalState([0.0, 1.0, 0.0])
        for _ in range(20):
            q = DiagonalState(random_populations(rng, 3))
            assert thermo_majorizes(pure, q, spec)

    def test_everything_dominates_gibbs(self):
        spec = qutrit()
        rng = np.random.default_rng(1)
        tau = gibbs_state(spec)
        for _ in range(20):
            q = DiagonalState(random_populations(rng, 3))
            assert thermo_majorizes(q, tau, spec)

    def test_reflexive(self):
        spec = qutrit()
        p = DiagonalState([0.2, 0.5, 0.3])
        assert thermo_majorizes(p, p, spec)

    def test_incomparable_pair(self):
        spec = Spectrum.from_energies([0.0, 1.0])
        # p overfills the excited level far beyond its Gibbs share, so it
        # is more athermal than the mildly cold q
        p = DiagonalState([0.1, 0.9])
        q = DiagonalState([0.9, 0.1])
        assert thermo_majorizes(p, q, spec)
        assert not thermo_majorizes(q, p, spec)

    def test_mutual_dominance_for_curve_equal_states(self):
        spec = qutrit()
        p = DiagonalState([0.0, 0.5, 0.5])
        # swapping the two degenerate levels leaves the curve unchanged
        q = DiagonalState([0.0, 0.5, 0.5])
        assert thermo_majorizes(p, q, spec) and thermo_majorizes(q, p, spec)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_transitive_on_random_chains(self, seed):
        rng = np.random.default_rng(seed)
        spec, _ = random_resonant_spectra(rng)
        p = DiagonalState(random_populations(rng, spec.dim))
        q = beta_swap(p, spec, 0, 1)
        r = beta_swap(q, spec, 0, 1)
        # each beta-swap output is majorized by its input
        assert thermo_majorizes(p, q, spec)
        assert thermo_majorizes(q, r, spec)
        assert thermo_majorizes(p, r, spec)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.0, LN2, LN2, 1.0, 2.0, 50.0]), min_size=1, max_size=6),
           st.lists(st.integers(0, 4), min_size=7, max_size=7),
           st.lists(st.integers(0, 4), min_size=7, max_size=7),
           st.integers(0, 1),
           st.sampled_from([1e-9, 0.0, 1e-3]))
    def test_matches_curve_object_reference(self, energies, wp, wq, extra, tol):
        # Equal weights tie ratios, zero weights empty levels, repeated
        # energies are degenerate, and the gap of 50 merges vertices; extra
        # gives q one level more than the spectrum.
        spec = Spectrum.from_energies(energies)
        wp, wq = np.array(wp[:len(energies)], float), np.array(wq[:len(energies) + extra], float)
        assume(wp.sum() > 0 and wq.sum() > 0)
        p, q = DiagonalState(wp / wp.sum()), DiagonalState(wq / wq.sum())

        def outcome(f):
            try:
                return f(p, q, spec, tol)
            except DomainError as e:
                return str(e)

        got, want = outcome(thermo_majorizes), outcome(reference_thermo_majorizes)
        assert got == want and type(got) is type(want)

    def test_to_output_is_majorized(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            sys, bath = random_resonant_spectra(rng)
            blocks = energy_blocks(sys, bath)
            u = random_energy_preserving_unitary(blocks, seed=trial)
            chan = ChannelSpec(sys, bath, u)
            p = DiagonalState(random_populations(rng, sys.dim))
            out = apply_TO(np.diag(p.populations), chan)
            q = DiagonalState(np.real(np.diag(out)))
            assert thermo_majorizes(p, q, sys)


class TestGroundPopulationOracle:
    def test_cooling_catalyst_values(self):
        p = DiagonalState([0.0, 0.5, 0.5])
        sys = qutrit()
        for d in range(2, 9):
            cat = build_cooling_catalyst(d)
            got = max_ground_population_TO(p, sys, cat)
            assert abs(got - (1 - 1 / d)) < 1e-12

    def test_trivial_catalyst_cannot_help(self):
        p = DiagonalState([0.0, 0.5, 0.5])
        sys = qutrit()
        cat = Spectrum.from_energies([0.0])
        # the only joint block mixing level 0 is {(0,0)} alone: no gain
        assert abs(max_ground_population_TO(p, sys, cat) - 0.0) < 1e-15

    def test_never_below_input_ground(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sys, cat = random_resonant_spectra(rng)
            p = DiagonalState(random_populations(rng, sys.dim))
            got = max_ground_population_TO(p, sys, cat)
            assert got >= p.populations[0] - 1e-12
            assert got <= 1.0 + 1e-12

    def test_matches_sorted_list_reference(self):
        # numpy sums each block in another order than Python's sum()
        rng = np.random.default_rng(19)
        for _ in range(30):
            sys, cat = random_resonant_spectra(rng)
            p = random_populations(rng, sys.dim)
            got = max_ground_population_TO(DiagonalState(p), sys, cat)
            assert abs(got - reference_max_ground_population(p, sys, cat)) < 1e-14

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=4),
           st.lists(st.integers(0, 3), min_size=1, max_size=7),
           st.lists(st.integers(0, 20), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_resonant_spectra(self, es, ec, weights):
        assume(sum(weights[:len(es)]) > 0)
        sys = Spectrum.from_energies([float(e) for e in es])
        cat = Spectrum.from_energies([float(e) for e in ec])
        w = np.array(weights[:len(es)], dtype=float)
        p = w / w.sum()
        got = max_ground_population_TO(DiagonalState(p), sys, cat)
        assert abs(got - reference_max_ground_population(p, sys, cat)) < 1e-14

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 8), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_per_block_sorts_equal_one_segmented_sort(self, seed, max_s, max_c, ties):
        # Small integer weights give equal joint weights inside a block.
        rng = np.random.default_rng(seed)
        sys, cat = random_resonant_spectra(rng, max_s=max_s, max_c=max_c)
        w = rng.integers(1, 4, sys.dim) if ties else random_populations(rng, sys.dim)
        p = DiagonalState(w / w.sum())
        assert max_ground_population_TO(p, sys, cat) == \
            reference_max_ground_population_lexsort(p, sys, cat)

    @pytest.mark.parametrize("d", range(2, 15))
    def test_cooling_catalysts_equal_one_segmented_sort(self, d):
        sys, cat = qutrit(), build_cooling_catalyst(d)
        tau = gibbs_state(cat)
        rng = np.random.default_rng(d)
        for p in (DiagonalState([0.0, 0.5, 0.5]), DiagonalState(random_populations(rng, 3))):
            assert max_ground_population_TO(p, sys, cat, tau_c=tau) == \
                reference_max_ground_population_lexsort(p, sys, cat, tau_c=tau)

    def test_given_bath_state_matches_default(self):
        sys, cat = qutrit(), build_cooling_catalyst(6)
        p = DiagonalState([0.0, 0.5, 0.5])
        tau = gibbs_state(cat)
        assert max_ground_population_TO(p, sys, cat, tau_c=tau) == \
            max_ground_population_TO(p, sys, cat)
        with pytest.raises(DomainError):
            max_ground_population_TO(p, sys, cat, tau_c=gibbs_state(qutrit()))

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            max_ground_population_TO(
                DiagonalState([0.5, 0.5]), qutrit(), qutrit()
            )


class TestReachSearch:
    def test_depth_zero_is_input(self):
        p = DiagonalState([0.2, 0.5, 0.3])
        best, seq = eto_reach_search(p, qutrit(), depth=0)
        assert best == 0.2 and seq == []

    def test_depth_two_reaches_three_quarters(self):
        p = DiagonalState([0.0, 0.5, 0.5])
        best, seq = eto_reach_search(p, qutrit(), depth=2)
        assert abs(best - 0.75) < 1e-12
        assert seq == [(0, 1), (0, 2)]

    def test_depth_six_still_three_quarters(self):
        p = DiagonalState([0.0, 0.5, 0.5])
        best, seq = eto_reach_search(p, qutrit(), depth=6)
        assert abs(best - 0.75) < 1e-12
        assert best <= 0.75 + 1e-9
        assert seq == [(0, 1), (0, 2)]

    def test_monotone_in_depth(self):
        p = DiagonalState([0.1, 0.6, 0.3])
        spec = qutrit()
        vals = [eto_reach_search(p, spec, depth=d)[0] for d in range(4)]
        assert all(vals[i + 1] >= vals[i] - 1e-15 for i in range(3))

    def test_capacity_guard(self):
        spec = Spectrum.from_energies([0.0, 1.0, 1.0, 2.0, 2.0])
        with pytest.raises(CapacityError):
            eto_reach_search(gibbs_state(spec), spec, depth=9)

    @pytest.mark.parametrize("energies,depth", [
        ([0.0, 1.0, 1.0], 20),       # 3 pairs: about 5e9 nodes
        ([0.0, 1.0, 1.0, 2.0], 9),   # 6 pairs: about 1.2e7 nodes
    ])
    def test_capacity_guard_before_any_visit(self, monkeypatch, energies, depth):
        def no_visit(*args, **kwargs):
            raise AssertionError("search started")

        monkeypatch.setattr(majorization, "beta_swap", no_visit)
        spec = Spectrum.from_energies(energies)
        with pytest.raises(CapacityError, match="nodes"):
            eto_reach_search(gibbs_state(spec), spec, depth=depth)

    def test_capacity_guard_counts_every_depth(self, monkeypatch):
        # A qutrit has 3 pairs: 1 + 3 + 9 = 13 nodes at depth 2, 40 at depth 3.
        monkeypatch.setattr(majorization, "REACH_NODE_CAP", 13)
        p = DiagonalState([0.0, 0.5, 0.5])
        assert abs(eto_reach_search(p, qutrit(), depth=2)[0] - 0.75) < 1e-12
        with pytest.raises(CapacityError):
            eto_reach_search(p, qutrit(), depth=3)

    def test_negative_depth(self):
        with pytest.raises(DomainError):
            eto_reach_search(DiagonalState([1.0]), Spectrum.from_energies([0.0]), depth=-1)
