"""Tests for thermal channels, beta-swaps, rethermalization, and
catalysis classification."""
import math

import numpy as np
import pytest

from thermoforge import (
    ChannelSpec,
    DiagonalState,
    Spectrum,
    apply_TO,
    beta_swap,
    classify_catalysis,
    energy_blocks,
    gibbs_state,
    random_energy_preserving_unitary,
    run_gc_eto,
    thermalize,
)
from thermoforge.compiler import GateStep
from thermoforge.cooling import (
    E_UNIT,
    SYSTEM_SPECTRUM,
    build_cooling_catalyst,
    build_cooling_sequence,
)
from thermoforge.compiler import reconstruct
from thermoforge.errors import DomainError, ShapeError
from thermoforge.linalg import kron, trace_distance

from util import random_resonant_spectra, sequence
from util import random_density as _random_density


def random_density(d, seed):
    return _random_density(np.random.default_rng(seed), d)

LN2 = math.log(2.0)


def qutrit():
    return Spectrum.from_energies([0.0, LN2, LN2])


class TestApplyTO:
    def test_identity_unitary_is_identity_channel(self):
        sys = qutrit()
        bath = Spectrum.from_energies([0.0, LN2])
        u = np.eye(sys.dim * bath.dim)
        chan = ChannelSpec(sys, bath, u)
        rho = random_density(3, seed=0)
        out = apply_TO(rho, chan)
        assert np.allclose(out, rho, atol=1e-12)

    def test_gibbs_is_fixed_point(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            sys, bath = random_resonant_spectra(rng, max_s=4, max_c=5)
            blocks = energy_blocks(sys, bath)
            u = random_energy_preserving_unitary(blocks, seed=100 + trial)
            chan = ChannelSpec(sys, bath, u)
            tau = gibbs_state(sys).to_dense()
            out = apply_TO(tau, chan)
            assert trace_distance(out, tau) < 1e-10

    def test_rejects_cross_block_unitary(self):
        sys = Spectrum.from_energies([0.0, 1.0])
        bath = Spectrum.from_energies([0.0])
        u = np.array([[0.0, 1.0], [1.0, 0.0]])  # swaps levels of unequal energy
        with pytest.raises(DomainError, match="energy-preserving"):
            ChannelSpec(sys, bath, u)

    def test_cooling_channel_reaches_closed_form(self):
        for d in (2, 3, 4):
            cat = build_cooling_catalyst(d)
            seq = build_cooling_sequence(d)
            u = reconstruct(seq)
            chan = ChannelSpec(SYSTEM_SPECTRUM, cat, u)
            rho = np.diag([0.0, 0.5, 0.5])
            out = apply_TO(rho, chan)
            q = np.real(np.diag(out))
            expect = np.array([1 - 1 / d, 1 / (2 * d), 1 / (2 * d)])
            assert np.allclose(q, expect, atol=1e-12)

    def test_shape_mismatch(self):
        sys = qutrit()
        bath = Spectrum.from_energies([0.0])
        chan = ChannelSpec(sys, bath, np.eye(3))
        with pytest.raises(ShapeError):
            apply_TO(np.eye(2) / 2, chan)

    def test_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            sys, bath = random_resonant_spectra(rng, max_s=3, max_c=4)
            blocks = energy_blocks(sys, bath)
            u = random_energy_preserving_unitary(blocks, seed=trial)
            chan = ChannelSpec(sys, bath, u)
            rho = random_density(sys.dim, seed=trial)
            out = apply_TO(rho, chan)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-12


class TestBetaSwap:
    def test_two_step_cooling_hand_values(self):
        spec = qutrit()
        p = DiagonalState([0.0, 0.5, 0.5])
        p = beta_swap(p, spec, 0, 1)
        assert np.allclose(p.populations, [0.5, 0.0, 0.5], atol=1e-15)
        p = beta_swap(p, spec, 0, 2)
        assert np.allclose(p.populations, [0.75, 0.0, 0.25], atol=1e-15)

    def test_index_order_irrelevant(self):
        spec = qutrit()
        p = DiagonalState([0.2, 0.5, 0.3])
        a = beta_swap(p, spec, 0, 1)
        b = beta_swap(p, spec, 1, 0)
        assert np.allclose(a.populations, b.populations)

    def test_equal_energies_is_full_swap(self):
        spec = qutrit()
        p = DiagonalState([0.2, 0.5, 0.3])
        out = beta_swap(p, spec, 1, 2)
        assert np.allclose(out.populations, [0.2, 0.3, 0.5], atol=1e-15)

    def test_gibbs_fixed(self):
        spec = qutrit()
        tau = gibbs_state(spec)
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            out = beta_swap(tau, spec, i, j)
            assert np.allclose(out.populations, tau.populations, atol=1e-14)

    def test_invalid_pair(self):
        spec = qutrit()
        p = gibbs_state(spec)
        with pytest.raises(ShapeError):
            beta_swap(p, spec, 0, 0)
        with pytest.raises(ShapeError):
            beta_swap(p, spec, 0, 5)

    def test_beta_dependence(self):
        # beta = 2 on a gap of 1, written as the pre-multiplied gap 2
        spec = Spectrum.from_energies([0.0, 2.0])
        p = DiagonalState([1.0, 0.0])
        out = beta_swap(p, spec, 0, 1)
        w = math.exp(-2.0)
        assert np.allclose(out.populations, [1 - w, w], atol=1e-15)


class TestThermalize:
    def test_replaces_selected_marginal(self):
        sys = qutrit()
        cat = Spectrum.from_energies([0.0, LN2])
        rho = random_density(6, seed=4)
        out = thermalize(rho, (sys, cat), which=1)
        from thermoforge.linalg import partial_trace

        tau = gibbs_state(cat).to_dense()
        assert np.allclose(partial_trace(out, (3, 2), keep=1), tau, atol=1e-12)
        assert np.allclose(
            partial_trace(out, (3, 2), keep=0),
            partial_trace(rho, (3, 2), keep=0),
            atol=1e-12,
        )

    def test_idempotent(self):
        sys = qutrit()
        cat = Spectrum.from_energies([0.0, LN2])
        rho = random_density(6, seed=5)
        once = thermalize(rho, (sys, cat), which=1)
        twice = thermalize(once, (sys, cat), which=1)
        assert np.allclose(once, twice, atol=1e-14)

    def test_output_is_product(self):
        sys = qutrit()
        cat = Spectrum.from_energies([0.0, LN2])
        rho = random_density(6, seed=6)
        out = thermalize(rho, (sys, cat), which=1)
        from thermoforge.linalg import partial_trace

        a = partial_trace(out, (3, 2), keep=0)
        b = partial_trace(out, (3, 2), keep=1)
        assert np.allclose(out, kron(a, b), atol=1e-12)

    def test_which_first(self):
        sys = Spectrum.from_energies([0.0, LN2])
        cat = Spectrum.from_energies([0.0])
        rho = random_density(2, seed=7)
        out = thermalize(kron(rho, np.eye(1)), (sys, cat), which=0)
        tau = gibbs_state(sys).to_dense()
        assert np.allclose(out, kron(tau, np.eye(1)), atol=1e-12)

    @pytest.mark.parametrize("which", [2, -1, "first", "catalyst"])
    def test_which_is_zero_or_one(self, which):
        sys = qutrit()
        cat = Spectrum.from_energies([0.0, LN2])
        with pytest.raises(ShapeError, match="which must select"):
            thermalize(random_density(6, seed=4), (sys, cat), which=which)


class TestClassify:
    def test_product_exact_marginal_is_strict(self):
        mu = np.diag([0.5, 0.5])
        rho = random_density(3, seed=8)
        v = classify_catalysis(kron(rho, mu), mu, (3, 2))
        assert v.strict and v.correlated
        assert v.catalyst_marginal_distance < 1e-12
        assert v.product_defect < 1e-12

    def test_classical_correlation_breaks_strict_only(self):
        # (|00><00| + |11><11|)/2 with maximally mixed catalyst marginal.
        sig = np.zeros((4, 4))
        sig[0, 0] = 0.5
        sig[3, 3] = 0.5
        mu = np.eye(2) / 2
        v = classify_catalysis(sig, mu, (2, 2))
        assert not v.strict
        assert v.correlated
        assert v.product_defect > 0.1

    def test_perturbed_marginal_is_approximate_only(self):
        mu = np.diag([0.5, 0.5])
        sig_c = np.diag([0.51, 0.49])
        rho = random_density(2, seed=9)
        v = classify_catalysis(kron(rho, sig_c), mu, (2, 2))
        assert not v.strict and not v.correlated
        assert abs(v.catalyst_marginal_distance - 0.01) < 1e-12
        assert v.approximate(0.02)
        assert not v.approximate(0.005)

    def test_verdict_implication_chain(self):
        mu = np.diag([0.5, 0.5])
        rho = random_density(2, seed=10)
        v = classify_catalysis(kron(rho, mu), mu, (2, 2))
        # strict implies correlated implies approximate at any epsilon >= 0
        assert v.strict <= v.correlated <= v.approximate(0.0)

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            classify_catalysis(np.eye(4) / 4, np.eye(3) / 3, (2, 2))


class TestRunGcEto:
    def test_empty_sequence_is_strict(self):
        cat = build_cooling_catalyst(2)
        seq = sequence((), "exact", (3, cat.dim))
        rho = np.diag([0.0, 0.5, 0.5])
        sigma, pre, post = run_gc_eto(rho, cat, seq, system=SYSTEM_SPECTRUM)
        assert np.allclose(sigma, rho, atol=1e-14)
        assert pre.strict and post.strict

    def test_cooling_d2_pre_and_post(self):
        cat = build_cooling_catalyst(2)
        seq = build_cooling_sequence(2)
        rho = np.diag([0.0, 0.5, 0.5])
        sigma, pre, post = run_gc_eto(rho, cat, seq, system=SYSTEM_SPECTRUM)
        q = np.real(np.diag(sigma))
        assert np.allclose(q, [0.5, 0.25, 0.25], atol=1e-12)
        # before rethermalizing, the raw catalyst marginal is (0, 1/2, 1/2),
        # at trace distance 1/2 from its Gibbs state (1/2, 1/4, 1/4)
        assert abs(pre.catalyst_marginal_distance - 0.5) < 1e-12
        assert not pre.correlated
        assert post is not None and post.strict
        assert post.catalyst_marginal_distance < 1e-12

    def test_no_rethermalize_returns_none(self):
        cat = build_cooling_catalyst(2)
        seq = build_cooling_sequence(2)
        rho = np.diag([0.0, 0.5, 0.5])
        _, _, post = run_gc_eto(rho, cat, seq, rethermalize=False)
        assert post is None

    def test_partial_rotation_creates_correlations(self):
        cat = build_cooling_catalyst(2)
        step = GateStep(kind="h", indices=((0, 1), (1, 0)), param=0.6)
        seq = sequence((step,), "exact", (3, cat.dim))
        rho = np.diag([0.0, 0.5, 0.5])
        _, pre, _ = run_gc_eto(rho, cat, seq, system=SYSTEM_SPECTRUM)
        assert pre.product_defect > 1e-3

    def test_rejects_wrong_dims(self):
        cat = build_cooling_catalyst(2)
        seq = sequence((), "exact", (2, cat.dim))
        with pytest.raises(ShapeError):
            run_gc_eto(np.diag([0.0, 0.5, 0.5]), cat, seq)

    @pytest.mark.parametrize("bad", [(0, -1), (0, 2)])
    def test_rejects_out_of_range_joint_index(self, bad):
        swap = np.array([[0, 1], [1, 0]])
        step = GateStep("givens", (bad, (0, 0)), u2=swap)
        with pytest.raises(ShapeError, match="^step 0: .*out of range"):
            sequence((step,), "handcrafted", (3, 2))

    def test_rejects_non_elementary_gate(self):
        cat = build_cooling_catalyst(2)
        step = GateStep(kind="givens", indices=((0, 0), (0, 1)), u2=np.eye(2))
        object.__setattr__(step, "indices", ((0, 0), (0, 1), (0, 2)))
        with pytest.raises(DomainError, match="^step 0: .*two indices"):
            sequence((step,), "exact", (3, cat.dim))
