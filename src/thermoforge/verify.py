"""Randomized invariant suites behind the `verify` CLI command.

Each suite runs the module-level invariants with seeded randomness and
returns one CheckResult per named property.  Deterministic per
(seed, trials).  The random_* helpers draw every instance; the test
suite imports them too, so their draw order is pinned by seeded tests
as well as by `verify` stdout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cooling
from .channels import (
    ChannelSpec,
    apply_TO,
    beta_swap,
    run_gc_eto,
)
from .compiler import GateSequence, compile_bch, compile_exact, compile_trotter, reconstruct
from .generators import enumerate_basis, lie_closure, rank2_basis, ElementaryGenerator
from .linalg import expm_skew, frobenius_distance, kron, partial_trace, trace_distance
from .majorization import max_ground_population_TO, thermo_majorizes
from .thermal import (
    DiagonalState,
    Spectrum,
    energy_blocks,
    gibbs_state,
    random_energy_preserving_unitary,
)

SUITES = ("numerics", "generators", "compiler", "channels", "majorization", "cooling")


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float


def random_hermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2


def random_antihermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z - z.conj().T) / 2


def random_density(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def random_populations(rng, d):
    p = rng.random(d)
    return p / p.sum()


def random_resonant_spectra(rng, max_s=4, max_c=5):
    """Integer-multiple energies so degenerate joint blocks actually occur."""
    ds = int(rng.integers(2, max_s + 1))
    dc = int(rng.integers(2, max_c + 1))
    es = rng.integers(0, 3, size=ds).astype(float)
    ec = rng.integers(0, 3, size=dc).astype(float)
    return Spectrum.from_energies(es), Spectrum.from_energies(ec)


def _hi(results, name, measured, tolerance, below=True):
    ok = measured < tolerance if below else measured > tolerance
    results.append(CheckResult(name, bool(ok), float(measured), float(tolerance)))


def suite_numerics(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    worst = {"assoc": 0.0, "trace": 0.0, "pt": 0.0, "unit": 0.0, "inv": 0.0, "tri": 0.0}
    for _ in range(trials):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        c = random_hermitian(rng, 2)
        worst["assoc"] = max(worst["assoc"], frobenius_distance(kron(kron(a, b), c), kron(a, kron(b, c))))
        worst["trace"] = max(worst["trace"], abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)))
        worst["pt"] = max(worst["pt"], frobenius_distance(partial_trace(kron(a, b), (2, 3), 0), np.trace(b) * a))
        k = random_antihermitian(rng, 4)
        u = expm_skew(k)
        worst["unit"] = max(worst["unit"], np.linalg.norm(u.conj().T @ u - np.eye(4)))
        worst["inv"] = max(worst["inv"], frobenius_distance(u @ expm_skew(-k), np.eye(4)))
        x, y, z = (random_density(rng, 3) for _ in range(3))
        worst["tri"] = max(
            worst["tri"], trace_distance(x, z) - trace_distance(x, y) - trace_distance(y, z)
        )
    _hi(results, "kron_associative", worst["assoc"], 1e-12)
    _hi(results, "kron_trace_product", worst["trace"], 1e-12)
    _hi(results, "partial_trace_of_product", worst["pt"], 1e-12)
    _hi(results, "expm_skew_unitarity", worst["unit"], 1e-12)
    _hi(results, "expm_skew_inverse", worst["inv"], 1e-10)
    _hi(results, "trace_distance_triangle", worst["tri"], 1e-10)
    return results


def suite_generators(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    worst_comm = 0.0
    worst_anti = 0.0
    count_ok = True
    gram_min = np.inf
    closure_ok = True
    for _ in range(max(1, trials // 10)):
        spec_s, spec_c = random_resonant_spectra(rng, max_s=3, max_c=3)
        blocks = energy_blocks(spec_s, spec_c)
        h0 = np.diag(
            np.add.outer(spec_s.energies, spec_c.energies).ravel()
        ).astype(complex)
        basis = enumerate_basis(blocks, include_rank1=True)
        count_ok &= len(basis) == sum(d * d for d in blocks.block_sizes())
        mats = [g.matrix(blocks.dims) for g in basis]
        for km in mats:
            worst_comm = max(worst_comm, np.linalg.norm(km @ h0 - h0 @ km))
            worst_anti = max(worst_anti, np.linalg.norm(km + km.conj().T))
        flat = np.reshape(mats, (len(mats), -1))
        gram = np.real(flat.conj() @ flat.T)  # Re tr(A^dagger B) for every pair
        gram_min = min(gram_min, np.linalg.eigvalsh(gram).min())
    # Closure equality on a doubled structure (all blocks size >= 2).
    spec_s = Spectrum.from_energies([0.0, 1.0])
    spec_c = Spectrum.from_energies([0.0, 0.0, 1.0, 1.0])
    blocks = energy_blocks(spec_s, spec_c)
    expected = sum(d * d for d in blocks.block_sizes())
    closure_ok &= lie_closure(enumerate_basis(blocks), max_dim=4 * expected, dims=blocks.dims) == expected
    closure_ok &= lie_closure(rank2_basis(blocks), max_dim=4 * expected, dims=blocks.dims) == expected
    # p = -1/2 (f + g) on one block pair.
    a, b = blocks.pairs(blocks.members(1)[:2])
    e = float(blocks.reps[1])
    h = ElementaryGenerator("h", e, a, b).matrix(blocks.dims)
    mm = ElementaryGenerator("m", e, a, b).matrix(blocks.dims)
    g = ElementaryGenerator("g_diag", e, a, b).matrix(blocks.dims)
    p = ElementaryGenerator("p", e, a, a).matrix(blocks.dims)
    f = (h @ mm - mm @ h) / 2
    rank1_resid = np.linalg.norm(p + (f + g) / 2)
    _hi(results, "generator_commutes_with_H0", worst_comm, 1e-12)
    _hi(results, "generator_antihermitian", worst_anti, 1e-12)
    results.append(CheckResult("basis_count_sum_d_squared", count_ok, float(count_ok), 1.0))
    _hi(results, "basis_gram_full_rank", gram_min, 1e-9, below=False)
    results.append(CheckResult("closure_rank2_equals_full", closure_ok, float(closure_ok), 1.0))
    _hi(results, "rank1_from_rank2_combination", rank1_resid, 1e-12)
    return results


def suite_compiler(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    worst_rt = 0.0
    count_ok = True
    for i in range(max(1, trials // 4)):
        spec_s, spec_c = random_resonant_spectra(rng)
        blocks = energy_blocks(spec_s, spec_c)
        u = random_energy_preserving_unitary(blocks, seed=int(rng.integers(1 << 31)))
        seq = compile_exact(u, blocks)
        worst_rt = max(worst_rt, frobenius_distance(reconstruct(seq), u))
        two_level = seq.count("givens")
        bound = sum(d * (d - 1) // 2 for d in blocks.block_sizes())
        count_ok &= two_level <= bound
    # Commuting pair is exact at m=1; non-commuting pair halves its error.
    spec_s = Spectrum.from_energies([0.0, 1.0])
    spec_c = Spectrum.from_energies([0.0, 1.0])
    blocks = energy_blocks(spec_s, spec_c)
    a, b = blocks.pairs(blocks.members(1)[:2])
    e = float(blocks.reps[1])
    gh = ElementaryGenerator("h", e, a, b)
    gm = ElementaryGenerator("m", e, a, b)
    pa = ElementaryGenerator("p", e, a, a)
    pb = ElementaryGenerator("p", e, b, b)
    t = 0.7
    seq1 = compile_trotter({pa: 0.4, pb: -0.9}, t, 1, blocks.dims)
    target1 = expm_skew(t * (0.4 * pa.matrix(blocks.dims) - 0.9 * pb.matrix(blocks.dims)))
    commuting_err = frobenius_distance(reconstruct(seq1), target1)
    target2 = expm_skew(t * (0.8 * gh.matrix(blocks.dims) + 0.5 * gm.matrix(blocks.dims)))
    errs = []
    for m in (8, 16, 32, 64):
        seq2 = compile_trotter({gh: 0.8, gm: 0.5}, t, m, blocks.dims)
        errs.append(frobenius_distance(reconstruct(seq2), target2))
    monotone = all(errs[i + 1] <= errs[i] * 1.1 for i in range(len(errs) - 1))
    same = compile_bch(gh, gh, 0.4, 8, blocks.dims)
    bch_self = frobenius_distance(reconstruct(same), np.eye(blocks.joint_dim))
    _hi(results, "exact_roundtrip_error", worst_rt, 1e-8)
    results.append(CheckResult("exact_gate_count_bound", count_ok, float(count_ok), 1.0))
    _hi(results, "trotter_commuting_exact_m1", commuting_err, 1e-10)
    results.append(CheckResult("trotter_error_monotone", monotone, float(monotone), 1.0))
    _hi(results, "bch_equal_pair_identity", bch_self, 1e-12)
    return results


def suite_channels(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    worst_trace = 0.0
    worst_eig = 0.0
    worst_gibbs = 0.0
    for _ in range(max(1, trials // 4)):
        spec_s, spec_c = random_resonant_spectra(rng)
        blocks = energy_blocks(spec_s, spec_c)
        u = random_energy_preserving_unitary(blocks, seed=int(rng.integers(1 << 31)))
        chan = ChannelSpec(spec_s, spec_c, u)
        rho = random_density(rng, spec_s.dim)
        out = apply_TO(rho, chan)
        worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0))
        worst_eig = max(worst_eig, -np.linalg.eigvalsh((out + out.conj().T) / 2).min())
        tau_s = gibbs_state(spec_s).to_dense()
        worst_gibbs = max(worst_gibbs, trace_distance(apply_TO(tau_s, chan), tau_s))
    # GC-ETO rethermalization is always strict; verdict chain holds.
    inst = cooling.build_cooling_instance(3)
    _, pre, post = run_gc_eto(
        cooling.DEFAULT_INPUT.to_dense(), inst.catalyst, inst.gates, rethermalize=True
    )
    chain_ok = (not pre.strict or pre.correlated) and (not post.strict or post.correlated)
    # Gibbs marginal is a fixed point of every beta-swap restriction.
    spec = cooling.SYSTEM_SPECTRUM
    gamma = gibbs_state(spec)
    swap_dev = max(
        float(np.abs(beta_swap(gamma, spec, i, j).populations - gamma.populations).max())
        for i, j in ((0, 1), (0, 2), (1, 2))
    )
    _hi(results, "apply_to_trace_preserving", worst_trace, 1e-12)
    _hi(results, "apply_to_positive", worst_eig, 1e-10)
    _hi(results, "gibbs_fixed_point", worst_gibbs, 1e-10)
    _hi(results, "rethermalized_strict_recovery", post.catalyst_marginal_distance, 1e-12)
    _hi(results, "rethermalized_product_defect", post.product_defect, 1e-12)
    results.append(CheckResult("verdict_implication_chain", chain_ok, float(chain_ok), 1.0))
    _hi(results, "beta_swap_fixes_gibbs", swap_dev, 1e-12)
    return results


def suite_majorization(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    violations = 0
    swap_violations = 0
    transitivity_ok = True
    for _ in range(trials):
        spec_s, spec_c = random_resonant_spectra(rng)
        blocks = energy_blocks(spec_s, spec_c)
        u = random_energy_preserving_unitary(blocks, seed=int(rng.integers(1 << 31)))
        chan = ChannelSpec(spec_s, spec_c, u)
        p = DiagonalState(random_populations(rng, spec_s.dim))
        out = apply_TO(p.to_dense(), chan)
        q = DiagonalState(np.clip(np.real(np.diag(out)), 0, None) / np.trace(out).real)
        if not thermo_majorizes(p, q, spec_s, tol=1e-9):
            violations += 1
        i, j = sorted(rng.choice(spec_s.dim, size=2, replace=False))
        if not thermo_majorizes(p, beta_swap(p, spec_s, int(i), int(j)), spec_s, tol=1e-9):
            swap_violations += 1
    spec = cooling.SYSTEM_SPECTRUM
    for _ in range(min(trials, 50)):
        a, b, c = (DiagonalState(random_populations(rng, 3)) for _ in range(3))
        if thermo_majorizes(a, b, spec) and thermo_majorizes(b, c, spec):
            transitivity_ok &= thermo_majorizes(a, c, spec, tol=1e-8)
    # TO optimality oracle never exceeded by simulated unitaries.
    inst = cooling.build_cooling_instance(2)
    oracle = max_ground_population_TO(cooling.DEFAULT_INPUT, inst.system, inst.catalyst)
    blocks = energy_blocks(inst.system, inst.catalyst)
    tau_c = gibbs_state(inst.catalyst).to_dense()
    over = 0.0
    for _ in range(min(trials, 200)):
        u = random_energy_preserving_unitary(blocks, seed=int(rng.integers(1 << 31)))
        joint = u @ kron(cooling.DEFAULT_INPUT.to_dense(), tau_c) @ u.conj().T
        sigma = partial_trace(joint, blocks.dims, keep=0)
        over = max(over, float(np.real(sigma[0, 0])) - oracle)
    results.append(CheckResult("to_monotonicity_violations", violations == 0, float(violations), 0.0))
    results.append(CheckResult("beta_swap_majorized", swap_violations == 0, float(swap_violations), 0.0))
    results.append(CheckResult("curve_transitivity", transitivity_ok, float(transitivity_ok), 1.0))
    _hi(results, "to_oracle_upper_bound", over, 1e-9)
    return results


def suite_cooling(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    worst_closed = 0.0
    for d in range(2, 13):
        final, inv = cooling.run_cooling(d)
        target = np.array([1 - 1 / d, 1 / (2 * d), 1 / (2 * d)])
        worst_closed = max(worst_closed, float(np.abs(final.populations - target).max()))
        worst_closed = max(worst_closed, abs(inv - 2.0 ** (-d) / d))
    worst_dense = 0.0
    for d in (2, 3, 4):
        diag, _ = cooling.run_cooling(d)
        dense = cooling.run_cooling_dense(d)
        worst_dense = max(worst_dense, float(np.abs(diag.populations - dense.populations).max()))
    # Gate order does not matter (commuting family).
    gates = cooling.build_cooling_instance(4).gates
    perm = rng.permutation(len(gates))
    seq = GateSequence(gates.kinds[perm], gates.flats[perm], gates.blocks[perm],
                       gates.params[perm], method="handcrafted", dims=gates.dims)
    order_dev = frobenius_distance(reconstruct(seq), reconstruct(gates))
    # TO optimality attained.
    opt_dev = 0.0
    for d in range(2, 9):
        final, _ = cooling.run_cooling(d)
        oracle = max_ground_population_TO(cooling.DEFAULT_INPUT, cooling.SYSTEM_SPECTRUM,
                                          cooling.build_cooling_catalyst(d))
        opt_dev = max(opt_dev, abs(oracle - float(final.populations[0])))
    # The raw catalyst marginal is far from Gibbs at D=2.
    inst2 = cooling.build_cooling_instance(2)
    _, pre, _ = run_gc_eto(
        cooling.DEFAULT_INPUT.to_dense(), inst2.catalyst, inst2.gates, rethermalize=False
    )
    _hi(results, "q_prime_closed_form", worst_closed, 1e-12)
    _hi(results, "dense_diagonal_cross_check", worst_dense, 1e-10)
    _hi(results, "gate_order_independence", order_dev, 1e-12)
    _hi(results, "to_optimality_attained", opt_dev, 1e-12)
    _hi(results, "catalyst_out_of_equilibrium", pre.catalyst_marginal_distance, 0.1, below=False)
    return results


SUITE_FUNCS = {
    "numerics": suite_numerics,
    "generators": suite_generators,
    "compiler": suite_compiler,
    "channels": suite_channels,
    "majorization": suite_majorization,
    "cooling": suite_cooling,
}


def run_suites(suite: str, seed: int, trials: int, inject_failure: bool = False) -> list[CheckResult]:
    """Checks of the named suite (or all), then, with inject_failure, one
    deliberately failing check, whatever the suite or trial count."""
    names = SUITES if suite == "all" else (suite,)
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITE_FUNCS:
            raise ValueError(f"unknown suite {name!r}")
        if trials == 0:
            continue  # vacuous pass, noted by the caller
        results.extend(SUITE_FUNCS[name](seed, trials))
    if inject_failure:
        results.append(CheckResult("injected_curve_violation", False, 1.0, 0.0))
    return results
