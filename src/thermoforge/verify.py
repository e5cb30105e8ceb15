"""Randomized invariant suites behind the `verify` CLI command.

Each suite runs the module-level invariants with seeded randomness and
returns one CheckResult per named property.  Deterministic per
(seed, trials).  random_density, random_populations and
random_resonant_spectra draw single instances; the fixed-shape loops
draw theirs through _trial_draws.  The test suite imports these helpers
too, so their draw order is pinned by seeded tests as well as by
`verify` stdout.

Every per-trial loop but those of suite_generators and suite_cooling
takes its trials in chunks of at most TRIAL_CHUNK, so memory is bounded
for any trial count.  suite_generators checks each trial's basis with
one stacked frobenius_distance call per property, and suite_cooling
runs the diagonal path once per D = 2..12: the dense cross-check
(D = 2..4) and the TO-optimality check (D = 2..8) read those rows.

A chunk is drawn in the rng order of a loop of single trials, then
evaluated with stacked calls:

- suite_numerics and the TO-oracle loop (_oracle_excess) draw instances
  of one fixed shape: one stacked call per kernel (see linalg).
- suite_compiler, suite_channels and the first suite_majorization loop
  draw a random spectrum pair per trial (_instance_chunks).  Each trial
  draws its spectra, its unitary's seed, then its own values: a density
  (channels), or populations and then a beta-swap pair (majorization).
  The chunk's unitaries come from one random_energy_preserving_unitary
  call over the list of block structures.  ChannelSpec, apply_TO and
  compile_exact run once per trial; the curve checks are one stacked
  thermo_majorizes call per system dimension, whose rows are the TO
  outputs and then the beta-swap outputs of the chunk's trials.
- The transitivity loop draws its 3t population vectors with one
  rng.random((t, 3, 3)) call, the values of 3t random(3) calls, and
  makes two stacked thermo_majorizes calls: one for both links a > b
  and b > c, one for a > c at the looser tolerance.

Each measured value is bit-equal to that of the loop of single calls,
which the test suite keeps as a reference.  trace_distance_triangle and
to_oracle_upper_bound report their largest gap, which is negative on
working code.
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
from .compiler import (EXACT_TOL, GateSequence, compile_bch, compile_exact, compile_trotter,
                       reconstruct)
from .generators import enumerate_basis, lie_closure, rank2_basis, ElementaryGenerator
from .linalg import dagger, expm_skew, frobenius_distance, kron, partial_trace, trace_distance
from .majorization import MAJORIZE_TOL, max_ground_population_TO, thermo_majorizes
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


TRIAL_CHUNK = 256  # most trials one stacked kernel call takes


def _chunks(trials: int) -> list[int]:
    """Sizes of the consecutive chunks of at most TRIAL_CHUNK trials."""
    return [min(TRIAL_CHUNK, trials - start) for start in range(0, trials, TRIAL_CHUNK)]


def _instance_chunks(rng, trials: int, draw=lambda rng, spec_s: None):
    """The random channel instances of `trials` trials, in chunks of at most
    TRIAL_CHUNK: lists of (spec_s, spec_c, blocks, u, extra).

    A chunk is drawn in the rng order of a loop of single trials: the
    spectra (random_resonant_spectra), the seed of u, then `extra`, which
    draw(rng, spec_s) takes.  Its unitaries then come from one
    random_energy_preserving_unitary call."""
    for t in _chunks(trials):
        drawn = []
        for _ in range(t):
            spec_s, spec_c = random_resonant_spectra(rng)
            seed = int(rng.integers(1 << 31))
            drawn.append((spec_s, spec_c, energy_blocks(spec_s, spec_c), seed, draw(rng, spec_s)))
        us = random_energy_preserving_unitary([b for _, _, b, _, _ in drawn],
                                              [seed for _, _, _, seed, _ in drawn])
        yield [(s, c, b, u, extra) for (s, c, b, _, extra), u in zip(drawn, us)]


def _populations_and_pair(rng, spec_s):
    """A DiagonalState over spec_s, then two distinct levels, ascending."""
    p = DiagonalState(random_populations(rng, spec_s.dim))
    i, j = sorted(rng.choice(spec_s.dim, size=2, replace=False).tolist())
    return p, (i, j)


def _trace(a):
    """The trace of each matrix of a (..., n, n) stack."""
    return np.trace(a, axis1=-2, axis2=-1)


def _complex(z):
    """Z = Re + i Im of a (..., 2, d, d) draw: its d^2 real parts, then its
    d^2 imaginary parts."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _hermitian(z):
    z = _complex(z)
    return (z + dagger(z)) / 2


def _antihermitian(z):
    z = _complex(z)
    return (z - dagger(z)) / 2


def _density(z):
    z = _complex(z)
    rho = z @ dagger(z)
    return rho / _trace(rho).real[..., None, None]


def _trial_draws(rng, trials: int, dims) -> list[np.ndarray]:
    """One (trials, 2, d, d) draw per d in dims, taken from one
    rng.standard_normal call in the order of a loop that draws one
    rng.standard_normal((2, d, d)) per d, trial after trial."""
    widths = [2 * d * d for d in dims]
    parts = np.split(rng.standard_normal((trials, sum(widths))), np.cumsum(widths)[:-1], axis=1)
    return [part.reshape(trials, 2, d, d) for part, d in zip(parts, dims)]


def random_density(rng, d):
    return _density(rng.standard_normal((2, d, d)))


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
    worst = dict.fromkeys(("assoc", "trace", "pt", "unit", "inv"), 0.0)
    worst["tri"] = -np.inf  # the triangle gap is negative on working code
    eye = np.eye(4)
    for t in _chunks(trials):
        a, b, c, k, x, y, z = _trial_draws(rng, t, (2, 3, 2, 4, 3, 3, 3))
        a, b, c, k = _hermitian(a), _hermitian(b), _hermitian(c), _antihermitian(k)
        x, y, z = _density(x), _density(y), _density(z)
        ab = kron(a, b)
        tr_b = _trace(b)
        trace_gap = _trace(ab) - _trace(a) * tr_b
        u = expm_skew(k)
        measured = {
            "assoc": frobenius_distance(kron(ab, c), kron(a, kron(b, c))),
            # hypot has the bits of abs() of one complex; np.abs need not
            "trace": np.hypot(trace_gap.real, trace_gap.imag),
            "pt": frobenius_distance(partial_trace(ab, (2, 3), 0), tr_b[:, None, None] * a),
            "unit": frobenius_distance(dagger(u) @ u, eye),
            "inv": frobenius_distance(u @ expm_skew(-k), eye),
            "tri": trace_distance(x, z) - trace_distance(x, y) - trace_distance(y, z),
        }
        for key, values in measured.items():
            worst[key] = max(worst[key], float(values.max()))
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
        mats = np.array([g.matrix(blocks.dims) for g in basis])
        worst_comm = max(worst_comm, frobenius_distance(mats @ h0, h0 @ mats).max())
        worst_anti = max(worst_anti, frobenius_distance(mats, -dagger(mats)).max())
        flat = mats.reshape(len(mats), -1)
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
    for chunk in _instance_chunks(rng, max(1, trials // 4)):
        for _, _, blocks, u, _ in chunk:
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
    _hi(results, "exact_roundtrip_error", worst_rt, EXACT_TOL)
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
    for chunk in _instance_chunks(rng, max(1, trials // 4),
                                  lambda rng, spec_s: random_density(rng, spec_s.dim)):
        for spec_s, spec_c, _, u, rho in chunk:
            chan = ChannelSpec(spec_s, spec_c, u)
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
    for chunk in _instance_chunks(rng, trials, _populations_and_pair):
        rows = {}  # system dim -> (spectrum, p, TO output, beta-swap output) per trial
        for spec_s, spec_c, _, u, (p, (i, j)) in chunk:
            out = apply_TO(p.to_dense(), ChannelSpec(spec_s, spec_c, u))
            q = np.clip(np.real(np.diag(out)), 0, None) / np.trace(out).real
            swapped = beta_swap(p, spec_s, i, j).populations
            rows.setdefault(spec_s.dim, []).append((spec_s, p.populations, q, swapped))
        for group in rows.values():
            specs, ps, qs, swaps = zip(*group)
            m = len(ps)
            # the TO rows, then the beta-swap rows, in one stacked call
            ok = thermo_majorizes(np.array(ps + ps), np.array(qs + swaps), specs + specs,
                                  tol=MAJORIZE_TOL)
            violations += np.count_nonzero(~ok[:m])
            swap_violations += np.count_nonzero(~ok[m:])
    # The same values as 3 * t calls of random_populations(rng, 3).
    abc = rng.random((min(trials, 50), 3, 3))
    a, b, c = np.moveaxis(abc / abc.sum(axis=-1, keepdims=True), 1, 0)
    spec = cooling.SYSTEM_SPECTRUM
    links = thermo_majorizes(np.stack((a, b)), np.stack((b, c)), spec)  # a > b, then b > c
    chained = links[0] & links[1]
    transitivity_ok = bool(thermo_majorizes(a, c, spec, tol=1e-8)[chained].all())
    over = _oracle_excess(rng, min(trials, 200))  # the TO optimum is never exceeded
    results.append(CheckResult("to_monotonicity_violations", violations == 0, float(violations), 0.0))
    results.append(CheckResult("beta_swap_majorized", swap_violations == 0, float(swap_violations), 0.0))
    results.append(CheckResult("curve_transitivity", transitivity_ok, float(transitivity_ok), 1.0))
    _hi(results, "to_oracle_upper_bound", over, 1e-9)
    return results


def _oracle_excess(rng, trials: int) -> float:
    """Largest ground population that a Haar energy-preserving unitary gives
    the cooling input at D = 2, less the TO optimum (the oracle), over
    `trials` unitaries, each drawn from an rng.integers seed in turn."""
    inst = cooling.build_cooling_instance(2)
    oracle = max_ground_population_TO(cooling.DEFAULT_INPUT, inst.system, inst.catalyst)
    blocks = energy_blocks(inst.system, inst.catalyst)
    joint_in = kron(cooling.DEFAULT_INPUT.to_dense(), gibbs_state(inst.catalyst).to_dense())
    over = -np.inf
    for t in _chunks(trials):
        u = random_energy_preserving_unitary(blocks, seed=rng.integers(1 << 31, size=t))
        sigma = partial_trace(u @ joint_in @ dagger(u), blocks.dims, keep=0)
        over = max(over, float(np.max(sigma[:, 0, 0].real - oracle)))
    return over


def suite_cooling(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    worst_closed = 0.0
    rows = {d: cooling.run_cooling(d) for d in range(2, 13)}  # D -> (final, inv)
    for d, (final, inv) in rows.items():
        ground, excited, invariant = cooling.closed_form(d)
        target = np.array([ground, excited, excited])
        worst_closed = max(worst_closed, float(np.abs(final.populations - target).max()))
        worst_closed = max(worst_closed, abs(inv - invariant))
    worst_dense = 0.0
    for d in (2, 3, 4):
        diag, _ = rows[d]
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
        final, _ = rows[d]
        oracle = max_ground_population_TO(cooling.DEFAULT_INPUT, cooling.SYSTEM_SPECTRUM,
                                          cooling.build_cooling_catalyst(d))
        opt_dev = max(opt_dev, abs(oracle - float(final.populations[0])))
    # The raw catalyst marginal is far from Gibbs at D=2.
    inst2 = cooling.build_cooling_instance(2)
    _, pre, _ = run_gc_eto(
        cooling.DEFAULT_INPUT.to_dense(), inst2.catalyst, inst2.gates, rethermalize=False
    )
    _hi(results, "q_prime_closed_form", worst_closed, cooling.COOL_TOL)
    _hi(results, "dense_diagonal_cross_check", worst_dense, 1e-10)
    _hi(results, "gate_order_independence", order_dev, 1e-12)
    _hi(results, "to_optimality_attained", opt_dev, cooling.COOL_TOL)
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
