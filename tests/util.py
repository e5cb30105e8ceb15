"""Reference implementations shared by the test suite, the sequence
builder the tests construct GateSequences with, the spectrum file
writer `to_json`, the givens blocks BLOCK_A and BLOCK_B at the unitarity
bound, the seeded random-matrix helpers random_hermitian and
random_antihermitian, and those of thermoforge.verify, re-exported.  The
reference_suite_* and reference_oracle_excess loops call each kernel
once per trial, on 2-D matrices, one block structure or one population
vector; verify's suites must match them."""
import math

import numpy as np

from thermoforge import (
    Spectrum,
    build_cooling_catalyst,
    build_cooling_instance,
    build_cooling_sequence,
    energy_blocks,
    gibbs_state,
)
from thermoforge import compiler, cooling
from thermoforge.channels import ChannelSpec, apply_TO, beta_swap, run_gc_eto
from thermoforge.compiler import (
    _COEFF_TOL, _ELIM_TOL, _GIVENS, _P, GateSequence, GeneratorCombination,
)
from thermoforge.errors import CapacityError, DomainError, ShapeError
from thermoforge.generators import (ElementaryGenerator, _to_matrix, enumerate_basis, lie_closure,
                                    rank2_basis)
from thermoforge.linalg import expm_skew, frobenius_distance, kron, partial_trace, trace_distance
from thermoforge.majorization import max_ground_population_TO, thermo_majorizes
from thermoforge.thermal import (ENERGY_TOL, DiagonalState, random_energy_preserving_unitary,
                                 require_energy_preserving)
from thermoforge.verify import CheckResult, _antihermitian, _hermitian, _hi
from thermoforge.verify import (  # noqa: F401  (re-exported for the tests)
    random_density,
    random_populations,
    random_resonant_spectra,
)


# u2 entries ([re, im] pairs) of two givens blocks within rounding of the
# unitarity bound 1e-12, on which a math.hypot form of ||U†U - I||_F and
# the loader's numpy form disagreed: A is 0.99997e-12 by the numpy form
# (1.00020e-12 by hypot), B 1.00002e-12 (0.99984e-12 by hypot).  One
# formula must accept A and refuse B, as a file and as a single step.
BLOCK_A = [[-0.022295545241504438, -0.31665788635648684], [0.6622809867732247, -0.6786859260576091],
           [0.5886795674156532, -0.7434292559330903], [-0.3169155366168328, 0.0182715894365057]]
BLOCK_B = [[-0.4239588508419298, 0.16520476841071657], [0.6424216447011081, 0.6166528259134347],
           [-0.6767324614607683, 0.5787913725096299], [-0.41378555890379815, -0.18924913198077523]]


def random_hermitian(rng, d):
    """A d x d Hermitian matrix from one rng.standard_normal((2, d, d))
    draw (real, then imaginary parts), as verify's suites draw theirs."""
    return _hermitian(rng.standard_normal((2, d, d)))


def random_antihermitian(rng, d):
    """The anti-Hermitian counterpart of random_hermitian, from the same draw."""
    return _antihermitian(rng.standard_normal((2, d, d)))


def to_json(spec) -> dict:
    """The `energies` form of docs/formats.md for a Spectrum: the writer of
    the spectrum files the tests hand to the CLI."""
    return {"energies": spec.energies.tolist()}


def sequence(steps, method, dims, error_bound=0.0, trotter_m=None, repeat=1):
    """The GateSequence of GateStep values `steps`, listed `repeat` times.

    The steps go through the JSON loader, GateSequence.from_json, so its
    checks run at construction; each step's indices are written as given,
    which lets a float, negative or extra index pair reach those checks.
    """
    items = [dict(step_to_json(step), indices=[list(pair) for pair in step.indices])
             for step in steps]
    obj = {"method": method, "dims": list(dims), "error_bound": error_bound, "steps": items}
    if trotter_m is not None:
        obj["trotter_m"] = trotter_m
    one = GateSequence.from_json(obj)
    return GateSequence(one.kinds, one.flats, one.blocks, one.params, one.method, one.dims,
                        one.error_bound, one.trotter_m, repeat)


def step_to_json(step) -> dict:
    """The JSON object of one GateStep (docs/formats.md), built field by
    field: the reference for the steps GateSequence.save writes."""
    d = {"kind": step.kind, "indices": [[int(s), int(c)] for s, c in step.indices]}
    if step.kind == "givens":
        d["u2"] = [[z.real, z.imag] for z in step.u2.ravel().tolist()]
    else:
        d["param"] = float(step.param)
    return d


def sequence_to_json(seq) -> dict:
    """The JSON object of a GateSequence, one step object per gate: the
    reference GateSequence.save is checked against, as
    json.dumps(sequence_to_json(seq), indent=1) must equal the file."""
    d = {"method": seq.method, "dims": list(seq.dims), "error_bound": seq.error_bound,
         "steps": [step_to_json(step) for step in seq.steps]}
    if seq.trotter_m is not None:
        d["trotter_m"] = seq.trotter_m
    return d


def reference_clipped_populations(p):
    """DiagonalState's populations by two passes: refuse an entry below
    -1e-14, clip at 0 with np.clip, refuse a sum more than 1e-12 from 1."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-14):
        raise DomainError(f"negative population {p.min()}")
    p = np.clip(p, 0.0, None)
    if abs(p.sum() - 1.0) > 1e-12:
        raise DomainError(f"populations sum to {p.sum()}, not 1")
    return p


def reference_energy_blocks(es, ec):
    """Double-loop joint energy blocks: sort (E_i + E_j, (i, j)) and open a
    new block at the first energy ENERGY_TOL or more above the current
    block's first (smallest) energy."""
    pairs = [
        (float(es[i] + ec[j]), (i, j))
        for i in range(len(es))
        for j in range(len(ec))
    ]
    pairs.sort(key=lambda t: (t[0], t[1]))
    blocks = []
    for e, idx in pairs:
        if blocks and abs(e - blocks[-1][0]) < ENERGY_TOL:
            blocks[-1][1].append(idx)
        else:
            blocks.append((e, [idx]))
    return tuple((e, tuple(sorted(idx))) for e, idx in blocks)


def reference_energy_groups(energies):
    """The greedy group walk, one searchsorted per group: (order, offsets,
    reps) as thermal._energy_groups returns them."""
    order = np.argsort(energies, kind="stable")
    s = energies[order]
    starts = []
    i = 0
    while i < len(s):
        starts.append(i)
        rep = float(s[i])
        i = max(i + 1, int(np.searchsorted(s, max(rep + ENERGY_TOL, math.nextafter(rep, math.inf)))))
    gid = np.repeat(np.arange(len(starts)), np.diff(starts + [len(s)]))
    return order[np.lexsort((order, gid))], np.array(starts + [len(s)]), s[starts]


def reference_components(a, b, n):
    """Union-find over the edges (a[i], b[i]) of nodes 0..n-1, with path
    halving: each node's label, the least node of its component, as
    linalg.components returns it."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        parent[find(y)] = find(x)
    least = {}
    for x in range(n):
        least.setdefault(find(x), x)
    return np.array([least[find(x)] for x in range(n)], dtype=np.intp)


def reference_spectrum_error(levels):
    """The DomainError message a `levels`-form spectrum of these (energy,
    deg) pairs must raise, or None.

    Energies must be finite and labels nonnegative; within each tolerance
    group (grouped as in reference_energy_blocks) the labels must be
    0..size-1 in some order."""
    energies = [float(e) for e, _ in levels]
    if not all(np.isfinite(energies)):
        return "spectrum energies must be finite"
    if any(g < 0 for _, g in levels):
        return "degeneracy labels must be nonnegative"
    groups = []  # [representative, labels]
    for e, g in sorted(((float(e), g) for e, g in levels), key=lambda t: t[0]):
        if groups and abs(e - groups[-1][0]) < ENERGY_TOL:
            groups[-1][1].append(g)
        else:
            groups.append((e, [g]))
    for rep, labels in groups:
        if sorted(labels) != list(range(len(labels))):
            return f"degeneracy labels at energy {rep} are not 0..{len(labels) - 1}"
    return None


def reference_random_energy_preserving_unitary(blocks, seed):
    """Block by block, in block order: two standard_normal draws (real,
    then imaginary parts), one qr, the phase fix, one np.ix_ write."""
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


def _reference_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def reference_suite_numerics(seed, trials):
    """verify.suite_numerics as one loop of 2-D kernel calls per trial, each
    instance drawn by two standard_normal calls (real, then imaginary
    parts) in the order a, b, c, k, x, y, z."""
    rng = np.random.default_rng(seed)
    results = []
    worst = {"assoc": 0.0, "trace": 0.0, "pt": 0.0, "unit": 0.0, "inv": 0.0, "tri": -np.inf}
    for _ in range(trials):
        a, b, c = (_reference_complex(rng, d) for d in (2, 3, 2))
        a, b, c = ((m + m.conj().T) / 2 for m in (a, b, c))
        k = _reference_complex(rng, 4)
        k = (k - k.conj().T) / 2
        worst["assoc"] = max(worst["assoc"], frobenius_distance(kron(kron(a, b), c), kron(a, kron(b, c))))
        worst["trace"] = max(worst["trace"], abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)))
        worst["pt"] = max(worst["pt"], frobenius_distance(partial_trace(kron(a, b), (2, 3), 0), np.trace(b) * a))
        u = expm_skew(k)
        worst["unit"] = max(worst["unit"], np.linalg.norm(u.conj().T @ u - np.eye(4)))
        worst["inv"] = max(worst["inv"], frobenius_distance(u @ expm_skew(-k), np.eye(4)))
        x, y, z = (_reference_complex(rng, 3) for _ in range(3))
        x, y, z = (m @ m.conj().T for m in (x, y, z))
        x, y, z = (m / np.trace(m).real for m in (x, y, z))
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


def reference_oracle_excess(rng, trials):
    """verify._oracle_excess as one loop of 2-D kernel calls per trial, each
    unitary from its own int(rng.integers(1 << 31)) seed."""
    inst = build_cooling_instance(2)
    oracle = max_ground_population_TO(cooling.DEFAULT_INPUT, inst.system, inst.catalyst)
    blocks = energy_blocks(inst.system, inst.catalyst)
    tau_c = gibbs_state(inst.catalyst).to_dense()
    over = -np.inf
    for _ in range(trials):
        u = random_energy_preserving_unitary(blocks, seed=int(rng.integers(1 << 31)))
        joint = u @ kron(cooling.DEFAULT_INPUT.to_dense(), tau_c) @ u.conj().T
        sigma = partial_trace(joint, blocks.dims, keep=0)
        over = max(over, float(np.real(sigma[0, 0])) - oracle)
    return over


def reference_curve_values(curve, xs):
    """The piecewise-linear curve through a ThermoCurve's vertices at xs."""
    v = np.asarray(curve.vertices)
    return np.interp(np.asarray(xs, dtype=float), v[:, 0], v[:, 1])


def _reference_check_curve(xs, ys):
    """The thermo-curve rules on one vertex list, in the order
    majorization._check_curve raises them."""
    if xs[0] != 0.0 or ys[0] != 0.0:
        raise DomainError("curve must start at (0, 0)")
    dx, dy = xs[1:] - xs[:-1], ys[1:] - ys[:-1]
    v = int(len(dx) > 0 and dx[0] == 0 and dy[0] > 0)  # a rising vertical first segment
    if not (dx[v:] > 0).all() or abs(xs[-1] - 1.0) > 1e-12:
        raise DomainError("x must increase strictly to 1")
    if (dy < -1e-12).any() or abs(ys[-1] - 1.0) > 1e-12:
        raise DomainError("y must be nondecreasing to 1")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slopes = dy[v:] / dx[v:]
        rise = slopes[1:] - slopes[:-1]
        # relative to a finite earlier slope above 1, absolute otherwise
        tol = [1e-9 * max(1.0, abs(s)) if math.isfinite(s) else 1e-9 for s in slopes[:-1]]
        both = np.isnan(rise)
        if both.any():  # two overflowed slopes, compared over dx * 2**600
            scaled = dy[v:] / np.ldexp(dx[v:], 600)
            rise[both] = ((scaled[1:] - scaled[:-1]) / scaled[:-1])[both]
    if not (rise <= np.array(tol)).all():
        raise DomainError("curve is not concave")


def reference_curve(p, spec):
    """The checked vertices (xs, ys) of a DiagonalState's curve, built on
    its own: ratios sorted with np.lexsort (ties at inf by p over gamma
    scaled by 2**600, then by index), cumulative sums, each run of equal
    x after the origin dropped but for its last vertex, and only then the
    last vertex set to (1, 1)."""
    if p.dim != spec.dim:
        raise DomainError(f"state dim {p.dim} != spectrum dim {spec.dim}")
    p, gamma = p.populations, gibbs_state(spec).populations
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = p / gamma
        inf = ratio == np.inf
        order = np.lexsort((np.where(inf, -(p / np.ldexp(gamma, 600)), 0.0), -ratio))
    xs = np.minimum(np.concatenate(([0.0], np.cumsum(gamma[order]))), 1.0)
    ys = np.concatenate(([0.0], np.cumsum(p[order])))
    kept = [0] + [k for k in range(1, len(xs)) if k == len(xs) - 1 or xs[k + 1] != xs[k]]
    xs, ys = xs[kept], ys[kept]
    xs[-1] = ys[-1] = 1.0
    _reference_check_curve(xs, ys)
    return xs, ys


def reference_thermo_majorizes(p, q, spec, tol=1e-9):
    """Build both curves, one state at a time, and compare them with
    np.interp at the union of their vertex x values."""
    xp, yp = reference_curve(p, spec)
    xq, yq = reference_curve(q, spec)
    xs = np.union1d(xp, xq)
    return bool(np.all(np.interp(xs, xp, yp) >= np.interp(xs, xq, yq) - tol))


def reference_hockey_majorizes(p, q, spec, tol=1e-9):
    """Whether p thermo-majorizes q, decided without curves: sum_i
    (p_i - t gamma_i)_+ is at least the same sum over q, less tol, at
    every slope t = p_i / gamma_i or q_i / gamma_i, and as t -> inf, where
    the sums run over the levels with gamma_i = 0.  gamma is scaled by
    2**600 (and t by 2**-600), so a subnormal weight gives a finite t."""
    gamma = np.ldexp(gibbs_state(spec).populations, 600)
    p, q = p.populations, q.populations
    heavy = gamma > 0
    t = np.concatenate((p[heavy], q[heavy])) / np.concatenate((gamma[heavy], gamma[heavy]))
    with np.errstate(over="ignore"):  # t * gamma past 1e308 clips to 0 all the same
        hockey = [np.maximum(r - np.multiply.outer(t, gamma), 0.0).sum(axis=-1) for r in (p, q)]
    return bool((hockey[0] >= hockey[1] - tol).all() and p[~heavy].sum() >= q[~heavy].sum() - tol)


def _reference_instances(rng, trials):
    """verify's random channel instances, one trial at a time: spectra,
    blocks and the unitary of its own int(rng.integers(1 << 31)) seed."""
    for _ in range(trials):
        spec_s, spec_c = random_resonant_spectra(rng)
        blocks = energy_blocks(spec_s, spec_c)
        yield spec_s, spec_c, blocks, random_energy_preserving_unitary(
            blocks, seed=int(rng.integers(1 << 31)))


def reference_suite_compiler_trials(seed, trials):
    """The random-instance checks of verify.suite_compiler, one compile per
    trial: (worst round-trip error, gate counts within their bound)."""
    rng = np.random.default_rng(seed)
    worst_rt, count_ok = 0.0, True
    for _, _, blocks, u in _reference_instances(rng, max(1, trials // 4)):
        seq = compiler.compile_exact(u, blocks)
        worst_rt = max(worst_rt, frobenius_distance(compiler.reconstruct(seq), u))
        count_ok &= seq.count("givens") <= sum(d * (d - 1) // 2 for d in blocks.block_sizes())
    return worst_rt, count_ok


def reference_suite_channels_trials(seed, trials):
    """The random-instance checks of verify.suite_channels, one channel per
    trial, its density drawn after its unitary's seed: the worst trace
    defect, negative eigenvalue and Gibbs-state distance."""
    rng = np.random.default_rng(seed)
    worst_trace = worst_eig = worst_gibbs = 0.0
    for spec_s, spec_c, _, u in _reference_instances(rng, max(1, trials // 4)):
        chan = ChannelSpec(spec_s, spec_c, u)
        rho = random_density(rng, spec_s.dim)
        out = apply_TO(rho, chan)
        worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0))
        worst_eig = max(worst_eig, -np.linalg.eigvalsh((out + out.conj().T) / 2).min())
        tau_s = gibbs_state(spec_s).to_dense()
        worst_gibbs = max(worst_gibbs, trace_distance(apply_TO(tau_s, chan), tau_s))
    return worst_trace, worst_eig, worst_gibbs


def reference_suite_majorization(seed, trials):
    """verify.suite_majorization with one 1-D thermo_majorizes call per
    check and trial: per trial the spectra, the unitary's seed, the
    populations, then the beta-swap pair; then three population vectors
    per transitivity trial, and the oracle loop."""
    rng = np.random.default_rng(seed)
    results = []
    violations = swap_violations = 0
    transitivity_ok = True
    for spec_s, spec_c, _, u in _reference_instances(rng, trials):
        chan = ChannelSpec(spec_s, spec_c, u)
        p = DiagonalState(random_populations(rng, spec_s.dim))
        out = apply_TO(p.to_dense(), chan)
        q = DiagonalState(np.clip(np.real(np.diag(out)), 0, None) / np.trace(out).real)
        violations += not thermo_majorizes(p, q, spec_s, tol=1e-9)
        i, j = sorted(rng.choice(spec_s.dim, size=2, replace=False))
        swap_violations += not thermo_majorizes(p, beta_swap(p, spec_s, int(i), int(j)), spec_s,
                                                tol=1e-9)
    spec = cooling.SYSTEM_SPECTRUM
    for _ in range(min(trials, 50)):
        a, b, c = (DiagonalState(random_populations(rng, 3)) for _ in range(3))
        if thermo_majorizes(a, b, spec) and thermo_majorizes(b, c, spec):
            transitivity_ok &= thermo_majorizes(a, c, spec, tol=1e-8)
    over = reference_oracle_excess(rng, min(trials, 200))
    results.append(CheckResult("to_monotonicity_violations", violations == 0, float(violations), 0.0))
    results.append(CheckResult("beta_swap_majorized", swap_violations == 0,
                               float(swap_violations), 0.0))
    results.append(CheckResult("curve_transitivity", transitivity_ok, float(transitivity_ok), 1.0))
    _hi(results, "to_oracle_upper_bound", over, 1e-9)
    return results


def reference_suite_generators(seed, trials):
    """verify.suite_generators with one 2-D norm per generator and check:
    the commutator with H0 and K + K† of each basis element in turn."""
    rng = np.random.default_rng(seed)
    results = []
    worst_comm = worst_anti = 0.0
    count_ok = closure_ok = True
    gram_min = np.inf
    for _ in range(max(1, trials // 10)):
        spec_s, spec_c = random_resonant_spectra(rng, max_s=3, max_c=3)
        blocks = energy_blocks(spec_s, spec_c)
        h0 = np.diag(np.add.outer(spec_s.energies, spec_c.energies).ravel()).astype(complex)
        basis = enumerate_basis(blocks, include_rank1=True)
        count_ok &= len(basis) == sum(d * d for d in blocks.block_sizes())
        mats = [g.matrix(blocks.dims) for g in basis]
        for km in mats:
            worst_comm = max(worst_comm, np.linalg.norm(km @ h0 - h0 @ km))
            worst_anti = max(worst_anti, np.linalg.norm(km + km.conj().T))
        flat = np.reshape(mats, (len(mats), -1))
        gram = np.real(flat.conj() @ flat.T)
        gram_min = min(gram_min, np.linalg.eigvalsh(gram).min())
    blocks = energy_blocks(Spectrum.from_energies([0.0, 1.0]),
                           Spectrum.from_energies([0.0, 0.0, 1.0, 1.0]))
    expected = sum(d * d for d in blocks.block_sizes())
    for gens in (enumerate_basis(blocks), rank2_basis(blocks)):
        closure_ok &= lie_closure(gens, max_dim=4 * expected, dims=blocks.dims) == expected
    a, b = blocks.pairs(blocks.members(1)[:2])
    e = float(blocks.reps[1])
    h, mm, g = (ElementaryGenerator(kind, e, a, b).matrix(blocks.dims)
                for kind in ("h", "m", "g_diag"))
    p = ElementaryGenerator("p", e, a, a).matrix(blocks.dims)
    rank1_resid = np.linalg.norm(p + ((h @ mm - mm @ h) / 2 + g) / 2)
    _hi(results, "generator_commutes_with_H0", worst_comm, 1e-12)
    _hi(results, "generator_antihermitian", worst_anti, 1e-12)
    results.append(CheckResult("basis_count_sum_d_squared", count_ok, float(count_ok), 1.0))
    _hi(results, "basis_gram_full_rank", gram_min, 1e-9, below=False)
    results.append(CheckResult("closure_rank2_equals_full", closure_ok, float(closure_ok), 1.0))
    _hi(results, "rank1_from_rank2_combination", rank1_resid, 1e-12)
    return results


def reference_suite_cooling(seed, trials):
    """verify.suite_cooling with one run_cooling call per check and D: the
    closed forms for D = 2..12, the dense cross-check for D = 2..4 and the
    TO optimum for D = 2..8 each run the diagonal path again."""
    rng = np.random.default_rng(seed)
    results = []
    worst_closed = worst_dense = opt_dev = 0.0
    for d in range(2, 13):
        final, inv = cooling.run_cooling(d)
        target = np.array([1 - 1 / d, 1 / (2 * d), 1 / (2 * d)])
        worst_closed = max(worst_closed, float(np.abs(final.populations - target).max()))
        worst_closed = max(worst_closed, abs(inv - 2.0 ** (-d) / d))
    for d in (2, 3, 4):
        diag, _ = cooling.run_cooling(d)
        dense = cooling.run_cooling_dense(d)
        worst_dense = max(worst_dense, float(np.abs(diag.populations - dense.populations).max()))
    gates = build_cooling_instance(4).gates
    perm = rng.permutation(len(gates))
    seq = GateSequence(gates.kinds[perm], gates.flats[perm], gates.blocks[perm],
                       gates.params[perm], method="handcrafted", dims=gates.dims)
    order_dev = frobenius_distance(compiler.reconstruct(seq), compiler.reconstruct(gates))
    for d in range(2, 9):
        final, _ = cooling.run_cooling(d)
        oracle = max_ground_population_TO(cooling.DEFAULT_INPUT, cooling.SYSTEM_SPECTRUM,
                                          build_cooling_catalyst(d))
        opt_dev = max(opt_dev, abs(oracle - float(final.populations[0])))
    inst2 = build_cooling_instance(2)
    _, pre, _ = run_gc_eto(cooling.DEFAULT_INPUT.to_dense(), inst2.catalyst, inst2.gates,
                           rethermalize=False)
    _hi(results, "q_prime_closed_form", worst_closed, 1e-12)
    _hi(results, "dense_diagonal_cross_check", worst_dense, 1e-10)
    _hi(results, "gate_order_independence", order_dev, 1e-12)
    _hi(results, "to_optimality_attained", opt_dev, 1e-12)
    _hi(results, "catalyst_out_of_equilibrium", pre.catalyst_marginal_distance, 0.1, below=False)
    return results


def reference_target_matrix(combo, dims):
    """The dense n x n generator of a GeneratorCombination: sum c K_g over
    its linear terms plus sum c [K_a, K_b] over its commutators."""
    n = dims[0] * dims[1]
    k = np.zeros((n, n), dtype=complex)
    for g, c in combo.linear:
        k += c * g.matrix(dims)
    for a, b, c in combo.commutators:
        am, bm = a.matrix(dims), b.matrix(dims)
        k += c * (am @ bm - bm @ am)
    return k


def reference_cooling_populations(d, p):
    """Joint populations q[s, c] of p ⊗ tau_C after swapping entries gate by
    gate over build_cooling_sequence(d)."""
    seq = build_cooling_sequence(d)
    q = np.outer(p, gibbs_state(build_cooling_catalyst(d)).populations)
    for step in seq.steps:
        (sa, ca), (sb, cb) = step.indices
        q[sa, ca], q[sb, cb] = q[sb, cb], q[sa, ca]
    return q


def reference_apply_gates(seq, x, conjugate=False):
    """Gate-by-gate kernel: every step is resolved (and its indices checked)
    before x is touched, then its two rows (and, when conjugating, its two
    columns) are updated in place, steps[0] first."""
    n = seq.dims[0] * seq.dims[1]
    if x.shape[0] != n or (conjugate and x.shape != (n, n)):
        raise ShapeError(f"operand shape {x.shape} does not match sequence dims {seq.dims}")
    if x.dtype != complex:
        raise TypeError(f"gates update a complex array in place, got {x.dtype}")
    for flats, block in [step.local(seq.dims) for step in seq.steps]:
        x[flats] = block @ x[flats]
        if conjugate:
            x[:, flats] = x[:, flats] @ block.conj().T
    return x


def reference_max_ground_population(p, spec_s, spec_c):
    """Per joint energy block, the sum of its largest weights p_s * gamma_c,
    one per ground-system (s = 0) slot, with Python lists."""
    gamma = gibbs_state(spec_c).populations
    total = 0.0
    for _, idx in reference_energy_blocks(spec_s.energies, spec_c.energies):
        pops = sorted((p[s] * gamma[c] for s, c in idx), reverse=True)
        total += sum(pops[:sum(1 for s, _ in idx if s == 0)])
    return total


def reference_max_ground_population_lexsort(p, spec_s, spec_c, tau_c=None):
    """One segmented sort for all blocks: np.lexsort orders every block's
    joint weights p_s * gamma_c largest first, then each block sums its
    first k, k its number of s = 0 members, one slice sum per block."""
    if tau_c is None:
        tau_c = gibbs_state(spec_c)
    blocks = energy_blocks(spec_s, spec_c)
    w = np.outer(p.populations, tau_c.populations).ravel()[blocks.order]
    sizes = np.diff(blocks.offsets)
    bid = np.repeat(np.arange(len(sizes)), sizes)
    w = w[np.lexsort((-w, bid))]
    ground = np.bincount(bid[blocks.order < spec_c.dim], minlength=len(sizes))  # s = 0
    total = 0.0
    for a, k in zip(blocks.offsets.tolist(), ground.tolist()):
        if k:
            total += w[a:a + k].sum()
    return float(total)


def reference_lie_closure(gens, max_dim: int = 512, dims: tuple[int, int] | None = None,
                          rank_tol: float = 1e-9) -> int:
    """Dimension of the smallest real commutator-closed span of the inputs.

    Grows an orthonormal basis (real inner product Re tr(A†B)) by repeated
    commutators; re-orthonormalizes every candidate against the current basis.
    """
    mats = [_to_matrix(g, dims) for g in gens]
    if not mats:
        return 0
    n = mats[0].shape[0]

    basis: list[np.ndarray] = []  # flattened real vectors, orthonormal

    def vec(m: np.ndarray) -> np.ndarray:
        return np.concatenate([m.real.ravel(), m.imag.ravel()])

    def try_add(m: np.ndarray) -> bool:
        v = vec(m)
        norm = np.linalg.norm(v)
        if norm < rank_tol:
            return False
        v = v / norm
        for _ in range(2):  # twice for numerical stability
            for b in basis:
                v = v - (b @ v) * b
        res = np.linalg.norm(v)
        if res < rank_tol:
            return False
        basis.append(v / res)
        return True

    def unvec(v: np.ndarray) -> np.ndarray:
        half = n * n
        return (v[:half] + 1j * v[half:]).reshape(n, n)

    for m in mats:
        try_add(m)
        if len(basis) > max_dim:
            raise CapacityError(f"closure exceeded max_dim {max_dim}")

    frontier = list(range(len(basis)))
    while frontier:
        new_frontier: list[int] = []
        for i in frontier:
            a = unvec(basis[i])
            for j in range(len(basis)):
                b = unvec(basis[j])
                if try_add(a @ b - b @ a):
                    new_frontier.append(len(basis) - 1)
                    if len(basis) > max_dim:
                        raise CapacityError(f"closure exceeded max_dim {max_dim}")
        frontier = new_frontier
    return len(basis)


def reference_expand_in_basis(k, blocks):
    """Coefficients of a dense n x n K over the orthogonal h/m/p basis: one
    dense generator matrix and one n x n trace per basis element."""
    coeffs = {}
    for gen in enumerate_basis(blocks, include_rank1=True):
        gm = gen.matrix(blocks.dims)
        norm2 = np.real(np.trace(gm.conj().T @ gm))
        r = float(np.real(np.trace(gm.conj().T @ k)) / norm2)
        if abs(r) > _COEFF_TOL:
            coeffs[gen] = r
    return coeffs


def reference_rank2_combination(k, blocks):
    """Depth-1 rank-2-only description of a dense n x n K: h/m linear terms
    plus f-type commutators and one g_diag per block for the diagonal part."""
    linear: list[tuple[ElementaryGenerator, float]] = []
    comms: list[tuple[ElementaryGenerator, ElementaryGenerator, float]] = []
    for energy, members in blocks.items():
        idx = blocks.pairs(members)
        d = len(idx)
        flats = members.tolist()
        diag = np.array([np.imag(k[f, f]) for f in flats])
        if d == 1:
            if abs(diag[0]) > 1e-12:
                raise DomainError(
                    f"singleton block at energy {energy} carries a phase; "
                    "tensor a two-level zero-energy catalyst to double it"
                )
            continue
        for i in range(d):
            for j in range(i + 1, d):
                gh = ElementaryGenerator("h", energy, idx[i], idx[j])
                gm = ElementaryGenerator("m", energy, idx[i], idx[j])
                for g in (gh, gm):
                    m = g.matrix(blocks.dims)
                    r = float(np.real(np.trace(m.conj().T @ k)) / 2.0)
                    if abs(r) > _COEFF_TOL:
                        linear.append((g, r))
        # diag = sum c_i * f_(i,i+1) + c_g * g_(0,1) in the +/-1 patterns.
        cols = np.zeros((d, d))
        for i in range(d - 1):
            cols[i, i], cols[i + 1, i] = 1.0, -1.0
        cols[0, d - 1] = cols[1, d - 1] = 1.0
        sol = np.linalg.solve(cols, diag)
        for i in range(d - 1):
            if abs(sol[i]) > _COEFF_TOL:
                gh = ElementaryGenerator("h", energy, idx[i], idx[i + 1])
                gm = ElementaryGenerator("m", energy, idx[i], idx[i + 1])
                comms.append((gh, gm, float(sol[i]) / 2.0))
        if abs(sol[d - 1]) > _COEFF_TOL:
            linear.append((ElementaryGenerator("g_diag", energy, idx[0], idx[1]), float(sol[d - 1])))
    return GeneratorCombination(linear=tuple(linear), commutators=tuple(comms))


def reference_compile_exact(u, blocks):
    """Triangular Givens elimination (Reck order), one Python iteration per
    rotation: for each column of each energy block, rotate rows (col, row)
    to zero a[row, col], row by row; skip an entry below _ELIM_TOL."""
    u = np.asarray(u, dtype=complex)
    require_energy_preserving(u, blocks)
    phases: list[tuple[int, float]] = []  # (flat level, param)
    givens: list[tuple[int, int, np.ndarray]] = []  # (flat levels, R with R† emitted)
    for _, members in blocks.items():
        flats = members.tolist()
        d = len(flats)
        a = u[np.ix_(flats, flats)].copy()
        block_rots = []
        for col in range(d - 1):
            # Rotating rows (col, row) leaves a[row', col] of later rows alone.
            for row, b in enumerate(a[col + 1:, col].tolist(), start=col + 1):
                if abs(b) < _ELIM_TOL:
                    continue
                x = a[col, col]
                r = math.hypot(abs(x), abs(b))
                # R zeroes a[row, col]; the emitted gate is R†.
                r2 = np.array([[x.conjugate(), b.conjugate()], [-b, x]]) / r
                pair = a[col:row + 1:row - col]  # a view of rows col and row
                pair[...] = r2 @ pair
                block_rots.append((flats[col], flats[row], r2))
        # a is now diagonal with unit-modulus phases.
        diag = np.diag(a)
        for k in np.flatnonzero(np.abs(diag - 1.0) > 1e-12).tolist():
            phases.append((flats[k], -float(np.angle(diag[k]))))
        givens.extend(reversed(block_rots))
    # Phases act first; eliminations are undone outermost-last.
    rots = np.array([r2 for _, _, r2 in givens]).reshape(-1, 2, 2)
    blocks_out = np.zeros((len(phases) + len(givens), 2, 2), dtype=complex)
    blocks_out[len(phases):] = rots.conj().transpose(0, 2, 1)
    return GateSequence(
        kinds=[_P] * len(phases) + [_GIVENS] * len(givens),
        flats=[(f, f) for f, _ in phases] + [(i, j) for i, j, _ in givens],
        blocks=blocks_out,
        params=[p for _, p in phases] + [math.nan] * len(givens),
        method="exact", dims=blocks.dims,
    )


def reference_compile_approximate(u, blocks, method, accuracy):
    """The doubling loop that rebuilds the sequence and reconstructs the
    dense n x n slice^m at every slice count m: m doubles from 1 until
    ||reconstruct(seq) - u||_F is below accuracy, up to compiler.M_CAP."""
    u = np.asarray(u, dtype=complex)
    require_energy_preserving(u, blocks)
    k = compiler._log_unitary(u, blocks)
    if method == "trotter":
        coeffs = compiler._expand_in_basis(k, blocks)
        build = lambda m: compiler.compile_trotter(coeffs, 1.0, m, blocks.dims)
    elif method == "bch":
        combo = compiler._rank2_combination(k, blocks)
        build = lambda m: compiler.compile_nested(combo, 1.0, m, blocks.dims)
    else:
        raise DomainError(f"unknown approximate method {method!r}")
    m = 1
    while True:
        seq = build(m)
        err = frobenius_distance(compiler.reconstruct(seq), u)
        if err < accuracy or 2 * m > compiler.M_CAP:
            return seq, err
        m *= 2
