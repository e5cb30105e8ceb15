"""Reference implementations shared by the test suite, the sequence
builder the tests construct GateSequences with, and the seeded
random-instance helpers of thermoforge.verify, re-exported."""
import math

import numpy as np

from thermoforge import (
    build_cooling_catalyst,
    build_cooling_sequence,
    energy_blocks,
    gibbs_state,
)
from thermoforge import compiler
from thermoforge.compiler import (
    _COEFF_TOL, _ELIM_TOL, _GIVENS, _P, GateSequence, GeneratorCombination,
)
from thermoforge.errors import CapacityError, DomainError, ShapeError
from thermoforge.generators import ElementaryGenerator, _to_matrix, enumerate_basis
from thermoforge.linalg import frobenius_distance
from thermoforge.majorization import thermo_curve
from thermoforge.thermal import ENERGY_TOL
from thermoforge.verify import (  # noqa: F401  (re-exported for the tests)
    random_antihermitian,
    random_density,
    random_hermitian,
    random_populations,
    random_resonant_spectra,
)


def sequence(steps, method, dims, error_bound=0.0, trotter_m=None, repeat=1):
    """The GateSequence of GateStep values `steps`, listed `repeat` times.

    The steps go through the JSON loader, GateSequence.from_json, so its
    checks run at construction; each step's indices are written as given,
    which lets a float, negative or extra index pair reach those checks.
    """
    items = [dict(step.to_json(), indices=[list(pair) for pair in step.indices])
             for step in steps]
    obj = {"method": method, "dims": list(dims), "error_bound": error_bound, "steps": items}
    if trotter_m is not None:
        obj["trotter_m"] = trotter_m
    one = GateSequence.from_json(obj)
    return GateSequence(one.kinds, one.flats, one.blocks, one.params, one.method, one.dims,
                        one.error_bound, one.trotter_m, repeat)


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


def reference_spectrum_error(levels):
    """The DomainError message Spectrum(levels) must raise, or None.

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


def reference_thermo_majorizes(p, q, spec, tol=1e-9):
    """Build both ThermoCurve objects and compare them at the union of
    their vertex x values."""
    cp = thermo_curve(p, spec)
    cq = thermo_curve(q, spec)
    xs = np.union1d(cp.xs, cq.xs)
    return bool(np.all(cp.evaluate(xs) >= cq.evaluate(xs) - tol))


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
    compiler._require_energy_preserving(u, blocks)
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
    compiler._require_energy_preserving(u, blocks)
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
