import cmath
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thermoforge import compiler, gates
from thermoforge import (
    ElementaryGenerator,
    GateSequence,
    GateStep,
    GeneratorCombination,
    Spectrum,
    apply_gates,
    compile_approximate,
    compile_bch,
    compile_exact,
    compile_nested,
    compile_trotter,
    energy_blocks,
    expm_skew,
    is_energy_preserving,
    random_energy_preserving_unitary,
    reconstruct,
)
from thermoforge.errors import DomainError, ShapeError
from util import (
    random_antihermitian,
    random_resonant_spectra,
    reference_apply_gates,
    reference_compile_approximate,
    reference_compile_exact,
    reference_expand_in_basis,
    reference_rank2_combination,
    sequence,
)


def one_block(size):
    s = Spectrum.from_energies([0.0])
    c = Spectrum.from_energies([0.0] * size)
    return energy_blocks(s, c)


def hm_pair(blocks):
    e, members = list(blocks.items())[0]
    a, b = sorted(blocks.pairs(members))[:2]
    return (ElementaryGenerator("h", e, a, b), ElementaryGenerator("m", e, a, b))


class TestReconstruct:
    def test_empty_is_identity(self):
        seq = sequence([], "handcrafted", (2, 2))
        assert np.allclose(reconstruct(seq), np.eye(4))

    def test_single_step(self):
        step = GateStep("p", ((0, 0),), param=0.3)
        seq = sequence([step], "handcrafted", (2, 2))
        assert np.allclose(reconstruct(seq), step.matrix((2, 2)))

    def test_order_first_step_rightmost(self):
        blocks = one_block(2)
        gh, gm = hm_pair(blocks)
        s1 = GateStep(gh.kind, gh.support(), param=0.4)
        s2 = GateStep(gm.kind, gm.support(), param=0.7)
        seq = sequence([s1, s2], "handcrafted", blocks.dims)
        expected = s2.matrix(blocks.dims) @ s1.matrix(blocks.dims)
        assert np.allclose(reconstruct(seq), expected)

    # With dims (3, 2), (0, -1) would alias flat level 5 and (0, 2) flat
    # level 2 = (1, 0) if indices were only checked against the joint dim.
    @pytest.mark.parametrize("bad", [(0, -1), (0, 2), (-1, 0), (3, 0)])
    def test_rejects_out_of_range_joint_index(self, bad):
        swap = np.array([[0, 1], [1, 0]])
        step = GateStep("givens", (bad, (0, 0)), u2=swap)
        with pytest.raises(ShapeError, match="^step 0: .*out of range"):
            sequence([step], "handcrafted", (3, 2))


@st.composite
def gate_cases(draw):
    """(dims, step, dense reference U) for every gate kind.

    Generator kinds are checked against expm_skew of the generator matrix,
    givens against its 2x2 block written into the identity entry by entry;
    neither reference goes through GateStep.local or GateStep.matrix.
    """
    dims = (draw(st.integers(1, 4)), draw(st.integers(2, 5)))
    return (dims, *draw(gate_steps(dims)))


@st.composite
def gate_steps(draw, dims):
    """(step, dense reference U) of any kind on joint dims `dims`."""
    n = dims[0] * dims[1]
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    first, second = divmod(a, dims[1]), divmod(b, dims[1])
    kind = draw(st.sampled_from(("h", "m", "g_diag", "p", "givens")))
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    if kind == "givens":
        al, be, ga, de = (draw(angle) for _ in range(4))
        u2 = np.exp(1j * al) * np.array([
            [np.exp(1j * be) * math.cos(ga), np.exp(1j * de) * math.sin(ga)],
            [-np.exp(-1j * de) * math.sin(ga), np.exp(-1j * be) * math.cos(ga)],
        ])
        u = np.eye(n, dtype=complex)
        u[a, a], u[a, b], u[b, a], u[b, b] = u2[0, 0], u2[0, 1], u2[1, 0], u2[1, 1]
        return GateStep("givens", (first, second), u2=u2), u
    if kind == "p":
        second = first
    gen = ElementaryGenerator(kind, 0.0, first, second)
    theta = draw(angle)
    return GateStep(gen.kind, gen.support(), param=theta), expm_skew(theta * gen.matrix(dims))


class TestGateKernel:
    @given(gate_cases(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_left_product_matches_dense(self, case, seed):
        dims, step, u = case
        n = dims[0] * dims[1]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        seq = sequence([step], "handcrafted", dims)
        got = apply_gates(seq, x.copy())
        assert np.max(np.abs(got - u @ x)) < 1e-12

    @given(gate_cases(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_conjugation_matches_dense(self, case, seed):
        dims, step, u = case
        n = dims[0] * dims[1]
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = (z + z.conj().T) / 2
        seq = sequence([step], "handcrafted", dims)
        got = apply_gates(seq, rho.copy(), conjugate=True)
        assert np.max(np.abs(got - u @ rho @ u.conj().T)) < 1e-12

    def test_rejects_bad_operand(self):
        seq = sequence([], "handcrafted", (2, 2))
        with pytest.raises(ShapeError):
            apply_gates(seq, np.eye(3, dtype=complex))
        with pytest.raises(ShapeError):
            apply_gates(seq, np.ones((4, 2), dtype=complex), conjugate=True)
        with pytest.raises(TypeError):
            apply_gates(seq, np.eye(4))  # a real array would drop imaginary parts

    def test_rejects_coincident_levels(self):
        step = GateStep("givens", ((0, 1), (0, 1)), u2=np.eye(2))
        with pytest.raises(DomainError, match="^step 0: .*twice"):
            sequence([step], "handcrafted", (2, 2))


@st.composite
def layered_sequences(draw):
    """A GateSequence of any kinds on at most 12 levels, so that many steps
    share levels: a slice of up to 24 steps, listed trotter_m times."""
    dims = (draw(st.integers(1, 3)), draw(st.integers(2, 4)))
    one = [step for step, _ in draw(st.lists(gate_steps(dims), min_size=1, max_size=24))]
    m = draw(st.integers(1, 4))
    return sequence(one, "trotter", dims, trotter_m=m, repeat=m)


class TestLayeredKernel:
    @given(layered_sequences(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_gate_by_gate(self, seq, seed):
        n = seq.dims[0] * seq.dims[1]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert seq.repeat == seq.trotter_m
        assert seq.layers <= len(seq)
        got = apply_gates(seq, x.copy())
        assert np.max(np.abs(got - reference_apply_gates(seq, x.copy()))) < 1e-12
        rho = (x + x.conj().T) / 2
        got = apply_gates(seq, rho.copy(), conjugate=True)
        want = reference_apply_gates(seq, rho.copy(), conjugate=True)
        assert np.max(np.abs(got - want)) < 1e-12
        v = x[:, 0].copy()
        assert np.max(np.abs(apply_gates(seq, v.copy()) - reference_apply_gates(seq, v))) < 1e-12

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("bad,error", [
        (((0, 2), (1, -1)), ShapeError), (((0, 2), (2, 0)), ShapeError),
        (((0, 2), (0.5, 1)), ShapeError), (((1, 1), (1, 1)), DomainError),
        (((0, 2), (1, 0), (1, 1)), DomainError),
    ])
    def test_errors_before_x_is_touched(self, bad, error, conjugate):
        ok = [GateStep("h", ((0, 0), (0, 1)), param=0.4), GateStep("p", ((1, 2),), param=0.3)]
        step = GateStep("givens", ((0, 2), (1, 0)), u2=np.array([[0, 1], [1, 0]]))
        object.__setattr__(step, "indices", bad)
        # The loader rejects the step, so no sequence exists to apply to x,
        # with or without conjugation.
        with pytest.raises(error, match="^step 2: "):
            sequence(ok + [step] + ok, "handcrafted", (2, 3))

    def test_disjoint_gates_share_a_layer(self):
        # Gates on levels (0,1), (2,3), then (1,2): two layers; a phase on
        # level 0 after them joins the second layer.
        steps = [GateStep("h", ((0, 0), (0, 1)), param=0.1),
                 GateStep("m", ((0, 2), (0, 3)), param=0.2),
                 GateStep("g_diag", ((0, 1), (0, 2)), param=0.3),
                 GateStep("p", ((0, 0),), param=0.4)]
        seq = sequence(steps, "handcrafted", (1, 4))
        assert seq.layers == 2
        assert sequence(steps, "trotter", (1, 4), trotter_m=3, repeat=3).layers == 6


@st.composite
def step_json(draw):
    """One JSON step, valid or not, on dims (2, 3): any kind or an unknown
    one, 0-3 index pairs with entries in -1..3 or 0.5, a float param
    (NaN and infinities included) or a u2 block moved off a unitary."""
    kind = draw(st.sampled_from(("h", "m", "p", "g_diag", "givens", "x")))
    entry = st.sampled_from([-1, 0, 1, 2, 3, 0.5])
    pairs = draw(st.lists(st.lists(entry, min_size=2, max_size=2), max_size=3))
    step = {"kind": kind, "indices": pairs}
    if kind == "givens":
        theta, phi = draw(st.floats(0, 2 * math.pi)), draw(st.floats(0, 2 * math.pi))
        u2 = np.array([[math.cos(theta), -math.sin(theta) * cmath.exp(1j * phi)],
                       [math.sin(theta), math.cos(theta) * cmath.exp(1j * phi)]])
        u2.flat[draw(st.integers(0, 3))] += draw(st.sampled_from(
            [0.0, 1e-13, 1e-12, 1e-11, 0.1, math.nan, math.inf]))
        step["u2"] = [[z.real, z.imag] for z in u2.ravel().tolist()]
    else:
        step["param"] = draw(st.floats(allow_nan=True, allow_infinity=True))
    return step


class TestSequenceLoader:
    @given(st.lists(step_json(), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_checks_match_gatestep(self, items):
        # The array checks of GateSequence.from_json reject the first step
        # that GateStep.from_json or GateStep.local rejects, with its message.
        dims = (2, 3)
        expected = None
        for i, item in enumerate(items):
            try:
                GateStep.from_json(item).local(dims)
            except (DomainError, ShapeError) as e:
                expected = (type(e), f"step {i}: {e}")
                break
        obj = {"method": "handcrafted", "dims": list(dims), "error_bound": 0.0,
               "steps": items}
        if expected is None:
            seq = GateSequence.from_json(obj)
            want = [GateStep.from_json(item).matrix(dims) for item in items]
            got = [step.matrix(dims) for step in seq.steps]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        else:
            with pytest.raises(expected[0]) as info:
                GateSequence.from_json(obj)
            assert str(info.value) == expected[1]


class TestGateStep:
    def test_elementary_support(self):
        blocks = one_block(3)
        gh, _ = hm_pair(blocks)
        u = GateStep(gh.kind, gh.support(), param=1.2).matrix(blocks.dims)
        # Off-support rows and columns match the identity.
        support = {gh.first[1], gh.second[1]}
        for k in range(3):
            if k not in support:
                assert np.allclose(u[k], np.eye(3)[k], atol=1e-12)
                assert np.allclose(u[:, k], np.eye(3)[:, k], atol=1e-12)

    def test_steps_are_energy_preserving(self):
        s = Spectrum.from_energies([0.0, 1.0, 1.0])
        c = Spectrum.from_energies([0.0, 1.0])
        blocks = energy_blocks(s, c)
        u = random_energy_preserving_unitary(blocks, seed=1)
        for step in compile_exact(u, blocks).steps:
            assert is_energy_preserving(step.matrix(blocks.dims), blocks, 1e-10)

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown gate kind"):
            GateStep("x", ((0, 0), (0, 1)), param=0.1)

    def test_givens_requires_unitary_block(self):
        with pytest.raises(DomainError):
            GateStep("givens", ((0, 0), (0, 1)), u2=np.array([[1, 1], [0, 1]]))

    @pytest.mark.parametrize("u2", [
        [[math.nan, 0], [0, 1]],
        [[1, 0], [0, complex(1, math.nan)]],
        [[1, math.inf], [0, 1]],
        [[math.inf, 0], [0, 1]],
    ])
    def test_givens_rejects_non_finite_block(self, u2):
        with pytest.raises(DomainError, match="givens block"):
            GateStep("givens", ((0, 0), (0, 1)), u2=np.array(u2, dtype=complex))

    def test_givens_rejects_non_2x2_block(self):
        with pytest.raises(DomainError, match="2x2"):
            GateStep("givens", ((0, 0), (0, 1)), u2=np.eye(3))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi),
           st.integers(0, 3), st.floats(-14, -10), st.booleans())
    # [[1, eps], [0, 1]] is off by sqrt(2) * eps: rejected at 0.8e-12, kept at 0.65e-12.
    @example(0.0, 0.0, 0.0, 1, math.log10(0.8e-12), False)
    @example(0.0, 0.0, 0.0, 1, math.log10(0.65e-12), False)
    def test_unitarity_bound_matches_frobenius_norm(self, theta, phi, chi, entry, log_eps,
                                                     imaginary):
        # A unitary block with one entry moved by eps: accepted exactly when
        # ||U^dagger U - I||_F <= 1e-12.
        c, s = math.cos(theta), math.sin(theta)
        u2 = np.array([[c, -s * cmath.exp(1j * chi)],
                       [s * cmath.exp(1j * phi), c * cmath.exp(1j * (phi + chi))]])
        u2.flat[entry] += (1j if imaginary else 1) * 10.0 ** log_eps
        err = np.linalg.norm(u2.conj().T @ u2 - np.eye(2))
        assume(abs(err - 1e-12) > 1e-14)
        if err > 1e-12:
            with pytest.raises(DomainError, match="not unitary"):
                GateStep("givens", ((0, 0), (0, 1)), u2=u2)
        else:
            GateStep("givens", ((0, 0), (0, 1)), u2=u2)

    @pytest.mark.parametrize("param", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("kind,indices", [
        ("h", ((0, 0), (0, 1))), ("m", ((0, 0), (0, 1))),
        ("g_diag", ((0, 0), (0, 1))), ("p", ((0, 0),)),
    ])
    def test_rejects_non_finite_param(self, kind, indices, param):
        with pytest.raises(DomainError, match="param"):
            GateStep(kind, indices, param=param)


def haar_block(rng, d):
    return random_energy_preserving_unitary(one_block(d), seed=int(rng.integers(2 ** 31)))


def phased_permutation(rng, d):
    """A permutation with fourth-root-of-unity phases that has eigenvalue -1:
    the phases of the cycle through level 0 multiply to (-1)^length."""
    perm = rng.permutation(d)
    s = rng.choice(np.array([1, -1, 1j, -1j]), d)
    cycle, i = [0], int(perm[0])
    while i != 0:
        cycle.append(i)
        i = int(perm[i])
    s[0] *= (-1) ** len(cycle) / np.prod(s[cycle])
    u = np.zeros((d, d), dtype=complex)
    u[perm, np.arange(d)] = s
    return u


LOG_BLOCK_KINDS = ("haar", "permutation", "identity", "repeated", "close")


def log_test_block(kind, d, rng, phase):
    if kind == "haar":
        return haar_block(rng, d)
    if kind == "permutation":
        return phased_permutation(rng, d)
    if kind == "identity":
        return np.eye(d, dtype=complex)
    if kind == "repeated":
        return np.exp(1j * phase) * np.eye(d)
    w = haar_block(rng, d)  # phases 1e-9 apart in a Haar-rotated basis
    return (w * np.exp(1j * (phase + 1e-9 * np.arange(d)))) @ w.conj().T


EXACT_BLOCK_KINDS = ("haar", "identity", "permutation", "phases", "leading")


def exact_test_block(kind, d, rng):
    if kind == "phases":  # exact -1 and i among them half the time
        return np.diag(rng.choice(np.array([1, -1, 1j, -1j]), d) if rng.random() < 0.5
                       else np.exp(1j * rng.uniform(-math.pi, math.pi, d)))
    if kind == "leading":  # first column e_0 up to phase
        u = np.zeros((d, d), dtype=complex)
        u[0, 0] = np.exp(1j * rng.uniform(-math.pi, math.pi))
        if d > 1:
            u[1:, 1:] = haar_block(rng, d - 1)
        return u
    # A phased permutation has exact zeros below the diagonal: skipped entries.
    return log_test_block(kind, d, rng, 0.0)


def exact_instance(es, ec, kinds, seed):
    """Block structure of the system and catalyst energies, and a unitary
    with one block of each listed kind (cycled) per energy."""
    blocks = energy_blocks(Spectrum.from_energies(es), Spectrum.from_energies(ec))
    rng = np.random.default_rng(seed)
    u = np.zeros((blocks.joint_dim,) * 2, dtype=complex)
    for b, (_, members) in enumerate(blocks.items()):
        u[np.ix_(members, members)] = exact_test_block(kinds[b % len(kinds)], len(members), rng)
    return blocks, u


@st.composite
def exact_cases(draw):
    """A random block structure and a block-diagonal unitary with a block of
    a drawn kind per energy.  The structure is resonant (small integer
    energies on both sides) or drawn by block size with the levels
    shuffled, so blocks interleave and singletons are common."""
    if draw(st.booleans()):
        es = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
        ec = draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
    else:
        sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
        es = [3.0 * b for b, d in enumerate(sizes) for _ in range(d)]
        es = [es[i] for i in draw(st.permutations(range(len(es))))]
        ec = draw(st.sampled_from(([0.0], [0.0, 0.0], [0.0, 1.0])))
    kinds = draw(st.lists(st.sampled_from(EXACT_BLOCK_KINDS), min_size=1, max_size=8))
    return exact_instance(es, ec, kinds, draw(st.integers(0, 2 ** 32 - 1)))


class TestCompileExact:
    @given(exact_cases())
    @settings(max_examples=200, deadline=None)
    @example(exact_instance([0.0, 1.0, 2.0], [0.0, 10.0], ["phases"], 1))  # singletons only
    @example(exact_instance([0.0, 0.0, 1.0], [0.0, 1.0, 1.0], ["leading", "identity"], 2))
    @example(exact_instance([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0], ["permutation"], 3))
    def test_matches_reference_elimination(self, case):
        # Same steps as the row-by-row triangular elimination; only the last
        # bits of the blocks and phases may differ.
        blocks, u = case
        seq, want = compile_exact(u, blocks), reference_compile_exact(u, blocks)
        assert len(seq) == len(want)
        assert seq.kinds.tolist() == want.kinds.tolist()
        assert seq.flats.tolist() == want.flats.tolist()
        assert seq.layers == want.layers
        assert np.abs(seq.blocks - want.blocks).max(initial=0.0) <= 1e-13
        assert np.isnan(seq.params).tolist() == np.isnan(want.params).tolist()
        assert np.abs(np.nan_to_num(seq.params - want.params)).max(initial=0.0) <= 1e-13
        assert np.linalg.norm(reconstruct(seq) - u) <= 1e-12

    @given(st.lists(st.integers(1, 40), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_stacks_bound_padding(self, sizes):
        # Every block of size >= 2 once, largest first; a stack padded to its
        # first block holds at most 2 sum_b d_b^2 entries.
        stacks = compiler._stacks(sizes)
        listed = [b for stack in stacks for b in stack]
        assert sorted(listed) == [b for b, d in enumerate(sizes) if d >= 2]
        assert [sizes[b] for b in listed] == sorted((d for d in sizes if d >= 2), reverse=True)
        for stack in stacks:
            assert len(stack) * sizes[stack[0]] ** 2 <= 2 * sum(sizes[b] ** 2 for b in stack)

    def test_column_passes_per_size_class(self):
        # Joint dims 30..108 with energies 0..3 used equally often on each
        # side (74 to 983 rotations): one column pass per column of each
        # stack but its last.
        passes = []
        for ds, dc in ((3, 10), (4, 12), (5, 14), (6, 15), (6, 18)):
            sizes = np.convolve(np.bincount(np.arange(ds) % 4), np.bincount(np.arange(dc) % 4))
            passes.append(sum(sizes[s[0]] - 1 for s in compiler._stacks(sizes.tolist())))
        assert passes == [8, 13, 21, 27, 28]

    def test_identity_empty(self):
        blocks = one_block(4)
        assert len(compile_exact(np.eye(4), blocks)) == 0

    def test_transposition_single_gate(self):
        blocks = one_block(4)
        u = np.eye(4, dtype=complex)
        u[[1, 2]] = u[[2, 1]]
        seq = compile_exact(u, blocks)
        assert sum(1 for s in seq.steps if s.kind == "givens") == 1
        assert np.linalg.norm(reconstruct(seq) - u) < 1e-12

    def test_random_roundtrip_and_count(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a, b = random_resonant_spectra(rng)
            blocks = energy_blocks(a, b)
            u = random_energy_preserving_unitary(blocks, seed=int(rng.integers(1 << 31)))
            seq = compile_exact(u, blocks)
            assert np.linalg.norm(reconstruct(seq) - u) < 1e-8
            two_level = sum(1 for s in seq.steps if s.kind == "givens")
            phases = sum(1 for s in seq.steps if s.kind == "p")
            assert two_level <= sum(d * (d - 1) // 2 for d in blocks.block_sizes())
            assert phases <= sum(blocks.block_sizes())

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["haar", "permutation"]))
    @settings(max_examples=100, deadline=None)
    def test_random_structures_roundtrip_budget_and_bytes(self, seed, kind):
        rng = np.random.default_rng(seed)
        blocks = energy_blocks(*random_resonant_spectra(rng, max_s=4, max_c=5))
        if kind == "haar":
            u = random_energy_preserving_unitary(blocks, seed=int(rng.integers(1 << 31)))
        else:  # a permutation inside each block: exact phases and swaps
            u = np.zeros((blocks.joint_dim,) * 2, dtype=complex)
            for _, members in blocks.items():
                flats = members.tolist()
                u[flats, rng.permutation(flats)] = 1.0
        seq = compile_exact(u, blocks)
        assert np.linalg.norm(reconstruct(seq) - u) < 1e-9
        sizes = blocks.block_sizes()
        assert seq.count("givens") <= sum(d * (d - 1) // 2 for d in sizes)
        assert seq.count("p") <= sum(sizes)
        assert seq.count("givens") + seq.count("p") == len(seq)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "seq.json")
            seq.save(path)
            with open(path) as f:
                assert f.read() == json.dumps(seq.to_json(), indent=1)

    def test_rejects_block_coupling(self):
        s = Spectrum.from_energies([0.0, 1.0])
        blocks = energy_blocks(s, s)
        u = np.eye(4, dtype=complex)
        u[[0, 3]] = u[[3, 0]]  # couples total energies 0 and 2
        with pytest.raises(DomainError, match="couples"):
            compile_exact(u, blocks)


class TestCompileTrotter:
    def test_commuting_exact_at_m1(self):
        blocks = one_block(4)
        e, members = list(blocks.items())[0]
        idx = sorted(blocks.pairs(members))
        # Disjoint supports commute.
        g1 = ElementaryGenerator("h", e, idx[0], idx[1])
        g2 = ElementaryGenerator("h", e, idx[2], idx[3])
        t = 0.8
        seq = compile_trotter({g1: 0.4, g2: -1.1}, t, 1, blocks.dims)
        target = expm_skew(t * (0.4 * g1.matrix(blocks.dims) - 1.1 * g2.matrix(blocks.dims)))
        assert np.linalg.norm(reconstruct(seq) - target) < 1e-10

    def test_empty_and_zero_time(self):
        blocks = one_block(2)
        gh, _ = hm_pair(blocks)
        assert len(compile_trotter({}, 1.0, 4, blocks.dims)) == 0
        assert len(compile_trotter({gh: 0.5}, 0.0, 4, blocks.dims)) == 0

    def test_rejects_nonpositive_m(self):
        with pytest.raises(DomainError):
            compile_trotter({}, 1.0, 0, (1, 2))

    def test_first_order_slope(self):
        blocks = one_block(2)
        gh, gm = hm_pair(blocks)
        t, rh, rm = 0.9, 0.8, 0.5
        target = expm_skew(t * (rh * gh.matrix(blocks.dims) + rm * gm.matrix(blocks.dims)))
        ms = np.array([8, 16, 32, 64, 128])
        errs = [
            np.linalg.norm(reconstruct(compile_trotter({gh: rh, gm: rm}, t, int(m), blocks.dims)) - target)
            for m in ms
        ]
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert abs(slope + 1.0) < 0.1

    def test_error_monotone_on_doubling_ladder(self):
        blocks = one_block(2)
        gh, gm = hm_pair(blocks)
        target = expm_skew(0.7 * (gh.matrix(blocks.dims) + 0.3 * gm.matrix(blocks.dims)))
        errs = [
            np.linalg.norm(reconstruct(compile_trotter({gh: 1.0, gm: 0.3}, 0.7, m, blocks.dims)) - target)
            for m in (1, 2, 4, 8, 16, 32)
        ]
        assert all(errs[i + 1] <= errs[i] * 1.1 for i in range(len(errs) - 1))


class TestCompileBch:
    def test_equal_pair_is_identity(self):
        blocks = one_block(2)
        gh, _ = hm_pair(blocks)
        seq = compile_bch(gh, gh, 0.5, 4, blocks.dims)
        assert np.linalg.norm(reconstruct(seq) - np.eye(blocks.joint_dim)) < 1e-12

    def test_commuting_pair_is_identity(self):
        blocks = one_block(4)
        e, members = list(blocks.items())[0]
        idx = sorted(blocks.pairs(members))
        g1 = ElementaryGenerator("h", e, idx[0], idx[1])
        g2 = ElementaryGenerator("m", e, idx[2], idx[3])
        seq = compile_bch(g1, g2, 0.5, 4, blocks.dims)
        assert np.linalg.norm(reconstruct(seq) - np.eye(blocks.joint_dim)) < 1e-12

    def test_zero_time_empty(self):
        blocks = one_block(2)
        gh, gm = hm_pair(blocks)
        assert len(compile_bch(gh, gm, 0.0, 4, blocks.dims)) == 0

    def test_negative_time_swaps_pair(self):
        blocks = one_block(2)
        gh, gm = hm_pair(blocks)
        h, m = gh.matrix(blocks.dims), gm.matrix(blocks.dims)
        target = expm_skew(-0.4 * (h @ m - m @ h))
        seq = compile_bch(gh, gm, -0.4, 4096, blocks.dims)
        assert np.linalg.norm(reconstruct(seq) - target) < 0.05

    def test_half_order_slope(self):
        blocks = one_block(2)
        gh, gm = hm_pair(blocks)
        h, m = gh.matrix(blocks.dims), gm.matrix(blocks.dims)
        t = 0.6
        target = expm_skew(t * (h @ m - m @ h))
        ms = np.array([16, 64, 256, 1024])
        errs = [
            np.linalg.norm(reconstruct(compile_bch(gh, gm, t, int(mm), blocks.dims)) - target)
            for mm in ms
        ]
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert abs(slope + 0.5) < 0.15


class TestCompileNested:
    def test_pure_linear_matches_trotter(self):
        blocks = one_block(2)
        gh, gm = hm_pair(blocks)
        combo = GeneratorCombination(linear=((gh, 0.4), (gm, 0.7)))
        a = compile_nested(combo, 0.9, 8, blocks.dims)
        b = compile_trotter({gh: 0.4, gm: 0.7}, 0.9, 8, blocks.dims)
        assert np.allclose(reconstruct(a), reconstruct(b))
        assert a.method == "trotter"

    def test_pure_commutator_matches_bch(self):
        blocks = one_block(2)
        gh, gm = hm_pair(blocks)
        combo = GeneratorCombination(commutators=((gh, gm, 0.5),))
        a = compile_nested(combo, 0.8, 16, blocks.dims)
        b = compile_bch(gh, gm, 0.4, 16, blocks.dims)
        assert np.allclose(reconstruct(a), reconstruct(b))

    def test_mixed_term_converges(self):
        blocks = one_block(2)
        gh, gm = hm_pair(blocks)
        combo = GeneratorCombination(linear=((gh, 0.4),), commutators=((gh, gm, 0.2),))
        t = 0.5
        target = expm_skew(t * combo.target_matrix(blocks.dims))
        errs = []
        m = 4
        while m <= 1 << 14:
            err = np.linalg.norm(reconstruct(compile_nested(combo, t, m, blocks.dims)) - target)
            errs.append(err)
            if err < 1e-3:
                break
            m *= 2
        assert errs[-1] < 1e-3
        assert all(errs[i + 1] <= errs[i] * 1.1 for i in range(len(errs) - 1))

    def test_repeated_linear_terms_add(self):
        # Two terms on one generator are one term of the summed coefficient.
        blocks = one_block(2)
        gh, _ = hm_pair(blocks)
        combo = GeneratorCombination(linear=((gh, 0.5), (gh, 0.3)))
        seq = compile_nested(combo, 1.0, 1, blocks.dims)
        target = expm_skew(combo.target_matrix(blocks.dims))
        assert np.linalg.norm(reconstruct(seq) - target) <= 1e-12

    def test_rejects_deep_nesting(self):
        blocks = one_block(2)
        gh, gm = hm_pair(blocks)
        with pytest.raises(DomainError, match="deeper"):
            GeneratorCombination(commutators=(((gh, gm, 1.0), gm, 0.5),))


class TestSliceParams:
    """Every back-end takes its params from one slice plan; they must be
    the closed forms t*r/m and +-sqrt(t*c/m) bit for bit."""

    @given(t=st.floats(-3, 3), m=st.integers(1, 1 << 14),
           r=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
           c=st.lists(st.floats(-2, 2), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    @example(t=0.7, m=3, r=[0.8, 0.0, -0.5, 1.1], c=[0.6, -0.2])
    @example(t=-0.9, m=5, r=[0.3, 0.4, 0.5, 0.6], c=[0.0, 0.1])
    def test_params_are_the_closed_forms(self, t, m, r, c):
        s = Spectrum.from_energies([0.0, 1.0])
        blocks = energy_blocks(s, Spectrum.from_energies([0.0, 0.0, 1.0]))
        e, members = list(blocks.items())[1]
        a, b, d = sorted(blocks.pairs(members))
        gh, gm = ElementaryGenerator("h", e, a, b), ElementaryGenerator("m", e, a, b)
        gh2, pa = ElementaryGenerator("h", e, b, d), ElementaryGenerator("p", e, a, a)
        dims = blocks.dims

        def group(tc):  # tc = t*c/m of one commutator, swapped to tc >= 0
            x = math.sqrt(abs(tc))
            return [x, x, -x, -x]

        coeffs = dict(zip((pa, gh2, gm, gh), r))
        items = sorted((g, x) for g, x in coeffs.items() if x != 0.0)
        seq = compile_trotter(coeffs, t, m, dims)
        assert seq.params.tolist() == ([] if t == 0.0 else [t * x / m for _, x in items])
        if t != 0.0 and items:
            total = sum(abs(x) for _, x in items)
            assert seq.error_bound == (t * total) ** 2 / m

        seq = compile_bch(gh, gm, t, m, dims)
        assert seq.params.tolist() == ([] if t == 0.0 else group(t / m))
        assert seq.error_bound == (0.0 if t == 0.0 else abs(t) ** 1.5 / math.sqrt(m))

        combo = GeneratorCombination(linear=((gh2, r[0]), (pa, r[1])),
                                     commutators=((gh, gm, c[0]), (gm, gh2, c[1])))
        want = [t * x / m for g, x in sorted(combo.linear, key=lambda p: p[0]) if x != 0.0]
        for _, _, x in combo.commutators:
            if t * x != 0.0:
                want += group(t * x / m)
        assert compile_nested(combo, t, m, dims).params.tolist() == want


def periodic_builders():
    """build(m) for each back-end that lists one slice m times."""
    s = Spectrum.from_energies([0.0, 1.0])
    c = Spectrum.from_energies([0.0, 0.0, 1.0])
    blocks = energy_blocks(s, c)
    e, members = list(blocks.items())[1]
    a, b, d = sorted(blocks.pairs(members))
    gh, gm = ElementaryGenerator("h", e, a, b), ElementaryGenerator("m", e, a, b)
    gh2 = ElementaryGenerator("h", e, b, d)
    pa = ElementaryGenerator("p", e, a, a)
    coeffs = {gh: 0.8, gm: -0.5, gh2: 0.3, pa: 1.1}
    combo = GeneratorCombination(linear=((gh2, 0.4), (pa, -0.7)),
                                 commutators=((gh, gm, 0.6), (gm, gh2, -0.2)))
    return {
        "trotter": lambda m: compile_trotter(coeffs, 0.9, m, blocks.dims),
        "bch": lambda m: compile_bch(gh, gm, 0.7, m, blocks.dims),
        "nested": lambda m: compile_nested(combo, 0.8, m, blocks.dims),
    }


def gate_by_gate(seq):
    return apply_gates(seq, np.eye(seq.dims[0] * seq.dims[1], dtype=complex))


@pytest.fixture
def kernel_calls(monkeypatch):
    """(steps in the layers, repeat) of each apply_layers call made through
    the compiler module."""
    calls = []

    def counting(layers, repeat, x):
        calls.append((sum(len(pairs) + len(levels) for pairs, _, levels, _ in layers), repeat))
        return gates.apply_layers(layers, repeat, x)

    monkeypatch.setattr(compiler, "apply_layers", counting)
    return calls


class TestPeriodicReconstruct:
    @pytest.mark.parametrize("m", [1, 2, 7, 64, 1024])
    @pytest.mark.parametrize("method", ["trotter", "bch", "nested"])
    def test_matches_gate_by_gate(self, method, m, kernel_calls):
        seq = periodic_builders()[method](m)
        assert seq.method == method and seq.trotter_m == m
        got = reconstruct(seq)
        # the slice alone goes through the kernel, once
        assert kernel_calls == [(len(seq) // m, 1)]
        assert np.linalg.norm(got - gate_by_gate(seq)) < 1e-12 * m

    def test_json_loaded_sequence_takes_gate_path(self, kernel_calls):
        seq = periodic_builders()["bch"](16)
        loaded = GateSequence.from_json(json.loads(json.dumps(seq.to_json())))
        assert loaded.trotter_m == 16
        assert np.linalg.norm(reconstruct(loaded) - reconstruct(seq)) < 1e-12 * 16
        assert kernel_calls == [(len(seq), 1), (len(seq) // 16, 1)]

    def test_slice_indices_are_checked(self):
        bad = GateStep("h", ((0, 0), (0, 3)), param=0.1)
        ok = GateStep("m", ((0, 0), (0, 1)), param=0.2)
        with pytest.raises(ShapeError, match="^step 1: .*out of range"):
            sequence([ok, bad], "trotter", (2, 3), trotter_m=5, repeat=5)


class TestCompileApproximate:
    @pytest.fixture
    def instance(self):
        s = Spectrum.from_energies([0.0, 1.0])
        c = Spectrum.from_energies([0.0, 0.0])
        blocks = energy_blocks(s, c)
        return blocks, random_energy_preserving_unitary(blocks, seed=3)

    @pytest.mark.parametrize("method,accuracy", [("trotter", 1e-2), ("bch", 1e-1)])
    def test_smallest_power_of_two_meeting_accuracy(self, instance, method, accuracy):
        blocks, u = instance
        seq, err = compile_approximate(u, blocks, method, accuracy)
        # Every slice count up to the returned one, through the back-end itself.
        k = compiler._log_unitary(u, blocks)
        if method == "trotter":
            coeffs = compiler._expand_in_basis(k, blocks)
            build = lambda m: compile_trotter(coeffs, 1.0, m, blocks.dims)
        else:
            combo = compiler._rank2_combination(k, blocks)
            build = lambda m: compile_nested(combo, 1.0, m, blocks.dims)
        tried = [build(2 ** j) for j in range(seq.trotter_m.bit_length())]
        assert tried[-1].trotter_m == seq.trotter_m and len(tried) > 1
        for column in ("kinds", "flats", "params", "blocks"):
            assert np.array_equal(getattr(tried[-1], column), getattr(seq, column))
        assert (tried[-1].method, tried[-1].repeat) == (seq.method, seq.repeat)
        errs = [np.linalg.norm(gate_by_gate(s) - u) for s in tried]
        assert all(e >= accuracy for e in errs[:-1])
        assert err < accuracy
        assert errs[-1] == pytest.approx(err, abs=1e-12 * seq.trotter_m)

    def test_stops_at_cap(self, instance):
        blocks, u = instance
        seq, err = compile_approximate(u, blocks, "trotter", 0.0)
        assert seq.trotter_m == compiler.M_CAP
        assert err >= 0.0

    def test_rejects_unknown_method(self, instance):
        blocks, u = instance
        with pytest.raises(DomainError, match="unknown approximate method"):
            compile_approximate(u, blocks, "exact", 1e-3)

    def test_rejects_cross_block_unitary(self, instance):
        blocks, _ = instance
        u = np.eye(4, dtype=complex)
        u[[0, 3]] = u[[3, 0]]
        with pytest.raises(DomainError, match="couples energy blocks"):
            compile_approximate(u, blocks, "bch", 1e-3)

    @given(es=st.lists(st.integers(0, 2), min_size=1, max_size=3),
           ec=st.lists(st.integers(0, 2), min_size=1, max_size=3),
           kind=st.sampled_from(["haar", "identity"]),
           method=st.sampled_from(["trotter", "bch"]),
           accuracy=st.one_of(st.just(0.0), st.floats(-4, -1).map(lambda x: 10.0 ** x)),
           leak=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
    @example(es=[0], ec=[0, 0], kind="identity", method="trotter", accuracy=0.0, leak=False,
             seed=0)
    @example(es=[0], ec=[0, 0], kind="identity", method="bch", accuracy=1e-2, leak=False,
             seed=0)
    @example(es=[0, 1], ec=[0, 1], kind="identity", method="trotter", accuracy=1e-3,
             leak=True, seed=4)
    @example(es=[0, 1], ec=[0, 1], kind="haar", method="bch", accuracy=1e-1, leak=False, seed=1)
    @example(es=[0, 1, 1], ec=[0], kind="haar", method="trotter", accuracy=1e-4, leak=True,
             seed=2)
    @example(es=[0, 2], ec=[0, 1], kind="haar", method="trotter", accuracy=0.0, leak=False,
             seed=3)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop(self, es, ec, kind, method, accuracy, leak, seed):
        """Same trotter_m and save bytes as the dense doubling loop, and the
        same error up to 1e-12 relative plus m*eps for the rounding that m
        slices accumulate (on all-singleton blocks the error is that noise).
        A leak couples the blocks by about 1e-10, inside the energy-
        preservation tolerance, which the error must still count."""
        assume(len(es) * len(ec) <= 4)  # bounds the files at M_CAP
        blocks = energy_blocks(Spectrum.from_energies(es), Spectrum.from_energies(ec))
        if kind == "identity":
            u = np.eye(blocks.joint_dim, dtype=complex)
        else:
            u = random_energy_preserving_unitary(blocks, seed=seed)
            if method == "bch":  # a phase on a singleton block has no rank-2 form
                for b in np.flatnonzero(np.diff(blocks.offsets) == 1).tolist():
                    i = int(blocks.members(b)[0])
                    u[i, i] = 1.0
        if leak:
            a = random_antihermitian(np.random.default_rng(seed), blocks.joint_dim)
            bid = blocks.block_of_flat()
            a[bid[:, None] == bid[None, :]] = 0.0
            u = u @ expm_skew(1e-10 * a)
        want, want_err = reference_compile_approximate(u, blocks, method, accuracy)
        seq, err = compile_approximate(u, blocks, method, accuracy)
        assert seq.trotter_m == want.trotter_m
        if accuracy == 0.0:
            assert seq.trotter_m == compiler.M_CAP
        if kind == "identity":
            assert len(seq) == 0
        assert abs(err - want_err) <= 1e-12 * want_err + np.finfo(float).eps * seq.trotter_m
        with tempfile.TemporaryDirectory() as d:
            paths = os.path.join(d, "want.json"), os.path.join(d, "got.json")
            want.save(paths[0])
            seq.save(paths[1])
            with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
                assert a.read() == b.read()


@st.composite
def blocked_unitaries(draw):
    """A random block structure (levels shuffled, so blocks interleave) and
    a block-diagonal unitary with a block of a drawn kind per energy."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    es = [3.0 * b for b, d in enumerate(sizes) for _ in range(d)]
    es = [es[i] for i in draw(st.permutations(range(len(es))))]
    ec = draw(st.sampled_from(([0.0], [0.0, 0.0], [0.0, 1.0])))
    blocks = energy_blocks(Spectrum.from_energies(es), Spectrum.from_energies(ec))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = np.zeros((blocks.joint_dim,) * 2, dtype=complex)
    for _, members in blocks.items():
        kind = draw(st.sampled_from(LOG_BLOCK_KINDS))
        phase = draw(st.sampled_from((0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi))
                     | st.floats(-math.pi, math.pi))
        u[np.ix_(members, members)] = log_test_block(kind, len(members), rng, phase)
    return blocks, u


def dense_from_blocks(k_blocks, blocks):
    n = blocks.joint_dim
    k = np.zeros((n, n), dtype=complex)
    for (_, members), kb in zip(blocks.items(), k_blocks):
        k[np.ix_(members, members)] = kb
    return k


class TestLogUnitary:
    @given(blocked_unitaries())
    @settings(max_examples=200, deadline=None)
    def test_principal_log_per_block(self, case):
        blocks, u = case
        k = compiler._log_unitary(u, blocks)
        # One d_b x d_b block per energy: K has no entry between blocks.
        assert [kb.shape for kb in k] == [(d, d) for d in blocks.block_sizes()]
        for kb in k:
            assert np.array_equal(kb, -kb.conj().T)
            # -1 itself takes +pi, so rounding cannot push a phase below -pi.
            phases = np.linalg.eigvalsh(-1j * kb)
            assert phases.min() > -math.pi and phases.max() <= math.pi + 1e-12
        n = blocks.joint_dim
        assert np.linalg.norm(expm_skew(dense_from_blocks(k, blocks)) - u) <= 1e-12 * n

    @pytest.mark.parametrize("u,phases", [
        (np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]], dtype=complex), [0.0, math.pi, math.pi]),
        # e^{-i pi} = -1 - 1.2e-16i, whose angle rounds to -pi
        (np.exp(-1j * math.pi) * np.eye(3), [math.pi] * 3),
    ])
    def test_minus_one_takes_plus_pi(self, u, phases):
        (kb,) = compiler._log_unitary(u, one_block(3))
        assert np.allclose(np.linalg.eigvalsh(-1j * kb), phases, atol=1e-12)

    def test_close_phases_near_plus_i_are_resolved(self):
        # Both Hermitian parts barely tell these eigenvalues apart; the
        # rotated level has to.
        rng = np.random.default_rng(5)
        w = haar_block(rng, 4)
        u = (w * np.exp(1j * (math.pi / 2 + 1e-7 * np.array([0, 1, 2, 3])))) @ w.conj().T
        (kb,) = compiler._log_unitary(u, one_block(4))
        assert np.linalg.norm(expm_skew(kb) - u) <= 1e-12 * 4


@st.composite
def antihermitian_blocks(draw):
    """A block structure and an anti-Hermitian K_b per block; entries are
    zeroed at random, so dropped coefficients occur."""
    blocks, _ = draw(blocked_unitaries())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = []
    for d in blocks.block_sizes():
        a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * (rng.random((d, d)) < 0.7)
        k.append((a - a.conj().T) / 2)
    return blocks, k


def same_terms(new, ref):
    assert [t[:-1] for t in new] == [t[:-1] for t in ref]
    assert all(abs(a[-1] - b[-1]) <= 1e-14 for a, b in zip(new, ref))


class TestBlockExpansion:
    @given(antihermitian_blocks())
    @settings(max_examples=100, deadline=None)
    def test_expand_matches_dense_reference(self, case):
        blocks, k = case
        same_terms(list(compiler._expand_in_basis(k, blocks).items()),
                   list(reference_expand_in_basis(dense_from_blocks(k, blocks), blocks).items()))

    @given(antihermitian_blocks())
    @settings(max_examples=100, deadline=None)
    def test_rank2_matches_dense_reference(self, case):
        blocks, k = case
        dense = dense_from_blocks(k, blocks)
        try:
            ref = reference_rank2_combination(dense, blocks)
        except DomainError as e:
            with pytest.raises(DomainError, match=str(e)):
                compiler._rank2_combination(k, blocks)
            return
        new = compiler._rank2_combination(k, blocks)
        same_terms(new.linear, ref.linear)
        same_terms(new.commutators, ref.commutators)

    def test_residual_guard_rejects_non_antihermitian_block(self):
        k = [np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
        with pytest.raises(DomainError, match="expansion residual"):
            compiler._expand_in_basis(k, one_block(2))


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        s = Spectrum.from_energies([0.0, 1.0, 1.0])
        c = Spectrum.from_energies([0.0, 1.0])
        blocks = energy_blocks(s, c)
        u = random_energy_preserving_unitary(blocks, seed=5)
        seq = compile_exact(u, blocks)
        path = tmp_path / "seq.json"
        seq.save(str(path))
        loaded = GateSequence.from_json(str(path))
        assert loaded.method == seq.method
        assert np.linalg.norm(reconstruct(loaded) - reconstruct(seq)) < 1e-12


@st.composite
def gate_sequences(draw):
    """A GateSequence of any kinds over a pool of steps, each listed
    any number of times, or one slice listed trotter_m times."""
    dims = (draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    pool = [step for step, _ in draw(st.lists(gate_steps(dims), max_size=5))]
    m = draw(st.none() | st.integers(1, 6))
    if pool and draw(st.booleans()):
        steps, repeat = pool, m or 1
    elif pool:
        steps, repeat = draw(st.lists(st.sampled_from(pool), max_size=12)), 1
    else:
        steps, repeat = [], 1
    return sequence(
        steps,
        method=draw(st.sampled_from(("exact", "trotter", "bch", "nested", "handcrafted"))),
        dims=dims,
        error_bound=draw(st.floats(0.0, 1e3)),
        trotter_m=m,
        repeat=repeat,
    )


class TestSequenceJson:
    @given(gate_sequences())
    @settings(max_examples=200, deadline=None)
    @example(sequence([], "exact", (1, 2)))
    @example(sequence([], "trotter", (2, 2), trotter_m=4))
    def test_save_writes_json_dump_bytes(self, seq):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "seq.json")
            seq.save(path)
            with open(path) as f:
                assert f.read() == json.dumps(seq.to_json(), indent=1)

    @given(gate_sequences())
    @settings(max_examples=200, deadline=None)
    def test_file_roundtrip(self, seq):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "seq.json")
            seq.save(path)
            loaded = GateSequence.from_json(path)
        assert (loaded.method, loaded.dims) == (seq.method, seq.dims)
        assert loaded.error_bound == seq.error_bound
        assert loaded.trotter_m == seq.trotter_m
        assert len(loaded) == len(seq)
        for got, want in zip(loaded.steps, seq.steps):
            assert (got.kind, got.indices, got.param) == (want.kind, want.indices, want.param)
            if want.kind == "givens":
                assert np.array_equal(got.u2, want.u2)
            else:
                assert got.u2 is None

    def test_compiled_sequences_save_json_dump_bytes(self, tmp_path):
        blocks = one_block(3)
        u = random_energy_preserving_unitary(blocks, seed=11)
        gh, gm = hm_pair(blocks)
        for seq in (compile_exact(u, blocks), compile_bch(gh, gm, 0.3, 5, blocks.dims)):
            path = tmp_path / f"{seq.method}.json"
            seq.save(str(path))
            assert path.read_text() == json.dumps(seq.to_json(), indent=1)

    @given(st.sampled_from(["trotter", "bch", "nested"]), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_repeated_slices_save_json_dump_bytes(self, method, m):
        seq = periodic_builders()[method](m)
        assert seq.repeat == m and len(seq) == m * len(seq.steps[:len(seq) // m])
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "seq.json")
            seq.save(path)
            with open(path) as f:
                text = f.read()
            loaded = GateSequence.from_json(path)
        assert text == json.dumps(seq.to_json(), indent=1)
        assert (loaded.repeat, len(loaded), loaded.trotter_m) == (1, len(seq), m)
        for got, want in zip(loaded.steps, seq.steps):
            assert (got.kind, got.indices, got.param) == (want.kind, want.indices, want.param)
        assert np.linalg.norm(reconstruct(loaded) - reconstruct(seq)) < 1e-12 * m

    @pytest.mark.parametrize("chunk", [1, 1500, 5000, 1 << 16])
    @pytest.mark.parametrize("method,m", [("trotter", 7), ("bch", 40), ("nested", 13)])
    def test_repeated_slice_chunks_save_json_dump_bytes(self, monkeypatch, tmp_path,
                                                         chunk, method, m):
        """Chunks of one copy, of several with a remainder, and of all m."""
        monkeypatch.setattr(gates, "_SAVE_CHUNK", chunk)
        seq = periodic_builders()[method](m)
        path = tmp_path / "seq.json"
        seq.save(str(path))
        assert path.read_text() == json.dumps(seq.to_json(), indent=1)

    def test_repeated_handcrafted_slice(self, tmp_path):
        swap = GateStep("givens", ((0, 0), (1, 1)), u2=np.array([[0, 1j], [1j, 0]]))
        phase = GateStep("p", ((0, 1),), param=-0.25)
        seq = sequence([swap, phase], "handcrafted", (2, 2), trotter_m=3, repeat=3)
        assert seq.repeat == 3
        path = tmp_path / "seq.json"
        seq.save(str(path))
        assert path.read_text() == json.dumps(seq.to_json(), indent=1)
