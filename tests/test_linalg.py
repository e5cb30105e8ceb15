import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from thermoforge import expm_skew, kron, partial_trace, trace_distance
from thermoforge import linalg
from thermoforge.linalg import frobenius_distance
from thermoforge.errors import CapacityError, DomainError, ShapeError
from util import random_antihermitian, random_density, random_hermitian, reference_components


def naive_partial_trace(rho, da, db, keep):
    """Loop-based summation oracle, independent of the reshape path."""
    if keep == 0:
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                out[i, j] = sum(rho[i * db + k, j * db + k] for k in range(db))
    else:
        out = np.zeros((db, db), dtype=complex)
        for i in range(db):
            for j in range(db):
                out[i, j] = sum(rho[k * db + i, k * db + j] for k in range(da))
    return out


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal_product(self):
        got = kron(np.diag([1, -1]), np.diag([1, 2]))
        assert np.allclose(got, np.diag([1, 2, -1, -2]))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = random_hermitian(rng, 3), random_hermitian(rng, 4)
            # Direct-multiplication oracle for the trace of the product.
            expected = sum(a[i, i] * b[j, j] for i in range(3) for j in range(4))
            assert abs(np.trace(kron(a, b)) - expected) < 1e-12
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            kron(np.eye(100), np.eye(100))  # joint dim 10^4 > JOINT_DIM_CAP 4096

    def test_associative(self):
        rng = np.random.default_rng(1)
        a, b, c = (random_hermitian(rng, d) for d in (2, 3, 2))
        assert np.linalg.norm(kron(kron(a, b), c) - kron(a, kron(b, c))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_bit_equal_to_np_kron(self, m, n, data):
        entries = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
        a = data.draw(hnp.arrays(complex, (m, m), elements=entries))
        b = data.draw(hnp.arrays(complex, (n, n), elements=entries))
        assert kron(a, b).tobytes() == np.kron(a, b).tobytes()


class TestPartialTrace:
    def test_product_state_marginal(self):
        rng = np.random.default_rng(2)
        rho, tau = random_density(rng, 3), random_density(rng, 4)
        assert np.allclose(partial_trace(kron(rho, tau), (3, 4), 0), rho)
        assert np.allclose(partial_trace(kron(rho, tau), (3, 4), 1), tau)

    def test_bell_state_marginal(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert np.allclose(partial_trace(rho, (2, 2), 0), np.eye(2) / 2)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rho = random_density(rng, 12)
            for keep in (0, 1):
                got = partial_trace(rho, (3, 4), keep)
                assert np.allclose(got, naive_partial_trace(rho, 3, 4, keep))
                assert abs(np.trace(got) - np.trace(rho)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            partial_trace(np.eye(6), (2, 2), 0)

    @pytest.mark.parametrize("keep", [2, -1, "first", "catalyst"])
    def test_keep_is_zero_or_one(self, keep):
        with pytest.raises(ShapeError, match="keep must select"):
            partial_trace(np.eye(4) / 4, (2, 2), keep)

    def test_kron_then_trace_scales(self):
        rng = np.random.default_rng(4)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        got = partial_trace(kron(a, b), (2, 3), 0)
        assert np.linalg.norm(got - np.trace(b) * a) < 1e-12


class TestExpmSkew:
    def test_zero(self):
        assert np.allclose(expm_skew(np.zeros((3, 3))), np.eye(3))

    def test_planar_rotation(self):
        # (pi/2)(|0><1| - |1><0|) sends e_0 -> -e_1 and e_1 -> e_0.
        k = (np.pi / 2) * np.array([[0, 1], [-1, 0]], dtype=complex)
        u = expm_skew(k)
        assert np.allclose(u @ [1, 0], [0, -1], atol=1e-12)
        assert np.allclose(u @ [0, 1], [1, 0], atol=1e-12)

    def test_unitary_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = random_antihermitian(rng, 5)
            u = expm_skew(k)
            assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-12

    def test_inverse(self):
        rng = np.random.default_rng(6)
        k = random_antihermitian(rng, 4)
        assert np.linalg.norm(expm_skew(k) @ expm_skew(-k) - np.eye(4)) < 1e-10

    def test_rejects_non_antihermitian(self):
        with pytest.raises(DomainError):
            expm_skew(np.eye(2))


class TestUnitarityDefect:
    def test_frobenius_norm(self):
        assert linalg.unitarity_defect(2 * np.eye(3)) == pytest.approx(3 * np.sqrt(3))
        assert linalg.unitarity_defect(np.eye(3)[[2, 0, 1]]) == 0.0

    @pytest.mark.parametrize("entry", [1e308, 1e200, 1e308j])
    def test_overflow_is_inf_without_warning(self, entry, recwarn):
        u = np.eye(2, dtype=complex)
        u[0, 0] = entry
        assert linalg.unitarity_defect(u) == np.inf
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestDistance:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(7)
        a = random_density(rng, 3)
        assert trace_distance(a, a) == 0
        assert frobenius_distance(a, a) == 0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(a, b) - 1.0) < 1e-14

    def test_subadditive_over_tensor_products(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            r1, r2 = random_density(rng, 2), random_density(rng, 3)
            s1, s2 = random_density(rng, 2), random_density(rng, 3)
            lhs = trace_distance(kron(r1, r2), kron(s1, s2))
            assert lhs <= trace_distance(r1, s1) + trace_distance(r2, s2) + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x, y, z = (random_density(rng, 4) for _ in range(3))
            assert trace_distance(x, z) <= trace_distance(x, y) + trace_distance(y, z) + 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            frobenius_distance(np.eye(2), np.eye(3))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_trace_distance_symmetric(seed):
    rng = np.random.default_rng(seed)
    a, b = random_density(rng, 3), random_density(rng, 3)
    assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12


def dense_trace_distance(a, b):
    """Reference: one eigvalsh of the whole Hermitian part of a - b."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))) / 2)


BLOCK_SHAPES = ("dense", "holes", "chain", "single")


@st.composite
def block_differences(draw):
    """A Hermitian h that is block-diagonal up to a random permutation of
    its levels, with all-zero rows.  A block is dense, has zero entries
    inside ("holes"), is tridiagonal ("chain": its rows' first nonzero
    columns differ, so the labels cross), or is 1x1."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for shape in draw(st.lists(st.sampled_from(BLOCK_SHAPES), min_size=1, max_size=10)):
        d = 1 if shape == "single" else draw(st.integers(1, 12))
        blk = random_hermitian(rng, d)
        if shape == "holes":
            keep = np.triu(rng.random((d, d)) < 0.6)
            blk = np.where(keep | keep.T, blk, 0)
        elif shape == "chain":
            blk = np.where(np.abs(np.subtract.outer(range(d), range(d))) <= 1, blk, 0)
        blocks.append(blk)
    blocks += [np.zeros((1, 1))] * draw(st.integers(0, 4))
    n = sum(len(blk) for blk in blocks)
    h = np.zeros((n, n), dtype=complex)
    at = 0
    for blk in blocks:
        h[at:at + len(blk), at:at + len(blk)] = blk
        at += len(blk)
    perm = rng.permutation(n)
    return h[np.ix_(perm, perm)]


class TestBlockTraceDistance:
    @given(block_differences())
    @settings(max_examples=300, deadline=None)
    def test_matches_one_eigvalsh(self, h):
        # The block rule at every dimension, against one dense eigvalsh.
        want = dense_trace_distance(h, np.zeros_like(h))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_BLOCK_MIN_DIM", 1)
            got = trace_distance(h, np.zeros_like(h))
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("n", [8, 80])
    def test_fully_nonzero_input_keeps_one_eigvalsh(self, n):
        rng = np.random.default_rng(n)
        a, b = random_density(rng, n), random_density(rng, n)
        assert np.all(a - b != 0)
        assert trace_distance(a, b) == dense_trace_distance(a, b)

    def test_block_diagonal_input_solves_blocks_only(self, monkeypatch):
        # Joint dim 108 in energy blocks of 4..26 levels, interleaved: no
        # eigvalsh sees more than the largest block.
        rng = np.random.default_rng(3)
        sizes = [10, 20, 23, 26, 17, 8, 4]
        label = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        h = np.where(np.equal.outer(label, label), random_hermitian(rng, len(label)), 0)
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: seen.append(x.shape) or eigvalsh(x))
        got = trace_distance(h, np.zeros_like(h))
        assert max(shape[-1] for shape in seen) == max(sizes)
        monkeypatch.undo()
        assert abs(got - dense_trace_distance(h, np.zeros_like(h))) <= 1e-13 * got

    def test_one_class_takes_one_eigvalsh(self):
        # A tridiagonal h is one component whose labels take many passes
        # to settle; a dense h with holes is one component at once.
        rng = np.random.default_rng(4)
        n = 100
        chain = np.where(np.abs(np.subtract.outer(range(n), range(n))) <= 1,
                         random_hermitian(rng, n), 0)
        holes = random_hermitian(rng, n)
        holes[3, 5] = holes[5, 3] = 0
        for h in (chain, holes):
            assert trace_distance(h, np.zeros_like(h)) == dense_trace_distance(h, np.zeros_like(h))


@st.composite
def edge_lists(draw):
    """(a, b, n): up to 60 edges on up to 40 nodes, with self-loops,
    repeated edges and isolated nodes."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), 0
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=60))
    edges += draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    a, b = (np.array([e[k] for e in edges], dtype=np.intp) for k in (0, 1))
    return a, b, n


class TestComponents:
    @given(edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_union_find(self, edges):
        a, b, n = edges
        got = linalg.components(a, b, n)
        assert got.tolist() == reference_components(a, b, n).tolist()

    @pytest.mark.parametrize("n", [500, 5000])
    @pytest.mark.parametrize("seed", range(3))
    def test_permuted_path(self, n, seed):
        # A path through n nodes in random order: the least label must
        # travel n - 1 hops, and a kernel with a pass cap leaves it split.
        perm = np.random.default_rng(seed).permutation(n)
        a, b = perm[:-1], perm[1:]
        assert linalg.components(a, b, n).tolist() == [0] * n
        assert linalg.components(b[::-1], a[::-1], n + 1).tolist() == [0] * n + [n]

    def test_size_stacks(self):
        order = np.array([4, 0, 2, 1, 3, 5])
        offsets = np.array([0, 2, 3, 5, 6])
        got = linalg.size_stacks(order, offsets)
        assert [x.tolist() for x in got] == [[[2], [5]], [[4, 0], [1, 3]]]


class TestEigvalshByBlocks:
    """All n eigenvalues, within 1e-12 of one dense eigvalsh."""

    @staticmethod
    def _check(h):
        got = linalg._eigvalsh_by_blocks(h)
        assert got.shape == (len(h),)
        assert np.abs(np.sort(got) - np.linalg.eigvalsh(h)).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_permuted_tridiagonal(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        h = np.where(np.abs(np.subtract.outer(range(n), range(n))) <= 1,
                     random_hermitian(rng, n), 0)
        perm = rng.permutation(n)
        self._check(h[np.ix_(perm, perm)])

    @given(st.lists(st.sampled_from([2, 3]), min_size=22, max_size=40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mixed_block_sizes(self, sizes, seed):
        rng = np.random.default_rng(seed)
        label = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        h = np.where(np.equal.outer(label, label), random_hermitian(rng, len(label)), 0)
        self._check(h)


ENTRIES = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


def stacks(t, n):
    """(t, n, n) complex arrays of arbitrary finite entries."""
    return hnp.arrays(complex, (t, n, n), elements=ENTRIES)


def bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def stacked_blocks(rng, t, n):
    """t Hermitian n x n matrices, each block-diagonal up to its own
    permutation of the levels, with 1 to 12 blocks."""
    label = rng.integers(0, rng.integers(1, 13), size=(t, n))
    same = label[:, :, None] == label[:, None, :]
    return np.where(same, [random_hermitian(rng, n) for _ in range(t)], 0)


class TestStacks:
    """A stacked call equals the list of its 2-D calls, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 5), st.integers(1, 5), st.data())
    def test_kron(self, t, m, n, data):
        a, b = data.draw(stacks(t, m)), data.draw(stacks(t, n))
        got = kron(a, b)
        assert got.shape == (t, m * n, m * n)
        assert bits(got) == bits([kron(x, y) for x, y in zip(a, b)] or got)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 4), st.integers(1, 4), st.sampled_from([0, 1]),
           st.data())
    def test_partial_trace(self, t, da, db, keep, data):
        rho = data.draw(stacks(t, da * db))
        got = partial_trace(rho, (da, db), keep)
        assert got.shape == (t,) + ((da, da) if keep == 0 else (db, db))
        assert bits(got) == bits([partial_trace(r, (da, db), keep) for r in rho] or got)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_expm_skew(self, t, n, seed):
        rng = np.random.default_rng(seed)
        k = np.array([random_antihermitian(rng, n) for _ in range(t)]).reshape(t, n, n)
        got = expm_skew(k)
        assert bits(got) == bits([expm_skew(x) for x in k] or got)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 6), st.data())
    def test_frobenius_distance(self, t, n, data):
        a, b = data.draw(stacks(t, n)), data.draw(stacks(t, n))
        got = frobenius_distance(a, b)
        assert bits(got) == bits([frobenius_distance(x, y) for x, y in zip(a, b)] or got)
        assert bits(got) == bits([np.linalg.norm(x - y) for x, y in zip(a, b)] or got)
        one = data.draw(stacks(1, n))[0]  # a single matrix against the stack
        assert bits(frobenius_distance(a, one)) == bits(
            [frobenius_distance(x, one) for x in a] or frobenius_distance(a, one))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_trace_distance(self, t, n, seed):
        rng = np.random.default_rng(seed)
        a, b = (np.array([random_density(rng, n) for _ in range(t)]).reshape(t, n, n)
                for _ in range(2))
        got = trace_distance(a, b)
        assert got.shape == (t,)
        assert bits(got) == bits([trace_distance(x, y) for x, y in zip(a, b)] or got)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(linalg._BLOCK_MIN_DIM, 80), st.integers(0, 2 ** 32 - 1))
    def test_trace_distance_by_blocks(self, t, n, seed):
        # At n >= _BLOCK_MIN_DIM each matrix goes through _eigvalsh_by_blocks.
        rng = np.random.default_rng(seed)
        a, b = stacked_blocks(rng, t, n), stacked_blocks(rng, t, n)
        got = trace_distance(a, b)
        assert bits(got) == bits([trace_distance(x, y) for x, y in zip(a, b)])
        h = (a - b)[0]
        assert got[0] == np.sum(np.abs(linalg._eigvalsh_by_blocks(h))) / 2

    def test_two_dimensional_calls_return_floats(self):
        a, b = np.eye(2) / 2, np.diag([1.0, 0.0])
        assert type(trace_distance(a, b)) is float
        assert type(frobenius_distance(a, b)) is float

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 3, 3)])
    def test_as_operator_refuses_stacks(self, shape):
        with pytest.raises(ShapeError, match="expected a square matrix"):
            linalg.as_operator(np.zeros(shape))

    def test_stacks_of_different_lengths_are_refused(self):
        with pytest.raises(ShapeError, match="stacks of different lengths"):
            kron(np.zeros((2, 3, 3)), np.zeros((3, 3)))
        with pytest.raises(ShapeError, match="shape mismatch"):
            frobenius_distance(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)))
        with pytest.raises(ShapeError, match="shape mismatch"):
            trace_distance(np.zeros((2, 3, 3)), np.zeros((2, 2, 2)))

    def test_transposed_inputs_are_read(self):
        # A transposed complex matrix has no contiguous last axis.
        x = np.arange(4.0).reshape(2, 2) + 1j
        assert bits(kron(x.T, x)) == bits(np.kron(x.T, x))
        assert frobenius_distance(x.T, x) == np.linalg.norm(x.T - x)

    def test_stack_with_one_bad_matrix_is_refused(self):
        k = np.zeros((3, 2, 2))
        k[1] = np.eye(2)  # Hermitian, not anti-Hermitian
        with pytest.raises(DomainError):
            expm_skew(k)
        with pytest.raises(DomainError):
            trace_distance(np.zeros((3, 2, 2)), np.triu(np.ones((3, 2, 2))))
