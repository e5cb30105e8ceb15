"""Dense complex matrix primitives used by every other module.

All operators are plain numpy complex arrays.  Everything here is a pure
function; nothing mutates its inputs.  trace_distance solves the exact
diagonal blocks of a difference (up to a permutation of levels), one
eigvalsh per block size, so a block-diagonal difference costs
O(sum_b d_b^3), not O(n^3).  Blocks are found one way: components labels
the connected components of an edge list (here the nonzero entries, in
lie_closure the levels each input couples), and size_stacks gives a CSR
partition's (k, d) member array per block size d (here and in
compiler._power_errors).  block_stacks pads blocks of unlike size into
one stack, for compile_exact's column passes.

kron, partial_trace, expm_skew, dagger, frobenius_distance and
trace_distance also take stacks of shape (..., n, n), whose leading axes
index independent matrices.  kron, partial_trace, expm_skew and dagger
return a (..., m, m) stack of results; the two distances return a float
array of shape (...).  The two factors of kron are stacks of one leading
shape; the two arguments of a distance are stacks of one shape, or a
stack and one matrix.  A 2-D argument is the stack with no leading axes
and takes the same code path, returning a matrix or a float; slice i of
a stacked call is bit-equal to the 2-D call on slice i.  kron takes no
single factor against a stack: numpy may multiply such a layout in a
loop without fused multiply-adds, whose complex products differ in the
last bit from those of the 2-D call.  as_operator, the reader of every
other module's inputs, still takes one square matrix only; it shares
the finiteness rule of the kernels.
"""
from __future__ import annotations

import numpy as np

from .errors import CapacityError, DomainError, ShapeError

DEFAULT_TOL = 1e-10
JOINT_DIM_CAP = 4096
_BLOCK_MIN_DIM = 64  # below it one eigvalsh costs less than finding blocks


def _operators(a) -> np.ndarray:
    """a as a complex (..., n, n) stack of square matrices with finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("operator has non-finite entries")
    return a


def as_operator(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return _operators(a)


def dagger(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a (..., n, n) stack."""
    return a.conj().swapaxes(-1, -2)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """||x||_F of each matrix of a (..., n, n) stack, taken as the two dot
    products np.linalg.norm takes of one flattened matrix, so a slice has
    the bits of np.linalg.norm(x[i])."""
    flat = x.reshape(x.shape[:-2] + (1, x.shape[-1] ** 2))
    re, im = flat.real, flat.imag
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def _scalars(x: np.ndarray):
    """A float for a 0-d result, else the float array."""
    return float(x) if x.ndim == 0 else x


def unitarity_defect(u: np.ndarray) -> float:
    """||U†U - I||_F of a finite square u; inf, with no numpy warning, when
    an entry is large enough to overflow the product or the norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.linalg.norm(u.conj().T @ u - np.eye(len(u))))
    return defect if defect < np.inf else np.inf  # an overflow can leave NaN as well as inf


def kron(a, b) -> np.ndarray:
    """Tensor product with the second factor's index varying fastest."""
    a = _operators(a)
    b = _operators(b)
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"stacks of different lengths: {a.shape} vs {b.shape}")
    m, n = a.shape[-1], b.shape[-1]
    joint = m * n
    if joint > JOINT_DIM_CAP:
        raise CapacityError(f"joint dimension {joint} exceeds cap {JOINT_DIM_CAP}")
    # Each entry is the one product a[i, j] * b[k, l], as in np.kron.
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (joint, joint))


def partial_trace(rho, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor.

    ``keep=0`` keeps the first (slow) factor, ``keep=1`` the second.
    """
    rho = _operators(rho)
    if keep not in (0, 1):
        raise ShapeError(f"keep must select one of two subsystems, got {keep!r}")
    da, db = dims
    if da * db != rho.shape[-1]:
        raise ShapeError(f"dims {dims} do not factor dimension {rho.shape[-1]}")
    r = rho.reshape(rho.shape[:-2] + (da, db, da, db))
    if keep == 0:
        return np.einsum("...ikjk->...ij", r)
    return np.einsum("...kikj->...ij", r)


def expm_skew(k) -> np.ndarray:
    """exp(K) for anti-Hermitian K, via eigendecomposition of iK.

    Exactly unitary to machine precision; no series truncation.
    """
    k = _operators(k)
    if (_frobenius(k + dagger(k)) >= DEFAULT_TOL).any():
        raise DomainError("expm_skew requires an anti-Hermitian input")
    # iK is Hermitian, K = -i(iK), so exp(K) = V diag(e^{-i w}) V†.
    w, v = np.linalg.eigh(1j * k)
    return (v * np.exp(-1j * w)[..., None, :]) @ dagger(v)


def block_stacks(sizes: list[int]) -> list[list[int]]:
    """compile_exact's stacks: the blocks of size >= 2, largest first
    (ties in block order), cut into stacks.  A stack is padded to its
    first block's size D; the next block joins it unless the stack would
    then hold more than 2 sum_b d_b^2 entries, summed over the blocks it
    holds."""
    stacks: list[list[int]] = []
    held = 0  # sum of d_b^2 over the last stack
    for b in sorted((b for b, d in enumerate(sizes) if d >= 2), key=lambda b: -sizes[b]):
        d2 = sizes[b] ** 2
        if stacks and (len(stacks[-1]) + 1) * sizes[stacks[-1][0]] ** 2 <= 2 * (held + d2):
            stacks[-1].append(b)
            held += d2
        else:
            stacks.append([b])
            held = d2
    return stacks


def components(a, b, n: int) -> np.ndarray:
    """The connected components of the graph on nodes 0..n-1 with edges
    (a[i], b[i]), as each node's label: the least node of its component.

    A label only falls and always names a node of its own component.
    Each pass lowers the labels held by the two ends of every edge to the
    lesser of the two, then pointer-jumps (label = label[label]); the
    passes stop, with no cap, once every edge joins equal labels, and
    each pass that does not stop lowers some label.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        label = label[label]


def size_stacks(order, offsets) -> list[np.ndarray]:
    """The members of a CSR partition (block b is order[offsets[b]:offsets[b + 1]]),
    one (k, d) array per block size d, ascending in d: row i holds the
    members of the i-th block of that size."""
    starts, sizes = offsets[:-1], np.diff(offsets)
    return [order[starts[sizes == d, None] + np.arange(d)]
            for d in np.flatnonzero(np.bincount(sizes)).tolist()]


def _same_size(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b as stacks of one shape, or a stack and one matrix of its size."""
    a, b = _operators(a), _operators(b)
    stacked = a.ndim > 2 and b.ndim > 2
    if a.shape[-1] != b.shape[-1] or stacked and a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def frobenius_distance(a, b):
    """||a - b||_F, of each pair of slices for stacks."""
    a, b = _same_size(a, b)
    return _scalars(_frobenius(a - b))


def _eigvalsh_by_blocks(h: np.ndarray) -> np.ndarray:
    """The n eigenvalues of a Hermitian n x n h, solved per exact diagonal
    block of h (up to a permutation of levels), one eigvalsh per block size.

    The blocks are the components of the nonzero pattern of the strict
    lower triangle, the part of h that eigvalsh reads, so the work is
    O(n^2 + sum_b d_b^3).  Below _BLOCK_MIN_DIM one eigvalsh of all of h
    costs less than finding blocks.
    """
    n = len(h)
    if n < _BLOCK_MIN_DIM:
        return np.linalg.eigvalsh(h)
    a, b = np.divmod(np.flatnonzero(h != 0), n)
    lower = a > b
    label = components(a[lower], b[lower], n)
    order = np.argsort(label, kind="stable")  # the components, one after another
    sizes = np.bincount(label)
    offsets = np.concatenate(([0], np.cumsum(sizes[sizes > 0])))
    return np.concatenate([np.linalg.eigvalsh(h[idx[:, :, None], idx[:, None, :]]).ravel()
                           for idx in size_stacks(order, offsets)])


def trace_distance(a, b):
    """Half the sum of the absolute eigenvalues of a - b (Hermitian inputs).

    A stack below _BLOCK_MIN_DIM takes one stacked eigvalsh; larger
    matrices go one at a time through _eigvalsh_by_blocks, which solves
    the exact diagonal blocks of (Δ + Δ†)/2, one eigvalsh per block size."""
    a, b = _same_size(a, b)
    diff = a - b
    dh = dagger(diff)
    if (_frobenius(diff - dh) >= DEFAULT_TOL).any():
        raise DomainError("trace distance requires Hermitian inputs")
    h = (diff + dh) / 2
    n = h.shape[-1]
    if n < _BLOCK_MIN_DIM:
        return _scalars(np.sum(np.abs(np.linalg.eigvalsh(h)), axis=-1) / 2)
    dist = [np.sum(np.abs(_eigvalsh_by_blocks(m))) / 2 for m in h.reshape(-1, n, n)]
    return _scalars(np.reshape(dist, h.shape[:-2]))
