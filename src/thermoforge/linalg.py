"""Dense complex matrix primitives used by every other module.

All operators are plain numpy complex arrays.  Everything here is a pure
function; nothing mutates its inputs.
"""
from __future__ import annotations

import numpy as np

from .errors import CapacityError, DomainError, ShapeError

DEFAULT_TOL = 1e-10
JOINT_DIM_CAP = 4096


def as_operator(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise DomainError("operator has non-finite entries")
    return a


def is_unitary(u: np.ndarray, tol: float) -> bool:
    d = u.shape[0]
    return np.linalg.norm(u.conj().T @ u - np.eye(d)) < tol


def kron(a, b) -> np.ndarray:
    """Tensor product with the second factor's index varying fastest."""
    a = as_operator(a)
    b = as_operator(b)
    joint = a.shape[0] * b.shape[0]
    if joint > JOINT_DIM_CAP:
        raise CapacityError(f"joint dimension {joint} exceeds cap {JOINT_DIM_CAP}")
    return np.kron(a, b)


def partial_trace(rho, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor.

    ``keep=0`` keeps the first (slow) factor, ``keep=1`` the second.
    """
    rho = as_operator(rho)
    if keep not in (0, 1):
        raise ShapeError(f"keep must select one of two subsystems, got {keep!r}")
    da, db = dims
    if da * db != rho.shape[0]:
        raise ShapeError(f"dims {dims} do not factor dimension {rho.shape[0]}")
    r = rho.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ikjk->ij", r)
    return np.einsum("kikj->ij", r)


def expm_skew(k) -> np.ndarray:
    """exp(K) for anti-Hermitian K, via eigendecomposition of iK.

    Exactly unitary to machine precision; no series truncation.
    """
    k = as_operator(k)
    if np.linalg.norm(k + k.conj().T) >= DEFAULT_TOL:
        raise DomainError("expm_skew requires an anti-Hermitian input")
    # iK is Hermitian, K = -i(iK), so exp(K) = V diag(e^{-i w}) V†.
    w, v = np.linalg.eigh(1j * k)
    return (v * np.exp(-1j * w)) @ v.conj().T


def frobenius_distance(a, b) -> float:
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def trace_distance(a, b) -> float:
    """Half the sum of the absolute eigenvalues of a - b (Hermitian inputs)."""
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a - b
    if np.linalg.norm(diff - diff.conj().T) >= DEFAULT_TOL:
        raise DomainError("trace distance requires Hermitian inputs")
    eigs = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(np.sum(np.abs(eigs)) / 2)
