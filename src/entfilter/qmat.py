"""Internal dense linear-algebra kernels for the 2x2 and 4x4 matrices used everywhere else.

``as_matrix`` is the one coercion, applied where outside input enters the
library. The other kernels take arrays their callers have already validated:
they do no coercion and no shape, Hermiticity or positivity check, since
``qstate.validate_density_matrix`` alone decides what a valid state is. Each
takes one matrix or an ``(N, d, d)`` stack.
"""

from __future__ import annotations

import numpy as np


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite square complex matrix, or stack of them, of dimension 2 or 4."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.shape[-1] not in (2, 4):
        raise ValueError(f"expected dimension 2 or 4, got {a.shape[-1]}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _float_or_array(values):
    return float(values) if values.ndim == 0 else values


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (row-major blocks) of two 2x2 matrices or two (N, 2, 2) stacks, pairwise."""
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (4, 4))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, vectors)`` of (m + m^dagger)/2, eigenvalues descending.

    The columns of ``vectors`` are the matching orthonormal eigenvectors.
    """
    values, vectors = np.linalg.eigh((m + _dagger(m)) / 2)
    return values[..., ::-1].copy(), vectors[..., ::-1].copy()


def _rebuild(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # symmetrized V diag(values) V^dagger
    out = (vectors * values[..., None, :]) @ _dagger(vectors)
    return (out + _dagger(out)) / 2


def partial_trace(m: np.ndarray, keep: int) -> np.ndarray:
    """Reduced 2x2 matrix of a 4x4 two-qubit operator, or of each in a stack.

    ``keep=0`` keeps qubit A (first tensor factor), ``keep=1`` keeps qubit B.
    The trace of the input is preserved.
    """
    r = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    if keep == 0:
        return np.einsum("...abcb->...ac", r)
    return np.einsum("...abad->...bd", r)


def matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix or stack.

    Roundoff-negative eigenvalues are clipped to zero before the root is formed.
    """
    values, vectors = hermitian_eig(m)
    return _rebuild(np.sqrt(np.clip(values, 0.0, None)), vectors)
