"""Internal dense linear-algebra kernels for the 2x2 and 4x4 matrices used everywhere else.

``as_matrix`` is the one coercion of outside input. The other kernels take one
matrix or an ``(N, d, d)`` stack that their callers have validated, and check
nothing. ``hermitian_eig`` is the package's one eigendecomposition.
"""

from __future__ import annotations

import numpy as np


def as_matrix(m) -> np.ndarray:
    """Coerce to one finite complex 4x4 two-qubit matrix: the one shape rule of a public function.

    Nothing else is a state: stacks and 2x2 matrices stay internal.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError(f"expected one 4x4 two-qubit density matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (row-major blocks) of two 2x2 matrices or two (N, 2, 2) stacks, pairwise."""
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (4, 4))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, vectors)`` of a Hermitian matrix or stack, eigenvalues descending.

    ``eigh`` reads only the lower triangle of ``m``. The columns of
    ``vectors`` are the matching orthonormal eigenvectors.
    """
    values, vectors = np.linalg.eigh(m)
    return values[..., ::-1].copy(), vectors[..., ::-1].copy()


def _rebuild(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # symmetrized V diag(values) V^dagger
    out = (vectors * values[..., None, :]) @ _dagger(vectors)
    return (out + _dagger(out)) / 2


# Entry (i, j) of a reduced matrix is the sum of two entries of the 4x4 matrix, terms t = 0
# and 1: m[2i + t, 2j + t] for qubit A (Tr_B, the trace of each 2x2 block) and
# m[2t + i, 2t + j] for qubit B (Tr_A, the sum of the two diagonal blocks).
# _TRACE_TERMS[q, i, j, t] is the index of that term in the flattened 4x4 matrix
_TRACE_TERMS = np.array([
    [[[4 * (2 * i + t) + 2 * j + t for t in (0, 1)] for j in (0, 1)] for i in (0, 1)],
    [[[4 * (2 * t + i) + 2 * t + j for t in (0, 1)] for j in (0, 1)] for i in (0, 1)],
])


def partial_trace(m: np.ndarray) -> np.ndarray:
    """Both reduced 2x2 matrices of a 4x4 two-qubit operator, or of each in a stack.

    Returns the ``(..., 2, 2, 2)`` stack of qubit A's (first tensor factor)
    and qubit B's, each with the trace of the input.
    """
    terms = m.reshape(m.shape[:-2] + (16,)).take(_TRACE_TERMS, axis=-1)
    return terms[..., 0] + terms[..., 1]


# no library code calls it; it stays while bench/tracing.py's LAYERS, run by CI's bench-gates job, names it
def matrix_sqrt_psd(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix or stack.

    Takes the ``hermitian_eig`` decomposition of the matrix rather than the
    matrix, so that a caller holding it does not decompose twice.
    Roundoff-negative eigenvalues are clipped to zero before the root is formed.
    """
    return _rebuild(np.sqrt(np.clip(values, 0.0, None)), vectors)
