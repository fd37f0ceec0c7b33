"""Dense complex linear algebra for the 2x2 and 4x4 matrices used everywhere else.

All functions are pure and operate on plain ``numpy`` arrays coerced to
complex; each also takes an ``(N, d, d)`` stack. Matrices larger
than 4x4 are rejected on purpose; nothing in this package needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Frobenius-norm tolerance for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-10
#: Eigenvalues above this (negative) floor are treated as roundoff and clipped.
PSD_TOL = 1e-10


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


def hermitian_defect(m: np.ndarray) -> float | np.ndarray:
    """Frobenius distance between each matrix and its conjugate transpose."""
    return np.sqrt((abs(m - _dagger(m)) ** 2).sum(axis=(-2, -1)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    ``values`` holds the real eigenvalues in descending order; the columns of
    ``vectors`` are the matching orthonormal eigenvectors.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """V diag(values) V^dagger."""
        return (self.vectors * self.values[..., None, :]) @ _dagger(self.vectors)


def kron(a, b) -> np.ndarray:
    """Kronecker product (row-major blocks) of two 2x2 matrices or two (N, 2, 2) stacks, pairwise."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[-2:] != (2, 2) or b.shape != a.shape:
        raise ValueError("kron expects two 2x2 matrices or two (N, 2, 2) stacks of one length")
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (4, 4))


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix or stack, eigenvalues descending.

    Rejects input whose Hermitian defect exceeds ``HERMITICITY_TOL``. The
    matrix is symmetrized before the solve so the result is exactly the
    decomposition of (m + m^dagger)/2.
    """
    m = as_matrix(m)
    if (hermitian_defect(m) > HERMITICITY_TOL).any():
        raise ValueError(f"matrix is not Hermitian within {HERMITICITY_TOL:g}")
    values, vectors = np.linalg.eigh((m + _dagger(m)) / 2)
    return EigenDecomposition(values=values[..., ::-1].copy(), vectors=vectors[..., ::-1].copy())


def partial_trace(m, keep: int) -> np.ndarray:
    """Reduced 2x2 matrix of a 4x4 two-qubit operator, or of each in a stack.

    ``keep=0`` keeps qubit A (first tensor factor), ``keep=1`` keeps qubit B.
    The trace of the input is preserved.
    """
    m = as_matrix(m)
    if m.shape[-2:] != (4, 4):
        raise ValueError("partial_trace expects a 4x4 matrix")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 (qubit A) or 1 (qubit B)")
    r = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    if keep == 0:
        return np.einsum("...abcb->...ac", r)
    return np.einsum("...abad->...bd", r)


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix or stack.

    Eigenvalues in [-PSD_TOL, 0] are clipped to zero before the root is
    formed; anything more negative is a genuinely indefinite input and is
    rejected.
    """
    eig = hermitian_eig(m)
    if (eig.values < -PSD_TOL).any():
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {eig.values.min():.3e})"
        )
    roots = np.sqrt(np.clip(eig.values, 0.0, None))
    out = (eig.vectors * roots[..., None, :]) @ _dagger(eig.vectors)
    return (out + _dagger(out)) / 2
