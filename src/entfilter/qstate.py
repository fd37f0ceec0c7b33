"""Two-qubit polarization states and their entanglement/information measures.

Conventions, used consistently across the package:

* computational basis order |HH>, |HV>, |VH>, |VV>, with |H> = (1, 0);
* Pauli order sigma_1 = X, sigma_2 = Y, sigma_3 = Z, so |H> sits at +z in
  Stokes space;
* entropies are base-2 (bits);
* a state is one 4x4 two-qubit matrix or an (N, 4, 4) stack of them, the one
  shape rule of ``qmat.as_matrix``; validation, entropy, mutual information,
  concurrence, correlations and Bell weights return arrays for a stack where
  one state gives floats;
* a state is judged where it enters through a public function, and the
  positivity check of that validation decomposes it once: its entropy, mutual
  information and concurrence are taken from that spectrum. What the library
  builds from its own pairs, and the estimates ``reconstruct`` projects, are
  decomposed once by ``qmat.hermitian_eig`` and not judged again: a filtered
  stack by ``channel._filter_pairs``, which makes it and returns its spectrum;
* the entry points that take exactly one state (filtering, tomography
  simulation, recovery planning, ``fidelity_pure`` and
  ``density_matrix_to_json``) share one check and one message for it.
"""

from __future__ import annotations

import numpy as np

from . import qmat
from .qmat import _dagger, _float_or_array, hermitian_eig, kron, matrix_sqrt_psd, partial_trace

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = np.eye(2, dtype=complex)
# _PAULI_BASIS[mu, nu] = sigma_mu x sigma_nu, mu and nu over the identity, x, y, z:
# the one two-qubit Pauli basis, whose [1:, 1:] block gives the correlation matrix
_PAULI_BASIS = np.array([[kron(s, t) for t in (IDENTITY_2, *PAULIS)] for s in (IDENTITY_2, *PAULIS)])
_SPIN_FLIP = _PAULI_BASIS[2, 2]

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

# Unnormalized (+-1 amplitude) Bell components; dividing the outer product by
# 2 instead of normalizing the vector keeps the projector entries exactly +-0.5.
_BELL_COMPONENTS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex),
    "phi-": np.array([1, 0, 0, -1], dtype=complex),
    "psi+": np.array([0, 1, 1, 0], dtype=complex),
    "psi-": np.array([0, 1, -1, 0], dtype=complex),
}

#: Frobenius-norm tolerance for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-10
#: Tolerance on |Tr(rho) - 1| when validating a density matrix.
TRACE_TOL = 1e-10
#: Eigenvalues above this (negative) floor are roundoff; kernels clip them to 0.
PSD_TOL = 1e-10
# Eigenvalues below this floor are excluded from entropy sums.
_ENTROPY_EIG_FLOOR = 1e-12


def unit_stokes_vector(v) -> np.ndarray:
    """Validate and return a real 3-vector of unit length (within 1e-12)."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a Stokes 3-vector, got shape {a.shape}")
    _check_unit_norms(a)
    return a


def _check_unit_norms(directions: np.ndarray) -> None:
    # every (..., 3) float direction must have unit norm within 1e-12; the negated test rejects NaN
    if not (abs(np.sqrt(np.add.reduce(directions * directions, axis=-1)) - 1.0) <= 1e-12).all():
        raise ValueError("Stokes vector must have unit norm within 1e-12")


def pauli_dot(axis) -> np.ndarray:
    """Operator axis . sigma: 2x2 for one Stokes direction, (..., 2, 2) for (..., 3) directions."""
    a = np.asarray(axis, dtype=float)[..., None, None]
    return a[..., 0, :, :] * SIGMA_X + a[..., 1, :, :] * SIGMA_Y + a[..., 2, :, :] * SIGMA_Z


def bell_state(label: str) -> np.ndarray:
    """Projector onto one of the four Bell states.

    Accepted labels: "phi+", "phi-", "psi+", "psi-".
    """
    try:
        w = _BELL_COMPONENTS[label]
    except KeyError:
        raise ValueError(
            f"unknown Bell label {label!r}; expected one of {BELL_LABELS}"
        ) from None
    return np.outer(w, w.conj()) / 2


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of each state; return the coerced array.

    The one place a state is judged: the ``qmat`` kernels and the measures
    below take what this accepts without checking it again.
    """
    return _spectrum(rho)[0]


def _one_state(m) -> np.ndarray:
    # as_matrix of exactly one state: the shape check of every entry point that takes one
    if np.shape(m) != (4, 4):
        raise ValueError(f"expected one 4x4 two-qubit density matrix, got shape {np.shape(m)}")
    return qmat.as_matrix(m)


def _spectrum(rho, one: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # validate_density_matrix, returning (rho, values, vectors) of the hermitian_eig its
    # positivity check takes, so that the measures below need no decomposition of their
    # own; one=True admits exactly one state, by _one_state
    rho = _one_state(rho) if one else qmat.as_matrix(rho)
    # Frobenius distance of each matrix from its conjugate transpose
    defect = np.sqrt((abs(rho - _dagger(rho)) ** 2).sum(axis=(-2, -1)))
    if (defect > HERMITICITY_TOL).any():
        raise ValueError("density matrix is not Hermitian within 1e-10")
    trace = rho.trace(axis1=-2, axis2=-1).real
    off = abs(trace - 1.0) > TRACE_TOL
    if off.any():
        raise ValueError(f"density matrix trace {float(trace[off][0])!r} is not 1 within 1e-10")
    values, vectors = hermitian_eig(rho)
    if (values < -PSD_TOL).any():
        raise ValueError(f"density matrix has negative eigenvalue {values.min():.3e}")
    return rho, values, vectors


def von_neumann_entropy(rho) -> float | np.ndarray:
    """Entropy -sum(w log2 w) over the eigenvalues, in bits.

    Eigenvalues below 1e-12 are dropped (0 log 0 = 0); the result is clamped
    to [0, log2(dim)] to absorb roundoff at the boundaries.
    """
    return _float_or_array(_entropy_bits(_spectrum(rho)[1]))


def _entropy_bits(values) -> np.ndarray:
    # von_neumann_entropy from the hermitian_eig eigenvalues of validated states
    w = np.where(values > _ENTROPY_EIG_FLOOR, values, 1.0)  # 1 log 1 = 0 drops it from the sum
    entropy = -(w * np.log2(w)).sum(axis=-1)
    return entropy.clip(0.0, np.log2(values.shape[-1]))


def mutual_information(rho) -> float | np.ndarray:
    """Mutual quantum information S(A) + S(B) - S(AB) in bits.

    Always in [0, 2] for a valid two-qubit state. Roundoff can leave the
    entropy sum below 0 (product states, nearly pure filtered pairs); it is
    clamped at 0, as the entropies are clipped to [0, log2 d].
    """
    rho, values, _ = _spectrum(rho)
    return _float_or_array(_mutual_information(rho, values))


def _mutual_information(rho, values) -> np.ndarray:
    # mutual_information of validated states with their hermitian_eig eigenvalues
    mi = (
        _entropy_bits(hermitian_eig(partial_trace(rho, 0))[0])
        + _entropy_bits(hermitian_eig(partial_trace(rho, 1))[0])
        - _entropy_bits(values)
    )
    return np.maximum(mi, 0.0)


def concurrence(rho) -> float | np.ndarray:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_i are the descending square roots of the eigenvalues of the
    Hermitian product sqrt(rho) rho_tilde sqrt(rho), where
    rho_tilde = (sigma_y x sigma_y) rho* (sigma_y x sigma_y). They are
    evaluated here as the singular values of
    K = sqrt(rho) (sigma_y x sigma_y) sqrt(rho)*, which satisfies
    K K^dagger = sqrt(rho) rho_tilde sqrt(rho); going through K avoids the
    ~1e-8 noise floor that square roots of near-zero eigenvalues would
    otherwise introduce for low-rank states. The result is clipped to
    [0, 1], since roundoff lifts maximally entangled states a few ulps above 1.
    """
    _, values, vectors = _spectrum(rho)
    return _float_or_array(_concurrence(values, vectors))


def _concurrence(values, vectors) -> np.ndarray:
    # concurrence of validated states from their hermitian_eig decomposition
    root = matrix_sqrt_psd(values, vectors)
    lam = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


def correlation_matrix(rho) -> np.ndarray:
    """Stokes correlation matrix t_jk = Tr[rho (sigma_j x sigma_k)], 3x3 real."""
    return _correlation_matrix(_spectrum(rho)[0])


def _correlation_matrix(rho) -> np.ndarray:
    # correlation_matrix of validated states
    return (rho[..., None, None, :, :] @ _PAULI_BASIS[1:, 1:]).trace(axis1=-2, axis2=-1).real


def bell_diagonal_weights(rho) -> dict[str, float]:
    """Overlaps <Bell_i|rho|Bell_i> keyed by Bell label.

    The four weights sum to 1 (within roundoff) exactly when the state is
    diagonal-compatible in this Bell basis; callers decide what to do with
    states for which the sum falls short.
    """
    return _bell_diagonal_weights(_spectrum(rho)[0])


def _bell_diagonal_weights(rho) -> dict[str, float]:
    # bell_diagonal_weights of validated states
    return {
        label: _float_or_array(np.real(w.conj() @ rho @ w) / 2)
        for label, w in _BELL_COMPONENTS.items()
    }


def fidelity_pure(rho, target) -> float:
    """Overlap Tr[rho target] of one state with one pure-state projector, in [0, 1]."""
    rho = _spectrum(rho, one=True)[0]
    target = _spectrum(target, one=True)[0]  # on a valid state, purity 1 means pure
    purity = float(np.trace(target @ target).real)
    if abs(purity - 1.0) > 1e-9:
        raise ValueError("target must be a pure-state projector (Tr[target^2] = 1)")
    overlap = float(np.trace(rho @ target).real)
    return min(max(overlap, 0.0), 1.0)


def density_matrix_to_json(rho) -> dict:
    """JSON-ready dict of one state: nested [re, im] pairs plus the basis ordering."""
    return {
        "basis": ["HH", "HV", "VH", "VV"],
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in _one_state(rho)],
    }
