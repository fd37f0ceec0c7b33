"""Two-qubit polarization states and their entanglement/information measures.

Conventions, used consistently across the package:

* computational basis order |HH>, |HV>, |VH>, |VV>, with |H> = (1, 0);
* Pauli order sigma_1 = X, sigma_2 = Y, sigma_3 = Z, so |H> sits at +z in
  Stokes space;
* entropies are base-2 (bits);
* validation, entropy, mutual information, concurrence, correlations and Bell
  weights also take an (N, d, d) stack and return arrays where one state gives floats;
* each state is decomposed once, by the positivity check of its validation, and
  its entropy, mutual information and concurrence are taken from that spectrum;
* the entry points that take exactly one pair (filtering, tomography simulation,
  recovery planning) share one check for it.
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
_SPIN_FLIP = kron(SIGMA_Y, SIGMA_Y)
_PAULI_PAIRS = np.array([[kron(sj, sk) for sk in PAULIS] for sj in PAULIS])

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

_BASIS_LABELS = {2: ["H", "V"], 4: ["HH", "HV", "VH", "VV"]}


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


def _spectrum(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # validate_density_matrix, returning (rho, values, vectors) of the hermitian_eig its
    # positivity check takes, so that the measures below need no decomposition of their own
    rho = qmat.as_matrix(rho)
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


def _two_qubit_spectrum(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rho, values, vectors = _spectrum(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 two-qubit density matrix")
    return rho, values, vectors


def _single_state_spectrum(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # _spectrum of exactly one 4x4 state: the check of every entry point that takes one pair
    rho, values, vectors = _spectrum(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected one 4x4 two-qubit density matrix, got shape {rho.shape}")
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

    Always in [0, 2] for a valid two-qubit state; tiny negative roundoff
    (product states) is returned as exactly 0.
    """
    rho, values, _ = _two_qubit_spectrum(rho)
    return _float_or_array(_mutual_information(rho, values))


def _mutual_information(rho, values) -> np.ndarray:
    # mutual_information of validated states with their hermitian_eig eigenvalues
    mi = (
        _entropy_bits(hermitian_eig(partial_trace(rho, 0))[0])
        + _entropy_bits(hermitian_eig(partial_trace(rho, 1))[0])
        - _entropy_bits(values)
    )
    return np.where((-1e-12 < mi) & (mi < 0.0), 0.0, mi)


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
    _, values, vectors = _two_qubit_spectrum(rho)
    return _float_or_array(_concurrence(values, vectors))


def _concurrence(values, vectors) -> np.ndarray:
    # concurrence of validated states from their hermitian_eig decomposition
    root = matrix_sqrt_psd(values, vectors)
    lam = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


def correlation_matrix(rho) -> np.ndarray:
    """Stokes correlation matrix t_jk = Tr[rho (sigma_j x sigma_k)], 3x3 real."""
    return _correlation_matrix(_two_qubit_spectrum(rho)[0])


def _correlation_matrix(rho) -> np.ndarray:
    # correlation_matrix of validated states
    return (rho[..., None, None, :, :] @ _PAULI_PAIRS).trace(axis1=-2, axis2=-1).real


def bell_diagonal_weights(rho) -> dict[str, float]:
    """Overlaps <Bell_i|rho|Bell_i> keyed by Bell label.

    The four weights sum to 1 (within roundoff) exactly when the state is
    diagonal-compatible in this Bell basis; callers decide what to do with
    states for which the sum falls short.
    """
    return _bell_diagonal_weights(_two_qubit_spectrum(rho)[0])


def _bell_diagonal_weights(rho) -> dict[str, float]:
    # bell_diagonal_weights of validated states
    return {
        label: _float_or_array(np.real(w.conj() @ rho @ w) / 2)
        for label, w in _BELL_COMPONENTS.items()
    }


def fidelity_pure(rho, target) -> float:
    """Overlap Tr[rho target] with a pure-state projector, in [0, 1]."""
    rho = validate_density_matrix(rho)
    target = qmat.as_matrix(target)
    if target.shape != rho.shape:
        raise ValueError("state and target must have the same dimension")
    purity = float(np.trace(target @ target).real)
    if abs(purity - 1.0) > 1e-9:
        raise ValueError("target must be a pure-state projector (Tr[target^2] = 1)")
    overlap = float(np.trace(rho @ target).real)
    return min(max(overlap, 0.0), 1.0)


def density_matrix_to_json(rho) -> dict:
    """JSON-ready dict: nested [re, im] pairs plus the basis ordering."""
    rho = qmat.as_matrix(rho)
    if rho.ndim != 2:
        raise ValueError(f"expected one 2x2 or 4x4 matrix, got shape {rho.shape}")
    return {
        "basis": list(_BASIS_LABELS[rho.shape[0]]),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }
