"""Two-qubit polarization states and their entanglement/information measures.

Conventions, used consistently across the package:

* computational basis order |HH>, |HV>, |VH>, |VV>, with |H> = (1, 0);
* Pauli order sigma_1 = X, sigma_2 = Y, sigma_3 = Z, so |H> sits at +z in
  Stokes space;
* entropies are base-2 (bits);
* a public function takes one 4x4 two-qubit state (``qmat.as_matrix``).

Each distinct state, taken by its bits, is judged and decomposed once per
process, within the 128 most recent: every public function that takes a state
shares one memo of its checked, averaged matrix and eigendecomposition, whose
arrays are shared read-only. Invalid input is never remembered; it raises on
every call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import qmat
from .qmat import _dagger, hermitian_eig, kron, partial_trace

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = np.eye(2, dtype=complex)
# _PAULI_BASIS[mu, nu] = sigma_mu x sigma_nu, mu and nu over the identity, x, y, z:
# the one two-qubit Pauli basis, whose [1:, 1:] block gives the correlation matrix
_PAULI_BASIS = np.array([[kron(s, t) for t in (IDENTITY_2, *PAULIS)] for s in (IDENTITY_2, *PAULIS)])
# (sigma_y x sigma_y) @ A reverses the rows of A and negates the first and last:
# A[..., ::-1, :] * _SPIN_FLIP_SIGNS
_SPIN_FLIP_SIGNS = np.array([[-1], [1], [1], [-1]], dtype=float)

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")
# the computational basis, in the order of a state's rows and columns
_BASIS_LABELS = ("HH", "HV", "VH", "VV")

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
# Largest |norm - 1| of a unit Stokes direction
_UNIT_NORM_TOL = 1e-12
_NOT_UNIT = f"Stokes vector must have unit norm within {_UNIT_NORM_TOL:g}"


def unit_stokes_vector(v) -> np.ndarray:
    """Validate and return a real 3-vector of unit length (within 1e-12)."""
    a = np.asarray(v, dtype=float)
    _unit_components(a)
    return a


def _unit_components(a: np.ndarray) -> tuple[float, float, float]:
    # the three floats of a float array that must be one unit Stokes direction: in Python
    # floats, the norm is the sum _check_unit_norms forms; the negated test rejects NaN
    if a.shape != (3,):
        raise ValueError(f"expected a Stokes 3-vector, got shape {a.shape}")
    x, y, z = a.tolist()
    if not abs(math.sqrt((x * x + y * y) + z * z) - 1.0) <= _UNIT_NORM_TOL:
        raise ValueError(_NOT_UNIT)
    return x, y, z


def _check_unit_norms(directions: np.ndarray) -> None:
    # every (..., 3) float direction must have unit norm; the negated test rejects NaN
    if not (abs(np.sqrt(np.add.reduce(directions * directions, axis=-1)) - 1.0) <= _UNIT_NORM_TOL).all():
        raise ValueError(_NOT_UNIT)


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
    """Check the shape, finiteness, Hermiticity, unit trace and positivity of one state.

    Returns the coerced array. A state is judged once, where it enters
    through a public function, and decomposed once: this check averages it
    with its conjugate transpose, and the eigendecomposition its positivity
    check takes gives that function's entropy, mutual information and
    concurrence. Nothing after it, the ``qmat`` kernels included, checks the
    state again. Each distinct state, taken by its bits, is judged and
    decomposed once per process, within the 128 most recent, and every public
    function shares that averaged matrix and decomposition read-only; invalid
    input is never remembered, so it raises on every call. What the library
    builds from its own pairs, such as a filtered pair, and the estimates
    ``reconstruct`` projects are exactly Hermitian, decomposed once by
    ``qmat.hermitian_eig`` and never judged.
    """
    rho = qmat.as_matrix(rho)
    _spectrum(rho)
    return rho


def _spectrum(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # validate_density_matrix, returning (rho, values, vectors): the averaged state and the
    # hermitian_eig decomposition its positivity check takes, read-only and remembered by
    # the bits of the coerced state (C-order complex128, so -0.0 and 0.0 differ)
    return _judged_spectrum(qmat.as_matrix(rho).tobytes())


@functools.lru_cache(maxsize=128)
def _judged_spectrum(key: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # _spectrum of the state whose bytes are key; lru_cache stores no exception, so an
    # invalid state is judged, and raises, on every call
    rho = np.frombuffer(key, dtype=complex).reshape(4, 4)
    dagger = _dagger(rho)
    # Frobenius distance of the matrix from its conjugate transpose
    defect = rho - dagger
    if math.sqrt(np.vdot(defect, defect).real) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within 1e-10")
    trace = float(rho.trace().real)
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {trace!r} is not 1 within 1e-10")
    rho = (rho + dagger) / 2
    values, vectors = hermitian_eig(rho)
    if values[-1] < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {values[-1]:.3e}")
    for array in (rho, values, vectors):  # every caller shares them
        array.setflags(write=False)
    return rho, values, vectors


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(w log2 w) over the eigenvalues, in bits.

    Eigenvalues <= 0 are dropped (0 log 0 = 0, and a negative one is
    roundoff); every positive one counts. The result is clamped to
    [0, log2(dim)] to absorb roundoff at the boundaries.
    """
    return float(_entropy_bits(_spectrum(rho)[1]))


def _entropy_bits(values) -> np.ndarray:
    # von_neumann_entropy from the eigenvalues (last axis) of validated states: the one
    # entropy rule, which recover's curve kernel shares
    w = np.where(values > 0.0, values, 1.0)  # 1 log 1 = 0 drops it from the sum
    entropy = -(w * np.log2(w)).sum(axis=-1)
    # clipped to [0, log2 d]
    return np.minimum(np.maximum(entropy, 0.0), math.log2(values.shape[-1]))


def mutual_information(rho) -> float:
    """Mutual quantum information S(A) + S(B) - S(AB) in bits.

    Always in [0, 2] for a valid two-qubit state. Roundoff can leave the
    entropy sum below 0 (product states, nearly pure filtered pairs); it is
    clamped at 0, as the entropies are clipped to [0, log2 d].
    """
    rho, values, _ = _spectrum(rho)
    return float(_mutual_information(rho, values))


def _mutual_information(rho, values) -> np.ndarray:
    # mutual_information of validated states with their hermitian_eig eigenvalues: the two
    # marginals are decomposed as one stack, and eigh treats each matrix of a stack alone
    s_a, s_b = _entropy_bits(hermitian_eig(partial_trace(rho))[0]).T
    return _information_bits(s_a, s_b, _entropy_bits(values))


def _information_bits(s_a, s_b, s_ab) -> np.ndarray:
    # S(A) + S(B) - S(AB) from the three entropies, clamped at 0 against roundoff: the one
    # mutual-information rule, which recover's curve kernel shares
    return np.maximum(s_a + s_b - s_ab, 0.0)


def concurrence(rho) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_i are the descending square roots of the eigenvalues of
    rho rho_tilde, where rho_tilde = (sigma_y x sigma_y) rho* (sigma_y x sigma_y)
    (Wootters, PRL 80, 2245, 1998). They are evaluated here as the singular
    values of the 4x4 matrix X^T (sigma_y x sigma_y) X, with X = V sqrt(w) the
    factor rho = X X^dagger that the state's own eigendecomposition gives
    (Uhlmann, PRA 62, 032307, 2000): no matrix square root is formed. Over
    4,000 random filtered noisy pairs this is within 3e-15 of a 40-digit
    reference up to gamma_a = 3, but up to 1.1e-8 off where filtering leaves
    the pair nearly pure (bit flip, p = 0.0025, matched filters at
    gamma_a = 9.6, C = 8.0e-6), since the factor takes square roots of
    roundoff-level eigenvalues. The states the library filters itself avoid
    that floor: ``recover`` takes their concurrence by the local-filter rule,
    e^(-gA-gB) C / T with C that of the unfiltered state. The result is
    clipped to [0, 1], since roundoff can lift maximally entangled states
    above 1.
    """
    _, values, vectors = _spectrum(rho)
    return float(_concurrence(values, vectors))


def _concurrence(values, vectors) -> np.ndarray:
    # concurrence of validated states from their hermitian_eig decomposition, through the
    # factor X = V sqrt(values) of rho = X X^dagger, roundoff-negative eigenvalues taken as 0
    factor = vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]
    lam = np.linalg.svd(factor.swapaxes(-1, -2) @ (factor[..., ::-1, :] * _SPIN_FLIP_SIGNS), compute_uv=False)
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


def correlation_matrix(rho) -> np.ndarray:
    """Stokes correlation matrix t_jk = Tr[rho (sigma_j x sigma_k)], 3x3 real."""
    return _expectations(_spectrum(rho)[0], _PAULI_BASIS[1:, 1:])


def _expectations(rho, operators) -> np.ndarray:
    # Tr[rho O] of a validated state for each operator O of a (..., 4, 4) stack: the one
    # reader of expectation values
    return (rho @ operators).trace(axis1=-2, axis2=-1).real


def bell_diagonal_weights(rho) -> dict[str, float]:
    """Overlaps <Bell_i|rho|Bell_i> keyed by Bell label.

    The four weights sum to 1 (within roundoff) exactly when the state is
    diagonal-compatible in this Bell basis; callers decide what to do with
    states for which the sum falls short.
    """
    return _bell_diagonal_weights(_spectrum(rho)[0])


def _bell_diagonal_weights(rho) -> dict[str, float]:
    # bell_diagonal_weights of one validated state: w.conj() @ rho @ w / 2 of each
    # unnormalized Bell vector, its real part summed from the entries it reads, in the
    # order of the two products
    (r00, _, _, r03), (_, r11, r12, _), (_, r21, r22, _), (r30, _, _, r33) = rho.real.tolist()
    return {
        "phi+": ((r00 + r30) + (r03 + r33)) / 2,
        "phi-": ((r00 - r30) - (r03 - r33)) / 2,
        "psi+": ((r11 + r21) + (r12 + r22)) / 2,
        "psi-": ((r11 - r21) - (r12 - r22)) / 2,
    }


def fidelity_pure(rho, target) -> float:
    """Overlap Tr[rho target] of one state with one pure-state projector, in [0, 1]."""
    rho = _spectrum(rho)[0]
    target = _spectrum(target)[0]  # on a valid state, purity 1 means pure
    purity = float(_expectations(target, target))
    if abs(purity - 1.0) > 1e-9:
        raise ValueError("target must be a pure-state projector (Tr[target^2] = 1)")
    overlap = float(_expectations(rho, target))
    return min(max(overlap, 0.0), 1.0)


def density_matrix_to_json(rho) -> dict:
    """JSON-ready dict of one state: nested [re, im] pairs plus the basis ordering."""
    return {
        "basis": list(_BASIS_LABELS),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in qmat.as_matrix(rho)],
    }
