"""Plain-numpy reference for the quantities the benchmark gates check.

Written independently of ``entfilter``: every function works on stacks of
matrices (leading batch axes) with ``eigvalsh``/``eigh``/``svd`` from numpy,
so checking a whole curve costs a few numpy calls however slow or fast the
library under test is.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)
SPIN_FLIP = np.kron(SY, SY)

# Bell vectors with +-1 amplitudes; projectors are outer(w, w) / 2.
BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex),
    "phi-": np.array([1, 0, 0, -1], dtype=complex),
    "psi+": np.array([0, 1, 1, 0], dtype=complex),
    "psi-": np.array([0, 1, -1, 0], dtype=complex),
}
BIT_FLIP_AXIS = (1.0, 0.0, 0.0)
PHASE_FLIP_AXIS = (0.0, 0.0, 1.0)
FILTER_A_AXIS = np.array([0.0, 0.0, 1.0])

# Eigenvalues below this floor contribute nothing to an entropy (0 log 0 = 0).
_ENTROPY_FLOOR = 1e-12


def bell_projector(label: str) -> np.ndarray:
    w = BELL_VECTORS[label]
    return np.outer(w, w.conj()) / 2


def pauli_dot(axis) -> np.ndarray:
    return sum(float(a) * s for a, s in zip(axis, PAULIS))


def noisy_phi_plus(axis, p: float) -> np.ndarray:
    """phi+ after the Pauli map (1 - p/2) rho + (p/2) s rho s on qubit A."""
    phi = bell_projector("phi+")
    flip = np.kron(pauli_dot(axis), I2)
    return (1 - p / 2) * phi + (p / 2) * (flip @ phi @ flip)


def ginibre_state(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Random two-qubit state G G^dagger / Tr with G a 4 x rank complex Gaussian."""
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def filter_stack(gammas, axis) -> np.ndarray:
    """(N, 2, 2) Jones filters cosh(g/2) I + sinh(g/2) axis.sigma."""
    half = np.asarray(gammas, dtype=float)[:, None, None] / 2
    return np.cosh(half) * I2 + np.sinh(half) * pauli_dot(axis)


def filtered_states(rho, gamma_a, gamma_b, axis_b):
    """Filter a state with stacks of filter pairs; return (states, transmissions)."""
    pa = filter_stack(gamma_a, FILTER_A_AXIS)
    pb = filter_stack(gamma_b, axis_b)
    pair = np.einsum("nij,nkl->nikjl", pa, pb).reshape(-1, 4, 4)
    out = pair @ rho @ pair.conj().transpose(0, 2, 1)
    trace = np.trace(out, axis1=1, axis2=2).real
    transmission = np.minimum(1.0, np.exp(-np.asarray(gamma_a) - np.asarray(gamma_b)) * trace)
    return out / trace[:, None, None], transmission


def entropy_bits(rho) -> np.ndarray:
    w = np.linalg.eigvalsh(rho)
    keep = w > _ENTROPY_FLOOR
    safe = np.where(keep, w, 1.0)
    return -np.sum(np.where(keep, safe * np.log2(safe), 0.0), axis=-1)


def mutual_information(rho) -> np.ndarray:
    r = np.asarray(rho).reshape(rho.shape[:-2] + (2, 2, 2, 2))
    rho_a = np.einsum("...abcb->...ac", r)
    rho_b = np.einsum("...abad->...bd", r)
    return entropy_bits(rho_a) + entropy_bits(rho_b) - entropy_bits(rho)


def concurrence(rho) -> np.ndarray:
    """Wootters concurrence from the singular values of sqrt(rho) (Y x Y) sqrt(rho)*."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    lam = np.linalg.svd(root @ SPIN_FLIP @ root.conj(), compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def correlation_matrix(rho) -> np.ndarray:
    return np.array(
        [[np.trace(rho @ np.kron(sj, sk)).real for sk in PAULIS] for sj in PAULIS]
    )


def bell_weights(rho) -> dict[str, float]:
    return {label: float((w.conj() @ rho @ w).real) / 2 for label, w in BELL_VECTORS.items()}


def trace_distance(a, b) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))
