"""Shared randomized-state constructors for the test suite."""

from __future__ import annotations

import numpy as np

from entfilter import qstate
from entfilter.qstate import bell_state

BELL_PROJECTORS = tuple(bell_state(label) for label in ("phi+", "phi-", "psi+", "psi-"))


def matrix_from_json(obj: dict) -> np.ndarray:
    """The complex matrix of a ``density_matrix_to_json`` dict, from its [re, im] pairs."""
    return np.array(obj["matrix"]) @ np.array([1.0, 1j])


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Full-rank random state from the Hilbert-Schmidt (Wishart) ensemble."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_rank2_bell_diagonal(rng: np.random.Generator) -> np.ndarray:
    """Mixture of two distinct Bell projectors with a uniform weight."""
    i, j = rng.choice(4, size=2, replace=False)
    w = rng.uniform(0.0, 1.0)
    return w * BELL_PROJECTORS[i] + (1 - w) * BELL_PROJECTORS[j]


def random_bell_diagonal(rng: np.random.Generator) -> np.ndarray:
    """Mixture of all four Bell projectors with Dirichlet weights."""
    weights = rng.dirichlet(np.ones(4))
    return sum(w * b for w, b in zip(weights, BELL_PROJECTORS))


def record_eigh_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Patch numpy's Hermitian eigensolvers to append each argument's shape to the returned list.

    The memo of judged states is emptied first, so the count is that of a cold process,
    whichever tests ran before.
    """
    qstate._judged_spectrum.cache_clear()
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Patch ``module.name`` to append each call's positional arguments to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls

