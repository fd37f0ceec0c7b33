"""Simulated two-photon polarization tomography.

Coincidence counts are drawn per analyzer setting from Poisson statistics
(with an optional uniform dark-count rate), and the state is re-estimated by
linear inversion of the Stokes parameters with a physicality projection.
Both run on stacks over all settings: the projector pairs are built and
traced at once, and the counts are classified and pooled at once. Only the
Poisson draw runs per setting, each from its own seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .qstate import (
    IDENTITY_2,
    PAULIS,
    pauli_dot,
    unit_stokes_vector,
    validate_density_matrix,
)


class InsufficientStatisticsError(ValueError):
    """A tomography setting group carries zero total counts."""


#: Analyzer directions per station, fixed order: +z, -z, +x, -x, +y, -y.
ANALYZER_DIRECTIONS = (
    (0.0, 0.0, 1.0),
    (0.0, 0.0, -1.0),
    (1.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, -1.0, 0.0),
)

# Signed axes +x, -x, +y, -y, +z, -z: row 2j + (0 or 1) is +e_j or -e_j.
_SIGNED_AXES = np.array([sign * unit for unit in np.eye(3) for sign in (1.0, -1.0)])

# Stations used by each Pauli-basis cell a setting's counts pool into: none
# (the normalization), both (correlations t_jk), A alone and B alone.
_STATIONS = np.array([[0, 0], [1, 1], [1, 0], [0, 1]])

# Pauli-basis terms sigma_mu x sigma_nu (0 = identity) in the order the
# estimate sums them: the identity, then per axis j of A its A term, the B
# term of the same axis and the three correlations (j, k).
_MU, _NU = np.array(
    [(0, 0)] + [t for j in (1, 2, 3) for t in ((j, 0), (0, j), (j, 1), (j, 2), (j, 3))]
).T
_SIGMAS = np.array([IDENTITY_2, *PAULIS])
_TERM_BASIS = qmat.kron(_SIGMAS[_MU], _SIGMAS[_NU])


@dataclass(frozen=True)
class MeasurementSetting:
    """Analyzer directions (unit Stokes vectors) at the two detector stations."""

    proj_a: tuple[float, float, float]
    proj_b: tuple[float, float, float]

    def __post_init__(self):
        for name in ("proj_a", "proj_b"):
            v = unit_stokes_vector(getattr(self, name))
            object.__setattr__(self, name, (float(v[0]), float(v[1]), float(v[2])))


@dataclass(frozen=True)
class TomographyRecord:
    """Coincidence counts for a list of settings plus acquisition parameters.

    ``counts`` are non-negative; Poisson sampling produces integers while the
    exact-expectation mode stores the expected values themselves (floats).
    """

    settings: tuple[MeasurementSetting, ...]
    counts: tuple[float, ...]
    exposure: float
    dark_prob: float
    seed: int

    def __post_init__(self):
        if len(self.counts) != len(self.settings):
            raise ValueError("counts length must equal settings length")
        # chained comparisons are False for NaN
        if not all(0 <= c < np.inf for c in self.counts):
            raise ValueError("counts must be finite and non-negative")
        if not 0 < self.exposure < np.inf:
            raise ValueError("exposure must be finite and > 0")
        if not 0 <= self.dark_prob < np.inf:
            raise ValueError("dark_prob must be finite and >= 0")


def standard_settings() -> list[MeasurementSetting]:
    """All 36 analyzer pairs over the six Pauli eigendirections.

    Deterministic A-major order; the first setting is (+z, +z).
    """
    return [
        MeasurementSetting(a, b)
        for a in ANALYZER_DIRECTIONS
        for b in ANALYZER_DIRECTIONS
    ]


def _directions(settings) -> np.ndarray:
    # (S, 2, 3) analyzer directions, station A then B
    return np.array([(s.proj_a, s.proj_b) for s in settings], dtype=float).reshape(-1, 2, 3)


def coincidence_probability(rho, settings) -> np.ndarray:
    """Tr[rho (Pi_A x Pi_B)] for each setting's rank-1 analyzer projectors, as an (S,) array."""
    projectors = (IDENTITY_2 + pauli_dot(_directions(settings))) / 2
    pairs = qmat.kron(projectors[:, 0], projectors[:, 1])
    return (rho @ pairs).trace(axis1=-2, axis2=-1).real


def simulate_counts(
    rho,
    settings,
    exposure: float,
    dark_prob: float = 0.0,
    seed: int = 0,
    exact: bool = False,
) -> TomographyRecord:
    """Simulate coincidence counts for each setting.

    The expected count is mu = exposure * (Tr[rho Pi_A x Pi_B] + dark_prob).
    Each setting draws from its own NumPy PCG64 generator seeded with
    SeedSequence([seed, setting_index]), so records are reproducible for a
    fixed seed and settings may be simulated independently. With
    ``exact=True`` the expected values are stored without sampling.
    """
    rho = validate_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("simulate_counts expects a 4x4 two-qubit state")
    if exposure <= 0:
        raise ValueError("exposure must be > 0")
    if dark_prob < 0:
        raise ValueError("dark_prob must be >= 0")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    settings = tuple(settings)
    mu = exposure * (coincidence_probability(rho, settings) + dark_prob)
    counts = np.maximum(mu, 0.0).tolist()  # roundoff can push a dark-free zero slightly negative
    if not exact:
        counts = [float(np.random.default_rng([int(seed), i]).poisson(m)) for i, m in enumerate(counts)]
    return TomographyRecord(
        settings=settings,
        counts=tuple(counts),
        exposure=float(exposure),
        dark_prob=float(dark_prob),
        seed=int(seed),
    )


def _signed_axes(settings) -> tuple[np.ndarray, np.ndarray]:
    # (S, 2) Pauli axis index and sign of each analyzer; directions must lie along +-e_j
    hits = np.isclose(_directions(settings)[..., None, :], _SIGNED_AXES, atol=1e-9).all(axis=-1)
    if not hits.any(axis=-1).all():
        raise ValueError("linear inversion requires analyzer directions along signed Pauli axes")
    first = hits.argmax(axis=-1)
    return first // 2, 1.0 - 2.0 * (first % 2)


def reconstruct(record: TomographyRecord) -> np.ndarray:
    """Density matrix from a tomography record by linear inversion.

    Stokes parameters come from difference-over-sum count ratios within each
    axis-pair group of four sign combinations; single-qubit parameters pool
    every group sharing that station axis. The raw estimate is projected to
    the physical set by clipping negative eigenvalues and renormalizing the
    trace, so the output always satisfies the density-matrix invariants.

    Raises :class:`InsufficientStatisticsError` when any axis-pair group is
    missing or has zero total counts.
    """
    axis, sign = _signed_axes(record.settings)
    used = _STATIONS[:, None, :]
    cells = tuple((used * (axis + 1)).transpose(2, 0, 1))  # (4, S) row and column indices
    signs = np.where(used, sign, 1.0).prod(axis=-1)
    counts = np.broadcast_to(np.asarray(record.counts, dtype=float), signs.shape)
    signed = np.zeros((4, 4))
    pooled = np.zeros((4, 4))
    # unbuffered, so each cell sums its counts in setting order
    np.add.at(signed, cells, signs * counts)
    np.add.at(pooled, cells, counts)
    if np.any(pooled[1:, 1:] <= 0):
        j, k = np.argwhere(pooled[1:, 1:] <= 0)[0]
        raise InsufficientStatisticsError(
            f"setting group (axis {j}, axis {k}) has zero total counts"
        )
    stokes = signed / pooled  # the identity's own cell gives exactly 1
    rho = (stokes[_MU, _NU][:, None, None] * _TERM_BASIS).sum(axis=0) / 4.0

    eig = qmat.hermitian_eig(rho)
    clipped = np.clip(eig.values, 0.0, None)
    total = float(clipped.sum())
    if total <= 0:
        raise InsufficientStatisticsError("estimate collapsed to the zero matrix")
    clipped /= total
    out = (eig.vectors * clipped) @ eig.vectors.conj().T
    return (out + out.conj().T) / 2


def record_to_json(record: TomographyRecord) -> dict:
    """JSON-ready dict with the documented schema."""
    counts = [
        int(c) if float(c).is_integer() else float(c) for c in record.counts
    ]
    return {
        "settings": [[list(s.proj_a), list(s.proj_b)] for s in record.settings],
        "counts": counts,
        "exposure": record.exposure,
        "dark_prob": record.dark_prob,
        "seed": record.seed,
    }


def record_from_json(obj: dict) -> TomographyRecord:
    """Inverse of :func:`record_to_json`."""
    settings = tuple(
        MeasurementSetting(tuple(map(float, pair[0])), tuple(map(float, pair[1])))
        for pair in obj["settings"]
    )
    counts = tuple(float(c) for c in obj["counts"])
    return TomographyRecord(
        settings=settings,
        counts=counts,
        exposure=float(obj["exposure"]),
        dark_prob=float(obj["dark_prob"]),
        seed=int(obj["seed"]),
    )
