"""Simulated two-photon polarization tomography.

Coincidence counts are drawn per analyzer setting from Poisson statistics
(with an optional uniform dark-count rate), and the state is re-estimated by
linear inversion of the Stokes parameters with a physicality projection, both
on stacks over all settings, whose geometry each :class:`MeasurementSettings`
builds once. Setting i of a record seeded with s draws its count from the
PCG64 stream of SeedSequence([s, i]); the generator states of all settings
are derived in one vectorized pass, and only the Poisson draw runs per setting.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import qmat
from .qstate import IDENTITY_2, PAULIS, pauli_dot
from .qstate import _check_unit_norms, _single_state_spectrum


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
# np.isclose's bound atol + rtol |e| with atol = 1e-9, rtol = 1e-5, per axis entry e
_AXIS_TOL = 1e-9 + 1e-5 * abs(_SIGNED_AXES)

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


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """Read-only (S, 2, 3) analyzer directions, station A then B, each a unit vector within 1e-12."""

    directions: np.ndarray

    def __post_init__(self):
        directions = np.array(self.directions, dtype=float)
        if directions.shape[1:] != (2, 3) and directions.shape != (0,):
            raise ValueError(f"expected (S, 2, 3) analyzer directions, got shape {directions.shape}")
        directions = directions.reshape(-1, 2, 3)
        _check_unit_norms(directions)
        object.__setattr__(self, "directions", _read_only(directions))

    def __len__(self) -> int:
        return len(self.directions)

    def __reduce__(self):  # copies and unpickled instances are built, checked and frozen anew
        return MeasurementSettings, (self.directions,)

    def __eq__(self, other):
        return isinstance(other, MeasurementSettings) and np.array_equal(self.directions, other.directions)

    @functools.cached_property
    def projector_pairs(self) -> np.ndarray:
        """Read-only (S, 4, 4) analyzer projector pairs Pi_A x Pi_B."""
        # 0.0 and -0.0 give bitwise equal pairs: adding the identity turns a signed zero positive
        projectors = (IDENTITY_2 + pauli_dot(self.directions)) / 2
        return _read_only(qmat.kron(projectors[:, 0], projectors[:, 1]))

    @functools.cached_property
    def pooling_layout(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Read-only (4, S) row and column cells and signs; off-axis directions raise on every access."""
        axis, sign = _signed_axes(self.directions)
        used = _STATIONS[:, None, :]
        cells = _read_only(used * (axis + 1)).transpose(2, 0, 1)
        return tuple(cells), _read_only(np.where(used, sign, 1.0).prod(axis=-1))


def _as_settings(settings) -> MeasurementSettings:
    return settings if isinstance(settings, MeasurementSettings) else MeasurementSettings(settings)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TomographyRecord:
    """Coincidence counts for a list of settings plus acquisition parameters.

    ``counts`` are finite and non-negative, with a finite total; Poisson
    sampling produces integers while the exact-expectation mode stores the
    expected values themselves (floats).
    ``seed`` is a non-negative integer (not a bool), stored as a Python int.
    """

    settings: MeasurementSettings
    counts: tuple[float, ...]
    exposure: float
    dark_prob: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "settings", _as_settings(self.settings))
        if len(self.counts) != len(self.settings):
            raise ValueError("counts length must equal settings length")
        # chained comparisons are False for NaN
        if not all(0 <= c < np.inf for c in self.counts):
            raise ValueError("counts must be finite and non-negative")
        if not sum(self.counts) < np.inf:  # reconstruct pools them into sums
            raise ValueError("counts must have a finite total")
        _check_acquisition(self.exposure, self.dark_prob)
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError("seed must be a non-negative integer")
        object.__setattr__(self, "seed", int(seed))


def _check_acquisition(exposure, dark_prob) -> None:
    # a bool compares as 0 or 1, but it is no rate, and JSON writes it as true/false
    if isinstance(exposure, (bool, np.bool_)) or isinstance(dark_prob, (bool, np.bool_)):
        raise ValueError("exposure and dark_prob must be numbers, not bools")
    if not 0 < exposure < np.inf:
        raise ValueError("exposure must be finite and > 0")
    if not 0 <= dark_prob < np.inf:
        raise ValueError("dark_prob must be finite and >= 0")


_STANDARD_SETTINGS = MeasurementSettings([(a, b) for a in ANALYZER_DIRECTIONS for b in ANALYZER_DIRECTIONS])


def standard_settings() -> MeasurementSettings:
    """All 36 analyzer pairs over the six Pauli eigendirections, one shared instance.

    Deterministic A-major order; the first setting is (+z, +z).
    """
    return _STANDARD_SETTINGS


def coincidence_probability(rho, settings) -> np.ndarray:
    """Tr[rho (Pi_A x Pi_B)] for each setting's rank-1 analyzer projectors, as an (S,) array."""
    return (rho @ _as_settings(settings).projector_pairs).trace(axis1=-2, axis2=-1).real


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
    Each setting draws from the NumPy PCG64 stream of
    SeedSequence([seed, setting_index]), the stream of
    ``np.random.default_rng([seed, setting_index])``, so records are
    reproducible for a fixed seed and settings may be simulated
    independently. With ``exact=True`` the expected values are stored
    without sampling.
    """
    rho = _single_state_spectrum(rho)[0]
    _check_acquisition(exposure, dark_prob)
    if isinstance(seed, bool):
        raise TypeError("seed must be an integer, not bool")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    settings = _as_settings(settings)
    mu = exposure * (coincidence_probability(rho, settings) + dark_prob)
    counts = np.maximum(mu, 0.0).tolist()  # roundoff can push a dark-free zero slightly negative
    if not exact:
        bit_generator = np.random.PCG64(0)  # each draw below sets its own state
        poisson = np.random.Generator(bit_generator).poisson
        sampled = []
        for (state, inc), m in zip(_pcg64_states(seed, len(counts)), counts):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            sampled.append(float(poisson(m)))
        counts = sampled
    return TomographyRecord(
        settings=settings,
        counts=tuple(counts),
        exposure=float(exposure),
        dark_prob=float(dark_prob),
        seed=seed,
    )


# NumPy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding; NEP 19
# freezes both, so the derived states stay those of default_rng([seed, i]).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_XSHIFT = 16
_POOL_SIZE = 4
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MULT_A = 0x931E8875
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    # (n + 1, 1) products init * mult**k mod 2**32, k = 0..n
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# Hash call t of the pool mixing xors with _HASH_A[t] and multiplies by
# _HASH_A[t + 1]; output word k of generate_state uses _HASH_B[k], _HASH_B[k + 1].
# _HASH_A covers the pool's own 16 calls; entropy beyond the pool continues it.
_HASH_A = _hash_constants(0x43B0D7E5, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
_OUTPUT_ROWS = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


def _cross_constants() -> list[tuple[np.ndarray, np.ndarray]]:
    # per source row s: the hash constants its calls use, placed at the
    # destination rows d != s in order (row s itself is left unmixed)
    t, out = _POOL_SIZE, []
    for s in range(_POOL_SIZE):
        calls = np.zeros(_POOL_SIZE, dtype=int)
        calls[np.arange(_POOL_SIZE) != s] = np.arange(t, t + _POOL_SIZE - 1)
        out.append((_HASH_A[calls], _HASH_A[calls + 1]))
        t += _POOL_SIZE - 1
    return out


_CROSS = _cross_constants()


def _hashmix(values, xor, mult):
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x, y):
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> _XSHIFT)


def _pcg64_states(seed: int, count: int) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence([seed, i])) for i < count, in one pass over i."""
    seed_words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        seed_words.append(seed & _MASK32)
    # entropy words: the seed's, then the index's (one word below 2**32), zero-padded to the pool
    entropy = np.zeros((max(len(seed_words) + 1, _POOL_SIZE), count), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = np.arange(count)
    pool = _hashmix(entropy[:_POOL_SIZE], _HASH_A[:_POOL_SIZE], _HASH_A[1 : _POOL_SIZE + 1])
    for s, (xor, mult) in enumerate(_CROSS):
        mixed = _mix(pool, _hashmix(pool[s], xor, mult))
        mixed[s] = pool[s]
        pool = mixed
    extra = entropy[_POOL_SIZE:]
    if len(extra):
        tail = _hash_constants(int(_HASH_A[-1, 0]), _MULT_A, _POOL_SIZE * len(extra))
        for t, word in zip(range(0, len(tail), _POOL_SIZE), extra):
            pool = _mix(pool, _hashmix(word, tail[t : t + _POOL_SIZE], tail[t + 1 : t + _POOL_SIZE + 1]))
    # generate_state(4, uint64): 8 words, little-endian pairs into 4 uint64
    out = _hashmix(pool[_OUTPUT_ROWS], _HASH_B[:-1], _HASH_B[1:])
    words = (out[1::2].astype(np.uint64) << np.uint64(32) | out[0::2]).T.tolist()
    states = []
    for seed_hi, seed_lo, seq_hi, seq_lo in words:
        # PCG64 srandom: inc = 2 seq + 1, step, add the seed, step
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = (((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _signed_axes(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (S, 2) Pauli axis index and sign of each analyzer; directions must lie along +-e_j.
    # np.isclose(d, e, atol=1e-9) written out, which is exact for the finite directions
    hits = (abs(directions[..., None, :] - _SIGNED_AXES) <= _AXIS_TOL).all(axis=-1)
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
    cells, signs = record.settings.pooling_layout
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

    values, vectors = qmat.hermitian_eig(rho)
    clipped = np.clip(values, 0.0, None)
    clipped /= clipped.sum()  # at least the unit trace, so never zero
    return qmat._rebuild(clipped, vectors)


def record_to_json(record: TomographyRecord) -> dict:
    """JSON-ready dict with the documented schema."""
    counts = [
        int(c) if float(c).is_integer() else float(c) for c in record.counts
    ]
    return {
        "settings": record.settings.directions.tolist(),
        "counts": counts,
        "exposure": record.exposure,
        "dark_prob": record.dark_prob,
        "seed": record.seed,
    }


def record_from_json(obj: dict) -> TomographyRecord:
    """Inverse of :func:`record_to_json`.

    A malformed record, or one missing a field, raises ValueError naming the
    field at fault; strings and booleans are rejected wherever a number
    belongs.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"tomography record must be a JSON object, not {type(obj).__name__}")
    return TomographyRecord(
        settings=_json_field(obj, "settings", _json_analyzers),
        counts=_json_field(obj, "counts", lambda v: tuple(map(_json_number, v))),
        exposure=_json_field(obj, "exposure", _json_number),
        dark_prob=_json_field(obj, "dark_prob", _json_number),
        seed=_json_field(obj, "seed", lambda v: v),  # TomographyRecord checks the seed
    )


def _json_field(obj: dict, name: str, convert):
    if name not in obj:
        raise ValueError(f"record field {name!r}: missing")
    # a JSON value of the wrong type or size fails in _json_number, iteration or unpacking
    try:
        return convert(obj[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"record field {name!r}: {exc}") from None


def _json_number(value) -> float:
    # float() would read "100" as 100.0 and true as 1.0
    if isinstance(value, (str, bool)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _json_analyzers(value) -> MeasurementSettings:
    pairs = [(list(map(_json_number, a)), list(map(_json_number, b))) for a, b in value]
    for direction in (d for pair in pairs for d in pair if len(d) != 3):
        raise ValueError(f"expected a Stokes 3-vector, got shape ({len(direction)},)")
    return MeasurementSettings(pairs)
