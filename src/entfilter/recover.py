"""Compensating-filter optimization and the sweep engine.

For a Bell-diagonal state with concurrence C0 and diagonal Stokes correlation
matrix T, local filters of magnitudes gA, gB along unit vectors a, b leave a
state with concurrence

    C = C0 / (cosh(gA) cosh(gB) + (T a . b) sinh(gA) sinh(gB)),

so the best channel-B filter points along -T a and has magnitude
atanh(||T a|| tanh(gA)). The sweep and ratio-scan drivers evaluate mutual
information, concurrence and transmission along the curves an experiment
would trace out, filtering the whole curve as one stack of states.

The drivers check what the caller passes (noise spec, grid, strategy,
normalization, and that every gamma_b a ratio scan forms is finite). What
they build from it is not judged again: they read the correlations of the
noisy pair that ``pauli_channel_state`` builds, and take the mutual
information and concurrence of its filtered stack from the decomposition that
the filtering returns, all series of a ratio scan in one stack. A row is a
:class:`SweepPoint` tuple of the artifact columns. The closed forms check the
correlation matrix a caller passes: a finite real 3x3 array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .channel import FilterElement, PauliNoiseSpec, Z_AXIS, apply_filters, pauli_channel_state
from .channel import _filter_pairs
from .qstate import concurrence, unit_stokes_vector
from .qstate import _PAULI_BASIS, _concurrence, _correlation_matrix, _mutual_information, _spectrum

#: Stokes direction of the channel-A inherent filter. |H> of photon A defines
#: +z, so the filter favoring |H> points along +z.
GAMMA_A_AXIS = Z_AXIS

STRATEGIES = ("none", "match", "optimal")
_METRICS = ("mutual_info", "concurrence", "transmission")

# the artifact columns, one per SweepPoint field and in its order
_COLUMNS = ("gamma_a", "gamma_b", "strategy", "mutual_info_bits", "concurrence", "transmission")
CSV_HEADER = ",".join(_COLUMNS)
_CSV_ROW = "%.12g,%.12g,%s,%.12g,%.12g,%.12g"


@dataclass(frozen=True)
class RecoveryPlan:
    """Optimal channel-B filter for a state already filtered on qubit A."""

    gamma_b_opt: float
    orientation_b: tuple[float, float, float]
    predicted_concurrence: float
    nothing_to_recover: bool = False


class SweepPoint(NamedTuple):
    """One evaluated filter configuration along a sweep: one artifact row, column by column."""

    gamma_a: float
    gamma_b: float
    strategy: str
    mutual_info: float  # bits, already scaled by the sweep normalization
    concurrence: float
    transmission: float


def concurrence_after_filtering(
    c0: float, t, f_a: FilterElement, f_b: FilterElement
) -> float:
    """Closed-form concurrence of a filtered Bell-diagonal state.

    ``c0`` is the concurrence and ``t`` the diagonal correlation matrix of the
    unfiltered state, a finite real 3x3 array. Agrees with the Wootters
    concurrence of the numerically filtered state to within roundoff. Evaluated divided through by e^(gA+gB),
    with x, y = e^(-2gA), e^(-2gB) and d = T a . b, as 4 c0 e^(-gA-gB) /
    [(1+d)(1+xy) + (1-d)(x+y)]: no term overflows or, for |d| <= 1, cancels.
    """
    if not -1e-12 <= c0 <= 1.0 + 1e-9:
        raise ValueError("c0 must lie in [0, 1]")
    t = _correlation_argument(t)
    if np.max(np.abs(t - np.diag(np.diag(t)))) > 1e-9:
        raise ValueError("correlation matrix must be diagonal (Bell-diagonal input)")
    dot = float((t @ f_a.axis) @ f_b.axis)
    x, y = np.exp(-2 * f_a.magnitude), np.exp(-2 * f_b.magnitude)
    denom = (1 + dot) * (1 + x * y) + (1 - dot) * (x + y)
    if denom <= 0:
        raise ValueError("unphysical filter configuration (denominator <= 0)")
    return float(4 * max(0.0, c0) * np.exp(-f_a.magnitude - f_b.magnitude) / denom)


def _correlation_argument(t) -> np.ndarray:
    # the correlation matrix a caller passes to a closed form: a finite real 3x3 array,
    # since a NaN fails none of the closed forms' tolerance tests and would be the answer
    t = np.asarray(t)
    if t.shape != (3, 3):
        raise ValueError("correlation matrix must be 3x3")
    if np.iscomplexobj(t) or not np.isfinite(t).all():
        raise ValueError("correlation matrix must be real and finite")
    return t.astype(float)


def optimal_magnitude(t, gamma_a_hat, gamma_a) -> float | np.ndarray:
    """Concurrence-maximizing filter-B magnitude atanh(||T a|| tanh(gA)).

    ``t`` is a finite real 3x3 correlation matrix; ``gamma_a`` may be an array.
    Never exceeds ``gamma_a`` since ||T a|| <= 1 for any physical correlation
    matrix; equals it when ||T a|| = 1 (phase flip).
    """
    gamma_a = np.asarray(gamma_a, dtype=float)
    if not (gamma_a >= 0).all():
        raise ValueError("gamma_a must be >= 0")
    a = unit_stokes_vector(gamma_a_hat)
    gain = float(np.linalg.norm(_correlation_argument(t) @ a))
    if gain > 1.0 + 1e-9:
        raise ValueError(f"invalid correlation matrix: ||T a|| = {gain} exceeds 1")
    # atanh(tanh(gA)) would round above gA, and reach inf from gA ~ 19
    gamma_b = gamma_a if gain >= 1.0 else np.arctanh(gain * np.tanh(gamma_a))
    return float(gamma_b) if gamma_b.ndim == 0 else gamma_b


def plan_recovery(rho, f_a: FilterElement) -> RecoveryPlan:
    """Optimal compensating filter for a Bell-diagonal state behind filter A.

    The closed form holds only for Bell-diagonal input: the Stokes matrix
    Tr[rho sigma_mu x sigma_nu], local Stokes vectors in row and column 0 and
    T in the rest, must be diagonal within 1e-9. Any other state raises
    ValueError rather than getting a wrong prediction. A separable input
    (zero concurrence) yields a do-nothing plan flagged
    ``nothing_to_recover``: filtering cannot create entanglement.
    Its filter B has magnitude 0 and the orientation a sweep would give it.
    The input is decomposed once; its concurrence and correlations share that
    decomposition.
    """
    rho, values, vectors = _spectrum(rho)
    stokes = (rho @ _PAULI_BASIS).trace(axis1=-2, axis2=-1).real
    if np.max(np.abs(stokes - np.diag(np.diag(stokes)))) > 1e-9:
        raise ValueError(
            "plan_recovery requires a Bell-diagonal state: its Stokes matrix must be diagonal within 1e-9"
        )
    t = stokes[1:, 1:]
    c0 = float(_concurrence(values, vectors))
    orientation = _compensator_orientation(t, f_a.orientation)
    if c0 <= 0.0:
        return RecoveryPlan(0.0, orientation, 0.0, nothing_to_recover=True)
    magnitude = optimal_magnitude(t, f_a.orientation, f_a.magnitude)
    f_b = FilterElement(magnitude, orientation)
    predicted = concurrence_after_filtering(c0, t, f_a, f_b)
    return RecoveryPlan(magnitude, f_b.orientation, predicted)


def _compensator_orientation(t, gamma_a_hat) -> tuple[float, float, float]:
    # The compensator's orientation for sweeps and plans alike: -T a normalized,
    # the unit vector b minimizing T a . b. Where T a vanishes (norm below 1e-12:
    # a fully depolarized direction, e.g. p = 1) it falls back to the antipode of
    # the filter-A axis; the compensator is inert there. Both callers pass an axis
    # already judged a unit vector: GAMMA_A_AXIS or a FilterElement's orientation.
    a = np.asarray(gamma_a_hat, dtype=float)
    v = np.asarray(t, dtype=float) @ a
    norm = float(np.linalg.norm(v))
    orientation = -a if norm < 1e-12 else -v / norm
    return tuple(float(x) + 0.0 for x in orientation)


def _evaluate(rho, t, gamma_a, gamma_b, strategy, normalization) -> list[SweepPoint]:
    # filter -> normalize -> (MI, C, T) over arrays of magnitudes; t is rho's correlation
    # matrix. Filtering a pair the library built gives valid states, so the stack is
    # not judged again, and MI and C share the decomposition that _filter_pairs returns.
    orientation = _compensator_orientation(t, GAMMA_A_AXIS)
    states, values, vectors, transmission = _filter_pairs(rho, gamma_a, GAMMA_A_AXIS, gamma_b, orientation)
    mutual_info = normalization * _mutual_information(states, values)
    concurrences = _concurrence(values, vectors)
    columns = gamma_a, gamma_b, mutual_info, concurrences, transmission
    a, b, mi, c, tr = (column.tolist() for column in columns)
    return list(map(SweepPoint, a, b, repeat(strategy), mi, c, tr))


def sweep(
    noise: PauliNoiseSpec,
    gamma_a_grid,
    strategy: str,
    normalization: float = 1.0,
) -> list[SweepPoint]:
    """Evaluate the channel over a grid of filter-A magnitudes.

    Filter A lies along ``GAMMA_A_AXIS``. Per grid point the channel-B
    magnitude follows the strategy: "none" -> 0, "match" -> gamma_a,
    "optimal" -> the closed-form optimum; the orientation is always the
    concurrence-optimal one. ``normalization`` scales the reported mutual
    information only (concurrence and transmission are never rescaled).

    The returned list follows the input grid order, flattened: a scalar
    grid gives one point.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not 0.0 < normalization <= 1.0:
        raise ValueError("normalization must lie in (0, 1]")
    gamma_a = np.asarray(gamma_a_grid, dtype=float).ravel()  # a scalar is a one-point grid
    if not (gamma_a >= 0).all():
        raise ValueError("gamma_a grid values must be >= 0")
    rho = pauli_channel_state(noise)
    t = _correlation_matrix(rho)
    if strategy == "none":
        gamma_b = np.zeros_like(gamma_a)
    elif strategy == "match":
        gamma_b = gamma_a
    else:
        gamma_b = optimal_magnitude(t, GAMMA_A_AXIS, gamma_a)
    return _evaluate(rho, t, gamma_a, gamma_b, strategy, normalization)


def ratio_scan(noise: PauliNoiseSpec, gamma_a, ratio_grid) -> list[SweepPoint]:
    """Scan gamma_b = ratio * gamma_a at the concurrence-optimal orientation.

    ``gamma_a`` is one value > 0 or a 1-D sequence of them, filtered as one
    stack and returned series after series, each equal to its one-value scan.
    A gamma_b = gamma_a * ratio that is not finite raises ValueError. Rows
    carry strategy "ratio". The concurrence column peaks at
    ratio = optimal_magnitude / gamma_a by construction; the mutual-information
    peak sits close to (but not exactly at) the same ratio.
    """
    gamma_a = np.asarray(gamma_a, dtype=float)
    if not (gamma_a > 0).all():
        raise ValueError("ratio_scan requires gamma_a > 0")
    ratios = np.asarray(ratio_grid, dtype=float)
    if not (ratios >= 0).all():
        raise ValueError("ratios must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN
        gamma_b = np.multiply.outer(gamma_a, ratios).ravel()
    finite = np.isfinite(gamma_b)
    if not finite.all():
        raise ValueError(f"gamma_b = gamma_a * ratio must be finite, got {float(gamma_b[~finite][0])}")
    rho = pauli_channel_state(noise)
    gamma_a_grid = np.repeat(gamma_a, ratios.size)
    return _evaluate(rho, _correlation_matrix(rho), gamma_a_grid, gamma_b, "ratio", 1.0)


def argmax_ratio(points: list[SweepPoint], metric: str = "mutual_info") -> float:
    """gamma_b/gamma_a of the first point maximizing the given metric.

    ``metric`` names a column: "mutual_info", "concurrence" or "transmission".
    Raises ValueError when that point has gamma_a = 0, where the ratio is
    undefined; a sweep from gamma_a = 0 can peak there, a ratio scan cannot.
    """
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {_METRICS}")
    best = points[int(np.argmax([getattr(p, metric) for p in points]))]
    if best.gamma_a == 0:
        raise ValueError(f"gamma_b/gamma_a is undefined: the {metric} maximum sits at gamma_a = 0")
    return best.gamma_b / best.gamma_a


def average_entanglement(rho_in, f_a: FilterElement, f_b: FilterElement) -> float:
    """Concurrence times transmission of the filtered pair.

    Invariant under rotations of either filter orientation at fixed
    magnitudes, which is the rate-vs-quality tradeoff of local filtering.
    """
    rho_f, transmission = apply_filters(rho_in, f_a, f_b)
    return concurrence(rho_f) * transmission


def sweep_to_csv(points: list[SweepPoint]) -> str:
    """Fixed-column CSV; floats use %.12g so artifacts are byte-reproducible."""
    return "\n".join([CSV_HEADER, *(_CSV_ROW % p for p in points)]) + "\n"


def sweep_to_json(points: list[SweepPoint]) -> list[dict]:
    """JSON array with the same columns and order as the CSV."""
    return [dict(zip(_COLUMNS, p)) for p in points]
