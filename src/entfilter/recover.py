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
normalization) and take the noisy pair that ``pauli_channel_state`` builds
from it as valid, reading its correlations without a second check. The
filtered stack is validated and decomposed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import FilterElement, PauliNoiseSpec, Z_AXIS, apply_filters, pauli_channel_state
from .channel import _filter_pairs
from .qmat import _float_or_array, kron
from .qstate import IDENTITY_2, PAULIS, concurrence, unit_stokes_vector
from .qstate import _concurrence, _correlation_matrix, _mutual_information
from .qstate import _single_state_spectrum, _spectrum

#: Stokes direction of the channel-A inherent filter. |H> of photon A defines
#: +z, so the filter favoring |H> points along +z.
GAMMA_A_AXIS = Z_AXIS

STRATEGIES = ("none", "match", "optimal")
_METRICS = ("mutual_info", "concurrence", "transmission")

# sigma_j x 1 then 1 x sigma_k: their expectations are the local Stokes vectors a and b
_LOCAL_PAULIS = np.array(
    [kron(s, IDENTITY_2) for s in PAULIS] + [kron(IDENTITY_2, s) for s in PAULIS]
)

CSV_HEADER = "gamma_a,gamma_b,strategy,mutual_info_bits,concurrence,transmission"


@dataclass(frozen=True)
class RecoveryPlan:
    """Optimal channel-B filter for a state already filtered on qubit A."""

    gamma_b_opt: float
    orientation_b: tuple[float, float, float]
    predicted_concurrence: float
    nothing_to_recover: bool = False


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated filter configuration along a sweep."""

    gamma_a: float
    gamma_b: float
    strategy: str
    mutual_info: float  # bits, already scaled by the sweep normalization
    concurrence: float
    transmission: float


def _as_correlation(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape != (3, 3):
        raise ValueError("correlation matrix must be 3x3")
    off = t - np.diag(np.diag(t))
    if np.max(np.abs(off)) > 1e-9:
        raise ValueError("correlation matrix must be diagonal (Bell-diagonal input)")
    return t


def concurrence_after_filtering(
    c0: float, t, f_a: FilterElement, f_b: FilterElement
) -> float:
    """Closed-form concurrence of a filtered Bell-diagonal state.

    ``c0`` is the concurrence and ``t`` the diagonal correlation matrix of the
    unfiltered state. Agrees with the Wootters concurrence of the numerically
    filtered state to within roundoff. Evaluated divided through by e^(gA+gB),
    with x, y = e^(-2gA), e^(-2gB) and d = T a . b, as 4 c0 e^(-gA-gB) /
    [(1+d)(1+xy) + (1-d)(x+y)]: no term overflows or, for |d| <= 1, cancels.
    """
    if not -1e-12 <= c0 <= 1.0 + 1e-9:
        raise ValueError("c0 must lie in [0, 1]")
    t = _as_correlation(t)
    dot = float((t @ f_a.axis) @ f_b.axis)
    x, y = np.exp(-2 * f_a.magnitude), np.exp(-2 * f_b.magnitude)
    denom = (1 + dot) * (1 + x * y) + (1 - dot) * (x + y)
    if denom <= 0:
        raise ValueError("unphysical filter configuration (denominator <= 0)")
    return float(4 * max(0.0, c0) * np.exp(-f_a.magnitude - f_b.magnitude) / denom)


def optimal_magnitude(t, gamma_a_hat, gamma_a) -> float | np.ndarray:
    """Concurrence-maximizing filter-B magnitude atanh(||T a|| tanh(gA)).

    ``gamma_a`` may be an array. Never exceeds ``gamma_a`` since ||T a|| <= 1
    for any physical correlation matrix; equals it when ||T a|| = 1 (phase flip).
    """
    gamma_a = np.asarray(gamma_a, dtype=float)
    if not (gamma_a >= 0).all():
        raise ValueError("gamma_a must be >= 0")
    a = unit_stokes_vector(gamma_a_hat)
    gain = float(np.linalg.norm(np.asarray(t, dtype=float) @ a))
    if gain > 1.0 + 1e-9:
        raise ValueError(f"invalid correlation matrix: ||T a|| = {gain} exceeds 1")
    # atanh(tanh(gA)) would round above gA, and reach inf from gA ~ 19
    gamma_b = gamma_a if gain >= 1.0 else np.arctanh(gain * np.tanh(gamma_a))
    return _float_or_array(gamma_b)


def plan_recovery(rho, f_a: FilterElement) -> RecoveryPlan:
    """Optimal compensating filter for a Bell-diagonal state behind filter A.

    The closed form holds only for Bell-diagonal input: both local Stokes
    vectors must vanish and the correlation matrix must be diagonal, each
    within 1e-9. Any other state raises ValueError rather than getting a
    wrong prediction. A separable input (zero concurrence) yields a do-nothing
    plan flagged ``nothing_to_recover``: filtering cannot create entanglement.
    Its filter B has magnitude 0 and the orientation a sweep would give it.
    The input is decomposed once; its concurrence and correlations share that
    decomposition.
    """
    rho, values, vectors = _single_state_spectrum(rho)
    local = (rho @ _LOCAL_PAULIS).trace(axis1=-2, axis2=-1).real
    if np.max(np.abs(local)) > 1e-9:
        raise ValueError(
            "plan_recovery requires a Bell-diagonal state: local Stokes vectors must vanish"
        )
    t = _as_correlation(_correlation_matrix(rho))
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
    # the filter-A axis; the compensator is inert there.
    a = unit_stokes_vector(gamma_a_hat)
    v = np.asarray(t, dtype=float) @ a
    norm = float(np.linalg.norm(v))
    orientation = -a if norm < 1e-12 else -v / norm
    return tuple(float(x) + 0.0 for x in orientation)


def _evaluate(rho, t, gamma_a, gamma_b, strategy, normalization) -> list[SweepPoint]:
    # filter -> normalize -> (MI, C, T) over arrays of magnitudes; t is rho's correlation
    # matrix. The filtered stack is validated once, and MI and C share its decomposition.
    orientation = _compensator_orientation(t, GAMMA_A_AXIS)
    states, transmission = _filter_pairs(rho, gamma_a, GAMMA_A_AXIS, gamma_b, orientation)
    states, values, vectors = _spectrum(states)
    mutual_info = normalization * _mutual_information(states, values)
    concurrences = _concurrence(values, vectors)
    rows = np.column_stack([gamma_a, gamma_b, mutual_info, concurrences, transmission])
    return [SweepPoint(a, b, strategy, mi, c, tr) for a, b, mi, c, tr in rows.tolist()]


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

    The returned list follows the input grid order.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not 0.0 < normalization <= 1.0:
        raise ValueError("normalization must lie in (0, 1]")
    gamma_a = np.asarray(gamma_a_grid, dtype=float)
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


def ratio_scan(noise: PauliNoiseSpec, gamma_a: float, ratio_grid) -> list[SweepPoint]:
    """Scan gamma_b = ratio * gamma_a at the concurrence-optimal orientation.

    Rows carry strategy "ratio". The concurrence column peaks at
    ratio = optimal_magnitude / gamma_a by construction; the mutual-information
    peak sits close to (but not exactly at) the same ratio.
    """
    gamma_a = float(gamma_a)
    if not gamma_a > 0:
        raise ValueError("ratio_scan requires gamma_a > 0")
    ratios = np.asarray(ratio_grid, dtype=float)
    if not (ratios >= 0).all():
        raise ValueError("ratios must be >= 0")
    rho = pauli_channel_state(noise)
    gamma_a_grid = np.full_like(ratios, gamma_a)
    return _evaluate(rho, _correlation_matrix(rho), gamma_a_grid, ratios * gamma_a, "ratio", 1.0)


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
    lines = [CSV_HEADER]
    for p in points:
        lines.append(
            "%.12g,%.12g,%s,%.12g,%.12g,%.12g"
            % (p.gamma_a, p.gamma_b, p.strategy, p.mutual_info, p.concurrence, p.transmission)
        )
    return "\n".join(lines) + "\n"


def sweep_to_json(points: list[SweepPoint]) -> list[dict]:
    """JSON array with the same columns and order as the CSV."""
    return [
        {
            "gamma_a": p.gamma_a,
            "gamma_b": p.gamma_b,
            "strategy": p.strategy,
            "mutual_info_bits": p.mutual_info,
            "concurrence": p.concurrence,
            "transmission": p.transmission,
        }
        for p in points
    ]
