"""Compensating-filter optimization and the sweep engine.

For a Bell-diagonal state with concurrence C0 and diagonal Stokes correlation
matrix T, local filters of magnitudes gA, gB along unit vectors a, b leave a
state with concurrence

    C = C0 / (cosh(gA) cosh(gB) + (T a . b) sinh(gA) sinh(gB)),

so the best channel-B filter points along -T a and has magnitude
atanh(||T a|| tanh(gA)). The sweep and ratio-scan drivers evaluate mutual
information, concurrence and transmission along the curves an experiment
would trace out, the whole curve at once.

The drivers check what the caller passes (noise spec, grid, strategy,
normalization, and that every gamma_b a ratio scan forms is finite). They
read the correlations of the noisy pair that ``pauli_channel_state`` builds,
then take every column from a closed form over the pair's two pure
components (``_evaluate``), all series of a ratio scan in one stack: along a
curve no 4x4 state is formed, decomposed or judged. A row is a
:class:`SweepPoint` tuple of the artifact columns. The closed forms check the
correlation matrix a caller passes: a finite real 3x3 array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .channel import FilterElement, PauliNoiseSpec, Z_AXIS, apply_filters, pauli_channel_state
from .channel import _filter_projectors, _transmission
from .qstate import IDENTITY_2, concurrence, pauli_dot, unit_stokes_vector
from .qstate import _PAULI_BASIS, _concurrence, _correlation_matrix, _entropy_bits, _information_bits, _spectrum

#: Stokes direction of the channel-A inherent filter. |H> of photon A defines
#: +z, so the filter favoring |H> points along +z.
GAMMA_A_AXIS = Z_AXIS

STRATEGIES = ("none", "match", "optimal")
_METRICS = ("mutual_info", "concurrence", "transmission")

# the artifact columns, one per SweepPoint field and in its order
_COLUMNS = ("gamma_a", "gamma_b", "strategy", "mutual_info_bits", "concurrence", "transmission")
CSV_HEADER = ",".join(_COLUMNS)
_CSV_ROW = "%.12g,%.12g,%s,%.12g,%.12g,%.12g"
# the six column pairs i < j of a 2x4 matrix, whose 2x2 minors Cauchy-Binet sums
_MINOR_I, _MINOR_J = [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]


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


def _evaluate(noise, t, gamma_a, gamma_b, strategy, normalization) -> list[SweepPoint]:
    """The curve columns (MI, C, T) of the filtered noisy pair over arrays of magnitudes.

    A closed form, with no eigendecomposition and no SVD. ``pauli_channel_state(noise)``
    is (1 - p/2)|phi+><phi+| + (p/2)(n.sigma x 1)|phi+><phi+|(n.sigma x 1), whose two
    pure components have the 2x2 amplitude matrices U_1 = sqrt(1 - p/2) I/sqrt2 and
    U_2 = sqrt(p/2) (n.sigma)/sqrt2. The normalized filters e^(-g/2) P map them to
    W_k = F_A U_k F_B^T, and every column follows from W:

    * T = sum |W|^2, the trace, which ``channel._transmission`` checks and caps;
    * S(AB), S(A) and S(B) are the entropies of M M^dagger for the three 2x4 reshapes M
      of W / sqrt(T) with rows k, a and b: the Gram matrix of the components and the
      two marginals. Of [[a, b], [b*, d]], the larger eigenvalue is
      (a + d + hypot(a - d, 2|b|)) / 2 and the smaller one det / larger, det taken as the
      sum of the six squared 2x2 minors of M (Cauchy-Binet), so that neither cancels
      where the pair is nearly pure;
    * C = |det F_A| |det F_B| C0 / T (Verstraete, Dehaene & De Moor, PRA 64, 010101(R),
      2001), where det e^(-g/2) P = e^(-g) and C0 = 1 - p for every noise axis (the
      Wootters concurrence, PRL 80, 2245, 1998). It is formed as a product of two
      exponentials, since e^(-gA - gB) overflows in the sum, and capped at 1 against
      roundoff.

    ``t`` is the pair's correlation matrix, which sets the compensator's orientation.
    """
    orientation = _compensator_orientation(t, GAMMA_A_AXIS)
    p = noise.p
    components = np.array([np.sqrt((1 - p / 2) / 2) * IDENTITY_2, np.sqrt(p / 4) * pauli_dot(noise.axis)])
    # e^(-g/2) P = P+ + e^-g P-, so W is a sum over the projector pairs: X_st = P^s_A U_k (P^t_B)^T
    # weighted 1, e^-gB, e^-gA and e^-gA e^-gB. Each X_st is laid out as the three 2x4
    # reshapes side by side, so that W comes as the (N, 3, 2, 4) rows k, a and b
    projectors_a, projectors_b = (np.array(_filter_projectors(axis)) for axis in (GAMMA_A_AXIS, orientation))
    terms = np.einsum("sai,kij,tbj->stkab", projectors_a, components, projectors_b).reshape(4, 2, 2, 2)
    terms = np.stack([terms.reshape(4, 2, 4), terms.transpose(0, 2, 1, 3).reshape(4, 2, 4),
                      terms.transpose(0, 3, 1, 2).reshape(4, 2, 4)], axis=1)
    decay_a, decay_b = np.exp(-gamma_a)[:, None, None, None], np.exp(-gamma_b)[:, None, None, None]
    decay_ab = decay_a * decay_b
    rows = terms[0] + decay_b * terms[1] + decay_a * terms[2] + decay_ab * terms[3]
    trace = (rows[:, 0].real ** 2 + rows[:, 0].imag ** 2).sum(axis=(1, 2))
    transmission = _transmission(trace, gamma_a, gamma_b)
    rows = rows / np.sqrt(trace)[:, None, None, None]  # entries of order 1: no minor underflows
    r0, r1 = rows[..., 0, :], rows[..., 1, :]
    norms = (rows.real ** 2 + rows.imag ** 2).sum(axis=-1)
    a, d = norms[..., 0], norms[..., 1]
    b = abs((r0 * r1.conj()).sum(axis=-1))
    minors = r0[..., _MINOR_I] * r1[..., _MINOR_J] - r0[..., _MINOR_J] * r1[..., _MINOR_I]
    det = (minors.real ** 2 + minors.imag ** 2).sum(axis=-1)
    larger = (a + d + np.hypot(a - d, 2 * b)) / 2
    s_ab, s_a, s_b = _entropy_bits(np.stack([larger, det / larger], axis=-1)).T
    mutual_info = normalization * _information_bits(s_a, s_b, s_ab)
    concurrences = np.minimum((1 - p) * decay_ab[:, 0, 0, 0] / trace, 1.0)
    columns = gamma_a, gamma_b, mutual_info, concurrences, transmission
    g_a, g_b, mi, c, tr = (column.tolist() for column in columns)
    return list(map(SweepPoint, g_a, g_b, repeat(strategy), mi, c, tr))


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
    t = _correlation_matrix(pauli_channel_state(noise))
    if strategy == "none":
        gamma_b = np.zeros_like(gamma_a)
    elif strategy == "match":
        gamma_b = gamma_a
    else:
        gamma_b = optimal_magnitude(t, GAMMA_A_AXIS, gamma_a)
    return _evaluate(noise, t, gamma_a, gamma_b, strategy, normalization)


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
    t = _correlation_matrix(pauli_channel_state(noise))
    return _evaluate(noise, t, np.repeat(gamma_a, ratios.size), gamma_b, "ratio", 1.0)


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
