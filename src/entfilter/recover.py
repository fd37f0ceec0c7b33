"""Compensating-filter optimization and the sweep engine.

One rule gives the concurrence of every filtered state. A local filter scales the
concurrence by the modulus of its determinant (Verstraete, Dehaene & De Moor, PRA 64,
010101(R), 2001), and the normalized filters e^(-g/2) P have determinant e^(-g). So a
two-qubit state of concurrence C0 that passes filters of magnitudes gA, gB with
transmission T is left with

    C' = |det F_A| |det F_B| C0 / T = e^(-gA-gB) C0 / T,

and C' T = e^(-gA-gB) C0 depends on neither orientation (``average_entanglement``).
For a Bell-diagonal state with diagonal correlation matrix t and filters along unit
vectors a, b, T = [(1+d)(1+xy) + (1-d)(x+y)]/4 with x, y = e^(-2gA), e^(-2gB) and
d = t a . b (``concurrence_after_filtering``, ``plan_recovery``). Its eigenvalues are
its Bell weights, and its one C0 rule is C0 = max(0, 2 w_max - 1) with w_max the largest
of them (``plan_recovery``): the noisy ``phi+`` has w_max = 1 - p/2, so C0 = 1 - p for
every noise axis (the C column of ``_evaluate``). At fixed
magnitudes C' is largest where d is smallest, so the best channel-B filter points
along -t a; its best magnitude is atanh(||t a|| tanh(gA)).

The sweep and ratio-scan drivers evaluate mutual information, concurrence and
transmission along the curves an experiment would trace out, the whole curve at
once, from the closed form of ``_evaluate``. A row is a :class:`SweepPoint` tuple
of the artifact columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import NamedTuple

import numpy as np

from .channel import FilterElement, PauliNoiseSpec, Z_AXIS
from .channel import _transmission
from .qstate import concurrence, unit_stokes_vector
from .qstate import _PAULI_BASIS, _entropy_bits, _expectations, _information_bits, _spectrum

#: Stokes direction of the channel-A inherent filter. |H> of photon A defines
#: +z, so the filter favoring |H> points along +z.
GAMMA_A_AXIS = Z_AXIS
# T0 a for phi+, the pair every noisy channel state starts from: its correlation matrix
# T0 = diag(1, -1, 1) keeps the filter-A axis z
_PHI_PLUS_T_A = GAMMA_A_AXIS

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
    unfiltered state, a finite real 3x3 array. The module's rule
    C' = e^(-gA-gB) c0 / T with the Bell-diagonal T written out, evaluated as
    4 c0 e^(-gA-gB) / [(1+d)(1+xy) + (1-d)(x+y)]: no term overflows or, for
    |d| <= 1, cancels. A ``c0`` within roundoff of [0, 1] is clamped to it.
    Agrees with the Wootters concurrence of the numerically filtered state to
    within roundoff.
    """
    if not -1e-12 <= c0 <= 1.0 + 1e-9:
        raise ValueError("c0 must lie in [0, 1]")
    t = _correlation_argument(t)
    _require_diagonal(t, "correlation matrix must be diagonal (Bell-diagonal input)")
    return _filtered_concurrence(c0, float((t @ f_a.orientation) @ f_b.orientation), f_a.magnitude, f_b.magnitude)


def _filtered_concurrence(c0, dot, gamma_a, gamma_b) -> float:
    # the rule C' = e^(-gA-gB) C0 / T of a checked Bell-diagonal state, from its C0 clamped
    # to [0, 1] against roundoff and d = t a . b. four_t is 4T; the numerator 4 C0 e^(-gA-gB)
    # keeps two more bits than C0 e^(-gA-gB) where that is subnormal (gA + gB past ~703)
    x, y = np.exp(-2 * gamma_a), np.exp(-2 * gamma_b)
    four_t = (1 + dot) * (1 + x * y) + (1 - dot) * (x + y)
    if four_t <= 0:
        raise ValueError("unphysical filter configuration (denominator <= 0)")
    return float(4 * min(max(0.0, c0), 1.0) * np.exp(-gamma_a - gamma_b) / four_t)


def _require_diagonal(matrix, message: str) -> None:
    # the one Bell-diagonal rule of the closed forms: every off-diagonal entry of the
    # Stokes or correlation matrix within 1e-9 of 0, else ValueError(message)
    if np.max(np.abs(matrix - np.diag(np.diag(matrix)))) > 1e-9:
        raise ValueError(message)


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
    gamma_b = _optimum(_compensator(_correlation_argument(t) @ a, a)[0], gamma_a)
    return float(gamma_b) if gamma_b.ndim == 0 else gamma_b


def plan_recovery(rho, f_a: FilterElement) -> RecoveryPlan:
    """Optimal compensating filter for a Bell-diagonal state behind filter A.

    The closed form holds only for Bell-diagonal input: the Stokes matrix
    Tr[rho sigma_mu x sigma_nu], local Stokes vectors in row and column 0 and
    T in the rest, must be diagonal within 1e-9. Any other state raises
    ValueError rather than getting a wrong prediction. A separable input
    (zero concurrence) yields a plan flagged ``nothing_to_recover``, with a
    predicted concurrence of 0: filtering cannot create entanglement. Its
    filter B is still the one a sweep gives. C0 = 2 w_max - 1 comes from the
    largest eigenvalue w_max of the state, which is its largest Bell weight,
    so no Wootters is run; a C0 of at most 1e-12, roundoff of a largest
    weight 1/2, counts as 0. The optimum and the predicted concurrence are
    those of ``optimal_magnitude`` and ``concurrence_after_filtering``.
    """
    rho, values, _ = _spectrum(rho)
    stokes = _expectations(rho, _PAULI_BASIS)
    _require_diagonal(
        stokes, "plan_recovery requires a Bell-diagonal state: its Stokes matrix must be diagonal within 1e-9"
    )
    t_a = stokes[1:, 1:] @ f_a.orientation
    gain, orientation = _compensator(t_a, f_a.orientation)
    magnitude = float(_optimum(gain, f_a.magnitude))
    c0 = 2 * float(values[0]) - 1
    if c0 <= 1e-12:
        return RecoveryPlan(magnitude, orientation, 0.0, nothing_to_recover=True)
    predicted = _filtered_concurrence(c0, float(t_a @ orientation), f_a.magnitude, magnitude)
    return RecoveryPlan(magnitude, orientation, predicted)


def _compensator(t_a, a) -> tuple[float, tuple[float, float, float]]:
    # (||T a||, the compensator's orientation) from the vector T a of a real correlation
    # matrix and a unit a: the one rule of sweeps, plans and optimal_magnitude. A gain
    # above 1 + 1e-9 is no physical correlation matrix's. The orientation is -T a
    # normalized, the unit vector b minimizing T a . b. Where T a vanishes (norm below
    # 1e-12: a fully depolarized direction, e.g. p = 1) it falls back to the antipode of
    # the filter-A axis a; the compensator is inert there
    gain = math.hypot(*t_a)
    if gain > 1.0 + 1e-9:
        raise ValueError(f"invalid correlation matrix: ||T a|| = {gain} exceeds 1")
    orientation = [-x for x in a] if gain < 1e-12 else [-x / gain for x in t_a]
    return gain, tuple(float(x) + 0.0 for x in orientation)


def _optimum(gain, gamma_a):
    # the concurrence-maximizing filter-B magnitude atanh(gain tanh gA); atanh(tanh(gA))
    # would round above gA, and reach inf from gA ~ 19, so a gain of 1 returns gA itself
    return gamma_a if gain >= 1.0 else np.arctanh(gain * np.tanh(gamma_a))


def _filter_a_correlations(noise) -> tuple[float, float, float]:
    # T a of pauli_channel_state(noise), a = GAMMA_A_AXIS, in closed form. The noise map keeps
    # the Stokes component of photon A along n and scales the rest by 1 - p, so
    # T = T0 + p (n n^T - I) T0 with T0 the correlation matrix of phi+. Written this way a
    # phase flip (n = a) leaves T a = T0 a exactly, and a bit flip at p = 1 leaves 0
    p, n = noise.p, noise.axis
    along = sum(ni * t for ni, t in zip(n, _PHI_PLUS_T_A))  # n . T0 a
    return tuple(t + p * (ni * along - t) for t, ni in zip(_PHI_PLUS_T_A, n))


# The curve kernel's layout, fixed for every call. In the eigenframe of the two filters a
# filtered component is diag(1, x) M_k diag(1, y), with x = e^-gA and y = e^-gB, so entry
# (a, b) of M_k carries the scale x^a y^b. Of the (2, 2, 2) stack M, flattened as
# 4k + 2a + b, the three 2x4 reshapes whose rows are k, a and b take these entries:
_RESHAPES = (
    ((0, 1, 2, 3), (4, 5, 6, 7)),  # rows k, columns (a, b)
    ((0, 1, 4, 5), (2, 3, 6, 7)),  # rows a, columns (k, b)
    ((0, 2, 4, 6), (1, 3, 5, 7)),  # rows b, columns (k, a)
)
_COMPONENT = np.arange(8) // 4  # k of each entry
# The scale of a product of two entries is one of the nine monomials x^i y^j (i, j <= 2),
# numbered 3i + j: the sum of the two entries' numbers 3a + b
_SCALE = [3 * (i // 2 % 2) + i % 2 for i in range(8)]


def _gram_layout():
    # Each term of a Gram entry is one entry of H, the outer product of M with its
    # conjugate, times a monomial. Per term: its index in H viewed as floats, its sign and
    # where it adds in a (9, 10) table: per monomial, the z, x and y components of the
    # Bloch vectors of the three Gram matrices (G = (I + r.sigma)/2), then the trace
    terms = []
    for r, (row_0, row_1) in enumerate(_RESHAPES):
        for i, j in zip(row_0, row_1):
            terms += [(i, i, 0, 1.0, 3 * r), (j, j, 0, -1.0, 3 * r),  # z = G00 - G11
                      (i, j, 0, 2.0, 3 * r + 1), (i, j, 1, 2.0, 3 * r + 2)]  # x - iy = 2 G01
    terms += [(i, i, 0, 1.0, 9) for i in range(8)]  # T = sum |M|^2 x^2a y^2b
    return [np.array(column) for column in zip(*[
        (2 * (8 * i + j) + part, sign, 10 * (_SCALE[i] + _SCALE[j]) + column)
        for i, j, part, sign, column in terms
    ])]


def _minor_layout():
    # Cauchy-Binet: a reshape's Gram determinant is the sum of its six squared 2x2 minors
    # e_a e_b - e_c e_d, one per column pair c < d. Per minor: the indices of its two
    # products in the flattened outer product of M with itself, and where its square adds
    # in a (9, 3) table, at the squared monomial of (0, c) (1, d), equal to that of
    # (0, d) (1, c) since the scales factor as x^a y^b
    minors = [
        (8 * row_0[c] + row_1[d], 8 * row_0[d] + row_1[c], 3 * (_SCALE[row_0[c]] + _SCALE[row_1[d]]) + r)
        for r, (row_0, row_1) in enumerate(_RESHAPES)
        for c, d in combinations(range(4), 2)
    ]
    return [np.array(column) for column in zip(*minors)]


_GRAM_TERMS, _GRAM_SIGNS, _GRAM_TARGETS = _gram_layout()
_MINOR_AB, _MINOR_CD, _MINOR_TARGETS = _minor_layout()


def _coefficients(noise, orientation):
    # The kernel's per-noise constants from M_k = U_k conj(R), the pair's components in the
    # eigenframe of filter B: (trace, Bloch, determinant) coefficients over the monomials,
    # shapes (9,), (9, 9) and (9, 3). R, whose columns are the eigenvectors of b.sigma for
    # +1 and -1, is normalized by 1 - b_z, which never cancels: b is the compensator's,
    # -T a / ||T a|| with (T a)_z = 1 - p + p n_z^2 >= 0 for filter A along z, or -z where
    # T a vanishes, so b_z <= 0 and 1 - b_z lies in [1, 2]
    bx, by, bz = orientation
    norm = math.sqrt(2 * (1 - bz))
    u0, u1 = complex(bx, -by) / norm, (1 - bz) / norm
    # U_k = sqrt(w_k) V_k with V_1 = I and V_2 = n.sigma. Within a component, H takes the
    # weight w_k itself, not the square of its root, so that T is exact where V_k conj(R) is
    p, (nx, ny, nz) = noise.p, noise.axis
    unitaries = np.array([[[1, 0], [0, 1]], [[nz, complex(nx, -ny)], [complex(nx, ny), -nz]]])
    unitaries = (unitaries @ np.array([[u0.conjugate(), -u1], [u1.conjugate(), u0]])).ravel()
    w_1, w_2 = (1 - p / 2) / 2, p / 4
    root_1, root_2 = math.sqrt(w_1), math.sqrt(w_2)
    weights = np.array([[w_1, root_1 * root_2], [root_1 * root_2, w_2]])[_COMPONENT[:, None], _COMPONENT]
    grams = np.outer(unitaries, unitaries.conj()) * weights
    table = np.bincount(_GRAM_TARGETS, grams.view(float).ravel()[_GRAM_TERMS] * _GRAM_SIGNS, minlength=90)
    entries = np.array([root_1, root_2])[_COMPONENT] * unitaries
    products = np.outer(entries, entries).ravel()
    minors = products[_MINOR_AB] - products[_MINOR_CD]
    minors = np.bincount(_MINOR_TARGETS, minors.real ** 2 + minors.imag ** 2, minlength=27)
    table = table.reshape(9, 10)
    return table[:, 9], table[:, :9], minors.reshape(9, 3)


def _live(coefficients):
    # the monomials with a nonzero coefficient, and their coefficients: a monomial whose
    # coefficients are all zero is dropped before it is multiplied, since it can overflow
    # where its cells carry no component (1/T^2 past gA ~ 177 at p = 0), and inf * 0 is NaN
    live = coefficients.any(axis=1).nonzero()[0]
    return live, coefficients[live]


# The curve kernel's constants for one noise: its p, the compensator's gain and orientation
# behind filter A, the trace weights and the live Bloch and minor tables. Keyed by value
# (PauliNoiseSpec is frozen and compares (axis, p)) and bounded so that a long-lived caller
# keeps few; a raise from _compensator's ceiling is never stored. Every caller shares the
# arrays, so they are read-only
@functools.lru_cache(maxsize=16)
def _kernel(noise):
    gain, orientation = _compensator(_filter_a_correlations(noise), GAMMA_A_AXIS)
    trace_weights, bloch, minors = _coefficients(noise, orientation)
    tables = (trace_weights, *_live(bloch), *_live(minors))
    for table in tables:
        table.setflags(write=False)
    return noise.p, gain, orientation, *tables


def _evaluate(kernel, gamma_a, gamma_b, strategy, normalization) -> list[SweepPoint]:
    """The curve columns (MI, C, T) of the filtered noisy pair over arrays of magnitudes.

    A closed form, with no eigendecomposition and no SVD. ``pauli_channel_state(noise)``
    is (1 - p/2)|phi+><phi+| + (p/2)(n.sigma x 1)|phi+><phi+|(n.sigma x 1), whose two
    pure components have the 2x2 amplitude matrices U_1 = sqrt(1 - p/2) I/sqrt2 and
    U_2 = sqrt(p/2) (n.sigma)/sqrt2. The normalized filters e^(-g/2) P map them to
    W_k = F_A U_k F_B^T. The kernel works in the eigenframe of the two filters, where
    local filters are diagonal (Verstraete, Dehaene & De Moor, PRA 64, 010101(R), 2001):
    F_A = diag(1, x) already, x = e^-gA, since filter A lies along z, and F_B^T =
    conj(R) diag(1, y) R^T, y = e^-gB, with R the eigenvectors of b.sigma. The local
    unitary R^T on photon B changes none of the columns, so W_k may be taken as
    diag(1, x) M_k diag(1, y) with M_k = U_k conj(R) fixed per noise: entry (a, b) is
    M_k[a, b] x^a y^b. Every column then follows from the nine monomials x^i y^j:

    * T = sum |W|^2 = sum |M_k[a, b]|^2 x^2a y^2b, the trace, which
      ``channel._transmission`` checks and caps;
    * S(AB), S(A) and S(B) are the entropies of the Gram matrices G of the three 2x4
      reshapes of W / sqrt(T) with rows k, a and b: the components and the two
      marginals. Each Gram entry is a fixed combination of the monomials over T, so of
      G = (I + r.sigma)/2 the larger eigenvalue is (1 + |r|)/2, and the smaller one is
      det G / larger, the determinant taken by Cauchy-Binet as a sum of squared 2x2
      minors: a non-negative combination of the squared monomials over T^2, in which
      nothing cancels where the pair is nearly pure;
    * C, the module's rule |det F_A| |det F_B| C0 / T with |det F_A| |det F_B| = x y and
      C0 = 1 - p, the Wootters concurrence (PRL 80, 2245, 1998) of the noisy pair for
      every noise axis: (1 - p) times the monomial x y over T, capped at 1 against roundoff.

    One rule keeps the monomials finite in a product: a monomial whose coefficients are
    all zero is dropped before it is multiplied (``_live``). Every sum over the short
    monomial axis is einsum's elementwise sum of products, not a BLAS matrix product, so
    that a point's columns do not depend on how many points share the call.

    ``kernel`` is the ``_kernel(noise)`` entry of the noise, whose tables were built in
    the frame of the compensator's orientation, -T a normalized.
    """
    p, _, _, trace_weights, first, bloch, second, minors = kernel
    powers = np.ones((2, 3, gamma_a.size))  # 1, x, x^2 and 1, y, y^2
    np.exp(-gamma_a, out=powers[0, 1])
    np.exp(-gamma_b, out=powers[1, 1])
    np.multiply(powers[:, 1], powers[:, 1], out=powers[:, 2])
    monomials = np.einsum("in,jn->nij", powers[0], powers[1]).reshape(-1, 9)
    trace = np.einsum("nm,m->n", monomials, trace_weights)
    transmission = _transmission(trace, gamma_a, gamma_b)
    monomials /= trace[:, None]  # each over T
    bloch = np.einsum("nm,mo->no", monomials[:, first], bloch).reshape(-1, 3, 3)
    values = np.empty((gamma_a.size, 3, 2))  # the larger and the smaller eigenvalue of each G
    larger, smaller = values[..., 0], values[..., 1]
    np.sqrt(np.einsum("nri,nri->nr", bloch, bloch), out=larger)
    larger += 1
    larger /= 2
    det = np.einsum("nm,mr->nr", monomials[:, second] ** 2, minors)
    np.divide(det, larger, out=smaller)
    s_ab, s_a, s_b = _entropy_bits(values).T
    mutual_info = normalization * _information_bits(s_a, s_b, s_ab)
    concurrences = np.minimum((1 - p) * monomials[:, 4], 1.0)
    columns = zip(gamma_a.tolist(), gamma_b.tolist(), repeat(strategy), mutual_info.tolist(),
                  concurrences.tolist(), transmission.tolist())
    return list(map(tuple.__new__, repeat(SweepPoint), columns))


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
    kernel = _kernel(noise)
    if strategy == "none":
        gamma_b = np.zeros_like(gamma_a)
    elif strategy == "match":
        gamma_b = gamma_a
    else:
        gamma_b = _optimum(kernel[1], gamma_a)
    return _evaluate(kernel, gamma_a, gamma_b, strategy, normalization)


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
    return _evaluate(_kernel(noise), np.repeat(gamma_a, ratios.size), gamma_b, "ratio", 1.0)


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
    """Concurrence times transmission of the filtered pair, e^(-gA-gB) C(rho).

    The module's rule C' T = e^(-gA-gB) C0, so no filtered pair is formed: the
    input is validated and decomposed once, by ``concurrence``. Independent of
    either filter orientation at fixed magnitudes, which is the rate-vs-quality
    tradeoff of local filtering. Filters that block the state raise no
    ``FilterBlockedError``: the product is returned, 0.0 once it underflows.
    """
    return math.exp(-f_a.magnitude - f_b.magnitude) * concurrence(rho_in)


def sweep_to_csv(points: list[SweepPoint]) -> str:
    """Fixed-column CSV; floats use %.12g so artifacts are byte-reproducible."""
    return "\n".join([CSV_HEADER, *(_CSV_ROW % p for p in points)]) + "\n"


def sweep_to_json(points: list[SweepPoint]) -> list[dict]:
    """JSON array with the same columns and order as the CSV."""
    return [dict(zip(_COLUMNS, p)) for p in points]

