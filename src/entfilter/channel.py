"""Polarization-channel elements acting on the two photons of a Bell pair.

Channel A is modeled as a decohering birefringent element followed by an
inherent mode filter; channel B holds the operator-controlled compensating
filter. Filters are partial polarizers P = exp(g/2 axis.sigma) in Jones
space, applied in the physically normalized form e^(-g/2) P whose favored
mode passes with unit probability; the decoherence is a probabilistic Pauli
map obtained either directly (mixing weight p) or from the spectral average
of a fixed birefringence over the photon bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import _dagger, hermitian_eig, kron
from .qstate import IDENTITY_2, PSD_TOL, bell_state, pauli_dot
from .qstate import _spectrum, _unit_components

X_AXIS = (1.0, 0.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)
_PHI_PLUS = bell_state("phi+")  # the pair every noisy channel state starts from

# Log of the trace below which a filter pair P_A x P_B has blocked the state.
_LOG_BLOCKED_TRACE = np.log(1e-14)
# Smallest normal double: a pair trace below it is subnormal, and dividing by it overflows.
_TINY = np.finfo(float).tiny


class FilterBlockedError(ValueError):
    """The filter pair annihilates the state (normalization trace below 1e-14)."""


def _as_unit_tuple(v) -> tuple[float, float, float]:
    x, y, z = _unit_components(np.asarray(v, dtype=float))
    # + 0.0 turns IEEE -0.0 into +0.0 for clean serialization
    return (x + 0.0, y + 0.0, z + 0.0)


@dataclass(frozen=True)
class FilterElement:
    """A partial polarizer: magnitude g >= 0 and a unit Stokes orientation.

    The orientation points at the favored polarization mode; the orthogonal
    mode is attenuated by e^(-g) in amplitude, e^(-2g) in power.
    """

    magnitude: float
    orientation: tuple[float, float, float]

    def __post_init__(self):
        if not self.magnitude >= 0:  # also rejects NaN
            raise ValueError("filter magnitude must be >= 0")
        object.__setattr__(self, "magnitude", float(self.magnitude))
        object.__setattr__(self, "orientation", _as_unit_tuple(self.orientation))


@dataclass(frozen=True)
class PauliNoiseSpec:
    """Probabilistic Pauli noise: unit axis in Stokes space, mixing weight p."""

    axis: tuple[float, float, float]
    p: float

    def __post_init__(self):
        object.__setattr__(self, "axis", _as_unit_tuple(self.axis))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("mixing weight p must lie in [0, 1]")
        object.__setattr__(self, "p", float(self.p))

    @classmethod
    def bit_flip(cls, p: float) -> "PauliNoiseSpec":
        """Noise axis on the equator (perpendicular to the filter axis)."""
        return cls(X_AXIS, p)

    @classmethod
    def phase_flip(cls, p: float) -> "PauliNoiseSpec":
        """Noise axis at the pole (collinear with the filter axis)."""
        return cls(Z_AXIS, p)


@dataclass(frozen=True)
class BirefringenceSpec:
    """A fixed birefringent element seen by a photon of finite bandwidth.

    ``dgd`` is the differential group delay between the polarization modes in
    ps; ``spectral_width`` is the RMS angular-frequency width of the photon
    wavepacket in rad/ps; ``axis`` is the birefringence direction in Stokes
    space.
    """

    dgd: float
    axis: tuple[float, float, float]
    spectral_width: float

    def __post_init__(self):
        # chained comparisons are False for NaN
        if not 0 <= self.dgd < np.inf:
            raise ValueError("differential group delay must be finite and >= 0")
        if not 0 < self.spectral_width < np.inf:
            raise ValueError("spectral width must be finite and > 0")
        object.__setattr__(self, "axis", _as_unit_tuple(self.axis))


def _filter_projectors(axis) -> tuple[np.ndarray, np.ndarray]:
    # P+ and P- = (I +- axis.sigma)/2, onto the mode a filter along axis favors and the one it attenuates
    n = pauli_dot(axis)
    return (IDENTITY_2 + n) / 2, (IDENTITY_2 - n) / 2


def _normalized_filter(f: FilterElement) -> np.ndarray:
    # e^(-g/2) P = P+ + e^-g P-: no cancellation
    plus, minus = _filter_projectors(f.orientation)
    return plus + np.exp(-f.magnitude) * minus


def filter_operator(f: FilterElement) -> np.ndarray:
    """Jones operator of a filter: P = cosh(g/2) I + sinh(g/2) (axis . sigma).

    Hermitian and positive definite with eigenvalues e^(+-g/2), hence
    determinant 1. An infinite magnitude (a perfect polarizer, which
    ``apply_filters`` takes) has no finite operator and raises ValueError.
    """
    if f.magnitude == np.inf:
        raise ValueError("filter operator of an infinite magnitude is not finite")
    return np.exp(f.magnitude / 2) * _normalized_filter(f)


def pauli_channel_state(spec: PauliNoiseSpec) -> np.ndarray:
    """Two-qubit state of a Bell pair whose qubit A passed the noise map.

    Applies rho -> (1 - p/2) rho + (p/2) (axis.sigma) rho (axis.sigma) to the
    first qubit of the phi+ projector. For axis = x this is the bit-flip
    mixture with Bell weights (1 - p/2, p/2) on (phi+, psi+); for axis = z the
    phase-flip mixture with the same weights on (phi+, phi-).
    """
    flip = kron(pauli_dot(spec.axis), IDENTITY_2)
    return (1 - spec.p / 2) * _PHI_PLUS + (spec.p / 2) * (flip @ _PHI_PLUS @ flip)


def dephasing_from_spectrum(spec: BirefringenceSpec) -> PauliNoiseSpec:
    """Equivalent Pauli noise of a birefringent element, spectrally averaged.

    A Gaussian wavepacket of RMS width sigma traversing a differential group
    delay tau decoheres by d = exp(-tau^2 sigma^2 / 2); the frequency-averaged
    channel equals the probabilistic Pauli map along the same axis with
    p = 1 - d. The exponent is formed from the product x = tau sigma, as
    -x^2/2, so that no separate square overflows or underflows, and p as
    -expm1(-x^2/2), so that it does not cancel at small x.
    """
    x = float(spec.dgd) * float(spec.spectral_width)
    return PauliNoiseSpec(axis=spec.axis, p=float(-np.expm1(-(x * x) / 2)))


def apply_filters(
    rho_in, f_a: FilterElement, f_b: FilterElement
) -> tuple[np.ndarray, float]:
    """Filter both qubits and renormalize.

    Returns ``(rho_f, transmission)`` where

        rho_f = (P_A x P_B) rho (P_A x P_B)^dagger / Tr[...]

    and ``transmission`` is the pair-survival probability for the physically
    normalized filters e^(-g/2) P, whose favored mode passes with unit
    probability. Raises :class:`FilterBlockedError` when the filters remove
    the state entirely, and ``ValueError`` when the returned state is not
    physical: an input accepted with an eigenvalue just below 0 (within
    ``PSD_TOL``) has it divided by the transmission.
    """
    state, values, transmission = _filter_pair(_spectrum(rho_in)[0], f_a, f_b)
    lowest = values[-1]
    if lowest < -PSD_TOL:
        raise ValueError(
            f"filtering amplified a negative eigenvalue of the input to {lowest:.3e} "
            f"(transmission {transmission:.3e})"
        )
    return state, transmission


def _filter_pair(rho, f_a: FilterElement, f_b: FilterElement):
    # apply_filters of a valid 4x4 state: the filtered state, its hermitian_eig
    # eigenvalues and the transmission. The matrix path, for states from outside and for
    # optimize; a sweep's curves take recover's closed-form kernel
    pair = kron(_normalized_filter(f_a), _normalized_filter(f_b))
    out = pair @ rho @ _dagger(pair)
    trace = out.trace().real
    transmission = float(_transmission(trace, f_a.magnitude, f_b.magnitude))
    state = out / trace
    state = (state + _dagger(state)) / 2
    return state, hermitian_eig(state)[0], transmission


def _transmission(trace, gamma_a, gamma_b) -> np.ndarray:
    # the transmission of one pair, or of N pairs, that the normalized filters of magnitudes
    # gamma_a, gamma_b leave with these traces, capped at 1 against roundoff; every filtered
    # pair, on the matrix path and in recover's kernel, passes these blocked and subnormal rules
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the trace P_A x P_B leaves, in logs so that large magnitudes cannot overflow
        # it; a sum that reaches +inf still means "not blocked"
        log_trace = np.log(trace) + gamma_a + gamma_b
    passed = log_trace >= _LOG_BLOCKED_TRACE  # NaN counts as blocked
    if not passed.all():
        raise FilterBlockedError(
            "filters block the state entirely (normalization trace "
            f"{np.exp(log_trace[~passed][0]):.3e})"
        )
    # no trace is NaN or negative here, as its log would have blocked; an empty grid has none
    lowest = trace.min(initial=np.inf)
    if lowest < _TINY:
        raise ValueError(f"filter magnitudes too large to renormalize: the trace {lowest:.3e} is subnormal")
    return np.minimum(1.0, trace)
