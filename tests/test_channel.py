import math

import numpy as np
import pytest

from entfilter.channel import (
    BirefringenceSpec,
    FilterBlockedError,
    FilterElement,
    PauliNoiseSpec,
    apply_filters,
    dephasing_from_spectrum,
    filter_operator,
    pauli_channel_state,
)
from entfilter.qstate import (
    IDENTITY_2,
    bell_diagonal_weights,
    bell_state,
    mutual_information,
    pauli_dot,
    validate_density_matrix,
)

from helpers import random_density_matrix, random_unit_vector

Z = (0.0, 0.0, 1.0)
MINUS_Z = (0.0, 0.0, -1.0)


def spectral_average_channel(rho, axis, dgd, width, nodes=2001, span=10.0):
    """Quadrature oracle: integrate U(w) rho U(w)^dag over a Gaussian spectrum.

    U is the Jones rotation built from first principles here (cos/sin).
    """
    omega = np.linspace(-span * width, span * width, nodes)
    weight = np.exp(-(omega**2) / (2 * width**2))
    weight /= np.trapezoid(weight, omega)
    ns = pauli_dot(axis)
    out = np.zeros((2, 2), dtype=complex)
    for w, om in zip(weight, omega):
        half = dgd * om / 2
        u = math.cos(half) * IDENTITY_2 - 1j * math.sin(half) * ns
        out += w * (u @ rho @ u.conj().T)
    return out * (omega[1] - omega[0])


class TestFilterElement:
    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            FilterElement(-0.1, Z)

    def test_rejects_nan_magnitude(self):
        with pytest.raises(ValueError, match="magnitude"):
            FilterElement(float("nan"), Z)

    def test_rejects_non_unit_orientation(self):
        with pytest.raises(ValueError):
            FilterElement(0.5, (1.0, 1.0, 0.0))

    def test_rejects_nan_orientation(self):
        with pytest.raises(ValueError, match="unit norm"):
            FilterElement(0.5, (float("nan"), 0.0, 0.0))


class TestFilterOperator:
    def test_zero_magnitude_is_identity(self):
        for axis in (Z, (1.0, 0.0, 0.0)):
            assert np.allclose(filter_operator(FilterElement(0.0, axis)), np.eye(2))

    def test_diagonal_along_z(self):
        t = 0.4
        gamma = 2 * math.atanh(t)
        p = filter_operator(FilterElement(gamma, Z))
        expected = np.diag([math.exp(gamma / 2), math.exp(-gamma / 2)])
        assert np.allclose(p, expected, atol=1e-14)

    def test_frozen_eigenvalues(self):
        # e^{+-0.857/2} from independent scalar evaluation
        p = filter_operator(FilterElement(0.857, Z))
        assert p[0, 0].real == pytest.approx(1.5349, abs=1e-4)
        assert p[1, 1].real == pytest.approx(0.6515, abs=1e-4)

    def test_hermitian_positive_definite_unit_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = FilterElement(rng.uniform(0, 3), tuple(random_unit_vector(rng)))
            p = filter_operator(f)
            assert np.linalg.norm(p - p.conj().T) < 1e-12
            w = np.linalg.eigvalsh(p)
            assert np.all(w > 0)
            assert abs(np.linalg.det(p).real - 1.0) < 1e-12
            expected = sorted([math.exp(f.magnitude / 2), math.exp(-f.magnitude / 2)])
            assert np.allclose(np.sort(w), expected, rtol=1e-12)


class TestPauliChannelState:
    def test_noiseless(self):
        rho = pauli_channel_state(PauliNoiseSpec.bit_flip(0.0))
        assert np.allclose(rho, bell_state("phi+"), atol=1e-15)

    def test_bitflip_weights(self):
        w = bell_diagonal_weights(pauli_channel_state(PauliNoiseSpec.bit_flip(0.33)))
        assert w["phi+"] == pytest.approx(0.835, abs=1e-12)
        assert w["psi+"] == pytest.approx(0.165, abs=1e-12)

    def test_phaseflip_weights(self):
        w = bell_diagonal_weights(pauli_channel_state(PauliNoiseSpec.phase_flip(0.33)))
        assert w["phi+"] == pytest.approx(0.835, abs=1e-12)
        assert w["phi-"] == pytest.approx(0.165, abs=1e-12)

    def test_output_is_valid_state(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = PauliNoiseSpec(tuple(random_unit_vector(rng)), rng.uniform(0, 1))
            validate_density_matrix(pauli_channel_state(spec))

    def test_rank_at_most_two(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec = PauliNoiseSpec(tuple(random_unit_vector(rng)), rng.uniform(0, 1))
            w = np.linalg.eigvalsh(pauli_channel_state(spec))
            assert np.sum(w > 1e-12) <= 2

    def test_axis_aligned_states_have_two_bell_weights(self):
        for spec in (PauliNoiseSpec.bit_flip(0.4), PauliNoiseSpec.phase_flip(0.4)):
            w = bell_diagonal_weights(pauli_channel_state(spec))
            small = sorted(abs(v) for v in w.values())[:2]
            assert all(v < 1e-12 for v in small)

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError):
            PauliNoiseSpec.bit_flip(1.2)


class TestDephasingFromSpectrum:
    def test_zero_dgd(self):
        spec = BirefringenceSpec(0.0, (1.0, 0.0, 0.0), 0.5)
        assert dephasing_from_spectrum(spec).p == 0.0

    def test_wide_spectrum_limit(self):
        spec = BirefringenceSpec(20.0, Z, 50.0)
        assert dephasing_from_spectrum(spec).p == pytest.approx(1.0, abs=1e-12)

    def test_experimental_operating_point(self):
        # tau * sigma = 0.8944 reproduces the p ~ 0.33 noise level
        spec = BirefringenceSpec(2.0, Z, 0.4472)
        assert dephasing_from_spectrum(spec).p == pytest.approx(0.33, abs=1e-3)

    def test_axis_preserved(self):
        axis = tuple(random_unit_vector(np.random.default_rng(2)))
        spec = BirefringenceSpec(1.0, axis, 1.0)
        assert dephasing_from_spectrum(spec).axis == pytest.approx(axis)

    @pytest.mark.parametrize(
        "dgd, width, message",
        [
            (float("nan"), 0.5, "group delay must be finite"),
            (float("inf"), 0.5, "group delay must be finite"),
            (-0.1, 0.5, "group delay must be finite and >= 0"),
            (1.0, float("nan"), "spectral width must be finite"),
            (0.0, float("inf"), "spectral width must be finite"),
            (1.0, 0.0, "spectral width must be finite and > 0"),
        ],
    )
    def test_rejects_bad_birefringence(self, dgd, width, message):
        with pytest.raises(ValueError, match=message):
            BirefringenceSpec(dgd, Z, width)

    def test_matches_quadrature_average(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            axis = random_unit_vector(rng)
            dgd = rng.uniform(0.1, 2.0)
            width = rng.uniform(0.1, 1.0)
            rho = random_density_matrix(rng, dim=2)
            averaged = spectral_average_channel(rho, axis, dgd, width)
            noise = dephasing_from_spectrum(BirefringenceSpec(dgd, tuple(axis), width))
            ns = pauli_dot(axis)
            closed = (1 - noise.p / 2) * rho + (noise.p / 2) * (ns @ rho @ ns)
            assert np.max(np.abs(averaged - closed)) < 1e-6


class TestApplyFilters:
    def test_identity_filters(self):
        rho = pauli_channel_state(PauliNoiseSpec.bit_flip(0.33))
        rho_f, transmission = apply_filters(rho, FilterElement(0.0, Z), FilterElement(0.0, Z))
        assert np.allclose(rho_f, rho, atol=1e-14)
        assert transmission == pytest.approx(1.0, abs=1e-12)

    def test_opposing_filters_leave_phi_plus_invariant(self):
        phi = bell_state("phi+")
        gamma = 0.9
        rho_f, transmission = apply_filters(
            phi, FilterElement(gamma, Z), FilterElement(gamma, MINUS_Z)
        )
        assert np.allclose(rho_f, phi, atol=1e-13)
        assert transmission == pytest.approx(math.exp(-2 * gamma), rel=1e-12)

    def test_single_filter_reduces_mutual_information(self):
        rho = pauli_channel_state(PauliNoiseSpec.phase_flip(0.33))
        rho_f, _ = apply_filters(rho, FilterElement(0.857, Z), FilterElement(0.0, Z))
        assert mutual_information(rho_f) < mutual_information(rho)

    def test_output_valid_and_unit_trace(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            rho = random_density_matrix(rng)
            f_a = FilterElement(rng.uniform(0, 2), tuple(random_unit_vector(rng)))
            f_b = FilterElement(rng.uniform(0, 2), tuple(random_unit_vector(rng)))
            rho_f, transmission = apply_filters(rho, f_a, f_b)
            assert abs(np.trace(rho_f).real - 1.0) < 1e-12
            validate_density_matrix(rho_f)
            assert 0.0 < transmission <= 1.0

    def test_blocked_state_raises(self):
        # |VV><VV| against two strong H-passing filters
        vv = np.zeros((4, 4), dtype=complex)
        vv[3, 3] = 1.0
        with pytest.raises(FilterBlockedError):
            apply_filters(vv, FilterElement(20.0, Z), FilterElement(20.0, Z))

    def test_diagonal_mechanism_for_bitflip_noise(self):
        # opposing equal filters keep the co-polarized coincidence
        # probabilities equal while pumping up the HV cross term
        for p in (0.1, 0.33, 0.7):
            rho = pauli_channel_state(PauliNoiseSpec.bit_flip(p))
            for gamma in (0.3, 0.857, 1.5):
                rho_f, _ = apply_filters(
                    rho, FilterElement(gamma, Z), FilterElement(gamma, MINUS_Z)
                )
                assert abs(rho_f[0, 0].real - rho_f[3, 3].real) < 1e-12
                assert rho_f[1, 1].real > rho[1, 1].real
