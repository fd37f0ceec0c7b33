import functools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from entfilter import channel, recover
from entfilter.cli import main
from entfilter.channel import FilterBlockedError, FilterElement, PauliNoiseSpec, apply_filters, filter_operator
from entfilter.channel import pauli_channel_state
from entfilter.channel import _filter_pair
from entfilter.qmat import hermitian_eig
from entfilter.qstate import SIGMA_X, SIGMA_Y, SIGMA_Z, bell_state, concurrence, correlation_matrix
from entfilter.qstate import fidelity_pure, mutual_information, unit_stokes_vector, validate_density_matrix
from entfilter.qstate import BELL_LABELS, _PAULI_BASIS, _spectrum
from entfilter.recover import (
    CSV_HEADER,
    STRATEGIES,
    RecoveryPlan,
    SweepPoint,
    argmax_ratio,
    average_entanglement,
    concurrence_after_filtering,
    optimal_magnitude,
    plan_recovery,
    ratio_scan,
    sweep,
    sweep_to_csv,
    sweep_to_json,
    _compensator,
    _filter_a_correlations,
)

from helpers import (
    BELL_PROJECTORS,
    count_calls,
    random_bell_diagonal,
    random_rank2_bell_diagonal,
    random_unit_vector,
    record_eigh_shapes,
)
from oracle import filtered_pair

Z = (0.0, 0.0, 1.0)
MINUS_Z = (0.0, 0.0, -1.0)

BITFLIP = PauliNoiseSpec.bit_flip(0.33)
PHASEFLIP = PauliNoiseSpec.phase_flip(0.33)

# unit noise axes from a polar angle near +z, near -z or anywhere, and an azimuth
NOISE_AXES = st.tuples(
    st.one_of(st.floats(0.0, 1e-6), st.floats(math.pi - 1e-6, math.pi), st.floats(0.0, math.pi)),
    st.floats(0.0, 2 * math.pi),
).map(lambda polar: (
    math.sin(polar[0]) * math.cos(polar[1]), math.sin(polar[0]) * math.sin(polar[1]), math.cos(polar[0])
))

# Mutual information of the unfiltered p = 0.33 mixtures (2 minus the binary
# entropy of {0.835, 0.165}); same independent oracle as in test_qstate.
MI_UNFILTERED = 2.0 + 0.835 * math.log2(0.835) + 0.165 * math.log2(0.165)


def compensator_orientation(t, a):
    # the compensator's orientation behind a filter A along a, by the rule sweeps and plans share
    a = np.asarray(a, dtype=float)
    return _compensator(np.asarray(t, dtype=float) @ a, a)[1]


class TestConcurrenceAfterFiltering:
    def test_no_filtering_returns_input(self):
        t = np.diag([1.0, -0.67, 0.67])
        out = concurrence_after_filtering(
            0.67, t, FilterElement(0.0, Z), FilterElement(0.0, MINUS_Z)
        )
        assert out == pytest.approx(0.67, abs=1e-15)

    def test_hyperbolic_cancellation_for_phaseflip_geometry(self):
        # T z = z, compensator at -z with equal magnitude: the denominator is
        # cosh^2 - sinh^2 = 1 for every magnitude
        p = 0.33
        t = np.diag([1 - p, -(1 - p), 1.0])
        for gamma in (0.2, 0.857, 1.5, 18.0, 300.0):
            out = concurrence_after_filtering(
                1 - p, t, FilterElement(gamma, Z), FilterElement(gamma, MINUS_Z)
            )
            assert out == pytest.approx(1 - p, abs=1e-12)

    def test_bitflip_optimum_matches_numerical_filtering(self):
        rho = pauli_channel_state(BITFLIP)
        t = correlation_matrix(rho)
        gamma_a = 0.857
        gamma_b = optimal_magnitude(t, Z, gamma_a)
        orientation = compensator_orientation(t, Z)
        f_a = FilterElement(gamma_a, Z)
        f_b = FilterElement(gamma_b, orientation)
        closed = concurrence_after_filtering(0.67, t, f_a, f_b)
        rho_f, _ = apply_filters(rho, f_a, f_b)
        assert closed == pytest.approx(concurrence(rho_f), abs=1e-12)

    def test_rejects_non_diagonal_correlation(self):
        t = np.ones((3, 3))
        with pytest.raises(ValueError, match="diagonal"):
            concurrence_after_filtering(0.5, t, FilterElement(0.1, Z), FilterElement(0.1, Z))

    @pytest.mark.parametrize("entry, accepted", [(5e-10, True), (2e-9, False)])
    def test_correlation_matrix_diagonal_within_1e9(self, entry, accepted):
        t = _T + entry * np.eye(3, k=1)
        if accepted:
            concurrence_after_filtering(0.67, t, _F_A, _F_B)
        else:
            with pytest.raises(ValueError, match="must be diagonal"):
                concurrence_after_filtering(0.67, t, _F_A, _F_B)

    def test_rejects_collapsing_denominator(self):
        # an unphysical correlation gain drives the denominator negative
        t = np.diag([1.0, 1.0, -3.0])
        with pytest.raises(ValueError, match="denominator"):
            concurrence_after_filtering(
                0.5, t, FilterElement(2.0, Z), FilterElement(2.0, Z)
            )

    @pytest.mark.parametrize("excess, accepted", [(5e-10, True), (2e-9, False)])
    def test_c0_ceiling_within_1e9(self, excess, accepted):
        # c0 up to 1 + 1e-9 is accepted as the roundoff of a maximally entangled state
        if accepted:
            assert concurrence_after_filtering(1.0 + excess, _T, _F_A, _F_B) > 0.0
        else:
            with pytest.raises(ValueError, match=r"c0 must lie in \[0, 1\]"):
                concurrence_after_filtering(1.0 + excess, _T, _F_A, _F_B)

    def test_roundoff_negative_c0_gives_exactly_zero(self):
        # c0 down to -1e-12 is accepted as the roundoff of a separable state's concurrence
        assert concurrence_after_filtering(-1e-13, _T, _F_A, _F_B) == 0.0

    def test_roundoff_c0_above_one_gives_the_bits_of_one(self):
        # c0 up to 1 + 1e-9 is the roundoff of a maximally entangled state, clamped to 1
        # as roundoff below 0 is clamped to 0
        t = np.diag([1.0, -1.0, 1.0])
        for f_a, f_b in ((FilterElement(0.0, Z), FilterElement(0.0, MINUS_Z)), (_F_A, _F_B)):
            capped = concurrence_after_filtering(1.0 + 5e-10, t, f_a, f_b)
            assert capped.hex() == concurrence_after_filtering(1.0, t, f_a, f_b).hex()

    def test_matches_brute_force_on_random_rank2_states(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            rho = random_rank2_bell_diagonal(rng)
            c0 = concurrence(rho)
            t = correlation_matrix(rho)
            f_a = FilterElement(rng.uniform(0, 2), tuple(random_unit_vector(rng)))
            f_b = FilterElement(rng.uniform(0, 2), tuple(random_unit_vector(rng)))
            rho_f, _ = apply_filters(rho, f_a, f_b)
            assert concurrence_after_filtering(c0, t, f_a, f_b) == pytest.approx(
                concurrence(rho_f), abs=1e-9
            )


class TestOptimalOrientation:
    """The compensator's orientation, -T a normalized, that sweeps and plans share."""

    def test_phaseflip_geometry(self):
        t = np.diag([0.67, -0.67, 1.0])
        gain, orientation = _compensator(t @ np.asarray(Z), Z)
        assert gain == 1.0
        assert np.allclose(orientation, MINUS_Z, atol=1e-15)
        assert (t @ np.asarray(Z)) @ orientation == pytest.approx(-1.0, abs=1e-15)

    def test_bitflip_geometry_reaches_minus_concurrence(self):
        # filter A sits on a correlation axis of magnitude C, so the best
        # achievable dot product is -C
        p = 0.33
        t = np.diag([1.0, -(1 - p), 1 - p])
        orientation = _compensator(t @ np.asarray(Z), Z)[1]
        assert (t @ np.asarray(Z)) @ orientation == pytest.approx(-(1 - p), abs=1e-12)

    def test_isotropic_correlations(self):
        rng = np.random.default_rng(3)
        a = random_unit_vector(rng)
        orientation = _compensator(np.eye(3) @ a, a)[1]
        assert np.allclose(orientation, -a, atol=1e-12)

    def test_undefined_when_vector_vanishes(self):
        # below |T a| = 1e-12, -T a has no reliable direction and the antipode of
        # a stands in; just above, -T a normalized is taken even against a
        for scale, sign in ((0.0, -1.0), (-9e-13, -1.0), (-2e-12, 1.0)):
            assert _compensator((0.0, 0.0, scale), Z) == (abs(scale), (0.0, 0.0, sign))
            assert _compensator((scale, 0.0, 0.0), (1.0, 0.0, 0.0)) == (abs(scale), (sign, 0.0, 0.0))

    def test_plan_with_vanishing_vector_takes_the_antipode(self):
        # equal phi+ and psi+ weights: T = diag(1, 0, 0), so T z = 0, and nothing to recover
        rho = (bell_state("phi+") + bell_state("psi+")) / 2
        plan = plan_recovery(rho, FilterElement(0.5, Z))
        assert plan.nothing_to_recover and plan.orientation_b == MINUS_Z


class TestOptimalMagnitude:
    def test_phaseflip_matches_gamma_a(self):
        t = np.diag([0.67, -0.67, 1.0])
        for gamma_a in (0.3, 0.857, 2.0, 18.0, 25.0):
            assert optimal_magnitude(t, Z, gamma_a) == gamma_a

    def test_zero_gamma_a(self):
        t = np.diag([1.0, -0.67, 0.67])
        assert optimal_magnitude(t, Z, 0.0) == 0.0

    def test_bitflip_ratio_is_near_059(self):
        t = correlation_matrix(pauli_channel_state(BITFLIP))
        for gamma_a in (0.820, 0.857, 0.869):
            ratio = optimal_magnitude(t, Z, gamma_a) / gamma_a
            assert ratio == pytest.approx(0.59, abs=0.01)

    def test_closed_form_value(self):
        t = correlation_matrix(pauli_channel_state(BITFLIP))
        expected = math.atanh(0.67 * math.tanh(0.857))
        assert optimal_magnitude(t, Z, 0.857) == pytest.approx(expected, abs=1e-12)

    def test_never_exceeds_gamma_a(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = random_bell_diagonal(rng)
            t = correlation_matrix(rho)
            a = random_unit_vector(rng)
            gamma_a = rng.uniform(0, 3)
            assert optimal_magnitude(t, a, gamma_a) <= gamma_a + 1e-12

    def test_rejects_unphysical_correlation_matrix(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            optimal_magnitude(np.diag([2.0, 0.0, 0.0]), (1.0, 0.0, 0.0), 0.5)

    @pytest.mark.parametrize("excess, accepted", [(5e-10, True), (2e-9, False)])
    def test_gain_ceiling_within_1e9(self, excess, accepted):
        # ||T a|| up to 1 + 1e-9 is roundoff of 1, where gamma_b = gamma_a
        t = np.diag([0.0, 0.0, 1.0 + excess])
        if accepted:
            assert optimal_magnitude(t, Z, 0.857) == 0.857
        else:
            with pytest.raises(ValueError, match="exceeds 1"):
                optimal_magnitude(t, Z, 0.857)


class TestPlanRecovery:
    def test_bitflip_plan(self):
        rho = pauli_channel_state(BITFLIP)
        plan = plan_recovery(rho, FilterElement(0.857, Z))
        assert plan.gamma_b_opt == pytest.approx(math.atanh(0.67 * math.tanh(0.857)), abs=1e-12)
        assert np.allclose(plan.orientation_b, MINUS_Z)
        assert not plan.nothing_to_recover
        # prediction agrees with brute-force filtering
        f_b = FilterElement(plan.gamma_b_opt, plan.orientation_b)
        rho_f, _ = apply_filters(rho, FilterElement(0.857, Z), f_b)
        assert plan.predicted_concurrence == pytest.approx(concurrence(rho_f), abs=1e-12)

    def test_separable_input_yields_noop_plan(self):
        rho = pauli_channel_state(PauliNoiseSpec.bit_flip(1.0))  # C = 0
        plan = plan_recovery(rho, FilterElement(0.857, Z))
        assert plan.nothing_to_recover
        assert plan.gamma_b_opt == 0.0
        assert plan.predicted_concurrence == 0.0

    def test_noop_plan_takes_the_sweep_orientation(self):
        # (psi+ + psi-)/2 has C = 0 and T = diag(0, 0, -1), so -T a = +z behind a +z filter
        rho = (bell_state("psi+") + bell_state("psi-")) / 2
        plan = plan_recovery(rho, FilterElement(0.857, Z))
        assert plan.nothing_to_recover
        assert plan.orientation_b == (0.0, 0.0, 1.0)

    def test_decomposes_its_input_once(self, monkeypatch):
        rho = pauli_channel_state(BITFLIP)
        shapes = record_eigh_shapes(monkeypatch)
        plan_recovery(rho, FilterElement(0.857, Z))
        assert shapes == [(4, 4)]

    def test_makes_no_svd(self, monkeypatch):
        # C0 = 2 w_max - 1 from the spectrum the validation took: no Wootters SVD
        svds = count_calls(monkeypatch, np.linalg, "svd")
        plan_recovery(pauli_channel_state(BITFLIP), FilterElement(0.857, Z))
        assert svds == []

    @pytest.mark.parametrize("gamma_a", [0.0, 0.857])
    @pytest.mark.parametrize("label", BELL_LABELS)
    def test_bell_states_predict_exactly_one(self, label, gamma_a):
        # w_max = 1 gives C0 = 1, and the compensator matches filter A, so C' = C0 to the bit
        plan = plan_recovery(bell_state(label), FilterElement(gamma_a, Z))
        assert plan.gamma_b_opt == gamma_a
        assert plan.predicted_concurrence == 1.0

    @pytest.mark.parametrize("noise", ["bitflip", "phaseflip"])
    def test_optimize_prediction_matches_oracle(self, capsys, noise):
        # the report's predicted concurrence at its own gamma_b against the 40-digit oracle
        for p in (0.0, 0.01, 0.1, 0.33, 0.5, 0.9, 0.99):
            for gamma_a in (0.0, 0.1, 0.5, 0.857, 1.0, 2.0, 5.0, 10.0, 30.0):
                assert main(["optimize", "--noise", noise, "--p", repr(p), "--gamma-a", repr(gamma_a)]) == 0
                report = json.loads(capsys.readouterr().out)
                expected = filtered_pair(noise, p, gamma_a, report["gamma_b_opt"])[1]
                assert abs(report["predicted_concurrence"] - expected) <= 4e-15 * expected

    @pytest.mark.parametrize("weight", [0.7, 0.5])
    def test_rejects_state_with_local_polarization(self, weight):
        # psi- mixed with |HH><HH| has diagonal T but local Stokes vectors along z;
        # at 0.7 the closed form predicted C = 0.524 where filtering gives 0.398
        hh = np.zeros((4, 4))
        hh[0, 0] = 1.0
        rho = weight * bell_state("psi-") + (1 - weight) * hh
        with pytest.raises(ValueError, match="Bell-diagonal state"):
            plan_recovery(rho, FilterElement(0.857, Z))

    @pytest.mark.parametrize(
        "rho",
        [
            # phi+ rotated on qubit A by exp(-i 0.4 sigma_z / 2): entangled, zero local
            # vectors, T rotated off its diagonal by 0.4 rad
            np.kron(np.diag(np.exp([-0.2j, 0.2j])), np.eye(2)) @ bell_state("phi+")
            @ np.kron(np.diag(np.exp([0.2j, -0.2j])), np.eye(2)),
            # (I + 0.3 sigma_x x sigma_y) / 4: separable, so only the off-diagonal T
            # tells it from a state whose plan is nothing_to_recover
            (np.eye(4) + 0.3 * np.kron(SIGMA_X, SIGMA_Y)) / 4,
        ],
        ids=["rotated-phi-plus", "x-y-correlated"],
    )
    def test_rejects_off_diagonal_correlations(self, rho):
        with pytest.raises(ValueError, match="Bell-diagonal state"):
            plan_recovery(rho, FilterElement(0.857, Z))

    @pytest.mark.parametrize("pauli_a, pauli_b", [(SIGMA_X, SIGMA_Y), (SIGMA_Z, np.eye(2))])
    @pytest.mark.parametrize("entry, accepted", [(5e-10, True), (2e-9, False)])
    def test_stokes_matrix_diagonal_within_1e9(self, pauli_a, pauli_b, entry, accepted):
        # a full-rank Bell-diagonal state plus entry * sigma x sigma / 4 carries that
        # entry off the Stokes diagonal, in T (x, y) or in the local vector of A (z)
        rho = sum(w * b for w, b in zip((0.4, 0.3, 0.2, 0.1), BELL_PROJECTORS))
        rho = rho + entry * np.kron(pauli_a, pauli_b) / 4
        if accepted:
            plan_recovery(rho, FilterElement(0.857, Z))
        else:
            with pytest.raises(ValueError, match="Bell-diagonal state"):
                plan_recovery(rho, FilterElement(0.857, Z))

    def test_accepts_random_bell_diagonal_states(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = random_bell_diagonal(rng)
            plan = plan_recovery(rho, FilterElement(0.857, Z))
            if plan.nothing_to_recover:
                continue
            f_b = FilterElement(plan.gamma_b_opt, plan.orientation_b)
            rho_f, _ = apply_filters(rho, FilterElement(0.857, Z), f_b)
            assert plan.predicted_concurrence == pytest.approx(concurrence(rho_f), abs=1e-12)


def wrapper_plan(rho, f_a):
    # plan_recovery through the public closed forms, which check T again, and a filter B:
    # the optimal magnitude at every state, and a predicted concurrence only where
    # C0 = 2 w_max - 1, w_max the largest eigenvalue, is > 0
    rho, values, _ = _spectrum(rho)
    stokes = (rho @ _PAULI_BASIS).trace(axis1=-2, axis2=-1).real
    if np.max(np.abs(stokes - np.diag(np.diag(stokes)))) > 1e-9:
        raise ValueError(
            "plan_recovery requires a Bell-diagonal state: its Stokes matrix must be diagonal within 1e-9"
        )
    t = stokes[1:, 1:]
    c0 = 2 * float(values[0]) - 1
    orientation = compensator_orientation(t, f_a.orientation)
    magnitude = optimal_magnitude(t, f_a.orientation, f_a.magnitude)
    if c0 <= 0.0:
        return RecoveryPlan(magnitude, orientation, 0.0, nothing_to_recover=True)
    f_b = FilterElement(magnitude, orientation)
    return RecoveryPlan(magnitude, f_b.orientation, concurrence_after_filtering(c0, t, f_a, f_b))


def plan_outcome(plan, rho, f_a):
    # the plan's repr, which prints each float's bits, or the error's type and message
    try:
        return repr(plan(rho, f_a))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestPlanMatchesWrapperPlan:
    """plan_recovery equals its formulation through the public closed forms, errors included."""

    GAMMA_A = (0.0, 5e-324, 0.01, 0.3, 0.857, 2.0, 10.0, 19.0, 50.0, 150.0, 300.0, 380.0, 400.0, 1e308, math.inf)

    @pytest.mark.parametrize(
        "noise", [PauliNoiseSpec.bit_flip, PauliNoiseSpec.phase_flip], ids=["bitflip", "phaseflip"]
    )
    def test_noisy_pairs(self, noise):
        for p in [*np.linspace(0.0, 1.0, 41), 1e-300, 1.0 - 2**-53]:
            rho = pauli_channel_state(noise(p))
            for gamma_a in self.GAMMA_A:
                for axis in (Z, MINUS_Z, (1.0, 0.0, 0.0)):
                    f_a = FilterElement(gamma_a, axis)
                    assert plan_outcome(plan_recovery, rho, f_a) == plan_outcome(wrapper_plan, rho, f_a)

    def test_bell_diagonal_and_rejected_states(self):
        rng = np.random.default_rng(97)
        states = [random_bell_diagonal(rng) for _ in range(30)]
        states += [random_rank2_bell_diagonal(rng) for _ in range(30)]
        # two states the plan rejects: off-diagonal correlations, and a local Stokes vector
        states += [(np.eye(4) + 0.3 * np.kron(SIGMA_X, SIGMA_Y)) / 4]
        states += [0.7 * bell_state("psi-") + 0.3 * np.diag([1.0, 0.0, 0.0, 0.0])]
        for rho in states:
            for gamma_a in (0.0, 0.857, 300.0):
                f_a = FilterElement(gamma_a, tuple(random_unit_vector(rng)))
                assert plan_outcome(plan_recovery, rho, f_a) == plan_outcome(wrapper_plan, rho, f_a)


class TestOneOptimumRule:
    """plan_recovery, optimal_magnitude and the optimal sweep share one compensator rule."""

    P = (0.0, 0.01, 0.1, 0.33, 0.5, 0.9, 0.99, 1.0)
    GAMMA_A = (0.0, 0.1, 0.5, 0.857, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0)

    @pytest.mark.parametrize(
        "noise", [PauliNoiseSpec.bit_flip, PauliNoiseSpec.phase_flip], ids=["bitflip", "phaseflip"]
    )
    def test_plan_equals_the_one_point_optimal_sweep(self, noise):
        # the separable phase-flip pair at p = 1 included: its C0 is 0, and its ||T a|| = 1
        # still gives gamma_b = gamma_a. The plan reads T a from the pair's Stokes matrix,
        # the sweep takes it in closed form; where the two agree, so does the filter B, bit
        # for bit. Where they differ in the last bit (0.8999999999999999 against 0.9 for a
        # bit flip at p = 0.1), the optimum moves by up to that times its slope
        for p in self.P:
            spec = noise(p)
            rho = pauli_channel_state(spec)
            same_t_a = tuple(correlation_matrix(rho) @ np.asarray(Z)) == _filter_a_correlations(spec)
            for gamma_a in self.GAMMA_A:
                plan = plan_recovery(rho, FilterElement(gamma_a, Z))
                with mock.patch.object(recover, "_evaluate", wraps=recover._evaluate) as evaluate:
                    (point,) = sweep(spec, [gamma_a], "optimal", 1.0)
                orientation = evaluate.call_args.args[0][2]
                if same_t_a:
                    assert repr((plan.gamma_b_opt, plan.orientation_b)) == repr((point.gamma_b, orientation))
                else:
                    gain = math.hypot(*_filter_a_correlations(spec))
                    slope = math.tanh(gamma_a) / (1 - (gain * math.tanh(gamma_a)) ** 2)
                    assert plan.orientation_b == orientation
                    assert abs(plan.gamma_b_opt - point.gamma_b) <= 1e-15 * (1 + slope)

    def test_plan_magnitude_is_optimal_magnitude(self):
        # random Bell-diagonal states behind random filters A; every third is separable, no
        # Bell weight above 0.4, where the plan has nothing to recover
        rng = np.random.default_rng(131)
        separable = 0
        for index in range(90):
            if index % 3:
                rho = random_bell_diagonal(rng)
            else:
                weights = 0.25 + 0.2 * (rng.dirichlet(np.ones(4)) - 0.25)
                rho = sum(w * b for w, b in zip(weights, BELL_PROJECTORS))
            a = random_unit_vector(rng)
            gamma_a = float(rng.choice([0.0, rng.uniform(0.0, 3.0), rng.uniform(3.0, 300.0)]))
            plan = plan_recovery(rho, FilterElement(gamma_a, tuple(a)))
            separable += plan.nothing_to_recover
            assert repr(plan.gamma_b_opt) == repr(optimal_magnitude(correlation_matrix(rho), a, gamma_a))
        assert separable >= 30


class TestSweep:
    def test_unfiltered_mutual_information_both_noise_types(self):
        for noise in (BITFLIP, PHASEFLIP):
            points = sweep(noise, [0.0], "none", normalization=1.0)
            assert points[0].mutual_info == pytest.approx(MI_UNFILTERED, abs=1e-12)

    def test_phaseflip_match_restores_everything(self):
        grid = np.linspace(0.0, 1.2, 25)
        points = sweep(PHASEFLIP, grid, "match", normalization=1.0)
        reference = points[0].mutual_info
        for p in points:
            assert p.mutual_info == pytest.approx(reference, abs=1e-9)

    def test_optimal_beats_match_for_bitflip(self):
        match = sweep(BITFLIP, [0.857], "match", normalization=1.0)[0]
        optimal = sweep(BITFLIP, [0.857], "optimal", normalization=1.0)[0]
        assert optimal.mutual_info > match.mutual_info

    def test_monotone_degradation_without_compensation(self):
        grid = np.linspace(0.0, 1.2, 60)
        for noise in (BITFLIP, PHASEFLIP):
            points = sweep(noise, grid, "none", normalization=1.0)
            mi = [p.mutual_info for p in points]
            assert all(b <= a + 1e-12 for a, b in zip(mi, mi[1:]))

    def test_normalization_scales_mutual_info_only(self):
        plain = sweep(BITFLIP, [0.5], "optimal", normalization=1.0)[0]
        scaled = sweep(BITFLIP, [0.5], "optimal", normalization=0.9)[0]
        assert scaled.mutual_info == pytest.approx(0.9 * plain.mutual_info, rel=1e-12)
        assert scaled.concurrence == plain.concurrence
        assert scaled.transmission == plain.transmission

    def test_match_strategy_sets_gamma_b(self):
        points = sweep(BITFLIP, [0.0, 0.4, 0.8], "match")
        assert [p.gamma_b for p in points] == [0.0, 0.4, 0.8]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_grid_is_flattened(self, strategy):
        # as ratio_scan's ratio grid: a scalar is one point, a 2-D grid its rows in turn
        assert sweep(BITFLIP, 0.5, strategy) == sweep(BITFLIP, [0.5], strategy)
        grid = [[0.0, 0.4], [0.8, 1.2]]
        assert sweep(PHASEFLIP, grid, strategy) == sweep(PHASEFLIP, np.ravel(grid), strategy)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            sweep(BITFLIP, [0.1], "best")

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError, match="normalization"):
            sweep(BITFLIP, [0.1], "none", normalization=0.0)

    def test_degenerate_noise_sweep_still_works(self):
        # p = 1 kills the correlation along the filter axis; the compensator
        # orientation falls back deterministically
        points = sweep(PauliNoiseSpec.bit_flip(1.0), [0.0, 0.5], "optimal")
        assert all(p.gamma_b == 0.0 for p in points)

    def test_nearly_product_pair_keeps_its_mutual_info(self):
        # this filtered pair is nearly a product state: its MI is 1.38288e-12 bits (the
        # oracle), which its small eigenvalues carry; the kernel gives it to 1e-12 relative
        (point,) = sweep(PauliNoiseSpec.bit_flip(1.0), [14.0], "match")
        truth = filtered_pair("bitflip", 1.0, 14.0, 14.0)[0]
        assert truth == pytest.approx(1.38288e-12, rel=1e-5, abs=0)
        assert point.mutual_info == pytest.approx(truth, rel=1e-9, abs=0)

    def test_point_values_stay_in_range(self):
        grid = np.linspace(0.0, 2.0, 15)
        for noise in (BITFLIP, PHASEFLIP):
            for strategy in ("none", "match", "optimal"):
                for p in sweep(noise, grid, strategy, normalization=0.9):
                    assert 0.0 <= p.mutual_info <= 2.0
                    assert 0.0 <= p.concurrence <= 1.0
                    assert 0.0 < p.transmission <= 1.0


class TestCurveKernel:
    """Sweeps and ratio scans take their columns from a closed form; the public chain is the reference."""

    @staticmethod
    def public_chain(rho, point, orientation, normalization):
        f_a = FilterElement(point.gamma_a, Z)
        f_b = FilterElement(point.gamma_b, orientation)
        rho_f, transmission = apply_filters(rho, f_a, f_b)
        return (
            normalization * mutual_information(rho_f),
            concurrence(rho_f),
            transmission,
        )

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(
        axis=NOISE_AXES,
        p=st.floats(0.0, 1.0),
        strategy=st.sampled_from(STRATEGIES),
        gamma_a=st.floats(0.0, 3.0),
        ratio_max=st.floats(0.0, 2.0),
        normalization=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_points_agree_with_single_state_chain(self, axis, p, strategy, gamma_a, ratio_max, normalization):
        # up to gamma_a = 3 the matrix path is accurate to roundoff too; over 5,600 such
        # points on random noise axes the largest difference measured was 2.0e-14
        spec = PauliNoiseSpec(axis, p)
        rho = pauli_channel_state(spec)
        orientation = compensator_orientation(correlation_matrix(rho), Z)
        points = [(point, normalization) for point in sweep(spec, np.linspace(0.0, gamma_a, 7), strategy, normalization)]
        points += [(point, 1.0) for point in ratio_scan(spec, max(gamma_a, 1e-3), np.linspace(0.0, ratio_max, 7))]
        for point, scale in points:
            expected = self.public_chain(rho, point, orientation, scale)
            got = (point.mutual_info, point.concurrence, point.transmission)
            assert np.abs(np.subtract(got, expected)).max() <= 1e-12

    def test_compensator_on_the_equator(self):
        # a noise axis a hair off x at p = 1 leaves T a = (1e-10, 0, 0.0), so the compensator
        # is (-1, 0, +0.0): b_z = 0 is the edge of the kernel's frame, where 1 - b_z = 1
        spec = PauliNoiseSpec((math.sqrt(1 - 1e-20), 0.0, 1e-10), 1.0)
        rho = pauli_channel_state(spec)
        with mock.patch.object(recover, "_evaluate", wraps=recover._evaluate) as evaluate:
            points = sweep(spec, np.linspace(0.0, 3.0, 7), "optimal", 1.0)
            points += ratio_scan(spec, 0.857, np.linspace(0.0, 2.0, 7))
        assert {repr(call.args[0][2]) for call in evaluate.call_args_list} == {"(-1.0, 0.0, 0.0)"}
        for point in points:
            expected = self.public_chain(rho, point, (-1.0, 0.0, 0.0), 1.0)
            got = (point.mutual_info, point.concurrence, point.transmission)
            assert np.abs(np.subtract(got, expected)).max() <= 1e-13

    def test_sweep_calls_neither_eigh_nor_svd(self, monkeypatch):
        shapes = record_eigh_shapes(monkeypatch)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        sweep(BITFLIP, np.linspace(0.0, 1.2, 60), "optimal")
        assert (shapes, svds) == ([], [])

    def test_ratio_scan_calls_neither_eigh_nor_svd(self, monkeypatch):
        shapes = record_eigh_shapes(monkeypatch)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        ratio_scan(BITFLIP, [0.820, 0.857, 0.869], np.linspace(0.0, 1.2, 121))
        assert (shapes, svds) == ([], [])

    def test_concurrence_capped_at_one(self):
        # phi+ behind matched filters: e^-gA e^-gB over the trace is exactly 1. Where gamma_b
        # misses gamma_a by a few ulps it lands an ulp above 1 at some magnitudes (7 of these
        # 4 x 2001 where this was written); the cap holds it at 1
        points = sweep(PauliNoiseSpec.bit_flip(0.0), np.linspace(0.0, 30.0, 3001), "match")
        assert max(point.concurrence for point in points) == 1.0
        ratios = np.linspace(1 - 1e-6, 1 + 1e-6, 2001)
        points = ratio_scan(PauliNoiseSpec.bit_flip(0.0), [0.5, 0.857, 1.0, 2.0], ratios)
        assert max(point.concurrence for point in points) == 1.0

    @pytest.mark.parametrize(
        "noise, gamma_a, strategy, error, message",
        [
            (PauliNoiseSpec.bit_flip(0.0), 360.0, "match", ValueError, "is subnormal"),
            (PHASEFLIP, 400.0, "optimal", FilterBlockedError, "block the state entirely"),
        ],
        ids=["subnormal", "blocked"],
    )
    def test_trace_rules_are_apply_filters_rules(self, noise, gamma_a, strategy, error, message):
        # the kernel's trace passes the blocked and subnormal rules that every filtered pair
        # does; both points have gamma_b = gamma_a (phase flip has ||T a|| = 1)
        rho = pauli_channel_state(noise)
        f_b = FilterElement(gamma_a, compensator_orientation(correlation_matrix(rho), Z))
        with pytest.raises(error, match=message):
            apply_filters(rho, FilterElement(gamma_a, Z), f_b)
        with pytest.raises(error, match=message):
            sweep(noise, [gamma_a], strategy)

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(
        axis=NOISE_AXES,
        p=st.floats(0.0, 1.0),
        gamma_a=st.floats(0.0, 350.0),
        ratio=st.floats(0.0, 3.0),
    )
    def test_filtered_states_are_valid_states(self, axis, p, gamma_a, ratio):
        # the pairs _filter_pair filters are decomposed, not judged: each must still
        # pass the check that a state from outside gets, and the eigenvalues
        # _filter_pair returns must be hermitian_eig's, bit for bit
        states = []

        def recorded(*args):
            state, values, transmission = _filter_pair(*args)
            assert np.array_equal(values, hermitian_eig(state)[0])
            states.append(state)
            return state, values, transmission

        rho = pauli_channel_state(PauliNoiseSpec(axis, p))
        f_b = FilterElement(min(ratio * gamma_a, 350.0), compensator_orientation(correlation_matrix(rho), Z))
        with mock.patch.object(channel, "_filter_pair", recorded):
            apply_filters(rho, FilterElement(gamma_a, Z), f_b)
        (state,) = states
        validate_density_matrix(state)


class TestClosedFormSetUp:
    """sweep and ratio_scan take T a of the noisy pair in closed form, with no 4x4 state."""

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(axis=NOISE_AXES, p=st.floats(0.0, 1.0), gamma_a=st.floats(0.0, 5.0))
    def test_matches_the_matrix_path(self, axis, p, gamma_a):
        spec = PauliNoiseSpec(axis, p)
        t = correlation_matrix(pauli_channel_state(spec))
        t_a = _filter_a_correlations(spec)
        assert np.abs(np.subtract(t_a, t @ np.asarray(Z))).max() <= 4.4e-16
        with mock.patch.object(recover, "_evaluate", wraps=recover._evaluate) as evaluate:
            (point,) = sweep(spec, [gamma_a], "optimal")
        # a last-bit difference in T a moves the direction of -T a by up to that over
        # ||T a||, and the optimum atanh(||T a|| tanh gA) by up to that times its slope
        gain = math.hypot(*t_a)
        orientation = evaluate.call_args.args[0][2]
        expected = compensator_orientation(t, Z)
        assert np.abs(np.subtract(orientation, expected)).max() <= (1e-15 / min(gain, 1.0) if gain else 0.0)
        slope = math.tanh(gamma_a) / (1 - (min(gain, 1.0) * math.tanh(gamma_a)) ** 2)
        assert abs(point.gamma_b - optimal_magnitude(t, Z, gamma_a)) <= 1e-15 * (1 + slope)

    def test_phaseflip_optimum_is_gamma_a(self):
        # T a = T0 a exactly for a phase flip, so ||T a|| = 1 and gamma_b = gamma_a, at
        # every p and even where tanh gA rounds to 1
        for p in (0.0, 0.1, 0.33, 0.7, 1.0):
            assert _filter_a_correlations(PauliNoiseSpec.phase_flip(p)) == (0.0, 0.0, 1.0)
            points = sweep(PauliNoiseSpec.phase_flip(p), [0.857, 25.0], "optimal")
            assert [point.gamma_b for point in points] == [0.857, 25.0]

    @pytest.mark.parametrize(
        "scan",
        [lambda spec: sweep(spec, [0.5], "optimal"), lambda spec: ratio_scan(spec, 0.5, [1.0])],
        ids=["sweep", "ratio_scan"],
    )
    def test_vanishing_correlations_fall_back_to_the_antipode(self, scan):
        # bit flip at p = 1 leaves T a = 0 exactly: the orientation is -a, below 1e-12
        spec = PauliNoiseSpec.bit_flip(1.0)
        assert _filter_a_correlations(spec) == (0.0, 0.0, 0.0)
        with mock.patch.object(recover, "_evaluate", wraps=recover._evaluate) as evaluate:
            scan(spec)
        assert evaluate.call_args.args[0][2] == MINUS_Z
        assert _compensator((0.0, 0.0, 9e-13), Z) == (9e-13, MINUS_Z)
        assert _compensator((0.0, 0.0, -2e-12), Z) == (2e-12, Z)

    def test_builds_no_two_qubit_state(self):
        # the noisy pair and its correlation matrix are out of recover's reach
        assert not {"pauli_channel_state", "_correlation_matrix", "correlation_matrix"} & set(vars(recover))


@pytest.fixture
def fresh_kernel():
    # recover._kernel keeps the constants of the last 16 noises for the process: a test that
    # patches a function the cache calls starts and ends with it empty, so that no patched
    # table outlives the test
    recover._kernel.cache_clear()
    yield recover._kernel
    recover._kernel.cache_clear()


def curve_rows(spec, cold=False):
    # the repr of every curve a noise gives: the three sweep strategies and one stacked ratio
    # scan, each with the cache emptied first if cold
    calls = [functools.partial(sweep, spec, [0.0, 0.1, 0.857, 3.0, 30.0, 200.0], strategy, 0.7)
             for strategy in STRATEGIES]
    calls.append(functools.partial(ratio_scan, spec, [0.5, 2.0], np.linspace(0.0, 2.0, 9)))
    rows = []
    for call in calls:
        if cold:
            recover._kernel.cache_clear()
        rows.append(call())
    return repr(rows)


class TestKernelCache:
    """sweep and ratio_scan build each noise's kernel constants once, keyed by its value."""

    def test_cold_and_warm_give_the_same_bits(self, fresh_kernel):
        # the last two axes have -0.0 components, which PauliNoiseSpec turns into +0.0: the
        # third shares the bit flip's keys, as p = -0.0 shares p = 0.0's, so a warm pass
        # serves it what an earlier spec built
        axes = ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, -0.0, -0.0), (0.6, -0.0, 0.8))
        specs = [PauliNoiseSpec(axis, p) for axis in axes for p in (0.0, -0.0, 1e-300, 0.33, 1.0)]
        cold = [curve_rows(spec, cold=True) for spec in specs]
        fresh_kernel.cache_clear()
        for _ in range(2):  # the first pass builds each key's constants once, the second only hits
            assert [curve_rows(spec) for spec in specs] == cold
        assert fresh_kernel.cache_info().currsize == 12

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)], ids=["+0.0 first", "-0.0 first"])
    def test_signed_zero_p_shares_a_key(self, fresh_kernel, first, second):
        # p = 0.0 and p = -0.0 compare and hash equal, so whichever comes first builds the
        # constants the other is served; each must still get its own cold rows
        for noise in (PauliNoiseSpec.bit_flip, PauliNoiseSpec.phase_flip):
            fresh_kernel.cache_clear()
            cold = curve_rows(noise(second))
            fresh_kernel.cache_clear()
            curve_rows(noise(first))
            assert curve_rows(noise(second)) == cold
            assert fresh_kernel.cache_info().currsize == 1

    def test_each_noise_builds_its_constants_once(self, fresh_kernel):
        # equal noises built apart share one entry; the tables every caller shares are read-only
        with mock.patch.object(recover, "_coefficients", wraps=recover._coefficients) as coefficients:
            for _ in range(2):
                for strategy in STRATEGIES:
                    sweep(PauliNoiseSpec.bit_flip(0.33), [0.0, 0.857], strategy)
                ratio_scan(PauliNoiseSpec.bit_flip(0.33), 0.857, [0.5, 1.0])
                assert coefficients.call_count == 1
            for strategy in STRATEGIES:
                sweep(PauliNoiseSpec.bit_flip(0.5), [0.0, 0.857], strategy)
            ratio_scan(PauliNoiseSpec.bit_flip(0.5), 0.857, [0.5, 1.0])
            assert coefficients.call_count == 2
        for spec in (PauliNoiseSpec.bit_flip(0.33), PauliNoiseSpec.bit_flip(0.5)):
            tables = fresh_kernel(spec)[3:]
            assert len(tables) == 5 and not any(table.flags.writeable for table in tables)
        assert fresh_kernel.cache_info().currsize == 2

    @pytest.mark.parametrize(
        "scan",
        [*(functools.partial(sweep, gamma_a_grid=[0.0, 0.857], strategy=s) for s in STRATEGIES),
         functools.partial(ratio_scan, gamma_a=[0.5, 0.857], ratio_grid=[0.5, 1.0])],
        ids=[*STRATEGIES, "ratio_scan"],
    )
    def test_each_call_looks_its_noise_up_once(self, fresh_kernel, scan):
        with mock.patch.object(recover, "_kernel", wraps=recover._kernel) as kernel:
            for _ in range(2):  # cold, then warm
                scan(PauliNoiseSpec.bit_flip(0.33))
        assert kernel.call_count == 2

    def test_a_raise_is_not_cached(self, fresh_kernel):
        # a T a beyond the ceiling raises from _compensator; once it is mended, the same noise
        # builds its constants afresh and gives its cold rows
        spec = PauliNoiseSpec.bit_flip(0.33)
        cold = curve_rows(spec)
        fresh_kernel.cache_clear()
        with mock.patch.object(recover, "_filter_a_correlations", return_value=(0.0, 0.0, 2.0)):
            with pytest.raises(ValueError, match="exceeds 1"):
                sweep(spec, [0.5], "optimal")
        assert fresh_kernel.cache_info().currsize == 0
        assert curve_rows(spec) == cold


class TestRatioScan:
    def test_ratio_zero_matches_strategy_none(self):
        gamma_a = 0.857
        scan = ratio_scan(BITFLIP, gamma_a, [0.0])
        none = sweep(BITFLIP, [gamma_a], "none", normalization=1.0)
        assert scan[0].mutual_info == pytest.approx(none[0].mutual_info, abs=1e-12)
        assert scan[0].strategy == "ratio"

    def test_bitflip_mutual_info_peak_near_059(self):
        ratios = np.linspace(0.0, 1.2, 401)
        for gamma_a in (0.820, 0.857, 0.869):
            points = ratio_scan(BITFLIP, gamma_a, ratios)
            assert argmax_ratio(points, "mutual_info") == pytest.approx(0.59, abs=0.02)

    def test_phaseflip_mutual_info_peak_at_one(self):
        ratios = np.linspace(0.0, 1.2, 401)
        step = ratios[1] - ratios[0]
        points = ratio_scan(PHASEFLIP, 0.857, ratios)
        assert abs(argmax_ratio(points, "mutual_info") - 1.0) <= step

    def test_concurrence_peak_matches_closed_form(self):
        ratios = np.linspace(0.0, 1.2, 401)
        step = ratios[1] - ratios[0]
        t = correlation_matrix(pauli_channel_state(BITFLIP))
        points = ratio_scan(BITFLIP, 0.857, ratios)
        closed = optimal_magnitude(t, Z, 0.857) / 0.857
        assert abs(argmax_ratio(points, "concurrence") - closed) <= step

    def test_rejects_nonpositive_gamma_a(self):
        with pytest.raises(ValueError):
            ratio_scan(BITFLIP, 0.0, [0.1])

    @pytest.mark.parametrize(
        "gamma_a, ratios, product",
        [(math.inf, [0.0, 1.0], "nan"), (1.7e308, [0.0, 0.6, 1.2], "inf")],
        ids=["infinite-gamma-a", "overflowing-product"],
    )
    def test_rejects_non_finite_gamma_b(self, gamma_a, ratios, product):
        # one ValueError naming the product, not a blocked-filter error or a RuntimeWarning
        with pytest.raises(ValueError, match=f"gamma_b = gamma_a \\* ratio must be finite, got {product}$"):
            ratio_scan(BITFLIP, gamma_a, ratios)

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(
        noise=st.sampled_from([PauliNoiseSpec.bit_flip, PauliNoiseSpec.phase_flip]),
        p=st.floats(0.0, 1.0),
        # drawn from a pool of up to five values, so repeats are common
        gamma_a=st.lists(st.floats(0.0, 5.0, exclude_min=True), min_size=1, max_size=5).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=5)
        ),
        ratios=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=50),
    )
    def test_stacked_scan_equals_one_scan_per_gamma_a(self, noise, p, gamma_a, ratios):
        spec = noise(p)
        stacked = ratio_scan(spec, gamma_a, ratios)
        assert stacked == [point for g in gamma_a for point in ratio_scan(spec, g, ratios)]

    def test_argmax_tie_breaks_on_first_index(self):
        points = [
            SweepPoint(1.0, 0.2, "ratio", 0.5, 0.1, 1.0),
            SweepPoint(1.0, 0.4, "ratio", 0.7, 0.1, 1.0),
            SweepPoint(1.0, 0.6, "ratio", 0.7, 0.1, 1.0),
        ]
        assert argmax_ratio(points) == pytest.approx(0.4)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_argmax_at_zero_gamma_a_is_undefined(self, strategy):
        # a default sweep starts at gamma_a = 0, where its mutual information peaks
        points = sweep(BITFLIP, np.linspace(0.0, 1.2, 60), strategy)
        with pytest.raises(ValueError, match="undefined.*gamma_a = 0"):
            argmax_ratio(points)

    def test_argmax_rejects_unknown_metric(self):
        points = ratio_scan(BITFLIP, 0.857, np.linspace(0.0, 1.2, 5))
        with pytest.raises(ValueError, match="mutual_info.*concurrence.*transmission"):
            argmax_ratio(points, "fidelity")


class TestAverageEntanglement:
    def test_identity_filters_return_input_concurrence(self):
        rho = pauli_channel_state(BITFLIP)
        value = average_entanglement(rho, FilterElement(0.0, Z), FilterElement(0.0, Z))
        assert value == pytest.approx(concurrence(rho), abs=1e-12)

    def test_invariant_under_orientation_for_bell_input(self):
        phi = bell_state("phi+")
        f_a = FilterElement(0.857, Z)
        first = average_entanglement(phi, f_a, FilterElement(0.857, MINUS_Z))
        second = average_entanglement(phi, f_a, FilterElement(0.857, (1.0, 0.0, 0.0)))
        assert first == pytest.approx(second, abs=1e-9)

    def test_invariant_under_orientation_sweep(self):
        rng = np.random.default_rng(43)
        rho = pauli_channel_state(BITFLIP)
        f_a = FilterElement(0.857, Z)
        values = [
            average_entanglement(rho, f_a, FilterElement(0.61, tuple(random_unit_vector(rng))))
            for _ in range(40)
        ]
        assert max(values) - min(values) < 1e-9

    def test_matches_the_matrix_path_on_random_states(self):
        # e^(-gA-gB) C(rho) against the Wootters concurrence of the numerically filtered pair
        # times its transmission, so the filter path stays checked against the rule
        rng = np.random.default_rng(31)
        for i in range(400):
            rank = 1 + i % 4
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = g @ g.conj().T
            rho /= rho.trace().real
            f_a = FilterElement(rng.uniform(0.0, 6.0), tuple(random_unit_vector(rng)))
            f_b = FilterElement(rng.uniform(0.0, 6.0), tuple(random_unit_vector(rng)))
            rho_f, transmission = apply_filters(rho, f_a, f_b)
            assert abs(average_entanglement(rho, f_a, f_b) - concurrence(rho_f) * transmission) <= 1e-10

    def test_orientations_do_not_move_a_bit(self):
        rng = np.random.default_rng(44)
        rho = pauli_channel_state(BITFLIP)
        values = {
            average_entanglement(
                rho,
                FilterElement(0.857, tuple(random_unit_vector(rng))),
                FilterElement(0.61, tuple(random_unit_vector(rng))),
            ).hex()
            for _ in range(50)
        }
        assert len(values) == 1

    def test_decomposes_its_input_once(self, monkeypatch):
        rho = pauli_channel_state(BITFLIP)
        shapes = record_eigh_shapes(monkeypatch)
        average_entanglement(rho, FilterElement(0.857, Z), FilterElement(0.61, MINUS_Z))
        assert shapes == [(4, 4)]

    def test_blocking_filters_give_zero_not_filter_blocked_error(self):
        # opposed filters of 400 leave phi+ a trace e^-800, which underflows to 0: the
        # matrix path raises FilterBlockedError there, the rule gives its product
        phi = bell_state("phi+")
        f_a, f_b = FilterElement(400.0, Z), FilterElement(400.0, MINUS_Z)
        with pytest.raises(FilterBlockedError):
            apply_filters(phi, f_a, f_b)
        assert average_entanglement(phi, f_a, f_b) == 0.0


class TestMaximizerProperty:
    def test_concurrence_optimum_beats_random_perturbations(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            rho = random_bell_diagonal(rng)
            if concurrence(rho) < 1e-6:
                continue
            t = correlation_matrix(rho)
            a = random_unit_vector(rng)
            gamma_a = rng.uniform(0.2, 1.5)
            f_a = FilterElement(gamma_a, tuple(a))
            f_opt = FilterElement(
                optimal_magnitude(t, a, gamma_a), compensator_orientation(t, a)
            )
            best_c = concurrence(apply_filters(rho, f_a, f_opt)[0])
            for _ in range(200):
                f_b = FilterElement(rng.uniform(0, 2.5), tuple(random_unit_vector(rng)))
                c = concurrence(apply_filters(rho, f_a, f_b)[0])
                assert c <= best_c + 1e-12

    def test_mutual_info_optimum_is_near_maximal(self):
        # the closed form optimizes concurrence; the mutual-information peak
        # sits close by but not exactly on it, so allow a small margin
        rng = np.random.default_rng(59)
        for _ in range(10):
            rho = random_rank2_bell_diagonal(rng)
            if concurrence(rho) < 1e-6:
                continue
            t = correlation_matrix(rho)
            a = random_unit_vector(rng)
            gamma_a = rng.uniform(0.2, 1.2)
            f_a = FilterElement(gamma_a, tuple(a))
            f_opt = FilterElement(
                optimal_magnitude(t, a, gamma_a), compensator_orientation(t, a)
            )
            best_mi = mutual_information(apply_filters(rho, f_a, f_opt)[0])
            for _ in range(200):
                f_b = FilterElement(rng.uniform(0, 2.5), tuple(random_unit_vector(rng)))
                mi = mutual_information(apply_filters(rho, f_a, f_b)[0])
                assert mi <= best_mi + 1e-3


class TestNoiseTypeComparison:
    def test_phaseflip_keeps_more_information_at_equal_entanglement(self):
        rho_bf = pauli_channel_state(BITFLIP)
        rho_pf = pauli_channel_state(PHASEFLIP)
        for gamma_a in np.linspace(0.02, 1.2, 30):
            f_a = FilterElement(float(gamma_a), Z)
            f_b = FilterElement(0.0, MINUS_Z)
            out_bf, _ = apply_filters(rho_bf, f_a, f_b)
            out_pf, _ = apply_filters(rho_pf, f_a, f_b)
            assert mutual_information(out_pf) > mutual_information(out_bf)
            assert concurrence(out_pf) == pytest.approx(concurrence(out_bf), abs=1e-9)


class TestSerialization:
    def test_csv_header_and_columns(self):
        points = sweep(BITFLIP, [0.0, 0.5], "none", normalization=1.0)
        text = sweep_to_csv(points)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "none"
        assert len(first) == 6

    def test_csv_is_deterministic(self):
        points = sweep(PHASEFLIP, np.linspace(0, 1.2, 10), "optimal")
        assert sweep_to_csv(points) == sweep_to_csv(points)

    def test_json_columns_and_order(self):
        points = sweep(BITFLIP, [0.3], "match", normalization=1.0)
        obj = sweep_to_json(points)
        assert list(obj[0].keys()) == [
            "gamma_a",
            "gamma_b",
            "strategy",
            "mutual_info_bits",
            "concurrence",
            "transmission",
        ]
        assert obj[0]["gamma_b"] == pytest.approx(0.3)

    @hypothesis_settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.builds(
                SweepPoint,
                *[st.floats(allow_nan=False)] * 2,
                st.sampled_from((*STRATEGIES, "ratio")),
                *[st.floats(allow_nan=False)] * 3,
            ),
            max_size=20,
        )
    )
    def test_serializers_match_attribute_reference(self, points):
        lines = ["gamma_a,gamma_b,strategy,mutual_info_bits,concurrence,transmission"]
        lines += [
            "%.12g,%.12g,%s,%.12g,%.12g,%.12g"
            % (p.gamma_a, p.gamma_b, p.strategy, p.mutual_info, p.concurrence, p.transmission)
            for p in points
        ]
        assert sweep_to_csv(points) == "\n".join(lines) + "\n"
        expected = [
            [
                ("gamma_a", p.gamma_a),
                ("gamma_b", p.gamma_b),
                ("strategy", p.strategy),
                ("mutual_info_bits", p.mutual_info),
                ("concurrence", p.concurrence),
                ("transmission", p.transmission),
            ]
            for p in points
        ]
        assert [list(row.items()) for row in sweep_to_json(points)] == expected

    def test_sweep_point_is_a_tuple_of_its_columns(self):
        point = SweepPoint(0.5, 0.25, "ratio", 1.5, 0.5, 0.75)
        gamma_a, _, strategy, *_ = point
        assert (gamma_a, strategy) == (0.5, "ratio")
        assert point == (0.5, 0.25, "ratio", 1.5, 0.5, 0.75)


_T = np.diag([1.0, -0.67, 0.67])
_F_A, _F_B = FilterElement(0.857, Z), FilterElement(0.5, MINUS_Z)
_T_NAN_OFF_DIAGONAL = np.diag([0.67, -0.67, 1.0])
_T_NAN_OFF_DIAGONAL[0, 1] = math.nan
_T_NAN_DIAGONAL = np.diag([0.67, -0.67, math.nan])

# Arguments each public entry point rejects with ValueError, and the message it gives
REJECTIONS = {
    "correlation-not-3x3": (lambda: concurrence_after_filtering(0.67, np.eye(2), _F_A, _F_B), "3x3"),
    "c0-above-one": (lambda: concurrence_after_filtering(1.5, _T, _F_A, _F_B), r"c0 must lie in \[0, 1\]"),
    "c0-negative": (lambda: concurrence_after_filtering(-0.1, _T, _F_A, _F_B), r"c0 must lie in \[0, 1\]"),
    "c0-below-roundoff": (lambda: concurrence_after_filtering(-1e-11, _T, _F_A, _F_B), r"c0 must lie in \[0, 1\]"),
    # a NaN passes every comparison the closed forms make, and would be their answer
    "correlation-nan-off-diagonal": (
        lambda: concurrence_after_filtering(0.67, _T_NAN_OFF_DIAGONAL, _F_A, _F_B),
        "correlation matrix must be real and finite",
    ),
    "correlation-nan-diagonal": (
        lambda: concurrence_after_filtering(0.67, _T_NAN_DIAGONAL, _F_A, _F_B),
        "correlation matrix must be real and finite",
    ),
    "optimal-magnitude-nan-correlation": (
        lambda: optimal_magnitude(_T_NAN_DIAGONAL, Z, 0.5),
        "correlation matrix must be real and finite",
    ),
    "optimal-magnitude-complex-correlation": (
        lambda: optimal_magnitude(_T * (1 + 1e-3j), Z, 0.5),
        "correlation matrix must be real and finite",
    ),
    "optimal-magnitude-correlation-not-3x3": (
        lambda: optimal_magnitude(np.full((2, 3), 0.1), Z, 0.5),
        "correlation matrix must be 3x3",
    ),
    "filter-operator-infinite-magnitude": (
        lambda: filter_operator(FilterElement(math.inf, Z)),
        "infinite magnitude",
    ),
    "optimal-magnitude-negative": (lambda: optimal_magnitude(_T, Z, [0.5, -0.1]), "gamma_a must be >= 0"),
    "sweep-negative-grid": (lambda: sweep(BITFLIP, [0.0, -0.1], "none"), "grid values must be >= 0"),
    "sweep-nan-grid": (lambda: sweep(BITFLIP, [0.5, math.nan], "match"), "grid values must be >= 0"),
    "ratio-scan-negative-ratio": (lambda: ratio_scan(BITFLIP, 0.857, [0.5, -0.1]), "ratios must be >= 0"),
    "ratio-scan-zero-gamma-a-among-several": (
        lambda: ratio_scan(BITFLIP, [0.82, 0.0, 0.869], [0.5]),
        "gamma_a > 0",
    ),
    "ratio-scan-nan-gamma-a-among-several": (
        lambda: ratio_scan(PHASEFLIP, [0.82, math.nan], [0.5]),
        "gamma_a > 0",
    ),
    "stokes-vector-not-3": (lambda: unit_stokes_vector([0.0, 0.0, 1.0, 0.0]), r"3-vector, got shape \(4,\)"),
    "fidelity-dimension-mismatch": (
        lambda: fidelity_pure(bell_state("phi+"), np.diag([1.0, 0.0])),
        r"expected one 4x4 two-qubit density matrix, got shape \(2, 2\)",
    ),
    # Tr[target^2] = 1 for both, yet neither is a state: the first is not Hermitian,
    # the second has trace sqrt(2)
    "fidelity-target-not-hermitian": (
        lambda: fidelity_pure(bell_state("phi+"), np.pad([[1.0, 5.0]], ((0, 3), (0, 2)))),
        "not Hermitian",
    ),
    "fidelity-target-trace-not-one": (
        lambda: fidelity_pure(bell_state("phi+"), np.diag([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)),
        "trace 1.414",
    ),
}


@pytest.mark.parametrize("call, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejects_outside_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()
