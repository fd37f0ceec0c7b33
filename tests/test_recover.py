import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from entfilter import recover
from entfilter.channel import FilterElement, PauliNoiseSpec, apply_filters, filter_operator, pauli_channel_state
from entfilter.channel import _filter_pairs
from entfilter.qmat import hermitian_eig
from entfilter.qstate import SIGMA_X, SIGMA_Y, SIGMA_Z, bell_state, concurrence, correlation_matrix
from entfilter.qstate import fidelity_pure, mutual_information, unit_stokes_vector, validate_density_matrix
from entfilter.recover import (
    CSV_HEADER,
    STRATEGIES,
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
    _compensator_orientation,
)

from helpers import (
    BELL_PROJECTORS,
    random_bell_diagonal,
    random_rank2_bell_diagonal,
    random_unit_vector,
    record_eigh_shapes,
)

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
        orientation = _compensator_orientation(t, Z)
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
        orientation = _compensator_orientation(t, Z)
        assert np.allclose(orientation, MINUS_Z, atol=1e-15)
        assert (t @ np.asarray(Z)) @ orientation == pytest.approx(-1.0, abs=1e-15)

    def test_bitflip_geometry_reaches_minus_concurrence(self):
        # filter A sits on a correlation axis of magnitude C, so the best
        # achievable dot product is -C
        p = 0.33
        t = np.diag([1.0, -(1 - p), 1 - p])
        orientation = _compensator_orientation(t, Z)
        assert (t @ np.asarray(Z)) @ orientation == pytest.approx(-(1 - p), abs=1e-12)

    def test_isotropic_correlations(self):
        rng = np.random.default_rng(3)
        a = random_unit_vector(rng)
        orientation = _compensator_orientation(np.eye(3), a)
        assert np.allclose(orientation, -a, atol=1e-12)

    def test_undefined_when_vector_vanishes(self):
        # below |T a| = 1e-12, -T a has no reliable direction and the antipode of
        # a stands in; just above, -T a normalized is taken even against a
        for scale, sign in ((0.0, -1.0), (-9e-13, -1.0), (-2e-12, 1.0)):
            t = np.diag([scale, 0.5, scale])
            assert _compensator_orientation(t, Z) == (0.0, 0.0, sign)
            assert _compensator_orientation(t, (1.0, 0.0, 0.0)) == (sign, 0.0, 0.0)

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

    def test_roundoff_negative_mutual_info_is_zero(self):
        # S(A) + S(B) - S(AB) of this nearly pure pair comes out -5.4e-11: clamped at 0
        (point,) = sweep(PauliNoiseSpec.bit_flip(1.0), [14.0], "match")
        assert point.mutual_info == 0.0

    def test_point_values_stay_in_range(self):
        grid = np.linspace(0.0, 2.0, 15)
        for noise in (BITFLIP, PHASEFLIP):
            for strategy in ("none", "match", "optimal"):
                for p in sweep(noise, grid, strategy, normalization=0.9):
                    assert 0.0 <= p.mutual_info <= 2.0
                    assert 0.0 <= p.concurrence <= 1.0
                    assert 0.0 < p.transmission <= 1.0


class TestSharedEvaluationPath:
    """Sweeps evaluate their stack privately; the result must be the public chain's."""

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

    @pytest.mark.parametrize("noise", [BITFLIP, PHASEFLIP], ids=["bitflip", "phaseflip"])
    def test_points_equal_single_state_chain_bitwise(self, noise):
        rho = pauli_channel_state(noise)
        orientation = _compensator_orientation(correlation_matrix(rho), Z)
        points = [
            (p, 0.9)
            for strategy in ("none", "match", "optimal")
            for p in sweep(noise, np.linspace(0.0, 1.2, 30), strategy, normalization=0.9)
        ]
        points += [(p, 1.0) for p in ratio_scan(noise, 0.857, np.linspace(0.0, 2.0, 30))]
        for point, normalization in points:
            expected = self.public_chain(rho, point, orientation, normalization)
            assert (point.mutual_info, point.concurrence, point.transmission) == expected

    def test_sweep_decomposes_its_stack_once(self, monkeypatch):
        shapes = record_eigh_shapes(monkeypatch)
        sweep(BITFLIP, np.linspace(0.0, 1.2, 60), "optimal")
        # one (60, 4, 4) decomposition feeds validation, S(AB) and sqrt(rho);
        # the two (60, 2, 2) ones are the reduced states of S(A) and S(B). The
        # noisy pair the library built is not decomposed: no single (4, 4)
        assert sorted(shapes) == [(60, 2, 2), (60, 2, 2), (60, 4, 4)]

    def test_ratio_scan_decomposes_its_stack_once(self, monkeypatch):
        shapes = record_eigh_shapes(monkeypatch)
        ratio_scan(BITFLIP, 0.857, np.linspace(0.0, 1.2, 121))
        assert sorted(shapes) == [(121, 2, 2), (121, 2, 2), (121, 4, 4)]

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(
        axis=NOISE_AXES,
        p=st.floats(0.0, 1.0),
        strategy=st.sampled_from(STRATEGIES),
        gamma_a=st.floats(0.0, 350.0),
        ratio_max=st.floats(0.0, 3.0),
    )
    def test_filtered_stacks_are_valid_states(self, axis, p, strategy, gamma_a, ratio_max):
        # the stacks a sweep or ratio scan filters are decomposed, not judged: each
        # must still pass the check that a state from outside gets, and the
        # decomposition _filter_pairs returns must be hermitian_eig's, bit for bit
        stacks = []

        def recorded(*args):
            states, values, vectors, transmission = _filter_pairs(*args)
            expected_values, expected_vectors = hermitian_eig(states)
            assert np.array_equal(values, expected_values)
            assert np.array_equal(vectors, expected_vectors)
            stacks.append(states)
            return states, values, vectors, transmission

        spec = PauliNoiseSpec(axis, p)
        with mock.patch.object(recover, "_filter_pairs", recorded):
            sweep(spec, np.linspace(0.0, gamma_a, 7), strategy)
            ratio_scan(spec, [max(gamma_a, 1e-3), 0.857], np.linspace(0.0, ratio_max, 7))
        assert [len(states) for states in stacks] == [7, 14]
        for states in stacks:
            validate_density_matrix(states)


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
                optimal_magnitude(t, a, gamma_a), _compensator_orientation(t, a)
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
                optimal_magnitude(t, a, gamma_a), _compensator_orientation(t, a)
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
