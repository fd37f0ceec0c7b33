import math

import numpy as np
import pytest
from hypothesis import assume, given, settings as hypothesis_settings, strategies as st

from entfilter.channel import FilterElement, PauliNoiseSpec, apply_filters, pauli_channel_state
from entfilter.qstate import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bell_diagonal_weights,
    bell_state,
    concurrence,
    correlation_matrix,
    density_matrix_to_json,
    fidelity_pure,
    mutual_information,
    pauli_dot,
    validate_density_matrix,
    von_neumann_entropy,
)
from entfilter.recover import plan_recovery
from entfilter.tomo import simulate_counts, standard_settings

from helpers import (
    BELL_PROJECTORS,
    matrix_from_json,
    random_bell_diagonal,
    random_density_matrix,
    random_unitary,
)

Z = (0.0, 0.0, 1.0)

# Binary entropy of the p = 0.33 Bell mixture, from an independent scalar
# evaluation of -sum(w log2 w) over the weights {0.835, 0.165}.
ENTROPY_BF_033 = -(0.835 * math.log2(0.835) + 0.165 * math.log2(0.165))


def bitflip(p=0.33):
    return pauli_channel_state(PauliNoiseSpec.bit_flip(p))


def phaseflip(p=0.33):
    return pauli_channel_state(PauliNoiseSpec.phase_flip(p))


class TestBellState:
    def test_phi_plus_entries(self):
        rho = bell_state("phi+")
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.array_equal(rho, expected)

    def test_psi_plus_entries(self):
        rho = bell_state("psi+")
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[1, 2] = expected[2, 1] = expected[2, 2] = 0.5
        assert np.array_equal(rho, expected)

    def test_phi_minus_entries(self):
        rho = bell_state("phi-")
        assert rho[0, 0] == 0.5 and rho[3, 3] == 0.5
        assert rho[0, 3] == -0.5 and rho[3, 0] == -0.5

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown Bell label"):
            bell_state("phi")

    def test_all_are_valid_density_matrices(self):
        for label in ("phi+", "phi-", "psi+", "psi-"):
            validate_density_matrix(bell_state(label))


def _with_entry(value):
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = value
    return rho


class TestValidateDensityMatrix:
    """The one place a state is judged: every measure takes what it accepts as valid."""

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.array([[0, 1], [0, 0]]), "not Hermitian"),
            (np.diag([1.5, -0.5, 0.0, 0.0]), "negative eigenvalue"),
            (_with_entry(float("nan")), "must be finite"),
            (_with_entry(float("inf")), "must be finite"),
            (np.eye(3) / 3, "dimension 2 or 4"),
            (np.full((2, 2, 2, 2), 0.25), "square matrix"),
        ],
        ids=["non-hermitian", "indefinite", "nan", "inf", "3x3", "rank-4-array"],
    )
    def test_rejects(self, rho, message):
        with pytest.raises(ValueError, match=message):
            validate_density_matrix(rho)

    def test_accepts_roundoff_negative_eigenvalue(self):
        rho = np.diag([1 + 5e-11, -5e-11, 0.0, 0.0])
        assert np.array_equal(validate_density_matrix(rho), rho)

    def test_concurrence_rejects_indefinite_state(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            concurrence(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_mutual_information_rejects_non_hermitian_state(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            mutual_information(_with_entry(0.1))

    @pytest.mark.parametrize("measure", [mutual_information, concurrence, correlation_matrix])
    def test_two_qubit_measures_reject_one_qubit_state(self, measure):
        with pytest.raises(ValueError, match="two-qubit"):
            measure(np.eye(2) / 2)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda rho: apply_filters(rho, FilterElement(0.5, Z), FilterElement(0.5, Z)),
            lambda rho: simulate_counts(rho, standard_settings(), exposure=100.0),
            lambda rho: plan_recovery(rho, FilterElement(0.5, Z)),
        ],
        ids=["apply_filters", "simulate_counts", "plan_recovery"],
    )
    @pytest.mark.parametrize(
        "rho",
        [np.array([bell_state("phi+"), bell_state("psi-")]), np.eye(2) / 2],
        ids=["stack", "one-qubit"],
    )
    def test_single_state_entry_points_share_one_check(self, entry, rho):
        with pytest.raises(ValueError, match="^expected one 4x4 two-qubit density matrix"):
            entry(rho)


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(bell_state("phi+")) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_bitflip_mixture(self):
        s = von_neumann_entropy(bitflip())
        assert s == pytest.approx(ENTROPY_BF_033, abs=1e-12)
        assert s == pytest.approx(0.6461, abs=1e-4)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.eye(4))  # trace 4


class TestMutualInformation:
    def test_bell_state(self):
        assert mutual_information(bell_state("phi+")) == pytest.approx(2.0, abs=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(2)
        rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bitflip_mixture(self):
        # marginals are maximally mixed, so MI = 2 - S(AB)
        assert mutual_information(bitflip()) == pytest.approx(
            2.0 - ENTROPY_BF_033, abs=1e-12
        )
        assert mutual_information(bitflip()) == pytest.approx(1.3539, abs=1e-4)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(17)
        states = np.array([random_density_matrix(rng) for _ in range(10_000)])
        mi, c = mutual_information(states), concurrence(states)
        assert np.all((0.0 <= mi) & (mi <= 2.0))
        assert np.all((0.0 <= c) & (c <= 1.0))

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda rank: st.lists(
                st.floats(-1.0, 1.0, allow_subnormal=False), min_size=8 * rank, max_size=8 * rank
            )
        )
    )
    def test_bounds_on_states_of_every_rank(self, entries):
        # rho = G G^dagger / Tr for a 4 x rank complex G: rank 1 to 4
        g = np.reshape(entries, (2, 4, -1))
        g = g[0] + 1j * g[1]
        gram = g @ g.conj().T
        assume(np.trace(gram).real > 1e-6)
        rho = gram / np.trace(gram).real
        assert 0.0 <= mutual_information(rho) <= 2.0
        assert 0.0 <= concurrence(rho) <= 1.0

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            rho = random_density_matrix(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert mutual_information(rotated) == pytest.approx(
                mutual_information(rho), abs=1e-9
            )


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(bell_state("phi+")) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence(np.eye(4) / 4) == 0.0

    def test_bitflip_mixture(self):
        # Bell-diagonal closed form: C = 2 w_max - 1 = 1 - p
        assert concurrence(bitflip(0.33)) == pytest.approx(0.67, abs=1e-12)

    def test_never_exceeds_one_on_rotated_bell_state(self):
        # local rotations of phi+ on qubit A; unclipped, about a third of them
        # come out a few ulps above 1
        rng = np.random.default_rng(0)
        rotations = np.array([np.kron(random_unitary(rng), np.eye(2)) for _ in range(2000)])
        states = rotations @ bell_state("phi+") @ rotations.conj().swapaxes(-1, -2)
        assert concurrence(states).max() == 1.0

    def test_bell_diagonal_closed_form(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            rho = random_bell_diagonal(rng)
            w_max = max(bell_diagonal_weights(rho).values())
            assert concurrence(rho) == pytest.approx(
                max(0.0, 2 * w_max - 1), abs=1e-9
            )


class TestStacks:
    def test_stack_matches_per_state_calls(self):
        rng = np.random.default_rng(43)
        states = np.array([random_density_matrix(rng) for _ in range(40)] + list(BELL_PROJECTORS))
        for measure in (mutual_information, concurrence, von_neumann_entropy):
            single = [measure(rho) for rho in states]
            assert all(type(value) is float for value in single)
            stacked = measure(states)
            assert stacked.shape == (len(states),)
            assert np.max(np.abs(stacked - single)) <= 1e-15
        single_t = [correlation_matrix(rho) for rho in states]
        assert np.max(np.abs(correlation_matrix(states) - single_t)) <= 1e-15
        stacked_w = bell_diagonal_weights(states)
        for rho, *weights in zip(states, *stacked_w.values()):
            assert list(bell_diagonal_weights(rho).values()) == pytest.approx(weights, abs=1e-15)

    def test_pauli_dot_of_stacked_directions(self):
        rng = np.random.default_rng(47)
        directions = rng.normal(size=(5, 2, 3))
        stacked = pauli_dot(directions)
        assert stacked.shape == (5, 2, 2, 2)
        for d, op in zip(directions.reshape(-1, 3), stacked.reshape(-1, 2, 2)):
            assert np.array_equal(op, d[0] * SIGMA_X + d[1] * SIGMA_Y + d[2] * SIGMA_Z)

    def test_one_invalid_state_rejects_the_stack(self):
        states = np.array([bell_state("phi+"), 2 * bell_state("psi-")])
        with pytest.raises(ValueError, match="trace 2.0"):
            validate_density_matrix(states)


class TestCorrelationMatrix:
    def test_phi_plus(self):
        t = correlation_matrix(bell_state("phi+"))
        assert np.allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_phaseflip_family(self):
        for p in (0.0, 0.2, 0.33, 0.8, 1.0):
            t = correlation_matrix(phaseflip(p))
            assert np.allclose(t, np.diag([1 - p, -(1 - p), 1.0]), atol=1e-12)

    def test_maximally_mixed(self):
        assert np.allclose(correlation_matrix(np.eye(4) / 4), np.zeros((3, 3)), atol=1e-14)

    def test_rank2_pattern_one_unit_two_concurrence(self):
        # rank-2 Bell-diagonal states carry a single |t| = 1 entry and two
        # entries of magnitude equal to the concurrence
        for p in np.linspace(0.0, 1.0, 21):
            for rho in (bitflip(p), phaseflip(p)):
                t = np.sort(np.abs(np.diag(correlation_matrix(rho))))[::-1]
                c = concurrence(rho)
                assert abs(t[0] - 1.0) < 1e-9
                assert abs(t[1] - c) < 1e-9
                assert abs(t[2] - c) < 1e-9

    def test_bell_diagonal_is_diagonal(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            t = correlation_matrix(random_bell_diagonal(rng))
            off = t - np.diag(np.diag(t))
            assert np.max(np.abs(off)) < 1e-9
            assert np.max(np.abs(t)) <= 1.0 + 1e-9


class TestBellDiagonalWeights:
    def test_bitflip_weights(self):
        w = bell_diagonal_weights(bitflip(0.33))
        assert w["phi+"] == pytest.approx(0.835, abs=1e-12)
        assert w["psi+"] == pytest.approx(0.165, abs=1e-12)
        assert abs(w["phi-"]) < 1e-12 and abs(w["psi-"]) < 1e-12

    def test_phaseflip_weights(self):
        w = bell_diagonal_weights(phaseflip(0.33))
        assert w["phi+"] == pytest.approx(0.835, abs=1e-12)
        assert w["phi-"] == pytest.approx(0.165, abs=1e-12)
        assert abs(w["psi+"]) < 1e-12 and abs(w["psi-"]) < 1e-12

    def test_pure_bell_state(self):
        w = bell_diagonal_weights(bell_state("phi+"))
        assert w["phi+"] == pytest.approx(1.0, abs=1e-12)
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)


class TestFidelityPure:
    def test_self_fidelity(self):
        phi = bell_state("phi+")
        assert fidelity_pure(phi, phi) == pytest.approx(1.0, abs=1e-12)

    def test_bitflip_vs_phi_plus(self):
        assert fidelity_pure(bitflip(0.33), bell_state("phi+")) == pytest.approx(
            0.835, abs=1e-12
        )

    def test_maximally_mixed(self):
        assert fidelity_pure(np.eye(4) / 4, bell_state("psi-")) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_rejects_mixed_target(self):
        with pytest.raises(ValueError, match="pure"):
            fidelity_pure(bell_state("phi+"), np.eye(4) / 4)


class TestJsonFormat:
    def test_round_trip_4x4(self):
        rng = np.random.default_rng(37)
        rho = random_density_matrix(rng)
        obj = density_matrix_to_json(rho)
        assert obj["basis"] == ["HH", "HV", "VH", "VV"]
        back = matrix_from_json(obj)
        assert np.allclose(back, rho, atol=1e-15)

    def test_round_trip_2x2(self):
        rng = np.random.default_rng(41)
        rho = random_density_matrix(rng, dim=2)
        obj = density_matrix_to_json(rho)
        assert obj["basis"] == ["H", "V"]
        assert np.allclose(matrix_from_json(obj), rho, atol=1e-15)

    def test_entries_are_re_im_pairs(self):
        obj = density_matrix_to_json(bell_state("phi+"))
        assert obj["matrix"][0][3] == [0.5, 0.0]

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_rejects_stacks(self, count):
        with pytest.raises(ValueError, match="one 2x2 or 4x4 matrix"):
            density_matrix_to_json(np.array(BELL_PROJECTORS[:count]))
