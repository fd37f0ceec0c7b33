import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings as hypothesis_settings, strategies as st

from entfilter import qmat, qstate
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
    unit_stokes_vector,
    validate_density_matrix,
    von_neumann_entropy,
)
from entfilter.channel import _filter_pair
from entfilter.qmat import hermitian_eig, matrix_sqrt_psd, partial_trace
from entfilter.qstate import BELL_LABELS, _BELL_COMPONENTS, _bell_diagonal_weights, _concurrence, _entropy_bits
from entfilter.qstate import _information_bits, _mutual_information, _spectrum
from entfilter.recover import plan_recovery
from entfilter.tomo import simulate_counts, standard_settings

from helpers import (
    BELL_PROJECTORS,
    count_calls,
    matrix_from_json,
    random_bell_diagonal,
    random_density_matrix,
    random_unitary,
)

Z = (0.0, 0.0, 1.0)

# Binary entropy of the p = 0.33 Bell mixture, from an independent scalar
# evaluation of -sum(w log2 w) over the weights {0.835, 0.165}.
ENTROPY_BF_033 = -(0.835 * math.log2(0.835) + 0.165 * math.log2(0.165))


def stack_spectrum(states):
    # (states, values, vectors) as a sweep's stack reaches the measure kernels: made exactly
    # Hermitian, as channel._filter_pair leaves a filtered pair, then decomposed once by hermitian_eig
    states = (states + states.conj().swapaxes(-1, -2)) / 2
    return (states, *hermitian_eig(states))


def unclamped_mutual_information(states):
    # S(A) + S(B) - S(AB) of one state or a stack from the library's own kernels, without the clamp to 0
    states, values, _ = stack_spectrum(states)
    s_a, s_b = _entropy_bits(hermitian_eig(partial_trace(states))[0]).T
    return s_a + s_b - _entropy_bits(values)


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


def _skewed_phi_plus(defect):
    # phi+ plus a real antisymmetric pair whose Frobenius defect |rho - rho^dagger| is defect
    rho = bell_state("phi+")
    rho[0, 1], rho[1, 0] = defect / (2 * math.sqrt(2)), -defect / (2 * math.sqrt(2))
    return rho


class TestValidateDensityMatrix:
    """The one place a state is judged: every measure takes what it accepts as valid."""

    @pytest.mark.parametrize(
        "rho, message",
        [
            (_with_entry(0.1), "not Hermitian"),
            (np.diag([1.5, -0.5, 0.0, 0.0]), "negative eigenvalue"),
            (_skewed_phi_plus(2e-10), "not Hermitian within 1e-10"),
            (bell_state("phi+") * (1 + 2e-10), "trace 1.0000000002 is not 1 within 1e-10"),
            (np.diag([1 + 2e-10, -2e-10, 0.0, 0.0]), "negative eigenvalue -2.000e-10"),
            (_with_entry(float("nan")), "must be finite"),
            (_with_entry(float("inf")), "must be finite"),
            (np.eye(3) / 3, r"^expected one 4x4 two-qubit density matrix, got shape \(3, 3\)$"),
            (np.full((2, 2, 2, 2), 0.25), r"^expected one 4x4 two-qubit density matrix, got shape \(2, 2, 2, 2\)$"),
            (np.eye(2) / 2, r"^expected one 4x4 two-qubit density matrix, got shape \(2, 2\)$"),
        ],
        ids=[
            "non-hermitian", "indefinite", "hermiticity-2e-10", "trace-2e-10", "eigenvalue-2e-10",
            "nan", "inf", "3x3", "rank-4-array", "one-qubit",
        ],
    )
    def test_rejects(self, rho, message):
        with pytest.raises(ValueError, match=message):
            validate_density_matrix(rho)

    def test_accepts_roundoff_negative_eigenvalue(self):
        rho = np.diag([1 + 5e-11, -5e-11, 0.0, 0.0])
        assert np.array_equal(validate_density_matrix(rho), rho)

    @pytest.mark.parametrize(
        "rho", [_skewed_phi_plus(5e-11), bell_state("phi+") * (1 + 5e-11)], ids=["hermiticity", "trace"]
    )
    def test_accepts_roundoff_within_1e10(self, rho):
        # HERMITICITY_TOL and TRACE_TOL just inside their bound; test_rejects has them just outside
        assert np.array_equal(validate_density_matrix(rho), rho)

    def test_measures_take_the_hermitian_part_of_the_state(self):
        # a state Hermitian only within HERMITICITY_TOL is averaged with its conjugate
        # transpose where it enters, so it and that transpose give the same float, bit for bit
        rho = 0.9 * bell_state("phi+") + 0.1 * np.eye(4) / 4
        rho[0, 3] += 5e-11
        for measure in (von_neumann_entropy, mutual_information, concurrence):
            value = measure(rho)
            assert type(value) is float and value == measure(rho.conj().T)

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
            lambda rho: fidelity_pure(rho, rho),
            lambda rho: fidelity_pure(bell_state("phi+"), rho),
            density_matrix_to_json,
            validate_density_matrix,
            von_neumann_entropy,
            mutual_information,
            concurrence,
            correlation_matrix,
            bell_diagonal_weights,
        ],
        ids=[
            "apply_filters",
            "simulate_counts",
            "plan_recovery",
            "fidelity_pure-state",
            "fidelity_pure-target",
            "density_matrix_to_json",
            "validate_density_matrix",
            "von_neumann_entropy",
            "mutual_information",
            "concurrence",
            "correlation_matrix",
            "bell_diagonal_weights",
        ],
    )
    @pytest.mark.parametrize(
        "rho",
        [
            np.array([bell_state("phi+"), bell_state("psi-")]),
            np.array([bell_state("phi+"), 2 * bell_state("psi-")]),
            np.eye(2) / 2,
        ],
        ids=["stack", "stack-with-invalid-state", "one-qubit"],
    )
    def test_single_state_entry_points_share_one_check(self, entry, rho):
        # every public function that takes a state takes one: one message for every
        # shape but (4, 4), naming the shape it got, before any state of a stack is judged
        message = f"expected one 4x4 two-qubit density matrix, got shape {np.shape(rho)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(rho)


class TestUnitStokesVector:
    @pytest.mark.parametrize("excess, accepted", [(5e-13, True), (2e-12, False)])
    def test_unit_norm_within_1e12(self, excess, accepted):
        direction = (0.0, 0.0, 1.0 + excess)
        if accepted:
            assert unit_stokes_vector(direction)[2] == 1.0 + excess
        else:
            with pytest.raises(ValueError, match="unit norm within 1e-12"):
                unit_stokes_vector(direction)


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

    def test_roundoff_stays_within_zero_and_two(self):
        # the eigenvalue sums of pure and of rotated maximally mixed states land a few
        # ulps either side of 0 and 2; the clip keeps both inside [0, 2], alone and in the
        # stack kernels. The roundoff eigenvalues of a pure state, about 1e-16, are
        # positive as often as not and count: over 100,000 random pure states the
        # entropy reached 4.0e-14 bits on each of five OpenBLAS kernels (SkylakeX,
        # Haswell, Zen, Sandybridge, Prescott), so 1e-13 bounds that roundoff
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        pure = np.einsum("ni,nj->nij", vectors, vectors.conj())
        entropies = _entropy_bits(stack_spectrum(pure)[1])
        assert ((0.0 <= entropies) & (entropies < 1e-13)).all()
        assert all(von_neumann_entropy(rho) >= 0.0 for rho in pure)
        unitaries = np.linalg.qr(rng.normal(size=(2000, 4, 4)) + 1j * rng.normal(size=(2000, 4, 4)))[0]
        mixed = unitaries @ (np.eye(4) / 4) @ unitaries.conj().swapaxes(1, 2)
        entropies = _entropy_bits(stack_spectrum(mixed)[1])
        assert ((2.0 - 1e-14 < entropies) & (entropies <= 2.0)).all()

    @pytest.mark.parametrize("weight", [1e-15, 5e-13, 2e-12])
    def test_every_positive_eigenvalue_counts(self, weight):
        # diag(1 - w, w, 0, 0): the w log w term is 2.1e-11 bits at w = 5e-13, which a floor
        # at 1e-12 would leave out of the sum; only the zeros are dropped
        rho = np.diag([1 - weight, weight, 0.0, 0.0])
        expected = -(1 - weight) * math.log2(1 - weight) - weight * math.log2(weight)
        assert von_neumann_entropy(rho) == pytest.approx(expected, rel=1e-9, abs=0)


class TestMutualInformation:
    def test_bell_state(self):
        assert mutual_information(bell_state("phi+")) == pytest.approx(2.0, abs=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(2)
        rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-12)

    def test_roundoff_negative_is_exactly_zero(self):
        # a product state's entropies cancel only to within roundoff; where the
        # remainder is negative, the clamp returns exactly 0, alone and in the stack kernel
        rng = np.random.default_rng(3)
        states = np.array(
            [np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2)) for _ in range(20)]
        )
        negative = unclamped_mutual_information(states) < 0
        assert negative.sum() >= 3
        assert (_mutual_information(*stack_spectrum(states)[:2])[negative] == 0.0).all()
        alone = [rho for rho in states if unclamped_mutual_information(rho) < 0]
        assert alone and all(mutual_information(rho) == 0.0 for rho in alone)

    def test_bitflip_mixture(self):
        # marginals are maximally mixed, so MI = 2 - S(AB)
        assert mutual_information(bitflip()) == pytest.approx(
            2.0 - ENTROPY_BF_033, abs=1e-12
        )
        assert mutual_information(bitflip()) == pytest.approx(1.3539, abs=1e-4)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(17)
        # in the stack kernels a sweep takes
        states, values, vectors = stack_spectrum(np.array([random_density_matrix(rng) for _ in range(10_000)]))
        mi, c = _mutual_information(states, values), _concurrence(values, vectors)
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
        # local rotations of phi+ on qubit A; unclipped, more than a quarter of them
        # come out a few ulps above 1 in the stack kernel
        rng = np.random.default_rng(0)
        rotations = np.array([np.kron(random_unitary(rng), np.eye(2)) for _ in range(2000)])
        states = rotations @ bell_state("phi+") @ rotations.conj().swapaxes(-1, -2)
        assert _concurrence(*stack_spectrum(states)[1:]).max() == 1.0

    def test_takes_no_matrix_square_root(self, monkeypatch):
        # the Wootters values come from the factor V sqrt(w) of the decomposition _spectrum
        # holds: no Hermitian square root, and no V diag(w) V^dagger rebuild
        calls = {name: count_calls(monkeypatch, qmat, name) for name in ("matrix_sqrt_psd", "_rebuild")}
        concurrence(bitflip(0.33))
        assert calls == {"matrix_sqrt_psd": [], "_rebuild": []}
        assert "matrix_sqrt_psd" not in vars(qstate)

    def test_bell_diagonal_closed_form(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            rho = random_bell_diagonal(rng)
            w_max = max(bell_diagonal_weights(rho).values())
            assert concurrence(rho) == pytest.approx(
                max(0.0, 2 * w_max - 1), abs=1e-9
            )


class TestStacks:
    def test_pauli_dot_of_stacked_directions(self):
        rng = np.random.default_rng(47)
        directions = rng.normal(size=(5, 2, 3))
        stacked = pauli_dot(directions)
        assert stacked.shape == (5, 2, 2, 2)
        for d, op in zip(directions.reshape(-1, 3), stacked.reshape(-1, 2, 2)):
            assert np.array_equal(op, d[0] * SIGMA_X + d[1] * SIGMA_Y + d[2] * SIGMA_Z)


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

    @pytest.mark.parametrize("weight, accepted", [(1e-11, True), (1e-8, False)])
    def test_target_purity_within_1e9(self, weight, accepted):
        # (1 - w) phi+ + w phi- has purity 1 - 2w + 2w^2: 2e-11 and 2e-8 below 1
        target = (1 - weight) * bell_state("phi+") + weight * bell_state("phi-")
        if accepted:
            assert fidelity_pure(bell_state("phi+"), target) == pytest.approx(1 - weight, abs=1e-15)
        else:
            with pytest.raises(ValueError, match="pure"):
                fidelity_pure(bell_state("phi+"), target)


class TestJsonFormat:
    def test_round_trip_4x4(self):
        rng = np.random.default_rng(37)
        rho = random_density_matrix(rng)
        obj = density_matrix_to_json(rho)
        assert obj["basis"] == ["HH", "HV", "VH", "VV"]
        back = matrix_from_json(obj)
        assert np.allclose(back, rho, atol=1e-15)

    def test_entries_are_re_im_pairs(self):
        obj = density_matrix_to_json(bell_state("phi+"))
        assert obj["matrix"][0][3] == [0.5, 0.0]

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_rejects_stacks(self, count):
        with pytest.raises(ValueError, match="^expected one 4x4 two-qubit density matrix"):
            density_matrix_to_json(np.array(BELL_PROJECTORS[:count]))


# The formulations the measures replaced, kept as references: the rewrites must give
# the same bits, signed zeros included.
def matmul_bell_weights(rho):
    return {label: float(np.real(w.conj() @ rho @ w) / 2) for label, w in _BELL_COMPONENTS.items()}


def clipped_entropy(values):
    # + 0.0 maps the -0.0 sum of a pure state, which the clip keeps, to +0.0
    w = np.where(values > 0.0, values, 1.0)
    return (-(w * np.log2(w)).sum(axis=-1)).clip(0.0, np.log2(values.shape[-1])) + 0.0


def two_call_mutual_information(rho, values):
    # each marginal taken by slicing and decomposed alone
    s_a = clipped_entropy(hermitian_eig(rho[..., 0::2, 0::2] + rho[..., 1::2, 1::2])[0])
    s_b = clipped_entropy(hermitian_eig(rho[..., :2, :2] + rho[..., 2:, 2:])[0])
    return _information_bits(s_a, s_b, clipped_entropy(values))


def matmul_concurrence(values, vectors):
    root = matrix_sqrt_psd(values, vectors)
    lam = np.linalg.svd(root @ np.kron(SIGMA_Y, SIGMA_Y) @ root.conj(), compute_uv=False)
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def reference_states():
    # random states of rank 1-4, Bell and product states, noisy pairs, filtered noisy pairs
    rng = np.random.default_rng(83)
    for index in range(400):
        g = rng.normal(size=(4, 1 + index % 4)) + 1j * rng.normal(size=(4, 1 + index % 4))
        yield g @ g.conj().T / np.trace(g @ g.conj().T).real
    yield from BELL_PROJECTORS
    yield from (np.kron(np.diag(a), np.diag(b)) for a in ([1.0, 0.0], [0.5, 0.5]) for b in ([0.0, 1.0], [0.3, 0.7]))
    gammas = np.array([0.0, 0.3, 0.857, 3.0, 20.0, 200.0])
    for noise in (PauliNoiseSpec.bit_flip, PauliNoiseSpec.phase_flip):
        for p in np.linspace(0.0, 1.0, 11):
            rho = pauli_channel_state(noise(p))
            yield rho
            for gamma in gammas:
                yield _filter_pair(rho, FilterElement(gamma, Z), FilterElement(gamma / 2, (0.0, 0.0, -1.0)))[0]


class TestMatchesReplacedFormulation:
    """Bell weights, entropy and mutual information equal their old formulations bit for bit.

    The concurrence, taken from the state's factor rather than its square root, agrees
    with the square-root formulation within 2e-15.
    """

    def test_single_states(self):
        for rho in reference_states():
            rho, values, vectors = _spectrum(rho)
            weights = _bell_diagonal_weights(rho)
            assert list(weights) == list(BELL_LABELS)
            assert bits(list(weights.values())) == bits(list(matmul_bell_weights(rho).values()))
            assert bits(_entropy_bits(values)) == bits(clipped_entropy(values))
            assert bits(_mutual_information(rho, values)) == bits(two_call_mutual_information(rho, values))
            assert abs(_concurrence(values, vectors) - matmul_concurrence(values, vectors)) <= 2e-15

    def test_stacks(self):
        states = np.array(list(reference_states()))
        states, values, vectors = stack_spectrum(states)
        assert bits(_entropy_bits(values)) == bits(clipped_entropy(values))
        assert bits(_mutual_information(states, values)) == bits(two_call_mutual_information(states, values))
        assert np.abs(_concurrence(values, vectors) - matmul_concurrence(values, vectors)).max() <= 2e-15

    def test_signed_zero_entropies(self):
        # a pure state's entropy sums to -0.0, which the lower bound maps to +0.0
        values = np.array([[1.0, 0.0], [0.5, 0.5], [1.0 + 2**-52, -1e-17], [0.0, 0.0]])
        assert bits(_entropy_bits(values)) == bits(clipped_entropy(values))
        assert bits(_entropy_bits(values[0])) == bits(0.0)
        assert bits(von_neumann_entropy(bell_state("phi+"))) == bits(0.0)
