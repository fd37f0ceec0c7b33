import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from entfilter.channel import PauliNoiseSpec, pauli_channel_state
from entfilter.qmat import hermitian_eig, matrix_sqrt_psd
from entfilter.qstate import (
    IDENTITY_2,
    PAULIS,
    bell_diagonal_weights,
    bell_state,
    fidelity_pure,
    validate_density_matrix,
)
from entfilter.tomo import (
    InsufficientStatisticsError,
    MeasurementSetting,
    TomographyRecord,
    coincidence_probability,
    reconstruct,
    record_from_json,
    record_to_json,
    _SIGNED_AXES,
    _pcg64_states,
    _signed_axes,
    simulate_counts,
    standard_settings,
)

from helpers import random_density_matrix

PLUS_Z = (0.0, 0.0, 1.0)
MINUS_Z = (0.0, 0.0, -1.0)
STANDARD = tuple(standard_settings())


def loop_counts(rho, settings, exposure, dark_prob, seed, exact):
    """Per-setting reference for simulate_counts: one projector pair and trace per setting."""
    counts = []
    for index, setting in enumerate(settings):
        pa, pb = (
            (IDENTITY_2 + v[0] * PAULIS[0] + v[1] * PAULIS[1] + v[2] * PAULIS[2]) / 2
            for v in (setting.proj_a, setting.proj_b)
        )
        mu = max(exposure * (float(np.trace(rho @ np.kron(pa, pb)).real) + dark_prob), 0.0)
        counts.append(mu if exact else float(np.random.default_rng([seed, index]).poisson(mu)))
    return tuple(counts)


def signed_axis(direction):
    j = int(np.argmax(np.abs(direction)))
    return j, int(np.sign(direction[j]))


def loop_reconstruct(record):
    """Per-setting reference for reconstruct: running sums, then one term per Pauli pair."""
    corr_signed, group_total = np.zeros((3, 3)), np.zeros((3, 3))
    signed, total = np.zeros((2, 3)), np.zeros((2, 3))
    for setting, n in zip(record.settings, record.counts):
        (j, sign_a), (k, sign_b) = signed_axis(setting.proj_a), signed_axis(setting.proj_b)
        corr_signed[j, k] += sign_a * sign_b * n
        group_total[j, k] += n
        for station, axis, sign in ((0, j, sign_a), (1, k, sign_b)):
            signed[station, axis] += sign * n
            total[station, axis] += n
    corr, (stokes_a, stokes_b) = corr_signed / group_total, signed / total
    rho = np.eye(4, dtype=complex)
    for j in range(3):
        rho += stokes_a[j] * np.kron(PAULIS[j], IDENTITY_2)
        rho += stokes_b[j] * np.kron(IDENTITY_2, PAULIS[j])
        for k in range(3):
            rho += corr[j, k] * np.kron(PAULIS[j], PAULIS[k])
    rho /= 4.0
    values, vectors = hermitian_eig(rho)
    clipped = np.clip(values, 0.0, None)
    clipped /= float(clipped.sum())
    out = (vectors * clipped) @ vectors.conj().T
    return (out + out.conj().T) / 2


def uhlmann_fidelity(rho, sigma):
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, the general mixed-state fidelity."""
    root = matrix_sqrt_psd(*hermitian_eig(rho))
    inner = matrix_sqrt_psd(*hermitian_eig(root @ sigma @ root))
    return float(np.trace(inner).real) ** 2


class TestStandardSettings:
    def test_count(self):
        assert len(standard_settings()) == 36

    def test_first_setting(self):
        first = standard_settings()[0]
        assert first.proj_a == PLUS_Z
        assert first.proj_b == PLUS_Z

    def test_all_distinct(self):
        settings = standard_settings()
        assert len(set(settings)) == 36

    def test_rejects_non_unit_directions(self):
        with pytest.raises(ValueError):
            MeasurementSetting((1.0, 1.0, 0.0), PLUS_Z)

    def test_rejects_nan_directions(self):
        with pytest.raises(ValueError, match="unit norm"):
            MeasurementSetting((float("nan"), 0.0, 0.0), PLUS_Z)

    def test_returns_a_fresh_list(self):
        standard_settings().clear()
        assert standard_settings() == list(STANDARD)


class TestSimulateCounts:
    def test_cross_polarized_on_phi_plus_is_dark(self):
        phi = bell_state("phi+")
        setting = MeasurementSetting(PLUS_Z, MINUS_Z)
        assert coincidence_probability(phi, [setting]) == pytest.approx([0.0], abs=1e-15)
        record = simulate_counts(phi, [setting], exposure=1e5, dark_prob=0.0, exact=True)
        assert record.counts[0] == 0.0

    def test_copolarized_expectation(self):
        phi = bell_state("phi+")
        setting = MeasurementSetting(PLUS_Z, PLUS_Z)
        record = simulate_counts(phi, [setting], exposure=1e4, dark_prob=0.0, exact=True)
        assert record.counts[0] == pytest.approx(5e3, rel=1e-12)

    def test_deterministic_for_fixed_seed(self):
        rho = pauli_channel_state(PauliNoiseSpec.bit_flip(0.33))
        a = simulate_counts(rho, standard_settings(), 1e4, 4e-5, seed=7)
        b = simulate_counts(rho, standard_settings(), 1e4, 4e-5, seed=7)
        assert a.counts == b.counts

    def test_different_seeds_differ(self):
        rho = pauli_channel_state(PauliNoiseSpec.bit_flip(0.33))
        a = simulate_counts(rho, standard_settings(), 1e4, seed=1)
        b = simulate_counts(rho, standard_settings(), 1e4, seed=2)
        assert a.counts != b.counts

    def test_sampled_counts_are_integers(self):
        rho = bell_state("psi-")
        record = simulate_counts(rho, standard_settings(), 1e3, seed=5)
        assert all(float(c).is_integer() for c in record.counts)

    def test_dark_counts_shift_expectation(self):
        phi = bell_state("phi+")
        setting = MeasurementSetting(PLUS_Z, MINUS_Z)
        record = simulate_counts(phi, [setting], exposure=1e6, dark_prob=4e-5, exact=True)
        assert record.counts[0] == pytest.approx(40.0, rel=1e-9)

    def test_rejects_bad_exposure(self):
        with pytest.raises(ValueError):
            simulate_counts(bell_state("phi+"), standard_settings(), 0.0)

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"exposure": float("nan")}, ValueError, "exposure must be finite"),
            ({"exposure": float("inf")}, ValueError, "exposure must be finite"),
            ({"dark_prob": float("nan")}, ValueError, "dark_prob must be finite"),
            ({"dark_prob": float("inf")}, ValueError, "dark_prob must be finite"),
            ({"seed": 1.7}, TypeError, "integer"),
            ({"seed": True}, TypeError, "integer"),
            ({"seed": -1}, ValueError, "non-negative"),
            ({"exposure": True}, ValueError, "not bools"),
            ({"dark_prob": np.False_}, ValueError, "not bools"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, error, message):
        args = {"exposure": 1e3, "dark_prob": 0.0, "seed": 0, **kwargs}
        with pytest.raises(error, match=message):
            simulate_counts(bell_state("phi+"), STANDARD, **args)

    def test_numpy_integer_seed(self):
        rho = bell_state("phi+")
        record = simulate_counts(rho, STANDARD, 1e3, seed=np.int64(9))
        assert record.seed == 9 and type(record.seed) is int
        assert record == simulate_counts(rho, STANDARD, 1e3, seed=9)

    def test_accepts_settings_generator(self):
        record = simulate_counts(
            bell_state("phi+"), (s for s in standard_settings()), 1e3, seed=1
        )
        assert len(record.settings) == 36
        assert len(record.counts) == 36


class TestReconstruct:
    def test_exact_bell_state_round_trip(self):
        phi = bell_state("phi+")
        record = simulate_counts(phi, standard_settings(), 1e5, dark_prob=0.0, exact=True)
        estimate = reconstruct(record)
        assert fidelity_pure(estimate, phi) == pytest.approx(1.0, abs=1e-9)

    def test_exact_round_trip_on_random_states(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            rho = random_density_matrix(rng)
            record = simulate_counts(rho, standard_settings(), 1e4, dark_prob=0.0, exact=True)
            estimate = reconstruct(record)
            assert np.linalg.norm(estimate - rho) < 1e-9

    def test_sampled_reconstruction_is_accurate(self):
        rho = pauli_channel_state(PauliNoiseSpec.bit_flip(0.33))
        for seed in range(20):
            record = simulate_counts(rho, standard_settings(), 1e5, dark_prob=0.0, seed=seed)
            estimate = reconstruct(record)
            assert uhlmann_fidelity(estimate, rho) > 0.99

    def test_phaseflip_weights_recovered_with_dark_counts(self):
        rho = pauli_channel_state(PauliNoiseSpec.phase_flip(0.33))
        record = simulate_counts(rho, standard_settings(), 1e5, dark_prob=4e-5, seed=11)
        weights = bell_diagonal_weights(reconstruct(record))
        assert weights["phi+"] == pytest.approx(0.835, abs=0.02)
        assert weights["phi-"] == pytest.approx(0.165, abs=0.02)
        assert abs(weights["psi+"]) < 0.02 and abs(weights["psi-"]) < 0.02

    def test_zero_counts_raise(self):
        settings = standard_settings()
        record = TomographyRecord(
            settings=tuple(settings),
            counts=tuple(0.0 for _ in settings),
            exposure=1e5,
            dark_prob=0.0,
            seed=0,
        )
        with pytest.raises(InsufficientStatisticsError):
            reconstruct(record)

    def test_missing_group_raises(self):
        # drop every setting touching the y axis on station B
        kept = [
            (s, 100.0)
            for s in standard_settings()
            if abs(s.proj_b[1]) < 0.5
        ]
        record = TomographyRecord(
            settings=tuple(s for s, _ in kept),
            counts=tuple(c for _, c in kept),
            exposure=1e3,
            dark_prob=0.0,
            seed=0,
        )
        with pytest.raises(InsufficientStatisticsError):
            reconstruct(record)

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=36, max_size=36))
    def test_output_always_physical(self, counts):
        # any non-negative counts give a valid density matrix or a statistics error
        record = TomographyRecord(STANDARD, tuple(counts), 1e3, 0.0, 0)
        try:
            estimate = reconstruct(record)
        except InsufficientStatisticsError:
            return
        validate_density_matrix(estimate)

    def test_error_decreases_with_exposure(self):
        rho = pauli_channel_state(PauliNoiseSpec.bit_flip(0.33))
        medians = []
        for exposure in (1e3, 1e4, 1e5):
            errors = []
            for seed in range(15):
                record = simulate_counts(rho, standard_settings(), exposure, seed=seed)
                errors.append(np.linalg.norm(reconstruct(record) - rho))
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2]

    def test_rejects_tilted_analyzers(self):
        tilted = MeasurementSetting(
            (1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)), PLUS_Z
        )
        record = TomographyRecord((tilted,), (10.0,), 1e3, 0.0, 0)
        with pytest.raises(ValueError, match="signed Pauli axes"):
            reconstruct(record)

    def test_analyzer_axis_tolerance(self):
        # an analyzer counts as +-e_j within 1e-9 off-axis; 1e-7 is a tilt
        def record(tilt):
            tilted = MeasurementSetting((tilt, 0.0, -np.sqrt(1 - tilt**2)), PLUS_Z)
            settings = (tilted,) + STANDARD[1:]
            return TomographyRecord(settings, (10.0,) * len(settings), 1e3, 0.0, 0)

        assert np.array_equal(reconstruct(record(1e-10)), reconstruct(record(0.0)))
        with pytest.raises(ValueError, match="signed Pauli axes"):
            reconstruct(record(1e-7))

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 5),
        st.floats(-12.0, -6.0),
        st.floats(0.0, 2 * np.pi),
    )
    def test_axis_hits_match_isclose(self, row, log_tilt, angle):
        # a unit direction tilted off one signed axis by 1e-12 to 1e-6, toward a random
        # perpendicular; _signed_axes must hit exactly where np.isclose(atol=1e-9) does
        axis, tilt = _SIGNED_AXES[row], 10.0**log_tilt
        u, v = np.roll(np.eye(3), 1 + row // 2, axis=1)[:2]
        direction = np.sqrt(1 - tilt**2) * axis + tilt * (np.cos(angle) * u + np.sin(angle) * v)
        setting = MeasurementSetting(tuple(direction), PLUS_Z)
        hits = np.isclose(np.array(setting.proj_a), _SIGNED_AXES, atol=1e-9).all(axis=-1)
        if hits.any():
            first = int(hits.argmax())
            found_axis, found_sign = _signed_axes((setting,))
            assert (found_axis[0, 0], found_sign[0, 0]) == (first // 2, 1.0 - 2.0 * (first % 2))
        else:
            with pytest.raises(ValueError, match="signed Pauli axes"):
                _signed_axes((setting,))


class TestStackedMatchesLoop:
    """simulate_counts and reconstruct equal their per-setting references bit for bit."""

    def test_random_records(self):
        rng = np.random.default_rng(71)
        for index in range(16):
            rank = 1 + index % 4
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
            # shuffled, partly repeated settings exercise the pooling order
            order = np.concatenate([rng.permutation(36), rng.integers(0, 36, size=index % 5)])
            chosen = [STANDARD[i] for i in order]
            for exposure, dark_prob, exact in ((1e5, 4e-5, False), (1e3, 0.0, False), (1e4, 4e-5, True)):
                record = simulate_counts(rho, chosen, exposure, dark_prob, seed=index, exact=exact)
                assert record.counts == loop_counts(rho, chosen, exposure, dark_prob, index, exact)
                assert np.array_equal(reconstruct(record), loop_reconstruct(record))


class TestSeeding:
    """The vectorized derivation gives each setting the PCG64 state of default_rng([seed, i])."""

    @pytest.mark.parametrize(
        "seed",
        # 1, 2, 3 and 5 entropy words; 5 words run past SeedSequence's 4-word pool
        [0, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1]
        + [int(s) for s in np.random.default_rng(83).integers(0, 2**63, size=4)],
    )
    def test_states_match_default_rng(self, seed):
        for index, (state, inc) in enumerate(_pcg64_states(seed, 40)):
            reference = np.random.default_rng([seed, index]).bit_generator.state["state"]
            assert (state, inc) == (reference["state"], reference["inc"])


class TestRecordJson:
    def test_round_trip(self):
        rho = pauli_channel_state(PauliNoiseSpec.phase_flip(0.33))
        record = simulate_counts(rho, standard_settings(), 1e4, 4e-5, seed=3)
        back = record_from_json(record_to_json(record))
        assert back == record

    def test_schema_fields(self):
        record = simulate_counts(bell_state("phi+"), standard_settings(), 1e3, seed=1)
        obj = record_to_json(record)
        assert set(obj) == {"settings", "counts", "exposure", "dark_prob", "seed"}
        assert obj["settings"][0] == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        assert all(isinstance(c, int) for c in obj["counts"])

    def test_exact_counts_serialize_as_floats(self):
        record = simulate_counts(
            bell_state("phi+"), standard_settings(), 1e3 + 0.5, exact=True
        )
        obj = record_to_json(record)
        assert any(isinstance(c, float) for c in obj["counts"])

    def test_record_validation(self):
        with pytest.raises(ValueError, match="length"):
            TomographyRecord(
                settings=(MeasurementSetting(PLUS_Z, PLUS_Z),),
                counts=(1.0, 2.0),
                exposure=10.0,
                dark_prob=0.0,
                seed=0,
            )
        with pytest.raises(ValueError, match="non-negative"):
            TomographyRecord(
                settings=(MeasurementSetting(PLUS_Z, PLUS_Z),),
                counts=(-1.0,),
                exposure=10.0,
                dark_prob=0.0,
                seed=0,
            )

    def test_rejects_nan_analyzer(self):
        obj = record_to_json(simulate_counts(bell_state("phi+"), STANDARD[:1], 1e3, seed=1))
        obj["settings"][0][1] = [0.0, float("nan"), 1.0]
        with pytest.raises(ValueError, match="unit norm"):
            record_from_json(obj)

    @pytest.mark.parametrize("seed", [1.7, True, "12", -5])
    def test_rejects_bad_seed(self, seed):
        obj = record_to_json(simulate_counts(bell_state("phi+"), STANDARD[:1], 1e3, seed=1))
        obj["seed"] = seed
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            record_from_json(obj)

    @pytest.mark.parametrize("seed", [2**70, np.int64(3)])
    def test_integer_seed_is_stored_as_int(self, seed):
        record = TomographyRecord(STANDARD[:1], (1.0,), 1e3, 0.0, seed)
        assert record.seed == seed and type(record.seed) is int
        assert record_from_json(record_to_json(record)) == record

    @pytest.mark.parametrize(
        "exposure, dark_prob", [(True, False), (10.0, False), (np.True_, 0.0)]
    )
    def test_rejects_bool_acquisition_parameters(self, exposure, dark_prob):
        with pytest.raises(ValueError, match="not bools"):
            TomographyRecord(STANDARD[:1], (1.0,), exposure, dark_prob, 0)

    @pytest.mark.parametrize("field", ["counts", "exposure", "dark_prob"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_fields(self, field, value):
        fields = dict(
            settings=(MeasurementSetting(PLUS_Z, PLUS_Z),),
            counts=(1.0,),
            exposure=10.0,
            dark_prob=0.0,
            seed=0,
        )
        fields[field] = (value,) if field == "counts" else value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TomographyRecord(**fields)
