import copy
import dataclasses
import json
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

from entfilter import tomo
from entfilter.channel import PauliNoiseSpec, pauli_channel_state
from entfilter.cli import _record_text
from entfilter.qmat import hermitian_eig, matrix_sqrt_psd
from entfilter.qstate import (
    IDENTITY_2,
    PAULIS,
    bell_diagonal_weights,
    bell_state,
    fidelity_pure,
    unit_stokes_vector,
    validate_density_matrix,
)
from entfilter.tomo import (
    InsufficientStatisticsError,
    MeasurementSettings,
    TomographyRecord,
    coincidence_probability,
    reconstruct,
    record_from_json,
    record_to_json,
    _SIGNED_AXES,
    _json_field,
    _json_number,
    _pcg64_states,
    _signed_axes,
    simulate_counts,
    standard_settings,
)

from helpers import count_calls, random_density_matrix

PLUS_Z = (0.0, 0.0, 1.0)
MINUS_Z = (0.0, 0.0, -1.0)
STANDARD = standard_settings()
FIRST = STANDARD.directions[:1]  # (+z, +z) alone

# Each seed with the int a record stores for it, or None where the seed is rejected
SEEDS = {
    "bool": (True, None),
    "float": (1.7, None),
    "string": ("3", None),
    "negative": (-1, None),
    "numpy-int64": (np.int64(7), 7),
    "2**70": (2**70, 2**70),
}
SEED_USERS = {
    "simulate_counts": lambda seed: simulate_counts(bell_state("phi+"), FIRST, 1e3, seed=seed),
    "TomographyRecord": lambda seed: TomographyRecord(FIRST, (1.0,), 1e3, 0.0, seed),
}


def loop_counts(rho, settings, exposure, dark_prob, seed, exact):
    """Per-setting reference for simulate_counts: one projector pair and trace per setting."""
    counts = []
    for index, pair in enumerate(settings.directions):
        pa, pb = (
            (IDENTITY_2 + v[0] * PAULIS[0] + v[1] * PAULIS[1] + v[2] * PAULIS[2]) / 2
            for v in pair
        )
        mu = max(exposure * (float(np.trace(rho @ np.kron(pa, pb)).real) + dark_prob), 0.0)
        counts.append(mu if exact else float(np.random.default_rng([seed, index]).poisson(mu)))
    return tuple(counts)


def signed_axis(direction):
    j = int(np.argmax(np.abs(direction)))
    return j, int(np.sign(direction[j]))


def loop_reconstruct(record):
    """Per-setting reference for reconstruct: running sums, then one term per Pauli pair.

    A signed axis pair listed k times weighs 1/k, so its repeats count once.
    """
    pairs = [(*signed_axis(a), *signed_axis(b)) for a, b in record.settings.directions]
    corr_signed, group_total = np.zeros((3, 3)), np.zeros((3, 3))
    signed, total = np.zeros((2, 3)), np.zeros((2, 3))
    for (j, sign_a, k, sign_b), n in zip(pairs, record.counts):
        n = 1.0 / pairs.count((j, sign_a, k, sign_b)) * n
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


def add_at_reconstruct(record):
    """reconstruct as it pooled before bincount: np.add.at into (4, 4) tables at (row, column) cells."""
    cells, signs, weights = record.settings.pooling_layout
    counts = np.broadcast_to(weights * np.asarray(record.counts, dtype=float), signs.shape)
    signed, pooled = np.zeros((4, 4)), np.zeros((4, 4))
    np.add.at(signed, np.divmod(cells, 4), signs * counts)
    np.add.at(pooled, np.divmod(cells, 4), counts)
    if np.any(pooled[1:, 1:] <= 0):
        j, k = np.argwhere(pooled[1:, 1:] <= 0)[0]
        raise InsufficientStatisticsError(f"setting group (axis {j}, axis {k}) has zero total counts")
    stokes = signed / pooled
    rho = (stokes[tomo._MU, tomo._NU][:, None, None] * tomo._TERM_BASIS).sum(axis=0) / 4.0
    values, vectors = hermitian_eig(rho)
    clipped = np.clip(values, 0.0, None)
    clipped /= clipped.sum()
    return tomo.qmat._rebuild(clipped, vectors)


def uhlmann_fidelity(rho, sigma):
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, the general mixed-state fidelity."""
    root = matrix_sqrt_psd(*hermitian_eig(rho))
    inner = matrix_sqrt_psd(*hermitian_eig(root @ sigma @ root))
    return float(np.trace(inner).real) ** 2


class TestStandardSettings:
    def test_count(self):
        assert len(standard_settings()) == 36

    def test_first_setting(self):
        first = standard_settings().directions[0]
        assert first.tolist() == [list(PLUS_Z), list(PLUS_Z)]

    def test_all_distinct(self):
        rows = standard_settings().directions.reshape(36, 6)
        assert len(np.unique(rows, axis=0)) == 36

    def test_rejects_non_unit_directions(self):
        with pytest.raises(ValueError):
            MeasurementSettings([((1.0, 1.0, 0.0), PLUS_Z)])

    def test_rejects_nan_directions(self):
        with pytest.raises(ValueError, match="unit norm"):
            MeasurementSettings([((float("nan"), 0.0, 0.0), PLUS_Z)])

    def test_returns_one_read_only_instance(self):
        # every caller shares the instance, so neither its array nor the attribute can change
        shared = standard_settings()
        assert standard_settings() is shared
        with pytest.raises(ValueError, match="read-only"):
            shared.directions[0, 0, 2] = -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.directions = shared.directions[::-1]
        assert shared.directions[0].tolist() == [list(PLUS_Z), list(PLUS_Z)]


def with_direction(row, station, direction):
    """The standard 36 with one direction replaced."""
    directions = STANDARD.directions.copy()
    directions[row, station] = direction
    return directions


NEAR_UNIT = st.one_of(
    # unit directions scaled by 1 + e, |e| <= 1e-11, around the 1e-12 bound
    st.tuples(
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
        st.floats(-1e-11, 1e-11),
    ).map(lambda ve: tuple(np.array(ve[0]) / np.linalg.norm(ve[0]) * (1.0 + ve[1]))),
    st.tuples(*[st.sampled_from([0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])] * 3),
)


class TestSettingsValidation:
    """One unit-norm rule, checked once over the whole (S, 2, 3) array."""

    @pytest.mark.parametrize(
        "directions",
        [
            np.zeros((36, 2, 2)),
            np.zeros((36, 3, 3)),
            STANDARD.directions[0],
            STANDARD.directions[..., None],
            np.ones(6),
            1.0,
        ],
        ids=["two-components", "three-stations", "one-pair", "4-d", "flat", "scalar"],
    )
    def test_rejects_wrong_shapes(self, directions):
        with pytest.raises(ValueError, match=r"\(S, 2, 3\) analyzer directions"):
            MeasurementSettings(directions)

    @pytest.mark.parametrize("row", [0, 17, 35], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("station", [0, 1], ids=["A", "B"])
    @pytest.mark.parametrize(
        "direction",
        [
            (1.0, 1.0, 0.0),
            (0.0, 0.0, 1.0 + 1e-11),
            (0.0, 0.0, 0.0),
            (np.nan, 0.0, 1.0),
            (np.inf, 0.0, 0.0),
            (0.0, -np.inf, 0.0),
        ],
        ids=["non-unit", "long", "zero", "nan", "inf", "-inf"],
    )
    def test_rejects_one_bad_direction(self, row, station, direction):
        with pytest.raises(ValueError, match="unit norm"):
            MeasurementSettings(with_direction(row, station, direction))

    def test_empty_settings_are_valid(self):
        record = TomographyRecord([], (), 1e3, 0.0, 0)
        assert len(record.settings) == 0 and record.settings.directions.shape == (0, 2, 3)
        assert record_from_json(record_to_json(record)) == record

    @hypothesis_settings(max_examples=300, deadline=None)
    @given(NEAR_UNIT, st.integers(0, 35), st.integers(0, 1))
    @example((0.0, 0.0, 1.0 + 1e-12), 0, 0)
    @example((0.0, 0.0, 1.0 - 1e-12), 35, 1)
    def test_single_and_stacked_checks_agree(self, direction, row, station):
        def accepts(check, value):
            try:
                check(value)
            except ValueError:
                return False
            return True

        single = accepts(unit_stokes_vector, direction)
        assert single == accepts(MeasurementSettings, [(direction, PLUS_Z)])
        assert single == accepts(MeasurementSettings, with_direction(row, station, direction))


class TestSimulateCounts:
    def test_cross_polarized_on_phi_plus_is_dark(self):
        phi = bell_state("phi+")
        setting = [(PLUS_Z, MINUS_Z)]
        assert coincidence_probability(phi, setting) == pytest.approx([0.0], abs=1e-15)
        record = simulate_counts(phi, setting, exposure=1e5, dark_prob=0.0, exact=True)
        assert record.counts[0] == 0.0

    def test_roundoff_negative_probability_counts_zero(self):
        # diag(0.5 + 1e-11, 0.5, 0, -1e-11) is valid within PSD_TOL; its VV probability
        # -1e-11 gives an expected count of exactly 0, not a negative one
        rho = np.diag([0.5 + 1e-11, 0.5, 0.0, -1e-11])
        record = simulate_counts(rho, [(MINUS_Z, MINUS_Z)], exposure=1e5, dark_prob=0.0, exact=True)
        assert record.counts == (0.0,)

    def test_copolarized_expectation(self):
        phi = bell_state("phi+")
        record = simulate_counts(phi, [(PLUS_Z, PLUS_Z)], exposure=1e4, dark_prob=0.0, exact=True)
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
        record = simulate_counts(phi, [(PLUS_Z, MINUS_Z)], exposure=1e6, dark_prob=4e-5, exact=True)
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
            ({"seed": 1.7}, ValueError, "non-negative integer"),
            ({"seed": True}, ValueError, "non-negative integer"),
            ({"seed": -1}, ValueError, "non-negative"),
            ({"exposure": True}, ValueError, "not bools"),
            ({"dark_prob": np.False_}, ValueError, "not bools"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, error, message):
        args = {"exposure": 1e3, "dark_prob": 0.0, "seed": 0, **kwargs}
        with pytest.raises(error, match=message):
            simulate_counts(bell_state("phi+"), STANDARD, **args)

    def test_poisson_limit_is_numpys(self):
        # the largest expected count Generator.poisson draws, and the next double it refuses
        draw = np.random.default_rng(0).poisson
        assert draw(tomo._POISSON_MAX) > 0
        with pytest.raises(ValueError, match="lam value too large"):
            draw(np.nextafter(tomo._POISSON_MAX, np.inf))

    @pytest.mark.parametrize("exposure, dark_prob", [(1e300, 0.0), (3.6e19, 4e-5), (1e5, 1e300)])
    def test_sampling_above_the_poisson_limit_names_the_setting(self, exposure, dark_prob):
        # (+z, -z) of phi+ expects only its dark counts, so (+z, +z), setting 1, is the first
        # above the limit unless the dark counts are too; exact counts are stored either way
        settings = [(PLUS_Z, MINUS_Z), (PLUS_Z, PLUS_Z), (MINUS_Z, MINUS_Z)]
        exact = simulate_counts(bell_state("phi+"), settings, exposure, dark_prob, exact=True)
        index = 0 if exact.counts[0] > tomo._POISSON_MAX else 1
        message = (
            f"setting {index} expects {exact.counts[index]:.6g} counts, above the Poisson sampler's "
            "limit of 9.22337e+18; lower exposure or dark_prob, or simulate exact counts"
        )
        with pytest.raises(ValueError) as caught:
            simulate_counts(bell_state("phi+"), settings, exposure, dark_prob)
        assert str(caught.value) == message

    @pytest.mark.parametrize("exact", [False, True])
    def test_overflowing_expected_count_names_the_setting(self, exact):
        # (+z, -z) of phi+ expects 1.7e308 * 0.6 counts and (+z, +z) 1.7e308 * 1.1, past the
        # largest float: one ValueError names setting 1 in both modes, ahead of the Poisson
        # limit, and the overflow warns of nothing
        settings = [(PLUS_Z, MINUS_Z), (PLUS_Z, PLUS_Z), (MINUS_Z, MINUS_Z)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                simulate_counts(bell_state("phi+"), settings, 1.7e308, 0.6, exact=exact)
        assert str(caught.value) == (
            "setting 1 expects more counts than a float holds: exposure * (probability + dark_prob) "
            "overflows; lower exposure or dark_prob"
        )

    def test_numpy_integer_seed(self):
        rho = bell_state("phi+")
        record = simulate_counts(rho, STANDARD, 1e3, seed=np.int64(9))
        assert record.seed == 9 and type(record.seed) is int
        assert record == simulate_counts(rho, STANDARD, 1e3, seed=9)

    def test_accepts_direction_array_like(self):
        # a copied array and nested lists are converted once into an equal instance
        expected = simulate_counts(bell_state("phi+"), STANDARD, 1e3, seed=1)
        for directions in (np.array(STANDARD.directions), STANDARD.directions.tolist()):
            record = simulate_counts(bell_state("phi+"), directions, 1e3, seed=1)
            assert record.settings == STANDARD and record.settings is not STANDARD
            assert record == expected
        with pytest.raises(TypeError, match="unhashable"):
            hash(expected)


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
        record = TomographyRecord(
            settings=STANDARD,
            counts=(0.0,) * 36,
            exposure=1e5,
            dark_prob=0.0,
            seed=0,
        )
        with pytest.raises(InsufficientStatisticsError):
            reconstruct(record)

    def test_missing_group_raises(self):
        # drop every setting touching the y axis on station B
        kept = STANDARD.directions[abs(STANDARD.directions[:, 1, 1]) < 0.5]
        record = TomographyRecord(
            settings=kept,
            counts=(100.0,) * len(kept),
            exposure=1e3,
            dark_prob=0.0,
            seed=0,
        )
        with pytest.raises(InsufficientStatisticsError):
            reconstruct(record)

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=36, max_size=36))
    def test_output_always_physical(self, counts):
        # any non-negative counts give a valid density matrix or a statistics error;
        # tomo reconstruct decomposes the estimate without judging it again
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

    def test_repeated_setting_counts_once(self):
        # the standard 36 plus a second copy of setting 5, exact and dark-free
        rho = pauli_channel_state(PauliNoiseSpec.bit_flip(0.33))
        settings = MeasurementSettings(STANDARD.directions[[*range(36), 5]])
        record = simulate_counts(rho, settings, 1e5, dark_prob=0.0, exact=True)
        assert np.max(abs(reconstruct(record) - rho)) < 1e-12

    def test_every_setting_twice_gives_the_single_set_estimate(self):
        record = simulate_counts(random_density_matrix(np.random.default_rng(67)), STANDARD, 1e4, seed=3)
        doubled = TomographyRecord(
            np.concatenate([STANDARD.directions] * 2), record.counts * 2, 1e4, 4e-5, 3
        )
        assert np.max(abs(reconstruct(doubled) - reconstruct(record))) < 1e-12

    def test_rejects_tilted_analyzers(self):
        tilted = [((1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)), PLUS_Z)]
        record = TomographyRecord(tilted, (10.0,), 1e3, 0.0, 0)
        for _ in range(3):  # the geometry is kept, the error is not
            with pytest.raises(ValueError, match="signed Pauli axes"):
                reconstruct(record)

    def test_analyzer_axis_tolerance(self):
        # an analyzer counts as +-e_j within 1e-9 off-axis, on either side of that boundary
        def record(tilt):
            settings = with_direction(0, 0, (tilt, 0.0, -np.sqrt(1 - tilt**2)))
            return TomographyRecord(settings, (10.0,) * len(settings), 1e3, 0.0, 0)

        assert np.array_equal(reconstruct(record(5e-10)), reconstruct(record(0.0)))
        with pytest.raises(ValueError, match="signed Pauli axes"):
            reconstruct(record(2e-9))

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
        setting = MeasurementSettings([(direction, PLUS_Z)]).directions
        hits = np.isclose(setting[0, 0], _SIGNED_AXES, atol=1e-9).all(axis=-1)
        if hits.any():
            first = int(hits.argmax())
            found_axis, found_sign = _signed_axes(setting)
            assert (found_axis[0, 0], found_sign[0, 0]) == (first // 2, 1.0 - 2.0 * (first % 2))
        else:
            with pytest.raises(ValueError, match="signed Pauli axes"):
                _signed_axes(setting)


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
            chosen = MeasurementSettings(STANDARD.directions[order])
            for exposure, dark_prob, exact in ((1e5, 4e-5, False), (1e3, 0.0, False), (1e4, 4e-5, True)):
                record = simulate_counts(rho, chosen, exposure, dark_prob, seed=index, exact=exact)
                assert record.counts == loop_counts(rho, chosen, exposure, dark_prob, index, exact)
                assert np.array_equal(reconstruct(record), loop_reconstruct(record))

    def test_bincount_pooling_matches_add_at(self):
        # sampled and exact records over the standard settings, shuffled ones and ones
        # that repeat settings, bit for bit, and the same error for a record with an empty group
        rng = np.random.default_rng(73)
        for index in range(40):
            rank = 1 + index % 4
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
            shuffled = MeasurementSettings(STANDARD.directions[rng.permutation(36)])
            repeated = MeasurementSettings(STANDARD.directions[[*range(36), *rng.integers(0, 36, 7)]])
            for settings in (STANDARD, shuffled, repeated):
                for exact in (False, True):
                    record = simulate_counts(rho, settings, 1e3 * (1 + index), 4e-5, seed=index, exact=exact)
                    assert reconstruct(record).tobytes() == add_at_reconstruct(record).tobytes()
        empty = TomographyRecord(STANDARD, (0.0,) * 35 + (1.0,), 1e3, 0.0, 0)
        for call in (reconstruct, add_at_reconstruct):
            with pytest.raises(InsufficientStatisticsError, match=r"^setting group \(axis 0, axis 0\) has zero"):
                call(empty)


UNIT_DIRECTIONS = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: tuple(np.array(v) / np.linalg.norm(v)))
)


class TestGeometryCache:
    """Each settings object builds its projector pairs and pooling layout once, read-only."""

    def test_repeated_calls_build_geometry_once(self, monkeypatch):
        rho = bell_state("phi+")
        reconstruct(simulate_counts(rho, standard_settings(), 1e3, seed=1))
        calls = {name: count_calls(monkeypatch, tomo, name) for name in ("_signed_axes", "pauli_dot")}
        for seed in range(5):
            reconstruct(simulate_counts(rho, standard_settings(), 1e3, seed=seed))
            coincidence_probability(rho, STANDARD)
        assert calls == {"_signed_axes": [], "pauli_dot": []}

    def test_cached_arrays_are_read_only(self):
        # also in a copy or an unpickled instance, which builds its own geometry
        original = MeasurementSettings(STANDARD.directions[::-1])
        original.projector_pairs
        for settings in (original, copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
            cells, signs, weights = settings.pooling_layout
            for array in (settings.directions, settings.projector_pairs, cells, signs, weights):
                assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                settings.projector_pairs[0, 0, 0] = 0.0
            assert settings.projector_pairs is settings.projector_pairs
            assert settings.pooling_layout is settings.pooling_layout
            assert settings._direction_text is settings._direction_text
            assert settings == original

    @hypothesis_settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(UNIT_DIRECTIONS, UNIT_DIRECTIONS), min_size=1, max_size=6))
    @example([((-0.0, 0.0, 1.0), (0.0, -1.0, -0.0))])
    def test_counts_equal_a_fresh_computation(self, pairs):
        # tilted settings and signed zeros: the pairs of the same settings with
        # each -0.0 made 0.0, which compare equal, and of a fresh copy agree bit for bit
        settings = MeasurementSettings(pairs)
        unsigned = MeasurementSettings(np.add(pairs, 0.0))
        fresh = MeasurementSettings(settings.directions).projector_pairs
        assert unsigned == settings and unsigned.projector_pairs.tobytes() == fresh.tobytes()
        rho = random_density_matrix(np.random.default_rng(len(pairs)))
        expected = (rho @ fresh).trace(axis1=-2, axis2=-1).real
        for _ in range(2):
            assert settings.projector_pairs.tobytes() == fresh.tobytes()
            assert coincidence_probability(rho, settings).tobytes() == expected.tobytes()

    def test_distinct_settings_never_share_geometry(self):
        # each object owns its geometry, equal row for row to the standard one it was cut from
        orders = [np.arange(36)[::-1], np.arange(1, 36), np.arange(1)]
        orders += [np.arange(k, 36) for k in range(2, 12)]
        built = [MeasurementSettings(STANDARD.directions[order]) for order in orders]
        pairs = [settings.projector_pairs for settings in built]
        assert len({id(p) for p in pairs + [STANDARD.projector_pairs]}) == len(orders) + 1
        for order, settings, got in zip(orders, built, pairs):
            assert np.array_equal(got, STANDARD.projector_pairs[order])
            cells, signs, weights = settings.pooling_layout
            assert np.array_equal(signs, STANDARD.pooling_layout[1][:, order])
            assert np.array_equal(weights, np.ones(len(order)))
            assert np.array_equal(cells, STANDARD.pooling_layout[0][:, order])
        tilted = MeasurementSettings([((0.6, 0.0, 0.8), PLUS_Z)])
        assert not np.array_equal(tilted.projector_pairs, STANDARD.projector_pairs[:1])


class TestSeeding:
    """One rule checks every seed; each setting draws from the PCG64 state of default_rng([seed, i])."""

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

    @pytest.mark.parametrize("use", SEED_USERS.values(), ids=SEED_USERS.keys())
    @pytest.mark.parametrize("seed, stored", SEEDS.values(), ids=SEEDS.keys())
    def test_one_seed_rule(self, use, seed, stored):
        # simulation and records share one check: a non-negative integer, not a bool
        if stored is None:
            with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
                use(seed)
        else:
            record = use(seed)
            assert record.seed == stored and type(record.seed) is int


class TestRecordJson:
    def test_round_trip(self):
        rho = pauli_channel_state(PauliNoiseSpec.phase_flip(0.33))
        record = simulate_counts(rho, standard_settings(), 1e4, 4e-5, seed=3)
        back = record_from_json(record_to_json(record))
        assert back == record

    @pytest.mark.parametrize(
        "direction, text",
        [([0, 0, 1], "[0.0, 0.0, 1.0]"), ([-0.0, 0.0, 1.0], "[-0.0, 0.0, 1.0]")],
        ids=["ints", "minus-zero"],
    )
    def test_direction_components_read_back_as_floats(self, direction, text):
        # ints read back as floats; a signed zero keeps its sign
        obj = record_to_json(TomographyRecord(FIRST, (5.0,), 1e3, 0.0, 0))
        obj["settings"] = [[direction, [0, 0, 1]]]
        back = record_from_json(obj)
        assert back.settings == MeasurementSettings(FIRST)
        assert json.dumps(record_to_json(back)["settings"]) == f"[[{text}, [0.0, 0.0, 1.0]]]"

    @pytest.mark.parametrize("direction", [[False, False, True], [0, 0, True]])
    def test_rejects_bool_direction_components(self, direction):
        obj = record_to_json(TomographyRecord(FIRST, (5.0,), 1e3, 0.0, 0))
        obj["settings"] = [[[0, 0, 1], direction]]
        with pytest.raises(ValueError, match="record field 'settings': expected a number, got bool"):
            record_from_json(obj)

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(UNIT_DIRECTIONS, UNIT_DIRECTIONS), min_size=1, max_size=8))
    @example([((1e-10, 0.0, -np.sqrt(1 - 1e-20)), PLUS_Z), ((0.0, 1.0, 1e-17), MINUS_Z)])
    def test_random_directions_round_trip(self, pairs):
        # near-axis directions keep their own components
        record = TomographyRecord(pairs, (5.0,) * len(pairs), 1e3, 0.0, 0)
        obj = json.loads(json.dumps(record_to_json(record)))
        back = record_from_json(obj)
        assert back == record and record_to_json(back) == obj

    def test_schema_fields(self):
        record = simulate_counts(bell_state("phi+"), standard_settings(), 1e3, seed=1)
        obj = record_to_json(record)
        assert set(obj) == {"settings", "counts", "exposure", "dark_prob", "seed"}
        assert obj["settings"][0] == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        assert all(isinstance(c, int) for c in obj["counts"])

    def test_exact_counts_serialize_as_floats(self):
        # the writer's one rule: an integral count is an int, any other a float, so an
        # --exact record mixes both, the phi+ record at the CLI defaults (1e5, 4e-5) too
        for exposure, dark_prob in [(1e3 + 0.5, 0.0), (1e5, 4e-5)]:
            record = simulate_counts(
                bell_state("phi+"), standard_settings(), exposure, dark_prob, exact=True
            )
            counts = record_to_json(record)["counts"]
            for written, count in zip(counts, record.counts, strict=True):
                assert type(written) is (int if float(count).is_integer() else float)
                assert written == count
            assert {type(c) for c in counts} == {int, float}

    def test_record_validation(self):
        with pytest.raises(ValueError, match="length"):
            TomographyRecord(
                settings=[(PLUS_Z, PLUS_Z)],
                counts=(1.0, 2.0),
                exposure=10.0,
                dark_prob=0.0,
                seed=0,
            )
        with pytest.raises(ValueError, match="non-negative"):
            TomographyRecord(
                settings=[(PLUS_Z, PLUS_Z)],
                counts=(-1.0,),
                exposure=10.0,
                dark_prob=0.0,
                seed=0,
            )

    def test_rejects_nan_analyzer(self):
        obj = record_to_json(simulate_counts(bell_state("phi+"), FIRST, 1e3, seed=1))
        obj["settings"][0][1] = [0.0, float("nan"), 1.0]
        with pytest.raises(ValueError, match="unit norm"):
            record_from_json(obj)

    @pytest.mark.parametrize("seed", [1.7, True, "12", -5])
    def test_rejects_bad_seed(self, seed):
        obj = record_to_json(simulate_counts(bell_state("phi+"), FIRST, 1e3, seed=1))
        obj["seed"] = seed
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            record_from_json(obj)

    @pytest.mark.parametrize("seed", [2**70, np.int64(3)])
    def test_integer_seed_is_stored_as_int(self, seed):
        record = TomographyRecord(FIRST, (1.0,), 1e3, 0.0, seed)
        assert record.seed == seed and type(record.seed) is int
        assert record_from_json(record_to_json(record)) == record

    @pytest.mark.parametrize(
        "exposure, dark_prob", [(True, False), (10.0, False), (np.True_, 0.0)]
    )
    def test_rejects_bool_acquisition_parameters(self, exposure, dark_prob):
        with pytest.raises(ValueError, match="not bools"):
            TomographyRecord(FIRST, (1.0,), exposure, dark_prob, 0)

    @pytest.mark.parametrize("field", ["counts", "exposure", "dark_prob"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_fields(self, field, value):
        fields = dict(
            settings=[(PLUS_Z, PLUS_Z)],
            counts=(1.0,),
            exposure=10.0,
            dark_prob=0.0,
            seed=0,
        )
        fields[field] = (value,) if field == "counts" else value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TomographyRecord(**fields)


# A well-formed two-setting record as json.load gives it, and malformed copies of
# it: each value below put in one place, and settings that are no list of pairs of
# 3-vectors. The reader tests the types of each direction's and of the counts' numbers
# in one pass and takes a list of ints and floats as it is; any other list goes item by
# item through _json_number, so each message must read as the walk words it.
def _json_record():
    return {
        "settings": [[[0, 0, 1], [0, 0, 1]], [[1.0, 0, 0], [0, 1, 0]]],
        "counts": [5, 7.5],
        "exposure": 100.0,
        "dark_prob": 0,
        "seed": 0,
    }


def _float_error(value) -> str:
    # float()'s own wording, which the Python version sets
    try:
        float(value)
    except (TypeError, OverflowError) as exc:
        return str(exc)
    raise AssertionError(f"float() accepts {value!r}")


_NOT_A_NUMBER = {
    "string": ("1", "expected a number, got str"),
    "bool": (True, "expected a number, got bool"),
    "null": (None, _float_error(None)),
    "list": ([1.0], _float_error([1.0])),
    "dict": ({"x": 1.0}, _float_error({"x": 1.0})),
    "10**400": (10**400, "int too large to convert to float"),
}
_PLACES = {
    # the second component of setting 1's A direction
    "direction": ("settings", lambda obj, v: obj["settings"][1][0].__setitem__(1, v)),
    "count": ("counts", lambda obj, v: obj["counts"].__setitem__(1, v)),
    "exposure": ("exposure", lambda obj, v: obj.__setitem__("exposure", v)),
    "dark_prob": ("dark_prob", lambda obj, v: obj.__setitem__("dark_prob", v)),
}
_MALFORMED_SETTING = {
    "2-vector": ([[0, 0, 1], [0, 0]], "expected a Stokes 3-vector, got shape (2,)"),
    "4-vector": ([[0, 0, 1], [0, 0, 1, 0]], "expected a Stokes 3-vector, got shape (4,)"),
    "one-direction": ([[0, 0, 1]], "not enough values to unpack (expected 2, got 1)"),
    "three-directions": ([[0, 0, 1]] * 3, "too many values to unpack (expected 2)"),
    "number": (5, "cannot unpack non-iterable int object"),
}
MALFORMED_RECORDS = {
    **{
        f"{kind}-{place}": (field, put, value, message)
        for place, (field, put) in _PLACES.items()
        for kind, (value, message) in _NOT_A_NUMBER.items()
    },
    **{
        f"setting-{kind}": ("settings", lambda obj, v: obj["settings"].__setitem__(1, v), value, message)
        for kind, (value, message) in _MALFORMED_SETTING.items()
    },
    **{
        f"missing-{field}": (field, lambda obj, _, field=field: obj.pop(field), None, "missing")
        for field in ("settings", "counts", "exposure", "dark_prob", "seed")
    },
}


@pytest.mark.parametrize(
    "field, put, value, message", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS.keys()
)
def test_malformed_record_message(field, put, value, message):
    obj = _json_record()
    put(obj, value)
    with pytest.raises(ValueError) as caught:
        record_from_json(obj)
    assert str(caught.value) == f"record field {field!r}: {message}"
    with pytest.raises(ValueError) as walked:
        walk_record_from_json(obj)
    assert str(walked.value) == str(caught.value)


def test_json_record_reads_as_floats():
    # ints and floats alike read as floats, the direction's signed zero with its sign
    obj = _json_record()
    obj["settings"][1][1][0] = -0.0
    record = record_from_json(obj)
    assert record.counts == (5.0, 7.5) and {type(c) for c in record.counts} == {float}
    assert record.settings.directions.tolist() == [
        [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [-0.0, 1.0, 0.0]],
    ]
    assert np.signbit(record.settings.directions[1, 1, 0])
    assert (record.exposure, record.dark_prob, record.seed) == (100.0, 0.0, 0)


def walk_record_from_json(obj):
    """record_from_json as it read before the one-pass type test: every number through _json_number."""

    def analyzers(value):
        pairs = [(list(map(_json_number, a)), list(map(_json_number, b))) for a, b in value]
        for direction in (d for pair in pairs for d in pair if len(d) != 3):
            raise ValueError(f"expected a Stokes 3-vector, got shape ({len(direction)},)")
        return MeasurementSettings(pairs)

    if not isinstance(obj, dict):
        raise ValueError(f"tomography record must be a JSON object, not {type(obj).__name__}")
    return TomographyRecord(
        settings=_json_field(obj, "settings", analyzers),
        counts=_json_field(obj, "counts", lambda v: tuple(map(_json_number, v))),
        exposure=_json_field(obj, "exposure", _json_number),
        dark_prob=_json_field(obj, "dark_prob", _json_number),
        seed=_json_field(obj, "seed", lambda v: v),
    )


def _layout(draw):
    # (S, 2, 3) directions: the standard 36, permuted, a subset, with repeated pairs, or tilted
    kind = draw(st.sampled_from(["standard", "permuted", "subset", "repeated", "tilted"]))
    rows = np.arange(36)
    if kind == "permuted":
        rows = np.array(draw(st.permutations(range(36))))
    elif kind == "subset":
        rows = np.array(draw(st.lists(st.integers(0, 35), min_size=1, max_size=35, unique=True)))
    elif kind == "repeated":
        extra = draw(st.lists(st.integers(0, 35), min_size=1, max_size=4))
        rows = np.array(draw(st.permutations([*range(36), *extra])))
    if kind != "tilted":
        return STANDARD.directions[rows]
    pairs = draw(st.lists(st.tuples(UNIT_DIRECTIONS, UNIT_DIRECTIONS), min_size=1, max_size=6))
    return np.array(pairs, dtype=float)


@st.composite
def json_records(draw):
    """A record as json.load reads it back: sampled or exact counts over a drawn layout, some
    components written as ints and some zeros as -0.0."""
    directions = _layout(draw)
    rho = random_density_matrix(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    exact = draw(st.booleans())
    record = simulate_counts(rho, directions, draw(st.sampled_from([1e2, 1e4 + 0.5])), 4e-5,
                             seed=draw(st.integers(0, 2**40)), exact=exact)
    obj = json.loads(json.dumps(record_to_json(record)))
    flat = [d for pair in obj["settings"] for d in pair]
    for station in draw(st.lists(st.integers(0, len(flat) - 1), max_size=6)):
        component = draw(st.integers(0, 2))
        value = flat[station][component]
        if value == 0.0 and draw(st.booleans()):
            flat[station][component] = -0.0
        elif float(value).is_integer():
            flat[station][component] = int(value)
    return obj


class TestOnePassReader:
    """record_from_json reads what the item-by-item walk reads, and shares the standard layout."""

    @hypothesis_settings(max_examples=300, deadline=None)
    @given(json_records())
    def test_reads_as_the_walk(self, obj):
        record, walked = record_from_json(obj), walk_record_from_json(obj)
        assert record.settings.directions.tobytes() == walked.settings.directions.tobytes()
        assert record.counts == walked.counts and {type(c) for c in record.counts} == {float}
        assert record == walked and _record_text(record) == _record_text(walked)
        standard = walked.settings.directions.tobytes() == STANDARD.directions.tobytes()
        assert (record.settings is STANDARD) == standard
        try:
            expected = reconstruct(walked)
        except ValueError as exc:  # tilted directions or a subset missing a group
            with pytest.raises(type(exc)) as caught:
                reconstruct(record)
            assert str(caught.value) == str(exc)
        else:
            assert reconstruct(record).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("ints", [False, True], ids=["floats", "ints"])
    def test_standard_record_shares_standard_settings(self, monkeypatch, ints):
        # a tomo simulate record, its components as floats or ints: the shared instance, whose
        # cached layout reconstruct takes, with no direction checked or analyzer axis found anew
        record = simulate_counts(bell_state("phi+"), STANDARD, 1e3, seed=4)
        obj = record_to_json(record)
        if ints:
            obj["settings"] = [[list(map(int, d)) for d in pair] for pair in obj["settings"]]
        reconstruct(record)
        calls = {name: count_calls(monkeypatch, tomo, name) for name in ("_signed_axes", "_check_unit_norms")}
        back = record_from_json(obj)
        assert back.settings is standard_settings()
        assert reconstruct(back).tobytes() == reconstruct(record).tobytes()
        assert calls == {"_signed_axes": [], "_check_unit_norms": []}

    def test_record_with_one_minus_zero_keeps_its_own_settings(self):
        record = simulate_counts(bell_state("phi+"), STANDARD, 1e3, seed=4)
        obj = record_to_json(record)
        obj["settings"][3][1][1] = -0.0  # (+z, -x): the y component of -x
        back = record_from_json(obj)
        assert back.settings is not standard_settings() and back.settings == STANDARD
        assert np.signbit(back.settings.directions[3, 1, 1])
        assert record_to_json(back)["settings"] == obj["settings"]
        assert '[\n        -1.0,\n        -0.0,\n        0.0\n      ]' in _record_text(back)
        assert reconstruct(back).tobytes() == reconstruct(record).tobytes()
