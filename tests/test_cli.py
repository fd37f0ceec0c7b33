import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

from entfilter.channel import FilterElement, PauliNoiseSpec, apply_filters, pauli_channel_state
from entfilter.cli import (
    INSET_GAMMA_A,
    NOISE_TYPES,
    _curves_text,
    _inset_text,
    _payload_text,
    _record_text,
    _report_text,
    build_parser,
    main,
)
from entfilter.qstate import (
    bell_diagonal_weights,
    bell_state,
    concurrence,
    density_matrix_to_json,
    fidelity_pure,
    mutual_information,
)
from entfilter.recover import GAMMA_A_AXIS, STRATEGIES, SweepPoint, plan_recovery, sweep, sweep_to_json
from entfilter.tomo import (
    TomographyRecord,
    reconstruct,
    record_to_json,
    simulate_counts,
    standard_settings,
)

from helpers import count_calls, matrix_from_json, record_eigh_shapes

MI_UNFILTERED = 2.0 + 0.835 * math.log2(0.835) + 0.165 * math.log2(0.165)

# SHA-256 of the CSVs the commands write at their defaults. Sweep artifacts
# must stay byte-identical at the %.12g float format.
PINNED_CSV_SHA256 = {
    ("curves", "--noise", "bitflip", "--strategy", "none"): (
        "29aa21e55ee6079b36873bcda437c1a49908b62138d1f7ce9f6711e969b8f5f7"
    ),
    ("curves", "--noise", "bitflip", "--strategy", "match"): (
        "7544d94ada858efaf27c585d8c57d870aa1af136884fbd6dcb29cd1f63eb5436"
    ),
    ("curves", "--noise", "bitflip", "--strategy", "optimal"): (
        "b3b1d73cb7d153acdee2eec64533c1904fae04130caefc5aadd37845d36917f2"
    ),
    ("curves", "--noise", "phaseflip", "--strategy", "none"): (
        "55c16ee4130d0419ff712cb4166b99f334bdae9a291d9a1e98d4c52b1312558a"
    ),
    ("curves", "--noise", "phaseflip", "--strategy", "match"): (
        "8a26e577066ecd899c0952cb03bdac63204c71d8c9b184fece4af7ded2687b41"
    ),
    ("curves", "--noise", "phaseflip", "--strategy", "optimal"): (
        "f20121edf8cf272d87cadc94e0a490a1b353438e62a03a564d613ea045aea50d"
    ),
    ("inset",): "8d014694a7f5cb5c02ee73c875a899b0b974e129c64f18cfce84527de34503df",
}

# SHA-256 of the record `tomo simulate` writes with these flags, then the
# canonical digest of the state `tomo reconstruct` writes from it. Records stay
# identical for a seed.
PINNED_TOMO_SHA256 = {
    ("--state", "phi+", "--seed", "7"): (
        "551d4aa4cb3ba3379f03fbac57cafec401f213792c63bcbcca94377ea914dd55",
        "32a3bcef3036ac6e8a72d42c984d1d4acede6f06dc766cfda29cf60323fc7eec",
    ),
    ("--state", "phi+", "--exact"): (
        "47a81344328622c4442d4b4bbf619a2974c7df039bb69cdbd341c5877903bd67",
        "1a7ad089c4e676a734c542eb865f6c573d29fc5526871419084d8db14537a511",
    ),
    ("--state", "bitflip", "--seed", "7"): (
        "632fdcaed1c5c89efff7052d0b73d7541540793e831c82141044115b52ff09b0",
        "68a967583419516ecf455955d83515e5f2d1c4aef496fe24019d02491fab1dbb",
    ),
    ("--state", "bitflip", "--exact"): (
        "dc4041363718152ec64edbe8d4d9141ba6fb0bbfb69853f72737afd257ea69c6",
        "7be2c777f199e37c8e733d30e89a0007f80abff169c61519be5eb800f4a2eae5",
    ),
    ("--state", "phaseflip", "--seed", "7"): (
        "e2d33730e37a864f697b2201722dcf2ab394dbd32890854f89fed84a0ea6b606",
        "acf9b814740b8263cc560ed4199ea61cb86bdb01eb211f42fcda09081f670b4a",
    ),
    ("--state", "phaseflip", "--exact"): (
        "bfab4d8d9c360d03169b70cb0fa75be5a4dc1767b80e559d7c818269801823ee",
        "abf12a52f329a78d5bbf9643e0fc63c6f0a07c539825139def203e90cb4e5be0",
    ),
}


# Canonical digests of the JSON the sweep commands write at their defaults.
PINNED_JSON_SHA256 = {
    ("curves", "--noise", "bitflip", "--strategy", "none"): (
        "f6580266d3e831e1a676a880a749e5f50c2ac65dc8294f9e1ade6569936e7f4d"
    ),
    ("curves", "--noise", "bitflip", "--strategy", "match"): (
        "75e89d247d8f798ca906633a70c54f5d7874590602d1b7428ded7e702a87a59d"
    ),
    ("curves", "--noise", "bitflip", "--strategy", "optimal"): (
        "d99177759e06dd5b2cbb003d3770b0078c91f7f2c2613a45dc71309967f5c5d2"
    ),
    ("curves", "--noise", "phaseflip", "--strategy", "none"): (
        "0136ec15949895912445b633f91ff7351b4df1b550a7d9de9c3d78a7b0c7f4a3"
    ),
    ("curves", "--noise", "phaseflip", "--strategy", "match"): (
        "0b4fdf9d17d639e5c5e2c0ee431b66921a03e7c988955ea97fed8c045a84a9d2"
    ),
    ("curves", "--noise", "phaseflip", "--strategy", "optimal"): (
        "9b3744b76a1ba28a622cd71682dade82b5cb6ec13de79032e6dae532eacaac10"
    ),
    ("inset",): "230c878aaa9501e94b2a096bed6d19a83b9a7f1c2eaf0bd822115dc85732fc14",
}
# SHA-256 of the report `optimize` prints.
PINNED_OPTIMIZE_SHA256 = {
    "bitflip": "8d12217e79176709a997a6002bf0fabeb2e9ee3ed6bcd42ec5f7838da112acb1",
    "phaseflip": "c4897f13556567ca4152346de3c0f2e6b20b48103e2cfac0bbc08b27a25f51b7",
}


def canonical_digest(text: str) -> str:
    """SHA-256 of a ``json.dumps(indent=2)`` artifact in a form every BLAS kernel prints alike.

    ``eigh`` and matmul move the last bits of floats printed at ``repr``
    precision with the BLAS kernel. The text must keep the layout of
    ``json.dumps(obj, indent=2)``; the digest is then taken of ``json.dumps`` of
    the parsed object, each float rounded to 12 decimals and then to 12
    significant digits, so that roundoff-level entries read 0.
    """
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    obj = json.loads(text, parse_float=lambda x: float("%.12g" % round(float(x), 12)) + 0.0)
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = []
    comments = []
    for line in lines[1:]:
        if line.startswith("#"):
            comments.append(line)
            continue
        values = line.split(",")
        rows.append({k: v for k, v in zip(header, values)})
    return rows, comments


class TestCurves:
    def test_phaseflip_match_is_flat(self, tmp_path):
        out = tmp_path / "pf.csv"
        code = main(
            [
                "curves",
                "--noise",
                "phaseflip",
                "--p",
                "0.33",
                "--strategy",
                "match",
                "--normalization",
                "1.0",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        rows, _ = read_csv_rows(out)
        assert len(rows) == 60
        reference = float(rows[0]["mutual_info_bits"])
        assert reference == pytest.approx(MI_UNFILTERED, abs=1e-9)
        for row in rows:
            assert float(row["mutual_info_bits"]) == pytest.approx(reference, abs=1e-9)

    def test_noiseless_starts_at_two_bits(self, tmp_path):
        out = tmp_path / "clean.csv"
        code = main(
            [
                "curves",
                "--noise",
                "bitflip",
                "--p",
                "0",
                "--strategy",
                "none",
                "--normalization",
                "1.0",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        rows, _ = read_csv_rows(out)
        mi = [float(r["mutual_info_bits"]) for r in rows]
        assert mi[0] == pytest.approx(2.0, abs=1e-12)
        assert all(b <= a + 1e-12 for a, b in zip(mi, mi[1:]))
        assert mi[-1] < 2.0

    def test_default_normalization_rescales_first_row(self, tmp_path):
        out = tmp_path / "bf.csv"
        code = main(
            [
                "curves",
                "--noise",
                "bitflip",
                "--p",
                "0.33",
                "--strategy",
                "optimal",
                "--normalization",
                "0.9",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        rows, _ = read_csv_rows(out)
        assert float(rows[0]["mutual_info_bits"]) == pytest.approx(1.2185, abs=1e-3)
        assert float(rows[0]["mutual_info_bits"]) == pytest.approx(
            0.9 * MI_UNFILTERED, abs=1e-9
        )

    def test_json_format(self, tmp_path):
        out = tmp_path / "bf.json"
        code = main(
            [
                "curves",
                "--noise",
                "bitflip",
                "--steps",
                "5",
                "--strategy",
                "none",
                "--output",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        points = json.loads(out.read_text())
        assert len(points) == 5
        assert list(points[0]) == [
            "gamma_a",
            "gamma_b",
            "strategy",
            "mutual_info_bits",
            "concurrence",
            "transmission",
        ]

    def test_byte_identical_artifacts(self, tmp_path):
        args = [
            "curves",
            "--noise",
            "phaseflip",
            "--strategy",
            "optimal",
            "--output",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + [str(first)]) == 0
        assert main(args + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_overflowing_log_trace_writes_its_rows(self, tmp_path, capsys):
        # at gamma_a = gamma_b = 1e308 the log-domain trace sums to +inf, the "not
        # blocked" answer; the suite turns a leaked overflow warning into a failure
        out = tmp_path / "x.csv"
        argv = ["curves", "--noise", "bitflip", "--strategy", "match", "--gamma-a-max", "1e308"]
        assert main([*argv, "--steps", "2", "--output", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text().splitlines()[1:] == [
            "0,0,match,1.21847573172,0.67,1",
            "1e+308,1e+308,match,0,0,0.0825",
        ]

    def test_invalid_enum_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["curves", "--noise", "sparkle", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unwritable_path_is_runtime_error(self, tmp_path, capsys):
        code = main(
            [
                "curves",
                "--noise",
                "bitflip",
                "--output",
                str(tmp_path / "missing-dir" / "x.csv"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", sorted(PINNED_CSV_SHA256))
def test_default_csv_matches_pinned_digest(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CSV_SHA256[argv]


@pytest.mark.parametrize("argv", sorted(PINNED_JSON_SHA256))
def test_default_json_matches_pinned_digest(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--format", "json", "--output", str(out)]) == 0
    assert canonical_digest(out.read_text()) == PINNED_JSON_SHA256[argv]


@pytest.mark.parametrize("noise", sorted(PINNED_OPTIMIZE_SHA256))
def test_optimize_report_matches_pinned_digest(capsys, noise):
    assert main(["optimize", "--noise", noise, "--gamma-a", "0.857"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_OPTIMIZE_SHA256[noise]

@pytest.mark.parametrize("argv", sorted(PINNED_TOMO_SHA256))
def test_tomo_artifacts_match_pinned_digests(tmp_path, argv):
    record, state = tmp_path / "record.json", tmp_path / "state.json"
    assert main(["tomo", "simulate", *argv, "--output", str(record)]) == 0
    assert main(["tomo", "reconstruct", "--input", str(record), "--output", str(state)]) == 0
    digests = hashlib.sha256(record.read_bytes()).hexdigest(), canonical_digest(state.read_text())
    assert digests == PINNED_TOMO_SHA256[argv]


def _unit_direction(v):
    v = np.array(v)
    return tuple(v / np.linalg.norm(v))


_DIRECTIONS = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 1e-3)
    .map(_unit_direction)
)
_COUNTS = st.one_of(st.integers(0, 2**53), st.floats(0.0, 1e300))


@hypothesis_settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_DIRECTIONS, _DIRECTIONS, _COUNTS), max_size=40),
    st.floats(1e-300, 1e300),
    st.floats(0.0, 1e300),
    st.integers(0, 2**80),
)
def test_record_writer_matches_json_dumps(rows, exposure, dark_prob, seed):
    record = TomographyRecord(
        settings=[(a, b) for a, b, _ in rows],
        counts=tuple(c for _, _, c in rows),
        exposure=exposure,
        dark_prob=dark_prob,
        seed=seed,
    )
    assert _record_text(record) == json.dumps(record_to_json(record), indent=2) + "\n"


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_payload_writer_matches_json_dumps(rank):
    rng = np.random.default_rng(rank)
    for _ in range(25):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rho.imag[np.diag_indices(4)] = -0.0  # a Hermitian diagonal is real; json prints this zero's sign
        c = np.float64(concurrence(rho))  # a float subclass prints as a float
        mi, weights = mutual_information(rho), bell_diagonal_weights(rho)
        payload = {
            "state": density_matrix_to_json(rho),
            "metrics": {"concurrence": c, "mutual_info_bits": mi, "bell_weights": weights},
        }
        assert _payload_text(rho, c, mi, weights) == json.dumps(payload, indent=2) + "\n"


_REPORT_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)


@hypothesis_settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(NOISE_TYPES),
    st.lists(st.one_of(_REPORT_NUMBERS, _REPORT_NUMBERS.map(np.float64)), min_size=9, max_size=9),
    st.booleans(),
)
@example("bitflip", [-0.0, 5e-324, 1e308, -0.0, 0.0, 1.0, -5e-324, -1e308, 0.5], False)
@example("phaseflip", [0.0, 1e308, 5e-324, 0.0, 0.0, -1.0, 1.0, 0.0, 1e-300], True)
def test_report_writer_matches_json_dumps(noise, numbers, flag):
    p, gamma_a, gamma_b, *orientation, concurrence_, mutual_info, transmission = numbers
    report = {
        "noise": noise,
        "p": p,
        "gamma_a": gamma_a,
        "gamma_b_opt": gamma_b,
        "orientation_b": orientation,
        "predicted_concurrence": concurrence_,
        "predicted_mutual_info_bits": mutual_info,
        "transmission": transmission,
        "nothing_to_recover": flag,
    }
    assert _report_text(noise, numbers, flag) == json.dumps(report, indent=2)


@hypothesis_settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.builds(
            SweepPoint,
            *[_REPORT_NUMBERS] * 2,
            st.sampled_from((*STRATEGIES, "ratio")),
            *[_REPORT_NUMBERS] * 3,
        ),
        max_size=20,
    )
)
def test_curves_writer_matches_json_dumps(points):
    assert _curves_text(points) == json.dumps(sweep_to_json(points), indent=2) + "\n"


_ROW = st.tuples(*[_REPORT_NUMBERS] * 5).map(lambda x: SweepPoint(x[0], x[1], "ratio", *x[2:]))


def _inset_json(noise, p, gamma_a_values, series, best) -> str:
    # the payload inset --format json wrote through json.dumps
    payload = {
        "noise": noise,
        "p": p,
        "series": [
            {"gamma_a": gamma_a, "argmax_ratio": ratio, "points": sweep_to_json(rows)}
            for gamma_a, rows, ratio in zip(gamma_a_values, series, best)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


@hypothesis_settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(NOISE_TYPES),
    _REPORT_NUMBERS,
    st.lists(
        st.tuples(_REPORT_NUMBERS, _REPORT_NUMBERS, st.lists(_ROW, min_size=1, max_size=5)), min_size=1, max_size=4
    ),
)
@example("bitflip", -0.0, [(5e-324, -0.0, [SweepPoint(1e308, -5e-324, "ratio", 0.0, -0.0, 1.0)])])
def test_inset_writer_matches_json_dumps(noise, p, runs):
    gamma_a_values, best, series = ([run[i] for run in runs] for i in range(3))
    assert _inset_text(noise, p, gamma_a_values, series, best) == _inset_json(noise, p, gamma_a_values, series, best)


def test_each_json_shape_gets_its_own_layout():
    # layouts are built once per shape and kept: in one process, a shape written after
    # another, or again after others, must get its own layout and never a neighbour's
    rows = sweep(PauliNoiseSpec.bit_flip(0.33), np.linspace(0.0, 1.2, 60), "optimal")
    for size in (0, 1, 60, 1):
        assert _curves_text(rows[:size]) == json.dumps(sweep_to_json(rows[:size]), indent=2) + "\n"
    ragged = [rows[:3], rows[3:4], rows[4:], rows[:1]]
    gamma_a_values, best = [0.5, 0.8, 1.0, 0.25], [0.25, 1.0, 0.75, 1.125]
    for order in ([0, 1, 2, 3], [0], [3, 2, 1, 0], [0, 1, 2, 3]):
        args = ("bitflip", 0.33, *([values[i] for i in order] for values in (gamma_a_values, ragged, best)))
        assert _inset_text(*args) == _inset_json(*args)


def test_reconstruct_reads_each_record_settings(tmp_path):
    # one process, so geometry built for one record must not serve the next:
    # the standard 36, a permutation of them, the same with one setting
    # repeated, then the standard 36 again; each payload equals the library's estimate
    rho = pauli_channel_state(PauliNoiseSpec.bit_flip(0.33))
    order = np.random.default_rng(13).permutation(36)
    record_path, state_path = tmp_path / "record.json", tmp_path / "state.json"
    standard = standard_settings()
    permuted = standard.directions[order]
    for settings in (standard, permuted, np.concatenate([permuted, permuted[5:6]]), standard):
        record = simulate_counts(rho, settings, 1e4, 0.0, exact=True)
        record_path.write_text(json.dumps(record_to_json(record)))
        argv = ["tomo", "reconstruct", "--input", str(record_path), "--output", str(state_path)]
        assert main(argv) == 0
        estimate = reconstruct(record)
        if len(record.counts) == 36:  # exact counts, each setting once: the state itself
            assert np.allclose(estimate, rho, atol=1e-9)
        assert json.loads(state_path.read_text()) == {
            "state": density_matrix_to_json(estimate),
            "metrics": {
                "concurrence": concurrence(estimate),
                "mutual_info_bits": mutual_information(estimate),
                "bell_weights": bell_diagonal_weights(estimate),
            },
        }


# Shapes of the Hermitian decompositions each command takes, sorted:
# - optimize: the plan's input, and the filtered state with its two reduced
#   states, decomposed as one (2, 2, 2) stack;
# - tomo simulate: the state it samples;
# - tomo reconstruct: the physicality projection of the raw estimate, then the
#   one decomposition its three metrics share, with its two reduced states as
#   one stack.
# curves and inset take none (test_curve_commands_call_neither_eigh_nor_svd).
COMMAND_EIGH_SHAPES = {
    ("optimize", "--noise", "bitflip", "--gamma-a", "0.857"): [(2, 2, 2), (4, 4), (4, 4)],
    ("tomo", "simulate", "--state", "bitflip", "--output", "{out}"): [(4, 4)],
    ("tomo", "reconstruct", "--input", "{record}", "--output", "{out}"): [(2, 2, 2), (4, 4), (4, 4)],
}


@pytest.mark.parametrize("argv", list(COMMAND_EIGH_SHAPES), ids=lambda argv: " ".join(argv[:2]))
def test_each_command_decomposes_each_state_once(tmp_path, monkeypatch, capsys, argv):
    paths = {"out": str(tmp_path / "out"), "record": str(tmp_path / "record.json")}
    assert main(["tomo", "simulate", "--state", "bitflip", "--output", paths["record"]]) == 0
    shapes = record_eigh_shapes(monkeypatch)
    assert main([arg.format(**paths) for arg in argv]) == 0
    assert sorted(shapes) == COMMAND_EIGH_SHAPES[argv]


@pytest.mark.parametrize(
    "argv",
    [["curves", "--noise", "bitflip", "--output", "{out}"], ["inset", "--output", "{out}"]],
    ids=["curves", "inset"],
)
def test_curve_commands_call_neither_eigh_nor_svd(tmp_path, monkeypatch, argv):
    # the curves come from the closed-form kernel in recover._evaluate
    shapes = record_eigh_shapes(monkeypatch)
    svds = count_calls(monkeypatch, np.linalg, "svd")
    assert main([arg.format(out=tmp_path / "out") for arg in argv]) == 0
    assert (shapes, svds) == ([], [])


def test_phaseflip_optimum_holds_at_large_filter_strength(tmp_path):
    out = tmp_path / "pf.csv"
    argv = ["curves", "--noise", "phaseflip", "--strategy", "optimal", "--gamma-a-max", "20"]
    assert main([*argv, "--output", str(out)]) == 0
    rows, _ = read_csv_rows(out)
    assert float(rows[-1]["gamma_a"]) == 20.0
    for row in rows:
        assert row["gamma_b"] == row["gamma_a"]
        assert float(row["concurrence"]) == pytest.approx(0.67, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--noise", "bitflip", "--gamma-a", "{}"],
        ["inset", "--gamma-a", "{}", "--output", "{out}"],
        ["curves", "--noise", "bitflip", "--gamma-a-max", "{}", "--output", "{out}"],
        ["inset", "--ratio-max", "{}", "--output", "{out}"],
        ["tomo", "simulate", "--state", "phi+", "--exposure", "{}", "--output", "{out}"],
        ["tomo", "simulate", "--state", "phi+", "--dark-prob", "{}", "--output", "{out}"],
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_float_is_usage_error(tmp_path, capsys, argv, value):
    out = tmp_path / "out"
    code = main([arg.format(value, out=out) for arg in argv])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# Each range-checked flag at the edges of its domain. A rejected value exits 1
# with one error line naming the flag and writes nothing; an accepted edge value
# exits 0. Rejected values use the --flag=value form: argparse takes a separate
# "-1e-9" for an option string, which would hide the domain check behind another
# usage error.
_CURVES = ["curves", "--noise", "bitflip", "--output", "{out}"]
_INSET = ["inset", "--output", "{out}"]
_OPTIMIZE = ["optimize", "--noise", "bitflip"]
_SIMULATE = ["tomo", "simulate", "--output", "{out}"]
_SIMULATE_PHI = [*_SIMULATE, "--state", "phi+"]
FLAG_DOMAIN_REJECTED = {
    "curves-p-low": ("--p", [*_CURVES, "--p=-0.1"]),
    "curves-p-high": ("--p", [*_CURVES, "--p=1.5"]),
    "inset-p-high": ("--p", [*_INSET, "--p=1.5"]),
    "optimize-p-low": ("--p", [*_OPTIMIZE, "--gamma-a", "0.857", "--p=-0.1"]),
    "simulate-bitflip-p-high": ("--p", [*_SIMULATE, "--state", "bitflip", "--p=1.5"]),
    "simulate-bell-p-high": ("--p", [*_SIMULATE_PHI, "--p=1.5"]),
    "curves-gamma-a-max-zero": ("--gamma-a-max", [*_CURVES, "--gamma-a-max=0"]),
    "curves-normalization-zero": ("--normalization", [*_CURVES, "--normalization=0"]),
    "curves-normalization-high": ("--normalization", [*_CURVES, "--normalization=1.5"]),
    "curves-steps-one": ("--steps", [*_CURVES, "--steps=1"]),
    "inset-steps-one": ("--steps", [*_INSET, "--steps=1"]),
    "inset-gamma-a-zero": ("--gamma-a", [*_INSET, "--gamma-a=0.5", "--gamma-a=0"]),
    "inset-ratio-max-zero": ("--ratio-max", [*_INSET, "--ratio-max=0"]),
    "optimize-gamma-a-negative": ("--gamma-a", [*_OPTIMIZE, "--gamma-a=-1"]),
    "simulate-exposure-zero": ("--exposure", [*_SIMULATE_PHI, "--exposure=0"]),
    "simulate-dark-prob-negative": ("--dark-prob", [*_SIMULATE_PHI, "--dark-prob=-1e-9"]),
    "simulate-seed-negative": ("--seed", [*_SIMULATE_PHI, "--seed=-1"]),
    # text the flag's type cannot parse at all
    "curves-p-not-a-number": ("--p", [*_CURVES, "--p=abc"]),
    "inset-steps-not-an-integer": ("--steps", [*_INSET, "--steps=2.5"]),
    "inset-gamma-a-not-a-number": ("--gamma-a", [*_INSET, "--gamma-a=0.5", "--gamma-a=x"]),
    "simulate-seed-not-an-integer": ("--seed", [*_SIMULATE_PHI, "--seed=1e3"]),
}
FLAG_DOMAIN_ACCEPTED = {
    "curves-p-zero": [*_CURVES, "--p", "0"],
    "curves-p-one": [*_CURVES, "--p", "1"],
    "curves-normalization-one": [*_CURVES, "--normalization", "1"],
    "curves-steps-two": [*_CURVES, "--steps", "2"],
    "simulate-dark-prob-zero": [*_SIMULATE_PHI, "--dark-prob", "0"],
    "simulate-seed-zero": [*_SIMULATE_PHI, "--seed", "0"],
    "simulate-seed-2**70": [*_SIMULATE_PHI, "--seed", str(2**70)],
}


@pytest.mark.parametrize(
    "flag, argv", FLAG_DOMAIN_REJECTED.values(), ids=FLAG_DOMAIN_REJECTED.keys()
)
def test_flag_domain_rejects_outside_values(tmp_path, capsys, flag, argv):
    out = tmp_path / "out"
    assert main([arg.format(out=out) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.err.count("error:") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", FLAG_DOMAIN_ACCEPTED.values(), ids=FLAG_DOMAIN_ACCEPTED.keys())
def test_flag_domain_accepts_edge_values(tmp_path, argv):
    out = tmp_path / "out"
    assert main([arg.format(out=out) for arg in argv]) == 0
    assert out.exists()


class TestInset:
    def test_default_series_peak_near_059(self, tmp_path):
        out = tmp_path / "inset.csv"
        code = main(["inset", "--steps", "241", "--output", str(out)])
        assert code == 0
        rows, comments = read_csv_rows(out)
        assert len(rows) == 3 * 241
        assert len(comments) == 3
        for comment in comments:
            ratio = float(comment.split("ratio=")[1])
            assert ratio == pytest.approx(0.59, abs=0.02)

    def test_ratio_zero_matches_uncompensated_sweep(self, tmp_path):
        inset_out = tmp_path / "inset.csv"
        code = main(
            [
                "inset",
                "--gamma-a",
                "0.857",
                "--steps",
                "13",
                "--output",
                str(inset_out),
            ]
        )
        assert code == 0
        rows, _ = read_csv_rows(inset_out)
        first = rows[0]
        assert float(first["gamma_b"]) == 0.0
        none_point = sweep(PauliNoiseSpec.bit_flip(0.33), [0.857], "none")[0]
        assert float(first["mutual_info_bits"]) == pytest.approx(
            none_point.mutual_info, abs=1e-9
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_gamma_b_is_one_error(self, tmp_path, capsys, fmt):
        # 1.7e308 is a finite --gamma-a, but 1.7e308 * 1.2 is not: exit 2 with one
        # error line, no warning and no artifact (an inf would not be JSON)
        out = tmp_path / f"x.{fmt}"
        argv = ["inset", "--gamma-a", "1.7e308", "--steps", "3", "--format", fmt, "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        error = "error: gamma_b = gamma_a * ratio must be finite, got inf\n"
        assert (code, capsys.readouterr()) == (2, ("", error))
        assert not out.exists()

    def test_phaseflip_peak_at_ratio_one(self, tmp_path):
        out = tmp_path / "pf.json"
        code = main(
            [
                "inset",
                "--noise",
                "phaseflip",
                "--gamma-a",
                "0.857",
                "--steps",
                "241",
                "--ratio-max",
                "1.2",
                "--output",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        step = 1.2 / 240
        assert abs(payload["series"][0]["argmax_ratio"] - 1.0) <= step


class TestOptimize:
    def run_json(self, capsys, *args):
        code = main(["optimize", *args])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_phaseflip_full_strength(self, capsys):
        report = self.run_json(
            capsys, "--noise", "phaseflip", "--p", "0.33", "--gamma-a", "0.857"
        )
        assert report["gamma_b_opt"] == pytest.approx(0.857, abs=1e-12)
        assert report["orientation_b"] == [0.0, 0.0, -1.0]

    def test_bitflip_reduced_strength(self, capsys):
        report = self.run_json(
            capsys, "--noise", "bitflip", "--p", "0.33", "--gamma-a", "0.857"
        )
        assert report["gamma_b_opt"] == pytest.approx(0.505, abs=2e-3)
        assert report["gamma_b_opt"] == pytest.approx(
            math.atanh(0.67 * math.tanh(0.857)), abs=1e-12
        )
        assert report["predicted_mutual_info_bits"] > 0.9

    def test_zero_gamma_a(self, capsys):
        report = self.run_json(capsys, "--noise", "bitflip", "--gamma-a", "0")
        assert report["gamma_b_opt"] == 0.0

    def test_huge_gamma_a_gives_finite_json(self, capsys):
        code = main(["optimize", "--noise", "bitflip", "--gamma-a", "800"])
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-finite {constant} in JSON output")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["predicted_concurrence"] == pytest.approx(0.0, abs=1e-300)

    # gamma_a up to 300: from about 355 the filtered pair's trace is subnormal, an
    # edge the commands reject (test_subnormal_trace_is_one_error)
    @hypothesis_settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["bitflip", "phaseflip"]), st.floats(0.0, 1.0), st.floats(0.0, 300.0))
    def test_report_equals_public_filter_chain(self, noise, p, gamma_a):
        spec = PauliNoiseSpec.bit_flip(p) if noise == "bitflip" else PauliNoiseSpec.phase_flip(p)
        rho = pauli_channel_state(spec)
        f_a = FilterElement(gamma_a, GAMMA_A_AXIS)
        plan = plan_recovery(rho, f_a)
        f_b = FilterElement(plan.gamma_b_opt, plan.orientation_b)
        rho_f, transmission = apply_filters(rho, f_a, f_b)
        expected = {
            "noise": noise,
            "p": p,
            "gamma_a": gamma_a,
            "gamma_b_opt": plan.gamma_b_opt,
            "orientation_b": list(plan.orientation_b),
            "predicted_concurrence": plan.predicted_concurrence,
            "predicted_mutual_info_bits": mutual_information(rho_f),
            "transmission": transmission,
            "nothing_to_recover": plan.nothing_to_recover,
        }
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["optimize", "--noise", noise, "--p", repr(p), "--gamma-a", repr(gamma_a)]) == 0
        assert out.getvalue() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("gamma_a", ["0.5", "2", "300", "354", "355", "400"])
    def test_phaseflip_exit_code_is_continuous_at_full_weight(self, capsys, gamma_a):
        # at p = 1 the phase-flipped pair is separable, and its plan still matches filter A,
        # as at p = 1 - 1e-9: from gamma_a = 355 both filtered pairs' traces are too small
        argv = ["optimize", "--noise", "phaseflip", "--gamma-a", gamma_a, "--p"]
        codes = [main([*argv, p]) for p in ("1", "0.999999999")]
        capsys.readouterr()
        assert codes[0] == codes[1] == (2 if float(gamma_a) >= 355 else 0)

    @pytest.mark.parametrize("argv", [["bitflip", "--p", "0"], ["phaseflip"]], ids=["bitflip", "phaseflip"])
    def test_subnormal_trace_is_one_error(self, capsys, argv):
        # at gamma_a = 360 the filtered pair's trace is subnormal; dividing by it would
        # overflow with RuntimeWarnings, so one ValueError names it first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["optimize", "--noise", *argv, "--gamma-a", "360"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: filter magnitudes too large to renormalize: the trace ")
        assert err.endswith(" is subnormal\n") and err.count("\n") == 1


class TestTomo:
    def test_simulate_then_reconstruct_bell_state(self, tmp_path, capsys):
        record_path = tmp_path / "record.json"
        state_path = tmp_path / "state.json"
        assert (
            main(
                [
                    "tomo",
                    "simulate",
                    "--state",
                    "phi+",
                    "--exposure",
                    "1e5",
                    "--dark-prob",
                    "0",
                    "--seed",
                    "7",
                    "--output",
                    str(record_path),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "tomo",
                    "reconstruct",
                    "--input",
                    str(record_path),
                    "--output",
                    str(state_path),
                ]
            )
            == 0
        )
        payload = json.loads(state_path.read_text())
        estimate = matrix_from_json(payload["state"])
        assert fidelity_pure(estimate, bell_state("phi+")) > 0.99
        assert payload["metrics"]["concurrence"] > 0.97
        assert payload["metrics"]["mutual_info_bits"] > 1.9

    def test_exact_bitflip_weights(self, tmp_path):
        record_path = tmp_path / "record.json"
        state_path = tmp_path / "state.json"
        assert (
            main(
                [
                    "tomo",
                    "simulate",
                    "--state",
                    "bitflip",
                    "--p",
                    "0.33",
                    "--dark-prob",
                    "0",
                    "--exact",
                    "--output",
                    str(record_path),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "tomo",
                    "reconstruct",
                    "--input",
                    str(record_path),
                    "--output",
                    str(state_path),
                ]
            )
            == 0
        )
        weights = json.loads(state_path.read_text())["metrics"]["bell_weights"]
        assert weights["phi+"] == pytest.approx(0.835, abs=1e-6)
        assert weights["psi+"] == pytest.approx(0.165, abs=1e-6)
        assert abs(weights["phi-"]) < 1e-6 and abs(weights["psi-"]) < 1e-6

    def test_zero_count_record_fails_loudly(self, tmp_path, capsys):
        record_path = tmp_path / "zero.json"
        record_path.write_text(
            json.dumps(
                {
                    "settings": [[[0, 0, 1], [0, 0, 1]]],
                    "counts": [0],
                    "exposure": 100.0,
                    "dark_prob": 0.0,
                    "seed": 0,
                }
            )
        )
        code = main(
            [
                "tomo",
                "reconstruct",
                "--input",
                str(record_path),
                "--output",
                str(tmp_path / "out.json"),
            ]
        )
        assert code == 2
        assert "zero total counts" in capsys.readouterr().err

    @pytest.mark.parametrize("field, text", [("counts", "[NaN]"), ("exposure", "NaN")])
    def test_non_finite_record_is_runtime_error(self, tmp_path, capsys, field, text):
        # Python's json module reads NaN, so the record itself must reject it
        fields = {
            "settings": "[[[0, 0, 1], [0, 0, 1]]]",
            "counts": "[5]",
            "exposure": "100.0",
            "dark_prob": "0.0",
            "seed": "0",
        }
        fields[field] = text
        record_path = tmp_path / "nan.json"
        record_path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        out = tmp_path / "out.json"
        code = main(["tomo", "reconstruct", "--input", str(record_path), "--output", str(out)])
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_count_total_is_runtime_error(self, tmp_path, capsys):
        # each count is finite, but their sum overflows the pooled totals
        record = {
            "settings": standard_settings().directions.tolist(),
            "counts": [1e308] * 36,
            "exposure": 100.0,
            "dark_prob": 0.0,
            "seed": 0,
        }
        record_path = tmp_path / "huge.json"
        record_path.write_text(json.dumps(record))
        out = tmp_path / "out.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["tomo", "reconstruct", "--input", str(record_path), "--output", str(out)])
        assert code == 2
        assert "counts must have a finite total" in capsys.readouterr().err
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("seed", ["1.7", "true", '"12"', "-5"])
    def test_bad_seed_record_is_runtime_error(self, tmp_path, capsys, seed):
        record_path = tmp_path / "seed.json"
        record_path.write_text(
            '{"settings": [[[0, 0, 1], [0, 0, 1]]], "counts": [5], '
            f'"exposure": 100.0, "dark_prob": 0.0, "seed": {seed}}}'
        )
        out = tmp_path / "out.json"
        code = main(["tomo", "reconstruct", "--input", str(record_path), "--output", str(out)])
        assert code == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_analyzer_record_is_runtime_error(self, tmp_path, capsys):
        record_path = tmp_path / "nan.json"
        record_path.write_text(
            '{"settings": [[[NaN, 0, 0], [0, 0, 1]]], "counts": [5], '
            '"exposure": 100.0, "dark_prob": 0.0, "seed": 0}'
        )
        out = tmp_path / "out.json"
        code = main(["tomo", "reconstruct", "--input", str(record_path), "--output", str(out)])
        assert code == 2
        assert "unit norm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("counts", "[1" + "0" * 400 + "]", "'counts'"),
            ("exposure", "1" + "0" * 400, "'exposure'"),
            ("exposure", "null", "'exposure'"),
            ("counts", "null", "'counts'"),
            ("settings", "5", "'settings'"),
            ("settings", "[[[0, 0, 1]]]", "'settings'"),
            ("counts", "[[5]]", "'counts'"),
            ("exposure", '"100"', "'exposure'"),
            ("dark_prob", "true", "'dark_prob'"),
            ("counts", '"5"', "'counts'"),
            ("settings", '[["001", [0, 0, 1]]]', "'settings'"),
            ("settings", "[[[0, 0], [0, 0, 1]]]", "'settings': expected a Stokes 3-vector, got shape (2,)"),
            ("settings", "[[[0, 0, 1], [1, 0, 0, 0]]]", "'settings': expected a Stokes 3-vector, got shape (4,)"),
            (None, None, "JSON object"),
        ],
        ids=[
            "huge-count",
            "huge-exposure",
            "null-exposure",
            "null-counts",
            "scalar-settings",
            "one-direction",
            "list-count",
            "string-exposure",
            "bool-dark-prob",
            "string-counts",
            "string-direction",
            "short-direction",
            "long-direction",
            "list-record",
        ],
    )
    def test_malformed_record_is_runtime_error(self, tmp_path, capsys, field, value, named):
        fields = {
            "settings": "[[[0, 0, 1], [0, 0, 1]]]",
            "counts": "[5]",
            "exposure": "100.0",
            "dark_prob": "0.0",
            "seed": "0",
        }
        if field:
            fields[field] = value
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        record_path = tmp_path / "record.json"
        record_path.write_text(text if field else f"[{text}]")  # the last case wraps the record
        out = tmp_path / "out.json"
        code = main(["tomo", "reconstruct", "--input", str(record_path), "--output", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["settings", "counts", "exposure", "dark_prob", "seed"])
    def test_missing_record_field_is_runtime_error(self, tmp_path, capsys, missing):
        first = standard_settings().directions[:1]
        record = record_to_json(TomographyRecord(first, (5.0,), 100.0, 0.0, 0))
        del record[missing]
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(record))
        out = tmp_path / "out.json"
        code = main(["tomo", "reconstruct", "--input", str(record_path), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: record field {missing!r}: missing"]
        assert not out.exists()

    def test_malformed_json_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(
            [
                "tomo",
                "reconstruct",
                "--input",
                str(bad),
                "--output",
                str(tmp_path / "out.json"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exposure, expected", [("1e300", "5.0004e+299"), ("3.6e19", "1.80014e+19")]
    )
    def test_sampling_above_the_poisson_limit_is_runtime_error(self, tmp_path, capsys, exposure, expected):
        # the library's own message, not numpy's "lam value too large"; exact counts are stored
        out = tmp_path / "record.json"
        argv = ["tomo", "simulate", "--state", "phi+", "--exposure", exposure, "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: setting 0 expects {expected} counts, above the Poisson sampler's limit of "
            "9.22337e+18; lower exposure or dark_prob, or simulate exact counts"
        ]
        assert not out.exists()
        assert main(argv[:-2] + ["--exact", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["exposure"] == float(exposure)

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_overflowing_expected_count_is_runtime_error(self, tmp_path, capsys, exact):
        # both flags lie in their domains, but their product overflows: one error line, with
        # no numpy warning before it, and nothing raised with warnings as errors
        out = tmp_path / "record.json"
        argv = ["tomo", "simulate", "--state", "phi+", "--exposure", "1e300", "--dark-prob", "1e300", *exact]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: setting 0 expects more counts than a float holds: exposure * (probability + "
            "dark_prob) overflows; lower exposure or dark_prob"
        ]
        assert not out.exists()

    def test_simulated_record_is_deterministic(self, tmp_path):
        args = [
            "tomo",
            "simulate",
            "--state",
            "phaseflip",
            "--seed",
            "3",
            "--output",
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + [str(first)]) == 0
        assert main(args + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("module", ["entfilter", "entfilter.cli"])
def test_module_entry_point_runs(tmp_path, module):
    # python -m entfilter runs __main__.py; python -m entfilter.cli runs cli.py's __main__ guard
    out = tmp_path / "out.csv"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            module,
            "curves",
            "--noise",
            "bitflip",
            "--steps",
            "4",
            "--strategy",
            "none",
            "--output",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert out.exists()
    assert out.read_text().startswith("gamma_a,gamma_b,strategy")


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


class TestParserReuse:
    """main() parses with one parser per process; no call leaks state into the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_append_flag_does_not_carry_over(self, tmp_path):
        one, default = tmp_path / "one.csv", tmp_path / "default.csv"
        assert main(["inset", "--gamma-a", "0.5", "--steps", "3", "--output", str(one)]) == 0
        assert main(["inset", "--steps", "3", "--output", str(default)]) == 0
        for path, gamma_a in ((one, (0.5,)), (default, INSET_GAMMA_A)):
            _, comments = read_csv_rows(path)
            series = [float(c.split("gamma_a=")[1].split()[0]) for c in comments]
            assert series == list(gamma_a)

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["optimize", "--noise", "bogus", "--gamma-a", "0.5"]) == 1
        assert main(["optimize", "--noise", "bitflip", "--gamma-a", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["gamma_a"] == 0.5


# Each command that writes a file: the argv writes to {out}, and tomo reconstruct
# reads the record at {record}
WRITING_COMMANDS = {
    "curves-csv": ["curves", "--noise", "bitflip", "--steps", "5", "--output", "{out}"],
    "curves-json": ["curves", "--noise", "phaseflip", "--steps", "5", "--format", "json", "--output", "{out}"],
    "inset-csv": ["inset", "--steps", "5", "--output", "{out}"],
    "inset-json": ["inset", "--steps", "5", "--format", "json", "--output", "{out}"],
    "tomo-simulate": ["tomo", "simulate", "--state", "bitflip", "--seed", "7", "--output", "{out}"],
    "tomo-reconstruct": ["tomo", "reconstruct", "--input", "{record}", "--output", "{out}"],
}


def run_writer(tmp_path, argv, out) -> None:
    record = tmp_path / "input-record.json"
    if "{record}" in argv and not record.exists():
        assert main(["tomo", "simulate", "--state", "phi+", "--seed", "3", "--output", str(record)]) == 0
    assert main([arg.format(out=out, record=record) for arg in argv]) == 0


@pytest.mark.parametrize("argv", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS.keys())
@pytest.mark.parametrize("existing", ["longer", "shorter"])
def test_overwrite_equals_fresh_write(tmp_path, argv, existing):
    # an artifact is written in place over an existing file, which is then cut to the
    # artifact's length: a longer file leaves no tail, a shorter one no head of its own
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_writer(tmp_path, argv, fresh)
    expected = fresh.read_bytes()
    out.write_bytes(b"#" * (2 * len(expected)) if existing == "longer" else b"{}")
    run_writer(tmp_path, argv, out)
    assert out.read_bytes() == expected


@pytest.mark.parametrize("argv", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS.keys())
def test_new_file_mode_matches_open(tmp_path, argv):
    # a file the command creates gets the mode open(path, "w") gives under the umask
    out, reference = tmp_path / "out", tmp_path / "reference"
    umask = os.umask(0o027)
    try:
        run_writer(tmp_path, argv, out)
        open(reference, "w").close()
    finally:
        os.umask(umask)
    assert os.stat(out).st_mode == os.stat(reference).st_mode


@pytest.mark.parametrize("argv", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS.keys())
def test_device_output_is_written_without_truncation(tmp_path, argv):
    # a character device or a pipe cannot be truncated; each gets the whole artifact
    run_writer(tmp_path, argv, os.devnull)
    fresh = tmp_path / "fresh"
    run_writer(tmp_path, argv, fresh)
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as pipe:
        try:
            run_writer(tmp_path, argv, f"/dev/fd/{write_end}")
        finally:
            os.close(write_end)
        assert pipe.read() == fresh.read_bytes()


def test_failed_write_leaves_only_the_new_head(tmp_path, monkeypatch, capsys):
    # a write that fails partway (a full disk) cuts the file to the bytes it wrote, so
    # no tail of the older, longer file is left behind the new artifact's head
    argv = WRITING_COMMANDS["tomo-simulate"]
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_writer(tmp_path, argv, fresh)
    expected = fresh.read_bytes()
    out.write_bytes(b"#" * (2 * len(expected)))
    real_write, half = os.write, len(expected) // 2

    def write_then_fail(fd, data):
        if len(data) < len(expected):
            raise OSError(28, "No space left on device")
        return real_write(fd, data[:half])

    monkeypatch.setattr(os, "write", write_then_fail)
    assert main([arg.format(out=out) for arg in argv]) == 2
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == expected[:half]
