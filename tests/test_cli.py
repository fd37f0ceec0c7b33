import hashlib
import json
import math
import subprocess
import sys

import pytest

from entfilter.channel import PauliNoiseSpec
from entfilter.cli import INSET_GAMMA_A, build_parser, main
from entfilter.qstate import bell_state, density_matrix_from_json, fidelity_pure
from entfilter.recover import sweep

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

# SHA-256 of the record `tomo simulate` writes with these flags, then of the
# state `tomo reconstruct` writes from it. Records stay identical for a seed.
PINNED_TOMO_SHA256 = {
    ("--state", "phi+", "--seed", "7"): (
        "551d4aa4cb3ba3379f03fbac57cafec401f213792c63bcbcca94377ea914dd55",
        "589571cf2836ea65dc83e8d9a0dc64e542e682089b9d350a3286e557d5447b30",
    ),
    ("--state", "phi+", "--exact"): (
        "47a81344328622c4442d4b4bbf619a2974c7df039bb69cdbd341c5877903bd67",
        "5fb91233f0c8039f4d349b5054f29516bfb90b6b402bffdc76532fa6ab1dc8f5",
    ),
    ("--state", "bitflip", "--seed", "7"): (
        "632fdcaed1c5c89efff7052d0b73d7541540793e831c82141044115b52ff09b0",
        "dfe76fb831fc7600e61aeef370f538d3dd84ffa29bf1f8033f2db1d1111b9d16",
    ),
    ("--state", "bitflip", "--exact"): (
        "dc4041363718152ec64edbe8d4d9141ba6fb0bbfb69853f72737afd257ea69c6",
        "7b250e1f840b3aa3922294f5b2f7eeb5dd285eeb085de433e0339d301b04acb8",
    ),
    ("--state", "phaseflip", "--seed", "7"): (
        "e2d33730e37a864f697b2201722dcf2ab394dbd32890854f89fed84a0ea6b606",
        "1153eb70d9bdc595cd6e770b6746d61dd6054ab0ce4fba1db03d904d19f762a7",
    ),
    ("--state", "phaseflip", "--exact"): (
        "bfab4d8d9c360d03169b70cb0fa75be5a4dc1767b80e559d7c818269801823ee",
        "1e34c5305f93bfe81414b5851e23089dbf0fafeba5115c139d5a77134f93f2da",
    ),
}


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

    def test_invalid_enum_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["curves", "--noise", "sparkle", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_steps_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "curves",
                "--noise",
                "bitflip",
                "--steps",
                "1",
                "--output",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "steps" in capsys.readouterr().err

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


@pytest.mark.parametrize("argv", sorted(PINNED_TOMO_SHA256))
def test_tomo_artifacts_match_pinned_digests(tmp_path, argv):
    record, state = tmp_path / "record.json", tmp_path / "state.json"
    assert main(["tomo", "simulate", *argv, "--output", str(record)]) == 0
    assert main(["tomo", "reconstruct", "--input", str(record), "--output", str(state)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (record, state))
    assert digests == PINNED_TOMO_SHA256[argv]


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
        estimate = density_matrix_from_json(payload["state"])
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


def test_module_entry_point_runs(tmp_path):
    out = tmp_path / "out.csv"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "entfilter.cli",
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
