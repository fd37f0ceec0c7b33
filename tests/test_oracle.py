"""The paper's curves against a 40-digit oracle that no BLAS kernel or library code touches."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from entfilter.channel import PauliNoiseSpec
from entfilter.cli import main
from entfilter.recover import STRATEGIES, sweep, sweep_to_json

from oracle import filtered_pair, optimal_gamma_b

NOISES = {"bitflip": PauliNoiseSpec.bit_flip, "phaseflip": PauliNoiseSpec.phase_flip}
# the CLI defaults every default run below uses: p, the curves' MI normalization
P, NORMALIZATION = 0.33, 0.9

# Away from the default points the bounds are roundoff. The curves come from a closed
# form with no square root of a roundoff-level eigenvalue and no cancelling difference
# of eigenvalues, and every positive eigenvalue counts in an entropy. Over 3,000 random
# points up to gamma_a = 300 the largest errors measured were 8.8e-16 bits in the MI and
# 4.4e-16 in the concurrence.
MI_TOLERANCE = 1e-13


def expected_gamma_b(noise, strategy, gamma_a):
    if strategy == "optimal":
        return optimal_gamma_b(noise, P, gamma_a)
    return 0.0 if strategy == "none" else gamma_a


def assert_near_oracle(noise, p, row, normalization, mi_tolerance=1e-12, c_tolerance=1e-12):
    mutual_info, concurrence, transmission = filtered_pair(noise, p, row["gamma_a"], row["gamma_b"])
    assert abs(row["mutual_info_bits"] - normalization * mutual_info) <= mi_tolerance
    assert abs(row["concurrence"] - concurrence) <= c_tolerance
    assert abs(row["transmission"] - transmission) <= 1e-12


def run_json(tmp_path, *args):
    out = tmp_path / "out.json"
    assert main([*args, "--format", "json", "--output", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("noise", NOISES)
def test_default_curves_match_oracle(tmp_path, noise, strategy):
    rows = run_json(tmp_path, "curves", "--noise", noise, "--strategy", strategy)
    assert len(rows) == 60
    for row in rows:
        assert abs(row["gamma_b"] - expected_gamma_b(noise, strategy, row["gamma_a"])) <= 1e-12
        assert_near_oracle(noise, P, row, NORMALIZATION)


def test_default_inset_matches_oracle(tmp_path):
    payload = run_json(tmp_path, "inset")
    rows = [row for series in payload["series"] for row in series["points"]]
    assert (payload["noise"], payload["p"], len(rows)) == ("bitflip", P, 363)
    for row in rows:
        assert_near_oracle("bitflip", P, row, 1.0)


# Where p is 0 or 1 some cells of the filtered components carry no amplitude, and a monomial
# of the curve kernel may then have all-zero coefficients; hypothesis almost never draws p
# exactly 0 or 1, so these edges are listed
EDGE_P = (0.0, 1e-9, 1 - 1e-9, 1.0)
EDGE_GAMMA_A = (1.99, 44.4, 165.0, 300.0)


@pytest.mark.parametrize("p", EDGE_P)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("noise", NOISES)
def test_edge_weights_match_oracle(noise, strategy, p):
    # each row at its own gamma_b, as in test_sweep_matches_oracle
    for row in sweep_to_json(sweep(NOISES[noise](p), EDGE_GAMMA_A, strategy)):
        assert_near_oracle(noise, p, row, 1.0, MI_TOLERANCE)


@hypothesis_settings(max_examples=200, deadline=None)
@given(
    noise=st.sampled_from(sorted(NOISES)),
    strategy=st.sampled_from(STRATEGIES),
    p=st.floats(0.0, 1.0),
    gamma_a=st.floats(0.0, 300.0),  # below the ~355 edge where the trace turns subnormal
    normalization=st.floats(0.0, 1.0, exclude_min=True),
)
def test_sweep_matches_oracle(noise, strategy, p, gamma_a, normalization):
    # an optimal gamma_b is atanh of ||T a|| tanh gA, which amplifies the roundoff of
    # ||T a|| near 1, so each row is compared at its own gamma_b
    (point,) = sweep(NOISES[noise](p), [gamma_a], strategy, normalization)
    if strategy != "optimal":
        assert point.gamma_b == (0.0 if strategy == "none" else gamma_a)
    # the ranges hold exactly, whatever the roundoff: MI is clamped at 0, C clipped
    # to [0, 1] and the transmission capped at 1
    assert 0.0 <= point.mutual_info <= 2.0 * normalization
    assert 0.0 <= point.concurrence <= 1.0
    assert 0.0 <= point.transmission <= 1.0
    (row,) = sweep_to_json([point])
    assert_near_oracle(noise, p, row, normalization, MI_TOLERANCE)


@pytest.mark.parametrize("gamma_a", [0.1, 0.857, 2.0, 30.0, 300.0])
def test_optimize_recovers_classical_correlations(gamma_a):
    # a phase flip at p = 1 leaves a separable pair, (phi+ + phi-)/2, that is classically
    # correlated along z: the compensator matches filter A and recovers the full bit of
    # mutual information, at transmission e^(-2 gamma_a)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["optimize", "--noise", "phaseflip", "--p", "1", "--gamma-a", repr(gamma_a)]) == 0
    report = json.loads(out.getvalue())
    assert report["nothing_to_recover"]
    assert report["gamma_b_opt"] == optimal_gamma_b("phaseflip", 1.0, gamma_a) == gamma_a
    mutual_info, _, transmission = filtered_pair("phaseflip", 1.0, gamma_a, gamma_a)
    assert mutual_info == 1.0 and transmission == pytest.approx(math.exp(-2 * gamma_a), rel=1e-15)
    row = {
        "gamma_a": gamma_a,
        "gamma_b": report["gamma_b_opt"],
        "mutual_info_bits": report["predicted_mutual_info_bits"],
        "concurrence": report["predicted_concurrence"],
        "transmission": report["transmission"],
    }
    assert_near_oracle("phaseflip", 1.0, row, 1.0)
