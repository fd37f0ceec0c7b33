"""Command-line surface: sweep curves, ratio insets, filter optimization and
simulated tomography, writing CSV/JSON artifacts.

Exit codes: 0 success, 1 usage error, 2 runtime/domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .channel import FilterElement, PauliNoiseSpec, apply_filters, pauli_channel_state
from .qstate import BELL_LABELS, bell_state, density_matrix_to_json, mutual_information
from .qstate import _bell_diagonal_weights, _concurrence, _mutual_information
from .qstate import _single_state_spectrum
from .recover import (
    CSV_HEADER,
    GAMMA_A_AXIS,
    STRATEGIES,
    argmax_ratio,
    plan_recovery,
    ratio_scan,
    sweep,
    sweep_to_csv,
    sweep_to_json,
)
from .tomo import (
    reconstruct,
    record_from_json,
    record_to_json,
    simulate_counts,
    standard_settings,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

NOISE_TYPES = ("bitflip", "phaseflip")
STATE_NAMES = BELL_LABELS + NOISE_TYPES

#: gamma_A values marked in the reference sweep; defaults for the inset command.
INSET_GAMMA_A = (0.820, 0.857, 0.869)


class UsageError(Exception):
    """Invalid flag combination or out-of-range parameter."""


class _Parser(argparse.ArgumentParser):
    # reserve exit code 2 for runtime failures; argparse defaults to 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    # nan and inf parse as floats but no flag has a meaning for them
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _noise_spec(noise: str, p: float) -> PauliNoiseSpec:
    if not 0.0 <= p <= 1.0:
        raise UsageError("--p must lie in [0, 1]")
    if noise == "bitflip":
        return PauliNoiseSpec.bit_flip(p)
    return PauliNoiseSpec.phase_flip(p)


def _named_state(name: str, p: float) -> np.ndarray:
    if name in BELL_LABELS:
        return bell_state(name)
    return pauli_channel_state(_noise_spec(name, p))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_curves(args) -> int:
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")
    if args.gamma_a_max <= 0:
        raise UsageError("--gamma-a-max must be > 0")
    if not 0.0 < args.normalization <= 1.0:
        raise UsageError("--normalization must lie in (0, 1]")
    noise = _noise_spec(args.noise, args.p)
    grid = np.linspace(0.0, args.gamma_a_max, args.steps)
    points = sweep(noise, grid, args.strategy, args.normalization)
    if args.format == "csv":
        _write_text(args.output, sweep_to_csv(points))
    else:
        _write_text(args.output, json.dumps(sweep_to_json(points), indent=2) + "\n")
    return EXIT_OK


def cmd_inset(args) -> int:
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")
    if args.ratio_max <= 0:
        raise UsageError("--ratio-max must be > 0")
    gamma_a_values = args.gamma_a if args.gamma_a else list(INSET_GAMMA_A)
    if any(g <= 0 for g in gamma_a_values):
        raise UsageError("--gamma-a values must be > 0")
    noise = _noise_spec(args.noise, args.p)
    ratios = np.linspace(0.0, args.ratio_max, args.steps)
    series = []
    for gamma_a in gamma_a_values:
        points = ratio_scan(noise, gamma_a, ratios)
        series.append((gamma_a, points, argmax_ratio(points, "mutual_info")))
    if args.format == "csv":
        lines = [CSV_HEADER]
        for _, points, _ in series:
            lines.extend(sweep_to_csv(points).splitlines()[1:])
        for gamma_a, _, best in series:
            lines.append("# argmax_mutual_info gamma_a=%.12g ratio=%.12g" % (gamma_a, best))
        _write_text(args.output, "\n".join(lines) + "\n")
    else:
        payload = {
            "noise": args.noise,
            "p": args.p,
            "series": [
                {
                    "gamma_a": gamma_a,
                    "argmax_ratio": best,
                    "points": sweep_to_json(points),
                }
                for gamma_a, points, best in series
            ],
        }
        _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_optimize(args) -> int:
    if args.gamma_a < 0:
        raise UsageError("--gamma-a must be >= 0")
    noise = _noise_spec(args.noise, args.p)
    rho = pauli_channel_state(noise)
    f_a = FilterElement(args.gamma_a, GAMMA_A_AXIS)
    plan = plan_recovery(rho, f_a)
    f_b = FilterElement(plan.gamma_b_opt, plan.orientation_b)
    rho_f, transmission = apply_filters(rho, f_a, f_b)
    report = {
        "noise": args.noise,
        "p": args.p,
        "gamma_a": args.gamma_a,
        "gamma_b_opt": plan.gamma_b_opt,
        "orientation_b": list(plan.orientation_b),
        "predicted_concurrence": plan.predicted_concurrence,
        "predicted_mutual_info_bits": mutual_information(rho_f),
        "transmission": transmission,
        "nothing_to_recover": plan.nothing_to_recover,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_tomo_simulate(args) -> int:
    if args.exposure <= 0:
        raise UsageError("--exposure must be > 0")
    if args.dark_prob < 0:
        raise UsageError("--dark-prob must be >= 0")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    rho = _named_state(args.state, args.p)
    record = simulate_counts(
        rho,
        standard_settings(),
        exposure=args.exposure,
        dark_prob=args.dark_prob,
        seed=args.seed,
        exact=args.exact,
    )
    _write_text(args.output, json.dumps(record_to_json(record), indent=2) + "\n")
    return EXIT_OK


def cmd_tomo_reconstruct(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        record = record_from_json(json.load(fh))
    # one decomposition of the estimate feeds all three metrics
    rho, values, vectors = _single_state_spectrum(reconstruct(record))
    payload = {
        "state": density_matrix_to_json(rho),
        "metrics": {
            "concurrence": float(_concurrence(values, vectors)),
            "mutual_info_bits": float(_mutual_information(rho, values)),
            "bell_weights": _bell_diagonal_weights(rho),
        },
    }
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = _Parser(
        prog="entfilter",
        description="Bell-pair polarization channels: noise, filtering, recovery, tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    curves = sub.add_parser("curves", help="mutual-information sweep over the filter-A magnitude")
    curves.add_argument("--noise", choices=NOISE_TYPES, required=True)
    curves.add_argument(
        "--p", type=_finite_float, default=0.33, help="noise mixing weight (default 0.33)"
    )
    curves.add_argument("--gamma-a-max", type=_finite_float, default=1.2)
    curves.add_argument("--steps", type=int, default=60, help="grid points over [0, gamma-a-max]")
    curves.add_argument("--strategy", choices=STRATEGIES, default="none")
    curves.add_argument(
        "--normalization",
        type=_finite_float,
        default=0.9,
        help="scale on reported mutual information (default 0.9; use 1.0 for pure theory)",
    )
    curves.add_argument("--output", required=True)
    curves.add_argument("--format", choices=("csv", "json"), default="csv")
    curves.set_defaults(func=cmd_curves)

    inset = sub.add_parser("inset", help="mutual information vs gamma_B/gamma_A ratio")
    inset.add_argument(
        "--gamma-a",
        type=_finite_float,
        action="append",
        help="filter-A magnitude; repeatable (default: %.3f %.3f %.3f)" % INSET_GAMMA_A,
    )
    inset.add_argument("--ratio-max", type=_finite_float, default=1.2)
    inset.add_argument("--steps", type=int, default=121, help="ratio grid points over [0, ratio-max]")
    inset.add_argument("--noise", choices=NOISE_TYPES, default="bitflip")
    inset.add_argument("--p", type=_finite_float, default=0.33)
    inset.add_argument("--output", required=True)
    inset.add_argument("--format", choices=("csv", "json"), default="csv")
    inset.set_defaults(func=cmd_inset)

    optimize = sub.add_parser("optimize", help="print the optimal compensating filter as JSON")
    optimize.add_argument("--noise", choices=NOISE_TYPES, required=True)
    optimize.add_argument("--p", type=_finite_float, default=0.33)
    optimize.add_argument("--gamma-a", type=_finite_float, required=True)
    optimize.set_defaults(func=cmd_optimize)

    tomo = sub.add_parser("tomo", help="simulated polarization tomography")
    tomo_sub = tomo.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    simulate = tomo_sub.add_parser("simulate", help="write a coincidence-count record")
    simulate.add_argument("--state", choices=STATE_NAMES, required=True)
    simulate.add_argument("--p", type=_finite_float, default=0.33, help="noise weight for bitflip/phaseflip states")
    simulate.add_argument("--exposure", type=_finite_float, default=1e5, help="expected pairs per setting")
    simulate.add_argument("--dark-prob", type=_finite_float, default=4e-5, help="accidental probability per gate")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--exact", action="store_true", help="store expected values instead of sampling")
    simulate.add_argument("--output", required=True)
    simulate.set_defaults(func=cmd_tomo_simulate)

    recon = tomo_sub.add_parser("reconstruct", help="estimate the state from a count record")
    recon.add_argument("--input", required=True)
    recon.add_argument("--output", required=True)
    recon.set_defaults(func=cmd_tomo_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
