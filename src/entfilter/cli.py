"""Command-line surface: sweep curves, ratio insets, filter optimization and
simulated tomography, writing CSV/JSON artifacts.

Exit codes: 0 success, 1 usage error, 2 runtime/domain error. Each range-checked
flag has one domain, checked as argparse parses it:

    --p                                                      [0, 1]
    --gamma-a-max, --ratio-max, inset --gamma-a, --exposure  finite, > 0
    optimize --gamma-a, --dark-prob                          finite, >= 0
    --normalization                                          (0, 1]
    --steps                                                  integer >= 2
    --seed                                                   integer >= 0

A value outside its domain exits 1 with the usage line and one ``error:`` line
naming the flag; that holds for ``tomo simulate --p`` with a Bell ``--state`` too.

A state is judged where it enters through a public function: ``optimize``
judges the noisy pair in ``plan_recovery``. What the library builds from its
own pairs (``optimize``'s filtered pair, the stacks of ``curves`` and
``inset``) and the estimate ``reconstruct`` projects are decomposed once and
not judged again: the filtering returns each filtered state's spectrum, and
only ``tomo reconstruct`` decomposes a state here. ``inset`` scans all its
gamma_a values as one stack, in one ``ratio_scan`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain

import numpy as np

from .channel import FilterElement, PauliNoiseSpec, pauli_channel_state
from .channel import _filter_pairs
from .qmat import hermitian_eig
from .qstate import BELL_LABELS, bell_state, density_matrix_to_json
from .qstate import _bell_diagonal_weights, _concurrence, _mutual_information
from .recover import (
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


class _Parser(argparse.ArgumentParser):
    # reserve exit code 2 for runtime failures; argparse defaults to 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _flag_type(convert, accepts, expected: str):
    # An argparse type that parses a flag's text and checks its domain in one step;
    # either failure exits 1 through _Parser.error. The chained comparisons in
    # `accepts` are False for NaN, and math.inf bounds exclude the infinities.
    def parse(text: str):
        try:
            value = convert(text)
            if accepts(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_PROBABILITY = _flag_type(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_POSITIVE = _flag_type(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_NON_NEGATIVE = _flag_type(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_NORMALIZATION = _flag_type(float, lambda v: 0 < v <= 1, "a number in (0, 1]")
_STEPS = _flag_type(int, lambda v: v >= 2, "an integer >= 2")
_SEED = _flag_type(int, lambda v: v >= 0, "an integer >= 0")


def _noise_spec(noise: str, p: float) -> PauliNoiseSpec:
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


# Fixed layouts of the two tomography artifacts: each writer gives the bytes of
# json.dumps(obj, indent=2) + "\n" from a few %-formats and joins. Numbers print
# as json prints them: floats through float.__repr__ (so float subclasses such
# as np.float64 print as plain floats), ints through int.__repr__.
_DIRECTION_PAIR = (
    "    [\n      [\n        %s,\n        %s,\n        %s\n      ],\n"
    "      [\n        %s,\n        %s,\n        %s\n      ]\n    ]"
)
_RECORD = (
    '{\n  "settings": %s,\n  "counts": %s,\n  "exposure": %s,\n'
    '  "dark_prob": %s,\n  "seed": %s\n}\n'
)
_MATRIX_ENTRY = "        [\n          %s,\n          %s\n        ]"
_PAYLOAD = (
    '{\n  "state": {\n    "basis": %s,\n    "matrix": %s\n  },\n'
    '  "metrics": {\n    "concurrence": %s,\n    "mutual_info_bits": %s,\n'
    '    "bell_weights": {\n%s\n    }\n  }\n}\n'
)


def _number(value) -> str:
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def _array(item: str, count: int, values, indent: str) -> str:
    # a JSON array of count items, one per line: item filled from values in turn
    if not count:
        return "[]"
    return "[\n%s\n%s]" % (",\n".join([item] * count) % tuple(values), indent)


def _record_text(record: dict) -> str:
    """``record_to_json`` output as ``json.dumps(record, indent=2) + "\n"`` gives it.

    Directions are floats; counts, exposure and dark_prob floats or ints (not
    bools); the seed an int. Every number is finite, since ``TomographyRecord``
    validates them.
    """
    settings, counts = record["settings"], record["counts"]
    directions = chain.from_iterable(chain.from_iterable(settings))
    return _RECORD % (
        _array(_DIRECTION_PAIR, len(settings), map(float.__repr__, directions), "  "),
        _array("    %s", len(counts), map(_number, counts), "  "),
        _number(record["exposure"]),
        _number(record["dark_prob"]),
        int.__repr__(record["seed"]),
    )


def _payload_text(payload: dict) -> str:
    """The ``tomo reconstruct`` payload as ``json.dumps(payload, indent=2) + "\n"`` gives it.

    ``payload["state"]`` is ``density_matrix_to_json`` output, whose labels are
    plain ASCII, and every metric is a float. The numbers are finite, since the
    estimate is a validated state.
    """
    state, metrics = payload["state"], payload["metrics"]
    basis, matrix = state["basis"], state["matrix"]
    row = "      [\n%s\n      ]" % ",\n".join([_MATRIX_ENTRY] * len(matrix))
    entries = map(float.__repr__, chain.from_iterable(chain.from_iterable(matrix)))
    weights = metrics["bell_weights"]
    return _PAYLOAD % (
        _array('      "%s"', len(basis), basis, "    "),
        _array(row, len(matrix), entries, "    "),
        float.__repr__(metrics["concurrence"]),
        float.__repr__(metrics["mutual_info_bits"]),
        ",\n".join(['      "%s": %s' % (k, float.__repr__(w)) for k, w in weights.items()]),
    )


def cmd_curves(args) -> int:
    noise = _noise_spec(args.noise, args.p)
    grid = np.linspace(0.0, args.gamma_a_max, args.steps)
    points = sweep(noise, grid, args.strategy, args.normalization)
    if args.format == "csv":
        _write_text(args.output, sweep_to_csv(points))
    else:
        _write_text(args.output, json.dumps(sweep_to_json(points), indent=2) + "\n")
    return EXIT_OK


def cmd_inset(args) -> int:
    gamma_a_values = args.gamma_a or INSET_GAMMA_A
    noise = _noise_spec(args.noise, args.p)
    points = ratio_scan(noise, gamma_a_values, np.linspace(0.0, args.ratio_max, args.steps))
    series = [points[i : i + args.steps] for i in range(0, len(points), args.steps)]
    best = [argmax_ratio(run, "mutual_info") for run in series]
    if args.format == "csv":
        summary = "".join(
            "# argmax_mutual_info gamma_a=%.12g ratio=%.12g\n" % pair
            for pair in zip(gamma_a_values, best)
        )
        _write_text(args.output, sweep_to_csv(points) + summary)
    else:
        payload = {
            "noise": args.noise,
            "p": args.p,
            "series": [
                {"gamma_a": gamma_a, "argmax_ratio": ratio, "points": sweep_to_json(run)}
                for gamma_a, run, ratio in zip(gamma_a_values, series, best)
            ],
        }
        _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_optimize(args) -> int:
    noise = _noise_spec(args.noise, args.p)
    rho = pauli_channel_state(noise)
    f_a = FilterElement(args.gamma_a, GAMMA_A_AXIS)
    plan = plan_recovery(rho, f_a)
    # plan_recovery has checked the pair the library built; the filtered pair comes
    # with its spectrum, as a sweep's filtered stack does, and is not judged again
    states, values, _, transmission = _filter_pairs(
        rho, np.array([f_a.magnitude]), f_a.orientation,
        np.array([plan.gamma_b_opt]), plan.orientation_b,
    )
    report = {
        "noise": args.noise,
        "p": args.p,
        "gamma_a": args.gamma_a,
        "gamma_b_opt": plan.gamma_b_opt,
        "orientation_b": list(plan.orientation_b),
        "predicted_concurrence": plan.predicted_concurrence,
        "predicted_mutual_info_bits": float(_mutual_information(states[0], values[0])),
        "transmission": float(transmission[0]),
        "nothing_to_recover": plan.nothing_to_recover,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_tomo_simulate(args) -> int:
    rho = _named_state(args.state, args.p)
    record = simulate_counts(
        rho,
        standard_settings(),
        exposure=args.exposure,
        dark_prob=args.dark_prob,
        seed=args.seed,
        exact=args.exact,
    )
    _write_text(args.output, _record_text(record_to_json(record)))
    return EXIT_OK


def cmd_tomo_reconstruct(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        record = record_from_json(json.load(fh))
    # reconstruct returns a projected, physical estimate: one decomposition of it
    # feeds all three metrics
    rho = reconstruct(record)
    values, vectors = hermitian_eig(rho)
    payload = {
        "state": density_matrix_to_json(rho),
        "metrics": {
            "concurrence": float(_concurrence(values, vectors)),
            "mutual_info_bits": float(_mutual_information(rho, values)),
            "bell_weights": _bell_diagonal_weights(rho),
        },
    }
    _write_text(args.output, _payload_text(payload))
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
        "--p", type=_PROBABILITY, default=0.33, help="noise mixing weight (default 0.33)"
    )
    curves.add_argument("--gamma-a-max", type=_POSITIVE, default=1.2)
    curves.add_argument("--steps", type=_STEPS, default=60, help="grid points over [0, gamma-a-max]")
    curves.add_argument("--strategy", choices=STRATEGIES, default="none")
    curves.add_argument(
        "--normalization",
        type=_NORMALIZATION,
        default=0.9,
        help="scale on reported mutual information (default 0.9; use 1.0 for pure theory)",
    )
    curves.add_argument("--output", required=True)
    curves.add_argument("--format", choices=("csv", "json"), default="csv")
    curves.set_defaults(func=cmd_curves)

    inset = sub.add_parser("inset", help="mutual information vs gamma_B/gamma_A ratio")
    inset.add_argument(
        "--gamma-a",
        type=_POSITIVE,
        action="append",
        help="filter-A magnitude; repeatable (default: %.3f %.3f %.3f)" % INSET_GAMMA_A,
    )
    inset.add_argument("--ratio-max", type=_POSITIVE, default=1.2)
    inset.add_argument("--steps", type=_STEPS, default=121, help="ratio grid points over [0, ratio-max]")
    inset.add_argument("--noise", choices=NOISE_TYPES, default="bitflip")
    inset.add_argument("--p", type=_PROBABILITY, default=0.33)
    inset.add_argument("--output", required=True)
    inset.add_argument("--format", choices=("csv", "json"), default="csv")
    inset.set_defaults(func=cmd_inset)

    optimize = sub.add_parser("optimize", help="print the optimal compensating filter as JSON")
    optimize.add_argument("--noise", choices=NOISE_TYPES, required=True)
    optimize.add_argument("--p", type=_PROBABILITY, default=0.33)
    optimize.add_argument("--gamma-a", type=_NON_NEGATIVE, required=True)
    optimize.set_defaults(func=cmd_optimize)

    tomo = sub.add_parser("tomo", help="simulated polarization tomography")
    tomo_sub = tomo.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    simulate = tomo_sub.add_parser("simulate", help="write a coincidence-count record")
    simulate.add_argument("--state", choices=STATE_NAMES, required=True)
    simulate.add_argument("--p", type=_PROBABILITY, default=0.33, help="noise weight for bitflip/phaseflip states")
    simulate.add_argument("--exposure", type=_POSITIVE, default=1e5, help="expected pairs per setting")
    simulate.add_argument("--dark-prob", type=_NON_NEGATIVE, default=4e-5, help="accidental probability per gate")
    simulate.add_argument("--seed", type=_SEED, default=0)
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
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
