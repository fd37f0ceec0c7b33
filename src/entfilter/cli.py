"""Command-line surface: sweep curves, ratio insets, filter optimization and
simulated tomography, writing CSV/JSON artifacts.

Exit codes: 0 success, 1 usage error, 2 runtime/domain error. Each range-checked
flag has one domain, checked by the ``_flag_type`` that parses it: a value outside
it exits 1 with the usage line and one ``error:`` line naming the flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from .channel import FilterElement, PauliNoiseSpec, pauli_channel_state
from .channel import _filter_pair
from .qmat import hermitian_eig
from .qstate import BELL_LABELS, bell_state
from .qstate import _BASIS_LABELS, _bell_diagonal_weights, _concurrence, _mutual_information
from .recover import (
    GAMMA_A_AXIS,
    STRATEGIES,
    argmax_ratio,
    plan_recovery,
    ratio_scan,
    sweep,
    sweep_to_csv,
)
from .recover import _JSON_ROW, _json_text
from .tomo import (
    reconstruct,
    record_from_json,
    simulate_counts,
    standard_settings,
)
from .tomo import _json_counts

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
    # Written in place, then a regular file is cut to the bytes written: opening with
    # O_TRUNC frees a non-empty file's blocks first, which costs more than the write on
    # some filesystems. A write that fails partway still cuts the file, so no tail of
    # an older file is left. A device or pipe (/dev/null, /dev/stdout) is not truncated.
    data = memoryview(text.encode("utf-8"))
    written = 0
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


# Fixed layouts of the two tomography artifacts, the inset JSON and the optimize
# report: each writer gives the bytes of json.dumps(obj, indent=2), plus "\n" for
# the files, from a few %-formats and joins. Numbers print as json prints them:
# floats through float.__repr__ (so float subclasses such as np.float64 print as
# plain floats), ints through int.__repr__.
_DIRECTION_PAIR = (
    "    [\n      [\n        %s,\n        %s,\n        %s\n      ],\n"
    "      [\n        %s,\n        %s,\n        %s\n      ]\n    ]"
)
_RECORD = (
    '{\n  "settings": %s,\n  "counts": %s,\n  "exposure": %s,\n'
    '  "dark_prob": %s,\n  "seed": %s\n}\n'
)
# one row of a state's matrix: four [re, im] pairs
_MATRIX_ROW = "      [\n%s\n      ]" % ",\n".join(["        [\n          %s,\n          %s\n        ]"] * 4)
_PAYLOAD = (
    '{\n  "state": {\n    "basis": %s,\n    "matrix": %s\n  },\n'
    '  "metrics": {\n    "concurrence": %s,\n    "mutual_info_bits": %s,\n'
    '    "bell_weights": {\n%s\n    }\n  }\n}\n'
)
# an inset series wraps its rows, recover's _JSON_ROW six spaces deeper, in fixed lines
_INSET = '{\n  "noise": "%s",\n  "p": %s,\n  "series": [\n%s\n  ]\n}\n'
_SERIES = (
    '    {\n      "gamma_a": %s,\n      "argmax_ratio": %s,\n      "points": [\n%s\n      ]\n    }'
)
_SERIES_ROW = "      " + _JSON_ROW.replace("\n", "\n      ")
_REPORT = (
    '{\n  "noise": "%s",\n  "p": %s,\n  "gamma_a": %s,\n  "gamma_b_opt": %s,\n'
    '  "orientation_b": [\n    %s,\n    %s,\n    %s\n  ],\n'
    '  "predicted_concurrence": %s,\n  "predicted_mutual_info_bits": %s,\n'
    '  "transmission": %s,\n  "nothing_to_recover": %s\n}'
)


def _number(value) -> str:
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def _array(item: str, count: int, values, indent: str) -> str:
    # a JSON array of count items, one per line: item filled from values in turn
    if not count:
        return "[]"
    return "[\n%s\n%s]" % (",\n".join([item] * count) % tuple(values), indent)


def _record_text(record) -> str:
    """A record file as ``json.dumps(record_to_json(record), indent=2) + "\n"`` gives it.

    The direction text is the one the settings instance builds once; counts are
    written by the rule ``record_to_json`` applies, and exposure and dark_prob are
    floats or ints (not bools). Every number is finite, since ``TomographyRecord``
    validates them.
    """
    settings, counts = record.settings, _json_counts(record.counts)
    return _RECORD % (
        _array(_DIRECTION_PAIR, len(settings), settings._direction_text, "  "),
        _array("    %s", len(counts), map(_number, counts), "  "),
        _number(record.exposure),
        _number(record.dark_prob),
        int.__repr__(record.seed),
    )


def _payload_text(rho, concurrence, mutual_info, weights: dict) -> str:
    """The ``tomo reconstruct`` file as ``json.dumps(payload, indent=2) + "\n"`` gives it.

    The payload is ``{"state": density_matrix_to_json(rho), "metrics":
    {"concurrence": concurrence, "mutual_info_bits": mutual_info, "bell_weights":
    weights}}``: ``rho`` is one contiguous complex 4x4 array, and every metric is a
    float. The numbers are finite, since the estimate is a physical state.
    """
    return _PAYLOAD % (
        _array('      "%s"', len(_BASIS_LABELS), _BASIS_LABELS, "    "),
        _array(_MATRIX_ROW, 4, map(float.__repr__, rho.view(float).ravel().tolist()), "    "),
        float.__repr__(concurrence),
        float.__repr__(mutual_info),
        ",\n".join(['      "%s": %s' % (k, float.__repr__(w)) for k, w in weights.items()]),
    )


def _inset_text(noise: str, p: float, gamma_a_values, series, best) -> str:
    """The ``inset --format json`` payload as ``json.dumps(payload, indent=2) + "\n"`` gives it.

    ``series`` holds one non-empty run of ``SweepPoint`` rows per value of
    ``gamma_a_values``, and ``best`` the run's argmax ratio. Every number is a
    finite Python float, as a ratio scan and argparse give them, and ``noise``
    and the rows' strategy are plain ASCII.
    """
    blocks = [
        _SERIES % (float.__repr__(gamma_a), float.__repr__(ratio), ",\n".join([_SERIES_ROW % row for row in rows]))
        for gamma_a, rows, ratio in zip(gamma_a_values, series, best)
    ]
    return _INSET % (noise, float.__repr__(p), ",\n".join(blocks))


def _report_text(noise: str, numbers, nothing_to_recover: bool) -> str:
    """The ``optimize`` report as ``json.dumps(report, indent=2)`` gives it.

    ``numbers`` are the report's nine finite numbers in the order of ``_REPORT``:
    p, gamma_a, gamma_b_opt, the three of orientation_b, the predicted concurrence
    and mutual information, and the transmission. ``noise`` is a plain-ASCII name.
    """
    flag = "true" if nothing_to_recover else "false"
    return _REPORT % (noise, *map(_number, numbers), flag)


def cmd_curves(args) -> int:
    noise = _noise_spec(args.noise, args.p)
    grid = np.linspace(0.0, args.gamma_a_max, args.steps)
    points = sweep(noise, grid, args.strategy, args.normalization)
    if args.format == "csv":
        _write_text(args.output, sweep_to_csv(points))
    else:
        _write_text(args.output, _json_text(points))
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
        _write_text(args.output, _inset_text(args.noise, args.p, gamma_a_values, series, best))
    return EXIT_OK


def cmd_optimize(args) -> int:
    noise = _noise_spec(args.noise, args.p)
    rho = pauli_channel_state(noise)
    f_a = FilterElement(args.gamma_a, GAMMA_A_AXIS)
    plan = plan_recovery(rho, f_a)
    state, values, transmission = _filter_pair(rho, f_a, FilterElement(plan.gamma_b_opt, plan.orientation_b))
    numbers = (
        args.p,
        args.gamma_a,
        plan.gamma_b_opt,
        *plan.orientation_b,
        plan.predicted_concurrence,
        float(_mutual_information(state, values)),
        transmission,
    )
    print(_report_text(args.noise, numbers, plan.nothing_to_recover))
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
    _write_text(args.output, _record_text(record))
    return EXIT_OK


def cmd_tomo_reconstruct(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        record = record_from_json(json.load(fh))
    rho = reconstruct(record)
    values, vectors = hermitian_eig(rho)
    concurrence, mutual_info = float(_concurrence(values, vectors)), float(_mutual_information(rho, values))
    _write_text(args.output, _payload_text(rho, concurrence, mutual_info, _bell_diagonal_weights(rho)))
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
