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
from itertools import chain

import numpy as np

from .channel import FilterElement, PauliNoiseSpec, pauli_channel_state
from .channel import _filter_pair
from .qmat import hermitian_eig
from .qstate import BELL_LABELS, bell_state
from .qstate import _BASIS_LABELS, _bell_diagonal_weights, _concurrence, _mutual_information
from .recover import (
    GAMMA_A_AXIS,
    STRATEGIES,
    SweepPoint,
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


# Each JSON artifact holds the bytes of json.dumps(obj, indent=2), plus "\n" for a file.
# The inset file is json.dumps of its payload; every other artifact is written by one
# % fill of its layout: json.dumps of the artifact's schema, in which each
# number or bool is _SLOT, laid out as %s, and each string value is "%s". A slot takes
# the value's JSON text: float.__repr__ of a float (a subclass such as np.float64 prints
# as a plain float), int.__repr__ of an int; a plain float fills it as it is, since its
# str is its repr. json.dumps with an indent runs the pure-Python encoder, dear per call,
# so the fixed shapes are laid out at import and the others once per shape.
_SLOT = "\0"  # json.dumps writes it as "\u0000", quotes included


def _layout(schema) -> str:
    return json.dumps(schema, indent=2).replace('"\\u0000"', "%s")


_PAYLOAD = _layout({
    "state": {"basis": list(_BASIS_LABELS), "matrix": [[[_SLOT] * 2] * 4] * 4},
    "metrics": {"concurrence": _SLOT, "mutual_info_bits": _SLOT, "bell_weights": dict.fromkeys(BELL_LABELS, _SLOT)},
}) + "\n"
_REPORT = _layout({
    "noise": "%s", "p": _SLOT, "gamma_a": _SLOT, "gamma_b_opt": _SLOT, "orientation_b": [_SLOT] * 3,
    "predicted_concurrence": _SLOT, "predicted_mutual_info_bits": _SLOT, "transmission": _SLOT,
    "nothing_to_recover": _SLOT,
})
_ROW = SweepPoint(_SLOT, _SLOT, "%s", _SLOT, _SLOT, _SLOT)  # a curve row's schema


# a CLI process writes one shape; the bound keeps a long-lived caller's cache small
@functools.lru_cache(maxsize=16)
def _record_layout(size: int) -> str:
    return _layout({
        "settings": [[[_SLOT] * 3] * 2] * size, "counts": [_SLOT] * size,
        "exposure": _SLOT, "dark_prob": _SLOT, "seed": _SLOT,
    }) + "\n"


@functools.lru_cache(maxsize=16)
def _curves_layout(size: int) -> str:
    return _layout(sweep_to_json([_ROW] * size)) + "\n"


def _number(value) -> str:
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def _record_text(record) -> str:
    """A record file as ``json.dumps(record_to_json(record), indent=2) + "\n"`` gives it.

    The direction text is the one the settings instance builds once; counts are
    written by the rule ``record_to_json`` applies, and exposure and dark_prob are
    floats or ints (not bools). Every number is finite, since ``TomographyRecord``
    validates them.
    """
    settings, counts = record.settings, _json_counts(record.counts)
    return _record_layout(len(settings)) % (
        *settings._direction_text,
        *map(_number, counts),
        _number(record.exposure),
        _number(record.dark_prob),
        int.__repr__(record.seed),
    )


def _payload_text(rho, concurrence, mutual_info, weights: dict) -> str:
    """The ``tomo reconstruct`` file as ``json.dumps(payload, indent=2) + "\n"`` gives it.

    The payload is ``{"state": density_matrix_to_json(rho), "metrics":
    {"concurrence": concurrence, "mutual_info_bits": mutual_info, "bell_weights":
    weights}}``: ``rho`` is one contiguous complex 4x4 array, every metric is a
    float, and ``weights`` is keyed by ``BELL_LABELS`` in order. The numbers are
    finite, since the estimate is a physical state.
    """
    numbers = [*rho.view(float).ravel().tolist(), concurrence, mutual_info, *weights.values()]
    return _PAYLOAD % tuple(map(float.__repr__, numbers))


def _curves_text(points) -> str:
    """The ``curves --format json`` file as ``json.dumps(sweep_to_json(points), indent=2) + "\n"`` gives it.

    Every number of the ``SweepPoint`` rows is a finite Python float, as a sweep
    gives them, and the strategy is plain ASCII.
    """
    return _curves_layout(len(points)) % tuple(chain.from_iterable(points))


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
        _write_text(args.output, _curves_text(points))
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
        payload = {"noise": args.noise, "p": args.p, "series": [
            {"gamma_a": gamma_a, "argmax_ratio": ratio, "points": sweep_to_json(run)}
            for gamma_a, run, ratio in zip(gamma_a_values, series, best)
        ]}
        _write_text(args.output, json.dumps(payload, indent=2) + "\n")
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
    except (ValueError, KeyError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
