"""Byte-identity matrix: one digest per CLI and library output, to compare two trees.

An output is one in-process ``entfilter.cli.main`` run (a ``tomo simulate`` and
the ``tomo reconstruct`` of its record count as one, and so do a hand-written
record and its ``tomo reconstruct``), digested from its exit
code, stdout, stderr, any warnings and the bytes of the files it writes; or one
public reader of ``entfilter`` over 800 seeded random states, digested from the
bits of its results. Two trees, or one tree on two numpy builds, agree to the
bit exactly where every digest matches. The ``curves`` and ``inset`` outputs run
a second time, in reverse order, in the same process: the first pass digests the
curves of a noise whose kernel constants are built and then served from recover's
per-process cache, the second only served ones. Only the standard library and
numpy are used; pytest does not collect this file.

usage:
    python tests/cli_matrix.py [TREE]          print "digest  name" per output, for TREE/src
                                               (default: the tree holding this file)
    python tests/cli_matrix.py --diff OLD NEW  list each output whose digest differs; exit 1 if any

OLD and NEW each name a file of digest lines, a directory holding ``src/``, or a
git revision of this repository: ``--diff HEAD .`` compares the last commit with
the working tree. Environment variables pass through, so
``NPY_DISABLE_CPU_FEATURES=... python tests/cli_matrix.py > sse.txt`` digests the
same tree on other numpy loops.
"""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

NOISES = ("bitflip", "phaseflip")
P_VALUES = ("0", "0.01", "0.1", "0.33", "0.5", "0.9", "0.99", "1")
# up to the phase-flip edge, where optimize exits 2 (subnormal trace from 355)
GAMMA_A = ("0", "0.1", "0.5", "0.857", "1", "2", "5", "10", "30", "100", "300", "354", "355", "400")
STATES = ("phi+", "phi-", "psi+", "psi-", "bitflip", "phaseflip")
SEEDS = ("0", "7", "123456789012")
RANDOM_STATES = 800


def _argv_outputs():
    # the runs of each output that is commands alone
    for noise in NOISES:
        for p in P_VALUES:
            for gamma_a in GAMMA_A:
                yield [["optimize", "--noise", noise, "--p", p, "--gamma-a", gamma_a]]
            yield from _curve_outputs(noise, p)
    for state in STATES:
        for seed in SEEDS:
            for extra in ([], ["--exact"], ["--p", "0.9"]):
                yield [["tomo", "simulate", "--state", state, "--seed", seed, *extra, "--output", "{0}"],
                       ["tomo", "reconstruct", "--input", "{0}", "--output", "{1}"]]


def _curve_outputs(noise, p):
    # the curves and inset outputs of one noise
    for strategy in ("none", "match", "optimal"):
        for fmt in ("csv", "json"):
            yield [["curves", "--noise", noise, "--p", p, "--strategy", strategy,
                    "--format", fmt, "--output", "{0}"]]
    for fmt in ("csv", "json"):
        yield [["inset", "--noise", noise, "--p", p, "--format", fmt, "--output", "{0}"]]


def hand_written_records():
    """(label, text) of each record file that ``tomo simulate`` never writes: other layouts of
    the standard analyzers (permuted, one pair repeated, a -0.0, int components) and one
    off-axis analyzer, which ``tomo reconstruct`` must refuse with exit status 2."""
    axes = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)]
    standard = [[list(a), list(b)] for a in axes for b in axes]
    rng = np.random.default_rng(27)
    permuted = [standard[i] for i in rng.permutation(36)]
    minus_zero = [[list(d) for d in pair] for pair in standard]
    minus_zero[3][1][1] = -0.0  # (+z, -x): the y component of -x
    off_axis = [[list(d) for d in pair] for pair in standard]
    off_axis[7][0] = [0.6, 0.0, 0.8]
    layouts = {
        "permuted": permuted,
        "37-setting, one pair repeated": permuted + permuted[5:6],
        "-0.0 component": minus_zero,
        "int component": [[list(map(int, d)) for d in pair] for pair in standard],
        "off-axis": off_axis,
    }
    for label, settings in layouts.items():
        counts = rng.integers(1, 5000, len(settings)).tolist()
        record = {"settings": settings, "counts": counts, "exposure": 1e4, "dark_prob": 4e-5, "seed": 0}
        yield label, json.dumps(record)


def cli_outputs():
    """(name, runs) of each CLI output: the argv of each run, "{0}" and "{1}" standing for
    files, or the text of a record file written to "{0}" before the runs after it."""
    for runs in _argv_outputs():
        yield " ".join(runs[0]) + (" + reconstruct" if len(runs) > 1 else ""), runs
    for label, text in hand_written_records():
        yield f"tomo reconstruct --input <{label} record>", [
            text, ["tomo", "reconstruct", "--input", "{0}", "--output", "{1}"]]
    # the curves and inset outputs once more, in reverse order: recover keeps each noise's
    # kernel constants for the process, so these read what the first pass built
    for noise in NOISES:
        for p in P_VALUES:
            for runs in reversed(list(_curve_outputs(noise, p))):
                yield " ".join(runs[0]) + " (again, reverse order)", runs


def random_states():
    """The seeded random states of the library readers: ranks 1-4, every fifth Bell-diagonal."""
    from entfilter import BELL_LABELS, bell_state

    rng = np.random.default_rng(26)
    bell = [bell_state(label) for label in BELL_LABELS]
    states = []
    for i in range(RANDOM_STATES):
        if i % 5 == 4:
            states.append(sum(w * b for w, b in zip(rng.dirichlet(np.ones(4)), bell)))
        else:
            g = rng.normal(size=(4, 1 + i % 4)) + 1j * rng.normal(size=(4, 1 + i % 4))
            rho = g @ g.conj().T
            states.append(rho / rho.trace().real)
    return states


def library_readers():
    """(name, reader) of each public reader a state passes through."""
    import entfilter as ef
    from entfilter import tomo

    f_a = ef.FilterElement(0.857, (0.0, 0.0, 1.0))
    f_b = ef.FilterElement(0.5, (0.6, 0.0, -0.8))
    phi = ef.bell_state("phi+")
    return [
        ("validate_density_matrix", ef.validate_density_matrix),
        ("von_neumann_entropy", ef.von_neumann_entropy),
        ("mutual_information", ef.mutual_information),
        ("concurrence", ef.concurrence),
        ("correlation_matrix", ef.correlation_matrix),
        ("bell_diagonal_weights", lambda rho: list(ef.bell_diagonal_weights(rho).items())),
        ("fidelity_pure", lambda rho: ef.fidelity_pure(rho, phi)),
        ("density_matrix_to_json", lambda rho: repr(ef.density_matrix_to_json(rho))),
        ("coincidence_probability", lambda rho: tomo.coincidence_probability(rho, ef.standard_settings())),
        ("apply_filters", lambda rho: ef.apply_filters(rho, f_a, f_b)),
        ("plan_recovery", lambda rho: repr(ef.plan_recovery(rho, f_a))),
        ("average_entanglement", lambda rho: ef.average_entanglement(rho, f_a, f_b)),
        # the C0 and correlation matrix of each state: one not Bell-diagonal records the raise
        ("concurrence_after_filtering", lambda rho: ef.concurrence_after_filtering(
            ef.concurrence(rho), ef.correlation_matrix(rho), f_a, f_b)),
    ]


def _bits(value) -> bytes:
    # the exact bits of a result, whatever container or float type carries them
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(_bits(v) for v in value) + b")"
    array = np.asarray(value)
    return array.dtype.str.encode() + repr(array.shape).encode() + array.tobytes()


def digests() -> list[tuple[str, str]]:
    """(name, SHA-256) of every output, for the ``entfilter`` this process imports."""
    from entfilter import cli

    out = []
    with tempfile.TemporaryDirectory() as temp:
        files = [str(Path(temp) / "out0"), str(Path(temp) / "out1")]
        for name, runs in cli_outputs():
            digest = hashlib.sha256()
            for path in files:
                Path(path).unlink(missing_ok=True)
            for argv in runs:
                if isinstance(argv, str):
                    Path(files[0]).write_text(argv)
                    continue
                argv = [arg.format(*files) for arg in argv]
                stdout, stderr = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout), \
                        redirect_stderr(stderr):
                    warnings.simplefilter("always")
                    code = cli.main(argv)
                # a warning's category and text, not where it was raised
                shown = [f"{w.category.__name__}: {w.message}" for w in caught]
                digest.update(repr((code, stdout.getvalue(), stderr.getvalue(), shown)).encode())
            for path in files:
                digest.update(Path(path).read_bytes() if Path(path).exists() else b"no file")
            out.append((name, digest.hexdigest()))
    states = random_states()
    for name, reader in library_readers():
        digest = hashlib.sha256()
        for rho in states:
            try:
                digest.update(_bits(reader(rho)))
            except ValueError as exc:
                digest.update(f"{type(exc).__name__}: {exc}".encode())
        out.append((f"{name} over {RANDOM_STATES} random states", digest.hexdigest()))
    return out


def _digest_lines(source: str) -> dict[str, str]:
    # name -> digest of a digest file, or of a run on a directory's or a git revision's src
    path = Path(source)
    if path.is_file():
        lines = path.read_text().splitlines()
    else:
        with tempfile.TemporaryDirectory() as temp:
            if not path.is_dir():
                archive = subprocess.run(["git", "-C", str(ROOT), "archive", source, "src"],
                                         capture_output=True, check=True).stdout
                with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                    tar.extractall(temp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
                path = Path(temp)
            lines = subprocess.run([sys.executable, __file__, str(path)],
                                   capture_output=True, text=True, check=True).stdout.splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--diff"] and len(argv) == 3:
        old, new = _digest_lines(argv[1]), _digest_lines(argv[2])
        names = list(dict.fromkeys([*old, *new]))
        differ = [name for name in names if old.get(name) != new.get(name)]
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(differ)} of {len(names)} outputs differ")
        return 1 if differ else 0
    src = Path(argv[0] if argv else ROOT).resolve() / "src"
    if len(argv) > 1 or not (src / "entfilter").is_dir():
        print("usage:" + __doc__.split("usage:")[1].split("\n\n")[0], file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for name, digest in digests():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
