"""Self-test of the benchmark: ``python3 bench/selftest.py`` (about 15 s).

Checks that
1. a tiny untraced and traced run of each workload passes its gates and
   emits every metric BENCHMARK.json lists, with its unit;
2. two traced runs of the same cycle count give identical call counts, and
   figure_sweeps shows 6 validate_density_matrix and about 14 as_matrix calls
   per evaluated point;
3. the gates catch real errors: a concurrence off by 1e-6, one changed count
   in a tomography record and a CLI command exiting nonzero each make ops fail;
4. pacing scales each latency by the loop times around it, and each set-up
   time by the reference spawns around it, and by nothing else;
5. in a directory holding only BENCHMARK.json and the benchmark's files,
   run.py exits nonzero without printing a result.

It lives outside ``tests/`` and is not named ``test_*``, so the repository's
pytest run does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import harness
import pace
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
TINY = {"cycles": 2, "probes": 1}


def expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


@contextmanager
def patched(obj, attr: str, replacement):
    original = getattr(obj, attr)
    setattr(obj, attr, replacement(original))
    try:
        yield
    finally:
        setattr(obj, attr, original)


def failures(name: str) -> int:
    _, attempted, failed, _ = harness.measure(name, 0, 0, False, **TINY)
    return failed


def main() -> int:
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            metrics, attempted, failed, facts = harness.measure(name, 0, 0, trace, **TINY)
            check(failed == 0 and attempted > 0, f"{name} trace={int(trace)}: {attempted} ops, none failed")
            units = {m: unit for m, (_, unit) in metrics.items()}
            check(units == expected(kind), f"{name} trace={int(trace)}: every {kind} metric with its unit")

    first = harness.measure("figure_sweeps", 3, 0, True, **TINY)[0]
    second = harness.measure("figure_sweeps", 3, 0, True, **TINY)[0]
    calls = {m: v for m, (v, _) in first.items() if m.endswith(".calls_per_op")}
    check(calls == {m: v for m, (v, _) in second.items() if m.endswith(".calls_per_op")},
          "calls_per_op repeats exactly between two traced runs")
    per_point = first["qstate.validate_density_matrix.calls_per_point"][0]
    check(abs(per_point - 6) < 0.1, f"{per_point:.3f} validate_density_matrix calls per point")
    per_point = first["qmat.as_matrix.calls_per_point"][0]
    check(13.5 < per_point < 14.5, f"{per_point:.3f} as_matrix calls per point")

    lib = harness.load_library()
    with patched(lib.recover, "concurrence", lambda f: lambda rho: f(rho) + 1e-6):
        check(failures("figure_sweeps") > 0, "figure_sweeps gate catches a concurrence off by 1e-6")

    def bump_first_count(simulate):
        def wrapper(*args, **kwargs):
            record = simulate(*args, **kwargs)
            return dataclasses.replace(record, counts=(record.counts[0] + 1, *record.counts[1:]))
        return wrapper

    with patched(lib.tomo, "simulate_counts", bump_first_count):
        check(failures("tomo_bootstrap") > 0, "record digest catches one changed count")

    def broken_optimize(_):
        def fail(args):
            raise ValueError("injected failure")
        return fail

    with patched(lib.cli, "cmd_optimize", broken_optimize):
        check(failures("cli_session") > 0, "cli_session gate catches a nonzero exit")

    latencies = [1_000_000, 2_000_000, 3_000_000]
    nominal = [pace.NOMINAL_NS] * 3
    check(list(pace.at_nominal_pace(latencies, nominal)) == latencies
          and list(pace.at_nominal_pace(latencies, [2 * n for n in nominal])) == [n / 2 for n in latencies],
          "paced latencies equal raw ones at nominal pace and halve at half pace")
    spawns = [pace.NOMINAL_SPAWN_S] * 3
    check(math.isclose(pace.setup_at_nominal_pace([0.2, 0.4], spawns), 0.3)
          and math.isclose(pace.setup_at_nominal_pace([0.2, 0.4], [2 * s for s in spawns]), 0.15),
          "paced set-up equals the raw median at nominal pace and halves at half pace")

    bare = Path(harness.work_dir())
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        run = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "figure_sweeps"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        check(run.returncode != 0 and "{" not in run.stdout,
              f"without the sources run.py exits {run.returncode} and prints no result")
    finally:
        harness.remove_work_dir(str(bare))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
