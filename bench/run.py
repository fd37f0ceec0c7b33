"""entfilter benchmark: closed-loop workloads with an optional traced run.

    python3 bench/run.py --workload figure_sweeps --seed 1 --trace 0

runs one workload for ``run_seconds`` of BENCHMARK.json and prints one line
per metric, a line of run facts and, last, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--seconds`` is accepted so that
callers can pass the run length, but it must equal ``run_seconds``: the parent
and a change are always measured at the same length. ``--trace 1`` reports
the per-layer metrics instead of the end-to-end ones. ``--workload all`` (the default) runs every workload, each
in its own process, so every metric of every workload prints from one
command. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from harness import ROOT, BenchError, measure
from workloads import WORKLOADS

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_one(name: str, seed: int, trace: int) -> dict:
    metrics, attempted, failed, facts = measure(name, seed, RUN_SECONDS, bool(trace))
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value!r} {unit}")
    print(f"{name} fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} ops)")
    print("facts " + json.dumps(facts, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(seed: int, trace: int) -> dict:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--trace", str(trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with code {child.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured wall time per run; must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must equal run_seconds of BENCHMARK.json ({RUN_SECONDS})")
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.trace)
        else:
            result = run_one(args.workload, args.seed, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
