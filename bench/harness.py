"""Loading the library from source, timing ops and collecting the metrics."""

from __future__ import annotations

import importlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import pace
from tracing import Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
MODULES = ("qmat", "qstate", "channel", "recover", "tomo", "cli")
SETUP_PROBES = 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (for example, the sources are missing)."""


def load_library() -> SimpleNamespace:
    """Import entfilter from this checkout's ``src``, never from elsewhere."""
    package = SRC / "entfilter"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no entfilter sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    entfilter = importlib.import_module("entfilter")
    if Path(entfilter.__file__).resolve().parent != package:
        raise BenchError(f"imported entfilter from {entfilter.__file__}, not {package}")
    lib = SimpleNamespace(package=entfilter)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"entfilter.{name}"))
    return lib


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies_ns: list[int] = field(default_factory=list)
    loop_ns: list[float] = field(default_factory=list)  # reference loop around each op
    kinds: list[str] = field(default_factory=list)  # Op.kind of each latency
    attempted: int = 0
    failed: int = 0
    points: int = 0
    first_error: str = ""

    @property
    def op_ns(self) -> int:
        return sum(self.latencies_ns)

    @property
    def paced_ns(self) -> np.ndarray:
        """Op latencies at nominal host pace (see pace.py)."""
        return pace.at_nominal_pace(self.latencies_ns, self.loop_ns)

    @property
    def ops_per_s(self) -> float:
        """Ops that passed their gate per second of op time at nominal pace (gate time excluded)."""
        return (self.attempted - self.failed) / (self.paced_ns.sum() / 1e9)

    @property
    def unpaced_ops_per_s(self) -> float:
        return (self.attempted - self.failed) / (self.op_ns / 1e9)


def run_op(op, phase: Phase, tracer: Tracer | None) -> None:
    """Time one op between two reference loops, then check its output with tracing off."""
    before = pace.reference_loop_ns()
    if tracer:
        tracer.on = True
    start = time.perf_counter_ns()
    try:
        out = op.run()
    except Exception as exc:  # a failing op counts and the run goes on
        error = f"op raised {type(exc).__name__}: {exc}"
    else:
        error = None
    elapsed = time.perf_counter_ns() - start
    if tracer:
        tracer.on = False
    phase.loop_ns.append((before + pace.reference_loop_ns()) / 2)
    phase.latencies_ns.append(elapsed)
    phase.kinds.append(op.kind)
    phase.attempted += 1
    phase.points += op.points
    if error is None:
        try:
            if op.check(out):
                return
            error = "output failed the correctness gate"
        except Exception as exc:
            error = f"gate raised {type(exc).__name__}: {exc}"
    phase.failed += 1
    phase.first_error = phase.first_error or error


def run_phase(workload: Workload, seconds: float, tracer=None, cycles=None) -> Phase:
    """Run whole cycles until ``seconds`` of wall time have passed.

    With ``cycles`` set, run exactly that many cycles instead. Gate time
    between ops counts to the wall time but not to any op's latency.
    """
    phase = Phase()
    end = time.perf_counter() + seconds
    done = 0
    while done < cycles if cycles is not None else done == 0 or time.perf_counter() < end:
        for op in workload.cycle():
            run_op(op, phase, tracer)
        done += 1
    return phase


def work_dir() -> str:
    WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=WORK_ROOT)


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:  # another run still uses it, or it is already gone
        pass


def setup(name: str, seed: int, workdir: str) -> tuple[SimpleNamespace, Workload]:
    """Import the library, generate the inputs from the seed, run one warm-up op."""
    lib = load_library()
    workload = WORKLOADS[name](lib, seed, workdir)
    workload.cycle()[0].run()
    return lib, workload


def spawn_seconds(argv: list[str]) -> float:
    """Wall time from spawning ``argv`` to its ``ready`` line; waits for the child to end."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait(timeout=120)
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"{argv[1]} failed with exit code {code}")
    return elapsed


def setup_seconds(name: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """Time fresh interpreters from spawn to their first timed op.

    Returns the probe times and the reference-spawn times around them: one
    reference spawn before the first probe and one after each probe.
    """
    probe = [sys.executable, str(Path(__file__).with_name("probe.py")), name, str(seed)]
    times, spawns = [], [spawn_seconds(pace.REFERENCE_SPAWN)]
    for _ in range(probes):
        times.append(spawn_seconds(probe))
        spawns.append(spawn_seconds(pace.REFERENCE_SPAWN))
    return times, spawns


def percentile_ms(latencies_ns: list[int], q: float) -> float:
    return float(np.percentile(latencies_ns, q)) / 1e6


def by_kind(latencies_ns, kinds: list[str]) -> dict[str, np.ndarray]:
    latencies, kinds_arr = np.asarray(latencies_ns), np.array(kinds)
    return {kind: latencies[kinds_arr == kind] for kind in dict.fromkeys(kinds)}


def kind_p90_ms(latencies_ns, kinds: list[str]) -> float:
    """90th-percentile latency of each op kind, averaged over all ops.

    A cycle mixes op kinds of very different length (a cli_session cycle
    holds one ``curves`` call among seven shorter commands), so the 90th
    percentile of the pooled latencies falls on the edge between two kinds
    and jumps between them from run to run. Taking the percentile within
    each kind keeps it inside one latency distribution; weighting each kind
    by its share of ops makes it the pooled p90 when all ops are alike.
    """
    groups = by_kind(latencies_ns, kinds).values()
    return sum(len(g) * percentile_ms(g, 90) for g in groups) / len(latencies_ns)


def p90_tail_samples(phase: Phase) -> int:
    """Fewest samples beyond its kind's 90th percentile, over the op kinds."""
    groups = by_kind(phase.latencies_ns, phase.kinds).values()
    return min(int(np.sum(g > np.percentile(g, 90))) for g in groups)


def unpaced_metrics(phase: Phase) -> dict:
    """The end-to-end latency metrics before scaling to nominal pace."""
    return {
        "ops_per_s": phase.unpaced_ops_per_s,
        "op_p50_ms": percentile_ms(phase.latencies_ns, 50),
        "op_p90_ms": kind_p90_ms(phase.latencies_ns, phase.kinds),
        "loop_ms": percentile_ms(phase.loop_ns, 50),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_facts(lib, name: str, seed: int, seconds: float, trace: int, ops: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": ops,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "entfilter": lib.package.__version__,
        "commit": git_commit(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, cycles=None, probes=SETUP_PROBES):
    """Run one workload; return (metrics, attempted, failed, facts).

    ``metrics`` maps a metric name to (value, unit): the end-to-end metrics
    without tracing, the per-layer metrics with it. ``cycles`` fixes the
    number of cycles per phase in place of the time limit.
    """
    workdir = work_dir()
    setup_times = None
    try:
        lib, workload = setup(name, seed, workdir)
        if not trace:
            phase = run_phase(workload, seconds, cycles=cycles)
            phases = [phase]
            paced = phase.paced_ns
            setup_times = setup_seconds(name, seed, probes)
            metrics = {
                "setup_s": (pace.setup_at_nominal_pace(*setup_times), "s"),
                "ops_per_s": (phase.ops_per_s, "1/s"),
                "op_p50_ms": (percentile_ms(paced, 50), "ms"),
                "op_p90_ms": (kind_p90_ms(paced, phase.kinds), "ms"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        else:
            plain = run_phase(workload, seconds / 2, cycles=cycles)
            tracer = Tracer()
            tracer.install()
            try:
                before = workload.counters.copy()
                traced = run_phase(workload, seconds / 2, tracer, cycles=cycles)
                during = workload.counters - before
            finally:
                tracer.uninstall()
            phases = [plain, traced]
            metrics = tracer.layer_metrics(traced.attempted, traced.op_ns)
            for fn in ("qstate.validate_density_matrix", "qmat.as_matrix"):
                calls = tracer.stats[fn][0]
                metrics[f"{fn}.calls_per_point"] = (calls / traced.points if traced.points else 0.0, "calls/point")
            recon = during["reconstructions"]
            metrics["tomo.reconstruct.projected_share"] = (during["projected"] / recon if recon else 0.0, "ratio")
            metrics["trace_overhead_ratio"] = (traced.ops_per_s / plain.ops_per_s, "ratio")
        attempted = sum(p.attempted for p in phases)
        late = workload.final_failures()
        failed = sum(p.failed for p in phases) + late
        facts = run_facts(lib, name, seed, seconds, int(trace), attempted)
        facts["latency_samples"] = len(phases[-1].latencies_ns)
        facts["p90_tail_samples"] = p90_tail_samples(phases[-1])
        facts["unpaced"] = unpaced_metrics(phases[0])
        if setup_times:
            probes_s, spawns_s = setup_times
            facts["unpaced"] |= {"setup_s": statistics.median(probes_s), "spawn_s": statistics.median(spawns_s)}
        errors = [p.first_error for p in phases if p.first_error]
        if late:
            errors.append(f"{late} ops failed the run-wide checks")
        facts["first_error"] = errors[0] if errors else None
        return metrics, attempted, failed, facts
    finally:
        remove_work_dir(workdir)
