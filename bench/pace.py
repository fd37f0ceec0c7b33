"""Host pace: a fixed reference loop, timed next to every op.

The shared host the benchmark was written on (a 2-vCPU VM) changes speed by
up to 1.7x for tens of seconds at a time. There is no steal time, and an op's
CPU time grows with its wall time, so the slowdown cannot be told apart from
the op's own work by any clock. Op latencies therefore fall into a fast and a
slow mode, in shares that differ from run to run, and runs of the same code
differed by a third in ``ops_per_s`` and by half in the median latency.

The harness times this loop right before and right after each op, outside
the op's timed region, and keeps the mean of the two. It runs no
``entfilter`` code: 4x4 ``eigvalsh`` and SVD calls from the benchmark's own
reference and a JSON dump, the same mix of small numpy calls and Python work
the library does. The end-to-end latencies are each op's latency scaled by
``NOMINAL_NS`` over the mean of these loop times for the ops around it,
that is, the op's latency at the pace where the loop takes ``NOMINAL_NS``.

Set-up is paced the same way with a different reference: each set-up probe
(a fresh interpreter) is timed between two reference spawns, fresh
interpreters that only import numpy, and scaled by ``NOMINAL_SPAWN_S`` over
their mean.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import reference as ref

#: Reference-loop time at nominal pace: about its time on the fast mode of
#: the host the benchmark was written on, so scaled latencies read close to
#: that mode's.
NOMINAL_NS = 500_000
#: Ops whose loop times give the pace of the op in their middle.
WINDOW = 9
#: A fresh interpreter that imports numpy and reports ready: the part of a
#: set-up probe that runs no entfilter code.
REFERENCE_SPAWN = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
#: Reference-spawn time at nominal pace, about its time on the fast mode of
#: the host the benchmark was written on.
NOMINAL_SPAWN_S = 0.1

_RNG = np.random.default_rng(0)
_STATES = [ref.ginibre_state(_RNG, 2) for _ in range(4)]
_RECORD = {f"k{i}": i / 7 for i in range(50)}


def reference_loop_ns() -> int:
    """Time one pass of the reference loop."""
    start = time.perf_counter_ns()
    for rho in _STATES:
        ref.concurrence(rho)
        ref.mutual_information(rho)
        json.dumps(_RECORD)
    return time.perf_counter_ns() - start


def at_nominal_pace(latencies_ns: list[int], loop_ns: list[float]) -> np.ndarray:
    """Each latency times NOMINAL_NS over the mean loop time of the WINDOW ops around it.

    The mean, not the median: when the host takes the CPU away in slices, the
    ops that lose a slice are slower, and only a mean counts the few loops
    that lose one too.
    """
    loops = np.asarray(loop_ns, dtype=float)
    half = min(WINDOW, len(loops)) // 2
    padded = np.pad(loops, half, mode="edge")
    local = sliding_window_view(padded, 2 * half + 1).mean(axis=1)
    return np.asarray(latencies_ns, dtype=float) * (NOMINAL_NS / local)


def setup_at_nominal_pace(probes_s: list[float], spawns_s: list[float]) -> float:
    """Median set-up time at nominal pace.

    Probe ``i`` ran between reference spawns ``i`` and ``i + 1``; its time is
    scaled by NOMINAL_SPAWN_S over the mean of the two.
    """
    spawns = np.asarray(spawns_s, dtype=float)
    local = (spawns[:-1] + spawns[1:]) / 2
    return float(np.median(np.asarray(probes_s, dtype=float) * (NOMINAL_SPAWN_S / local)))
