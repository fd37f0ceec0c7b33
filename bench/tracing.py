"""Outside-in tracing of entfilter's public functions.

The tracer wraps each listed function and rebinds the wrapper under every
name that holds the original object in any ``entfilter`` module namespace.
``recover``, ``channel``, ``cli`` and ``qstate`` bind their helpers with
``from ... import``, so patching only the defining module would miss most
calls. Spans are folded into per-function totals as they close: a call
count and a self time, which is the span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

#: Traced functions per layer; the layers are the package modules.
LAYERS = {
    "qmat": ("as_matrix", "hermitian_eig", "matrix_sqrt_psd", "partial_trace", "kron"),
    "qstate": (
        "validate_density_matrix",
        "von_neumann_entropy",
        "mutual_information",
        "concurrence",
        "correlation_matrix",
        "bell_diagonal_weights",
    ),
    "channel": ("filter_operator", "apply_filters", "pauli_channel_state"),
    "recover": (
        "sweep",
        "ratio_scan",
        "plan_recovery",
        "optimal_magnitude",
        "sweep_to_csv",
        "sweep_to_json",
    ),
    "tomo": (
        "coincidence_probability",
        "simulate_counts",
        "reconstruct",
        "record_to_json",
        "record_from_json",
    ),
    "cli": ("main",),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Call counts and self times of the functions in ``LAYERS``.

    ``on`` switches recording; while it is off the wrappers call straight
    through, so the benchmark's own checks can use the library without
    showing up in the trace.
    """

    def __init__(self):
        self.on = False
        self.stats = {name: [0, 0] for name in TRACED}  # [calls, self_ns]
        self._stack: list[int] = []  # child time of each open span, in ns
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, fn, stat):
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stat[0] += 1
                stat[1] += duration - stack.pop()
                if stack:
                    stack[-1] += duration

        return traced

    def install(self) -> None:
        """Rebind a wrapper wherever an entfilter module holds a traced function."""
        modules = [m for n, m in sys.modules.items() if n == "entfilter" or n.startswith("entfilter.")]
        for layer, fns in LAYERS.items():
            defining = sys.modules[f"entfilter.{layer}"]
            for fn_name in fns:
                original = getattr(defining, fn_name)
                wrapper = self._wrap(original, self.stats[f"{layer}.{fn_name}"])
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def layer_metrics(self, ops: int, op_ns: int) -> dict[str, tuple[float, str]]:
        """Per-function and per-layer metrics over ``ops`` traced ops taking ``op_ns``."""
        metrics = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for name, (calls, self_ns) in self.stats.items():
            metrics[f"{name}.calls_per_op"] = (calls / ops, "calls/op")
            metrics[f"{name}.self_ms_per_op"] = (self_ns / 1e6 / ops, "ms/op")
            layer_ns[name.split(".")[0]] += self_ns
        for layer, self_ns in layer_ns.items():
            metrics[f"{layer}.self_share"] = (self_ns / op_ns, "ratio")
            metrics[f"{layer}.self_ms_per_op"] = (self_ns / 1e6 / ops, "ms/op")
        return metrics
