"""The benchmark's three closed-loop workloads: inputs, ops and gates.

Each workload turns a seed into an endless, reproducible stream of cycles.
A cycle is a short list of ops; the runner times each op's ``run`` and then
calls its ``check`` outside the timed region. Ops reach the library through
module attributes (``self.recover.sweep``, not a bound name), so the tracer's
rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref

#: Absolute tolerance of every value checked against the numpy reference.
TOL = 1e-9
#: Largest trace distance between a tomography estimate and its true state.
#: At exposure 1e5 the estimates observed while the benchmark was written
#: stayed below 0.007 for every state in the pool.
TOMO_TRACE_DISTANCE_BOUND = 0.03
#: Eigenvalue below which an estimate counts as projected (clipping fired).
PROJECTED_EIG = 1e-12

CURVE_STEPS = 60  # the `curves` default grid
CURVE_NORMALIZATION = 0.9  # the `curves` default
INSET_GAMMA_A = (0.820, 0.857, 0.869)  # the `inset` defaults
INSET_RATIOS = np.linspace(0.0, 1.2, 121)  # the `inset` default ratio grid
EXPOSURE = 1e5
DARK_PROB = 4e-5
CLI_P = 0.33  # the CLI's default noise weight

NOISE_AXES = {"bitflip": ref.BIT_FLIP_AXIS, "phaseflip": ref.PHASE_FLIP_AXIS}
STRATEGIES = ("none", "match", "optimal")
STATE_NAMES = ("phi+", "phi-", "psi+", "psi-", "bitflip", "phaseflip")

#: Seed whose first pass of tomo_bootstrap records is pinned by RECORDS_SHA256.
DEFAULT_SEED = 0
#: SHA-256 of the newline-joined canonical JSON of the first pass over the
#: tomo_bootstrap pool for DEFAULT_SEED. Tomography records must stay
#: identical for a given seed, so any change here is a format break.
RECORDS_SHA256 = "69b17c17f7008e5981920300231480d209a1fd683a3a16474d907ba6dec84fed"


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    kind: str  # ops of one kind do the same work; op_p90_ms is taken per kind
    points: int = 0  # sweep points the op evaluates (figure_sweeps only)


class Workload:
    """Seeded op stream plus the counters its gates keep."""

    name = ""

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.counters: Counter = Counter()

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def final_failures(self) -> int:
        """Ops that passed their own gate but fail a run-wide check."""
        return 0


def _noise_spec(lib, noise: str, p: float):
    spec = lib.channel.PauliNoiseSpec
    return spec.bit_flip(p) if noise == "bitflip" else spec.phase_flip(p)


class FigureSweeps(Workload):
    """6 sweeps (noise x strategy) on 60-point grids and 3 inset ratio scans per cycle."""

    name = "figure_sweeps"

    def cycle(self) -> list[Op]:
        p = float(self.rng.uniform(0.05, 0.95))
        grid = np.linspace(0.0, float(self.rng.uniform(0.6, 2.0)), CURVE_STEPS)
        ops = []
        for noise in NOISE_AXES:
            for strategy in STRATEGIES:
                ops.append(
                    Op(
                        lambda noise=noise, strategy=strategy: self.lib.recover.sweep(
                            _noise_spec(self.lib, noise, p), grid, strategy, CURVE_NORMALIZATION
                        ),
                        lambda points, noise=noise, strategy=strategy: self._check_sweep(
                            points, noise, p, grid, strategy
                        ),
                        "sweep",
                        CURVE_STEPS,
                    )
                )
        for gamma_a in INSET_GAMMA_A:
            ops.append(
                Op(
                    lambda gamma_a=gamma_a: self.lib.recover.ratio_scan(
                        _noise_spec(self.lib, "bitflip", p), gamma_a, INSET_RATIOS
                    ),
                    lambda points, gamma_a=gamma_a: self._check_points(
                        points,
                        "bitflip",
                        p,
                        np.full(len(INSET_RATIOS), gamma_a),
                        INSET_RATIOS * gamma_a,
                        "ratio",
                        1.0,
                    ),
                    "ratio_scan",
                    len(INSET_RATIOS),
                )
            )
        return ops

    def _check_sweep(self, points, noise, p, grid, strategy) -> bool:
        gain = np.linalg.norm(ref.correlation_matrix(ref.noisy_phi_plus(NOISE_AXES[noise], p))[:, 2])
        gamma_b = {
            "none": np.zeros_like(grid),
            "match": grid,
            "optimal": np.arctanh(gain * np.tanh(grid)),
        }[strategy]
        return self._check_points(points, noise, p, grid, gamma_b, strategy, CURVE_NORMALIZATION)

    def _check_points(self, points, noise, p, gamma_a, gamma_b, strategy, normalization) -> bool:
        """MI, C and T against the reference, and C against the closed form."""
        if len(points) != len(gamma_a) or any(pt.strategy != strategy for pt in points):
            return False
        rho = ref.noisy_phi_plus(NOISE_AXES[noise], p)
        t = ref.correlation_matrix(rho)
        t_a = t @ ref.FILTER_A_AXIS
        axis_b = -t_a / np.linalg.norm(t_a)
        states, transmission = ref.filtered_states(rho, gamma_a, gamma_b, axis_b)
        conc = ref.concurrence(states)
        want = np.column_stack(
            [gamma_a, gamma_b, normalization * ref.mutual_information(states), conc, transmission]
        )
        got = np.array(
            [[q.gamma_a, q.gamma_b, q.mutual_info, q.concurrence, q.transmission] for q in points]
        )
        if not np.all(np.abs(got - want) <= TOL):
            return False
        c0 = float(ref.concurrence(rho))
        filt = self.lib.channel.FilterElement
        closed = [
            self.lib.recover.concurrence_after_filtering(
                c0, t, filt(q.gamma_a, tuple(ref.FILTER_A_AXIS)), filt(q.gamma_b, tuple(axis_b))
            )
            for q in points
        ]
        return bool(np.all(np.abs(np.array(closed) - got[:, 3]) <= TOL))


class TomoBootstrap(Workload):
    """Simulate, reconstruct and score one state from a seeded pool per op."""

    name = "tomo_bootstrap"

    def __init__(self, lib, seed: int, workdir: str):
        super().__init__(lib, seed, workdir)
        self.settings = lib.tomo.standard_settings()
        self.pool = self.make_pool(self.rng)
        self.index = 0
        self.passed_by_state: Counter = Counter()

    @staticmethod
    def make_pool(rng) -> list[np.ndarray]:
        """Ginibre states of rank 1-4 in equal shares, plus Bell and noisy states."""
        pool = [ref.ginibre_state(rng, rank) for rank in (1, 2, 3, 4) for _ in range(3)]
        pool += [ref.bell_projector(label) for label in ref.BELL_VECTORS]
        pool += [ref.noisy_phi_plus(axis, float(rng.uniform(0.05, 0.95))) for axis in NOISE_AXES.values()]
        return pool

    def next_input(self) -> tuple[int, int]:
        state = self.index % len(self.pool)
        self.index += 1
        return state, int(self.rng.integers(0, 2**31))

    def cycle(self) -> list[Op]:
        """One pass over the pool, so every cycle has the same mix of states."""
        return [self._op(*self.next_input()) for _ in self.pool]

    def _op(self, state: int, seed: int) -> Op:
        rho = self.pool[state]
        return Op(
            lambda: self._run(rho, seed), lambda out: self._check(out, state, seed), "tomography"
        )

    def _run(self, rho, seed):
        tomo, qstate = self.lib.tomo, self.lib.qstate
        record = tomo.simulate_counts(rho, self.settings, EXPOSURE, DARK_PROB, seed=seed)
        estimate = tomo.reconstruct(record)
        return (
            record,
            estimate,
            qstate.concurrence(estimate),
            qstate.mutual_information(estimate),
            qstate.bell_diagonal_weights(estimate),
        )

    def _check(self, out, state: int, seed: int) -> bool:
        record, estimate, conc, mi, weights = out
        self.lib.qstate.validate_density_matrix(estimate)  # raises if unphysical
        self.counters["reconstructions"] += 1
        self.counters["projected"] += int(np.linalg.eigvalsh(estimate)[0] < PROJECTED_EIG)
        want_weights = ref.bell_weights(estimate)
        ok = (
            record.seed == seed
            and len(record.counts) == len(self.settings)
            and all(c >= 0 and float(c).is_integer() for c in record.counts)
            and ref.trace_distance(estimate, self.pool[state]) <= TOMO_TRACE_DISTANCE_BOUND
            and abs(conc - float(ref.concurrence(estimate))) <= TOL
            and abs(mi - float(ref.mutual_information(estimate))) <= TOL
            and weights.keys() == want_weights.keys()
            and all(abs(weights[k] - want_weights[k]) <= TOL for k in weights)
        )
        self.passed_by_state[state] += ok
        return ok

    def final_failures(self) -> int:
        """Exact round trip of every pool state, and the pinned record digest.

        An op whose state fails the dark-free exact round trip fails; a digest
        mismatch fails every op of the run.
        """
        if records_digest(self.lib) != RECORDS_SHA256:
            return sum(self.passed_by_state.values())
        tomo = self.lib.tomo
        failures = 0
        for state, rho in enumerate(self.pool):
            record = tomo.simulate_counts(rho, self.settings, EXPOSURE, 0.0, exact=True)
            if not np.max(np.abs(tomo.reconstruct(record) - rho)) <= TOL:
                failures += self.passed_by_state[state]
        return failures


def records_digest(lib) -> str:
    """SHA-256 of the first pass of tomo_bootstrap records for DEFAULT_SEED."""
    workload = TomoBootstrap(lib, DEFAULT_SEED, "")
    lines = []
    for _ in workload.pool:
        state, seed = workload.next_input()
        record = lib.tomo.simulate_counts(
            workload.pool[state], workload.settings, EXPOSURE, DARK_PROB, seed=seed
        )
        lines.append(json.dumps(lib.tomo.record_to_json(record), sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class CliSession(Workload):
    """8 in-process CLI commands per cycle: optimize, tomo round trips, curves."""

    name = "cli_session"

    def __init__(self, lib, seed: int, workdir: str):
        super().__init__(lib, seed, workdir)
        self.cycles = 0

    def _main(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lib.cli.main(argv)
        return code, out.getvalue()

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cycle(self) -> list[Op]:
        # Noise, strategy and format follow the cycle count rather than the
        # seed, so every seed runs the same mix of commands.
        n = self.cycles
        self.cycles += 1
        noises = list(NOISE_AXES)
        optimize = [
            self._optimize(noises[(n + k) % 2], float(self.rng.uniform(0.0, 3.0))) for k in range(3)
        ]
        tomo = []
        for k in range(2):
            name = STATE_NAMES[int(self.rng.integers(len(STATE_NAMES)))]
            tomo += self._tomo_round_trip(k, name, int(self.rng.integers(0, 2**31)))
        curves = self._curves(noises[n // 6 % 2], STRATEGIES[n % 3], ("csv", "json")[n % 2])
        return [optimize[0], *tomo[:2], optimize[1], *tomo[2:], optimize[2], curves]

    def _optimize(self, noise: str, gamma_a: float) -> Op:
        argv = ["optimize", "--noise", noise, "--gamma-a", repr(gamma_a)]

        def check(out) -> bool:
            code, stdout = out
            lib = self.lib
            rho = lib.channel.pauli_channel_state(_noise_spec(lib, noise, CLI_P))
            f_a = lib.channel.FilterElement(gamma_a, tuple(ref.FILTER_A_AXIS))
            plan = lib.recover.plan_recovery(rho, f_a)
            f_b = lib.channel.FilterElement(plan.gamma_b_opt, plan.orientation_b)
            rho_f, transmission = lib.channel.apply_filters(rho, f_a, f_b)
            want = {
                "noise": noise,
                "p": CLI_P,
                "gamma_a": gamma_a,
                "gamma_b_opt": plan.gamma_b_opt,
                "orientation_b": list(plan.orientation_b),
                "predicted_concurrence": plan.predicted_concurrence,
                "predicted_mutual_info_bits": lib.qstate.mutual_information(rho_f),
                "transmission": transmission,
                "nothing_to_recover": plan.nothing_to_recover,
            }
            return code == 0 and json.loads(stdout) == want

        return Op(lambda: self._main(argv), check, "optimize")

    def _tomo_round_trip(self, k: int, name: str, seed: int) -> list[Op]:
        lib = self.lib
        record_path, state_path = self._path(f"record{k}.json"), self._path(f"state{k}.json")
        simulate = ["tomo", "simulate", "--state", name, "--seed", str(seed), "--output", record_path]
        rebuild = ["tomo", "reconstruct", "--input", record_path, "--output", state_path]

        def check_simulate(out) -> bool:
            if name in ref.BELL_VECTORS:
                rho = lib.qstate.bell_state(name)
            else:
                rho = lib.channel.pauli_channel_state(_noise_spec(lib, name, CLI_P))
            record = lib.tomo.simulate_counts(
                rho, lib.tomo.standard_settings(), EXPOSURE, DARK_PROB, seed=seed
            )
            return out[0] == 0 and _load_json(record_path) == lib.tomo.record_to_json(record)

        def check_reconstruct(out) -> bool:
            estimate = lib.tomo.reconstruct(lib.tomo.record_from_json(_load_json(record_path)))
            self.counters["reconstructions"] += 1
            self.counters["projected"] += int(np.linalg.eigvalsh(estimate)[0] < PROJECTED_EIG)
            want = {
                "state": lib.qstate.density_matrix_to_json(estimate),
                "metrics": {
                    "concurrence": lib.qstate.concurrence(estimate),
                    "mutual_info_bits": lib.qstate.mutual_information(estimate),
                    "bell_weights": lib.qstate.bell_diagonal_weights(estimate),
                },
            }
            return out[0] == 0 and _load_json(state_path) == want

        return [
            Op(lambda: self._main(simulate), check_simulate, "tomo simulate"),
            Op(lambda: self._main(rebuild), check_reconstruct, "tomo reconstruct"),
        ]

    def _curves(self, noise: str, strategy: str, fmt: str) -> Op:
        lib = self.lib
        path = self._path(f"curve.{fmt}")
        argv = ["curves", "--noise", noise, "--strategy", strategy, "--format", fmt, "--output", path]

        def check(out) -> bool:
            points = lib.recover.sweep(
                _noise_spec(lib, noise, CLI_P),
                np.linspace(0.0, 1.2, CURVE_STEPS),
                strategy,
                CURVE_NORMALIZATION,
            )
            if fmt == "csv":
                with open(path, encoding="utf-8", newline="") as fh:
                    same = fh.read() == lib.recover.sweep_to_csv(points)
            else:
                same = _load_json(path) == lib.recover.sweep_to_json(points)
            return out[0] == 0 and same

        return Op(lambda: self._main(argv), check, "curves")


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (FigureSweeps, TomoBootstrap, CliSession)}
