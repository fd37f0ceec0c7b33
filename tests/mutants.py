"""Mutation check: does tier-1 pin each roundoff guard and tolerance listed below?

Each mutant rewrites one expression of ``src/entfilter`` in a temporary copy of
the repository, and tier-1 runs on that copy, one pytest process after another
(stopping at the first failure). A mutant that tier-1 still passes survives.
The unmutated copy runs first and must pass. Only the standard library is used;
pytest does not collect this file.

Every target is checked before the tree is copied: each must occur exactly once
in its module and differ from its replacement, and any that does not is listed
with exit status 2. ``tests/test_mutants.py`` makes the same check in tier-1;
the runs on the copy leave it out, since a mutant is a stale target there.

usage: python tests/mutants.py    (about 6-8 min; exit status 1 if any mutant survives)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the mutant does, module, expression as written, its replacement)
MUTANTS = [
    ("entropy clip to [0, log2 d] removed", "qstate.py",
     "return np.minimum(np.maximum(entropy, 0.0), math.log2(values.shape[-1]))", "return entropy"),
    ("entropy clip's upper bound removed", "qstate.py",
     "np.minimum(np.maximum(entropy, 0.0), math.log2(values.shape[-1]))", "np.maximum(entropy, 0.0)"),
    ("entropy lower bound keeps a pure state's -0.0 instead of +0.0", "qstate.py",
     "np.maximum(entropy, 0.0)", "np.maximum(0.0, entropy)"),
    ("entropy drops positive eigenvalues below 1e-12 again", "qstate.py",
     "np.where(values > 0.0, values, 1.0)", "np.where(values > 1e-12, values, 1.0)"),
    ("concurrence factor keeps roundoff-negative eigenvalues, whose roots are NaN", "qstate.py",
     "np.sqrt(np.clip(values, 0.0, None))", "np.sqrt(values)"),
    ("transmission cap at 1 removed", "channel.py",
     "np.minimum(1.0, trace)", "trace"),
    ("_LOG_BLOCKED_TRACE log 1e-14 -> log 1e-12", "channel.py",
     "_LOG_BLOCKED_TRACE = np.log(1e-14)", "_LOG_BLOCKED_TRACE = np.log(1e-12)"),
    ("_LOG_BLOCKED_TRACE log 1e-14 -> log 1e-16", "channel.py",
     "_LOG_BLOCKED_TRACE = np.log(1e-14)", "_LOG_BLOCKED_TRACE = np.log(1e-16)"),
    ("concurrence_after_filtering c0 floor at 0 removed", "recover.py",
     "min(max(0.0, c0), 1.0)", "min(c0, 1.0)"),
    ("concurrence_after_filtering c0 cap at 1 removed", "recover.py",
     "min(max(0.0, c0), 1.0)", "max(0.0, c0)"),
    ("concurrence_after_filtering c0 window -1e-12 -> -1e-9", "recover.py",
     "-1e-12 <= c0", "-1e-9 <= c0"),
    ("Bell-diagonal rule checks only row and column 0", "recover.py",
     "np.max(np.abs(matrix - np.diag(np.diag(matrix))))",
     "max(np.max(np.abs(matrix[0, 1:])), np.max(np.abs(matrix[1:, 0])))"),
    ("Bell-diagonal tolerance 1e-9 -> 1e-8", "recover.py",
     "np.diag(np.diag(matrix)))) > 1e-9", "np.diag(np.diag(matrix)))) > 1e-8"),
    ("Bell-diagonal tolerance 1e-9 -> 1e-10", "recover.py",
     "np.diag(np.diag(matrix)))) > 1e-9", "np.diag(np.diag(matrix)))) > 1e-10"),
    ("simulate_counts floor of expected counts at 0 removed", "tomo.py",
     "np.maximum(mu, 0.0).tolist()", "mu.tolist()"),
    ("HERMITICITY_TOL 1e-10 -> 1e-8", "qstate.py",
     "HERMITICITY_TOL = 1e-10", "HERMITICITY_TOL = 1e-8"),
    ("HERMITICITY_TOL 1e-10 -> 1e-12", "qstate.py",
     "HERMITICITY_TOL = 1e-10", "HERMITICITY_TOL = 1e-12"),
    ("TRACE_TOL 1e-10 -> 1e-8", "qstate.py",
     "TRACE_TOL = 1e-10", "TRACE_TOL = 1e-8"),
    ("PSD_TOL 1e-10 -> 1e-8", "qstate.py",
     "PSD_TOL = 1e-10", "PSD_TOL = 1e-8"),
    ("unit-norm tolerance of Stokes vectors 1e-12 -> 1e-14", "qstate.py",
     "_UNIT_NORM_TOL = 1e-12", "_UNIT_NORM_TOL = 1e-14"),
    ("one unit Stokes direction lets a NaN through", "qstate.py",
     "if not abs(math.sqrt((x * x + y * y) + z * z) - 1.0) <= _UNIT_NORM_TOL:",
     "if abs(math.sqrt((x * x + y * y) + z * z) - 1.0) > _UNIT_NORM_TOL:"),
    ("fidelity_pure purity tolerance 1e-9 -> 1e-6", "qstate.py",
     "abs(purity - 1.0) > 1e-9", "abs(purity - 1.0) > 1e-6"),
    ("mutual information clamp at 0 removed", "qstate.py",
     "np.maximum(s_a + s_b - s_ab, 0.0)", "s_a + s_b - s_ab"),
    ("curve concurrence without its (1 - p) factor", "recover.py",
     "(1 - p) * monomials[:, 4]", "monomials[:, 4]"),
    ("curve concurrence cap at 1 removed", "recover.py",
     "np.minimum((1 - p) * monomials[:, 4], 1.0)", "(1 - p) * monomials[:, 4]"),
    ("curve kernel's smaller eigenvalue from the cancelling difference, not det / larger", "recover.py",
     "np.divide(det, larger, out=smaller)", "np.subtract(1, larger, out=smaller)"),
    ("curve kernel keeps the monomials whose coefficients are all zero", "recover.py",
     "live = coefficients.any(axis=1).nonzero()[0]", "live = np.arange(len(coefficients))"),
    ("curve kernel skips the shared trace rules", "recover.py",
     "transmission = _transmission(trace, gamma_a, gamma_b)", "transmission = np.minimum(1.0, trace)"),
    ("concurrence_after_filtering c0 ceiling 1 + 1e-9 -> 1 + 1e-6", "recover.py",
     "c0 <= 1.0 + 1e-9", "c0 <= 1.0 + 1e-6"),
    ("concurrence_after_filtering c0 ceiling 1 + 1e-9 -> 1", "recover.py",
     "c0 <= 1.0 + 1e-9", "c0 <= 1.0"),
    ("_compensator ||T a|| ceiling 1 + 1e-9 -> 1 + 1e-6", "recover.py",
     "gain > 1.0 + 1e-9", "gain > 1.0 + 1e-6"),
    ("plan_recovery's C0 is the largest Bell weight, not 2 w_max - 1", "recover.py",
     "c0 = 2 * float(values[0]) - 1", "c0 = float(values[0])"),
    ("plan_recovery gives filter B magnitude 0 again where C0 = 0", "recover.py",
     "return RecoveryPlan(magnitude, orientation, 0.0, nothing_to_recover=True)",
     "return RecoveryPlan(0.0, orientation, 0.0, nothing_to_recover=True)"),
    ("ratio_scan finite-gamma_b check removed", "recover.py",
     "if not finite.all():", "if False:"),
    ("_transmission log-trace overflow let through as a warning", "channel.py",
     'np.errstate(divide="ignore", invalid="ignore", over="ignore")',
     'np.errstate(divide="ignore", invalid="ignore")'),
    ("apply_filters check of the state it returns removed", "channel.py",
     "if lowest < -PSD_TOL:", "if False:"),
    ("closed forms' correlation-matrix shape check removed", "recover.py",
     "if t.shape != (3, 3):", "if False:"),
    ("closed forms' correlation-matrix finiteness check removed", "recover.py",
     " or not np.isfinite(t).all():", ":"),
    ("closed forms' correlation-matrix realness check removed", "recover.py",
     "if np.iscomplexobj(t) or not", "if not"),
    ("filter_operator infinite-magnitude check removed", "channel.py",
     "if f.magnitude == np.inf:", "if False:"),
    ("_spectrum stops averaging the state with its conjugate transpose", "qstate.py",
     "rho = (rho + dagger) / 2", "rho = rho"),
    ("_transmission lets a NaN log trace through the blocked rule", "channel.py",
     "passed = log_trace >= _LOG_BLOCKED_TRACE", "passed = ~(log_trace < _LOG_BLOCKED_TRACE)"),
    ("_transmission subnormal rule removed", "channel.py",
     "if lowest < _TINY:", "if False:"),
    ("plan_recovery's closed form loses its denominator guard", "recover.py",
     "if four_t <= 0:", "if four_t < 0:"),
    ("average_entanglement drops filter B's magnitude from the rule's exponent", "recover.py",
     "math.exp(-f_a.magnitude - f_b.magnitude)", "math.exp(-f_a.magnitude)"),
    ("as_matrix accepts (N, 4, 4) stacks again", "qmat.py",
     "a.shape != (4, 4)", "a.shape[-2:] != (4, 4)"),
    ("record reader's type test admits bool", "tomo.py",
     "_JSON_NUMBER_TYPES = frozenset((int, float))", "_JSON_NUMBER_TYPES = frozenset((int, float, bool))"),
    ("standard layout matched by value, not bytes", "tomo.py",
     "directions.tobytes() == _STANDARD_SETTINGS.directions.tobytes()",
     "np.array_equal(directions, _STANDARD_SETTINGS.directions)"),
    ("simulate_counts overflow check removed", "tomo.py",
     "if largest == math.inf:", "if False:"),
    ("curve kernel tables left writeable", "recover.py",
     "table.setflags(write=False)", "table.setflags(write=True)"),
    ("curve kernel cache keyed without p: a hit serves another p's tables", "channel.py",
     "tuple[float, float, float]\n    p: float\n",
     "tuple[float, float, float]\n    p: float = __import__('dataclasses').field(compare=False)\n"),
]


def tier1(tree: Path) -> tuple[bool, str]:
    """Run tier-1 on ``tree``, stopping at the first failure: (passed, what pytest reported)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # test_mutants.py checks the targets of an unmutated tree, which main() has already
    # done; in a mutated tree it would fail by construction and catch every mutant
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = result.stdout.strip().splitlines() or [result.stderr.strip()[-200:]]
    # the test id of each short-summary line "FAILED tests/...::test - message"
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return result.returncode == 0, " ".join([*failed, lines[-1]])


def stale_targets() -> list[str]:
    """Each mutant whose expression does not occur exactly once in its module, or equals its replacement."""
    stale = []
    for name, module, old, new in MUTANTS:
        count = (ROOT / "src" / "entfilter" / module).read_text().count(old)
        if count != 1 or old == new:
            stale.append(f"{name}: {module} holds {old!r} {count} times (replacement {new!r})")
    return stale


def main() -> int:
    stale = stale_targets()
    if stale:
        print("stale mutant targets, each must occur exactly once and differ from its replacement:")
        print("\n".join(stale))
        return 2
    survivors = []
    with tempfile.TemporaryDirectory() as temp:
        tree = Path(temp) / "repo"
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", tree / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=ignore)
        for name in ("pyproject.toml", "README.md"):  # test_readme runs README's examples
            shutil.copy(ROOT / name, tree)
        passed, summary = tier1(tree)
        print(f"unmutated: {summary}")
        if not passed:
            print("tier-1 fails without any mutant; nothing to judge")
            return 2
        print("| mutant | tier-1 |\n| --- | --- |")
        for name, module, old, new in MUTANTS:
            path = tree / "src" / "entfilter" / module
            source = path.read_text()
            path.write_text(source.replace(old, new))
            try:
                passed, summary = tier1(tree)
            finally:
                path.write_text(source)
            print(f"| {name} | {summary} |", flush=True)
            if passed:
                survivors.append(name)
    print("survivors:", ", ".join(survivors) if survivors else "none")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
