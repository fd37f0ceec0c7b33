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
     "return entropy.clip(0.0, np.log2(values.shape[-1]))", "return entropy"),
    ("entropy clip's upper bound removed", "qstate.py",
     "entropy.clip(0.0, np.log2(values.shape[-1]))", "entropy.clip(0.0, None)"),
    ("_ENTROPY_EIG_FLOOR 1e-12 -> 1e-10", "qstate.py",
     "_ENTROPY_EIG_FLOOR = 1e-12", "_ENTROPY_EIG_FLOOR = 1e-10"),
    ("_ENTROPY_EIG_FLOOR 1e-12 -> 1e-14", "qstate.py",
     "_ENTROPY_EIG_FLOOR = 1e-12", "_ENTROPY_EIG_FLOOR = 1e-14"),
    ("transmission cap at 1 removed", "channel.py",
     "np.minimum(1.0, trace)", "trace"),
    ("_LOG_BLOCKED_TRACE log 1e-14 -> log 1e-12", "channel.py",
     "_LOG_BLOCKED_TRACE = np.log(1e-14)", "_LOG_BLOCKED_TRACE = np.log(1e-12)"),
    ("_LOG_BLOCKED_TRACE log 1e-14 -> log 1e-16", "channel.py",
     "_LOG_BLOCKED_TRACE = np.log(1e-14)", "_LOG_BLOCKED_TRACE = np.log(1e-16)"),
    ("concurrence_after_filtering c0 floor at 0 removed", "recover.py",
     "4 * max(0.0, c0)", "4 * c0"),
    ("concurrence_after_filtering c0 window -1e-12 -> -1e-9", "recover.py",
     "-1e-12 <= c0", "-1e-9 <= c0"),
    ("plan_recovery checks only row and column 0 of the Stokes matrix", "recover.py",
     "np.max(np.abs(stokes - np.diag(np.diag(stokes))))",
     "max(np.max(np.abs(stokes[0, 1:])), np.max(np.abs(stokes[1:, 0])))"),
    ("plan_recovery tolerance 1e-9 -> 1e-8", "recover.py",
     "np.diag(np.diag(stokes)))) > 1e-9", "np.diag(np.diag(stokes)))) > 1e-8"),
    ("plan_recovery tolerance 1e-9 -> 1e-10", "recover.py",
     "np.diag(np.diag(stokes)))) > 1e-9", "np.diag(np.diag(stokes)))) > 1e-10"),
    ("concurrence_after_filtering diagonal-T tolerance 1e-9 -> 1e-8", "recover.py",
     "np.diag(np.diag(t)))) > 1e-9", "np.diag(np.diag(t)))) > 1e-8"),
    ("concurrence_after_filtering diagonal-T tolerance 1e-9 -> 1e-10", "recover.py",
     "np.diag(np.diag(t)))) > 1e-9", "np.diag(np.diag(t)))) > 1e-10"),
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
     "- 1.0) <= 1e-12", "- 1.0) <= 1e-14"),
    ("fidelity_pure purity tolerance 1e-9 -> 1e-6", "qstate.py",
     "abs(purity - 1.0) > 1e-9", "abs(purity - 1.0) > 1e-6"),
    ("mutual information clamp at 0 removed", "qstate.py",
     "np.maximum(mi, 0.0)", "mi"),
    ("concurrence_after_filtering c0 ceiling 1 + 1e-9 -> 1 + 1e-6", "recover.py",
     "c0 <= 1.0 + 1e-9", "c0 <= 1.0 + 1e-6"),
    ("concurrence_after_filtering c0 ceiling 1 + 1e-9 -> 1", "recover.py",
     "c0 <= 1.0 + 1e-9", "c0 <= 1.0"),
    ("optimal_magnitude ||T a|| ceiling 1 + 1e-9 -> 1 + 1e-6", "recover.py",
     "gain > 1.0 + 1e-9", "gain > 1.0 + 1e-6"),
    ("ratio_scan finite-gamma_b check removed", "recover.py",
     "if not finite.all():", "if False:"),
    ("_filter_pairs log-trace overflow let through as a warning", "channel.py",
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
