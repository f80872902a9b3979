"""Mutation gate for the interval kernel, the metrics fold, the lockstep's
overhead charge, the sweep fan-in and the system fork.

Usage, from the repository root::

    python tests/check_kernel_mutants.py

Each text mutant below names the test file it must fail: the interval
kernel's mutants the boundary probes (``tests/test_kernel_boundaries.py``),
the fold's mutants the overhead-fold checks (``tests/test_overhead_fold.py``),
the lockstep's mutants that drop the decided lanes' overhead charge the
oracle-referenced fleet fuzz (``tests/test_fleet_differential.py``), the
runtime's mutants of how far a parallel sweep moves the shared frame
sampler the cursor grid (``tests/test_sweep_cursor.py``), a frame-sampler
copy that shares its cursor the fleet's sampler contract
(``tests/test_fleet.py``), and a clone that keeps its parent's cursor the
facade's clone tests (``tests/test_api.py``).
For each mutant the script copies ``src/`` and that test file (with the
suite's ``conftest.py`` and ``helpers.py``) to a temporary directory,
applies the mutant to the copy and runs the test file there.  Each test
file must pass on an unmutated copy first.  The script exits non-zero when
a mutant survives, when its tests fail on something other than an
assertion, or when a mutant's anchor text is not found exactly once, so a
refactor cannot retire a mutant silently.  It is not collected by pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELSPEC = "src/repro/core/kernelspec.py"
ENGINE = "src/repro/core/engine.py"
STREAMING = "src/repro/core/streaming.py"
SYSTEM = "src/repro/core/system.py"
PLAN = "src/repro/runtime/plan.py"
SESSION = "src/repro/api/session.py"
TIMING_MODEL = "src/repro/media/timing_model.py"
PROBES = "tests/test_kernel_boundaries.py"
FOLD = "tests/test_overhead_fold.py"
FUZZ = "tests/test_fleet_differential.py"
CURSOR = "tests/test_sweep_cursor.py"
FLEET = "tests/test_fleet.py"
FACADE = "tests/test_api.py"
SUPPORT_FILES = ("conftest.py", "helpers.py")

#: (name, file, anchor, replacement, test file): one-token changes it must catch
MUTANTS = (
    (
        "interval decide searches right",
        KERNELSPEC,
        'k = np.searchsorted(x, times, side="left")',
        'k = np.searchsorted(x, times, side="right")',
        PROBES,
    ),
    (
        "build's lower-bound test admits its bound",
        KERNELSPEC,
        "(lower.take(rows, axis=1) < at)",
        "(lower.take(rows, axis=1) <= at)",
        PROBES,
    ),
    (
        "build's upper-bound test excludes its bound",
        KERNELSPEC,
        "(at <= upper.take(rows, axis=1))",
        "(at < upper.take(rows, axis=1))",
        PROBES,
    ),
    (
        "cell answered at its left end",
        KERNELSPEC,
        "at = np.append(x, np.inf)",
        "at = np.append(-np.inf, x)",
        PROBES,
    ),
    (
        "one-cycle chunk summed pairwise",
        STREAMING,
        "return np.cumsum(invocation_overheads[:, 0])[-1:]",
        "return invocation_overheads.sum(axis=0)",
        FOLD,
    ),
    (
        "Fortran-ordered chunk summed pairwise",
        STREAMING,
        "return np.ascontiguousarray(invocation_overheads).sum(axis=0)",
        "return invocation_overheads.sum(axis=0)",
        FOLD,
    ),
    (
        "cycle overhead summed pairwise",
        SYSTEM,
        "return float(np.cumsum(overheads)[-1]) if overheads.size else 0.0",
        "return float(self.manager_overheads.sum())",
        FOLD,
    ),
    (
        "lockstep drops the overhead when all lanes decide",
        ENGINE,
        "elapsed += decided_overheads",
        "elapsed += 0.0",
        FUZZ,
    ),
    (
        "lockstep drops the overhead when some lanes decide",
        ENGINE,
        "elapsed.put(lanes, times + decided_overheads)",
        "elapsed.put(lanes, times)",
        FUZZ,
    ),
    (
        "re-draw compare plan reports no draws",
        PLAN,
        "draws=cycles if sampler is not None else 0",
        "draws=0 if sampler is not None else 0",
        CURSOR,
    ),
    (
        "fan-in advances the sampler on a transport failure",
        SESSION,
        'consumed = bool(getattr(error, "failures", ()))',
        "consumed = True",
        CURSOR,
    ),
    (
        "sampler copy shares the frame cursor",
        TIMING_MODEL,
        "twin = copy.copy(self)",
        "twin = self",
        FLEET,
    ),
    (
        "clone keeps the parent's cursor",
        SESSION,
        "fork.timing.scenario_sampler.seek(0)",
        "pass",
        FACADE,
    ),
)


def _run_tests(test_file: str, mutant: tuple[str, str, str, str, str] | None) -> int:
    """Run one test file on a copy of ``src/``, mutated or not."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        shutil.copytree(
            ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
        (copy / "tests").mkdir()
        for name in SUPPORT_FILES:
            shutil.copy(ROOT / "tests" / name, copy / "tests" / name)
        shutil.copy(ROOT / test_file, copy / test_file)
        if mutant is not None:
            _, path, anchor, replacement, _ = mutant
            target = copy / path
            target.write_text(target.read_text().replace(anchor, replacement))
        # the copy's conftest puts the copy's src/ first on sys.path
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_file]
        return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    problems = []
    for name, path, anchor, _, _ in MUTANTS:
        found = (ROOT / path).read_text().count(anchor)
        if found != 1:
            problems.append(f"{name}: anchor {anchor!r} found {found} times in {path}")
    if problems:
        print("\n".join(problems))
        return 1
    for test_file in dict.fromkeys(mutant[4] for mutant in MUTANTS):
        if _run_tests(test_file, None) != 0:
            print(f"the unmutated copy fails {test_file}")
            return 1
    for mutant in MUTANTS:
        code = _run_tests(mutant[4], mutant)
        # pytest exits 1 when a test failed; anything else is not a kill
        verdict = "killed" if code == 1 else ("SURVIVED" if code == 0 else f"ERROR (exit {code})")
        print(f"{verdict:>9}  {mutant[0]}  ({mutant[4]})")
        if code != 1:
            problems.append(mutant[0])
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
