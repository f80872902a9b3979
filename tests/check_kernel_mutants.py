"""Mutation gate for the interval kernel: each mutant must fail the boundary probes.

Usage, from the repository root::

    python tests/check_kernel_mutants.py

For each text mutant below, the script copies ``src/`` and the boundary
test (``tests/test_kernel_boundaries.py`` with its ``conftest.py`` and
``helpers.py``) to a temporary directory, applies the mutant to the copy and
runs the boundary test there.  The unmutated copy must pass first.  The
script exits non-zero when a mutant survives, when the probes fail on
something other than an assertion, or when a mutant's anchor text is not
found exactly once, so a refactor cannot retire a mutant silently.  It is
not collected by pytest.
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
PROBES = "tests/test_kernel_boundaries.py"
TEST_FILES = ("conftest.py", "helpers.py", "test_kernel_boundaries.py")

#: (name, file, anchor, replacement): one-token changes the probes must catch
MUTANTS = (
    (
        "interval decide searches right",
        KERNELSPEC,
        'k = np.searchsorted(x, times, side="left")',
        'k = np.searchsorted(x, times, side="right")',
    ),
    (
        "build's lower-bound test admits its bound",
        KERNELSPEC,
        "(lower.take(rows, axis=1) < at)",
        "(lower.take(rows, axis=1) <= at)",
    ),
    (
        "build's upper-bound test excludes its bound",
        KERNELSPEC,
        "(at <= upper.take(rows, axis=1))",
        "(at < upper.take(rows, axis=1))",
    ),
    (
        "cell answered at its left end",
        KERNELSPEC,
        "at = np.append(x, np.inf)",
        "at = np.append(-np.inf, x)",
    ),
)


def _run_probes(mutant: tuple[str, str, str, str] | None) -> int:
    """Run the boundary probes on a copy of ``src/``, mutated or not."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        shutil.copytree(
            ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
        (copy / "tests").mkdir()
        for name in TEST_FILES:
            shutil.copy(ROOT / "tests" / name, copy / "tests" / name)
        if mutant is not None:
            _, path, anchor, replacement = mutant
            target = copy / path
            target.write_text(target.read_text().replace(anchor, replacement))
        # the copy's conftest puts the copy's src/ first on sys.path
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", PROBES]
        return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    problems = []
    for name, path, anchor, _ in MUTANTS:
        found = (ROOT / path).read_text().count(anchor)
        if found != 1:
            problems.append(f"{name}: anchor {anchor!r} found {found} times in {path}")
    if problems:
        print("\n".join(problems))
        return 1
    if _run_probes(None) != 0:
        print(f"the unmutated copy fails {PROBES}")
        return 1
    for mutant in MUTANTS:
        code = _run_probes(mutant)
        # pytest exits 1 when a test failed; anything else is not a kill
        verdict = "killed" if code == 1 else ("SURVIVED" if code == 0 else f"ERROR (exit {code})")
        print(f"{verdict:>9}  {mutant[0]}")
        if code != 1:
            problems.append(mutant[0])
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
