"""Mutants: run each listed mutation of the program against the tests named
for it, to show that those tests catch it.

    python3 scripts/mutants.py [--out FILE]

The list is scripts/mutants.json. Each entry names a file under the
repository root, an exact text that occurs in it once, the text that
replaces it, and the test modules that must kill it. Each mutant is
applied to a fresh copy of the repository in a temporary directory, and
its test modules run there through pytest, with --hypothesis-seed=0 so
that the draws repeat, and stop at the first failure, within TIMEOUT
seconds. A failing test kills the mutant; a clean run means it survived;
a run past the time limit is "timeout", and any other pytest exit (a
collection or usage error) is "error". The unmutated
copy runs the same modules first, as "baseline", and must pass. Runs go
one at a time. Each result prints as it comes, with the first failing
test; --out also writes them all as JSON. The script exits 1 when a
mutant is not killed, and 2 when the baseline fails.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "scripts" / "mutants.json"
# what a run leaves behind, and the history, which no test reads
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".perfbench_out")
# seconds one run of a mutant's tests may take: the witness modules take
# under a minute on a 2-vCPU VM, and a mutant that makes a search run on
# is a timeout, not a pass
TIMEOUT = 600.0


def load(path: Path = LIST) -> list[dict]:
    """The mutants of the list, in its order."""
    return json.loads(path.read_text())


def apply(text: str, mutant: dict) -> str:
    """The text with the mutant's one occurrence of its find text replaced.
    A find text that does not occur exactly once is a ValueError naming
    the mutant, as the mutation would be ambiguous or would not apply."""
    count = text.count(mutant["find"])
    if count != 1:
        raise ValueError(f"mutant {mutant['id']}: its text occurs {count} times in "
                         f"{mutant['file']}, not once")
    return text.replace(mutant["find"], mutant["replace"])


def run_tests(copy: Path, tests: list[str]) -> dict:
    """Run the test modules in the copy, from its own src/: the verdict, the
    seconds taken, pytest's closing line and the first failing test."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"verdict": "timeout", "seconds": round(time.perf_counter() - start, 1)}
    lines = proc.stdout.strip().splitlines()
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in lines
              if line.startswith("FAILED ")]
    return {"verdict": {0: "survived", 1: "killed"}.get(proc.returncode, "error"),
            "seconds": round(time.perf_counter() - start, 1),
            "summary": lines[-1] if lines else proc.stderr.strip()[-200:],
            "first_failure": failed[0] if failed else None}


@contextlib.contextmanager
def fresh_copy():
    """A copy of the repository in a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        yield copy


def run_mutant(mutant: dict) -> dict:
    """Apply the mutant to a fresh copy of the repository and run its tests
    there."""
    with fresh_copy() as copy:
        target = copy / mutant["file"]
        target.write_text(apply(target.read_text(), mutant))
        return run_tests(copy, mutant["tests"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write the results here as JSON")
    args = parser.parse_args(argv)
    mutants = load()
    tests = sorted({t for m in mutants for t in m["tests"]})
    with fresh_copy() as copy:
        baseline = {"id": "baseline", "tests": tests, **run_tests(copy, tests)}
    print(f"{baseline['verdict']:9} {baseline['seconds']:7.1f}s baseline", flush=True)
    results = [baseline]
    if baseline["verdict"] == "survived":
        for mutant in mutants:
            result = {"id": mutant["id"], **run_mutant(mutant)}
            results.append(result)
            note = result.get("first_failure") or result.get("summary", "")
            print(f"{result['verdict']:9} {result['seconds']:7.1f}s {mutant['id']}  {note}",
                  flush=True)
    if args.out:
        payload = {"python": platform.python_version(), "timeout_s": TIMEOUT,
                   "results": results}
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
    if baseline["verdict"] != "survived":
        print(f"mutants: the unmutated tests do not pass ({baseline.get('summary', '')})",
              file=sys.stderr)
        return 2
    off = [r["id"] for r in results[1:] if r["verdict"] != "killed"]
    print(f"mutants: {len(results) - 1 - len(off)} of {len(results) - 1} killed")
    for name in off:
        print(f"not killed: {name}")
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main())
