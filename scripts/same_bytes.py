"""Same bytes: one corpus of CLI calls run through coarseiso.cli.main at a
parent checkout and at this one, to show what a change prints differently.

    python3 scripts/same_bytes.py PARENT_DIR

PARENT_DIR is a source checkout (its src/) of the parent, made for example
with `git clone` and `git checkout SHA`. The corpus is built from this
checkout: the pinned argvs of tests/test_cli.py (GOLDEN_WITNESSES,
GOLDEN_PLANE, EVERY_COMMAND, FREE_CHAIN_ROUND and the refusals and fixture
edge cases of EDGE_CASES, imported, not copied), the README's `$ coarseiso`
calls (README_CALLS there), the components calls of PLANE_EDGES, the
witness calls of the drawn pairs (tests/test_drawn_pairs.py, at the seed
and count of its test), each with its radius, depth, prime bound, scales
and point budget, and
ROUNDS rounds of each benchmark workload at SEED (perfbench/jobs.py).
Each side runs the whole corpus in one fresh interpreter that imports coarseiso from its own
src/: each argv through coarseiso.cli.main, in process, with stdout and
stderr captured, and the sha1 of its exit code, stdout and stderr. The
script prints both sha1s of each argv, then every argv whose sha1s differ,
and exits 1 when one does.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 5
ROUNDS = 2
# components calls that reach both renumberings of the plane grid
# (plane._squeeze) and the box bound of crowded cell pairs: a dense
# fixture at a large epsilon, a micro epsilon, and a fixture whose tallest
# branch reaches y = 1,256
PLANE_EDGES = [
    ("components", "example31:51:0.01", "--epsilon", "3.0"),
    ("components", "example31:20:0.01", "--epsilon", "1e-9"),
    ("components", "example31:4:0.01:1e308", "--epsilon", "1"),
]

# the seed and count of the drawn pairs' test (tests/test_same_bytes.py
# checks that they match)
DRAWN = (52, 160)

# run in each side's interpreter: argv 1 is that side's src/, the corpus
# comes on stdin, and one sha1 an argv goes to stdout
WORKER = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from coarseiso.cli import main
sums = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    sums.append(hashlib.sha1(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest())
print(json.dumps(sums))
"""


def corpus() -> list[tuple[str, ...]]:
    """Every argv of the corpus once, in the order first met."""
    for path in ("src", "tests", "perfbench"):
        if str(ROOT / path) not in sys.path:
            sys.path.insert(0, str(ROOT / path))
    import jobs
    import test_cli
    import test_drawn_pairs

    calls = [argv for argv, *_ in test_cli.GOLDEN_WITNESSES + test_cli.GOLDEN_PLANE]
    calls += test_cli.EVERY_COMMAND + test_cli.FREE_CHAIN_ROUND + test_cli.README_CALLS
    calls += [argv for rows in test_cli.EDGE_CASES.values() for _, argv, _ in rows] + PLANE_EDGES
    calls += drawn_pair_calls(test_drawn_pairs)
    for workload in jobs.WORKLOADS:
        calls += [job.argv for round_ in jobs.rounds(workload, SEED, ROUNDS) for job in round_]
    return list(dict.fromkeys(map(tuple, calls)))


def drawn_pair_calls(module) -> list[tuple[str, ...]]:
    """The witness argv of each drawn pair of tests/test_drawn_pairs.py, at
    the seed and count its test draws."""
    return [("witness", g1, g2, "--radius", str(args["radius"]), "--depth", str(args["depth"]),
             "--prime-bound", str(args["prime_bound"]),
             "--deltas", ",".join(map(str, args["deltas"])),
             "--point-budget", str(args["point_budget"]))
            for g1, g2, args in module.draws(*DRAWN)]


def sums(root: Path, calls: list[tuple[str, ...]]) -> list[str]:
    """The sha1 of each call's exit code, stdout and stderr, run from the
    checkout at root."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", WORKER, str(root / "src")], cwd=root, env=env,
                          input=json.dumps(calls), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="a source checkout of the parent")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "coarseiso" / "cli.py").is_file():
        print(f"same_bytes: {args.parent} holds no src/coarseiso/cli.py", file=sys.stderr)
        return 2
    calls = corpus()
    parent, change = sums(args.parent.resolve(), calls), sums(ROOT, calls)
    for argv, a, b in zip(calls, parent, change):
        print(f"{a} {b} {shlex.join(argv)}")
    differ = [argv for argv, a, b in zip(calls, parent, change) if a != b]
    print(f"same_bytes: {len(calls) - len(differ)} of {len(calls)} argvs print the same bytes")
    for argv in differ:
        print(f"differs: {shlex.join(argv)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
