"""The lines of src/coarseiso that no CLI test, acceptance criterion or
benchmark round runs, per function, checked against scripts/reach_allow.json.

    python3 scripts/reach.py
    python3 scripts/reach.py --attribute

It runs from the root of a source checkout and imports coarseiso from
`src/`. One sys.settrace line collector, in this process, runs pytest on
tests/test_cli.py and tests/test_acceptance.py, then one round of each
perfbench workload (perfbench/jobs.py, at seed 1) through
coarseiso.cli.main. Lines of a function body count, and module and class
bodies do not, as they run at import. It prints each line that never ran,
with its function and the class the allow-list gives it, and exits 1 when
an unrun line is not on the list or a listed line ran. The list names each
line by its file, function and text, not its number, so that edits
elsewhere leave it standing.

With --attribute it then runs the whole of tier-1 (tests/ and perfbench/),
tracing only the functions that hold unrun lines, and prints as JSON the
unrun lines with the first test that runs each: the `reached_by` of an
entry, null where no test does.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import inspect
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOW = ROOT / "scripts" / "reach_allow.json"


def body_lines(package: Path) -> dict[tuple[str, int], str]:
    """(file name, line) -> the function whose body holds the line, for
    every line of the package's function bodies; lambdas and comprehensions
    count as lines of the function around them."""
    out: dict[tuple[str, int], str] = {}

    def walk(code, name: str, owner) -> None:
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            owner = owner if code.co_name.startswith("<") and owner else code.co_qualname
            for _, _, line in code.co_lines():
                if line is not None:
                    out[(name, line)] = owner
        for const in code.co_consts:
            if inspect.iscode(const):
                walk(const, name, owner)

    for path in sorted(package.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.name, None)
    return out


def collect(package: Path, run, wanted=None) -> dict[tuple[str, int], str]:
    """The first run of each (file name, line) of the package while run()
    runs, with the test running then (run sets it as the returned dict's
    "test" entry); only lines in wanted when it is given. A frame stops
    being traced once every line of its code that could still count has
    run, so hot loops cost little."""
    files = {os.path.realpath(p): p.name for p in package.glob("*.py")}
    hits: dict = {"test": ""}
    # id of a code object -> the code (held, so that no id is reused) and
    # its lines not run yet
    left: dict = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        if id(code) not in left:
            name = files.get(os.path.realpath(code.co_filename))
            lines = {(name, line) for _, _, line in code.co_lines() if line} if name else set()
            left[id(code)] = code, lines if wanted is None else lines & wanted
        rest = left[id(code)][1]
        if not rest:
            return None
        name = next(iter(rest))[0]

        def on_line(frame, event, arg):
            key = (name, frame.f_lineno)
            if key in rest and hits["test"] is not None:
                rest.discard(key)
                hits[key] = hits["test"]
            return on_line if rest else None

        return on_line(frame, "call", None)

    sys.settrace(on_call)
    try:
        run(hits)
    finally:
        sys.settrace(None)
    hits.pop("test")
    return hits


def run_cli_tests_and_rounds(hits) -> None:
    import pytest

    sys.path.insert(0, str(ROOT / "perfbench"))
    import jobs
    from coarseiso.cli import main

    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_cli.py",
                            "tests/test_acceptance.py"])
    print(f"reach: pytest exited {int(code)}", file=sys.stderr)
    for workload in jobs.WORKLOADS:
        # the allow-list is keyed to this round: one round does not run
        # every slot, so another seed leaves other lines unrun
        for job in jobs.rounds(workload, 1, 1)[0]:
            with contextlib.redirect_stdout(io.StringIO()):
                main(list(job.argv))


def run_tier_1(hits) -> None:
    import pytest

    class Attribute:
        def pytest_runtest_setup(self, item):
            hits["test"] = item.nodeid

    hits["test"] = None  # lines run while collecting count for no test
    with contextlib.redirect_stdout(sys.stderr):
        pytest.main(["-q", "-p", "no:cacheprovider", "tests", "perfbench"], plugins=[Attribute()])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--attribute", action="store_true",
                        help="name the first tier-1 test that runs each unrun line")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import coarseiso

    package = Path(coarseiso.__file__).resolve().parent
    if package != SRC / "coarseiso":
        raise SystemExit(f"reach: imported coarseiso from {package}, not {SRC}")
    lines = body_lines(package)
    ran = collect(package, run_cli_tests_and_rounds)
    unrun = sorted(key for key in lines if key not in ran)
    text = {name: (package / name).read_text().splitlines() for name in {n for n, _ in unrun}}
    keyed = [(name, lines[name, line], text[name][line - 1].strip()) for name, line in unrun]

    if args.attribute:
        reached = collect(package, run_tier_1, wanted=set(unrun))
        print(json.dumps([{"file": name, "function": function, "text": line_text,
                           "line": line, "reached_by": reached.get((name, line))}
                          for (name, line), (_, function, line_text) in zip(unrun, keyed)],
                         indent=1))
        return 0

    entries = json.loads(ALLOW.read_text())
    listed = collections.Counter((e["file"], e["function"], e["text"]) for e in entries)
    kinds = {(e["file"], e["function"], e["text"]): e["class"] for e in entries}
    counted = collections.Counter(keyed)
    stale = listed - counted
    for (name, line), key in zip(unrun, keyed):
        print(f"{name}:{line} {key[1]}: {kinds.get(key, 'NOT LISTED')}: {key[2]}")
    for name, function, line_text in sorted(stale.elements()):
        print(f"{name} {function}: listed but ran: {line_text}")
    bad = sum((counted - listed).values()) + sum(stale.values())
    print(f"reach: {len(unrun)} of {len(lines)} body lines unrun, {bad} not as listed",
          file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
