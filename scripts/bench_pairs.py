"""Alternated parent/change pairs of perfbench runs, written to a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_31.json \
        --runs plane-step:3101-3110 --runs free-chain:3111-3115

DIR is a source checkout (src/ and perfbench/) of each side; give both the
same perfbench/. The file names the parent by its commit, so the parent DIR
must be the top of a git checkout: make it with `git worktree add --detach
DIR SHA`. Any other parent is refused before the first run. Each seed is
one pair: `perfbench/run.py --workload W --seed S --seconds 40` on both
sides, the parent first on odd pairs and the change first on even ones, one
run at a time. The file holds every pair's end-to-end metrics and, per
side, their median and quartiles, with the machine and versions of the run
records.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 40


def run(root: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """The run record and the end-to-end metric values of one run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS)],
                          cwd=root, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return record["record"], {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", action="append", required=True,
                        help="WORKLOAD:FIRST-LAST, one pair per seed")
    args = parser.parse_args()

    top, _, parent_sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                        cwd=args.parent, capture_output=True,
                                        text=True).stdout.strip().partition("\n")
    if not parent_sha or Path(top).resolve() != args.parent.resolve():
        print(f"bench_pairs: {args.parent} is not the top of a git checkout, so its commit "
              "cannot be named; make it with `git worktree add --detach DIR SHA`",
              file=sys.stderr)
        return 2
    out: dict = {"sha": {"parent": parent_sha, "change": None}, "src_sha1": {},
                 "machine": platform.machine(), "seconds": SECONDS, "workloads": {}}
    for spec in args.runs:
        workload, seeds = spec.split(":")
        first, last = map(int, seeds.split("-"))
        pairs = []
        for k, seed in enumerate(range(first, last + 1)):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair: dict = {"seed": seed, "first": sides[0]}
            for side in sides:
                record, pair[side] = run(getattr(args, side), workload, seed)
                out["src_sha1"][side] = record["src_sha1"]
                for key in ("nproc", "python", "numpy", "scipy"):
                    out[key] = record[key]
            pairs.append(pair)
            print(workload, json.dumps(pair), file=sys.stderr, flush=True)
        summary = {}
        for name in pairs[0]["parent"]:
            better = -1 if name.startswith(("job_cost", "setup", "peak")) else 1
            summary[name] = {
                "parent": spread([p["parent"][name] for p in pairs]),
                "change": spread([p["change"][name] for p in pairs]),
                "change_wins": sum((p["change"][name] - p["parent"][name]) * better > 0
                                   for p in pairs),
            }
        out["workloads"][workload] = {"pairs": pairs, "summary": summary}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
