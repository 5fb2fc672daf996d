"""Every BENCH_*.json at the root of the repository (the performance
trajectory, one file per measured change, written by
scripts/bench_pairs.py) parses and holds the machine, the versions and, for
plane-step and free-chain, every pair's end-to-end metrics with each side's
median and quartiles, as the pairs give them. The script refuses a parent
whose commit it cannot name before it runs anything."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
METRICS = {"setup_s", "job_cost_mean", "job_cost_p50", "job_cost_tail", "peak_rss_mb",
           "ok_ratio", "validity_ratio"}


def test_the_trajectory_has_a_file():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_bench_file_holds_every_pair_and_its_spread(path):
    data = json.loads(path.read_text())
    parent = data["sha"]["parent"]
    assert isinstance(parent, str) and len(parent) == 40 and int(parent, 16) >= 0
    assert isinstance(data["nproc"], int) and data["nproc"] > 0
    assert all(isinstance(data[key], str) and data[key] for key in ("python", "numpy", "machine"))
    assert {"plane-step", "free-chain"} <= set(data["workloads"])
    for workload in data["workloads"].values():
        pairs = workload["pairs"]
        assert pairs and all(p["first"] in ("parent", "change") for p in pairs)
        assert all(METRICS <= set(p["parent"]) and METRICS <= set(p["change"]) for p in pairs)
        for name in METRICS:
            for side in ("parent", "change"):
                values = [p[side][name] for p in pairs]
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                assert workload["summary"][name][side] == pytest.approx(
                    {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1})


def test_bench_pairs_refuses_a_parent_it_cannot_name(tmp_path):
    # sources outside any git checkout, as `git archive` leaves them, with a
    # perfbench/run.py that leaves a marker whenever it runs
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("open('marker', 'w').close()\n")
    subprocess.run([sys.executable, "perfbench/run.py"], cwd=parent, check=True)
    assert (parent / "marker").exists()
    (parent / "marker").unlink()
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           "--parent", str(parent), "--change", str(parent), "--out", str(out),
                           "--runs", "free-chain:1-2"], capture_output=True, text=True)
    assert proc.returncode != 0 and proc.stdout == ""
    assert str(parent) in proc.stderr and "git worktree add --detach" in proc.stderr
    assert not (parent / "marker").exists() and not out.exists()
