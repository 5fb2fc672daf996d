"""Self-tests of the benchmark: job generation, the independent checks and
the span arithmetic.

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    module = run.import_cli()
    return module, run.Capture(module)


def _run(cli, job):
    module, capture = cli
    capture.clear()
    outcome = run.run_job(module, job)
    assert outcome.rc == 0, outcome.err
    return json.loads(outcome.text), capture.witness, capture.space


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    argv = lambda seed: [[j.argv for j in r] for r in jobs.rounds(workload, seed, 6)]
    assert argv(7) == argv(7)
    assert argv(7) != argv(8)
    sizes = {len(r) for r in jobs.rounds(workload, 7, 6)}
    assert sizes == {jobs.round_size(workload)}
    count = jobs.rounds_per_run(workload, 1)
    assert count % 2 == 0 and count * jobs.round_size(workload) >= jobs.MIN_JOBS


def test_self_times_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_job_costs_cancel_a_change_of_host_speed():
    # the host doubles its speed after the sixth reference sample: the
    # reference kernel and the jobs both take half as long from then on
    refs = [2.0] * 6 + [1.0] * 6
    rows = [{"seconds": 10.0 if i < 5 else 5.0, "ref": i} for i in range(11) if i != 5]
    run.job_costs(rows, refs)
    assert [r["cost"] for r in rows] == [5.0] * 10


def test_harrell_davis_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    # symmetric weights: the median of evenly spaced values is their middle
    assert run.hd_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0, abs=1e-9)
    assert run.hd_quantile([2.5] * 6, 0.75) == pytest.approx(2.5, abs=1e-9)
    # a weighted mean of the order statistics, rising with p
    lo, mid, hi = (run.hd_quantile(values, p) for p in (0.25, 0.5, 0.75))
    assert min(values) < lo < mid < hi < max(values)


def test_pair_histogram_matches_naive_recount():
    rng = np.random.default_rng(3)
    coords_s = [None, 2, 5]
    coords_t = [3, None]
    S = np.column_stack([rng.integers(-4, 5, 300), rng.integers(0, 2, 300), rng.integers(0, 3, 300)])
    T = np.column_stack([rng.integers(0, 2, 300), rng.integers(-6, 7, 300)])

    def d(x, y, coords):
        return max(
            [abs(a - b) if lvl is None else lvl * (a != b) for a, b, lvl in zip(x, y, coords)],
            default=0,
        )

    deltas = [0.0, 1.0, 2.0, 4.0]
    fwd, bwd = checks.brute_moduli(
        checks.pair_histogram(S.astype(np.int16), T.astype(np.int16), coords_s, coords_t), deltas
    )
    for delta in deltas:
        pairs = list(itertools.combinations_with_replacement(range(len(S)), 2))
        ds = [d(S[i], S[j], coords_s) for i, j in pairs]
        dt = [d(T[i], T[j], coords_t) for i, j in pairs]
        assert fwd[delta] == max(t for s, t in zip(ds, dt) if s <= delta)
        assert bwd[delta] == max(s for s, t in zip(ds, dt) if t <= delta)


@pytest.mark.parametrize(
    "argv",
    [
        ("witness", "Z + C12", "Z + C3", "--radius", "48"),
        ("witness", "C4^inf", "C2^inf", "--depth", "6"),
    ],
)
def test_witness_check_flags_corrupted_output(cli, argv):
    job = jobs.Job(argv, "witness", float(argv[-1]))
    payload, witness, _ = _run(cli, job)
    assert checks.check_witness(payload, witness) == []

    # a modulus off by one
    bad = copy.deepcopy(payload)
    key = sorted(bad["witness"]["moduli"]["forward"])[0]
    bad["witness"]["moduli"]["forward"][key] += 1
    assert any("forward modulus" in p for p in checks.check_witness(bad, witness))

    # two table entries swap their images: the basepoint and the source
    # point farthest from it inside the validity ball
    table = list(witness.table)
    coords = checks.sup_coordinates(witness.source.rule.descriptor())
    X = checks.coordinates(witness.source.labels, coords)
    d0 = checks.sup_distances(X[[witness.source.basepoint]], X, coords)[0]
    live = [k for k, (s, _) in enumerate(table) if d0[s] <= witness.validity_radius]
    a = next(k for k in live if table[k][0] == witness.source.basepoint)
    b = max(live, key=lambda k: d0[table[k][0]])
    (sa, ta), (sb, tb) = table[a], table[b]
    table[a], table[b] = (sa, tb), (sb, ta)
    swapped = dataclasses.replace(witness, table=tuple(table))
    bad = copy.deepcopy(payload)
    bad["witness"]["pairs"] = [list(p) for p in table]
    problems = checks.check_witness(bad, swapped)
    assert any("modulus" in p for p in problems), problems

    # the printed table is not the one the captured witness holds
    assert any("table differs" in p for p in checks.check_witness(bad, witness))

    # the program reports a failed verification
    bad = copy.deepcopy(payload)
    bad["verification"]["ok"] = False
    assert checks.check_witness(bad, witness)


def test_step_check_flags_estimate_off_by_two_tenths():
    assert checks.check_step({"estimate": 3.241451542}) == []
    assert checks.check_step({"estimate": 3.241451542 + 0.2})
    assert checks.check_step({"estimate": None})


def test_components_check_flags_merged_components(cli):
    job = jobs.Job(("components", "example31:4:0.05", "--epsilon", "1.0"), "components", epsilon=1.0)
    payload, _, space = _run(cli, job)
    assert checks.check_components(payload, space, 1.0) == []
    assert payload["blocks"] > 1
    merged = copy.deepcopy(payload)
    merged["blocks"] -= 1
    merged["sizes"] = sorted([merged["sizes"][0] + merged["sizes"][1]] + merged["sizes"][2:], reverse=True)
    assert checks.check_components(merged, space, 1.0)


def test_check_job_counts_exit_codes_and_garbage():
    job = jobs.Job(("step", "example31:4:0.05"), "step")
    assert checks.check_job(job, 0, json.dumps({"estimate": 3.2})) == []
    assert checks.check_job(job, 1, json.dumps({"estimate": 3.2})) == ["exit code 1"]
    assert checks.check_job(job, 0, "not json") == ["output is not JSON"]


def test_tracer_splits_oscillation_and_restores_bindings(cli):
    module, capture = cli
    witness_mod = sys.modules["coarseiso.witness"]
    analysis_mod = sys.modules["coarseiso.analysis"]
    original = analysis_mod.oscillation
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert witness_mod.oscillation is not original
        tracer.job_id, tracer.jobs = 0, 1
        outcome = run.run_job(module, jobs.Job(("witness", "Z + C2", "Z", "--radius", "16"), "witness", 16.0))
    finally:
        tracer.uninstall()
    capture.clear()
    assert outcome.rc == 0
    assert witness_mod.oscillation is original and analysis_mod.oscillation is original
    metrics = tracer.layer_metrics(overhead_ratio=1.0)
    assert set(metrics) == set(spans.LAYER_METRICS)
    build = metrics["analysis.oscillation.calls_build"]["value"]
    verify = metrics["analysis.oscillation.calls_verify"]["value"]
    assert verify > 0 and build > verify
    assert metrics["witness.build.calls"]["value"] > 0
    assert metrics["cli.s"]["value"] > 0
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert [tracer.names[tracer.name[i]] for i in roots] == ["cli:main"]


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower-align", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
