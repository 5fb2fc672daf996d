"""coarseiso benchmark: drives the `coarseiso` CLI in-process and checks
every job's output independently.

    python3 perfbench/run.py --workload free-chain --seed 1 --seconds 40 --trace 0

It runs from the root of a source checkout and imports coarseiso from
`src/`. One client runs jobs in a closed loop in this process, with no
worker threads; each job is one `coarseiso.cli.main(argv)` call with stdout
captured, timed alone, and checked outside the timed span. Before each job a
fixed reference kernel that does not use coarseiso is timed too, and each
job's cost is its wall time over the median reference time around it, so
that the host's changing speed cancels out. Jobs run in whole rounds (see
jobs.py); `--seconds` sets how many, at a nominal round time, so every run
measures the same amount of work. With `--trace 0` the last line of stdout
holds the end-to-end metrics; with `--trace 1` every round runs once
untraced and once traced, and the last line holds per-layer metrics. The
line before it holds the run record, which is also written with every job's
result to `.perfbench_out/` together with the spans of a traced run.
"""

from __future__ import annotations

import os

# pinned before numpy is first imported, here or in a set-up probe
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import jobs as joblist

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 6  # fresh interpreters timed for set-up, besides this one,
# spread over the run between rounds
REF_SIDE = 5  # reference samples on each side of a job that set its cost
WALL_LIMIT_S = 120.0  # no round starts after this, so a run ends within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "job_cost_mean": "ref",
    "job_cost_p50": "ref",
    "job_cost_tail": "ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "validity_ratio": "ratio",
}


def import_cli():
    if not (SRC / "coarseiso" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no coarseiso sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from coarseiso import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported coarseiso from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Outcome:
    job: joblist.Job
    seconds: float
    rc: object
    text: str
    err: str


_REF_DATA = None


def reference_kernel() -> float:
    """Wall time of a fixed piece of work that uses no coarseiso code, 15 to
    25 ms on a 2-core x86 host: an integer loop and a dict of tuples sorted
    in the interpreter, numpy passes over a 256 x 256 matrix, and a sort of
    half a million floats. Job time over this time is a job's cost in `ref`
    units, which stays put when the host's speed changes. It mixes
    interpreter and numpy work because neither alone tracked the host's
    speed on every workload."""
    global _REF_DATA
    import numpy as np

    if _REF_DATA is None:
        rng = np.random.default_rng(0)
        _REF_DATA = rng.random((256, 256)), rng.random(500_000)
    small, big = _REF_DATA
    t0 = perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    table = {}
    for i in range(8_000):
        table[(i * 7919) % 8009, i & 7] = i
    acc += sorted(table.items())[0][1]
    x = small
    for _ in range(10):
        x = np.minimum(x, x.T) + 1e-9
    acc += int(np.argsort(x, axis=1)[:, 0].sum())
    acc += int(np.sort(big)[0] + (big * 1.0001 + big).sum())
    return perf_counter() - t0


def job_costs(rows: list[dict], refs: list[float]) -> None:
    """Set each row's `cost`: its wall time over the median of the REF_SIDE
    reference samples up to the one taken just before it (`row["ref"]`)
    and the REF_SIDE after it."""
    for row in rows:
        i = row["ref"]
        window = refs[max(0, i - REF_SIDE + 1): i + REF_SIDE + 1]
        row["cost"] = row["seconds"] / statistics.median(window)


def run_job(cli, job: joblist.Job) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return Outcome(job, perf_counter() - t0, rc, out.getvalue(), err.getvalue())


def setup(workload: str, seed: int, count: int):
    """Import, generation of `count` rounds of jobs and one warm-up job: what
    a user pays before the first real command. Returns (seconds, cli,
    capture, plan, warm-up)."""
    t0 = perf_counter()
    cli = import_cli()
    capture = Capture(cli)
    plan = joblist.rounds(workload, seed, count)
    warm = run_job(cli, joblist.WARMUP[workload])
    return perf_counter() - t0, cli, capture, plan, warm


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter running `--setup-probe`."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Capture:
    """Keeps the witness and the components space of the current job for
    the checks; passes every call through to the current module binding,
    so traced rounds still see the traced functions."""

    def __init__(self, cli):
        witness_mod = sys.modules["coarseiso.witness"]
        spaces_mod = sys.modules["coarseiso.spaces"]
        self.witness = None
        self.space = None

        def iso_witness_chain(*args, **kwargs):
            self.witness = witness_mod.iso_witness_chain(*args, **kwargs)
            return self.witness

        def epsilon_components(space, epsilon):
            self.space = space
            return spaces_mod.epsilon_components(space, epsilon)

        cli.iso_witness_chain = iso_witness_chain
        cli.epsilon_components = epsilon_components

    def clear(self) -> None:
        self.witness = self.space = None


def check(checks, capture: Capture, outcome: Outcome) -> list[str]:
    problems = checks.check_job(outcome.job, outcome.rc, outcome.text, capture.witness, capture.space)
    capture.clear()
    if problems and outcome.err:
        problems.append(outcome.err.strip()[-300:])
    return problems


def measure(cli, checks, capture, plan, tracer=None, after_round=None):
    """Run every round of the plan, calling `after_round(rounds done)` after
    each. With a tracer, each round runs untraced and traced, in alternating
    order. The reference kernel is timed before every job and after the
    last, and each row gets its cost. Returns (untraced rows, traced rows,
    reference samples)."""
    plain, traced, refs = [], [], []
    wall0 = perf_counter()
    for index, round_jobs in enumerate(plan):
        if perf_counter() - wall0 > WALL_LIMIT_S:
            break
        modes = [False] if tracer is None else ([False, True] if index % 2 == 0 else [True, False])
        for traced_mode in modes:
            if traced_mode:
                tracer.install()
            try:
                for job in round_jobs:
                    refs.append(reference_kernel())
                    if traced_mode:
                        tracer.job_id = tracer.jobs
                        tracer.jobs += 1
                    outcome = run_job(cli, job)
                    if traced_mode:
                        tracer.out_bytes += len(outcome.text.encode())
                        tracer.job_id = -1
                    problems = check(checks, capture, outcome)
                    row = {
                        "round": index,
                        "argv": list(job.argv),
                        "seconds": outcome.seconds,
                        "ref": len(refs) - 1,
                        "rc": outcome.rc,
                        "problems": problems,
                        "validity_ratio": None if problems else checks.validity_ratio(job, outcome.text),
                    }
                    (traced if traced_mode else plain).append(row)
            finally:
                if traced_mode:
                    tracer.uninstall()
        if after_round is not None:
            after_round(index + 1)
    refs.append(reference_kernel())
    job_costs(plain + traced, refs)
    return plain, traced, refs


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all the
    order statistics, with weights from the Beta(p(n+1), (1-p)(n+1))
    distribution (integrated by the midpoint rule). Unlike the plain sample
    percentile it does not jump from one job to the next when neighbouring
    jobs swap order, so it holds still where jobs of different kinds meet.
    Needs p(n+1) > 1 and (1-p)(n+1) > 1."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    edges = np.linspace(0.0, 1.0, 20_001)
    mids = (edges[:-1] + edges[1:]) / 2
    log_pdf = (a - 1) * np.log(mids) + (b - 1) * np.log1p(-mids)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, edges, cdf / cdf[-1]))
    return float(weights @ x)


def _p50_tail(values: list[float]) -> tuple[float, float]:
    return hd_quantile(values, 0.5), hd_quantile(values, joblist.TAIL_PERCENTILE / 100)


def wall_times(rows, refs) -> dict:
    """The same jobs in plain wall seconds, for the run record: these move
    with the host's speed, so they carry no bound."""
    times = [r["seconds"] for r in rows]
    p50, tail = _p50_tail(times)
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_s_p50": p50,
        "job_s_tail": tail,
        "ref_s_p50": statistics.median(refs),
    }


def e2e_metrics(rows, setup_s: float) -> dict:
    costs = [r["cost"] for r in rows]
    cost_p50, cost_tail = _p50_tail(costs)
    failed = sum(1 for r in rows if r["problems"])
    ratios = [r["validity_ratio"] for r in rows if r["validity_ratio"] is not None]
    values = {
        "setup_s": setup_s,
        "job_cost_mean": statistics.fmean(costs),
        "job_cost_p50": cost_p50,
        "job_cost_tail": cost_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (len(rows) - failed) / len(rows),
        # plane-step runs no witness jobs; it reports 1 (nothing requested)
        "validity_ratio": statistics.fmean(ratios) if ratios else 1.0,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def _git_sha():
    """HEAD of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args, setup_samples, wall) -> dict:
    import numpy
    import scipy
    import sympy

    digest = hashlib.sha1()
    for path in sorted((SRC / "coarseiso").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "git_sha": _git_sha(),
        "src_sha1": digest.hexdigest(),
        "threads": {k: os.environ[k] for k in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
        "tail_percentile": joblist.TAIL_PERCENTILE,
        "setup_samples_s": setup_samples,
        "ref_side": REF_SIDE,
        "wall": wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=joblist.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # a traced run reports no percentiles; two rounds cover both orders
    count = 2 if args.trace else joblist.rounds_per_run(args.workload, args.seconds)
    setup_s, cli, capture, plan, warm = setup(args.workload, args.seed, count)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks
    import spans

    problems = check(checks, capture, warm)
    if problems:
        print(f"perfbench: warm-up job failed: {problems}", file=sys.stderr)
        return 1
    samples = [setup_s]

    def probe_due(done: int) -> None:
        # set-up probes spread evenly over the rounds, so that the median
        # sees the host at several moments of the run
        while len(samples) - 1 < SETUP_PROBES * done // len(plan):
            samples.append(probe_setup(args))

    tracer = spans.Tracer() if args.trace else None
    plain, traced, refs = measure(cli, checks, capture, plan, tracer, probe_due)
    probe_due(len(plan))
    rows = plain + traced
    failed = sum(1 for r in rows if r["problems"])
    for r in rows:
        if r["problems"]:
            print(f"perfbench: FAILED {r['argv']}: {r['problems']}", file=sys.stderr)

    if tracer is None:
        metrics = e2e_metrics(plain, statistics.median(samples))
    else:
        per_job = lambda rs: sum(r["cost"] for r in rs) / len(rs)
        metrics = tracer.layer_metrics(per_job(traced) / per_job(plain))

    record = run_record(args, samples, wall_times(plain, refs))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"BENCH-{stem}.json", "w") as fh:
        json.dump({"record": record, "metrics": metrics, "jobs": rows, "refs": refs}, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.json.gz")

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
