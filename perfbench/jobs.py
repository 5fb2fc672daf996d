"""Seeded job lists for the benchmark workloads.

A job is one `coarseiso` command line. Jobs come in rounds: every round of a
workload holds the same slots (group pair and size class, or fixture kind),
and the seed only picks what does not change a slot's cost class: the
orientation of each pair, the exact requested radius inside one truncation
step, fixture branch counts inside a band, epsilons, and the order of the
jobs in the round. A run measures whole rounds, so every run of a workload
measures the same mix whatever its seed, and job-time percentiles hold still.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("free-chain", "tower-align", "plane-step")

# Each run measures at least this many jobs, so that the reported tail
# percentile (p75) has at least ten jobs beyond it.
MIN_JOBS = 40
TAIL_PERCENTILE = 75
# seconds one round takes on a 2-core x86 test host, used to size runs
ROUND_SECONDS = {"free-chain": 4.0, "tower-align": 5.0, "plane-step": 7.0}


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    kind: str  # "witness", "step" or "components"
    # radius the witness was asked to be valid on (depth + 1 on rank 0)
    requested: Optional[float] = None
    epsilon: Optional[float] = None


# free-chain slots: (G1, G2, n*m, base radii). The chain truncates the
# requested radius to base * n * m, where (n, m) are the pair's multipliers,
# so a requested radius drawn inside [base*n*m, (base+1)*n*m) keeps the work
# of the slot fixed while the printed request varies with the seed. Each
# pair runs at two sizes per round, one in each orientation.
FREE_CHAIN = (
    ("Z + C12", "Z + C3", 4, (16, 20)),
    ("Z + C2", "Z", 2, (48, 96)),
    ("Z + C2^inf", "Z + C2^inf + C3", 3, (4, 6)),
    ("Z^2 + C4", "Z^2", 4, (3, 4)),
    ("Z^2 + C2", "Z^2 + C4", 2, (3, 5)),
)

# tower-align slots: (G1, G2, depths), 1k to 5k points; the 4096- and
# 5184-point towers are above the 3000-point dense-cache limit. Sorted by
# cost the ten slots fall in three classes, with the median inside the
# middle one (C2 + C3 at depth 9, C2 at depth 11) and p75 inside the top one.
TOWER_ALIGN = (
    ("C2^inf", "C4^inf", (10, 11, 12)),
    ("C2^inf", "C8^inf", (10, 11, 12)),
    ("C3^inf", "C9^inf", (6, 7)),
    ("C2^inf + C3^inf", "C6^inf", (9, 10)),
)

# plane-step: four `step` jobs, two on each grid, and six `components` jobs
# per round. The step jobs are the slow class, so the median falls inside
# the components class (6 of 10, near its top) and p75 inside the step
# class (4 of 10, at about its 40th percentile), away from the gap between
# the two classes. Each components slot has its own branch band; its grid
# and epsilon rotate from round to round. Grid 0.02 is left out: its
# estimate misses the pi band.
PLANE_GRIDS = ("0.01", "0.0125")
STEP_BRANCHES = (20, 30)
COMPONENT_BRANCHES = (20, 32, 44, 56, 68, 80)  # each plus 0..7
COMPONENT_EPSILONS = (0.5, 1.0, 2.0, 3.0)

# one small job per workload, run during set-up so that lazy imports and
# first-call costs are paid before timing starts
WARMUP = {
    "free-chain": Job(("witness", "Z + C2", "Z", "--radius", "32"), "witness", 32.0),
    "tower-align": Job(("witness", "C2^inf", "C4^inf", "--depth", "6"), "witness", 7.0),
    "plane-step": Job(
        ("components", "example31:4:0.05", "--epsilon", "1.0"), "components", epsilon=1.0
    ),
}


def _free_chain_round(rng: random.Random, phases: list[int], index: int) -> list[Job]:
    out = []
    for (g1, g2, nm, bases), phase in zip(FREE_CHAIN, phases):
        for k, base in enumerate(bases):
            a, b = (g1, g2) if (k + phase + index) % 2 else (g2, g1)
            radius = base * nm + rng.randrange(nm)
            out.append(Job(("witness", a, b, "--radius", str(radius)), "witness", float(radius)))
    return out


def _tower_round(phases: list[int], index: int) -> list[Job]:
    out = []
    slots = [(g1, g2, depth) for g1, g2, depths in TOWER_ALIGN for depth in depths]
    for (g1, g2, depth), phase in zip(slots, phases):
        a, b = (g1, g2) if (phase + index) % 2 else (g2, g1)
        out.append(Job(("witness", a, b, "--depth", str(depth)), "witness", float(depth + 1)))
    return out


def _plane_round(rng: random.Random, phases: list[int], index: int) -> list[Job]:
    out = []
    for grid in PLANE_GRIDS + PLANE_GRIDS:
        branches = rng.randint(*STEP_BRANCHES)
        out.append(Job(("step", f"example31:{branches}:{grid}"), "step"))
    for slot, base in enumerate(COMPONENT_BRANCHES):
        branches = base + rng.randrange(8)
        grid = PLANE_GRIDS[(phases[slot] + index) % 2]
        eps = COMPONENT_EPSILONS[(phases[-1 - slot] + index) % 4]
        out.append(
            Job(
                ("components", f"example31:{branches}:{grid}", "--epsilon", str(eps)),
                "components",
                epsilon=eps,
            )
        )
    return out


def rounds(workload: str, seed: int, count: int) -> list[list[Job]]:
    """The first `count` rounds of a workload's job list for this seed.

    Orientations (and plane grids and epsilons) rotate from round to round
    from a seeded phase per slot, so any two consecutive rounds run every
    witness slot both ways round.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    phases = [rng.randrange(4) for _ in range(16)]
    out = []
    for index in range(count):
        if workload == "free-chain":
            jobs = _free_chain_round(rng, phases, index)
        elif workload == "tower-align":
            jobs = _tower_round(phases, index)
        else:
            jobs = _plane_round(rng, phases, index)
        rng.shuffle(jobs)
        out.append(jobs)
    return out


def round_size(workload: str) -> int:
    return len(rounds(workload, 0, 1)[0])


def rounds_per_run(workload: str, seconds: float) -> int:
    """Whole rounds a run measures: enough to fill `seconds` at the
    nominal round time and to hold MIN_JOBS jobs, rounded up to an even
    count so that every slot runs equally often in each orientation. The
    count does not depend on how fast the rounds actually run, so every
    run and every version of the program measures the same jobs."""
    n = max(-(-MIN_JOBS // round_size(workload)), math.ceil(seconds / ROUND_SECONDS[workload]))
    return n + n % 2
