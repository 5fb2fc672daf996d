"""Spans around coarseiso's layers, recorded from outside the program.

`Tracer.install` wraps the public functions listed in TARGETS and rebinds
every module attribute that refers to them (`witness` does
`from .analysis import oscillation`, so wrapping only `analysis.oscillation`
would miss the calls that matter). Each span records its name, start, end,
parent span and job id in parallel lists kept in memory; `write` saves
them when the run ends. Layer metrics are per traced job.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import weakref
from time import perf_counter
from typing import Callable, Optional

import numpy as np

# (layer, module, attribute); "Class.method" wraps a method on the class
TARGETS = (
    ("cli", "coarseiso.cli", "main"),
    ("groups", "coarseiso.groups", "parse_group"),
    ("groups", "coarseiso.groups", "coarse_isomorphic"),
    ("groups", "coarseiso.groups", "coarse_equivalent"),
    ("groups", "coarseiso.groups", "canonical_form"),
    ("groups", "coarseiso.groups", "find_multipliers"),
    ("witness.build", "coarseiso.witness", "iso_witness_chain"),
    ("witness.build", "coarseiso.witness", "factorization_witness"),
    ("witness.build", "coarseiso.witness", "tower_alignment_witness"),
    ("witness.build", "coarseiso.witness", "absorption_witness"),
    ("witness.build", "coarseiso.witness", "relabel_witness"),
    ("witness.build", "coarseiso.witness", "compose_witness"),
    ("witness.build", "coarseiso.witness", "product_witness"),
    ("witness.build", "coarseiso.witness", "invert_witness"),
    ("witness.verify", "coarseiso.witness", "verify_witness"),
    ("analysis.oscillation", "coarseiso.analysis", "oscillation"),
    ("analysis.step", "coarseiso.analysis", "estimate_factorizing_step"),
    ("spaces.components", "coarseiso.spaces", "epsilon_components"),
    ("spaces.build", "coarseiso.spaces", "build_truncation"),
    ("spaces.build", "coarseiso.spaces", "zball"),
    ("spaces.build", "coarseiso.spaces", "tower_space"),
    ("spaces.build", "coarseiso.spaces", "product_space"),
    ("spaces.build", "coarseiso.spaces", "subspace"),
    ("spaces.build", "coarseiso.spaces", "k_point_space"),
    ("spaces.build", "coarseiso.spaces", "example31_fixture"),
    ("spaces.rows", "coarseiso.spaces", "FiniteSpace.dists_from"),
    ("spaces.dmat", "coarseiso.spaces", "FiniteSpace.dmat"),
)

# per-layer metrics: name -> unit; every value is a mean per traced job
LAYER_METRICS = {
    "analysis.oscillation.calls_build": "count/job",
    "analysis.oscillation.calls_verify": "count/job",
    "analysis.oscillation.s": "s/job",
    "analysis.oscillation.pairs": "count/job",
    "analysis.oscillation.shortcut_calls": "count/job",
    "witness.build.calls": "count/job",
    "witness.build.s": "s/job",
    "witness.verify.s": "s/job",
    "witness.table_pairs": "count/job",
    "spaces.rows.calls": "count/job",
    "spaces.rows.s": "s/job",
    "spaces.dmat.calls": "count/job",
    "spaces.dmat.s": "s/job",
    "spaces.dmat.bytes": "B/job",
    "spaces.components.structural_calls": "count/job",
    "spaces.components.graph_calls": "count/job",
    "spaces.components.s": "s/job",
    "spaces.build.calls": "count/job",
    "spaces.build.s": "s/job",
    "spaces.build.points": "count/job",
    "analysis.step.calls": "count/job",
    "analysis.step.s": "s/job",
    "cli.s": "s/job",
    "cli.out_bytes": "B/job",
    "groups.calls": "count/job",
    "groups.s": "s/job",
    "trace.overhead_ratio": "ratio",
}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.
    Spans of one thread nest, so children never overlap each other."""
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    child = np.zeros(len(dur))
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        # span index -> what the call did: oscillation (phase, pairs,
        # shortcut), dmat bytes built, components path, points built,
        # witness table pairs
        self.notes: dict[int, object] = {}
        self.job_id = -1
        self.jobs = 0
        self.out_bytes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._dmats: dict[int, weakref.ref] = {}

    # -- recording ---------------------------------------------------------

    def _in_layer(self, prefix: str) -> Optional[str]:
        """Layer of the innermost open span under `prefix`, or None."""
        for idx in reversed(self._stack):
            name = self.names[self.name[idx]]
            if name.startswith(prefix):
                return name.split(":")[0]
        return None

    def _wrap(self, layer: str, label: str, fn: Callable, note) -> Callable:
        name_id = len(self.names)
        self.names.append(f"{layer}:{label}")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            before = note[0](tracer, args) if note and note[0] else None
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if note:
                tracer.notes[idx] = note[1](tracer, args, result, before)
            return result

        return traced

    def _dmat_bytes(self, args, result) -> int:
        # a matrix counts as built the first time its array object is seen
        key = id(result)
        ref = self._dmats.get(key)
        if ref is not None and ref() is result:
            return 0
        self._dmats[key] = weakref.ref(result)
        return int(result.nbytes)

    _NOTES = {
        "analysis.oscillation": (
            lambda t, a: t._in_layer("witness."),
            lambda t, a, r, phase: (
                phase,
                len(a[2]),
                bool(a[0].ultrametric)
                and type(a[0].rule).__name__ not in ("PlaneRule", "TableRule"),
            ),
        ),
        "spaces.dmat": (None, lambda t, a, r, b: t._dmat_bytes(a, r)),
        "spaces.components": (
            None,
            lambda t, a, r, b: "structural"
            if a[0].structural and type(a[0].rule).__name__ not in ("PlaneRule", "TableRule")
            else "graph",
        ),
        "spaces.build": (
            lambda t, a: t._in_layer("spaces.build"),
            lambda t, a, r, nested: 0 if nested else len(r),
        ),
        "witness.build": (
            None,
            lambda t, a, r, b: len(getattr(r, "witness", r).table),
        ),
    }

    def install(self) -> None:
        """Wrap every target and rebind each coarseiso module attribute
        that refers to it."""
        modules = [m for k, m in sys.modules.items() if k == "coarseiso" or k.startswith("coarseiso.")]
        for layer, module_name, attr in TARGETS:
            note = self._NOTES.get(layer)
            if attr == "iso_witness_chain":
                note = None  # its table is the last combinator's, counted there
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                orig = owner.__dict__[meth]
                self._patches.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(layer, attr, orig, note))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(layer, attr, orig, note)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Per-job means of every LAYER_METRICS entry over the traced jobs."""
        jobs = max(self.jobs, 1)
        layer = np.asarray([self.names[i].split(":")[0] for i in self.name])
        self_s = self_times(self.start, self.end, self.parent)
        total = {}

        def spans_of(name: str) -> np.ndarray:
            return np.flatnonzero(layer == name) if len(layer) else np.zeros(0, dtype=int)

        def noted(name: str) -> list:
            # a call that raised has no note
            return [self.notes[i] for i in spans_of(name) if i in self.notes]

        def add_time_calls(name: str, calls: bool = True) -> None:
            idx = spans_of(name)
            total[f"{name}.s"] = float(self_s[idx].sum())
            if calls:
                total[f"{name}.calls"] = float(len(idx))

        osc = noted("analysis.oscillation")
        total["analysis.oscillation.calls_build"] = float(sum(p == "witness.build" for p, _, _ in osc))
        total["analysis.oscillation.calls_verify"] = float(sum(p == "witness.verify" for p, _, _ in osc))
        add_time_calls("analysis.oscillation", calls=False)
        total["analysis.oscillation.pairs"] = float(sum(n for _, n, _ in osc))
        total["analysis.oscillation.shortcut_calls"] = float(sum(s for _, _, s in osc))

        add_time_calls("witness.build")
        total["witness.verify.s"] = float(self_s[spans_of("witness.verify")].sum())
        total["witness.table_pairs"] = float(sum(noted("witness.build")))
        add_time_calls("spaces.rows")
        add_time_calls("spaces.dmat")
        total["spaces.dmat.bytes"] = float(sum(noted("spaces.dmat")))
        comp = noted("spaces.components")
        total["spaces.components.structural_calls"] = float(comp.count("structural"))
        total["spaces.components.graph_calls"] = float(comp.count("graph"))
        add_time_calls("spaces.components", calls=False)
        add_time_calls("spaces.build")
        total["spaces.build.points"] = float(sum(noted("spaces.build")))
        add_time_calls("analysis.step")
        add_time_calls("cli", calls=False)
        total["cli.out_bytes"] = float(self.out_bytes)
        add_time_calls("groups")

        out = {name: {"value": total[name] / jobs, "unit": unit} for name, unit in LAYER_METRICS.items() if name in total}
        out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": LAYER_METRICS["trace.overhead_ratio"]}
        return out

    def write(self, path) -> None:
        """Save every span as [name, start, end, parent, job]."""
        spans = [
            [self.names[n], s, e, p, j]
            for n, s, e, p, j in zip(self.name, self.start, self.end, self.parent, self.job)
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": spans}, fh)
