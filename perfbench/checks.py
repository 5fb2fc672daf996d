"""Per-job output checks that do not use the code under test.

Every distance here is recomputed from raw label coordinates: witness
spaces through their sup-coordinate form (a free coordinate contributes
|x - y|, a cyclic coordinate at level L contributes L * [x != y]), plane
fixtures through a scipy cKDTree threshold graph and csgraph components.
The only things read from the program are its printed JSON and the label
tuples and rule parameters of the spaces it printed ids for.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

import numpy as np

STEP_BAND = 0.1  # acceptance criterion 6: the estimate lies within 0.1 of pi
PLANE_DECIMALS = 9  # plane distances are rounded to 1e-9 before thresholding
_TOL = 1e-9
_BLOCK = 128


def sup_coordinates(desc: dict) -> list[Optional[int]]:
    """Per label coordinate: None for a free coordinate, else the level of a
    cyclic coordinate, read from a rule descriptor."""
    kind = desc["kind"]
    if kind == "tower":
        return [int(x) for x in desc["levels"]]
    if kind == "group-ball":
        return [None] * int(desc["free_rank"]) + [int(x) for x in desc["cyclic_levels"]]
    if kind == "product":
        left = sup_coordinates(desc["left"])
        if len(left) != int(desc["split"]):
            raise ValueError("product split disagrees with its left factor")
        return left + sup_coordinates(desc["right"])
    raise ValueError(f"{kind} spaces have no sup-coordinate form")


def coordinates(labels: Sequence[tuple], coords: Sequence[Optional[int]]) -> np.ndarray:
    """Labels as an integer array, int16 when every distance fits in it."""
    X = np.asarray(labels, dtype=np.int64).reshape(len(labels), len(coords))
    return X.astype(np.int16) if distance_bound(X, coords) < 2**15 else X


def distance_bound(X: np.ndarray, coords: Sequence[Optional[int]]) -> int:
    spans = [
        int(X[:, c].max() - X[:, c].min()) if level is None else int(level)
        for c, level in enumerate(coords)
    ]
    return max(spans, default=0) if len(X) else 0


def sup_distances(rows: np.ndarray, cols: np.ndarray, coords: Sequence[Optional[int]]) -> np.ndarray:
    """All-pairs distances between two coordinate arrays of one dtype."""
    d = np.zeros((len(rows), len(cols)), dtype=rows.dtype)
    for c, level in enumerate(coords):
        a, b = rows[:, c, None], cols[None, :, c]
        if level is None:
            np.maximum(d, np.abs(a - b), out=d)
        else:
            np.maximum(d, (a != b).view(np.int8) * rows.dtype.type(level), out=d)
    return d


def pair_histogram(
    src: np.ndarray,
    dst: np.ndarray,
    src_coords: Sequence[Optional[int]],
    dst_coords: Sequence[Optional[int]],
) -> np.ndarray:
    """Counts of (source distance, target distance) over every pair of
    table entries; row k of `src` maps to row k of `dst`. Pairs are
    unordered, so each block of rows meets only itself and later rows."""
    width = distance_bound(dst, dst_coords) + 1
    bins = (distance_bound(src, src_coords) + 1) * width
    hist = np.zeros(bins, dtype=np.int64)
    for s in range(0, len(src), _BLOCK):
        ds = sup_distances(src[s : s + _BLOCK], src[s:], src_coords).astype(np.int64)
        dt = sup_distances(dst[s : s + _BLOCK], dst[s:], dst_coords)
        ds *= width
        ds += dt
        hist += np.bincount(ds.ravel(), minlength=bins)
    return hist.reshape(-1, width)


def brute_moduli(hist: np.ndarray, deltas: Sequence[float]) -> tuple[dict, dict]:
    """Forward and backward oscillation at each delta from a pair histogram:
    the largest target (source) distance over pairs whose source (target)
    distance is at most delta."""
    present = hist > 0
    fwd, bwd = {}, {}
    for d in deltas:
        k = int(math.floor(d + _TOL)) + 1
        fwd[d] = float(np.flatnonzero(present[:k].any(axis=0)).max())
        bwd[d] = float(np.flatnonzero(present[:, :k].any(axis=1)).max())
    return fwd, bwd


def _compare_moduli(name: str, printed: dict, want: dict, out: list[str]) -> None:
    got = {float(k): float(v) for k, v in printed.items()}
    if set(got) != set(want):
        out.append(f"{name} moduli at deltas {sorted(got)}, recount at {sorted(want)}")
        return
    for d in sorted(want):
        if abs(got[d] - want[d]) > _TOL:
            out.append(f"{name} modulus at delta={d}: printed {got[d]}, recount {want[d]}")


def check_witness(payload: dict, witness) -> list[str]:
    """A `witness` job: verification passed, the table is a bijection from
    the validity ball, and both moduli match an all-pairs recount."""
    out: list[str] = []
    if payload.get("verification", {}).get("ok") is not True:
        violations = payload.get("verification", {}).get("violations", [])
        out.append(f"verification failed: {violations[:2]}")
    wj = payload["witness"]
    if witness is None:
        return out + ["witness object was not captured"]
    pairs = np.asarray(wj["pairs"], dtype=np.int64).reshape(-1, 2)
    if [tuple(p) for p in pairs.tolist()] != [tuple(p) for p in witness.table]:
        out.append("printed table differs from the witness that was built")
    src, dst = witness.source, witness.target
    for key, space in (("source_id", src), ("target_id", dst)):
        if str(wj[key]).rsplit("-", 2)[1:2] != [str(len(space.labels))]:
            out.append(f"{key} {wj[key]} does not name a {len(space.labels)}-point space")
    src_coords = sup_coordinates(src.rule.descriptor())
    dst_coords = sup_coordinates(dst.rule.descriptor())
    S = coordinates(src.labels, src_coords)
    T = coordinates(dst.labels, dst_coords)

    validity = wj["validity_radius"]
    validity = math.inf if validity == "inf" else float(validity)
    d0 = sup_distances(S[[src.basepoint]], S, src_coords)[0]
    ball = np.flatnonzero(d0 <= validity + _TOL)
    kept = pairs[np.isin(pairs[:, 0], ball)]
    if len(np.unique(kept[:, 0])) != len(kept):
        out.append("table maps a source point twice")
    if not np.array_equal(np.unique(kept[:, 0]), ball):
        out.append(f"table covers {len(np.unique(kept[:, 0]))} of {len(ball)} points of the validity ball")
    if len(np.unique(kept[:, 1])) != len(kept):
        out.append("table is not injective on the validity ball")

    moduli = wj["moduli"]
    deltas = sorted(float(d) for d in moduli["forward"])
    hist = pair_histogram(S[kept[:, 0]], T[kept[:, 1]], src_coords, dst_coords)
    fwd, bwd = brute_moduli(hist, deltas)
    _compare_moduli("forward", moduli["forward"], fwd, out)
    _compare_moduli("backward", moduli["backward"], bwd, out)
    measured = payload["verification"].get("measured", {})
    _compare_moduli("verified forward", measured.get("forward", {}), fwd, out)
    _compare_moduli("verified backward", measured.get("backward", {}), bwd, out)
    return out


def check_step(payload: dict) -> list[str]:
    est = payload.get("estimate")
    if not isinstance(est, (int, float)) or not abs(est - math.pi) <= STEP_BAND:
        return [f"step estimate {est} is not within {STEP_BAND} of pi"]
    return []


def plane_components(labels: Sequence[tuple], epsilon: float, chunk: int = 4096) -> np.ndarray:
    """Component sizes, largest first, of the graph joining plane points at
    rounded distance <= epsilon. Chunks of points are joined to the running
    components one at a time, so memory stays near one chunk's edges."""
    # imported here so that only plane-step runs carry scipy in memory
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    pts = np.asarray(labels, dtype=float).reshape(len(labels), 2)
    n = len(pts)
    tree = cKDTree(pts)
    rep = np.arange(n)
    for start in range(0, n, chunk):
        near = cKDTree(pts[start : start + chunk]).sparse_distance_matrix(
            tree, epsilon + 1e-6, output_type="ndarray"
        )
        i = near["i"].astype(np.int64) + start
        j = near["j"].astype(np.int64)
        w = np.round(np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]), PLANE_DECIMALS)
        keep = (w <= epsilon) & (i < j)
        rows = np.concatenate([np.arange(n), i[keep]])
        cols = np.concatenate([rep, j[keep]])
        graph = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
        count, comp = connected_components(graph, directed=False)
        first = np.full(count, n)
        np.minimum.at(first, comp, np.arange(n))
        rep = first[comp]
    return np.sort(np.unique(rep, return_counts=True)[1])[::-1]


def check_components(payload: dict, space, epsilon: float) -> list[str]:
    if space is None:
        return ["components space was not captured"]
    out = []
    if payload.get("points") != len(space.labels):
        out.append(f"printed {payload.get('points')} points, space has {len(space.labels)}")
    sizes = plane_components(space.labels, epsilon)
    if payload.get("blocks") != len(sizes):
        out.append(f"printed {payload.get('blocks')} blocks, recount {len(sizes)}")
    elif payload.get("sizes") != sizes[:32].tolist():
        out.append("printed block sizes differ from the recount")
    return out


def check_job(job, rc, text: str, witness=None, space=None) -> list[str]:
    """Problems with one job's result; empty when it passes."""
    out = [] if rc == 0 else [f"exit code {rc}"]
    try:
        payload = json.loads(text)
    except ValueError:
        return out + ["output is not JSON"]
    try:
        if job.kind == "witness":
            out += check_witness(payload, witness)
        elif job.kind == "step":
            out += check_step(payload)
        else:
            out += check_components(payload, space, job.epsilon)
    except (KeyError, TypeError, ValueError) as exc:
        out.append(f"malformed output: {exc!r}")
    return out


def validity_ratio(job, text: str) -> Optional[float]:
    """Achieved validity radius over the requested one, for witness jobs."""
    if job.kind != "witness":
        return None
    v = json.loads(text)["witness"]["validity_radius"]
    v = job.requested if v == "inf" else min(float(v), job.requested)
    return v / job.requested
