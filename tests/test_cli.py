"""CLI behavior: exit codes, payload shapes, output routing."""

from __future__ import annotations

import ast
import gc
import hashlib
import inspect
import json
import json.encoder
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coarseiso
from coarseiso import analysis, cli, spaces
from coarseiso.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import prim_heights  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestInvariants:
    def test_mixed_group(self, capsys):
        code, payload = run_json(capsys, "invariants", "Z^2 + C12")
        assert code == 0
        assert payload["free_rank"] == "2"
        assert payload["phi"] == "2:2,3:1"
        assert payload["finitely_generated"] is True

    def test_infinite_rank(self, capsys):
        code, payload = run_json(capsys, "invariants", "Z^inf")
        assert code == 0
        assert payload["free_rank"] == "inf"
        assert payload["finitely_generated"] is False

    def test_parse_error_exits_two(self, capsys):
        code, out, err = run(capsys, "invariants", "Q8")
        assert code == 2
        assert "error" in err

    def test_table_format(self, capsys):
        code, out, err = run(capsys, "invariants", "C2^inf", "--format", "table")
        assert code == 0
        lines = dict(l.split(": ", 1) for l in out.strip().splitlines())
        assert json.loads(lines["phi"]) == "2:inf"


class TestClassify:
    def test_true_verdict_exits_zero(self, capsys):
        code, payload = run_json(
            capsys, "classify", "iso", "Z + C2^inf", "Z + C2^inf + C3"
        )
        assert code == 0
        assert payload["result"] is True
        assert payload["case"].startswith("case-3")
        assert payload["multipliers"] == {"n": 1, "m": 3}

    def test_false_verdict_exits_one(self, capsys):
        code, payload = run_json(capsys, "classify", "equiv", "Z", "Z + C2^inf")
        assert code == 1
        assert payload["result"] is False

    def test_identity_iso(self, capsys):
        code, payload = run_json(capsys, "classify", "iso", "C4", "C4")
        assert code == 0
        assert payload["result"] is True

    def test_symmetric(self, capsys):
        _, a = run_json(capsys, "classify", "iso", "C2^inf", "C2^inf + C3")
        _, b = run_json(capsys, "classify", "iso", "C2^inf + C3", "C2^inf")
        assert a["result"] == b["result"]

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "classify", "iso", "Z", "wat")
        assert code == 2


class TestWitness:
    def test_verified_chain(self, capsys):
        code, payload = run_json(capsys, "witness", "Z + C2", "Z", "--radius", "60")
        assert code == 0
        assert payload["verdict"]["result"] is True
        assert payload["verification"]["ok"] is True
        assert payload["verification"]["violations"] == []
        assert payload["witness"]["pairs"]

    def test_non_isomorphic_exits_two(self, capsys):
        code, out, err = run(capsys, "witness", "Z", "Z^2")
        assert code == 2
        assert "not coarsely isomorphic" in err

    def test_infinite_rank_exits_two(self, capsys):
        code, out, err = run(capsys, "witness", "Z^inf", "Z^inf")
        assert code == 2


class TestSpaceReports:
    def test_components(self, capsys):
        code, payload = run_json(
            capsys, "components", "C2^inf", "--radius", "8", "--epsilon", "2"
        )
        assert code == 0
        assert payload["points"] == 8
        assert payload["blocks"] == 4
        assert payload["sizes"] == [2, 2, 2, 2]

    def test_step_on_fixture(self, capsys):
        code, payload = run_json(capsys, "step", "example31:8:0.01:50")
        assert code == 0
        assert payload["estimate"] == pytest.approx(3.243185308, abs=1e-6)
        assert "empirical_phi" not in payload  # plane sample is not ultrametric

    def test_step_reports_phi_on_ultrametric(self, capsys):
        code, payload = run_json(capsys, "step", "C2^inf", "--radius", "16")
        assert code == 0
        assert payload["empirical_phi"] == "2:4"

    def test_foelner_box(self, capsys):
        code, payload = run_json(
            capsys, "foelner", "Z", "--radius", "100", "--c", "1.1",
            "--epsilon", "1",
        )
        assert code == 0
        assert (payload["k"], payload["size"]) == (10, 21)
        assert payload["satisfied"] is True

    def test_foelner_needs_room(self, capsys):
        code, out, err = run(
            capsys, "foelner", "Z^2", "--radius", "30", "--c", "1.1",
            "--epsilon", "2",
        )
        assert code == 2
        assert "enlarge --radius" in err

    def test_cover(self, capsys):
        code, payload = run_json(
            capsys, "cover", "Z^2", "--epsilon", "5", "--radius", "40"
        )
        assert code == 0
        assert payload["multiplicity"] == 3
        assert payload["bound"] == 3
        assert payload["mesh"] == 29.0

    def test_cover_rank_guard(self, capsys):
        code, out, err = run(capsys, "cover", "Z^4")
        assert code == 2
        assert "free rank 0..3" in err

    def test_budget_guard(self, capsys):
        code, out, err = run(
            capsys, "components", "Z^2", "--radius", "2000",
            "--point-budget", "10000",
        )
        assert code == 2
        assert "budget" in err


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "verdict.json"
        code, payload = run_json(
            capsys, "classify", "iso", "C4", "C4", "--out", str(path)
        )
        assert code == 0
        assert json.loads(path.read_text()) == payload

    def test_deltas_flag_reaches_verification(self, capsys):
        code, payload = run_json(
            capsys, "witness", "Z + C2", "Z", "--radius", "60",
            "--deltas", "1,2,5",
        )
        assert code == 0
        measured = payload["verification"]["measured"]["forward"]
        assert set(measured) >= {"1.0", "2.0", "5.0"}

    @pytest.mark.parametrize("deltas", ["1,2,5", "inf", "3"])
    def test_deltas_verify_every_recorded_scale(self, capsys, deltas):
        # the given scales add to the recorded ones, never narrow them
        code, payload = run_json(
            capsys, "witness", "Z + C2", "Z", "--radius", "60", "--deltas", deltas,
        )
        assert code == 0
        moduli = payload["witness"]["moduli"]
        assert payload["verification"] == {"ok": True, "violations": [], "measured": moduli}
        assert set(moduli["forward"]) >= {"1.0", "2.0", "4.0", "8.0"}


# Full `witness` payloads captured before the distance kernels were blocked:
# (argv, sha256 of the payload dumped with sorted keys, validity radius,
# table size, recorded moduli). The verification block re-measures exactly
# the recorded moduli and reports no violation. The digests (and those of
# the pinned stdouts below) were taken again when space ids became a hash of
# the rows' bytes: the payloads were checked to differ from the earlier
# captures only inside the two space ids, whose kind-n- prefixes held.
GOLDEN_WITNESSES = [
    (
        ("witness", "Z + C4", "Z + C2", "--radius", "8"),
        "5bd95659bb503ee44a310bc77563d3b91058d89b9f51c869a63d2451a35d106b",
        3.0,
        28,
        {"forward": {"1.0": 2.0, "2.0": 5.0}, "backward": {"1.0": 2.0, "2.0": 3.0}},
    ),
    (
        ("witness", "Z^2 + C2", "Z^2", "--radius", "8"),
        "d53e1f89fa422088de52ae6bd497f41fcd47c9d63a4c7716b5323d2c9e6b33c3",
        3.0,
        98,
        {"forward": {"1.0": 2.0, "2.0": 5.0}, "backward": {"1.0": 2.0, "2.0": 2.0}},
    ),
    # captured before both directions were measured in one pass
    (
        ("witness", "Z + C12", "Z + C3", "--radius", "70"),
        "d9280c9ee37dcec99644b4a4d1a83f4381e83360dd2db9f477f9a7ba0ade0a00",
        16.0,
        396,
        {"forward": {"1.0": 4.0, "2.0": 11.0, "4.0": 19.0, "8.0": 35.0},
         "backward": {"1.0": 4.0, "2.0": 4.0, "4.0": 4.0, "8.0": 4.0}},
    ),
    (
        ("witness", "Z + C2^inf", "Z + C2^inf + C3"),
        "5943facc116374f95b39401ded88c0eea6d1a931a51c207250dc37afc12dae80",
        3.0,
        28,
        {"forward": {"1.0": 5.0, "2.0": 5.0}, "backward": {"1.0": 3.0, "2.0": 6.0}},
    ),
    (
        ("witness", "C4^inf", "C2^inf", "--depth", "6"),
        "a94c7e153f58b0e9f9c871c18890e38d9b58bbb28e1dd2e18e2e9a57d3ca6c01",
        7.0,
        64,
        {"forward": {"1.0": 0.0, "2.0": 2.0, "4.0": 4.0},
         "backward": {"1.0": 0.0, "2.0": 2.0, "4.0": 4.0}},
    ),
]


@pytest.mark.parametrize("argv,digest,validity,size,moduli", GOLDEN_WITNESSES,
                         ids=["rank-1", "rank-2", "rank-1-radius-70", "torsion-tower",
                              "rank-0-depth-6"])
def test_witness_output_is_pinned(capsys, argv, digest, validity, size, moduli):
    code, payload = run_json(capsys, *argv)
    assert code == 0
    w = payload["witness"]
    assert (w["validity_radius"], len(w["pairs"]), w["moduli"]) == (validity, size, moduli)
    assert payload["verification"] == {"ok": True, "violations": [], "measured": moduli}
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Plane-fixture payloads captured before the Delaunay edges were read from
# Qhull's neighbour lists: (argv, sha256 of the payload dumped with sorted
# keys, points, estimate or block count).
GOLDEN_PLANE = [
    (("step", "example31:20:0.01"),
     "79dbe7c8d4fa818f90af4411d73a44d6c8469a9d3bd9ff53070537ac507a46be", 6573, 3.241451542),
    (("step", "example31:24:0.0125"),
     "c6e9f7ebc8f3927b0dff3b94f7e7f365fe9e438c9f7b1c0988c8ccd12bed8f30", 6275, 3.233185308),
    (("components", "example31:40:0.0125", "--epsilon", "3"),
     "9fd6e812a63ed395885b4610c6c367c1c908c646453a4cfc75e9950028c8a5b5", 10291, 451),
    # captured before components were read from a cell grid
    (("components", "example31:80:0.01", "--epsilon", "0.5"),
     "ec36be285a41b0bfee7d641c4071b8e6f9ebbd580d8134fa20c4b10abc586c3b", 25353, 2187),
    # captured before step scales were read from single-linkage chains
    (("step", "example31:30:0.01"),
     "91c133b6034ae16943fbdf899a4b110e7c3579791cba23d9790a50a501c82635", 9703, 3.241451542),
]


@pytest.mark.parametrize("argv,digest,points,value", GOLDEN_PLANE,
                         ids=["step-0.01", "step-0.0125", "components-0.0125", "components-0.01",
                              "step-30-0.01"])
def test_plane_output_is_pinned(capsys, argv, digest, points, value):
    code, payload = run_json(capsys, *argv)
    assert code == 0
    key = "estimate" if argv[0] == "step" else "blocks"
    assert (payload["points"], payload[key]) == (points, value)
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [argv for argv, *_ in GOLDEN_PLANE if argv[0] == "step"],
                         ids=["step-0.01", "step-0.0125", "step-30-0.01"])
def test_plane_window_chains_keep_their_single_linkage_heights(monkeypatch, argv):
    # every chain a pinned step reads, the windows' on the whole space's
    # grid included, has Prim's heights on all pairs of its points
    chains, chain = [], spaces.PlaneRule.chain

    def recording(self, space, subset):
        got = chain(self, space, subset)
        chains.append((space.coords[subset], got[1]))
        return got

    monkeypatch.setattr(spaces.PlaneRule, "chain", recording)
    branches, step = argv[1].split(":")[1:]
    analysis.estimate_factorizing_step(spaces.example31_fixture(int(branches), float(step), 1000))
    assert len(chains) > 1
    for pts, gap in chains:
        assert gap[0] == math.inf
        assert sorted(gap[1:].tolist()) == prim_heights(pts)


def test_plane_fixture_on_one_line(capsys):
    # clamp 0.5 at grid 0.5 keeps only x = 0 on each branch: three points
    # on the x-axis, which Qhull could not triangulate
    code, payload = run_json(capsys, "components", "example31:2:0.5:0.5", "--epsilon", "1")
    assert code == 0
    assert (payload["points"], payload["blocks"], payload["sizes"]) == (3, 3, [1, 1, 1])
    code, payload = run_json(capsys, "components", "example31:2:0.5:0.5", "--epsilon", "7")
    assert (code, payload["blocks"]) == (0, 1)
    code, payload = run_json(capsys, "step", "example31:2:0.5:0.5")
    assert code == 0 and payload["inconclusive"]


def test_plane_components_job_builds_no_block_tuple(capsys, monkeypatch):
    # the sizes come from point_block and the count from the
    # representatives, so the job builds no block tuples. Net GC-tracked
    # containers are counted with collection held off: the block tuples
    # alone made 530 on this job
    argv = ["components", "example31:20:0.01", "--epsilon", "1"]
    parts = []
    read = cli.epsilon_components
    monkeypatch.setattr(cli, "epsilon_components",
                        lambda space, eps: parts.append(read(space, eps)) or parts[-1])
    assert main(argv) == 0  # imports and first-call set-up
    capsys.readouterr()
    gc.collect()
    threshold = gc.get_threshold()
    gc.set_threshold(10**9)
    try:
        before = gc.get_count()[0]
        assert main(argv) == 0
        net = gc.get_count()[0] - before
    finally:
        gc.set_threshold(*threshold)
    assert json.loads(capsys.readouterr().out)["blocks"] == parts[-1].count
    assert net < 200


README = Path(__file__).resolve().parents[1] / "README.md"
README_CALLS = [shlex.split(line[len("$ coarseiso "):])
                for line in README.read_text().splitlines() if line.startswith("$ coarseiso ")]


def test_readme_lists_its_cli_examples():
    assert len(README_CALLS) >= 8
    assert ["components", "example31:20:0.01", "--epsilon", "1"] in README_CALLS


@pytest.mark.parametrize("argv", README_CALLS, ids=[" ".join(a[:2]) for a in README_CALLS])
def test_readme_example_runs(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 0 and isinstance(payload, dict)


# one call of each command, beside the pinned and README calls above
EVERY_COMMAND = [
    ("invariants", "Z^2 + C12"),
    ("classify", "iso", "Z + C2", "Z"),
    ("classify", "equiv", "Z^2", "Z"),
    ("witness", "Z + C2", "Z", "--radius", "16"),
    ("components", "Z + C2", "--radius", "3", "--epsilon", "inf"),
    ("step", "C2^inf", "--radius", "16"),
    ("foelner", "Z", "--radius", "100", "--c", "1.1", "--epsilon", "1"),
    ("cover", "Z^2", "--epsilon", "5", "--radius", "40"),
]
PRINTED = ([tuple(argv) for argv, *_ in GOLDEN_WITNESSES + GOLDEN_PLANE]
           + [tuple(argv) for argv in README_CALLS] + EVERY_COMMAND)


@pytest.mark.parametrize("argv", dict.fromkeys(PRINTED), ids=" ".join)
def test_printed_text_is_the_indented_dump_of_the_payload(capsys, monkeypatch, tmp_path, argv):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload, args: payloads.append(payload) or emit(payload, args))
    path = tmp_path / "payload.json"
    code = main([*argv, "--out", str(path)])
    captured = capsys.readouterr()
    text = json.dumps(payloads[0], indent=2, default=str) + "\n"
    assert (code in (0, 1), captured.err) == (True, "")
    assert captured.out == text
    assert path.read_text() == text


def test_the_largest_witness_prints_its_pinned_bytes(capsys):
    # sha256 of the whole stdout (9,604 pairs, two 40k-point space ids),
    # captured while json.dumps(indent=2) wrote it
    code, out, err = run(capsys, "witness", "Z^2 + C4", "Z^2", "--radius", "100")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8194d612b9567fb6178f98615ef86a6dbed67d9ef2055b4e82f70526d530271d"


# one round of the free-chain benchmark workload (seed 5, round 0), written
# out here so that this test does not depend on the benchmark's job lists
FREE_CHAIN_ROUND = [
    ("witness", "Z + C2", "Z", "--radius", "193"),
    ("witness", "Z + C2^inf + C3", "Z + C2^inf", "--radius", "19"),
    ("witness", "Z^2 + C2", "Z^2 + C4", "--radius", "6"),
    ("witness", "Z + C3", "Z + C12", "--radius", "82"),
    ("witness", "Z + C2^inf", "Z + C2^inf + C3", "--radius", "13"),
    ("witness", "Z^2", "Z^2 + C4", "--radius", "13"),
    ("witness", "Z^2 + C4", "Z^2 + C2", "--radius", "11"),
    ("witness", "Z", "Z + C2", "--radius", "97"),
    ("witness", "Z^2 + C4", "Z^2", "--radius", "16"),
    ("witness", "Z + C12", "Z + C3", "--radius", "67"),
]


def test_a_free_chain_round_prints_its_pinned_bytes(capsys):
    # sha256 of the ten stdouts joined, captured while the chain still
    # measured a witness for every identity and relabel step (the space ids
    # taken again since, as above GOLDEN_WITNESSES says)
    outs = []
    for argv in FREE_CHAIN_ROUND:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == \
        "5f87f034925fc34fd57ea1d868e90eef3075a757e321049c00d7109d62e42938"


def longest_list(value):
    """The most entries of any list or tuple inside a payload."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, (list, tuple)):
        return 0
    return max([len(value), *map(longest_list, value)])


def test_a_witness_job_hands_json_no_table_and_builds_no_label_list(capsys, monkeypatch):
    # both fast paths of the output layer, guarded by counts: json's
    # pure-Python encoder, which indent selects, is handed no witness table
    # (the 396 pairs go through _int_rows), and the space ids are read from
    # the coordinate arrays
    calls, handed = [], []

    def counted(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    def encoder(*a, make=json.encoder._make_iterencode, **k):
        encode = make(*a, **k)
        return lambda value, level: handed.append(longest_list(value)) or encode(value, level)

    monkeypatch.setattr(json.encoder, "_make_iterencode", encoder)
    for rule in (spaces.MetricRule, spaces.SupRule):
        monkeypatch.setattr(rule, "label_lists", counted("labels", rule.label_lists))
    code, payload = run_json(capsys, "witness", "Z + C12", "Z + C3", "--radius", "70")
    assert code == 0 and len(payload["witness"]["pairs"]) == 396
    assert calls == [] and len(handed) == 1 and handed[0] <= 32
    json.dumps({"a": [1, 2, 3]}, indent=2)
    spaces.zball(1).label_lists()
    assert calls == ["labels"] and handed[1:] == [3]  # the counters count


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(),
    st.sampled_from([-0.0, 1e16, 1e-7, 5e-324, math.inf, -math.inf, math.nan]),
    st.text(st.characters(codec="utf-8"), max_size=6),  # non-ASCII and control characters
    # not json types, so written through default=str; a float64 is a float
    st.sampled_from([np.int64(-3), np.float64(2.5), np.float32(0.1), np.bool_(True)]),
)
INT_ROWS = st.integers(0, 3).flatmap(lambda k: st.lists(
    st.one_of(st.lists(st.integers(-(2**70), 2**70), min_size=k, max_size=k),
              st.tuples(*[st.integers(-5, 5)] * k)), max_size=12))
MIXED_ROWS = st.lists(st.lists(st.one_of(st.integers(-5, 5), SCALARS), min_size=2, max_size=2),
                      min_size=1, max_size=4)
RAGGED_ROWS = st.lists(st.lists(st.integers(-5, 5), max_size=3), min_size=2, max_size=6)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, INT_ROWS, MIXED_ROWS, RAGGED_ROWS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-9, 9), st.floats(),
                                  st.booleans(), st.none()), inner, max_size=4)),
    max_leaves=24,
)


WITNESS_FIELDS = st.dictionaries(st.text(max_size=4), PAYLOADS, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.one_of(INT_ROWS, MIXED_ROWS, RAGGED_ROWS),
       st.tuples(PAYLOADS, WITNESS_FIELDS, WITNESS_FIELDS, PAYLOADS))
@example([[1, True], [2, 3]], (None, {}, {}, None))  # rows that "%d" would write wrongly
@example([[1, 2.0], [2, 3]], (None, {}, {}, None))
@example([[1, 2], [3]], (None, {}, {}, None))
@example([(0, 5), (1, 4)], ({"k": [[-(2**70)]]}, {}, {}, None))
def test_writer_matches_the_indented_json_dump(pairs, fields):
    # a witness payload: the table spliced in by _int_rows, the rest dumped.
    # Drawn texts hold at most 6 characters, fewer than the splice's placeholder
    verdict, before, after, verification = fields
    payload = {"verdict": verdict, "witness": {**before, "pairs": pairs, **after},
               "verification": verification}
    assert cli._json_text(payload) == json.dumps(payload, indent=2, default=str)


def modules_after(argv, package):
    """Names of the modules of `package` loaded after one CLI call in a
    fresh interpreter."""
    code = (
        "import contextlib, io, sys\n"
        "from coarseiso.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
        f"print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))\n"
    )
    src = str(Path(coarseiso.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_witness_chain_leaves_scipy_unloaded():
    # no module imports scipy, so free-rank witness chains never pay for
    # loading it
    assert modules_after(["witness", "Z + C2", "Z", "--radius", "16"], "scipy") == "[]"


def test_plane_components_leave_scipy_unloaded():
    # plane components come from a cell grid joined by a numpy kernel, and
    # a step's chains from bands over that grid: no Qhull triangulation and
    # no sparse graph
    argv = ["components", "example31:4:0.05", "--epsilon", "1.0"]
    assert modules_after(argv, "scipy") == "[]"
    assert modules_after(["step", "example31:2:0.25"], "scipy") == "[]"


@pytest.mark.parametrize("argv", [
    ("classify", "iso", "Z + C2", "Z"),
    ("invariants", "Z + C12"),
    ("witness", "Z + C2", "Z", "--radius", "16"),
    ("step", "example31:2:0.25"),
], ids=["classify", "invariants", "witness", "step"])
def test_cli_leaves_sympy_unloaded(argv):
    # primes come from the standard library; importing sympy would cost
    # more than the rest of the cold start together
    assert modules_after(argv, "sympy") == "[]"


@pytest.mark.parametrize("argv", [
    ("components", "Z + C2", "--radius", "3", "--epsilon", "nan"),
    ("components", "example31:2:0.1", "--epsilon", "nan"),
], ids=["sup", "plane"])
def test_nan_epsilon_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "epsilon" in err


def strict_json(text):
    """json.loads that refuses the non-JSON constants NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_infinite_epsilon_prints_strict_json(capsys):
    code, out, err = run(capsys, "components", "Z + C2", "--radius", "3", "--epsilon", "inf")
    assert (code, err) == (0, "")
    payload = strict_json(out)
    assert (payload["epsilon"], payload["blocks"]) == ("inf", 1)
    # a Foelner box and a cover both need a finite epsilon
    code, out, err = run(capsys, "foelner", "Z", "--radius", "20", "--epsilon", "inf")
    assert (code, out, err) == (2, "", "error: foelner epsilon must be finite, got inf\n")
    code, out, err = run(capsys, "cover", "Z^2", "--radius", "10", "--epsilon", "inf")
    assert (code, out) == (2, "") and "epsilon" in err


@pytest.mark.parametrize("command", [
    ("foelner", "Z", "--radius", "20", "--c", "1.1"),
    ("cover", "Z^2", "--radius", "10"),
], ids=["foelner", "cover"])
@pytest.mark.parametrize("epsilon", ["nan", "-1"])
def test_foelner_and_cover_reject_a_bad_epsilon(capsys, command, epsilon):
    code, out, err = run(capsys, *command, "--epsilon", epsilon)
    assert (code, out) == (2, "")
    assert err.startswith("error: epsilon must be >= 0")


def test_reused_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch, tmp_path):
    from coarseiso import cli

    argvs = [
        ("witness", "Z + C2", "Z", "--radius", "8", "--deltas", "1,3"),
        ("classify", "iso", "C4", "C2 + C2", "--format", "table"),
        ("invariants", "Z^2 + C12", "--out", "{out}"),
        ("classify", "maybe", "C2", "C2"),
        ("components", "Z + C2", "--radius", "3", "--epsilon", "2.5"),
        ("witness", "Z + C2", "Z", "--radius", "8", "--format", "xml"),
        ("step", "C2^inf", "--radius", "16", "--format", "table"),
        ("cover", "Z^2", "--radius", "6", "--out", "{out}"),
        ("invariants", "Z^2 + C12"),
    ]

    def run_all(tag):
        seen = []
        for k, argv in enumerate(argvs):
            out = tmp_path / f"{tag}-{k}.json"
            argv = [a.format(out=out) for a in argv]
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            written = out.read_text() if out.exists() else None
            seen.append((code, captured.out, captured.err, written))
        return seen

    assert cli._parser() is cli._parser()
    reused = run_all("reused")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_all("fresh")
    assert reused == fresh
    # the runs cover a success, a failed parse and a written --out file each
    assert [s[0] for s in fresh] == [0, 0, 0, ("exit", 2), 0, ("exit", 2), 0, 0, 0]
    assert fresh[2][3] is not None and fresh[2][3] == fresh[8][1]
    assert fresh[1][1].startswith("result: true")


@pytest.mark.parametrize("delta", ["nan", "-1", "2,-0.5"])
def test_witness_rejects_a_bad_delta(capsys, delta):
    code, out, err = run(capsys, "witness", "Z", "Z + C2", "--radius", "8", "--deltas", delta)
    assert (code, out) == (2, "")
    assert err.startswith("error: delta must be >= 0, got ")


@pytest.mark.parametrize("argv,message", [
    (("witness", "Z + C2", "Z", "--radius", "16", "--point-budget", "5"), "budget of 5"),
    (("witness", "Z", "Z", "--radius", "-5"), "radius must be >= 0"),
    (("witness", "C2", "C2", "--depth", "-1"), "depth must be >= 0"),
], ids=["budget", "radius", "depth"])
def test_witness_rejects_out_of_range_sizes(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("bound,digest,validity,size", [
    ((), "7c2f469ad9982d4b719f135f784804d9303479c060887930d0c512f078043fd3", 3.0, 8),
    (("--prime-bound", "101"),
     "e371ea4b77d2d948bcbcb8da8b9160ff0ade0d4d1d7ec4ccb7bc028889a04fc2", "inf", 808),
], ids=["101-dropped", "101-kept"])
def test_torsion_past_the_prime_bound_is_pinned(capsys, bound, digest, validity, size):
    # without the bound C101 is the third summand, at level 4, so the C8
    # tower left by the bound is valid to 3; with C101 kept the tower is
    # the whole group
    code, out, err = run(capsys, "witness", "C8 + C101", "C8 + C101", *bound)
    assert (code, err) == (0, "")
    w = json.loads(out)["witness"]
    assert (w["validity_radius"], len(w["pairs"])) == (validity, size)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,cap", [
    (("Z + C2 + C101", "Z + C101"), "radius 24 (--radius 24), and its remainder tower is "
                                    "faithful to 1"),
    (("Z^2 + C4 + C101", "Z^2 + C101"), "radius 24 (--radius 24), and its remainder tower is "
                                        "faithful to 1"),
    (("Z^2", "Z^2 + C4", "--radius", "8"), "radius 8 (--radius 8), and its remainder tower is "
                                           "faithful to inf"),
], ids=["rank-1-bound", "rank-2-bound", "rank-2-radius"])
def test_a_witness_valid_to_0_exits_2_naming_what_caps_it(capsys, argv, cap):
    # the bound drops C101, so the remainder is faithful to 1, and the
    # line's stages leave nothing of it; keeping C101 gives a witness. A
    # small radius leaves nothing either
    code, out, err = run(capsys, "witness", *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: the witness is valid only to 0: its line ball has {cap} under prime "
                   "bound 97 (--prime-bound)\n")
    if argv[0] == "Z + C2 + C101":
        code, payload = run_json(capsys, "witness", *argv, "--prime-bound", "101")
        assert code == 0 and payload["verification"]["ok"]
        assert payload["witness"]["validity_radius"] == 11.0


def test_cover_refuses_unbounded_checks_before_building(capsys, monkeypatch):
    # the slab of a check of radius 40 on the rank-3 grid of radius 24
    # would hold 10.2 GB; epsilon 1e20 overflows int64 bricks
    def fail(*args):
        raise AssertionError("built")

    monkeypatch.setattr(analysis, "_max_ball_multiplicity", fail)
    code, out, err = run(capsys, "cover", "Z^3", "--radius", "24", "--epsilon", "40")
    assert (code, out) == (2, "")
    assert err == ("error: checking balls of radius 40 on the 49^3 grid reads 1275989841 ids a "
                   "grid row, over the 3e7 of one slab\n")
    code, out, err = run(capsys, "cover", "Z", "--radius", "2", "--epsilon", "1e20")
    assert (code, out) == (2, "")
    assert err == "error: cover epsilon 1e+20 gives a brick side beyond int64\n"


@pytest.mark.parametrize("argv,message", [
    (("components", "Call^inf", "--radius", "8"), "a Call^inf tail has no finite truncation"),
    (("components", "C2 + Call^1"), "a Call^1 tail has no finite truncation"),
    (("step", "Z + Call^2", "--radius", "3"), "a Call^2 tail has no finite truncation"),
    (("foelner", "Call^inf"), "a Call^inf tail has no finite truncation"),
    (("cover", "Z", "--radius", "-1"), "radius must be >= 0"),
    (("cover", "Z^0", "--radius", "-1"), "radius must be >= 0"),
])
def test_spaces_without_a_finite_truncation_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


POSITIONAL = {"group", "relation", "g1", "g2", "space"}
# each command's positional arguments, and the flags it reads besides
# --format and --out
COMMAND_FLAGS = {
    "invariants": (("Z",), set()),
    "classify": (("iso", "Z", "Z"), set()),
    "witness": (("Z", "Z"), {"radius", "depth", "prime_bound", "deltas", "point_budget"}),
    "components": (("Z",), {"radius", "point_budget", "epsilon"}),
    "step": (("Z",), {"radius", "point_budget", "prime_bound"}),
    "foelner": (("Z",), {"radius", "point_budget", "c", "epsilon"}),
    "cover": (("Z",), {"radius", "epsilon"}),
}


def args_read(name, tree):
    """Attributes of `args` that module function `name` reads, with those
    read by the module functions it passes `args` to."""
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    read = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            read.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args):
            read |= args_read(node.func.id, tree)
    return read


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_takes_the_flags_it_reads(command):
    # the parser's flags are the declared ones, and so are the flags the
    # command's function reads
    positional, flags = COMMAND_FLAGS[command]
    args = cli.build_parser().parse_args([command, *positional])
    assert set(vars(args)) - POSITIONAL - {"command", "fn"} == flags | {"format", "out"}
    tree = ast.parse(inspect.getsource(cli))
    assert args_read(args.fn.__name__, tree) - POSITIONAL == flags | {"format", "out"}


@pytest.mark.parametrize("argv", [
    ("invariants", "Z", "--radius", "3"),
    ("classify", "iso", "Z", "Z", "--epsilon", "1"),
    ("witness", "Z + C2", "Z", "--epsilon", "1"),
    ("components", "Z", "--depth", "3"),
    ("step", "C2^inf", "--depth", "3", "--epsilon", "9", "--c", "5"),
    ("foelner", "Z", "--prime-bound", "7"),
    ("cover", "Z^2", "--point-budget", "5"),
], ids=lambda argv: argv[0])
def test_an_unread_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    unread = argv[1 + len(COMMAND_FLAGS[argv[0]][0]):]
    assert "error: unrecognized arguments: " + " ".join(unread) in captured.err


def test_fixture_components_keep_the_point_budget(capsys):
    code, out, err = run(capsys, "components", "example31:2:0.5", "--epsilon", "1",
                         "--point-budget", "1")
    assert (code, out) == (2, "")
    assert "21 points exceed the budget of 1" in err


@pytest.mark.parametrize("argv", [
    ("components", "example31:2:0.5", "--radius", "3", "--epsilon", "1"),
    ("components", "example31:2:0.5", "--radius", "24", "--epsilon", "1"),
    ("step", "example31:2:0.5", "--radius", "3"),
    ("foelner", "example31:2:0.5", "--radius", "3", "--epsilon", "100", "--c", "1.01"),
], ids=["components", "components-default-value", "step", "foelner"])
def test_a_fixture_with_a_radius_exits_2(capsys, argv):
    # the fixture sets its own extent, so a radius given with it would be
    # ignored; one equal to the default is refused too
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: example31 sets its own extent; drop --radius\n"


def test_foelner_on_a_fixture_names_its_extent(capsys):
    # the search ran to the fixture's own extent, which --radius cannot
    # enlarge; a group description keeps the --radius advice
    code, out, err = run(capsys, "foelner", "example31:2:0.5", "--epsilon", "100", "--c", "1.01")
    assert (code, out) == (2, "")
    assert err == ("error: no box with |O_100.0(F)| <= 1.01|F| fits in the fixture's extent, "
                   "radius 19.917651136\n")


def test_foelner_refuses_an_oversize_recount(capsys):
    # 30,361 plane points, above the 30,000 whose neighbourhoods are recounted
    code, out, err = run(capsys, "foelner", "example31:96:0.01")
    assert (code, out) == (2, "")
    assert err == "error: 30361 points exceed the neighbourhood recount's limit of 30000\n"


def test_a_fixture_without_a_radius_and_a_group_with_one_still_run(capsys):
    code, payload = run_json(capsys, "components", "example31:2:0.5", "--epsilon", "1")
    assert (code, payload["points"]) == (0, 21)
    code, payload = run_json(capsys, "components", "Z", "--radius", "3", "--epsilon", "1")
    assert (code, payload["points"]) == (0, 7)
    # without --radius a group is built to the default radius
    code, payload = run_json(capsys, "components", "Z", "--epsilon", "1")
    assert (code, payload["points"]) == (0, 2 * cli.DEFAULT_RADIUS + 1)
