"""CLI behavior: exit codes, payload shapes, output routing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coarseiso
from coarseiso.cli import main


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


def test_witness_chain_leaves_scipy_unloaded():
    # scipy is imported only where plane fixtures or non-structural spaces
    # need it, so free-rank witness chains never pay for loading it
    code = (
        "import contextlib, io, sys\n"
        "from coarseiso.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['witness', 'Z + C2', 'Z', '--radius', '16']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(coarseiso.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
