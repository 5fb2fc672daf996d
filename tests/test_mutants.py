"""The mutant list of scripts/mutants.py, cheaply: every listed mutation
still applies exactly once to the file it names and leaves that file
valid Python, and every test module it names exists. Running the mutants
takes minutes, so tier-1 only checks that they would run."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)
LIST = mutants.load()


def test_the_list_names_each_mutant_once():
    ids = [m["id"] for m in LIST]
    assert len(ids) >= 15 and len(ids) == len(set(ids))
    for m in LIST:
        assert set(m) == {"id", "what", "file", "find", "replace", "tests"}


@pytest.mark.parametrize("mutant", LIST, ids=[m["id"] for m in LIST])
def test_each_mutation_applies_exactly_once(mutant):
    text = (ROOT / mutant["file"]).read_text()
    mutated = mutants.apply(text, mutant)
    assert mutated != text
    ast.parse(mutated)
    assert mutant["tests"] and all((ROOT / t).is_file() for t in mutant["tests"])


def test_a_text_that_is_not_there_once_is_refused():
    mutant = {"id": "m", "file": "f.py", "find": "x", "replace": "y"}
    assert mutants.apply("a x b", mutant) == "a y b"
    for text, count in (("a b", 0), ("x x", 2)):
        with pytest.raises(ValueError, match=f"mutant m: its text occurs {count} times in f.py"):
            mutants.apply(text, mutant)
