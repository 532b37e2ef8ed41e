"""The mutation runner's table stays current with the source it mutates.

The mutants themselves run in the scheduled CI job (`python tools/mutants.py`);
these checks run none of them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)  # for its dataclass
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_and_tests_exist(mutant):
    assert not mutants.is_stale(mutant)
    assert mutant.tests
    for test in mutant.tests:
        path, *_, name = test.split("::")  # a test id may name its class
        assert f"def {name}(" in (ROOT / path).read_text(), test


def test_unmatched_old_text_is_stale_not_killed():
    gone = mutants.Mutant("gone", "measures.py", "text that no source holds", "", ("x::y",))
    assert mutants.run(gone) == "stale"
