"""`scripts/mutants.py`: every mutant in its list still names text that occurs
exactly once and test files that exist; no mutant runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def test_each_mutant_names_text_found_once_and_existing_tests():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.name
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.tests, m.name
        for test in m.tests:
            assert (ROOT / test).is_file(), (m.name, test)
