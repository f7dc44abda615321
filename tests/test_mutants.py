import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_to_todays_source(mutant):
    assert (ROOT / "src" / mutant.file).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    for test in mutant.tests:  # each test it names exists
        path, _, name = test.partition("::")
        assert f"\ndef {name.partition('[')[0]}(" in (ROOT / path).read_text()


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
