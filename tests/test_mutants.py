"""The mutant list of ``mutants.py`` cannot go stale silently: each fragment
occurs exactly once in its file and each named test file exists.  Only files
are read; running the mutants is ``python tests/mutants.py``."""

import pytest

from mutants import MUTANTS, ROOT, SRC


def test_mutant_names_are_distinct():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_fragment_occurs_once_and_names_existing_tests(mutant):
    text = (SRC / mutant.file).read_text()
    assert text.count(mutant.fragment) == 1
    assert mutant.replacement != mutant.fragment
    assert mutant.tests
    for node in mutant.tests:
        path = ROOT / node.split("::")[0]
        assert path.is_file(), node
        if "::" in node:
            function = node.split("::")[1].split("[")[0]
            assert f"def {function}(" in path.read_text(), node
