"""The mutant table of ``tools/mutants.py`` stays applicable to the source."""

import importlib.util
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def mutant_table():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "tools", "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_old_text_occurs_once_and_every_named_test_exists():
    mutants = mutant_table()
    assert len({m.name for m in mutants}) == len(mutants)
    for mutant in mutants:
        with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
            assert fh.read().count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new and mutant.tests, mutant.name
        for test in mutant.tests:
            path, *_, function = re.sub(r"\[.*\]$", "", test).split("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                assert f"def {function}(" in fh.read(), test
