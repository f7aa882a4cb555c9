"""The benchmark's tracer wraps docrel functions by name; every name it
lists must still exist, or a traced benchmark run fails at start-up."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.TARGETS]


@pytest.mark.parametrize("module_name, attr", tracer_targets())
def test_target_resolves(module_name, attr):
    owner = importlib.import_module(f"docrel.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
