"""The benchmark's trace harness names package functions; a refactor that
removes or renames one breaks `perfbench/run.py --trace 1` at install time."""

import importlib
import pathlib
import types

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # executed from its source, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_target_is_a_function_of_its_module(tracing):
    for mod, attr in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod}.{attr}"


def test_every_return_hook_names_a_target(tracing):
    names = {getattr(importlib.import_module(mod), attr).__name__ for mod, attr in tracing.TARGETS}
    assert set(tracing._ON_RETURN) <= names
