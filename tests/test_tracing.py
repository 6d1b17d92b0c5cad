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


def test_every_lp_reaches_the_traced_solve_lp(tracing):
    # the benchmark's LP metrics come from spans of the module-level solve_lp
    # and from LpResult.pivots; an LP that bypasses either reads as zero
    for mod, _ in tracing.TARGETS:
        importlib.import_module(mod)
    simplexlp = importlib.import_module("robustmse.simplexlp")
    estimator = importlib.import_module("robustmse.estimator")
    randgen = importlib.import_module("robustmse.randgen")
    ms, xi, c = randgen.random_instance(randgen.rng_from_seed(77), 6, 3, 5)
    eta_hat = estimator.solve_mmse(ms, xi, c).eta_hat
    tracer = tracing.Tracer()
    tracer.install()
    try:
        simplexlp.hull_membership([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.25, 0.25])
        estimator.kernel_member(ms, xi, c, eta_hat)  # no witness: the hull LP decides
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("simplexlp.solve_lp") == 2
    assert tracer.counts["simplexlp.solve_lp.pivots"] > 0
