import numpy as np
import pytest

import robustmse.instances
import robustmse.sublinear as sublinear
from robustmse import Measure, MeasureSet, PartitionAlgebra, RandomVariable, SampleSpace


@pytest.fixture
def two_point():
    """The two-point instance used throughout: generators (1/4,3/4), (3/4,1/4),
    values (2, 8), trivial conditioning."""
    space = SampleSpace(("w1", "w2"))
    ms = MeasureSet([Measure(space, [0.25, 0.75]), Measure(space, [0.75, 0.25])])
    xi = RandomVariable(space, [2.0, 8.0])
    triv = PartitionAlgebra.trivial(space)
    return space, ms, xi, triv


@pytest.fixture
def break_rho(monkeypatch):
    """break_rho(target, excess): from then on, rho as axiom_suite calls it
    adds excess to its value at every variable equal to target."""
    true_rho = sublinear.rho

    def install(target, excess):
        def rho(ms, x):
            out = true_rho(ms, x)
            if np.array_equal(x.values, target.values):
                out += excess
            return out

        monkeypatch.setattr(sublinear, "rho", rho)

    return install


@pytest.fixture
def fresh_tables():
    """The tables that main() keeps from one request to the next, empty when
    the test starts and again when it ends: the last instance file read, with
    its digest and estimate (instances._loaded), and the last tree built
    (instances._tree). A test that patches the solver or its constants then
    reads no estimate solved before it and leaves none to the tests after it."""

    def clear():
        robustmse.instances._loaded.clear()
        robustmse.instances._tree.cache_clear()

    clear()
    yield
    clear()
