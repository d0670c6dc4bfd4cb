"""Shared fixtures.  The 5x5 demo scenario and its graph are the acceptance
workload and take a few seconds to build, so they are session-scoped."""

import numpy as np
import pytest

from relusafe import graph as graph_mod
from relusafe import scenario as scenario_mod
from relusafe import verifier

DEMO_DQ = 0.01
DEMO_OBSTACLE = ((6.5, 2.5), (7.5, 3.5))
DEMO_HORIZON = 9


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdicts after the run, past output capture."""
    import sys

    lines = []
    for name in ("test_acceptance", "tests.test_acceptance"):
        module = sys.modules.get(name)
        for line in getattr(module, "ACCEPTANCE_LINES", []):
            if line not in lines:
                lines.append(line)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def demo_scenario():
    return scenario_mod.make_demo_scenario(5, [8, 8], seed=0,
                                           obstacles=[DEMO_OBSTACLE])


@pytest.fixture(scope="session")
def demo_graph(demo_scenario):
    return graph_mod.build_graph(demo_scenario, dq=DEMO_DQ, jobs=2)


@pytest.fixture(scope="session")
def loaded_demo_graph(demo_graph, demo_scenario):
    """The demo graph after a save/load round trip."""
    return graph_mod.load_graph(graph_mod.save_graph(demo_graph), demo_scenario)


@pytest.fixture(scope="session")
def demo_bounds(demo_graph, demo_scenario):
    return {mode: verifier.verify(demo_graph, demo_scenario,
                                  horizon=DEMO_HORIZON, p=0.01, mode=mode)
            for mode in verifier.MODES}


@pytest.fixture(scope="session")
def small_scenario():
    return scenario_mod.make_demo_scenario(3, [6, 4], seed=2,
                                           obstacles=[((5.9, 1.9), (7.8, 3.4))])


@pytest.fixture(scope="session")
def small_graph(small_scenario):
    return graph_mod.build_graph(small_scenario, dq=0.05)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
