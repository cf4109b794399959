import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from domblocker import cycle_graph, domination, path_graph


@pytest.fixture
def gamma_calls(monkeypatch):
    """The graphs handed to domination.domination_number, in call order."""
    calls = []
    solve = domination.domination_number

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(domination, "domination_number", counted)
    return calls


@pytest.fixture
def search_nodes(monkeypatch):
    """The nodes each search takes, in call order: every ``forced`` solve
    (γ and the ct clause's sets) and every enumeration."""
    counts = []

    def counted(run):
        def search(self, *args):
            table = self.tick.__self__
            before = table.nodes
            try:
                return run(self, *args)
            finally:
                counts.append(table.nodes - before)

        return search

    monkeypatch.setattr(domination._Optimizer, "forced", counted(domination._Optimizer.forced))
    monkeypatch.setattr(domination._Enumerator, "visit_all", counted(domination._Enumerator.visit_all))
    return counts


@pytest.fixture(scope="session")
def small_connected_corpus():
    """All connected graphs on up to 6 vertices, one per isomorphism class."""
    from domblocker.smallgraphs import connected_graphs_upto

    return connected_graphs_upto(6)


@pytest.fixture
def c4():
    return cycle_graph(4)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def c9():
    return cycle_graph(9)


@pytest.fixture
def p4():
    return path_graph(4)
