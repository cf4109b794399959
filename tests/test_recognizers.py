import functools
import random

import networkx as nx
import pytest

from domblocker import (
    BudgetExceeded,
    GammaTable,
    GraphError,
    LabeledGraph,
    complete_graph,
    cycle_graph,
    find_claw,
    find_induced_path,
    path_graph,
    star_graph,
)

from bruteforce import brute_has_claw, brute_has_induced_path, induced_is_path


@functools.cache
def all_graphs(n):
    """Every graph on n <= 7 vertices, connected or not, one per isomorphism
    class: the networkx graph atlas."""
    return [
        LabeledGraph.from_edges(n, h.edges()) for h in nx.graph_atlas_g() if h.number_of_nodes() == n
    ]


class TestClawFree:
    def test_star_is_the_claw(self):
        g = star_graph(3)
        assert set(find_claw(g)) == {0, 1, 2, 3}

    def test_max_degree_two_always_claw_free(self):
        for g in (cycle_graph(5), path_graph(6), cycle_graph(3)):
            assert find_claw(g) is None

    def test_complete_graphs(self):
        assert find_claw(complete_graph(5)) is None

    def test_agrees_with_brute_force_up_to_six(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                assert (find_claw(g) is not None) == brute_has_claw(g)

    def test_agrees_with_brute_force_on_random_seven(self):
        rng = random.Random(7)
        for _ in range(150):
            edges = [
                (i, j)
                for i in range(7)
                for j in range(i + 1, 7)
                if rng.random() < 0.4
            ]
            g = LabeledGraph.from_edges(7, edges)
            assert (find_claw(g) is not None) == brute_has_claw(g)


class TestInducedPath:
    def test_p7_contains_itself(self):
        path = find_induced_path(path_graph(7), 7)
        assert path is not None and induced_is_path(path_graph(7), path)

    def test_c6_has_no_seven_vertices(self):
        assert find_induced_path(cycle_graph(6), 7) is None

    def test_cycle_contains_shorter_paths(self):
        path = find_induced_path(cycle_graph(6), 5)
        assert path is not None and len(path) == 5

    def test_found_witness_is_induced_path(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(4, 8)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            g = LabeledGraph.from_edges(n, edges)
            for k in range(2, n + 1):
                path = find_induced_path(g, k)
                if path is not None:
                    assert induced_is_path(g, path)

    def test_agrees_with_brute_force_up_to_six(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                for k in range(1, 8):
                    assert (find_induced_path(g, k) is not None) == brute_has_induced_path(g, k)

    def test_agrees_with_brute_force_on_random_seven(self):
        rng = random.Random(17)
        for _ in range(60):
            edges = [
                (i, j)
                for i in range(7)
                for j in range(i + 1, 7)
                if rng.random() < 0.35
            ]
            g = LabeledGraph.from_edges(7, edges)
            for k in (4, 5, 6, 7):
                assert (find_induced_path(g, k) is not None) == brute_has_induced_path(g, k)

    def test_budget_exhaustion_is_reported_not_wrong(self):
        g = complete_graph(9)  # many length-2 extensions, no long induced paths
        with pytest.raises(BudgetExceeded):
            find_induced_path(g, 4, tick=GammaTable(5).tick)

    def test_bad_arguments(self):
        with pytest.raises(GraphError):
            find_induced_path(path_graph(3), 0)

    def test_single_vertex_path(self):
        assert find_induced_path(LabeledGraph.from_edges(0, ()), 1) is None
        assert find_induced_path(LabeledGraph.from_edges(1, ()), 1) == (0,)
