import pytest
from hypothesis import given, settings, strategies as st

from domblocker import (
    GraphError,
    LabeledGraph,
    VertexLabel,
    complete_graph,
    cycle_graph,
)

from bruteforce import brute_gamma, contract_tracked, set_contraction


def is_cycle(g: LabeledGraph) -> bool:
    return g.n >= 3 and g.is_connected() and all(g.degree(v) == 2 for v in range(g.n))


def random_graph_strategy(max_n=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
        return LabeledGraph.from_edges(n, picks)

    return build()


class TestAddEdge:
    def test_two_vertex_path(self):
        g = LabeledGraph.empty(2).add_edge(0, 1)
        assert g.edges() == [(0, 1)]

    def test_idempotent(self):
        g = LabeledGraph.empty(2).add_edge(0, 1).add_edge(1, 0)
        assert g.edge_count() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            LabeledGraph.empty(2).add_edge(0, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            LabeledGraph.empty(2).add_edge(0, 2)

    def test_pure(self):
        g = LabeledGraph.empty(3)
        g.add_edge(0, 1)
        assert g.edge_count() == 0


class TestContractEdge:
    def test_cycle_shrinks(self, c9):
        h = c9.contract_edge(0, 1)
        assert h.n == 8 and is_cycle(h)

    def test_triangle_collapses_parallel_edges(self):
        h = cycle_graph(3).contract_edge(0, 1)
        assert h.n == 2 and h.edges() == [(0, 1)]

    def test_path_middle(self, p4):
        h = p4.contract_edge(1, 2)
        assert h.n == 3 and h.is_connected() and h.edge_count() == 2
        assert h.max_degree() == 2

    def test_non_edge_rejected(self, p4):
        with pytest.raises(GraphError):
            p4.contract_edge(0, 2)

    def test_merged_vertex_label_plain(self):
        labels = [VertexLabel("clause", clause=0)] * 3
        g = LabeledGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], labels)
        h = g.contract_edge(1, 0)
        assert h.labels[0].kind == "plain"  # the lower endpoint's slot
        assert h.labels[1].kind == "clause"

    @given(random_graph_strategy())
    @settings(max_examples=60, deadline=None)
    def test_vertex_count_drops_by_one(self, g):
        for u, v in g.edges():
            assert g.contract_edge(u, v).n == g.n - 1

    def test_matches_set_contraction(self, small_connected_corpus):
        for g in small_connected_corpus:
            for u, v in g.edges():
                assert g.contract_edge(u, v).adj == set_contraction(g, u, v).adj

    @given(random_graph_strategy(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_forest_contracts_alike_in_every_order(self, g, rng):
        # a spanning forest of g: contracting its edges never meets a loop
        component = list(range(g.n))
        forest = []
        for u, v in rng.sample(g.edges(), g.edge_count()):
            if component[u] != component[v]:
                old = component[v]
                component = [component[u] if c == old else c for c in component]
                forest.append((u, v))
        results = []
        for order in (rng.sample(forest, len(forest)), rng.sample(forest, len(forest))):
            h, where = g, list(range(g.n))
            for a, b in order:
                h, where = contract_tracked(h, where, a, b)
            results.append(h)
        assert results[0] == results[1]
        assert results[0].closed_masks == LabeledGraph.from_edges(
            results[0].n, results[0].edges(), results[0].labels
        ).closed_masks

    @given(random_graph_strategy(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_contraction_never_increases_gamma(self, g):
        if g.n < 2:
            return
        base = brute_gamma(g)
        for u, v in g.edges():
            assert brute_gamma(g.contract_edge(u, v)) <= base


class TestPredicates:
    def test_cycle_nine(self, c9):
        assert c9.is_connected() and c9.max_degree() == 2 and c9.is_subcubic()

    def test_k5(self):
        g = complete_graph(5)
        assert g.max_degree() == 4 and not g.is_subcubic()

    def test_disjoint_edges_not_connected(self):
        g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        assert not g.is_connected()

    def test_empty_graph_connected(self):
        assert LabeledGraph.empty(0).is_connected()
        assert LabeledGraph.empty(1).is_connected()
        assert not LabeledGraph.empty(2).is_connected()


class TestLabels:
    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            VertexLabel("true", var=1, index=4)
        VertexLabel("true", var=1, index=3)

    def test_round_trip(self):
        lbl = VertexLabel("port", source=5, index=2)
        assert VertexLabel.from_dict(lbl.to_dict()) == lbl

    def test_labels_length_checked(self):
        with pytest.raises(GraphError):
            LabeledGraph.empty(3, labels=[VertexLabel()])


class TestRelabel:
    def test_structure_preserved(self, p4):
        h = p4.relabel([3, 2, 1, 0])
        assert sorted(h.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_rejects_non_permutation(self, p4):
        with pytest.raises(GraphError):
            p4.relabel([0, 0, 1, 2])
