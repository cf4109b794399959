import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from domblocker import (
    GraphError,
    LabeledGraph,
    PLAIN,
    VertexLabel,
    complete_graph,
    cycle_graph,
    emit_edge_list_json,
    parse_edge_list_json,
)
from domblocker.graphs import LABEL_KINDS, induced_subgraph
from domblocker.smallgraphs import connected_graphs_upto

from bruteforce import (
    brute_gamma,
    contract_tracked,
    set_adjacency,
    set_connected,
    set_contract,
    set_contraction,
    set_edge_list,
    set_induced,
    set_relabel,
)


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


class TestFromEdges:
    def test_two_vertex_path(self):
        g = LabeledGraph.from_edges(2, [(1, 0)])
        assert g.edges() == [(0, 1)]

    def test_pure(self):
        edges = [(0, 1)]
        labels = [VertexLabel("clause", clause=0)] * 3
        g = LabeledGraph.from_edges(3, edges, labels)
        edges.append((1, 2))
        labels[2] = PLAIN
        assert g.edges() == [(0, 1)] and g.labels[2].kind == "clause"


class TestContractEdge:
    def test_cycle_shrinks(self, c9):
        h = c9.contract_edge(0, 1)
        assert h.n == 8 and is_cycle(h)

    def test_triangle_collapses_parallel_edges(self):
        h = cycle_graph(3).contract_edge(0, 1)
        assert h.n == 2 and h.edges() == [(0, 1)]

    def test_path_middle(self, p4):
        h = p4.contract_edge(1, 2)
        assert h.n == 3 and h.is_connected() and len(h.edges()) == 2
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
        for u, v in rng.sample(g.edges(), len(g.edges())):
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
        assert LabeledGraph.from_edges(0, ()).is_connected()
        assert LabeledGraph.from_edges(1, ()).is_connected()
        assert not LabeledGraph.from_edges(2, ()).is_connected()


class TestLabels:
    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            VertexLabel("true", var=1, index=4)
        VertexLabel("true", var=1, index=3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown label kind 'bogus'"):
            VertexLabel("bogus")

    def test_round_trip(self):
        # every kind with every subset of the optional fields that it allows
        # survives the edge-list JSON codec, which writes exactly the set ones
        values = {"var": 4, "clause": 5, "index": 2, "source": 6}
        labels = [
            VertexLabel(kind, **{f: values[f] for f in chosen})
            for kind, (indexed, _, _) in LABEL_KINDS.items()
            for k in range(len(values) + 1)
            for chosen in itertools.combinations(values, k)
            if "index" in chosen or not indexed
        ]
        assert len(labels) == 7 * 16 + 9 * 8  # 9 kinds need an index
        g = LabeledGraph.from_edges(len(labels), [], labels)
        text = emit_edge_list_json(g)
        for lbl, written in zip(labels, json.loads(text)["labels"]):
            assert written == {"kind": lbl.kind} | {f: v for f, v in values.items() if getattr(lbl, f) is not None}
        assert parse_edge_list_json(text).labels == g.labels

    def test_labels_length_checked(self):
        with pytest.raises(GraphError):
            LabeledGraph.from_edges(3, (), labels=[VertexLabel()])


class TestRelabel:
    def test_structure_preserved(self, p4):
        # the reference relabelling that the γ invariance test builds graphs with
        h = LabeledGraph.from_edges(4, set_edge_list(set_relabel(p4.adj, [3, 2, 1, 0])))
        assert h.edges() == [(0, 1), (1, 2), (2, 3)]


def assert_agrees(g: LabeledGraph, adj, labels):
    """g answers every query as the neighbour sets adj and the labels say."""
    n = len(adj)
    assert g.n == n and g.labels == tuple(labels)
    assert g.adj == adj
    assert [g.degree(v) for v in range(n)] == [len(s) for s in adj]
    assert g.max_degree() == max((len(s) for s in adj), default=0)
    assert g.min_degree() == min((len(s) for s in adj), default=0)
    # u = v included: a mask holds its own bit, but no vertex is its own neighbour
    assert [[g.has_edge(u, v) for v in range(n)] for u in range(n)] == [
        [v in adj[u] for v in range(n)] for u in range(n)
    ]
    assert g.edges() == set_edge_list(adj)
    assert g.is_connected() == set_connected(adj)


class TestMaskRepresentation:
    """The closed masks are the representation: every constructor and
    operation agrees with the set-based references of ``bruteforce``."""

    def check(self, n, edges, rng):
        labels = [VertexLabel("clause", clause=v) for v in range(n)]
        adj = set_adjacency(n, edges)
        g = LabeledGraph.from_edges(n, edges, labels)
        assert_agrees(g, adj, labels)
        for u, v in set_edge_list(adj):
            merged = labels[:u] + [PLAIN] + labels[u + 1 : v] + labels[v + 1 :]
            assert_agrees(g.contract_edge(v, u), set_contract(adj, u, v), merged)
        keep = [v for v in range(n) if rng.random() < 0.6]
        assert_agrees(
            induced_subgraph(g, reversed(keep)), set_induced(adj, keep), [labels[v] for v in keep]
        )

    def test_empty(self):
        for n in range(5):
            assert_agrees(LabeledGraph.from_edges(n, ()), set_adjacency(n, ()), [PLAIN] * n)

    def test_every_connected_graph_to_seven(self):
        rng = random.Random(5)
        for g in connected_graphs_upto(7):
            self.check(g.n, g.edges(), rng)

    def test_random_graphs(self):
        # edges in any order, either orientation, repeated
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(0, 10)
            pairs = [rng.sample(range(n), 2) for _ in range(rng.randrange(3 * n + 1))] if n > 1 else []
            self.check(n, pairs + pairs[: len(pairs) // 3], rng)
