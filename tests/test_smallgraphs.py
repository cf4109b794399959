import functools
import random

import networkx as nx
import pytest

from bruteforce import plain_extension_masks
from domblocker import GraphError, smallgraphs
from domblocker.smallgraphs import (
    _canonical_masks,
    _least_degree_deletion,
    connected_graphs,
    connected_graphs_upto,
    random_connected_graph,
    random_degree23_graph,
)


@functools.cache
def _atlas(n):
    # the atlas lists every graph on up to 7 vertices
    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]


def _to_nx(g):
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    return h


def _invariant(h):
    # each vertex's degree with its neighbours' degrees, as a sorted sequence
    return tuple(sorted((h.degree(v), tuple(sorted(h.degree(u) for u in h[v]))) for v in h))


def _rows(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _buckets(graphs):
    buckets = {}
    for h in graphs:
        buckets.setdefault(_invariant(h), []).append(h)
    return buckets


class TestEnumeration:
    def test_connected_counts(self):
        # known sequence of connected graphs up to isomorphism
        assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]

    def test_counts_match_reference_atlas(self):
        for n in range(1, 8):
            reference = _atlas(n)
            assert len(connected_graphs(n)) == sum(1 for g in reference if nx.is_connected(g))

    def test_members_connected_and_pairwise_nonisomorphic(self):
        for n in range(1, 8):
            graphs = connected_graphs(n)
            assert all(g.is_connected() for g in graphs)
            for bucket in _buckets(_to_nx(g) for g in graphs).values():
                for i in range(len(bucket)):
                    for j in range(i + 1, len(bucket)):
                        assert not nx.is_isomorphic(bucket[i], bucket[j])

    def test_every_atlas_class_has_a_representative(self):
        for n in range(1, 8):
            connected = _buckets(_to_nx(g) for g in connected_graphs(n))
            for ref in _atlas(n):
                if nx.is_connected(ref):
                    assert any(nx.is_isomorphic(ref, h) for h in connected[_invariant(ref)])

    def test_upto_totals(self):
        assert len(connected_graphs_upto(6)) == 143

    def test_counts_at_eight(self):
        # OEIS A001349 at n = 8
        assert len(connected_graphs(8)) == 11117

    def test_twin_skipping_lists_the_plain_extension(self):
        for n in range(1, 8):
            assert _canonical_masks(n) == plain_extension_masks(n)

    def test_certificates_per_size(self, monkeypatch):
        # a candidate reaches the certificate only if its new vertex is a
        # non-cut vertex of least degree (0, 1, 2, 8, 53, 417, 4,818 without)
        calls = []
        certificate = smallgraphs._certificate
        monkeypatch.setattr(
            smallgraphs, "_certificate", lambda n, adj: calls.append(n) or certificate(n, adj)
        )
        _canonical_masks.cache_clear()
        _canonical_masks(7)
        assert [calls.count(n) for n in range(1, 8)] == [0, 1, 2, 6, 27, 174, 1590]

    def test_least_degree_deletion_passes_over_cut_vertices(self):
        # K4 - x - K4: x (vertex 3) has the least degree, 2, but is a cut
        # vertex, so a degree-3 vertex is the least non-cut deletion. In no
        # connected graph with n <= 8 are all least-degree vertices cut
        # vertices, so no count through n = 8 sees the connectivity test
        left, right = (8, 1, 2, 0), (4, 5, 6, 7)
        edges = [(3, 0), (3, 4)]
        edges += [(a, b) for k in (left, right) for i, a in enumerate(k) for b in k[i + 1 :]]
        assert _least_degree_deletion(9, _rows(9, edges))
        # the same graph with a degree-4 vertex (joined to x) as the new one
        swap = {0: 8, 8: 0}
        swapped = [(swap.get(a, a), swap.get(b, b)) for a, b in edges]
        assert not _least_degree_deletion(9, _rows(9, swapped))

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            connected_graphs(9)


class TestRandomGenerators:
    def test_random_connected(self):
        rng = random.Random(0)
        for _ in range(50):
            g = random_connected_graph(rng.randrange(1, 12), rng)
            assert g.is_connected()

    def test_random_degree23(self):
        rng = random.Random(0)
        for _ in range(50):
            g = random_degree23_graph(rng.randrange(4, 12), rng)
            assert g.is_connected()
            assert all(g.degree(v) in (2, 3) for v in range(g.n))

    def test_deterministic_per_seed(self):
        a = random_connected_graph(8, random.Random(5))
        b = random_connected_graph(8, random.Random(5))
        assert a == b
