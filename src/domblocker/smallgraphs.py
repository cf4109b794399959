"""Small-graph corpora for exhaustive verification sweeps.

Enumeration of the connected graphs up to isomorphism extends each class on
n - 1 vertices by one new vertex, joined to every non-empty neighbour set,
except that within each twin class of the parent only the lowest members are
joined: swapping two twins is an automorphism of the parent, so joining any
other members of the same number gives an isomorphic graph. A candidate is
kept only if its new vertex (a non-cut vertex, the parent being connected) has
the least degree among the non-cut vertices: no other vertex of smaller degree
leaves the graph connected when deleted (the acceptance half of canonical
augmentation, McKay 1998). No class is lost: every connected graph G has a
non-cut vertex (a leaf of a spanning tree); deleting one of least degree, x,
leaves a connected parent, the twin rule joins the new vertex to a set in the
orbit of N(x), and that candidate is isomorphic to G with the new vertex
mapped to x, so it passes, degree and cut vertices being invariant. Kept
candidates are deduplicated by a canonical certificate: colour refinement from
the unit partition, then individualize and refine over the first non-singleton
cell, keeping the largest edge-slot mask among the discrete leaves; twins are
individualized once, for the same reason. The twin rule cuts the certificates
computed for n = 7 from 7,056 to 4,818 and for n = 8 from 108,331 to 79,937,
and the least-degree rule cuts them to 1,590 and 20,848. On a 2-core machine
all connected graphs through n = 7 are listed in about 0.07 s (0.16 s with the
twin rule alone) and through n = 8 in about 1.2 s (2.5 s); results are cached
per process. Random generators are deterministic per seed.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterator

from .graphs import GraphError, LabeledGraph

MAX_EXHAUSTIVE_N = 8

_PAIRS = {n: list(itertools.combinations(range(n), 2)) for n in range(MAX_EXHAUSTIVE_N + 1)}


def _mask_to_graph(n: int, mask: int) -> LabeledGraph:
    edges = [p for k, p in enumerate(_PAIRS[n]) if mask >> k & 1]
    return LabeledGraph.from_edges(n, edges)


def _refine(adj: list[int], cells: list[int]) -> list[int]:
    """Split the ordered cells (vertex bitmasks) until equitable: vertices of a
    cell stay together only if they have the same neighbour count in every
    cell. Split parts are ordered by those counts, descending (so the first
    pass puts high degrees first), and the result depends on the graph and the
    input order only, not on vertex labels."""
    while True:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts: dict[int, int] = {}
            m = cell
            while m:
                bit = m & -m
                m ^= bit
                row = adj[bit.bit_length() - 1]
                key = 0  # counts are below 8 for n <= 8
                for c in cells:
                    key = key << 3 | (row & c).bit_count()
                parts[key] = parts.get(key, 0) | bit
            out.extend(parts[k] for k in sorted(parts, reverse=True))
        if len(out) == len(cells):
            return out
        cells = out


def _certificate(n: int, adj: list[int]) -> int:
    """Canonical edge-slot mask: equal exactly for isomorphic graphs."""
    best = -1
    stack = [_refine(adj, [(1 << n) - 1])]
    while stack:
        cells = stack.pop()
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            mask = 0
            for k, (i, j) in enumerate(_PAIRS[n]):
                if adj[order[i]] >> order[j] & 1:
                    mask |= 1 << k
            best = max(best, mask)
            continue
        t = next(i for i, c in enumerate(cells) if c & (c - 1))
        cell = cells[t]
        tried: list[int] = []
        m = cell
        while m:
            bit = m & -m
            m ^= bit
            v = bit.bit_length() - 1
            # swapping twins u, v fixes every cell, so their subtrees agree
            if any(adj[v] & ~(1 << u) == adj[u] & ~bit for u in tried):
                continue
            tried.append(v)
            stack.append(_refine(adj, cells[:t] + [bit, cell ^ bit] + cells[t + 1 :]))
    return best


def _neighbour_sets(adj: list[int], parent_n: int) -> Iterator[int]:
    """Non-empty neighbour sets of a new vertex joined to the parent's vertices
    0..parent_n-1, one per choice of how many members of each twin class of
    the parent it joins: always the lowest ones. Swapping two twins is an
    automorphism of the parent, so the sets skipped give isomorphic
    extensions. Twins (equal neighbourhoods apart from each other) form
    classes, each a clique or an independent set (a true twin pair u, v and
    a false twin pair v, w would force the edge vw), so each vertex is
    compared with the lowest member of each class only."""
    classes: list[list[int]] = []
    for v in range(parent_n):
        for members in classes:
            u = members[0]
            if adj[v] & ~(1 << u) == adj[u] & ~(1 << v):
                members.append(v)
                break
        else:
            classes.append([v])
    prefixes = []
    for members in classes:
        joined = [0]
        for v in members:
            joined.append(joined[-1] | 1 << v)
        prefixes.append(joined)
    for parts in itertools.product(*prefixes):
        neighbours = sum(parts)
        if neighbours:
            yield neighbours


def _least_degree_deletion(n: int, adj: list[int]) -> bool:
    """Whether the new vertex n - 1 has the least degree among the vertices
    whose deletion leaves the graph connected: no other vertex of smaller
    degree is a non-cut vertex. Each vertex of smaller degree is tested by a
    breadth-first sweep over the adjacency masks."""
    degree = adj[n - 1].bit_count()
    everything = (1 << n) - 1
    for v in range(n - 1):
        if adj[v].bit_count() >= degree:
            continue
        rest = everything ^ (1 << v)
        seen = frontier = 1 << (v == 0)  # any vertex but v
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                reach |= adj[bit.bit_length() - 1]
            frontier = reach & rest & ~seen
            seen |= frontier
        if seen == rest:
            return False
    return True


@lru_cache(maxsize=None)
def _canonical_masks(n: int) -> tuple[int, ...]:
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise GraphError(f"exhaustive enumeration supports 1..{MAX_EXHAUSTIVE_N} vertices")
    if n == 1:
        return (0,)
    new = 1 << (n - 1)
    certificates = set()
    for parent in _canonical_masks(n - 1):
        adj = [0] * n
        for k, (i, j) in enumerate(_PAIRS[n - 1]):
            if parent >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        for neighbours in _neighbour_sets(adj, n - 1):
            extended = [row | new if neighbours >> v & 1 else row for v, row in enumerate(adj)]
            extended[n - 1] = neighbours
            if _least_degree_deletion(n, extended):
                certificates.add(_certificate(n, extended))
    return tuple(sorted(certificates))


def connected_graphs(n: int) -> list[LabeledGraph]:
    """All connected graphs on n vertices, one per isomorphism class."""
    return [_mask_to_graph(n, m) for m in _canonical_masks(n)]


def connected_graphs_upto(max_n: int) -> list[LabeledGraph]:
    out = []
    for n in range(1, max_n + 1):
        out.extend(connected_graphs(n))
    return out


def random_connected_graph(n: int, rng: random.Random) -> LabeledGraph:
    """Random connected graph: a random spanning tree plus each other pair as
    an edge with probability 1/4."""
    if n < 1:
        raise GraphError("need at least one vertex")
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        attach = order[rng.randrange(i)]
        edges.add(tuple(sorted((order[i], attach))))
    for pair in itertools.combinations(range(n), 2):
        if pair not in edges and rng.random() < 0.25:
            edges.add(pair)
    return LabeledGraph.from_edges(n, sorted(edges))


def random_degree23_graph(n: int, rng: random.Random) -> LabeledGraph:
    """Random connected graph with every degree in {2,3}: a cycle plus up to
    three disjoint chords between non-adjacent vertices."""
    if n < 4:
        raise GraphError("need at least 4 vertices for a chorded cycle")
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges = {tuple(sorted(e)) for e in edges}
    degree = {v: 2 for v in range(n)}
    wanted = rng.randrange(0, 4)
    attempts = 0
    added = 0
    while added < wanted and attempts < 200:
        attempts += 1
        a, b = rng.sample(range(n), 2)
        e = tuple(sorted((a, b)))
        if degree[a] == 3 or degree[b] == 3 or e in edges:
            continue
        edges.add(e)
        degree[a] += 1
        degree[b] += 1
        added += 1
    return LabeledGraph.from_edges(n, sorted(edges))
