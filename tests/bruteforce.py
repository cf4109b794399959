"""Independent brute-force oracles for the test suite.

Deliberately written against the plain set-based definitions (no bitmasks, no
pruning) so they share no code path with the package implementations they
check. Graphs here are neighbour-set tuples (``g.adj``, or the ``set_*``
operations), the reference for the closed-mask representation. Three
exceptions: the reference listing shares the canonical certificate and
checks only which extensions the listing skips; ``contract_tracked``
contracts with ``LabeledGraph.contract_edge``, since what it tests is that
contracting an edge set gives one graph in every order; and
``reference_greedy`` is the γ search's first incumbent as a scan of every
vertex over closed masks, since what it tests is that the search's lazy
levels pick what the scan picks.
"""

import itertools
import math
from fractions import Fraction

from domblocker import LabeledGraph
from domblocker.smallgraphs import _certificate


def closed_neighborhood(g: LabeledGraph, v):
    return set(g.adj[v]) | {v}


def dominates(g: LabeledGraph, s) -> bool:
    covered = set()
    for v in s:
        covered |= closed_neighborhood(g, v)
    return len(covered) == g.n


def brute_gamma(g: LabeledGraph) -> int:
    for k in range(0, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            if dominates(g, subset):
                return k
    raise AssertionError("vertex set itself always dominates")


def brute_all_mds(g: LabeledGraph) -> set[frozenset]:
    gamma = brute_gamma(g)
    return {
        frozenset(s)
        for s in itertools.combinations(range(g.n), gamma)
        if dominates(g, s)
    }


# -- set-based graph operations: neighbour-set tuples, one frozenset a vertex


def set_adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(frozenset(s) for s in adj)


def set_edge_list(adj):
    """Edges (u, v), u < v, sorted."""
    return sorted((u, v) for u in range(len(adj)) for v in adj[u] if u < v)


def set_connected(adj) -> bool:
    seen = {0} if adj else set()
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def set_contract(adj, u, v):
    """Contract edge {u, v}, u < v: the merged vertex keeps u's slot and is
    adjacent to N(u) | N(v) less both ends; v goes, and every vertex above v
    moves down one."""

    def renumber(w):
        return u if w == v else w - (w > v)

    out = []
    for w in range(len(adj)):
        if w != v:
            nbrs = adj[u] | adj[v] if w == u else adj[w]
            out.append(frozenset(renumber(x) for x in nbrs) - {renumber(w)})
    return tuple(out)


def set_relabel(adj, perm):
    """New vertex perm[v] is old vertex v."""
    out = [frozenset()] * len(adj)
    for v, s in enumerate(adj):
        out[perm[v]] = frozenset(perm[w] for w in s)
    return tuple(out)


def set_induced(adj, vertices):
    """The subgraph induced by vertices, renumbered in sorted order."""
    verts = sorted(vertices)
    index = {v: i for i, v in enumerate(verts)}
    return tuple(frozenset(index[w] for w in adj[v] if w in index) for v in verts)


def set_contraction(g: LabeledGraph, u, v) -> LabeledGraph:
    """g with edge {u, v}, u < v, contracted by ``set_contract``."""
    adj = set_contract(g.adj, u, v)
    return LabeledGraph.from_edges(len(adj), set_edge_list(adj))


def brute_ct(g: LabeledGraph):
    """ct_γ by the sequence BFS: contract every edge of every graph on a
    level with ``set_contraction``, one graph per adjacency, and compare
    brute-force γ. The depth at which γ first drops, or None when three
    contractions never lower it (always when γ = 1)."""
    gamma = brute_gamma(g)
    level = {g.adj: g}
    for k in (1, 2, 3):
        next_level = {}
        for h in level.values():
            for u, v in h.edges():
                contracted = set_contraction(h, u, v)
                if contracted.adj in next_level:
                    continue
                if brute_gamma(contracted) < gamma:
                    return k
                next_level[contracted.adj] = contracted
        level = next_level
    return None


def contract_tracked(g: LabeledGraph, where, a, b):
    """Contract the edge of g between original vertices a and b; ``where``
    maps each original vertex to its vertex of g. Returns the contraction
    and the updated map, in which the merged vertex keeps the lower slot."""
    u, v = sorted((where[a], where[b]))
    where = [u if w == v else w - (w > v) for w in where]
    return g.contract_edge(u, v), where


def brute_has_claw(g: LabeledGraph) -> bool:
    """Any 4-subset inducing a star with three leaves."""
    for quad in itertools.combinations(range(g.n), 4):
        for center in quad:
            leaves = [v for v in quad if v != center]
            if all(g.has_edge(center, leaf) for leaf in leaves) and all(
                not g.has_edge(a, b) for a, b in itertools.combinations(leaves, 2)
            ):
                return True
    return False


def induced_is_path(g: LabeledGraph, vertices) -> bool:
    vertices = list(vertices)
    edges = [
        (a, b) for a, b in itertools.combinations(vertices, 2) if g.has_edge(a, b)
    ]
    if len(edges) != len(vertices) - 1:
        return False
    degree = {v: 0 for v in vertices}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    if any(d > 2 for d in degree.values()):
        return False
    seen = {vertices[0]}
    stack = [vertices[0]]
    adjacency = {v: [] for v in vertices}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(vertices)


def brute_has_induced_path(g: LabeledGraph, k: int) -> bool:
    if k == 1:
        return g.n >= 1
    return any(
        induced_is_path(g, subset) for subset in itertools.combinations(range(g.n), k)
    )


def brute_efficient(g: LabeledGraph, s) -> bool:
    return all(len(closed_neighborhood(g, v) & set(s)) == 1 for v in range(g.n))


def _within_two(g: LabeledGraph, v) -> set:
    """Vertices at distance 1 or 2 from v."""
    reach = set(g.adj[v])
    for w in g.adj[v]:
        reach |= g.adj[w]
    reach.discard(v)
    return reach


def reference_reduce(g: LabeledGraph, und, avail, solution_preserving=False):
    """The exact reductions of the γ search, run to a fixpoint by full passes.

    Each pass walks every undominated vertex in ascending order and takes
    forced unique dominators; then, unless solution_preserving, walks every
    available vertex and drops those that cover no undominated vertex or
    whose undominated coverage another available vertex within two hops
    contains (of two with equal coverage the lower id stays); then walks
    every undominated vertex and drops those whose live dominators contain
    those of another undominated vertex within two hops (of two with equal
    sets the lower id stays). Returns (forced, und, avail) as sets, or None
    when some undominated vertex has no live dominator.
    """
    und, avail, forced = set(und), set(avail), set()
    changed = True
    while changed:
        changed = False
        for v in sorted(und):
            if v not in und:
                continue
            live = closed_neighborhood(g, v) & avail
            if not live:
                return None
            if len(live) == 1:
                (d,) = live
                forced.add(d)
                und -= closed_neighborhood(g, d)
                avail.discard(d)
                changed = True
        if not und:
            break
        if not solution_preserving:
            for y in sorted(avail):
                if y not in avail:
                    continue
                cy = closed_neighborhood(g, y) & und
                if not cy or any(
                    cy < cx or (cy == cx and x < y)
                    for x in _within_two(g, y) & avail
                    for cx in [closed_neighborhood(g, x) & und]
                ):
                    avail.discard(y)
                    changed = True
        for v in sorted(und):
            if v not in und:
                continue
            lv = closed_neighborhood(g, v) & avail
            if any(
                lu < lv or (lu == lv and u < v)
                for u in _within_two(g, v) & und
                for lu in [closed_neighborhood(g, u) & avail]
            ):
                und.discard(v)
                changed = True
    return forced, und, avail


def reference_root(g: LabeledGraph) -> set:
    """The vertices where a reduction can fire with every vertex undominated
    and available: v is isolated, or N[v] lies inside N[x] for some x != v."""
    return {
        v
        for v in range(g.n)
        if not g.adj[v]
        or any(closed_neighborhood(g, v) <= closed_neighborhood(g, x) for x in range(g.n) if x != v)
    }


def reference_greedy(g: LabeledGraph) -> int:
    """The γ search's first incumbent, as a mask, by a scan of every vertex
    per pick: the largest gain |N[v] ∩ und|, the lowest id on ties, until
    nothing is undominated; then the picks in pick order, each dropped when
    the picks still kept cover its closed neighbourhood without it."""
    nb = g.closed_masks
    und = (1 << g.n) - 1
    chosen = []
    while und:
        best_v, best_gain = -1, 0
        for v in range(g.n):
            gain = (nb[v] & und).bit_count()
            if gain > best_gain:
                best_gain, best_v = gain, v
        chosen.append(best_v)
        und &= ~nb[best_v]
    kept = sum(1 << v for v in chosen)
    for v in chosen:
        others = 0
        for w in chosen:
            if w != v and kept >> w & 1:
                others |= nb[w]
        if not nb[v] & ~others:
            kept &= ~(1 << v)
    return kept


def reference_lower_bound(g: LabeledGraph, und, avail):
    """The γ search's lower bound on the vertices of avail that dominating
    und needs, and its branch set, from the definitions: sort und by
    (number of live dominators, vertex), pack greedily the vertices whose
    live dominators meet no earlier packed one's, and take the larger of
    the packing and the ceiling of the fractional dual, which gives each
    undominated vertex 1/c for the largest number c of undominated vertices
    that one of its live dominators covers. The branch set is the live
    dominators of the first vertex in that order. Returns (n + 1, set())
    when some undominated vertex has no live dominator.
    """
    und, avail = set(und), set(avail)
    live = {v: closed_neighborhood(g, v) & avail for v in und}
    if any(not dominators for dominators in live.values()):
        return g.n + 1, set()
    order = sorted(und, key=lambda v: (len(live[v]), v))
    blocked, packed = set(), 0
    for v in order:
        if not live[v] & blocked:
            packed += 1
            blocked |= live[v]
    total = sum(
        Fraction(1, max(len(closed_neighborhood(g, x) & und) for x in live[v])) for v in und
    )
    return max(packed, math.ceil(total)), live[order[0]]


def brute_residual(g: LabeledGraph, und, avail):
    """The fewest vertices of avail whose closed neighbourhoods cover und,
    or None when no subset of avail does."""
    und, avail = set(und), sorted(avail)
    for k in range(len(avail) + 1):
        for subset in itertools.combinations(avail, k):
            covered = set()
            for x in subset:
                covered |= closed_neighborhood(g, x)
            if und <= covered:
                return k
    return None


def plain_extension_masks(n: int) -> tuple[int, ...]:
    """Canonical edge-slot masks of every connected graph on n vertices, by
    joining a new vertex to every non-empty neighbour set of every class on
    n - 1 vertices, with no twin skipping and no least-degree deletion rule.
    The certificate is the package's; only the choice of extensions is
    independent."""
    if n == 1:
        return (0,)
    pairs = list(itertools.combinations(range(n - 1), 2))
    certificates = set()
    for parent in plain_extension_masks(n - 1):
        for neighbours in range(1, 1 << (n - 1)):
            adj = [0] * n
            for k, (i, j) in enumerate(pairs):
                if parent >> k & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            for v in range(n - 1):
                if neighbours >> v & 1:
                    adj[v] |= 1 << (n - 1)
                    adj[n - 1] |= 1 << v
            certificates.add(_certificate(n, adj))
    return tuple(sorted(certificates))


def reference_perfect(g: LabeledGraph, und, avail, cap) -> bool:
    """The γ search's perfect-code regime from the definitions: cap times
    the largest closed neighbourhood size equals |und|, and every
    undominated vertex lies in the closed neighbourhood of an available
    vertex whose whole closed neighbourhood is undominated and has that
    largest size."""
    width = max(len(closed_neighborhood(g, v)) for v in range(g.n))
    und = set(und)
    whole = [
        closed_neighborhood(g, x)
        for x in avail
        if closed_neighborhood(g, x) <= und and len(closed_neighborhood(g, x)) == width
    ]
    return cap * width == len(und) and all(any(v in m for m in whole) for v in und)
