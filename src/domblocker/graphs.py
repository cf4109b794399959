"""Simple undirected labeled graphs with edge contraction and structural recognizers.

Graphs are immutable values: every operation returns a new graph, so they are
safe to share, hash and use as dict keys. Vertices are dense integers 0..n-1.
Each vertex carries a :class:`VertexLabel` recording its role inside a built
gadget graph (or ``PLAIN`` for ordinary vertices), which lets tests and tools
address gadget vertices by role instead of by position.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional


@dataclass(frozen=True)
class VertexLabel:
    """Role tag for a vertex.

    kind is one of: "plain", "true", "false", "cycle_u" (variable-gadget roles,
    with ``var`` and ``index``), "clause", "variable", "l" (clause-gadget roles,
    with ``clause`` and optionally ``var``), "port", "gadget_u", "gadget_w",
    "gadget_a", "gadget_b", "gadget_c" (replacement-gadget roles, with
    ``source`` vertex and ``index``), "pos_literal", "neg_literal",
    "triangle_u" (triangle-gadget roles, with ``var``).
    """

    kind: str = "plain"
    var: Optional[int] = None
    clause: Optional[int] = None
    index: Optional[int] = None
    source: Optional[int] = None

    def __post_init__(self):
        if self.kind in _INDEXED_KINDS and self.index not in (1, 2, 3):
            raise ValueError(f"label kind {self.kind!r} needs index in 1..3, got {self.index}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for field in ("var", "clause", "index", "source"):
            value = getattr(self, field)
            if value is not None:
                d[field] = value
        return d

    @staticmethod
    def from_dict(d: dict) -> "VertexLabel":
        return VertexLabel(
            kind=d.get("kind", "plain"),
            var=d.get("var"),
            clause=d.get("clause"),
            index=d.get("index"),
            source=d.get("source"),
        )


_INDEXED_KINDS = frozenset(
    {"true", "false", "cycle_u", "port", "gadget_u", "gadget_w", "gadget_a", "gadget_b", "gadget_c"}
)

PLAIN = VertexLabel()


class SearchSetup(NamedTuple):
    """What every domination search of one graph reads besides its closed
    masks (see ``domination``), built once per graph."""

    two: tuple[int, ...]  # closed two-hop masks
    near: tuple[list[int], ...]  # two-hop neighbours of v without v, ascending
    width: int  # the largest closed neighbourhood
    units: tuple[int, ...]  # units[c] = lcm(1..width) // c; units[0] = 0


class GraphError(ValueError):
    """Invalid graph construction or operation request."""


class BudgetExceeded(Exception):
    """A search ran out of its node budget before finishing."""

    def __init__(self, nodes: int):
        super().__init__(f"solver budget exceeded after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph on vertices 0..n-1 with per-vertex labels.

    Invariants: no self-loops, no parallel edges, symmetric adjacency,
    len(labels) == n. Enforced by the constructors below.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[VertexLabel, ...]

    @staticmethod
    def empty(n: int, labels: Optional[Iterable[VertexLabel]] = None) -> "LabeledGraph":
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        labels = tuple(labels) if labels is not None else (PLAIN,) * n
        if len(labels) != n:
            raise GraphError(f"expected {n} labels, got {len(labels)}")
        return LabeledGraph(n, (frozenset(),) * n, labels)

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Iterable[VertexLabel]] = None,
    ) -> "LabeledGraph":
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        labels = tuple(labels) if labels is not None else (PLAIN,) * n
        if len(labels) != n:
            raise GraphError(f"expected {n} labels, got {len(labels)}")
        return LabeledGraph(n, tuple(frozenset(s) for s in adj), labels)

    @staticmethod
    def from_closed_masks(
        masks: tuple[int, ...], labels: Optional[tuple[VertexLabel, ...]] = None
    ) -> "LabeledGraph":
        """The graph whose closed neighbourhoods are ``masks`` (labels
        ``PLAIN`` unless given), with ``closed_masks`` already set to that
        tuple. The masks are trusted: each holds its own bit, and they are
        symmetric."""
        n = len(masks)
        adj = []
        for v, m in enumerate(masks):
            m ^= 1 << v
            nbrs = []
            while m:
                low = m & -m
                nbrs.append(low.bit_length() - 1)
                m ^= low
            adj.append(frozenset(nbrs))
        g = LabeledGraph(n, tuple(adj), (PLAIN,) * n if labels is None else labels)
        g.__dict__["closed_masks"] = masks  # the cached_property's slot
        return g

    # -- basic queries ----------------------------------------------------

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self.adj[v] | {v}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """Closed neighborhoods as bitmasks; the solver's working representation."""
        masks = []
        for v in range(self.n):
            m = 1 << v
            for w in self.adj[v]:
                m |= 1 << w
            masks.append(m)
        return tuple(masks)

    @cached_property
    def search_setup(self) -> SearchSetup:
        """The domination search's per-graph set-up, kept with the graph so
        the searches of one graph share it."""
        nb = self.closed_masks
        two = []
        near = []
        for v, adj in enumerate(self.adj):
            reach = nb[v]
            hop = set(adj)
            for w in adj:
                reach |= nb[w]
                hop |= self.adj[w]
            hop.discard(v)
            two.append(reach)
            near.append(sorted(hop))
        width = self.max_degree() + 1
        lcm = math.lcm(*range(1, width + 1))
        units = (0,) + tuple(lcm // c for c in range(1, width + 1))
        return SearchSetup(tuple(two), tuple(near), width, units)

    # -- pure operations ---------------------------------------------------

    def add_edge(self, u: int, v: int) -> "LabeledGraph":
        """Return the graph with edge {u,v} added (idempotent if present)."""
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
        if v in self.adj[u]:
            return self
        adj = list(self.adj)
        adj[u] = adj[u] | {v}
        adj[v] = adj[v] | {u}
        return LabeledGraph(self.n, tuple(adj), self.labels)

    def contract_edge(self, u: int, v: int) -> "LabeledGraph":
        """Contract edge {u,v}: merge the endpoints into one vertex.

        The merged vertex is adjacent to N(u) | N(v) minus the endpoints, gets
        the label ``PLAIN`` and takes the slot of the lower endpoint; the
        higher endpoint's slot goes and the vertices above it move down one,
        keeping their labels in order (see ``contract_masks``).
        """
        if v not in self.adj[u]:
            raise GraphError(f"cannot contract non-edge ({u},{v})")
        u, v = min(u, v), max(u, v)
        labels = self.labels[:u] + (PLAIN,) + self.labels[u + 1 : v] + self.labels[v + 1 :]
        return LabeledGraph.from_closed_masks(contract_masks(self.closed_masks, u, v), labels)

    def relabel(self, perm: list[int]) -> "LabeledGraph":
        """Apply a vertex permutation: new vertex perm[v] is old vertex v."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError("not a permutation")
        adj: list[set[int]] = [set() for _ in range(self.n)]
        labels: list[VertexLabel] = [PLAIN] * self.n
        for v in range(self.n):
            labels[perm[v]] = self.labels[v]
            for w in self.adj[v]:
                adj[perm[v]].add(perm[w])
        return LabeledGraph(self.n, tuple(frozenset(s) for s in adj), tuple(labels))

    # -- predicates --------------------------------------------------------

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        """The verdict of ``is_connected``, found once per graph."""
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def max_degree(self) -> int:
        return max((len(s) for s in self.adj), default=0)

    def min_degree(self) -> int:
        return min((len(s) for s in self.adj), default=0)

    def is_subcubic(self) -> bool:
        return self.max_degree() <= 3


def contract_masks(masks: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """The closed masks of a graph with edge {u, v}, u < v, contracted.

    The merged vertex takes u's slot, v's slot goes, and every vertex above v
    moves down one. By induction each vertex of a contraction stands for the
    original vertices merged into it, and the vertices stay in the order of
    the lowest original vertex each holds. So contracting an edge set gives
    the same tuple in every order, and the tuple can key a table.
    """
    low = (1 << v) - 1
    high = ~low
    bit_u = 1 << u
    shift = v - u
    # bits below v stay, bit v moves to u, bits above v move down one
    out = [(m & low) | (m >> shift & bit_u) | (m >> 1 & high) for m in masks]
    merged = masks[u] | masks[v]
    out[u] = (merged & low) | (merged >> 1 & high)
    del out[v]
    return tuple(out)


# -- small named graphs ----------------------------------------------------


def path_graph(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> LabeledGraph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return LabeledGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges(n, list(itertools.combinations(range(n), 2)))


def star_graph(leaves: int) -> LabeledGraph:
    """K_{1,leaves} with the center at vertex 0."""
    return LabeledGraph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def prism_graph() -> LabeledGraph:
    """The 3-prism: two triangles joined by a perfect matching (3-regular)."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return LabeledGraph.from_edges(6, edges)


# -- claw recognition -------------------------------------------------------


def find_claw(g: LabeledGraph) -> Optional[tuple[int, int, int, int]]:
    """Find an induced K_{1,3}: returns (center, leaf, leaf, leaf) or None.

    Scans each vertex's neighborhood for three pairwise non-adjacent members;
    candidates are visited in ascending order so the result is deterministic.
    """
    for center in range(g.n):
        nbrs = sorted(g.adj[center])
        if len(nbrs) < 3:
            continue
        for a, b, c in itertools.combinations(nbrs, 3):
            if b not in g.adj[a] and c not in g.adj[a] and c not in g.adj[b]:
                return (center, a, b, c)
    return None


def is_claw_free(g: LabeledGraph) -> bool:
    return find_claw(g) is None


# -- induced path recognition ------------------------------------------------


@dataclass(frozen=True)
class InducedPathResult:
    """Outcome of an induced-path search.

    status: "free" (no induced path on k vertices) or "found" (witness holds
    the path, in order).
    """

    status: str
    witness: Optional[tuple[int, ...]] = None


def _no_tick() -> None:
    """What ``is_pk_free`` calls per node when it is given no ``tick``."""


def is_pk_free(
    g: LabeledGraph, k: int, tick: Optional[Callable[[], None]] = None
) -> InducedPathResult:
    """Decide whether g has no induced path on k vertices, by DFS extension.

    "free" means no such path exists; "found" carries the path, in order, as
    the counterexample witness. Grows simple paths one endpoint at a time,
    pruning any extension adjacent to a non-tip path vertex (which would chord
    the path). Every induced path is reached from each of its two endpoints,
    so trying all start vertices is exhaustive. ``tick`` is called at every
    start vertex and extension attempt, so a ``GammaTable.tick`` counts them
    against the command's budget and its ``BudgetExceeded`` propagates.
    """
    if k < 1:
        raise GraphError(f"path length must be >= 1, got {k}")
    if g.n < k:
        return InducedPathResult("free")
    tick = tick or _no_tick
    masks = g.closed_masks

    def extend(path: list[int], forbidden: int) -> Optional[tuple[int, ...]]:
        if len(path) == k:
            return tuple(path)
        tip = path[-1]
        for w in sorted(g.adj[tip]):
            if (forbidden >> w) & 1:
                continue
            tick()
            # w may touch only the current tip: anything adjacent to an
            # earlier path vertex would create a chord.
            path.append(w)
            found = extend(path, forbidden | masks[tip])
            if found is not None:
                return found
            path.pop()
        return None

    for start in range(g.n):
        tick()
        found = extend([start], 1 << start)
        if found is not None:
            return InducedPathResult("found", found)
    return InducedPathResult("free")


def induced_subgraph(g: LabeledGraph, vertices: Iterable[int]) -> LabeledGraph:
    """Subgraph induced by the given vertices, renumbered densely in sorted order."""
    verts = sorted(set(vertices))
    remap = {v: i for i, v in enumerate(verts)}
    edges = [
        (remap[u], remap[v])
        for u, v in itertools.combinations(verts, 2)
        if v in g.adj[u]
    ]
    return LabeledGraph.from_edges(len(verts), edges, [g.labels[v] for v in verts])
