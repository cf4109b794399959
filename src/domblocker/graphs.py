"""Simple undirected labeled graphs with edge contraction and structural recognizers.

Graphs are immutable values: ``contract_edge`` and ``induced_subgraph``
return new graphs, so graphs are safe to share, hash and use as dict keys.
Vertices are dense integers 0..n-1. Each vertex carries a
:class:`VertexLabel` recording its role inside a built gadget graph (or
``PLAIN`` for ordinary vertices), which lets tests and tools address gadget
vertices by role instead of by position.

A graph is its closed-neighbourhood bitmasks: ``closed_masks[v]`` has bit w
set iff w = v or vw is an edge. That is the form every search reads (the γ
optimizer, the MDS enumerator, the keys of a ``GammaTable``) and the form
``contract_masks`` contracts, so the constructors build masks, every query
and operation reads them, and a contraction is a plain constructor call on
the contracted tuple. Neighbour sets (``adj``) are a view decoded on first
use, for callers that want sets; nothing in the package reads them. Sparse
masks are walked with ``_bits`` and edges with ``_edges``, both in ascending
order, so every walk visits vertices and edges in the order a sorted
neighbour set would. The recognizers ``find_claw`` and ``find_induced_path``
return their witness, or None when the graph has none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional


# every vertex-label kind, mapped to (whether it needs an index in 1..3, its
# name in DOT, its DOT fill colour). It drives JSON and DOT too: a label, and
# so the edge-list JSON codec, accepts exactly these kinds, and DOT draws each
# from its row (a plain vertex shows its number). One line per gadget: the variable-gadget roles carry ``var``, the
# clause-gadget roles ``clause`` and optionally ``var``, the replacement-gadget
# roles their ``source`` vertex, and the triangle-gadget roles ``var``
LABEL_KINDS = {
    "plain": (False, "", "white"),
    "true": (True, "T", "palegreen"), "false": (True, "F", "lightcoral"), "cycle_u": (True, "u", "lightgray"),
    "clause": (False, "c", "lightskyblue"), "variable": (False, "x", "orange"), "l": (False, "l", "plum"),
    "port": (True, "v", "cyan"), "gadget_u": (True, "u", "wheat"), "gadget_w": (True, "w", "khaki"),
    "gadget_a": (True, "a", "mistyrose"), "gadget_b": (True, "b", "thistle"), "gadget_c": (True, "c", "lightcyan"),
    "pos_literal": (False, "x", "palegreen"), "neg_literal": (False, "~x", "lightcoral"),
    "triangle_u": (False, "u", "lightgray"),
}


@dataclass(frozen=True)
class VertexLabel:
    """Role tag for a vertex: its kind is a key of ``LABEL_KINDS``, and the
    fields after it are the optional ones, None when absent. DOT writes the
    set ones in this order, each after its ``dot`` prefix."""

    kind: str = "plain"
    var: Optional[int] = field(default=None, metadata={"dot": "x"})
    clause: Optional[int] = field(default=None, metadata={"dot": "c"})
    source: Optional[int] = field(default=None, metadata={"dot": "s"})
    index: Optional[int] = field(default=None, metadata={"dot": ""})

    def __post_init__(self):
        if self.kind not in LABEL_KINDS:
            raise ValueError(f"unknown label kind {self.kind!r}")
        if LABEL_KINDS[self.kind][0] and self.index not in (1, 2, 3):
            raise ValueError(f"label kind {self.kind!r} needs index in 1..3, got {self.index}")


PLAIN = VertexLabel()


class SearchSetup(NamedTuple):
    """What every domination search of one graph reads besides its closed
    masks (see ``domination``), built once per graph."""

    two: tuple[int, ...]  # closed two-hop masks
    width: int  # the largest closed neighbourhood
    units: tuple[int, ...]  # units[c] = lcm(1..width) // c; units[0] = 0
    # the vertices where a reduction can fire with every vertex undominated
    # and available: v isolated, or N[v] inside N[x] for some x != v
    root: int


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

    ``closed_masks[v]`` is the closed neighbourhood N[v] of v as a bitmask:
    bit w is set iff w = v or vw is an edge. Every query and operation reads
    the masks; ``adj`` decodes them into neighbour sets on first use.

    Invariants: each mask holds its own bit and no bit at n or above, the
    masks are symmetric, len(labels) == n. Enforced by the constructors
    below; ``from_closed_masks`` trusts its masks.
    """

    n: int
    closed_masks: tuple[int, ...]
    labels: tuple[VertexLabel, ...]

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Iterable[VertexLabel]] = None,
    ) -> "LabeledGraph":
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        masks = [1 << v for v in range(n)]
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        labels = tuple(labels) if labels is not None else (PLAIN,) * n
        if len(labels) != n:
            raise GraphError(f"expected {n} labels, got {len(labels)}")
        return LabeledGraph(n, tuple(masks), labels)

    @staticmethod
    def from_closed_masks(masks: tuple[int, ...]) -> "LabeledGraph":
        """The graph whose closed neighbourhoods are ``masks``, labels
        ``PLAIN``. The masks are trusted: each holds its own bit, and they
        are symmetric."""
        return LabeledGraph(len(masks), masks, (PLAIN,) * len(masks))

    # -- basic queries ----------------------------------------------------

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Neighbour sets, decoded from the masks on first use."""
        return tuple(frozenset(self.neighbors(v)) for v in range(self.n))

    def neighbors(self, v: int) -> Iterator[int]:
        """The neighbours of v, ascending."""
        return _bits(self.closed_masks[v] & ~(1 << v))

    def degree(self, v: int) -> int:
        return self.closed_masks[v].bit_count() - 1

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and self.closed_masks[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return list(_edges(self.closed_masks))

    @cached_property
    def search_setup(self) -> SearchSetup:
        """The domination search's per-graph set-up, kept with the graph so
        the searches of one graph share it."""
        nb = self.closed_masks
        two = []
        root = 0
        for v, m in enumerate(nb):
            # common: the x with N[v] inside N[x], v among them
            reach, common, rest = 0, m, m
            while rest:
                low = rest & -rest
                x = nb[low.bit_length() - 1]
                reach |= x
                common &= x
                rest ^= low
            two.append(reach)
            if common != 1 << v or m == 1 << v:
                root |= 1 << v
        width = max(map(int.bit_count, nb), default=1)
        lcm = math.lcm(*range(1, width + 1))
        units = (0,) + tuple(lcm // c for c in range(1, width + 1))
        return SearchSetup(tuple(two), width, units, root)

    # -- pure operations ---------------------------------------------------

    def contract_edge(self, u: int, v: int) -> "LabeledGraph":
        """Contract edge {u,v}: merge the endpoints into one vertex.

        The merged vertex is adjacent to N(u) | N(v) minus the endpoints, gets
        the label ``PLAIN`` and takes the slot of the lower endpoint; the
        higher endpoint's slot goes and the vertices above it move down one,
        keeping their labels in order (see ``contract_masks``).
        """
        if not self.has_edge(u, v):
            raise GraphError(f"cannot contract non-edge ({u},{v})")
        u, v = min(u, v), max(u, v)
        labels = self.labels[:u] + (PLAIN,) + self.labels[u + 1 : v] + self.labels[v + 1 :]
        return LabeledGraph(self.n - 1, contract_masks(self.closed_masks, u, v), labels)

    # -- predicates --------------------------------------------------------

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        """The verdict of ``is_connected``, found once per graph."""
        if self.n == 0:
            return True
        masks = self.closed_masks
        seen = 1
        stack = [0]
        while stack:
            fresh = masks[stack.pop()] & ~seen
            seen |= fresh
            stack.extend(_bits(fresh))
        return seen == (1 << self.n) - 1

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.closed_masks), default=1) - 1

    def min_degree(self) -> int:
        return min((m.bit_count() for m in self.closed_masks), default=1) - 1

    def is_subcubic(self) -> bool:
        return self.max_degree() <= 3


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, ascending; costs per set bit, so it suits
    sparse masks (a neighbourhood, a branch set, a solution)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edges(masks: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Edges (u, v), u < v, of the graph with closed neighbourhoods
    ``masks``, in lexicographic order."""
    for u, m in enumerate(masks):
        higher = m >> (u + 1)
        while higher:
            low = higher & -higher
            yield u, u + low.bit_length()
            higher ^= low


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
    masks = g.closed_masks
    for center in range(g.n):
        for a, b, c in itertools.combinations(g.neighbors(center), 3):
            if not (masks[a] >> b & 1 or masks[a] >> c & 1 or masks[b] >> c & 1):
                return (center, a, b, c)
    return None


# -- induced path recognition ------------------------------------------------


def _no_tick() -> None:
    """What ``find_induced_path`` calls per node when it is given no ``tick``."""


def find_induced_path(
    g: LabeledGraph, k: int, tick: Optional[Callable[[], None]] = None
) -> Optional[tuple[int, ...]]:
    """Find an induced path on k vertices, by DFS extension: returns the path,
    in order, or None when g has none.

    Grows simple paths one endpoint at a time, pruning any extension
    adjacent to a non-tip path vertex (which would chord the path). The same
    shape as ``find_claw``: the path is the counterexample witness of a
    P_k-free claim. Every induced path is reached from each of its two endpoints,
    so trying all start vertices is exhaustive. ``tick`` is called at every
    start vertex and extension attempt, so a ``GammaTable.tick`` counts them
    against the command's budget and its ``BudgetExceeded`` propagates.
    """
    if k < 1:
        raise GraphError(f"path length must be >= 1, got {k}")
    if g.n < k:
        return None
    tick = tick or _no_tick
    masks = g.closed_masks

    def extend(path: list[int], forbidden: int) -> Optional[tuple[int, ...]]:
        if len(path) == k:
            return tuple(path)
        tip = path[-1]
        # the path's vertices are in forbidden, the tip among them
        for w in _bits(masks[tip] & ~forbidden):
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
            return found
    return None


def induced_subgraph(g: LabeledGraph, vertices: Iterable[int]) -> LabeledGraph:
    """Subgraph induced by the given vertices, renumbered densely in sorted order."""
    verts = sorted(set(vertices))
    masks = tuple(
        sum(1 << i for i, w in enumerate(verts) if g.closed_masks[v] >> w & 1) for v in verts
    )
    return LabeledGraph(len(verts), masks, tuple(g.labels[v] for v in verts))
