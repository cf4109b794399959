"""Exact domination number, minimum-dominating-set enumeration, and the
contraction-blocker deciders built on top of them.

The solver is a branch-and-bound over "which vertex dominates the most
constrained undominated vertex": it branches over the closed neighborhood of
an undominated vertex with the fewest live dominators, excluding already-tried
candidates from the subtrees so the leaves partition the solution space. The
lower bound is the larger of a greedy packing of pairwise-disjoint
live-dominator sets and a fractional dual (each undominated vertex
contributes 1/c where c is the best coverage any single candidate could give
it). Optimize mode additionally applies the standard exact reductions
(forced unique dominators, candidate dominance, element dominance) and
solves decoupled residual components independently; enumeration mode keeps
only the reductions that preserve the full solution set, so it visits every
minimum dominating set exactly once.
Both share one ``reduce``; the enumerator switches candidate dominance off.
The optimizer's first incumbent is the greedy max-coverage cover made
irredundant (each pick that the other kept picks make redundant is dropped),
which is often γ itself, so the search mostly proves the optimum rather than
finding it.

The optimizer has one entry, ``_Optimizer.forced(mask, limit)``: can the
vertices of mask be completed to a dominating set of at most limit vertices?
It returns the smallest such set or None, and every set the search passes
back is a mask. γ is ``forced(0, |greedy| - 1)``, or the greedy cover when
nothing smaller exists; the γ + 1 clause of ``ct_gamma`` is one ``forced``
per vertex set that two edges span.

``forced`` bounds the residual before it reduces it. With und = V ∖ N[mask],
avail = V ∖ mask and need = limit - |mask|, it returns None when und is
non-empty and ``lower_bound(und, avail, need)`` exceeds need, and that
refusal costs no node and no ``reduce``. It is sound because every
completion D ⊇ mask has D ∖ mask inside avail, and D ∖ mask must dominate
und, so it needs at least the bound's count of vertices. A vertex of und
with no live dominator makes the bound n + 1, which refuses every limit.
The check refuses most sets of the γ + 1 clause, whose residuals differ from
the whole graph by a few vertices, and a graph whose root bound already
proves the greedy cover optimal takes no γ node.

The optimizer recognises the perfect-code regime by counting. A closed
neighbourhood holds at most ``width`` vertices, so a part whose cap c (the
most vertices its set may take) has c · width = |und| is dominated within
its cap only by c vertices whose closed neighbourhoods have ``width``
vertices, lie inside und and are pairwise disjoint: an exact cover of und, a
perfect code on it. No flag is needed to see it: the fractional bound is at
least |und| / width = c, with equality only when every undominated vertex
lies in such a neighbourhood of an available vertex, so a part whose bound
passes its cap at that count is in the regime. A satisfiable subcubic build
at its floor 3|X| + |C| = n / 4 is one. The part's subtree, down its chain
of lone parts, carries a ``region`` mask (0 outside the regime): the
vertices of the part's und that the exact cover must still cover. One take
rule serves the vertices a node branches on and the vertices ``reduce``
forces alike: taking x needs |N[x] ∩ region| = ``width``, so N[x] has the
largest size and lies in the region, and shrinks the region by N[x], so no
later take meets it. A branch vertex that fails the rule is skipped. A
forced vertex that fails it ends the node in None before its tick; the
forced vertices are checked in ascending order, each against the region
the ones before it left. The rule removes only calls that return None
anyway: a set that a node of the chain returns, with the vertices taken
above it, dominates the part's und with at most c vertices, so it is an
exact cover of it and passes the rule at every take. A vertex that element
dominance drops leaves und but stays in the region, which the cover still
covers. A split ends the chain, and each of its parts counts for itself,
since its cap leans on the other parts' bounds.
A node stops branching once its best set meets its bound or a ``floor``
handed down, one less per level: a later child could only return a smaller
set, and none exists. The floor also says "exactly cap" in the regime, so
the regime needs no stopping rule of its own. ``forced`` enters it with the
floor at its cap, every set of the chain within its cap has exactly that
many vertices, so each child's floor, less the vertices its ``reduce``
forces, is its own cap, and a part that finds the regime below the root has
its bound at its cap. Either way a node of the chain stops at its first
completion. ``forced`` combines the regime and the floor. When its
unreduced residual is perfect at a bound b within its need, it asks for b
vertices first, with the floor at b, an exact-cover search, and only when
that fails runs the main search with floor b + 1, so the floor is refuted
once. The answer cannot move: from any cap at or above the optimum, the
search returns the same set, the one below the first child in order that
reaches the optimum, chosen the same way below it; so the probe at b
returns what the search from the greedy cover returns, and every call the
rules remove returned None. γ, every witness, the MDS order and ct are
those of the search without the regime and the floor; only node counts
fall.

Vertex sets are int bitmasks, walked in ascending vertex order, and a graph
is its closed-neighbourhood masks (``LabeledGraph.closed_masks``): the
searches and the set predicates (``is_dominating``, ``is_independent``,
``is_efficient``, ``set_edges``) read nothing else of it. The lower
bound walks dense masks (the undominated and the available vertices, up to n
bits), so it decodes each one into a list in a single pass over its
``bin()`` string. It puts each undominated vertex in the bucket of its live
count, 1 to ``width`` (the graph's largest closed neighbourhood), in
ascending vertex order, so walking the buckets is the (count, vertex) order
without a sort: the greedy packing walks it, and the first vertex of the
lowest bucket gives the branch set. A caller that only asks whether the
bound exceeds a threshold passes it as ``need`` (the enumerator its γ minus
the chosen size, the optimizer its limit minus the forced size when the
residual is one component), and a packing larger than ``need`` is returned
at once. Otherwise the fractional part ORs N[x] of each available x into the
level of its coverage c_x = |N[x] ∩ und|, and walks the levels from
``width`` down: the undominated vertices first met at level c add 1/c,
counted exactly in units of 1/lcm(1..width), so the ceiling is exact. Each
part's bound is computed once, where ``min_dominating`` splits, and read
again at the part's node in the same call. The reductions walk only their
marked vertices (below), lowest set bit first. Both dominance rules are subset
tests over closed neighbourhoods, as in set-cover branching (Fomin,
Grandoni & Kratsch, J. ACM 2009), so each is an intersection of at most
``width`` masks: the available x whose coverage contains N[y] ∩ und are
avail ANDed with N[z] for every z of N[y] ∩ und, and the undominated v
whose live dominators contain N[u] ∩ avail are und ANDed with N[x] for
every x of N[u] ∩ avail. The two-hop masks, ``width`` and the lcm units
are built once per graph and kept with it (``LabeledGraph.search_setup``),
so every search of one graph shares them.
Sparse masks (a branch set, a component frontier, a solution) go through
the graphs module's ``_bits`` generator, which costs per set bit rather than
per bit position. Every walk keeps ascending order where order matters, so the
choice changes the cost of a node, never which nodes the search visits.

``reduce`` re-checks a rule only where it can newly fire. Inside ``reduce``
and from a node to its children, und and avail only lose bits: a child is
its parent's fixpoint with the branch vertex's neighbourhood cleared from
und, the candidates tried so far cleared from avail and, in the optimizer,
the other parts of a component split cleared from und. Each rule is
monotone under clearing, so a cleared bit can make it fire only close to
itself:

- a forced take at v (at most one live dominator in N[v]) only when a
  vertex of N[v] leaves avail;
- candidate dominance of y (N[y] ∩ und inside N[x] ∩ und for another
  available x) only when a vertex of N[y] leaves und, since leaving avail
  only removes competitors x and leaving und elsewhere only shrinks the
  covering side;
- element dominance by u (N[u] ∩ avail inside N[v] ∩ avail for another
  undominated v) only when a vertex of N[u] leaves avail, since leaving
  und only removes victims v and leaving avail elsewhere only shrinks the
  victims' live sets.

So ``reduce`` keeps one mark mask per rule: the forced and the candidate
walk check the vertex that may go, the element walk the dominator u, whose
victims it drops. Every check clears its mark, and every cleared bit marks
where it can make a rule fire: a vertex leaving avail marks its closed
neighbourhood for forced takes and for element dominance; a vertex leaving
und marks its closed neighbourhood for candidate dominance (a forced take
at d marks the two-hop mask of d for all of N[d], and no dominator, since
it clears every undominated vertex whose live set it shrinks). No rule can
make itself fire again (candidate dominance clears only avail, element
dominance only und), so each walk reads its marks once, when it starts,
and visits them in ascending order. The root starts fully marked; a child
starts marked only where the bits it lost since its parent's fixpoint can
act.

The search tree is that of full passes over every vertex. Within one
walk, "dominates" (a superset, or an equal set and the lower id) is
transitive, and the walk changes neither side of what it compares: the
candidate walk clears only avail and compares sets in und, the element
walk the reverse. So a walk drops exactly the vertices dominated when it
starts, in whatever order it visits them: each has a dominator that
nothing dominates, which stays to the end of the walk. An unmarked vertex
would not go if checked, and an unmarked u dominates no one, since u gains
victims only when its own live set shrinks, which marks it. The marks that
drops set are ORs, so they do not depend on the order of the drops either.
An undominated vertex with no live dominator ends ``reduce`` in None
either way: the element walk returns None at such a u, and full passes
return None at their next forced walk, because the lowest such vertex
stays undominated and marked. So every pass fires the same reductions as a
full pass, and γ, witnesses, node counts and the MDS visit order are those
of full passes. The tests check ``reduce`` against a full-pass reference
(``tests/bruteforce.py``), on every state of every connected graph with
n ≤ 5 among others, and pin whole search trees
(``tests/golden/search_trees.json``).

Everything is deterministic: ties break toward the lowest vertex id.

A ``GammaTable`` is the context of one command: its node budget, the one
count of search nodes that every search made through it adds to, and what
the command has solved. Every public operation takes the table as its
optional ``table`` argument and makes an unbudgeted one when it is absent,
so the budget bounds the whole command: ``BudgetExceeded`` is raised at node
N + 1 of all its searches together, not of each. For the whole command the
table keeps γ of every labeled graph met and the every-MDS decisions
(``all_efficient_md``, ``all_independent_md``), keyed by the graph's closed
neighbourhood masks, so no labeled graph is solved or enumerated twice: not
the input graph, not a contraction at any depth of ``ct_definitional``, and
not a graph that two corpus graphs share as a contraction. Only results of
identical labeled graphs are shared; each kind of question still runs its
own code path (the contraction search compares γ values, the deciders
read the γ witness and the counting certificate, and then enumerate).

A decider asks whether every minimum dominating set satisfies a predicate,
efficiency or independence. The γ witness is one, so the decider checks it
first: when it fails, it is the counterexample and nothing is enumerated.
A witness that passes meets a counting certificate next: when the γ largest
closed-neighbourhood sizes sum to exactly n, the answer is yes with no
search. A dominating set D has Σ_{v∈D} |N[v]| ≥ n, with equality iff every
vertex has exactly one dominator in D, that is iff D is efficient; when
|D| = γ the sum is at most that of the γ largest sizes, which is n, so
every minimum dominating set is efficient, and so independent (two adjacent
members would both dominate each other). On a subcubic graph it fires
whenever γ = n / 4, since every member of a minimum dominating set then has
degree 3: so on every satisfiable subcubic build, where γ sits at its floor
and every minimum dominating set is a perfect code, no decider enumerates.
Only a witness that passes and a certificate that does not fire send the
decider to the enumeration, which then visits minimum dominating sets until
one fails, or all of them when the answer is yes. An efficient "yes" is
stored as the independent "yes" too.

``ct_gamma`` contracts nothing. It reads ct from its characterization:
the all-independent and all-efficient decisions, which ``blocker_report``
already holds in the table, and, only when both hold, ``forced(S, γ + 1)``
of one optimizer for each vertex set S that two edges span, which asks
whether a dominating set of at most γ + 1 vertices induces two edges.
``ct_definitional`` is the one contraction search, the oracle of
``ct_gamma`` and, through ct = 1, of ``one_contraction_decision``. It
searches contraction sequences of length at most three on closed masks
alone and returns the first sequence that lowers γ, so its answer can be
replayed: ``contract_masks`` puts the merged vertex in the lower endpoint's
slot, so every order of contracting one edge set gives one tuple, and
``GammaTable.solve_masks`` builds a graph from a tuple only when the table
lacks it. The search therefore solves each contracted edge set once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .graphs import BudgetExceeded, GraphError, LabeledGraph, _bits, _edges, contract_masks


@dataclass(frozen=True)
class GammaResult:
    gamma: int
    witness: frozenset[int]


@dataclass(frozen=True)
class Decision:
    """Yes/no verdict with an optional counterexample or witness payload."""

    holds: bool
    witness: Optional[object] = None


CT_IMPOSSIBLE = "impossible"


# -- set predicates -----------------------------------------------------------


def _members(g: LabeledGraph, s: frozenset[int] | set[int]) -> int:
    """The mask of s, which every set predicate reads; a member outside
    0..n-1 is a ``GraphError``."""
    n = g.n
    members = 0
    for v in s:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range")
        members |= 1 << v
    return members


def is_dominating(g: LabeledGraph, s: frozenset[int] | set[int]) -> bool:
    """True iff the union of closed neighborhoods over s covers every vertex."""
    return _union(g.closed_masks, _members(g, s)) == (1 << g.n) - 1


def is_independent(g: LabeledGraph, s: frozenset[int] | set[int]) -> bool:
    """True iff no edge joins two members of s."""
    masks = g.closed_masks
    members = _members(g, s)
    return all(masks[v] & members == 1 << v for v in s)


def is_efficient(g: LabeledGraph, s: frozenset[int] | set[int]) -> bool:
    """True iff every vertex has exactly one dominator in its closed neighborhood."""
    members = _members(g, s)
    return all((m & members).bit_count() == 1 for m in g.closed_masks)


def set_edges(g: LabeledGraph, s: frozenset[int] | set[int]) -> list[tuple[int, int]]:
    """Edges internal to s, sorted."""
    members = _members(g, s)
    return [(u, v) for u in _bits(members) for v in _bits(g.closed_masks[u] & members) if u < v]


# -- the solver core -----------------------------------------------------------


def _bit_list(mask: int) -> list[int]:
    """Set bits of a dense mask, ascending, decoded in one pass over bin()."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _union(masks: list[int], members: int) -> int:
    """The union of masks[v] over the set bits v of a sparse mask."""
    out = 0
    while members:
        low = members & -members
        out |= masks[low.bit_length() - 1]
        members ^= low
    return out


def _meet(masks: list[int], members: int, out: int) -> int:
    """out ANDed with masks[v] for every set bit v of a sparse mask."""
    while members and out:
        low = members & -members
        out &= masks[low.bit_length() - 1]
        members ^= low
    return out


class _Search:
    """Shared machinery for the optimizer and the enumerator.

    ``solution_preserving`` selects the reductions: the enumerator must keep
    every minimum dominating set, so it skips candidate dominance. Each node
    ticks ``table``'s count (a fresh unbudgeted table's when None).
    """

    solution_preserving = False

    def __init__(self, g: LabeledGraph, table: Optional[GammaTable]):
        self.nb = g.closed_masks
        self.n = g.n
        self.full = (1 << g.n) - 1
        self.tick = (GammaTable() if table is None else table).tick
        self.two, self.width, self.units = g.search_setup

    def greedy_cover(self) -> int:
        """Greedy max-coverage dominating set made irredundant, as a mask; the
        initial upper bound.

        The picks are walked in pick order, and each one whose closed
        neighbourhood the picks still kept cover without it is dropped.
        Dropping only shrinks what the others cover, so a pick kept stays
        needed: no member can leave the result without a vertex going
        undominated."""
        nb = self.nb
        und = self.full
        chosen = []
        while und:
            best_v, best_gain = -1, 0
            for v in range(self.n):
                gain = (nb[v] & und).bit_count()
                if gain > best_gain:
                    best_gain, best_v = gain, v
            chosen.append(best_v)
            und &= ~nb[best_v]
        kept = sum(1 << v for v in chosen)
        for v in chosen:
            if not nb[v] & ~_union(nb, kept & ~(1 << v)):
                kept &= ~(1 << v)
        return kept

    def reduce(
        self, und: int, avail: int, since: Optional[tuple[int, int]] = None
    ) -> Optional[tuple[int, int, int]]:
        """Apply the exact reductions to a fixpoint; (forced, und, avail) or None.

        Each pass takes forced unique dominators, then (unless
        solution_preserving) drops each marked candidate that some other
        available vertex dominates, then drops the undominated vertices that
        each marked undominated vertex dominates; each rule walks its marked
        vertices in ascending order and tests subsets by intersecting
        closed neighbourhoods (see the module docstring). None when some
        undominated vertex has no available dominator. ``since`` is
        the (und, avail) of a fixpoint of this search that the state was cut
        from by clearing bits; then only the vertices those bits can make
        fire start marked. With ``since`` None every vertex does.
        """
        nb = self.nb
        two = self.two
        candidate_dominance = not self.solution_preserving
        if since is None:
            mark_forced = mark_candidate = mark_element = self.full
        else:
            mark_forced = mark_element = _union(nb, since[1] & ~avail)
            mark_candidate = _union(nb, since[0] & ~und) if candidate_dominance else 0
        changed = True
        forced = 0
        while changed:
            changed = False
            todo = mark_forced & und
            mark_forced = 0
            while todo:
                low = todo & -todo
                todo ^= low
                if not und & low:
                    continue  # removed by an earlier forced take in this pass
                live = nb[low.bit_length() - 1] & avail
                if not live:
                    return None
                if not live & (live - 1):
                    d = live.bit_length() - 1
                    forced |= live
                    und &= ~nb[d]
                    avail &= ~live
                    changed = True
                    mark_candidate |= two[d]
            if not und:
                break
            if candidate_dominance:
                # y is useless if some other kept x covers a superset; over
                # holds the kept x whose closed neighbourhood contains cy
                todo = mark_candidate & avail
                mark_candidate = 0
                while todo:
                    low = todo & -todo
                    todo ^= low
                    y = low.bit_length() - 1
                    cy = nb[y] & und
                    if cy:
                        over = _meet(nb, cy, avail ^ low)
                        if not over & (low - 1) and not _union(nb, over) & und & ~cy:
                            continue  # each such x has a higher id and covers just cy
                    avail ^= low
                    changed = True
                    mark_forced |= nb[y]
                    mark_element |= nb[y]
            # element dominance: every v whose live dominators include all of
            # u's is automatically dominated once u is
            todo = mark_element & und
            mark_element = 0
            while todo:
                low = todo & -todo
                todo ^= low
                if not und & low:
                    continue  # dropped earlier in this walk
                lu = nb[low.bit_length() - 1] & avail
                if not lu:
                    return None
                victims = _meet(nb, lu, und ^ low)
                if victims & (low - 1):
                    for v in _bits(victims & (low - 1)):
                        if nb[v] & avail == lu:
                            victims ^= 1 << v  # of two equal live sets the lower id stays
                if victims:
                    und ^= victims
                    changed = True
                    mark_candidate |= _union(nb, victims)
        return forced, und, avail

    def lower_bound(
        self, und: int, avail: int, need: Optional[int] = None
    ) -> tuple[int, int]:
        """(bound, branch set): a lower bound on the dominators und still
        needs from avail, and the live dominators of the most constrained
        undominated vertex (fewest live dominators, lowest id on ties).

        With ``need`` given, a packing larger than ``need`` is returned as
        the bound at once: the caller only asks whether the bound exceeds
        ``need``, and the full bound is at least the packing."""
        nb = self.nb
        units = self.units
        # buckets[c]: live sets of the undominated vertices with c live
        # dominators, ascending by vertex, so the walk below is the sorted
        # (count, vertex) order
        buckets: list[list[int]] = [[] for _ in units]
        for v in _bit_list(und):
            live = nb[v] & avail
            if not live:
                return self.n + 1, 0  # this vertex can never be dominated
            buckets[live.bit_count()].append(live)
        blocked = 0
        packed = 0
        for bucket in buckets:
            for live in bucket:
                if not live & blocked:
                    packed += 1
                    blocked |= live
        for bucket in buckets:
            if bucket:
                branch = bucket[0]
                break
        if need is not None and packed > need:
            return packed, branch
        # fractional dual: weight 1/c_v where c_v is the best single-candidate
        # coverage available to v; feasible because each candidate's weights
        # then sum to at most 1. reach[c] is the union of N[x] over the
        # candidates x that cover c undominated vertices, so the vertices
        # first met at level c, walking down, have c_v = c; the sum counts
        # units of 1/lcm(1..width) = 1/units[1]
        reach = [0] * len(units)
        for x in _bit_list(avail):
            m = nb[x]
            reach[(m & und).bit_count()] |= m
        total = 0
        left = und
        for c in range(self.width, 0, -1):
            fresh = reach[c] & left
            if fresh:
                total += fresh.bit_count() * units[c]
                left ^= fresh
                if not left:
                    break
        return max(packed, -(-total // units[1])), branch

    def split_components(self, und: int) -> list[int]:
        """Partition und into masks no candidate can cover across.

        Uses the static two-hop reachability, which can only over-merge
        (sound: summing exact optima over the parts stays exact).
        """
        comps = []
        rest = und
        while rest:
            comp = rest & -rest
            frontier = comp
            while frontier:
                frontier = _union(self.two, frontier) & und & ~comp
                comp |= frontier
            comps.append(comp)
            rest ^= comp
        return comps


class _Optimizer(_Search):
    def forced(self, mask: int, limit: int) -> Optional[int]:
        """Can the vertices of ``mask`` be completed to a dominating set of at
        most ``limit`` vertices? The smallest such set as a mask, or None.

        The unreduced residual's bound is checked first, so a set it refuses
        costs no node and no ``reduce``. A residual perfect at a bound
        within its need is first asked for an exact cover of that many
        vertices, with that bound as its floor and the residual as its
        region; when there is none, the main search gets the floor one above
        it."""
        need = limit - mask.bit_count()
        if need < 0:
            return None
        und = self.full & ~_union(self.nb, mask)
        avail = self.full & ~mask
        rest, floor = None, 0
        if und:
            bound = self.lower_bound(und, avail, need)[0]
            if bound > need:
                return None
            if bound * self.width == und.bit_count():
                # perfect at its bound: an exact cover of bound vertices first
                rest = self.min_dominating(und, avail, bound, floor=bound, region=und)
                floor = bound + 1
        if rest is None and floor <= need:
            rest = self.min_dominating(und, avail, need, floor=floor)
        return None if rest is None else rest | mask

    def min_dominating(
        self, und: int, avail: int, limit: int, since: Optional[tuple[int, int]] = None,
        floor: int = 0, region: int = 0,
    ) -> Optional[int]:
        """The smallest set of at most ``limit`` vertices of avail that
        dominates und, as a mask, or None.

        ``since`` is handed to ``reduce``: the fixpoint (und, avail) this
        state was cut from (None at the root). The reduced state splits into
        parts no vertex covers across, and each part is one search node:
        counted, checked against its bound and cap, then branched on its
        branch set. Each child is the fixpoint with bits cleared, capped one
        below the best set found so far, so any set it returns is the new
        best. No set below ``floor`` exists, so a node stops branching once
        its best set meets its bound or the floor; a child's floor is one
        below that. ``region`` carries the perfect-code regime (the module
        docstring) down a chain of lone parts: the vertices an exact cover
        must still cover, 0 outside the regime. A take, forced or branched,
        needs its closed neighbourhood to have ``width`` vertices in the
        region and shrinks the region by it.
        """
        if not und:
            return 0
        if limit <= 0:
            return None
        red = self.reduce(und, avail, since)
        if red is None:
            return None
        forced, und, avail = red
        nb, width = self.nb, self.width
        if region:
            for x in _bits(forced):
                if (nb[x] & region).bit_count() != width:
                    return None
                region &= ~nb[x]
        k = forced.bit_count()
        if k > limit:
            return None
        if not und:
            return forced
        fixpoint = (und, avail)
        comps = self.split_components(und)
        lone = len(comps) == 1
        # a lone component's bound is only compared with limit - k; the
        # parts of a split need exact bounds for remaining and the caps
        need = limit - k if lone else None
        bounds = [self.lower_bound(c, avail, need) for c in comps]
        remaining = sum(bound for bound, _ in bounds)
        # a lone component's bound is checked in the part loop, after its
        # node is counted: the pinned node counts include such nodes
        if not lone and remaining > limit - k:
            return None
        # no vertex covers two parts, so the parts' sets and forced are disjoint
        for comp, (bound, branch_live) in zip(comps, bounds):
            remaining -= bound
            cap = limit - forced.bit_count() - remaining
            self.tick()
            if bound > cap:
                return None
            if cap * width == comp.bit_count():
                region = comp
            elif not lone:
                region = 0
            enough = max(bound, floor - k if lone else 0)
            best: Optional[int] = None
            sub_avail = avail
            for v in _bits(branch_live):
                sub_avail &= ~(1 << v)
                if region and (nb[v] & region).bit_count() != width:
                    continue  # no exact cover of the region holds v
                sub_cap = (cap if best is None else best.bit_count() - 1) - 1
                sub = self.min_dominating(
                    comp & ~nb[v], sub_avail, sub_cap, fixpoint, enough - 1, region & ~nb[v]
                )
                if sub is not None:
                    best = sub | (1 << v)
                    if best.bit_count() <= enough:
                        break
            if best is None:
                return None
            forced |= best
        return forced


class _Enumerator(_Search):
    """Visits every dominating set of size exactly gamma, each exactly once.

    Only solution-preserving reductions are used: forced unique dominators
    (every remaining solution must contain them) and element dominance
    (dropping an automatically-dominated vertex loses no solutions). Candidate
    dominance and component decomposition would merge or reorder solutions,
    so they stay out.
    """

    solution_preserving = True

    def __init__(self, g: LabeledGraph, gamma: int, table: Optional[GammaTable]):
        super().__init__(g, table)
        self.gamma = gamma

    def visit_all(self, emit: Callable[[frozenset[int]], bool]) -> bool:
        """Runs the search; emit returns False to stop early. Returns completion."""
        return self._rec(0, self.full, self.full, emit, None)

    def _rec(
        self, chosen: int, und: int, avail: int, emit, since: Optional[tuple[int, int]]
    ) -> bool:
        self.tick()
        red = self.reduce(und, avail, since)
        if red is None:
            return True
        forced, und, avail = red
        chosen |= forced
        size = chosen.bit_count()
        if size > self.gamma:
            return True
        if not und:
            if size == self.gamma:
                return emit(frozenset(_bits(chosen)))
            # a dominating set smaller than gamma cannot exist; padding a
            # smaller one with unused vertices would not dominate "exactly
            # once" semantics, and minimality forbids it anyway
            return True
        bound, branch_live = self.lower_bound(und, avail, self.gamma - size)
        if size + bound > self.gamma:
            return True
        fixpoint = (und, avail)
        sub_avail = avail
        for v in _bits(branch_live):
            sub_avail &= ~(1 << v)
            if not self._rec(chosen | (1 << v), und & ~self.nb[v], sub_avail, emit, fixpoint):
                return False
        return True


# -- public operations ---------------------------------------------------------


def domination_number(g: LabeledGraph, table: Optional[GammaTable] = None) -> GammaResult:
    """Exact domination number with a witness minimum dominating set.

    The search starts from the irredundant greedy cover, counts its nodes
    against ``table`` and stores nothing in it (``GammaTable.solve`` is the
    stored way to ask). The witness depends on the labeled graph alone.
    Connectivity not required.
    """
    if g.n == 0:
        raise GraphError("domination number of the empty graph is undefined")
    search = _Optimizer(g, table)
    greedy = search.greedy_cover()
    best = search.forced(0, greedy.bit_count() - 1) or greedy
    return GammaResult(best.bit_count(), frozenset(_bits(best)))


class GammaTable:
    """The context of one command: its node budget, its node count, and the
    γ results and every-MDS decisions of the graphs it met.

    Every search handed the table ticks its one counter ``nodes``; past
    ``budget`` (None: no limit) the search raises ``BudgetExceeded``, and so
    does every later search, so the budget bounds the whole command. The
    count stops at budget + 1, the node that was refused.

    γ results and decisions are kept for the whole command, keyed by the
    labeled adjacency: the tuple ``g.closed_masks``, which every search of g
    builds anyway, so the table keeps a tuple of ints per graph, never the
    graph itself; labels play no part. A miss of ``solve`` calls this module's
    ``domination_number`` (looked up at call time) and stores what it
    returns; a miss of ``decide`` checks the γ witness of ``solve`` and, only
    when that witness holds and the counting certificate (the module
    docstring) does not fire, enumerates until a minimum dominating set fails
    the predicate. A ``BudgetExceeded`` passes through and nothing is
    stored. A hit costs no search nodes and returns what a miss would: the
    witness depends on the graph alone, not on which caller asked first.
    So an efficient "yes" is also stored as the independent "yes", which a
    miss would return too, but an independent "no" is never stored as the
    efficient "no": its witness could differ from the one the efficient
    enumeration finds first.
    ``solve_masks`` asks by the key itself, so the contraction searches
    keep no graphs: a hit builds none, and a miss builds one with ``PLAIN``
    labels only to solve it.
    """

    def __init__(self, budget: Optional[int] = None):
        self.budget = budget
        self.nodes = 0
        self._results: dict[tuple[int, ...], GammaResult] = {}
        self._decisions: dict[tuple[Callable, tuple[int, ...]], Decision] = {}
        # one object per distinct result: small graphs repeat a few witnesses
        self._shared: dict = {}

    def tick(self):
        """Count a search node; raise ``BudgetExceeded`` past the budget."""
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            self.nodes = self.budget + 1
            raise BudgetExceeded(self.nodes)

    def solve(self, g: LabeledGraph) -> GammaResult:
        """γ of g with a witness, solved at most once per adjacency."""
        key = g.closed_masks
        result = self._results.get(key)
        if result is None:
            result = domination_number(g, self)
            result = self._results[key] = self._shared.setdefault(result, result)
        return result

    def solve_masks(self, masks: tuple[int, ...]) -> GammaResult:
        """γ of the graph with closed neighbourhoods ``masks``; a graph is
        built from them only on a miss."""
        result = self._results.get(masks)
        if result is None:
            result = self.solve(LabeledGraph.from_closed_masks(masks))
        return result

    def decide(
        self, g: LabeledGraph, holds: Callable[[LabeledGraph, frozenset[int]], bool]
    ) -> Decision:
        """Does every minimum dominating set of g satisfy ``holds``, which
        is ``is_efficient`` or ``is_independent``? Witness: one that does
        not. Decided at most once per adjacency and predicate; the deciders
        check that g is connected.

        The γ witness is a minimum dominating set, so a witness that fails
        ``holds`` is the answer without a search. A witness that holds is
        followed by the counting certificate: when the γ largest closed
        neighbourhoods have n vertices together, every minimum dominating
        set covers each vertex exactly once, so it is efficient and
        independent, and the answer is yes with no search. Otherwise the
        enumeration runs until a minimum dominating set fails ``holds``."""
        masks = g.closed_masks
        key = (holds, masks)
        decision = self._decisions.get(key)
        if decision is None:
            result = self.solve(g)
            bad: Optional[frozenset[int]] = result.witness
            if holds(g, bad):
                bad = None

                def check(s: frozenset[int]) -> bool:
                    nonlocal bad
                    if holds(g, s):
                        return True
                    bad = s
                    return False

                if sum(sorted(m.bit_count() for m in masks)[-result.gamma :]) != g.n:
                    visit_minimum_dominating_sets(g, check, self)
            decision = Decision(bad is None, bad)
            decision = self._decisions[key] = self._shared.setdefault(decision, decision)
            if holds is is_efficient and decision.holds:
                self._decisions[(is_independent, masks)] = decision
        return decision


def visit_minimum_dominating_sets(
    g: LabeledGraph,
    visitor: Callable[[frozenset[int]], bool],
    table: Optional[GammaTable] = None,
) -> int:
    """Stream every minimum dominating set to the visitor, which returns False
    to stop early. Order is the deterministic search-tree order (not sorted);
    each set is visited exactly once. Returns gamma."""
    table = GammaTable() if table is None else table
    gamma = table.solve(g).gamma
    _Enumerator(g, gamma, table).visit_all(visitor)
    return gamma


def enumerate_minimum_dominating_sets(
    g: LabeledGraph, table: Optional[GammaTable] = None
) -> Iterator[frozenset[int]]:
    """Yield every minimum dominating set, in lexicographic order of sorted members."""
    found: list[frozenset[int]] = []

    def grab(s: frozenset[int]) -> bool:
        found.append(s)
        return True

    visit_minimum_dominating_sets(g, grab, table)
    yield from sorted(found, key=sorted)


def _connected_table(g: LabeledGraph, table: Optional[GammaTable], question: str) -> GammaTable:
    """The table a blocker question on g runs on: ``table``, or a fresh
    unbudgeted one when it is None. The question needs a connected g."""
    if not g.is_connected():
        raise GraphError(f"{question} requires a connected graph")
    return GammaTable() if table is None else table


def all_efficient_md(g: LabeledGraph, table: Optional[GammaTable] = None) -> Decision:
    """Is every minimum dominating set efficient? Witness: a non-efficient MDS."""
    return _connected_table(g, table, "decider").decide(g, is_efficient)


def all_independent_md(g: LabeledGraph, table: Optional[GammaTable] = None) -> Decision:
    """Is every minimum dominating set independent? Witness: a non-independent MDS."""
    return _connected_table(g, table, "decider").decide(g, is_independent)


def one_contraction_decision(g: LabeledGraph, table: Optional[GammaTable] = None) -> Decision:
    """Can a single edge contraction decrease the domination number?

    Decided through the classical characterization: one contraction suffices
    exactly when some minimum dominating set contains an edge. The witness is
    an internal edge of such a set (contracting it merges two dominators).
    When γ = 1 the dominating vertex's closed neighbourhood is all of g, so
    the counting certificate of ``GammaTable.decide`` finds every minimum
    dominating set independent, and the answer is no with no search past γ.
    """
    table = _connected_table(g, table, "contraction decision")
    verdict = all_independent_md(g, table)
    if verdict.holds:
        return Decision(False)
    witness_set = verdict.witness
    edge = set_edges(g, witness_set)[0]
    return Decision(True, edge)


def ct_definitional(
    g: LabeledGraph, table: Optional[GammaTable] = None
) -> tuple[int | str, tuple[tuple[int, int], ...]]:
    """Ground-truth oracle for ``ct_gamma`` and, through k = 1, for
    ``one_contraction_decision``: the least k <= 3 such that some k
    contractions lower gamma, found by contracting every edge of every graph
    on a level and comparing gammas.

    Returns (k, edges): contracting the k edges in turn lowers gamma. Each
    edge (u, v), u < v, names vertices of the graph the earlier contractions
    left, numbered as ``contract_masks`` numbers them. Returns
    (CT_IMPOSSIBLE, ()) when gamma(g) = 1 (no contraction sequence can ever
    help) or when no sequence of at most three succeeds.
    """
    table = _connected_table(g, table, "contraction search")
    gamma = table.solve(g).gamma
    if gamma == 1:
        return CT_IMPOSSIBLE, ()
    level = {g.closed_masks: ()}
    for k in (1, 2, 3):
        # next_level holds each graph k contractions make once, as its closed
        # masks, with the first edge sequence that made it: every order of
        # contracting one edge set gives one tuple (``contract_masks``). γ is
        # asked by the tuple, so a graph is built only for a tuple the table
        # lacks
        next_level: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
        for masks, sequence in level.items():
            for u, v in _edges(masks):
                contracted = contract_masks(masks, u, v)
                if contracted in next_level:
                    continue
                if table.solve_masks(contracted).gamma < gamma:
                    return k, sequence + ((u, v),)
                if k < 3:
                    next_level[contracted] = sequence + ((u, v),)
        level = next_level
    return CT_IMPOSSIBLE, ()


def _two_edges_dominate(g: LabeledGraph, gamma: int, table: GammaTable) -> bool:
    """Does some dominating set of at most gamma + 1 vertices induce two edges?

    Two edges span three vertices when they share one and four when they do
    not. Each such vertex set is asked once, as ``forced(S, gamma + 1)`` of
    one optimizer, whose nodes all tick ``table``: the answer is yes when
    some S completes.
    """
    search = _Optimizer(g, table)
    edges = [(1 << u) | (1 << v) for u, v in g.edges()]
    tried = set()
    for i, a in enumerate(edges):
        for b in edges[i + 1 :]:
            pair = a | b
            if pair in tried:
                continue
            tried.add(pair)
            if search.forced(pair, gamma + 1) is not None:
                return True
    return False


def ct_gamma(g: LabeledGraph, table: Optional[GammaTable] = None) -> int | str:
    """Minimum number of edge contractions that lower gamma, from its
    characterization (Huang & Xu 2010).

    For connected g with gamma >= 2: ct = 1 iff some minimum dominating set
    is not independent; otherwise ct = 2 iff some minimum dominating set is
    not efficient or some dominating set of gamma + 1 vertices induces at
    least two edges; otherwise ct = 3. Returns CT_IMPOSSIBLE when
    gamma(g) = 1. The two deciders are the table's, so ``blocker_report``
    reads them without a search; ``ct_definitional`` is the contraction
    search it is checked against.
    """
    table = _connected_table(g, table, "ct_gamma")
    gamma = table.solve(g).gamma
    if gamma == 1:
        return CT_IMPOSSIBLE
    if not all_independent_md(g, table).holds:
        return 1
    if not all_efficient_md(g, table).holds or _two_edges_dominate(g, gamma, table):
        return 2
    return 3


# -- blocker report --------------------------------------------------------------


@dataclass(frozen=True)
class BlockerReport:
    gamma: int
    gamma_witness: frozenset[int]
    one_contraction: Decision
    all_efficient: Decision
    all_independent: Decision
    ct: int | str  # 1 | 2 | 3 | CT_IMPOSSIBLE | "unknown" (budget ran out)

    def to_json_dict(self) -> dict:
        witnesses: dict = {"gamma_witness": sorted(self.gamma_witness)}
        if self.one_contraction.holds:
            witnesses["one_contraction_edge"] = list(self.one_contraction.witness)
        if not self.all_efficient.holds:
            witnesses["non_efficient_mds"] = sorted(self.all_efficient.witness)
        if not self.all_independent.holds:
            witnesses["non_independent_mds"] = sorted(self.all_independent.witness)
        return {
            "gamma": self.gamma,
            "one_contraction": "yes" if self.one_contraction.holds else "no",
            "all_efficient": "yes" if self.all_efficient.holds else "no",
            "all_independent": "yes" if self.all_independent.holds else "no",
            "ct_gamma": self.ct,
            "witnesses": witnesses,
        }


def blocker_report(g: LabeledGraph, table: Optional[GammaTable] = None) -> BlockerReport:
    """Full contraction-blocker classification of a connected graph.

    One ``GammaTable`` serves every part, so γ of g is solved once. When the
    table's budget runs out in ``ct_gamma`` the report says ``"unknown"``.
    """
    table = _connected_table(g, table, "blocker report")
    result = table.solve(g)
    efficient = all_efficient_md(g, table)
    independent = all_independent_md(g, table)
    one = one_contraction_decision(g, table)
    try:
        ct: int | str = ct_gamma(g, table)
    except BudgetExceeded:
        ct = "unknown"
    return BlockerReport(result.gamma, result.witness, one, efficient, independent, ct)
