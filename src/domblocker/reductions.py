"""Gadget compilers from CNF formulas (and degree-{2,3} graphs) to domination
instances, plus the set/assignment converters the correctness arguments use.

Three constructions:

* ``build_subcubic``: one-in-three formula -> subcubic graph whose domination
  number hits the structural floor 3|X| + |C| exactly when the formula is
  satisfiable. Each variable becomes a 9-cycle with distinguished true/false
  vertices; each clause becomes a triangle of l-vertices, three variable
  vertices, and a clause vertex wired to the variable cycles.
* ``build_clawfree``: connected degree-{2,3} graph -> claw-free subcubic graph
  where every vertex is replaced by an 18-vertex (degree 3) or 7-vertex
  (degree 2) gadget and gamma grows by exactly 5|V_3| + 2|V_2|.
* ``build_p7free``: 3-SAT formula -> graph with no induced 7-vertex path
  (variable triangles plus a clause clique) whose gamma equals |X| exactly
  when the formula is satisfiable.

Builders are deterministic: identical input gives a bit-identical graph.
Every converter raises ``ReductionError`` on input it cannot map, a member
outside 0..n-1 included: ``mds_to_assignment_*`` need a dominating set of
the built graph with the floor's number of members (``_check_floor_set``),
and ``project_dominating_set`` needs the gadget counts of a minimum
dominating set, which ``ClawfreeReductionMap.gadget_count_problems`` lists
for ``verify`` too. ``SubcubicReductionMap.gadget_floor_problems`` is the
subcubic build's per-gadget rule: where a dominating set falls below a
gadget's floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import (
    Assignment,
    Formula1in3,
    Formula3Sat,
    incidence_connected,
    validate_1in3,
    validate_3sat,
)
from .domination import is_dominating
from .graphs import GraphError, LabeledGraph, VertexLabel


class ReductionError(ValueError):
    """Invalid input to a builder or converter."""


def _check_dominating(g: LabeledGraph, d: frozenset[int] | set[int], message: str) -> None:
    """A converter's input must dominate g: ``ReductionError(message)`` when
    it does not, and one that names a member outside 0..n-1."""
    try:
        dominating = is_dominating(g, d)
    except GraphError as exc:
        raise ReductionError(str(exc)) from exc
    if not dominating:
        raise ReductionError(message)


def _check_floor_set(g: LabeledGraph, d: frozenset[int], floor: int) -> None:
    """The input of ``mds_to_assignment_*``: a dominating set of the built
    graph g with the floor's number of members."""
    if len(d) != floor:
        raise ReductionError(f"dominating set has size {len(d)}, expected {floor}")
    _check_dominating(g, d, "input set does not dominate the built graph")


def _rot(i: int, j: int) -> int:
    """Index i rotated by port j, 1-based cyclic over {1,2,3}."""
    return (i - 1 + j - 1) % 3 + 1


# -- subcubic construction ------------------------------------------------------

# Cyclic order of the 9-cycle variable gadget: every cycle_u vertex ends up
# adjacent to its same-index true vertex and to the previous-index false
# vertex, and every false vertex to its same-index true vertex. The converter
# and decider logic assumes exactly this wiring.
_VAR_CYCLE = ("u3", "F2", "T2", "u2", "F1", "T1", "u1", "F3", "T3")
_VAR_OFFSET = {name: i for i, name in enumerate(_VAR_CYCLE)}


@dataclass(frozen=True)
class SubcubicReductionMap:
    formula: Formula1in3
    true_ids: dict[int, dict[int, int]]  # variable -> occurrence index -> vertex
    false_ids: dict[int, dict[int, int]]
    cycle_u_ids: dict[int, dict[int, int]]
    clause_vertex: dict[int, int]  # clause index -> clause vertex
    variable_vertex: dict[int, dict[int, int]]  # clause index -> variable -> vertex
    l_vertex: dict[int, dict[int, int]]
    occ: dict[tuple[int, int], int]  # (variable, clause index) -> occurrence index

    def gadget_vertices(self, x: int) -> frozenset[int]:
        ids = set(self.true_ids[x].values())
        ids |= set(self.false_ids[x].values())
        ids |= set(self.cycle_u_ids[x].values())
        return frozenset(ids)

    def clause_gadget_vertices(self, c: int) -> frozenset[int]:
        ids = {self.clause_vertex[c]}
        ids |= set(self.variable_vertex[c].values())
        ids |= set(self.l_vertex[c].values())
        return frozenset(ids)

    def expected_gamma(self) -> int:
        return 3 * self.formula.num_vars + len(self.formula.clauses)

    def gadget_floor_problems(self, d: frozenset[int] | set[int]) -> list[str]:
        """Where a dominating set d falls below a gadget's floor: a variable
        gadget owes three members (the three cycle_u closed neighborhoods are
        disjoint inside it) and a clause gadget owes one (the l-triangle must
        be dominated from within). Empty list when every floor holds."""
        problems = []
        for x in range(1, self.formula.num_vars + 1):
            count = len(self.gadget_vertices(x) & d)
            if count < 3:
                problems.append(f"variable gadget {x} holds {count} < 3 members")
        for c in range(len(self.formula.clauses)):
            if not self.clause_gadget_vertices(c) & d:
                problems.append(f"clause gadget {c} holds no member")
        return problems

    def to_json_dict(self) -> dict:
        return {
            "target": "subcubic",
            "num_vars": self.formula.num_vars,
            "true_ids": {str(x): d for x, d in self.true_ids.items()},
            "false_ids": {str(x): d for x, d in self.false_ids.items()},
            "cycle_u_ids": {str(x): d for x, d in self.cycle_u_ids.items()},
            "clause_vertex": {str(c): v for c, v in self.clause_vertex.items()},
            "variable_vertex": {str(c): d for c, d in self.variable_vertex.items()},
            "l_vertex": {str(c): d for c, d in self.l_vertex.items()},
            "occ": {f"{x},{c}": i for (x, c), i in self.occ.items()},
        }


def build_subcubic(f: Formula1in3) -> tuple[LabeledGraph, SubcubicReductionMap]:
    problems = validate_1in3(f)
    if problems:
        raise ReductionError("invalid one-in-three formula: " + "; ".join(problems))
    if not incidence_connected(f.num_vars, f.clauses):
        raise ReductionError(
            "formula's variable/clause incidence is disconnected; the built graph "
            "would be disconnected"
        )

    edges: list[tuple[int, int]] = []
    labels: list[VertexLabel] = []

    def var_vertex(x: int, name: str) -> int:
        return (x - 1) * 9 + _VAR_OFFSET[name]

    for x in range(1, f.num_vars + 1):
        base = (x - 1) * 9
        for i in range(9):
            edges.append((base + i, base + (i + 1) % 9))
        for name in _VAR_CYCLE:
            kind = {"u": "cycle_u", "F": "false", "T": "true"}[name[0]]
            labels.append(VertexLabel(kind, var=x, index=int(name[1])))
    clause_base = 9 * f.num_vars

    true_ids = {x: {i: var_vertex(x, f"T{i}") for i in (1, 2, 3)} for x in range(1, f.num_vars + 1)}
    false_ids = {x: {i: var_vertex(x, f"F{i}") for i in (1, 2, 3)} for x in range(1, f.num_vars + 1)}
    cycle_u_ids = {x: {i: var_vertex(x, f"u{i}") for i in (1, 2, 3)} for x in range(1, f.num_vars + 1)}

    clause_vertex: dict[int, int] = {}
    variable_vertex: dict[int, dict[int, int]] = {}
    l_vertex: dict[int, dict[int, int]] = {}
    occ: dict[tuple[int, int], int] = {}
    occurrences_seen = {x: 0 for x in range(1, f.num_vars + 1)}

    for ci, clause in enumerate(f.clauses):
        base = clause_base + ci * 7
        cv = base
        clause_vertex[ci] = cv
        labels.append(VertexLabel("clause", clause=ci))
        variable_vertex[ci] = {}
        l_vertex[ci] = {}
        for slot, x in enumerate(clause):
            variable_vertex[ci][x] = base + 1 + slot
            labels.append(VertexLabel("variable", clause=ci, var=x))
        for slot, x in enumerate(clause):
            l_vertex[ci][x] = base + 4 + slot
            labels.append(VertexLabel("l", clause=ci, var=x))
        lv = [l_vertex[ci][x] for x in clause]
        edges += [(lv[0], lv[1]), (lv[0], lv[2]), (lv[1], lv[2])]
        for x in clause:
            edges.append((variable_vertex[ci][x], l_vertex[ci][x]))
            occurrences_seen[x] += 1
            i = occurrences_seen[x]
            occ[(x, ci)] = i
            edges.append((variable_vertex[ci][x], false_ids[x][i]))
            edges.append((cv, true_ids[x][i]))

    n = clause_base + 7 * len(f.clauses)
    g = LabeledGraph.from_edges(n, edges, labels)
    rmap = SubcubicReductionMap(
        f, true_ids, false_ids, cycle_u_ids, clause_vertex, variable_vertex, l_vertex, occ
    )
    return g, rmap


def assignment_to_mds_subcubic(rmap: SubcubicReductionMap, a: Assignment) -> frozenset[int]:
    """The canonical dominating set of a one-in-three satisfying assignment:
    the true triple or false triple per variable, plus the true variable's
    l-vertex per clause. Size 3|X| + |C|."""
    f = rmap.formula
    if len(a) != f.num_vars:
        raise ReductionError(f"assignment has {len(a)} values for {f.num_vars} variables")
    ci = f.violated(a)
    if ci is not None:
        raise ReductionError(
            f"clause {ci} has {sum(a[x - 1] for x in f.clauses[ci])} true variables; "
            "the l-vertex choice needs exactly one"
        )
    chosen = {rmap.l_vertex[i][x] for i, clause in enumerate(f.clauses) for x in clause if a[x - 1]}
    for x in range(1, f.num_vars + 1):
        chosen.update((rmap.true_ids if a[x - 1] else rmap.false_ids)[x].values())
    return frozenset(chosen)


def mds_to_assignment_subcubic(
    rmap: SubcubicReductionMap, g: LabeledGraph, d: frozenset[int]
) -> Assignment:
    """Extract the satisfying assignment from a minimum dominating set of the
    target size: a variable is true iff its whole true triple is in the set."""
    f = rmap.formula
    _check_floor_set(g, d, rmap.expected_gamma())
    assignment = tuple(
        all(v in d for v in rmap.true_ids[x].values()) for x in range(1, f.num_vars + 1)
    )
    ci = f.violated(assignment)
    if ci is not None:
        raise ReductionError(f"extracted assignment does not one-in-three satisfy clause {ci}")
    return assignment


# -- claw-free replacement construction ---------------------------------------------

# 18-vertex gadget replacing a degree-3 vertex: an 18-cycle with chords
# u_i w_i, giving triangles v_i u_i w_i at the three ports. Every degree-3
# vertex of the gadget lies in a triangle, so the replacement is claw-free.
_D3_ORDER = (
    "v1", "u1", "a1", "b1", "c1", "w2",
    "v2", "u2", "a2", "b2", "c2", "w3",
    "v3", "u3", "a3", "b3", "c3", "w1",
)

# 7-vertex path gadget replacing a degree-2 vertex.
_D2_ORDER = ("v1", "u1", "a1", "b1", "c1", "u2", "v2")

_ROLE_KIND = {"v": "port", "u": "gadget_u", "w": "gadget_w", "a": "gadget_a", "b": "gadget_b", "c": "gadget_c"}


@dataclass(frozen=True)
class ClawfreeReductionMap:
    source: LabeledGraph
    kind: dict[int, int]  # source vertex -> 2 or 3 (its degree)
    ids: dict[int, dict[str, int]]  # source vertex -> role name -> vertex id
    port_of: dict[tuple[int, int], int]  # (source vertex, neighbor) -> port index
    v2_list: tuple[int, ...]
    v3_list: tuple[int, ...]

    def gadget_vertices(self, v: int) -> frozenset[int]:
        return frozenset(self.ids[v].values())

    def offset(self) -> int:
        return 5 * len(self.v3_list) + 2 * len(self.v2_list)

    def gadget_count_problems(self, d_prime: frozenset[int] | set[int]) -> list[str]:
        """Where d_prime breaks the gadget counts of a minimum dominating set
        of the replacement graph: 5 or 6 members in each 18-vertex gadget,
        2 or 3 in each 7-vertex gadget. Empty list when every count holds."""
        problems = []
        for v in range(self.source.n):
            count = len(self.gadget_vertices(v) & d_prime)
            low = 5 if self.kind[v] == 3 else 2
            if count not in (low, low + 1):
                problems.append(
                    f"gadget of source vertex {v} holds {count} set members, "
                    f"expected {low} or {low + 1}"
                )
        return problems

    def to_json_dict(self) -> dict:
        return {
            "target": "clawfree",
            "kind": {str(v): k for v, k in self.kind.items()},
            "ids": {str(v): d for v, d in self.ids.items()},
            "port_of": {f"{v},{u}": j for (v, u), j in self.port_of.items()},
            "v2": list(self.v2_list),
            "v3": list(self.v3_list),
        }


def build_clawfree(g: LabeledGraph) -> tuple[LabeledGraph, ClawfreeReductionMap]:
    if not g.is_connected():
        raise ReductionError("replacement construction requires a connected source")
    if g.n < 2:
        raise ReductionError("source graph too small")
    for v in range(g.n):
        if g.degree(v) not in (2, 3):
            raise ReductionError(f"vertex {v} has degree {g.degree(v)}, need 2 or 3")

    edges: list[tuple[int, int]] = []
    labels: list[VertexLabel] = []
    ids: dict[int, dict[str, int]] = {}
    kind: dict[int, int] = {}
    port_of: dict[tuple[int, int], int] = {}
    cursor = 0
    for v in range(g.n):
        deg = g.degree(v)
        kind[v] = deg
        order = _D3_ORDER if deg == 3 else _D2_ORDER
        ids[v] = {name: cursor + i for i, name in enumerate(order)}
        for name in order:
            labels.append(VertexLabel(_ROLE_KIND[name[0]], source=v, index=int(name[1])))
        if deg == 3:
            for i in range(18):
                edges.append((cursor + i, cursor + (i + 1) % 18))
            for i in (1, 2, 3):
                edges.append((ids[v][f"u{i}"], ids[v][f"w{i}"]))
            cursor += 18
        else:
            for i in range(6):
                edges.append((cursor + i, cursor + i + 1))
            cursor += 7
        for j, u in enumerate(g.neighbors(v), start=1):
            port_of[(v, u)] = j
    for u, v in g.edges():
        edges.append((ids[u][f"v{port_of[(u, v)]}"], ids[v][f"v{port_of[(v, u)]}"]))

    target = LabeledGraph.from_edges(cursor, edges, labels)
    rmap = ClawfreeReductionMap(
        g,
        kind,
        ids,
        port_of,
        tuple(v for v in range(g.n) if kind[v] == 2),
        tuple(v for v in range(g.n) if kind[v] == 3),
    )
    return target, rmap


def lift_dominating_set(
    rmap: ClawfreeReductionMap, d: frozenset[int] | set[int]
) -> frozenset[int]:
    """Lift a dominating set of the source to one of the replacement graph of
    size |d| + 5|V_3| + 2|V_2|.

    A gadget whose source vertex is in d contributes its ports plus the three
    (or one) b-vertices; a gadget dominated through port j contributes the
    5-vertex (or 2-vertex) pattern that covers everything except port j, which
    the neighboring gadget's port covers across the port edge.
    """
    g = rmap.source
    _check_dominating(g, d, "input does not dominate the source graph")
    chosen: set[int] = set()
    for v in range(g.n):
        roles = rmap.ids[v]
        if v in d:
            if rmap.kind[v] == 3:
                chosen.update(roles[name] for name in ("v1", "v2", "v3", "b1", "b2", "b3"))
            else:
                chosen.update(roles[name] for name in ("v1", "v2", "b1"))
        else:
            dominator = next(u for u in g.neighbors(v) if u in d)
            j = rmap.port_of[(v, dominator)]
            if rmap.kind[v] == 3:
                pattern = (
                    f"a{_rot(1, j)}",
                    f"c{_rot(3, j)}",
                    f"w{_rot(2, j)}",
                    f"u{_rot(3, j)}",
                    f"b{_rot(2, j)}",
                )
            else:
                pattern = ("a1", "u2") if j == 1 else ("c1", "u1")
            chosen.update(roles[name] for name in pattern)
    return frozenset(chosen)


def project_dominating_set(
    rmap: ClawfreeReductionMap, d_prime: frozenset[int] | set[int]
) -> frozenset[int]:
    """Project a minimum dominating set of the replacement graph back to the
    source: v is selected iff its gadget holds the larger of the two possible
    per-gadget counts (6 of 18, or 3 of 7). The first gadget count that
    ``gadget_count_problems`` finds broken is the ``ReductionError``."""
    problems = rmap.gadget_count_problems(d_prime)
    if problems:
        raise ReductionError(f"{problems[0]}; input is not a minimum dominating set")
    counts = [len(rmap.gadget_vertices(v) & d_prime) for v in range(rmap.source.n)]
    if sum(counts) != len(d_prime):
        raise ReductionError("set members found outside all gadgets")
    # each gadget holds its low count (5 of 18, 2 of 7) or one more, and the
    # low counts sum to the offset, so |D'| = |selected| + offset holds here
    selected = {v for v, count in enumerate(counts) if count in (3, 6)}
    if not is_dominating(rmap.source, selected):
        raise ReductionError("projection does not dominate the source graph")
    return frozenset(selected)


# -- induced-P7-free construction -----------------------------------------------------


@dataclass(frozen=True)
class P7ReductionMap:
    formula: Formula3Sat
    pos_id: dict[int, int]
    neg_id: dict[int, int]
    u_id: dict[int, int]
    clause_id: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "target": "p7free",
            "pos_id": {str(x): v for x, v in self.pos_id.items()},
            "neg_id": {str(x): v for x, v in self.neg_id.items()},
            "u_id": {str(x): v for x, v in self.u_id.items()},
            "clause_id": {str(c): v for c, v in self.clause_id.items()},
        }


def build_p7free(f: Formula3Sat) -> tuple[LabeledGraph, P7ReductionMap]:
    problems = validate_3sat(f)
    if problems:
        raise ReductionError("invalid 3-SAT formula: " + "; ".join(problems))
    if not f.clauses:
        raise ReductionError("need at least one clause for a connected construction")
    used = {abs(l) for c in f.clauses for l in c}
    if used != set(range(1, f.num_vars + 1)):
        missing = sorted(set(range(1, f.num_vars + 1)) - used)
        raise ReductionError(f"variables {missing} occur in no clause; graph would be disconnected")

    edges: list[tuple[int, int]] = []
    labels: list[VertexLabel] = []
    pos_id, neg_id, u_id = {}, {}, {}
    for x in range(1, f.num_vars + 1):
        base = (x - 1) * 3
        pos_id[x], neg_id[x], u_id[x] = base, base + 1, base + 2
        labels += [
            VertexLabel("pos_literal", var=x),
            VertexLabel("neg_literal", var=x),
            VertexLabel("triangle_u", var=x),
        ]
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    clause_id = {}
    base = 3 * f.num_vars
    for ci, clause in enumerate(f.clauses):
        cv = base + ci
        clause_id[ci] = cv
        labels.append(VertexLabel("clause", clause=ci))
        for lit in clause:
            target = pos_id[lit] if lit > 0 else neg_id[-lit]
            edges.append((cv, target))
    for i in range(len(f.clauses)):
        for j in range(i + 1, len(f.clauses)):
            edges.append((clause_id[i], clause_id[j]))

    n = 3 * f.num_vars + len(f.clauses)
    g = LabeledGraph.from_edges(n, edges, labels)
    return g, P7ReductionMap(f, pos_id, neg_id, u_id, clause_id)


def assignment_to_mds_p7(rmap: P7ReductionMap, a: Assignment) -> frozenset[int]:
    """One literal vertex per variable, matching the assignment; size |X|."""
    f = rmap.formula
    if len(a) != f.num_vars:
        raise ReductionError(f"assignment has {len(a)} values for {f.num_vars} variables")
    return frozenset(
        rmap.pos_id[x] if a[x - 1] else rmap.neg_id[x] for x in range(1, f.num_vars + 1)
    )


def mds_to_assignment_p7(
    rmap: P7ReductionMap, g: LabeledGraph, d: frozenset[int]
) -> Assignment:
    f = rmap.formula
    _check_floor_set(g, d, f.num_vars)
    assignment = tuple(rmap.pos_id[x] in d for x in range(1, f.num_vars + 1))
    ci = f.violated(assignment)
    if ci is not None:
        raise ReductionError(f"extracted assignment does not satisfy clause {ci}")
    return assignment
