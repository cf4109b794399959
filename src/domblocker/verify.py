"""Executable verification of the construction guarantees against independent
oracles, with machine-readable verdicts.

Each check compares two independently computed sides (brute-force formula
satisfiability vs. exact domination numbers, the definitional
edge-contraction search vs. the characterizations through minimum
dominating sets, structural recognizers vs. construction intent). A verdict
is "pass", "fail" (with a re-checkable counterexample payload), or
"skipped" when the node budget ran out; failures are never silently
truncated.

Every claim is a check that one runner, ``_claim``, runs; how a claim ends
is decided there alone. A check returns ``(ok, detail, counterexample)``,
and a pass drops the counterexample. ``BudgetExceeded`` makes the claim
skipped, and a ``GraphError`` or ``ReductionError`` that escapes the check
makes it fail with the error's message as its one problem. The corpus
claims run one check per graph, and a pass there means "go on to the next
graph".

Every claim and suite takes the run's ``GammaTable`` as its required
``table``, and reads no other search context, so the table's node budget
bounds the whole run: the induced-P7 certificate ticks it at every extension
node. Once it is spent, every later search raises ``BudgetExceeded``, and
every claim that still needs a search node is ``skipped``. A claim that
finished before keeps its verdict. The table keeps γ and the every-MDS
decisions for the whole run, so no labeled graph is solved or enumerated
twice: the ``contraction`` suite walks its corpus once and evaluates both of
its claims on each graph, contractions that several corpus graphs share are
solved once, and ``verify_subcubic`` answers a formula's two claims from one
build, one brute force and one γ. The characterization and the negated
all-independent decider read one decision of the table, which is the γ
witness when that set fails the predicate and the enumeration's first
failing set otherwise. So every decider's "no" is re-checked in full by set
predicates (``_counterexample_problems``): its witness dominates, has γ
members and fails the predicate. A decider's "yes" may come from counting
alone (``GammaTable.decide`` answers yes when the γ largest closed
neighbourhoods hold n vertices together), and on a tight subcubic build it
always does, so ``subcubic-all-efficient-iff-tight`` would reduce to
comparing γ with n / 4. The claim therefore checks a "yes" against the
enumeration: every minimum dominating set must be efficient. The
definitional contract-and-compare oracle stays independent of the deciders,
and brute-force satisfiability stays independent of every γ.

``ct_definitional`` is the one contraction search, and both corpus claims
ask it: ``contraction-equivalences`` reads whether one contraction lowers γ
as ct = 1, and ``three-contractions-suffice`` compares it with ``ct_gamma``,
which reads ct from the deciders and forced-set solves (its
characterization). The characterization answers 1, 2 or 3 by construction,
so the search is what the claim checks, and its answer is a certificate:
the claim replays the search's edge sequence with ``contract_masks`` and
fails unless γ drops. The search contracts closed masks and asks the table
by the tuple, so a contraction that the table has solved is never rebuilt,
and the replay is a table hit. Without a budget each claim keeps the
verdict it has when it runs alone: its first failure, with the same counts
and details.

The ``subcubic`` suite checks the isolated variable gadget and both claims
on the two bundled formulas; the γ claim also checks its witness against
every gadget's floor (``SubcubicReductionMap.gadget_floor_problems``), as the
``clawfree-gamma-offset`` claim lists every replacement gadget whose count
its witness breaks (``ClawfreeReductionMap.gadget_count_problems``, the rule
the projection raises on). Every valid formula on three or four variables
is one of them up to clause order: at three variables the only clause is
(1,2,3), and at four each clause leaves out a different variable. So random
formulas of those sizes would only check the same two again.

A witness that holds a member outside 0..n-1 fails its claim with a
problem that names the member, and raises nothing, on every path: a
decider's counterexample and a witness handed to a reduction map are
checked inside the claim, and a γ witness that a decider hands to its set
predicate fails the claim through the runner.

On a satisfiable formula the ``subcubic`` and ``p7`` claims check the
reduction both ways: the brute-force assignment maps to a dominating set of
the floor size, and, when γ is the floor, the γ witness maps back to a
satisfying assignment. γ is solved without a warm start, so its witness is
the optimizer's own, and mapping it back is a check independent of the
assignment.

``run_suite`` is the one way into the suites. It hands each suite only the
options that suite takes, runs "all" in name order on one table, and looks
each suite up in ``SUITES`` when it runs, so a wrapped entry is called.
"""

from __future__ import annotations

import inspect
import itertools
import random
from dataclasses import dataclass
from typing import Optional

from . import reductions
from .cnf import (
    Formula1in3,
    Formula3Sat,
    satisfiable_fixture,
    solve_1in3_brute,
    solve_3sat_brute,
    unsatisfiable_fixture,
)
from .domination import (
    BudgetExceeded,
    GammaTable,
    all_efficient_md,
    all_independent_md,
    ct_definitional,
    ct_gamma,
    enumerate_minimum_dominating_sets,
    is_dominating,
    is_efficient,
    is_independent,
    one_contraction_decision,
    CT_IMPOSSIBLE,
)
from .graphs import (
    GraphError,
    LabeledGraph,
    complete_graph,
    contract_masks,
    cycle_graph,
    find_claw,
    find_induced_path,
    induced_subgraph,
    prism_graph,
)
from .smallgraphs import connected_graphs_upto, random_connected_graph, random_degree23_graph


@dataclass
class ClaimVerdict:
    claim: str
    instance: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    counterexample: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        d = {"claim": self.claim, "instance": self.instance, "status": self.status}
        if self.detail:
            d["detail"] = self.detail
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        return d


def _claim(claim: str, instance: str, check) -> ClaimVerdict:
    """Run one claim's check, the one place a claim ends. ``check()`` gives
    ``(ok, detail, counterexample)``, and a pass drops the counterexample.
    A spent budget makes the claim skipped. A ``GraphError`` or
    ``ReductionError`` that escapes the check (say, a decider's set
    predicate meeting a γ witness member outside the graph) makes it fail,
    with the error's message as its one problem."""
    try:
        ok, detail, counterexample = check()
    except BudgetExceeded as exc:
        return ClaimVerdict(claim, instance, "skipped", f"budget exceeded: {exc}")
    except (GraphError, reductions.ReductionError) as exc:
        return ClaimVerdict(
            claim, instance, "fail", f"check raised {type(exc).__name__}", {"problems": [str(exc)]}
        )
    return ClaimVerdict(claim, instance, "pass" if ok else "fail", detail, None if ok else counterexample)


def _counterexample_problems(g, gamma, witness, holds) -> list[str]:
    """A decider's "no" re-checked in full: its witness must be a
    dominating set of g with gamma members that fails ``holds``. The witness
    is the γ witness or a set the enumeration found, so no part of that is
    taken on trust. Empty list when all three hold."""
    kind = holds.__name__.removeprefix("is_")
    name = f"non-{kind} witness"
    if witness is None:
        return [f"no {name}"]
    try:
        dominating = is_dominating(g, witness)
    except GraphError as exc:
        return [f"{name}: {exc}"]
    problems = []
    if not dominating:
        problems.append(f"{name} does not dominate")
    if len(witness) != gamma:
        problems.append(f"{name} has {len(witness)} members, not gamma={gamma}")
    if holds(g, witness):
        problems.append(f"{name} is {kind}")
    return problems


# -- subcubic construction checks ----------------------------------------------


def _map_problems(g, rmap, floor, assignment, result, to_set, to_assignment) -> list[str]:
    """The reduction's maps on a satisfiable formula: ``to_set`` takes the
    assignment to a dominating set of g with ``floor`` members and, when γ
    is the floor, ``to_assignment`` takes the γ witness back to a satisfying
    assignment. Empty list when both hold."""
    problems = []
    try:
        forward = to_set(rmap, assignment)
        if len(forward) != floor or not is_dominating(g, forward):
            problems.append(f"the assignment maps to {len(forward)} vertices, not a dominating set of {floor}")
        if result.gamma == floor:
            to_assignment(rmap, g, result.witness)
    except reductions.ReductionError as exc:
        problems.append(f"map failed: {exc}")
    return problems


def verify_subcubic(f: Formula1in3, table: GammaTable) -> list[ClaimVerdict]:
    """Both subcubic claims on one build, one brute force and one γ solve:
    satisfiability iff gamma equals the floor 3|X| + |C|, with the γ witness
    meeting every gadget's floor and the reduction's maps checked both ways
    on a satisfiable formula; and gamma equals the floor iff every minimum
    dominating set is efficient."""
    instance = f"1in3 formula |X|={f.num_vars} clauses={list(f.clauses)}"
    g, rmap = reductions.build_subcubic(f)
    assignment = solve_1in3_brute(f)
    sat = assignment is not None
    target = rmap.expected_gamma()

    def gamma_iff_sat():
        result = table.solve(g)
        gamma = result.gamma
        problems = rmap.gadget_floor_problems(result.witness)
        if sat:
            problems += _map_problems(
                g,
                rmap,
                target,
                assignment,
                result,
                reductions.assignment_to_mds_subcubic,
                reductions.mds_to_assignment_subcubic,
            )
        ok = sat == (gamma == target) and gamma >= target and not problems
        counter = {"gamma": gamma, "target": target, "sat": sat, "witness_problems": problems}
        return ok, f"sat={sat} gamma={gamma} target={target}", counter

    def efficient_iff_tight():
        gamma = table.solve(g).gamma
        tight = gamma == target
        efficient = all_efficient_md(g, table)
        ok = tight == efficient.holds
        witness = efficient.witness
        if efficient.holds:
            # the decider may say yes by counting alone, so the enumeration
            # checks the yes: no minimum dominating set may fail efficiency
            mds = enumerate_minimum_dominating_sets(g, table)
            witness = next((s for s in mds if not is_efficient(g, s)), None)
            ok = ok and witness is None
        counter = None
        if witness is not None or not efficient.holds:
            witness_problems = _counterexample_problems(g, gamma, witness, is_efficient)
            ok = ok and not witness_problems
            counter = {
                "non_efficient_mds": sorted(witness),
                "gamma": gamma,
                "witness_problems": witness_problems,
            }
        return ok, f"tight={tight} all_efficient={efficient.holds}", counter

    return [
        _claim("subcubic-gamma-iff-sat", instance, gamma_iff_sat),
        _claim("subcubic-all-efficient-iff-tight", instance, efficient_iff_tight),
    ]


def verify_nine_cycle_gadget(table: GammaTable) -> ClaimVerdict:
    """The isolated variable gadget has exactly three minimum dominating sets:
    the cycle_u triple, the true triple, and the false triple."""
    f = satisfiable_fixture()
    g, rmap = reductions.build_subcubic(f)
    gadget = sorted(rmap.gadget_vertices(1))
    c9 = induced_subgraph(g, gadget)

    def three_sets():
        found = {frozenset(s) for s in enumerate_minimum_dominating_sets(c9, table)}
        expected = {
            frozenset(gadget.index(v) for v in rmap.cycle_u_ids[1].values()),
            frozenset(gadget.index(v) for v in rmap.true_ids[1].values()),
            frozenset(gadget.index(v) for v in rmap.false_ids[1].values()),
        }
        detail = f"{len(found)} minimum dominating sets"
        return found == expected, detail, {"found": [sorted(s) for s in found]}

    return _claim("nine-cycle-gadget-minimum-sets", "isolated 9-cycle variable gadget", three_sets)


# -- claw-free replacement checks ------------------------------------------------


def verify_clawfree_structure(target: LabeledGraph, instance: str) -> ClaimVerdict:
    """Replacement outputs are connected, claw-free, subcubic, min degree 2."""

    def structure():
        claw = find_claw(target)
        ok = (
            target.is_connected()
            and claw is None
            and target.is_subcubic()
            and target.min_degree() >= 2
        )
        detail = f"n={target.n} max_deg={target.max_degree()} min_deg={target.min_degree()}"
        return ok, detail, {"claw": claw} if claw else None

    return _claim("clawfree-structure", instance, structure)


def verify_clawfree_offset(g: LabeledGraph, instance: str, table: GammaTable) -> ClaimVerdict:
    """gamma(replacement(g)) == gamma(g) + 5|V_3| + 2|V_2|, with the gadget
    counts of the γ witness, the lift and projection round-trips, and the
    structural certificate checked."""
    target, rmap = reductions.build_clawfree(g)
    structure = verify_clawfree_structure(target, instance)
    if not structure.passed:
        return structure

    def offset():
        source_result = table.solve(g)
        target_result = table.solve(target)
        expected = source_result.gamma + rmap.offset()
        problems = []
        if target_result.gamma != expected:
            problems.append(f"gamma'={target_result.gamma} expected {expected}")
        problems += ["witness: " + p for p in rmap.gadget_count_problems(target_result.witness)]
        try:
            lifted = reductions.lift_dominating_set(rmap, source_result.witness)
            if len(lifted) != expected:
                problems.append(f"lift size {len(lifted)} != {expected}")
            if not is_dominating(target, lifted):
                problems.append("lift does not dominate the replacement graph")
            projected = reductions.project_dominating_set(rmap, target_result.witness)
            if len(projected) != source_result.gamma:
                problems.append(f"projection size {len(projected)} != gamma={source_result.gamma}")
            back = reductions.project_dominating_set(rmap, lifted)
            if len(back) != source_result.gamma:
                problems.append("lift/project round-trip changed the size")
        except reductions.ReductionError as exc:
            problems.append(f"map failed: {exc}")
        detail = f"gamma={source_result.gamma} gamma'={target_result.gamma} offset={rmap.offset()}"
        return not problems, detail, {"problems": problems}

    return _claim("clawfree-gamma-offset", instance, offset)


# -- triangle/clique construction checks --------------------------------------------


def verify_triangle_construction(f: Formula3Sat, table: GammaTable) -> ClaimVerdict:
    """Three-way equivalence: satisfiable (brute force) iff gamma == |X| iff
    every minimum dominating set is independent; plus the no-induced-P7
    certificate, whose extension nodes count against the table's budget,
    and, on a satisfiable formula, the reduction's maps both ways."""
    instance = f"3sat |X|={f.num_vars} clauses={list(f.clauses)}"
    g, rmap = reductions.build_p7free(f)
    assignment = solve_3sat_brute(f)
    sat = assignment is not None

    def gamma_iff_sat():
        result = table.solve(g)
        independent = all_independent_md(g, table)
        p7 = find_induced_path(g, 7, tick=table.tick)
        gamma = result.gamma
        problems = []
        if gamma < f.num_vars:
            problems.append(f"gamma={gamma} below the floor |X|={f.num_vars}")
        if sat != (gamma == f.num_vars):
            problems.append(f"sat={sat} but gamma={gamma} (|X|={f.num_vars})")
        if sat != independent.holds:
            problems.append(f"sat={sat} but all_independent={independent.holds}")
        if p7 is not None:
            problems.append(f"induced 7-vertex path: {p7}")
        if not independent.holds:
            problems += _counterexample_problems(g, gamma, independent.witness, is_independent)
        if sat:
            problems += _map_problems(
                g,
                rmap,
                f.num_vars,
                assignment,
                result,
                reductions.assignment_to_mds_p7,
                reductions.mds_to_assignment_p7,
            )
        detail = f"sat={sat} gamma={gamma} all_independent={independent.holds} p7_free={p7 is None}"
        return not problems, detail, {"problems": problems}

    return _claim("triangle-gamma-iff-sat", instance, gamma_iff_sat)


# -- contraction equivalences over a corpus -------------------------------------------


def _equivalences(g, table):
    """The contraction search (ct = 1), the non-independent-MDS
    characterization and the negated all-independent decider agree on g,
    and the characterization's witness edge lowers gamma. The last two read
    one decision, so the decider's witness is also checked by set
    predicates: it dominates, has gamma members, is not independent and
    holds the witness edge."""
    definitional = ct_definitional(g, table)[0] == 1
    characterized = one_contraction_decision(g, table)
    independent = all_independent_md(g, table)
    gamma = table.solve(g).gamma
    witness_ok = not characterized.holds or _lowers(g, gamma, [characterized.witness], table)
    agree = definitional == characterized.holds == (not independent.holds)
    if not independent.holds:
        members = independent.witness
        witness_ok = witness_ok and not _counterexample_problems(g, gamma, members, is_independent)
        if characterized.holds:
            witness_ok = witness_ok and set(characterized.witness) <= members
    ok = agree and witness_ok
    # a passing graph builds no counterexample: the corpus checks thousands
    counter = None if ok else {
        "definitional": definitional,
        "characterized": characterized.holds,
        "all_independent": independent.holds,
        "witness_ok": witness_ok,
        "edges": g.edges(),
    }
    return ok, "oracle disagreement", counter


def _lowers(g: LabeledGraph, gamma: int, edges, table: GammaTable) -> bool:
    """Does contracting edges in turn leave a graph of domination number
    below gamma? False when one of them is not an edge (u, v), u < v, of the
    graph it is contracted in."""
    masks = g.closed_masks
    for u, v in edges:
        if not (u < v < len(masks) and masks[u] >> v & 1):
            return False
        masks = contract_masks(masks, u, v)
    return table.solve_masks(masks).gamma < gamma


def _bound(g, table):
    """ct_gamma (the characterization) equals ct_definitional (the
    contraction search) on g, the value is in 1..3 when gamma >= 2 and
    CT_IMPOSSIBLE at gamma = 1, and the search's edge sequence has ct edges
    and, replayed, lowers gamma (it is empty when ct is CT_IMPOSSIBLE)."""
    gamma = table.solve(g).gamma
    ct = ct_gamma(g, table)
    definitional, edges = ct_definitional(g, table)
    lowered = _lowers(g, gamma, edges, table)
    valid = ct == CT_IMPOSSIBLE if gamma == 1 else ct in (1, 2, 3)
    if definitional == CT_IMPOSSIBLE:
        certified = not edges
    else:
        certified = lowered and len(edges) == definitional
    ok = valid and ct == definitional and certified
    detail = f"gamma={gamma} ct={ct} ct_definitional={definitional} sequence_lowers={lowered}"
    counter = None if ok else {
        "edges": g.edges(),
        "ct": ct,
        "ct_definitional": definitional,
        "sequence": [list(edge) for edge in edges],
    }
    return ok, detail, counter


# a corpus claim: its name, the check of one graph, and the word of its pass detail
_EQUIVALENCES = ("contraction-equivalences", _equivalences, "agree")
_BOUND = ("three-contractions-suffice", _bound, "within bound")


def _corpus_verdicts(graphs, table, claims) -> list[ClaimVerdict]:
    """Evaluate corpus claims in one pass over graphs. Each claim stops at
    its first failing or skipped graph; the claims still open share the
    table's results."""
    verdicts: list[Optional[ClaimVerdict]] = [None] * len(claims)
    checked = [0] * len(claims)
    for name, g in graphs:
        open_claims = [i for i, verdict in enumerate(verdicts) if verdict is None]
        if not open_claims:
            break
        for i in open_claims:
            claim, check, _ = claims[i]
            verdict = _claim(claim, name, lambda: check(g, table))
            if verdict.passed:
                checked[i] += 1
            else:
                verdicts[i] = verdict
    for i, (claim, _, word) in enumerate(claims):
        if verdicts[i] is None:
            count = checked[i]
            verdicts[i] = ClaimVerdict(claim, f"{count} connected graphs", "pass", f"{count} graphs {word}")
    return verdicts


# -- suites -----------------------------------------------------------------------------


def _corpus(max_n: int, random_count: int, random_sizes: tuple[int, ...], seed: int):
    graphs = connected_graphs_upto(max_n)
    for i in range(len(graphs)):
        # take each graph out of the listing, so it is freed, with the search
        # set-up it keeps, once its verdicts are in
        g, graphs[i] = graphs[i], None
        yield f"exhaustive#{i}(n={g.n})", g
    rng = random.Random(seed)
    for i in range(random_count):
        n = random_sizes[i % len(random_sizes)]
        g = random_connected_graph(n, rng)
        yield f"random#{i}(n={n})", g


def suite_contraction(
    max_n: int, random_count: int, seed: int, table: GammaTable
) -> list[ClaimVerdict]:
    corpus = _corpus(max_n, random_count, (7, 8, 9), seed)
    return _corpus_verdicts(corpus, table, [_EQUIVALENCES, _BOUND])


def suite_subcubic(table: GammaTable) -> list[ClaimVerdict]:
    verdicts = [verify_nine_cycle_gadget(table)]
    for f in (satisfiable_fixture(), unsatisfiable_fixture()):
        verdicts += verify_subcubic(f, table)
    return verdicts


def suite_clawfree(seed: int, table: GammaTable) -> list[ClaimVerdict]:
    cases: list[tuple[str, LabeledGraph]] = [
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("C9", cycle_graph(9)),
        ("K4", complete_graph(4)),
        ("3-prism", prism_graph()),
    ]
    rng = random.Random(seed)
    for i in range(5):
        n = rng.randrange(6, 11)
        cases.append((f"random-deg23#{i}(n={n})", random_degree23_graph(n, rng)))
    verdicts = [verify_clawfree_offset(g, name, table) for name, g in cases]
    # the big structural-only certificate: replace the satisfiable fixture's
    # subcubic graph (exact gamma of the result is out of desk-scale reach)
    base_graph, _ = reductions.build_subcubic(satisfiable_fixture())
    big, _ = reductions.build_clawfree(base_graph)
    verdicts.append(verify_clawfree_structure(big, f"replacement of 48-vertex build (n={big.n})"))
    return verdicts


# the eight clauses on the variables 1, 2, 3, one per sign pattern
_THREE_VAR_CLAUSES = [
    tuple(s * v for s, v in zip(pattern, (1, 2, 3))) for pattern in itertools.product((1, -1), repeat=3)
]


def all_three_var_formulas() -> list[Formula3Sat]:
    """Every 3-SAT formula on exactly the variables {1,2,3} with at most four
    distinct clauses (all clauses use all three variables)."""
    return [
        Formula3Sat.make(3, combo)
        for k in range(1, 5)
        for combo in itertools.combinations(_THREE_VAR_CLAUSES, k)
    ]


def eight_pattern_formula() -> Formula3Sat:
    """All eight sign patterns over three variables; plainly unsatisfiable."""
    return Formula3Sat.make(3, _THREE_VAR_CLAUSES)


def suite_p7(table: GammaTable) -> list[ClaimVerdict]:
    return [
        verify_triangle_construction(f, table)
        for f in all_three_var_formulas() + [eight_pattern_formula()]
    ]


SUITES = {
    "contraction": suite_contraction,
    "subcubic": suite_subcubic,
    "clawfree": suite_clawfree,
    "p7": suite_p7,
}


def run_suite(
    name: str,
    max_n: int = 6,
    random_count: int = 200,
    seed: int = 2024,
    table: Optional[GammaTable] = None,
) -> list[ClaimVerdict]:
    """The verdicts of one suite, or of every suite in name order for "all",
    on one table; each suite gets only the options it takes."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    table = GammaTable() if table is None else table
    options = {"max_n": max_n, "random_count": random_count, "seed": seed, "table": table}
    verdicts = []
    for suite_name in sorted(SUITES) if name == "all" else [name]:
        suite = SUITES[suite_name]
        takes = inspect.signature(suite).parameters
        verdicts.extend(suite(**{k: v for k, v in options.items() if k in takes}))
    return verdicts
