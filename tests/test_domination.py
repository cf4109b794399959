import collections
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from domblocker import (
    BudgetExceeded,
    CT_IMPOSSIBLE,
    GammaTable,
    GraphError,
    LabeledGraph,
    VertexLabel,
    all_efficient_md,
    all_independent_md,
    blocker_report,
    complete_graph,
    ct_definitional,
    ct_gamma,
    cycle_graph,
    domination_number,
    enumerate_minimum_dominating_sets,
    is_dominating,
    is_efficient,
    is_independent,
    one_contraction_decision,
    parse_graph6,
    path_graph,
    star_graph,
    visit_minimum_dominating_sets,
)
from domblocker import domination
from domblocker.domination import set_edges
from domblocker.graphs import _bits, contract_masks
from domblocker.cnf import gen_1in3, gen_3sat, satisfiable_fixture, solve_1in3_brute, unsatisfiable_fixture
from domblocker.reductions import build_p7free, build_subcubic
from domblocker.smallgraphs import connected_graphs_upto, random_connected_graph, random_degree23_graph

from bruteforce import (
    brute_all_mds,
    brute_ct,
    brute_efficient,
    brute_gamma,
    brute_residual,
    closed_neighborhood,
    contract_tracked,
    dominates,
    reference_lower_bound,
    reference_perfect,
    reference_reduce,
    set_contraction,
    set_edge_list,
    set_relabel,
)


SEARCH_TREES = Path(__file__).parent / "golden" / "search_trees.json"


def connected_random(rng, n):
    return random_connected_graph(n, rng)


def assert_sequence_lowers_gamma(g, ct, edges):
    """edges, contracted in turn with ``set_contraction``, are ct edges that
    lower brute-force γ; none when ct is CT_IMPOSSIBLE."""
    if ct == CT_IMPOSSIBLE:
        assert edges == ()
        return
    assert len(edges) == ct
    h = g
    for u, v in edges:
        assert u < v and v in h.adj[u]
        h = set_contraction(h, u, v)
    assert brute_gamma(h) < brute_gamma(g)


def oracle_corpus():
    """(name, graph): every connected graph on up to seven vertices, subcubic
    builds at nv 4 and 5 (unsatisfiable) and nv 6 (both classes), P7-free
    builds and degree-{2,3} graphs."""
    for i, g in enumerate(connected_graphs_upto(7)):
        yield f"connected#{i}", g
    for nv, seeds in ((4, range(3)), (5, range(3)), (6, range(8))):
        for seed in seeds:
            f = gen_1in3(nv, seed)
            sat = solve_1in3_brute(f) is not None
            yield f"subcubic nv={nv} seed={seed} sat={sat}", build_subcubic(f)[0]
    for nv in (3, 4, 5):
        for seed in range(4):
            yield f"p7free nv={nv} seed={seed}", build_p7free(gen_3sat(nv, nv + seed, seed))[0]
    rng = random.Random(2305)
    for i in range(30):
        n = 8 + i % 12
        yield f"degree23#{i}(n={n})", random_degree23_graph(n, rng)


def grid_graph(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return LabeledGraph.from_edges(rows * cols, edges)


class TestSetPredicates:
    def test_spaced_triple_dominates_nine_cycle(self, c9):
        assert is_dominating(c9, {0, 3, 6})
        assert is_dominating(c9, {1, 4, 7})

    def test_two_vertices_cannot_cover_nine(self, c9):
        assert not is_dominating(c9, {0, 4})

    def test_whole_vertex_set_dominates(self, c9):
        assert is_dominating(c9, set(range(9)))

    @pytest.mark.parametrize("predicate", [is_dominating, is_independent, is_efficient, set_edges])
    @pytest.mark.parametrize("vertex", [-1, 42])
    def test_out_of_range_member(self, c9, predicate, vertex):
        with pytest.raises(GraphError) as exc:
            predicate(c9, {0, vertex})
        assert str(exc.value) == f"vertex {vertex} out of range"

    def test_efficient_spaced_triple(self, c9):
        assert is_efficient(c9, {0, 3, 6})
        assert brute_efficient(c9, {0, 3, 6})

    def test_path_middles_not_efficient(self, p4):
        assert not is_efficient(p4, {1, 2})

    def test_triangle_singleton_efficient(self):
        assert is_efficient(cycle_graph(3), {0})

    def test_independent(self, p4):
        assert is_independent(p4, {0})
        assert not is_independent(p4, {0, 1})
        assert is_independent(p4, {0, 2})

    def test_efficiency_implies_dominating_and_independent(self):
        rng = random.Random(23)
        for _ in range(40):
            g = connected_random(rng, rng.randrange(2, 8))
            for mask in range(1 << g.n):
                s = {v for v in range(g.n) if mask >> v & 1}
                if is_efficient(g, s):
                    assert is_dominating(g, s) and is_independent(g, s)


class TestDominationNumber:
    def test_cycles_match_formula(self):
        for n in range(3, 13):
            assert domination_number(cycle_graph(n)).gamma == math.ceil(n / 3)

    def test_star(self):
        result = domination_number(star_graph(3))
        assert result.gamma == 1 and result.witness == frozenset({0})

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            domination_number(LabeledGraph.from_edges(0, ()))

    def test_witness_always_dominates(self):
        rng = random.Random(5)
        for _ in range(50):
            g = connected_random(rng, rng.randrange(1, 10))
            result = domination_number(g)
            assert len(result.witness) == result.gamma
            assert dominates(g, result.witness)

    def test_agrees_with_brute_force(self, small_connected_corpus):
        for g in small_connected_corpus:
            assert domination_number(g).gamma == brute_gamma(g)

    def test_agrees_with_brute_force_random_larger(self):
        rng = random.Random(99)
        for _ in range(60):
            g = connected_random(rng, rng.randrange(7, 10))
            assert domination_number(g).gamma == brute_gamma(g)

    def test_disconnected_allowed(self):
        g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        assert domination_number(g).gamma == 2

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_relabeling_invariance(self, pyrng):
        n = pyrng.randrange(2, 9)
        g = connected_random(pyrng, n)
        perm = list(range(n))
        pyrng.shuffle(perm)
        h = LabeledGraph.from_edges(n, set_edge_list(set_relabel(g.adj, perm)))
        assert domination_number(g).gamma == domination_number(h).gamma

    def test_budget_raises(self):
        from domblocker import build_subcubic, unsatisfiable_fixture

        g, _ = build_subcubic(unsatisfiable_fixture())
        with pytest.raises(BudgetExceeded):
            domination_number(g, GammaTable(budget=1))

    def test_contraction_never_increases_gamma_by_solver(self, small_connected_corpus):
        for g in small_connected_corpus:
            base = domination_number(g).gamma
            for u, v in g.edges():
                assert domination_number(g.contract_edge(u, v)).gamma <= base


class TestEnumeration:
    def test_c4_has_six(self, c4):
        sets = list(enumerate_minimum_dominating_sets(c4))
        assert len(sets) == 6
        assert all(len(s) == 2 for s in sets)

    def test_c6_antipodal_pairs(self, c6):
        assert [sorted(s) for s in enumerate_minimum_dominating_sets(c6)] == [
            [0, 3],
            [1, 4],
            [2, 5],
        ]

    def test_triangle_singletons(self):
        assert [sorted(s) for s in enumerate_minimum_dominating_sets(cycle_graph(3))] == [
            [0],
            [1],
            [2],
        ]

    def test_lexicographic_order(self):
        rng = random.Random(31)
        for _ in range(25):
            g = connected_random(rng, rng.randrange(2, 8))
            sets = [sorted(s) for s in enumerate_minimum_dominating_sets(g)]
            assert sets == sorted(sets)

    def test_matches_exhaustive_subset_counting(self, small_connected_corpus):
        for g in small_connected_corpus:
            found = list(enumerate_minimum_dominating_sets(g))
            assert len(found) == len(set(found)), "a set was visited twice"
            assert set(found) == brute_all_mds(g)

    def test_matches_exhaustive_on_random_seven(self):
        rng = random.Random(77)
        for _ in range(40):
            g = connected_random(rng, 7)
            found = list(enumerate_minimum_dominating_sets(g))
            assert len(found) == len(set(found))
            assert set(found) == brute_all_mds(g)

    def test_visitor_streaming_early_stop(self, c4):
        from domblocker import visit_minimum_dominating_sets

        seen = []

        def stop_after_two(s):
            seen.append(s)
            return len(seen) < 2

        gamma = visit_minimum_dominating_sets(c4, stop_after_two)
        assert gamma == 2 and len(seen) == 2
        assert all(dominates(c4, s) and len(s) == 2 for s in seen)

    def test_visitor_sees_all_without_early_stop(self, c6):
        from domblocker import visit_minimum_dominating_sets

        seen = []
        visit_minimum_dominating_sets(c6, lambda s: (seen.append(s), True)[1])
        assert sorted(sorted(s) for s in seen) == [[0, 3], [1, 4], [2, 5]]

    def test_every_enumerated_set_is_minimum_dominating(self):
        rng = random.Random(13)
        for _ in range(30):
            g = connected_random(rng, rng.randrange(2, 9))
            gamma = domination_number(g).gamma
            for s in enumerate_minimum_dominating_sets(g):
                assert len(s) == gamma and dominates(g, s)


class TestPreconditions:
    @pytest.mark.parametrize(
        "question, message",
        [
            (all_efficient_md, "decider requires a connected graph"),
            (all_independent_md, "decider requires a connected graph"),
            (one_contraction_decision, "contraction decision requires a connected graph"),
            (ct_definitional, "contraction search requires a connected graph"),
            (ct_gamma, "ct_gamma requires a connected graph"),
            (blocker_report, "blocker report requires a connected graph"),
        ],
    )
    def test_blocker_questions_need_a_connected_graph(self, question, message):
        g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        for table in (None, GammaTable()):
            with pytest.raises(GraphError) as exc:
                question(g, table)
            assert str(exc.value) == message
            assert table is None or table.nodes == 0


class TestDeciders:
    def test_c9_all_efficient(self, c9):
        assert all_efficient_md(c9).holds

    def test_p4_not_all_efficient(self, p4):
        verdict = all_efficient_md(p4)
        assert not verdict.holds
        assert dominates(p4, verdict.witness) and not is_efficient(p4, verdict.witness)
        assert len(verdict.witness) == 2

    def test_c6_all_independent(self, c6):
        assert all_independent_md(c6).holds

    def test_c4_not_all_independent(self, c4):
        verdict = all_independent_md(c4)
        assert not verdict.holds
        assert not is_independent(c4, verdict.witness)

    def test_deciders_reject_disconnected(self):
        g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        for op in (all_efficient_md, all_independent_md):
            with pytest.raises(GraphError):
                op(g)

    def test_deciders_match_enumeration(self, small_connected_corpus):
        for g in small_connected_corpus:
            sets = brute_all_mds(g)
            assert all_efficient_md(g).holds == all(brute_efficient(g, s) for s in sets)
            assert all_independent_md(g).holds == all(is_independent(g, s) for s in sets)

    @staticmethod
    def enumerated(g, holds):
        """Does every minimum dominating set of g satisfy holds? Read from
        the enumeration alone, on a fresh table."""
        failed = []

        def check(s):
            if holds(g, s):
                return True
            failed.append(s)
            return False

        visit_minimum_dominating_sets(g, check, GammaTable())
        return not failed

    def test_deciders_match_the_enumeration_alone(self):
        # the deciders answer from the γ witness when it fails the
        # predicate, so each answer is checked against the enumeration, and
        # each counterexample by the set predicates
        subcubic_classes = set()
        for name, g in oracle_corpus():
            if name.startswith("subcubic"):
                subcubic_classes.add("sat=True" in name)
            gamma = domination_number(g).gamma
            for decide, holds in ((all_efficient_md, is_efficient), (all_independent_md, is_independent)):
                decision = decide(g, GammaTable())
                assert decision.holds == self.enumerated(g, holds), (name, holds.__name__)
                if not decision.holds:
                    s = decision.witness
                    assert is_dominating(g, s) and len(s) == gamma and not holds(g, s), name
        assert subcubic_classes == {True, False}

    @staticmethod
    def sizes_fill_n(g, gamma):
        """The counting certificate, restated: the γ largest closed
        neighbourhoods have n vertices together."""
        sizes = sorted(g.degree(v) + 1 for v in range(g.n))
        return sum(sizes[len(sizes) - gamma :]) == g.n

    def test_deciders_spend_gamma_then_stop_at_the_first_failing_set(self):
        # a decider's nodes on a fresh table are γ's, plus, when the γ witness
        # passes the predicate and the counting certificate does not fire,
        # those of an enumeration that stops at its first failing set (the
        # visitor's append returns None, which stops the visit): a decider
        # never enumerates past its counterexample, and one whose certificate
        # fires spends γ's nodes only
        early_stops = certified = 0
        for g in connected_graphs_upto(7):
            for decide, holds in ((all_efficient_md, is_efficient), (all_independent_md, is_independent)):
                expected = GammaTable()
                result = expected.solve(g)
                if holds(g, result.witness):
                    if self.sizes_fill_n(g, result.gamma):
                        certified += 1
                    else:
                        failed = []
                        visit_minimum_dominating_sets(g, lambda s: holds(g, s) or failed.append(s), expected)
                        early_stops += bool(failed)
                table = GammaTable()
                decide(g, table)
                assert table.nodes == expected.nodes, (g.closed_masks, holds.__name__)
        assert early_stops > 0 and certified > 0

    @staticmethod
    def certificate_cases():
        """(name, graph): every connected graph with n <= 7, cycles C_3k,
        complete graphs, the cube Q3 and satisfiable subcubic builds."""
        for g in connected_graphs_upto(7):
            yield f"n={g.n} {g.closed_masks}", g
        for k in range(1, 6):
            yield f"C{3 * k}", cycle_graph(3 * k)
        for n in range(1, 7):
            yield f"K{n}", complete_graph(n)
        cube = [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b]
        yield "Q3", LabeledGraph.from_edges(8, cube)
        yield "sat fixture", build_subcubic(satisfiable_fixture())[0]
        yield "gen_1in3(6, 1)", build_subcubic(gen_1in3(6, 1))[0]

    def test_counting_certificate_fires_only_where_every_mds_is_efficient(self, monkeypatch):
        # the efficient decider enumerates exactly when its γ witness is
        # efficient and the certificate does not fire; where it fires, the
        # enumeration alone finds every minimum dominating set efficient
        enumerated = []
        visit = domination.visit_minimum_dominating_sets
        monkeypatch.setattr(
            domination,
            "visit_minimum_dominating_sets",
            lambda g, *args: enumerated.append(g) or visit(g, *args),
        )
        fired = set()
        fired_at_7 = 0
        for name, g in self.certificate_cases():
            enumerated.clear()
            table = GammaTable()
            witness = table.solve(g).witness
            decision = all_efficient_md(g, table)
            if is_efficient(g, witness) and not enumerated:
                assert decision.holds, name
                assert self.enumerated(g, is_efficient), name
                assert all_independent_md(g, table) is decision and not enumerated, name
                fired.add(name)
                fired_at_7 += g.n == 7 and name.startswith("n=")
        assert fired_at_7 == 159
        named = {"C3", "C6", "C9", "C12", "C15", "K1", "K6", "Q3", "sat fixture", "gen_1in3(6, 1)"}
        assert named <= fired

    def test_efficient_yes_answers_independent_as_a_miss_would(self):
        # an efficient "yes" is stored as the independent "yes", so a graph
        # whose efficient "yes" took an enumeration does not enumerate again;
        # an independent "no" is never stored as the efficient "no", so each
        # decision is the one a fresh table gives, whichever was asked first
        enumerated_yes = 0
        for g in connected_graphs_upto(7):
            table = GammaTable()
            table.solve(g)
            gamma_nodes = table.nodes
            efficient = all_efficient_md(g, table)
            nodes = table.nodes
            independent = all_independent_md(g, table)
            assert independent == all_independent_md(g, GammaTable()), g.closed_masks
            if efficient.holds:
                assert independent is efficient and table.nodes == nodes, g.closed_masks
                enumerated_yes += nodes > gamma_nodes
            table = GammaTable()
            all_independent_md(g, table)
            assert all_efficient_md(g, table) == all_efficient_md(g, GammaTable()), g.closed_masks
        assert enumerated_yes == 23  # one graph with n = 6, and 22 with n = 7


class TestGreedyCover:
    def test_irredundant_dominating_set(self):
        for name, g in oracle_corpus():
            members = set(_bits(domination._Search(g, None).greedy_cover()))
            assert is_dominating(g, members), name
            for v in members:
                assert not is_dominating(g, members - {v}), (name, v)


class TestForced:
    def test_matches_the_residual_brute_force(self):
        """forced(S, limit) refuses every limit below the fewest vertices a
        dominating superset of S needs, and otherwise returns such a superset
        of exactly that size. Many refusals come from the bound on the
        unreduced residual, before any ``reduce``."""
        checks = 0
        root_refusals = 0
        for g in connected_graphs_upto(6):
            search = domination._Optimizer(g, None)
            reduces = []
            reduce = search.reduce
            search.reduce = lambda *args: reduces.append(args) or reduce(*args)
            full = (1 << g.n) - 1
            for size in range(4):
                for s in itertools.combinations(range(g.n), size):
                    mask = sum(1 << v for v in s)
                    und = full & ~domination._union(g.closed_masks, mask)
                    opt = size + brute_residual(g, _bits(und), _bits(full & ~mask))
                    reduces.clear()
                    assert search.forced(mask, opt - 1) is None, (g.closed_masks, s)
                    if size < opt - 1 and not reduces:
                        root_refusals += 1  # a limit that leaves room, refused unreduced
                    for limit in (opt, opt + 1):
                        got = search.forced(mask, limit)
                        assert got & mask == mask and got.bit_count() == opt, (g.closed_masks, s)
                        assert is_dominating(g, set(_bits(got))), (g.closed_masks, s)
                    checks += 3
        # 143 connected graphs, 5,362 sets S, three limits each
        assert checks == 16_086
        assert root_refusals > 0

    def test_the_probe_and_the_floor_keep_the_witness(self):
        """Where the probe fires (the unreduced residual is perfect at a
        bound below its need), ``forced`` returns what one search of the
        whole residual from the same cap returns: γ's witness on the
        subcubic builds nv 3-9 (seeds 1-3), and on every connected graph
        with n <= 7 the completion of every vertex, edge and non-edge at
        its optimum and one above. Probes that find their exact cover and
        probes that fail, so that the floor is handed on, both occur."""
        cases = []
        for nv, seed in itertools.product(range(3, 10), (1, 2, 3)):
            g = build_subcubic(gen_1in3(nv, seed))[0]
            search = domination._Optimizer(g, None)
            cases.append((search, 0, search.greedy_cover().bit_count() - 1))
        for g in connected_graphs_upto(7):
            search = domination._Optimizer(g, None)
            for size in (1, 2):
                for s in itertools.combinations(range(g.n), size):
                    mask = sum(1 << v for v in s)
                    opt = search.forced(mask, g.n).bit_count()
                    cases += [(search, mask, opt), (search, mask, opt + 1)]
        fired = collections.Counter()
        for search, mask, limit in cases:
            und = search.full & ~domination._union(search.nb, mask)
            avail, need = search.full & ~mask, limit - mask.bit_count()
            bound = search.lower_bound(und, avail, need)[0] if und else 0
            if not (bound < need and bound * search.width == und.bit_count() > 0):
                continue
            rest = search.min_dominating(und, avail, need)
            got = search.forced(mask, limit)
            assert got == (None if rest is None else rest | mask), (search.nb, mask, limit)
            fired["γ" if mask == 0 else "set", rest is not None and rest.bit_count() == bound] += 1
        assert fired == {("set", True): 153, ("γ", True): 4, ("γ", False): 6}

    def test_refusal_before_reduce_costs_no_node(self, monkeypatch):
        """On the satisfiable fixture build every set that two edges span is
        refused at γ + 1 by its unreduced bound: no node, no ``reduce``."""
        g, _ = build_subcubic(satisfiable_fixture())
        table = GammaTable()
        gamma = table.solve(g).gamma
        search = domination._Optimizer(g, table)
        monkeypatch.setattr(search, "reduce", None)  # any call raises TypeError
        edges = [(1 << u) | (1 << v) for u, v in g.edges()]
        nodes = table.nodes
        for a, b in itertools.combinations(edges, 2):
            assert search.forced(a | b, gamma + 1) is None
        assert table.nodes == nodes


class TestOneContraction:
    def test_p4_yes(self, p4):
        decision = one_contraction_decision(p4)
        assert decision.holds
        u, v = decision.witness
        assert domination_number(p4.contract_edge(u, v)).gamma == 1

    def test_c6_no(self, c6):
        assert not one_contraction_decision(c6).holds
        assert ct_definitional(c6)[0] != 1

    def test_gamma_one_is_always_no(self):
        # a vertex adjacent to all others makes γ = 1, and the counting
        # certificate answers at γ's nodes: |N[v]| = n. Connected graphs with
        # such a vertex are the graphs on n - 1 vertices plus it: 209 up to 7
        dominated = [g for g in connected_graphs_upto(7) if (1 << g.n) - 1 in g.closed_masks]
        assert len(dominated) == 1 + 1 + 2 + 4 + 11 + 34 + 156 and dominated[0].n == 1
        for g in dominated:
            expected = GammaTable()
            assert expected.solve(g).gamma == 1
            table = GammaTable()
            assert not one_contraction_decision(g, table).holds
            assert table.nodes == expected.nodes, g.closed_masks

    def test_solves_gamma_once(self, gamma_calls, p4):
        assert one_contraction_decision(p4).holds
        assert gamma_calls == [p4]

    def test_definitional_p4(self, p4):
        ct, edges = ct_definitional(p4)
        assert ct == 1
        assert domination_number(p4.contract_edge(*edges[0])).gamma == 1

    def test_c9_no_by_oracle(self, c9):
        assert ct_definitional(c9)[0] != 1
        assert not one_contraction_decision(c9).holds

    def test_connected_required(self):
        g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            one_contraction_decision(g)
        with pytest.raises(GraphError):
            ct_definitional(g)

    def test_oracle_equivalence_small(self, small_connected_corpus):
        for g in small_connected_corpus:
            a = one_contraction_decision(g).holds
            b = ct_definitional(g)[0] == 1
            c = not all_independent_md(g).holds
            assert a == b == c

    def test_oracle_equivalence_exhaustive_seven(self):
        # every connected 7-vertex graph; enumeration dominates the runtime
        from domblocker.smallgraphs import connected_graphs

        for g in connected_graphs(7):
            a = one_contraction_decision(g).holds
            b = ct_definitional(g)[0] == 1
            c = not all_independent_md(g).holds
            assert a == b == c


class TestCtGamma:
    def test_c6_needs_three(self, c6):
        assert ct_gamma(c6) == 3

    def test_p4_needs_one(self, p4):
        assert ct_gamma(p4) == 1

    def test_gamma_one_impossible(self):
        assert ct_gamma(complete_graph(4)) == CT_IMPOSSIBLE

    def test_disconnected_rejected(self):
        g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            ct_gamma(g)
        with pytest.raises(GraphError):
            ct_definitional(g)

    def test_bound_holds_on_small_corpus(self, small_connected_corpus):
        for g in small_connected_corpus:
            ct = ct_gamma(g)
            if domination_number(g).gamma == 1:
                assert ct == CT_IMPOSSIBLE
            else:
                assert ct in (1, 2, 3)

    def test_ct_value_matches_definitional_level(self, small_connected_corpus):
        # ct == 1 exactly when some single contraction lowers brute-force γ,
        # and the search's one edge is such a contraction
        for g in small_connected_corpus:
            gamma = brute_gamma(g)
            if gamma == 1:
                continue
            one = any(brute_gamma(set_contraction(g, u, v)) < gamma for u, v in g.edges())
            ct, edges = ct_definitional(g)
            assert (ct_gamma(g) == 1) == (ct == 1) == one
            if one:
                assert_sequence_lowers_gamma(g, ct, edges)

    def test_matches_sequence_bfs_on_small_corpus(self, small_connected_corpus):
        for g in small_connected_corpus:
            want = brute_ct(g) or CT_IMPOSSIBLE
            assert ct_gamma(g) == want
            ct, edges = ct_definitional(g)
            assert ct == want
            assert_sequence_lowers_gamma(g, ct, edges)

    def test_matches_sequence_bfs_on_degree23_graphs(self):
        rng = random.Random(8)
        for _ in range(50):
            g = random_degree23_graph(rng.randrange(6, 11), rng)
            want = brute_ct(g) or CT_IMPOSSIBLE
            assert ct_gamma(g) == want
            ct, edges = ct_definitional(g)
            assert ct == want
            assert_sequence_lowers_gamma(g, ct, edges)

    def test_gamma_plus_one_clause(self):
        # every MDS of both graphs is independent and efficient, so the γ + 1
        # clause alone decides 2 against 3. EsWO (edges 01 02 03 14 24 35) is
        # dominated by {0, 1, 3}, which induces two edges on γ + 1 = 3
        # vertices. Two disjoint edges dominate P6, but on 4 > γ + 1 vertices
        for g, ct in ((parse_graph6("EsWO"), 2), (path_graph(6), 3)):
            assert domination_number(g).gamma == 2
            assert all_independent_md(g).holds and all_efficient_md(g).holds
            assert ct_gamma(g) == ct_definitional(g)[0] == brute_ct(g) == ct

    def test_each_quotient_solved_once(self, gamma_calls, c6):
        # every graph at most three contractions make from C6, by edge set
        quotients = set()
        for k in (1, 2, 3):
            for edge_set in itertools.combinations(c6.edges(), k):
                h, where = c6, list(range(c6.n))
                for a, b in edge_set:
                    h, where = contract_tracked(h, where, a, b)
                quotients.add(h.closed_masks)
        assert ct_definitional(c6)[0] == 3
        solved = [h.closed_masks for h in gamma_calls]
        assert solved[0] == c6.closed_masks
        assert len(set(solved)) == len(solved)
        assert set(solved[1:]) <= quotients
        # depth 3 stops at its first drop, so every shallower quotient is solved
        assert {q for q in quotients if len(q) > c6.n - 3} <= set(solved)


class TestBlockerReport:
    def test_c6_report(self, c6):
        report = blocker_report(c6)
        d = report.to_json_dict()
        assert d["gamma"] == 2
        assert d["one_contraction"] == "no"
        assert d["all_independent"] == "yes"
        assert d["ct_gamma"] == 3
        assert sorted(d["witnesses"]["gamma_witness"]) == d["witnesses"]["gamma_witness"]

    def test_p4_report(self, p4):
        d = blocker_report(p4).to_json_dict()
        assert d["one_contraction"] == "yes"
        assert d["all_independent"] == "no"
        assert d["ct_gamma"] == 1
        assert "non_independent_mds" in d["witnesses"]

    def test_invariants_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(25):
            g = connected_random(rng, rng.randrange(2, 8))
            report = blocker_report(g)
            assert report.one_contraction.holds == (not report.all_independent.holds)
            if report.gamma == 1:
                assert report.ct == CT_IMPOSSIBLE
                assert not report.one_contraction.holds
            else:
                assert report.ct in (1, 2, 3)

    def test_solves_gamma_once(self, gamma_calls, c6):
        assert blocker_report(c6).ct == 3
        assert [h for h in gamma_calls if h.adj == c6.adj] == [c6]

    def test_sets_up_its_graph_once(self, monkeypatch, c6):
        # the searches of one graph share its two-hop set-up, and the
        # deciders share its connectivity verdict, both kept with the graph
        built = {"search_setup": [], "_connected": []}
        for name, calls in built.items():
            prop = LabeledGraph.__dict__[name]

            def counted(g, build=prop.func, calls=calls):
                calls.append(g)
                return build(g)

            monkeypatch.setattr(prop, "func", counted)
        for g in (c6, path_graph(4), random_degree23_graph(14, random.Random(3))):
            for calls in built.values():
                calls.clear()
            blocker_report(g)
            assert built == {"search_setup": [g], "_connected": [g]}

    def test_searches_never_decode_neighbour_sets(self, gamma_calls):
        # adj is a cached view of the masks: it enters vars(g) once decoded
        for g in (build_subcubic(unsatisfiable_fixture())[0], build_p7free(gen_3sat(4, 6, 1))[0]):
            table = GammaTable()
            blocker_report(g, table)
            ct_definitional(g, table)
            assert "adj" not in vars(g)
        # the contractions ct_definitional solved were built from masks alone
        assert len(gamma_calls) > 2
        assert not any("adj" in vars(h) for h in gamma_calls)

    def test_gamma_one_report(self):
        d = blocker_report(star_graph(3)).to_json_dict()
        assert d["gamma"] == 1
        assert d["ct_gamma"] == CT_IMPOSSIBLE
        assert d["one_contraction"] == "no"


class TestGammaTable:
    def test_one_solve_per_adjacency(self, gamma_calls, c6):
        relabeled = LabeledGraph.from_edges(c6.n, c6.edges(), [VertexLabel("clause", clause=0)] * c6.n)
        table = GammaTable()
        first = table.solve(c6)
        assert table.solve(relabeled) is first
        assert first.gamma == 2
        assert gamma_calls == [c6]

    def test_budget_exceeded_is_not_stored(self, gamma_calls):
        g, rmap = build_subcubic(unsatisfiable_fixture())
        table = GammaTable(budget=1)
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                table.solve(g)
        table.budget = None  # a refused solve stored nothing, so this one solves
        assert table.solve(g) is table.solve(g)
        assert table.solve(g).gamma > rmap.expected_gamma()  # unsatisfiable: above the floor
        assert len(gamma_calls) == 3  # two refused, one stored

    def test_results_persist(self, gamma_calls):
        # C8 and C5 enumerate to decide: on C9 and C6 the counting
        # certificate answers with no node
        c8, c5 = cycle_graph(8), cycle_graph(5)
        table = GammaTable()
        first = table.solve(c8)
        decision = all_independent_md(c8, table)
        nodes = table.nodes
        assert nodes > 0
        table.solve(c5)
        all_independent_md(c5, table)
        nodes_after_c5 = table.nodes
        assert nodes_after_c5 > nodes
        # γ and decisions of c8 outlive the move to c5, and cost no nodes
        assert table.solve(c8) is first
        assert table.solve_masks(c8.closed_masks) is first
        assert all_independent_md(c8, table) is decision
        assert table.nodes == nodes_after_c5
        assert gamma_calls == [c8, c5]

    def test_budget_bounds_every_search_together(self, search_nodes):
        # every single search of the report fits the budget; the searches
        # together do not, and they run out in the ct clause
        g, _ = build_subcubic(gen_1in3(6, 1))
        assert blocker_report(g, GammaTable()).ct == 3
        assert max(search_nodes) <= 300 < sum(search_nodes)
        table = GammaTable(budget=300)
        assert blocker_report(g, table).ct == "unknown"
        assert table.nodes == 301
        table = GammaTable(budget=300)
        with pytest.raises(BudgetExceeded) as exc:
            ct_gamma(g, table)
        assert table.nodes == exc.value.nodes == 301

    def test_hit_costs_no_nodes_and_builds_no_graph(self, monkeypatch, gamma_calls, c6):
        built = []
        build = LabeledGraph.from_closed_masks

        def counted(masks):
            built.append(masks)
            return build(masks)

        monkeypatch.setattr(LabeledGraph, "from_closed_masks", staticmethod(counted))
        table = GammaTable()
        masks = contract_masks(c6.closed_masks, 0, 1)
        first = table.solve_masks(masks)
        assert first.gamma == 2 and built == [masks]
        nodes = table.nodes
        assert table.solve_masks(masks) is first
        assert table.nodes == nodes and built == [masks] and len(gamma_calls) == 1
        # C6 has γ = 2 and no edge lowers it, so level 1 of ct_definitional
        # contracts every edge: each of those graphs is built once, as is
        # every graph of the later levels, and asking again builds nothing
        answer = ct_definitional(c6, table=table)
        assert answer[0] == 3
        level1 = {contract_masks(c6.closed_masks, u, v) for u, v in c6.edges()}
        assert level1 <= set(built)
        assert len(built) == len(set(built)) == len(gamma_calls) - 1  # all but C6 itself
        searched = len(built)
        assert ct_definitional(c6, table=table) == answer
        assert len(built) == searched


class TestSearchTrees:
    """The search visits the same nodes in the same order on fixed graphs.

    The golden file pins gamma, the witness, the optimizer's and the
    enumerator's node counts, every MDS in visit order, and ct with the node
    count of the whole blocker report (forced solves included), so a change
    to how the solver walks its masks cannot silently change what it
    explores.
    """

    GRAPHS = {
        "unsat_fixture": lambda: build_subcubic(unsatisfiable_fixture())[0],
        "sat_fixture": lambda: build_subcubic(satisfiable_fixture())[0],
        "grid_5x8": lambda: grid_graph(5, 8),
        "c9": lambda: cycle_graph(9),
        "p7free_nv4": lambda: build_p7free(gen_3sat(4, 6, 1))[0],
        "degree23_n19": lambda: random_degree23_graph(19, random.Random(1)),
        "subcubic_nv9_seed1": lambda: build_subcubic(gen_1in3(9, 1))[0],
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_pinned_search(self, name):
        want = json.loads(SEARCH_TREES.read_text(encoding="utf-8"))[name]
        g = self.GRAPHS[name]()
        assert g.n == want["n"]
        optimizer_table, enumerator_table = GammaTable(), GammaTable()
        result = domination_number(g, optimizer_table)
        enumerator = domination._Enumerator(g, result.gamma, enumerator_table)
        found = []
        assert enumerator.visit_all(lambda s: found.append(sorted(s)) or True)
        assert (result.gamma, sorted(result.witness)) == (want["gamma"], want["witness"])
        assert optimizer_table.nodes == want["optimizer_nodes"]
        assert enumerator_table.nodes == want["enumerator_nodes"]
        assert found == want["mds"]
        report_table = GammaTable()
        assert blocker_report(g, report_table).ct == want["ct"]
        assert report_table.nodes == want["report_nodes"]


class TestLowerBound:
    """lower_bound is the reference bound with its branch set; given a
    threshold it may stop at the packing, but only once the packing exceeds
    the threshold, so every comparison with it comes out as before."""

    @staticmethod
    def random_graphs(max_n):
        rng = random.Random(max_n)
        for i in range(60):
            yield random_connected_graph(4 + i % (max_n - 3), rng)
            yield random_degree23_graph(8 + i % (max_n - 7), rng)

    @staticmethod
    def random_states(graphs):
        rng = random.Random(1109)
        for g in graphs:
            for _ in range(10):
                und = rng.getrandbits(g.n) or 1
                avail = rng.getrandbits(g.n) | rng.getrandbits(g.n)
                if rng.random() < 0.3:
                    avail |= rng.getrandbits(g.n)
                yield g, und, avail

    @pytest.fixture(scope="class")
    def searched_states(self):
        """(graph, und, avail) of every bound the searches of
        TestSearchTrees' small graphs ask for."""
        states, asked = [], []
        bound = domination._Search.lower_bound

        def recorded(search, und, avail, need=None):
            asked.append((und, avail))
            return bound(search, und, avail, need)

        domination._Search.lower_bound = recorded
        try:
            for name in ("c9", "degree23_n19", "grid_5x8", "p7free_nv4"):
                g = TestSearchTrees.GRAPHS[name]()
                gamma = domination_number(g).gamma
                domination._Enumerator(g, gamma, None).visit_all(lambda s: True)
                states += [(g, und, avail) for und, avail in asked]
                asked.clear()
        finally:
            domination._Search.lower_bound = bound
        assert len(states) >= 500
        return states

    def all_states(self, searched_states):
        builds = [build_subcubic(satisfiable_fixture())[0], build_p7free(gen_3sat(4, 6, 1))[0]]
        yield from self.random_states(itertools.chain(self.random_graphs(64), builds))
        yield from searched_states

    def expected(self, g, und, avail):
        bound, branch = reference_lower_bound(g, _bits(und), _bits(avail))
        return bound, TestIncrementalReduce.as_mask(branch)

    def test_matches_reference(self, searched_states):
        for g, und, avail in self.all_states(searched_states):
            assert domination._Optimizer(g, None).lower_bound(und, avail) == self.expected(
                g, und, avail
            )

    def test_threshold_keeps_every_comparison(self, searched_states):
        stopped = 0
        for g, und, avail in self.all_states(searched_states):
            search = domination._Optimizer(g, None)
            want, branch = self.expected(g, und, avail)
            for need in range(want - 2, want + 2):
                got = search.lower_bound(und, avail, need)
                assert got[1] == branch
                assert (got[0] > need) == (want > need)
                if want <= need:
                    assert got[0] == want
                stopped += got[0] != want
        assert stopped >= 100  # the packing alone decides some comparisons

    def test_never_exceeds_the_residual_optimum(self):
        for g, und, avail in self.random_states(self.random_graphs(10)):
            bound, _ = domination._Optimizer(g, None).lower_bound(und, avail)
            best = brute_residual(g, _bits(und), _bits(avail))
            assert bound == g.n + 1 if best is None else bound <= best


class TestIncrementalReduce:
    """reduce re-checks only where the bits cleared since a fixpoint can make
    a rule fire; on every state it must return what full passes return."""

    SEARCHES = {
        "optimizer": lambda g: domination._Optimizer(g, None),
        "enumerator": lambda g: domination._Enumerator(g, g.n, None),
    }

    @staticmethod
    def graphs():
        rng = random.Random(4242)
        for i in range(40):
            yield random_connected_graph(8 + i % 20, rng)
            yield random_degree23_graph(12 + i % 20, rng)

    @staticmethod
    def as_mask(vertices):
        return sum(1 << v for v in vertices)

    def expected(self, g, und, avail, preserving):
        ref = reference_reduce(g, _bits(und), _bits(avail), preserving)
        return None if ref is None else tuple(self.as_mask(part) for part in ref)

    @pytest.mark.parametrize("kind", sorted(SEARCHES))
    def test_children_of_fixpoints_match_full_passes(self, kind):
        rng = random.Random(kind)
        children = 0
        for g in self.graphs():
            search = self.SEARCHES[kind](g)
            preserving = search.solution_preserving
            for _ in range(3):
                und, avail, since = search.full, search.full, None
                while True:
                    got = search.reduce(und, avail, since)
                    assert got == self.expected(g, und, avail, preserving)
                    if got is None or not got[1]:
                        break
                    _, fix_und, fix_avail = got
                    # a child: v dominates its neighbourhood, some candidates
                    # tried before it leave avail, and the optimizer may keep
                    # one component of und only
                    if not preserving and rng.random() < 0.5:
                        und = rng.choice(search.split_components(fix_und))
                    else:
                        und = fix_und
                    candidates = list(_bits(fix_avail))
                    v = rng.choice(candidates)
                    tried = [x for x in candidates if x == v or rng.random() < 0.2]
                    und &= ~search.nb[v]
                    avail = fix_avail & ~self.as_mask(tried)
                    since = (fix_und, fix_avail)
                    children += 1
        assert children >= 250

    @pytest.mark.parametrize("kind", sorted(SEARCHES))
    def test_every_state_of_the_small_graphs(self, kind):
        # every (und, avail) of every connected graph with n <= 5 from a
        # fresh start, and every one-bit child of each fixpoint for n <= 4:
        # ties of equal sets and undominated vertices with no live
        # dominator are all among them
        states = children = 0
        for g in connected_graphs_upto(5):
            search = self.SEARCHES[kind](g)
            preserving = search.solution_preserving
            for und, avail in itertools.product(range(search.full + 1), repeat=2):
                got = search.reduce(und, avail)
                assert got == self.expected(g, und, avail, preserving)
                states += 1
                if got is None or g.n > 4:
                    continue
                _, fix_und, fix_avail = got
                cut = [(fix_und & ~(1 << bit), fix_avail) for bit in _bits(fix_und)]
                cut += [(fix_und, fix_avail & ~(1 << bit)) for bit in _bits(fix_avail)]
                for child_und, child_avail in cut:
                    assert search.reduce(child_und, child_avail, got[1:]) == self.expected(
                        g, child_und, child_avail, preserving
                    )
                children += len(cut)
        assert (states, children) == (23188, {"enumerator": 3067, "optimizer": 617}[kind])

    @pytest.mark.parametrize("kind", sorted(SEARCHES))
    def test_one_bit_below_fixpoints_of_arbitrary_states(self, kind):
        # arbitrary states reach fixpoints the search never builds (an
        # undominated vertex that is not available, say), where one cleared
        # bit can enable a rule up to three hops away; each bit is tried on
        # its own, so a mark that falls short shows as a missed firing
        rng = random.Random(kind)
        children = 0
        for i in range(400):
            if i % 2:
                g = random_connected_graph(6 + i % 10, rng)
            else:
                g = random_degree23_graph(8 + i % 10, rng)
            search = self.SEARCHES[kind](g)
            preserving = search.solution_preserving
            und = rng.getrandbits(g.n)
            avail = rng.getrandbits(g.n) | rng.getrandbits(g.n)
            got = search.reduce(und, avail)
            assert got == self.expected(g, und, avail, preserving)
            if got is None:
                continue
            _, und, avail = got
            for bit in _bits(avail):
                child = avail & ~(1 << bit)
                assert search.reduce(und, child, (und, avail)) == self.expected(
                    g, und, child, preserving
                )
                children += 1
            for bit in _bits(und):
                child = und & ~(1 << bit)
                assert search.reduce(child, avail, (und, avail)) == self.expected(
                    g, child, avail, preserving
                )
                children += 1
        assert children >= 500


class TestPerfectRegime:
    """A part whose cap c has c · width = |und| can only be completed by an
    exact cover of und, a perfect code on it, so the γ search may skip
    every vertex that no such cover holds."""

    def test_count_and_bound_recognise_the_regime(self):
        # every (und, avail, need) state of every connected graph with n <= 5
        # that the bound lets through: the count alone then says what the
        # definitional flag says, so no separate flag is needed
        states = perfect = 0
        for g in connected_graphs_upto(5):
            search = domination._Optimizer(g, None)
            for und, avail in itertools.product(range(1, search.full + 1), range(search.full + 1)):
                for need in range(g.n + 1):
                    if search.lower_bound(und, avail, need)[0] > need:
                        continue
                    want = reference_perfect(g, _bits(und), _bits(avail), need)
                    assert (need * search.width == und.bit_count()) == want, (g.closed_masks, und, avail, need)
                    states += 1
                    perfect += want
        assert (states, perfect) == (84580, 693)

    def test_every_completion_is_a_perfect_code(self):
        # every state of every connected graph with n <= 6 whose cap times
        # width is |und|: each dominating subset of avail with at most cap
        # vertices has cap members, whose closed neighbourhoods have the
        # largest size, lie in und and are pairwise disjoint, so the take
        # rule refuses none of them; the search asked as ``forced`` asks it,
        # with the floor at the cap and und as its region, returns what the
        # search without them returns, None exactly when no such subset
        # exists. The bound lets through every state that has one, and as
        # many states as have one, so exactly those. In some states the rule
        # refuses a take that ``reduce`` forces, so the search returns None
        # before its first node
        states = covered = passed = refused = 0
        for g in connected_graphs_upto(6):
            table = GammaTable()
            search = domination._Optimizer(g, table)
            width = search.width
            for und in range(1, search.full + 1):
                if und.bit_count() % width:
                    continue
                cap = und.bit_count() // width
                und_set = set(_bits(und))
                for avail in range(search.full + 1):
                    covers = [
                        s
                        for size in range(cap + 1)
                        for s in itertools.combinations(_bits(avail), size)
                        if und_set <= set().union(*(closed_neighborhood(g, x) for x in s))
                    ]
                    for s in covers:
                        hoods = [closed_neighborhood(g, x) for x in s]
                        assert len(s) == cap, (g.closed_masks, und, avail, s)
                        assert all(len(h) == width and h <= und_set for h in hoods), (g.closed_masks, und, s)
                        assert sum(map(len, hoods)) == len(set().union(*hoods)), (g.closed_masks, und, s)
                    table.nodes = 0
                    got = search.min_dominating(und, avail, cap, floor=cap, region=und)
                    ticked = table.nodes
                    assert got == search.min_dominating(und, avail, cap), (g.closed_masks, und, avail)
                    assert (got is None) == (not covers), (g.closed_masks, und, avail)
                    states += 1
                    covered += bool(covers)
                    passed += search.lower_bound(und, avail, cap)[0] <= cap
                    red = search.reduce(und, avail)
                    refused += got is None and not ticked and red is not None and red[0].bit_count() <= cap
        assert (states, covered, passed, refused) == (52086, 7541, 7541, 31)

    def test_a_forced_take_outside_the_region_costs_no_node(self):
        # a 4-cycle 1-3-2-4, a vertex 0 joined to 1 and 2, and a leaf 5 on 0:
        # width 4 from N[0]. With und {1, 2, 3, 5} and avail {1, 2, 4, 5}, 5
        # is its own only live dominator, so ``reduce`` forces it, but N[5] =
        # {0, 5} leaves the region; no exact cover holds 5, and the search
        # returns None before its node, where without the region it ticks
        # one node to find the cap spent
        g = LabeledGraph.from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4)])
        table = GammaTable()
        search = domination._Optimizer(g, table)
        und, avail = 0b101110, 0b110110
        assert search.width == 4 and und.bit_count() == 4
        assert search.reduce(und, avail)[:2] == (1 << 5, 0b1110)
        assert search.min_dominating(und, avail, 1, floor=1, region=und) is None
        assert table.nodes == 0
        assert search.min_dominating(und, avail, 1) is None
        assert table.nodes == 1

    # γ nodes of satisfiable subcubic builds, where γ = n / 4 and the root
    # bound is γ: the probe at the bound is an exact-cover search. Without
    # the regime and the floor the search took 32, 26, 80, 153, 148 and 920
    SATISFIABLE_GAMMA_NODES = {(6, 1): 7, (6, 3): 6, (9, 1): 8, (9, 3): 19, (12, 2): 10, (15, 3): 26}

    def test_the_probe_at_the_floor_takes_few_nodes(self):
        # the pins are by design; each rule of the regime moves some of them
        for (nv, seed), want in self.SATISFIABLE_GAMMA_NODES.items():
            g, rmap = build_subcubic(gen_1in3(nv, seed))
            table = GammaTable()
            result = domination_number(g, table)
            assert result.gamma == rmap.expected_gamma() == g.n // 4
            assert table.nodes == want, (nv, seed)
