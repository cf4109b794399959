import itertools
import json
import weakref
from pathlib import Path

import pytest

import domblocker.verify as verify_mod
from domblocker import (
    BudgetExceeded,
    Decision,
    Formula1in3,
    Formula3Sat,
    GammaTable,
    GraphError,
    ReductionError,
    all_independent_md,
    is_efficient,
    is_independent,
    cycle_graph,
    domination_number,
    is_dominating,
    path_graph,
    satisfiable_fixture,
    unsatisfiable_fixture,
    validate_1in3,
)
from domblocker.reductions import SubcubicReductionMap, build_p7free, build_subcubic
from domblocker.verify import (
    ClaimVerdict,
    all_three_var_formulas,
    eight_pattern_formula,
    run_suite,
    suite_clawfree,
    suite_contraction,
    suite_p7,
    suite_subcubic,
    verify_clawfree_offset,
    verify_nine_cycle_gadget,
    verify_subcubic,
    verify_triangle_construction,
)

from bruteforce import brute_gamma, set_contraction


class TestFaultyWitness:
    """A witness holding vertex n + 5 makes its claim fail with a problem
    that names the vertex, on each path that hands a witness to a set
    predicate or a reduction map, in the claim or in a decider it asks."""

    @staticmethod
    def _gamma_witness_beyond(monkeypatch, n):
        # γ of a graph on n vertices comes back with its lowest witness
        # member swapped for vertex n + 5
        from domblocker import domination

        real = domination.domination_number

        def beyond(g, table=None):
            result = real(g, table)
            if g.n != n:
                return result
            return type(result)(result.gamma, result.witness - {min(result.witness)} | {n + 5})

        monkeypatch.setattr(domination, "domination_number", beyond)

    @pytest.mark.parametrize(
        "path", ["lift", "decider", "map", "efficient", "independent", "equivalences", "bound"]
    )
    def test_claim_fails_and_names_the_vertex(self, monkeypatch, path):
        if path == "lift":
            # the source γ witness goes to lift_dominating_set
            self._gamma_witness_beyond(monkeypatch, 5)
            verdict = verify_clawfree_offset(cycle_graph(5), "C5", GammaTable())
            vertex = 10
        elif path == "decider":
            # the decider's counterexample goes to the set predicates
            f = eight_pattern_formula()
            vertex = build_p7free(f)[0].n + 5
            real = verify_mod.all_independent_md
            monkeypatch.setattr(
                verify_mod,
                "all_independent_md",
                lambda g, table: Decision(False, real(g, table).witness | {vertex}),
            )
            verdict = verify_triangle_construction(f, GammaTable())
        elif path == "map":
            # the γ witness goes to mds_to_assignment_p7; the decider answers
            # yes without reading that witness
            f = Formula3Sat.make(3, [(1, 2, 3)])
            n = build_p7free(f)[0].n
            self._gamma_witness_beyond(monkeypatch, n)
            monkeypatch.setattr(verify_mod, "all_independent_md", lambda g, table: Decision(True))
            verdict = verify_triangle_construction(f, GammaTable())
            vertex = n + 5
        elif path == "efficient":
            # all_efficient_md hands the γ witness to is_efficient
            f = unsatisfiable_fixture()
            n = build_subcubic(f)[0].n
            self._gamma_witness_beyond(monkeypatch, n)
            verdict = verify_subcubic(f, GammaTable())[1]
            vertex = n + 5
        elif path == "independent":
            # all_independent_md hands the γ witness to is_independent
            f = eight_pattern_formula()
            n = build_p7free(f)[0].n
            self._gamma_witness_beyond(monkeypatch, n)
            verdict = verify_triangle_construction(f, GammaTable())
            vertex = n + 5
        else:
            # the deciders both corpus claims ask (through ct_gamma for the
            # bound) read the γ witness of each graph on four vertices
            self._gamma_witness_beyond(monkeypatch, 4)
            verdict = suite_contraction(4, 0, 1, GammaTable())[path == "bound"]
            vertex = 9
        assert verdict.status == "fail"
        problems = verdict.counterexample["problems"]
        assert any(f"vertex {vertex} out of range" in p for p in problems), problems


class TestIndividualChecks:
    def test_gamma_iff_sat_on_fixtures(self):
        assert verify_subcubic(satisfiable_fixture(), GammaTable())[0].passed
        assert verify_subcubic(unsatisfiable_fixture(), GammaTable())[0].passed

    def test_efficiency_iff_tight_on_fixtures(self):
        assert verify_subcubic(satisfiable_fixture(), GammaTable())[1].passed
        verdict = verify_subcubic(unsatisfiable_fixture(), GammaTable())[1]
        assert verdict.passed  # biconditional holds; witness got re-checked inside

    def test_nine_cycle_gadget(self):
        verdict = verify_nine_cycle_gadget(GammaTable())
        assert verdict.passed
        assert "3 minimum dominating sets" in verdict.detail

    def test_clawfree_offset_small(self):
        assert verify_clawfree_offset(cycle_graph(5), "C5", GammaTable()).passed
        assert verify_clawfree_offset(cycle_graph(6), "C6", GammaTable()).passed

    def test_triangle_construction_cases(self):
        formulas = [f for f in all_three_var_formulas() if len(f.clauses) == 1]
        assert len(formulas) == 8
        for f in formulas:
            assert verify_triangle_construction(f, GammaTable()).passed
        assert verify_triangle_construction(eight_pattern_formula(), GammaTable()).passed

    def test_contraction_checks_tiny_corpus(self):
        corpus = [("P4", path_graph(4)), ("C6", cycle_graph(6)), ("C4", cycle_graph(4))]
        claims = [verify_mod._EQUIVALENCES, verify_mod._BOUND]
        verdicts = verify_mod._corpus_verdicts(corpus, GammaTable(), claims)
        assert [v.status for v in verdicts] == ["pass", "pass"]


class TestFailurePlumbing:
    def test_broken_solver_produces_checkable_counterexample(self, monkeypatch):
        from domblocker import domination

        real = domination.domination_number

        def wrong(g, table=None):
            result = real(g, table)
            return type(result)(result.gamma + 1, result.witness)

        monkeypatch.setattr(domination, "domination_number", wrong)
        verdict = verify_mod.verify_subcubic(satisfiable_fixture(), GammaTable())[0]
        assert verdict.status == "fail"
        assert verdict.counterexample is not None
        assert verdict.counterexample["gamma"] != verdict.counterexample["target"]

    def test_gamma_witness_is_checked_against_the_gadget_floors(self, monkeypatch):
        from domblocker import domination

        real = domination.domination_number
        f = satisfiable_fixture()
        gadget = build_subcubic(f)[1].gadget_vertices(1)

        def thin(g, table=None):
            # the right γ, but a witness with no member in variable gadget 1
            result = real(g, table)
            return type(result)(result.gamma, result.witness - gadget)

        monkeypatch.setattr(domination, "domination_number", thin)
        verdict = verify_subcubic(f, GammaTable())[0]
        assert verdict.status == "fail"
        assert verdict.detail == "sat=True gamma=12 target=12"
        assert verdict.counterexample["witness_problems"][0] == (
            "variable gadget 1 holds 0 < 3 members"
        )

    def test_unprojectable_gamma_witness_fails_the_claim(self, monkeypatch):
        from domblocker import domination

        real = domination.domination_number
        f = Formula3Sat.make(3, [(1, 2, 3)])
        g, _ = build_p7free(f)
        lost = frozenset(range(real(g).gamma))
        assert not is_dominating(g, lost)

        def unprojectable(g, table=None):
            # the right γ, but a witness that does not map back to an assignment
            result = real(g, table)
            return type(result)(result.gamma, lost)

        monkeypatch.setattr(domination, "domination_number", unprojectable)
        verdict = verify_triangle_construction(f, GammaTable())
        assert verdict.status == "fail"
        # the decider reads the γ witness first: the bogus one is not
        # independent, so it comes back as the decider's counterexample, and
        # the full re-check of that counterexample rejects it too
        assert verdict.counterexample["problems"] == [
            "sat=True but all_independent=False",
            "non-independent witness does not dominate",
            "map failed: input set does not dominate the built graph",
        ]

    def test_assignment_must_map_to_a_dominating_set(self, monkeypatch):
        from domblocker import reductions

        monkeypatch.setattr(reductions, "assignment_to_mds_p7", lambda rmap, a: frozenset())
        verdict = verify_triangle_construction(Formula3Sat.make(3, [(1, 2, 3)]), GammaTable())
        assert verdict.status == "fail"
        assert verdict.counterexample["problems"] == [
            "the assignment maps to 0 vertices, not a dominating set of 3"
        ]

    def test_decider_counterexample_is_rechecked_in_full(self):
        check = verify_mod._counterexample_problems
        p4 = path_graph(4)  # γ = 2
        assert check(p4, 2, frozenset({1, 2}), is_independent) == []
        assert check(p4, 2, None, is_independent) == ["no non-independent witness"]
        assert check(p4, 2, frozenset({0}), is_independent) == [
            "non-independent witness does not dominate",
            "non-independent witness has 1 members, not gamma=2",
            "non-independent witness is independent",
        ]
        assert check(p4, 2, frozenset({0, 1, 2}), is_efficient) == [
            "non-efficient witness has 3 members, not gamma=2"
        ]

    def test_efficiency_counterexample_needs_gamma_members(self, monkeypatch):
        real = verify_mod.all_efficient_md

        def padded(g, table):
            # still dominating and not efficient, but one member too many
            decision = real(g, table)
            return Decision(False, decision.witness | {min(set(range(g.n)) - decision.witness)})

        monkeypatch.setattr(verify_mod, "all_efficient_md", padded)
        verdict = verify_subcubic(unsatisfiable_fixture(), GammaTable())[1]
        assert verdict.status == "fail"
        assert verdict.counterexample["witness_problems"] == [
            "non-efficient witness has 18 members, not gamma=17"
        ]

    def test_efficient_yes_is_checked_against_the_enumeration(self, monkeypatch):
        # the claim is told the unsatisfiable build is tight (its target is
        # set to γ) and its decider says yes, as a counting certificate
        # would: only the enumeration can refute the claim, and it does
        monkeypatch.setattr(SubcubicReductionMap, "expected_gamma", lambda self: 17)
        monkeypatch.setattr(verify_mod, "all_efficient_md", lambda g, table: Decision(True))
        verdict = verify_subcubic(unsatisfiable_fixture(), GammaTable())[1]
        assert (verdict.status, verdict.detail) == ("fail", "tight=True all_efficient=True")
        g, _ = build_subcubic(unsatisfiable_fixture())
        witness = verdict.counterexample["non_efficient_mds"]
        assert is_dominating(g, witness) and not is_efficient(g, witness) and len(witness) == 17
        assert verdict.counterexample["witness_problems"] == []
        monkeypatch.undo()
        # the true build's yes passes; its decider takes no node and the
        # enumeration all 87 of the run
        table = GammaTable()
        sat = verify_subcubic(satisfiable_fixture(), table)[1]
        assert (sat.status, sat.detail) == ("pass", "tight=True all_efficient=True")
        assert table.nodes == 87

    def test_independence_counterexample_must_fail_the_predicate(self, monkeypatch):
        f = eight_pattern_formula()
        g, _ = build_p7free(f)
        gamma = domination_number(g).gamma
        independent = set()
        for v in range(g.n):
            if not g.adj[v] & independent:
                independent.add(v)
        # a dominating set of γ members: only the predicate rejects it
        assert is_dominating(g, independent) and len(independent) == gamma
        monkeypatch.setattr(
            verify_mod, "all_independent_md", lambda g, table: Decision(False, frozenset(independent))
        )
        verdict = verify_triangle_construction(f, GammaTable())
        assert verdict.status == "fail"
        assert verdict.counterexample["problems"] == ["non-independent witness is independent"]

    def test_budget_gives_skipped_not_fail(self):
        for verdict in verify_subcubic(unsatisfiable_fixture(), GammaTable(budget=1)):
            assert verdict.status == "skipped"
            assert "budget" in verdict.detail

    def test_p7_certificate_counts_against_the_budget(self):
        f = eight_pattern_formula()
        g, _ = build_p7free(f)
        searches = GammaTable()
        searches.solve(g)
        all_independent_md(g, searches)
        whole = GammaTable()
        assert verify_triangle_construction(f, whole).passed
        assert whole.nodes > searches.nodes  # the certificate's nodes are counted
        verdict = verify_triangle_construction(f, GammaTable(searches.nodes))
        assert verdict.status == "skipped"
        assert verdict.detail.endswith(f"after {searches.nodes + 1} nodes")

    def test_runner_ends_every_claim(self):
        def check(error=None, ok=True):
            def run():
                if error is not None:
                    raise error
                return ok, "detail", {"problems": ["p"]}

            return run

        claim = verify_mod._claim
        assert claim("c", "i", check()) == ClaimVerdict("c", "i", "pass", "detail")
        assert claim("c", "i", check(ok=False)) == ClaimVerdict(
            "c", "i", "fail", "detail", {"problems": ["p"]}
        )
        assert claim("c", "i", check(BudgetExceeded(8))) == ClaimVerdict(
            "c", "i", "skipped", "budget exceeded: solver budget exceeded after 8 nodes"
        )
        for error in (GraphError("vertex 9 out of range"), ReductionError("no map")):
            assert claim("c", "i", check(error)) == ClaimVerdict(
                "c", "i", "fail", f"check raised {type(error).__name__}", {"problems": [str(error)]}
            )
        with pytest.raises(ValueError):
            claim("c", "i", check(ValueError("not a claim's fault")))

    def test_verdict_json_shape(self):
        verdict = ClaimVerdict("some-check", "inst", "fail", "boom", {"bad": 1})
        d = verdict.to_json_dict()
        assert d == {
            "claim": "some-check",
            "instance": "inst",
            "status": "fail",
            "detail": "boom",
            "counterexample": {"bad": 1},
        }


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_subcubic_suite_small(self):
        verdicts = suite_subcubic(GammaTable())
        assert [v.claim for v in verdicts] == ["nine-cycle-gadget-minimum-sets"] + [
            "subcubic-gamma-iff-sat",
            "subcubic-all-efficient-iff-tight",
        ] * 2
        assert all(v.passed for v in verdicts)

    @pytest.mark.parametrize("num_vars", [3, 4])
    def test_fixtures_are_every_small_formula(self, num_vars):
        # each variable occurs three times, so a valid formula has num_vars
        # clauses of three variables: every multiset of those is listed
        fixtures = {
            f.num_vars: sorted(f.clauses) for f in (satisfiable_fixture(), unsatisfiable_fixture())
        }
        triples = itertools.combinations_with_replacement(range(1, num_vars + 1), 3)
        valid = [
            list(clauses)
            for clauses in itertools.combinations_with_replacement(list(triples), num_vars)
            if not validate_1in3(Formula1in3.make(num_vars, clauses))
        ]
        assert valid == [fixtures[num_vars]]

    def test_all_matches_golden(self):
        verdicts = run_suite("all", max_n=6, random_count=200, seed=2024, table=GammaTable())
        text = json.dumps([v.to_json_dict() for v in verdicts], indent=2, sort_keys=True) + "\n"
        assert text == (Path(__file__).parent / "golden" / "verify_all_n6_seed2024.json").read_text()

    def test_gamma_witness_depends_on_the_graph_alone(self):
        table = GammaTable()
        suite_subcubic(table)
        for f in (satisfiable_fixture(), unsatisfiable_fixture()):
            g, _ = build_subcubic(f)
            assert table.solve(g).witness == domination_number(g).witness

    def test_clawfree_suite_small(self):
        verdicts = suite_clawfree(5, GammaTable())
        assert verdicts and all(v.passed for v in verdicts)
        claims = {v.claim for v in verdicts}
        assert "clawfree-gamma-offset" in claims and "clawfree-structure" in claims

    def test_corpus_frees_each_graph_once_walked(self):
        # a walked graph keeps its search set-up, so a listing that held
        # every graph would hold every set-up: 12,113 of them at n = 8
        walked = []
        for name, g in verify_mod._corpus(6, 5, (7,), 1):
            walked.append(weakref.ref(g))
            assert all(ref() is None for ref in walked[:-1]), name
        assert len(walked) == 143 + 5

    def test_contraction_suite_smallest(self):
        verdicts = run_suite("contraction", max_n=4, random_count=3, seed=1)
        assert [v.status for v in verdicts] == ["pass", "pass"]


class TestContractionSinglePass:
    """suite_contraction walks its corpus once for both claims; each claim
    still reports what it reports when it runs alone."""

    MAX_N, RANDOM_COUNT, SEED = 5, 4, 3

    def corpus(self):
        return list(verify_mod._corpus(self.MAX_N, self.RANDOM_COUNT, (7, 8, 9), self.SEED))

    def suite_and_alone(self):
        suite = suite_contraction(self.MAX_N, self.RANDOM_COUNT, self.SEED, GammaTable())
        corpus = self.corpus()
        claims = [verify_mod._EQUIVALENCES, verify_mod._BOUND]
        alone = [verify_mod._corpus_verdicts(corpus, GammaTable(), [claim])[0] for claim in claims]
        return [v.to_json_dict() for v in suite], [v.to_json_dict() for v in alone]

    @pytest.mark.parametrize(
        "decider, lie",
        [
            ("all_independent_md", lambda d: Decision(not d.holds, d.witness)),
            ("ct_gamma", lambda ct: 4),
            ("ct_definitional", lambda answer: (4, answer[1])),
        ],
    )
    def test_lying_decider_fails_its_claim_only(self, monkeypatch, decider, lie):
        name, target = self.corpus()[12]
        real = getattr(verify_mod, decider)

        def lying(g, *args, **kwargs):
            answer = real(g, *args, **kwargs)
            return lie(answer) if g.adj == target.adj else answer

        monkeypatch.setattr(verify_mod, decider, lying)
        suite, alone = self.suite_and_alone()
        assert suite == alone
        assert [v["status"] for v in suite].count("fail") == 1
        failed = next(v for v in suite if v["status"] == "fail")
        assert failed["instance"] == name and failed["counterexample"]

    def test_lying_sequence_fails_the_bound_only(self, monkeypatch):
        # the search answers ct = 1 with an edge whose contraction keeps γ
        real = verify_mod.ct_definitional

        def keeps_gamma(g, u, v):
            return brute_gamma(set_contraction(g, u, v)) == brute_gamma(g)

        name, target, edge = next(
            (name, g, edge)
            for name, g in self.corpus()
            if real(g)[0] == 1
            for edge in g.edges()
            if keeps_gamma(g, *edge)
        )

        def lying(g, *args, **kwargs):
            answer = real(g, *args, **kwargs)
            return (1, (edge,)) if g.adj == target.adj else answer

        monkeypatch.setattr(verify_mod, "ct_definitional", lying)
        suite, alone = self.suite_and_alone()
        assert suite == alone
        assert [v["status"] for v in suite] == ["pass", "fail"]
        assert suite[1]["instance"] == name
        assert suite[1]["counterexample"]["sequence"] == [list(edge)]

    @pytest.mark.parametrize(
        "liar, check", [("ct_definitional", "_bound"), ("one_contraction_decision", "_equivalences")]
    )
    def test_a_non_edge_is_no_contraction(self, monkeypatch, liar, check):
        # two non-adjacent members of a non-independent MDS of P7: merging them
        # lowers γ, but they are no edge, so neither claim may take them
        g = path_graph(7)
        members = sorted(all_independent_md(g).witness)
        pair = next((u, v) for u, v in itertools.combinations(members, 2) if not g.has_edge(u, v))
        lie = (1, (pair,)) if liar == "ct_definitional" else Decision(True, pair)
        monkeypatch.setattr(verify_mod, liar, lambda *args, **kwargs: lie)
        ok, _, _ = getattr(verify_mod, check)(g, GammaTable())
        assert not ok

    def test_decider_witness_is_checked_by_set_predicates(self, monkeypatch):
        real = verify_mod.all_independent_md
        name, target = next((name, g) for name, g in self.corpus() if not real(g).holds)

        def lying(g, *args, **kwargs):
            answer = real(g, *args, **kwargs)
            # every vertex dominates and holds the witness edge, but is too big
            return Decision(False, frozenset(range(g.n))) if g.adj == target.adj else answer

        monkeypatch.setattr(verify_mod, "all_independent_md", lying)
        suite = suite_contraction(self.MAX_N, self.RANDOM_COUNT, self.SEED, GammaTable())
        suite = [v.to_json_dict() for v in suite]
        assert [v["status"] for v in suite] == ["fail", "pass"]
        assert suite[0]["instance"] == name
        assert suite[0]["counterexample"]["witness_ok"] is False


class TestOneBudgetPerRun:
    """One table's budget bounds a whole run of claims: each claim keeps its
    unbudgeted verdict or, when it needed a search node after the budget ran
    out, is skipped at that one exhausted count."""

    RUNS = {
        "subcubic": suite_subcubic,
        "contraction": lambda table: suite_contraction(5, 4, 3, table),
        "p7": suite_p7,
        "clawfree": lambda table: suite_clawfree(2024, table),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_spent_budget_skips_every_open_claim(self, name):
        run = self.RUNS[name]
        unbudgeted = GammaTable()
        want = [v.to_json_dict() for v in run(unbudgeted)]
        total = unbudgeted.nodes
        for budget in (1, total // 3, 2 * total // 3, total - 1):
            table = GammaTable(budget)
            got = [v.to_json_dict() for v in run(table)]
            assert table.nodes == budget + 1
            assert len(got) == len(want)
            assert any(v["status"] == "skipped" for v in got)
            spent = f"budget exceeded: solver budget exceeded after {budget + 1} nodes"
            for verdict, unbudgeted_verdict in zip(got, want):
                if verdict != unbudgeted_verdict:
                    assert (verdict["status"], verdict["detail"]) == ("skipped", spent)
        table = GammaTable(total)
        assert [v.to_json_dict() for v in run(table)] == want
        assert table.nodes == total


class TestNothingSolvedTwice:
    """The run's table keeps γ and the every-MDS decisions for the whole run,
    so no labeled graph is solved twice however many graphs or claims meet
    it."""

    @pytest.mark.parametrize("name", sorted(TestOneBudgetPerRun.RUNS))
    def test_each_labeled_graph_solved_once(self, gamma_calls, name):
        TestOneBudgetPerRun.RUNS[name](GammaTable())
        solved = [(g.n, g.adj) for g in gamma_calls]
        assert solved and len(set(solved)) == len(solved)
