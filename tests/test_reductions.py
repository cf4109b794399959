import itertools
import random

import pytest

from domblocker import (
    Formula1in3,
    Formula3Sat,
    ReductionError,
    assignment_to_mds_p7,
    assignment_to_mds_subcubic,
    build_clawfree,
    build_p7free,
    build_subcubic,
    complete_graph,
    cycle_graph,
    domination_number,
    enumerate_minimum_dominating_sets,
    find_claw,
    find_induced_path,
    is_dominating,
    is_efficient,
    is_independent,
    lift_dominating_set,
    mds_to_assignment_p7,
    mds_to_assignment_subcubic,
    path_graph,
    prism_graph,
    project_dominating_set,
    gen_1in3,
    satisfiable_fixture,
    solve_1in3_brute,
    unsatisfiable_fixture,
)
from domblocker.smallgraphs import random_degree23_graph

from bruteforce import brute_gamma, closed_neighborhood, dominates


@pytest.fixture(scope="module")
def sat_build():
    return build_subcubic(satisfiable_fixture())


@pytest.fixture(scope="module")
def unsat_build():
    return build_subcubic(unsatisfiable_fixture())


class TestBuildSubcubic:
    def test_fixture_size_and_degree(self, sat_build):
        g, rmap = sat_build
        assert g.n == 48 == 9 * 3 + 7 * 3
        assert g.max_degree() == 3
        assert g.is_connected()

    def test_degree_profile(self, sat_build):
        g, rmap = sat_build
        # cycle_u vertices and variable vertices have degree 2, the rest 3
        for v in range(g.n):
            expected = 2 if g.labels[v].kind in ("cycle_u", "variable") else 3
            assert g.degree(v) == expected, g.labels[v]

    def test_vertex_count_formula(self):
        for seed in range(4):
            f = gen_1in3(4, seed)
            g, _ = build_subcubic(f)
            assert g.n == 9 * f.num_vars + 7 * len(f.clauses)

    def test_variable_cycle_wiring(self, sat_build):
        """The 9-cycle adjacencies the converters and deciders rely on."""
        g, rmap = sat_build
        for x in (1, 2, 3):
            T, F, U = rmap.true_ids[x], rmap.false_ids[x], rmap.cycle_u_ids[x]
            gadget = rmap.gadget_vertices(x)
            # u_x^i is adjacent to T_x^i and to F_x^{i-1} (cyclically)
            assert g.adj[U[1]] & gadget == {T[1], F[3]}
            assert g.adj[U[2]] & gadget == {T[2], F[1]}
            assert g.adj[U[3]] & gadget == {T[3], F[2]}
            # each false vertex touches its same-index true vertex
            for i in (1, 2, 3):
                assert g.has_edge(T[i], F[i])

    def test_clause_gadget_wiring(self, sat_build):
        g, rmap = sat_build
        for ci, clause in enumerate(rmap.formula.clauses):
            cv = rmap.clause_vertex[ci]
            lv = rmap.l_vertex[ci]
            xv = rmap.variable_vertex[ci]
            gadget = rmap.clause_gadget_vertices(ci)
            # the l-vertices form a triangle, each tied to its variable vertex
            for a, b in itertools.combinations(lv.values(), 2):
                assert g.has_edge(a, b)
            for x in clause:
                assert g.has_edge(xv[x], lv[x])
            # the clause vertex has no edge inside its own gadget
            assert not (g.adj[cv] & gadget)
            assert g.degree(cv) == 3

    def test_shared_occurrence_index(self, sat_build):
        """The clause vertex and the variable vertex attach at the same index:
        c ~ T_x^i exactly when the clause's variable vertex ~ F_x^i."""
        g, rmap = sat_build
        for (x, ci), i in rmap.occ.items():
            assert g.has_edge(rmap.clause_vertex[ci], rmap.true_ids[x][i])
            assert g.has_edge(rmap.variable_vertex[ci][x], rmap.false_ids[x][i])

    def test_true_false_vertices_have_unique_outside_edge(self, sat_build):
        g, rmap = sat_build
        for x in (1, 2, 3):
            gadget = rmap.gadget_vertices(x)
            for i in (1, 2, 3):
                t_out = g.adj[rmap.true_ids[x][i]] - gadget
                f_out = g.adj[rmap.false_ids[x][i]] - gadget
                assert len(t_out) == 1 and g.labels[next(iter(t_out))].kind == "clause"
                assert len(f_out) == 1 and g.labels[next(iter(f_out))].kind == "variable"

    def test_invalid_formula_rejected(self):
        with pytest.raises(ReductionError):
            build_subcubic(Formula1in3.make(3, [(1, 2, 3)]))

    def test_disconnected_incidence_rejected(self):
        # two independent satisfiable blocks: valid formula, disconnected graph
        f = Formula1in3.make(6, [(1, 2, 3)] * 3 + [(4, 5, 6)] * 3)
        with pytest.raises(ReductionError, match="disconnected"):
            build_subcubic(f)

    def test_deterministic(self):
        assert build_subcubic(satisfiable_fixture())[0] == build_subcubic(satisfiable_fixture())[0]


class TestSubcubicGamma:
    def test_satisfiable_gamma_exact(self, sat_build):
        g, rmap = sat_build
        # upper bound from an explicit assignment-derived set, floor from the
        # disjoint cycle_u neighborhoods: together they pin gamma = 12 without
        # trusting the solver, which must then agree
        assignment = solve_1in3_brute(rmap.formula)
        ub = assignment_to_mds_subcubic(rmap, assignment)
        assert len(ub) == 12 and is_dominating(g, ub)
        assert domination_number(g).gamma == 12

    def test_unsat_gamma_at_least_17(self, unsat_build):
        g, rmap = unsat_build
        assert rmap.expected_gamma() == 16
        assert domination_number(g).gamma >= 17

    def test_true_triple_is_independent(self, sat_build):
        g, rmap = sat_build
        for x in (1, 2, 3):
            assert is_independent(g, frozenset(rmap.true_ids[x].values()))
            assert is_independent(g, frozenset(rmap.false_ids[x].values()))

    def test_cycle_u_closed_neighborhoods_disjoint(self, sat_build):
        """The structural floor: three disjoint closed neighborhoods per
        variable gadget, all inside the gadget."""
        g, rmap = sat_build
        for x in (1, 2, 3):
            hoods = [
                closed_neighborhood(g, u) for u in rmap.cycle_u_ids[x].values()
            ]
            assert all(h <= rmap.gadget_vertices(x) for h in hoods)
            for a, b in itertools.combinations(hoods, 2):
                assert not (a & b)


class TestSubcubicConverters:
    def test_assignment_round_trip(self, sat_build):
        g, rmap = sat_build
        assignment = solve_1in3_brute(rmap.formula)
        d = assignment_to_mds_subcubic(rmap, assignment)
        assert is_dominating(g, d) and is_efficient(g, d)
        back = mds_to_assignment_subcubic(rmap, g, d)
        assert all(sum(back[x - 1] for x in c) == 1 for c in rmap.formula.clauses)

    def test_every_enumerated_mds_extracts(self, sat_build):
        g, rmap = sat_build
        count = 0
        for d in enumerate_minimum_dominating_sets(g):
            a = mds_to_assignment_subcubic(rmap, g, d)
            assert all(sum(a[x - 1] for x in c) == 1 for c in rmap.formula.clauses)
            count += 1
        assert count >= 1

    def test_all_false_assignment_rejected(self, sat_build):
        _, rmap = sat_build
        with pytest.raises(ReductionError, match="l-vertex"):
            assignment_to_mds_subcubic(rmap, (False, False, False))

    def test_two_true_in_clause_rejected(self, sat_build):
        _, rmap = sat_build
        with pytest.raises(ReductionError):
            assignment_to_mds_subcubic(rmap, (True, True, False))

    def test_undersized_set_rejected(self, sat_build):
        g, rmap = sat_build
        with pytest.raises(ReductionError, match="size"):
            mds_to_assignment_subcubic(rmap, g, frozenset(range(5)))

    def test_permuted_instance_same_sizes(self):
        f = Formula1in3.make(3, [(1, 2, 3)] * 3)
        g1, m1 = build_subcubic(f)
        a = solve_1in3_brute(f)
        assert len(assignment_to_mds_subcubic(m1, a)) == 12


class TestBuildClawfree:
    def test_c5_blowup(self):
        target, rmap = build_clawfree(cycle_graph(5))
        assert target.n == 35
        assert find_claw(target) is None
        assert target.max_degree() == 2  # all-degree-2 source: one long cycle
        assert target.is_connected()

    def test_k4_blowup(self):
        target, rmap = build_clawfree(complete_graph(4))
        assert target.n == 72
        assert find_claw(target) is None and target.is_subcubic()
        assert target.min_degree() == 2

    def test_subcubic_output_blowup_structure(self, sat_build):
        g, _ = sat_build
        target, rmap = build_clawfree(g)
        assert len(rmap.v3_list) == 30 and len(rmap.v2_list) == 18
        assert target.n == 18 * 30 + 7 * 18 == 666
        assert find_claw(target) is None
        assert target.is_subcubic() and target.is_connected()
        assert target.min_degree() == 2

    def test_gadget_internal_wiring(self):
        """Per degree-3 gadget, the adjacencies the projection counting uses:
        b_i between a_i and c_i; u_1 picks up a_1 and w_1 picks up c_3; the
        ports sit in triangles with their u/w pair."""
        target, rmap = build_clawfree(complete_graph(4))
        for v in rmap.v3_list:
            ids = rmap.ids[v]
            gadget = rmap.gadget_vertices(v)
            for i in (1, 2, 3):
                assert target.adj[ids[f"b{i}"]] == {ids[f"a{i}"], ids[f"c{i}"]}
                assert target.has_edge(ids[f"u{i}"], ids[f"w{i}"])
                assert target.has_edge(ids[f"v{i}"], ids[f"u{i}"])
                assert target.has_edge(ids[f"v{i}"], ids[f"w{i}"])
            assert target.adj[ids["u1"]] & gadget == {ids["v1"], ids["a1"], ids["w1"]}
            assert target.adj[ids["w1"]] & gadget == {ids["c3"], ids["v1"], ids["u1"]}
            assert target.adj[ids["w2"]] & gadget == {ids["c1"], ids["v2"], ids["u2"]}
            assert target.adj[ids["w3"]] & gadget == {ids["c2"], ids["v3"], ids["u3"]}

    def test_degree2_gadget_is_path(self):
        target, rmap = build_clawfree(cycle_graph(4))
        for v in rmap.v2_list:
            ids = rmap.ids[v]
            assert target.adj[ids["u1"]] & rmap.gadget_vertices(v) == {ids["v1"], ids["a1"]}
            assert target.adj[ids["u2"]] & rmap.gadget_vertices(v) == {ids["c1"], ids["v2"]}
            assert target.adj[ids["b1"]] == {ids["a1"], ids["c1"]}

    def test_each_port_edge_wires_matching_ports(self):
        g = prism_graph()
        target, rmap = build_clawfree(g)
        for u, v in g.edges():
            pu = rmap.ids[u][f"v{rmap.port_of[(u, v)]}"]
            pv = rmap.ids[v][f"v{rmap.port_of[(v, u)]}"]
            assert target.has_edge(pu, pv)

    def test_degree3_gadget_with_pendant_ports_is_claw_free(self):
        """The 18-vertex gadget stays claw-free when each port gets one
        outside neighbor, the worst case for the port triangles."""
        from domblocker.graphs import induced_subgraph

        target, rmap = build_clawfree(complete_graph(4))
        gadget = rmap.gadget_vertices(0)
        pendants = {
            next(iter(target.adj[rmap.ids[0][f"v{j}"]] - gadget)) for j in (1, 2, 3)
        }
        sub = induced_subgraph(target, gadget | pendants)
        assert find_claw(sub) is None

    def test_rejects_bad_degrees(self):
        with pytest.raises(ReductionError, match="degree"):
            build_clawfree(path_graph(4))  # endpoints have degree 1

    def test_rejects_disconnected(self):
        from domblocker import LabeledGraph

        two_triangles = LabeledGraph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        with pytest.raises(ReductionError, match="connected"):
            build_clawfree(two_triangles)

    def test_deterministic(self):
        assert build_clawfree(prism_graph())[0] == build_clawfree(prism_graph())[0]


class TestLiftProject:
    def test_c5_lift(self):
        g = cycle_graph(5)
        target, rmap = build_clawfree(g)
        lifted = lift_dominating_set(rmap, {0, 2})
        assert len(lifted) == 2 + 2 * 5
        assert is_dominating(target, lifted)

    def test_k4_lift_singleton(self):
        g = complete_graph(4)
        target, rmap = build_clawfree(g)
        lifted = lift_dominating_set(rmap, {0})
        assert len(lifted) == 1 + 5 * 4
        assert is_dominating(target, lifted)

    def test_lift_of_everything(self):
        g = prism_graph()
        target, rmap = build_clawfree(g)
        lifted = lift_dominating_set(rmap, set(range(6)))
        assert len(lifted) == 6 + 5 * 6
        assert is_dominating(target, lifted)

    @pytest.mark.parametrize(
        "d, message",
        [({0}, "^input does not dominate the source graph$"), ({0, 10}, "^vertex 10 out of range$")],
    )
    def test_lift_rejects_non_dominating(self, d, message):
        g = cycle_graph(5)
        _, rmap = build_clawfree(g)
        with pytest.raises(ReductionError, match=message):
            lift_dominating_set(rmap, d)

    def test_project_of_lift_recovers_size(self):
        for g in (cycle_graph(5), complete_graph(4), prism_graph()):
            _, rmap = build_clawfree(g)
            source_mds = domination_number(g).witness
            lifted = lift_dominating_set(rmap, source_mds)
            back = project_dominating_set(rmap, lifted)
            assert len(back) == len(source_mds)
            assert dominates(g, back)

    def test_project_solver_witness(self):
        g = cycle_graph(5)
        target, rmap = build_clawfree(g)
        witness = domination_number(target).witness
        projected = project_dominating_set(rmap, witness)
        assert len(projected) == 2 and dominates(g, projected)

    def test_project_rejects_oversized(self):
        g = cycle_graph(5)
        target, rmap = build_clawfree(g)
        with pytest.raises(ReductionError):
            project_dominating_set(rmap, frozenset(range(target.n)))

    def test_gadget_counts_listed_and_the_first_raised(self):
        target, rmap = build_clawfree(complete_graph(4))  # four 18-vertex gadgets
        witness = domination_number(target).witness
        assert rmap.gadget_count_problems(witness) == []
        broken = witness | rmap.gadget_vertices(1) | rmap.gadget_vertices(3)
        problems = rmap.gadget_count_problems(broken)
        assert problems == [
            f"gadget of source vertex {v} holds 18 set members, expected 5 or 6" for v in (1, 3)
        ]
        with pytest.raises(ReductionError) as exc:
            project_dominating_set(rmap, broken)
        assert str(exc.value) == problems[0] + "; input is not a minimum dominating set"


class TestConverterInputs:
    """A set of the floor's size with a member outside the graph is a
    ReductionError that names the member."""

    def test_mds_to_assignment_subcubic(self, sat_build):
        g, rmap = sat_build
        d = assignment_to_mds_subcubic(rmap, (True, False, False))
        with pytest.raises(ReductionError, match=f"^vertex {g.n + 5} out of range$"):
            mds_to_assignment_subcubic(rmap, g, d - {min(d)} | {g.n + 5})

    def test_mds_to_assignment_p7(self):
        g, rmap = build_p7free(Formula3Sat.make(3, [(1, 2, -3)]))
        d = assignment_to_mds_p7(rmap, (True, False, False))
        with pytest.raises(ReductionError, match=f"^vertex {g.n + 5} out of range$"):
            mds_to_assignment_p7(rmap, g, d - {min(d)} | {g.n + 5})


class TestClaimOffsetIdentity:
    @pytest.mark.parametrize(
        "name,graph,expected_gamma",
        [
            ("C4", cycle_graph(4), 2),
            ("C5", cycle_graph(5), 2),
            ("C6", cycle_graph(6), 2),
            ("C9", cycle_graph(9), 3),
            ("K4", complete_graph(4), 1),
            ("prism", prism_graph(), 2),
        ],
    )
    def test_offset_identity(self, name, graph, expected_gamma):
        assert brute_gamma(graph) == expected_gamma
        target, rmap = build_clawfree(graph)
        lifted = lift_dominating_set(rmap, domination_number(graph).witness)
        result = domination_number(target)
        assert result.gamma == expected_gamma + rmap.offset()
        assert len(lifted) == result.gamma

    def test_offset_identity_random(self):
        rng = random.Random(2024)
        for _ in range(3):
            g = random_degree23_graph(rng.randrange(6, 11), rng)
            target, rmap = build_clawfree(g)
            gamma = domination_number(g).gamma
            assert gamma == brute_gamma(g)
            lifted = lift_dominating_set(rmap, domination_number(g).witness)
            assert domination_number(target).gamma == gamma + rmap.offset() == len(lifted)


class TestBuildP7Free:
    def test_single_clause(self):
        f = Formula3Sat.make(3, [(1, 2, -3)])
        g, rmap = build_p7free(f)
        assert g.n == 10 == 3 * 3 + 1
        assert find_induced_path(g, 7) is None
        assert domination_number(g).gamma == 3
        assert g.is_connected()

    def test_eight_pattern_gamma_exceeds_floor(self):
        clauses = [
            tuple(s * v for s, v in zip(signs, (1, 2, 3)))
            for signs in itertools.product((1, -1), repeat=3)
        ]
        g, rmap = build_p7free(Formula3Sat.make(3, clauses))
        assert domination_number(g).gamma >= 4
        assert find_induced_path(g, 7) is None

    def test_disjoint_variable_clauses_connect_through_clique(self):
        f = Formula3Sat.make(6, [(1, 2, 3), (4, 5, 6)])
        g, rmap = build_p7free(f)
        assert g.is_connected()
        assert g.has_edge(rmap.clause_id[0], rmap.clause_id[1])

    def test_triangles_and_clique(self):
        f = Formula3Sat.make(4, [(1, 2, 3), (-1, -2, 4), (1, -3, -4)])
        g, rmap = build_p7free(f)
        for x in range(1, 5):
            tri = (rmap.pos_id[x], rmap.neg_id[x], rmap.u_id[x])
            for a, b in itertools.combinations(tri, 2):
                assert g.has_edge(a, b)
        for a, b in itertools.combinations(rmap.clause_id.values(), 2):
            assert g.has_edge(a, b)

    def test_clause_edges_reach_correct_literals(self):
        f = Formula3Sat.make(3, [(1, -2, 3)])
        g, rmap = build_p7free(f)
        cv = rmap.clause_id[0]
        assert g.adj[cv] == {rmap.pos_id[1], rmap.neg_id[2], rmap.pos_id[3]}

    def test_unused_variable_rejected(self):
        with pytest.raises(ReductionError, match="no clause"):
            build_p7free(Formula3Sat.make(4, [(1, 2, 3)]))

    def test_empty_clause_list_rejected(self):
        with pytest.raises(ReductionError):
            build_p7free(Formula3Sat.make(3, []))

    def test_tautological_clause_rejected(self):
        with pytest.raises(ReductionError):
            build_p7free(Formula3Sat.make(3, [(1, -1, 2)]))


class TestP7Converters:
    def test_assignment_to_set_and_back(self):
        f = Formula3Sat.make(3, [(1, 2, -3)])
        g, rmap = build_p7free(f)
        d = assignment_to_mds_p7(rmap, (True, False, False))
        assert len(d) == 3 and is_dominating(g, d)
        back = mds_to_assignment_p7(rmap, g, d)
        assert back[0] or back[1] or not back[2]

    def test_every_mds_extracts_for_satisfiable(self):
        f = Formula3Sat.make(3, [(1, 2, 3), (-1, -2, -3)])
        g, rmap = build_p7free(f)
        assert domination_number(g).gamma == 3
        for d in enumerate_minimum_dominating_sets(g):
            a = mds_to_assignment_p7(rmap, g, d)
            for clause in f.clauses:
                assert any(
                    (a[l - 1] if l > 0 else not a[-l - 1]) for l in clause
                )

    def test_wrong_size_rejected(self):
        f = Formula3Sat.make(3, [(1, 2, -3)])
        g, rmap = build_p7free(f)
        with pytest.raises(ReductionError, match="size"):
            mds_to_assignment_p7(rmap, g, frozenset({0}))

    def test_non_satisfying_assignment_rejected(self):
        f = Formula3Sat.make(3, [(1, 2, 3)])
        g, rmap = build_p7free(f)
        d = assignment_to_mds_p7(rmap, (False, False, False))
        assert not is_dominating(g, d)
        with pytest.raises(ReductionError):
            mds_to_assignment_p7(rmap, g, d)
