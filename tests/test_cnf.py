import itertools

import pytest
from hypothesis import given, settings, strategies as st

from domblocker import (
    CnfError,
    Formula1in3,
    Formula3Sat,
    emit_dimacs_cnf,
    gen_1in3,
    gen_3sat,
    parse_dimacs_cnf,
    satisfiable_fixture,
    solve_1in3_brute,
    solve_3sat_brute,
    unsatisfiable_fixture,
    validate_1in3,
    validate_3sat,
)
from domblocker.verify import all_three_var_formulas


def naive_one_in_three(f: Formula1in3):
    """Independent per-clause filter over all assignments."""
    for bits in range(1 << f.num_vars):
        a = [bool(bits >> i & 1) for i in range(f.num_vars)]
        if all(sum(a[x - 1] for x in c) == 1 for c in f.clauses):
            return tuple(a)
    return None


class TestValidate1in3:
    def test_satisfiable_fixture_ok(self):
        assert validate_1in3(satisfiable_fixture()) == []

    def test_unsat_fixture_ok(self):
        assert validate_1in3(unsatisfiable_fixture()) == []

    def test_single_clause_undercounts(self):
        f = Formula1in3.make(3, [(1, 2, 3)])
        problems = validate_1in3(f)
        assert any("occurs 1" in p for p in problems)

    def test_repeated_variable_in_clause(self):
        f = Formula1in3.make(3, [(1, 1, 2), (1, 2, 3), (2, 3, 3)])
        assert any("repeated" in p for p in validate_1in3(f))

    def test_negative_literal_flagged(self):
        f = Formula1in3.make(3, [(-1, 2, 3), (1, 2, 3), (1, 2, 3)])
        assert any("non-positive" in p for p in validate_1in3(f))


class TestBruteSolvers:
    def test_satisfiable_fixture(self):
        a = solve_1in3_brute(satisfiable_fixture())
        assert a is not None and sum(a) == 1

    def test_unsat_fixture(self):
        assert solve_1in3_brute(unsatisfiable_fixture()) is None

    def test_guard(self):
        f = Formula1in3.make(31, [(1, 2, 3)])
        with pytest.raises(CnfError, match="30"):
            solve_1in3_brute(f)

    def test_agrees_with_naive_filter_exhaustively(self):
        # every multiset of up to 4 positive clauses over up to 4 variables
        pool = list(itertools.combinations(range(1, 5), 3))
        for count in range(1, 5):
            for clauses in itertools.combinations_with_replacement(pool, count):
                f = Formula1in3.make(4, clauses)
                assert solve_1in3_brute(f) == naive_one_in_three(f)

    def test_3sat_single_clause(self):
        f = Formula3Sat.make(3, [(1, 2, -3)])
        a = solve_3sat_brute(f)
        assert a is not None and (a[0] or a[1] or not a[2])

    def test_3sat_all_sign_patterns_unsat(self):
        clauses = [
            tuple(s * v for s, v in zip(signs, (1, 2, 3)))
            for signs in itertools.product((1, -1), repeat=3)
        ]
        assert solve_3sat_brute(Formula3Sat.make(3, clauses)) is None

    def test_3sat_empty_clause_list_vacuous(self):
        assert solve_3sat_brute(Formula3Sat.make(3, [])) is not None


class TestViolated:
    @staticmethod
    def failing_clauses(f, a):
        """Every clause that a fails in f's flavor, by counting its true
        literals: one-in-three wants exactly one, 3-SAT at least one."""
        failing = []
        for i, clause in enumerate(f.clauses):
            true = sum(1 for lit in clause if (a[abs(lit) - 1] if lit > 0 else not a[abs(lit) - 1]))
            if (true != 1) if isinstance(f, Formula1in3) else (true == 0):
                failing.append(i)
        return failing

    def test_first_failing_clause_of_every_assignment(self):
        formulas = all_three_var_formulas() + [satisfiable_fixture(), unsatisfiable_fixture()]
        formulas += [gen_1in3(nv, s) for nv in (4, 5, 6) for s in range(20)]
        several = later = 0
        for f in formulas:
            for bits in range(1 << f.num_vars):
                a = tuple(bool(bits >> i & 1) for i in range(f.num_vars))
                failing = self.failing_clauses(f, a)
                assert f.violated(a) == (failing[0] if failing else None), (f, a)
                several += len(failing) > 1
                later += bool(failing) and failing[0] > 0
        # the first of several failing clauses is returned, and not always clause 0
        assert several > 0 and later > 0


class TestGenerators:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_gen_1in3_always_valid(self, seed):
        f = gen_1in3(3 + seed % 5, seed)
        assert validate_1in3(f) == []

    def test_deterministic(self):
        assert gen_1in3(6, 42) == gen_1in3(6, 42)
        assert gen_3sat(5, 6, 7) == gen_3sat(5, 6, 7)

    def test_too_few_variables(self):
        with pytest.raises(CnfError):
            gen_1in3(2, 0)

    def test_gen_3sat_valid_and_covering(self):
        for seed in range(10):
            f = gen_3sat(5, 7, seed)
            assert validate_3sat(f) == []
            assert {abs(l) for c in f.clauses for l in c} == set(range(1, 6))


class TestDimacs:
    def test_parse_single_clause(self):
        f = parse_dimacs_cnf("p cnf 3 1\n1 2 -3 0\n")
        assert isinstance(f, Formula3Sat)
        assert f.clauses == ((1, 2, -3),)

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\np cnf 3 1\nc another\n1 2 3 0\n"
        f = parse_dimacs_cnf(text, flavor="1in3")
        assert f.clauses == ((1, 2, 3),)

    def test_round_trip_generated(self):
        for seed in range(5):
            f = gen_1in3(6, seed)
            assert parse_dimacs_cnf(emit_dimacs_cnf(f), flavor="1in3") == f

    def test_round_trip_3sat(self):
        f = gen_3sat(4, 5, 3)
        assert parse_dimacs_cnf(emit_dimacs_cnf(f)) == f

    def test_wrong_clause_count(self):
        with pytest.raises(CnfError, match="declares 2"):
            parse_dimacs_cnf("p cnf 3 2\n1 2 3 0\n")

    def test_missing_terminator(self):
        with pytest.raises(CnfError, match="0-terminated"):
            parse_dimacs_cnf("p cnf 3 1\n1 2 3\n")

    def test_missing_problem_line(self):
        with pytest.raises(CnfError, match="problem line"):
            parse_dimacs_cnf("1 2 3 0\n")

    def test_malformed_problem_line(self):
        with pytest.raises(CnfError, match="line 1"):
            parse_dimacs_cnf("p cnf x y\n")

    def test_out_of_range_variable(self):
        with pytest.raises(CnfError, match="variable 7"):
            parse_dimacs_cnf("p cnf 3 1\n1 2 7 0\n")

    def test_negative_literal_is_validation_not_parse_for_1in3(self):
        f = parse_dimacs_cnf("p cnf 3 1\n1 2 -3 0\n", flavor="1in3")
        assert isinstance(f, Formula1in3)
        assert any("non-positive" in p for p in validate_1in3(f))

    def test_multiline_clause(self):
        f = parse_dimacs_cnf("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)
