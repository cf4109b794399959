"""Acceptance criteria, one test per criterion, each printing a verdict line.

Corpora and tolerances are pinned here: exhaustive connected graphs through
6 vertices plus 200 seeded random connected graphs on 7..9 vertices for the
contraction criteria; the bundled satisfiable/unsatisfiable instances plus 10
seeded random ones for the subcubic criteria; the named small graphs plus 5
seeded random degree-{2,3} graphs for the replacement criteria; every 3-SAT
formula on three variables with up to four distinct clauses for the triangle
criteria. Every minimum dominating set produced along the way is pooled for
the per-gadget cardinality checks of criterion 8.
"""

import json
import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import domblocker as db
from domblocker.cli import main as cli_main
from domblocker.smallgraphs import (
    connected_graphs_upto,
    random_connected_graph,
    random_degree23_graph,
)
from domblocker.verify import (
    all_three_var_formulas,
    eight_pattern_formula,
)

GOLDEN = Path(__file__).parent / "golden"
SEED = 2024


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"[acceptance {criterion}] {marker}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def contraction_corpus():
    graphs = list(connected_graphs_upto(6))
    rng = random.Random(SEED)
    sizes = (7, 8, 9)
    for i in range(200):
        graphs.append(random_connected_graph(sizes[i % 3], rng))
    return graphs


@pytest.fixture(scope="module")
def found_sets():
    """Minimum dominating sets produced while running criteria 3 and 4,
    pooled for the per-gadget cardinality checks of criterion 8."""
    return {"subcubic": [], "clawfree": []}


@pytest.fixture(scope="module")
def subcubic_runs(found_sets):
    """Criterion 3 computations, shared with criterion 8."""
    instances = [db.satisfiable_fixture(), db.unsatisfiable_fixture()]
    rng = random.Random(SEED)
    for _ in range(10):
        instances.append(db.gen_1in3(rng.choice((3, 4)), rng.randrange(1 << 30)))
    runs = []
    start = time.monotonic()
    for f in instances:
        g, rmap = db.build_subcubic(f)
        assignment = db.solve_1in3_brute(f)
        result = db.domination_number(g)
        efficient = db.all_efficient_md(g)
        found_sets["subcubic"].append((rmap, result.witness))
        if assignment is not None:
            for mds in db.enumerate_minimum_dominating_sets(g):
                found_sets["subcubic"].append((rmap, mds))
        if not efficient.holds:
            found_sets["subcubic"].append((rmap, efficient.witness))
        runs.append(
            {
                "formula": f,
                "graph": g,
                "map": rmap,
                "sat": assignment is not None,
                "gamma": result.gamma,
                "efficient": efficient,
            }
        )
    return {"runs": runs, "elapsed": time.monotonic() - start}


@pytest.fixture(scope="module")
def clawfree_runs(found_sets):
    """Criterion 4 computations, shared with criteria 5 and 8."""
    cases = [
        ("C4", db.cycle_graph(4)),
        ("C5", db.cycle_graph(5)),
        ("C6", db.cycle_graph(6)),
        ("C9", db.cycle_graph(9)),
        ("K4", db.complete_graph(4)),
        ("3-prism", db.prism_graph()),
    ]
    rng = random.Random(SEED)
    for i in range(5):
        cases.append((f"random{i}", random_degree23_graph(rng.randrange(6, 11), rng)))
    runs = []
    start = time.monotonic()
    for name, g in cases:
        target, rmap = db.build_clawfree(g)
        source = db.domination_number(g)
        lifted = db.lift_dominating_set(rmap, source.witness)
        result = db.domination_number(target)
        found_sets["clawfree"].append((rmap, result.witness))
        found_sets["clawfree"].append((rmap, lifted))
        projected = db.project_dominating_set(rmap, result.witness)
        round_trip = db.project_dominating_set(rmap, lifted)
        runs.append(
            {
                "name": name,
                "source": g,
                "target": target,
                "map": rmap,
                "gamma": source.gamma,
                "gamma_prime": result.gamma,
                "lift_size": len(lifted),
                "projected_size": len(projected),
                "round_trip_size": len(round_trip),
            }
        )
    return {"runs": runs, "elapsed": time.monotonic() - start}


def test_criterion_1_contraction_oracle_equivalence(contraction_corpus):
    start = time.monotonic()
    failures = []
    for i, g in enumerate(contraction_corpus):
        a = db.ct_definitional(g)[0] == 1
        b = db.one_contraction_decision(g).holds
        c = not db.all_independent_md(g).holds
        if not (a == b == c):
            failures.append((i, a, b, c))
    elapsed = time.monotonic() - start
    report(
        1,
        not failures and elapsed < 300,
        f"{len(contraction_corpus)} graphs, {len(failures)} disagreements, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_2_three_contractions_bound(contraction_corpus):
    start = time.monotonic()
    checked = 0
    failures = []
    for i, g in enumerate(contraction_corpus):
        if db.domination_number(g).gamma < 2:
            continue
        checked += 1
        table = db.GammaTable()
        ct = db.ct_gamma(g, table)
        definitional = db.ct_definitional(g, table)[0]
        if ct not in (1, 2, 3) or ct != definitional:
            failures.append((i, ct, definitional))
    elapsed = time.monotonic() - start
    report(
        2,
        not failures and elapsed < 600,
        f"{checked} graphs with gamma >= 2, {len(failures)} out of bound or unequal to the "
        f"contraction search, {elapsed:.1f}s (< 600s)",
    )


def test_criterion_3_subcubic_biconditionals(subcubic_runs):
    problems = []
    runs = subcubic_runs["runs"]
    sat_fixture, unsat_fixture = runs[0], runs[1]
    if not (sat_fixture["sat"] and sat_fixture["gamma"] == 12 and sat_fixture["efficient"].holds):
        problems.append(
            f"satisfiable fixture: gamma={sat_fixture['gamma']} "
            f"efficient={sat_fixture['efficient'].holds}"
        )
    if not (
        not unsat_fixture["sat"]
        and unsat_fixture["gamma"] >= 17
        and not unsat_fixture["efficient"].holds
    ):
        problems.append(f"unsatisfiable fixture: gamma={unsat_fixture['gamma']}")
    else:
        witness = unsat_fixture["efficient"].witness
        g = unsat_fixture["graph"]
        if db.is_efficient(g, witness) or not db.is_dominating(g, witness):
            problems.append("unsat fixture witness does not re-verify")
    for run in runs:
        target = run["map"].expected_gamma()
        if run["sat"] != (run["gamma"] == target):
            problems.append(f"gamma biconditional broken: {run['formula']}")
        if run["sat"] != run["efficient"].holds:
            problems.append(f"efficiency biconditional broken: {run['formula']}")
        if run["gamma"] < target:
            problems.append(f"floor violated: {run['formula']}")
    elapsed = subcubic_runs["elapsed"]
    report(
        3,
        not problems and elapsed < 1800,
        f"{len(runs)} instances, {len(problems)} problems, {elapsed:.1f}s (< 1800s)",
    )


def test_criterion_4_replacement_offset_identity(clawfree_runs):
    problems = []
    for run in clawfree_runs["runs"]:
        offset = run["map"].offset()
        if run["gamma_prime"] - run["gamma"] != offset:
            problems.append(f"{run['name']}: gamma'={run['gamma_prime']} gamma={run['gamma']}")
        if run["lift_size"] != run["gamma"] + offset:
            problems.append(f"{run['name']}: lift size off")
        if run["projected_size"] != run["gamma"] or run["round_trip_size"] != run["gamma"]:
            problems.append(f"{run['name']}: projection sizes off")
    elapsed = clawfree_runs["elapsed"]
    report(
        4,
        not problems and elapsed < 1800,
        f"{len(clawfree_runs['runs'])} graphs, {len(problems)} problems, {elapsed:.1f}s (< 1800s)",
    )


def test_criterion_5_structural_certificates(clawfree_runs):
    start = time.monotonic()
    problems = []
    targets = [(run["name"], run["target"]) for run in clawfree_runs["runs"]]
    base_graph, _ = db.build_subcubic(db.satisfiable_fixture())
    big, _ = db.build_clawfree(base_graph)
    targets.append(("replacement-of-48-vertex-build", big))
    recognizer_start = time.monotonic()
    for name, target in targets:
        if not (
            target.is_connected()
            and db.find_claw(target) is None
            and target.is_subcubic()
            and target.min_degree() >= 2
        ):
            problems.append(name)
    recognizer_elapsed = time.monotonic() - recognizer_start
    p7_formulas = [
        db.Formula3Sat.make(3, [(1, 2, -3)]),
        eight_pattern_formula(),
        db.gen_3sat(5, 8, SEED),
    ]
    for f in p7_formulas:
        g, _ = db.build_p7free(f)
        if db.find_induced_path(g, 7, tick=db.GammaTable(5_000_000).tick) is not None:
            problems.append(f"induced P7 in build for {f}")
    elapsed = time.monotonic() - start
    report(
        5,
        not problems and recognizer_elapsed < 10,
        f"{len(targets)} replacement graphs (largest n={big.n}) + {len(p7_formulas)} "
        f"P7 builds, {len(problems)} problems, recognizers {recognizer_elapsed:.1f}s (< 10s), "
        f"total {elapsed:.1f}s",
    )


def test_criterion_6_triangle_three_way_equivalence():
    start = time.monotonic()
    formulas = all_three_var_formulas() + [eight_pattern_formula()]
    problems = []
    for f in formulas:
        g, rmap = db.build_p7free(f)
        sat = db.solve_3sat_brute(f) is not None
        gamma = db.domination_number(g).gamma
        independent = db.all_independent_md(g)
        if not (sat == (gamma == f.num_vars) == independent.holds):
            problems.append(str(f))
        if gamma < f.num_vars:
            problems.append(f"floor: {f}")
    elapsed = time.monotonic() - start
    report(
        6,
        not problems and elapsed < 300,
        f"{len(formulas)} formulas, {len(problems)} problems, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_7_deterministic_golden_outputs():
    runner = CliRunner()
    problems = []
    gen_args = ["gen", "-n", "4", "--flavor", "1in3", "--seed", "1"]
    first = runner.invoke(cli_main, gen_args).stdout
    second = runner.invoke(cli_main, gen_args).stdout
    if first != second:
        problems.append("gen not reproducible")
    if first != (GOLDEN / "gen_1in3_n4_seed1.cnf").read_text():
        problems.append("gen drifted from golden file")
    fixture_dimacs = db.emit_dimacs_cnf(db.satisfiable_fixture())
    build_a = runner.invoke(cli_main, ["build", "--target", "subcubic"], input=fixture_dimacs).stdout
    build_b = runner.invoke(cli_main, ["build", "--target", "subcubic"], input=fixture_dimacs).stdout
    if build_a != build_b:
        problems.append("build not reproducible")
    if build_a != (GOLDEN / "build_subcubic_fixture.json").read_text():
        problems.append("build drifted from golden file")
    c6 = db.emit_graph6(db.cycle_graph(6)) + "\n"
    solve_a = runner.invoke(cli_main, ["solve", "--what", "blocker"], input=c6).stdout
    solve_b = runner.invoke(cli_main, ["solve", "--what", "blocker"], input=c6).stdout
    if solve_a != solve_b:
        problems.append("solve not reproducible")
    if solve_a != (GOLDEN / "solve_c6_blocker.json").read_text():
        problems.append("solve drifted from golden file")
    if json.loads(solve_a)["ct_gamma"] != 3:
        problems.append("solve content wrong")
    report(7, not problems, f"gen/build/solve byte-identical and golden: {problems or 'ok'}")


def test_criterion_8_per_gadget_cardinality_bounds(subcubic_runs, clawfree_runs, found_sets):
    problems = []
    for rmap, mds in found_sets["subcubic"]:
        problems += rmap.gadget_floor_problems(mds)
    for rmap, mds in found_sets["clawfree"]:
        problems += rmap.gadget_count_problems(mds)
    total = len(found_sets["subcubic"]) + len(found_sets["clawfree"])
    report(
        8,
        total > 0 and not problems,
        f"{total} minimum dominating sets checked, {len(problems)} bound violations",
    )
