import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from domblocker import (
    all_efficient_md,
    all_independent_md,
    blocker_report,
    build_subcubic,
    ct_gamma,
    cycle_graph,
    domination,
    domination_number,
    emit_dimacs_cnf,
    emit_dot,
    emit_graph6,
    gen_1in3,
    one_contraction_decision,
    parse_dimacs_cnf,
    parse_edge_list_json,
    path_graph,
    prism_graph,
    satisfiable_fixture,
    validate_1in3,
    verify,
)
from domblocker.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


class TestGen:
    def test_emits_valid_instance(self, runner):
        result = runner.invoke(main, ["gen", "-n", "3", "--flavor", "1in3", "--seed", "1"])
        assert result.exit_code == 0
        formula = parse_dimacs_cnf(result.output, flavor="1in3")
        assert validate_1in3(formula) == []

    def test_same_seed_identical_bytes(self, runner):
        a = runner.invoke(main, ["gen", "-n", "5", "--seed", "9"]).output
        b = runner.invoke(main, ["gen", "-n", "5", "--seed", "9"]).output
        assert a == b

    def test_too_small_errors(self, runner):
        result = runner.invoke(main, ["gen", "-n", "2"])
        assert result.exit_code == 2

    def test_golden(self, runner):
        result = runner.invoke(main, ["gen", "-n", "4", "--flavor", "1in3", "--seed", "1"])
        assert result.output == (GOLDEN / "gen_1in3_n4_seed1.cnf").read_text()

    def test_3sat_flavor(self, runner):
        result = runner.invoke(main, ["gen", "-n", "4", "--flavor", "3sat", "--clauses", "5", "--seed", "3"])
        assert result.exit_code == 0
        assert result.output.startswith("p cnf 4 5")

    def test_clauses_with_1in3_flavor_usage_error(self, runner):
        result = runner.invoke(main, ["gen", "-n", "4", "--flavor", "1in3", "--clauses", "7"])
        assert result.exit_code == 2
        assert "--clauses" in result.output


class TestBuild:
    def test_subcubic_from_stdin(self, runner):
        result = runner.invoke(
            main, ["build", "--target", "subcubic"], input=emit_dimacs_cnf(satisfiable_fixture())
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 48 and len(payload["edges"]) == 63

    def test_golden_build(self, runner):
        result = runner.invoke(
            main, ["build", "--target", "subcubic"], input=emit_dimacs_cnf(satisfiable_fixture())
        )
        assert result.output == (GOLDEN / "build_subcubic_fixture.json").read_text()

    @pytest.mark.parametrize(
        "name, gen_args, target",
        [
            ("subcubic_n6_seed1", ["-n", "6", "--seed", "1"], "subcubic"),
            ("p7free_n5_c21_seed2", ["-n", "5", "--flavor", "3sat", "--clauses", "21", "--seed", "2"], "p7free"),
            ("clawfree_prism", None, "clawfree"),
        ],
    )
    def test_golden_build_map_and_dot(self, runner, tmp_path, name, gen_args, target):
        # every byte of one build per target: graph JSON, map sidecar and the
        # DOT export of the JSON, so the label codec and styles are pinned
        source = tmp_path / "source"
        if gen_args is None:
            source.write_text(emit_graph6(prism_graph()) + "\n")
        else:
            assert runner.invoke(main, ["gen", *gen_args, "-o", str(source)]).exit_code == 0
        out = tmp_path / f"build_{name}.json"
        result = runner.invoke(main, ["build", "--target", target, "-i", str(source), "-o", str(out)])
        assert result.exit_code == 0 and result.output == ""
        dot = runner.invoke(main, ["export", "--from", "json", "--to", "dot", "-i", str(out)])
        assert dot.exit_code == 0
        assert out.read_bytes() == (GOLDEN / out.name).read_bytes()
        assert (tmp_path / f"{out.name}.map.json").read_bytes() == (GOLDEN / f"{out.name}.map.json").read_bytes()
        assert dot.stdout_bytes == (GOLDEN / f"build_{name}.dot").read_bytes()

    def test_clawfree_from_graph6(self, runner):
        result = runner.invoke(
            main,
            ["build", "--target", "clawfree", "--format", "graph6"],
            input=emit_graph6(cycle_graph(5)) + "\n",
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["n"] == 35

    def test_p7free(self, runner):
        result = runner.invoke(
            main, ["build", "--target", "p7free"], input="p cnf 3 1\n1 2 -3 0\n"
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["n"] == 10

    @pytest.mark.parametrize(
        "target, fmt, accepted",
        [("subcubic", "graph6", "dimacs"), ("p7free", "json", "dimacs"), ("clawfree", "dimacs", "graph6, json")],
    )
    def test_format_must_fit_target(self, runner, target, fmt, accepted):
        result = runner.invoke(
            main,
            ["build", "--target", target, "--format", fmt],
            input=emit_dimacs_cnf(satisfiable_fixture()),
        )
        assert result.exit_code == 2
        assert f"accepted: {accepted}" in result.output

    def test_sidecars(self, runner, tmp_path):
        # the map sidecar comes with the build; DOT and graph6 come from export
        # of the build's JSON, which keeps the labels
        out = tmp_path / "g.json"
        result = runner.invoke(
            main, ["build", "--target", "subcubic", "-o", str(out)], input=emit_dimacs_cnf(satisfiable_fixture())
        )
        assert result.exit_code == 0
        sidecar = json.loads((tmp_path / "g.json.map.json").read_text())
        assert sidecar["target"] == "subcubic"
        g, _ = build_subcubic(satisfiable_fixture())
        for fmt, expected in (("dot", emit_dot(g)), ("graph6", emit_graph6(g) + "\n")):
            exported = runner.invoke(main, ["export", "--from", "json", "--to", fmt, "-i", str(out)])
            assert exported.exit_code == 0
            assert exported.stdout == expected

    def test_unknown_target(self, runner):
        result = runner.invoke(main, ["build", "--target", "octagonal"], input="")
        assert result.exit_code == 2

    def test_invalid_formula(self, runner):
        result = runner.invoke(main, ["build", "--target", "subcubic"], input="p cnf 3 1\n1 2 3 0\n")
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "target, text, message",
        [
            ("subcubic", "p cnf 0 0\n", "the formula has no variables"),
            ("subcubic", "p cnf -3 0\n", "line 1: negative count"),
            ("p7free", "c header\np cnf 3 -1\n", "line 2: negative count"),
        ],
    )
    def test_empty_or_negative_formula_usage_error(self, runner, target, text, message):
        result = runner.invoke(main, ["build", "--target", target], input=text)
        assert result.exit_code == 2
        assert message in result.output
        assert isinstance(result.exception, SystemExit)


class TestSolve:
    def test_c6_blocker(self, runner):
        result = runner.invoke(
            main, ["solve", "--what", "blocker"], input=emit_graph6(cycle_graph(6)) + "\n"
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["gamma"] == 2
        assert payload["one_contraction"] == "no"
        assert payload["ct_gamma"] == 3

    def test_golden_blocker(self, runner):
        result = runner.invoke(
            main, ["solve", "--what", "blocker"], input=emit_graph6(cycle_graph(6)) + "\n"
        )
        assert result.output == (GOLDEN / "solve_c6_blocker.json").read_text()

    def test_p4_one_contraction(self, runner):
        result = runner.invoke(
            main, ["solve", "--what", "one-contraction"], input=emit_graph6(path_graph(4)) + "\n"
        )
        payload = json.loads(result.output)
        assert payload["one_contraction"] == "yes"
        assert "witness_edge" in payload

    def test_gamma_only(self, runner):
        result = runner.invoke(main, ["solve", "--what", "gamma"], input="Dhc\n")
        assert json.loads(result.output)["gamma"] == 2

    def test_disconnected_rejected(self, runner):
        from domblocker import LabeledGraph

        g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        result = runner.invoke(main, ["solve", "--what", "blocker"], input=emit_graph6(g) + "\n")
        assert result.exit_code == 2

    def test_budget_exit_code(self, runner):
        from domblocker import build_subcubic, unsatisfiable_fixture

        g, _ = build_subcubic(unsatisfiable_fixture())
        result = runner.invoke(
            main, ["solve", "--what", "gamma", "--budget", "1"], input=emit_graph6(g) + "\n"
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("what", ["ct", "blocker"])
    def test_budget_bounds_the_whole_command(self, runner, search_nodes, what):
        # every single search of the command fits the budget on its own; the
        # command's searches together do not
        graph = emit_graph6(build_subcubic(gen_1in3(6, 1))[0]) + "\n"
        command = ["solve", "--what", what]
        assert runner.invoke(main, command, input=graph).exit_code == 0
        assert max(search_nodes) <= 300 < sum(search_nodes)
        result = runner.invoke(main, command + ["--budget", "300"], input=graph)
        assert result.exit_code == 3
        if what == "blocker":
            assert json.loads(result.stdout)["ct_gamma"] == "unknown"

    def test_nonpositive_budget_rejected(self, runner):
        result = runner.invoke(main, ["solve", "--budget", "0"], input="Dhc\n")
        assert result.exit_code == 2

    def test_json_input_format(self, runner):
        result = runner.invoke(
            main,
            ["solve", "--what", "gamma", "--format", "json"],
            input='{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}',
        )
        assert json.loads(result.output)["gamma"] == 1

    @pytest.mark.parametrize(
        "command",
        [["solve", "--what", "gamma", "--format", "json"], ["build", "--target", "clawfree", "--format", "json"]],
    )
    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"n": 2, "edges": [["a", 1]]}', "edge #0"),
            ('{"n": 2, "edges": [[0, 1], [1, 1]]}', "self-loop"),
            ('{"n": 2, "edges": 3}', "edges is not an array"),
            ('{"n": 2, "edges": [], "labels": 5}', "labels is not an array"),
            ('{"n": 2, "edges": [], "labels": [1, 2]}', "label #0"),
            ('{"n": 2, "edges": [], "labels": [{}, {"kind": "clause", "clause": "c"}]}', "label #1"),
            ('{"n": 2, "edges": [], "labels": [{}, {"kind": "cycle"}]}', "label #1"),
            ('{"n": 2, "edges": [], "labels": [{}, {"kind": "port", "index": 7}]}', "label #1"),
        ],
    )
    def test_malformed_edge_list_json_usage_error(self, runner, command, text, where):
        result = runner.invoke(main, command, input=text)
        assert result.exit_code == 2
        assert "bad json input" in result.output and where in result.output


def _library_payload(g, what):
    """What the library answers to solve --what on g, in the CLI's JSON shape."""
    if what == "gamma":
        result = domination_number(g)
        return {"gamma": result.gamma, "witness": sorted(result.witness)}
    if what == "ct":
        return {"ct_gamma": ct_gamma(g)}
    if what == "blocker":
        return blocker_report(g).to_json_dict()
    if what == "one-contraction":
        decision = one_contraction_decision(g)
        if decision.holds:
            return {"one_contraction": "yes", "witness_edge": list(decision.witness)}
        return {"one_contraction": "no"}
    key, decide = {
        "all-efficient": ("all_efficient", all_efficient_md),
        "all-independent": ("all_independent", all_independent_md),
    }[what]
    decision = decide(g)
    if decision.holds:
        return {key: "yes"}
    return {key: "no", "witness": sorted(decision.witness)}


class TestSolveEveryQuestion:
    # P5 tells the two every-MDS deciders apart: every MDS is independent, and
    # one is not efficient
    @pytest.mark.parametrize("what", ["gamma", "blocker", "ct", "all-efficient", "all-independent", "one-contraction"])
    @pytest.mark.parametrize("graph", ["C6", "P4", "P5", "fixture build"])
    def test_payload_is_the_library_answer(self, runner, graph, what):
        if graph == "fixture build":
            path = GOLDEN / "build_subcubic_fixture.json"
            g = parse_edge_list_json(path.read_text())
            args = ["--format", "json", "-i", str(path)]
            stdin = None
        else:
            g = cycle_graph(6) if graph == "C6" else path_graph(int(graph[1]))
            args, stdin = [], emit_graph6(g) + "\n"
        result = runner.invoke(main, ["solve", "--what", what] + args, input=stdin)
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout) == json.loads(json.dumps(_library_payload(g, what)))


class TestExport:
    def test_graph6_to_json_and_back(self, runner):
        blob = emit_graph6(cycle_graph(7))
        as_json = runner.invoke(main, ["export", "--from", "graph6", "--to", "json"], input=blob)
        assert as_json.exit_code == 0
        back = runner.invoke(
            main, ["export", "--from", "json", "--to", "graph6"], input=as_json.output
        )
        assert back.output.strip() == blob

    def test_to_dot(self, runner):
        result = runner.invoke(main, ["export", "--to", "dot"], input="Dhc\n")
        assert result.output.startswith("graph G {")

    def test_bad_input(self, runner):
        result = runner.invoke(main, ["export"], input="\x01\x02\n")
        assert result.exit_code == 2


class TestVerifyCommand:
    def test_contraction_suite_passes(self, runner):
        result = runner.invoke(
            main, ["verify", "contraction", "--max-n", "4", "--random-count", "2"]
        )
        assert result.exit_code == 0, result.output
        verdicts = json.loads(result.stdout)
        assert all(v["status"] == "pass" for v in verdicts)
        assert "fail" in result.stderr  # the human summary line

    def test_run_twice_identical(self, runner):
        args = ["verify", "contraction", "--max-n", "4", "--random-count", "2"]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout

    def test_all_matches_golden(self, runner):
        # every suite with its defaults: the 200 random contraction graphs included
        result = runner.invoke(main, ["verify", "all", "--max-n", "6", "--seed", "2024"])
        assert result.exit_code == 0, result.output
        assert result.stdout == (GOLDEN / "verify_all_n6_seed2024.json").read_text()

    def test_budget_exit_three(self, runner):
        result = runner.invoke(main, ["verify", "subcubic", "--budget", "1"])
        assert result.exit_code == 3

    def test_unknown_suite_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "unknown-suite"])
        assert result.exit_code == 2

    def test_negative_random_count_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "contraction", "--random-count", "-5"])
        assert result.exit_code == 2
        assert "x>=0" in result.output

    @pytest.mark.parametrize("max_n", ["0", "9"])
    def test_max_n_out_of_range_usage_error(self, runner, max_n):
        result = runner.invoke(main, ["verify", "contraction", "--max-n", max_n])
        assert result.exit_code == 2
        assert "1<=x<=8" in result.output


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "args, stdin",
        [
            (["solve", "--what", "gamma", "-o", "{bad}"], "Dhc\n"),
            (["solve", "--what", "blocker", "-o", "{dir}"], "Dhc\n"),
            (["solve", "--what", "blocker", "-o", "{empty}"], "Dhc\n"),
            (["verify", "subcubic", "-o", "{bad}"], ""),
            (["verify", "contraction", "--max-n", "8", "-o", "{bad}"], ""),
            (["verify", "contraction", "--max-n", "8", "-o", "{empty}"], ""),
            (["build", "--target", "subcubic", "-o", "-", "--map", "{bad}"], None),
        ],
    )
    def test_usage_error_not_traceback(self, runner, tmp_path, monkeypatch, args, stdin):
        # solve and verify check the path before any search: a search or a
        # suite run fails the test
        def searched(*_args, **_kwargs):
            pytest.fail("a search ran before the output path was checked")

        monkeypatch.setattr(domination._Search, "__init__", searched)
        monkeypatch.setattr(verify, "run_suite", searched)
        paths = {"bad": str(tmp_path / "missing" / "x.json"), "dir": str(tmp_path), "empty": ""}
        if stdin is None:
            stdin = emit_dimacs_cnf(satisfiable_fixture())
        result = runner.invoke(main, [a.format(**paths) for a in args], input=stdin)
        assert result.exit_code == 2
        path = next(paths[key] for key in paths if "{%s}" % key in args)
        assert f"cannot write {path}:" in result.output

    def test_check_keeps_an_existing_output(self, runner, tmp_path):
        # a run that exits 3 before writing leaves the file as it was
        out = tmp_path / "x.json"
        out.write_text("earlier\n")
        # ct of the gen_1in3(6, 1) build takes 339 nodes (the fixture build's
        # takes none: the deciders' counting certificate answers both)
        graph = emit_graph6(build_subcubic(gen_1in3(6, 1))[0]) + "\n"
        args = ["solve", "--what", "ct", "--budget", "50", "-o", str(out)]
        result = runner.invoke(main, args, input=graph)
        assert result.exit_code == 3
        assert out.read_text() == "earlier\n"
