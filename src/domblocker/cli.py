"""Command-line interface: generate instances, build gadget graphs, solve
blocker questions, verify construction guarantees, and convert graph formats.

Every subcommand reads "-" as stdin and writes "-" (the default) as stdout.
Machine output is JSON; exit codes: 0 success/pass, 1 fail or counterexample,
2 usage error, 3 solver budget exceeded.
"""

from __future__ import annotations

import errno
import json
import os
import sys

import click

from . import reductions, smallgraphs, verify
from .cnf import (
    CnfError,
    emit_dimacs_cnf,
    gen_1in3,
    gen_3sat,
    parse_dimacs_cnf,
)
from .domination import BudgetExceeded, GammaTable, blocker_report, ct_gamma
from .domination import all_efficient_md, all_independent_md, one_contraction_decision
from .graphio import (
    FormatError,
    emit_dot,
    emit_edge_list_json,
    emit_graph6,
    parse_edge_list_json,
    parse_graph6,
)
from .graphs import GraphError, LabeledGraph

# a usage error exits 2 through click's UsageError
EXIT_FAIL = 1
EXIT_BUDGET = 3


_budget_option = click.option(
    "--budget", type=click.IntRange(min=1), help="Search-node budget of the whole command."
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


def _check_writable(path: str) -> None:
    """Fail as ``_write_text`` would, before any search runs: the path is
    empty or a directory, its directory is missing, or it is not writable.
    The check creates no file and truncates none."""
    if path == "-":
        return
    directory = os.path.dirname(path) or "."
    code = (
        errno.EISDIR if os.path.isdir(path)
        else errno.ENOENT if not path or not os.path.isdir(directory)
        else 0 if os.access(path if os.path.exists(path) else directory, os.W_OK)
        else errno.EACCES
    )
    if code:
        raise click.UsageError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _read_graph(path: str, fmt: str) -> LabeledGraph:
    text = _read_text(path)
    try:
        if fmt == "graph6":
            return parse_graph6(text)
        if fmt == "json":
            return parse_edge_list_json(text)
    except FormatError as exc:
        raise click.UsageError(f"bad {fmt} input: {exc}")


def _emit_graph(g: LabeledGraph, fmt: str) -> str:
    if fmt == "graph6":
        return emit_graph6(g) + "\n"
    if fmt == "json":
        return emit_edge_list_json(g) + "\n"
    return emit_dot(g)


@click.group()
def main():
    """Domination-number contraction blockers: generate, build, solve, verify."""


@main.command("gen")
@click.option("-n", "--num-vars", type=int, required=True, help="Number of variables.")
@click.option("--flavor", type=click.Choice(["1in3", "3sat"]), default="1in3", show_default=True)
@click.option("--clauses", type=int, default=None, help="Clause count (3sat flavor only).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", default="-", show_default=True)
def cmd_gen(num_vars, flavor, clauses, seed, output):
    """Generate a random CNF instance as DIMACS."""
    try:
        if flavor == "1in3":
            if clauses is not None:
                raise click.UsageError("--clauses applies to --flavor 3sat only")
            formula = gen_1in3(num_vars, seed)
        else:
            if clauses is None:
                clauses = max(1, num_vars)
            formula = gen_3sat(num_vars, clauses, seed)
    except CnfError as exc:
        raise click.UsageError(str(exc))
    _write_text(output, emit_dimacs_cnf(formula))


@main.command("build")
@click.option(
    "--target",
    type=click.Choice(["subcubic", "clawfree", "p7free"]),
    required=True,
    help="Which construction to apply.",
)
@click.option("-i", "--input", "input_path", default="-", show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["dimacs", "graph6", "json"]),
    default=None,
    help="Input format (default: dimacs for formula targets, graph6 for clawfree).",
)
@click.option("-o", "--output", default="-", show_default=True)
@click.option("--map", "map_path", default=None, help="Reduction-map sidecar path (default: <output>.map.json).")
def cmd_build(target, input_path, fmt, output, map_path):
    """Compile a formula (or degree-{2,3} graph) into a gadget graph."""
    accepted = ("graph6", "json") if target == "clawfree" else ("dimacs",)
    if fmt is not None and fmt not in accepted:
        raise click.UsageError(
            f"--format {fmt} does not fit --target {target}; accepted: {', '.join(accepted)}"
        )
    try:
        if target == "subcubic":
            formula = parse_dimacs_cnf(_read_text(input_path), flavor="1in3")
            graph, rmap = reductions.build_subcubic(formula)
        elif target == "p7free":
            formula = parse_dimacs_cnf(_read_text(input_path), flavor="3sat")
            graph, rmap = reductions.build_p7free(formula)
        else:
            source = _read_graph(input_path, fmt or "graph6")
            graph, rmap = reductions.build_clawfree(source)
    except (CnfError, FormatError, reductions.ReductionError, GraphError) as exc:
        raise click.UsageError(str(exc))
    _write_text(output, _emit_graph(graph, "json"))
    if map_path is None and output != "-":
        map_path = output + ".map.json"
    if map_path:
        _write_text(map_path, json.dumps(rmap.to_json_dict(), indent=2, sort_keys=True) + "\n")


@main.command("solve")
@click.option("-i", "--input", "input_path", default="-", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["graph6", "json"]), default="graph6", show_default=True)
@click.option(
    "--what",
    type=click.Choice(["gamma", "blocker", "ct", "all-efficient", "all-independent", "one-contraction"]),
    default="blocker",
    show_default=True,
)
@_budget_option
@click.option("-o", "--output", default="-", show_default=True)
def cmd_solve(input_path, fmt, what, budget, output):
    """Solve domination/blocker questions for a graph, reporting JSON."""
    _check_writable(output)
    g = _read_graph(input_path, fmt)
    table = GammaTable(budget)
    try:
        if what == "gamma":
            result = table.solve(g)
            payload = {"gamma": result.gamma, "witness": sorted(result.witness)}
        elif what == "ct":
            payload = {"ct_gamma": ct_gamma(g, table)}
        elif what in ("all-efficient", "all-independent"):
            decide = all_efficient_md if what == "all-efficient" else all_independent_md
            decision = decide(g, table)
            payload = {what.replace("-", "_"): "yes" if decision.holds else "no"}
            if not decision.holds:
                payload["witness"] = sorted(decision.witness)
        elif what == "one-contraction":
            decision = one_contraction_decision(g, table)
            payload = {"one_contraction": "yes" if decision.holds else "no"}
            if decision.holds:
                payload["witness_edge"] = list(decision.witness)
        else:
            payload = blocker_report(g, table).to_json_dict()
    except GraphError as exc:
        raise click.UsageError(str(exc))
    except BudgetExceeded as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    _write_text(output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if payload.get("ct_gamma") == "unknown":
        sys.exit(EXIT_BUDGET)


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(verify.SUITES) + ["all"]))
@click.option(
    "--max-n",
    type=click.IntRange(1, smallgraphs.MAX_EXHAUSTIVE_N),
    default=6,
    show_default=True,
    help="Exhaustive corpus size (contraction suite).",
)
@click.option(
    "--random-count",
    type=click.IntRange(min=0),
    default=200,
    show_default=True,
    help="Random corpus size (contraction suite).",
)
@click.option("--seed", type=int, default=2024, show_default=True)
@_budget_option
@click.option("-o", "--output", default="-", show_default=True)
def cmd_verify(suite, max_n, random_count, seed, budget, output):
    """Run a verification suite; exit 0 only if every check passes."""
    _check_writable(output)
    table = GammaTable(budget)
    verdicts = [
        v.to_json_dict() for v in verify.run_suite(suite, max_n, random_count, seed, table)
    ]
    _write_text(output, json.dumps(verdicts, indent=2, sort_keys=True) + "\n")
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for v in verdicts:
        counts[v["status"]] += 1
    summary = f"{counts['pass']} pass, {counts['fail']} fail, {counts['skipped']} skipped"
    click.echo(summary, err=True)
    if counts["fail"]:
        sys.exit(EXIT_FAIL)
    if counts["skipped"]:
        sys.exit(EXIT_BUDGET)


@main.command("export")
@click.option("-i", "--input", "input_path", default="-", show_default=True)
@click.option("--from", "src_fmt", type=click.Choice(["graph6", "json"]), default="graph6", show_default=True)
@click.option("--to", "dst_fmt", type=click.Choice(["graph6", "json", "dot"]), default="json", show_default=True)
@click.option("-o", "--output", default="-", show_default=True)
def cmd_export(input_path, src_fmt, dst_fmt, output):
    """Convert a graph between graph6, edge-list JSON, and DOT."""
    g = _read_graph(input_path, src_fmt)
    _write_text(output, _emit_graph(g, dst_fmt))


if __name__ == "__main__":
    main()
