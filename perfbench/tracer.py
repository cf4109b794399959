"""In-memory spans around the package's public functions.

``instrument`` replaces every public function of the layer modules with a
wrapper, and rebinds each name in every package module that imported it
(``from .domination import domination_number`` makes a second binding), so
internal calls are seen too. It also wraps ``LabeledGraph.contract_edge``.
Nothing under ``src/`` changes.

A span is (id, name, start, end, parent id, op id); the root span of an op
has parent -1. Self time is a span's
duration minus the durations of its direct children; calls nest on one
thread, so the children never overlap. While no op is open the wrappers
only forward the call.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import time
from pathlib import Path

LAYERS = ("graphio", "domination", "graphs", "smallgraphs", "reductions", "cnf", "verify")
# names whose outermost spans are summed as one unit, so nested calls
# (is_pk_free -> find_induced_path, connected_graphs_upto -> connected_graphs)
# are not counted twice
GROUPS = {
    "graphs.find_claw": "recognizer",
    "graphs.is_claw_free": "recognizer",
    "graphs.find_induced_path": "recognizer",
    "graphs.is_pk_free": "recognizer",
    "smallgraphs.connected_graphs": "listing",
    "smallgraphs.all_graphs": "listing",
    "smallgraphs.connected_graphs_upto": "listing",
    "graphio.parse_graph6": "parse",
    "graphio.parse_edge_list_json": "parse",
    "reductions.build_subcubic": "build",
    "reductions.build_clawfree": "build",
    "reductions.build_p7free": "build",
    "cnf.solve_1in3_brute": "brute",
    "cnf.solve_3sat_brute": "brute",
}
SUITE_NAMES = ("contraction", "subcubic", "clawfree", "p7")
# exact per-op counts; two runs of one seed must agree on them
COUNTS = ("gamma_calls", "mds_visited", "contract_calls", "graphs_listed")
KEEP_SPANS = 200_000


class _Frame:
    __slots__ = ("name", "group", "outer", "start", "child", "index")


class Phase:
    """Span totals over a run of ops (the set-up, or the traced ops)."""

    def __init__(self):
        self.ops: list = []
        self.self_s: dict[str, float] = {}  # span name -> summed self time
        self.outer_s: dict[str, float] = {}  # group -> outermost inclusive time
        self.counts: dict = {}  # op id -> exact counts of that op


class Tracer:
    def __init__(self):
        self.op = None  # id of the open op; None means pass-through
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.depth: dict[str, int] = {}  # open spans per group
        self.phase = Phase()
        self.gamma_keys: set = set()

    def take_phase(self) -> Phase:
        done, self.phase = self.phase, Phase()
        return done

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        f = _Frame()
        f.name = name
        f.group = GROUPS.get(name, name)
        f.outer = not self.depth.get(f.group)
        self.depth[f.group] = self.depth.get(f.group, 0) + 1
        f.child = 0.0
        f.index = self.next_id
        self.next_id += 1
        self.stack.append(f)
        f.start = time.perf_counter()
        return f

    def _exit(self, f: _Frame) -> None:
        end = time.perf_counter()
        dur = end - f.start
        self.stack.pop()
        self.depth[f.group] -= 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += dur
        phase = self.phase
        phase.self_s[f.name] = phase.self_s.get(f.name, 0.0) + dur - f.child
        if f.outer:
            phase.outer_s[f.group] = phase.outer_s.get(f.group, 0.0) + dur
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((f.index, f.name, f.start, end, parent.index if parent else -1, self.op))
        else:
            self.dropped += 1

    def begin_op(self, op_id, root: str = "cli.main") -> None:
        self.op = op_id
        self.phase.ops.append(op_id)
        self.phase.counts[op_id] = dict.fromkeys(COUNTS, 0)
        self.gamma_keys = set()
        self._root = self._enter(root)

    def end_op(self) -> None:
        self._exit(self._root)
        self.phase.counts[self.op]["distinct_gamma"] = len(self.gamma_keys)
        self.op = None

    def _count(self, name: str, k: int = 1) -> None:
        self.phase.counts[self.op][name] += k

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self
        before = after = None
        if name == "domination.domination_number":
            def before(args, kwargs):
                tracer._count("gamma_calls")
                g = args[0] if args else kwargs["g"]
                tracer.gamma_keys.add((g.n, g.adj))
        elif name == "domination.visit_minimum_dominating_sets":
            def before(args, kwargs):
                visitor = args[1] if len(args) > 1 else kwargs["visitor"]

                def counted(s):
                    tracer._count("mds_visited")
                    return visitor(s)

                if len(args) > 1:
                    return (args[0], counted) + args[2:]
                kwargs["visitor"] = counted
        elif name == "graphs.contract_edge":
            def before(args, kwargs):
                tracer._count("contract_calls")
        elif GROUPS.get(name) == "listing":
            def after(frame, result):
                if frame.outer:
                    tracer._count("graphs_listed", len(result))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args, kwargs) or args
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(frame, result)
            return result

        return traced

    # -- results -------------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(phase: Phase) -> dict:
    """Per-layer numbers of a phase: times in ms per op, counts per op."""
    ops = len(phase.ops)
    per_op = 1000.0 / ops
    total = {
        k: sum(phase.counts[i][k] for i in phase.ops) for k in COUNTS + ("distinct_gamma",)
    }

    def self_ms(*names):
        return sum(phase.self_s.get(n, 0.0) for n in names) * per_op

    def outer_ms(group):
        return phase.outer_s.get(group, 0.0) * per_op

    m = {
        "domination.gamma_calls": total["gamma_calls"] / ops,
        "domination.gamma_distinct_ratio": (
            total["distinct_gamma"] / total["gamma_calls"] if total["gamma_calls"] else 1.0
        ),
        "domination.gamma_self_ms": self_ms("domination.domination_number"),
        "domination.enum_self_ms": self_ms(
            "domination.visit_minimum_dominating_sets",
            "domination.enumerate_minimum_dominating_sets",
        ),
        "domination.mds_visited": total["mds_visited"] / ops,
        "domination.ct_self_ms": self_ms("domination.ct_gamma"),
        "domination.ct_share": outer_ms("domination.ct_gamma") / outer_ms("cli.main"),
        "graphs.contract_calls": total["contract_calls"] / ops,
        "graphs.contract_ms": outer_ms("graphs.contract_edge"),
        "graphs.recognizer_ms": outer_ms("recognizer"),
        "smallgraphs.connected_graphs_ms": outer_ms("listing"),
        "smallgraphs.graphs_listed": total["graphs_listed"] / ops,
    }
    for suite in SUITE_NAMES:
        m[f"verify.suite_{suite}_ms"] = outer_ms(f"verify.suite_{suite}")
    m["reductions.build_ms"] = outer_ms("build")
    m["cnf.brute_ms"] = outer_ms("brute")
    m["graphio.parse_ms"] = outer_ms("parse")
    m["cli.self_ms"] = self_ms("cli.main")
    return m


def instrument(tracer: Tracer, modules: dict) -> None:
    """Wrap the public functions of ``modules`` (short name -> module)."""
    wrapped = {}
    for short in LAYERS:
        mod = modules[short]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                wrapped[obj] = tracer.wrap(f"{short}.{name}", obj)
    cls = modules["graphs"].LabeledGraph
    cls.contract_edge = tracer.wrap("graphs.contract_edge", cls.contract_edge)
    for mod in modules.values():
        namespace = vars(mod)
        for name, obj in list(namespace.items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict):  # e.g. verify.SUITES
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]


def source_digest(*roots: Path) -> str:
    """Digest of the sources under ``roots``, so recorded counts follow the
    code: the package's, and the bench's own inputs."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]
