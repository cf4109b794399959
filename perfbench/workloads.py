"""Seeded inputs for the four benchmark workloads.

Every workload is a list of CLI operations (one ``domblocker`` command each)
plus the facts the oracles need about each input graph. Inputs are drawn from
``random.Random(seed)`` only, so one seed always gives the same files. The
program under test sees nothing but the graph6 files written here and the
command-line arguments.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Subcubic builds whose formula is unsatisfiable. No nv here is a multiple
# of 3, and an all-positive exactly-3 formula needs 3 | nv to be satisfiable,
# so every draw is unsatisfiable (the brute-force class is still checked).
# Larger builds take seconds each and vary several-fold between draws: a run
# would see too few of them for its numbers to hold steady across seeds.
# One cycle of sizes: nv = 4 twice per nv = 5, so that the op times fall in
# an odd number (9) of equal shares and the median op lies inside one
# cluster (gamma at nv = 5) instead of in the gap between two.
UNSAT_NV = (4, 4, 5)
UNSAT_CYCLES = 40
# Subcubic builds whose formula is satisfiable; 3 | nv is necessary, not
# sufficient, so draws are kept only when brute force finds an assignment.
# One size: with two, the median op fell between them and moved with the seed.
SAT_NV = (6,)
SAT_CYCLES = 60
# The questions asked of every subcubic build, in this order per build.
SOLVE_QUESTIONS = ("gamma", "all-efficient", "one-contraction")
# blocker_sweep alternates P7-free builds of random 3-SAT formulas with
# nv..nv+2 clauses and random degree-{2,3} graphs (the inputs of the
# claw-free construction). Sizes and clause counts cycle, so only the draws
# depend on the seed.
P7_NV = (3, 4, 5, 6)
DEGREE23_N = tuple(range(12, 20))
BLOCKER_PAIRS = 600
# verify_exhaustive runs the full suite on the n <= 7 corpus.
VERIFY_MAX_N = 7
VERIFY_OPS = 8
DRAW_ATTEMPTS = 500


@dataclass(frozen=True)
class Instance:
    """One input graph and what its construction guarantees."""

    name: str
    family: str  # "subcubic" | "p7" | "degree23"
    n: int
    edges: tuple[tuple[int, int], ...]
    path: str  # graph6 file the program reads
    sat: Optional[bool] = None  # brute-force class of the source formula
    floor: Optional[int] = None  # 3|X| + |C| (subcubic) or |X| (p7)


@dataclass(frozen=True)
class Op:
    """One CLI command; ``key`` is stable across runs of one seed."""

    key: str
    question: str  # a ``solve --what`` value, or "verify"
    argv: tuple[str, ...]
    instance: Optional[Instance] = None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # the traced run executes exactly this many ops from the start of the
    # (cycled) op list, so its counts are exact for a seed
    trace_ops: int
    # re-import the package before every op, as a fresh process would
    fresh_package: bool = False


class Inputs:
    """Writes the input graphs of a set-up as graph6 files in ``workdir``.

    ``write_s`` sums the time of the file writes alone, read on ``clock``;
    the set-up time leaves it out. On the disk the baseline was measured on,
    writing the same 1200 small files took 0.07 to 0.7 s from one set-up to
    the next, more than the rest of the set-up, and the program has no part
    in it. Encoding the graph6 text is the package's code and stays in.
    """

    def __init__(self, pkg, workdir: Path, clock=time.perf_counter):
        self.pkg = pkg
        self.workdir = workdir
        self.clock = clock
        self.write_s = 0.0

    def write(self, g, name: str) -> str:
        text = self.pkg.graphio.emit_graph6(g) + "\n"
        path = self.workdir / f"{name}.g6"
        start = self.clock()
        path.write_text(text, encoding="utf-8")
        self.write_s += self.clock() - start
        return str(path)


def _draw_1in3(pkg, rng: random.Random, nv: int, want_sat: bool):
    for _ in range(DRAW_ATTEMPTS):
        f = pkg.cnf.gen_1in3(nv, rng.randrange(1 << 30))
        if (pkg.cnf.solve_1in3_brute(f) is not None) == want_sat:
            return f
    raise RuntimeError(f"no {'sat' if want_sat else 'unsat'} 1-in-3 draw at nv={nv}")


def _subcubic_ops(pkg, rng, files: Inputs, sizes, cycles, want_sat, tag) -> tuple[Op, ...]:
    ops = []
    for k in range(cycles):
        for j, nv in enumerate(sizes):
            f = _draw_1in3(pkg, rng, nv, want_sat)
            g, rmap = pkg.reductions.build_subcubic(f)
            name = f"{tag}-nv{nv}-{k * len(sizes) + j}"
            inst = Instance(
                name,
                "subcubic",
                g.n,
                tuple(g.edges()),
                files.write(g, name),
                sat=want_sat,
                floor=3 * f.num_vars + len(f.clauses),
            )
            for q in SOLVE_QUESTIONS:
                ops.append(Op(f"{name}:{q}", q, ("solve", "-i", inst.path, "--what", q), inst))
    return tuple(ops)


def setup_solve_unsat(pkg, seed: int, files: Inputs) -> Workload:
    rng = random.Random(seed)
    ops = _subcubic_ops(pkg, rng, files, UNSAT_NV, UNSAT_CYCLES, False, "unsat")
    return Workload("solve_unsat", ops, trace_ops=36)


def setup_solve_sat(pkg, seed: int, files: Inputs) -> Workload:
    rng = random.Random(seed)
    ops = _subcubic_ops(pkg, rng, files, SAT_NV, SAT_CYCLES, True, "sat")
    return Workload("solve_sat", ops, trace_ops=36)


def setup_blocker_sweep(pkg, seed: int, files: Inputs) -> Workload:
    rng = random.Random(seed)
    ops = []
    for i in range(BLOCKER_PAIRS):
        nv = P7_NV[i % len(P7_NV)]
        n = DEGREE23_N[i % len(DEGREE23_N)]
        clauses = nv + (i // len(P7_NV)) % 3
        f = pkg.cnf.gen_3sat(nv, clauses, rng.randrange(1 << 30))
        sat = pkg.cnf.solve_3sat_brute(f) is not None
        g, _ = pkg.reductions.build_p7free(f)
        name = f"p7-nv{nv}-{i}"
        p7 = Instance(
            name, "p7", g.n, tuple(g.edges()), files.write(g, name),
            sat=sat, floor=nv,
        )
        h = pkg.smallgraphs.random_degree23_graph(n, random.Random(rng.randrange(1 << 30)))
        name = f"deg23-n{n}-{i}"
        d23 = Instance(name, "degree23", h.n, tuple(h.edges()), files.write(h, name))
        for inst in (p7, d23):
            argv = ("solve", "-i", inst.path, "--what", "blocker")
            ops.append(Op(f"{inst.name}:blocker", "blocker", argv, inst))
    return Workload("blocker_sweep", tuple(ops), trace_ops=80)


def setup_verify_exhaustive(pkg, seed: int, files: Inputs) -> Workload:
    rng = random.Random(seed)
    ops = []
    for _ in range(VERIFY_OPS):
        vseed = str(rng.randrange(1 << 30))
        argv = ("verify", "all", "--max-n", str(VERIFY_MAX_N), "--seed", vseed)
        ops.append(Op(f"verify-all-n{VERIFY_MAX_N}-seed{vseed}", "verify", argv))
    return Workload("verify_exhaustive", tuple(ops), trace_ops=1, fresh_package=True)


SETUPS = {
    "solve_unsat": setup_solve_unsat,
    "solve_sat": setup_solve_sat,
    "blocker_sweep": setup_blocker_sweep,
    "verify_exhaustive": setup_verify_exhaustive,
}
