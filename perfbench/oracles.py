"""Verdict checks, run after the timed loop.

Each check uses plain set operations on the bench's own copy of the input
graph, the brute-force satisfiability class fixed at set-up, and the
construction theorems:

- subcubic builds: gamma = 3|X| + |C| exactly when the formula is
  satisfiable, and then (only then) every minimum dominating set is
  efficient, hence independent, so no single contraction lowers gamma;
- P7-free builds: gamma = |X| exactly when the formula is satisfiable, and
  exactly then every minimum dominating set is independent (ct != 1);
- ct = 1 exactly when some minimum dominating set holds an edge.

The one place the package solver is used is gamma of a contracted graph, for
contract-and-compare; the contraction itself is the bench's own.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from workloads import VERIFY_MAX_N, Instance, Op

VERIFY_CLAIMS = {
    "contraction-equivalences",
    "three-contractions-suffice",
    "subcubic-gamma-iff-sat",
    "subcubic-all-efficient-iff-tight",
    "clawfree-gamma-offset",
    "triangle-gamma-iff-sat",
}
# connected graphs on at most n vertices, one per isomorphism class (OEIS A001349)
CONNECTED_UP_TO = {1: 1, 2: 2, 3: 4, 4: 10, 5: 31, 6: 143, 7: 996}
VERIFY_RANDOM_COUNT = 200  # the CLI's --random-count default


class Rejected(Exception):
    """An op's verdict failed a check."""


def _need(ok: bool, why: str) -> None:
    if not ok:
        raise Rejected(why)


class Graph:
    """Adjacency sets of an instance, for the checks."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = tuple(edges)
        self.adj = [set() for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def members(self, s) -> frozenset[int]:
        out = frozenset(s)
        _need(len(out) == len(s), f"repeated vertex in {sorted(s)}")
        _need(all(isinstance(v, int) and 0 <= v < self.n for v in out), "vertex out of range")
        return out

    def dominates(self, s: frozenset[int]) -> bool:
        return all(v in s or self.adj[v] & s for v in range(self.n))

    def efficient(self, s: frozenset[int]) -> bool:
        return all((v in s) + len(self.adj[v] & s) == 1 for v in range(self.n))

    def independent(self, s: frozenset[int]) -> bool:
        return not any(self.adj[v] & s for v in s)

    def contract(self, u: int, v: int) -> tuple[int, list[tuple[int, int]]]:
        """Merge u and v into one new last vertex; the rest keep their order."""
        keep = [w for w in range(self.n) if w not in (u, v)]
        index = {w: i for i, w in enumerate(keep)}
        merged = len(keep)
        out = set()
        for a, b in self.edges:
            a2, b2 = index.get(a, merged), index.get(b, merged)
            if a2 != b2:
                out.add((min(a2, b2), max(a2, b2)))
        return merged + 1, sorted(out)


class Oracle:
    """Checks verdicts; ``gamma_of(n, edges)`` is the package's exact gamma."""

    def __init__(self, gamma_of: Callable[[int, list], int]):
        self.gamma_of = gamma_of
        self.graphs: dict[str, Graph] = {}
        self.gamma: dict[str, int] = {}  # from checked verdicts, per instance
        self.mds: dict[str, list[frozenset[int]]] = {}  # checked MDS witnesses
        self.lowers: dict[tuple[str, tuple[int, int]], bool] = {}
        self.pending: list[frozenset[int]] = []
        self.memo: dict[tuple, Optional[str]] = {}

    def check(self, op: Op, exit_code: int, text: str) -> Optional[str]:
        """None if the verdict is right, else why it is rejected."""
        memo_key = (op.key, exit_code, text)
        if memo_key not in self.memo:
            self.pending = []
            try:
                _need(exit_code == 0, f"exit code {exit_code}")
                try:
                    payload = json.loads(text)
                except ValueError:
                    raise Rejected("output is not JSON")
                if op.question == "verify":
                    self._verify(payload)
                else:
                    getattr(self, "_" + op.question.replace("-", "_"))(op.instance, payload)
                    # witnesses count as known MDS only once the whole verdict passed
                    self.mds.setdefault(op.instance.name, []).extend(self.pending)
                self.memo[memo_key] = None
            except (Rejected, KeyError, TypeError, ValueError) as exc:
                self.memo[memo_key] = f"{type(exc).__name__}: {exc}"
        return self.memo[memo_key]

    # -- helpers ------------------------------------------------------------

    def graph(self, inst: Instance) -> Graph:
        if inst.name not in self.graphs:
            self.graphs[inst.name] = Graph(inst.n, inst.edges)
        return self.graphs[inst.name]

    def ref_gamma(self, inst: Instance) -> int:
        if inst.family == "subcubic" and inst.sat:
            return inst.floor
        if inst.name not in self.gamma:
            self.gamma[inst.name] = self.gamma_of(inst.n, list(inst.edges))
        return self.gamma[inst.name]

    def edge_lowers(self, inst: Instance, edge: tuple[int, int], gamma: int) -> bool:
        """Contract-and-compare for one edge."""
        key = (inst.name, edge)
        if key not in self.lowers:
            n, edges = self.graph(inst).contract(*edge)
            self.lowers[key] = self.gamma_of(n, edges) < gamma
        return self.lowers[key]

    def _mds(self, inst: Instance, witness, gamma: int, what: str) -> frozenset[int]:
        g = self.graph(inst)
        s = g.members(witness)
        _need(g.dominates(s), f"{what} does not dominate")
        _need(len(s) == gamma, f"{what} has {len(s)} members, gamma is {gamma}")
        self.pending.append(s)
        return s

    def _edge(self, inst: Instance, witness) -> tuple[int, int]:
        u, v = witness
        _need(v in self.graph(inst).adj[u], f"witness ({u},{v}) is not an edge")
        return (u, v)

    def _gamma_vs_floor(self, inst: Instance, gamma: int) -> None:
        _need(gamma >= inst.floor, f"gamma {gamma} below the floor {inst.floor}")
        _need(
            (gamma == inst.floor) == inst.sat,
            f"gamma {gamma}, floor {inst.floor}, but brute-force sat={inst.sat}",
        )

    # -- solve --what ... ----------------------------------------------------

    def _gamma(self, inst: Instance, p: dict) -> None:
        gamma = p["gamma"]
        self._mds(inst, p["witness"], gamma, "gamma witness")
        self._gamma_vs_floor(inst, gamma)
        self.gamma.setdefault(inst.name, gamma)

    def _all_efficient(self, inst: Instance, p: dict) -> None:
        verdict = p["all_efficient"]
        _need(verdict == ("yes" if inst.sat else "no"), f"all_efficient={verdict}, sat={inst.sat}")
        if verdict == "no":
            s = self._mds(inst, p["witness"], self.ref_gamma(inst), "non-efficient witness")
            _need(not self.graph(inst).efficient(s), "non-efficient witness is efficient")

    def _one_contraction(self, inst: Instance, p: dict) -> None:
        verdict = p["one_contraction"]
        _need(verdict in ("yes", "no"), f"one_contraction={verdict}")
        if inst.sat:
            _need(verdict == "no", "one_contraction=yes on a satisfiable build")
        if verdict == "yes":
            edge = self._edge(inst, p["witness_edge"])
            _need(self.edge_lowers(inst, edge, self.ref_gamma(inst)), f"contracting {edge} keeps gamma")
        else:
            g = self.graph(inst)
            for s in self.mds.get(inst.name, ()):
                _need(g.independent(s), "one_contraction=no, but a known MDS holds an edge")

    # -- solve --what blocker ---------------------------------------------------

    def _blocker(self, inst: Instance, p: dict) -> None:
        g = self.graph(inst)
        gamma = p["gamma"]
        w = p["witnesses"]
        gw = self._mds(inst, w["gamma_witness"], gamma, "gamma witness")
        if inst.family == "p7":
            self._gamma_vs_floor(inst, gamma)
        else:
            # every vertex dominates at most 1 + max degree vertices
            bound = -(-g.n // (1 + max(len(a) for a in g.adj)))
            _need(gamma >= bound, f"gamma {gamma} below the degree bound {bound}")

        efficient, independent = p["all_efficient"], p["all_independent"]
        one, ct = p["one_contraction"], p["ct_gamma"]
        if efficient == "no":
            s = self._mds(inst, w["non_efficient_mds"], gamma, "non-efficient witness")
            _need(not g.efficient(s), "non-efficient witness is efficient")
        else:
            _need(efficient == "yes" and g.efficient(gw), "all_efficient=yes, gamma witness not efficient")
            _need(independent == "yes", "all_efficient=yes but all_independent=no")
        if independent == "no":
            s = self._mds(inst, w["non_independent_mds"], gamma, "non-independent witness")
            _need(not g.independent(s), "non-independent witness is independent")
        else:
            _need(independent == "yes", f"all_independent={independent}")
            for s in [*self.mds.get(inst.name, ()), *self.pending]:
                _need(g.independent(s), "all_independent=yes, but a known MDS holds an edge")
        _need(one == ("yes" if independent == "no" else "no"), "one_contraction disagrees with all_independent")

        if gamma == 1:
            _need(ct == "impossible", f"gamma 1 but ct={ct}")
            return
        _need(ct in (1, 2, 3), f"ct={ct} with gamma {gamma}")
        _need((ct == 1) == (one == "yes"), f"ct={ct} but one_contraction={one}")
        if one == "yes":
            edge = self._edge(inst, w["one_contraction_edge"])
            _need(self.edge_lowers(inst, edge, gamma), f"contracting {edge} keeps gamma")
        if inst.family == "p7":
            _need((ct == 1) == (not inst.sat), f"ct={ct} but brute-force sat={inst.sat}")
        elif ct != 1:
            for edge in g.edges:
                _need(not self.edge_lowers(inst, edge, gamma), f"ct={ct} but contracting {edge} lowers gamma")

    # -- verify all -----------------------------------------------------------------

    def _verify(self, verdicts: list) -> None:
        _need(isinstance(verdicts, list) and verdicts, "no verdicts")
        bad = [v for v in verdicts if v["status"] != "pass"]
        _need(not bad, f"{len(bad)} claims not pass, first: {bad[:1]}")
        claims = {v["claim"] for v in verdicts}
        _need(VERIFY_CLAIMS <= claims, f"missing claims {sorted(VERIFY_CLAIMS - claims)}")
        expected = CONNECTED_UP_TO[VERIFY_MAX_N] + VERIFY_RANDOM_COUNT
        for v in verdicts:
            if v["claim"] in ("contraction-equivalences", "three-contractions-suffice"):
                checked = int(v["instance"].split()[0])
                _need(checked == expected, f"{v['claim']} checked {checked} graphs, expected {expected}")
