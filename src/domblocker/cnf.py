"""CNF formula containers, brute-force satisfiability oracles, instance
generation, and DIMACS I/O.

Two flavors are modeled. The all-positive exactly-3-bounded one-in-three
flavor (each clause is three distinct variables, every variable occurs in
exactly three clauses, a clause is satisfied when exactly one of its variables
is true) and plain 3-SAT with signed literals. Each flavor's ``violated``
method is its one clause rule: the brute-force oracles and the reduction
converters all read it. Variables are 1-based DIMACS style; an assignment is
a tuple of bools indexed by variable-1.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import LabeledGraph

Assignment = tuple[bool, ...]

BRUTE_FORCE_VAR_LIMIT = 30


class CnfError(ValueError):
    """Malformed formula or DIMACS input."""


@dataclass(frozen=True)
class Formula1in3:
    """All-positive clauses of three variables, satisfied one-in-three."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    @staticmethod
    def make(num_vars: int, clauses: Iterable[Iterable[int]]) -> "Formula1in3":
        normalized = tuple(tuple(sorted(c)) for c in clauses)
        for c in normalized:
            if len(c) != 3:
                raise CnfError(f"clause {c} does not have exactly 3 literals")
        return Formula1in3(num_vars, normalized)  # type: ignore[arg-type]

    def violated(self, a: Assignment) -> Optional[int]:
        """The first clause without exactly one true variable under a, or None."""
        for i, (x, y, z) in enumerate(self.clauses):
            if a[x - 1] + a[y - 1] + a[z - 1] != 1:
                return i
        return None


@dataclass(frozen=True)
class Formula3Sat:
    """Clauses of exactly three signed literals over three distinct variables."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    @staticmethod
    def make(num_vars: int, clauses: Iterable[Iterable[int]]) -> "Formula3Sat":
        normalized = tuple(tuple(sorted(c, key=abs)) for c in clauses)
        for c in normalized:
            if len(c) != 3:
                raise CnfError(f"clause {c} does not have exactly 3 literals")
        return Formula3Sat(num_vars, normalized)  # type: ignore[arg-type]

    def violated(self, a: Assignment) -> Optional[int]:
        """The first clause with no true literal under a, or None: literal l
        is true when a[|l| - 1] == (l > 0)."""
        for i, (x, y, z) in enumerate(self.clauses):
            if a[abs(x) - 1] != (x > 0) and a[abs(y) - 1] != (y > 0) and a[abs(z) - 1] != (z > 0):
                return i
        return None


# -- validation ----------------------------------------------------------------


def validate_1in3(f: Formula1in3) -> list[str]:
    """All invariant violations, empty when the formula is well-formed."""
    problems = [] if f.num_vars > 0 else ["the formula has no variables"]
    counts = {x: 0 for x in range(1, f.num_vars + 1)}
    for i, clause in enumerate(f.clauses):
        if len(set(clause)) != 3:
            problems.append(f"clause {i} has repeated variables: {clause}")
        for lit in clause:
            if lit <= 0:
                problems.append(f"clause {i} has a non-positive literal {lit}")
            elif lit > f.num_vars:
                problems.append(f"clause {i} references variable {lit} > num_vars={f.num_vars}")
            else:
                counts[lit] += 1
    for x, c in counts.items():
        if c != 3:
            problems.append(f"variable {x} occurs {c} times, expected exactly 3")
    if len(f.clauses) != f.num_vars and not problems:
        problems.append(
            f"{len(f.clauses)} clauses for {f.num_vars} variables "
            "(exactly-3 occurrences forces equality)"
        )
    return problems


def validate_3sat(f: Formula3Sat) -> list[str]:
    problems = []
    for i, clause in enumerate(f.clauses):
        variables = [abs(l) for l in clause]
        if any(l == 0 for l in clause):
            problems.append(f"clause {i} contains the literal 0")
        if any(v > f.num_vars for v in variables):
            problems.append(f"clause {i} references a variable beyond num_vars={f.num_vars}")
        if len(set(variables)) != 3:
            problems.append(f"clause {i} must use three distinct variables: {clause}")
    return problems


# -- brute-force oracles ---------------------------------------------------------


def _first_satisfying(f: Formula1in3 | Formula3Sat) -> Optional[Assignment]:
    """First assignment, in binary counting order, that violates no clause of
    f in its flavor, or None. Exhaustive; guarded to 30 variables."""
    if f.num_vars > BRUTE_FORCE_VAR_LIMIT:
        raise CnfError(f"brute force limited to {BRUTE_FORCE_VAR_LIMIT} variables")
    for bits in range(1 << f.num_vars):
        assignment = tuple(bool(bits >> i & 1) for i in range(f.num_vars))
        if f.violated(assignment) is None:
            return assignment
    return None


def solve_1in3_brute(f: Formula1in3) -> Optional[Assignment]:
    """First assignment giving exactly one true variable per clause, or None."""
    return _first_satisfying(f)


def solve_3sat_brute(f: Formula3Sat) -> Optional[Assignment]:
    """First satisfying assignment under ordinary clause semantics, or None."""
    return _first_satisfying(f)


# -- generators -------------------------------------------------------------------


def incidence_connected(num_vars: int, clauses) -> bool:
    """Is the variable/clause incidence graph connected? Variable x is its
    vertex x - 1 and clause i its vertex num_vars + i."""
    edges = [(x - 1, num_vars + i) for i, clause in enumerate(clauses) for x in clause]
    return LabeledGraph.from_edges(num_vars + len(clauses), edges).is_connected()


def gen_1in3(num_vars: int, seed: int) -> Formula1in3:
    """Random valid instance: a 3-regular variable/clause incidence with three
    distinct variables per clause and a connected incidence structure.

    Deterministic per seed. Uses the configuration model (each variable
    contributes three occurrence slots, shuffled and chunked into clauses)
    with whole-shuffle rejection of invalid chunkings, 2000 shuffles at most.
    """
    if num_vars < 3:
        raise CnfError("need at least 3 variables to form a clause of distinct variables")
    rng = random.Random(seed)
    slots = [x for x in range(1, num_vars + 1) for _ in range(3)]
    for _ in range(2000):
        rng.shuffle(slots)
        clauses = [tuple(sorted(slots[i : i + 3])) for i in range(0, len(slots), 3)]
        if any(len(set(c)) != 3 for c in clauses):
            continue
        if not incidence_connected(num_vars, clauses):
            continue
        f = Formula1in3.make(num_vars, clauses)
        if validate_1in3(f):
            continue
        return f
    raise CnfError(f"no valid instance found for num_vars={num_vars} after 2000 attempts")


def gen_3sat(num_vars: int, num_clauses: int, seed: int) -> Formula3Sat:
    """Random 3-SAT instance: distinct variables per clause, random signs,
    every variable occurring in at least one clause. Deterministic per seed."""
    if num_vars < 3:
        raise CnfError("need at least 3 variables for 3-literal clauses")
    if num_clauses < 1:
        raise CnfError("need at least one clause")
    rng = random.Random(seed)
    for _ in range(2000):
        clauses = []
        for _ in range(num_clauses):
            variables = rng.sample(range(1, num_vars + 1), 3)
            clause = tuple(sorted((v if rng.random() < 0.5 else -v for v in variables), key=abs))
            clauses.append(clause)
        used = {abs(l) for c in clauses for l in c}
        if len(used) == num_vars:
            return Formula3Sat.make(num_vars, clauses)
    raise CnfError(f"could not cover all {num_vars} variables with {num_clauses} clauses")


# -- DIMACS ------------------------------------------------------------------------


def parse_dimacs_cnf(text: str, flavor: str = "3sat") -> Formula1in3 | Formula3Sat:
    """Parse a DIMACS CNF file into the requested flavor.

    Sign errors for the one-in-three flavor are a validation concern, not a
    parse error: the parse succeeds and validate_1in3 reports them.
    """
    if flavor not in ("3sat", "1in3"):
        raise CnfError(f"unknown flavor {flavor!r}")
    num_vars = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise CnfError(f"line {lineno}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"line {lineno}: expected 'p cnf <vars> <clauses>', got {line!r}")
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise CnfError(f"line {lineno}: non-numeric counts in problem line") from None
            if num_vars < 0 or declared_clauses < 0:
                raise CnfError(f"line {lineno}: negative count in problem line")
            continue
        if num_vars is None:
            raise CnfError(f"line {lineno}: clause data before the problem line")
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise CnfError(f"line {lineno}: non-integer literal in {line!r}") from None
        for value in values:
            if value == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(value)
    if num_vars is None:
        raise CnfError("missing 'p cnf' problem line")
    if pending:
        raise CnfError("last clause is not 0-terminated")
    if declared_clauses != len(clauses):
        raise CnfError(f"problem line declares {declared_clauses} clauses, found {len(clauses)}")
    for i, clause in enumerate(clauses):
        if len(clause) != 3:
            raise CnfError(f"clause {i} has {len(clause)} literals, expected 3")
        for lit in clause:
            if abs(lit) > num_vars:
                raise CnfError(f"clause {i} references variable {abs(lit)} > {num_vars}")
    if flavor == "3sat":
        return Formula3Sat.make(num_vars, clauses)
    return Formula1in3.make(num_vars, clauses)


def emit_dimacs_cnf(f: Formula1in3 | Formula3Sat) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# -- bundled fixtures -------------------------------------------------------------------

def satisfiable_fixture() -> Formula1in3:
    """Three variables, the clause (1,2,3) three times; one-in-three satisfiable."""
    return Formula1in3.make(3, [(1, 2, 3)] * 3)


def unsatisfiable_fixture() -> Formula1in3:
    """Four variables, all four 3-subsets as clauses; one-in-three unsatisfiable."""
    return Formula1in3.make(4, list(itertools.combinations(range(1, 5), 3)))
