"""Deciding solvability by bounded-weight enumeration, with a brute-force oracle.

The bounded solver scans the candidate set of assignments whose weight
(coordinates differing from the base element z) stays below the tight
bound; for supernilpotent algebras a solvable system always has such a
low-weight solution, so an exhausted scan proves unsolvability *given
that precondition*.  Verdicts say which kind they are: found solutions
are re-verified and unconditional, bounded "no" verdicts carry an
explicit conditional flag, and scans that covered all of A^n upgrade to
an unconditional exhaustive verdict.

Candidate order is canonical and deterministic: weight ascending, then
support sets in lexicographic (combinations) order, then value tuples in
lexicographic order over the non-z elements.  The brute-force oracle
scans all of A^n lexicographically.  Both solvers intern the terms once
per solve, so that equal subterms share one node, and validate while
they do: each distinct node is checked once, with the errors and the
first fault of check_system, and no other pass checks the system.  They
evaluate whole chunks of candidates by numpy table gathers: each
distinct node once per chunk, and each equation only on the rows still
satisfied.
A bounded-scan chunk holds one or more support sets of one weight times
a run of their value tuples: as many whole supports as fit, or one
support and a slice of its values when a single support's values exceed
a chunk.  Chunks of both scans are capped by cells as well as rows, so
their memory does not grow with n, and candidates and tables are
carried in the narrowest unsigned dtype that holds the carrier, so that
table_index accumulates its gather indices narrow too.
Reported statistics do not depend on any of this: they are exact
sequential-scan equivalents, candidates tested until the verdict, and
tree nodes evaluated, where a candidate evaluates equations left to
right and stops at the first mismatch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb

import numpy as np

from .algebra import FiniteAlgebra, digits, max_arity, table_index
from .bounds import make_bound_report
from .malcev import TernaryFunctionTable, is_malcev
from .terms import (
    App,
    Const,
    EquationSystem,
    Term,
    Var,
    check_node,
    eval_term,
    fold,
    substitute,
)

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SolveStats:
    candidates_tested: int
    term_evaluations: int


@dataclass(frozen=True)
class SolutionFound:
    assignment: tuple[int, ...]
    verified: bool


@dataclass(frozen=True)
class NoSolutionInBoundedSet:
    bound: int
    conditional: bool = True


@dataclass(frozen=True)
class NoSolutionExhaustive:
    pass


Verdict = SolutionFound | NoSolutionInBoundedSet | NoSolutionExhaustive


@dataclass(frozen=True)
class SolveOutcome:
    verdict: Verdict
    stats: SolveStats

    @property
    def satisfiable(self) -> bool:
        return isinstance(self.verdict, SolutionFound)


@dataclass(frozen=True)
class BenchResult:
    bounded: SolveOutcome
    brute: SolveOutcome
    bounded_seconds: float
    brute_seconds: float

    @property
    def agree(self) -> bool:
        return self.bounded.satisfiable == self.brute.satisfiable


def bounded_weight_count(n: int, w: int, size: int) -> int:
    """Number of assignments with at most min(w, n) non-z coordinates."""
    return sum(comb(n, i) * (size - 1) ** i for i in range(min(w, n) + 1))


def enumerate_bounded_weight(n: int, w: int, size: int, z: int = 0):
    """Assignments with <= min(w, n) coordinates differing from z, in
    canonical order: weight ascending, support lexicographic, values
    lexicographic over the non-z elements in ascending order."""
    if w < 0:
        raise ValueError(f"weight cap must be >= 0, got {w}")
    if not 0 <= z < size:
        raise ValueError(f"base element {z} out of range [0, {size})")
    nonz = [v for v in range(size) if v != z]
    for weight in range(min(w, n) + 1):
        for support in combinations(range(n), weight):
            for values in product(nonz, repeat=weight):
                a = [z] * n
                for pos, v in zip(support, values):
                    a[pos] = v
                yield tuple(a)


# ---------------------------------------------------------------------------
# vectorized scan


def _carrier(size: int) -> np.dtype:
    """Narrowest unsigned dtype holding every element of a size-element carrier."""
    return np.min_scalar_type(size - 1)


def _chunk_rows(n: int, chunk: int) -> int:
    """Rows per chunk: at most chunk rows and 8 * chunk cells."""
    return max(1, min(chunk, 8 * chunk // max(n, 1)))


def _lex_chunks(n: int, size: int, chunk: int = _CHUNK):
    """All of A^n, lexicographic (leftmost coordinate most significant)."""
    total, dtype, rows = size**n, _carrier(size), _chunk_rows(n, chunk)
    for start in range(0, total, rows):
        yield digits(start, min(start + rows, total), size, n, dtype)


def _weight_chunks(n: int, w: int, size: int, z: int, chunk: int = _CHUNK):
    """The canonical bounded-weight order, in vectorized blocks.

    Each chunk holds `per` consecutive support sets of one weight times
    `step` consecutive value tuples, lexicographic over the non-z elements:
    whole supports when a support's value block fits in a chunk, otherwise
    one support and a slice of its values.  Chunks here and in _lex_chunks
    hold at most 8 * chunk cells, so their memory does not grow with n,
    and are column-major, so the evaluator reads each variable's column
    contiguously.
    """
    base = size - 1
    dtype = _carrier(size)
    rows = _chunk_rows(n, chunk)
    for weight in range(min(w, n) + 1):
        block = base**weight
        if not block:
            break  # a one-element carrier has no non-z values
        per, step = max(1, rows // block), min(block, rows)
        supports = combinations(range(n), weight)
        while batch := list(islice(supports, per)):
            S = np.array(batch, dtype=np.intp).reshape(len(batch), weight)
            picks = np.arange(len(batch))
            for start in range(0, block, step):
                vals = digits(start, min(start + step, block), base, weight, dtype)
                vals += vals >= z
                X = np.full((n, len(batch), len(vals)), z, dtype=dtype)
                for t in range(weight):
                    X[S[:, t], picks] = vals[:, t]
                yield X.reshape(n, len(batch) * len(vals)).T


def _plan(alg: FiniteAlgebra, system: EquationSystem):
    """Validate and hash-cons the system: one fold keys a leaf by itself
    and an application by (op, arg ids), so equal subterms share one id,
    and ids are post-order positions.  Each distinct node is checked by
    check_node when it first gets an id; a repeat has the same key, so the
    same checks, and the first fault is the one check_system raises.
    Returns the nodes as (term, arg ids); per equation (lhs id, rhs id,
    tree size, start, end), where start..end are the ids it computes
    first; and the ids freed after each step, where step i + k computes
    node i of equation k and step end + k compares it.
    """
    if system.s < 1:
        raise ValueError("system must contain at least one equation")
    ids: dict = {}
    nodes: list[tuple[Term, list[int]]] = []
    sizes: list[int] = []  # AST nodes, as term_length counts them

    def intern(t: Term, args: list[int]) -> int:
        key = (t.op, tuple(args)) if isinstance(t, App) else t
        if key not in ids:
            check_node(alg, t)
            ids[key] = len(nodes)
            nodes.append((t, args))
            sizes.append(1 + sum(sizes[a] for a in args))
        return ids[key]

    roots = fold([t for eq in system.equations for t in eq], intern)
    last: dict[int, int] = {}
    plan, start = [], 0
    for k, (lhs, rhs) in enumerate(zip(roots[::2], roots[1::2])):
        end = max(start, lhs + 1, rhs + 1)
        for i in range(start, end):
            last.update(dict.fromkeys(nodes[i][1], i + k))
        last[lhs] = last[rhs] = end + k
        plan.append((lhs, rhs, sizes[lhs] + sizes[rhs], start, end))
        start = end
    frees: dict[int, list[int]] = {}
    for node, step in last.items():
        frees.setdefault(step, []).append(node)
    return nodes, plan, frees


def _scan(alg: FiniteAlgebra, system: EquationSystem, planned, chunks):
    """The first satisfying candidate of the chunks as a re-verified
    SolutionFound (None if there is none), and the scan's SolveStats.

    Chunks are tested whole by table gathers over the nodes of planned,
    the system's _plan: each distinct node once, each equation on the rows
    that satisfied those before it, each column freed after its last use.
    The stats count as if rows were tested one by one, each evaluating its
    equations' tree nodes in order and stopping at the first mismatch.
    """
    dtype = _carrier(alg.size)
    tables = {op.name: np.asarray(op.table, dtype=dtype) for op in alg.operations}
    nodes, plan, frees = planned
    tested = evaluated = 0
    for X in chunks:
        # rows: the rows of X still satisfied, which sel picks from X
        rows, sel, values, alive = np.arange(len(X)), slice(None), {}, []
        for k, (lhs, rhs, _, start, end) in enumerate(plan):
            alive.append(rows)
            for i in range(start, end):
                t, args = nodes[i]
                if isinstance(t, Var):
                    values[i] = X[sel, t.index - 1]
                elif isinstance(t, Const):
                    values[i] = np.full(len(rows), t.value, dtype)
                elif args:
                    index = table_index([values[a] for a in args], alg.size)
                    values[i] = tables[t.op].take(index)
                else:
                    values[i] = np.full(len(rows), tables[t.op][0], dtype)
                for a in frees.get(i + k, ()):
                    del values[a]
            keep = values[lhs] == values[rhs]
            for a in frees.get(end + k, ()):
                del values[a]
            rows = sel = rows[keep]
            if not len(rows):
                break
            values = {i: v[keep] for i, v in values.items()}
        else:  # rows[0] satisfies every equation
            j = int(rows[0])
            solution = tuple(int(v) for v in X[j])
            if not _verify(alg, system, solution):
                raise RuntimeError(f"internal error: candidate {solution} failed re-verification")
            # the rows each equation ran on, cut at row j
            cut = sum(eq[2] * int(np.searchsorted(a, j, "right")) for eq, a in zip(plan, alive))
            stats = SolveStats(tested + j + 1, evaluated + cut)
            return SolutionFound(solution, verified=True), stats
        tested += len(X)
        evaluated += sum(eq[2] * len(a) for eq, a in zip(plan, alive))
    return None, SolveStats(tested, evaluated)


def _verify(alg, system, assignment) -> bool:
    """Independent re-check of a candidate through the plain evaluator."""
    return all(
        eval_term(alg, lhs, assignment) == eval_term(alg, rhs, assignment)
        for lhs, rhs in system.equations
    )


def solve_bounded(
    alg: FiniteAlgebra,
    system: EquationSystem,
    z: int = 0,
    bound: int | None = None,
) -> SolveOutcome:
    """Scan candidates of weight <= bound (default: the tight bound capped
    at n) in canonical order; "no solution" is conditional on the algebra
    being supernilpotent unless the scan covered all of A^n."""
    if not 0 <= z < alg.size:
        raise ValueError(f"base element {z} out of range [0, {alg.size})")
    planned = _plan(alg, system)
    n = system.n
    if bound is None:
        bound = make_bound_report(system.s, max_arity(alg), alg.size, n=n).effective_bound
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    found, stats = _scan(alg, system, planned, _weight_chunks(n, bound, alg.size, z, _CHUNK))
    if found is None:
        found = NoSolutionExhaustive() if bound >= n else NoSolutionInBoundedSet(bound=bound)
    return SolveOutcome(found, stats)


def solve_brute(alg: FiniteAlgebra, system: EquationSystem) -> SolveOutcome:
    """Full enumeration of A^n in lexicographic order; unconditional verdict."""
    chunks = _lex_chunks(system.n, alg.size, _CHUNK)
    found, stats = _scan(alg, system, _plan(alg, system), chunks)
    return SolveOutcome(found or NoSolutionExhaustive(), stats)


def normalize_system(
    alg: FiniteAlgebra,
    system: EquationSystem,
    d: TernaryFunctionTable,
    z: int = 0,
) -> list[Term]:
    """Rewrite each equation f = g as one term h = d(f, g, z) whose value-z
    set equals the equation's solution set (d must be Mal'cev)."""
    if not is_malcev(d):
        raise ValueError("normalization requires a Mal'cev table")
    if not 0 <= z < alg.size:
        raise ValueError(f"base element {z} out of range [0, {alg.size})")
    out = []
    for lhs, rhs in system.equations:
        out.append(substitute(d.witness, {1: lhs, 2: rhs, 3: Const(z)}))
    return out


def bench(alg: FiniteAlgebra, system: EquationSystem, z: int = 0) -> BenchResult:
    """Run both solvers and report verdicts, counters, and wall time."""
    t0 = time.perf_counter()
    bounded = solve_bounded(alg, system, z=z)
    t1 = time.perf_counter()
    brute = solve_brute(alg, system)
    t2 = time.perf_counter()
    return BenchResult(
        bounded=bounded,
        brute=brute,
        bounded_seconds=t1 - t0,
        brute_seconds=t2 - t1,
    )
