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
scans all of A^n lexicographically.  Both solvers evaluate the checked
term trees on whole chunks of candidates by numpy table gathers.
A bounded-scan chunk holds one or more support sets of one weight times
a run of their value tuples: as many whole supports as fit, or one
support and a slice of its values when a single support's values exceed
a chunk.  Chunks of both scans are capped by cells as well as rows, so
their memory does not grow with n, and candidates and tables are
carried in the narrowest unsigned dtype that holds the carrier.
Reported statistics do not depend on any of this: they are exact
sequential-scan equivalents, candidates tested until the verdict, and
AST nodes evaluated, where a candidate evaluates equations left to
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
    Const,
    EquationSystem,
    Term,
    Var,
    check_system,
    eval_term,
    substitute,
    term_length,
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


def _check(alg: FiniteAlgebra, system: EquationSystem) -> None:
    if system.s < 1:
        raise ValueError("system must contain at least one equation")
    check_system(alg, system)


def _scan(alg: FiniteAlgebra, system: EquationSystem, chunks):
    """The first satisfying candidate of the chunks as a re-verified
    SolutionFound (None if there is none), and the scan's SolveStats.

    Each chunk is tested whole: the checked terms are evaluated on all of
    its rows at once by table gathers.  The stats count as if rows were
    tested one by one, each evaluating equations in order and stopping at
    the first mismatch.
    """
    dtype = _carrier(alg.size)
    tables = {op.name: np.asarray(op.table, dtype=dtype) for op in alg.operations}
    costs = [term_length(lhs) + term_length(rhs) for lhs, rhs in system.equations]

    def evaluate(t: Term, X: np.ndarray) -> np.ndarray:
        if isinstance(t, Var):
            return X[:, t.index - 1]
        if isinstance(t, Const):
            return np.full(len(X), t.value, dtype)
        table = tables[t.op]
        if not t.args:
            return np.full(len(X), table[0], dtype)
        return table[table_index([evaluate(a, X) for a in t.args], alg.size)]

    tested = nodes = 0
    for X in chunks:
        good = np.ones(len(X), dtype=bool)
        cost = np.zeros(len(X), dtype=np.int64)
        for (lhs, rhs), c in zip(system.equations, costs):
            cost += c * good
            good &= evaluate(lhs, X) == evaluate(rhs, X)
        if not good.any():
            tested += len(X)
            nodes += int(cost.sum())
            continue
        j = int(good.argmax())
        solution = tuple(int(v) for v in X[j])
        if not _verify(alg, system, solution):
            raise RuntimeError(f"internal error: candidate {solution} failed re-verification")
        stats = SolveStats(tested + j + 1, nodes + int(cost[: j + 1].sum()))
        return SolutionFound(solution, verified=True), stats
    return None, SolveStats(tested, nodes)


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
    _check(alg, system)
    n = system.n
    if bound is None:
        bound = make_bound_report(system.s, max_arity(alg), alg.size, n=n).effective_bound
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    found, stats = _scan(alg, system, _weight_chunks(n, bound, alg.size, z, _CHUNK))
    if found is None:
        found = NoSolutionExhaustive() if bound >= n else NoSolutionInBoundedSet(bound=bound)
    return SolveOutcome(found, stats)


def solve_brute(alg: FiniteAlgebra, system: EquationSystem) -> SolveOutcome:
    """Full enumeration of A^n in lexicographic order; unconditional verdict."""
    _check(alg, system)
    found, stats = _scan(alg, system, _lex_chunks(system.n, alg.size, _CHUNK))
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
