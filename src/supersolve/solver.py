"""Deciding solvability by bounded-weight enumeration, with a brute-force oracle.

The bounded solver scans the candidate set of assignments whose weight
(coordinates differing from the base element z) stays below the tight
bound; for supernilpotent algebras a solvable system always has such a
low-weight solution, so an exhausted scan proves unsolvability *given
that precondition*.  Verdicts say which kind they are: found solutions
are re-verified and unconditional (one that fails raises TheoremViolation,
an implementation bug), bounded "no" verdicts carry an explicit
conditional flag, and scans that covered all of A^n upgrade to an
unconditional exhaustive verdict.

Candidate order is canonical and deterministic: weight ascending, then
support sets in lexicographic (combinations) order, then value tuples in
lexicographic order over the non-z elements.  The brute-force oracle
scans all of A^n lexicographically.  Both solvers plan over the system's
node table (terms.NodeTable) in one forward pass, which checks each
distinct node once and, for the bounded scan, folds it in place; the nodes
that the roots reach are then laid out once, each freed at its last reader.

A system's value depends only on the variables V it mentions, so the
scans build only V's columns.  The bounded scan first folds each node
that reads at most one variable, tabulated over A: one that takes a
single value c becomes #c, as mul(x7, inv(x7)) does in a group, and any
other but an operation applied to the variable itself becomes one gather
of its values at that variable, so what it read is no longer reached.
What is left reads only V' within V, and the bounded scan builds only
the columns of V'; brute, the oracle, keeps the unfolded terms over V.
Each row's f, the index of the first equation it fails, comes from one
evaluator of numpy table gathers: each reached node once per chunk, each
equation on the rows still satisfied.
The bounded scan generates only the supports inside V': when the layers
below w hold no solution, a solving row of layer w lies inside V', or
resetting it to z outside V' would give a lighter solution.  Every other
row costs what its projection onto V' costs, so it is counted in closed
form, with the tree sizes of the original terms.  The first solution has
the base value (z, or 0 for brute) outside the scanned columns and is
re-verified by a scalar evaluator over the unfolded node table.  Brute
counts nothing: it evaluates every row of A^n, restricted to V's
columns.  Chunks of both scans are capped by cells of the columns they
hold as well as by rows, and a bounded chunk may span weight layers, so
a small scan is one evaluator call.  algebra.digits builds their rows in
algebra.carrier_dtype, for narrow table_index gathers, from a range of
ranks, each column from its period, with no row-length int64 array.
Reported statistics are exact sequential-scan equivalents: candidates
tested until the verdict, and tree nodes evaluated, where a candidate
evaluates equations left to right and stops at the first mismatch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .algebra import FiniteAlgebra, carrier_dtype, digits, max_arity, table_index
from .algebra import _check_count, _in_range
from .bounds import TheoremViolation, make_bound_report
from .terms import Const, EquationSystem, Var, check_node, eval_table
from .terms import eval_term  # noqa: F401  bench/tracing.py wraps supersolve.solver.eval_term

_CHUNK = 1 << 16
# glibc hands freed heap memory back to the OS past a trim threshold of 128 KiB,
# so a 65,536-row chunk took 0 to 660 page faults a call, by the heap's history;
# freeing one untouched 4 MiB block raises the threshold to 8 MiB for good.
np.empty(1 << 22, np.uint8)


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


# ---------------------------------------------------------------------------
# vectorized scan


def _chunk_rows(width: int, chunk: int) -> int:
    """Rows per chunk of width columns: at most chunk rows and 8 * chunk cells."""
    return max(1, min(chunk, 8 * chunk // max(width, 1)))


def _lex_chunks(n: int, size: int, cols, chunk: int = _CHUNK):
    """All of A^n, lexicographic (leftmost coordinate most significant),
    restricted to the coordinates cols."""
    total, dtype, rows = size**n, carrier_dtype(size), _chunk_rows(len(cols), chunk)
    for start in range(0, total, rows):
        yield digits(start, min(start + rows, total), size, n, dtype, cols)


def _weight_chunks(w: int, size: int, z: int, cols, chunk: int = _CHUNK):
    """The canonical bounded-weight order of the rows whose support lies
    inside cols, layers 0..min(w, len(cols)), lazily yielded as column-major
    chunks of cols's columns, each with its layer spans [(weight, rows), ...].

    A piece holds `per` consecutive support sets of one weight, drawn from
    combinations over cols's positions, times `step` consecutive value
    tuples, lexicographic over the non-z elements: whole supports when a
    support's value block fits in a chunk, otherwise one support and a
    slice of its values.  A chunk holds consecutive pieces, one a layer at
    most, since a full piece leaves no room for its layer's next, and is
    cut only when the next piece would not fit; a piece is sized before it
    is built, so a scan that stops early builds no rows past its chunk.
    Over a one-element carrier the layers above 0 hold no rows; they must
    not be drawn: every term is 0 there, so layer 0's only row solves any system.
    """
    base, m, dtype = size - 1, len(cols), carrier_dtype(size)
    rows = _chunk_rows(m, chunk)

    def build(pieces, fill):
        X, at = np.full((m, fill), z, dtype=dtype), 0
        for weight, batch, start, stop in pieces:
            S = np.fromiter(chain.from_iterable(batch), np.intp, len(batch) * weight)
            vals = digits(start, stop, base, weight, dtype)
            vals += vals >= z
            end = at + len(batch) * len(vals)
            piece = X[:, at:end].reshape(m, len(batch), len(vals))  # a view
            piece[S.reshape(len(batch), weight), np.arange(len(batch))[:, None]] = vals.T
            at = end
        return X.T, [(k, len(b) * (e - s)) for k, b, s, e in pieces]

    pieces, fill = [], 0
    for weight in range(min(w, m if base else 0) + 1):
        block = base**weight
        per, step = max(1, rows // block), min(block, rows)
        supports = combinations(range(m), weight)
        while batch := list(islice(supports, per)):
            for start in range(0, block, step):
                stop = min(start + step, block)
                if fill + len(batch) * (stop - start) > rows:
                    yield build(pieces, fill)
                    pieces, fill = [], 0
                pieces.append((weight, batch, start, stop))
                fill += len(batch) * (stop - start)
    yield build(pieces, fill)


def _plan(alg: FiniteAlgebra, system: EquationSystem, fold: bool = False):
    """Check the system's node table as check_system does and, if fold, fold
    its one-variable subterms in the same forward pass; then lay out the
    nodes that the roots reach.

    Each node is checked before the fold reads it.  The fold tabulates each
    node that reads at most one variable over A, from its arguments' values.
    At its own id, an application whose values are all one element c becomes
    (Const(c), ()) (a nullary one is evaluated as a constant already), and
    any other but one operation applied to its variable x becomes a gather,
    (its values, (x's id,)); what a folded node read stays, unreached.

    Returns the nodes as (term, arg ids); per equation (lhs id, rhs id, tree
    size of its original terms, todo), todo being the reached ids it computes
    first; the ids that each last reader frees, keyed by its node id or by ~k
    for equation k's comparison; and the reached variables' sorted
    coordinates (index - 1): V, or V' after a fold."""
    nodes, roots, sizes = system.table
    nodes, size = list(nodes), alg.size
    tables = {op.name: op.table for op in alg.operations}
    reads = []  # per node: 1 + the id of the variable it reads, 0 for none, -1 for several
    values = []  # per node reading at most one variable: its values over A
    for i, (t, args) in enumerate(nodes):
        check_node(alg, t)
        if not fold:
            continue
        v, col = 0, None
        if isinstance(t, Var):
            v, col = i + 1, range(size)
        elif isinstance(t, Const):
            col = (t.value,) * size
        else:
            for a in args:
                u = reads[a]
                if u and u != v:
                    if v:
                        v = -1
                        break
                    v = u
            if v >= 0:
                index = values[args[0]] if args else (0,) * size
                for a in args[1:]:
                    index = [j * size + x for j, x in zip(index, values[a])]
                col = list(map(tables[t.op].__getitem__, index))
                if args and col.count(col[0]) == size:
                    nodes[i] = (Const(col[0]), ())
                    v = 0
                elif v and args != (v - 1,):
                    nodes[i] = (tuple(col), (v - 1,))
        reads.append(v)
        values.append(col)
    reached = [False] * len(nodes)
    for r in roots:
        reached[r] = True
    for i in range(len(nodes) - 1, -1, -1):
        if reached[i]:
            for a in nodes[i][1]:
                reached[a] = True
    last: dict[int, int] = {}  # per computed node: its last reader
    plan, start = [], 0
    for k, (lhs, rhs) in enumerate(zip(roots[::2], roots[1::2])):
        end = max(start, lhs + 1, rhs + 1)
        todo = [i for i in range(start, end) if reached[i]]
        for i in todo:
            for a in nodes[i][1]:
                last[a] = i
        last[lhs] = last[rhs] = ~k
        plan.append((lhs, rhs, sizes[lhs] + sizes[rhs], todo))
        start = end
    frees: dict[int, list[int]] = {}
    for node, reader in last.items():
        frees.setdefault(reader, []).append(node)
    cols = sorted(t.index - 1 for (t, _), r in zip(nodes, reached) if r and isinstance(t, Var))
    return nodes, plan, frees, cols


def _evaluator(alg: FiniteAlgebra, planned):
    """The function from a chunk X of planned's columns cols to each row's f
    (s if it fails no equation): it gathers over planned's reached nodes,
    each once (a fold's gathers from one array), each equation on the rows
    that satisfied those before it, and drops each value at its last reader,
    so a chunk holds the walk's frontier."""
    dtype = carrier_dtype(alg.size)
    tables = {op.name: np.asarray(op.table, dtype=dtype) for op in alg.operations}
    nodes, plan, frees, cols = planned
    gathers = [i for *_, todo in plan for i in todo if type(nodes[i][0]) is tuple]
    tables.update(zip(gathers, np.array([nodes[i][0] for i in gathers], dtype)))
    fdtype = np.min_scalar_type(len(plan))
    at = {c + 1: j for j, c in enumerate(cols)}  # each variable's column

    def failures(X):
        f = np.zeros(len(X), fdtype)
        # sel picks the rows of X still satisfied: all of them, then the
        # row ids the first equation keeps, then those the next ones keep
        live, sel, values = len(X), slice(None), {}
        for k, (lhs, rhs, _, todo) in enumerate(plan):
            for i in todo:
                t, args = nodes[i]
                if isinstance(t, Var):
                    values[i] = X[sel, at[t.index]]
                elif isinstance(t, Const):
                    values[i] = np.full(live, t.value, dtype)
                elif type(t) is tuple:
                    values[i] = tables[i].take(values[args[0]])
                elif args:
                    values[i] = tables[t.op].take(table_index([values[a] for a in args], alg.size))
                else:
                    values[i] = np.full(live, tables[t.op][0], dtype)
                for a in frees.get(i, ()):
                    del values[a]
            keep = values[lhs] == values[rhs]
            for a in frees.get(~k, ()):
                del values[a]
            sel = keep.nonzero()[0] if k == 0 else sel[keep]
            f[sel] = k + 1
            live = len(sel)
            if not live:
                break
            values = {i: v[keep] for i, v in values.items()}
        return f

    return failures


def _cost(f: np.ndarray, plan) -> int:
    """Tree nodes evaluated by rows with these f: equation k runs on the
    rows with f >= k."""
    return plan[0][2] * len(f) + sum(
        eq[2] * int(np.count_nonzero(f >= k)) for k, eq in enumerate(plan[1:], 1)
    )


def _rank(subset, n: int) -> int:
    """Lexicographic position of a sorted subset of range(n) among those of its size."""
    k = len(subset)
    return comb(n, k) - 1 - sum(comb(n - 1 - t, k - i) for i, t in enumerate(subset))


def _nodes_before(fs, S, cols, n: int, q: int, plan) -> int:
    """Tree nodes of the rows of layer w = len(S) whose support S' precedes
    S, the first solution's support as positions in cols, and meets V = cols
    in fewer than w positions T; fs[k] holds the f of layer k's rows over V.

    Let d = min(T Δ S), r = w - |T| and u = n - |V|.  S' adds r unmentioned
    coordinates to T and comes first when the least lies below d, or else
    when d is in T: N(T) = C(u, r) such S' if d is in T, and otherwise
    C(u, r) - C(u_d, r), u_d counting the unmentioned coordinates above d.
    The T with one d, and d in T or not, are a run of the canonical order.
    """
    w, m, u, total = len(S), len(cols), n - len(cols), 0
    row_nodes = np.cumsum([eq[2] for eq in plan] + [0])  # the nodes of a row, by its f
    for k, f in enumerate(fs):
        # the prefix sums of C(T) over the k-subsets T of V
        P = np.concatenate([[0], row_nodes.take(np.concatenate(f)).cumsum()])[:: q**k]
        # the T that agree with S below d are the run from lo, with rem positions left
        r, lo, rem = w - k, 0, k
        for d in range(m):
            if rem < 0:
                break
            held = comb(m - 1 - d, rem - 1) if rem else 0  # the run's first T hold d
            if d in S:
                a, b, N = lo + held, lo + comb(m - d, rem), comb(u, r) - comb(u - cols[d] + d, r)
                rem -= 1
            else:
                a, b, N = lo, lo + held, comb(u, r)
                lo += held
            total += N * q**r * int(P[b] - P[a])
    return total


def _scan(alg: FiniteAlgebra, system: EquationSystem, planned, bound: int, z: int):
    """The first satisfying candidate of weight <= bound as a re-verified
    SolutionFound (None if there is none), and the scan's SolveStats: those
    of rows tested one by one in canonical order, where a row with f = k
    evaluated the tree nodes of equations 0..min(k, s - 1).

    V = cols may be any set of variables that the system's value depends on
    alone: solve_bounded passes V', the columns of the folded plan.  Only
    rows with support inside V are generated; C(T) is the nodes that the
    q**|T| rows of a support T inside V cost.  A row has the value of its
    projection onto V, so the q**w rows of a support S' with
    S' ∩ V = T cost q**(w - |T|) * C(T): a layer w with no solution costs
    the sum of C(n - m, w - |T|) * q**(w - |T|) * C(T) over T.
    """
    failures, plan, cols = _evaluator(alg, planned), planned[1], planned[3]
    s, n, m, q = len(plan), system.n, len(cols), alg.size - 1
    fs = [[] for _ in range(min(bound, m) + 1)]  # per layer: the f of its rows over V, in parts

    def counted(top):
        """The candidates and tree nodes of layers 0..top, which hold no solution."""
        totals = [sum(_cost(f, plan) for f in layer) for layer in fs]  # the sums of C(T)
        layers = [(w, k, t) for w in range(top + 1) for k, t in enumerate(totals[: w + 1])]
        nodes = sum(comb(n - m, w - k) * q ** (w - k) * t for w, k, t in layers)
        return bounded_weight_count(n, top, alg.size), nodes

    for X, spans in _weight_chunks(bound, alg.size, z, cols, _CHUNK):
        f, at = failures(X), 0
        j = int(f.argmax())  # the first solution, if f[j] == s
        for w, rows in spans:
            if f[j] == s and j < at + rows:
                S, done = np.flatnonzero(X[j] != z).tolist(), sum(map(len, fs[w])) + j - at
                tested, evaluated = counted(w - 1)
                tested += _rank([cols[i] for i in S], n) * q**w + done % q**w + 1
                evaluated += sum(_cost(g, plan) for g in fs[w]) + _cost(f[at : j + 1], plan)
                evaluated += _nodes_before(fs[:w], S, cols, n, q, plan)
                return _found(alg, system, cols, z, X[j]), SolveStats(tested, evaluated)
            fs[w].append(f[at : at + rows])
            at += rows
    return None, SolveStats(*counted(min(bound, n)))


def _found(alg, system, cols, base: int, row) -> SolutionFound:
    """row's values at the coordinates cols and base at every other one,
    re-checked independently by eval_table over the unfolded node table."""
    try:
        a = [base] * system.n
    except (MemoryError, OverflowError):
        raise ValueError(f"cannot build an assignment of n = {system.n} variables") from None
    for c, v in zip(cols, row.tolist()):
        a[c] = v
    values, roots = eval_table(alg, system.table, a), system.table.roots
    if any(values[lhs] != values[rhs] for lhs, rhs in zip(roots[::2], roots[1::2])):
        raise TheoremViolation(f"candidate {tuple(a)} failed re-verification")
    return SolutionFound(tuple(a), verified=True)


def solve_bounded(
    alg: FiniteAlgebra,
    system: EquationSystem,
    z: int = 0,
    bound: int | None = None,
) -> SolveOutcome:
    """Scan candidates of weight <= bound (default: the tight bound capped
    at n) in canonical order, over the columns of the folded plan; "no
    solution" is conditional on the algebra being supernilpotent unless the
    scan covered all of A^n."""
    if not _in_range(z, alg.size):
        raise ValueError(f"base element {z!r} out of range [0, {alg.size})")
    if bound is not None:
        _check_count("bound", bound, 0)
    planned = _plan(alg, system, fold=True)
    if bound is None:
        bound = make_bound_report(system.s, max_arity(alg), alg.size, n=system.n).effective_bound
    found, stats = _scan(alg, system, planned, bound, z)
    if found is None:
        found = NoSolutionInBoundedSet(bound) if bound < system.n else NoSolutionExhaustive()
    return SolveOutcome(found, stats)


def solve_brute(alg: FiniteAlgebra, system: EquationSystem) -> SolveOutcome:
    """Full enumeration of A^n in lexicographic order, over V's columns and
    the unfolded terms; unconditional verdict."""
    planned = _plan(alg, system)
    failures, plan, cols = _evaluator(alg, planned), planned[1], planned[3]
    tested = evaluated = 0
    for X in _lex_chunks(system.n, alg.size, cols, _CHUNK):
        f = failures(X)
        j = int(f.argmax())
        if f[j] == len(plan):
            stats = SolveStats(tested + j + 1, evaluated + _cost(f[: j + 1], plan))
            return SolveOutcome(_found(alg, system, cols, 0, X[j]), stats)
        tested += len(X)
        evaluated += _cost(f, plan)
    return SolveOutcome(NoSolutionExhaustive(), SolveStats(tested, evaluated))


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
