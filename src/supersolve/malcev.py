"""Search the ternary term clone of a finite algebra for a Mal'cev operation.

The closure runs over function tables, not terms: starting from the three
projections (plus every constant, when polynomial rather than term operations
are wanted), fundamental operations are applied pointwise and new tables are
queued breadth-first, in batches of argument tuples over tables held in
algebra.carrier_dtype, as the solver's are; a nullary operation's one batch,
the empty tuple, comes in round 0 only.  Each table remembers the first term
that produced it, so returned witnesses are minimal in BFS layer count.
The table space is finite, hence exhaustion proves nonexistence; a cap on
the tables (DEFAULT_CAP, also the command line's default) bounds runaway
closures and is reported as incompleteness, not an error.  _clone streams
the new tables in BFS order and stops at the cap; ternary_term_clone
collects the stream, and find_malcev reads it up to the first Mal'cev table,
testing each table on its bytes.

A round builds only the argument tuples that can add a table: those that
touch the tables the previous round added, and, where an operation is
symmetric in adjacent arguments t and t+1, only those with c[t] <= c[t+1].
Skipping the others is exact.  Swapping c[t] > c[t+1] gives a tuple with
the same max, so of the same round, and of the same operation, earlier in
product order, with the same result table; by induction on that order, the
table is already seen when the skipped tuple's turn would come.  So the
stream, its witnesses and the cap cut-off are those of applying every tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .algebra import FiniteAlgebra, _check_count, carrier_dtype, digits, table_index
from .terms import App, Const, Term, Var

DEFAULT_CAP = 10**6
# the largest carrier closed over: a ternary table holds size**3 entries
_MAX_SIZE = 256
# result cells (argument tuples times table length) per batch of tuples
_BATCH_CELLS = 1 << 16


@dataclass(frozen=True)
class TernaryFunctionTable:
    """A ternary operation on {0..size-1} with a term that induces it."""

    size: int
    table: tuple[int, ...]
    witness: Term

    def __call__(self, x: int, y: int, z: int) -> int:
        return self.table[table_index((x, y, z), self.size)]


@dataclass(frozen=True)
class MalcevNotFound:
    """No Mal'cev table surfaced; `complete` tells proof from cap timeout."""

    complete: bool
    tables_explored: int


def is_malcev(t: TernaryFunctionTable) -> bool:
    """d(x,y,y) = x and d(x,x,y) = y for all x, y."""
    return all(
        t(x, y, y) == x and t(x, x, y) == y for x in range(t.size) for y in range(t.size)
    )


def _arg_tuples(snapshot: int, arity: int, lo: int, rows: int, ordered: tuple[int, ...] = ()):
    """The argument index tuples c over range(snapshot) that touch
    range(lo, snapshot) and have c[t] <= c[t+1] at each position t in
    ordered, in product order, as (k, arity) intp batches of at most rows
    tuples.  The empty tuple of arity 0 counts as touching 0, so a nullary
    operation joins round 0 only, at its place.

    A product of at most rows tuples is one batch, filtered: for the small
    rounds of small algebras that takes fewer numpy calls.  Otherwise the
    tuples are built per prefix, a value of the first arity - 1 indices,
    and none is built to be dropped.  The prefixes come from digits over a
    range of at most rows prefix ranks, which are Python ints, so
    snapshot**arity may pass int64; the inner ordered pairs filter them.
    Each kept prefix has one run of last indices, [first, snapshot): first
    is 0 when the prefix touches the new layer and lo otherwise, raised to
    the prefix's last index when arity - 2 is in ordered.  The runs are
    unranked a batch at a time, by searchsorted over their ends.
    """
    product = snapshot**arity
    if product <= rows:
        combos = digits(0, product, snapshot, arity, np.intp)
        keep = combos.max(axis=1, initial=0) >= lo
        for t in ordered:
            keep &= combos[:, t] <= combos[:, t + 1]
        combos = combos[keep]
        if len(combos):
            yield combos
        return
    width = arity - 1
    inner = [t for t in ordered if t < width - 1]
    prefixes = snapshot**width
    for start in range(0, prefixes, rows):
        pre = digits(start, min(start + rows, prefixes), snapshot, width, np.intp)
        if inner:
            pre = pre[np.logical_and.reduce([pre[:, t] <= pre[:, t + 1] for t in inner])]
        first = (pre.max(axis=1, initial=0) < lo) * lo
        if width - 1 in ordered:
            np.maximum(first, pre[:, -1], out=first)
        ends = np.cumsum(snapshot - first)
        # position p of the chunk's runs, in run k, has the last index p - ends[k] + snapshot
        heads = np.empty((len(pre), arity), np.intp, order="F")
        heads[:, :width] = pre
        heads[:, width] = snapshot - ends
        total = int(ends[-1]) if len(ends) else 0
        for pos in range(0, total, rows):
            at = np.arange(pos, min(pos + rows, total))
            combos = heads.take(ends.searchsorted(at, side="right"), axis=0)
            combos[:, width] += at
            yield combos


def _symmetric_pairs(op_array: np.ndarray, size: int, arity: int) -> tuple[int, ...]:
    """The positions t whose arguments t and t+1 the table can swap without
    changing any value, each tested on a 4-axis view of the table."""
    return tuple(
        t for t in range(arity - 1)
        if ((v := op_array.reshape(size**t, size, size, -1)) == v.swapaxes(1, 2)).all()
    )


def _clone(alg: FiniteAlgebra, include_constants: bool, cap: int):
    """Yield each new ternary table, a carrier-dtype array, with the first
    term that produced it, in BFS order.

    The seeds (the projections, then the constants when include_constants)
    all come out before the cap is first checked; after them the stream ends
    once cap tables are out, or when a round adds nothing.  The current layer
    is tables[lo:snapshot], the tables added by the previous round.  Each
    batch of argument tuples is applied in numpy (a nullary operation's one
    empty tuple, in round 0, gives its value broadcast), and its result rows
    are taken in order, as byte slices of one buffer; only a row not seen
    before builds its witness.  A table is a view of its key, so its values
    are stored once, for the seen set and the table list alike.

    The batches hold only the tuples that touch the current layer, in one
    order of each pair of adjacent positions that the operation's table is
    symmetric in (read once per operation by _symmetric_pairs); the module
    docstring says why the tuples left out could add no table.
    """
    _check_count("cap", cap, 3)
    size = alg.size
    if size > _MAX_SIZE:
        raise ValueError(f"size must be <= {_MAX_SIZE} for the ternary closure")
    length = size**3
    dtype = carrier_dtype(size)
    tables: list[np.ndarray] = []
    witnesses: list[Term] = []
    seen: set[bytes] = set()

    def add(key: bytes, witness: Term) -> tuple[np.ndarray, Term]:
        seen.add(key)
        tables.append(np.frombuffer(key, dtype=dtype))
        witnesses.append(witness)
        return tables[-1], witness

    projections = digits(0, length, size, 3, dtype).T
    seeds = [(column.tobytes(), Var(i + 1)) for i, column in enumerate(projections)]
    if include_constants:
        seeds += [(np.full(length, c, dtype).tobytes(), Const(c)) for c in range(size)]
    for key, witness in seeds:
        if key not in seen:
            yield add(key, witness)
    if size == 1:
        return  # over one element every ternary table is x1's
    op_arrays = [np.asarray(op.table, dtype=dtype) for op in alg.operations]
    ordered = [_symmetric_pairs(a, size, op.arity) for op, a in zip(alg.operations, op_arrays)]
    rows = max(1, _BATCH_CELLS // length)
    width = length * dtype.itemsize
    lo = 0
    while len(tables) < cap:
        snapshot = len(tables)
        stacked = np.stack(tables)
        for op, op_array, pairs in zip(alg.operations, op_arrays, ordered):
            for combos in _arg_tuples(snapshot, op.arity, lo, rows, pairs):
                buf = (
                    op_array.take(table_index([stacked.take(c, axis=0) for c in combos.T], size))
                    if op.arity
                    else np.broadcast_to(op_array, (1, length))
                ).tobytes()
                for j in range(len(combos)):
                    key = buf[j * width : (j + 1) * width]
                    if key in seen:
                        continue
                    yield add(key, App(op.name, tuple(witnesses[i] for i in combos[j].tolist())))
                    if len(tables) >= cap:
                        return
        if len(tables) == snapshot:
            return
        lo = snapshot


def ternary_term_clone(
    alg: FiniteAlgebra,
    include_constants: bool = False,
    cap: int = DEFAULT_CAP,
) -> tuple[list[TernaryFunctionTable], bool]:
    """All ternary term (or polynomial) operations reachable from the
    projections, with witness terms; the flag reports completeness, which
    the stream shows by running out before the cap."""
    tables = [
        TernaryFunctionTable(alg.size, tuple(arr.tolist()), witness)
        for arr, witness in _clone(alg, include_constants, cap)
    ]
    return tables, len(tables) < cap


def find_malcev(
    alg: FiniteAlgebra,
    include_constants: bool = False,
    cap: int = DEFAULT_CAP,
) -> TernaryFunctionTable | MalcevNotFound:
    """First Mal'cev table in BFS order, or a (complete?) nonexistence report.

    Each table is tested on its bytes, one byte an entry, since _clone
    refuses carriers past 256 elements: one itemgetter reads the entries at
    every (x, y, y) and then every (x, x, y), to be compared with the x and
    then the y values.  Its 2 * size**2 >= 2 positions make it return a
    tuple, where a getter of one position would return a bare int.
    """
    size = alg.size
    explored = 0
    for explored, (arr, witness) in enumerate(_clone(alg, include_constants, cap), 1):
        if explored == 1:  # _clone has now checked the size
            x, y = digits(0, size**2, size, 2, np.intp).T
            xyy, xxy = table_index((x, y, y), size), table_index((x, x, y), size)
            read, want = itemgetter(*xyy.tolist(), *xxy.tolist()), (*x.tolist(), *y.tolist())
        if read(arr.tobytes()) == want:
            return TernaryFunctionTable(size, tuple(arr.tolist()), witness)
    return MalcevNotFound(complete=explored < cap, tables_explored=explored)
