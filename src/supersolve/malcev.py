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
collects the stream, and find_malcev reads it up to the first Mal'cev table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra, carrier_dtype, digits, table_index
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


def _arg_tuples(snapshot: int, arity: int, lo: int, rows: int):
    """The argument index tuples over range(snapshot) that touch
    range(lo, snapshot), in product order: (k, arity) intp batches, each
    filtered from a run of at most rows consecutive product ranks.  The
    empty tuple of arity 0 counts as touching 0, so a nullary operation
    joins round 0 only, at its place.  The ranks are Python ints handed to
    digits as ranges, so snapshot**arity may pass int64.
    """
    total = snapshot**arity
    for start in range(0, total, rows):
        combos = digits(start, min(start + rows, total), snapshot, arity, np.intp)
        combos = combos[combos.max(axis=1, initial=0) >= lo]
        if len(combos):
            yield combos


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
    """
    if cap < 3:
        raise ValueError(f"cap must be >= 3, got {cap}")
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
    rows = max(1, _BATCH_CELLS // length)
    width = length * dtype.itemsize
    lo = 0
    while len(tables) < cap:
        snapshot = len(tables)
        stacked = np.stack(tables)
        for op, op_array in zip(alg.operations, op_arrays):
            for combos in _arg_tuples(snapshot, op.arity, lo, rows):
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
    """First Mal'cev table in BFS order, or a (complete?) nonexistence report."""
    size = alg.size
    explored = 0
    for explored, (arr, witness) in enumerate(_clone(alg, include_constants, cap), 1):
        if explored == 1:  # _clone has now checked the size
            x, y = digits(0, size**2, size, 2, arr.dtype).T
            xyy, xxy = table_index((x, y, y), size), table_index((x, x, y), size)
        if (arr.take(xyy) == x).all() and (arr.take(xxy) == y).all():
            return TernaryFunctionTable(size, tuple(arr.tolist()), witness)
    return MalcevNotFound(complete=explored < cap, tables_explored=explored)
