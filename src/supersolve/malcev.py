"""Search the ternary term clone of a finite algebra for a Mal'cev operation.

The closure runs over function tables, not terms: starting from the three
projections (plus every constant, when polynomial rather than term
operations are wanted), fundamental operations are applied pointwise and
new tables are queued breadth-first, in batches of argument tuples over
tables held in the carrier's narrowest unsigned dtype.  Each table
remembers the first term that produced it, so returned witnesses are
minimal in BFS layer count.
The table space is finite, hence exhaustion proves nonexistence; a cap
bounds runaway closures and is reported as incompleteness, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra, digits, table_index
from .terms import App, Const, Term, Var

DEFAULT_CAP = 10**6
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
    filtered from a run of at most rows consecutive product ranks.

    Ranks stay below 2**63: while snapshot**arity would not fit in int64,
    the leading indices run in Python, set in the columns digits leaves 0.
    """
    lead = 0
    while snapshot ** (arity - lead) >= 2**63:
        lead += 1
    rest = snapshot ** (arity - lead)
    for high in range(snapshot**lead):
        for start in range(0, rest, rows):
            combos = digits(start, min(start + rows, rest), snapshot, arity, np.intp)
            for t in range(lead):
                combos[:, t] = high // snapshot ** (lead - 1 - t) % snapshot
            combos = combos[combos.max(axis=1) >= lo]
            if len(combos):
                yield combos


class _Closure:
    def __init__(self, alg: FiniteAlgebra, include_constants: bool, stop_at_malcev: bool):
        self.alg = alg
        self.stop = stop_at_malcev
        size = alg.size
        self.length = size**3
        self.dtype = np.min_scalar_type(size - 1)
        self.op_arrays = [np.asarray(op.table, dtype=self.dtype) for op in alg.operations]
        x, y = digits(0, size**2, size, 2, self.dtype).T
        self._idx_xyy = table_index((x, y, y), size)
        self._idx_xxy = table_index((x, x, y), size)
        self._want_x, self._want_y = x, y
        self.tables: list[np.ndarray] = []
        self.witnesses: list[Term] = []
        self.seen: set[bytes] = set()
        self.malcev_index: int | None = None
        for i, column in enumerate(digits(0, self.length, size, 3, self.dtype).T):
            self.add(column.tobytes(), Var(i + 1))
        if include_constants:
            for c in range(size):
                self.add(self._constant(c), Const(c))

    def _constant(self, c: int) -> bytes:
        return np.full(self.length, c, dtype=self.dtype).tobytes()

    def add(self, key: bytes, witness: Term) -> bool:
        """Register the table whose bytes, in the carrier dtype, are key, if
        unseen; track the first Mal'cev one.  The table is a view of key, so
        its values are stored once, for the seen set and the table list alike."""
        if key in self.seen:
            return False
        self.seen.add(key)
        arr = np.frombuffer(key, dtype=self.dtype)
        self.tables.append(arr)
        self.witnesses.append(witness)
        if self.stop and self.malcev_index is None and self._is_malcev_arr(arr):
            self.malcev_index = len(self.tables) - 1
        return True

    def _is_malcev_arr(self, arr: np.ndarray) -> bool:
        return bool(
            np.array_equal(arr.take(self._idx_xyy), self._want_x)
            and np.array_equal(arr.take(self._idx_xxy), self._want_y)
        )

    def _done(self, cap: int) -> bool:
        return (self.stop and self.malcev_index is not None) or len(self.tables) >= cap

    def run(self, cap: int) -> bool:
        """Expand to fixpoint; True iff the closure is provably complete.

        Tables are appended in BFS order, so the current layer is always
        tables[lo:snapshot], the tables added by the previous round.  Each
        batch of argument tuples is applied in numpy; its result rows are
        then taken in order, as byte slices of one buffer, and only a row
        not seen before builds its witness.
        """
        rows = max(1, _BATCH_CELLS // self.length)
        width = self.length * self.dtype.itemsize
        lo = 0
        while True:
            if self._done(cap):
                return False
            snapshot = len(self.tables)
            tables = np.stack(self.tables)
            grew = False
            for op, op_array in zip(self.alg.operations, self.op_arrays):
                if op.arity == 0:
                    if lo == 0:
                        grew |= self.add(self._constant(op.table[0]), App(op.name, ()))
                        if self._done(cap):
                            return False
                    continue
                for combos in _arg_tuples(snapshot, op.arity, lo, rows):
                    flat = table_index([tables.take(c, axis=0) for c in combos.T], self.alg.size)
                    buf = op_array.take(flat).tobytes()
                    for j in range(len(combos)):
                        key = buf[j * width : (j + 1) * width]
                        if key in self.seen:
                            continue
                        args = combos[j].tolist()
                        grew |= self.add(key, App(op.name, tuple(self.witnesses[i] for i in args)))
                        if self._done(cap):
                            return False
            if not grew:
                return True
            lo = snapshot


def _to_table(closure: _Closure, i: int) -> TernaryFunctionTable:
    return TernaryFunctionTable(
        closure.alg.size,
        tuple(closure.tables[i].tolist()),
        closure.witnesses[i],
    )


def ternary_term_clone(
    alg: FiniteAlgebra,
    include_constants: bool = False,
    cap: int = DEFAULT_CAP,
) -> tuple[list[TernaryFunctionTable], bool]:
    """All ternary term (or polynomial) operations reachable from the
    projections, with witness terms; the flag reports completeness."""
    if cap < 3:
        raise ValueError(f"cap must be >= 3, got {cap}")
    closure = _Closure(alg, include_constants, stop_at_malcev=False)
    complete = closure.run(cap)
    tables = [_to_table(closure, i) for i in range(len(closure.tables))]
    return tables, complete


def find_malcev(
    alg: FiniteAlgebra,
    include_constants: bool = False,
    cap: int = DEFAULT_CAP,
) -> TernaryFunctionTable | MalcevNotFound:
    """First Mal'cev table in BFS order, or a (complete?) nonexistence report."""
    if cap < 3:
        raise ValueError(f"cap must be >= 3, got {cap}")
    closure = _Closure(alg, include_constants, stop_at_malcev=True)
    complete = closure.run(cap)
    if closure.malcev_index is not None:
        return _to_table(closure, closure.malcev_index)
    return MalcevNotFound(complete=complete, tables_explored=len(closure.tables))
