"""Search the ternary term clone of a finite algebra for a Mal'cev operation.

The closure runs over function tables, not terms: starting from the three
projections (plus every constant, when polynomial rather than term
operations are wanted), fundamental operations are applied pointwise and
new tables are queued breadth-first.  Each table remembers the first term
that produced it, so returned witnesses are minimal in BFS layer count.
The table space is finite, hence exhaustion proves nonexistence; a cap
bounds runaway closures and is reported as incompleteness, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra, digits, table_index
from .terms import App, Const, Term, Var

DEFAULT_CAP = 10**6
_BATCH = 2048


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


class _Closure:
    def __init__(self, alg: FiniteAlgebra, include_constants: bool, stop_at_malcev: bool):
        self.alg = alg
        self.stop = stop_at_malcev
        size = alg.size
        self.length = size**3
        self.op_arrays = [np.asarray(op.table, dtype=np.int32) for op in alg.operations]
        x, y = digits(0, size**2, size, 2, np.int32).T
        self._idx_xyy = table_index((x, y, y), size)
        self._idx_xxy = table_index((x, x, y), size)
        self._want_x, self._want_y = x, y
        self.tables: list[np.ndarray] = []
        self.witnesses: list[Term] = []
        self.seen: set[bytes] = set()
        self.malcev_index: int | None = None
        for i, column in enumerate(digits(0, self.length, size, 3, np.int32).T):
            self.add(column.tobytes(), Var(i + 1))
        if include_constants:
            for c in range(size):
                self.add(np.full(self.length, c, dtype=np.int32).tobytes(), Const(c))

    def add(self, key: bytes, witness: Term) -> bool:
        """Register the table whose int32 bytes are key, if unseen; track
        the first Mal'cev one.  The table is a view of key, so its values
        are stored once, for the seen set and the table list alike."""
        if key in self.seen:
            return False
        self.seen.add(key)
        arr = np.frombuffer(key, dtype=np.int32)
        self.tables.append(arr)
        self.witnesses.append(witness)
        if self.stop and self.malcev_index is None and self._is_malcev_arr(arr):
            self.malcev_index = len(self.tables) - 1
        return True

    def _is_malcev_arr(self, arr: np.ndarray) -> bool:
        return bool(
            np.array_equal(arr[self._idx_xyy], self._want_x)
            and np.array_equal(arr[self._idx_xxy], self._want_y)
        )

    def _done(self, cap: int) -> bool:
        return (self.stop and self.malcev_index is not None) or len(self.tables) >= cap

    def run(self, cap: int) -> bool:
        """Expand to fixpoint; True iff the closure is provably complete.

        Tables are appended in BFS order, so the current layer is always
        tables[lo:snapshot], the tables added by the previous round.
        """
        lo = 0
        while True:
            if self._done(cap):
                return False
            snapshot = len(self.tables)
            grew = False
            for op_index, op in enumerate(self.alg.operations):
                if op.arity == 0:
                    if lo == 0:
                        arr = np.full(self.length, op.table[0], dtype=np.int32)
                        grew |= self.add(arr.tobytes(), App(op.name, ()))
                        if self._done(cap):
                            return False
                    continue
                for combos, rows in self._apply_batches(op_index, op.arity, snapshot, lo):
                    for combo, row in zip(combos.tolist(), rows):
                        key = row.tobytes()
                        if key in self.seen:
                            continue
                        wit = App(op.name, tuple(self.witnesses[i] for i in combo))
                        grew |= self.add(key, wit)
                        if self._done(cap):
                            return False
            if not grew:
                return True
            lo = snapshot

    def _apply_batches(self, op_index: int, arity: int, snapshot: int, lo: int):
        """The op applied to argument index tuples over tables[:snapshot] that
        touch tables[lo:snapshot], in product order: (tuples, tables) batches."""
        tables = np.stack(self.tables[:snapshot])
        # the leading index runs in Python, so a rank stays below
        # snapshot**(arity-1) and its leading digit is 0 until overwritten
        rest = snapshot ** (arity - 1)
        for first in range(snapshot):
            for start in range(0, rest, _BATCH):
                combos = digits(start, min(start + _BATCH, rest), snapshot, arity, np.intp)
                combos[:, 0] = first
                combos = combos[combos.max(axis=1) >= lo]
                if len(combos):
                    flat = table_index([tables[c] for c in combos.T], self.alg.size)
                    yield combos, self.op_arrays[op_index][flat]


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
