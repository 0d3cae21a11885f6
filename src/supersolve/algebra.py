"""Finite algebras given by operation tables.

An algebra lives on the carrier ``{0, ..., size-1}``.  Each operation is a
flat, row-major value table: the entry for arguments ``(a_1, ..., a_r)``
sits at index ``sum(a_i * size**(r-i))``, and a nullary operation is a
table of length one.  This layout is normative for the JSON file format
(see :func:`load_algebra`) and is shared by every table in the package:
:func:`table_index` and :func:`digits` are its one implementation, for
single lookups and numpy batches alike: table_index maps argument tuples
to indices, and digits maps a contiguous range of indices back to their
tuples, building each argument's column from its period (an argument of
place value P holds each value P times in turn, with period size * P).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class AlgebraError(ValueError):
    """Malformed input file or invalid operation-table data."""


def table_index(args, size: int):
    """Row-major index of an argument tuple in a table over size elements.

    Each argument is an int or an integer numpy array.  With an array among
    them, the index is one new array, accumulated in place: in the
    narrowest type that holds size**len(args) - 1 when every array and
    numpy scalar is unsigned and that type is narrower than np.intp, else
    in np.intp.  Each argument is added in the index's type, so uint64
    arguments give the same index as np.intp ones.
    Gather with ndarray.take: under [] a narrow index is slower than np.intp.
    """
    args = tuple(args)
    idx = 0
    for a in args:
        if isinstance(a, np.ndarray) and not isinstance(idx, np.ndarray):
            idx, offset = a.astype(_index_dtype(args, size)), idx * size
            if offset:
                np.add(idx, offset, out=idx, dtype=idx.dtype)
        elif isinstance(idx, np.ndarray):
            idx *= size
            # in the index's type: np.intp + np.uint64 would promote to float64
            np.add(idx, a, out=idx, dtype=idx.dtype)
        else:
            idx *= size
            idx += a
    return idx


_INTP = np.dtype(np.intp)


def _index_dtype(args, size: int) -> np.dtype:
    # numpy scalars count too: a signed one would not add into a narrow index
    for a in args:
        if hasattr(a, "dtype") and a.dtype.kind != "u":
            return _INTP
    return _narrow_index_dtype(size, len(args))


@lru_cache(maxsize=256)
def _narrow_index_dtype(size: int, count: int) -> np.dtype:
    """The narrowest type holding size**count - 1 if narrower than np.intp,
    else np.intp."""
    narrow = np.min_scalar_type(size**count - 1)
    return narrow if narrow.itemsize < _INTP.itemsize else _INTP


def carrier_dtype(size: int) -> np.dtype:
    """Narrowest unsigned dtype holding every element of a size-element carrier."""
    return np.min_scalar_type(size - 1)


@lru_cache(maxsize=64)
def _cycle(base: int, dtype) -> np.ndarray:
    """0, 1, ..., base-1 twice, read-only: the values of any base + 1
    consecutive blocks of a digit column start inside it."""
    cycle = np.tile(np.arange(base, dtype=dtype), 2)
    cycle.flags.writeable = False
    return cycle


def digits(start: int, stop: int, base: int, width: int, dtype, cols=None) -> np.ndarray:
    """Rows start..stop-1 of itertools.product(range(base), repeat=width),
    the argument tuples at those row-major table indices, as a column-major
    (stop - start, len(cols)) array in dtype of their positions cols
    (default: all).

    Column t has place value P = base**(width-1-t): it holds each value P
    times in turn, so it repeats with period base * P.  It is built from
    that structure, in dtype: the values of the blocks the rows meet,
    each repeated P times, and that one period tiled when it is shorter
    than the rows.  Block offsets are Python ints, so start and stop may
    pass int64.
    """
    cols = range(width) if cols is None else cols
    n = stop - start
    out = np.zeros((n, len(cols)), dtype=dtype, order="F")
    for j, t in enumerate(cols):
        place = base ** (width - 1 - t)
        block, off = divmod(start, place)
        if place >= n:  # the rows meet at most two blocks
            out[: place - off, j] = block % base
            out[place - off :, j] = (block + 1) % base
            continue
        rows = min(n, base * place)  # one period, or all the rows
        first = block % base
        column = _cycle(base, dtype)[first : first + (off + rows - 1) // place + 1]
        if place > 1:
            column = column.repeat(place)[off : off + rows]
        if rows < n:
            column = column[None].repeat(-(-n // rows), 0).ravel()[:n]
        out[:, j] = column
    return out


def table_length_mismatch(size: int, arity: int, length: int) -> str | None:
    """None if a table of length entries fits arity arguments over size
    elements, else "table length L, expected E".  When size**arity plainly
    exceeds length (its lower bound 2**(arity * (size.bit_length() - 1))
    does), E is written as size**arity rather than computed."""
    if size >= 2 and arity * (size.bit_length() - 1) > length.bit_length():
        return f"table length {length}, expected {size}**{arity}"
    expected = size**arity
    return None if length == expected else f"table length {length}, expected {expected}"


@dataclass(frozen=True)
class OperationTable:
    name: str
    arity: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite algebra: carrier size plus named tabulated operations."""

    name: str
    size: int
    operations: tuple[OperationTable, ...]

    def __post_init__(self):
        if self.size < 1:
            raise AlgebraError(f"size must be >= 1, got {self.size}")
        seen = set()
        for i, op in enumerate(self.operations):
            where = f"operations[{i}] ({op.name!r})"
            if not op.name:
                raise AlgebraError(f"operations[{i}]: empty operation name")
            if op.name in seen:
                raise AlgebraError(f"{where}: duplicate operation name")
            seen.add(op.name)
            if op.arity < 0:
                raise AlgebraError(f"{where}: negative arity")
            if mismatch := table_length_mismatch(self.size, op.arity, len(op.table)):
                raise AlgebraError(
                    f"{where}: {mismatch} for arity {op.arity} and size {self.size}"
                )
            for j, v in enumerate(op.table):
                if not _is_int(v) or not 0 <= v < self.size:
                    raise AlgebraError(
                        f"{where}: table[{j}] entry {v!r} out of range "
                        f"[0, {self.size})"
                    )

    @cached_property
    def _by_name(self) -> dict[str, OperationTable]:
        return {op.name: op for op in self.operations}

    def operation(self, name: str) -> OperationTable:
        try:
            return self._by_name[name]
        except KeyError:
            raise AlgebraError(f"unknown operation {name!r}") from None


def apply_op(alg: FiniteAlgebra, name: str, args) -> int:
    """Look up one operation value; raises AlgebraError on misuse."""
    op = alg.operation(name)
    args = tuple(args)
    if len(args) != op.arity:
        raise AlgebraError(
            f"operation {name!r} has arity {op.arity}, got {len(args)} arguments"
        )
    for a in args:
        if not 0 <= a < alg.size:
            raise AlgebraError(f"argument {a!r} out of range [0, {alg.size})")
    return op.table[table_index(args, alg.size)]


def max_arity(alg: FiniteAlgebra) -> int:
    """Largest arity among the fundamental operations (0 if there are none)."""
    return max((op.arity for op in alg.operations), default=0)


def direct_product(a: FiniteAlgebra, b: FiniteAlgebra, name: str | None = None) -> FiniteAlgebra:
    """Coordinatewise product; element (x, y) is encoded as x*b.size + y.

    Both factors must carry the same signature (op names and arities, in
    order).
    """
    sig_a = [(op.name, op.arity) for op in a.operations]
    sig_b = [(op.name, op.arity) for op in b.operations]
    if sig_a != sig_b:
        raise AlgebraError(
            f"signature mismatch: {a.name} has {sig_a}, {b.name} has {sig_b}"
        )
    size = a.size * b.size
    ops = []
    for op_a, op_b in zip(a.operations, b.operations):
        args = digits(0, size**op_a.arity, size, op_a.arity, np.intp)
        va = np.asarray(op_a.table).take(table_index((args // b.size).T, a.size))
        vb = np.asarray(op_b.table).take(table_index((args % b.size).T, b.size))
        table = np.ravel(va * b.size + vb).tolist()
        ops.append(OperationTable(op_a.name, op_a.arity, tuple(table)))
    return FiniteAlgebra(name or f"{a.name}x{b.name}", size, tuple(ops))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_ints(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


_KINDS = {
    "an integer": _is_int,
    "a string": lambda v: isinstance(v, str),
    "a list": lambda v: isinstance(v, list),
    "a list of integers": _is_ints,
    "an object of integer lists keyed by mask": lambda v: isinstance(v, dict)
    and all(k.isdecimal() and _is_ints(x) for k, x in v.items()),
}


def parse_json(text: str):
    """Decode a JSON input file; a syntax error, or an integer too long for
    int() to convert, becomes an AlgebraError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraError(f"invalid JSON: {exc}") from None
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise AlgebraError(f"invalid JSON: an integer has more than {limit} digits") from None


def json_fields(doc, spec: dict[str, str], where: str = "") -> list:
    """The values of spec's keys in doc, in spec order.

    Checks that doc is a JSON object holding every key with the kind spec
    names for it (a key of ``_KINDS``), and raises AlgebraError with a
    one-line message naming the first field that is not.
    """
    if not isinstance(doc, dict):
        raise AlgebraError(f"{where or 'top level'} must be a JSON object")
    prefix = f"{where}: " if where else ""
    values = []
    for key, kind in spec.items():
        if key not in doc:
            raise AlgebraError(f"{prefix}missing field {key!r}")
        if not _KINDS[kind](doc[key]):
            raise AlgebraError(f"{prefix}{key!r} must be {kind}")
        values.append(doc[key])
    return values


def load_algebra(text: str) -> FiniteAlgebra:
    """Parse and validate an algebra from its JSON file contents."""
    name, size, raw_ops = json_fields(
        parse_json(text), {"name": "a string", "size": "an integer", "operations": "a list"}
    )
    ops = []
    for i, raw in enumerate(raw_ops):
        op_name, arity, table = json_fields(
            raw, {"name": "a string", "arity": "an integer", "table": "a list"}, f"operations[{i}]"
        )
        ops.append(OperationTable(op_name, arity, tuple(table)))
    return FiniteAlgebra(name, size, tuple(ops))


def render_algebra(alg: FiniteAlgebra) -> str:
    """Canonical JSON rendering; load_algebra(render_algebra(a)) == a."""
    doc = {
        "name": alg.name,
        "size": alg.size,
        "operations": [
            {"name": op.name, "arity": op.arity, "table": list(op.table)}
            for op in alg.operations
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
