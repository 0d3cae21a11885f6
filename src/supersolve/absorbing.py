"""Absorbing decompositions of tabulated functions A^n -> Z_p.

A function f is *absorbing in I* (a subset of coordinates) if it depends
only on the coordinates in I and vanishes whenever any coordinate in I is
the designated absorbing element 0.  Every f splits uniquely into a sum
of I-absorbing components f_I over all subsets I; the largest |I| with a
nonzero component is the absorbing degree (-1 for the zero function).

Subsets are bitmasks: bit j-1 stands for coordinate j (1-based).  The
absorbing element is fixed as index 0 of the domain; relabel before
tabulating if another element should absorb.

decompose computes every component by one transform and keeps its rows
as they come: tables[mask] is f_mask's table, and components builds the
validated TabulatedFunctions only when read.  absorbing_degree is
decompose(f).degree().  The tests check it against oracles that compute
from the definition, in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import _is_int, table_index, table_length_mismatch
from .bounds import is_prime

DEFAULT_POINT_BUDGET = 2**20


class TableBudgetError(ValueError):
    """Decomposition would materialize more table points than allowed."""


@dataclass(frozen=True)
class TabulatedFunction:
    domain_size: int
    arity: int
    prime: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError(f"domain_size must be >= 1, got {self.domain_size}")
        if self.arity < 0:
            raise ValueError(f"arity must be >= 0, got {self.arity}")
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if mismatch := table_length_mismatch(self.domain_size, self.arity, len(self.table)):
            raise ValueError(mismatch)
        # C-level passes (types, then min and max); a tuple converts to numpy slower
        table = self.table
        if not set(map(type, table)) <= {int} or min(table) < 0 or max(table) >= self.prime:
            j = next(j for j, v in enumerate(table) if not _is_int(v) or not 0 <= v < self.prime)
            raise ValueError(f"table[{j}] value {table[j]!r} not in [0, {self.prime})")

    def __call__(self, args) -> int:
        return self.table[table_index(args, self.domain_size)]


def restrict_vector(a, mask: int) -> tuple[int, ...]:
    """Copy coordinates whose (1-based) position is in the mask; set the rest to 0."""
    return tuple(v if mask >> i & 1 else 0 for i, v in enumerate(a))


def mask_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _tensor(f: TabulatedFunction) -> np.ndarray:
    """The table as an |A| x ... x |A| array, one axis per coordinate: in
    int64 when every transform value, below p * 2**n in magnitude, fits
    it, else in Python ints."""
    dtype = np.int64 if f.prime << f.arity < 2**63 else object
    return np.asarray(f.table, dtype=dtype).reshape((f.domain_size,) * f.arity)


def _transform(f: TabulatedFunction) -> np.ndarray:
    """Row J holds the table of the component f_J mod p, for every mask J,
    by the per-coordinate subset-lattice (fast Moebius) transform on the
    |A|^n value tensor: each coordinate j splits every component g into
    g(a_j = 0), which does not contain j, and g - g(a_j = 0), which does.
    The second halves are stacked after the first, at the masks with bit
    j set, so each coordinate is a few numpy calls over at most
    2^n * |A|^n values."""
    comps = _tensor(f)[np.newaxis]
    for axis in range(1, f.arity + 1):
        at_zero = comps.take([0], axis=axis)
        comps = np.concatenate([np.broadcast_to(at_zero, comps.shape), comps - at_zero])
    return (comps % f.prime).reshape(1 << f.arity, -1)


@dataclass(frozen=True)
class AbsorbingDecomposition:
    """The absorbing components of `function`, one per subset mask of its
    coordinates: tables[mask] is that component's table, as the transform
    computed it.  components holds the same tables as TabulatedFunctions,
    built (and validated) when it is first read."""

    function: TabulatedFunction
    tables: tuple[tuple[int, ...], ...]

    @cached_property
    def components(self) -> dict[int, TabulatedFunction]:
        f = self.function
        return {
            mask: TabulatedFunction(f.domain_size, f.arity, f.prime, table)
            for mask, table in enumerate(self.tables)
        }

    def degree(self) -> int:
        """max |J| with a nonzero component; -1 for the zero function."""
        nonzero = [mask.bit_count() for mask, table in enumerate(self.tables) if any(table)]
        return max(nonzero, default=-1)

    def to_json_dict(self) -> dict:
        """Debug dump: subset bitmask (as string key) -> component table."""
        return {
            "domain_size": self.function.domain_size,
            "arity": self.function.arity,
            "prime": self.function.prime,
            "absorbing_degree": self.degree(),
            "components": {str(mask): list(table) for mask, table in enumerate(self.tables)},
        }


def decompose(
    f: TabulatedFunction, max_points: int = DEFAULT_POINT_BUDGET
) -> AbsorbingDecomposition:
    """Full absorbing decomposition: one component per subset of [n].  The
    budget counts 2**n components of |A|**n points each, and at least
    2**n points each, so that a one-element domain's components count
    too."""
    if max(len(f.table), 1 << f.arity) << f.arity > max_points:
        raise TableBudgetError(
            f"2**{f.arity} components of {f.domain_size}**{f.arity} table points "
            f"exceed the budget of {max_points}"
        )
    return AbsorbingDecomposition(f, tuple(map(tuple, _transform(f).tolist())))


def absorbing_degree(
    f: TabulatedFunction, max_points: int = DEFAULT_POINT_BUDGET
) -> int:
    return decompose(f, max_points).degree()
