"""Explicit search for the small witness sets behind the weight reduction.

Two existence statements drive the solver's correctness, and both are
checkable by brute force at desk scale:

* for any map phi from the size-<=-k subsets of [n] into Z_p^m there is a
  set U with |U| <= k*m*(p-1) whose subsets alone reproduce the total sum
  of phi (Karolyi-Szabo; the Boolean case of the next one);
* for functions f_1..f_m : A^n -> Z_p of absorbing degree <= k and any
  point a, there is such a U with f_i(a) = f_i(a restricted to U).

Both searches are predicates over U for one scan, _first_set: canonical
order (size ascending, then bitmask ascending), TheoremViolation if the
guaranteed bound is exhausted -- which can only mean a coding bug, never
input data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .absorbing import TabulatedFunction, absorbing_degree, restrict_vector
from .algebra import _is_int
from .bounds import TheoremViolation, is_prime


class HypothesisViolation(ValueError):
    """Input data does not satisfy the hypothesis of the search."""


@dataclass(frozen=True)
class SubsetFunction:
    """A map from the subsets of [n] of size <= k (as bitmasks) to Z_p^m."""

    n: int
    k: int
    p: int
    m: int
    values: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or self.m < 1:
            raise ValueError("need n >= 1, k >= 0, m >= 1")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        count = _subsets_upto(self.n, self.k, len(self.values))
        if len(self.values) != count or not all(
            0 <= mask and mask.bit_length() <= self.n and mask.bit_count() <= self.k
            for mask in self.values
        ):
            raise ValueError(
                f"values must cover exactly the {count} subsets of size <= {self.k}"
                if count is not None
                else f"values must cover exactly the subsets of size <= {self.k}, "
                f"more than the {len(self.values)} given"
            )
        for mask, vec in self.values.items():
            if len(vec) != self.m or any(not _is_int(v) or not 0 <= v < self.p for v in vec):
                raise ValueError(f"value at mask {mask} is not a vector in Z_{self.p}^{self.m}")


def _subsets_upto(n: int, k: int, keys: int) -> int | None:
    """The number of subsets of [n] of size <= k, or None once a partial
    sum passes keys with terms left: the full sum need not be computed,
    and its digits need not fit in a message."""
    count = 0
    for i in range(min(k, n) + 1):
        count += comb(n, i)
        if count > keys and i < min(k, n):
            return None
    return count


def witness_bound(k: int, m: int, p: int) -> int:
    """k*m*(p-1): the size a witness set U never needs to exceed, for m
    coordinates in Z_p of absorbing degree (or subset size) <= k."""
    return k * m * (p - 1)


def _first_set(n: int, bound: int, holds, what: str) -> int:
    """First U (canonical order, one size at a time) with |U| <= bound and holds(U)."""
    for size in range(bound + 1):
        for u in sorted(sum(1 << i for i in idxs) for idxs in combinations(range(n), size)):
            if holds(u):
                return u
    raise TheoremViolation(f"no witness of size <= {bound} for {what}")


def ks_find_u(phi: SubsetFunction) -> int:
    """First U (canonical order) whose subsets reproduce phi's total sum.

    Guaranteed to exist with |U| <= witness_bound(k, m, p); returns the bitmask.
    """
    p = phi.p
    total = [sum(column) % p for column in zip(*phi.values.values())]

    def reproduces_total(u):
        inside = (vec for mask, vec in phi.values.items() if mask & ~u == 0)
        return [sum(column) % p for column in zip(*inside)] == total

    return _first_set(
        phi.n, min(phi.n, witness_bound(phi.k, phi.m, p)), reproduces_total,
        f"n={phi.n}, k={phi.k}, p={p}, m={phi.m}",
    )


def redweight_find_u(fs: list[TabulatedFunction], k: int, a) -> int:
    """First U (canonical order) with f_i(a) = f_i(a restricted to U) for all i.

    Every f_i must have absorbing degree <= k (HypothesisViolation
    otherwise); the witness is guaranteed with |U| <= witness_bound(k, len(fs), p).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not fs:
        return 0
    n = fs[0].arity
    p = fs[0].prime
    for f in fs:
        if f.arity != n or f.prime != p or f.domain_size != fs[0].domain_size:
            raise ValueError("all functions must share domain size, arity, and prime")
    for i, f in enumerate(fs):
        deg = absorbing_degree(f)
        if deg > k:
            raise HypothesisViolation(
                f"function {i} has absorbing degree {deg} > k = {k}"
            )
    a = tuple(a)
    if len(a) != n:
        raise ValueError(f"point has length {len(a)}, expected {n}")
    size = fs[0].domain_size
    if any(not _is_int(v) or not 0 <= v < size for v in a):
        raise ValueError(f"point {a} has a coordinate outside [0, {size})")
    targets = [f(a) for f in fs]

    def keeps_values(u):
        restricted = restrict_vector(a, u)
        return all(f(restricted) == t for f, t in zip(fs, targets))

    return _first_set(
        n, min(n, witness_bound(k, len(fs), p)), keeps_values,
        f"m={len(fs)} functions, k={k}, p={p}",
    )
