"""Weight bounds for the bounded-weight solver.

For an algebra of cardinality |A| = prod p_i^alpha_i whose operations have
arity at most mu, a solvable system of s equations has a solution whose
weight (number of coordinates differing from the chosen base element) is
at most the *tight* bound

    s * sum_i k_i * alpha_i * (p_i - 1),   k_i = (mu * (p_i^alpha_i - 1))**(alpha_i - 1),

which in turn is at most the *loose* closed form s * |A|**(log2(mu) +
log2(|A|) + 1).  The solver searches up to the tight bound; the loose form
and e = loose + 1 are reported for complexity accounting.  All bounds
assume the algebra is supernilpotent; for other algebras the report is
meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext


class TheoremViolation(RuntimeError):
    """An internal self-check failed (re-verification of a found solution,
    tight <= loose bound, witness search): an implementation bug, never input."""


# Miller-Rabin to these bases decides primality exactly below _MR_LIMIT
# (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality test, in time polynomial in n's digits; a number
    past _MR_LIMIT with no factor among _MR_BASES raises ValueError."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large to test whether it is prime")
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**r with d odd
    d = (n - 1) >> r
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(cardinality: int) -> list[tuple[int, int]]:
    """Trial-division prime factorization, primes ascending; [] for 1."""
    if cardinality < 1:
        raise ValueError(f"cardinality must be >= 1, got {cardinality}")
    out = []
    n = cardinality
    d = 2
    while d * d <= n:
        a = 0
        while n % d == 0:
            n //= d
            a += 1
        if a:
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def k_factor(mu: int, p: int, alpha: int) -> int:
    """Supernilpotency degree bound for one prime-power factor."""
    if mu < 1 or alpha < 1:
        raise ValueError("mu and alpha must be >= 1")
    return (mu * (p**alpha - 1)) ** (alpha - 1)


def loose_weight_bound(s: int, mu: int, cardinality: int) -> int:
    """Closed-form bound s * |A|**(log2(mu) + log2(|A|) + 1), rounded up.

    Exact integer arithmetic when |A| is a power of two (the exponent
    denominator cancels).  Otherwise the value is evaluated with a
    bound on its error, in floats first and then in decimal at rising
    precision, until no integer lies within that bound, so the ceiling
    is certain.
    """
    if s < 1 or mu < 1:
        raise ValueError("s and mu must be >= 1")
    if cardinality < 1:
        raise ValueError(f"cardinality must be >= 1, got {cardinality}")
    if cardinality & (cardinality - 1) == 0:
        b = cardinality.bit_length() - 1
        # |A|^(log2 mu) = mu^b and |A|^(log2|A| + 1) = 2^(b*b + b), both exact
        return s * mu**b * 2 ** (b * b + b)
    log_value = (math.log2(mu) + math.log2(cardinality) + 1) * math.log(cardinality) + math.log(s)
    if log_value < 36:
        # Each float operation above errs by at most an ulp, so log_value
        # errs by at most 4 * log_value ulps and value, relatively, by at
        # most 145 ulps < 2^-44: half the margin allowed here.
        value = math.exp(log_value)
        lo, hi = math.ceil(value * (1 - 2**-43)), math.ceil(value * (1 + 2**-43))
        if lo == hi:
            return lo
    # ten digits past the integer part
    return _decimal_ceiling(s, mu, cardinality, int(log_value / math.log(10)) + 10)


def _decimal_ceiling(s: int, mu: int, cardinality: int, digits: int) -> int:
    """ceil(s * |A|**(log2(mu) + log2(|A|) + 1)) in decimal arithmetic.

    Each decimal operation is correctly rounded, so at `digits` digits the
    result errs relatively by less than (8t + 8) * 10**(1 - digits), where
    t = ln(value / s) is the argument of exp.  The precision doubles from
    `digits` until that interval holds no integer; a value that never
    separates from an integer gets the interval's upper ceiling, still an
    upper bound.
    """
    for _ in range(8):
        with localcontext() as ctx:
            ctx.prec = digits
            ln_card = Decimal(cardinality).ln()
            ln2 = Decimal(2).ln()
            t = (Decimal(mu).ln() / ln2 + ln_card / ln2 + 1) * ln_card
            value = s * t.exp()
            err = value * (8 * t + 8) * Decimal(10) ** (1 - digits)
            lo, hi = math.ceil(value - err), math.ceil(value + err)
        if lo == hi:
            return lo
        digits *= 2
    return hi


@dataclass(frozen=True)
class BoundReport:
    mu: int
    cardinality: int
    s: int
    n: int | None
    factorization: tuple[tuple[int, int], ...]
    k_list: tuple[int, ...]
    tight_bound: int
    loose_bound: int
    effective_bound: int
    e: int


def make_bound_report(s: int, mu: int, cardinality: int, n: int | None = None) -> BoundReport:
    """All bound figures in one record; effective_bound = min(n, tight)."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if n is not None and n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    # before factorize: an algebra without operations may have any size
    if mu < 1:
        raise ValueError(f"mu (the largest operation arity) must be >= 1, got {mu}")
    factors = factorize(cardinality)
    ks = [k_factor(mu, p, a) for p, a in factors]
    tight = s * sum(k * a * (p - 1) for k, (p, a) in zip(ks, factors))
    loose = loose_weight_bound(s, mu, cardinality)
    if tight > loose:
        raise TheoremViolation(
            f"tight bound {tight} exceeds loose bound {loose}; "
            "bound arithmetic is broken"
        )
    effective = tight if n is None else min(n, tight)
    return BoundReport(
        mu=mu,
        cardinality=cardinality,
        s=s,
        n=n,
        factorization=tuple(factors),
        k_list=tuple(ks),
        tight_bound=tight,
        loose_bound=loose,
        effective_bound=effective,
        e=loose + 1,
    )
