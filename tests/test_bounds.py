import hashlib

import pytest

from supersolve.bounds import (
    _decimal_ceiling,
    factorize,
    is_prime,
    k_factor,
    loose_weight_bound,
    make_bound_report,
)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    # against trial division, past the squares of the Miller-Rabin bases
    for n in range(-2, 20000):
        assert is_prime(n) == (n >= 2 and factorize(n) == [(n, 1)]), n
    # the least strong pseudoprimes to the bases 2; 2..7; 2..23; 2..37, and
    # primes past int64
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59) and not is_prime(2**64 - 57)
    # instant, where trial division would run for years
    assert is_prime(2305843009213693951)
    assert not is_prime(2**89)
    with pytest.raises(ValueError, match="too large to test"):
        is_prime(2**89 - 1)


def test_factorize():
    assert factorize(4) == [(2, 2)]
    assert factorize(6) == [(2, 1), (3, 1)]
    assert factorize(1) == []
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    with pytest.raises(ValueError):
        factorize(0)


def test_k_factor():
    assert k_factor(2, 2, 2) == 6
    assert k_factor(2, 2, 3) == 196
    assert k_factor(5, 7, 1) == 1
    assert isinstance(k_factor(2, 2, 3), int)


def test_tight_weight_bound():
    assert make_bound_report(1, 2, 4).tight_bound == 12
    assert make_bound_report(1, 2, 6).tight_bound == 3
    assert make_bound_report(2, 2, 2).tight_bound == 2
    assert make_bound_report(1, 2, 8).tight_bound == 588


def test_loose_weight_bound_exact_powers_of_two():
    assert loose_weight_bound(1, 2, 4) == 256
    assert loose_weight_bound(1, 2, 8) == 32768
    assert loose_weight_bound(2, 2, 2) == 16
    # |A| power of two keeps the arithmetic exact even for odd mu
    assert loose_weight_bound(1, 3, 4) == 576


def test_loose_weight_bound_irrational_exponent():
    # ceil(6**(2 + log2 6)) evaluated at 256-bit precision
    assert loose_weight_bound(1, 2, 6) == 3697
    assert loose_weight_bound(2, 2, 6) == 7394


# s in {1, 2, 3, 7}, mu in 1..5 and every |A| <= 30 that is not a power of
# two: 500 values, pinned (SHA-256 of their repr) as a 256-bit mpmath
# evaluation gave them.  They reach 1.0e13, past the float path's reach,
# so the decimal path serves the largest.
_GRID = [(s, mu, c) for s in (1, 2, 3, 7) for mu in range(1, 6) for c in range(3, 31) if c & (c - 1)]
_GRID_SHA256 = "4293cf681473cba88cc804d0c0249e7222452729280289e74434727672582531"


def test_loose_weight_bound_grid():
    values = [loose_weight_bound(*point) for point in _GRID]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == _GRID_SHA256
    assert max(values) == 10001405342940
    # the decimal path alone, from a precision low enough to need doubling
    assert [_decimal_ceiling(*point, digits=5) for point in _GRID] == values


def test_loose_weight_bound_beyond_float_range():
    s = 10**400
    value = loose_weight_bound(s, 2, 6)
    assert 3696 * s < value < 3697 * s
    assert value == _decimal_ceiling(s, 2, 6, digits=1000)


def test_decimal_ceiling_falls_back_to_an_upper_bound():
    # 4**(1 + 2 + 1) = 256 is an integer, so no precision separates the
    # interval from it, and the fallback returns the interval's upper ceiling
    assert _decimal_ceiling(1, 2, 4, digits=1) == 257
    assert _decimal_ceiling(1, 2, 4, digits=1) == loose_weight_bound(1, 2, 4) + 1


def test_make_bound_report_examples():
    report = make_bound_report(1, 2, 4, n=3)
    assert report.effective_bound == 3
    assert report.tight_bound == 12
    assert report.loose_bound == 256
    assert report.e == 257
    assert report.factorization == ((2, 2),)
    assert report.k_list == (6,)

    assert make_bound_report(1, 2, 2, n=10).effective_bound == 1
    assert make_bound_report(1, 2, 4, n=100).effective_bound == 12
    assert make_bound_report(1, 2, 4).effective_bound == 12
    assert make_bound_report(1, 2, 4, n=0).effective_bound == 0
    with pytest.raises(ValueError, match="n must be >= 0"):
        make_bound_report(1, 2, 4, n=-1)


def test_bound_report_invariants_sweep():
    for card in range(2, 65):
        for mu in range(1, 5):
            report = make_bound_report(1, mu, card)
            assert report.tight_bound <= report.loose_bound
            total = 1
            for p, a in report.factorization:
                total *= p**a
            assert total == card
            assert isinstance(report.tight_bound, int)
            assert isinstance(report.loose_bound, int)


def test_cardinality_one():
    report = make_bound_report(1, 2, 1)
    assert report.tight_bound == 0
    assert report.factorization == ()


def test_bound_report_checks_mu_before_factorizing():
    # an algebra with no operations may have any size: factorizing
    # 2**61 - 1 by trial division would not finish
    with pytest.raises(ValueError, match=r"^mu \(the largest operation arity\) must be >= 1, got 0$"):
        make_bound_report(1, 0, 2**61 - 1)
