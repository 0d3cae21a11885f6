import itertools
import random

import pytest

from supersolve.absorbing import TabulatedFunction, restrict_vector
from supersolve.witness import (
    HypothesisViolation,
    SubsetFunction,
    ks_find_u,
    redweight_find_u,
)


def masks_upto(n, k):
    out = []
    for size in range(min(k, n) + 1):
        for idxs in itertools.combinations(range(n), size):
            out.append(sum(1 << i for i in idxs))
    return out


def make_phi(n, k, p, values_by_mask):
    return SubsetFunction(n=n, k=k, p=p, m=1, values={m: (v,) for m, v in values_by_mask.items()})


def test_ks_example_hand_enumerated():
    phi = make_phi(3, 1, 2, {0: 1, 0b001: 1, 0b010: 0, 0b100: 0})
    assert ks_find_u(phi) == 0b001


def test_ks_zero_function():
    phi = make_phi(3, 1, 2, {m: 0 for m in masks_upto(3, 1)})
    assert ks_find_u(phi) == 0


def test_ks_k_zero():
    phi = make_phi(3, 0, 2, {0: 1})
    assert ks_find_u(phi) == 0


def test_subset_function_validation():
    with pytest.raises(ValueError, match="not prime"):
        make_phi(2, 1, 4, {0: 1, 1: 0, 2: 0})
    with pytest.raises(ValueError, match="cover exactly"):
        make_phi(2, 1, 2, {0: 1, 1: 0})
    with pytest.raises(ValueError, match="vector"):
        SubsetFunction(n=1, k=0, p=2, m=2, values={0: (1,)})
    # the right number of keys, but one of them is not a subset of size <= k
    with pytest.raises(ValueError, match="cover exactly"):
        make_phi(2, 1, 2, {0: 1, 1: 0, 0b11: 0})
    with pytest.raises(ValueError, match="cover exactly"):
        make_phi(2, 1, 2, {0: 1, 1: 0, 0b100: 0})
    with pytest.raises(ValueError, match="cover exactly"):
        make_phi(2, 1, 2, {0: 1, 1: 0, -2: 0})
    # the count stops once it passes the keys: C(20000, i) need not be summed
    with pytest.raises(ValueError, match="^values must cover exactly the subsets of size <= "
                       "20000, more than the 1 given$"):
        make_phi(20000, 20000, 2, {0: 1})
    with pytest.raises(ValueError, match="^values must cover exactly the 3 subsets of size <= 1$"):
        make_phi(2, 1, 2, {0: 1, 1: 0})
    # a mask is checked by its bit length, never against a 1 << n-sized range
    assert SubsetFunction(10**12, 0, 2, 1, {0: (0,)}).values == {0: (0,)}


def _ks_sum(phi, u):
    total = [0] * phi.m
    for mask, vec in phi.values.items():
        if mask & ~u == 0:
            total = [(x + y) % phi.p for x, y in zip(total, vec)]
    return tuple(total)


def _first_valid_mask_reference(n, is_valid):
    """Independent canonical-order scan: size ascending, mask ascending."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    for mask in masks:
        if is_valid(mask):
            return mask
    return None


def test_ks_exhaustive_small_and_posthoc_equality():
    for n in (1, 2, 3):
        for k in (0, 1, 2):
            masks = masks_upto(n, k)
            for values in itertools.product(range(2), repeat=len(masks)):
                phi = make_phi(n, k, 2, dict(zip(masks, values)))
                u = ks_find_u(phi)
                assert u.bit_count() <= min(n, k * (2 - 1))
                full = (1 << n) - 1
                assert _ks_sum(phi, u) == _ks_sum(phi, full)
                # the reported witness is the canonical-order first one
                total = _ks_sum(phi, full)
                first = _first_valid_mask_reference(
                    n, lambda m: _ks_sum(phi, m) == total
                )
                assert u == first


def _multilinear(n, coeff_by_mask, p=2):
    """f(a) = sum of coeff[I] over I contained in the 1-support of a."""
    table = []
    for point in itertools.product(range(2), repeat=n):
        ones = sum(1 << i for i, v in enumerate(point) if v == 1)
        total = sum(v for m, v in coeff_by_mask.items() if m & ~ones == 0)
        table.append(total % p)
    return TabulatedFunction(2, n, p, tuple(table))


def test_redweight_examples():
    f1 = _multilinear(3, {0b001: 1, 0b010: 1, 0b100: 1})  # x1 + x2 + x3
    assert redweight_find_u([f1], 1, (1, 1, 1)) == 0b001
    assert redweight_find_u([f1], 1, (1, 1, 0)) == 0
    assert redweight_find_u([], 1, (1, 1)) == 0


def test_redweight_hypothesis_violation():
    f_and = _multilinear(2, {0b11: 1})
    with pytest.raises(HypothesisViolation, match="absorbing degree"):
        redweight_find_u([f_and], 1, (1, 1))


def test_redweight_input_validation():
    f1 = _multilinear(2, {0b01: 1})
    f2 = _multilinear(3, {0b001: 1})
    with pytest.raises(ValueError, match="share"):
        redweight_find_u([f1, f2], 1, (1, 1))
    with pytest.raises(ValueError, match="length"):
        redweight_find_u([f1], 1, (1, 1, 1))


def test_redweight_random_constructed_tuples():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.randint(1, 4)
        k = rng.randint(0, 2)
        m = rng.randint(1, 2)
        fs = []
        for _ in range(m):
            coeffs = {
                mask: rng.randrange(2)
                for mask in masks_upto(n, k)
            }
            fs.append(_multilinear(n, coeffs))
        a = tuple(rng.randrange(2) for _ in range(n))
        u = redweight_find_u(fs, k, a)
        assert u.bit_count() <= min(n, k * m * (2 - 1))
        restricted = restrict_vector(a, u)
        for f in fs:
            assert f(restricted) == f(a)
        first = _first_valid_mask_reference(
            n,
            lambda mask: all(f(restrict_vector(a, mask)) == f(a) for f in fs),
        )
        assert u == first


def test_ks_is_redweight_on_the_boolean_tabulation():
    # f_i(a) = sum of phi_i(S) over S inside the support of a has absorbing
    # degree <= k, and f_i(1..1 restricted to U) is phi_i's sum over U's
    # subsets, so both searches must return the same first U
    rng = random.Random(2024)
    for _ in range(400):
        n, k, p, m = rng.randint(1, 6), rng.randint(0, 2), rng.choice([2, 3]), rng.randint(1, 2)
        values = {mask: tuple(rng.randrange(p) for _ in range(m)) for mask in masks_upto(n, k)}
        fs = [_multilinear(n, {mask: vec[i] for mask, vec in values.items()}, p) for i in range(m)]
        assert ks_find_u(SubsetFunction(n, k, p, m, values)) == redweight_find_u(fs, k, (1,) * n)
