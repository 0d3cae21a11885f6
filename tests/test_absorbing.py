import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersolve.absorbing import (
    TableBudgetError,
    TabulatedFunction,
    absorbing_degree,
    decompose,
    mask_indices,
    restrict_vector,
)
from supersolve.algebra import table_index

from oracles import component_moebius, is_absorbing_in

AND = TabulatedFunction(2, 2, 2, (0, 0, 0, 1))
XOR = TabulatedFunction(2, 2, 2, (0, 1, 1, 0))
ZERO3 = TabulatedFunction(2, 3, 2, (0,) * 8)


def all_points(size, n):
    return list(itertools.product(range(size), repeat=n))


def test_restrict_vector():
    assert restrict_vector((1, 2, 3), 0b101) == (1, 0, 3)
    assert restrict_vector((1, 2, 3), 0) == (0, 0, 0)
    assert restrict_vector((1, 2, 3), 0b111) == (1, 2, 3)


def test_mask_helpers():
    assert mask_indices(0b101) == [1, 3]


def test_component_examples():
    components = decompose(AND).components
    assert components[0].table == (0, 0, 0, 0)  # f(0,0) = 0
    assert components[0b01].table == (0, 0, 0, 0)  # f(a1, 0) - f(0,0) = 0
    assert components[0b11].table == AND.table  # all smaller components vanish


def test_component_moebius_examples():
    assert component_moebius(AND, 0b11, (1, 1)) == 1
    for a in all_points(2, 2):
        assert component_moebius(XOR, 0b11, a) == 0
    assert component_moebius(AND, 0, (1, 1)) == AND((0, 0))


def test_absorbing_degree_examples():
    assert absorbing_degree(ZERO3) == -1
    assert absorbing_degree(XOR) == 1
    assert absorbing_degree(AND) == 2


def test_is_absorbing_in_examples():
    assert is_absorbing_in(AND, 0b11)
    assert not is_absorbing_in(AND, 0b01)  # depends on coordinate 2
    const0 = TabulatedFunction(2, 2, 2, (0, 0, 0, 0))
    assert is_absorbing_in(const0, 0)
    const1 = TabulatedFunction(2, 2, 2, (1, 1, 1, 1))
    assert is_absorbing_in(const1, 0)
    assert not is_absorbing_in(const1, 0b01)  # does not vanish at a1 = 0


def test_mask_beyond_arity_rejected():
    with pytest.raises(ValueError, match="beyond arity"):
        component_moebius(AND, 0b1000, (1, 1))
    with pytest.raises(ValueError, match="beyond arity"):
        is_absorbing_in(AND, -1)


def _check_decomposition(f):
    dec = decompose(f)
    points = all_points(f.domain_size, f.arity)
    for mask, comp in dec.components.items():
        assert is_absorbing_in(comp, mask), (f.table, mask)
    for idx, a in enumerate(points):
        total = sum(comp.table[idx] for comp in dec.components.values()) % f.prime
        assert total == f.table[idx]
    # spot-check Moebius agreement on every component at a few points
    rng = random.Random(hash(f.table) & 0xFFFF)
    sample = rng.sample(points, min(4, len(points)))
    for mask, comp in dec.components.items():
        for a in sample:
            idx = 0
            for v in a:
                idx = idx * f.domain_size + v
            assert component_moebius(f, mask, a) == comp.table[idx]


def test_reconstruction_exhaustive_two_element_domain():
    for n in range(0, 4):
        for table in itertools.product(range(2), repeat=2**n):
            _check_decomposition(TabulatedFunction(2, n, 2, table))


def test_reconstruction_random_larger_domains():
    rng = random.Random(42)
    for size, n, p, reps in [
        (3, 2, 2, 25), (3, 3, 3, 25), (2, 4, 2, 25), (3, 4, 2, 25), (3, 3, 5, 25),
        (3, 5, 2, 3), (2, 6, 3, 3),
    ]:
        for _ in range(reps):
            table = tuple(rng.randrange(p) for _ in range(size**n))
            _check_decomposition(TabulatedFunction(size, n, p, table))


def test_uniqueness_perturbation_breaks_an_invariant():
    # Adding a nonzero I-respecting bump to one component keeps every
    # component absorbing but breaks the reconstruction sum, so no second
    # all-absorbing family can sum to f.
    f = TabulatedFunction(2, 2, 2, (0, 1, 1, 1))  # OR
    dec = decompose(f)
    target = 0b01
    bumped = {}
    points = all_points(2, 2)
    for mask, comp in dec.components.items():
        if mask != target:
            bumped[mask] = comp
            continue
        table = list(comp.table)
        for idx, a in enumerate(points):
            if a[0] != 0:  # bump the whole fiber over coordinate 1
                table[idx] = (table[idx] + 1) % 2
        bumped[mask] = TabulatedFunction(2, 2, 2, tuple(table))
    for mask, comp in bumped.items():
        assert is_absorbing_in(comp, mask)
    sums = [
        sum(comp.table[idx] for comp in bumped.values()) % 2
        for idx in range(len(f.table))
    ]
    assert tuple(sums) != f.table


def test_budget_refused():
    f = TabulatedFunction(2, 4, 2, (0,) * 16)
    with pytest.raises(TableBudgetError):
        decompose(f, max_points=8)
    with pytest.raises(TableBudgetError):
        absorbing_degree(f, max_points=8)


def test_budget_counts_every_component():
    # 2**4 components of 16 points: 256 points, refused below that
    f = TabulatedFunction(2, 4, 2, (0,) * 16)
    decompose(f, max_points=256)
    with pytest.raises(TableBudgetError):
        decompose(f, max_points=255)
    # a one-element domain has one point but still 2**n components
    decompose(TabulatedFunction(1, 10, 2, (1,)))
    with pytest.raises(TableBudgetError, match=r"^2\*\*11 components"):
        decompose(TabulatedFunction(1, 11, 2, (1,)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_absorbing_degree_matches_decomposition(data):
    size, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6))
    p = data.draw(st.sampled_from([2, 3, 5]))
    zero = data.draw(st.booleans())
    # f(a) = g(a restricted to kept): f depends only on the kept coordinates,
    # so every degree from -1 to n comes up
    kept = data.draw(st.integers(0, (1 << n) - 1))
    g = [0] * size**n if zero else data.draw(
        st.lists(st.integers(0, p - 1), min_size=size**n, max_size=size**n)
    )
    table = tuple(
        g[table_index(restrict_vector(a, kept), size)]
        for a in itertools.product(range(size), repeat=n)
    )
    f = TabulatedFunction(size, n, p, table)
    assert absorbing_degree(f) == decompose(f).degree()
    if zero:
        assert absorbing_degree(f) == -1


def test_decomposition_with_a_prime_beyond_int64():
    # the transform's values exceed int64 here, so they are Python ints
    p = 2**64 - 59
    rng = random.Random(7)
    for size, n in [(2, 3), (3, 2), (1, 5)]:
        f = TabulatedFunction(size, n, p, tuple(rng.randrange(p) for _ in range(size**n)))
        _check_decomposition(f)
        assert absorbing_degree(f) == decompose(f).degree()


def test_decomposition_golden_dump():
    dump = decompose(AND).to_json_dict()
    assert dump == {
        "domain_size": 2,
        "arity": 2,
        "prime": 2,
        "absorbing_degree": 2,
        "components": {
            "0": [0, 0, 0, 0],
            "1": [0, 0, 0, 0],
            "2": [0, 0, 0, 0],
            "3": [0, 0, 0, 1],
        },
    }


def test_validation():
    with pytest.raises(ValueError, match="not prime"):
        TabulatedFunction(2, 1, 4, (0, 0))
    with pytest.raises(ValueError, match="table length"):
        TabulatedFunction(2, 2, 2, (0, 0, 0))
    with pytest.raises(ValueError, match="not in"):
        TabulatedFunction(2, 1, 2, (0, 3))
    # the first bad entry is named, whichever bound it breaks
    with pytest.raises(ValueError, match=r"^table\[1\] value 5 not in \[0, 3\)$"):
        TabulatedFunction(2, 2, 3, (0, 5, -1, 7))
    with pytest.raises(ValueError, match=r"^table\[2\] value -1 not in \[0, 3\)$"):
        TabulatedFunction(2, 2, 3, (0, 2, -1, 7))
    with pytest.raises(ValueError, match=r"^table\[0\] value 2 not in \[0, 2\)$"):
        TabulatedFunction(1, 0, 2, (2,))


def test_abelian_polynomials_have_degree_at_most_one(z4):
    # small version of the acceptance sweep: affine maps over Z4 composed
    # with the parity homomorphism have no components above singletons
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 3)
        c = rng.randrange(4)
        coeffs = [rng.randrange(4) for _ in range(n)]
        table = tuple(
            (c + sum(m * a for m, a in zip(coeffs, point))) % 4 % 2
            for point in all_points(4, n)
        )
        f = TabulatedFunction(4, n, 2, table)
        assert absorbing_degree(f) <= 1


def _absorbing_by_definition(f, mask):
    for a in all_points(f.domain_size, f.arity):
        if f(a) != f(restrict_vector(a, mask)):
            return False  # depends on a coordinate outside the mask
        if f(a) and any(a[j] == 0 for j in range(f.arity) if mask >> j & 1):
            return False  # does not vanish at a masked 0
    return True


def test_is_absorbing_in_matches_definition_on_random_functions():
    rng = random.Random(13)
    for _ in range(150):
        size, n, p = rng.randint(1, 3), rng.randint(0, 3), rng.choice([2, 3, 5])
        sparsity = rng.random()
        f = TabulatedFunction(
            size, n, p,
            tuple(rng.randrange(p) if rng.random() < sparsity else 0 for _ in range(size**n)),
        )
        components = decompose(f).components
        for g in [f, *components.values()]:
            for mask in range(1 << n):
                assert is_absorbing_in(g, mask) == _absorbing_by_definition(g, mask), (g, mask)
        assert all(is_absorbing_in(c, mask) for mask, c in components.items())
