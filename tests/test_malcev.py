import hashlib
import itertools
import json

import numpy as np
import pytest

from supersolve.algebra import FiniteAlgebra, OperationTable, apply_op
from supersolve.groups import cyclic_group, dihedral_group, two_element_lattice
from supersolve.malcev import (
    MalcevNotFound,
    TernaryFunctionTable,
    _arg_tuples,
    find_malcev,
    is_malcev,
    ternary_term_clone,
)
from supersolve.terms import App, Const, Var, eval_term, format_term


def _table(size, func):
    return tuple(
        func(x, y, z)
        for x in range(size)
        for y in range(size)
        for z in range(size)
    )


def test_is_malcev_examples():
    minority = TernaryFunctionTable(2, _table(2, lambda x, y, z: (x + y + z) % 2), Var(1))
    assert is_malcev(minority)
    proj1 = TernaryFunctionTable(2, _table(2, lambda x, y, z: x), Var(1))
    assert not is_malcev(proj1)
    xyz4 = TernaryFunctionTable(4, _table(4, lambda x, y, z: (x - y + z) % 4), Var(1))
    assert is_malcev(xyz4)


def test_z2_clone_matches_affine_oracle(z2):
    tables, complete = ternary_term_clone(z2)
    assert complete
    assert len(tables) == 8
    oracle = {
        _table(2, lambda x, y, z, a=a, b=b, c=c: (a * x + b * y + c * z) % 2)
        for a, b, c in itertools.product(range(2), repeat=3)
    }
    assert {t.table for t in tables} == oracle


def test_z2_polynomial_clone_adds_constants(z2):
    tables, complete = ternary_term_clone(z2, include_constants=True)
    assert complete
    oracle = {
        _table(2, lambda x, y, z, a=a, b=b, c=c, d=d: (d + a * x + b * y + c * z) % 2)
        for a, b, c, d in itertools.product(range(2), repeat=4)
    }
    assert {t.table for t in tables} == oracle


def test_z4_clone_contains_x_minus_y_plus_z(z4):
    tables, complete = ternary_term_clone(z4)
    assert complete
    assert _table(4, lambda x, y, z: (x - y + z) % 4) in {t.table for t in tables}


def test_witnesses_induce_their_tables(z4, lattice):
    for alg in (z4, lattice):
        tables, _ = ternary_term_clone(alg)
        for t in tables:
            for x in range(alg.size):
                for y in range(alg.size):
                    for z in range(alg.size):
                        assert eval_term(alg, t.witness, (x, y, z)) == t(x, y, z)


def test_find_malcev_groups(group_fixtures):
    for alg in group_fixtures:
        result = find_malcev(alg)
        assert isinstance(result, TernaryFunctionTable), alg.name
        assert is_malcev(result), alg.name
        # the witness term really induces the returned table
        for x in range(alg.size):
            for y in range(alg.size):
                for z in range(alg.size):
                    assert eval_term(alg, result.witness, (x, y, z)) == result(x, y, z)


def test_find_malcev_z4_is_x_minus_y_plus_z(z4):
    result = find_malcev(z4)
    assert result.table == _table(4, lambda x, y, z: (x - y + z) % 4)


def test_find_malcev_z2_is_minority(z2):
    result = find_malcev(z2)
    assert result.table == _table(2, lambda x, y, z: (x + y + z) % 2)


def test_lattice_has_no_malcev_term(lattice):
    result = find_malcev(lattice)
    assert result == MalcevNotFound(complete=True, tables_explored=18)
    tables, complete = ternary_term_clone(lattice)
    assert complete
    assert not any(is_malcev(t) for t in tables)


def test_cap_truncation(z4):
    tables, complete = ternary_term_clone(z4, cap=5)
    assert not complete
    assert len(tables) >= 3
    result = find_malcev(z4, cap=3)
    assert result == MalcevNotFound(complete=False, tables_explored=3)
    with pytest.raises(ValueError):
        ternary_term_clone(z4, cap=2)


def _clone_digest(alg, include_constants, cap=10**6):
    """(table count, complete, SHA-256 over every (table, witness) in order)."""
    tables, complete = ternary_term_clone(alg, include_constants=include_constants, cap=cap)
    doc = json.dumps([[list(t.table), format_term(t.witness)] for t in tables], separators=(",", ":"))
    return len(tables), complete, hashlib.sha256(doc.encode()).hexdigest()


# captured from the tuple-at-a-time closure: the BFS order, the witness
# terms and the cap cut-off must not move
_CLONE_DIGESTS = [
    ("Z4", False, 10**6, 64, True, "84b297bdf84d372310195d8ca60befcbb7d9a0924609d6d1ff884824876ca333"),
    ("Z4", True, 10**6, 256, True, "dcaa9af9dd660c517a3f233bc52e0e5c65fc191fbaa61dc0bdb2c2204bb25777"),
    ("Z6", False, 10**6, 216, True, "faa7cf25eccaf08ffa7db3e2ad3570027493cdc8f68d6e62d3c5bf4a288c1db8"),
    ("Z6", True, 10**6, 1296, True, "ff251a92d0cffdae06ad79d039acd7257c7760dd63b86a177a848106240c44a5"),
    ("Z4", True, 50, 50, False, "52a86e7fa1a7301b75a218b20a1f1ab2602266dd65b58c96a9b1c70bd554199f"),
    ("Z6", False, 150, 150, False, "ffff97dbc2f733447a58e85a7e05f858c2e4016a91aee954e224ef872af54f81"),
    ("D3", True, 150, 150, False, "88ee78713fe263ba28b63b1d32e6be34aa5db42100da9fba5fb394e35844d6e1"),
    ("lattice2", True, 3, 5, False, "ed9f8b084461f4c5cc677730dca10c349b72d78d3876b579dbac3de5e351827d"),
]

_ALGEBRAS = {
    "Z4": lambda: cyclic_group(4),
    "Z6": lambda: cyclic_group(6),
    "D3": lambda: dihedral_group(3),
    "lattice2": two_element_lattice,
}


@pytest.mark.parametrize("name, constants, cap, count, complete, sha", _CLONE_DIGESTS)
def test_clone_golden_digest(name, constants, cap, count, complete, sha):
    assert _clone_digest(_ALGEBRAS[name](), constants, cap) == (count, complete, sha)


@pytest.mark.parametrize("name, constants, cap, expected", [
    ("Z4", False, 5, MalcevNotFound(complete=False, tables_explored=5)),
    # the constants join layer 0 before the cap is first checked
    ("Z4", True, 3, MalcevNotFound(complete=False, tables_explored=7)),
    ("Z4", True, 50, MalcevNotFound(complete=False, tables_explored=50)),
    ("Z4", True, 150, "add(add(x1, x3), neg(x2))"),
    ("Z6", True, 5, MalcevNotFound(complete=False, tables_explored=9)),
    ("Z6", False, 50, "add(add(x1, x3), neg(x2))"),
    ("D3", False, 150, MalcevNotFound(complete=False, tables_explored=150)),
    ("D3", True, 50, MalcevNotFound(complete=False, tables_explored=50)),
    ("lattice2", True, 3, MalcevNotFound(complete=False, tables_explored=5)),
    ("lattice2", False, 50, MalcevNotFound(complete=True, tables_explored=18)),
])
def test_find_malcev_capped(name, constants, cap, expected):
    result = find_malcev(_ALGEBRAS[name](), include_constants=constants, cap=cap)
    if isinstance(expected, str):
        assert is_malcev(result)
        assert format_term(result.witness) == expected
    else:
        assert result == expected


def _reference_closure(alg, include_constants, cap, stop_at_malcev):
    """The closure one argument tuple at a time, over itertools.product:
    (tables, witnesses, complete, index of the first Mal'cev table)."""
    points = list(itertools.product(range(alg.size), repeat=3))
    tables, witnesses, found = [], [], []

    def add(table, witness):
        if table in tables:
            return False
        tables.append(table)
        witnesses.append(witness)
        if stop_at_malcev and not found and is_malcev(TernaryFunctionTable(alg.size, table, witness)):
            found.append(len(tables) - 1)
        return True

    def done():
        return bool(stop_at_malcev and found) or len(tables) >= cap

    def result(complete):
        return tables, witnesses, complete, found[0] if found else None

    for i in range(3):
        add(tuple(p[i] for p in points), Var(i + 1))
    if include_constants:
        for c in range(alg.size):
            add((c,) * len(points), Const(c))
    lo = 0
    while True:
        if done():
            return result(False)
        snapshot, grew = len(tables), False
        for op in alg.operations:
            if op.arity == 0 and lo > 0:
                continue
            for combo in itertools.product(range(snapshot), repeat=op.arity):
                if op.arity and max(combo) < lo:
                    continue
                table = tuple(
                    apply_op(alg, op.name, [tables[i][p] for i in combo]) for p in range(len(points))
                )
                if add(table, App(op.name, tuple(witnesses[i] for i in combo))):
                    grew = True
                    if done():
                        return result(False)
        if not grew:
            return result(True)
        lo = snapshot


def _higher_arity_algebras():
    def algebra(name, size, *ops):
        return FiniteAlgebra(name, size, tuple(
            OperationTable(op, arity, tuple(f(*a) for a in itertools.product(range(size), repeat=arity)))
            for op, arity, f in ops
        ))

    return [
        # capped at every cap, with a nullary operation
        algebra("mul3", 3, ("f", 3, lambda x, y, z: (x * y + z) % 3), ("one", 0, lambda: 1)),
        # complete at 27 tables; x - y + z is the 24th
        algebra("sum3", 3, ("f", 3, lambda x, y, z: (x + y + z) % 3)),
        # a Mal'cev table is the 45th
        algebra("maj4", 2, ("q", 4, lambda w, x, y, z: int(w + x + y + z >= 2) ^ (w & z))),
        algebra("mixed2", 2, ("neg", 1, lambda x: 1 - x), ("q", 4, lambda w, x, y, z: (w & x) ^ (y | z))),
    ]


@pytest.mark.parametrize("alg", _higher_arity_algebras(), ids=lambda a: a.name)
@pytest.mark.parametrize("constants", [False, True])
@pytest.mark.parametrize("cap", [3, 5, 50])
def test_closure_matches_reference_at_higher_arity(alg, constants, cap):
    tables, witnesses, complete, first = _reference_closure(alg, constants, cap, False)
    got, got_complete = ternary_term_clone(alg, include_constants=constants, cap=cap)
    assert [(t.table, format_term(t.witness)) for t in got] == [
        (t, format_term(w)) for t, w in zip(tables, witnesses)
    ]
    assert got_complete == complete
    tables, witnesses, complete, first = _reference_closure(alg, constants, cap, True)
    result = find_malcev(alg, include_constants=constants, cap=cap)
    if first is None:
        assert result == MalcevNotFound(complete=complete, tables_explored=len(tables))
    else:
        assert (result.table, format_term(result.witness)) == (tables[first], format_term(witnesses[first]))


@pytest.mark.parametrize("snapshot, arity, lo, rows", [
    (7, 3, 0, 10), (7, 3, 4, 1), (7, 3, 6, 64), (5, 4, 3, 17), (6, 1, 2, 4), (3, 2, 0, 1000),
])
def test_arg_tuples_are_the_filtered_product(snapshot, arity, lo, rows):
    batches = list(_arg_tuples(snapshot, arity, lo, rows))
    assert all(b.dtype == np.intp and 0 < len(b) <= rows for b in batches)
    expected = [c for c in itertools.product(range(snapshot), repeat=arity) if max(c) >= lo]
    assert [tuple(c) for b in batches for c in b.tolist()] == expected


def _lazy_product(n, r):
    """itertools.product(range(n), repeat=r), without building range(n)."""
    if r == 0:
        yield ()
        return
    for head in range(n):
        for tail in _lazy_product(n, r - 1):
            yield (head, *tail)


@pytest.mark.parametrize("arity, lo, rows", [(3, 2, 1000), (3, 1000, 4096), (4, 5, 999)])
def test_arg_tuples_past_int64_ranks(arity, lo, rows):
    # snapshot**arity passes 2**63: the leading one or two indices run in Python
    snapshot = 2**22
    assert snapshot**arity > 2**63
    batches = list(itertools.islice(_arg_tuples(snapshot, arity, lo, rows), 3))
    got = [tuple(c) for b in batches for c in b.tolist()]
    expected = (c for c in _lazy_product(snapshot, arity) if max(c) >= lo)
    assert len(batches) == 3 and got == list(itertools.islice(expected, len(got)))
