import itertools

import numpy as np
import pytest

from supersolve.algebra import (
    AlgebraError,
    FiniteAlgebra,
    OperationTable,
    apply_op,
    digits,
    direct_product,
    load_algebra,
    max_arity,
    render_algebra,
    table_index,
)
from supersolve.groups import cyclic_group

Z4_FILE = """
{
  "name": "Z4",
  "size": 4,
  "operations": [
    {"name": "add",  "arity": 2, "table": [0,1,2,3, 1,2,3,0, 2,3,0,1, 3,0,1,2]},
    {"name": "neg",  "arity": 1, "table": [0,3,2,1]},
    {"name": "zero", "arity": 0, "table": [0]}
  ]
}
"""


def test_load_documented_z4_file():
    alg = load_algebra(Z4_FILE)
    assert alg.name == "Z4"
    assert alg.size == 4
    assert [op.name for op in alg.operations] == ["add", "neg", "zero"]
    assert alg == cyclic_group(4)


def test_load_rejects_out_of_range_entry():
    text = Z4_FILE.replace('"table": [0,3,2,1]', '"table": [0,3,2,7]')
    with pytest.raises(AlgebraError, match="out of range"):
        load_algebra(text)


def test_load_rejects_wrong_table_length():
    text = Z4_FILE.replace("3,0,1,2]},", "3,0,1]},")
    with pytest.raises(AlgebraError, match="table length"):
        load_algebra(text)


def test_load_rejects_bad_json_and_missing_fields():
    with pytest.raises(AlgebraError, match="invalid JSON"):
        load_algebra("{nope")
    with pytest.raises(AlgebraError, match="missing field"):
        load_algebra('{"name": "x", "size": 2}')


def test_duplicate_operation_name_rejected():
    ops = (
        OperationTable("f", 1, (0, 1)),
        OperationTable("f", 1, (1, 0)),
    )
    with pytest.raises(AlgebraError, match="duplicate"):
        FiniteAlgebra("bad", 2, ops)


def test_apply_op_examples(z4):
    assert apply_op(z4, "add", [1, 3]) == 0
    assert apply_op(z4, "neg", [2]) == 2
    assert apply_op(z4, "zero", []) == 0


def test_apply_op_errors(z4):
    with pytest.raises(AlgebraError, match="unknown operation"):
        apply_op(z4, "mul", [1, 2])
    with pytest.raises(AlgebraError, match="arity"):
        apply_op(z4, "add", [1])
    with pytest.raises(AlgebraError, match="out of range"):
        apply_op(z4, "add", [1, 7])


def test_max_arity(z4):
    assert max_arity(z4) == 2
    ternary = FiniteAlgebra("t", 2, (OperationTable("maj", 3, (0,) * 8),))
    assert max_arity(ternary) == 3
    assert max_arity(FiniteAlgebra("empty", 3, ())) == 0


def test_direct_product_encoding(z2, z3):
    k4 = direct_product(z2, z2)
    assert k4.size == 4
    # (0,1) + (1,1) = (1,0)
    assert apply_op(k4, "add", [1, 3]) == 2
    z6 = direct_product(z2, z3)
    assert z6.size == 6
    # (1,2) + (1,2) = (0,1), encoded 0*3 + 1
    assert apply_op(z6, "add", [5, 5]) == 1


def test_direct_product_signature_mismatch(z2, lattice):
    with pytest.raises(AlgebraError, match="signature mismatch"):
        direct_product(z2, lattice)


def test_direct_product_projections_recover_factors(z2, z3, z4, z6):
    for left_alg, right_alg in [(z2, z3), (z4, z6), (z6, z2)]:
        prod = direct_product(left_alg, right_alg)
        for op in prod.operations:
            r = op.arity
            for args in itertools.product(range(prod.size), repeat=r):
                value = apply_op(prod, op.name, args)
                left = apply_op(left_alg, op.name, [a // right_alg.size for a in args])
                right = apply_op(right_alg, op.name, [a % right_alg.size for a in args])
                assert value == left * right_alg.size + right


def test_apply_op_total_and_in_range(group_fixtures):
    for alg in group_fixtures:
        for op in alg.operations:
            for args in itertools.product(range(alg.size), repeat=op.arity):
                assert 0 <= apply_op(alg, op.name, args) < alg.size


def test_render_round_trip(group_fixtures, lattice):
    for alg in group_fixtures + [lattice]:
        assert load_algebra(render_algebra(alg)) == alg


def test_table_index_and_digits_match_product():
    for base in range(1, 5):
        for width in range(4):
            rows = list(itertools.product(range(base), repeat=width))
            for args_rank, args in enumerate(rows):
                # the layout formula of the README: sum(a_i * size**(r-i))
                formula = sum(a * base ** (width - 1 - i) for i, a in enumerate(args))
                assert table_index(args, base) == formula == args_rank
            for start in range(len(rows) + 1):
                for stop in range(start, len(rows) + 1):
                    block = digits(start, stop, base, width, np.uint8)
                    assert block.shape == (stop - start, width)
                    assert block.dtype == np.uint8 and block.flags.f_contiguous
                    assert [tuple(r) for r in block.tolist()] == rows[start:stop]
            columns = list(digits(0, len(rows), base, width, np.uint8).T)
            flat = table_index(columns, base)
            if width:
                # unsigned columns: the narrowest type that holds the last index
                assert flat.dtype == np.min_scalar_type(base**width - 1)
                assert flat.tolist() == list(range(len(rows)))
                # signed columns keep np.intp
                signed = table_index([c.astype(np.int64) for c in columns], base)
                assert signed.dtype == np.intp
                assert signed.tolist() == list(range(len(rows)))
                # a leading int widens the index to the full argument count
                lead = table_index([base - 1, *columns], base)
                assert lead.dtype == np.min_scalar_type(base ** (width + 1) - 1)
                assert lead.tolist() == list(range((base - 1) * len(rows), base * len(rows)))
            else:
                assert flat == 0
    # a signed numpy scalar keeps np.intp too
    mixed = table_index((np.array([1, 2], np.uint8), np.int64(1)), 4)
    assert mixed.dtype == np.intp and mixed.tolist() == [5, 9]
    # an index type as wide as np.intp is np.intp itself
    assert table_index([np.zeros(1, np.uint8)] * 5, 256).dtype == np.intp
    # the leading place values 2**69 .. 2**63 do not fit in int64
    rows = list(itertools.islice(itertools.product(range(2), repeat=70), 1000))
    for start in (0, 500):
        block = digits(start, 1000, 2, 70, np.uint8)
        assert [tuple(r) for r in block.tolist()] == rows[start:]


def test_table_index_widens_narrow_arrays():
    top = np.array([255, 0], dtype=np.uint8)
    assert table_index((top, top), 256).tolist() == [65535, 0]
    # an int before the first array: the array is still widened, not wrapped
    assert table_index((255, top), 256).tolist() == [65535, 65280]
    assert table_index((1, 2, top), 256).tolist() == [66303, 66048]
    # arguments are read, never accumulated into
    first = np.array([1, 2], dtype=np.intp)
    table_index((first, first), 3)
    assert first.tolist() == [1, 2]
