"""Argument checks and rarely taken exits, one case each: the library's
guards against out-of-range and non-integer arguments, a solution whose
n-coordinate assignment cannot be built, the closure's cap met right
after a nullary operation, and the human text of `absorb`."""

from enum import IntEnum

import pytest

from supersolve import cli
from supersolve.absorbing import TabulatedFunction
from supersolve.algebra import AlgebraError, FiniteAlgebra, OperationTable, apply_op
from supersolve.bounds import k_factor, loose_weight_bound, make_bound_report
from supersolve.groups import cyclic_group
from supersolve.malcev import MalcevNotFound, find_malcev, ternary_term_clone
from supersolve.solver import solve_bounded, solve_brute
from supersolve.terms import App, Const, EquationSystem, EvalError, Var, check_system, parse_system
from supersolve.witness import SubsetFunction, redweight_find_u

from oracles import enumerate_bounded_weight, normalize_system

_AND = TabulatedFunction(2, 2, 2, (0, 0, 0, 1))


def _solve_z2(text):
    return solve_bounded(cyclic_group(2), parse_system(text))


def _normalize(z):
    z4 = cyclic_group(4)
    return normalize_system(z4, parse_system("x1 = #1"), find_malcev(z4), z)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: FiniteAlgebra("a", 0, ()), AlgebraError, "size must be >= 1, got 0"),
        (
            lambda: FiniteAlgebra("a", 2, (OperationTable("", 0, (0,)),)),
            AlgebraError,
            "operations[0]: empty operation name",
        ),
        (
            lambda: FiniteAlgebra("a", 2, (OperationTable("f", -1, (0,)),)),
            AlgebraError,
            "operations[0] ('f'): arity must be >= 0, got -1",
        ),
        (lambda: TabulatedFunction(0, 1, 2, ()), ValueError, "domain_size must be >= 1, got 0"),
        (lambda: SubsetFunction(0, 0, 2, 1, {}), ValueError, "n must be >= 1, got 0"),
        (lambda: redweight_find_u([_AND], -1, (1, 1)), ValueError, "k must be >= 0, got -1"),
        (lambda: _normalize(4), ValueError, "base element 4 out of range [0, 4)"),
        (lambda: _normalize(-1), ValueError, "base element -1 out of range [0, 4)"),
        (
            lambda: next(enumerate_bounded_weight(2, 1, 3, z=3)),
            ValueError,
            "base element 3 out of range [0, 3)",
        ),
        (
            lambda: next(enumerate_bounded_weight(2, -1, 3)),
            ValueError,
            "weight cap must be >= 0, got -1",
        ),
        (lambda: k_factor(0, 2, 1), ValueError, "mu must be >= 1, got 0"),
        # explicit ids where a message repeats make_bound_report's, whose ids stay
        pytest.param(
            lambda: loose_weight_bound(0, 2, 4), ValueError, "s must be >= 1, got 0",
            id="loose_weight_bound(0, 2, 4)",
        ),
        (lambda: loose_weight_bound(1, 0, 4), ValueError, "mu must be >= 1, got 0"),
        (lambda: loose_weight_bound(1, 2, 0), ValueError, "cardinality must be >= 1, got 0"),
        (lambda: make_bound_report(0, 2, 4), ValueError, "s must be >= 1, got 0"),
        (
            lambda: make_bound_report(1, 0, 4),
            ValueError,
            "mu (the largest operation arity) must be >= 1, got 0",
        ),
        # satisfiable, but the n-coordinate assignment passes an index-sized
        # int, or needs more memory than any address space holds
        (
            lambda: _solve_z2("add(x10000000000000000000, x1) = add(x1, x10000000000000000000)"),
            ValueError,
            "cannot build an assignment of n = 10000000000000000000 variables",
        ),
        (
            lambda: _solve_z2("x1000000000000000 = #1"),
            ValueError,
            "cannot build an assignment of n = 1000000000000000 variables",
        ),
        # non-integers, which the JSON layer rejects too
        (
            lambda: TabulatedFunction(2, 1, 3, (0.5, True)),
            ValueError,
            "table[0] value 0.5 not in [0, 3)",
        ),
        (
            lambda: TabulatedFunction(2, 1, 3, (0, True)),
            ValueError,
            "table[1] value True not in [0, 3)",
        ),
        (
            lambda: SubsetFunction(1, 1, 2, 1, {0: (0.5,), 1: (1,)}),
            ValueError,
            "value at mask 0 is not a vector in Z_2^1",
        ),
        (
            lambda: solve_bounded(cyclic_group(4), parse_system("x1 = #1"), z=1.5),
            ValueError,
            "base element 1.5 out of range [0, 4)",
        ),
        (
            lambda: solve_bounded(cyclic_group(4), parse_system("x1 = #1"), bound=1.5),
            ValueError,
            "bound must be an integer, got 1.5",
        ),
        (
            lambda: redweight_find_u([_AND], 2, (0.5, 1)),
            ValueError,
            "point (0.5, 1) has a coordinate outside [0, 2)",
        ),
        # counts and operation arguments, which the CLI only passes as ints
        (
            lambda: apply_op(cyclic_group(4), "neg", [1.5]),
            AlgebraError,
            "argument 1.5 out of range [0, 4)",
        ),
        (lambda: make_bound_report(1.5, 2, 4), ValueError, "s must be an integer, got 1.5"),
        (lambda: make_bound_report(True, 2, 4), ValueError, "s must be an integer, got True"),
        (
            lambda: make_bound_report(1, 2.0, 4),
            ValueError,
            "mu (the largest operation arity) must be an integer, got 2.0",
        ),
        (lambda: make_bound_report(1, 2, 4, n=3.5), ValueError, "n must be an integer, got 3.5"),
        (
            lambda: make_bound_report(1, 2, 4.0),
            ValueError,
            "cardinality must be an integer, got 4.0",
        ),
        (
            lambda: SubsetFunction(2, 1.5, 2, 1, {0: (0,), 1: (1,), 2: (0,)}),
            ValueError,
            "k must be an integer, got 1.5",
        ),
        (
            lambda: SubsetFunction(1, 1, 2.0, 1, {0: (0,), 1: (1,)}),
            ValueError,
            "2.0 is not prime",
        ),
        (lambda: redweight_find_u([_AND], 2.5, (1, 1)), ValueError, "k must be an integer, got 2.5"),
        (
            lambda: TabulatedFunction(2.0, 1, 3, (0, 1)),
            ValueError,
            "domain_size must be an integer, got 2.0",
        ),
        (
            lambda: TabulatedFunction(2, True, 3, (0, 1)),
            ValueError,
            "arity must be an integer, got True",
        ),
        (lambda: TabulatedFunction(2, 1, 3.0, (0, 1)), ValueError, "3.0 is not prime"),
        (lambda: FiniteAlgebra("a", 1.5, ()), AlgebraError, "size must be an integer, got 1.5"),
        (
            lambda: FiniteAlgebra("a", 2, (OperationTable("f", 1.0, (1, 0)),)),
            AlgebraError,
            "operations[0] ('f'): arity must be an integer, got 1.0",
        ),
        (lambda: find_malcev(cyclic_group(4), cap=3.5), ValueError, "cap must be an integer, got 3.5"),
        pytest.param(
            lambda: loose_weight_bound(1.5, 2, 4), ValueError, "s must be an integer, got 1.5",
            id="loose_weight_bound(1.5, 2, 4)",
        ),
        pytest.param(
            lambda: loose_weight_bound(True, 2, 4), ValueError, "s must be an integer, got True",
            id="loose_weight_bound(True, 2, 4)",
        ),
        (lambda: k_factor(2.0, 2, 1), ValueError, "mu must be an integer, got 2.0"),
        (lambda: k_factor(2, 2, 1.5), ValueError, "alpha must be an integer, got 1.5"),
        # a float or bool mask is not a subset of [n], though it hashes as one
        (
            lambda: SubsetFunction(1, 1, 2, 1, {0.0: (0,), 1: (1,)}),
            ValueError,
            "values must cover exactly the 2 subsets of size <= 1",
        ),
        (
            lambda: SubsetFunction(1, 1, 2, 1, {False: (0,), True: (1,)}),
            ValueError,
            "values must cover exactly the 2 subsets of size <= 1",
        ),
        (
            lambda: check_system(cyclic_group(4), EquationSystem(())),
            ValueError,
            "system must contain at least one equation",
        ),
        # a third side would pair the node table's roots across equations
        (
            lambda: EquationSystem(((Var(1), Const(1), Const(2)), (Const(0), Const(0)))),
            ValueError,
            "equation 0 must have two sides, got 3",
        ),
        (
            lambda: EquationSystem(((Const(0), Const(0)), (Var(1),))),
            ValueError,
            "equation 1 must have two sides, got 1",
        ),
        (lambda: EquationSystem((5,)), ValueError, "equation 0 must be a sequence of two sides, got 5"),
        (lambda: k_factor(1, 2.5, 2), ValueError, "p must be an integer, got 2.5"),
        (lambda: k_factor(1, 4, 2), ValueError, "4 is not prime"),
    ],
)
def test_out_of_range_arguments_are_rejected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("entry", [check_system, solve_bounded, solve_brute])
@pytest.mark.parametrize(
    "lhs, message",
    [
        (Const(1.5), "constant #1.5 out of range [0, 4)"),
        (App("add", (Var(1), Const(1.5))), "constant #1.5 out of range [0, 4)"),
        (Const(True), "constant #True out of range [0, 4)"),
        (Var(1.5), "variable index must be an integer, got 1.5"),
        (Var(True), "variable index must be an integer, got True"),
        (1, "1 is not a term"),
        (App("add", (Var(1), 2)), "2 is not a term"),
        # an unhashable leaf is refused before the node table interns it
        ([1], "[1] is not a term"),
        (App("add", (Var(1), [1])), "[1] is not a term"),
    ],
)
def test_non_integer_leaves_are_input_errors(entry, lhs, message):
    # not a failed re-verification, a TypeError from a table lookup, or x1
    with pytest.raises(EvalError) as info:
        entry(cyclic_group(4), EquationSystem(((lhs, Var(1)),)))
    assert type(info.value) is EvalError and str(info.value) == message


class _Bit(IntEnum):
    ZERO = 0
    ONE = 1


def test_tables_share_one_entry_rule():
    # an int subclass other than bool is an integer for both kinds of table
    assert TabulatedFunction(2, 1, 3, (_Bit.ONE, 0)).table == (1, 0)
    assert FiniteAlgebra("a", 2, (OperationTable("f", 1, (_Bit.ONE, 0)),)).size == 2
    with pytest.raises(ValueError, match=r"^table\[0\] value True not in \[0, 3\)$"):
        TabulatedFunction(2, 1, 3, (True, 0))
    with pytest.raises(AlgebraError, match=r"table\[0\] entry True out of range \[0, 2\)$"):
        FiniteAlgebra("a", 2, (OperationTable("f", 1, (True, 0)),))


# over {0, 1} with the constant k() = 1 and m = AND: the three projections,
# then k() in round 0, fill a cap of 4 before m is applied
_K_AND = FiniteAlgebra(
    "k-and", 2, (OperationTable("k", 0, (1,)), OperationTable("m", 2, (0, 0, 0, 1)))
)


def _clone_summary():
    tables, complete = ternary_term_clone(_K_AND, cap=4)
    return len(tables), complete, tables[-1].witness, tables[-1].table


def _absorb_text(tmp_path, capsys):
    path = tmp_path / "and.json"
    path.write_text('{"domain_size": 2, "arity": 2, "prime": 2, "table": [0, 0, 0, 1]}')
    code = cli.main(["absorb", "--function", str(path)])
    return code, capsys.readouterr()


@pytest.mark.parametrize(
    "run, expected",
    [
        (lambda *_: _clone_summary(), (4, False, App("k", ()), (1,) * 8)),
        (lambda *_: find_malcev(_K_AND, cap=4), MalcevNotFound(complete=False, tables_explored=4)),
        (
            _absorb_text,
            (
                0,
                (
                    "absorbing degree: 2\n"
                    "  0: [0, 0, 0, 0]\n"
                    "  1: [0, 0, 0, 0]\n"
                    "  2: [0, 0, 0, 0]\n"
                    "  3: [0, 0, 0, 1]\n",
                    "",
                ),
            ),
        ),
    ],
)
def test_rarely_taken_exits_give_their_output(tmp_path, capsys, run, expected):
    assert run(tmp_path, capsys) == expected
