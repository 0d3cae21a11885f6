"""Argument checks and rarely taken exits, one case each: the library's
guards against out-of-range and non-integer arguments, a solution whose
n-coordinate assignment cannot be built, the closure's cap met right
after a nullary operation, and the human text of `absorb`."""

import pytest

from supersolve import cli
from supersolve.absorbing import TabulatedFunction
from supersolve.algebra import AlgebraError, FiniteAlgebra, OperationTable
from supersolve.bounds import k_factor, loose_weight_bound, make_bound_report
from supersolve.groups import cyclic_group
from supersolve.malcev import MalcevNotFound, find_malcev, ternary_term_clone
from supersolve.solver import solve_bounded
from supersolve.terms import App, parse_system
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
            "operations[0] ('f'): negative arity",
        ),
        (lambda: TabulatedFunction(0, 1, 2, ()), ValueError, "domain_size must be >= 1, got 0"),
        (lambda: SubsetFunction(0, 0, 2, 1, {}), ValueError, "need n >= 1, k >= 0, m >= 1"),
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
        (lambda: k_factor(0, 2, 1), ValueError, "mu and alpha must be >= 1"),
        (lambda: loose_weight_bound(0, 2, 4), ValueError, "s and mu must be >= 1"),
        (lambda: loose_weight_bound(1, 0, 4), ValueError, "s and mu must be >= 1"),
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
    ],
)
def test_out_of_range_arguments_are_rejected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


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
