import random

import pytest

from supersolve.algebra import AlgebraError
from supersolve.terms import (
    App,
    Const,
    EvalError,
    ParseError,
    Var,
    check_system,
    eval_term,
    format_system,
    format_term,
    max_variable,
    parse_system,
    parse_term,
    substitute,
    term_length,
)

from sampling import random_term


def test_parse_examples():
    assert parse_term("add(x1, neg(#2))") == App(
        "add", (Var(1), App("neg", (Const(2),)))
    )
    assert parse_term("x12") == Var(12)
    assert parse_term("zero()") == App("zero", ())


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="unclosed|unexpected end"):
        parse_term("add(x1")
    with pytest.raises(ParseError):
        parse_term("add(x1,,x2)")
    with pytest.raises(ParseError, match="trailing"):
        parse_term("x1 x2")
    with pytest.raises(ParseError, match=">= 1"):
        parse_term("x0")
    with pytest.raises(ParseError):
        parse_term("#")
    with pytest.raises(ParseError, match="line 3: term nested too deeply"):
        parse_term("neg(" * 5000 + "x1" + ")" * 5000, line=3)
    err = None
    try:
        parse_term("add(x1, $)")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 8


def test_comments_and_whitespace_ignored():
    assert parse_term("  add( x1 ,x2 )  ; trailing comment") == App(
        "add", (Var(1), Var(2))
    )


def test_parse_system():
    system = parse_system("add(x1,x2) = #3\n")
    assert system.s == 1
    assert system.n == 2
    two = parse_system("; header\nadd(x1,x2) = #3\n\nx1 = x4 ; note\n")
    assert two.s == 2
    assert two.n == 4


def test_parse_system_errors():
    with pytest.raises(ParseError):
        parse_system("x1 =\n")
    with pytest.raises(ParseError, match="empty system"):
        parse_system("; nothing here\n")
    with pytest.raises(ParseError, match="exactly one '='"):
        parse_system("x1 = x2 = x3\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_system("x1 = x2\nx1 = add(\n")


def test_eval_examples(z4):
    assert eval_term(z4, parse_term("add(x1, neg(#2))"), (1,)) == 3
    assert eval_term(z4, parse_term("#0"), ()) == 0
    assert eval_term(z4, parse_term("x2"), (1, 2)) == 2


def test_eval_errors(z4):
    with pytest.raises(AlgebraError, match="unknown operation"):
        eval_term(z4, parse_term("mul(x1, x1)"), (1,))
    with pytest.raises(AlgebraError, match="arity"):
        eval_term(z4, parse_term("add(x1)"), (1,))
    with pytest.raises(EvalError, match="beyond assignment"):
        eval_term(z4, parse_term("x3"), (1, 2))
    with pytest.raises(EvalError, match="out of range"):
        eval_term(z4, parse_term("#9"), ())


def test_term_length():
    assert term_length(parse_term("x1")) == 1
    assert term_length(parse_term("add(x1, neg(#2))")) == 4
    system = parse_system("add(x1,x2) = #3\nx1 = x2\n")
    total = sum(term_length(t) for lhs, rhs in system.equations for t in (lhs, rhs))
    assert total == 3 + 1 + 1 + 1


def test_term_length_monotone_under_embedding(z4):
    rng = random.Random(7)
    for _ in range(100):
        child = random_term(rng, z4, 3, rng.randint(0, 3))
        parent = App("add", (child, Const(0)))
        assert term_length(child) >= 1
        assert term_length(parent) > term_length(child)


def test_format_parse_round_trip(z4, q8):
    rng = random.Random(11)
    for alg in (z4, q8):
        for _ in range(200):
            term = random_term(rng, alg, 4, rng.randint(0, 4))
            assert parse_term(format_term(term)) == term


def test_format_system_round_trip():
    system = parse_system("add(x1,x2) = #3\nneg(x1) = zero()\n")
    assert parse_system(format_system(system)) == system


def test_eval_deterministic_total(z4):
    rng = random.Random(3)
    for _ in range(50):
        term = random_term(rng, z4, 2, 3)
        for a in [(0, 0), (1, 3), (2, 2)]:
            v1 = eval_term(z4, term, a)
            v2 = eval_term(z4, term, a)
            assert v1 == v2
            assert 0 <= v1 < z4.size


def test_parser_fuzz_never_hangs_or_leaks_other_errors():
    rng = random.Random(2024)
    alphabet = "ax1#(),; \t=zneg_09"
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            term = parse_term(text)
        except ParseError:
            continue
        # anything accepted must round-trip
        assert parse_term(format_term(term)) == term


def test_max_variable_and_substitute():
    term = parse_term("add(x2, add(x5, #1))")
    assert max_variable(term) == 5
    replaced = substitute(term, {5: Const(3)})
    assert replaced == parse_term("add(x2, add(#3, #1))")
    assert substitute(Const(1), {1: Var(2)}) == Const(1)


def test_check_system(z4):
    good = parse_system("add(x1, x2) = #3\n")
    check_system(z4, good)
    with pytest.raises(AlgebraError):
        check_system(z4, parse_system("mul(x1, x2) = #3\n"))
    with pytest.raises(EvalError):
        check_system(z4, parse_system("add(x1, x2) = #7\n"))
    with pytest.raises(EvalError):
        check_system(z4, parse_system("add(x1) = #3\n"))
