import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersolve.algebra import AlgebraError
from supersolve.terms import (
    App,
    Const,
    EquationSystem,
    EvalError,
    ParseError,
    Var,
    check_system,
    eval_term,
    fold,
    format_system,
    format_term,
    parse_system,
    parse_term,
    term_length,
)

import oracles
from oracles import substitute
from sampling import random_system, random_term


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
    err = None
    try:
        parse_term("add(x1, $)")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 8


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("x\u00b2 = #1", "ASCII digits", 0),  # superscript two
        ("x1 = #\u00b2", "expected digits after '#'", 5),
        ("x1 = x\u0661", "ASCII digits", 5),  # Arabic-Indic digit one
        ("x1 = x" + "1" * 5000, "number too long", 5),
        ("#" + "1" * 5000 + " = x1", "number too long", 0),
    ],
    ids=["var-superscript", "const-superscript", "var-arabic-indic", "long-var", "long-const"],
)
def test_numbers_are_ascii_digits(text, message, position):
    with pytest.raises(ParseError, match=f"^line 2: .*{message}.* at position {position}$"):
        parse_system("x1 = #0\n" + text + "\n")


def test_right_hand_side_positions_count_from_line_start():
    with pytest.raises(ParseError) as exc:
        parse_system("x1 = add(x1\n")
    assert (exc.value.line, exc.value.position) == (1, 11)
    with pytest.raises(ParseError, match="line 1: unexpected character '\\$' at position 14"):
        parse_system("add(x1, x2) = $\n")


def test_comments_and_whitespace_ignored():
    assert parse_term("  add( x1 ,x2 )  ; trailing comment") == App(
        "add", (Var(1), Var(2))
    )
    # a lone '\r' ends a comment in a term's text as it ends a system's line
    assert parse_term("add(x1, ; c\rx2)") == App("add", (Var(1), Var(2)))


def test_parse_system():
    system = parse_system("add(x1,x2) = #3\n")
    assert system.s == 1
    assert system.n == 2
    two = parse_system("; header\nadd(x1,x2) = #3\n\nx1 = x4 ; note\n")
    assert two.s == 2
    assert two.n == 4


@pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85"])
def test_a_comment_runs_to_the_end_of_its_line(brk):
    # only '\n', '\r\n' and '\r' end a line: any other line break is
    # whitespace, so it neither ends a comment nor splits an equation
    assert parse_system(f"x1 = #1 ; was{brk}x1 = #2\n").equations == ((Var(1), Const(1)),)
    assert parse_system(f"x1 = #1 ; a{brk}note").equations == ((Var(1), Const(1)),)
    assert parse_system(f"add(x1,{brk}x2) ={brk}#3\n") == parse_system("add(x1, x2) = #3\n")


def test_lines_end_at_newline_carriage_return_or_both():
    for end in ["\n", "\r\n", "\r"]:
        with pytest.raises(ParseError) as exc:
            parse_system(f"x1 = #0{end}; note{end}{end}x1 = add(x1{end}")
        assert (exc.value.line, exc.value.position) == (4, 11)


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


@pytest.mark.parametrize("value", [7, -1, 2.5, True])
@pytest.mark.parametrize("text", ["x1", "add(#1, neg(x1))"], ids=["bare", "nested"])
def test_eval_checks_each_value_a_variable_reads(z4, text, value):
    with pytest.raises(EvalError) as info:
        eval_term(z4, parse_term(text), [value])
    assert str(info.value) == f"x1 = {value!r} out of range [0, 4)"


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


def test_format_term_bytes_and_depth():
    assert format_term(parse_term("f( x1,g(#2) ,h(), g(x3))")) == "f(x1, g(#2), h(), g(x3))"
    # one token per node, joined once, so a 100,000-level chain is linear work
    depth = 100_000
    text = format_term(parse_term("neg(" * depth + "add(x1, x2)" + ")" * depth))
    assert len(text) == 5 * depth + len("add(x1, x2)")
    assert text.startswith("neg(" * depth + "add(x1, x2)")
    assert text.endswith("add(x1, x2)" + ")" * depth)


def test_system_n_is_computed_once():
    system, same = (parse_system("add(x2, x5) = #1\nneg(x3) = zero()\n") for _ in range(2))
    assert system.n == 5
    assert "n" in vars(system)
    assert system == same and hash(system) == hash(same)


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
    assert EquationSystem(((term, Const(0)),)).n == 5
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


def test_fold_order_and_depth():
    seen = []

    def visit(t, values):
        seen.append(t)
        return len(values)

    term = parse_term("add(x1, neg(#2))")
    assert fold([term, Var(3)], visit) == [2, 0]
    assert seen == [Var(1), Const(2), App("neg", (Const(2),)), term, Var(3)]
    deep = parse_term("neg(" * 100_000 + "add(x1, x2)" + ")" * 100_000)
    assert (term_length(deep), EquationSystem(((deep, deep),)).n) == (100_003, 2)


def _post_order(t):
    if isinstance(t, App):
        for a in t.args:
            yield from _post_order(a)
    yield t


def _max_variable(t):
    if isinstance(t, Var):
        return t.index
    return max(map(_max_variable, t.args), default=0) if isinstance(t, App) else 0


def _assert_node_table(system):
    # the reference: the distinct subterm values, by recursion, in post-order
    # of first occurrence; a node's arguments are the ids of its subterms
    sides = [t for eq in system.equations for t in eq]
    order = list(dict.fromkeys(u for t in sides for u in _post_order(t)))
    ids = {u: i for i, u in enumerate(order)}
    nodes, roots, sizes = system.table
    assert nodes == tuple((u, tuple(ids[a] for a in getattr(u, "args", ()))) for u in order)
    assert roots == tuple(ids[t] for t in sides)
    assert sizes == tuple(map(term_length, order))
    assert system.n == max(map(_max_variable, sides), default=0)


def test_node_table_of_random_systems(group_fixtures, lattice):
    rng = random.Random(21)
    for alg in [*group_fixtures, lattice]:
        for _ in range(40):
            _assert_node_table(random_system(rng, alg, max_n=6, max_s=3, max_depth=4))


def test_parsed_node_table_of_random_systems(group_fixtures, lattice):
    # parse_system builds the table as it parses, with no fold over the
    # trees; it must be the table a fold over the same terms would build
    rng = random.Random(28)
    for alg in [*group_fixtures, lattice]:
        for _ in range(40):
            system = random_system(rng, alg, max_n=6, max_s=3, max_depth=4)
            parsed = parse_system(format_system(system))
            assert "table" in vars(parsed)
            assert parsed == system and parsed.table == system.table
            _assert_node_table(parsed)


def test_parsed_equal_subterms_are_one_object():
    system = parse_system(
        "add(neg(x1), neg(x1)) = neg(x1)\nadd(x01, zero()) = add(neg(x1), neg(x1))\n"
    )
    (lhs1, rhs1), (lhs2, rhs2) = system.equations
    assert lhs1.args[0] is lhs1.args[1] is rhs1
    assert rhs2 is lhs1
    assert lhs2.args[0] is rhs1.args[0]  # x01 and x1 are one variable
    # each node's term is the object the equations hold
    nodes = system.table.nodes
    assert [nodes[r][0] for r in system.table.roots] == [lhs1, rhs1, lhs2, rhs2]
    assert all(
        arg is nodes[a][0] for t, ids in nodes for arg, a in zip(getattr(t, "args", ()), ids)
    )


_SHARED = parse_term("add(x2, neg(x1))")


@pytest.mark.parametrize("equations, distinct", [
    # one object reused, and an equal copy of it
    (((App("add", (_SHARED, _SHARED)), parse_term("add(x2, neg(x1))")),), 5),
    # a subterm, a constant and a nullary operation shared across equations
    (((_SHARED, App("zero", ())), (App("neg", (_SHARED,)), App("zero", ()))), 6),
    # a variable and a constant with one number are two nodes
    (((Var(1), Const(1)), (App("add", (Var(1), Const(1))), Var(1))), 3),
    # an equation whose sides are one node, and x3 beyond the rest
    (((_SHARED, _SHARED), (Var(3), _SHARED)), 5),
])
def test_node_table_shares_equal_subterms(equations, distinct):
    system = EquationSystem(equations)
    _assert_node_table(system)
    assert len(system.table.nodes) == distinct


# Arbitrary text, drawn as lines "lhs = rhs" of arbitrary pieces.  The
# grammar's tokens, and variables and constants written in number characters
# of any script, are drawn more often than other characters.
_NUMBER = st.tuples(
    st.sampled_from("x#"), st.text(st.characters(categories=["N"]), min_size=1, max_size=3)
).map("".join)
_PIECE = st.one_of(
    st.sampled_from(["x1", "#0", "add(", "neg(", "(", ")", ",", " ", ";"]),
    _NUMBER,
    st.characters(),
)
_SIDE = st.lists(_PIECE, max_size=12).map("".join)
_SYSTEM_TEXT = st.lists(st.tuples(_SIDE, _SIDE).map(" = ".join), max_size=4).map("\n".join)


@settings(max_examples=500, deadline=None)
@given(_SYSTEM_TEXT)
def test_parse_system_returns_or_raises_parse_error(text):
    try:
        system = parse_system(text)
    except ParseError:
        return
    assert parse_system(format_system(system)) == system


def _parse_outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.position, exc.line


def _assert_parses_as_reference(text):
    # equal equations and a table equal to a fold's over them, or the same
    # error at the same position of the same line
    got, want = _parse_outcome(parse_system, text), _parse_outcome(oracles.parse_system, text)
    if want[0] == "error":
        assert got == want
    else:
        assert got[0] == "ok" and got[1].equations == want[1].equations
        assert got[1].table == EquationSystem(want[1].equations).table


@settings(max_examples=500, deadline=None)
@given(_SYSTEM_TEXT)
def test_parse_system_matches_the_reference_parser(text):
    _assert_parses_as_reference(text)


@settings(max_examples=500, deadline=None)
@given(_SIDE)
def test_parse_term_matches_the_reference_parser(text):
    # a term's text may hold newlines, so a comment there ends at the next one
    assert _parse_outcome(parse_term, text) == _parse_outcome(oracles.parse_term, text)


# Edits of valid system text: a character deleted, replaced or inserted,
# drawn from the grammar's characters, line breaks and any character.
_EDIT_CHAR = st.one_of(st.sampled_from("x#1()0,;= \t\n\r\u2028\x0c_a\u00b2"), st.characters())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_system_matches_the_reference_parser_on_edited_systems(
    group_fixtures, lattice, data
):
    alg = data.draw(st.sampled_from([*group_fixtures, lattice]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    text = list(format_system(random_system(rng, alg, max_n=12, max_s=3, max_depth=4)))
    _assert_parses_as_reference("".join(text))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["delete", "replace", "insert"]))
        if edit != "insert" and at < len(text):
            del text[at]
        if edit != "delete":
            text.insert(at, data.draw(_EDIT_CHAR))
    _assert_parses_as_reference("".join(text))


def _terms(alg):
    """Random shallow terms over alg's signature, at most 12 leaves each."""
    leaves = st.one_of(
        st.builds(Var, st.integers(min_value=1)),
        st.builds(Const, st.integers(0, alg.size - 1)),
    )

    def apps(args):
        return st.one_of([
            st.builds(App, st.just(op.name), st.tuples(*[args] * op.arity))
            for op in alg.operations
        ])

    return st.recursive(leaves, apps, max_leaves=12)


@settings(deadline=None)
@given(data=st.data())
def test_format_parse_round_trip_property(group_fixtures, lattice, data):
    alg = data.draw(st.sampled_from([*group_fixtures, lattice]))
    term = data.draw(_terms(alg))
    assert parse_term(format_term(term)) == term
