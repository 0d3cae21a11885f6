"""Input-file fuzz of the command line.

Every file the validate, absorb, reduce-witness, bound and malcev
commands read is drawn at random: arbitrary JSON, raw text, JSON objects
over the real field names whose values are either of the right kind or
arbitrary, and systems made of random term text.  Whatever the input, a
run exits 0, 1 or 2, raises nothing out of cli.main (a traceback, from
the console script), and writes at most one line to stderr.

malcev runs as `malcev --cap 20 --json`.  A valid table holds at most 30
entries, so an operation of a carrier of 2 or more elements has arity at
most 4, and a closure capped at 20 tables applies at most about 20**4
argument tuples; a one-element carrier stops at its first projection,
and a carrier of over 256 elements, which may come with no or only
nullary operations, is refused before any table is built.

solve and brute are left out: their searches have no work budget yet, so
a small valid input can legitimately run for hours.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supersolve import cli
from supersolve.algebra import render_algebra
from supersolve.groups import cyclic_group

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_INT = st.integers(-2, 12) | st.integers()
_TABLE = st.lists(st.integers(-1, 5), max_size=30) | st.lists(st.integers(), max_size=9)


def _object(**fields):
    """JSON objects whose keys are any of fields, each value drawn from its
    strategy or from any JSON."""
    return st.fixed_dictionaries({}, optional={k: v | _JSON for k, v in fields.items()})


_OPERATION = _object(name=st.sampled_from(["add", "neg", "f", ""]), arity=_INT, table=_TABLE)
_ALGEBRA = _object(
    name=st.text(max_size=4), size=_INT, operations=st.lists(_OPERATION, max_size=3)
)


@st.composite
def _valid_algebra(draw):
    """A valid algebra's JSON, which few _ALGEBRA draws are: size 1-4 and
    tables of at most 30 entries."""
    size = draw(st.integers(1, 4))
    arities = draw(st.lists(st.integers(0, 4).filter(lambda a: size**a <= 30), max_size=3))
    ops = []
    for i, arity in enumerate(arities):
        length = size**arity
        table = draw(st.lists(st.integers(0, size - 1), min_size=length, max_size=length))
        ops.append({"name": f"f{i}", "arity": arity, "table": table})
    return json.dumps({"name": "a", "size": size, "operations": ops})


_FUNCTION = _object(domain_size=_INT, arity=_INT, prime=_INT, table=_TABLE)
_WITNESS = _object(
    mode=st.sampled_from(["ks", "redweight", "nope"]),
    n=_INT,
    k=_INT,
    p=_INT,
    m=_INT,
    phi=st.dictionaries(
        st.sampled_from([str(i) for i in range(8)]) | st.text(max_size=3),
        st.lists(st.integers(-1, 3), max_size=3),
        max_size=8,
    ),
    a=st.lists(st.integers(-1, 3), max_size=5),
    functions=st.lists(_FUNCTION, max_size=2),
)


def _file_text(documents):
    """A file's contents: one of documents as JSON, or raw text."""
    return documents.map(json.dumps) | st.text(max_size=20)


_TERM_TOKENS = [
    "x1", "x2", "x0", "x99999999999999999999", "#0", "#1", "#3", "#9", "add", "neg",
    "zero", "mul", "(", ")", ",", " ", "=", "\n", ";", "é", "#",
]
_SYSTEM = st.lists(st.sampled_from(_TERM_TOKENS) | st.text(max_size=2), max_size=24).map("".join)

# (command, its file options and their contents); bound also takes -s and -n
_RUNS = st.one_of(
    st.tuples(
        st.just("validate"),
        st.just(["--algebra", "--system"]),
        st.tuples(_file_text(_ALGEBRA) | st.just(render_algebra(cyclic_group(4))), _SYSTEM),
    ),
    st.tuples(st.just("validate"), st.just(["--algebra"]), st.tuples(_file_text(_ALGEBRA))),
    st.tuples(st.just("absorb"), st.just(["--function"]), st.tuples(_file_text(_FUNCTION))),
    st.tuples(st.just("reduce-witness"), st.just(["--input"]), st.tuples(_file_text(_WITNESS))),
    st.tuples(st.just("bound"), st.just(["--algebra"]), st.tuples(_file_text(_ALGEBRA))),
    st.tuples(
        st.just("malcev"),
        st.just(["--algebra"]),
        st.tuples(_file_text(_ALGEBRA) | _valid_algebra()),
    ),
)

# inputs whose validation used to cost time out of all proportion to their size
OVERSIZED = [
    ("reduce-witness", "--input",
     '{"mode":"ks","n":20000,"k":20000,"p":2,"m":1,"phi":{"0":[1]}}', "subsets"),
    ("absorb", "--function",
     '{"domain_size":2,"arity":2000000,"prime":2,"table":[0]}', "table length"),
    ("validate", "--algebra",
     '{"name":"a","size":2,"operations":[{"name":"f","arity":2000000,"table":[0]}]}',
     "table length"),
    ("bound", "--algebra", '{"name":"a","size":2305843009213693951,"operations":[]}', "arity"),
    ("absorb", "--function",
     '{"domain_size":1,"arity":0,"prime":618970019642690137449562111,"table":[0]}', "prime"),
    ("absorb", "--function", '{"domain_size":1,"arity":40,"prime":2,"table":[0]}', "budget"),
    # past sys.get_int_max_str_digits(), which json.loads would report
    ("validate", "--algebra", '{"name":"a","size":' + "9" * 5000 + ',"operations":[]}',
     "an integer has more than"),
    # every ternary table would hold size**3 entries
    ("malcev", "--algebra", '{"name":"a","size":257,"operations":[]}', "size"),
]


def _run(tmp, command, options, texts, extra=()):
    argv = [command, *extra]
    for i, (option, text) in enumerate(zip(options, texts)):
        path = tmp / f"input{i}"
        path.write_text(text, encoding="utf-8")
        argv += [option, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _with_oversized_examples(test):
    for command, option, text, _ in OVERSIZED:
        test = example(run=(command, [option], (text,)), extra=[])(test)
    return test


@settings(max_examples=300, deadline=None)
@given(
    run=_RUNS,
    extra=st.sampled_from([[], ["--json"], ["-s", "3"], ["-n", "0"], ["-s", "2", "-n", "40"]]),
)
@_with_oversized_examples
def test_input_files_exit_cleanly(tmp, run, extra):
    command, options, texts = run
    # bound prints JSON only, and only bound takes -s and -n
    extra = [a for a in extra if (a == "--json") != (command == "bound")]
    if command == "malcev":
        extra = ["--cap", "20", "--json"]
    code, err = _run(tmp, command, options, texts, extra)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err.count("\n") <= 1


@pytest.mark.parametrize(
    "command, option, text, field", OVERSIZED, ids=[f"{c}-{f}" for c, _, _, f in OVERSIZED]
)
def test_oversized_input_exits_2_fast(tmp, command, option, text, field):
    start = time.perf_counter()
    code, err = _run(tmp, command, [option], [text])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
