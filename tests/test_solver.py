import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supersolve.algebra import AlgebraError, digits, max_arity
from supersolve.bounds import make_bound_report
from supersolve.groups import cyclic_group, dihedral_group
from supersolve.malcev import find_malcev
from supersolve.solver import (
    NoSolutionExhaustive,
    NoSolutionInBoundedSet,
    SolutionFound,
    bench,
    bounded_weight_count,
    solve_bounded,
    solve_brute,
)
from supersolve.terms import (
    App,
    Const,
    EquationSystem,
    EvalError,
    Var,
    check_system,
    eval_term,
    parse_system,
    term_length,
)

from oracles import enumerate_bounded_weight, normalize_system
from sampling import random_system


def weight(a, z=0):
    return sum(1 for v in a if v != z)


def test_enumeration_order_prefix():
    got = list(enumerate_bounded_weight(3, 1, 4, 0))
    assert got[:7] == [
        (0, 0, 0),
        (1, 0, 0), (2, 0, 0), (3, 0, 0),
        (0, 1, 0), (0, 2, 0), (0, 3, 0),
    ]
    assert len(got) == bounded_weight_count(3, 1, 4)


def test_enumeration_order_nonzero_base():
    got = list(enumerate_bounded_weight(2, 1, 3, z=1))
    assert got == [(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)]


def test_enumeration_counts():
    assert bounded_weight_count(10, 1, 2) == 11
    assert bounded_weight_count(2, 2, 3) == 9
    for size, max_n in ((2, 12), (3, 9), (4, 7)):
        for n in range(0, max_n + 1):
            for w in range(0, n + 1):
                stream = list(enumerate_bounded_weight(n, w, size))
                assert len(stream) == bounded_weight_count(n, w, size)
                assert len(set(stream)) == len(stream)
                assert all(weight(a) <= w for a in stream)
    # large-n spot checks where the closed form stays small
    for size in (3, 4):
        for w in range(0, 4):
            stream = list(enumerate_bounded_weight(12, w, size))
            assert len(stream) == bounded_weight_count(12, w, size)


def _flat(chunks):
    """The chunks of _weight_chunks's (chunk, spans) pairs, in order."""
    return (X for X, _ in chunks)


def _layer_parts(chunks, weight):
    """The parts of _weight_chunks's chunks that its spans give to one layer."""
    parts = []
    for X, spans in chunks:
        at = 0
        for k, rows in spans:
            if k == weight:
                parts.append(X[at : at + rows])
            at += rows
    return parts


def test_vectorized_chunks_match_generator_order():
    from supersolve.solver import _lex_chunks, _weight_chunks

    for n, w, size, z in [(0, 0, 3, 0), (3, 1, 4, 0), (2, 1, 3, 1), (4, 4, 3, 2), (5, 2, 2, 0)]:
        chunked = [
            tuple(int(v) for v in row)
            for X in _flat(_weight_chunks(w, size, z, cols=range(n), chunk=7))
            for row in X
        ]
        assert chunked == list(enumerate_bounded_weight(n, w, size, z))
    for n, size in [(0, 2), (1, 4), (3, 3), (4, 2)]:
        chunked = [
            tuple(int(v) for v in row)
            for X in _lex_chunks(n, size, cols=range(n), chunk=5)
            for row in X
        ]
        assert chunked == list(itertools.product(range(size), repeat=n))
        assert all(X.dtype == np.uint8 for X in _lex_chunks(n, size, cols=range(n), chunk=5))
    # chunk=64 packs whole supports with a remainder (36 weight-2 supports,
    # 14 per piece); at n=40 the cell cap binds (8 * 64 // 40 = 12 rows)
    for n, w, size, z, chunk in [(9, 3, 3, 1, 64), (40, 2, 2, 0, 64), (6, 4, 3, 0, 1)]:
        chunks = list(_flat(_weight_chunks(w, size, z, cols=range(n), chunk=chunk)))
        assert all(X.dtype == np.uint8 for X in chunks)
        assert all(0 < len(X) <= min(chunk, 8 * chunk // n) or len(X) == 1 for X in chunks)
        chunked = [tuple(int(v) for v in row) for X in chunks for row in X]
        assert chunked == list(enumerate_bounded_weight(n, w, size, z))
    assert max(len(X) for X in _flat(_weight_chunks(2, 3, 1, cols=range(9), chunk=64))) == 14 * 4
    # the brute scan has the same cap: 8 * 16 // 10 = 12 rows per chunk
    chunks = list(_lex_chunks(10, 2, cols=range(10), chunk=16))
    assert all(len(X) <= 12 for X in chunks) and len(chunks) == -(-1024 // 12)
    chunked = [tuple(int(v) for v in row) for X in chunks for row in X]
    assert chunked == list(itertools.product(range(2), repeat=10))


def test_projected_chunks_keep_rows_and_boundaries():
    from math import comb

    from supersolve.solver import _chunk_rows, _lex_chunks, _weight_chunks

    # the bounded chunks hold, in canonical order, the rows whose support
    # lies inside cols (including no column at all), restricted to cols,
    # with rows per chunk capped by cols's columns
    rng = random.Random(5)
    for n, w, size, z, chunk in [
        (0, 0, 3, 0, 7), (5, 2, 2, 0, 7), (6, 4, 3, 2, 64), (9, 3, 3, 1, 64),
        (40, 2, 2, 0, 64), (6, 4, 3, 0, 1), (8, 8, 2, 1, 65536), (12, 3, 4, 3, 7),
    ]:
        for cols in [[], [n - 1], sorted(rng.sample(range(n), n // 2))]:
            cols = sorted({c for c in cols if 0 <= c < n})
            chunks = list(_weight_chunks(w, size, z, cols, chunk))
            spans = [span for _, spans in chunks for span in spans]
            assert [k for k, _ in spans] == sorted(k for k, _ in spans)
            assert sorted({k for k, _ in spans}) == list(range(min(w, len(cols)) + 1))
            assert all(rows > 0 for _, rows in spans)
            assert all(sum(rows for _, rows in spans) == len(X) for X, spans in chunks)
            for k in range(min(w, len(cols)) + 1):
                total = sum(rows for j, rows in spans if j == k)
                assert total == comb(len(cols), k) * (size - 1) ** k
            part = [X for X, _ in chunks]
            assert all(0 < len(X) <= _chunk_rows(len(cols), chunk) for X in part)
            assert all(X.shape[1] == len(cols) and X.flags.f_contiguous for X in part)
            rows = [tuple(int(v) for v in row) for X in part for row in X]
            assert rows == [
                tuple(a[c] for c in cols)
                for a in enumerate_bounded_weight(n, w, size, z)
                if all(a[i] == z for i in range(n) if i not in cols)
            ]
    for n, size, chunk in [(0, 2, 5), (4, 3, 5), (10, 2, 16), (6, 4, 7)]:
        for cols in [[], [0], [n - 1], list(range(0, n, 2))]:
            cols = sorted({c for c in cols if 0 <= c < n})
            # every chunk but the last holds _chunk_rows(len(cols), chunk) rows
            part = list(_lex_chunks(n, size, cols=cols, chunk=chunk))
            rows = _chunk_rows(len(cols), chunk)
            assert [len(X) for X in part] == [
                min(rows, size**n - start) for start in range(0, size**n, rows)
            ]
            rows = [tuple(int(v) for v in row) for X in part for row in X]
            assert rows == [
                tuple(a[c] for c in cols) for a in itertools.product(range(size), repeat=n)
            ]


def test_lex_chunk_allocates_about_its_own_size():
    # a chunk's columns are built in the carrier dtype from their periods:
    # no row-length int64 ranks or quotients sit beside the 512 KB chunk
    import tracemalloc

    from supersolve.solver import _lex_chunks

    chunks = _lex_chunks(8, 4, range(8))
    tracemalloc.start()
    try:
        X = next(chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (4**8, 8) and X.nbytes == 512 * 1024
    assert peak < 2 * X.nbytes, peak


def test_chunks_are_capped_by_the_cells_of_their_own_columns(monkeypatch, z2):
    # over Z2, with t = x1 + ... + x11 + x1000000, add(t, t) = #1 scans 12
    # columns: the layers 0..6 fit in one chunk, where a cap of 8 * 65536
    # cells over all 10**6 coordinates would leave one row a chunk
    import functools
    from math import comb

    import supersolve.solver as solver

    t = functools.reduce(lambda t, i: f"add({t}, x{i})", [*range(2, 12), 10**6], "x1")
    weight_chunks, chunks = solver._weight_chunks, []

    def spy(*args):
        for X, spans in weight_chunks(*args):
            chunks.append((len(X), spans))
            yield X, spans

    monkeypatch.setattr(solver, "_weight_chunks", spy)
    out = solve_bounded(z2, parse_system(f"add({t}, {t}) = #1"), bound=6)
    assert chunks == [(2510, [(w, comb(12, w)) for w in range(7)])]
    assert sum(comb(12, w) for w in range(7)) == 2510
    total = sum(comb(10**6, i) for i in range(7))
    assert out.verdict == NoSolutionInBoundedSet(bound=6)
    assert out.stats == solver.SolveStats(total, 48 * total)


def test_a_small_scan_is_one_evaluator_call(monkeypatch, z3, z4):
    # the layers of a scan over a few columns share one chunk, so the
    # evaluator runs once a solve: over Z3, t + t + t = #1 with t reading
    # x5, x11 and x24, and over Z4 a weight-2 system planted on x7 and x13
    # whose cancelling pairs fold away
    import supersolve.solver as solver

    evaluator, calls = solver._evaluator, []

    def counting(alg, planned):
        failures = evaluator(alg, planned)

        def counted(X):
            calls.append(len(X))
            return failures(X)

        return counted

    monkeypatch.setattr(solver, "_evaluator", counting)
    t = "add(add(x5, neg(x11)), x24)"
    out = solve_bounded(z3, parse_system(f"add(add({t}, {t}), {t}) = #1"))
    assert out.verdict == NoSolutionInBoundedSet(bound=2)
    assert out.stats.candidates_tested == bounded_weight_count(24, 2, 3)
    assert calls == [1 + 3 * 2 + 3 * 4]
    calls.clear()
    system = parse_system(
        "add(add(x7, add(neg(x20), x20)), add(x13, #1)) = #2\n"
        "add(add(x13, add(x4, neg(x4))), #2) = #1"
    )
    out = solve_bounded(z4, system)
    planted = [0] * 20
    planted[6], planted[12] = 2, 3
    assert out.verdict == SolutionFound(tuple(planted), verified=True)
    assert calls == [1 + 2 * 3 + 9]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chunks_pack_consecutive_pieces(data):
    # a piece is `per` supports of one layer times `step` of their values;
    # the chunks are runs of consecutive pieces, cut only where the next
    # piece would not fit, and their spans give each layer its rows
    from math import comb

    from supersolve.solver import _chunk_rows, _weight_chunks

    m, size = data.draw(st.integers(0, 10)), data.draw(st.integers(1, 5))
    z, chunk = data.draw(st.integers(0, size - 1)), data.draw(st.sampled_from([1, 2, 3, 7, 64]))
    bounds = [w for w in range(m + 1) if bounded_weight_count(m, w, size) <= 3000]
    w = data.draw(st.sampled_from(bounds))
    q, rows = size - 1, _chunk_rows(m, chunk)
    chunks = list(_weight_chunks(w, size, z, range(m), chunk))
    got = [tuple(int(v) for v in row) for X, _ in chunks for row in X]
    assert got == list(enumerate_bounded_weight(m, w, size, z))
    assert all(0 < len(X) <= rows for X, _ in chunks)
    assert all(sum(r for _, r in spans) == len(X) for X, spans in chunks)
    assert all([k for k, _ in spans] == sorted({k for k, _ in spans}) for _, spans in chunks)
    layers = {}
    for _, spans in chunks:
        for k, r in spans:
            layers[k] = layers.get(k, 0) + r
    assert layers == {k: comb(m, k) * q**k for k in range(min(w, m) + 1) if q**k}
    pieces = []
    for k in range(min(w, m) + 1 if q else 1):
        block = q**k
        per, step = max(1, rows // block), min(block, rows)
        for first in range(0, comb(m, k), per):
            batch = min(per, comb(m, k) - first)
            pieces += [batch * min(step, block - start) for start in range(0, block, step)]
    cut, fill = [], 0
    for piece in pieces:
        if fill + piece > rows:
            cut, fill = cut + [fill], 0
        fill += piece
    assert [len(X) for X, _ in chunks] == cut + [fill]


@pytest.mark.parametrize("bound", range(4))
def test_one_element_carrier_is_solved_in_layer_0(monkeypatch, bound):
    # every term is 0 over one element, so layer 0's all-zero row solves
    # the system and the scan never draws a layer that holds no rows
    import supersolve.solver as solver
    from supersolve.algebra import FiniteAlgebra, OperationTable

    alg = FiniteAlgebra("one", 1, (OperationTable("m", 2, (0,)), OperationTable("c", 0, (0,))))
    system = parse_system("m(x1, c()) = x2\nm(x2, m(x3, x1)) = c()")
    weight_chunks, drawn = solver._weight_chunks, []

    def spy(*args):
        for X, spans in weight_chunks(*args):
            drawn.extend(w for w, _ in spans)
            yield X, spans

    monkeypatch.setattr(solver, "_weight_chunks", spy)
    out = solve_bounded(alg, system, bound=bound)
    ref, tested, nodes = _reference_scan(alg, system, enumerate_bounded_weight(3, bound, 1))
    assert out.verdict == SolutionFound((0, 0, 0), verified=True) and ref == (0, 0, 0)
    assert out.stats == solver.SolveStats(tested, nodes) and tested == 1
    assert drawn == [0]


def test_evaluator_drops_each_value_at_its_last_reader(z4):
    # x1 + x2 + ... + x8 + x1 + ... over 2,000 leaves: its 1,999 partial
    # sums would take 125 MiB of a 65,536-row chunk if all were kept until
    # the comparison, while the walk's frontier takes under 1 MiB
    import tracemalloc

    import supersolve.solver as solver

    text = "x1"
    for i in range(1, 2000):
        text = f"add({text}, x{i % 8 + 1})"
    planned = solver._plan(z4, parse_system(text + " = #1"))
    X = next(solver._lex_chunks(8, 4, planned[3]))
    failures = solver._evaluator(z4, planned)
    assert len(X) == 65536
    tracemalloc.start()
    try:
        f = failures(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert not f.any()  # each variable is read 250 times: the sum is even


def test_support_batches_match_combinations():
    import time

    from supersolve.solver import _chunk_rows, _weight_chunks

    # a layer draws its supports `per` at a time, per = rows // block; over
    # Z2 (q = 1) every row is its own support, over Z3 a block of 2**w rows
    for size, z in ((2, 0), (3, 1)):
        for m in range(13):
            for w in range(m + 1):
                block = (size - 1) ** w
                for per in (1, 7, 64, 65536):
                    # a chunk whose rows, capped by 8 * chunk cells, are per * block
                    chunk = -(-per * block * max(m, 8) // 8)
                    assert _chunk_rows(m, chunk) == per * block
                    # a full piece fills its chunk, so each chunk holds at
                    # most one piece of layer w, the last layer of the scan
                    parts = _layer_parts(_weight_chunks(w, size, z, range(m), chunk), w)
                    batches = [X[::block] for X in parts]
                    assert all(len(S) == per for S in batches[:-1])
                    assert 0 < len(batches[-1]) <= per
                    got = [tuple(np.flatnonzero(row != z).tolist()) for S in batches for row in S]
                    assert got == list(itertools.combinations(range(m), w))
    # a scan of the layers 0..100 over 200 columns is never drawn whole:
    # its first chunk holds layers 0 and 1 (201 rows), since layer 2's first
    # piece, the first _chunk_rows(200, 65536) = 2621 of its supports, would
    # not fit beside them; that piece is drawn and sized, but not built
    # until the next chunk, and no support of layer 3 is drawn
    import supersolve.solver as solver

    drawn = {}

    def counted(cols, weight):
        for support in itertools.combinations(cols, weight):
            drawn[weight] = drawn.get(weight, 0) + 1
            yield support

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "combinations", counted)
        chunks = _weight_chunks(100, 2, 0, range(200))
        start = time.perf_counter()
        first, spans = next(chunks)
        assert time.perf_counter() - start < 1
        assert spans == [(0, 1), (1, 200)] and drawn == {0: 1, 1: 200, 2: 2621}
        second, spans = next(chunks)
        assert spans == [(2, 2621)] and drawn == {0: 1, 1: 200, 2: 2 * 2621}
    rows = [tuple(np.flatnonzero(row).tolist()) for X in (first, second) for row in X]
    assert rows == [
        *itertools.combinations(range(200), 0),
        *itertools.combinations(range(200), 1),
        *itertools.islice(itertools.combinations(range(200), 2), 2621),
    ]


def test_enumeration_covers_full_space_when_w_reaches_n():
    got = set(enumerate_bounded_weight(3, 3, 3))
    assert got == set(itertools.product(range(3), repeat=3))


def test_solve_bounded_examples(z4, z2):
    out = solve_bounded(z4, parse_system("add(add(x1,x2),x3) = #3"))
    assert out.verdict == SolutionFound((3, 0, 0), verified=True)
    assert out.stats.candidates_tested == 4

    out = solve_bounded(z2, parse_system("add(x1,x1) = #1"))
    assert out.verdict == NoSolutionExhaustive()

    out = solve_bounded(z2, parse_system("add(x1,x2) = #1\nx1 = #1"))
    assert out.verdict == SolutionFound((1, 0), verified=True)


def test_solve_brute_examples(z4, z2):
    out = solve_brute(z4, parse_system("add(add(x1,x2),x3) = #3"))
    assert out.verdict == SolutionFound((0, 0, 3), verified=True)

    out = solve_brute(z2, parse_system("add(x1,x1) = #1"))
    assert out.verdict == NoSolutionExhaustive()

    out = solve_brute(z2, parse_system("#1 = #1"))
    assert out.verdict == SolutionFound((), verified=True)


def test_conditional_verdict_below_n(z2):
    # bound 1 < n = 16, so the negative verdict must stay conditional
    out = solve_bounded(z2, parse_system("add(x16, x16) = #1"))
    assert out.verdict == NoSolutionInBoundedSet(bound=1, conditional=True)
    assert out.stats.candidates_tested == bounded_weight_count(16, 1, 2)


def test_bounded_no_stays_conditional_over_non_supernilpotent_s3():
    # S3 is not nilpotent, so the bound does not hold for it: the scan up to
    # weight 3 finds nothing, while the solution (1, 3, 3, 3) has weight 4.
    # Without a certificate of the precondition the "no" must stay conditional.
    def comm(a, b):
        return f"mul(mul(inv({a}), inv({b})), mul({a}, {b}))"

    s3 = dihedral_group(3)
    system = parse_system(comm(comm(comm("x1", "x2"), "x3"), "x4") + " = #1")
    assert solve_bounded(s3, system).verdict == NoSolutionInBoundedSet(bound=3, conditional=True)
    assert solve_brute(s3, system).verdict == SolutionFound((1, 3, 3, 3), verified=True)


def test_errors_propagate(z4):
    with pytest.raises(AlgebraError):
        solve_bounded(z4, parse_system("mul(x1, x2) = #0"))
    with pytest.raises(ValueError, match="at least one equation"):
        solve_brute(z4, EquationSystem(()))
    with pytest.raises(ValueError, match="out of range"):
        solve_bounded(z4, parse_system("x1 = #0"), z=7)
    # the solver validates through check_system, so it raises the same type
    bad_arity = parse_system("add(x1) = #0")
    with pytest.raises(ValueError) as checked:
        check_system(z4, bad_arity)
    with pytest.raises(ValueError) as solved:
        solve_bounded(z4, bad_arity)
    assert type(solved.value) is type(checked.value)


def test_variable_index_below_one_rejected(z4):
    # the parser rejects x0; a system built in code must be rejected too,
    # not read as the last column
    system = EquationSystem(((App("add", (Var(0), Var(2))), Const(1)),))
    with pytest.raises(EvalError, match="must be >= 1"):
        check_system(z4, system)
    with pytest.raises(EvalError, match="must be >= 1"):
        solve_bounded(z4, system)
    with pytest.raises(EvalError, match="must be >= 1"):
        solve_brute(z4, system)
    with pytest.raises(EvalError, match="must be >= 1"):
        eval_term(z4, Var(0), (1, 2))


def _fault(call):
    """The type and message of the ValueError call raises, or None."""
    try:
        call()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _assert_solvers_validate_like_check_system(alg, system):
    # the solvers validate in their plan, so check_system is never called
    def forbidden(*args):
        raise AssertionError("the solvers must not call check_system")

    expected = _fault(lambda: check_system(alg, system))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("supersolve.terms.check_system", forbidden)
        mp.setattr("supersolve.solver.check_system", forbidden, raising=False)
        for solve in (solve_bounded, solve_brute):
            assert _fault(lambda: solve(alg, system)) == expected


_MALFORMED = [
    parse_system("mul(x1, x2) = #0"),  # unknown operation
    parse_system("add(x1) = #0"),  # wrong arity
    parse_system("x1 = #7"),  # constant out of range
    parse_system("zero(x1) = x1"),  # arguments to a nullary operation
    # shared subterms, then a constant out of range
    parse_system("add(neg(x1), neg(x1)) = add(neg(x1), #9)"),
    # the first fault, in post-order, is the constant, not the arity
    parse_system("neg(#5, x1) = zero(x2)"),
    # the first equation is well formed and shares a node with the second
    parse_system("add(x1, x2) = x1\nneg(add(x1, x2), x1) = mul(x1)"),
    # variable indices below 1, which only code can build
    EquationSystem(((App("neg", (Var(0),)), Var(1)),)),
    EquationSystem(((Var(-1), App("neg", (Var(-1),))),)),
]


@pytest.mark.parametrize("system", _MALFORMED)
def test_solvers_validate_once_with_check_system_errors(z4, system):
    _assert_solvers_validate_like_check_system(z4, system)


def test_solve_bounded_checks_z_then_bound_then_system(z4):
    # the arguments are checked before the system is planned
    bad = parse_system("add(x1) = #0")
    with pytest.raises(ValueError, match="base element"):
        solve_bounded(z4, bad, z=7, bound=-1)
    with pytest.raises(ValueError, match="bound must be >= 0, got -1"):
        solve_bounded(z4, bad, bound=-1)
    with pytest.raises(EvalError, match="arity"):
        solve_bounded(z4, bad, bound=0)
    with pytest.raises(ValueError, match="at least one equation"):
        solve_bounded(z4, EquationSystem(()), bound=0)


def _terms(alg):
    """Terms over alg's signature and one unknown name, with any arity,
    variables x-1..x3 and constants -1..size: mostly malformed."""
    leaves = st.one_of(
        st.builds(Var, st.integers(-1, 3)), st.builds(Const, st.integers(-1, alg.size))
    )
    names = st.sampled_from([op.name for op in alg.operations] + ["nope"])
    return st.recursive(
        leaves,
        lambda args: st.builds(App, names, st.lists(args, max_size=3).map(tuple)),
        max_leaves=6,
    )


@st.composite
def _systems(draw, alg):
    """One to three equations whose sides are fresh terms, one shared term,
    or an application over the shared term."""
    terms, shared = _terms(alg), draw(_terms(alg))
    names = st.sampled_from([op.name for op in alg.operations])
    side = st.one_of(
        terms, st.just(shared), st.builds(lambda op, t: App(op, (t, shared)), names, terms)
    )
    return EquationSystem(tuple(draw(st.lists(st.tuples(side, side), min_size=1, max_size=3))))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solvers_validate_like_check_system_on_random_systems(group_fixtures, data):
    alg = data.draw(st.sampled_from(group_fixtures))
    _assert_solvers_validate_like_check_system(alg, data.draw(_systems(alg)))


def _reference_scan(alg, system, candidates):
    """Sequential oracle for verdicts and statistics."""
    tested = 0
    nodes = 0
    costs = [
        (term_length(lhs) + term_length(rhs), lhs, rhs) for lhs, rhs in system.equations
    ]
    for a in candidates:
        tested += 1
        sat = True
        for cost, lhs, rhs in costs:
            nodes += cost
            if eval_term(alg, lhs, a) != eval_term(alg, rhs, a):
                sat = False
                break
        if sat:
            return a, tested, nodes
    return None, tested, nodes


def _assert_matches_reference(alg, system):
    """Both solvers give the sequential oracle's assignment and exact stats."""
    n = system.n
    bound = make_bound_report(system.s, max_arity(alg), alg.size, n=n).effective_bound
    for out, candidates in (
        (solve_brute(alg, system), itertools.product(range(alg.size), repeat=n)),
        (solve_bounded(alg, system), enumerate_bounded_weight(n, bound, alg.size, 0)),
    ):
        ref_sol, ref_tested, ref_nodes = _reference_scan(alg, system, candidates)
        got_sol = out.verdict.assignment if isinstance(out.verdict, SolutionFound) else None
        assert got_sol == (tuple(ref_sol) if ref_sol is not None else None)
        assert out.stats.candidates_tested == ref_tested
        assert out.stats.term_evaluations == ref_nodes


def _variables(system):
    """The indices of the variables the system mentions."""
    found, stack = set(), [t for eq in system.equations for t in eq]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            found.add(t.index)
        elif isinstance(t, App):
            stack.extend(t.args)
    return found


def _terms_over(alg, leaves, max_leaves):
    """Well-formed terms over alg's signature with the given leaves."""

    def apply(args):
        return st.sampled_from(alg.operations).flatmap(
            lambda op: st.lists(args, min_size=op.arity, max_size=op.arity).map(
                lambda a: App(op.name, tuple(a))
            )
        )

    return st.recursive(leaves, apply, max_leaves=max_leaves)


def _folded_variables(alg, system):
    """V': the variables the system still reads once each subterm that reads
    at most one variable and takes one value over A is read as that value."""

    def reads(t):
        if isinstance(t, Var):
            return {t.index}
        inner = set().union(*map(reads, t.args)) if isinstance(t, App) else set()
        if isinstance(t, App) and t.args and len(inner) <= 1:
            # t's value depends on inner alone, so one value for all variables will do
            n = EquationSystem(((t, t),)).n
            values = {eval_term(alg, t, [a] * n) for a in range(alg.size)}
            if len(values) == 1:
                return set()
        return inner

    return set().union(*(reads(t) for eq in system.equations for t in eq))


@st.composite
def _gapped_systems(draw, alg):
    """One to three equations over a sparse set of variables: x_n always
    occurs, x1 often does not, and most indices in between are missing."""
    n = draw(st.integers(1, 5))
    pool = sorted({v for v in draw(st.sets(st.integers(1, 5), max_size=2)) if v < n} | {n})
    leaves = st.sampled_from([Var(v) for v in pool]) | st.builds(
        Const, st.integers(0, alg.size - 1)
    )

    terms = _terms_over(alg, leaves, 5)
    system = EquationSystem(tuple(draw(st.lists(st.tuples(terms, terms), min_size=1, max_size=3))))
    assume(n in _variables(system))
    return system


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unmentioned_variables_keep_the_base_value(z2, z3, z4, k4, data):
    import supersolve.solver as solver

    alg = data.draw(st.sampled_from([z2, z3, z4, k4]))
    system = data.draw(_gapped_systems(alg))
    z = data.draw(st.integers(0, alg.size - 1))
    n, mentioned = system.n, _variables(system)
    bound = make_bound_report(system.s, max_arity(alg), alg.size, n=n).effective_bound
    references = [
        (0, _reference_scan(alg, system, itertools.product(range(alg.size), repeat=n))),
        (z, _reference_scan(alg, system, enumerate_bounded_weight(n, bound, alg.size, z))),
    ]
    for chunk in (1, 7, 64, solver._CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_CHUNK", chunk)
            outcomes = [solve_brute(alg, system), solve_bounded(alg, system, z=z)]
        for out, (base, (ref_sol, ref_tested, ref_nodes)) in zip(outcomes, references):
            got = out.verdict.assignment if isinstance(out.verdict, SolutionFound) else None
            assert got == ref_sol
            assert out.stats == solver.SolveStats(ref_tested, ref_nodes)
            if got is not None:
                assert all(v == base for i, v in enumerate(got, 1) if i not in mentioned)


@st.composite
def _layered_systems(draw, alg, case):
    """A system over at most three variables, x_n among them with n <= 10,
    and its base value z: 0, or for "base" any other element.  An "unsat"
    system holds an equation add(u, #c) = u with c not the identity.  A
    "late" one holds equations x_i = #c_i that force two or three variables
    off z, and its other equations hold at a planted point.  A "base"
    system is either."""
    z = draw(st.integers(1, alg.size - 1)) if case == "base" else 0
    late = case == "late" or (case == "base" and draw(st.booleans()))
    n = draw(st.integers(1 + late, 10))
    # two other variables at most; a late system has at least one
    others = draw(st.sets(st.integers(1, n), min_size=2 * late, max_size=2)) - {n}
    mentioned = sorted(others | {n})
    leaves = st.sampled_from([Var(v) for v in mentioned]) | st.builds(
        Const, st.integers(0, alg.size - 1)
    )

    terms = _terms_over(alg, leaves, 4)
    if late:
        forced = draw(
            st.just(mentioned)
            | st.lists(st.sampled_from(mentioned), min_size=2, max_size=3, unique=True)
        )
        planted = [z] * n
        for v in mentioned:
            values = [a for a in range(alg.size) if a != z or v not in forced]
            planted[v - 1] = draw(st.sampled_from(values))
        equations = [
            (t, Const(eval_term(alg, t, planted))) for t in draw(st.lists(terms, max_size=2))
        ]
        equations += [(Var(v), Const(planted[v - 1])) for v in forced]
    else:
        equations = draw(st.lists(st.tuples(terms, terms), max_size=2))
        u, c = draw(terms), draw(st.integers(1, alg.size - 1))
        equations.insert(draw(st.integers(0, len(equations))), (App("add", (u, Const(c))), u))
    system = EquationSystem(tuple(equations))
    assume(system.n == n)
    return system, z


@pytest.mark.parametrize("case", ["unsat", "late", "base"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_counted_layers_match_the_reference(z2, z3, z4, k4, case, data):
    import supersolve.solver as solver

    alg = data.draw(st.sampled_from([z2, z3, z4, cyclic_group(5), k4]))
    system, z = data.draw(_layered_systems(alg, case))
    n, size, mentioned = system.n, alg.size, sorted(_variables(system))
    # the largest bound whose set the reference scans quickly, or a smaller one
    bounds = [w for w in range(n + 1) if bounded_weight_count(n, w, size) <= 3000]
    bound = data.draw(st.just(bounds[-1]) | st.sampled_from(bounds))
    ref_sol, ref_tested, ref_nodes = _reference_scan(
        alg, system, enumerate_bounded_weight(n, bound, size, z)
    )
    if ref_sol is not None:
        expected = SolutionFound(ref_sol, verified=True)
    else:
        expected = NoSolutionExhaustive() if bound >= n else NoSolutionInBoundedSet(bound=bound)
    # the weights of the solving points over the mentioned variables, z elsewhere
    solving = set()
    for p in itertools.product(range(size), repeat=len(mentioned)):
        a = [z] * n
        for i, v in zip(mentioned, p):
            a[i - 1] = v
        if all(eval_term(alg, lhs, a) == eval_term(alg, rhs, a) for lhs, rhs in system.equations):
            solving.add(weight(p, z))
    last = min(solving | {bound, n})
    assert ref_sol is None or weight(ref_sol, z) == last
    # the rows the scan generates: those over the variables the folded
    # terms read, in canonical order, up to the solution's projection or to
    # the bound
    read = sorted(_folded_variables(alg, system))
    over = list(enumerate_bounded_weight(len(read), bound, size, z))
    if ref_sol is not None:
        need = over.index(tuple(ref_sol[i - 1] for i in read)) + 1
    else:
        need = len(over)
    weight_chunks = solver._weight_chunks
    for chunk in (1, 7, 64, solver._CHUNK):
        built, drawn, named = set(), [], []

        def spy(start, stop, base, width, dtype, cols=None):
            if base == size - 1:  # a value block of the layer of this weight
                built.add(width)
            return digits(start, stop, base, width, dtype, cols)

        def generated(*args):
            for X, spans in weight_chunks(*args):
                drawn.append(len(X))
                named.append([k for k, _ in spans])
                yield X, spans

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_CHUNK", chunk)
            mp.setattr(solver, "digits", spy)
            mp.setattr(solver, "_weight_chunks", generated)
            out = solve_bounded(alg, system, z=z, bound=bound)
        assert out.verdict == expected
        assert out.stats == solver.SolveStats(ref_tested, ref_nodes)
        # the layers built are those the drawn chunks' spans name: every
        # layer up to the verdict's, and later ones only in the chunk that
        # holds the verdict's row
        top = min(last, len(read))
        assert built == {k for ks in named for k in ks}
        assert built == set(range(max(built) + 1)) and top in built
        assert all(k <= top for ks in named[:-1] for k in ks)
        # the last chunk holds the verdict's row; one row a chunk at chunk 1
        assert sum(drawn[:-1]) < need <= sum(drawn)
        if ref_sol is None or chunk == 1:
            assert sum(drawn) == need
            assert built == set(range(top + 1))


@st.composite
def _late_systems(draw, alg):
    """A system over x_n and two or three other variables of x1..xn, with
    4 <= n <= 10, and its base value z != 0.  The first solution is off z
    on exactly two or three forced variables, so it lies past layer 1:
    equations x_i = #c_i pin them off z, and x_n and maybe other variables
    to z; each other mentioned variable occurs in x_i = x_i.  Up to two
    more equations hold at the planted point."""
    z = draw(st.integers(1, alg.size - 1))
    n = draw(st.integers(4, 10))
    # x1 is mostly left out, so that most coordinates have one below them
    low = draw(st.sampled_from([1, 2, 2, 2]))
    mentioned = sorted(draw(st.sets(st.integers(low, n - 1), min_size=2, max_size=3)) | {n})
    forced = draw(st.sets(st.sampled_from(mentioned), min_size=2, max_size=3))
    pinned = forced | {n} | draw(st.sets(st.sampled_from(mentioned)))
    planted = [z] * n
    for v in forced:
        planted[v - 1] = draw(st.sampled_from([a for a in range(alg.size) if a != z]))
    leaves = st.sampled_from([Var(v) for v in mentioned]) | st.builds(
        Const, st.integers(0, alg.size - 1)
    )

    terms = _terms_over(alg, leaves, 4)
    equations = [(t, Const(eval_term(alg, t, planted))) for t in draw(st.lists(terms, max_size=2))]
    equations += [(Var(v), Const(planted[v - 1]) if v in pinned else Var(v)) for v in mentioned]
    return EquationSystem(tuple(draw(st.permutations(equations)))), z


def _assert_late_matches_reference(alg, system, z, bound):
    """solve_bounded at _CHUNK 1, 7, 64 and the default gives the sequential
    reference's assignment and counters; returns the assignment."""
    import supersolve.solver as solver

    ref_sol, ref_tested, ref_nodes = _reference_scan(
        alg, system, enumerate_bounded_weight(system.n, bound, alg.size, z)
    )
    for chunk in (1, 7, 64, solver._CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_CHUNK", chunk)
            out = solve_bounded(alg, system, z=z, bound=bound)
        got = out.verdict.assignment if isinstance(out.verdict, SolutionFound) else None
        assert got == ref_sol
        assert out.stats == solver.SolveStats(ref_tested, ref_nodes)
    return ref_sol


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solution_layer_counts_match_the_reference(z3, z4, k4, data):
    alg = data.draw(st.sampled_from([z3, z4, cyclic_group(5), k4]))
    system, z = data.draw(_late_systems(alg))
    found = _assert_late_matches_reference(alg, system, z, data.draw(st.integers(2, 3)))
    if found is not None:
        assert weight(found, z) >= 2
        assert {i + 1 for i, v in enumerate(found) if v != z} <= _variables(system)


@pytest.mark.parametrize(
    "order, text, z, bound",
    [
        # S = {x6, x10}; x3 is free and x9 pinned to z
        (4, "x3 = x3\nx6 = #2\nx9 = #3\nadd(x6, x10) = #3\nx10 = #1", 3, 2),
        # S = {x4, x7, x9}; x2 is free
        (5, "add(x2, x4) = add(x4, x2)\nx4 = #1\nx7 = #0\nx9 = #4", 2, 3),
    ],
)
def test_solution_layer_counts_cover_both_cases_of_a_support(order, text, z, bound):
    # the supports S' before the solution's S in its layer meet the
    # mentioned variables V in some T; with d = min(T ^ S), they include
    # T with d in T and T with d not in T, with unmentioned coordinates
    # below and above d, and |A|^|V| exceeds the rows of a 64-row chunk
    import supersolve.solver as solver

    alg, system = cyclic_group(order), parse_system(text)
    n, mentioned = system.n, {v - 1 for v in _variables(system)}
    found = _assert_late_matches_reference(alg, system, z, bound)
    S = {i for i, v in enumerate(found) if v != z}
    assert len(S) == bound and S <= mentioned
    assert order ** len(mentioned) > solver._chunk_rows(len(mentioned), 64)
    unmentioned, cases = set(range(n)) - mentioned, set()
    for k in range(len(S)):
        for T in map(set, itertools.combinations(sorted(mentioned), k)):
            d = min(T ^ S)
            cases.add((d in T, min(unmentioned) < d < max(unmentioned)))
    assert {(True, True), (False, True)} <= cases


def _constant_subterms(alg, x):
    """Terms over the variable x alone that take one value: the cancelling
    pairs of a group, or meet(x, #0) and join(#1, x) in the lattice."""
    names = [op.name for op in alg.operations]
    if "meet" in names:
        return [App("meet", (x, Const(0))), App("join", (Const(1), x))]
    mul, inv = names[:2]
    return [App(mul, (x, App(inv, (x,)))), App(mul, (App(inv, (x,)), x))]


@st.composite
def _foldable_systems(draw, alg, max_n):
    """One to three equations over x1..xn, n <= max_n, whose leaves include
    constant one-variable subterms and nullary operations; sometimes one
    more equation whose two sides both fold."""
    xs = st.integers(1, max_n).map(Var)
    constant = xs.flatmap(lambda x: st.sampled_from(_constant_subterms(alg, x)))
    nullary = [App(op.name, ()) for op in alg.operations if op.arity == 0]
    leaves = xs | st.builds(Const, st.integers(0, alg.size - 1)) | constant
    folding = constant
    if nullary:
        leaves |= st.sampled_from(nullary)
        folding |= st.sampled_from(nullary)
    terms = _terms_over(alg, leaves, 5)
    equations = draw(st.lists(st.tuples(terms, terms), min_size=1, max_size=3))
    if draw(st.booleans()):
        both = (draw(constant), draw(folding))
        equations.insert(draw(st.integers(0, len(equations))), both)
    return EquationSystem(tuple(equations))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_folded_scan_matches_the_reference(group_fixtures, lattice, data):
    import supersolve.solver as solver

    alg = data.draw(st.sampled_from([*group_fixtures, lattice]))
    system = data.draw(_foldable_systems(alg, 4))
    n, size = system.n, alg.size
    z = data.draw(st.integers(1, size - 1))
    bounds = [w for w in range(n + 1) if bounded_weight_count(n, w, size) <= 3000]
    bound = data.draw(st.just(bounds[-1]) | st.sampled_from(bounds))
    folded = solver._plan(alg, system, fold=True)
    assert folded[3] == sorted(v - 1 for v in _folded_variables(alg, system))
    ref_sol, ref_tested, ref_nodes = _reference_scan(
        alg, system, enumerate_bounded_weight(n, bound, size, z)
    )
    if ref_sol is not None:
        expected = SolutionFound(ref_sol, verified=True)
    else:
        expected = NoSolutionExhaustive() if bound >= n else NoSolutionInBoundedSet(bound=bound)
    for chunk in (1, 7, 64, solver._CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_CHUNK", chunk)
            out = solve_bounded(alg, system, z=z, bound=bound)
        assert out.verdict == expected
        assert out.stats == solver.SolveStats(ref_tested, ref_nodes)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_folded_variables_alone_decide_every_equation(group_fixtures, lattice, data):
    # every point of A^V, V the mentioned variables, with 0 elsewhere: the
    # points that agree on V' give each side of each equation one value
    import supersolve.solver as solver

    alg = data.draw(st.sampled_from([*group_fixtures, lattice]))
    system = data.draw(_foldable_systems(alg, 3))
    mentioned, read = solver._plan(alg, system)[3], solver._plan(alg, system, fold=True)[3]
    assert set(read) <= set(mentioned)
    sides = {}
    for p in itertools.product(range(alg.size), repeat=len(mentioned)):
        a = [0] * system.n
        for c, v in zip(mentioned, p):
            a[c] = v
        values = tuple(eval_term(alg, t, a) for eq in system.equations for t in eq)
        assert sides.setdefault(tuple(a[c] for c in read), values) == values


def _assert_layout(alg, system, fold):
    """_plan's layout of system: each reached node computed once, after its
    arguments, and freed at its last reader (a node id, or ~k for equation
    k's comparison); see the test below."""
    import supersolve.solver as solver

    table = system.table
    nodes, plan, frees, cols = solver._plan(alg, system, fold=fold)
    folded = {i for i, node in enumerate(nodes) if node != table.nodes[i]}
    assert all(isinstance(nodes[i][0], Const) and not nodes[i][1] for i in folded)
    assert all(table.nodes[i][1] for i in folded) and (fold or not folded)
    # the nodes on a path to a root that passes through no folded node
    reached, stack = set(), list(table.roots)
    while stack:
        i = stack.pop()
        if i not in reached:
            reached.add(i)
            stack.extend(() if i in folded else table.nodes[i][1])
    order, computed, uses = [], set(), {}
    for k, (lhs, rhs, cost, todo) in enumerate(plan):
        assert (lhs, rhs) == table.roots[2 * k : 2 * k + 2]
        assert cost == sum(map(term_length, system.equations[k]))
        for i in todo:
            assert i <= max(lhs, rhs) and set(nodes[i][1]) <= computed
            computed.add(i)
            uses.update((a, i) for a in nodes[i][1])
        assert {lhs, rhs} <= computed
        uses[lhs] = uses[rhs] = ~k
        order += todo
    assert order == sorted(set(order))  # ascending, and disjoint across equations
    assert sorted((a, reader) for reader, ids in frees.items() for a in ids) == sorted(uses.items())
    assert set(uses) == computed
    assert computed == (reached if fold else set(range(len(table.nodes))))
    assert cols == sorted(nodes[i][0].index - 1 for i in computed if isinstance(nodes[i][0], Var))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_plan_lays_out_each_reached_node_once(group_fixtures, lattice, data):
    # todo lists ascending and disjoint, each argument computed before its
    # node, each computed node freed once at its last use, every node
    # computed without a fold, and with one exactly those that the roots
    # reach without passing through a folded node; cols are their variables
    alg = data.draw(st.sampled_from([*group_fixtures, lattice]))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for system in (random_system(rng, alg, max_n=5, max_s=3), data.draw(_foldable_systems(alg, 4))):
        for fold in (False, True):
            _assert_layout(alg, system, fold)


def test_brute_scans_the_unfolded_system_over_every_mentioned_variable(monkeypatch, z4):
    # the first equation folds to #0 = #1, so solve_bounded reads x2 and x3
    # only, while brute builds x1's column too and evaluates every row
    import supersolve.solver as solver

    system = parse_system("add(x1, neg(x1)) = #1\nadd(x2, x3) = x2")
    lex_chunks, weight_chunks, seen = solver._lex_chunks, solver._weight_chunks, []

    def lex_spy(n, size, cols, chunk):
        seen.append(("brute", list(cols)))
        for X in lex_chunks(n, size, cols, chunk):
            seen.append(("brute rows", X.shape))
            yield X

    def weight_spy(w, size, z, cols, chunk):
        seen.append(("bounded", list(cols)))
        return weight_chunks(w, size, z, cols, chunk)

    monkeypatch.setattr(solver, "_lex_chunks", lex_spy)
    monkeypatch.setattr(solver, "_weight_chunks", weight_spy)
    monkeypatch.setattr(solver, "_CHUNK", 7)
    brute, bounded = solve_brute(z4, system), solve_bounded(z4, system)
    assert brute.verdict == NoSolutionExhaustive()
    assert brute.stats == solver.SolveStats(64, 64 * 5)
    assert bounded.stats.candidates_tested == 64
    assert seen[0] == ("brute", [0, 1, 2]) and seen[-1] == ("bounded", [1, 2])
    shapes = [shape for kind, shape in seen if kind == "brute rows"]
    assert sum(rows for rows, _ in shapes) == 64 and {cols for _, cols in shapes} == {3}


def test_stats_match_sequential_reference(z4, z2, q8):
    rng = random.Random(123)
    for alg in (z2, z4, q8):
        for _ in range(40):
            _assert_matches_reference(
                alg, random_system(rng, alg, max_n=4, max_s=2, max_depth=3)
            )


def _sum_of_copies(t, copies):
    """The text of t + t + ... + t (copies terms), nested to the left."""
    text = t
    for _ in range(copies - 1):
        text = f"add({text}, {t})"
    return text


@pytest.mark.parametrize(
    "order, text, distinct",
    [
        # t + ... + t = #1 with exponent copies: unsatisfiable, and the
        # copies of t are distinct objects that the solver shares
        (3, _sum_of_copies("add(x1, neg(x3))", 3) + " = #1", 7),
        (4, _sum_of_copies("add(neg(x2), add(x1, x3))", 4) + " = #1\nx1 = x2", 10),
        (5, _sum_of_copies("add(x1, x2)", 5) + " = #1\nx4 = x3", 10),
        # a subterm, a constant and a nullary operation shared across equations
        (4, "add(neg(x1), zero()) = add(x2, #1)\nneg(x1) = add(#1, zero())\n"
            "add(x3, #1) = add(x2, #1)", 10),
        # equation 1 leaves no row of many chunks; the solution comes after
        # the filtering, outside the first chunk
        (4, "x1 = #3\nadd(x2, x4) = #3\nx4 = #1", 6),
        (3, "x2 = #2\nadd(x1, x1) = x3\nadd(x1, neg(x3)) = #0\nx4 = x2", 9),
        (4, "x3 = #0\nadd(x1, x2) = #1", 6),
        (3, "x1 = x2\nx1 = x2\nadd(x3, x3) = x3\nneg(x2) = #1", 6),
    ],
)
def test_shared_nodes_and_surviving_rows_match_reference(monkeypatch, order, text, distinct):
    import supersolve.solver as solver

    alg, system = cyclic_group(order), parse_system(text)
    nodes, plan, _, cols = solver._plan(alg, system)
    assert cols == sorted({v - 1 for v in _variables(system)})
    assert len(nodes) == distinct
    assert [eq[2] for eq in plan] == [
        term_length(lhs) + term_length(rhs) for lhs, rhs in system.equations
    ]
    for chunk in (1, 7, 64):
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        _assert_matches_reference(alg, system)


def test_oracle_equivalence_small(z2, z4, k4):
    rng = random.Random(77)
    for alg in (z2, z4, k4):
        for _ in range(60):
            system = random_system(rng, alg, max_n=4, max_s=2, max_depth=3)
            bounded = solve_bounded(alg, system)
            brute = solve_brute(alg, system)
            assert bounded.satisfiable == brute.satisfiable


def test_found_solutions_verified_and_weight_bounded(z2, z6):
    rng = random.Random(31)
    for alg in (z2, z6):
        for _ in range(80):
            system = random_system(rng, alg, max_n=5, max_s=2, max_depth=3)
            out = solve_bounded(alg, system)
            if isinstance(out.verdict, SolutionFound):
                assert out.verdict.verified
                a = out.verdict.assignment
                assert all(
                    eval_term(alg, lhs, a) == eval_term(alg, rhs, a)
                    for lhs, rhs in system.equations
                )
                report = make_bound_report(system.s, max_arity(alg), alg.size, n=system.n)
                assert weight(a) <= report.effective_bound


def test_verdict_monotone_in_bound(z2, z6):
    rng = random.Random(55)
    for alg in (z2, z6):
        for _ in range(40):
            system = random_system(rng, alg, max_n=5, max_s=1, max_depth=3)
            tight = make_bound_report(system.s, max_arity(alg), alg.size, n=system.n).tight_bound
            a = solve_bounded(alg, system, bound=tight)
            b = solve_bounded(alg, system, bound=tight + 1)
            assert a.satisfiable == b.satisfiable


def test_verdict_independent_of_z(z2, z3, z6):
    rng = random.Random(99)
    for alg in (z2, z3, z6):
        for _ in range(30):
            system = random_system(rng, alg, max_n=4, max_s=2, max_depth=3)
            verdicts = {
                solve_bounded(alg, system, z=z).satisfiable for z in range(alg.size)
            }
            assert len(verdicts) == 1


def test_exhaustive_upgrade_when_bound_covers_n(z4):
    out = solve_bounded(z4, parse_system("add(x1, #1) = x1"), bound=5)
    assert out.verdict == NoSolutionExhaustive()


def test_normalize_system(z4, z2):
    d = find_malcev(z4)
    system = parse_system("x1 = #2")
    hs = normalize_system(z4, system, d, 0)
    sols_h = {a for a in range(4) if all(eval_term(z4, h, (a,)) == 0 for h in hs)}
    assert sols_h == {2}

    # f = g gives h identically z
    same = parse_system("add(x1, x2) = add(x1, x2)")
    for z in range(4):
        hs = normalize_system(z4, same, d, z)
        for a in itertools.product(range(4), repeat=2):
            assert eval_term(z4, hs[0], a) == z

    d2 = find_malcev(z2)
    rng = random.Random(13)
    for _ in range(25):
        system = random_system(rng, z2, max_n=4, max_s=2, max_depth=3)
        hs = normalize_system(z2, system, d2, 0)
        for a in itertools.product(range(2), repeat=system.n):
            direct = all(
                eval_term(z2, lhs, a) == eval_term(z2, rhs, a)
                for lhs, rhs in system.equations
            )
            through_h = all(eval_term(z2, h, a) == 0 for h in hs)
            assert direct == through_h


def test_normalize_rejects_non_malcev(z4):
    from supersolve.malcev import TernaryFunctionTable
    from supersolve.terms import Var

    proj = TernaryFunctionTable(4, tuple(x for x in range(4) for _ in range(16)), Var(1))
    with pytest.raises(ValueError, match="Mal'cev"):
        normalize_system(z4, parse_system("x1 = #0"), proj, 0)


def test_bench_counts_when_spaces_coincide(z4):
    # unsatisfiable, and the bound covers n: both solvers scan |A|^n candidates
    system = parse_system("add(x1, #1) = x1\nx2 = x2")
    result = bench(z4, system)
    assert result.agree
    assert not result.bounded.satisfiable
    assert result.bounded.stats.candidates_tested == 16
    assert result.brute.stats.candidates_tested == 16


def test_bench_reports_disagreement_field(z2):
    system = parse_system("add(x1, x2) = #1")
    result = bench(z2, system)
    assert result.agree
    assert result.bounded.satisfiable and result.brute.satisfiable
    assert result.bounded_seconds >= 0
    assert result.brute_seconds >= 0


@pytest.mark.parametrize(
    "fixture, text, z, bound, expected",
    [
        # weight 2 on the 9th of 10 supports: mid-chunk once chunks pack supports
        ("z3", "x3 = #1\nx5 = #2\nadd(x1, x1) = x1", 0, None, (0, 0, 1, 0, 2)),
        ("z3", "x2 = #0\nx4 = #2\nadd(x1, x6) = #2", 1, 3, (1, 0, 1, 2, 1, 1)),
        ("z3", "x1 = x2\nadd(x3, x3) = x3\nx4 = #1\nadd(x7, neg(x7)) = #1", 0, 3, None),
        ("z2", "add(x16, x16) = #1", 0, 3, None),
        ("z4", "add(x2, x5) = #3\nadd(x3, neg(x3)) = #1", 2, None, None),
    ],
)
def test_outcome_independent_of_chunk_size(request, monkeypatch, fixture, text, z, bound, expected):
    import supersolve.solver as solver

    alg = request.getfixturevalue(fixture)
    system = parse_system(text)
    default = solve_bounded(alg, system, z=z, bound=bound)
    assert default.satisfiable == (expected is not None)
    if expected is not None:
        assert default.verdict == SolutionFound(expected, verified=True)
    for chunk in (1, 7, 64):
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        assert solve_bounded(alg, system, z=z, bound=bound) == default
