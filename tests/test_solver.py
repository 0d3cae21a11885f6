import itertools
import random

import numpy as np
import pytest

from supersolve.algebra import AlgebraError, max_arity
from supersolve.bounds import make_bound_report
from supersolve.malcev import find_malcev
from supersolve.solver import (
    NoSolutionExhaustive,
    NoSolutionInBoundedSet,
    SolutionFound,
    bench,
    bounded_weight_count,
    enumerate_bounded_weight,
    normalize_system,
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


def test_vectorized_chunks_match_generator_order():
    from supersolve.solver import _lex_chunks, _weight_chunks

    for n, w, size, z in [(0, 0, 3, 0), (3, 1, 4, 0), (2, 1, 3, 1), (4, 4, 3, 2), (5, 2, 2, 0)]:
        chunked = [
            tuple(int(v) for v in row)
            for X in _weight_chunks(n, w, size, z, chunk=7)
            for row in X
        ]
        assert chunked == list(enumerate_bounded_weight(n, w, size, z))
    for n, size in [(0, 2), (1, 4), (3, 3), (4, 2)]:
        chunked = [
            tuple(int(v) for v in row)
            for X in _lex_chunks(n, size, chunk=5)
            for row in X
        ]
        assert chunked == list(itertools.product(range(size), repeat=n))
        assert all(X.dtype == np.uint8 for X in _lex_chunks(n, size, chunk=5))
    # chunk=64 packs whole supports with a remainder (36 weight-2 supports,
    # 14 per chunk); at n=40 the cell cap binds (8 * 64 // 40 = 12 rows)
    for n, w, size, z, chunk in [(9, 3, 3, 1, 64), (40, 2, 2, 0, 64), (6, 4, 3, 0, 1)]:
        chunks = list(_weight_chunks(n, w, size, z, chunk=chunk))
        assert all(X.dtype == np.uint8 for X in chunks)
        assert all(0 < len(X) <= min(chunk, 8 * chunk // n) or len(X) == 1 for X in chunks)
        chunked = [tuple(int(v) for v in row) for X in chunks for row in X]
        assert chunked == list(enumerate_bounded_weight(n, w, size, z))
    assert max(len(X) for X in _weight_chunks(9, 2, 3, 1, chunk=64)) == 14 * 4
    # the brute scan has the same cap: 8 * 16 // 10 = 12 rows per chunk
    chunks = list(_lex_chunks(10, 2, chunk=16))
    assert all(len(X) <= 12 for X in chunks) and len(chunks) == -(-1024 // 12)
    chunked = [tuple(int(v) for v in row) for X in chunks for row in X]
    assert chunked == list(itertools.product(range(2), repeat=10))


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


def test_stats_match_sequential_reference(z4, z2, q8):
    rng = random.Random(123)
    for alg in (z2, z4, q8):
        for _ in range(40):
            system = random_system(rng, alg, max_n=4, max_s=2, max_depth=3)
            n = system.n

            out = solve_brute(alg, system)
            ref_sol, ref_tested, ref_nodes = _reference_scan(
                alg, system, itertools.product(range(alg.size), repeat=n)
            )
            got_sol = out.verdict.assignment if isinstance(out.verdict, SolutionFound) else None
            assert got_sol == (tuple(ref_sol) if ref_sol is not None else None)
            assert out.stats.candidates_tested == ref_tested
            assert out.stats.term_evaluations == ref_nodes

            bound = make_bound_report(system.s, max_arity(alg), alg.size, n=n).effective_bound
            out = solve_bounded(alg, system)
            ref_sol, ref_tested, ref_nodes = _reference_scan(
                alg, system, enumerate_bounded_weight(n, bound, alg.size, 0)
            )
            got_sol = out.verdict.assignment if isinstance(out.verdict, SolutionFound) else None
            assert got_sol == (tuple(ref_sol) if ref_sol is not None else None)
            assert out.stats.candidates_tested == ref_tested
            assert out.stats.term_evaluations == ref_nodes


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
