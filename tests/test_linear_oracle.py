"""The solvers against an exact decision procedure for linear systems.

Over groups.cyclic_group(m) every term is affine, so a system is
A x = b (mod m), which Smith normal form over Z decides in polynomial time
(Goldmann and Russell, Information and Computation 2002).  The oracle in
tests/oracles.py answers with a solution or with a certificate y, y A = 0
and y b != 0 (mod m); each is checked here through the plain evaluator.
Over groups.klein_four() a system is one such system over Z2 for each
coordinate, and a certificate is that of the coordinate that fails.
"""

import random

import pytest

from supersolve.groups import cyclic_group, klein_four
from supersolve.solver import solve_bounded, solve_brute
from supersolve.terms import App, Const, EquationSystem, Var, eval_term

from oracles import linear_system, solve_klein_four, solve_linear, substitute
from sampling import random_system

MODULI = range(2, 7)
K4 = klein_four()


def _variables(system):
    return sorted(t.index for t, _ in system.table.nodes if isinstance(t, Var))


def _dense(rng, m, s):
    """s random equations a_1 x_1 + ... + a_6 x_6 = c, each a_i x_i as a_i
    nested adds, so that |V| often passes the default bound."""

    def side():
        t = Const(0)
        for i in range(1, 7):
            for _ in range(rng.randrange(m)):
                t = App("add", (t, Var(i)))
        return t

    return EquationSystem(tuple((side(), Const(rng.randrange(m))) for _ in range(s)))


def _spread(rng, system, n):
    """system with its variables moved to distinct random indices in 1..n."""
    indices = sorted(rng.sample(range(1, n + 1), system.n))
    mapping = {i: Var(j) for i, j in enumerate(indices, 1)}
    return EquationSystem(tuple(
        (substitute(lhs, mapping), substitute(rhs, mapping)) for lhs, rhs in system.equations
    ))


def _decide(alg, system):
    """The oracle's answer, with its solution or certificate checked.  A
    certificate is over Z_m, for one part of each value: all of it over
    Z_m, one bit over K4, which a variable's unit value sets."""
    cols = _variables(system)
    m, unit, part = alg.size, 1, lambda c: c
    if alg == K4:
        m, (sat, v) = 2, solve_klein_four(system, cols)
        if not sat:
            bit, v = v
            unit, part = 1 << bit, lambda c: c >> bit & 1
    else:
        sat, v = solve_linear(*linear_system(system, m, cols), m)
    if sat:
        a = [0] * system.n
        for c, x in zip(cols, v):
            a[c - 1] = x
        assert all(eval_term(alg, lhs, a) == eval_term(alg, rhs, a) for lhs, rhs in system.equations)
        return True
    A, b = linear_system(system, m, cols, part)
    assert not any(sum(y * row[j] for y, row in zip(v, A)) % m for j in range(len(cols)))
    assert sum(y * x for y, x in zip(v, b)) % m

    def combined(a):
        return sum(
            y * (part(eval_term(alg, lhs, a)) - part(eval_term(alg, rhs, a)))
            for y, (lhs, rhs) in zip(v, system.equations)
        ) % m

    # an affine function that takes one nonzero value at 0 and at every
    # unit vector of the mentioned coordinates is that value everywhere
    # (over K4 it reads one bit of each variable, which the units set)
    zero = [0] * system.n
    units = [[unit * (i == c - 1) for i in range(system.n)] for c in cols]
    assert combined(zero) and all(combined(a) == combined(zero) for a in units)
    return False


def _agrees_with_brute(alg, rng):
    verdicts = set()
    for _ in range(40):
        system = random_system(rng, alg, max_n=5, max_s=3)
        sat = _decide(alg, system)
        assert solve_brute(alg, system).satisfiable == sat, system
        verdicts.add(sat)
    assert verdicts == {True, False}


@pytest.mark.parametrize("m", MODULI)
def test_linear_oracle_agrees_with_brute(m):
    _agrees_with_brute(cyclic_group(m), random.Random(1300 + m))


def test_klein_four_oracle_agrees_with_brute():
    _agrees_with_brute(K4, random.Random(1304))


def _bounded_scan_agrees(alg, rng):
    # n up to 200 with at most 6 mentioned variables: the default bound is
    # the theorem's, below |V| for some systems over Z2, Z3, Z5 and Z6; a
    # bound of |V| or more covers every assignment of V, and a lower one
    # may only miss solutions
    m = alg.size
    verdicts = set()
    for k in range(80):
        if k % 2:
            system = random_system(rng, alg, max_n=6, max_s=3)
        else:
            system = _dense(rng, m, rng.randint(1, 3))
        system = _spread(rng, system, rng.randint(system.n, 200))
        sat, width = _decide(alg, system), len(_variables(system))
        for z in {0, rng.randrange(1, m)}:
            assert solve_bounded(alg, system, z=z).satisfiable == sat, (system, z)
            bound = rng.randrange(8)
            got = solve_bounded(alg, system, z=z, bound=bound).satisfiable
            assert got == sat if bound >= width else got <= sat, (system, z, bound)
        verdicts.add(sat)
    assert verdicts == {True, False}


@pytest.mark.parametrize("m", MODULI)
def test_bounded_scan_agrees_with_linear_oracle(m):
    _bounded_scan_agrees(cyclic_group(m), random.Random(1400 + m))


def test_bounded_scan_agrees_with_klein_four_oracle():
    # K4's default bound, 12 per equation, covers every V here, so only
    # the random bounds cut the scan short
    _bounded_scan_agrees(K4, random.Random(1404))
