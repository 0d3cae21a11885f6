"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import itertools
import random
import time

from supersolve.absorbing import (
    TabulatedFunction,
    absorbing_degree,
    decompose,
    restrict_vector,
)
from supersolve.algebra import apply_op
from supersolve.bounds import make_bound_report
from supersolve.malcev import MalcevNotFound, find_malcev, is_malcev
from supersolve.solver import solve_bounded, solve_brute
from supersolve.terms import eval_term, parse_system
from supersolve.witness import SubsetFunction, ks_find_u, redweight_find_u

from oracles import component_moebius, is_absorbing_in
from sampling import random_system


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status} {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_criterion_1_oracle_equivalence(group_fixtures):
    started = time.perf_counter()
    disagreements = 0
    total = 0
    for alg in group_fixtures:
        rng = random.Random(1000 + alg.size * 31 + len(alg.name))
        for _ in range(500):
            system = random_system(rng, alg, max_n=6, max_s=2, max_depth=4)
            bounded = solve_bounded(alg, system)
            brute = solve_brute(alg, system)
            total += 1
            if bounded.satisfiable != brute.satisfiable:
                disagreements += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "oracle equivalence of bounded and brute solvers",
        disagreements == 0 and elapsed < 300,
        f"{total} systems over 7 algebras, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_bound_arithmetic():
    r4 = make_bound_report(1, 2, 4)
    r6 = make_bound_report(1, 2, 6)
    ok = (
        r4.tight_bound == 12
        and r4.loose_bound == 256
        and r4.e == 257
        and r6.tight_bound == 3
    )
    report(
        2,
        "bound arithmetic for (s=1, mu=2, |A|=4) and (s=1, mu=2, |A|=6)",
        ok,
        f"tight={r4.tight_bound} loose={r4.loose_bound} e={r4.e}; tight6={r6.tight_bound}",
    )


def test_criterion_3_absorbing_decomposition_exhaustive():
    started = time.perf_counter()
    failures = 0
    checked = 0
    for n in range(0, 4):
        points = list(itertools.product(range(2), repeat=n))
        for table in itertools.product(range(2), repeat=2**n):
            f = TabulatedFunction(2, n, 2, table)
            dec = decompose(f)
            checked += 1
            for idx, a in enumerate(points):
                total = sum(c.table[idx] for c in dec.components.values()) % 2
                if total != f.table[idx]:
                    failures += 1
            for mask, comp in dec.components.items():
                if not is_absorbing_in(comp, mask):
                    failures += 1
                for idx, a in enumerate(points):
                    if component_moebius(f, mask, a) != comp.table[idx]:
                        failures += 1
    elapsed = time.perf_counter() - started
    report(
        3,
        "absorbing decomposition over all |A|=2, n<=3, p=2 functions",
        failures == 0 and elapsed < 10,
        f"{checked} functions, {failures} failures, {elapsed:.1f}s",
    )


def _masks_upto(n, k):
    out = []
    for size in range(min(k, n) + 1):
        for idxs in itertools.combinations(range(n), size):
            out.append(sum(1 << i for i in idxs))
    return out


def _phi_sum(values, u, p):
    total = 0
    for mask, (v,) in values.items():
        if mask & ~u == 0:
            total = (total + v) % p
    return total


def test_criterion_4_ks_theorem_checker():
    started = time.perf_counter()
    rng = random.Random(4242)
    checked = 0
    for n in range(1, 5):
        for k in range(0, 3):
            for p in (2, 3):
                masks = _masks_upto(n, k)
                space = p ** len(masks)
                if space <= 10**6:
                    assignments = itertools.product(range(p), repeat=len(masks))
                else:  # pragma: no cover - not hit for these parameters
                    assignments = (
                        tuple(rng.randrange(p) for _ in masks) for _ in range(10**4)
                    )
                for values_tuple in assignments:
                    values = {m: (v,) for m, v in zip(masks, values_tuple)}
                    phi = SubsetFunction(n=n, k=k, p=p, m=1, values=values)
                    u = ks_find_u(phi)  # raises TheoremViolation on failure
                    assert u.bit_count() <= min(n, k * (p - 1))
                    full = (1 << n) - 1
                    assert _phi_sum(values, u, p) == _phi_sum(values, full, p)
                    checked += 1
    elapsed = time.perf_counter() - started
    report(
        4,
        "subset-sum witness exists within k*m*(p-1) for all phi",
        True,
        f"{checked} functions phi, 0 violations, {elapsed:.1f}s",
    )


def _multilinear(n, coeff_by_mask, p=2):
    table = []
    for point in itertools.product(range(2), repeat=n):
        ones = sum(1 << i for i, v in enumerate(point) if v == 1)
        total = sum(v for m, v in coeff_by_mask.items() if m & ~ones == 0)
        table.append(total % p)
    return TabulatedFunction(2, n, p, tuple(table))


def test_criterion_5_weight_reduction_checker():
    started = time.perf_counter()
    rng = random.Random(555)
    checked = 0
    for n in range(1, 5):
        for k in range(0, 3):
            for m in (1, 2):
                for _ in range(100):
                    fs = [
                        _multilinear(
                            n, {mask: rng.randrange(2) for mask in _masks_upto(n, k)}
                        )
                        for _ in range(m)
                    ]
                    for f in fs:
                        assert absorbing_degree(f) <= k
                    a = tuple(rng.randrange(2) for _ in range(n))
                    u = redweight_find_u(fs, k, a)
                    assert u.bit_count() <= min(n, k * m * (2 - 1))
                    restricted = restrict_vector(a, u)
                    assert all(f(restricted) == f(a) for f in fs)
                    checked += 1
    elapsed = time.perf_counter() - started
    report(
        5,
        "weight-reduction witness for constructed low-degree tuples",
        True,
        f"{checked} tuples, 0 violations, {elapsed:.1f}s",
    )


def test_criterion_6_malcev_discovery(group_fixtures, lattice):
    ok = True
    details = []
    for alg in group_fixtures:
        started = time.perf_counter()
        result = find_malcev(alg)
        elapsed = time.perf_counter() - started
        good = (
            not isinstance(result, MalcevNotFound)
            and is_malcev(result)
            and all(
                eval_term(alg, result.witness, (x, y, z)) == result(x, y, z)
                for x in range(alg.size)
                for y in range(alg.size)
                for z in range(alg.size)
            )
            and elapsed < 30
        )
        ok = ok and good
        details.append(f"{alg.name} {elapsed:.2f}s")
    started = time.perf_counter()
    lattice_result = find_malcev(lattice)
    elapsed = time.perf_counter() - started
    ok = ok and lattice_result == MalcevNotFound(complete=True, tables_explored=18)
    ok = ok and elapsed < 30
    details.append(f"lattice2 none/complete {elapsed:.2f}s")
    report(6, "Mal'cev discovery on groups, refutation on the lattice", ok, ", ".join(details))


def test_criterion_7_performance_gap(z2):
    system = parse_system("add(x16, x16) = #1\n")
    bounded, brute = solve_bounded(z2, system), solve_brute(z2, system)
    bounded_tested = bounded.stats.candidates_tested
    brute_tested = brute.stats.candidates_tested
    ok = (
        bounded.satisfiable == brute.satisfiable
        and bounded_tested <= 17
        and brute_tested == 65536
        and not bounded.satisfiable
    )
    report(
        7,
        "bounded scan is polynomial-sized where brute force is exponential",
        ok,
        f"bounded {bounded_tested} vs brute {brute_tested} candidates, verdicts agree",
    )


def _z4_parity(v):
    return v % 2


_K4_PROJECTIONS = (lambda v: v >> 1, lambda v: v & 1, lambda v: (v >> 1) ^ (v & 1))


def _group_polynomial_table(alg, n, constant, multiples, proj):
    def m_fold(m, a):
        acc = 0
        for _ in range(m):
            acc = apply_op(alg, "add", [acc, a])
        return acc

    table = []
    for point in itertools.product(range(alg.size), repeat=n):
        acc = constant
        for m, a in zip(multiples, point):
            acc = apply_op(alg, "add", [acc, m_fold(m, a)])
        table.append(proj(acc))
    return TabulatedFunction(alg.size, n, 2, tuple(table))


def test_criterion_8_abelian_absorbing_degree(z4, k4):
    started = time.perf_counter()
    rng = random.Random(88)
    checked = 0
    worst = -1
    for alg, projections in ((z4, (_z4_parity,)), (k4, _K4_PROJECTIONS)):
        for _ in range(1000):
            n = rng.randint(1, 3)
            constant = rng.randrange(alg.size)
            multiples = [rng.randrange(4) for _ in range(n)]
            proj = projections[rng.randrange(len(projections))]
            f = _group_polynomial_table(alg, n, constant, multiples, proj)
            deg = absorbing_degree(f)
            worst = max(worst, deg)
            assert deg <= 1, (alg.name, constant, multiples, deg)
            checked += 1
    elapsed = time.perf_counter() - started
    report(
        8,
        "abelian group polynomials have absorbing degree <= 1",
        worst <= 1,
        f"{checked} polynomials, max degree {worst}, {elapsed:.1f}s",
    )
