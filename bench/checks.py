"""Output checks.  Each returns None when an output is right, else a message.

The expectations come from the workload's construction (see workloads.py),
not from an earlier run of the package, so a check fails on a wrong verdict
even when the wrong verdict repeats.
"""

from __future__ import annotations

import json
import os

from supersolve.algebra import load_algebra
from supersolve.malcev import TernaryFunctionTable, is_malcev
from supersolve.terms import eval_term, parse_system, parse_term


def _file(workload, argv, flag):
    return workload.files[os.path.basename(argv[argv.index(flag) + 1])]


def _doc(out):
    lines = out.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)} lines")
    doc = json.loads(lines[0])
    if doc.get("schema") != "supersolve/1":
        raise ValueError(f"schema {doc.get('schema')!r}")
    return doc


def check(op, code, out, workload):
    try:
        return _CHECKS[op.kind](op, code, out, workload)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"{op.label}: malformed output ({type(exc).__name__}: {exc})"


def _exit(op, code):
    want = op.expect["exit"]
    if want is not None and code != want:
        return f"{op.label}: exit code {code}, expected {want}"
    return None


def _check_solve(op, code, out, workload):
    e = op.expect
    problem = _exit(op, code)
    if problem:
        return problem
    doc = _doc(out)
    verdict, stats = doc["verdict"], doc["stats"]
    if verdict["kind"] != e["kind"]:
        return f"{op.label}: verdict {verdict['kind']}, expected {e['kind']}"
    if stats["candidates_tested"] != e["candidates"]:
        return f"{op.label}: {stats['candidates_tested']} candidates, expected {e['candidates']}"
    if doc["n"] != e["n"]:
        return f"{op.label}: n = {doc['n']}, expected {e['n']}"
    if e["kind"] == "no_solution_in_bounded_set":
        if verdict["bound"] != e["bound"] or verdict["conditional"] is not True:
            return f"{op.label}: bounded verdict {verdict}, expected bound {e['bound']}, conditional"
    if e["kind"] == "solution_found":
        if verdict["assignment"] != e["assignment"] or verdict["verified"] is not True:
            return f"{op.label}: solution {verdict['assignment']}, expected {e['assignment']}"
        alg = load_algebra(_file(workload, op.argv, "--algebra"))
        system = parse_system(_file(workload, op.argv, "--system"))
        point = verdict["assignment"]
        for lhs, rhs in system.equations:
            if eval_term(alg, lhs, point) != eval_term(alg, rhs, point):
                return f"{op.label}: reported solution fails re-verification"
    return None


def _check_brute(op, code, out, workload):
    e = op.expect
    problem = _exit(op, code)
    if problem:
        return problem
    doc = _doc(out)
    if doc["verdict"]["kind"] != e["kind"]:
        return f"{op.label}: verdict {doc['verdict']['kind']}, expected {e['kind']}"
    if doc["stats"]["candidates_tested"] != e["candidates"]:
        return f"{op.label}: {doc['stats']['candidates_tested']} candidates, expected {e['candidates']}"
    return None


def check_pair(solve_out, brute_out):
    """A same-set solve and brute must agree on verdict and on both counters."""
    a, b = _doc(solve_out), _doc(brute_out)
    sat_a = a["verdict"]["kind"] == "solution_found"
    sat_b = b["verdict"]["kind"] == "solution_found"
    if sat_a != sat_b:
        return "same-set solve and brute disagree on satisfiability"
    if not sat_a and a["stats"] != b["stats"]:
        return f"same-set counters differ: solve {a['stats']}, brute {b['stats']}"
    return None


def _witness_table(alg, term, size):
    return [
        eval_term(alg, term, (x, y, z))
        for x in range(size) for y in range(size) for z in range(size)
    ]


def _check_malcev(op, code, out, workload):
    e = op.expect
    doc = _doc(out)
    found = doc["found"]
    if code != (0 if found else 1):
        return f"{op.label}: exit code {code} with found={found}"
    problem = _exit(op, code)
    if problem:
        return problem
    alg = load_algebra(_file(workload, op.argv, "--algebra"))
    if found:
        if not e["found"]:
            return f"{op.label}: Mal'cev term reported where none exists"
        table = TernaryFunctionTable(alg.size, tuple(doc["table"]), parse_term(doc["witness"]))
        if not is_malcev(table):
            return f"{op.label}: reported table is not Mal'cev"
        if _witness_table(alg, table.witness, alg.size) != list(table.table):
            return f"{op.label}: witness term does not induce the reported table"
        return None
    if e["found"] and doc["complete"]:
        return f"{op.label}: closure reported complete without the Mal'cev term that exists"
    if "complete" in e and doc["complete"] != e["complete"]:
        return f"{op.label}: complete = {doc['complete']}, expected {e['complete']}"
    if not doc["complete"] and doc["tables_explored"] < e.get("cap", 0):
        return f"{op.label}: incomplete after {doc['tables_explored']} tables, below the cap"
    return None


def _check_clone(op, result, sample=16):
    tables, complete = result
    e = op.expect
    if complete is not e["complete"]:
        return f"{op.label}: complete = {complete}"
    if e["count"] is not None and len(tables) != e["count"]:
        return f"{op.label}: {len(tables)} tables, expected {e['count']}"
    if len({t.table for t in tables}) != len(tables):
        return f"{op.label}: duplicate tables"
    alg = op.algebra
    size = alg.size
    projections = [tuple(_witness_table(alg, parse_term(f"x{i}"), size)) for i in (1, 2, 3)]
    if [t.table for t in tables[:3]] != projections:
        return f"{op.label}: the closure does not start with the projections"
    step = max(1, len(tables) // sample)
    for t in tables[::step]:
        if _witness_table(alg, t.witness, size) != list(t.table):
            return f"{op.label}: a witness term does not induce its table"
    return None


def _check_absorb(op, code, out, workload):
    e = op.expect
    problem = _exit(op, code)
    if problem:
        return problem
    doc = _doc(out)
    p = e["prime"]
    components = doc["components"]
    sums = [sum(col) % p for col in zip(*components.values())]
    if sums != e["table"]:
        return f"{op.label}: components do not sum back to f"
    for mask, table in components.items():
        want = e["components"].get(mask)
        if (want is None and any(table)) or (want is not None and table != want):
            return f"{op.label}: component {mask} differs from the planted one"
    if doc["absorbing_degree"] != e["degree"]:
        return f"{op.label}: degree {doc['absorbing_degree']}, expected {e['degree']}"
    return None


def _witness_common(op, code, doc):
    problem = _exit(op, code)
    if problem:
        return problem
    u = doc["witness_mask"]
    indices = [i + 1 for i in range(u.bit_length()) if u >> i & 1]
    if doc["witness"] != indices or doc["size"] != len(indices):
        return f"{op.label}: witness fields disagree with the mask"
    if doc["bound"] != op.expect["bound"] or len(indices) > op.expect["bound"]:
        return f"{op.label}: |U| = {len(indices)} over the bound {op.expect['bound']}"
    return None


def _check_ks(op, code, out, workload):
    e = op.expect
    doc = _doc(out)
    problem = _witness_common(op, code, doc)
    if problem:
        return problem
    u, p, m = doc["witness_mask"], e["p"], e["m"]
    if u >> e["n"]:
        return f"{op.label}: U names coordinates beyond n"
    total, partial = [0] * m, [0] * m
    for mask, vec in e["phi"].items():
        mask = int(mask)
        for j in range(m):
            total[j] = (total[j] + vec[j]) % p
            if mask & ~u == 0:
                partial[j] = (partial[j] + vec[j]) % p
    if partial != total:
        return f"{op.label}: the subsets of U do not reproduce the total of phi"
    return None


def _check_redweight(op, code, out, workload):
    e = op.expect
    doc = _doc(out)
    problem = _witness_common(op, code, doc)
    if problem:
        return problem
    u, size, point = doc["witness_mask"], e["size"], e["point"]
    if u >> e["n"]:
        return f"{op.label}: U names coordinates beyond n"
    restricted = [v if u >> i & 1 else 0 for i, v in enumerate(point)]

    def index(a):
        idx = 0
        for v in a:
            idx = idx * size + v
        return idx

    for table in e["tables"]:
        if table[index(point)] != table[index(restricted)]:
            return f"{op.label}: f(a) differs from f(a restricted to U)"
    return None


_CHECKS = {
    "solve": _check_solve,
    "brute": _check_brute,
    "malcev": _check_malcev,
    "absorb": _check_absorb,
    "ks": _check_ks,
    "redweight": _check_redweight,
}


def check_clone(op, result):
    try:
        return _check_clone(op, result)
    except (ValueError, TypeError) as exc:
        return f"{op.label}: {type(exc).__name__}: {exc}"
