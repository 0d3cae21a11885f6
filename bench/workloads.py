"""Seeded workload generator for the supersolve benchmark.

Every operation is generated so that its verdict is known by construction:

* unsatisfiable systems contain ``t + t + ... + t = #1`` with as many
  copies of ``t`` as the group's exponent, so the left side is the
  identity (element 0) at every assignment;
* satisfiable systems are triangular in a planted support S: equation k
  holds the pivot variable x_{S_k} exactly once, next to later support
  variables, constants and cancelling pairs ``x_r * inv(x_r)``.  Every
  solution therefore agrees with the planted point p on S, so p (zero
  off S) is the first solution in canonical order and in lexicographic
  order, and its rank is known in advance;
* absorbing decompositions and reduce-witness inputs are sums of planted
  absorbing components, so each decomposition and degree bound is known.

The sizes of every operation class are fixed; the seed only chooses term
shapes, variables, constants, planted points and tables.  That keeps the
cost of a pass close to the same across seeds while the inputs differ.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, lcm

from supersolve.algebra import FiniteAlgebra, OperationTable, render_algebra
from supersolve.groups import (
    cyclic_group,
    dihedral_group,
    klein_four,
    quaternion_group,
    two_element_lattice,
)
from supersolve.terms import App, Const, EquationSystem, Var, eval_term, format_system

FIXTURES = {
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "K4": klein_four,
    "Z5": lambda: cyclic_group(5),
    "Z6": lambda: cyclic_group(6),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
}

# Each pass runs every operation once, and the metrics take each
# operation's median time over the passes, so a pass is kept to about 5 s:
# a run then holds several passes.  Every workload has at least 100
# operations, and the counts put the median and the 90th percentile of the
# per-operation times inside a group of operations of one cost class.

# unsat-scan, polynomial regime: (algebra, n, equations, leaves of t, copies per pass)
# The median falls among the Z3 n=24 scans and the 90th percentile among
# the Z2 n=50 scans.
UNSAT_POLY = [
    ("Z2", 30, 2, 4, 6), ("Z2", 40, 2, 4, 2), ("Z2", 50, 2, 4, 2), ("Z2", 60, 2, 4, 2),
    ("Z3", 24, 1, 3, 24), ("Z3", 32, 1, 3, 16), ("Z3", 40, 1, 3, 4),
    ("Z5", 12, 1, 2, 2), ("Z5", 14, 1, 2, 1), ("Z5", 16, 1, 2, 1),
    ("Z5", 18, 1, 2, 1), ("Z5", 20, 1, 2, 1),
]
# unsat-scan, same-set group (solve paired with brute):
# (algebra, n, --bound or None for the default, copies per pass)
UNSAT_SAME_SET = [
    ("Z2", 12, 12, 2), ("Z2", 13, 13, 1),
    ("Z4", 6, None, 3), ("Z4", 7, None, 3), ("Z4", 8, None, 3),
    ("K4", 6, None, 3), ("K4", 7, None, 3), ("K4", 8, None, 3),
]
# sat-early: (weight, n values, algebras, ops per (algebra, n)).  Weight-2
# scans hold the median and weight-4 scans the 90th percentile, each with
# room to spare on both sides.
SAT_CLASSES = [
    (2, (20, 25, 30), ("D4", "Q8", "K4", "Z4", "Z6", "Z5"), 5),
    (3, (20, 30), ("D4", "Q8", "K4", "Z4", "Z6", "Z5"), 1),
    (4, (20,), ("K4", "Z4", "Z5"), 5),
]
SAT_CANDIDATE_BUDGET = 50_000  # candidates of the planted weight scanned at most
# combinatorics: (shape, copies per pass).  45 operations cost less than a
# 3^5 decomposition, forty 3^5 decompositions hold the median, and the 2^7
# decompositions hold the 90th percentile.  The D4 and Q8 clones are left
# out: each takes about 3 s, which would leave a run too few passes.
CLONES = [("Z4", 2), ("Z6", 3)]
MALCEV_FIXTURES = ("Z2", "Z3", "Z4", "K4", "Z5", "Z6", "D4", "Q8")
GROUPOIDS = [(2, 2), (3, 2), (4, 2)]  # (size, copies of each kind)
GROUPOID_CAP = 150
ABSORB = [((3, 4), 5), ((2, 6), 8), ((3, 5), 40), ((2, 7), 6), ((3, 6), 4), ((2, 8), 1)]  # (|A|, n)
KS = [((6, 1, 2, 1), 2), ((8, 2, 2, 1), 2), ((10, 1, 2, 2), 3)]  # (n, k, p, m)
REDWEIGHT = [((2, 5, 1, 2, 1), 2), ((3, 4, 2, 2, 1), 2)]  # (|A|, n, k, p, m)
# the fixed same-set pair that stands in where a workload runs no solve or brute
CALIBRATION = ("Z4", 8)
# the fixed small problem timed by cold_start_s
COLD_START_SYSTEM = "add(add(x1, x2), x3) = #3\n"


@dataclass
class Op:
    """One operation: a CLI call (argv) or a direct ternary_term_clone call."""

    kind: str  # solve | brute | malcev | clone | absorb | ks | redweight
    label: str  # operation class; identical across seeds
    argv: list | None
    expect: dict
    pair: int | None = None  # same-set pair id shared by a solve and a brute
    algebra: FiniteAlgebra | None = None


@dataclass
class Workload:
    name: str
    ops: list
    files: dict = field(default_factory=dict)  # file name -> text
    calibration: list = field(default_factory=list)
    cold_start_argv: list = field(default_factory=list)

    def warmup_ops(self):
        """The cheapest operation of each operation kind."""
        cheapest = {}
        for op in self.ops:
            cost = op.expect.get("cost", 0)
            if op.kind not in cheapest or cost < cheapest[op.kind][0]:
                cheapest[op.kind] = (cost, op)
        return [op for _, op in cheapest.values()]

    def write(self, workdir):
        os.makedirs(workdir, exist_ok=True)
        for name, text in self.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                handle.write(text)


# ---------------------------------------------------------------------------
# helpers shared by the generators and the checks


def signature(alg):
    """(binary, inverse, identity) operation names of a group fixture."""
    names = {op.name for op in alg.operations}
    return ("add", "neg", "zero") if "add" in names else ("mul", "inv", "e")


def exponent(alg):
    """Least e with x^e = 0 for every element (0 is the identity)."""
    table = alg.operation(signature(alg)[0]).table
    size = alg.size
    e = 1
    for x in range(size):
        power, order = x, 1
        while power != 0:
            power = table[power * size + x]
            order += 1
        e = lcm(e, order)
    return e


def factorize(m):
    out, d = [], 2
    while d * d <= m:
        a = 0
        while m % d == 0:
            m //= d
            a += 1
        if a:
            out.append((d, a))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def expected_tight_bound(s, mu, size):
    """The tight weight bound, computed here independently of the package."""
    return s * sum(
        (mu * (p**a - 1)) ** (a - 1) * a * (p - 1) for p, a in factorize(size)
    )


def bounded_count(n, w, q):
    return sum(comb(n, i) * (q - 1) ** i for i in range(min(w, n) + 1))


def support_count(n, w):
    return sum(comb(n, i) for i in range(min(w, n) + 1))


def comb_rank(support, n):
    """Lexicographic rank of a sorted 0-based combination of range(n)."""
    w, rank, prev = len(support), 0, -1
    for t, s in enumerate(support):
        for x in range(prev + 1, s):
            rank += comb(n - 1 - x, w - 1 - t)
        prev = s
    return rank


def comb_unrank(rank, n, w):
    out, x = [], 0
    for t in range(w):
        while True:
            block = comb(n - 1 - x, w - 1 - t)
            if rank < block:
                out.append(x)
                x += 1
                break
            rank -= block
            x += 1
    return out


def canonical_rank(n, q, support, values, z=0):
    """Position of an assignment in the solver's canonical bounded order."""
    w = len(support)
    before = bounded_count(n, w - 1, q) if w else 0
    block = (q - 1) ** w
    digits = 0
    for v in values:
        digits = digits * (q - 1) + (v - (v > z))
    return before + comb_rank(support, n) * block + digits


def product_tree(rng, op, items):
    """A random bracketing of items (left-to-right order kept) under op."""
    items = list(items)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i : i + 2] = [App(op, (items[i], items[i + 1]))]
    return items[0]


def _cancelling_pair(rng, sig, r):
    bin_, inv, _ = sig
    pair = [Var(r), App(inv, (Var(r),))]
    rng.shuffle(pair)
    return App(bin_, tuple(pair))


def _random_word(rng, sig, n, leaves, must=None):
    """A product of `leaves` random variables (one inverted): 2*leaves nodes."""
    bin_, inv, _ = sig
    items = [Var(rng.randint(1, n)) for _ in range(leaves)]
    if must is not None:
        items[rng.randrange(leaves)] = Var(must)
    j = rng.randrange(leaves)
    items[j] = App(inv, (items[j],))
    return product_tree(rng, bin_, items)


# ---------------------------------------------------------------------------
# unsat-scan


def _unsat_system(rng, alg, n, s, leaves):
    sig = signature(alg)
    t = _random_word(rng, sig, n, leaves, must=n)
    equations = [(product_tree(rng, sig[0], [t] * exponent(alg)), Const(1))]
    for _ in range(s - 1):
        equations.append((_random_word(rng, sig, n, leaves), Const(rng.randrange(alg.size))))
    rng.shuffle(equations)
    return EquationSystem(tuple(equations))


def _algebra_files(wl, names):
    algebras = {}
    for name in names:
        alg = FIXTURES[name]()
        algebras[name] = alg
        wl.files[f"{name}.json"] = render_algebra(alg)
    return algebras


def _unsat_ops(rng, wl, algebras, workdir, poly, same_set, tag=""):
    ops = []
    counter = 0
    for name, n, s, leaves, copies in poly:
        alg = algebras[name]
        for _ in range(copies):
            system = _unsat_system(rng, alg, n, s, leaves)
            fname = f"{tag}unsat{counter}.txt"
            counter += 1
            wl.files[fname] = format_system(system)
            w = expected_tight_bound(s, 2, alg.size)
            ops.append(_solve_op(f"poly/{name}/n{n}", workdir, name, fname, alg, n, w, None))
    pair = 0
    for name, n, bound, copies in same_set:
        alg = algebras[name]
        for _ in range(copies):
            system = _unsat_system(rng, alg, n, 1, 3)
            fname = f"{tag}pair{pair}.txt"
            wl.files[fname] = format_system(system)
            w = bound if bound is not None else expected_tight_bound(1, 2, alg.size)
            solve = _solve_op(f"same-set/{name}/n{n}", workdir, name, fname, alg, n, w, bound)
            solve.pair = pair
            brute = Op(
                "brute",
                f"same-set/{name}/n{n}/brute",
                ["brute", "--algebra", _path(workdir, f"{name}.json"),
                 "--system", _path(workdir, fname), "--json"],
                {"exit": 1, "kind": "no_solution_exhaustive",
                 "candidates": alg.size**n, "cost": alg.size**n},
                pair=pair,
            )
            ops += [solve, brute]
            pair += 1
    return ops


def _solve_op(label, workdir, name, fname, alg, n, w, bound):
    effective = min(n, w) if bound is None else bound
    argv = ["solve", "--algebra", _path(workdir, f"{name}.json"),
            "--system", _path(workdir, fname), "--json"]
    if bound is not None:
        argv += ["--bound", str(bound)]
    if effective >= n:
        kind = "no_solution_exhaustive"
    else:
        kind = "no_solution_in_bounded_set"
    candidates = bounded_count(n, effective, alg.size)
    return Op(
        "solve", label, argv,
        {"exit": 1, "kind": kind, "bound": effective, "candidates": candidates,
         "n": n, "cost": support_count(n, effective)},
    )


def _path(workdir, name):
    return os.path.join(workdir, name)


def unsat_scan(rng, workdir, small=False):
    wl = Workload("unsat-scan", [])
    algebras = _algebra_files(wl, ("Z2", "Z3", "Z5", "Z4", "K4"))
    poly, same_set = UNSAT_POLY, UNSAT_SAME_SET
    if small:
        poly = [("Z2", 30, 2, 4, 1), ("Z3", 24, 1, 3, 1), ("Z5", 12, 1, 2, 1)]
        same_set = [("Z2", 10, 10, 1), ("Z4", 6, None, 1), ("K4", 6, None, 1)]
    wl.ops = _unsat_ops(rng, wl, algebras, workdir, poly, same_set)
    rng.shuffle(wl.ops)
    return wl


# ---------------------------------------------------------------------------
# sat-early


def _sat_system(rng, alg, n, support, values):
    """Triangular system whose solutions are exactly the x with x_S = values."""
    sig = signature(alg)
    q = alg.size
    sv = [i + 1 for i in support]
    point = [0] * n
    for i, v in zip(support, values):
        point[i] = v
    noise = [i for i in range(1, n + 1) if i not in sv]
    equations = []
    for k, pivot in enumerate(sv):
        later = sv[k + 1 :]
        items = [Var(pivot)]
        for _ in range(2):
            if later and rng.random() < 0.6:
                items.append(Var(rng.choice(later)))
            else:
                items.append(Const(rng.randrange(q)))
        for j in range(2):
            r = n if (k == 0 and j == 0 and n not in sv) else rng.choice(noise)
            items.append(_cancelling_pair(rng, sig, r))
        rng.shuffle(items)
        lhs = product_tree(rng, sig[0], items)
        equations.append((lhs, Const(eval_term(alg, lhs, point))))
    rng.shuffle(equations)
    return EquationSystem(tuple(equations)), tuple(point)


def _sat_classes(small):
    if small:
        return [(2, (12,), ("Z4", "D4"), 1), (3, (12,), ("Z5",), 1)]
    return SAT_CLASSES


def sat_early(rng, workdir, small=False):
    wl = Workload("sat-early", [])
    classes = _sat_classes(small)
    names = sorted({a for _, _, algs, _ in classes for a in algs})
    algebras = _algebra_files(wl, names)
    counter = 0
    for w, ns, names_w, per in classes:
        for name in names_w:
            alg = algebras[name]
            q = alg.size
            for n in ns:
                supports = min(comb(n, w), max(per, SAT_CANDIDATE_BUDGET // (q - 1) ** w))
                for j in range(per):
                    # op j plants its support near the middle of the j-th band
                    # of support ranks, so its scan length hardly varies by seed
                    lo, hi = j * supports // per, (j + 1) * supports // per
                    jitter = (hi - lo) // 20
                    rank = (lo + hi) // 2 + rng.randint(-jitter, jitter)
                    support = comb_unrank(rank, n, w)
                    values = [rng.randrange(1, q) for _ in support]
                    system, point = _sat_system(rng, alg, n, support, values)
                    fname = f"sat{counter}.txt"
                    counter += 1
                    wl.files[fname] = format_system(system)
                    rank = canonical_rank(n, q, support, values)
                    wl.ops.append(Op(
                        "solve", f"sat/{name}/n{n}/w{w}/band{j}",
                        ["solve", "--algebra", _path(workdir, f"{name}.json"),
                         "--system", _path(workdir, fname), "--json"],
                        {"exit": 0, "kind": "solution_found", "assignment": list(point),
                         "candidates": rank + 1, "n": n,
                         "cost": support_count(n, w - 1) + comb_rank(support, n)},
                    ))
    rng.shuffle(wl.ops)
    return wl


# ---------------------------------------------------------------------------
# combinatorics


def _absorbing_groupoid(rng, q, name):
    """A binary operation with absorbing element 0: no Mal'cev term exists."""
    table = [0 if a == 0 or b == 0 else rng.randrange(q) for a in range(q) for b in range(q)]
    return FiniteAlgebra(name, q, (OperationTable("m", 2, tuple(table)),))


def _quasigroup(rng, q, name):
    """An isotope of Z_q (a Latin square): a Mal'cev term exists."""
    rows, cols, symbols = (rng.sample(range(q), q) for _ in range(3))
    table = [symbols[(rows[a] + cols[b]) % q] for a in range(q) for b in range(q)]
    return FiniteAlgebra(name, q, (OperationTable("m", 2, tuple(table)),))


def _absorbing_component(rng, size, n, p, mask):
    """A random nonzero function absorbing in `mask` (a bitmask over n coords)."""
    coords = [j for j in range(n) if mask >> j & 1]
    patterns = {}
    while not any(patterns.values()):
        patterns = {}
        for values in _nonzero_patterns(size, len(coords)):
            patterns[values] = rng.randrange(p)
    table = []
    for point in _points(size, n):
        restricted = tuple(point[j] for j in coords)
        table.append(patterns.get(restricted, 0))
    return table


def _nonzero_patterns(size, k):
    out = [()]
    for _ in range(k):
        out = [t + (v,) for t in out for v in range(1, size)]
    return out


def _points(size, n):
    out = [()]
    for _ in range(n):
        out = [t + (v,) for t in out for v in range(size)]
    return out


def _planted_function(rng, size, n, p, max_degree, count):
    """A function A^n -> Z_p as a sum of planted absorbing components."""
    masks = {0, sum(1 << j for j in rng.sample(range(n), max_degree))}
    count = min(count, sum(comb(n, d) for d in range(max_degree + 1)))
    while len(masks) < count:
        d = rng.randint(1, max_degree)
        masks.add(sum(1 << j for j in rng.sample(range(n), d)))
    components = {m: _absorbing_component(rng, size, n, p, m) for m in sorted(masks)}
    table = [sum(col) % p for col in zip(*components.values())]
    return table, components


def _masks_upto(n, k):
    return [sum(1 << i for i in idxs) for d in range(min(k, n) + 1) for idxs in combinations(range(n), d)]


def _combinatorics_classes(small):
    if small:
        return [("Z4", 1)], ("Z2", "Z4"), [(2, 1)], [((2, 6), 1)], KS[:1], REDWEIGHT[:1]
    return CLONES, MALCEV_FIXTURES, GROUPOIDS, ABSORB, KS, REDWEIGHT


def combinatorics(rng, workdir, small=False):
    wl = Workload("combinatorics", [])
    clones, fixtures, groupoids, absorbs, ks_shapes, redweights = _combinatorics_classes(small)
    algebras = _algebra_files(wl, sorted({name for name, _ in clones} | set(fixtures)))
    for name, copies in clones:
        alg = algebras[name]
        wl.ops += [Op(
            "clone", f"clone/{name}", None,
            {"complete": True, "count": alg.size**3 if name.startswith("Z") else None,
             "cost": alg.size**3},
            algebra=alg,
        )] * copies
    for name in fixtures:
        wl.ops.append(Op(
            "malcev", f"malcev/{name}",
            ["malcev", "--algebra", _path(workdir, f"{name}.json"), "--json"],
            {"exit": 0, "found": True, "cost": algebras[name].size},
        ))
    wl.files["lattice2.json"] = render_algebra(two_element_lattice())
    wl.ops.append(Op(
        "malcev", "malcev/lattice2",
        ["malcev", "--algebra", _path(workdir, "lattice2.json"), "--json"],
        {"exit": 1, "found": False, "complete": True, "cost": 2},
    ))
    counter = 0
    for q, copies in groupoids:
        for kind in ("absorbing", "quasigroup"):
            for _ in range(copies):
                name = f"groupoid{counter}"
                counter += 1
                make = _absorbing_groupoid if kind == "absorbing" else _quasigroup
                wl.files[f"{name}.json"] = render_algebra(make(rng, q, name))
                wl.ops.append(Op(
                    "malcev", f"malcev/{kind}/q{q}",
                    ["malcev", "--algebra", _path(workdir, f"{name}.json"),
                     "--cap", str(GROUPOID_CAP), "--json"],
                    {"exit": None, "found": kind == "quasigroup", "cap": GROUPOID_CAP,
                     "cost": q},
                ))
    counter = 0
    for (size, n), copies in absorbs:
        for _ in range(copies):
            p = rng.choice((2, 3, 5))
            degree = rng.randint(1, n)
            table, components = _planted_function(rng, size, n, p, degree, 2 * n)
            fname = f"absorb{counter}.json"
            counter += 1
            wl.files[fname] = json.dumps(
                {"domain_size": size, "arity": n, "prime": p, "table": table})
            wl.ops.append(Op(
                "absorb", f"absorb/{size}^{n}",
                ["absorb", "--function", _path(workdir, fname), "--json"],
                {"exit": 0, "table": table, "prime": p, "degree": degree,
                 "components": {str(m): t for m, t in components.items()},
                 "cost": 3**n * size**n},
            ))
    counter = 0
    for (n, k, p, m), copies in ks_shapes:
        for _ in range(copies):
            phi = {str(mask): [rng.randrange(p) for _ in range(m)] for mask in _masks_upto(n, k)}
            fname = f"ks{counter}.json"
            counter += 1
            wl.files[fname] = json.dumps({"mode": "ks", "n": n, "k": k, "p": p, "m": m, "phi": phi})
            wl.ops.append(Op(
                "ks", f"ks/n{n}/k{k}/p{p}/m{m}",
                ["reduce-witness", "--input", _path(workdir, fname), "--json"],
                {"exit": 0, "n": n, "k": k, "p": p, "m": m, "phi": phi,
                 "bound": k * m * (p - 1), "cost": len(phi)},
            ))
    for (size, n, k, p, m), copies in redweights:
        for _ in range(copies):
            tables = [_planted_function(rng, size, n, p, k, n)[0] for _ in range(m)]
            point = [rng.randrange(size) for _ in range(n)]
            fname = f"redweight{counter}.json"
            counter += 1
            wl.files[fname] = json.dumps({
                "mode": "redweight", "k": k, "a": point,
                "functions": [{"domain_size": size, "arity": n, "prime": p, "table": t}
                              for t in tables],
            })
            wl.ops.append(Op(
                "redweight", f"redweight/{size}^{n}/k{k}/p{p}/m{m}",
                ["reduce-witness", "--input", _path(workdir, fname), "--json"],
                {"exit": 0, "size": size, "n": n, "tables": tables, "point": point,
                 "bound": k * m * (p - 1), "cost": 3**n * size**n},
            ))
    rng.shuffle(wl.ops)
    return wl


# ---------------------------------------------------------------------------


def _calibration(rng, wl, workdir):
    """The fixed same-set pair; a workload keeps the ops of the kinds it lacks."""
    name, n = CALIBRATION
    algebras = _algebra_files(wl, (name,))
    ops = _unsat_ops(rng, wl, algebras, workdir, [], [(name, n, None, 1)], tag="calibration-")
    return ops


def generate(name, seed, workdir, small=False):
    """The workload `name` for `seed`, with files to be written to workdir."""
    rng = random.Random(f"{name}/{seed}")
    wl = {"unsat-scan": unsat_scan, "sat-early": sat_early, "combinatorics": combinatorics}[name](
        rng, workdir, small
    )
    kinds = {op.kind for op in wl.ops}
    if not {"solve", "brute"} <= kinds:
        # the calibration system is the same for every seed, like the cold-start one
        calibration = _calibration(random.Random("calibration"), wl, workdir)
        wl.calibration = [op for op in calibration if op.kind not in kinds]
    wl.files["cold-Z4.json"] = render_algebra(cyclic_group(4))
    wl.files["cold.txt"] = COLD_START_SYSTEM
    wl.cold_start_argv = ["solve", "--algebra", _path(workdir, "cold-Z4.json"),
                          "--system", _path(workdir, "cold.txt"), "--json"]
    return wl
