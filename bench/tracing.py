"""Spans recorded from outside the package, around calls into each layer.

The package binds names with ``from x import y``, so a function is wrapped
at the name its caller looks up (``supersolve.cli.load_algebra``, not
``supersolve.algebra.load_algebra``).  Spans are kept in memory as
``[name, start, end, parent index, operation id]`` and written out once,
after the run.  Each wrapper also keeps the small facts its layer's
counters need (for example the stats a solve returned); the counters are
derived from them after the traced pass, outside every span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from itertools import combinations
from math import comb

import supersolve.absorbing
import supersolve.cli
import supersolve.malcev
import supersolve.solver
import supersolve.witness
from supersolve.algebra import max_arity
from supersolve.bounds import make_bound_report
from supersolve.solver import bounded_weight_count
from supersolve.terms import term_length

# (module, attribute, span name, what to keep from (args, kwargs, result))
WRAPPED = [
    (supersolve.cli, "main", "cli.main", None),
    (supersolve.cli, "load_algebra", "algebra.load_algebra", None),
    (supersolve.cli, "parse_system", "terms.parse_system", lambda a, k, r: r),
    (supersolve.cli, "check_system", "terms.check_system", None),
    (supersolve.solver, "make_bound_report", "bounds.make_bound_report", None),
    (supersolve.solver, "eval_term", "terms.eval_term", None),
    (supersolve.solver, "solve_bounded", "solver.solve_bounded",
     lambda a, k, r: (a[0], a[1], k.get("bound", a[3] if len(a) > 3 else None), r)),
    (supersolve.solver, "solve_brute", "solver.solve_brute", lambda a, k, r: r.stats),
    (supersolve.cli, "find_malcev", "malcev.find_malcev", None),
    (supersolve.malcev, "ternary_term_clone", "malcev.ternary_term_clone",
     lambda a, k, r: len(r[0])),
    (supersolve.absorbing, "decompose", "absorbing.decompose",
     lambda a, k, r: (a[0].domain_size, a[0].arity)),
    (supersolve.witness, "absorbing_degree", "absorbing.absorbing_degree", None),
    (supersolve.witness, "ks_find_u", "witness.ks_find_u", lambda a, k, r: (a[0].n, r)),
    (supersolve.witness, "redweight_find_u", "witness.redweight_find_u",
     lambda a, k, r: (a[0][0].arity if a[0] else 0, r)),
]
LAYERS = ("cli", "algebra", "terms", "bounds", "solver", "malcev", "absorbing", "witness")


class Tracer:
    def __init__(self):
        self.spans = []
        self.kept = defaultdict(list)
        self.op_id = None
        self._stack = []
        self._originals = []

    def install(self):
        for module, attr, name, keep in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, keep))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, original, name, keep):
        spans, stack, kept, clock = self.spans, self._stack, self.kept, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            kept[name].append(None if keep is None else keep(args, kwargs, result))
            return result

        return traced


def self_times(spans):
    """Per span name: (total duration, self duration) summed over spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    total, own = defaultdict(float), defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
    return total, own


def _supports_scanned(n, q, candidates):
    """Support sets the canonical scan touched to test `candidates` (computed)."""
    supports, weight = 0, 0
    while candidates > 0 and weight <= n:
        block = (q - 1) ** weight
        layer = comb(n, weight) * block
        if candidates >= layer:
            supports += comb(n, weight)
            candidates -= layer
        else:
            supports += -(-candidates // block)
            candidates = 0
        weight += 1
    return supports


def _set_rank(n, u):
    """1-based position of mask u in canonical order (size, then mask)."""
    size = bin(u).count("1")
    before = sum(comb(n, i) for i in range(size))
    smaller = sum(1 for idxs in combinations(range(n), size) if sum(1 << i for i in idxs) < u)
    return before + smaller + 1


def layer_metrics(spans, kept):
    """Per-layer metrics of one traced pass."""
    total, own = self_times(spans)
    m = {}
    m["cli.self_s"] = own["cli.main"]
    m["algebra.load_algebra_s"] = total["algebra.load_algebra"]
    m["terms.parse_system_s"] = total["terms.parse_system"]
    m["terms.check_system_s"] = total["terms.check_system"]
    m["bounds.make_bound_report_s"] = total["bounds.make_bound_report"]
    m["terms.eval_term_s"] = total["terms.eval_term"]
    m["terms.eval_term_calls"] = len(kept["terms.eval_term"])
    m["terms.ast_nodes"] = sum(
        term_length(t) for system in kept["terms.parse_system"]
        for eq in system.equations for t in eq
    )
    m["solver.solve_bounded_s"] = own["solver.solve_bounded"]
    m["solver.solve_brute_s"] = total["solver.solve_brute"]
    cands = evals = set_size = supports = 0
    for alg, system, bound, outcome in kept["solver.solve_bounded"]:
        if bound is None:
            bound = make_bound_report(system.s, max_arity(alg), alg.size, n=system.n).effective_bound
        cands += outcome.stats.candidates_tested
        evals += outcome.stats.term_evaluations
        set_size += bounded_weight_count(system.n, bound, alg.size)
        supports += _supports_scanned(system.n, alg.size, outcome.stats.candidates_tested)
    m["solver.candidates_tested"] = cands
    m["solver.term_evaluations"] = evals
    m["solver.brute_candidates_tested"] = sum(s.candidates_tested for s in kept["solver.solve_brute"])
    m["solver.brute_term_evaluations"] = sum(s.term_evaluations for s in kept["solver.solve_brute"])
    m["solver.bounded_set_size"] = set_size
    m["solver.supports"] = supports
    m["solver.rows_per_support"] = set_size / supports if supports else 0.0
    m["solver.scan_fill"] = cands / set_size if set_size else 0.0
    m["malcev.ternary_term_clone_s"] = total["malcev.ternary_term_clone"]
    m["malcev.find_malcev_s"] = total["malcev.find_malcev"]
    m["malcev.tables"] = sum(kept["malcev.ternary_term_clone"])
    m["malcev.tables_per_s"] = (
        m["malcev.tables"] / m["malcev.ternary_term_clone_s"] if m["malcev.tables"] else 0.0
    )
    m["absorbing.decompose_s"] = total["absorbing.decompose"]
    m["absorbing.absorbing_degree_s"] = total["absorbing.absorbing_degree"]
    m["absorbing.points"] = sum(size**n * 2**n for size, n in kept["absorbing.decompose"])
    m["witness.ks_find_u_s"] = total["witness.ks_find_u"]
    m["witness.redweight_find_u_s"] = total["witness.redweight_find_u"]
    m["witness.sets_scanned"] = sum(
        _set_rank(n, u) for n, u in kept["witness.ks_find_u"] + kept["witness.redweight_find_u"]
    )
    layer_self = defaultdict(float)
    for name, value in own.items():
        layer_self[name.split(".")[0]] += value
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
