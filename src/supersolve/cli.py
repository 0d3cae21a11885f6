"""Command-line front end.

The _COMMANDS table maps each subcommand name to its help line, its
handler and the function that adds its arguments.  _parser builds the
parser from it once per process, however often main() is called:
parse_args leaves a parser as it was, and help reads the terminal width
when it is printed.  Each handler is attached to its sub-parser with
set_defaults(handler=...) and takes the parsed argparse namespace; run()
calls it and maps exceptions to exit codes.

The command comes first: a -- before it is read as the command itself,
so "supersolve -- solve ..." exits 2 with "invalid choice: '--'".

Exit codes: 0 = satisfiable / success, 1 = no solution (the output
distinguishes conditional from exhaustive), 2 = input error, 3 = internal
fault, any bounds.TheoremViolation (never expected).  Machine output
(--json, schema "supersolve/1") goes to stdout; diagnostics go to stderr.
In the default deterministic mode identical invocations on identical
files produce byte-identical JSON, so bench timings are only emitted with
--no-deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from . import absorbing, solver, witness
from .algebra import FiniteAlgebra, _too_many_digits, json_fields, load_algebra, max_arity, parse_json
from .bounds import TheoremViolation, make_bound_report
from .malcev import DEFAULT_CAP, MalcevNotFound, find_malcev
from .solver import (
    NoSolutionExhaustive,
    NoSolutionInBoundedSet,
    SolutionFound,
    SolveOutcome,
)
from .terms import check_system, format_term, parse_system

SCHEMA = "supersolve/1"

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT_ERROR = 2
EXIT_THEOREM_VIOLATION = 3

_INPUT_ERRORS = (ValueError, OSError)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _emit(
    args: argparse.Namespace,
    doc: dict,
    human: str | None = None,
    last: tuple[str, str] | None = None,
) -> None:
    """Print the human text, or doc as one JSON line behind the schema and
    command header under --json or when the command has no human text.
    last, a key and its value already encoded as JSON text, goes in as the
    document's last member."""
    if human is None or args.json:
        doc = {"schema": SCHEMA, "command": args.command, **doc}
        text = json.dumps(doc, separators=(",", ":"), sort_keys=False)
        if last is not None:
            key, value = last
            text = f"{text[:-1]},{json.dumps(key)}:{value}}}"
        print(text)
    else:
        print(human)


# the byte codes of _json_rows' text: a digit is its value, and the
# leading zeros of a value narrower than the widest are deleted
_LEADING_ZERO, _COMMA, _ROW_END = 10, 11, 12
_CODE_TEXT = bytes.maketrans(bytes([*range(10), _COMMA, _ROW_END]), b"0123456789,]")


def _json_rows(rows: np.ndarray) -> str:
    """The JSON object {"0": rows[0], "1": rows[1], ...} of a 2-D array of
    non-negative ints (int64 or Python ints), byte for byte as json.dumps
    writes it with separators (",", ":"), without a Python int per cell.
    Every value gets one byte per decimal digit of the largest and one for
    the comma after it; the digits are taken for all values at once,
    lowest first, each in the narrowest dtype that holds what is left of
    the largest, so Python ints carry only the digits past 2**64."""
    top = int(rows.max())
    width = len(str(top))
    codes = np.empty(rows.shape + (width + 1,), np.uint8)
    codes[..., width] = _COMMA
    codes[:, -1, width] = _ROW_END
    rest = rows.astype(np.min_scalar_type(top))
    for k in reversed(range(width)):
        quotient = rest // 10
        digit = rest - quotient * 10  # rest % 10, which numpy computes far slower
        codes[..., k] = digit if k == width - 1 else np.where(rest != 0, digit, _LEADING_ZERO)
        top //= 10
        rest = quotient.astype(np.min_scalar_type(top), copy=False)
    text = codes.tobytes().translate(_CODE_TEXT, bytes([_LEADING_ZERO])).decode("ascii")
    row_texts = text.split("]")[:-1]
    return "{" + ",".join(f'"{mask}":[{row}]' for mask, row in enumerate(row_texts)) + "}"


_VERDICT_KINDS = {
    SolutionFound: "solution_found",
    NoSolutionInBoundedSet: "no_solution_in_bounded_set",
    NoSolutionExhaustive: "no_solution_exhaustive",
}


def _verdict_doc(outcome: SolveOutcome) -> dict:
    v = outcome.verdict
    return {
        # vars, not asdict: asdict would deep-copy the assignment, about 40 us
        # a solve, and costs about 2 us on the stats where vars costs 0.2 us
        "verdict": {"kind": _VERDICT_KINDS[type(v)], **vars(v)},
        "stats": dict(vars(outcome.stats)),
    }


def _verdict_text(outcome: SolveOutcome) -> str:
    v = outcome.verdict
    stats = (
        f"candidates tested: {outcome.stats.candidates_tested}, "
        f"term evaluations: {outcome.stats.term_evaluations}"
    )
    if isinstance(v, SolutionFound):
        return f"solution: {v.assignment}\n{stats}"
    if isinstance(v, NoSolutionInBoundedSet):
        return (
            f"no solution of weight <= {v.bound} "
            "(conditional: assumes a supernilpotent algebra)\n" + stats
        )
    return f"no solution (exhaustive search)\n{stats}"


def _load_inputs(args: argparse.Namespace) -> tuple[FiniteAlgebra, object]:
    alg = load_algebra(_read(args.algebra))
    system = parse_system(_read(args.system))
    check_system(alg, system)
    return alg, system


def _cmd_solve(args: argparse.Namespace) -> int:
    alg, system = _load_inputs(args)
    outcome = solver.solve_bounded(alg, system, z=args.zero, bound=args.bound)
    doc = {"algebra": alg.name, "n": system.n, "s": system.s, "zero": args.zero}
    doc.update(_verdict_doc(outcome))
    _emit(args, doc, _verdict_text(outcome))
    return EXIT_OK if outcome.satisfiable else EXIT_NO_SOLUTION


def _cmd_brute(args: argparse.Namespace) -> int:
    alg, system = _load_inputs(args)
    outcome = solver.solve_brute(alg, system)
    doc = {"algebra": alg.name, "n": system.n, "s": system.s}
    doc.update(_verdict_doc(outcome))
    _emit(args, doc, _verdict_text(outcome))
    return EXIT_OK if outcome.satisfiable else EXIT_NO_SOLUTION


def _cmd_bench(args: argparse.Namespace) -> int:
    alg, system = _load_inputs(args)
    result = solver.bench(alg, system, z=args.zero)
    doc = {
        "algebra": alg.name,
        "n": system.n,
        "s": system.s,
        "agree": result.agree,
        "bounded": _verdict_doc(result.bounded),
        "brute": _verdict_doc(result.brute),
    }
    if not args.deterministic:
        doc["bounded_seconds"] = result.bounded_seconds
        doc["brute_seconds"] = result.brute_seconds
    human = (
        f"bounded: {_verdict_text(result.bounded)}\n"
        f"brute:   {_verdict_text(result.brute)}\n"
        f"verdicts agree: {result.agree}"
    )
    _emit(args, doc, human)
    return EXIT_OK if result.bounded.satisfiable else EXIT_NO_SOLUTION


def _cmd_bound(args: argparse.Namespace) -> int:
    alg = load_algebra(_read(args.algebra))
    report = make_bound_report(args.s, max_arity(alg), alg.size, n=args.n)
    doc = {
        "algebra": alg.name,
        **asdict(report),
        "note": "bounds assume the algebra is supernilpotent",
    }
    _emit(args, doc)
    return EXIT_OK


def _cmd_malcev(args: argparse.Namespace) -> int:
    alg = load_algebra(_read(args.algebra))
    result = find_malcev(alg, include_constants=args.constants, cap=args.cap)
    if isinstance(result, MalcevNotFound):
        doc = {"algebra": alg.name, "found": False, **asdict(result)}
        human = (
            "no Mal'cev term exists (closure exhausted)"
            if result.complete
            else f"no Mal'cev term found within cap {args.cap} (inconclusive)"
        )
        _emit(args, doc, human)
        return EXIT_NO_SOLUTION
    doc = {
        "algebra": alg.name,
        "found": True,
        "witness": format_term(result.witness),
        "table": list(result.table),
    }
    _emit(args, doc, f"Mal'cev term: {format_term(result.witness)}")
    return EXIT_OK


_FUNCTION_FIELDS = {
    "domain_size": "an integer",
    "arity": "an integer",
    "prime": "an integer",
    "table": "a list of integers",
}


def _load_function(raw, where: str = "") -> absorbing.TabulatedFunction:
    domain_size, arity, prime, table = json_fields(raw, _FUNCTION_FIELDS, where)
    return absorbing.TabulatedFunction(domain_size, arity, prime, tuple(table))


def _cmd_absorb(args: argparse.Namespace) -> int:
    f = _load_function(parse_json(_read(args.function)))
    decomposition = absorbing.decompose(f)
    doc = {
        "domain_size": f.domain_size,
        "arity": f.arity,
        "prime": f.prime,
        "absorbing_degree": decomposition.degree(),
    }
    if args.json:
        _emit(args, doc, last=("components", _json_rows(decomposition.rows)))
    else:
        tables = "\n".join(
            f"  {mask}: {table}" for mask, table in enumerate(decomposition.rows.tolist())
        )
        _emit(args, doc, f"absorbing degree: {doc['absorbing_degree']}\n{tables}")
    return EXIT_OK


def _cmd_reduce_witness(args: argparse.Namespace) -> int:
    raw = parse_json(_read(args.input))
    (mode,) = json_fields(raw, {"mode": "a string"})
    if mode == "ks":
        n, k, p, m, values = json_fields(raw, {
            "n": "an integer",
            "k": "an integer",
            "p": "an integer",
            "m": "an integer",
            "phi": "an object of integer lists keyed by mask",
        })
        try:
            values = {int(mask): tuple(vec) for mask, vec in values.items()}
        except ValueError:  # a key of ASCII digits past int()'s digit limit
            raise _too_many_digits() from None
        phi = witness.SubsetFunction(n=n, k=k, p=p, m=m, values=values)
        u = witness.ks_find_u(phi)
    elif mode == "redweight":
        k, a, raw_fs = json_fields(
            raw, {"k": "an integer", "a": "a list of integers", "functions": "a list"}
        )
        fs = [_load_function(rf, f"functions[{i}]") for i, rf in enumerate(raw_fs)]
        u = witness.redweight_find_u(fs, k, tuple(a))
        m, p = len(fs), fs[0].prime if fs else 2
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'ks' or 'redweight'")
    bound = witness.witness_bound(k, m, p)
    indices = absorbing.mask_indices(u)
    doc = {
        "mode": mode,
        "witness": indices,
        "witness_mask": u,
        "size": len(indices),
        "bound": bound,
    }
    _emit(args, doc, f"U = {indices} (|U| = {len(indices)}, bound {bound})")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    alg = load_algebra(_read(args.algebra))
    doc = {
        "algebra": alg.name,
        "size": alg.size,
        "operations": [{"name": op.name, "arity": op.arity} for op in alg.operations],
        "ok": True,
    }
    human = f"algebra {alg.name!r}: size {alg.size}, {len(alg.operations)} operations, valid"
    if args.system is not None:
        system = parse_system(_read(args.system))
        check_system(alg, system)
        doc["system"] = {"s": system.s, "n": system.n}
        human += f"\nsystem: {system.s} equations over x1..x{system.n}, valid"
    _emit(args, doc, human)
    return EXIT_OK


def run(args: argparse.Namespace) -> int:
    """Dispatch one parsed command line; exceptions map to exit codes."""
    try:
        return args.handler(args)
    except TheoremViolation as exc:
        print(f"theorem violation (implementation bug): {exc}", file=sys.stderr)
        return EXIT_THEOREM_VIOLATION
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", required=True, help="algebra JSON file")
    p.add_argument("--system", required=True, help="equation system file")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _solve_args(p: argparse.ArgumentParser) -> None:
    _io_args(p)
    p.add_argument("--zero", type=int, default=0, help="base element z (default 0)")
    p.add_argument("--bound", type=int, default=None, help="override the weight bound")


def _bench_args(p: argparse.ArgumentParser) -> None:
    _io_args(p)
    p.add_argument("--zero", type=int, default=0)
    p.add_argument(
        "--no-deterministic",
        dest="deterministic",
        action="store_false",
        help="add the timing fields, which vary from run to run",
    )


def _bound_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", required=True)
    p.add_argument("-s", "--equations", dest="s", type=int, default=1, help="equation count")
    p.add_argument("-n", "--variables", dest="n", type=int, default=None, help="variable count")


def _malcev_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", required=True)
    p.add_argument("--constants", action="store_true", help="allow polynomial (not just term) operations")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="closure size cap")
    p.add_argument("--json", action="store_true")


def _absorb_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--function", required=True, help="tabulated-function JSON file")
    p.add_argument("--json", action="store_true")


def _reduce_witness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="JSON description of phi or (fs, a, k)")
    p.add_argument("--json", action="store_true")


def _validate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", required=True)
    p.add_argument("--system", default=None)
    p.add_argument("--json", action="store_true")


# name -> (help line, handler, function adding the sub-parser's arguments),
# in the order the top-level help lists them
_COMMANDS = {
    "solve": ("bounded-weight solver", _cmd_solve, _solve_args),
    "brute": ("exhaustive oracle solver", _cmd_brute, _io_args),
    "bench": ("run both solvers and compare", _cmd_bench, _bench_args),
    "bound": ("print the weight-bound report as JSON", _cmd_bound, _bound_args),
    "malcev": ("search the ternary term clone for a Mal'cev term", _cmd_malcev, _malcev_args),
    "absorb": ("absorbing decomposition of a tabulated function", _cmd_absorb, _absorb_args),
    "reduce-witness": ("find a weight-reduction witness set U", _cmd_reduce_witness, _reduce_witness_args),
    "validate": ("validate input files", _cmd_validate, _validate_args),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser with every command's sub-parser, built on first use."""
    parser = argparse.ArgumentParser(
        prog="supersolve",
        description="Decide solvability of polynomial equation systems over "
        "finite algebras by bounded-weight search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(handler=handler)
        add_arguments(p)
    return parser


def main(argv=None) -> int:
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
