"""Terms and equation systems over a finite algebra's signature.

Concrete syntax::

    term   :=  var | const | opname '(' [term (',' term)*] ')'
    var    :=  'x' digits          (1-based index)
    const  :=  '#' digits          (element index)
    opname :=  identifier
    digits :=  [0-9]+              (ASCII only)

Whitespace is insignificant and ';' starts a line comment.  A system file
holds one equation ``lhs = rhs`` per non-blank, non-comment line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .algebra import FiniteAlgebra, apply_op


class ParseError(ValueError):
    def __init__(self, message: str, position: int, line: int | None = None):
        self.position = position
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{message} at position {position}")


class EvalError(ValueError):
    """Term refers to a variable, constant, or value outside the valid range."""


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class App:
    op: str
    args: tuple["Term", ...]


Term = Var | Const | App


class NodeTable(NamedTuple):
    """The hash-consed terms of a system, built by one fold on the first
    read of EquationSystem.table: a leaf is keyed by itself and an
    application by (op, arg ids), so equal subterms share one node.  nodes
    holds each distinct node as (term, arg ids) in post-order of first
    occurrence, roots the ids of lhs_1, rhs_1, lhs_2, ... and sizes each
    node's tree size, as term_length counts it.  Nodes with one key get the
    same checks from check_node, so checking them in table order meets the
    first faulty node of a post-order walk over the trees."""

    nodes: tuple[tuple[Term, tuple[int, ...]], ...]
    roots: tuple[int, ...]
    sizes: tuple[int, ...]


@dataclass(frozen=True)
class EquationSystem:
    equations: tuple[tuple[Term, Term], ...]

    @property
    def s(self) -> int:
        return len(self.equations)

    @cached_property
    def table(self) -> NodeTable:
        ids, nodes, sizes = {}, [], []

        def intern(t: Term, args: list[int]) -> int:
            key = (t.op, *args) if isinstance(t, App) else t
            if key not in ids:
                ids[key] = len(nodes)
                nodes.append((t, tuple(args)))
                sizes.append(sum(map(sizes.__getitem__, args), 1))
            return ids[key]

        roots = fold([t for eq in self.equations for t in eq], intern)
        return NodeTable(tuple(nodes), tuple(roots), tuple(sizes))

    @cached_property
    def n(self) -> int:
        """Highest variable index in the node table (0 if none)."""
        return max((t.index for t, _ in self.table.nodes if isinstance(t, Var)), default=0)


# whitespace and ';' comments, then one token: a word, '#' and its digits,
# or any other character; no token at the end of the text
_TOKEN = re.compile(r"(?:\s|;[^\n]*)*(?:(\w+)|(#[0-9]*)|(.))?", re.DOTALL)


class _Scanner:
    """Tokens: ('var', i) ('const', c) ('op', name) '(' ')' ',' ('end', None)."""

    def __init__(self, text: str, line: int | None = None, pos: int = 0):
        self.text = text
        self.pos = pos
        self.line = line

    def error(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(message, self.pos if pos is None else pos, self.line)

    def _number(self, digits: str, start: int) -> int:
        if not digits.isascii():
            raise self.error("numbers must be written in ASCII digits", start)
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise self.error("number too long", start) from None

    def next(self):
        match = _TOKEN.match(self.text, self.pos)
        self.pos = match.end()
        if not match.lastindex:
            return ("end", None), self.pos
        token, start = match.group(match.lastindex), match.start(match.lastindex)
        c = token[0]
        if c in "(),":
            return (c, None), start
        if c == "#":
            if len(token) == 1:
                raise self.error("expected digits after '#'", start)
            return ("const", self._number(token[1:], start)), start
        if c.isalpha() or c == "_":
            if c == "x" and token[1:].isdigit():
                index = self._number(token[1:], start)
                if index < 1:
                    raise self.error("variable index must be >= 1", start)
                return ("var", index), start
            return ("op", token), start
        raise self.error(f"unexpected character {c!r}", start)


def _parse(scanner: _Scanner) -> Term:
    """One term, which must be the whole input.  Applications still open
    wait on a stack as (operation name, arguments read so far)."""
    stack: list[tuple[str, list[Term]]] = []
    while True:
        (kind, value), start = scanner.next()
        if kind == "var":
            term = Var(value)
        elif kind == "const":
            term = Const(value)
        elif kind == "op":
            (tok, _), p = scanner.next()
            if tok != "(":
                raise scanner.error(f"expected '(' after operation {value!r}", p)
            save = scanner.pos
            if scanner.next()[0][0] != ")":
                scanner.pos = save
                stack.append((value, []))
                continue
            term = App(value, ())
        elif kind == "end":
            raise scanner.error("unexpected end of input", start)
        else:
            raise scanner.error(f"unexpected token {kind!r}", start)
        (tok, _), p = scanner.next()
        while tok == ")" and stack:
            op, args = stack.pop()
            term = App(op, (*args, term))
            (tok, _), p = scanner.next()
        if not stack:
            if tok != "end":
                raise scanner.error("trailing input after term", p)
            return term
        if tok != ",":
            raise scanner.error("expected ',' or ')' (unclosed application?)", p)
        stack[-1][1].append(term)


def parse_term(text: str, line: int | None = None) -> Term:
    """Parse a single term; the whole input must be consumed."""
    return _parse(_Scanner(text, line))


def parse_system(text: str) -> EquationSystem:
    """Parse a system file: one 'lhs = rhs' equation per effective line."""
    equations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0]
        if not line.strip():
            continue
        if line.count("=") != 1:
            raise ParseError("expected exactly one '=' per equation", 0, lineno)
        eq = line.index("=")
        lhs = parse_term(line[:eq], line=lineno)
        # scanned in place, so that positions count from the start of the line
        rhs = _parse(_Scanner(line, lineno, pos=eq + 1))
        equations.append((lhs, rhs))
    if not equations:
        raise ParseError("empty system", 0)
    return EquationSystem(tuple(equations))


def fold(roots, visit) -> list:
    """Call visit(t, values) on every node t of the terms in roots, children
    before parents and left to right, with values the list of results of
    t's arguments, and return the roots' results in order.  An explicit
    stack replaces recursion, so any depth is walked, and each argument's
    result is dropped once its parent's is computed."""
    order, stack = [], list(roots)
    while stack:
        t = stack.pop()
        order.append(t)
        if isinstance(t, App):
            stack += t.args
    values: list = []
    for t in reversed(order):
        k = len(t.args) if isinstance(t, App) else 0
        if k:
            value = visit(t, values[-k:])
            del values[-k:]
        else:
            value = visit(t, [])
        values.append(value)
    return values


def format_term(t: Term) -> str:
    """t in the concrete syntax, by one pre-order walk over an explicit
    stack of terms and pending punctuation, joined once: linear in size."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, Var):
            out.append(f"x{u.index}")
        elif isinstance(u, Const):
            out.append(f"#{u.value}")
        else:
            out.append(f"{u.op}(")
            stack.append(")")
            for k in reversed(range(len(u.args))):
                stack.append(u.args[k])
                if k:
                    stack.append(", ")
    return "".join(out)


def format_system(system: EquationSystem) -> str:
    return "\n".join(
        f"{format_term(lhs)} = {format_term(rhs)}" for lhs, rhs in system.equations
    ) + "\n"


def check_node(alg: FiniteAlgebra, t: Term) -> None:
    """The checks on one node that need no assignment: an application's
    operation exists and takes that many arguments, a variable's index is
    1-based, a constant lies in the carrier."""
    if isinstance(t, App):
        op = alg.operation(t.op)
        if len(t.args) != op.arity:
            raise EvalError(
                f"operation {t.op!r} has arity {op.arity}, got {len(t.args)} arguments"
            )
    elif isinstance(t, Var):
        if t.index < 1:
            raise EvalError(f"variable index must be >= 1, got {t.index}")
    elif not 0 <= t.value < alg.size:
        raise EvalError(f"constant #{t.value} out of range [0, {alg.size})")


def eval_term(alg: FiniteAlgebra, t: Term, assignment) -> int:
    """Bottom-up evaluation of t at the given assignment vector."""

    def visit(u: Term, args: list[int]) -> int:
        if isinstance(u, App):
            return apply_op(alg, u.op, args)
        check_node(alg, u)
        if isinstance(u, Const):
            return u.value
        if u.index > len(assignment):
            raise EvalError(
                f"variable x{u.index} beyond assignment of length {len(assignment)}"
            )
        return assignment[u.index - 1]

    return fold([t], visit)[0]


def term_length(t: Term) -> int:
    """Number of AST nodes (variables, constants, applications each count 1)."""
    return fold([t], lambda u, args: 1 + sum(args))[0]


def check_system(alg: FiniteAlgebra, system: EquationSystem) -> None:
    """Static validation: check_node once per distinct node, in node table
    order, so the first faulty node of the trees' post-order raises."""
    for t, _ in system.table.nodes:
        check_node(alg, t)
