"""Terms and equation systems over a finite algebra's signature.

Concrete syntax::

    term   :=  var | const | opname '(' [term (',' term)*] ')'
    var    :=  'x' digits          (1-based index)
    const  :=  '#' digits          (element index)
    opname :=  identifier
    digits :=  [0-9]+              (ASCII only)

Whitespace is insignificant and ';' starts a line comment.  A system file
holds one equation ``lhs = rhs`` per non-blank, non-comment line; its lines
end at '\n', '\r\n' or '\r', and any other line break is whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .algebra import FiniteAlgebra, _check_count, _in_range, apply_op


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
    """The hash-consed terms of a system, interned as parse_system completes
    them, or by one fold on the first read of EquationSystem.table of a
    system built in code: a leaf is keyed by itself and an application by
    (op, arg ids), so equal subterms share one node.  nodes holds each
    distinct node as (term, arg ids) in post-order of first occurrence,
    roots the ids of lhs_1, rhs_1, lhs_2, ... and sizes each node's tree
    size, as term_length counts it.  Nodes with one key get the same checks
    from check_node, so checking them in table order meets the first faulty
    node of a post-order walk over the trees."""

    nodes: tuple[tuple[Term, tuple[int, ...]], ...]
    roots: tuple[int, ...]
    sizes: tuple[int, ...]


def _interner():
    """intern(key, term=None), the id of key's node, a leaf term or (op, *arg
    ids), added if new with the term given or else the leaf or an App built
    once of its arguments' terms; and done(roots), the NodeTable."""
    ids, nodes, sizes = {}, [], []

    def intern(key, term=None) -> int:
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(nodes)
            app = type(key) is tuple
            args = key[1:] if app else ()
            if term is None:
                term = App(key[0], tuple([nodes[a][0] for a in args])) if app else key
            nodes.append((term, args))
            sizes.append(sum(map(sizes.__getitem__, args), 1))
        return i

    return intern, lambda roots: NodeTable(tuple(nodes), tuple(roots), tuple(sizes))


@dataclass(frozen=True)
class EquationSystem:
    equations: tuple[tuple[Term, Term], ...]

    def __post_init__(self):
        if not self.equations:
            raise ValueError("system must contain at least one equation")
        for k, eq in enumerate(self.equations):
            try:
                sides = len(eq)
            except TypeError:
                raise ValueError(f"equation {k} must be a sequence of two sides, got {eq!r}") from None
            if sides != 2:
                raise ValueError(f"equation {k} must have two sides, got {sides}")

    @property
    def s(self) -> int:
        return len(self.equations)

    @cached_property
    def table(self) -> NodeTable:
        intern, done = _interner()

        def leaf(t) -> int:
            try:
                hash(t)
            except TypeError:  # no term is unhashable, and interning keys by hash
                raise EvalError(f"{t!r} is not a term") from None
            return intern(t)

        return done(fold(
            [t for eq in self.equations for t in eq],
            lambda t, args: intern((t.op, *args), t) if isinstance(t, App) else leaf(t),
        ))

    @cached_property
    def n(self) -> int:
        """Highest variable index in the node table (0 if none)."""
        return max((t.index for t, _ in self.table.nodes if isinstance(t, Var)), default=0)


# whitespace and ';' comments, then one token: a word, '#' and its digits,
# or any other character; no token at the end of the text
_TOKEN = re.compile(r"(?:\s|;[^\r\n]*)*(?:(\w+)|(#[0-9]*)|(.))?", re.DOTALL)
# a system file's line ends; any other line break is whitespace in its line
_LINE_END = re.compile(r"\r\n?|\n")


def _number(digits: str, start: int, line: int | None) -> int:
    if not digits.isascii():
        raise ParseError("numbers must be written in ASCII digits", start, line)
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError("number too long", start, line) from None


def _at(match) -> int:  # where match's token starts, or the text's end
    return match.start(match.lastindex) if match.lastindex else match.end()


def _parse(text: str, pos: int, end: int, line: int | None, intern, leaves: dict) -> int:
    """The id of one term, which must be all of text[pos:end], read by one
    pass of _TOKEN.  Applications still open wait on a stack as [operation
    name, arg ids read so far].  A shift-reduce parser completes nodes in
    post-order, and each is interned as it completes: a leaf when its token
    is read, an application at its ')'.  leaves maps each leaf token already
    read to its id, so that a repeated one is neither checked nor built."""
    stack: list[list] = []
    op = node = None  # an operation name awaiting '(', or a term just completed
    for m in _TOKEN.finditer(text, pos, end):
        g = m.lastindex
        tok = m[g] if g else ""
        i = leaves.get(tok)
        if i is None and g:  # check a new token, and intern a new leaf
            c = tok[0]
            if g == 3 and c not in "()," or g == 1 and not (c.isalpha() or c == "_"):
                raise ParseError(f"unexpected character {c!r}", m.start(g), line)
            if g == 2:
                if len(tok) == 1:
                    raise ParseError("expected digits after '#'", m.start(2), line)
                i = leaves[tok] = intern(Const(_number(tok[1:], m.start(2), line)))
            elif g == 1 and c == "x" and tok[1:].isdigit():
                index = _number(tok[1:], m.start(1), line)
                if index < 1:
                    raise ParseError("variable index must be >= 1", m.start(1), line)
                i = leaves[tok] = intern(Var(index))
        if node is not None:
            if tok == ")" and stack:
                node = intern((*stack.pop(), node))
            elif not stack:
                if g:
                    raise ParseError("trailing input after term", _at(m), line)
                return node
            elif tok == ",":
                stack[-1].append(node)
                node = None
            else:
                raise ParseError("expected ',' or ')' (unclosed application?)", _at(m), line)
        elif op is not None:
            if tok != "(":
                raise ParseError(f"expected '(' after operation {op!r}", _at(m), line)
            stack.append([op])
            op = None
        elif i is not None:
            node = i
        elif tok == ")" and stack and len(stack[-1]) == 1:  # op() is a nullary term
            node = intern(tuple(stack.pop()))
        elif g == 1:
            op = tok
        else:
            message = f"unexpected token {tok!r}" if g else "unexpected end of input"
            raise ParseError(message, _at(m), line)


def parse_term(text: str) -> Term:
    """Parse a single term; the whole input must be consumed."""
    intern, done = _interner()
    root = _parse(text, 0, len(text), None, intern, {})
    return done([root]).nodes[root][0]


def parse_system(text: str) -> EquationSystem:
    """Parse a system file, one 'lhs = rhs' equation per effective line,
    straight into the system's node table."""
    intern, done = _interner()
    leaves: dict[str, int] = {}
    roots = []
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.split(";", 1)[0]
        if not line.strip():
            continue
        if line.count("=") != 1:
            raise ParseError("expected exactly one '=' per equation", 0, lineno)
        eq = line.index("=")
        # both sides scanned in place, so that positions count from the start of the line
        roots.append(_parse(line, 0, eq, lineno, intern, leaves))
        roots.append(_parse(line, eq + 1, len(line), lineno, intern, leaves))
    if not roots:
        raise ParseError("empty system", 0)
    table = done(roots)
    sides = [table.nodes[r][0] for r in roots]
    system = EquationSystem(tuple(zip(sides[::2], sides[1::2])))
    vars(system)["table"] = table  # what the cached property would build by a fold
    return system


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
    1-based, a constant lies in the carrier, and nothing else is a term."""
    if isinstance(t, App):
        op = alg.operation(t.op)
        if len(t.args) != op.arity:
            raise EvalError(
                f"operation {t.op!r} has arity {op.arity}, got {len(t.args)} arguments"
            )
    elif isinstance(t, Var):
        _check_count("variable index", t.index, 1, EvalError)
    elif not isinstance(t, Const):
        raise EvalError(f"{t!r} is not a term")
    elif not _in_range(t.value, alg.size):
        raise EvalError(f"constant #{t.value} out of range [0, {alg.size})")


def eval_term(alg: FiniteAlgebra, t: Term, assignment) -> int:
    """Bottom-up evaluation of t at an assignment of carrier elements."""

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
        v = assignment[u.index - 1]
        if not _in_range(v, alg.size):
            raise EvalError(f"x{u.index} = {v!r} out of range [0, {alg.size})")
        return v

    return fold([t], visit)[0]


def term_length(t: Term) -> int:
    """Number of AST nodes (variables, constants, applications each count 1)."""
    return fold([t], lambda u, args: 1 + sum(args))[0]


def check_system(alg: FiniteAlgebra, system: EquationSystem) -> None:
    """Static validation: check_node once per distinct node, in node table
    order, so the first faulty node of the trees' post-order raises."""
    for t, _ in system.table.nodes:
        check_node(alg, t)
