"""Terms and equation systems over a finite algebra's signature.

Concrete syntax::

    term   :=  var | const | opname '(' [term (',' term)*] ')'
    var    :=  'x' digits          (1-based index)
    const  :=  '#' digits          (element index)
    opname :=  identifier

Whitespace is insignificant and ';' starts a line comment.  A system file
holds one equation ``lhs = rhs`` per non-blank, non-comment line.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EquationSystem:
    equations: tuple[tuple[Term, Term], ...]

    @property
    def s(self) -> int:
        return len(self.equations)

    @property
    def n(self) -> int:
        """Highest variable index occurring anywhere (0 if none)."""
        return max(
            (max_variable(t) for lhs, rhs in self.equations for t in (lhs, rhs)),
            default=0,
        )


class _Scanner:
    """Tokens: ('var', i) ('const', c) ('op', name) '(' ')' ',' ('end', None)."""

    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(message, self.pos if pos is None else pos, self.line)

    def _skip_space(self):
        text = self.text
        while self.pos < len(text):
            c = text[self.pos]
            if c == ";":
                nl = text.find("\n", self.pos)
                self.pos = len(text) if nl < 0 else nl + 1
            elif c.isspace():
                self.pos += 1
            else:
                break

    def next(self):
        self._skip_space()
        start = self.pos
        text = self.text
        if self.pos >= len(text):
            return ("end", None), start
        c = text[self.pos]
        if c in "(),":
            self.pos += 1
            return (c, None), start
        if c == "#":
            self.pos += 1
            digits = self._digits()
            if not digits:
                raise self.error("expected digits after '#'", start)
            return ("const", int(digits)), start
        if c.isalpha() or c == "_":
            ident = self._ident()
            if ident[0] == "x" and ident[1:].isdigit():
                index = int(ident[1:])
                if index < 1:
                    raise self.error("variable index must be >= 1", start)
                return ("var", index), start
            return ("op", ident), start
        raise self.error(f"unexpected character {c!r}", start)

    def _digits(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return self.text[start : self.pos]

    def _ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def _parse(scanner: _Scanner) -> Term:
    (kind, value), start = scanner.next()
    if kind == "var":
        return Var(value)
    if kind == "const":
        return Const(value)
    if kind == "op":
        (tok, _), p = scanner.next()
        if tok != "(":
            raise scanner.error(f"expected '(' after operation {value!r}", p)
        args: list[Term] = []
        save = scanner.pos
        (tok, tv), p = scanner.next()
        if tok != ")":
            scanner.pos = save
            args.append(_parse(scanner))
            while True:
                (tok, tv), p = scanner.next()
                if tok == ")":
                    break
                if tok != ",":
                    raise scanner.error("expected ',' or ')' (unclosed application?)", p)
                args.append(_parse(scanner))
        return App(value, tuple(args))
    if kind == "end":
        raise scanner.error("unexpected end of input", start)
    raise scanner.error(f"unexpected token {kind!r}", start)


def parse_term(text: str, line: int | None = None) -> Term:
    """Parse a single term; the whole input must be consumed."""
    scanner = _Scanner(text, line)
    term = _parse(scanner)
    (kind, _), p = scanner.next()
    if kind != "end":
        raise scanner.error("trailing input after term", p)
    return term


def parse_system(text: str) -> EquationSystem:
    """Parse a system file: one 'lhs = rhs' equation per effective line."""
    equations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0]
        if not line.strip():
            continue
        if line.count("=") != 1:
            raise ParseError("expected exactly one '=' per equation", 0, lineno)
        lhs_text, rhs_text = line.split("=")
        lhs = parse_term(lhs_text, line=lineno)
        rhs = parse_term(rhs_text, line=lineno)
        equations.append((lhs, rhs))
    if not equations:
        raise ParseError("empty system", 0)
    return EquationSystem(tuple(equations))


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Const):
        return f"#{t.value}"
    return f"{t.op}({', '.join(format_term(a) for a in t.args)})"


def format_system(system: EquationSystem) -> str:
    return "\n".join(
        f"{format_term(lhs)} = {format_term(rhs)}" for lhs, rhs in system.equations
    ) + "\n"


def eval_term(alg: FiniteAlgebra, t: Term, assignment) -> int:
    """Bottom-up evaluation of t at the given assignment vector."""
    if isinstance(t, Var):
        if t.index < 1:
            raise EvalError(f"variable index must be >= 1, got {t.index}")
        if t.index > len(assignment):
            raise EvalError(
                f"variable x{t.index} beyond assignment of length {len(assignment)}"
            )
        return assignment[t.index - 1]
    if isinstance(t, Const):
        if not 0 <= t.value < alg.size:
            raise EvalError(f"constant #{t.value} out of range [0, {alg.size})")
        return t.value
    return apply_op(alg, t.op, [eval_term(alg, a, assignment) for a in t.args])


def term_length(t: Term) -> int:
    """Number of AST nodes (variables, constants, applications each count 1)."""
    if isinstance(t, App):
        return 1 + sum(term_length(a) for a in t.args)
    return 1


def max_variable(t: Term) -> int:
    if isinstance(t, Var):
        return t.index
    if isinstance(t, App):
        return max((max_variable(a) for a in t.args), default=0)
    return 0


def substitute(t: Term, mapping: dict[int, Term]) -> Term:
    """Replace each variable index in `mapping` by the given term."""
    if isinstance(t, Var):
        return mapping.get(t.index, t)
    if isinstance(t, App):
        return App(t.op, tuple(substitute(a, mapping) for a in t.args))
    return t


def check_term(alg: FiniteAlgebra, t: Term) -> None:
    """Static validation: ops exist, arities match, variable indices are
    1-based, constants in range."""
    if isinstance(t, Var):
        if t.index < 1:
            raise EvalError(f"variable index must be >= 1, got {t.index}")
    elif isinstance(t, Const):
        if not 0 <= t.value < alg.size:
            raise EvalError(f"constant #{t.value} out of range [0, {alg.size})")
    elif isinstance(t, App):
        op = alg.operation(t.op)
        if len(t.args) != op.arity:
            raise EvalError(
                f"operation {t.op!r} has arity {op.arity}, got {len(t.args)} arguments"
            )
        for a in t.args:
            check_term(alg, a)


def check_system(alg: FiniteAlgebra, system: EquationSystem) -> None:
    for lhs, rhs in system.equations:
        check_term(alg, lhs)
        check_term(alg, rhs)
