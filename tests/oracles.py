"""Reference implementations that the tests check the package against.

None of these is called by the package: the bounded scan's canonical
order as a plain generator, the paper's Mal'cev normalization, the
absorbing components and degree computed from their definition, the
absorb document as a dict of Python ints for json.dumps, an exact
decision procedure for linear systems over Z_m and over Z2 x Z2, and a
reference parser of system files that reads one token at a time and
builds a fresh tree per term.
"""

from itertools import combinations, product
from math import gcd

from supersolve.absorbing import (
    AbsorbingDecomposition,
    TabulatedFunction,
    _tensor,
    restrict_vector,
)
from supersolve.algebra import FiniteAlgebra
from supersolve.malcev import TernaryFunctionTable, is_malcev
from supersolve.terms import _TOKEN, App, Const, EquationSystem, ParseError, Term, Var, fold


def enumerate_bounded_weight(n: int, w: int, size: int, z: int = 0):
    """Assignments with <= min(w, n) coordinates differing from z, in
    canonical order: weight ascending, support lexicographic, values
    lexicographic over the non-z elements in ascending order."""
    if w < 0:
        raise ValueError(f"weight cap must be >= 0, got {w}")
    if not 0 <= z < size:
        raise ValueError(f"base element {z} out of range [0, {size})")
    nonz = [v for v in range(size) if v != z]
    for weight in range(min(w, n) + 1):
        for support in combinations(range(n), weight):
            for values in product(nonz, repeat=weight):
                a = [z] * n
                for pos, v in zip(support, values):
                    a[pos] = v
                yield tuple(a)


# ---------------------------------------------------------------------------
# Mal'cev normalization


def substitute(t: Term, mapping: dict[int, Term]) -> Term:
    """Replace each variable index in `mapping` by the given term."""

    def visit(u: Term, args: list[Term]) -> Term:
        if isinstance(u, Var):
            return mapping.get(u.index, u)
        return App(u.op, tuple(args)) if isinstance(u, App) else u

    return fold([t], visit)[0]


def normalize_system(
    alg: FiniteAlgebra,
    system: EquationSystem,
    d: TernaryFunctionTable,
    z: int = 0,
) -> list[Term]:
    """Rewrite each equation f = g as one term h = d(f, g, z) whose value-z
    set equals the equation's solution set (d must be Mal'cev)."""
    if not is_malcev(d):
        raise ValueError("normalization requires a Mal'cev table")
    if not 0 <= z < alg.size:
        raise ValueError(f"base element {z} out of range [0, {alg.size})")
    out = []
    for lhs, rhs in system.equations:
        out.append(substitute(d.witness, {1: lhs, 2: rhs, 3: Const(z)}))
    return out


# ---------------------------------------------------------------------------
# absorbing components from the definition


def _submasks(mask: int):
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _check_mask(f: TabulatedFunction, mask: int):
    if mask < 0 or mask >> f.arity:
        raise ValueError(f"mask {mask} names coordinates beyond arity {f.arity}")


def component_moebius(f: TabulatedFunction, mask: int, a) -> int:
    """Alternating-sum value of the I-component at one point:
    sum over J <= I of (-1)**(|I| + |J|) * f(a restricted to J), mod p."""
    _check_mask(f, mask)
    total = 0
    bits = mask.bit_count()
    for sub in _submasks(mask):
        sign = -1 if (bits + sub.bit_count()) % 2 else 1
        total += sign * f(restrict_vector(a, sub))
    return total % f.prime


def absorbing_degree_by_definition(f: TabulatedFunction) -> int:
    """max |J| over the masks J whose component, by its alternating sum,
    is nonzero at some point of A^n; -1 if there is none."""
    points = list(product(range(f.domain_size), repeat=f.arity))
    return max(
        (mask.bit_count() for mask in range(1 << f.arity)
         if any(component_moebius(f, mask, a) for a in points)),
        default=-1,
    )


def is_absorbing_in(f: TabulatedFunction, mask: int) -> bool:
    """True iff f depends only on coordinates in the mask and vanishes
    whenever some masked coordinate is 0."""
    _check_mask(f, mask)
    t = _tensor(f)
    for j in range(f.arity):
        if mask >> j & 1:
            if t.take(0, axis=j).any():
                return False
        elif not (t == t.take([0], axis=j)).all():
            return False
    return True


def decomposition_doc(dec: AbsorbingDecomposition) -> dict:
    """The absorb document's fields: subset bitmask (as string key) ->
    component table, from a list per row, as json.dumps takes it."""
    return {
        "domain_size": dec.function.domain_size,
        "arity": dec.function.arity,
        "prime": dec.function.prime,
        "absorbing_degree": dec.degree(),
        "components": {str(mask): table for mask, table in enumerate(dec.rows.tolist())},
    }


# ---------------------------------------------------------------------------
# linear systems over Z_m and Z2 x Z2


def linear_form(t: Term, m: int, part=lambda c: c) -> tuple[int, dict[int, int]]:
    """t over groups.cyclic_group(m), whose signature is add/neg/zero, as
    (c, a) with t(x) = c + sum of a[i] * x_i mod m; a constant #k counts
    as part(k), its coordinate in Z_m when the group is a product."""

    def visit(u: Term, args) -> tuple[int, dict[int, int]]:
        if isinstance(u, Var):
            return 0, {u.index: 1}
        if isinstance(u, Const):
            return part(u.value), {}
        if u.op == "zero":
            return 0, {}
        if u.op == "neg":
            c, a = args[0]
            return -c % m, {i: -k % m for i, k in a.items()}
        (c, a), (d, b) = args
        return (c + d) % m, {i: (a.get(i, 0) + b.get(i, 0)) % m for i in a.keys() | b.keys()}

    return fold([t], visit)[0]


def linear_system(system: EquationSystem, m: int, cols, part=lambda c: c):
    """The system over Z_m as A x = b (mod m), one row per equation lhs - rhs,
    one column per variable index in cols; constants as in linear_form."""
    A, b = [], []
    for lhs, rhs in system.equations:
        (c, a), (d, e) = linear_form(lhs, m, part), linear_form(rhs, m, part)
        A.append([(a.get(i, 0) - e.get(i, 0)) % m for i in cols])
        b.append((d - c) % m)
    return A, b


def solve_linear(A, b, m: int):
    """Decide A x = b (mod m) exactly: (True, x) with A x = b, or (False, y)
    with y A = 0 and y b != 0, all mod m.

    Unimodular row and column operations over Z bring A to a diagonal D =
    U A V (Smith normal form without its divisibility chain, which the
    decision does not need).  With x = V x' and c = U b the system is
    d_i x'_i = c_i (mod m), one equation a row (d_i = 0 past the
    diagonal), solvable iff g = gcd(d_i, m) divides c_i.  Row i with g not
    dividing c_i gives y = (m / g) U_i: then y A = (m / g) d_i (V^-1)_i,
    a multiple of m, and y b = (m / g) c_i, not one."""
    s, n = len(A), len(A[0])
    D = [list(row) for row in A]
    U = [[int(i == j) for j in range(s)] for i in range(s)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(min(s, n)):
        while True:
            pivots = [(abs(D[i][j]), i, j) for i in range(t, s) for j in range(t, n) if D[i][j]]
            if not pivots:
                break
            _, i, j = min(pivots)
            D[t], D[i], U[t], U[i] = D[i], D[t], U[i], U[t]
            for M in (D, V):
                for row in M:
                    row[t], row[j] = row[j], row[t]
            p, done = D[t][t], True
            for i in range(t + 1, s):
                q = D[i][t] // p
                D[i] = [x - q * y for x, y in zip(D[i], D[t])]
                U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                done = done and not D[i][t]
            for j in range(t + 1, n):
                q = D[t][j] // p
                for M in (D, V):
                    for row in M:
                        row[j] -= q * row[t]
                done = done and not D[t][j]
            if done:
                break
    c = [sum(u * v for u, v in zip(row, b)) for row in U]
    x = [0] * n
    for i in range(s):
        d = D[i][i] if i < n else 0
        g = gcd(d, m)
        if c[i] % g:
            return False, [m // g * u % m for u in U[i]]
        if d:
            x[i] = c[i] // g * pow(d // g, -1, m // g) % m
    return True, [sum(v * y for v, y in zip(row, x)) % m for row in V]


def solve_klein_four(system: EquationSystem, cols):
    """Decide a system over groups.klein_four(), whose element (x, y) is
    2x + y: one system over Z2 per coordinate, with the same coefficients
    and the constants' bits.  (True, v) with v[j] = 2x + y for column j,
    or (False, (bit, y)) with y solve_linear's certificate for the
    coordinate k >> bit & 1 that has no solution."""
    solutions = []
    for bit in (1, 0):
        A, b = linear_system(system, 2, cols, lambda k: k >> bit & 1)
        sat, v = solve_linear(A, b, 2)
        if not sat:
            return False, (bit, v)
        solutions.append(v)
    return True, [2 * x + y for x, y in zip(*solutions)]


# ---------------------------------------------------------------------------
# the reference parser: a scanner called once per token, and a shift-reduce
# parser that builds each occurrence of a subterm as its own tree; lines end
# at '\n', '\r\n' or '\r' only, as in supersolve.terms.parse_system


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
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
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
