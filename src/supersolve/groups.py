"""Small fixture algebras: groups in table form, plus a two-element lattice.

Abelian fixtures use the additive signature add/neg/zero documented in the
algebra file format; the nonabelian groups use mul/inv/e.  Either way the
signature is (binary, unary, nullary), the identity is element 0, and the
maximal arity is 2.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra, OperationTable, direct_product


def cyclic_group(n: int) -> FiniteAlgebra:
    """Z_n with add/neg/zero."""
    add = tuple((a + b) % n for a in range(n) for b in range(n))
    neg = tuple((-a) % n for a in range(n))
    return FiniteAlgebra(
        f"Z{n}",
        n,
        (
            OperationTable("add", 2, add),
            OperationTable("neg", 1, neg),
            OperationTable("zero", 0, (0,)),
        ),
    )


def klein_four() -> FiniteAlgebra:
    """Z2 x Z2; element (x, y) encoded as 2x + y."""
    return direct_product(cyclic_group(2), cyclic_group(2))


def _group_from_mul(name: str, size: int, mul) -> FiniteAlgebra:
    table = tuple(mul(a, b) for a in range(size) for b in range(size))
    inv = []
    for a in range(size):
        (b,) = [b for b in range(size) if mul(a, b) == 0 and mul(b, a) == 0]
        inv.append(b)
    return FiniteAlgebra(
        name,
        size,
        (
            OperationTable("mul", 2, table),
            OperationTable("inv", 1, tuple(inv)),
            OperationTable("e", 0, (0,)),
        ),
    )


def dihedral_group(n: int) -> FiniteAlgebra:
    """The symmetries of a regular n-gon: r^i s^j encoded as i + n*j."""

    def mul(a, b):
        i, j = a % n, a // n
        k, l = b % n, b // n
        # s r^k = r^{-k} s, so r^i s^j r^k s^l = r^{i + (-1)^j k} s^{j+l}
        rot = (i + (k if j == 0 else -k)) % n
        return rot + n * ((j + l) % 2)

    return _group_from_mul(f"D{n}", 2 * n, mul)


def quaternion_group() -> FiniteAlgebra:
    """Q8 = {1, i, j, k, -1, -i, -j, -k}, encoded as axis + 4*sign."""
    # product of basis units: (result axis, extra sign)
    basis = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }

    def mul(a, b):
        ax_a, s_a = a % 4, a // 4
        ax_b, s_b = b % 4, b // 4
        ax, extra = basis[(ax_a, ax_b)]
        return ax + 4 * ((s_a + s_b + extra) % 2)

    return _group_from_mul("Q8", 8, mul)


def two_element_lattice() -> FiniteAlgebra:
    """({0, 1}, meet, join): the standard Mal'cev-free example."""
    return FiniteAlgebra(
        "lattice2",
        2,
        (
            OperationTable("meet", 2, (0, 0, 0, 1)),
            OperationTable("join", 2, (0, 1, 1, 1)),
        ),
    )
