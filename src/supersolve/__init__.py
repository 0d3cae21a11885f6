"""Equation solving over finite supernilpotent algebras by bounded-weight search.

The top level holds the library quick start: parse a system, then solve it
by the bounded-weight scan or by the brute-force oracle.  Everything else
is imported from its own module (``supersolve.algebra``, ``.terms``,
``.bounds``, ``.solver``, ``.malcev``, ``.absorbing``, ``.witness``,
``.groups``).
"""

from .solver import solve_bounded, solve_brute
from .terms import parse_system

__all__ = ["parse_system", "solve_bounded", "solve_brute"]

__version__ = "0.1.0"
