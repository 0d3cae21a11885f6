"""Hunt for Mal'cev terms in the ternary term clones of small algebras.

Groups always have one (x * y^-1 * z); the two-element lattice provably
has none, which the closure search certifies by exhausting the clone.
"""

from supersolve.groups import (
    cyclic_group,
    dihedral_group,
    klein_four,
    quaternion_group,
    two_element_lattice,
)
from supersolve.malcev import MalcevNotFound, find_malcev, ternary_term_clone
from supersolve.terms import format_term

algebras = [
    cyclic_group(2),
    cyclic_group(3),
    cyclic_group(4),
    klein_four(),
    dihedral_group(4),
    quaternion_group(),
    two_element_lattice(),
]

for alg in algebras:
    result = find_malcev(alg)
    if isinstance(result, MalcevNotFound):
        word = "provably none" if result.complete else "none found (capped)"
        print(f"{alg.name:8s} {word} after {result.tables_explored} tables")
    else:
        print(f"{alg.name:8s} {format_term(result.witness)}")

print()
tables, complete = ternary_term_clone(cyclic_group(2))
print(f"the full ternary term clone of Z2 has {len(tables)} operations "
      f"(complete: {complete}):")
for t in tables:
    print("  ", format_term(t.witness), "->", t.table)
