"""Solve a small system over the cyclic group Z4, both ways.

The bounded solver only looks at assignments with few coordinates away
from the base element; the brute-force oracle walks all of A^n.  Both
agree on solvability, but they report different first solutions because
they scan in different orders.
"""

from supersolve import parse_system, solve_bounded, solve_brute
from supersolve.groups import cyclic_group
from supersolve.solver import bench

z4 = cyclic_group(4)
system = parse_system("""
; x1 + x2 + x3 = 3 over Z4
add(add(x1, x2), x3) = #3
""")

bounded = solve_bounded(z4, system)
brute = solve_brute(z4, system)

print("bounded-weight scan:", bounded.verdict)
print("  stats:", bounded.stats)
print("exhaustive oracle:  ", brute.verdict)
print("  stats:", brute.stats)

print()
print("an unsatisfiable equation mentioning x16 shows the gap:")
z2 = cyclic_group(2)
hard = parse_system("add(x16, x16) = #1")
result = bench(z2, hard)
print(f"  bounded tested {result.bounded.stats.candidates_tested} candidates")
print(f"  brute tested   {result.brute.stats.candidates_tested} candidates")
print(f"  verdicts agree: {result.agree}")
