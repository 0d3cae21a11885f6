"""How the solver's search radius is computed, and what it buys.

The tight bound sums per-prime-power contributions of |A|'s factorization
and is what the solver actually uses; the loose closed form only enters
the complexity accounting.  The candidate count it implies grows
polynomially in n, while the full space grows exponentially.
"""

from supersolve.bounds import make_bound_report
from supersolve.groups import cyclic_group
from supersolve.solver import bounded_weight_count

for card in (2, 3, 4, 6, 8):
    report = make_bound_report(s=1, mu=2, cardinality=card)
    print(
        f"|A|={card}: factorization {list(report.factorization)}, "
        f"k_list {list(report.k_list)}, tight {report.tight_bound}, "
        f"loose {report.loose_bound}, e {report.e}"
    )

print()
z2 = cyclic_group(2)
report = make_bound_report(s=1, mu=2, cardinality=z2.size)
w = report.tight_bound
print(f"single equation over Z2: weight bound {w}")
print(f"{'n':>4s} {'bounded set':>12s} {'full space':>12s}")
for n in (4, 8, 16, 32, 64):
    print(f"{n:4d} {bounded_weight_count(n, w, 2):12d} {2**n:12d}")
