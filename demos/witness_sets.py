"""Find the small witness sets that make bounded-weight search work.

First: a map phi from small subsets of [n] into Z_p has a set U, no
larger than k*m*(p-1), whose subsets already reproduce phi's total sum.
Second: functions of low absorbing degree cannot tell a point from its
restriction to such a U.  Both witnesses are found by explicit scan.
"""

from supersolve.absorbing import TabulatedFunction, mask_indices, restrict_vector
from supersolve.witness import SubsetFunction, ks_find_u, redweight_find_u

phi = SubsetFunction(
    n=3, k=1, p=2, m=1,
    values={0b000: (1,), 0b001: (1,), 0b010: (0,), 0b100: (0,)},
)
u = ks_find_u(phi)
print(f"phi on subsets of [3]: witness U = {mask_indices(u)}")

# x1 + x2 + x3 over Z2 has absorbing degree 1
parity = TabulatedFunction(
    domain_size=2, arity=3, prime=2, table=(0, 1, 1, 0, 1, 0, 0, 1)
)
for point in ((1, 1, 1), (1, 1, 0), (0, 0, 0)):
    u = redweight_find_u([parity], 1, point)
    restricted = restrict_vector(point, u)
    print(
        f"parity at {point}: U = {mask_indices(u) or '{}'}, "
        f"f{point} = f{restricted} = {parity(point)}"
    )
