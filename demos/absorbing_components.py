"""Split Boolean AND and XOR into their absorbing components.

Every tabulated function A^n -> Z_p is a unique sum of components, one
per coordinate subset, where the I-component depends only on the
coordinates in I and dies whenever one of them is 0.  XOR stops at
singletons (degree 1); AND needs the full pair (degree 2).
"""

from supersolve.absorbing import TabulatedFunction, absorbing_degree, decompose, mask_indices

AND = TabulatedFunction(domain_size=2, arity=2, prime=2, table=(0, 0, 0, 1))
XOR = TabulatedFunction(domain_size=2, arity=2, prime=2, table=(0, 1, 1, 0))

for name, f in (("AND", AND), ("XOR", XOR)):
    print(f"{name}: table {f.table}")
    for mask, comp in sorted(decompose(f).components.items()):
        label = mask_indices(mask) or "{}"
        print(f"  component for I={label}: {comp.table}")
    print(f"  absorbing degree: {absorbing_degree(f)}")
    print()
