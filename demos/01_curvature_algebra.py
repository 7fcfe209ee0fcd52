"""Tour of the curvature algebra.

Builds symmetric functions and the matrix family P_0..P_n for a few
shape operators, and checks the identities the rest of the package
leans on: the polynomial form, the trace formulas, the eigenvalue law,
and the Cauchy-Schwarz bound.
"""

import numpy as np

from newton_flow import (
    cauchy_schwarz_bound,
    definiteness,
    elem_sym,
    elem_sym_excluding,
    modified_sff_norm_sq,
    newton_family,
    shrinker_radius,
    sqrt_psd,
    trace_identities,
)

print("=== symmetric functions ===")
k = np.array([2.0, 3.0, 4.0])
print(f"k = {k}")
for r in range(4):
    print(f"  sigma_{r} = {elem_sym(k, r):g}")
print(f"  sigma_2 with the middle entry deleted: {elem_sym_excluding(k, 1, 2):g}")

print()
print("=== Newton family of a shape operator ===")
S = np.diag([1.0, 1.0, -1.0])
fam = newton_family(S)
print(f"S = diag(1, 1, -1), sigmas = {fam.sigmas}")
print(f"P_1 =\n{fam.P[1]}")
# P_3 = 0 is exact in the family; its polynomial form vanishes by Cayley-Hamilton
poly_3 = sum((-1) ** j * fam.sigmas[3 - j] * np.linalg.matrix_power(S, j) for j in range(4))
print(f"P_3 by the polynomial form has norm {np.linalg.norm(poly_3):.2e}")

print()
print("=== trace identities on a random operator ===")
rng = np.random.RandomState(7)
b = rng.standard_normal((4, 4))
S = 0.5 * (b + b.T)
for r in range(1, 5):
    res = trace_identities(S, r)
    print(f"  r={r}: residuals {res.trace_p:.2e} {res.trace_pa:.2e} {res.trace_pa2:.2e}")

print()
print("=== the modified norm on shrinking models equals r ===")
for n, m, r in [(3, 3, 1), (3, 3, 2), (4, 2, 2), (8, 5, 3)]:
    k = np.zeros(n)
    k[:m] = 1.0 / shrinker_radius(m, r)
    val = modified_sff_norm_sq(np.diag(k), r)
    kind = "sphere" if m == n else f"cylinder (rank {m})"
    print(f"  n={n} {kind:<18} r={r}: tr(P_(r-1) A^2) = {val:.14f}")

print()
print("=== square root and the Cauchy-Schwarz bound ===")
M = np.diag([4.0, 9.0, 0.0])
print(f"sqrt of diag(4, 9, 0) = diag({np.diag(sqrt_psd(M))})")
k = np.full(3, 1.0 / shrinker_radius(3, 2))
lhs, rhs = cauchy_schwarz_bound(np.diag(k), 2)
print(f"on the r=2 shrinking 3-sphere: r^2 sigma_r^2 = {lhs:.6f} <= {rhs:.6f}")
d = definiteness(newton_family(np.diag(k)).P[1])
print(f"P_1 there is {d.kind.value} (eigenvalues in [{d.min_eigenvalue:.3f}, "
      f"{d.max_eigenvalue:.3f}])")
