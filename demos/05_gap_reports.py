"""Gap reports: sampled hypotheses and the shrinker taxonomy.

For each sampled model the report collects sup tr(P_(r-1) A^2), the
smallest eigenvalue of P_(r-1), and the worst shrinker residual, then
classifies: strict gap means hyperplane, the boundary value r with a
definite weight means sphere or cylinder, anything else is inconclusive
or not a shrinker at all.  The Gauss-flow fragment (r = n) checks weak
convexity and sup HK against n.
"""

import numpy as np

from newton_flow import (
    Cylinder,
    Hyperplane,
    Sphere,
    classify,
    evaluate,
    gauss_check,
    psd_sufficient,
    shrinker_radius,
)
from newton_flow.catalog import sample_fields

print("=== the taxonomy on exact models (n = 3) ===")
models = [
    ("hyperplane", Hyperplane(n=3), 2),
    ("shrinking sphere", Sphere(n=3, radius=shrinker_radius(3, 2)), 2),
    ("shrinking cylinder", Cylinder(n=3, m=2, radius=shrinker_radius(2, 2)), 2),
    ("oversize sphere", Sphere(n=3, radius=2.0 * shrinker_radius(3, 2)), 2),
    ("cylinder with r > m", Cylinder(n=3, m=1, radius=1.0), 2),
]
for name, model, r in models:
    rep = evaluate(model, r, resolution=12)
    print(f"  {name:<22} sup|sqrt(P)A|^2 = {rep.sup_modified_norm_sq:8.5f}  "
          f"min eig P = {rep.min_eig_p:8.5f}  residual = {rep.sup_residual:.2e}  "
          f"-> {rep.classification}")

print()
print("=== classify() raises on non-shrinkers ===")
rep = evaluate(Cylinder(n=3, m=1, radius=1.0), 2, resolution=12)
try:
    classify(rep)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")

print()
print("=== sup of the modified norm on spheres of growing radius ===")
n, r = 4, 2
print("  radius   sup|sqrt(P)A|^2   (boundary value is r = 2 at the shrinking radius)")
for scale in (0.8, 1.0, 1.5, 2.0):
    radius = scale * shrinker_radius(n, r)
    rep = evaluate(Sphere(n=n, radius=radius), r, resolution=8)
    print(f"  {radius:6.3f}   {rep.sup_modified_norm_sq:12.6f}")

print()
print("=== Gauss flow fragment: HK vs n on unit spheres ===")
for n in range(2, 6):
    g = gauss_check(Sphere(n=n, radius=1.0), resolution=8)
    print(f"  S^{n}(1): sup HK = {g.sup_hk:.1f}, weakly convex: {g.weakly_convex}, "
          f"K-identity residual {g.identity_residual:.1e}")

print()
print("=== sufficient conditions for a positive semidefinite weight ===")
rep = psd_sufficient(sample_fields(Sphere(n=3, radius=1.0), 8)[0], 2)
print(f"  sphere, r=2: fires ({rep.fired}) -- {rep.detail}")
rep = psd_sufficient(np.array([[1.0, -1.0]] * 4), 2)
print(f"  saddle,  r=2: fires ({rep.fired}) -- {rep.detail}")
