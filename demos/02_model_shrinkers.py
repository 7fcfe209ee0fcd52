"""The model catalog and the shrinker equation sigma_r = -<X,N>.

Walks the exact models (hyperplane, sphere, spherical cylinder), shows
the closed-form sigma_p table on shrinking cylinders, and checks the
same quantities on a discretized sphere band, where the residual decays
at second order in the grid spacing.
"""

import numpy as np

from newton_flow import (
    Cylinder,
    Hyperplane,
    Revolution,
    Sphere,
    elem_sym,
    principal_curvatures,
    shrinker_radius,
    shrinker_residual,
    sigma_p_cylinder,
    support_function,
)
from newton_flow.catalog import revolution_geometry, sphere_band_profile

print("=== shrinking radii delta_m(r) = C(m,r)^(1/(r+1)) ===")
for m in range(1, 6):
    row = "  ".join(f"{shrinker_radius(m, r):7.4f}" for r in range(1, m + 1))
    print(f"  m={m}:  {row}")

print()
print("=== the shrinker equation on exact models ===")
cases = [
    (Hyperplane(n=3), 2, np.zeros(4)),
    (Sphere(n=3, radius=shrinker_radius(3, 2)), 2,
     np.array([shrinker_radius(3, 2), 0.0, 0.0, 0.0])),
    (Cylinder(n=3, m=2, radius=shrinker_radius(2, 1)), 1,
     np.array([shrinker_radius(2, 1), 0.0, 0.0, 1.5])),
    (Cylinder(n=3, m=1, radius=1.0), 2, np.array([1.0, 0.0, 0.0, 0.0])),
]
for model, r, point in cases:
    res = shrinker_residual(model, r, point)
    name = type(model).__name__
    print(f"  {name:<10} r={r}: sigma_r + <X,N> = {res:+.3e}"
          + ("   (not a shrinker: r > m)" if abs(res) > 1e-8 else ""))

print()
print("=== sigma_p on the r=2, m=3 shrinking cylinder ===")
radius = shrinker_radius(3, 2)
k = np.array([1.0 / radius] * 3 + [0.0])
print(f"  curvatures {np.round(k, 6)} (n=4)")
for p in range(5):
    closed = sigma_p_cylinder(3, 2, p)
    print(f"  sigma_{p}: recurrence {elem_sym(k, p):.12f}  closed form {closed:.12f}")

print()
print("=== sampled models carry curvatures and support ===")
unit, pole = Sphere(n=2, radius=1.0), np.array([0.0, 0.0, 1.0])
print(f"  the unit 2-sphere at {pole}: curvatures "
      f"{principal_curvatures(unit, pole)}, support {support_function(unit, pole)}")

print()
print("=== a discretized sphere band approaches the exact residual ===")
radius = shrinker_radius(2, 1)
for m in (33, 65, 129):
    rev = Revolution(profile=sphere_band_profile(radius, 0.5, m))
    g = revolution_geometry(rev)
    sigma1 = g.k_mer + g.k_par
    res = np.abs(sigma1 + g.support)[g.interior()].max()
    print(f"  M={m:4d}: sup |sigma_1 + <X,N>| = {res:.3e}")
point = np.array([rev.profile.f[64], 0.0, rev.profile.z[64]])
print(f"  curvatures at a node: {np.round(principal_curvatures(rev, point), 6)}"
      f", support {support_function(rev, point):.6f} (exact {-radius:.6f})")
