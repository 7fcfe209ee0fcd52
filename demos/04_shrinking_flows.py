"""Explicit integration of the speed-sigma_r normal flow.

Circles and spheres obey closed-form radius laws, which the scalar round
law and the radial-graph integrator reproduce; the shrinking sphere of
the right radius moves purely by homothety; a tube is frozen by the
Gauss-curvature speed because its sigma_2 vanishes.
"""

import math

import numpy as np

from newton_flow import (
    FlowConfig,
    Revolution,
    Sphere,
    extinction_time,
    run,
    shrinker_radius,
    sphere_radius_exact,
)
from newton_flow.catalog import cylinder_profile, sphere_band_profile
from newton_flow.flow import homothety_factor, sphere_band_pin

print("=== a unit circle under curve shortening (the round law, resolution 256) ===")
config = FlowConfig(r=1, model=Sphere(n=1, radius=1.0), t_end=0.25,
                    resolution=256, output_stride=200)
result = run(config)
print("      t      min radius    exact      law error")
for d in result.diagnostics:
    exact = math.sqrt(1.0 - 2.0 * d.t)
    print(f"  {d.t:7.4f}   {d.min_radius:9.6f}   {exact:9.6f}   "
          f"{abs(d.min_radius - exact):.2e}")
print(f"  extinction time of the law: {extinction_time(1, 1, 1.0)}")

print()
print("=== a sphere band evolved as a radial graph (M=192) ===")
radius0, half_width = 2.0, 0.6
prof = sphere_band_profile(radius0, half_width, 192)
config = FlowConfig(r=1, model=Revolution(profile=prof), t_end=0.5,
                    boundary_values=sphere_band_pin(radius0, 1, half_width),
                    output_stride=50000)
result = run(config)
geo = result.state.geometry
numeric = float(np.sqrt(geo.f ** 2 + geo.z ** 2)[len(geo.z) // 2])
exact = sphere_radius_exact(2, 1, radius0, 0.5)
print(f"  radius at t=0.5: numeric {numeric:.8f}, exact {exact:.8f} "
      f"(steps: {result.state.step_count})")

print()
print("=== the shrinking sphere moves by pure homothety ===")
config = FlowConfig(r=1, model=Sphere(n=2, radius=shrinker_radius(2, 1)),
                    t_end=0.4, rescaled=True, resolution=128, output_stride=300)
result = run(config)
print("      t        phi(t)     homothety defect")
for d in result.diagnostics:
    print(f"  {d.t:7.4f}   {homothety_factor(1, d.t):8.5f}   {d.homothety_defect:.2e}")

print()
print("=== sigma_2 freezes a tube ===")
prof = cylinder_profile(1.0, 2.0, 128)
config = FlowConfig(r=2, model=Revolution(profile=prof), t_end=0.02)
result = run(config)
drift = np.abs(result.state.geometry.f - 1.0).max()
print(f"  after {result.state.step_count} Gauss-speed steps the profile moved "
      f"by {drift:.1e}")

print()
print("=== extinction is detected and reported ===")
config = FlowConfig(r=1, model=Sphere(n=2, radius=0.4), t_end=10.0, resolution=64)
result = run(config)
print(f"  status {result.status!r} at t = {result.state.t:.5f} "
      f"(exact extinction time {extinction_time(2, 1, 0.4):.5f})")
