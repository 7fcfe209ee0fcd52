"""Convergence of the discrete curvature-weighted operators.

The two structural identities

    L_(r-1) <X,N>      = -r sigma_r - (sigma_1 sigma_r - (r+1) sigma_(r+1)) <X,N>
                         - <grad sigma_r, X>
    (1/2) L_(r-1) |X|^2 = (n-r+1) sigma_(r-1) + r sigma_r <X,N>

hold on any hypersurface.  On an ellipsoid band (not a shrinker), a
``Revolution`` over ``ellipsoid_band_profile`` at each resolution, the
discrete residuals shrink at second order under grid refinement, and the
product rule and drift decomposition behave the same way.
"""

import numpy as np

from newton_flow import (
    Revolution,
    drifted_apply,
    lr_apply,
    verify_position_identity,
    verify_product_rule,
    verify_shrinker_pde,
    verify_support_identity,
)
from newton_flow.catalog import ellipsoid_band_profile, revolution_geometry, self_shrinkers
from newton_flow.operators import position_gradient_term

def ellipsoid(m):
    """The band |z| <= 0.75 b of the ellipsoid a = 1, b = 2, on m nodes."""
    return Revolution(profile=ellipsoid_band_profile(1.0, 2.0, 0.75, m))


resolutions = [64, 128, 256]

print("=== identity refinement on the ellipsoid band (a=1, b=2) ===")
for r in (1, 2):
    for name, verify in (("support ", verify_support_identity),
                         ("position", verify_position_identity)):
        rep = verify(ellipsoid, r, resolutions)
        res = "  ".join(f"{x:.3e}" for x in rep.residuals)
        orders = ", ".join(f"{p:.2f}" for p in rep.observed_orders)
        print(f"  {name} r={r}:  residuals {res}   observed orders {orders}")

print()
print("=== product rule L(fg) = f Lg + g Lf + 2 <P grad f, grad g> ===")
for m in resolutions:
    geo = revolution_geometry(ellipsoid(m))
    f, g = np.sin(geo.z), np.cos(0.5 * geo.z) + 0.25 * geo.z
    print(f"  M={m:4d}: residual {verify_product_rule(geo, f, g, 1):.3e}")

print()
print("=== the drift term splits off exactly ===")
geo = revolution_geometry(ellipsoid(129))
field = geo.f ** 2 + geo.z ** 2
gap = np.abs(drifted_apply(geo, field, 1)
             + position_gradient_term(geo, field)
             - lr_apply(geo, field, 1)).max()
print(f"  max |drifted + <X, grad f> - L f| = {gap:.2e}")

print()
print("=== stationary shrinker identities on the catalog ===")
worst = 0.0
for model, r in self_shrinkers(6):
    worst = max(worst, verify_shrinker_pde(model, r).worst)
print(f"  worst residual of (|sqrt(P)A|^2 - r) sigma_r over the catalog: {worst:.2e}")
