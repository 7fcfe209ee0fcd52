"""The public API is a deliberate list: a change to it must change this file."""

import newton_flow

PUBLIC_NAMES = [
    "CflViolationError", "ConfigError", "Cylinder", "Definiteness",
    "DefinitenessClass", "Diagnostics", "DomainError", "EllipsoidRev",
    "ExtinctionError", "FlowConfig", "FlowState", "GapReport", "Hyperplane",
    "NewtonFamily", "NewtonFlowError", "NotPSDError", "NotSelfShrinkerError",
    "NumericalError", "ProfileCurve", "Revolution", "RunResult", "ScalarField",
    "Sphere", "catalog", "cauchy_schwarz_bound", "classify", "definiteness",
    "drifted_apply", "elem_sym", "elem_sym_all", "elem_sym_excluding",
    "errors", "evaluate", "extinction_time", "fd", "flow", "gapcheck",
    "gauss_check", "lr_apply", "modified_sff_norm_sq", "newton_family",
    "operators", "psd_sufficient", "run", "self_shrinkers", "shrinker_radius",
    "sigma_p_cylinder", "sphere_radius_exact", "sqrt_psd", "surface_gradient",
    "symfun", "trace_identities", "verify_position_identity",
    "verify_product_rule", "verify_shrinker_pde", "verify_support_identity",
]


def test_public_names_are_pinned():
    assert sorted(newton_flow.__all__) == PUBLIC_NAMES
