"""The public API is a deliberate list: a change to it must change this file.

Two tables pin it: the names in ``newton_flow.__all__``, and the settings
of each public function, dataclass or named tuple (parameter names and
defaults, or fields and defaults), so that adding or removing a setting
is as visible as adding or removing a name.  Enum and exception types
are not pinned by signature.
"""

import dataclasses
import inspect

import newton_flow

PUBLIC_NAMES = [
    "ConfigError", "Cylinder", "Definiteness", "DefinitenessClass",
    "Diagnostics", "DomainError", "ExtinctionError",
    "FlowConfig", "FlowState", "GapReport", "Hyperplane", "NewtonFamily",
    "NewtonFlowError", "NotPSDError", "NotSelfShrinkerError",
    "NumericalError", "ProfileCurve", "Revolution", "RunResult", "Sphere",
    "catalog", "cauchy_schwarz_bound", "classify", "definiteness",
    "drifted_apply", "elem_sym", "elem_sym_all", "elem_sym_excluding",
    "errors", "evaluate", "extinction_time", "fd", "flow", "gapcheck",
    "lr_apply", "modified_sff_norm_sq", "newton_family", "operators",
    "run", "self_shrinkers", "shrinker_radius", "sigma_p_cylinder",
    "sphere_radius_exact", "sqrt_psd", "surface_gradient", "symfun",
    "trace_identities", "verify_position_identity", "verify_product_rule",
    "verify_shrinker_pde", "verify_support_identity",
]

PUBLIC_SETTINGS = {
    "Cylinder": "n, m, radius",
    "Definiteness": "kind, min_eigenvalue, max_eigenvalue",
    "Diagnostics": "t, max_shrinker_residual, homothety_defect, min_radius, dt",
    "FlowConfig": "r, model, t_end, resolution=128, cfl_safety=0.25, rescaled=False, "
                  "scheme='euler', output_stride=10, boundary_values=None",
    "FlowState": "t, geometry, step_count=0",
    "GapReport": "r, n, sup_modified_norm_sq, min_eig_p, sup_a_norm_sq, sup_sigma_rm1, "
                 "sup_residual, psd_class, flags, classification, zero_multiplicity, "
                 "notes, gauss=None",
    "Hyperplane": "n",
    "NewtonFamily": "sigmas, P",
    "ProfileCurve": "z, f, boundary='neumann'",
    "Revolution": "profile, orientation=1",
    "RunResult": "diagnostics, status, state",
    "Sphere": "n, radius",
    "cauchy_schwarz_bound": "S, r",
    "classify": "report",
    "definiteness": "M",
    "drifted_apply": "geometry, values, r",
    "elem_sym": "k, r",
    "elem_sym_all": "k",
    "elem_sym_excluding": "k, i, r",
    "evaluate": "model, r",
    "extinction_time": "n, r, radius0",
    "lr_apply": "geometry, values, r",
    "modified_sff_norm_sq": "S, r",
    "newton_family": "S",
    "run": "config",
    "self_shrinkers": "n_max",
    "shrinker_radius": "m, r",
    "sigma_p_cylinder": "m, r, p",
    "sphere_radius_exact": "n, r, radius0, t",
    "sqrt_psd": "M",
    "surface_gradient": "geometry, values",
    "trace_identities": "S, r",
    "verify_position_identity": "model_at, r, resolutions",
    "verify_product_rule": "geometry, a, b, r",
    "verify_shrinker_pde": "model, r",
    "verify_support_identity": "model_at, r, resolutions",
}


def is_named_tuple(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")


def settings(obj) -> str:
    """Parameter names and defaults of a function, or init fields and
    defaults of a dataclass or named tuple, as 'name' or 'name=default'
    joined by commas."""
    if dataclasses.is_dataclass(obj):
        params = [(f.name, f.default) for f in dataclasses.fields(obj) if f.init]
        missing = dataclasses.MISSING
    elif is_named_tuple(obj):
        missing = dataclasses.MISSING
        params = [(name, obj._field_defaults.get(name, missing)) for name in obj._fields]
    else:
        params = [(p.name, p.default) for p in inspect.signature(obj).parameters.values()]
        missing = inspect.Parameter.empty
    return ", ".join(name if default is missing else f"{name}={default!r}"
                     for name, default in params)


def test_public_names_are_pinned():
    assert sorted(newton_flow.__all__) == PUBLIC_NAMES


def test_public_settings_are_pinned():
    found = {}
    for name in newton_flow.__all__:
        obj = getattr(newton_flow, name)
        if dataclasses.is_dataclass(obj) or is_named_tuple(obj) or inspect.isfunction(obj):
            found[name] = settings(obj)
    assert found == PUBLIC_SETTINGS
