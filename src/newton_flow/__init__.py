"""Curvature algebra, model self-shrinkers, and speed-sigma_r normal flows.

The package is organized by capability:

* symfun    -- symmetric-function algebra of shape operators
* catalog   -- model hypersurfaces with exact or discretized curvature data
* operators -- discrete curvature-weighted second-order operators
* flow      -- explicit time integration with shrinker diagnostics
* gapcheck  -- sampled gap-hypothesis reports and classification
* cli       -- the newton-flow command-line front end
"""

from .catalog import (
    Cylinder,
    EllipsoidRev,
    Hyperplane,
    ProfileCurve,
    Revolution,
    Sphere,
    principal_curvatures,
    self_shrinkers,
    shrinker_radius,
    shrinker_residual,
    sigma_p_cylinder,
    support_function,
)
from .errors import (
    CflViolationError,
    ConfigError,
    DomainError,
    ExtinctionError,
    NewtonFlowError,
    NotPSDError,
    NotSelfShrinkerError,
    NumericalError,
)
from .flow import (
    Diagnostics,
    FlowConfig,
    FlowState,
    RunResult,
    extinction_time,
    run,
    sphere_radius_exact,
)
from .gapcheck import GapReport, classify, evaluate, gauss_check, psd_sufficient
from .operators import (
    ScalarField,
    drifted_apply,
    lr_apply,
    surface_gradient,
    verify_position_identity,
    verify_product_rule,
    verify_shrinker_pde,
    verify_support_identity,
)
from .symfun import (
    Definiteness,
    DefinitenessClass,
    NewtonFamily,
    cauchy_schwarz_bound,
    definiteness,
    elem_sym,
    elem_sym_all,
    elem_sym_excluding,
    modified_sff_norm_sq,
    newton_family,
    sqrt_psd,
    trace_identities,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
