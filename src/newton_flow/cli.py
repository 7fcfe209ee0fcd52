"""Command-line front end.

Subcommands: algebra (curvature algebra from an inline curvature list),
residual (worst shrinker residual of a scene), gap (gap report JSON),
flow (time integration with CSV diagnostics and a JSON summary), and
verify (identity convergence suites with a pass/fail table).

Exit codes: 0 success, 2 parse/config error, 3 domain error, 4 numerical
failure (unexpected extinction, stability violation, or a reported value
that leaves the float range), 5 verification failure.  Output is
deterministic: JSON keys are sorted and numbers are rendered with 17
significant digits.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import catalog, flow, gapcheck, operators
from .errors import (
    CflViolationError,
    ConfigError,
    DomainError,
    ExtinctionError,
    NewtonFlowError,
    NumericalError,
    check_order,
)
from .symfun import (
    definiteness,
    elem_sym_all_rows,
    modified_sff_norm_sq,
    newton_family,
    trace_identities,
)

logger = logging.getLogger("newton_flow")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4
EXIT_VERIFY = 5


# ---------------------------------------------------------------------------
# deterministic rendering

def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Sorted-key JSON with 17-significant-digit numbers."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {render_json(obj[key], indent + 1)}"
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float, np.bool_, np.integer, np.floating)):
        return format_number(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")


def write_output(text: str, path: str | None):
    """Write text to path, or to stdout without one; a failed write is a ConfigError."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:     # ValueError: a NUL in the path
        raise ConfigError(f"cannot write output: {exc}") from exc


def emit_json(obj, path: str | None):
    write_output(render_json(obj) + "\n", path)


# ---------------------------------------------------------------------------
# scene configuration

_MODEL_KEYS = {
    "hyperplane": {"n"},
    "sphere": {"n", "radius"},
    "cylinder": {"n", "m", "radius", "axial_extent"},
    "ellipsoid_rev": {"a", "b", "band", "resolution"},
    "sphere_band": {"radius", "half_width", "samples"},
    "cylinder_band": {"radius", "half_width", "samples"},
    "revolution": {"z", "f", "boundary", "orientation"},
}

_FLOW_KEYS = {"t_end", "cfl_safety", "scheme", "rescaled", "output_stride",
              "resample_every", "pinned_boundary"}
_SCENE_KEYS = {"model", "r", "resolution", "flow", "output"}
_OUTPUT_KEYS = {"csv", "report"}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


_REQUIRED = object()


def _field(body: dict, key: str, convert, where: str, default=_REQUIRED):
    """body[key] passed through convert; a missing or ill-typed value is a ConfigError."""
    if key not in body:
        if default is _REQUIRED:
            raise ConfigError(f"{where} needs {key!r}")
        return default
    try:
        return convert(body[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: bad {key!r} value {body[key]!r}") from exc


def _integer(value) -> int:
    """Strict int: ints, integral floats and integer text pass; bools,
    fractions and non-finite numbers raise ValueError (no truncation)."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    if isinstance(value, (int, str)):
        return int(value)
    value = float(value)
    if not value.is_integer():     # also false for nan and inf
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _real(value) -> float:
    """float, except that a boolean raises ValueError (float(True) is 1.0)."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _boolean(value) -> bool:
    """Only JSON true/false pass; truthy strings and numbers raise ValueError."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _string(value) -> str:
    """Only JSON strings pass; str() would turn ["rk2"] into "['rk2']"."""
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _floats(values) -> np.ndarray:
    if not isinstance(values, list):
        raise ValueError(f"{values!r} is not an array")
    return np.array([_real(v) for v in values], dtype=float)


def parse_model(spec: dict):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("model must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"unknown model kind {kind!r}")
    body = {k: v for k, v in spec.items() if k != "kind"}
    where = f"model kind {kind!r}"
    _reject_unknown(body, _MODEL_KEYS[kind], where)

    def get(key, convert, default=_REQUIRED):
        return _field(body, key, convert, where, default)

    if kind == "hyperplane":
        return catalog.Hyperplane(n=get("n", _integer))
    if kind == "sphere":
        return catalog.Sphere(n=get("n", _integer), radius=get("radius", _real))
    if kind == "cylinder":
        extent = body.get("axial_extent")
        return catalog.Cylinder(
            n=get("n", _integer), m=get("m", _integer), radius=get("radius", _real),
            axial_extent=None if extent is None else get("axial_extent", _real))
    if kind == "ellipsoid_rev":
        kwargs = {"a": get("a", _real), "b": get("b", _real)}
        if "band" in body:
            kwargs["band"] = get("band", _real)
        if "resolution" in body:
            kwargs["resolution"] = get("resolution", _integer)
        return catalog.EllipsoidRev(**kwargs)
    if kind == "sphere_band":
        profile = catalog.sphere_band_profile(
            get("radius", _real), get("half_width", _real),
            get("samples", _integer, 128))
        return catalog.Revolution(profile=profile)
    if kind == "cylinder_band":
        profile = catalog.cylinder_profile(
            get("radius", _real), get("half_width", _real),
            get("samples", _integer, 128))
        return catalog.Revolution(profile=profile)
    profile = catalog.ProfileCurve(
        z=get("z", _floats), f=get("f", _floats),
        boundary=get("boundary", _string, "neumann"))
    return catalog.Revolution(profile=profile,
                              orientation=get("orientation", _integer, 1))


def load_scene(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scene config must be a JSON object")
    _reject_unknown(raw, _SCENE_KEYS, "scene")
    if "model" not in raw:
        raise ConfigError("scene config needs a 'model'")
    scene = {
        "model": parse_model(raw["model"]),
        "r": _field(raw, "r", _integer, "scene", 1),
        "resolution": _field(raw, "resolution", _integer, "scene", 16),
        "flow": raw.get("flow", {}),
        "output": raw.get("output", {}),
    }
    if not isinstance(scene["flow"], dict):
        raise ConfigError("'flow' must be an object")
    _reject_unknown(scene["flow"], _FLOW_KEYS, "flow")
    if not isinstance(scene["output"], dict):
        raise ConfigError("'output' must be an object")
    _reject_unknown(scene["output"], _OUTPUT_KEYS, "output")
    for key in scene["output"]:     # an int path would open a file descriptor
        _field(scene["output"], key, _string, "output")
    return scene


# ---------------------------------------------------------------------------
# subcommands

def _parse_curvatures(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",") if part != ""])
    except ValueError as exc:
        raise ConfigError(f"bad curvature list {text!r}") from exc


def _parse_preset(text: str):
    """cyl:n=3,m=2,r=1 -> cylinder curvature vector and its r."""
    try:
        kind, body = text.split(":", 1)
        fields = dict(part.split("=") for part in body.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad preset {text!r}") from exc
    if kind != "cyl":
        raise ConfigError(f"unknown preset kind {kind!r}")
    if set(fields) != {"n", "m", "r"}:
        raise ConfigError("cyl preset needs n=, m=, r=")
    n, m, r = (_field(fields, key, _integer, "cyl preset") for key in "nmr")
    if not 1 <= m <= n:
        raise DomainError(f"cyl preset needs 1 <= m <= n, got m={m}, n={n}")
    radius = catalog.shrinker_radius(m, r)
    k = np.zeros(n)
    k[:m] = 1.0 / radius
    return k, r


def cmd_algebra(args) -> int:
    if args.preset:
        k, r = _parse_preset(args.preset)
    else:
        if args.k is None or args.r is None:
            raise ConfigError("algebra needs --k and --r (or --preset)")
        k, r = _parse_curvatures(args.k), args.r
    n = k.size
    check_order(r, n)
    S = np.diag(k)
    fam = newton_family(S)
    p_prev = fam.P[r - 1]
    residuals = trace_identities(S, r)
    psd = definiteness(p_prev)
    out = {
        "n": n,
        "r": r,
        "curvatures": list(k),
        "sigmas": list(fam.sigmas),
        "pEigenvalues": list(np.sort(np.linalg.eigvalsh(p_prev))),
        "modifiedNormSq": modified_sff_norm_sq(S, r),
        "psdClass": psd.kind.value,
        "traceResiduals": {
            "traceP": residuals.trace_p,
            "tracePA": residuals.trace_pa,
            "tracePA2": residuals.trace_pa2,
        },
    }
    emit_json(out, args.out)
    return EXIT_OK


def cmd_residual(args) -> int:
    scene = load_scene(args.config)
    r = args.r if args.r is not None else scene["r"]
    resolution = args.resolution if args.resolution is not None else scene["resolution"]
    check_order(r, scene["model"].n)
    arr = catalog.sample_arrays(scene["model"], resolution)
    sig = elem_sym_all_rows(arr.curvatures)
    sup = float(np.abs(sig[:, r] + arr.support).max())
    if not math.isfinite(sup):
        raise NumericalError("sup |sigma_r + <X,N>| leaves the float range")
    emit_json({"r": r, "resolution": resolution, "supResidual": sup}, args.out)
    return EXIT_OK


def cmd_gap(args) -> int:
    scene = load_scene(args.config)
    r = args.r if args.r is not None else scene["r"]
    resolution = args.resolution if args.resolution is not None else scene["resolution"]
    report = gapcheck.evaluate(scene["model"], r, resolution)
    payload = report.to_json_dict()
    if report.gauss is not None:
        payload["gauss"] = report.gauss.to_json_dict()
    emit_json(payload, args.out or scene["output"].get("report"))
    return EXIT_OK


def _diagnostics_csv_lines(diagnostics):
    yield "t,max_residual,homothety_defect,min_radius,dt"
    for d in diagnostics:
        defect = "nan" if math.isnan(d.homothety_defect) else format(d.homothety_defect, ".17g")
        yield ",".join([
            format(d.t, ".17g"),
            format(d.max_shrinker_residual, ".17g"),
            defect,
            format(d.min_radius, ".17g"),
            format(d.dt, ".17g"),
        ])


def _sphere_band_pin_from_profile(model, r: int):
    """Exact Dirichlet data for a scene whose profile is a sphere band."""
    if not isinstance(model, catalog.Revolution):
        raise ConfigError("pinned_boundary needs a revolution-type model")
    prof = model.profile
    radii = np.hypot(prof.f, prof.z)
    radius = float(radii[0])
    if np.abs(radii - radius).max() > 1e-9 * radius:
        raise ConfigError("pinned_boundary: profile is not a sphere band")
    half_width = float(np.abs(prof.z).max())
    return flow.sphere_band_pin(radius, r, half_width)


def cmd_flow(args) -> int:
    scene = load_scene(args.config)
    r = args.r if args.r is not None else scene["r"]
    flow_spec = dict(scene["flow"])
    if args.t_end is not None:
        flow_spec["t_end"] = args.t_end
    if "t_end" not in flow_spec:
        raise ConfigError("flow needs t_end (config flow.t_end or --t-end)")

    def get(key, convert, default=_REQUIRED):
        return _field(flow_spec, key, convert, "flow", default)

    boundary_values = None
    if get("pinned_boundary", _boolean, False):
        boundary_values = _sphere_band_pin_from_profile(scene["model"], r)
    config = flow.FlowConfig(
        r=r,
        model=scene["model"],
        t_end=get("t_end", _real),
        resolution=(args.resolution if args.resolution is not None
                    else scene["resolution"]),
        cfl_safety=get("cfl_safety", _real, 0.25),
        rescaled=get("rescaled", _boolean, False),
        scheme=get("scheme", _string, "euler"),
        output_stride=get("output_stride", _integer, 10),
        resample_every=get("resample_every", _integer, 0),
        boundary_values=boundary_values,
    )
    result = flow.run(config)
    final = result.final
    summary = {
        "status": result.status,
        "tFinal": result.state.t,
        "stepCount": result.state.step_count,
        "finalMinRadius": final.min_radius,
        "finalMaxResidual": final.max_shrinker_residual,
        "finalHomothetyDefect": (None if math.isnan(final.homothety_defect)
                                 else final.homothety_defect),
        "diagnosticsCount": len(result.diagnostics),
    }
    csv_text = "\n".join(_diagnostics_csv_lines(result.diagnostics)) + "\n"
    csv_path = args.out or scene["output"].get("csv")
    if csv_path:
        write_output(csv_text, csv_path)
        emit_json(summary, scene["output"].get("report"))
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(render_json(summary) + "\n")
    if result.status == "extinct" and not args.allow_extinction:
        logger.error("flow went extinct before t_end")
        return EXIT_NUMERICAL
    return EXIT_OK


def _product_rule_residual(rev, r: int) -> float:
    """Product-rule residual for two smooth trigonometric fields."""
    z = rev.profile.z
    fa = operators.ScalarField(values=np.sin(z), geometry=rev)
    fb = operators.ScalarField(values=np.cos(0.5 * z) + 0.25 * z, geometry=rev)
    return operators.verify_product_rule(fa, fb, r)


def _verify_rows(resolutions):
    ellipsoid = catalog.EllipsoidRev(a=1.0, b=2.0)
    reports = []
    for r in (1, 2):
        reports.append(("support-identity", operators.verify_support_identity(
            ellipsoid, r, resolutions)))
        reports.append(("position-identity", operators.verify_position_identity(
            ellipsoid, r, resolutions)))
    for r in (1, 2):
        reports.append(("product-rule", operators.refinement_report(
            "product-rule", _product_rule_residual, ellipsoid, r, resolutions)))
    rows = [(name, rep.r, rep.residuals[-1], rep.observed_orders, rep.passes())
            for name, rep in reports]
    worst = 0.0
    for model, r in catalog.self_shrinkers(6):
        rep = operators.verify_shrinker_pde(model, r)
        worst = max(worst, rep.worst)
    rows.append(("shrinker-pde(catalog n<=6)", 0, worst, (), worst <= 1e-10))
    return rows


def cmd_verify(args) -> int:
    try:
        resolutions = [_integer(x) for x in args.resolutions.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --resolutions {args.resolutions!r}") from exc
    if len(resolutions) < 2:
        raise ConfigError("verify needs at least two resolutions")
    if any(a >= b for a, b in zip(resolutions, resolutions[1:])):
        raise ConfigError("verify needs strictly increasing resolutions")
    rows = _verify_rows(resolutions)
    all_ok = True
    records = []
    for name, r, finest, orders, ok in rows:
        all_ok &= ok
        order_text = ",".join(format(p, ".3f") for p in orders) or "-"
        r_text = f"r={r}" if r else "    "
        print(f"{'PASS' if ok else 'FAIL'}  {name:<28} {r_text}  "
              f"finest_residual={format(finest, '.3e')}  orders=[{order_text}]")
        records.append({
            "identity": name,
            "r": r,
            "resolutions": resolutions,
            "finestResidual": finest,
            "observedOrders": list(orders),
            "pass": bool(ok),
        })
    print("verification " + ("passed" if all_ok else "FAILED"))
    if args.out:
        emit_json({"records": records, "pass": bool(all_ok)}, args.out)
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newton-flow",
        description="Curvature algebra, model self-shrinkers, and explicit "
                    "integration of speed-sigma_r normal flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="curvature algebra of an inline vector")
    p.add_argument("--k", help="comma-separated principal curvatures")
    p.add_argument("--r", type=int, help="symmetric-function order")
    p.add_argument("--preset", help="model preset, e.g. cyl:n=3,m=2,r=1")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(handler=cmd_algebra)

    for name, handler, extra in (
        ("residual", cmd_residual, "worst shrinker residual over samples"),
        ("gap", cmd_gap, "gap-hypothesis report as JSON"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", required=True, help="scene JSON file")
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--resolution", type=int, default=None)
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.set_defaults(handler=handler)

    p = sub.add_parser("flow", help="run the flow; CSV diagnostics + JSON summary")
    p.add_argument("--config", required=True, help="scene JSON file")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.add_argument("--allow-extinction", action="store_true",
                   help="exit 0 even if the flow goes extinct before t_end")
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("verify", help="identity convergence suites")
    p.add_argument("--resolutions", default="64,128,256",
                   help="comma-separated grid sizes")
    p.add_argument("--out", help="also write the records as JSON here")
    p.set_defaults(handler=cmd_verify)
    return parser


def _setup_logging():
    level = os.environ.get("NEWTON_FLOW_LOG", "warn").lower()
    mapping = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=mapping.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CflViolationError, ExtinctionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NewtonFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
