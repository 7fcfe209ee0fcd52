"""Command-line front end.

Subcommands: algebra (curvature algebra from an inline curvature list),
residual (worst shrinker residual of a scene, read off its gap report),
gap (gap report JSON), flow (time integration with CSV diagnostics and a
JSON summary), and verify (identity convergence suites with a pass/fail
table).  A scene is parsed through one table per scene object
(``_MODELS``, ``_FLOW_FIELDS``), every field of a model type-checked
before the model is built; each answer is one library call, rendered.
``pinned_boundary`` pins a ``sphere_band`` scene's ends to the sphere law
of its own radius and half-width, and is refused on any other kind.

Exit codes: 0 success, 2 parse/config error, 3 domain error, 4 numerical
failure (unexpected extinction, or a value that leaves the float range),
5 verification failure.  Output is deterministic: JSON keys are sorted
and numbers are rendered with 17 significant digits.

``main(argv)`` may be called repeatedly in one process: it builds its
argparse parser on the first call and reuses it, and it reads
NEWTON_FLOW_LOG (critical, error, warning or warn, info, debug; warn by
default, and an unknown value is named in one stderr line) on every
call.  Log lines go to the current stderr through one handler on the
``newton_flow`` logger, which does not propagate to the root logger.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import catalog, flow, gapcheck, operators
from .errors import (
    ConfigError,
    DomainError,
    NewtonFlowError,
    brief,
    check_order,
)
from .symfun import _p_spectrum, modified_sff_norm_sq, trace_identities

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

_SCENE_KEYS = {"model", "r", "resolution", "flow", "output"}
_OUTPUT_KEYS = {"csv", "report"}


def _reject_unknown(d: dict, allowed, where: str):
    unknown = set(d).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {brief(sorted(unknown))}")


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
        raise ConfigError(f"{where}: bad {key!r} value {brief(body[key])}") from exc


def _fields(body: dict, table: dict, where: str) -> dict:
    """Every key of table, {key: (convert, default)}, read from body in order."""
    return {key: _field(body, key, convert, where, default)
            for key, (convert, default) in table.items()}


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
    """float, except that a boolean raises ValueError (float(True) is 1.0),
    and an integer past the float range is +-inf, as the literal 1e400 is."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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


def _revolution(z, f, boundary, orientation):
    return catalog.Revolution(profile=catalog.ProfileCurve(z=z, f=f, boundary=boundary),
                              orientation=orientation)


_BAND = {"radius": (_real, _REQUIRED), "half_width": (_real, _REQUIRED),
         "samples": (_integer, 128)}

# model kind -> (builder, {key: (converter, default)}), keys in reading order;
# an ellipsoid has no builder here: load_scene builds it at the scene's resolution
_MODELS = {
    "hyperplane": (catalog.Hyperplane, {"n": (_integer, _REQUIRED)}),
    "sphere": (catalog.Sphere, {"n": (_integer, _REQUIRED), "radius": (_real, _REQUIRED)}),
    "cylinder": (catalog.Cylinder, {"n": (_integer, _REQUIRED), "m": (_integer, _REQUIRED),
                                    "radius": (_real, _REQUIRED)}),
    "ellipsoid_rev": (None, {"a": (_real, _REQUIRED), "b": (_real, _REQUIRED),
                             "band": (_real, 0.75)}),
    "sphere_band": (lambda **band: catalog.Revolution(
        profile=catalog.sphere_band_profile(**band)), _BAND),
    "cylinder_band": (lambda **band: catalog.Revolution(
        profile=catalog.cylinder_profile(**band)), _BAND),
    "revolution": (_revolution, {
        "z": (_floats, _REQUIRED), "f": (_floats, _REQUIRED),
        "boundary": (_string, catalog.ProfileCurve.boundary),
        "orientation": (_integer, catalog.Revolution.orientation)}),
}

# the flow keys that are FlowConfig fields, in reading order
_FLOW_FIELDS = {
    "t_end": (_real, _REQUIRED),
    "cfl_safety": (_real, flow.FlowConfig.cfl_safety),
    "rescaled": (_boolean, flow.FlowConfig.rescaled),
    "scheme": (_string, flow.FlowConfig.scheme),
    "output_stride": (_integer, flow.FlowConfig.output_stride),
}
_FLOW_KEYS = {*_FLOW_FIELDS, "pinned_boundary"}


def parse_model(spec) -> tuple:
    """(kind, converted fields, model) of a scene's model object, the model
    None for an ellipsoid.  Every field is converted, so an ill-typed one is
    a ConfigError, before the model is built and checks its domain."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("model must be an object with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ConfigError(f"unknown model kind {brief(kind)}")
    body = {k: v for k, v in spec.items() if k != "kind"}
    where = f"model kind {kind!r}"
    build, table = _MODELS[kind]
    _reject_unknown(body, table, where)
    fields = _fields(body, table, where)
    return kind, fields, build(**fields) if build else None


def load_scene(path: str, r: int | None = None, resolution: int | None = None) -> dict:
    """The scene of a JSON file; r and resolution, when given, replace the
    scene's own (which are still checked).  An ellipsoid_rev scene's model
    is the Revolution over its ``ellipsoid_band_profile`` at that
    resolution.  "band" holds a sphere_band scene's (radius, half_width),
    and is None for every other kind."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:   # bad JSON, non-UTF-8 bytes, an int past the digit limit
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scene config must be a JSON object")
    _reject_unknown(raw, _SCENE_KEYS, "scene")
    if "model" not in raw:
        raise ConfigError("scene config needs a 'model'")
    kind, fields, model = parse_model(raw["model"])
    scene = {
        "model": model,
        "band": (fields["radius"], fields["half_width"]) if kind == "sphere_band" else None,
        "r": _field(raw, "r", _integer, "scene", 1),
        "resolution": _field(raw, "resolution", _integer, "scene", 16),
        "flow": raw.get("flow", {}),
        "output": raw.get("output", {}),
    }
    for key, value in (("r", r), ("resolution", resolution)):
        if value is not None:
            scene[key] = value
    if kind == "ellipsoid_rev":
        scene["model"] = catalog.Revolution(profile=catalog.ellipsoid_band_profile(
            samples=scene["resolution"], **fields))
    for key, allowed in (("flow", _FLOW_KEYS), ("output", _OUTPUT_KEYS)):
        if not isinstance(scene[key], dict):
            raise ConfigError(f"{key!r} must be an object")
        _reject_unknown(scene[key], allowed, key)
    for key in scene["output"]:     # an int path would open a file descriptor
        _field(scene["output"], key, _string, "output")
    return scene


# ---------------------------------------------------------------------------
# subcommands

def _parse_curvatures(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"bad curvature list {brief(text)}") from exc
    catalog.check_dimension(len(values))
    return np.array(values)


def _parse_preset(text: str):
    """cyl:n=3,m=2,r=1 -> cylinder curvature vector and its r."""
    try:
        kind, body = text.split(":", 1)
        pairs = [part.split("=") for part in body.split(",")]
        fields = dict(pairs)     # a repeated key keeps its last value
    except ValueError as exc:
        raise ConfigError(f"bad preset {brief(text)}") from exc
    if kind != "cyl":
        raise ConfigError(f"unknown preset kind {brief(kind)}")
    if len(fields) < len(pairs):
        raise ConfigError("cyl preset repeats a key")
    if set(fields) != {"n", "m", "r"}:
        raise ConfigError("cyl preset needs n=, m=, r=")
    n, m, r = (_field(fields, key, _integer, "cyl preset") for key in "nmr")
    if not 1 <= m <= n:
        raise DomainError(f"cyl preset needs 1 <= m <= n, got m={brief(m)}, n={brief(n)}")
    catalog.check_dimension(n)
    radius = catalog.shrinker_radius(m, r)
    model = catalog.Sphere(n, radius) if m == n else catalog.Cylinder(n, m, radius)
    return catalog.exact_curvatures(model), r


def cmd_algebra(args) -> int:
    if args.preset:
        k, r = _parse_preset(args.preset)
    else:
        if args.k is None or args.r is None:
            raise ConfigError("algebra needs --k and --r (or --preset)")
        k, r = _parse_curvatures(args.k), args.r
    n = k.size
    check_order(r, n)
    A = np.diag(k)
    residuals = trace_identities(A, r)   # builds the one family of this call
    op, _, psd, p_eigenvalues = _p_spectrum(A, r)   # ascending, off the family's table
    out = {
        "n": n,
        "r": r,
        "curvatures": list(k),
        "sigmas": list(op.family[1].sigmas),
        "pEigenvalues": list(p_eigenvalues),
        "modifiedNormSq": modified_sff_norm_sq(A, r),
        "psdClass": psd.kind.value,
        "traceResiduals": {
            "traceP": residuals.trace_p,
            "tracePA": residuals.trace_pa,
            "tracePA2": residuals.trace_pa2,
        },
    }
    emit_json(out, args.out)
    return EXIT_OK


def cmd_gap(args) -> int:
    """gap writes the scene's gap report; residual, its supResidual alone."""
    scene = load_scene(args.config, args.r, args.resolution)
    model, r, resolution = scene["model"], scene["r"], scene["resolution"]
    check_order(r, model.n)     # the order is refused before the resolution
    catalog.check_samples(resolution, 1, "resolution")
    report = gapcheck.evaluate(model, r)
    if args.command == "residual":
        emit_json({"r": r, "resolution": resolution, "supResidual": report.sup_residual},
                  args.out)
    else:
        emit_json(report.to_json_dict(), args.out or scene["output"].get("report"))
    return EXIT_OK


def _diagnostics_csv_lines(diagnostics):
    yield "t,max_residual,homothety_defect,min_radius,dt"
    for d in diagnostics:
        yield ",".join(format(x, ".17g") for x in (
            d.t, d.max_shrinker_residual, d.homothety_defect, d.min_radius, d.dt))


def cmd_flow(args) -> int:
    scene = load_scene(args.config, args.r, args.resolution)
    flow_spec = dict(scene["flow"])
    if args.t_end is not None:
        flow_spec["t_end"] = args.t_end
    if "t_end" not in flow_spec:
        raise ConfigError("flow needs t_end (config flow.t_end or --t-end)")
    boundary_values = None
    if _field(flow_spec, "pinned_boundary", _boolean, "flow", False):
        if scene["band"] is None:
            raise ConfigError("pinned_boundary needs a sphere band (model kind 'sphere_band')")
        radius, half_width = scene["band"]
        boundary_values = flow.sphere_band_pin(radius, scene["r"], half_width)
    config = flow.FlowConfig(r=scene["r"], model=scene["model"],
                             resolution=scene["resolution"], boundary_values=boundary_values,
                             **_fields(flow_spec, _FLOW_FIELDS, "flow"))
    result = flow.run(config)
    final = result.final
    summary = {
        "status": result.status,
        "tFinal": result.state.t,
        "stepCount": result.state.step_count,
        "finalMinRadius": final.min_radius,
        "finalMaxResidual": final.max_shrinker_residual,
        "finalHomothetyDefect": final.homothety_defect,
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


def _product_rule_residual(geometry, r: int) -> float:
    """Product-rule residual for two smooth trigonometric fields."""
    z = geometry.z
    return operators.verify_product_rule(geometry, np.sin(z), np.cos(0.5 * z) + 0.25 * z, r)


def _verify_rows(resolutions):
    def ellipsoid(m):
        return catalog.Revolution(profile=catalog.ellipsoid_band_profile(1.0, 2.0, 0.75, m))

    reports = []
    for r in (1, 2):
        reports.append(("support-identity", operators.verify_support_identity(
            ellipsoid, r, resolutions)))
        reports.append(("position-identity", operators.verify_position_identity(
            ellipsoid, r, resolutions)))
    for r in (1, 2):
        reports.append(("product-rule", operators.refinement_report(
            _product_rule_residual, ellipsoid, r, resolutions)))
    rows = [(name, rep.r, rep.residuals[-1], rep.observed_orders, rep.passes())
            for name, rep in reports]
    worst = 0.0
    for model, r in catalog.self_shrinkers(6):
        rep = operators.verify_shrinker_pde(model, r)
        worst = max(worst, rep.worst)
    rows.append(("shrinker-pde(catalog n<=6)", 0, worst, (), worst <= operators.EXACT_TOL))
    return rows


def cmd_verify(args) -> int:
    try:
        resolutions = [_integer(x) for x in args.resolutions.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --resolutions {brief(args.resolutions)}") from exc
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

def _option(convert):
    """The argparse type of a number option: convert's value of the text, or
    a refusal (exit 2) that shows the text through ``brief``, where argparse's
    own message would echo all of it."""
    def parse(text):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value {brief(text)}") from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newton-flow",
        description="Curvature algebra, model self-shrinkers, and explicit "
                    "integration of speed-sigma_r normal flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="curvature algebra of an inline vector")
    p.add_argument("--k", help="comma-separated principal curvatures; "
                   "write --k=-1,2 when the first one is negative")
    p.add_argument("--r", type=_option(int), help="symmetric-function order")
    p.add_argument("--preset", help="model preset, e.g. cyl:n=3,m=2,r=1")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(handler=cmd_algebra)

    for name, extra in (("residual", "worst shrinker residual over samples"),
                        ("gap", "gap-hypothesis report as JSON")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", required=True, help="scene JSON file")
        p.add_argument("--r", type=_option(int), default=None)
        p.add_argument("--resolution", type=_option(int), default=None)
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.set_defaults(handler=cmd_gap)

    p = sub.add_parser("flow", help="run the flow; CSV diagnostics + JSON summary")
    p.add_argument("--config", required=True, help="scene JSON file")
    p.add_argument("--r", type=_option(int), default=None)
    p.add_argument("--resolution", type=_option(int), default=None)
    p.add_argument("--t-end", dest="t_end", type=_option(float), default=None)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call."""
    return build_parser()


class _StderrHandler(logging.StreamHandler):
    """Writes to the current ``sys.stderr``, so a redirect made after the
    handler was installed receives the log lines too."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


@functools.cache
def _install_log_handler():
    handler = _StderrHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.propagate = False


def _setup_logging():
    value = os.environ.get("NEWTON_FLOW_LOG") or "warn"
    levels = {"critical": logging.CRITICAL, "error": logging.ERROR, "warning": logging.WARNING,
              "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    _install_log_handler()
    logger.setLevel(levels.get(value.lower(), logging.WARNING))
    if value.lower() not in levels:
        logger.warning("unknown NEWTON_FLOW_LOG value %r; using warn", value)


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NewtonFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
