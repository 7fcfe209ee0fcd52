"""Every name a module imports is read somewhere in that module: the
package modules, the demos and the test files.

No linter is assumed, so the check walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must appear as a loaded
name (``np`` in ``np.zeros`` counts) or in the module's ``__all__``.
``__init__.py`` is left out, because its imports are the re-exports.

The private names one package module takes from a sibling are pinned:
a new coupling of that kind shows up as an edit of ``PRIVATE_IMPORTS``.
So is the one conversion of a caller's array: ``asarray`` and a cast to
float appear in the package only inside ``errors.as_floats``.  And so is
the one door from a model to its curvature record: a model's ``.profile``
is read only in ``catalog.revolution_geometry``, ``_graph_builder`` is
called only there and by the flow's radial-graph kind, and no module,
demo or test names the deferred ellipsoid model ``EllipsoidRev``, its
``profile_curve`` or the operators' conversion ``_as_revolution``.  And
so is the
one shrinker verdict: no module but ``gapcheck`` names ``SHRINKER_TOL``
or raises ``NotSelfShrinkerError``.  And so is the one zero window: only
``symfun`` names ``ZERO_TOL``, no module names ``CLAMP_TOL``, and
``GAP_TOL`` is read only in the threshold flags ``thm1_strict``,
``thm1_boundary`` and ``hk_at_most_n``.  And so is the one flow driver:
no module defines ``step`` or ``_stepper`` (``run`` takes its own
step), and no module names ``CflViolationError``.  And so is the
one eigenframe: ``symfun`` keeps no module slot and no ``global``, its one
eigensolve is ``_Operator.frame``, and ``definiteness`` and ``sqrt_psd``
read that frame.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "newton_flow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "tests").rglob("*.py")])

# (importing module, sibling module, private name)
PRIVATE_IMPORTS = {
    ("catalog", "fd", "_stencil"),
    ("cli", "symfun", "_p_spectrum"),
    ("flow", "catalog", "_graph_builder"),
    ("gapcheck", "symfun", "_check_degree"),
    ("gapcheck", "symfun", "_classify"),
    ("gapcheck", "symfun", "_sigma_tables"),
    ("gapcheck", "symfun", "_zero_cut"),
    ("operators", "fd", "_stencil"),
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def private_imports(stem: str, source: str) -> set:
    """(stem, sibling, name) for every _-prefixed name the module binds by
    ``from .sibling import`` or reads as ``sibling._name`` after ``from . import``."""
    tree = ast.parse(source)
    found, siblings = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add((stem, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            found.add((stem, siblings[node.value.id], node.attr))
    return found


def test_the_check_sees_a_private_import():
    source = ("from . import fd\nfrom .symfun import _norm, elem_sym\n"
              "fd._check_grid(3, 'periodic')\n")
    assert private_imports("m", source) == {("m", "symfun", "_norm"),
                                            ("m", "fd", "_check_grid")}


def test_private_imports_between_package_modules_are_pinned():
    found = set()
    for module in PACKAGE.glob("*.py"):
        found |= private_imports(module.stem, module.read_text(encoding="utf-8"))
    assert found == PRIVATE_IMPORTS


FLOAT_DTYPES = {"float", "np.float64", "numpy.float64", "'float'", "'float64'"}


def nodes_in_functions(source: str):
    """(node, enclosing function's name or None) for every node, in source order."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield node, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(ast.parse(source), None)


def array_conversions(stem: str, source: str) -> list:
    """(stem, enclosing function or None, kind) for every ``asarray`` the module
    names and every ``astype`` call to a float dtype, in source order."""
    found = []
    for node, function in nodes_in_functions(source):
        if (isinstance(node, ast.Attribute) and node.attr == "asarray"
                or isinstance(node, ast.Name) and node.id == "asarray"
                or isinstance(node, ast.alias) and node.name == "asarray"):
            found.append((stem, function, "asarray"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"):
            dtypes = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "dtype")]
            if any(ast.unparse(d) in FLOAT_DTYPES for d in dtypes):
                found.append((stem, function, "astype(float)"))
    return found


def test_the_check_sees_a_planted_conversion():
    source = ("from numpy import asarray\nimport numpy as np\n"
              "def values(x):\n    return np.asarray(x, dtype=float)\n"
              "class C:\n    def f(self, x):\n        return x.astype(dtype=np.float64)\n"
              "y = asarray([1]).astype('float')\nz = y.astype(int)\n")
    assert array_conversions("m", source) == [
        ("m", None, "asarray"), ("m", "values", "asarray"), ("m", "f", "astype(float)"),
        ("m", None, "astype(float)"), ("m", None, "asarray")]


def test_one_gate_converts_a_callers_array():
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        found += array_conversions(module.stem, module.read_text(encoding="utf-8"))
    assert found == [("errors", "as_floats", "asarray"),
                     ("errors", "as_floats", "astype(float)")]


RETIRED = ("EllipsoidRev", "_as_revolution", "profile_curve")


def door_uses(stem: str, source: str) -> list:
    """(stem, enclosing function or None, what) for every read of an
    attribute ``profile``, every call of ``_graph_builder``, bare or as an
    attribute, and every name, attribute, import or definition in RETIRED,
    in source order."""
    found = []
    for node, function in nodes_in_functions(source):
        if (isinstance(node, ast.Attribute) and node.attr == "profile"
                and isinstance(node.ctx, ast.Load)):
            found.append((stem, function, "read .profile"))
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None)) == "_graph_builder":
                found.append((stem, function, "call _graph_builder"))
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.alias, ast.ClassDef, ast.FunctionDef))
                else None)
        if name in RETIRED:
            found.append((stem, function, name))
    return found


def test_the_check_sees_a_planted_door():
    source = ("from .catalog import EllipsoidRev, _graph_builder\n"
              "def _as_revolution(model, m):\n    return model.profile_curve(m)\n"
              "class C:\n    def f(self, model):\n        p = model.profile\n"
              "        return catalog._graph_builder(p.z, p.h, 'neumann', 1)\n"
              "x.profile = None\nb = _graph_builder(z, 0.1, 'periodic', -1)\n")
    assert door_uses("m", source) == [
        ("m", None, "EllipsoidRev"), ("m", "_as_revolution", "_as_revolution"),
        ("m", "_as_revolution", "profile_curve"), ("m", "f", "read .profile"),
        ("m", "f", "call _graph_builder"), ("m", None, "call _graph_builder")]


def test_one_door_from_a_model_to_its_record():
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        found += door_uses(module.stem, module.read_text(encoding="utf-8"))
    assert found == [("catalog", "revolution_geometry", "read .profile"),
                     ("catalog", "revolution_geometry", "call _graph_builder"),
                     ("flow", "_graph_kind", "call _graph_builder")]


def test_no_demo_or_test_names_a_retired_door():
    found = []
    for script in SCRIPTS:
        found += door_uses(script.stem, script.read_text(encoding="utf-8"))
    assert [use for use in found if use[2] in RETIRED] == []


def shrinker_verdicts(stem: str, source: str) -> list:
    """(stem, enclosing function or None, what) for every name or attribute
    ``SHRINKER_TOL`` and every raise of ``NotSelfShrinkerError``, in source order."""
    found = []
    for node, function in nodes_in_functions(source):
        if (isinstance(node, ast.Name) and node.id == "SHRINKER_TOL"
                or isinstance(node, ast.Attribute) and node.attr == "SHRINKER_TOL"
                or isinstance(node, ast.alias) and node.name == "SHRINKER_TOL"):
            found.append((stem, function, "SHRINKER_TOL"))
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "NotSelfShrinkerError":
                found.append((stem, function, "raise NotSelfShrinkerError"))
    return found


def test_the_check_sees_a_planted_verdict():
    # a copy of operators with a second shrinker test planted in it
    source = (PACKAGE / "operators.py").read_text(encoding="utf-8")
    planted = source + ("\n\nfrom .gapcheck import SHRINKER_TOL\n"
                        "def planted(residual):\n"
                        "    if residual > SHRINKER_TOL:\n"
                        "        raise errors.NotSelfShrinkerError(f'{residual}')\n")
    found = shrinker_verdicts("operators", planted)
    assert found[len(shrinker_verdicts("operators", source)):] == [
        ("operators", None, "SHRINKER_TOL"), ("operators", "planted", "SHRINKER_TOL"),
        ("operators", "planted", "raise NotSelfShrinkerError")]


def test_one_shrinker_verdict():
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        found += shrinker_verdicts(module.stem, module.read_text(encoding="utf-8"))
    assert found == [("gapcheck", None, "SHRINKER_TOL"),
                     ("gapcheck", "_taxonomy", "SHRINKER_TOL"),
                     ("gapcheck", "classify", "raise NotSelfShrinkerError")]


WINDOWS = ("ZERO_TOL", "CLAMP_TOL", "GAP_TOL")


def window_reads(stem: str, source: str) -> list:
    """(stem, enclosing function or None, enclosing keyword argument or None,
    name) for every name, attribute or import of a name in WINDOWS, in
    source order."""
    found, keyword_of = [], {}
    for node, function in nodes_in_functions(source):
        if isinstance(node, ast.keyword):
            keyword_of.update((id(child), node.arg) for child in ast.walk(node.value))
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in WINDOWS:
            found.append((stem, function, keyword_of.get(id(node)), name))
    return found


def test_the_check_sees_a_planted_window():
    # a copy of gapcheck with a second zero cut and a clamp planted in it
    source = (PACKAGE / "gapcheck.py").read_text(encoding="utf-8")
    planted = source + ("\n\nfrom .symfun import ZERO_TOL\n"
                        "def planted(K, w):\n"
                        "    zeros = np.abs(K) <= GAP_TOL * symfun.ZERO_TOL\n"
                        "    return GaussReport(weakly_convex=w >= -CLAMP_TOL, n=zeros)\n")
    found = window_reads("gapcheck", planted)
    assert found[len(window_reads("gapcheck", source)):] == [
        ("gapcheck", None, None, "ZERO_TOL"), ("gapcheck", "planted", None, "GAP_TOL"),
        ("gapcheck", "planted", None, "ZERO_TOL"),
        ("gapcheck", "planted", "weakly_convex", "CLAMP_TOL")]


def test_one_zero_window():
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        found += window_reads(module.stem, module.read_text(encoding="utf-8"))
    assert found == [("gapcheck", None, None, "GAP_TOL"),
                     ("gapcheck", "_report", "thm1_strict", "GAP_TOL"),
                     ("gapcheck", "_report", "thm1_boundary", "GAP_TOL"),
                     ("gapcheck", "_gauss_report", "hk_at_most_n", "GAP_TOL"),
                     ("symfun", None, None, "ZERO_TOL"),
                     ("symfun", "_zero_cut", None, "ZERO_TOL")]


def driver_names(stem: str, source: str) -> list:
    """(stem, enclosing function or None, what) for every definition of or
    assignment to ``step`` or ``_stepper`` and every name, attribute, import
    or class ``CflViolationError``, in source order."""
    found = []
    for node, function in nodes_in_functions(source):
        defined = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                  ast.ClassDef))
                   else node.id if isinstance(node, ast.Name)
                   and isinstance(node.ctx, ast.Store) else None)
        if defined in ("step", "_stepper"):
            found.append((stem, function, f"def {defined}"))
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.alias, ast.ClassDef)) else None)
        if name == "CflViolationError":
            found.append((stem, function, "CflViolationError"))
    return found


def test_the_check_sees_a_planted_driver():
    # a copy of flow with a second driver, its stepper, its bound check and
    # its error planted in it
    source = (PACKAGE / "flow.py").read_text(encoding="utf-8")
    planted = source + ("\n\nfrom .errors import CflViolationError\n"
                        "def _stepper(kind, config):\n"
                        "    return lambda x, speed, t, dt: x + speed * dt\n"
                        "def step(state, config, dt):\n"
                        "    kind = _kind(config)\n"
                        "    if dt > kind.stage(kind.start)[1]:\n"
                        "        raise errors.CflViolationError(dt)\n"
                        "    advance = _stepper(kind, config)\n"
                        "    step = advance(kind.start, 0.0, 0.0, dt)\n"
                        "    return step\n")
    found = driver_names("flow", planted)
    assert found[len(driver_names("flow", source)):] == [
        ("flow", None, "CflViolationError"), ("flow", "_stepper", "def _stepper"),
        ("flow", "step", "def step"), ("flow", "step", "CflViolationError"),
        ("flow", "step", "def step")]


def test_one_flow_driver():
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        found += driver_names(module.stem, module.read_text(encoding="utf-8"))
    assert found == []


SLOT_NAMES = ("_last_family", "_lookup", "_family", "_order_family", "_eigenframe",
              "_order_traces")


def eigenframe_uses(stem: str, source: str) -> list:
    """(stem, enclosing function or None, what) for every ``global`` statement,
    every eigensolve (``eigh`` or ``eigvalsh``), every read of an attribute
    ``frame``, and every name, attribute or definition in SLOT_NAMES, in
    source order."""
    found = []
    for node, function in nodes_in_functions(source):
        if isinstance(node, ast.Global):
            found.append((stem, function, "global"))
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None)
        if name in ("eigh", "eigvalsh") or name in SLOT_NAMES:
            found.append((stem, function, name))
        if (isinstance(node, ast.Attribute) and node.attr == "frame"
                and isinstance(node.ctx, ast.Load)):
            found.append((stem, function, "read .frame"))
    return found


def test_the_check_sees_a_planted_slot():
    source = ("_last_family = None\n"
              "def _lookup(S):\n    global _last_family\n    return np.linalg.eigvalsh(S)\n"
              "def definiteness(M):\n    return _operator(M).frame[0]\n")
    assert eigenframe_uses("m", source) == [
        ("m", None, "_last_family"), ("m", "_lookup", "_lookup"), ("m", "_lookup", "global"),
        ("m", "_lookup", "eigvalsh"), ("m", "definiteness", "read .frame")]


def test_one_eigenframe_path():
    # symfun keeps its operators in one stdlib cache, with no module slot; the
    # one eigensolve is _Operator.frame, which definiteness and sqrt_psd read
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        found += eigenframe_uses(module.stem, module.read_text(encoding="utf-8"))
    assert found == [("symfun", "frame", "eigh"), ("symfun", "family", "read .frame"),
                     ("symfun", "sqrt_psd", "read .frame"),
                     ("symfun", "modified_sff_norm_sq", "read .frame"),
                     ("symfun", "definiteness", "read .frame")]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom math import inf, pi\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "inf")]


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_read(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("script", SCRIPTS,
                         ids=[str(p.relative_to(ROOT)) for p in SCRIPTS])
def test_every_demo_and_test_import_is_read(script):
    assert unused_imports(script.read_text(encoding="utf-8")) == []
