"""Module boundaries of the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jordanium"
GUARDED = ("linalg", "forms")


def _private_imports(path: Path) -> list[str]:
    """'file:line name' for each `_`-prefixed name imported from a guarded module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        relative = node.level == 1 and node.module in GUARDED
        absolute = node.level == 0 and node.module in ["jordanium." + g for g in GUARDED]
        if relative or absolute:
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append("%s:%d %s" % (path.name, node.lineno, alias.name))
    return found


def test_no_private_imports_from_linalg_or_forms():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    offenders = [hit for f in files for hit in _private_imports(f)]
    assert offenders == []


def test_no_assert_statements_in_exactness_guards():
    # `python -O` strips assert statements; an exactness guard must raise
    offenders = []
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += ["%s:%d" % (path.name, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert offenders == []


def test_octonion_hot_paths_avoid_cd_objects():
    # the package computes on the integer sign tensor; CD and its recursive
    # coordinate formulas are the tests' reference route (cd_reference.py)
    banned = {"CD", "_mul_coords", "_conj_coords"}
    offenders = []
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [x for a in node.names for x in (a.name, a.asname)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            offenders += ["%s:%d %s" % (path.name, node.lineno, x) for x in sorted(banned.intersection(names))]
    assert offenders == []


def test_tracer_names_resolve():
    # perfbench's tracer wraps these names from outside the package and
    # catches kernels.ExactOverflow, so each must still resolve
    import importlib
    import importlib.util

    path = SRC.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, fns in tracer.WRAPPED.items():
        home = importlib.import_module("jordanium." + layer)
        for fn in fns:
            owner = tracer.METHODS.get((layer, fn))
            where = getattr(home, owner) if owner else home
            if not callable(getattr(where, fn, None)):
                missing.append("%s.%s" % (layer, fn))
    assert missing == []
    kernels = importlib.import_module("jordanium.kernels")
    assert issubclass(kernels.ExactOverflow, Exception)


def test_fraction_view_of_mat_stays_outside_the_package():
    # Mat.data is a Fraction copy of the integer array, for perfbench and the
    # tests; the package itself computes on Mat.ints and Mat.den
    offenders = []
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    for path in files:
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            "%s:%d" % (path.name, n.lineno)
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "data"
        ]
    assert offenders == []


def test_fraction_view_of_forms_stays_outside_the_package():
    # DerForm.coeffs is a Fraction copy of the form's Mat, built by a property
    # that reads neither itself nor another form's; the package computes on
    # DerForm.mat
    offenders = []
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            "%s:%d" % (path.name, n.lineno)
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "coeffs"
        ]
    assert offenders == []
