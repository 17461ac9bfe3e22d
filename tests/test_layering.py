"""Static layering rules over the package sources.

Private helpers stay inside their module, every imported name is used,
and the exponent product of a lattice direction (the only consumer of
``stratum_loop_exponents``), the arrow monodromy operator and integer
row reduction each have exactly one implementation.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fanrep"


def modules():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
    }


def test_no_private_name_crosses_a_module_boundary():
    crossing = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("fanrep"):
                continue
            crossing += [
                f"{name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert crossing == []


def functions_calling(tree, callee: str) -> list:
    """Qualified names of the innermost functions that call ``callee``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return sorted(set(found))


def test_stratum_loop_exponents_has_one_caller():
    callers = [
        f"{name}.{func}"
        for name, tree in modules().items()
        for func in functions_calling(tree, "stratum_loop_exponents")
    ]
    assert len(callers) == 1, callers


def test_monodromy_is_built_only_by_the_direction_resolver():
    callers = [
        f"{name}.{func}"
        for name, tree in modules().items()
        for func in functions_calling(tree, "monodromy")
    ]
    assert callers == ["reps.DirectionResolver._operator"]


def test_smith_normal_form_reduces_through_hermite():
    """The Smith form alternates Hermite reductions of m and m^T; it has
    no row or column operations of its own."""
    tree = modules()["exactnum"]
    (smith,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "smith_normal_form"
    ]
    assert "smith_normal_form" in functions_calling(tree, "hermite_row_transform")
    nested = [
        type(node).__name__
        for node in ast.walk(smith)
        if node is not smith and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    assert nested == []


def test_every_imported_name_is_used():
    """A name a module imports is read somewhere in that module; the
    package's ``__init__`` re-exports and ``from __future__`` imports are
    the exceptions."""
    unused = []
    for name, tree in modules().items():
        if name == "__init__":
            continue
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {imported_name}" for imported_name in imported if imported_name not in used]
    assert unused == []


def test_exactnum_builds_fractions_only_in_the_view_the_coercion_and_the_parser():
    """A RatMatrix is one denominator and integer entries, so no kernel
    scales Fraction rows back to integers (``_scaled`` is gone), and in
    exactnum a Fraction is built only by the ``entries`` view, the scalar
    coercion and parse_rational."""
    scaled = [
        name
        for name, tree in modules().items()
        for node in ast.walk(tree)
        if "_scaled" in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None))
    ]
    assert scaled == []
    tree = modules()["exactnum"]
    assert functions_calling(tree, "Rational") == []
    assert functions_calling(tree, "Fraction") == ["RatMatrix.entries", "_as_fraction", "parse_rational"]
