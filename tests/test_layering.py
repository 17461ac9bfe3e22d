"""Static layering rules over the package sources.

Private helpers stay inside their module, every imported name is used,
and the exponent product of a lattice direction (the only consumer of
``stratum_loop_exponents``), the arrow monodromy operator and the
comparison of a relation's two sides each have exactly one
implementation.  Every function, class and method has a
reader in the package, the scripts, the benchmark or the README, so no
code is kept alive by its tests alone, and each module's ``__all__``
agrees with what it defines and with what ``fanrep`` re-exports.
Every target the benchmark's tracer wraps still exists.
"""

import ast
import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fanrep"


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
    return sorted(set(call_sites(tree, callee)))


def call_sites(tree, callee: str) -> list:
    """The qualified name of the innermost function around each call of
    ``callee``, once per call, in source order."""
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
    return found


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


def test_violations_are_built_only_by_the_comparator_and_the_singularity_checks():
    """Every equality check yields relation rows, and one comparator turns
    the failing rows into violations.  Condition (i) and the loop maps'
    invertibility are not equalities, so the per-quiver check builds their
    violations itself: one call site each."""
    sites = [
        f"{name}.{func}" for name, tree in modules().items() for func in call_sites(tree, "Violation")
    ]
    assert sorted(sites) == ["reps.check_quiver", "reps.check_quiver", "reps.relation_violations"]


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


def definitions(tree) -> list:
    """(name, qualified name) of each top-level function and class of a
    module and each method of its classes, dunder names left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.name, f"{node.name}.{item.name}")
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            ]
    return [(name, qualified) for name, qualified in found if not name.startswith("__")]


def test_every_definition_has_a_reader():
    """A function, class or method of the package is read somewhere in it
    (an ``ast.Name`` or ``ast.Attribute``), appears as a whole word in
    ``scripts/*.py`` or ``perfbench/*.py``, or is named in backticks in
    the README as public API.  Code only the tests call is deleted.

    The guard is name-based: a dead method that shares its name with a
    read one (``RatMatrix.column`` with ``ChartBasis.column``) or with a
    word in a script passes, and operator dunders (``__matmul__``,
    ``__add__``) are not checked."""
    trees = modules()
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    words = {
        word
        for path in sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")])
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    }
    documented = set(re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text(encoding="utf-8")))
    known = read | words
    unread = [
        qualified
        for tree in trees.values()
        for name, qualified in definitions(tree)
        if name not in known and not {name, qualified} & documented
    ]
    assert unread == []


def top_level_names(tree) -> set:
    """The names a module binds at top level: definitions, assignments
    and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def exported(tree) -> list:
    """The strings of a module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [ast.literal_eval(item) for item in node.value.elts]
    return []


def test_all_lists_only_defined_names_and_covers_the_package_exports():
    """Each name in a module's ``__all__`` is bound in that module, and
    each name ``fanrep/__init__.py`` imports from a module is in that
    module's ``__all__``, so removing a public name leaves no stale
    export."""
    trees = modules()
    stale = [
        f"{name}.{item}"
        for name, tree in trees.items()
        for item in exported(tree)
        if item not in top_level_names(tree)
    ]
    assert stale == []
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in exported(trees[node.module])
    ]
    assert unlisted == []


def test_every_traced_target_resolves():
    """Each TARGETS entry of ``perfbench/tracing.py`` names an attribute of
    its ``fanrep`` module, and a dotted name a class attribute, so that a
    renamed or deleted target fails here and not only in a traced
    benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"fanrep.{module_name}")
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(module, cls_name, None)
            found = isinstance(cls, type) and method in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
