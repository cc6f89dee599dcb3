import ast
from pathlib import Path

import tropsplit

SOURCES = sorted(Path(tropsplit.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_library():
    """Runtime checks raise explicit errors; ``python -O`` strips asserts."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


# Imports kept unused on purpose: the benchmark's tracer tests patch and
# call ``cones.rref`` and ``polyhedra.rref``.
UNUSED_IMPORT_ALLOWED = {("cones", "rref"), ("polyhedra", "rref")}


def test_no_unused_imports_in_library():
    """Every name a module imports is used in it (``__init__`` re-exports)."""
    found = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found |= {(path.stem, name) for name in imported - used}
    assert found == UNUSED_IMPORT_ALLOWED


def test_cones_import_no_fractions():
    """The double description is integer-only: ``cones`` imports neither
    ``Fraction`` (nor the ``fractions`` module) nor ``exact.fr``."""
    path = Path(tropsplit.__file__).parent / "cones.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[0] for alias in node.names}
            names.add(getattr(node, "module", None))
    assert "exact" in names  # the walk sees the module's imports
    assert not names & {"Fraction", "fr", "fractions"}, names


def test_cone_direction_path_builds_no_fractions():
    """A cone direction is answered in integers: neither
    ``splitting.cone_condition`` nor ``reports.split_report`` names
    ``Fraction`` or ``fr``."""
    package = Path(tropsplit.__file__).parent
    for module, function in (("splitting", "cone_condition"), ("reports", "split_report")):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        (node,) = [f for f in tree.body
                   if isinstance(f, ast.FunctionDef) and f.name == function]
        names = _names(node)
        assert "cone_to_dict" in names or "orthant_cut" in names  # the walk sees the body
        assert not names & {"Fraction", "fr"}, (module, function, names & {"Fraction", "fr"})


def test_no_identity_keyed_caches():
    """No module calls the builtin ``id``: a cache keyed by an object's
    identity can describe contents that have changed since, or an object
    that has been freed and whose identity was reused."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert not found, found


def test_zero_set_format_stays_in_cones():
    """Only ``cones`` steps a double description or makes zero-set bits:
    no other module imports or names ``_dd_step`` or shifts an int
    (``<<``, ``>>``).  Everything else goes through ``cones.DDState``."""
    found = []
    for path in SOURCES:
        if path.name == "cones.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (
                {node.id} if isinstance(node, ast.Name)
                else {node.attr} if isinstance(node, ast.Attribute)
                else {a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                else set()
            )
            shift = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, (ast.LShift, ast.RShift)
            )
            if "_dd_step" in names or shift:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _names(node) -> set:
    """The bare and attribute names in an expression."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_one_input_boundary():
    """The wire schema lives in ``serialize``: no other module raises its
    ``InputError``.  The CLI maps exceptions to exit codes by type in one
    place and names no ``KeyError`` or ``TypeError`` in any ``except``
    clause (nor has a bare one), so a crash of that kind exits 3 and never
    reads as bad input."""
    raisers, catchers = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                if "InputError" in _names(node.exc) and path.name != "serialize.py":
                    raisers.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ExceptHandler) and path.name == "cli.py":
                if node.type is None or _names(node.type) & {"KeyError", "TypeError"}:
                    catchers.append(f"{path.name}:{node.lineno}")
    assert not raisers, raisers
    assert not catchers, catchers


def _calls_of(tree, name) -> list:
    """Line numbers of the calls of ``name`` in a tree."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and name in _names(node.func))


def test_one_dd_loop():
    """Every double description runs through one loop: in ``cones``,
    ``_dd_step`` is called once, from ``_cut``, so that each start cuts
    each distinct row once."""
    tree = ast.parse(Path(tropsplit.__file__).with_name("cones.py").read_text(encoding="utf-8"))
    (cut,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_cut"]
    assert len(_calls_of(tree, "_dd_step")) == 1
    assert _calls_of(cut, "_dd_step") == _calls_of(tree, "_dd_step")


def test_only_cone_methods_convert():
    """``_h_to_v`` takes rows in the canonical form a ``Cone`` holds them,
    so only ``Cone`` methods call it, and no other module imports or names
    it."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "cones.py":
            (cone,) = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Cone"]
            assert _calls_of(cone, "_h_to_v")  # the walk sees Cone's conversions
            assert _calls_of(tree, "_h_to_v") == _calls_of(cone, "_h_to_v")
            continue
        named = [
            node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "_h_to_v")
            or (isinstance(node, ast.Attribute) and node.attr == "_h_to_v")
            or (isinstance(node, ast.ImportFrom) and "_h_to_v" in {a.name for a in node.names})
        ]
        assert not named, f"{path.name}: {named}"
