import ast
import re
import sys
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


def test_library_builds_no_dataclasses():
    """No module imports ``dataclasses``: a value type is a NamedTuple or
    an ``exact.Value`` class, so importing the library generates and
    compiles no code for its classes."""
    imported = {}
    for path in SOURCES:
        names = imported.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name.split(".")[0] for alias in node.names}
                names.add(getattr(node, "module", None))
    assert "typing" in imported["exact"]  # the walk sees the modules' imports
    found = sorted(m for m, names in imported.items() if "dataclasses" in names)
    assert not found, found


def test_library_imports_at_module_level():
    """No function or method in the library imports: every import sits at
    a module's top level, where a cycle, if one came in, fails on import
    rather than on the first call that reaches the import."""
    found = [
        f"{path.name}:{inner.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert any(path.name == "symmetry.py" for path in SOURCES)  # the walk sees the sources
    assert not found, found


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


def test_every_ci_job_has_a_timeout():
    """Each job of the CI workflow sets ``timeout-minutes``, so a hang fails
    it in minutes rather than after the runner's six-hour default.  Read as
    text: the tier-1 environment has no YAML parser."""
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text(encoding="utf-8").splitlines()
    jobs = {}
    job = None
    for line in lines[lines.index("jobs:") + 1:]:
        if line.startswith("  ") and not line.startswith("   ") and line.endswith(":"):
            job = jobs.setdefault(line.strip()[:-1], [])
        elif line.startswith("    timeout-minutes:"):
            job.append(int(line.split(":")[1]))
    assert sorted(jobs) == ["corpus-reports", "installed-package", "readme-example", "tier1"]
    assert all(len(m) == 1 and 0 < m[0] <= 30 for m in jobs.values()), jobs


def _function(tree, name):
    """The one function or method called ``name`` in a tree."""
    (node,) = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == name]
    return node


def test_one_row_builder():
    """Every row on the vertex blocks of a graph is placed by one builder:
    ``pair_row`` is called only from ``graphs.graph_rows`` and
    ``splitting.discrepancy``, ``graph_rows`` is called from
    ``CheckedGraph.positions`` (with t shared by every block) and
    ``relative_position_cone`` (with nothing shared), and no module
    defines or names ``block_row`` or ``direction_rows``.  Outside
    ``cones``, which knows no homogenization, the row ``t >= 0`` is
    written only by ``Polyhedron.from_rows`` and by ``toric_cut`` for
    the root of its walk."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    graphs, splitting = trees["graphs"], trees["splitting"]
    callers = {m: _calls_of(tree, "pair_row") for m, tree in trees.items()}
    assert {m: lines for m, lines in callers.items() if lines} == {
        "graphs": _calls_of(_function(graphs, "graph_rows"), "pair_row"),
        "splitting": _calls_of(_function(splitting, "discrepancy"), "pair_row"),
    }
    assert all(callers[m] for m in ("graphs", "splitting")), callers
    calls = {m: [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and "graph_rows" in _names(node.func)] for m, tree in trees.items()}
    assert _calls_of(_function(graphs, "positions"), "graph_rows") == [
        node.lineno for node in calls["graphs"]]
    assert _calls_of(_function(splitting, "relative_position_cone"), "graph_rows") == [
        node.lineno for node in calls["splitting"]]
    shared = [[ast.literal_eval(k.value) for k in node.keywords if k.arg == "shared"]
              for m in ("graphs", "splitting") for node in calls[m]]
    assert shared == [[1], []] and sum(map(len, calls.values())) == 2
    named = [
        f"{m}:{node.lineno}" for m, tree in trees.items() for node in ast.walk(tree)
        if {"block_row", "direction_rows"} & (
            {node.name} if isinstance(node, ast.FunctionDef) else _names(node))
    ]
    assert not named, named

    def t_rows(tree):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and ast.unparse(node.right) == "(1,)"
                and ast.unparse(node.left).startswith("(0,) *")]

    assert {m: t_rows(tree) for m, tree in trees.items() if m != "cones" and t_rows(tree)} == {
        "polyhedra": t_rows(_function(trees["polyhedra"], "from_rows")),
        "complexes": t_rows(_function(trees["complexes"], "toric_cut")),
    }


def test_tests_import_only_what_ci_installs():
    """Every module a test file under ``tests/`` or ``perfbench/tests/``
    imports is in the standard library, is ``tropsplit``, is a local
    module (a test file, or a ``perfbench`` module its tests put on the
    path), or is a distribution that both ``pip install .[test]`` (the
    project's dependencies and its ``test`` extra) and the ``tier1`` CI
    job install: otherwise a test file fails to collect in CI.  A module
    that the file asks for with ``pytest.importorskip`` is exempt.  Read
    as text: the tier-1 environment may have neither a TOML nor a YAML
    parser."""
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "tests").glob("*.py")) + sorted((root / "perfbench/tests").glob("*.py"))
    local = {p.stem for p in files} | {p.stem for p in (root / "perfbench").glob("*.py")}

    def listed(line) -> set:
        return set(re.findall(r'"([A-Za-z0-9_.-]+)', line.split("=", 1)[1]))

    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    extra = {re.split("[<>=!~ ]", d)[0] for line in pyproject
             if line.startswith(("dependencies =", "test =")) for d in listed(line)}
    workflow = (root / ".github/workflows/tests.yml").read_text(encoding="utf-8")
    tier1 = workflow[workflow.index("\n  tier1:"):].split("\n  readme-example:")[0]
    (install,) = [line for line in tier1.splitlines() if "pip install" in line]
    ci = set(install.split("pip install", 1)[1].split())
    assert {"click", "pytest", "sympy", "hypothesis"} <= extra & ci, (extra, ci)
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = {ast.literal_eval(node.args[0]) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and "importorskip" in _names(node.func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for top in {m.split(".")[0] for m in modules}:
                if top not in sys.stdlib_module_names | local | skipped | {"tropsplit"} | (
                        extra & ci):
                    found.append(f"{path.relative_to(root)}:{node.lineno} {top}")
    assert not found, found
