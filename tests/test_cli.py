import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import pytest
from click.testing import CliRunner

from tropsplit import complexes, cones, exact, graphs
from tropsplit import fixtures as fx
from tropsplit.cli import corpus_cases, expected_report_path, main, run_corpus_case
from tropsplit.diagram import dual_complex_svg
from tropsplit.polyhedra import Polyhedron
from tropsplit.serialize import canonical_json


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures")
    runner = CliRunner()
    result = runner.invoke(main, ["corpus", "export", str(path)])
    assert result.exit_code == 0, result.output
    return path


def run_cli(args):
    runner = CliRunner()
    return runner.invoke(main, args)


def test_graph_check_ok(fixture_dir):
    res = run_cli([
        "graph", "check",
        str(fixture_dir / "square_plain.dec.json"),
        str(fixture_dir / "fig_rigid_gamma1.graph.json"),
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["rigid"] is True and report["dim"] == 0


def test_graph_check_reports_reparse(fixture_dir):
    res = run_cli([
        "graph", "check",
        str(fixture_dir / "square_plain.dec.json"),
        str(fixture_dir / "fig_rigid_gamma2.graph.json"),
    ])
    report = json.loads(res.output)
    assert canonical_json(report) == res.output.strip()
    assert report["dim"] == 1


def test_split_check_accepted(fixture_dir):
    res = run_cli([
        "split", "check",
        str(fixture_dir / "cube_split.dec.json"),
        str(fixture_dir / "fig_cube_top2.graph.json"),
        "--eta", "3/4,1,0", "--i-br", "0",
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["accepted"] and report["disc_dim"] == 2
    assert report["index_shift"] == {"i_br": 0, "i_split": 4, "i_red": 0}


def test_split_check_rejected_exits_one(fixture_dir):
    res = run_cli([
        "split", "check",
        str(fixture_dir / "cube_split.dec.json"),
        str(fixture_dir / "fig_cube_top1.graph.json"),
        "--eta", "1,1,0",
    ])
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert report["cone_condition_holds"] and not report["genericity_certified"]
    assert report["disc_dim"] == 1


def test_symmetry_framed_torsion(fixture_dir):
    res = run_cli([
        "symmetry",
        str(fixture_dir / "cube_split.dec.json"),
        str(fixture_dir / "fig_cube_top2.graph.json"),
        "--framed",
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["group"]["torsion_order"] == 3
    assert report["group"]["complex_dimension"] == 0


def test_symmetry_plain_graph(fixture_dir):
    res = run_cli([
        "symmetry",
        str(fixture_dir / "square_plain.dec.json"),
        str(fixture_dir / "fig_rigid_gamma2.graph.json"),
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["group"]["complex_dimension"] == 1
    assert report["framed"] is False
    # a graph without a collapse block takes the plain path
    res = run_cli([
        "symmetry",
        str(fixture_dir / "square_plain.dec.json"),
        str(fixture_dir / "fig_rigid_gamma1.graph.json"),
    ])
    assert json.loads(res.output)["group"]["complex_dimension"] == 0


def test_mult(fixture_dir):
    res = run_cli([
        "mult",
        str(fixture_dir / "cube_split.dec.json"),
        str(fixture_dir / "fig_cube_top2.graph.json"),
    ])
    assert res.exit_code == 0
    assert json.loads(res.output)["multiplicity"] == 3


def test_mult_nonrigid_exits_one(fixture_dir):
    res = run_cli([
        "mult",
        str(fixture_dir / "cube_split.dec.json"),
        str(fixture_dir / "fig_cube_top1.graph.json"),
    ])
    assert res.exit_code == 1


def test_cut_and_potential(tmp_path):
    normals = "[[-1,0],[1,0],[0,-1],[0,1]]"
    constants = '["0","1","0","1"]'
    res = run_cli([
        "cut", "--normals", normals, "--constants", constants,
        "--eps", '["1/10","1/10","1/10","1/10"]', "--lambda", '["1/2","1/2"]',
        "-o", str(tmp_path / "cut.dec.json"),
        "--diagram", str(tmp_path / "dual.svg"),
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["num_top_cells"] == 9 and report["tropical_fiber"] is True
    assert (tmp_path / "dual.svg").read_text().startswith("<svg")
    # the -o file is a decomposition usable by the other commands
    from tropsplit.serialize import decomposition_from_dict

    dec = decomposition_from_dict(json.loads((tmp_path / "cut.dec.json").read_text()))
    assert len(dec.polytopes) == 25

    res = run_cli([
        "potential", "bg", "--normals", normals, "--constants", constants,
        "--lambda", '["1/2","1/2"]',
    ])
    report = json.loads(res.output)
    assert report["num_terms"] == 4
    assert all(t["area"] == "1/2" for t in report["series"])


def test_potential_combine(tmp_path):
    series = {"num_vars": 0, "terms": [{"coeff": "1", "area": "1/2", "monomial": []}]}
    p1 = tmp_path / "s1.json"
    p1.write_text(json.dumps(series))
    series2 = {"num_vars": 0, "terms": [{"coeff": "1", "area": "1/3", "monomial": []}]}
    p2 = tmp_path / "s2.json"
    p2.write_text(json.dumps(series2))
    res = run_cli([
        "potential", "combine", "--mult", "3", "--split-edges", "1",
        "--d-black", "0", "--sign", "+1", str(p1), str(p2),
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["series"] == [{"coeff": "3", "area": "5/6", "monomial": []}]


@pytest.mark.parametrize("split_edges, d_black", [("100000000", "0"), ("0", "100000000")])
def test_potential_combine_over_the_count_bound_exits_two(split_edges, d_black):
    """A count whose factorial would run for minutes is refused at once."""
    start = time.perf_counter()
    res = run_cli([
        "potential", "combine", "--mult", "1", "--split-edges", split_edges,
        "--d-black", d_black, "--sign", "+1", '{"num_vars":1,"terms":[]}',
    ])
    assert time.perf_counter() - start < 1
    assert res.exit_code == 2, res.output
    assert res.output == "error: split_count and d_black must be at most 10000\n"


def test_potential_combine_with_a_negative_num_vars_exits_two():
    """A series in a negative number of variables is an input error, not
    an empty series echoed back."""
    res = run_cli([
        "potential", "combine", "--mult", "1", "--split-edges", "0", "--d-black", "0",
        "--sign", "+1", '{"terms":[],"num_vars":-3}',
    ])
    assert res.exit_code == 2, res.output
    assert res.output == "error: num_vars must be nonnegative\n"


def _integer_option_args(fixture_dir, option, value) -> list:
    """A command that reads ``value`` for ``option`` and exits 0 when it
    reads 3: ``split check`` for ``--i-br``, else ``potential combine`` of
    one series with coefficient 1."""
    if option == "--i-br":
        return ["split", "check", str(fixture_dir / "square_split.dec.json"),
                str(fixture_dir / "fig_square_top1.graph.json"), "--eta", "1,-1",
                "--i-br", value]
    counts = {"--mult": "1", "--split-edges": "0", "--d-black": "0", option: value}
    return ["potential", "combine", *itertools.chain(*counts.items()), "--sign", "+1",
            '{"num_vars":0,"terms":[{"coeff":"1","area":"1","monomial":[]}]}']


INTEGER_OPTIONS = ["--i-br", "--mult", "--split-edges", "--d-black"]


@pytest.mark.parametrize("value", ["1_0", "\u0661\u0662", "\uff13", "\u00a03", "1.5", "7/2", "x", ""])
@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_integer_options_refuse_what_the_wire_grammar_refuses(fixture_dir, option, value):
    """Every integer option reads the wire's integer grammar (``as_int``):
    underscores, non-ASCII digits and spaces, and non-integers exit 2 with
    a usage error naming the option, where ``int()`` read ``1_0`` as 10."""
    res = run_cli(_integer_option_args(fixture_dir, option, value))
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{option}': expected an integer, got {value!r}" in res.output


@pytest.mark.parametrize("value", ["3", " 3 ", "+3", "6/2"])
@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_integer_options_read_3_in_the_wire_grammar(fixture_dir, option, value):
    """The integers ``int()`` read keep their value; an integral fraction,
    as the wire reads it, is read too.  A count of 3 divides the
    coefficient by 3!."""
    res = run_cli(_integer_option_args(fixture_dir, option, value))
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    if option == "--i-br":
        assert report["index_shift"]["i_br"] == 3
    else:
        coeff = "3" if option == "--mult" else "1/6"
        assert report["series"] == [{"coeff": coeff, "area": "1", "monomial": []}]


@pytest.mark.parametrize("normal, constant", [("[0,0]", "1"), ("[-1,0]", "0"), ("[1,1]", "10")])
def test_potential_bg_with_a_row_that_is_not_a_facet_exits_two(normal, constant):
    """A zero, a repeated or a redundant row is refused, naming the facet
    rule, where it once printed a fifth term or a coefficient 2."""
    res = run_cli([
        "potential", "bg", "--normals", f"[[-1,0],[1,0],[0,-1],[0,1],{normal}]",
        "--constants", f"[0,1,0,1,{constant}]", "--lambda", '["1/2","1/2"]',
    ])
    assert res.exit_code == 2, res.output
    assert res.output == (
        "error: every row must be a facet: 5 rows, 4 facets\n")


def test_potential_bg_with_a_non_primitive_normal_exits_two():
    """A scaled normal is refused, naming its row, where it once exited 0
    with a series that depended on how the polytope was written."""
    res = run_cli([
        "potential", "bg", "--normals", "[[2,0],[-1,0],[0,1],[0,-1]]",
        "--constants", "[2,0,1,0]", "--lambda", '["1/2","1/2"]',
    ])
    assert res.exit_code == 2, res.output
    assert res.output == "error: row 0: normal [2, 0] is not primitive\n"


def test_malformed_json_exits_two(tmp_path, fixture_dir):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli([
        "graph", "check", str(bad), str(fixture_dir / "fig_rigid_gamma1.graph.json")
    ])
    assert res.exit_code == 2


def test_lambda_outside_exits_two():
    res = run_cli([
        "cut", "--normals", "[[-1,0],[1,0],[0,-1],[0,1]]",
        "--constants", '["0","1","0","1"]',
        "--eps", '["1/10","1/10","1/10","1/10"]',
        "--lambda", '["19/20","1/2"]',
    ])
    assert res.exit_code == 2


def test_cut_with_a_base_point_of_wrong_dimension_exits_two():
    res = run_cli([
        "cut", "--normals", "[[1,0],[0,1],[-1,0],[0,-1]]",
        "--constants", "[1,1,1,1]",
        "--eps", '["1/2","1/2","1/2","1/2"]',
        "--lambda", "[0]",
    ])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # no uncaught exception
    assert "base point of wrong dimension" in res.output


def test_cut_over_the_sign_vector_bound_exits_two():
    n = 11
    res = run_cli([
        "cut", "--normals", json.dumps([[1, k] for k in range(n)]),
        "--constants", json.dumps(["1"] * n), "--eps", json.dumps(["1/10"] * n),
        "--lambda", '["0","0"]',
    ])
    assert res.exit_code == 2, res.output
    assert "sign vectors" in res.output


TRIANGLE = {
    "--constants": '["1","1","1"]',
    "--eps": '["1/10","1/10","1/10"]',
    "--lambda": '["0","0"]',
}


MALFORMED_NORMALS_ERRORS = {
    "5": "error: normals: expected a list\n",
    "[[1.5,0],[0,1],[-1,-1]]": "error: expected an integer, got 1.5\n",
    '[["1/2",0],[0,1],[-1,-1]]': "error: expected an integer, got '1/2'\n",
}


@pytest.mark.parametrize(
    "normals", ["5", "[[1.5,0],[0,1],[-1,-1]]", '[["1/2",0],[0,1],[-1,-1]]']
)
@pytest.mark.parametrize("command", [["cut"], ["potential", "bg"]])
def test_malformed_normals_exit_two(command, normals):
    """Each malformed normals value exits 2 with one error line naming
    what is wrong, the same for both commands."""
    args = command + ["--normals", normals]
    for option, value in TRIANGLE.items():
        if option != "--eps" or command == ["cut"]:
            args += [option, value]
    res = run_cli(args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # no uncaught exception
    assert (res.stdout, res.stderr) == ("", MALFORMED_NORMALS_ERRORS[normals])


@pytest.mark.parametrize("command", [["cut", "--eps", "[1,1]"], ["potential", "bg"]],
                         ids=["cut", "potential-bg"])
def test_ragged_normals_exit_two(command):
    """Normals of unequal length exit 2 with one error line that says so
    (``potential bg`` once exited with a ``zip()`` message)."""
    res = run_cli([
        *command, "--normals", "[[1,0],[-1]]", "--constants", "[1,1]", "--lambda", "[0,0]"
    ])
    assert res.exit_code == 2, res.output
    assert (res.stdout, res.stderr) == ("", "error: normals must have equal length\n")


def _zero_denominator_in_ineqs(fixture_dir, tmp_path):
    data = json.loads((fixture_dir / "square_split.dec.json").read_text())
    data["polytopes"][0]["ineqs"][0][0] = "1/0"
    path = tmp_path / "zero.dec.json"
    path.write_text(json.dumps(data))
    return ["graph", "check", str(path), str(fixture_dir / "fig_rigid_gamma1.graph.json")]


def _zero_denominator_in_eta(fixture_dir, tmp_path):
    return [
        "split", "check",
        str(fixture_dir / "square_split.dec.json"),
        str(fixture_dir / "fig_square_top1.graph.json"),
        "--eta", "1,2/0",
    ]


@pytest.mark.parametrize("make_args", [_zero_denominator_in_eta, _zero_denominator_in_ineqs],
                         ids=["eta", "ineqs"])
def test_zero_denominator_exits_two(fixture_dir, tmp_path, make_args):
    res = run_cli(make_args(fixture_dir, tmp_path))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # no uncaught exception
    assert "error:" in res.output


def test_corpus_run_matches_and_is_stable():
    first = run_cli(["corpus", "run"])
    assert first.exit_code == 0, first.output
    second = run_cli(["corpus", "run"])
    assert second.output == first.output


def test_corpus_regenerate_into_a_directory(tmp_path):
    """``corpus regenerate --corpus-dir`` writes the 18 stored reports,
    byte for byte, into that directory and leaves the package alone."""
    package = Path(str(expected_report_path("cube-mult"))).parent

    def snapshot():
        return {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in package.iterdir()}

    before = snapshot()
    res = run_cli(["corpus", "regenerate", "--corpus-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == 18
    assert written == sorted(f"{c['name']}.expected.json" for c in corpus_cases())
    for name in written:
        assert (tmp_path / name).read_bytes() == (package / name).read_bytes(), name
    assert snapshot() == before


class Call(NamedTuple):
    via: object  # the module or class whose binding was called
    args: tuple
    result: object


def _cold_pass(monkeypatch, *targets) -> dict:
    """Run every corpus case once, cold, and check each report's bytes,
    with the calls of each ``(owner, name)`` recorded in every binding: on
    the owner and in every ``tropsplit`` module that binds the same object.
    A ``cached_property`` is recorded when it computes.  Returns each
    name's calls, in order."""
    calls = {}

    def recording(record, via, func):
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            record.append(Call(via, args, result))
            return result
        return counted

    for owner, name in targets:
        record = calls.setdefault(name, [])
        original = getattr(owner, name)
        if isinstance(original, cached_property):
            prop = cached_property(recording(record, owner, original.func))
            prop.__set_name__(owner, name)
            monkeypatch.setattr(owner, name, prop)
            continue
        monkeypatch.setattr(owner, name, recording(record, owner, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "tropsplit" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recording(record, module, original))
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    return calls


def test_corpus_pass_runs_pinned_conversions(monkeypatch):
    """One pass over the corpus, each case cold, runs 140 double
    description conversions and gives the stored bytes, two of them the
    facet checks of the two potentials.  A relative cell converted from
    the differences of its dual cells' generators, one per top vertex,
    where the rows of dual(P(v)) tight on dual(P(kappa v)) cut it out
    (once 183), changes the count.  An edge cell named by
    certificates on both end cells, converting each cell not yet
    converted, where the end cells' rows, whose union is the edge cell's,
    settle it (once 197), changes the count.  A component with one vertex
    whose position polyhedron is converted, though it is realizable by
    construction (once 215, 18 such components a pass), a cone that
    converted a side it already had, a minimal form that converts its
    other side where it could read it off, a scalings cone converted
    from the full space instead of cut from the orthant (one per split
    case), a cell intersection converted where containment or tight
    sets certify it (once 261, with one conversion for each of the 52
    intersections a pass computes and a ``same_set`` scan to name it),
    or a graph with no split edge whose zero scalings cone is built from
    generators and converted to serialize it, not cut from the orthant
    of R^0 (once 214), changes the count."""
    calls = _cold_pass(monkeypatch, (cones, "_h_to_v"))
    assert len(calls["_h_to_v"]) == 140


def test_corpus_pass_runs_pinned_eliminations(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes
    with 198 ``_rref_int`` calls, counted in every module that binds it,
    two of them in the facet checks of the two potentials.  A genericity
    facet slice found as the kernel of its row and then spanned again,
    where the hyperplane's annihilator is the row itself, or a span(Disc)
    slice built from no equality (once 250), changes the count.  A cone built
    with no equalities or no lineality generators that eliminates the
    empty span anyway (once 388), or an edge cell named by certificates
    on its end cells, converting them, where their rows settle it (once
    420), changes the count.  A position
    polyhedron built for a one-vertex component, with its equality basis
    and its conversion's kernel (33 calls), or a normal lattice built to
    test an edge direction that a dot product with the cell's direction
    space decides, with its basis checked for independence (19 calls),
    changes the count (once 472); so does a direction space computed again
    for each edge of its cell rather than once per cell (469).
    A double description step that eliminates its lineality basis again
    or reduces its rays, a read-off that computes the equalities as a
    kernel (once 1594 calls a pass), a minimal cone built on the dual
    that ranks its read-off rays for its dimension (once 971), a cell
    intersection built and converted where a certificate settles it (once
    960), or a conversion that eliminates the equality basis its cone
    already holds, a position polyhedron that ranks its generators for a
    dimension nobody reads, or a lattice membership test by elimination
    (once 842), a split report that ranks w's rays for its dimension
    where w's serialized minimal form already knows it (once 481), or the
    conversion of a graph's zero scalings cone where the orthant cut of
    R^0 gives it with no elimination (once 471), changes the count."""
    calls = _cold_pass(monkeypatch, (exact, "_rref_int"))
    assert len(calls["_rref_int"]) == 198


def test_corpus_pass_runs_pinned_smith_forms(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes
    with 36 Smith forms: 17 quotient projections of split edges, 12
    normal lattices that symmetry groups read and 7 symmetry groups'
    kernels.  A graph check that builds its edge cell's normal lattice to
    test an edge direction, where orthogonality to the cell's direction
    space decides it (once 55 a pass), an edge that computes its quotient
    projection again for each system it enters (once 117), or edge lines
    built from the Smith projection again rather than from rows that
    annihilate the direction (once 86), changes the count."""
    calls = _cold_pass(monkeypatch, (exact, "smith_normal_form"))
    assert len(calls["smith_normal_form"]) == 36


def test_corpus_pass_runs_pinned_dd_steps(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes
    with 466 double description steps, 10 of them in the facet checks of
    the two potentials.  Converting each relative cell from its generator
    differences, where the dual rows cut it out (once 538 a pass), or
    converting the end cells of an edge to name its
    cell by certificates, where their rows settle it (once 586 a pass),
    or converting the position polyhedra of the 18
    one-vertex components, realizable by construction (once 620 a pass),
    a conversion that cuts again a row equal to an earlier one once both
    are primitive, in the coordinates of the
    equalities' kernel, rather than giving it the tight rays of its twin
    (once 730 a pass), or an orthant cut that cuts again a pulled row
    equal to a unit row or to an earlier row (once 625), changes the
    count."""
    calls = _cold_pass(monkeypatch, (cones, "_dd_step"))
    assert len(calls["_dd_step"]) == 466


def test_corpus_pass_runs_pinned_hermite_forms(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes
    with 19 Hermite normal forms, counted in every module that binds
    ``hermite_normal_form``: 12 for the normal lattices that symmetry
    groups read and 7 for the symmetry groups' kernels.  A graph check
    that builds its edge cell's normal lattice to test an edge direction,
    where orthogonality to the cell's direction space decides it (once 38
    a pass), or a lattice that reduces a basis already in echelon form
    again before a membership test, as every kernel lattice of
    ``smith_kernel`` did (once 63), changes the count."""
    calls = _cold_pass(monkeypatch, (exact, "hermite_normal_form"))
    assert len(calls["hermite_normal_form"]) == 19


def test_corpus_pass_builds_pinned_position_polyhedra(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes
    with 30 position polyhedra: 15 for base graphs and graph reports, and
    15 for the components with more than one vertex of the quasi-split
    graphs' tops.  A component with one vertex is realizable by
    construction, so computing its positions to read that verdict (once
    48, 18 one-vertex components a pass) changes the count."""
    calls = _cold_pass(monkeypatch, (graphs.CheckedGraph, "positions"))
    sizes = Counter(len(c.args[0].graph.vertices) for c in calls["positions"])
    assert sum(sizes.values()) == 30
    assert 1 not in sizes, sizes


def test_corpus_pass_certifies_every_cell_intersection(monkeypatch):
    """One pass over the corpus, each case cold, computes 52 cell
    intersections, all 52 settled by rows: the first listed common face
    of the edge's end cells has exactly the union of their rows.  None
    goes to the state cut (once 36 went by containment and 16 by face
    steps a pass), none converts an intersection, and no listed cell is
    named by a ``same_set`` scan."""
    calls = _cold_pass(monkeypatch, (complexes.Decomposition, "_cell_by_rows"),
                       (Polyhedron, "intersect"), (Polyhedron, "same_set"))
    routes = Counter("rows" if c.result is not None else "cut" for c in calls["_cell_by_rows"])
    routes.update(name for name in ("intersect", "same_set") for _ in calls[name])
    assert routes == {"rows": 52}


def test_corpus_pass_checks_pinned_graphs(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes with
    28 graph checks, counted in every module that binds ``validate_graph``:
    one per graph report and two (base and top) per quasi-split graph.  A
    checked graph passed on is not checked again.  A report, symmetry group
    or split-edge list that checks its graph again, or a component subgraph
    that is checked (once 39 checks a pass), changes the count."""
    calls = _cold_pass(monkeypatch, (graphs, "validate_graph"))
    # a graph returned unchanged, already checked, is not counted
    checked = [c for c in calls["validate_graph"] if c.result is not c.args[1]]
    assert len(checked) == 28


def test_corpus_pass_looks_up_pinned_edge_cells(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes with
    68 ``Decomposition.intersection_cell`` calls, one per tropical edge of
    each checked graph.  Reading the split edges off a second lookup per
    edge, or checking a graph again (once 124 calls a pass), changes the
    count."""
    calls = _cold_pass(monkeypatch, (complexes.Decomposition, "intersection_cell"))
    assert len(calls["intersection_cell"]) == 68


def test_corpus_pass_makes_pinned_fraction_coercions(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes
    with 18 ``exact.fr`` calls, all on non-integral input.  Integral data
    stays int from parsing through the cone kernel: a path that turns an
    int vector back into ``Fraction``s (once 1925 calls a pass) changes the
    count."""
    calls = _cold_pass(monkeypatch, (exact, "fr"))
    # the pin counts the calls inside ``exact``; ``serialize`` and
    # ``potential`` bind ``fr`` too and read wire values with it
    inside = [c.args[0] for c in calls["fr"] if c.via is exact]
    assert len(inside) == 18
    assert all(type(x) is not int for x in inside), inside


def test_corpus_run_under_optimize_flag():
    """``python -O`` strips asserts; the corpus must not depend on any."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tropsplit.cli", "corpus", "run"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(corpus_cases())
    assert all(line.split()[0] == "ok" for line in lines), proc.stdout


def test_corpus_contains_cube_torsion_three():
    path = expected_report_path("cube-symmetry-framed")
    report = json.loads(path.read_text())
    assert report["group"]["torsion_order"] == 3


def test_corpus_reports_reparse():
    for case in corpus_cases():
        text = expected_report_path(case["name"]).read_text().strip()
        report = json.loads(text)
        assert canonical_json(report) == text


def test_collapse_via_path_reference(fixture_dir):
    # the exported top graphs point at their base graph by relative path
    res = run_cli([
        "split", "check",
        str(fixture_dir / "square_split.dec.json"),
        str(fixture_dir / "fig_square_top1.graph.json"),
        "--eta", "1,-1",
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["accepted"] is True
    (ray,) = report["w_cone"]["rays"]
    # single generating ray, (2,1) in the moving vertex's block
    assert [x for x in ray if x != "0"] == ["2", "1"]


def _drop_vertex_map(inputs):
    del inputs["top"]["collapse"]["vertex_map"]


def _set(key, value):
    return lambda inputs: inputs["top"].__setitem__(key, value)


def _set_ends(ends):
    return lambda inputs: inputs["top"]["edges"][0].__setitem__("ends", ends)


def _set_dim(dim):
    return lambda inputs: inputs["dec"]["polytopes"][0].__setitem__("dim", dim)


@pytest.mark.parametrize(
    "command, mutate",
    [
        pytest.param(["split", "check"], _drop_vertex_map, id="split-no-vertex-map"),
        pytest.param(["mult"], _drop_vertex_map, id="mult-no-vertex-map"),
        pytest.param(["split", "check"], _set("collapse", "x"), id="split-collapse-string"),
        pytest.param(["split", "check"], _set("vertices", 5), id="split-vertices-int"),
        pytest.param(["graph", "check"], _set("vertices", 5), id="graph-vertices-int"),
        pytest.param(["graph", "check"], _set_ends(["up"]), id="graph-one-end"),
        pytest.param(["graph", "check"], _set_ends(["up", "u0", "u2"]), id="graph-three-ends"),
        pytest.param(["graph", "check"], _set_dim("one"), id="graph-dim-word"),
        pytest.param(["graph", "check"], _set_dim("1/2"), id="graph-dim-fraction"),
    ],
)
def test_malformed_quasi_split_input_exits_two(fixture_dir, tmp_path, command, mutate):
    top = json.loads((fixture_dir / "fig_square_top1.graph.json").read_text())
    # keep the base reachable from the mutated copy
    top["collapse"]["to_graph"] = str(fixture_dir / top["collapse"]["to_graph"])
    dec = json.loads((fixture_dir / "square_split.dec.json").read_text())
    mutate({"dec": dec, "top": top})
    path = tmp_path / "mutated.graph.json"
    path.write_text(json.dumps(top))
    dec_path = tmp_path / "mutated.dec.json"
    dec_path.write_text(json.dumps(dec))
    args = command + [str(dec_path), str(path)]
    if command == ["split", "check"]:
        args += ["--eta", "1,-1"]
    res = run_cli(args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # no uncaught exception
    assert "Traceback" not in res.output


@pytest.mark.parametrize("to_graph", [5, [], None], ids=["int", "list", "null"])
@pytest.mark.parametrize("command", [["split", "check", "--eta", "1,-1"], ["mult"], ["symmetry"]],
                         ids=["split", "mult", "symmetry"])
def test_collapse_to_graph_of_the_wrong_type_exits_two(fixture_dir, tmp_path, command, to_graph):
    """A ``to_graph`` that is neither a path nor an object is named as
    such (it once read as ``top level: expected an object``)."""
    top = json.loads((fixture_dir / "fig_square_top1.graph.json").read_text())
    top["collapse"]["to_graph"] = to_graph
    path = tmp_path / "bad.graph.json"
    path.write_text(json.dumps(top))
    res = run_cli([*command, str(fixture_dir / "square_split.dec.json"), str(path)])
    assert res.exit_code == 2, res.output
    assert (res.stdout, res.stderr) == (
        "", "error: collapse.to_graph: expected a path or an object\n")


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_split_check_with_dual_cells_that_do_not_nest_exits_two(fixture_dir, tmp_path):
    """With vc's dual cell shrunk to [1/2,1]x[0,1], Qmm's dual point (the
    base vertex under ``up``) lies outside it: Cone(kappa, up) is no cone
    of differences of nested dual cells, so the check is an input error
    naming the failed containment, not an accepted split."""
    dec = json.loads((fixture_dir / "square_split.dec.json").read_text())
    vc = next(d for d in dec["dual_cells"] if d["id"] == "vc")
    vc["vertices"] = [["1/2", "0"], ["1", "0"], ["1", "1"], ["1/2", "1"]]
    res = run_cli([
        "split", "check", _write_json(tmp_path / "d.dec.json", dec),
        str(fixture_dir / "fig_square_top1.graph.json"), "--eta", "2,1",
    ])
    assert res.exit_code == 2, res.output
    assert res.stderr == "error: dual cell of Qmm does not lie in the dual cell of vc\n"


@pytest.mark.parametrize("command, dec, split", [
    (["graph", "check"], "square_plain", False),
    (["split", "check"], "square_split", True),
    (["mult"], "square_split", True),
    (["symmetry"], "square_plain", False),
])
def test_empty_graph_exits_two(fixture_dir, tmp_path, command, dec, split):
    """A graph with no vertex is an input error on every command that reads
    one: it once got exit 0 with ``"realizable":true``, ``"rigid":true``,
    an accepted split, multiplicity 1 and a symmetry group.  A split input
    is an empty top that collapses onto an empty base."""
    empty = {"vertices": [], "edges": []}
    graph = _write_json(tmp_path / "empty.graph.json", empty)
    if split:
        top = dict(empty, collapse={"to_graph": graph, "vertex_map": {}})
        graph = _write_json(tmp_path / "top.graph.json", top)
    eta = ["--eta", "1,-1"] if command == ["split", "check"] else []
    res = run_cli([*command, str(fixture_dir / f"{dec}.dec.json"), graph, *eta])
    assert res.exit_code == 2, res.output
    assert res.stderr == "error: graph has no vertex\n"
    assert res.stdout == ""


def test_unknown_edge_endpoint_in_a_collapse_exits_two(fixture_dir, tmp_path):
    """A top edge end that names no vertex exits 2 and names the edge; it
    once failed a vertex-map lookup with a KeyError."""
    top = json.loads((fixture_dir / "fig_cube_top2.graph.json").read_text())
    top["collapse"]["to_graph"] = str(fixture_dir / top["collapse"]["to_graph"])
    top["edges"][0]["ends"][0] = "0"
    res = run_cli([
        "split", "check", str(fixture_dir / "cube_split.dec.json"),
        _write_json(tmp_path / "t.graph.json", top), "--eta", "3/4,1,0",
    ])
    assert res.exit_code == 2, res.output
    assert "edge etp: unknown endpoint 0" in res.stderr, res.stderr


def _renamed(data, old, new):
    """data with every value equal to ``old`` replaced by ``new``."""
    if isinstance(data, dict):
        return {k: _renamed(v, old, new) for k, v in data.items()}
    if isinstance(data, list):
        return [_renamed(v, old, new) for v in data]
    return new if data == old else data


def test_int_ids_give_the_verdicts_of_their_strings(fixture_dir, tmp_path):
    """A cell or vertex id given as a JSON int is the id of its decimal
    string everywhere it appears: in split_set, faces, labels and in the
    vertex map's values."""
    dec = json.loads((fixture_dir / "square_split.dec.json").read_text())
    top = json.loads((fixture_dir / "fig_square_top1.graph.json").read_text())
    base = json.loads((fixture_dir / "fig_square_base.graph.json").read_text())
    top["collapse"]["to_graph"] = str(fixture_dir / "fig_square_base.graph.json")
    want = json.loads(run_cli([
        "split", "check", str(fixture_dir / "square_split.dec.json"),
        str(fixture_dir / "fig_square_top1.graph.json"), "--eta", "1,-1",
    ]).stdout)
    cell_args = [_write_json(tmp_path / "d.dec.json", _renamed(dec, "vc", 7)),
                 _write_json(tmp_path / "t.graph.json", _renamed(top, "vc", 7))]
    top["collapse"] = {"vertex_map": _renamed(top["collapse"]["vertex_map"], "v0", 0),
                       "to_graph": _write_json(tmp_path / "b.graph.json",
                                               _renamed(base, "v0", 0))}
    vertex_args = [str(fixture_dir / "square_split.dec.json"),
                   _write_json(tmp_path / "t0.graph.json", top)]
    for args in (cell_args, vertex_args):
        res = run_cli(["split", "check", *args, "--eta", "1,-1"])
        assert res.exit_code == 0, res.output
        got = json.loads(res.stdout)
        del got["inputs"]
        assert got == {k: v for k, v in want.items() if k != "inputs"}


def _set_edge(i, key, value):
    return lambda top: top["edges"][i].__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set_edge(1, "maps_to", []), "edges.maps_to: expected an id"),
        (lambda top: top["collapse"]["vertex_map"].__setitem__("u0", ["v0"]),
         "collapse.vertex_map: expected an id"),
        (_set_edge(0, "ends", "pu"), "edges.ends: expected two ids"),
        (lambda top: top.__setitem__("split_order", "e1"), "split_order: expected a list"),
        (_set_edge(0, "direction", 5), "edges.direction: expected a list"),
        (lambda top: top["vertices"].append(7), "vertices: expected an object"),
        (lambda top: top["edges"][0].pop("id"), "edges.id: missing"),
    ],
    ids=["maps-to-list", "vertex-map-list", "ends-string", "split-order-string",
         "direction-int", "vertex-int", "edge-without-id"],
)
def test_malformed_graph_shape_exits_two_naming_the_field(fixture_dir, tmp_path, mutate, message):
    top = json.loads((fixture_dir / "fig_square_top1.graph.json").read_text())
    top["collapse"]["to_graph"] = str(fixture_dir / top["collapse"]["to_graph"])
    mutate(top)
    res = run_cli([
        "split", "check", str(fixture_dir / "square_split.dec.json"),
        _write_json(tmp_path / "t.graph.json", top), "--eta", "1,-1",
    ])
    assert res.exit_code == 2, res.output
    assert res.stderr == f"error: {message}\n"


def test_write_failure_exits_two(fixture_dir, tmp_path):
    """A report that cannot be written is an input error (exit 2), not an
    internal error with a traceback."""
    target = tmp_path / "missing" / "report.json"
    res = run_cli([
        "graph", "check", str(fixture_dir / "square_plain.dec.json"),
        str(fixture_dir / "fig_rigid_gamma1.graph.json"), "-o", str(target),
    ])
    assert res.exit_code == 2, res.output
    assert f"error: cannot write {target}: " in res.stderr, res.stderr
    afile = tmp_path / "afile"
    afile.write_text("")
    res = run_cli(["corpus", "export", str(afile / "sub")])
    assert res.exit_code == 2, res.output
    assert f"error: cannot write {afile / 'sub'}: " in res.stderr, res.stderr
    assert "Traceback" not in res.output


CORPUS_COMMANDS = {
    "graph": ["graph", "check"],
    "split": ["split", "check"],
    "symmetry": ["symmetry"],
    "mult": ["mult"],
}


def test_commands_reproduce_corpus_reports(fixture_dir):
    """Each graph, split, symmetry and mult case gives the stored report
    through its command on the exported files.  Input digests differ, as
    the exported top graphs name their base by path."""
    checked = 0
    for case in corpus_cases():
        if case["kind"] not in CORPUS_COMMANDS:
            continue
        args = CORPUS_COMMANDS[case["kind"]] + [
            str(fixture_dir / f"{case['dec']}.dec.json"),
            str(fixture_dir / f"{case['graph']}.graph.json"),
        ]
        if "eta" in case:
            args += ["--eta", ",".join(case["eta"])]
        if case.get("framed"):
            args.append("--framed")
        got = json.loads(run_cli(args).stdout)
        want = json.loads(expected_report_path(case["name"]).read_text())
        assert sorted(got.pop("inputs")) == sorted(want.pop("inputs")), case["name"]
        assert got == want, case["name"]
        checked += 1
    assert checked == 15


def _exits_two_with_error(res):
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # no uncaught exception
    assert "error:" in res.stderr and "expected an integer" in res.stderr, res.stderr


@pytest.mark.parametrize("direction", [[1.5, 1.5], [True, True]], ids=["float", "bool"])
def test_non_integer_graph_direction_exits_two(fixture_dir, tmp_path, direction):
    data = json.loads((fixture_dir / "fig_rigid_gamma1.graph.json").read_text())
    data["edges"][0]["direction"] = direction
    path = tmp_path / "g.graph.json"
    path.write_text(json.dumps(data))
    _exits_two_with_error(run_cli([
        "graph", "check", str(fixture_dir / "square_plain.dec.json"), str(path)
    ]))


@pytest.mark.parametrize("change", [{"monomial": [1.5, 0]}, {"num_vars": 2.5}],
                         ids=["monomial", "num-vars"])
def test_non_integer_series_exits_two(tmp_path, change):
    term = {"coeff": "1", "area": "1/2", "monomial": [1, 0]}
    series = {"num_vars": 2, "terms": [term]}
    if "monomial" in change:
        term.update(change)
    else:
        series.update(change)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(series))
    _exits_two_with_error(run_cli([
        "potential", "combine", "--mult", "1", "--split-edges", "0",
        "--d-black", "0", "--sign", "+1", str(path),
    ]))


def test_non_integer_ambient_dim_exits_two(fixture_dir, tmp_path):
    data = json.loads((fixture_dir / "square_plain.dec.json").read_text())
    data["ambient_dim"] = 2.5
    path = tmp_path / "d.dec.json"
    path.write_text(json.dumps(data))
    _exits_two_with_error(run_cli([
        "graph", "check", str(path), str(fixture_dir / "fig_rigid_gamma1.graph.json")
    ]))


def test_duplicate_dual_cell_exits_two(fixture_dir, tmp_path):
    """A decomposition with two dual cells for one polytope is an input
    error (exit 2), not a negative verdict (exit 1)."""
    data = json.loads((fixture_dir / "square_plain.dec.json").read_text())
    data["dual_cells"].append({"id": "Qmm", "vertices": [["9", "9"]], "rays": []})
    path = tmp_path / "d.dec.json"
    path.write_text(json.dumps(data))
    res = run_cli([
        "graph", "check", str(path), str(fixture_dir / "fig_rigid_gamma1.graph.json")
    ])
    assert res.exit_code == 2, res.output
    assert "duplicate dual cell for Qmm" in res.stderr, res.stderr


def test_dual_cell_for_unknown_polytope_exits_two(fixture_dir, tmp_path):
    """A decomposition with a dual cell for a polytope it does not list is
    an input error (exit 2), not a report (exit 0)."""
    data = json.loads((fixture_dir / "square_plain.dec.json").read_text())
    data["dual_cells"].append({"id": "Qzz", "vertices": [["9", "9"]], "rays": []})
    path = tmp_path / "d.dec.json"
    path.write_text(json.dumps(data))
    res = run_cli([
        "graph", "check", str(path), str(fixture_dir / "fig_rigid_gamma1.graph.json")
    ])
    assert res.exit_code == 2, res.output
    assert "dual cell for unknown polytope Qzz" in res.stderr, res.stderr


@pytest.mark.parametrize(
    "vertices, rays, message",
    [
        ([], [], "dual cell of Qpp has no vertex"),
        ([["1"]], [], "dual cell of Qpp: vertex of wrong length"),
        ([["1", "1"]], [["1", "0", "0"]], "dual cell of Qpp: ray of wrong length"),
    ],
    ids=["no-vertex", "short-vertex", "long-ray"],
)
def test_malformed_dual_cell_exits_two(fixture_dir, tmp_path, vertices, rays, message):
    """A dual cell with no vertex, or with a vertex or ray of the wrong
    length, exits 2 with one error line naming the cell and the field.  The
    empty cell once read as a negative verdict (exit 1), and the short
    vertex named neither (``generator of wrong dimension``)."""
    data = json.loads((fixture_dir / "square_split.dec.json").read_text())
    (cell,) = [d for d in data["dual_cells"] if d["id"] == "Qpp"]
    cell.update(vertices=vertices, rays=rays)
    path = tmp_path / "d.dec.json"
    path.write_text(json.dumps(data))
    res = run_cli([
        "graph", "check", str(path), str(fixture_dir / "fig_rigid_gamma1.graph.json")
    ])
    assert res.exit_code == 2, res.output
    assert (res.stdout, res.stderr) == ("", f"error: bad decomposition {path}: {message}\n")


def _forced(patch, exc):
    """A script that makes ``patch`` (a function of ``tropsplit.reports``
    or ``tropsplit.splitting.QuasiSplitGraph``) raise ``exc`` and runs the
    CLI."""
    return (
        "import sys, tropsplit.reports as r, tropsplit.splitting as s\n"
        "def boom(*args, **kwargs):\n"
        f"    raise {exc}('forced')\n"
        f"{patch} = boom\n"
        "from tropsplit.cli import main\n"
        "main(sys.argv[1:])\n"
    )


@pytest.mark.parametrize(
    "patch, exc, shown, args",
    [
        ("r.graph_report", "RuntimeError", "forced", ["graph", "check"]),
        ("r.graph_report", "KeyError", "'forced'", ["graph", "check"]),
        ("r.graph_report", "TypeError", "forced", ["graph", "check"]),
        ("s.QuasiSplitGraph._check_components", "KeyError", "'forced'", ["split", "check"]),
    ],
    ids=["RuntimeError", "KeyError", "TypeError", "quasi-split-KeyError"],
)
def test_internal_error_exits_three(fixture_dir, patch, exc, shown, args):
    """An exception no command turns into a verdict or an input error exits
    3, never 1 or 2, with its traceback and an error line; forced here in a
    report function and inside the quasi-split graph's construction.  A
    KeyError or TypeError is a crash too, whatever the command reads."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if args == ["graph", "check"]:
        args = args + [str(fixture_dir / "square_plain.dec.json"),
                       str(fixture_dir / "fig_rigid_gamma1.graph.json")]
    else:
        args = args + [str(fixture_dir / "square_split.dec.json"),
                       str(fixture_dir / "fig_square_top1.graph.json"), "--eta", "1,-1"]
    proc = subprocess.run(
        [sys.executable, "-c", _forced(patch, exc), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[-1] == f"error: internal error: {exc}: {shown}"
    assert proc.stdout == ""


def test_unchecked_witness_exits_three(fixture_dir):
    """A witness that fails its integer check is an internal error (exit
    3), never a verdict: forced here by returning a vertex of each position
    polyhedron as its generator sum."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "from tropsplit.polyhedra import Polyhedron\n"
        "Polyhedron.generator_sum = lambda self: list(\n"
        "    next(g for g in self.cone.rays if g[-1] > 0))\n"
        "from tropsplit.cli import main\n"
        "main(sys.argv[1:])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "split", "check",
         str(fixture_dir / "square_split.dec.json"),
         str(fixture_dir / "fig_square_top1.graph.json"), "--eta", "1,-1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "error: internal error: RuntimeError: relative interior point violates a strict row")


def test_direction_of_wrong_dimension_exits_two(fixture_dir, tmp_path):
    """An edge direction of the wrong length exits 2 with one error line
    that names the edge (it once surfaced as a ``zip`` message from the
    lattice test)."""
    data = json.loads((fixture_dir / "fig_four_top.graph.json").read_text())
    data["edges"][3]["direction"] = data["edges"][3]["direction"][:1]
    path = tmp_path / "short.graph.json"
    path.write_text(json.dumps(data))
    proc = _run_module("graph", "check", str(fixture_dir / "square_split.dec.json"), str(path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: edge et2: direction of wrong dimension"]


# Under these hash seeds, iterating the face pairs and split cells of a
# decomposition in set order names different bad entries first.
HASH_SEEDS = ("0", "1", "3")


def _under_hash_seeds(argv):
    """Exit code, stdout and stderr of ``python argv`` under each seed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outcomes = set()
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
        )
        outcomes.add((proc.returncode, proc.stdout, proc.stderr))
    return outcomes


@pytest.mark.parametrize(
    "field, entries, message",
    [
        ("faces", [["x", "a"], ["y", "b"], ["z", "a"]], "face pair (x,a) references unknown cell"),
        ("split_set", ["q", "r", "s"], "split cell q unknown"),
    ],
)
def test_bad_decomposition_error_does_not_depend_on_the_hash_seed(
    fixture_dir, tmp_path, field, entries, message
):
    data = json.loads((fixture_dir / "square_plain.dec.json").read_text())
    data[field] = data.get(field, []) + entries
    path = tmp_path / "bad.dec.json"
    path.write_text(json.dumps(data))
    graph = fixture_dir / "fig_rigid_gamma1.graph.json"
    (outcome,) = _under_hash_seeds(["-m", "tropsplit.cli", "graph", "check", str(path), str(graph)])
    assert outcome == (2, "", f"error: bad decomposition {path}: {message}\n")


def test_validate_error_does_not_depend_on_the_hash_seed(fixture_dir):
    """The first cycle and the first reflexive face pair ``validate`` names
    are the smallest in sorted order."""
    script = (
        "import json, sys\n"
        "from tropsplit.serialize import decomposition_from_dict\n"
        "data = json.load(open(sys.argv[1]))\n"
        "for extra in sys.argv[2:]:\n"
        "    dec = decomposition_from_dict({**data, 'faces': data['faces'] + json.loads(extra)})\n"
        "    try:\n"
        "        dec.validate(geometric=False)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    cycles = [["Qpm", "Qmm"], ["Qmm", "Qpm"], ["Hyp", "Hxm"], ["Hxm", "Hyp"]]
    loops = [["Qpm", "Qpm"], ["Hxm", "Hxm"], ["vc", "vc"]]
    (outcome,) = _under_hash_seeds([
        "-c", script, str(fixture_dir / "square_plain.dec.json"),
        json.dumps(cycles), json.dumps(loops),
    ])
    assert outcome == (
        0, "face poset has a cycle through Hxm,Hyp\nreflexive face pair Hxm\n", "")


def test_corpus_run_does_not_depend_on_the_hash_seed():
    (outcome,) = _under_hash_seeds(["-m", "tropsplit.cli", "corpus", "run"])
    code, out, err = outcome
    assert (code, err) == (0, ""), out + err
    assert [line.split()[0] for line in out.splitlines()] == ["ok"] * len(corpus_cases())


def _run_module(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "tropsplit.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _nested(depth):
    return "[" * depth + "]" * depth


def test_deeply_nested_json_file_exits_two(fixture_dir, tmp_path):
    """JSON nested past the decoder's recursion limit is unreadable input:
    exit 2 with one error line, not an internal error."""
    deep = tmp_path / "deep.json"
    deep.write_text(_nested(100000))
    graph = fixture_dir / "fig_rigid_gamma1.graph.json"
    proc = _run_module("graph", "check", str(deep), str(graph))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: cannot read {deep}: maximum recursion depth"), line


def test_deeply_nested_inline_json_exits_two():
    proc = _run_module(
        "cut", "--normals", _nested(50000), "--constants", "[1]", "--eps", "[1]", "--lambda", "[0]"
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: cannot read inline JSON: maximum recursion depth"), line


# -- input errors and verdicts, one table ----------------------------------------


def _graph_check_args(tmp, fixture_dir, edit):
    """``graph check`` of fig_rigid_gamma1 on square_plain, its edge e1
    changed by ``edit``."""
    graph = fx.GRAPHS["fig_rigid_gamma1"]()
    edit(graph["edges"][0])
    path = tmp / "graph.json"
    path.write_text(json.dumps(graph))
    return ["graph", "check", str(fixture_dir / "square_plain.dec.json"), str(path)]


def _split_check_args(tmp, fixture_dir, name, edit, eta="1,-1"):
    """``split check`` on square_split of the quasi-split graph ``name``,
    its base inlined, after ``edit(top, base)``."""
    top = fx.GRAPHS[name]()
    base = fx.GRAPHS[top["collapse"]["to_graph"]]()
    top["collapse"]["to_graph"] = base
    edit(top, base)
    path = tmp / "top.json"
    path.write_text(json.dumps(top))
    return ["split", "check", str(fixture_dir / "square_split.dec.json"), str(path),
            "--eta", eta]


def _edges(graph) -> dict:
    return {e["id"]: e for e in graph["edges"]}


def _corpus_args(monkeypatch, missing, differs):
    """``corpus run`` with the stored report of case ``missing`` gone and
    that of case ``differs`` replaced by other bytes."""
    stored = expected_report_path

    def path(name):
        if name == missing:
            return stored(name).with_name("no-such-report.json")
        if name == differs:
            return stored("cube-mult")
        return stored(name)

    monkeypatch.setattr("tropsplit.cli.expected_report_path", path)
    return ["corpus", "run"]


def _one_edge(**edge):
    return lambda e: (e.clear(), e.update(edge))


def _several_preimages(top, base):
    top["vertices"].append({"id": "u3", "polytope": "Qpp"})
    top["collapse"]["vertex_map"]["u3"] = "v2"
    top["edges"].append({"id": "e'", "ends": ["up", "u3"], "kind": "tropical",
                         "direction": [-1, -1], "maps_to": "e"})


def _not_a_face(top, base):
    top["collapse"]["vertex_map"]["u0"] = "v2"


CLI_ERRORS = [
    ("loop", lambda t, d, m: _graph_check_args(t, d, _one_edge(
        id="e1", ends=["v", "v"], kind="tropical", direction=[1, 1])),
     2, "error: edge e1 is a loop"),
    ("tropical without direction", lambda t, d, m: _graph_check_args(t, d, _one_edge(
        id="e1", ends=["v", "vA"], kind="tropical")),
     2, "error: edge e1: tropical edge without direction"),
    ("non-tropical with direction", lambda t, d, m: _graph_check_args(t, d, _one_edge(
        id="e1", ends=["v", "vA"], kind="interior", direction=[1, 1])),
     2, "error: edge e1: non-tropical edge with a direction"),
    ("image edge not unique", lambda t, d, m: _split_check_args(
        t, d, "fig_four_top", lambda top, base: top["edges"].append(
            {"id": "x", "ends": ["c1", "c2"], "kind": "tropical", "direction": [1, 0]})),
     2, "error: invalid collapse: edge x: image edge not unique (got 0)"),
    ("wrong endpoints", lambda t, d, m: _split_check_args(
        t, d, "fig_four_top", lambda top, base: _edges(top)["e1"].update(maps_to="e2")),
     2, "error: invalid collapse: edge e1: declared image e2 has wrong endpoints; "
        "base edge e1 has no preimage"),
    ("kind changes", lambda t, d, m: _split_check_args(
        t, d, "fig_four_top", lambda top, base: _edges(top)["e1"].update(kind="interior")),
     2, "error: invalid collapse: edge e1: kind changes under the collapse"),
    ("split edge without preimage", lambda t, d, m: _split_check_args(
        t, d, "fig_square_top1", lambda top, base: top["edges"].remove(_edges(top)["e"])),
     2, "error: invalid collapse: base edge e has no preimage"),
    ("not a face", lambda t, d, m: _split_check_args(t, d, "fig_square_top1", _not_a_face),
     2, "error: invalid collapse: vertex u0: Qmm is not a face of Qpp"),
    ("base not realizable", lambda t, d, m: _split_check_args(
        t, d, "fig_square_top1", lambda top, base: _edges(base)["e"].update(direction=[1, 1])),
     2, "error: base graph is not realizable"),
    ("several preimages", lambda t, d, m: _split_check_args(
        t, d, "fig_square_top1", _several_preimages),
     2, "error: base split edge e has several preimages"),
    ("eta of wrong dimension", lambda t, d, m: _split_check_args(
        t, d, "fig_square_top1", lambda top, base: None, eta="1,2,3"),
     2, "error: cone direction has wrong dimension"),
    ("zero multiplicity", lambda t, d, m: [
        "potential", "combine", "--mult", "0", "--split-edges", "1", "--d-black", "0",
        "--sign", "+1", '{"num_vars":0,"terms":[]}'],
     2, "error: multiplicity must be a positive integer"),
    ("non-rigid multiplicity", lambda t, d, m: [
        "mult", str(d / "square_plain.dec.json"), str(d / "fig_rigid_gamma2.graph.json")],
     1, "verdict: non-rigid: the framed tropical symmetry group is infinite"),
    ("negative count", lambda t, d, m: [
        "potential", "combine", "--mult", "1", "--split-edges", "-1", "--d-black", "0",
        "--sign", "+1", _write_json(t / "s.json", {"num_vars": 0, "terms": []})],
     2, "error: counts must be nonnegative"),
    # nested past the decoder's recursion limit on every supported version
    # (3.13 decodes 2000 levels), read in-process
    ("inline JSON nested too deeply", lambda t, d, m: [
        "cut", "--normals", _nested(100000), "--constants", "[1]", "--eps", "[1]",
        "--lambda", "[0]"],
     2, "error: cannot read inline JSON: maximum recursion depth exceeded while decoding "
        "a JSON array from a unicode string"),
    ("stored report differs", lambda t, d, m: _corpus_args(m, None, "toric-square"),
     1, "DIFFERS  toric-square"),
    ("stored report missing", lambda t, d, m: _corpus_args(m, "cube-mult", None),
     1, "MISSING  cube-mult (no stored report)"),
]


@pytest.mark.parametrize("make, code, line", [c[1:] for c in CLI_ERRORS],
                         ids=[c[0] for c in CLI_ERRORS])
def test_cli_input_errors_and_verdicts(fixture_dir, tmp_path, monkeypatch, make, code, line):
    """Each input error exits 2 and each negative verdict 1, with its
    message as one line of the output."""
    res = run_cli(make(tmp_path, fixture_dir, monkeypatch))
    assert res.exit_code == code, res.output
    assert line in res.output.splitlines(), res.output


def test_corpus_run_counts_its_failed_cases(monkeypatch):
    """A corpus run with one stored report missing and one differing
    reports both, every other case ok, and exits 1."""
    res = run_cli(_corpus_args(monkeypatch, "cube-mult", "toric-square"))
    assert res.exit_code == 1, res.output
    lines = res.output.splitlines()
    assert lines[-1] == "2 corpus case(s) failed"
    assert sorted(lines[:-1]) == sorted(
        "MISSING  cube-mult (no stored report)" if c["name"] == "cube-mult"
        else "DIFFERS  toric-square" if c["name"] == "toric-square"
        else f"ok       {c['name']}"
        for c in corpus_cases())


def test_graph_check_diagram_draws_the_witness(fixture_dir, tmp_path):
    """``graph check --diagram`` on a realizable graph overlays the
    witness: one marked, labelled point per vertex at its position and one
    line per edge."""
    svg = tmp_path / "graph.svg"
    res = run_cli(["graph", "check", str(fixture_dir / "square_plain.dec.json"),
                   str(fixture_dir / "fig_rigid_gamma1.graph.json"), "--diagram", str(svg)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["witness"] is not None
    text = svg.read_text()
    assert text.count("stroke='#c33'") == 3
    assert text.count("fill='#c33'") == 4
    for v in ("v", "vA", "vB", "vC"):
        assert f">{v}</text>" in text


@pytest.mark.parametrize("dim, size, shapes", [
    (1, "width='320.00' height='80.00'", {"circle": 3, "line": 2, "polygon": 0}),
    (3, "width='416.00' height='380.00'", {"circle": 27, "line": 54, "polygon": 44}),
], ids=["segment", "cube"])
def test_cut_diagram_draws_every_dual_cell(tmp_path, dim, size, shapes):
    """``cut --diagram`` of [0,1]^dim draws each dual cell of the cut once:
    a vertex as a dot, an edge as a line, a higher cell as an outline.
    The dual vertices have coordinates in {-1, 0, 1}: the segment lies on
    the x-axis (a 2-unit wide, flat sketch) and the cube is projected
    isometrically, to x + 0.4 y by z + 0.25 y (2.8 by 2.5 units)."""
    svg = tmp_path / "cut.svg"
    res = run_cli([
        "cut", "--normals", json.dumps([[s * (i == j) for j in range(dim)]
                                        for i in range(dim) for s in (-1, 1)]),
        "--constants", json.dumps([0, 1] * dim), "--eps", json.dumps(["1/10"] * 2 * dim),
        "--lambda", json.dumps(["1/2"] * dim), "--diagram", str(svg),
    ])
    assert res.exit_code == 0, res.output
    text = svg.read_text()
    assert text.splitlines()[0] == f"<svg xmlns='http://www.w3.org/2000/svg' {size}>"
    assert {tag: text.count(f"<{tag} ") for tag in shapes} == shapes
    assert json.loads(res.output)["num_cells"] == sum(shapes.values())


def test_empty_decomposition_draws_the_empty_svg():
    """A decomposition with no dual cell sketches as the empty SVG."""
    empty = complexes.Decomposition(2, [], [], [])
    assert dual_complex_svg(empty) == "<svg xmlns='http://www.w3.org/2000/svg'/>"


DISJOINT_CELLS_GRAPH = {
    "vertices": [{"id": "a", "polytope": "cmpmp"}, {"id": "b", "polytope": "cpmpm"}],
    "edges": [{"id": "e", "ends": ["a", "b"], "kind": "tropical", "direction": [1, 1]}],
}


def test_graph_check_with_disjoint_cut_cells_exits_two(tmp_path, monkeypatch):
    """A graph whose edge joins opposite corner cells of the cut unit
    square exits 2 naming the edge.  Its cells are given by rows, and no
    listed common face has the union of their rows, so the check goes by
    the state cut (``intersection_cell``'s second route)."""
    res = run_cli([
        "cut", "--normals", "[[-1,0],[1,0],[0,-1],[0,1]]", "--constants", "[0,1,0,1]",
        "--eps", '["1/10","1/10","1/10","1/10"]', "--lambda", '["1/2","1/2"]',
        "-o", str(tmp_path / "cut.dec.json"),
    ])
    assert res.exit_code == 0, res.output
    (tmp_path / "graph.json").write_text(json.dumps(DISJOINT_CELLS_GRAPH))
    cuts = Counter()
    original = cones.DDState.cut

    def counted(self, *rows):
        cuts[len(rows)] += 1
        return original(self, *rows)

    monkeypatch.setattr(cones.DDState, "cut", counted)
    res = run_cli(["graph", "check", str(tmp_path / "cut.dec.json"),
                   str(tmp_path / "graph.json")])
    assert res.exit_code == 2, res.output
    assert res.output == "error: edge e: endpoint cells cmpmp, cpmpm do not meet\n"
    assert sum(cuts.values()) == 1, cuts  # the one state cut of the pair

