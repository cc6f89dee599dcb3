import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest
from click.testing import CliRunner
from conftest import graph_checks

from tropsplit import complexes, cones, exact, graphs
from tropsplit.cli import corpus_cases, expected_report_path, main, run_corpus_case
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
    calls = []
    original = cones._h_to_v

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_h_to_v", counted)
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    assert len(calls) == 140


def _count_in_every_binding(monkeypatch, name) -> list:
    """Count the calls of ``exact.<name>`` in every module that binds it."""
    calls = []
    original = getattr(exact, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "tropsplit" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_corpus_pass_runs_pinned_eliminations(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes
    with 198 ``_rref_int`` calls, counted in every module that binds it,
    two of them in the facet checks of the two potentials.  A genericity
    facet slice found as the kernel of its row and then spanned again,
    where the hyperplane's basis is read off the row, or a span(Disc)
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
    calls = _count_in_every_binding(monkeypatch, "_rref_int")
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    assert len(calls) == 198


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
    calls = _count_in_every_binding(monkeypatch, "smith_normal_form")
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    assert len(calls) == 36


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
    calls = []
    original = cones._dd_step

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_dd_step", counted)
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    assert len(calls) == 466


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
    calls = _count_in_every_binding(monkeypatch, "hermite_normal_form")
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    assert len(calls) == 19


def test_corpus_pass_builds_pinned_position_polyhedra(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes
    with 30 position polyhedra: 15 for base graphs and graph reports, and
    15 for the components with more than one vertex of the quasi-split
    graphs' tops.  A component with one vertex is realizable by
    construction, so computing its positions to read that verdict (once
    48, 18 one-vertex components a pass) changes the count."""
    sizes = Counter()
    positions = graphs.CheckedGraph.positions

    def counted(self):
        sizes[len(self.graph.vertices)] += 1
        return positions.func(self)

    prop = cached_property(counted)
    prop.__set_name__(graphs.CheckedGraph, "positions")
    monkeypatch.setattr(graphs.CheckedGraph, "positions", prop)
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    assert sum(sizes.values()) == 30
    assert 1 not in sizes, sizes


def test_corpus_pass_certifies_every_cell_intersection(monkeypatch):
    """One pass over the corpus, each case cold, computes 52 cell
    intersections, all 52 settled by rows: the first listed common face
    of the edge's end cells has exactly the union of their rows.  None
    goes to the state cut (once 36 went by containment and 16 by face
    steps a pass), none converts an intersection, and no listed cell is
    named by a ``same_set`` scan."""
    routes = Counter()
    by_rows = complexes.Decomposition._cell_by_rows

    def rows(self, p1, p2):
        q = by_rows(self, p1, p2)
        routes["rows" if q is not None else "cut"] += 1
        return q

    def counted(name, original):
        def wrapper(*args):
            routes[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(complexes.Decomposition, "_cell_by_rows", rows)
    for name in ("intersect", "same_set"):
        monkeypatch.setattr(Polyhedron, name, counted(name, getattr(Polyhedron, name)))
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    assert routes == {"rows": 52}


def test_corpus_pass_checks_pinned_graphs(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes with
    28 graph checks, counted in every module that binds ``validate_graph``:
    one per graph report and two (base and top) per quasi-split graph.  A
    checked graph passed on is not checked again.  A report, symmetry group
    or split-edge list that checks its graph again, or a component subgraph
    that is checked (once 39 checks a pass), changes the count."""
    checked = graph_checks(monkeypatch)
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    assert len(checked) == 28


def test_corpus_pass_looks_up_pinned_edge_cells(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes with
    68 ``Decomposition.intersection_cell`` calls, one per tropical edge of
    each checked graph.  Reading the split edges off a second lookup per
    edge, or checking a graph again (once 124 calls a pass), changes the
    count."""
    calls = []
    original = complexes.Decomposition.intersection_cell

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(complexes.Decomposition, "intersection_cell", counted)
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    assert len(calls) == 68


def test_corpus_pass_makes_pinned_fraction_coercions(monkeypatch):
    """One pass over the corpus, each case cold, gives the stored bytes
    with 18 ``exact.fr`` calls, all on non-integral input.  Integral data
    stays int from parsing through the cone kernel: a path that turns an
    int vector back into ``Fraction``s (once 1925 calls a pass) changes the
    count."""
    calls = []
    original = exact.fr

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(exact, "fr", counted)
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        assert got == expected_report_path(case["name"]).read_text().strip(), case["name"]
    assert len(calls) == 18
    assert all(type(x) is not int for x in calls), calls


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
