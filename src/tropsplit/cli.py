"""Command-line front end.

Exit codes, all decided in ``_Main.invoke``: 0 success, 1 negative verdict,
2 input error (any ValueError, such as a schema ``InputError``; a write
failure is an input error too), 3 internal error (any other exception, so
a crash never reads as a verdict or as bad input).  All reports are
canonical JSON on stdout (or the -o target); diagnostics go to stderr.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from importlib import resources

import click

from . import fixtures, reports
from .complexes import toric_cut
from .diagram import dual_complex_svg
from .graphs import GraphError
from .potential import split_contribution
from .serialize import (
    canonical_json,
    collapse_from_dict,
    decomposition_from_dict,
    graph_from_dict,
    parse_rat,
    parse_vec,
    series_from_dict,
    toric_from_dict,
)
from .splitting import QuasiSplitGraph

INPUT_ERROR = 2
NEGATIVE = 1
INTERNAL_ERROR = 3


def _fail(message: str, code: int = INPUT_ERROR):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: not JSON, or not UTF-8; RecursionError: nested too deeply
    except (OSError, ValueError, RecursionError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _load_json_or_inline(arg: str):
    """Accept either a path or an inline JSON literal."""
    try:
        return json.loads(arg)
    except json.JSONDecodeError:
        return _load_json(arg)
    except RecursionError as exc:
        _fail(f"cannot read inline JSON: {exc}")


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(report: dict, output: str | None):
    text = canonical_json(report)
    if output:
        _write(output, text + "\n")
    else:
        click.echo(text)


def _load_dec(path: str):
    """(decomposition dict, Decomposition) of a decomposition file."""
    data = _load_json(path)
    try:
        return data, decomposition_from_dict(data)
    except ValueError as exc:
        _fail(f"bad decomposition {path}: {exc}")


def _base_loader(graph_path: str):
    """Resolves a collapse's ``to_graph`` as a path relative to the graph file."""
    return lambda ref: _load_json(os.path.join(os.path.dirname(graph_path), ref))


def _fixture_graph(name: str) -> dict:
    return fixtures.GRAPHS[name]()


def _quasi_split(dec, dec_dict, top_dict, load_base):
    """(QuasiSplitGraph, report inputs) of a top graph with a collapse block;
    ``load_base`` turns a ``to_graph`` reference into the base dict."""
    vertex_map, to_graph = collapse_from_dict(top_dict)
    base_dict = load_base(to_graph) if isinstance(to_graph, str) else to_graph
    q = QuasiSplitGraph(dec, graph_from_dict(base_dict), graph_from_dict(top_dict), vertex_map)
    return q, {"dec": dec_dict, "top": top_dict, "base": base_dict}


def _symmetry_report(dec, dec_dict, graph_dict, framed, load_base) -> dict:
    """Symmetry report of a plain graph, or of the top graph of a collapse
    with its split edges taken from the base."""
    graph = graph_from_dict(graph_dict)
    if "collapse" not in graph_dict:
        return reports.symmetry_report(dec, graph, framed, {"dec": dec_dict, "graph": graph_dict})
    q, inputs = _quasi_split(dec, dec_dict, graph_dict, load_base)
    return reports.symmetry_report(dec, q.checked_top, framed, inputs, q.top_split_ids)


def _cut_report(data: dict):
    """(decomposition, report) of a multiple cut given as a toric-data dict."""
    normals, constants, lam, epsilons = toric_from_dict(data, cut=True)
    dec, inner = toric_cut(normals, constants, epsilons, lam)
    return dec, reports.cut_report(dec, inner, lam, {"cut_input": data})


def _potential_report(data: dict) -> dict:
    normals, constants, lam, _ = toric_from_dict(data, cut=False)
    return reports.potential_report(normals, constants, lam, {"potential_input": data})


class _Main(click.Group):
    """The command group; maps what a command raises to its exit code, an
    internal error with its traceback on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except ValueError as exc:
            _fail(str(exc))
        except OSError as exc:
            _fail(f"cannot write {exc.filename or 'output'}: {exc.strerror or exc}")
        except Exception as exc:
            click.echo(traceback.format_exc(), err=True, nl=False)
            _fail(f"internal error: {type(exc).__name__}: {exc}", INTERNAL_ERROR)


@click.group(cls=_Main)
def main():
    """Exact combinatorics of split tropical graphs."""


# ---------------------------------------------------------------------------


@main.command("cut")
@click.option("--normals", required=True, help="JSON file or literal: list of integer normals")
@click.option("--constants", required=True, help="JSON file or literal: list of rationals")
@click.option("--eps", required=True, help="JSON file or literal: list of positive rationals")
@click.option("--lambda", "lambda_", required=True, help="JSON file or literal: interior point")
@click.option("-o", "--output", default=None,
              help="write the decomposition file here, ready for the other commands")
@click.option("--diagram", default=None, help="write an SVG sketch of the dual complex")
def cut_cmd(normals, constants, eps, lambda_, output, diagram):
    """Multiple-cut decomposition of a moment polytope.

    The report goes to stdout; -o saves the decomposition itself.
    """
    data = {key: _load_json_or_inline(arg) for key, arg in (
        ("normals", normals), ("constants", constants), ("epsilons", eps), ("lambda", lambda_))}
    dec, report = _cut_report(data)
    _emit(report, None)
    if output:
        _write(output, canonical_json(report["decomposition"]) + "\n")
    if diagram:
        _write(diagram, dual_complex_svg(dec))


@main.group("graph")
def graph_group():
    """Tropical graph commands."""


@graph_group.command("check")
@click.argument("dec_path")
@click.argument("graph_path")
@click.option("-o", "--output", default=None)
@click.option("--diagram", default=None, help="SVG of the dual complex with the witness")
def graph_check(dec_path, graph_path, output, diagram):
    """Invariants, realizability and rigidity of a tropical graph."""
    dec_dict, dec = _load_dec(dec_path)
    gd = _load_json(graph_path)
    graph = graph_from_dict(gd)
    report = reports.graph_report(dec, graph, {"dec": dec_dict, "graph": gd})
    _emit(report, output)
    if diagram:
        positions = edges = None
        if report["witness"] is not None:
            witness = parse_vec(report["witness"])
            n = dec.ambient_dim
            positions = {
                v: witness[i * n : (i + 1) * n] for i, v in enumerate(report["vertex_order"])
            }
            edges = [e.ends for e in graph.edges]
        _write(diagram, dual_complex_svg(dec, positions, edges))
    if not report["realizable"]:
        sys.exit(NEGATIVE)


@main.group("split")
def split_group():
    """Split tropical graph commands."""


@split_group.command("check")
@click.argument("dec_path")
@click.argument("qsplit_path")
@click.option("--eta", required=True, help="cone direction, comma-separated rationals")
@click.option("--i-br", default=None, type=int, help="broken index for the dimension bookkeeping")
@click.option("-o", "--output", default=None)
def split_check(dec_path, qsplit_path, eta, i_br, output):
    """Relative-position cone, discrepancy cone, cone condition, rigidity."""
    dec_dict, dec = _load_dec(dec_path)
    q, inputs = _quasi_split(dec, dec_dict, _load_json(qsplit_path), _base_loader(qsplit_path))
    eta_vec = tuple(parse_rat(part.strip()) for part in eta.split(","))
    report = reports.split_report(q, eta_vec, inputs, i_br=i_br)
    _emit(report, output)
    if not report["accepted"]:
        sys.exit(NEGATIVE)


@main.command("symmetry")
@click.argument("dec_path")
@click.argument("graph_path")
@click.option("--framed", is_flag=True, default=False)
@click.option("-o", "--output", default=None)
def symmetry_cmd(dec_path, graph_path, framed, output):
    """Dimension, torsion, and component splitting of the symmetry group."""
    dec_dict, dec = _load_dec(dec_path)
    report = _symmetry_report(
        dec, dec_dict, _load_json(graph_path), framed, _base_loader(graph_path)
    )
    _emit(report, output)


@main.command("mult")
@click.argument("dec_path")
@click.argument("qsplit_path")
@click.option("-o", "--output", default=None)
def mult_cmd(dec_path, qsplit_path, output):
    """Multiplicity: order of the framed tropical symmetry group."""
    dec_dict, dec = _load_dec(dec_path)
    q, inputs = _quasi_split(dec, dec_dict, _load_json(qsplit_path), _base_loader(qsplit_path))
    try:
        report = reports.mult_report(q, inputs)
    except GraphError as exc:
        click.echo(f"verdict: {exc}", err=True)
        sys.exit(NEGATIVE)
    _emit(report, output)


@main.group("potential")
def potential_group():
    """Novikov series commands."""


@potential_group.command("bg")
@click.option("--normals", required=True)
@click.option("--constants", required=True)
@click.option("--lambda", "lambda_", required=True)
@click.option("-o", "--output", default=None)
def potential_bg(normals, constants, lambda_, output):
    """Batyrev-Givental potential of a moment polytope."""
    data = {key: _load_json_or_inline(arg) for key, arg in (
        ("normals", normals), ("constants", constants), ("lambda", lambda_))}
    _emit(_potential_report(data), output)


@potential_group.command("combine")
@click.option("--mult", "mult_", required=True, type=int)
@click.option("--split-edges", "split_edges_", required=True, type=int)
@click.option("--d-black", required=True, type=int)
@click.option("--sign", required=True, type=click.Choice(["+1", "-1"]))
@click.argument("series_paths", nargs=-1, required=True)
@click.option("-o", "--output", default=None)
def potential_combine(mult_, split_edges_, d_black, sign, series_paths, output):
    """Split composition weight: scaled product of component series."""
    data_in = [_load_json_or_inline(path) for path in series_paths]
    series = [series_from_dict(data) for data in data_in]
    combined = split_contribution(mult_, split_edges_, d_black, int(sign), series)
    report = reports.combine_report(combined, {"series": data_in})
    _emit(report, output)


# ---------------------------------------------------------------------------
# corpus


def corpus_cases() -> list:
    """The bundled worked-example fixtures and how to analyse each."""
    return [
        {"name": "rigid-square-gamma1", "kind": "graph",
         "dec": "square_plain", "graph": "fig_rigid_gamma1"},
        {"name": "rigid-square-gamma2", "kind": "graph",
         "dec": "square_plain", "graph": "fig_rigid_gamma2"},
        {"name": "rigid-square-relative-cone", "kind": "split",
         "dec": "square_plain", "graph": "fig_rigid_gamma2", "eta": ["1", "-1"]},
        {"name": "square-split-ray21", "kind": "split",
         "dec": "square_split", "graph": "fig_square_top1", "eta": ["1", "-1"]},
        {"name": "square-split-ray21-reversed-eta", "kind": "split",
         "dec": "square_split", "graph": "fig_square_top1", "eta": ["-1", "1"]},
        {"name": "square-split-ray0m1", "kind": "split",
         "dec": "square_split", "graph": "fig_square_top2", "eta": ["-1", "1"]},
        {"name": "cube-nongeneric", "kind": "split",
         "dec": "cube_split", "graph": "fig_cube_top1", "eta": ["1", "1", "0"]},
        {"name": "cube-split-accepted", "kind": "split",
         "dec": "cube_split", "graph": "fig_cube_top2", "eta": ["3/4", "1", "0"]},
        {"name": "cube-symmetry-framed", "kind": "symmetry",
         "dec": "cube_split", "graph": "fig_cube_top2", "framed": True},
        {"name": "cube-symmetry-unframed", "kind": "symmetry",
         "dec": "cube_split", "graph": "fig_cube_top2", "framed": False},
        {"name": "cube-mult", "kind": "mult",
         "dec": "cube_split", "graph": "fig_cube_top2"},
        {"name": "drop-single", "kind": "split",
         "dec": "square_split", "graph": "fig_drop_single_top", "eta": ["1", "-3"]},
        {"name": "drop-three", "kind": "split",
         "dec": "square_split", "graph": "fig_drop_three_top", "eta": ["1", "-3"]},
        {"name": "four-split-accepted", "kind": "split",
         "dec": "square_split", "graph": "fig_four_top", "eta": ["5", "1"]},
        {"name": "four-split-rejected", "kind": "split",
         "dec": "square_split", "graph": "fig_four_top_prime", "eta": ["5", "1"]},
        {"name": "toric-square", "kind": "cut", "input": "toric_square"},
        {"name": "potential-square", "kind": "potential", "input": "toric_square"},
        {"name": "potential-hirzebruch", "kind": "potential", "input": "hirzebruch_two"},
    ]


def run_corpus_case(case: dict) -> dict:
    """The report of one corpus case, through the same helpers as the
    matching command; fixtures stand in for files."""
    kind = case["kind"]
    if kind == "cut":
        return _cut_report(getattr(fixtures, case["input"])())[1]
    if kind == "potential":
        return _potential_report(getattr(fixtures, case["input"])())
    dec_dict = fixtures.DECOMPOSITIONS[case["dec"]]()
    dec = decomposition_from_dict(dec_dict)
    graph_dict = _fixture_graph(case["graph"])
    if kind == "graph":
        return reports.graph_report(
            dec, graph_from_dict(graph_dict), {"dec": dec_dict, "graph": graph_dict}
        )
    if kind == "symmetry":
        return _symmetry_report(dec, dec_dict, graph_dict, case["framed"], _fixture_graph)
    q, inputs = _quasi_split(dec, dec_dict, graph_dict, _fixture_graph)
    if kind == "split":
        return reports.split_report(q, parse_vec(case["eta"]), inputs)
    if kind == "mult":
        return reports.mult_report(q, inputs)
    raise ValueError(f"unknown corpus case kind {kind}")


def expected_report_path(name: str):
    return resources.files("tropsplit").joinpath("corpus", f"{name}.expected.json")


@main.group("corpus")
def corpus_group():
    """Bundled worked-example regression corpus."""


@corpus_group.command("run")
def corpus_run():
    """Re-run every bundled fixture and diff against the stored reports."""
    failures = 0
    for case in corpus_cases():
        name = case["name"]
        got = canonical_json(run_corpus_case(case))
        path = expected_report_path(name)
        try:
            want = path.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            click.echo(f"MISSING  {name} (no stored report)")
            failures += 1
            continue
        if got == want:
            click.echo(f"ok       {name}")
        else:
            click.echo(f"DIFFERS  {name}")
            failures += 1
    if failures:
        click.echo(f"{failures} corpus case(s) failed", err=True)
        sys.exit(NEGATIVE)


@corpus_group.command("export")
@click.argument("directory")
def corpus_export(directory):
    """Write the bundled fixture inputs (decompositions, graphs, toric data)
    as JSON files into DIRECTORY."""
    os.makedirs(directory, exist_ok=True)
    for name, builder in fixtures.DECOMPOSITIONS.items():
        _write(os.path.join(directory, f"{name}.dec.json"), canonical_json(builder()) + "\n")
    for name, builder in fixtures.GRAPHS.items():
        data = builder()
        if "collapse" in data and isinstance(data["collapse"]["to_graph"], str):
            data["collapse"]["to_graph"] = data["collapse"]["to_graph"] + ".graph.json"
        _write(os.path.join(directory, f"{name}.graph.json"), canonical_json(data) + "\n")
    for name in ("toric_square", "toric_cube", "hirzebruch_two"):
        text = canonical_json(getattr(fixtures, name)())
        _write(os.path.join(directory, f"{name}.json"), text + "\n")
    click.echo(f"fixtures written to {directory}")


@corpus_group.command("regenerate")
@click.option("--corpus-dir", default=None, help="write into this directory instead of the package")
def corpus_regenerate(corpus_dir):
    """Rewrite the stored expected reports (development helper)."""
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        if corpus_dir:
            path = os.path.join(corpus_dir, f"{case['name']}.expected.json")
        else:
            path = str(expected_report_path(case["name"]))
        _write(path, got + "\n")
        click.echo(f"wrote    {case['name']}")


if __name__ == "__main__":
    main()
