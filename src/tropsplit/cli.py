"""Command-line front end.

Exit codes, all decided in ``main``: 0 success, 1 negative verdict, 2
usage or input error (any ValueError, such as a schema ``InputError``; a
write failure is an input error too), 3 internal error (any other
exception, so a crash never reads as a verdict or as bad input).  Reports
are canonical JSON on stdout (or the -o target); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from . import fixtures, reports
from .complexes import toric_cut
from .diagram import dual_complex_svg
from .exact import as_int
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

# command words -> (help, function, arguments); a group has no function
_COMMANDS: dict = {
    ("corpus",): ("Bundled worked-example regression corpus.", None, ()),
    ("graph",): ("Tropical graph commands.", None, ()),
    ("potential",): ("Novikov series commands.", None, ()),
    ("split",): ("Split tropical graph commands.", None, ()),
}


def _command(words: str, *arguments):
    """Registers the decorated function as the command ``words``; each of
    its arguments is an ``add_argument`` call as a (names, keywords) pair."""
    def register(func):
        _COMMANDS[tuple(words.split())] = func.__doc__, func, arguments
        return func
    return register


def _arg(*names, **kwargs):
    return names, kwargs


class _Integer(argparse.Action):
    """An integer option, read by ``as_int``; a value it refuses is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        try:
            setattr(namespace, self.dest, as_int(value))
        except ValueError as exc:
            raise argparse.ArgumentError(None, f"Invalid value for '{option_string}': {exc}")


def _parser():
    """(the parser of every command in ``_COMMANDS``, the options that take a value)"""
    root = argparse.ArgumentParser(prog="tropsplit", allow_abbrev=False,
                                   description="Exact combinatorics of split tropical graphs.")
    subparsers, takes_value = {(): root.add_subparsers(metavar="COMMAND", required=True)}, set()
    for words, (doc, func, arguments) in sorted(_COMMANDS.items()):
        parser = subparsers[words[:-1]].add_parser(
            words[-1], help=doc.split("\n")[0], description=doc, allow_abbrev=False)
        if func is None:
            subparsers[words] = parser.add_subparsers(metavar="COMMAND", required=True)
        for names, kwargs in arguments:
            action = parser.add_argument(*names, **kwargs)
            if action.option_strings and action.nargs is None:
                takes_value.update(action.option_strings)
        parser.set_defaults(func=func)
    return root, takes_value


def main(argv=None):
    """Runs one command line (the process's by default) and exits with the code
    of what its command returns or raises, an internal error with its traceback."""
    parser, takes_value = _parser()
    # an option's value is the next token, even one that starts with "-"; the
    # options go last, so that argparse reads the positionals in one run
    tokens, words, options = iter(sys.argv[1:] if argv is None else argv), [], []
    for token in tokens:
        value = next(tokens, None) if token in takes_value else None
        token = token if value is None else f"{token}={value}"
        (options if token.startswith("-") and token != "-" else words).append(token)
    code = INPUT_ERROR
    try:
        kwargs = vars(parser.parse_args(words + options))
        code = kwargs.pop("func")(**kwargs) or 0
    except SystemExit as exc:  # from argparse: --help (0) or a usage error (2)
        code = exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
    except Exception as exc:
        print(traceback.format_exc(), end="", file=sys.stderr)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = INTERNAL_ERROR
    raise SystemExit(code)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: not JSON, or not UTF-8; RecursionError: nested too deeply
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load_json_or_inline(arg: str):
    """Accept either a path or an inline JSON literal."""
    try:
        return json.loads(arg)
    except json.JSONDecodeError:
        return _load_json(arg)
    except RecursionError as exc:
        raise ValueError(f"cannot read inline JSON: {exc}") from None


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(report: dict, output: str | None):
    text = canonical_json(report)
    if output:
        _write(output, text + "\n")
    else:
        print(text)


def _load_dec(path: str):
    """(decomposition dict, Decomposition) of a decomposition file."""
    data = _load_json(path)
    try:
        return data, decomposition_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"bad decomposition {path}: {exc}") from None


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


# ---------------------------------------------------------------------------


@_command(
    "cut",
    _arg("--normals", required=True, help="JSON file or literal: list of integer normals"),
    _arg("--constants", required=True, help="JSON file or literal: list of rationals"),
    _arg("--eps", required=True, help="JSON file or literal: list of positive rationals"),
    _arg("--lambda", dest="lambda_", metavar="LAMBDA", required=True,
         help="JSON file or literal: interior point"),
    _arg("-o", "--output", help="write the decomposition file here, ready for the other commands"),
    _arg("--diagram", help="write an SVG sketch of the dual complex"),
)
def cut_cmd(normals, constants, eps, lambda_, output, diagram):
    """Multiple-cut decomposition of a moment polytope.

    The report goes to stdout; -o saves the decomposition itself."""
    data = {key: _load_json_or_inline(arg) for key, arg in (
        ("normals", normals), ("constants", constants), ("epsilons", eps), ("lambda", lambda_))}
    dec, report = _cut_report(data)
    _emit(report, None)
    if output:
        _write(output, canonical_json(report["decomposition"]) + "\n")
    if diagram:
        _write(diagram, dual_complex_svg(dec))


@_command("graph check", _arg("dec_path"), _arg("graph_path"), _arg("-o", "--output"),
          _arg("--diagram", help="SVG of the dual complex with the witness"))
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
        return NEGATIVE


@_command("split check", _arg("dec_path"), _arg("qsplit_path"),
          _arg("--eta", required=True, help="cone direction, comma-separated rationals"),
          _arg("--i-br", action=_Integer, help="broken index for the dimension bookkeeping"),
          _arg("-o", "--output"))
def split_check(dec_path, qsplit_path, eta, i_br, output):
    """Relative-position cone, discrepancy cone, cone condition, rigidity."""
    dec_dict, dec = _load_dec(dec_path)
    q, inputs = _quasi_split(dec, dec_dict, _load_json(qsplit_path), _base_loader(qsplit_path))
    eta_vec = tuple(parse_rat(part.strip()) for part in eta.split(","))
    report = reports.split_report(q, eta_vec, inputs, i_br=i_br)
    _emit(report, output)
    if not report["accepted"]:
        return NEGATIVE


@_command("symmetry", _arg("dec_path"), _arg("graph_path"),
          _arg("--framed", action="store_true"), _arg("-o", "--output"))
def symmetry_cmd(dec_path, graph_path, framed, output):
    """Dimension, torsion, and component splitting of the symmetry group."""
    dec_dict, dec = _load_dec(dec_path)
    graph_dict = _load_json(graph_path)
    _emit(_symmetry_report(dec, dec_dict, graph_dict, framed, _base_loader(graph_path)), output)


@_command("mult", _arg("dec_path"), _arg("qsplit_path"), _arg("-o", "--output"))
def mult_cmd(dec_path, qsplit_path, output):
    """Multiplicity: order of the framed tropical symmetry group."""
    dec_dict, dec = _load_dec(dec_path)
    q, inputs = _quasi_split(dec, dec_dict, _load_json(qsplit_path), _base_loader(qsplit_path))
    try:
        report = reports.mult_report(q, inputs)
    except GraphError as exc:
        print(f"verdict: {exc}", file=sys.stderr)
        return NEGATIVE
    _emit(report, output)


@_command("potential bg", _arg("--normals", required=True), _arg("--constants", required=True),
          _arg("--lambda", dest="lambda_", metavar="LAMBDA", required=True), _arg("-o", "--output"))
def potential_bg(normals, constants, lambda_, output):
    """Batyrev-Givental potential of a moment polytope."""
    data = {key: _load_json_or_inline(arg) for key, arg in (
        ("normals", normals), ("constants", constants), ("lambda", lambda_))}
    _emit(_potential_report(data), output)


@_command("potential combine", *(_arg(opt, required=True, action=_Integer)
                                  for opt in ("--mult", "--split-edges", "--d-black")),
          _arg("--sign", required=True, choices=["+1", "-1"]),
          _arg("series_paths", nargs="+"), _arg("-o", "--output"))
def potential_combine(mult, split_edges, d_black, sign, series_paths, output):
    """Split composition weight: scaled product of component series."""
    data_in = [_load_json_or_inline(path) for path in series_paths]
    series = [series_from_dict(data) for data in data_in]
    combined = split_contribution(mult, split_edges, d_black, int(sign), series)
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


def expected_report_path(name: str) -> Path:
    return Path(__file__).parent / "corpus" / f"{name}.expected.json"


@_command("corpus run")
def corpus_run():
    """Re-run every bundled fixture and diff against the stored reports."""
    failures = 0
    for case in corpus_cases():
        name = case["name"]
        got = canonical_json(run_corpus_case(case))
        try:
            want = expected_report_path(name).read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            print(f"MISSING  {name} (no stored report)")
            failures += 1
            continue
        if got == want:
            print(f"ok       {name}")
        else:
            print(f"DIFFERS  {name}")
            failures += 1
    if failures:
        print(f"{failures} corpus case(s) failed", file=sys.stderr)
        return NEGATIVE


@_command("corpus export", _arg("directory"))
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
    print(f"fixtures written to {directory}")


@_command("corpus regenerate",
          _arg("--corpus-dir", help="write into this directory instead of the package"))
def corpus_regenerate(corpus_dir):
    """Rewrite the stored expected reports (development helper)."""
    for case in corpus_cases():
        got = canonical_json(run_corpus_case(case))
        if corpus_dir:
            path = os.path.join(corpus_dir, f"{case['name']}.expected.json")
        else:
            path = str(expected_report_path(case["name"]))
        _write(path, got + "\n")
        print(f"wrote    {case['name']}")


if __name__ == "__main__":
    main()
