"""The exit-code contract under mutated input: a standing property test.

Each example takes one exported corpus input (a decomposition, a graph or
toric data), changes one value in it (replaces it by any value or by one of
its own type, drops it, or repeats a list entry), and runs the command that
reads it in-process.  Whatever the
input, the command must exit 0 (ok), 1 (negative verdict) or 2 (input
error), never 3 (internal error) and never with a traceback.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropsplit.cli import main

# (command and the file it reads, the other arguments); "{}" is the mutated
# file, and every other name is an exported file
RUNS = (
    ("graph", "square_plain.dec.json", ["graph", "check", "{}", "fig_rigid_gamma2.graph.json"]),
    ("graph", "fig_rigid_gamma1.graph.json", ["graph", "check", "square_plain.dec.json", "{}"]),
    ("split", "square_split.dec.json",
     ["split", "check", "{}", "fig_square_top1.graph.json", "--eta", "1,-1"]),
    ("split", "fig_square_top1.graph.json",
     ["split", "check", "square_split.dec.json", "{}", "--eta", "1,-1"]),
    ("split", "fig_four_top.graph.json",
     ["split", "check", "square_split.dec.json", "{}", "--eta", "5,1"]),
    ("split", "fig_cube_top2.graph.json",
     ["split", "check", "cube_split.dec.json", "{}", "--eta", "3/4,1,0"]),
    ("symmetry", "fig_cube_top2.graph.json",
     ["symmetry", "cube_split.dec.json", "{}", "--framed"]),
    ("symmetry", "cube_split.dec.json", ["symmetry", "{}", "fig_cube_top2.graph.json"]),
    ("mult", "fig_cube_top2.graph.json", ["mult", "cube_split.dec.json", "{}"]),
    ("cut", "toric_square.json", None),
    ("cut", "hirzebruch_two.json", None),
    ("potential", "toric_square.json", None),
)

VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", "1/0", "1/2", "-1", "0", [], {}, 1.5]),
    st.integers(-3, 7),
    st.lists(st.integers(-2, 2), max_size=3),
    st.lists(st.sampled_from(["0", "1", "-1/2", "a"]), max_size=3),
)
# same-type replacements, which keep most inputs well-formed: an int for
# an int, a rational string for a string
NUMBERS = st.integers(-3, 7)
RATIONALS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3", "3/4"])


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    path = tmp_path_factory.mktemp("exported")
    result = CliRunner().invoke(main, ["corpus", "export", str(path)])
    assert result.exit_code == 0, result.output
    return path


def _nodes(data, path=()):
    """Every (path, value) in a JSON value, the root first."""
    yield path, data
    if isinstance(data, dict):
        for k in sorted(data):
            yield from _nodes(data[k], path + (k,))
    elif isinstance(data, list):
        for i, x in enumerate(data):
            yield from _nodes(x, path + (i,))


def _mutate(data, path, op, value, number, rational):
    """data with the node at path replaced by value, or by number or
    rational when it is an int or a string ("nudge"), dropped, or (a list
    entry) repeated; the root is only ever replaced."""
    if not path:
        return value
    parent = data
    for k in path[:-1]:
        parent = parent[k]
    k = path[-1]
    if op == "nudge":
        parent[k] = number if type(parent[k]) is int else rational
    elif op == "drop":
        del parent[k]
    elif op == "repeat" and isinstance(parent, list):
        parent.insert(k, json.loads(json.dumps(parent[k])))
    else:
        parent[k] = value
    return data


def _args(run, exported, target):
    command, name, args = run
    if args is not None:
        return [str(target) if a == "{}" else str(exported / a) if a.endswith(".json") else a
                for a in args]
    data = json.loads(target.read_text())
    if not isinstance(data, dict):
        data = {}
    opts = [("--normals", "normals"), ("--constants", "constants"), ("--lambda", "lambda")]
    if command == "cut":
        opts.insert(2, ("--eps", "epsilons"))
    out = ["potential", "bg"] if command == "potential" else ["cut"]
    for flag, key in opts:
        out += [flag, json.dumps(data.get(key))]
    return out


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    run=st.sampled_from(RUNS),
    op=st.sampled_from(["nudge", "nudge", "replace", "drop", "repeat"]),
    value=VALUES,
    number=NUMBERS,
    rational=RATIONALS,
    draw=st.data(),
)
def test_mutated_corpus_inputs_keep_the_exit_code_contract(
    exported, run, op, value, number, rational, draw
):
    _, name, _ = run
    data = json.loads((exported / name).read_text())
    paths = [p for p, v in _nodes(data) if op != "nudge" or type(v) in (int, str)]
    path = draw.draw(st.sampled_from(paths))
    mutant = _mutate(data, path, op, value, number, rational)
    # beside the exported files, so a collapse's to_graph reference resolves
    target = exported / ("mutant." + name)
    target.write_text(json.dumps(mutant))
    result = CliRunner().invoke(main, _args(run, exported, target))
    assert result.exit_code in (0, 1, 2), (name, path, op, value, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        name, path, op, value, repr(result.exception))
    assert "Traceback" not in result.output, (name, path, op, value, result.output)
