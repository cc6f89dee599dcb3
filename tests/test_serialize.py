import json
from fractions import Fraction as F

import pytest

from tropsplit import fixtures as fx
from tropsplit.cones import Cone
from tropsplit.exact import as_int, fr
from tropsplit.potential import NovikovSeries
from tropsplit.serialize import (
    _SMALL_INTS,
    InputError,
    canonical_json,
    collapse_from_dict,
    cone_from_dict,
    cone_to_dict,
    decomposition_from_dict,
    decomposition_to_dict,
    graph_from_dict,
    graph_to_dict,
    parse_rat,
    parse_vec,
    rat_str,
    series_from_dict,
    series_from_list,
    series_to_list,
    toric_from_dict,
    vec_str,
    vec_str_over,
)


def test_rational_strings():
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(5)) == "5"
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat(7) == F(7)
    with pytest.raises(ValueError):
        parse_rat(True)
    with pytest.raises(ValueError):
        parse_rat(0.5)


def test_integer_quotients_write_as_fractions_do():
    """An int vector over a positive int denominator is written entry by
    entry as the ``Fraction`` it stands for: in lowest terms, the sign on
    the numerator, an integral entry (zero too) with no denominator."""
    import random

    rng = random.Random(21)
    for _ in range(500):
        den = rng.randint(1, 24)
        v = [rng.randint(-50, 50) for _ in range(rng.randint(0, 4))]
        assert vec_str_over(v, den) == vec_str([F(x, den) for x in v]), (v, den)
    assert vec_str_over((0, -6, 4, 3), 4) == ["0", "-3/2", "1", "3/4"]


@pytest.mark.parametrize("x", ["3", "-0", "007", "+3", " 3 ", "6/2", "3.0", 7, F(3)])
def test_integral_rationals_parse_to_ints(x):
    got = parse_rat(x)
    assert type(got) is int and got == F(x)


@pytest.mark.parametrize("x", ["3/4", "1.5", F(-5, 3)])
def test_other_rationals_parse_to_fractions(x):
    got = parse_rat(x)
    assert type(got) is F and got == F(x)


@pytest.mark.parametrize("x", ["1/0", "x", "", True, 0.5, "--3", None])
def test_malformed_rationals_raise(x):
    with pytest.raises(ValueError):
        parse_rat(x)


# Strings ``Fraction`` alone reads differently by interpreter ("1_0" from
# 3.11 on, "1 /2" from 3.12 on), or reads from non-ASCII digits or spaces.
OFF_GRAMMAR = ["1_0", "1_0/2", "1.5_0", "1e1_0", "1 /2", "1/ 2", "1 / 2", "- 3",
               "\u0661\u0662", "\uff13", "\u00a03", "3\u2003"]


@pytest.mark.parametrize("read", [parse_rat, fr, as_int], ids=lambda f: f.__name__)
@pytest.mark.parametrize("x", OFF_GRAMMAR, ids=ascii)
def test_rational_grammar_refuses_what_interpreters_read_differently(read, x):
    """One ASCII grammar on every supported interpreter: an optional sign,
    then digits with an optional "/digits", or a decimal with an optional
    exponent.  Underscores, spaces inside the number and non-ASCII digits
    or spaces raise ValueError."""
    with pytest.raises(ValueError):
        read(x)


@pytest.mark.parametrize("x, value", [("3", 3), ("-3/4", F(-3, 4)), ("1.5", F(3, 2)),
                                      ("1e3", 1000), (" +3 ", 3), (".5", F(1, 2))])
def test_rational_grammar_keeps_values(x, value):
    assert parse_rat(x) == fr(x) == value
    assert type(parse_rat(x)) is type(value)
    if type(value) is int:
        assert as_int(x) == value
    else:
        with pytest.raises(ValueError):
            as_int(x)


class Text(str):
    pass


def _read(read, v):
    """What ``read(v)`` gives, each value with its exact type, or the
    exception's type and message."""
    try:
        got = read(v)
    except Exception as e:
        return type(e), str(e)
    return type(got), [(type(x), x) for x in got]


SMALL_INT_NEIGHBOURS = ["-65", "65", "-0", "007", "+1", " 1 ", "1_0", "1.0", "2/1",
                        "\u0661", True, 0.5, 3, F(3, 4), Text("3"), Text("3/4"), None,
                        ["1"]]


def test_small_int_lookup_keeps_the_rational_grammar():
    """``parse_vec`` reads a vector to exactly what ``parse_rat`` reads from
    each entry, the same values of the same types, or raises the same
    exception with the same message: on every key of its small-int table,
    on the strings and values next to them that the table does not hold,
    and on vectors that mix both."""
    keys = list(_SMALL_INTS)
    assert "0" in keys and all(type(k) is str for k in keys)
    vectors = [[k] for k in keys + SMALL_INT_NEIGHBOURS] + [keys, [], ("1", "2")]
    vectors += [["1", x, "2"] for x in SMALL_INT_NEIGHBOURS] + [[x, "0"] for x in keys[::8]]
    vectors += [["3/4", "64", "-64"], ["5", "1_0"], ["2", None, "1/0"], ["1", "x"]]
    for v in vectors:
        assert _read(parse_vec, v) == _read(lambda v: tuple(parse_rat(x) for x in v), v), v
    for row in ("12", 12, None, {"0": "1"}):
        with pytest.raises(InputError, match="^row: expected a list$"):
            parse_vec(row, "row")


def test_no_floats_in_wire_format():
    data = fx.square_complex()
    text = canonical_json(data)
    parsed = json.loads(text)

    def walk(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(parsed)


def test_decomposition_roundtrip():
    data = fx.square_complex()
    dec = decomposition_from_dict(data)
    again = decomposition_to_dict(dec)
    assert decomposition_from_dict(again).polytopes.keys() == dec.polytopes.keys()
    assert canonical_json(again) == canonical_json(decomposition_to_dict(
        decomposition_from_dict(again)
    ))


def test_graph_roundtrip():
    for name in fx.GRAPHS:
        data = fx.GRAPHS[name]()
        g = graph_from_dict(data)
        g2 = graph_from_dict(graph_to_dict(g))
        assert set(g2.vertices) == set(g.vertices)  # serialization sorts
        assert [e.id for e in g2.edges] == [e.id for e in g.edges]
        assert [e.direction for e in g2.edges] == [e.direction for e in g.edges]


def test_graph_to_dict_writes_the_collapse_block():
    """A collapse passed to ``graph_to_dict`` is written as the graph's
    ``collapse`` block, as given; with none the block is absent, and the
    rest of the graph is written alike."""
    data = fx.GRAPHS["fig_square_top1"]()
    g = graph_from_dict(data)
    plain = graph_to_dict(g)
    out = graph_to_dict(g, collapse=data["collapse"])
    assert "collapse" not in plain
    assert out.pop("collapse") == data["collapse"] == {
        "vertex_map": {"u0": "v0", "up": "v0", "u2": "v2"}, "to_graph": "fig_square_base"}
    assert out == plain


def test_cone_roundtrip():
    c = Cone.from_rays([(2, 1), (0, 1)])
    c2 = cone_from_dict(cone_to_dict(c))
    assert c2.same_set(c)
    z = Cone.zero(2)
    assert cone_from_dict(cone_to_dict(z)).same_set(z)


def test_series_roundtrip():
    s = NovikovSeries(2, ((F(1, 2), F(3, 4), (1, -1)), (F(-2), F(0), (0, 0))))
    s2 = series_from_list(series_to_list(s), 2)
    assert s2 == s


@pytest.mark.parametrize("dim", [2.9, 2.0, True, "5/2"])
def test_cone_from_dict_rejects_a_non_integer_ambient_dim(dim):
    """A float, bool or fractional dimension raises; nothing is rounded."""
    with pytest.raises(ValueError):
        cone_from_dict({"ambient_dim": dim, "rays": [], "lineality": []})
    assert cone_from_dict({"ambient_dim": "2", "rays": [], "lineality": []}).ambient_dim == 2


def test_a_cell_dim_is_read_as_an_exact_integer():
    """An integer string ``dim`` is that integer, so ``validate()`` accepts
    a true one; a word, a fraction or a float raises; no ``dim`` stays
    None."""
    data = fx.square_complex()
    dec = decomposition_from_dict(data)
    for p in data["polytopes"]:
        p["dim"] = str(dec.cell(p["id"]).dim())
    dec = decomposition_from_dict(data)
    assert all(type(p.dim) is int for p in dec.polytopes.values())
    dec.validate(geometric=False)
    for bad in ("one", "1/2", 1.0, True):
        data["polytopes"][0]["dim"] = bad
        with pytest.raises(ValueError):
            decomposition_from_dict(data)
    del data["polytopes"][0]["dim"]
    assert decomposition_from_dict(data).polytopes[data["polytopes"][0]["id"]].dim is None



def test_int_ids_are_read_as_strings():
    """Every id, wherever it appears, goes through one reader: an int is
    its decimal string, so a cell named 7 is in the split set [7]."""
    data = fx.square_complex(split=())
    for p in data["polytopes"] + data["dual_cells"]:
        p["id"] = 7 if p["id"] == "vc" else p["id"]
    data["faces"] = [[7 if q == "vc" else q, p] for q, p in data["faces"]]
    data["split_set"] = [7]
    dec = decomposition_from_dict(data)
    assert dec.split_set == {"7"} and "7" in dec.dual_cells
    g = fx.fig_square_top1()
    g["vertices"][1]["polytope"] = 7
    g["collapse"]["vertex_map"]["up"] = 0
    g["split_order"] = [5]
    assert graph_from_dict(g).label["up"] == "7"
    assert graph_from_dict(g).split_order == ("5",)
    assert collapse_from_dict(g)[0]["up"] == "0"


@pytest.mark.parametrize(
    "read, data, message",
    [
        (decomposition_from_dict, [], "top level: expected an object"),
        (decomposition_from_dict, {"ambient_dim": 2}, "polytopes: missing"),
        (graph_from_dict, {"vertices": [{"id": True, "polytope": "vc"}], "edges": []},
         "vertices.id: expected an id"),
        (graph_from_dict, {"vertices": [], "edges": [{"id": "e", "ends": "pu"}]},
         "edges.ends: expected two ids"),
        (graph_from_dict, {"vertices": [], "edges": [], "split_order": "e1"},
         "split_order: expected a list"),
        (collapse_from_dict, {"vertices": []},
         "graph file has no collapse block; a quasi-split input needs one"),
        (collapse_from_dict, {"collapse": {"vertex_map": [], "to_graph": "g"}},
         "collapse.vertex_map: expected an object"),
        (series_from_dict, {"num_vars": 1, "terms": [{"coeff": "1", "area": "0"}]},
         "terms.monomial: missing"),
        (lambda d: toric_from_dict(d, cut=True), {"normals": [[1]], "constants": [1],
                                                   "lambda": ["12"]}, "epsilons: missing"),
        (lambda d: toric_from_dict(d, cut=False), {"normals": [[1]], "constants": "12",
                                                    "lambda": [0]}, "constants: expected a list"),
    ],
)
def test_wire_schema_errors_name_the_field(read, data, message):
    with pytest.raises(InputError) as info:
        read(data)
    assert str(info.value) == message


def test_coercion_errors_keep_their_text():
    """A value of the right shape that does not coerce raises the
    coercion's own ValueError, not an InputError."""
    data = fx.square_complex()
    data["ambient_dim"] = 2.5
    with pytest.raises(ValueError, match="expected an integer") as info:
        decomposition_from_dict(data)
    assert not isinstance(info.value, InputError)
