import json
from fractions import Fraction as F

import pytest

from tropsplit import fixtures as fx
from tropsplit.cones import Cone
from tropsplit.potential import NovikovSeries
from tropsplit.serialize import (
    canonical_json,
    cone_from_dict,
    cone_to_dict,
    decomposition_from_dict,
    decomposition_to_dict,
    graph_from_dict,
    graph_to_dict,
    parse_rat,
    rat_str,
    series_from_list,
    series_to_list,
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

