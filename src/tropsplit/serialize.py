"""JSON schemas for decompositions, graphs, cones, series and reports.

Every rational number travels as an exact string "p/q" (or "p"); the wire
format never contains floats.  Parsing gives a Python int for an integral
value and a ``Fraction`` otherwise, so integral rows, vertices and
directions reach the cone kernel as the int vectors it runs on.  Most
wire entries are small integers: ``parse_vec`` reads "-64" to "64" by one
dict lookup each, and any vector with another entry is read again, whole,
through ``parse_rat``.  The table holds only strings that ``parse_rat``
reads to the same int, so the grammar, the values, their types and every
error are ``parse_rat``'s.
Serialization orders are canonical so that identical inputs always produce
byte-identical reports.  The ``*_from_dict`` readers are the one check of
the wire schema.
"""

from __future__ import annotations

import json
import weakref
from fractions import Fraction
from math import gcd

from .complexes import Decomposition, DualCell, Polytope
from .cones import Cone
from .exact import as_int, fr
from .graphs import TROPICAL, Edge, TropicalGraph
from .potential import NovikovSeries


def rat_str(x) -> str:
    if type(x) is int:
        return str(x)
    x = fr(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(x) -> int | Fraction:
    """Exact value of an int, a ``Fraction`` or a string like "3", "-3/4"
    or "1.5" (``exact.fr``'s grammar): an int when it is integral, else a
    ``Fraction``.  Bools, floats, zero denominators and other strings
    raise ValueError."""
    if type(x) is int:
        return x
    if type(x) is str and x.isascii() and x.removeprefix("-").isdigit():
        return int(x)
    if isinstance(x, bool):
        raise ValueError("expected a rational, got a bool")
    if isinstance(x, (int, str)):
        try:
            q = fr(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    elif isinstance(x, Fraction):
        q = x
    else:
        raise ValueError(f"expected a rational, got {type(x).__name__}")
    return q.numerator if q.denominator == 1 else q


def vec_str(v) -> list:
    return list(map(rat_str, v))


def vec_str_over(v, den: int) -> list:
    """``vec_str`` of the int vector v divided by the positive int den,
    each entry in lowest terms, with no ``Fraction``."""
    return [str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}" for x in v]


# The wire's small integers, each written as ``str`` writes it, to their
# values: ``parse_rat`` reads each of these strings to exactly this int.
_SMALL_INTS = {str(i): i for i in range(-64, 65)}


def parse_vec(v, field: str = "vector") -> tuple:
    """Exact values of a list of rationals (see ``parse_rat``).

    A vector whose entries are all small integers as ``str`` writes them
    ("-64" to "64") is read by one dict lookup per entry.  On the first
    entry that is not such a key (any other string, "-0" and "007" too,
    or any value that is not a string) the whole vector is read again
    through ``parse_rat``, so every value, type and error is ``parse_rat``'s."""
    v = _list(v, field)
    try:
        return tuple(map(_SMALL_INTS.__getitem__, v))
    except (KeyError, TypeError):  # TypeError: an unhashable entry
        return tuple(parse_rat(x) for x in v)


# ``json.dumps`` with these arguments builds this encoder on every call.
# Every value it meets is a tree, so it keeps no markers of the lists and
# dicts it is inside (``check_circular=False``).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                            check_circular=False)


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"),
    ensure_ascii=True)`` of an acyclic value, with the C encoder or
    without it.

    Reports and wire forms are built fresh, and inputs are parsed JSON, so
    every value is a tree: a cyclic value raises ``RecursionError``, as a
    too-deep one does, and not ``ValueError``.  A dict whose keys are
    already sorted costs the key sort one linear pass."""
    return _ENCODER.encode(obj)


# ---------------------------------------------------------------------------
# the wire schema


class InputError(ValueError):
    """A wire value of the wrong type, a missing key or the wrong arity."""


def _at(obj, key: str, field: str, read=None, default=...):
    """obj[key] of the JSON object obj, through ``read(value, field)`` if
    given; an absent key gives ``default`` (unread) when one is given.
    ``field`` names the key in messages by its dotted path ("edges.ends")."""
    if type(obj) is not dict:
        raise InputError(f"{field.rpartition('.')[0] or 'top level'}: expected an object")
    value = obj.get(key, default)
    if value is ...:
        raise InputError(f"{field}: missing")
    return value if read is None or value is default else read(value, field)


def _list(x, field: str):
    if type(x) is not list and type(x) is not tuple:
        raise InputError(f"{field}: expected a list")
    return x


def _id(x, field: str) -> str:
    """Every id, a string or an int (not a bool), is read as a string."""
    if type(x) is not str and type(x) is not int:
        raise InputError(f"{field}: expected an id")
    return x if type(x) is str else str(x)


def _rows(x, field: str) -> tuple:
    return tuple([parse_vec(r, field) for r in _list(x, field)])


def _pair(x, field: str) -> tuple:
    if type(x) is not list and type(x) is not tuple or len(x) != 2:
        raise InputError(f"{field}: expected two ids")
    return _id(x[0], field), _id(x[1], field)


# ---------------------------------------------------------------------------
# decompositions


def decomposition_to_dict(dec: Decomposition) -> dict:
    return {
        "ambient_dim": dec.ambient_dim,
        "polytopes": [
            {
                "id": pid,
                "ineqs": [vec_str(tuple(a) + (b,)) for a, b in p.ineqs],
                **({"dim": p.dim} if p.dim is not None else {}),
            }
            for pid, p in sorted(dec.polytopes.items())
        ],
        "faces": sorted([q, p] for q, p in dec.face_pairs),
        "dual_cells": [
            {
                "id": pid,
                "vertices": [vec_str(v) for v in d.vertices],
                "rays": [vec_str(r) for r in d.rays],
            }
            for pid, d in sorted(dec.dual_cells.items())
        ],
        "split_set": sorted(dec.split_set),
    }


def decomposition_from_dict(data: dict) -> Decomposition:
    n = as_int(_at(data, "ambient_dim", "ambient_dim"))
    polytopes = []
    for p in _at(data, "polytopes", "polytopes", _list):
        pid = _at(p, "id", "polytopes.id", _id)
        rows = _at(p, "ineqs", "polytopes.ineqs", _rows)
        if set(map(len, rows)) - {n + 1}:
            raise InputError(f"polytope {pid}: inequality row of wrong length")
        rows = tuple([(row[:-1], row[-1]) for row in rows])
        dim = _at(p, "dim", "polytopes.dim", default=None)
        polytopes.append(Polytope(pid, rows, None if dim is None else as_int(dim)))
    dual_cells = [
        DualCell(_at(d, "id", "dual_cells.id", _id),
                 _at(d, "vertices", "dual_cells.vertices", _rows),
                 _at(d, "rays", "dual_cells.rays", _rows, ()))
        for d in _at(data, "dual_cells", "dual_cells", _list)
    ]
    faces = [_pair(f, "faces") for f in _at(data, "faces", "faces", _list, ())]
    split_set = [_id(c, "split_set") for c in _at(data, "split_set", "split_set", _list, ())]
    return Decomposition(n, polytopes, faces, dual_cells, split_set)


# ---------------------------------------------------------------------------
# graphs


def graph_to_dict(graph: TropicalGraph, collapse=None) -> dict:
    out = {
        "vertices": [{"id": v, "polytope": p} for v, p in sorted(graph.vertices)],
        "edges": [
            {
                "id": e.id,
                "ends": list(e.ends),
                "kind": e.kind,
                **({"direction": [int(x) for x in e.direction]}
                   if e.direction is not None else {}),
                **({"maps_to": e.maps_to} if e.maps_to is not None else {}),
            }
            for e in graph.edges
        ],
        **({"split_order": list(graph.split_order)}
           if graph.split_order is not None else {}),
    }
    if collapse is not None:
        out["collapse"] = collapse
    return out


def graph_from_dict(data: dict) -> TropicalGraph:
    vertices = tuple(
        (_at(v, "id", "vertices.id", _id), _at(v, "polytope", "vertices.polytope", _id))
        for v in _at(data, "vertices", "vertices", _list)
    )
    edges = tuple(
        Edge(_at(e, "id", "edges.id", _id), _at(e, "ends", "edges.ends", _pair),
             _at(e, "kind", "edges.kind", default=TROPICAL),
             _at(e, "direction", "edges.direction", _list, None),
             _at(e, "maps_to", "edges.maps_to", _id, None))
        for e in _at(data, "edges", "edges", _list)
    )
    order = _at(data, "split_order", "split_order", _list, None)
    if order is not None:
        order = tuple(_id(x, "split_order") for x in order)
    return TropicalGraph(vertices, edges, order)


def collapse_from_dict(data: dict) -> tuple[dict, object]:
    """Returns (vertex_map, to_graph) of a graph's collapse block, where
    to_graph is a graph dict or a path string."""
    c = _at(data, "collapse", "collapse", default=None)
    if c is None:
        raise InputError("graph file has no collapse block; a quasi-split input needs one")
    vertex_map = _at(c, "vertex_map", "collapse.vertex_map")
    if type(vertex_map) is not dict:
        raise InputError("collapse.vertex_map: expected an object")
    to_graph = _at(c, "to_graph", "collapse.to_graph")
    if type(to_graph) is not str and type(to_graph) is not dict:
        raise InputError("collapse.to_graph: expected a path or an object")
    return {
        _id(v, "collapse.vertex_map"): _id(img, "collapse.vertex_map")
        for v, img in vertex_map.items()
    }, to_graph


# ---------------------------------------------------------------------------
# cones and lattices


def _int_rows(rows) -> tuple:
    """Sorted ``vec_str`` of int vectors, whose entries ``str`` writes as
    ``rat_str`` does, each row a tuple."""
    return tuple(sorted(tuple(map(str, r)) for r in rows))


# Each cone's wire form, frozen, from its first ``cone_to_dict``.  A cone
# never changes once built, and its entry dies with it.
_WIRE_FORMS = weakref.WeakKeyDictionary()


def cone_to_dict(cone: Cone) -> dict:
    """A cone's canonical minimal form; its generators and rows are
    primitive int vectors.  The form is built once per cone; every call
    returns a fresh dict with fresh lists, its keys in sorted order."""
    frozen = _WIRE_FORMS.get(cone)
    if frozen is None:
        frozen = _WIRE_FORMS[cone] = _wire_form(cone)
    return {k: list(map(list, v)) if type(v) is tuple else v for k, v in frozen}


def _wire_form(cone: Cone) -> tuple:
    """The (key, value) pairs of ``cone_to_dict``, rows as tuples, in
    sorted key order.  The rows are read before ``dim()``: reading the
    inequalities sets the dimension, which ``dim()`` alone would find by
    an elimination."""
    m = cone.minimal()
    rays, lineality = _int_rows(m.rays), _int_rows(m.lineality)
    ineqs, eqs = _int_rows(m.ineqs), _int_rows(m.eqs)
    return (
        ("ambient_dim", m.ambient_dim),
        ("dim", m.dim()),
        ("eqs", eqs),
        ("ineqs", ineqs),
        ("lineality", lineality),
        ("rays", rays),
    )


def cone_from_dict(data: dict) -> Cone:
    return Cone(as_int(_at(data, "ambient_dim", "ambient_dim")),
                rays=_at(data, "rays", "rays", _rows),
                lineality=_at(data, "lineality", "lineality", _rows))


def lattice_to_dict(lattice) -> dict:
    return {
        "ambient_dim": lattice.ambient_dim,
        "basis": [[int(x) for x in b] for b in lattice.basis],
    }


# ---------------------------------------------------------------------------
# toric data and Novikov series


def toric_from_dict(data: dict, cut: bool) -> tuple:
    """(normals, constants, lambda, epsilons) of toric data: integer normal
    rows, then rational vectors; the epsilons only for a cut (else None)."""
    rows = _at(data, "normals", "normals", _list)
    return (
        tuple(tuple(map(as_int, _list(r, "normals"))) for r in rows),
        _at(data, "constants", "constants", parse_vec),
        _at(data, "lambda", "lambda", parse_vec),
        _at(data, "epsilons", "epsilons", parse_vec) if cut else None,
    )


def series_to_list(series) -> list:
    return [
        {"coeff": rat_str(c), "area": rat_str(a), "monomial": [int(x) for x in m]}
        for c, a, m in series.terms
    ]


def series_from_dict(data: dict) -> NovikovSeries:
    return series_from_list(_at(data, "terms", "terms"), _at(data, "num_vars", "num_vars"))


def series_from_list(data, num_vars) -> NovikovSeries:
    return NovikovSeries(as_int(num_vars), tuple(
        (parse_rat(_at(t, "coeff", "terms.coeff")), parse_rat(_at(t, "area", "terms.area")),
         _at(t, "monomial", "terms.monomial", _list))
        for t in _list(data, "terms")
    ))
