"""JSON schemas for decompositions, graphs, cones, series and reports.

Every rational number travels as an exact string "p/q" (or "p"); the wire
format never contains floats.  Parsing gives a Python int for an integral
value and a ``Fraction`` otherwise, so integral rows, vertices and
directions reach the cone kernel as the int vectors it runs on.
Serialization orders are canonical so that identical inputs always produce
byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .complexes import Decomposition, DualCell, Polytope
from .cones import Cone
from .exact import as_int, fr
from .graphs import Edge, TropicalGraph


def rat_str(x) -> str:
    if type(x) is int:
        return str(x)
    x = fr(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(x) -> int | Fraction:
    """Exact value of an int, a ``Fraction`` or a string like "3", "-3/4"
    or "1.5": an int when it is integral, else a ``Fraction``.  Bools,
    floats, zero denominators and malformed strings raise ValueError."""
    if type(x) is int:
        return x
    if type(x) is str and x.isascii() and x.removeprefix("-").isdigit():
        return int(x)
    if isinstance(x, bool):
        raise ValueError("expected a rational, got a bool")
    if isinstance(x, (int, str)):
        try:
            q = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    elif isinstance(x, Fraction):
        q = x
    else:
        raise ValueError(f"expected a rational, got {type(x).__name__}")
    return q.numerator if q.denominator == 1 else q


def vec_str(v) -> list:
    return [rat_str(x) for x in v]


def parse_vec(v) -> tuple:
    return tuple(parse_rat(x) for x in v)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def freeze(data: dict) -> tuple:
    """Immutable (key, value) pairs of a dict of scalars and lists of rows,
    each list and row a tuple; for caching a serialized object."""
    return tuple(
        (k, tuple(map(tuple, v)) if isinstance(v, list) else v) for k, v in data.items()
    )


def thaw(frozen: tuple) -> dict:
    """A fresh dict, with fresh lists, of what ``freeze`` froze."""
    return {k: [list(r) for r in v] if isinstance(v, tuple) else v for k, v in frozen}


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
    n = as_int(data["ambient_dim"])
    polytopes = []
    for p in data["polytopes"]:
        rows = []
        for row in p["ineqs"]:
            row = parse_vec(row)
            if len(row) != n + 1:
                raise ValueError(f"polytope {p['id']}: inequality row of wrong length")
            rows.append((row[:-1], row[-1]))
        dim = p.get("dim")
        dim = None if dim is None else as_int(dim)
        polytopes.append(Polytope(str(p["id"]), tuple(rows), dim))
    dual_cells = [
        DualCell(
            str(d["id"]),
            tuple(parse_vec(v) for v in d["vertices"]),
            tuple(parse_vec(r) for r in d.get("rays", [])),
        )
        for d in data["dual_cells"]
    ]
    faces = [(str(q), str(p)) for q, p in data.get("faces", [])]
    return Decomposition(n, polytopes, faces, dual_cells, data.get("split_set", []))


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


def _ends(e: dict) -> tuple:
    ends = e["ends"]
    if len(ends) != 2:
        raise ValueError(f"edge {e['id']} has {len(ends)} ends, not 2")
    return str(ends[0]), str(ends[1])


def graph_from_dict(data: dict) -> TropicalGraph:
    vertices = tuple((str(v["id"]), str(v["polytope"])) for v in data["vertices"])
    edges = tuple(
        Edge(
            id=str(e["id"]),
            ends=_ends(e),
            kind=e.get("kind", "tropical"),
            direction=e.get("direction"),
            maps_to=e.get("maps_to"),
        )
        for e in data["edges"]
    )
    split_order = tuple(data["split_order"]) if "split_order" in data else None
    return TropicalGraph(vertices, edges, split_order)


def collapse_from_dict(data: dict) -> tuple[dict, object]:
    """Returns (vertex_map, to_graph) where to_graph is a dict or a path string."""
    c = data["collapse"]
    return dict(c["vertex_map"]), c["to_graph"]


# ---------------------------------------------------------------------------
# cones and lattices


def cone_to_dict(cone: Cone) -> dict:
    m = cone.minimal()
    return {
        "ambient_dim": m.ambient_dim,
        "rays": sorted(vec_str(r) for r in m.rays),
        "lineality": sorted(vec_str(l) for l in m.lineality),
        "ineqs": sorted(vec_str(a) for a in m.ineqs),
        "eqs": sorted(vec_str(a) for a in m.eqs),
        "dim": m.dim(),
    }


def cone_from_dict(data: dict) -> Cone:
    return Cone(
        as_int(data["ambient_dim"]),
        rays=[parse_vec(r) for r in data["rays"]],
        lineality=[parse_vec(l) for l in data["lineality"]],
    )


def lattice_to_dict(lattice) -> dict:
    return {
        "ambient_dim": lattice.ambient_dim,
        "basis": [[int(x) for x in b] for b in lattice.basis],
    }


# ---------------------------------------------------------------------------
# Novikov series


def series_to_list(series) -> list:
    return [
        {"coeff": rat_str(c), "area": rat_str(a), "monomial": [int(x) for x in m]}
        for c, a, m in series.terms
    ]


def series_from_list(data, num_vars) -> "NovikovSeries":
    from .potential import NovikovSeries

    return NovikovSeries(
        as_int(num_vars),
        tuple((parse_rat(t["coeff"]), parse_rat(t["area"]), t["monomial"]) for t in data),
    )
