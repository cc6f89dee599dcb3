"""Bundled example fixtures: the decompositions and graphs of the worked
examples (rigid/non-rigid square graphs, the one-split-edge square pair,
the cube pair, direction-dropping graphs, and the four-split-edge family),
plus the toric-cut inputs.

Everything is returned as JSON-ready dicts; loading goes through
``serialize`` so the fixtures also exercise the wire format.
"""

from __future__ import annotations


def _pt(*xs):
    return [str(x) for x in xs]


def _rows(*rows):
    return [[str(x) for x in row] for row in rows]


def square_complex(split=("vc",)) -> dict:
    """Two orthogonal cuts of the plane; the dual complex is the unit square.

    Cells: four quadrants Q.., four half-lines H.., and the origin vc.
    """
    return {
        "ambient_dim": 2,
        "polytopes": [
            {"id": "Qmm", "ineqs": _rows((1, 0, 0), (0, 1, 0)), "dim": 2},
            {"id": "Qpm", "ineqs": _rows((-1, 0, 0), (0, 1, 0)), "dim": 2},
            {"id": "Qpp", "ineqs": _rows((-1, 0, 0), (0, -1, 0)), "dim": 2},
            {"id": "Qmp", "ineqs": _rows((1, 0, 0), (0, -1, 0)), "dim": 2},
            {"id": "Hxp", "ineqs": _rows((-1, 0, 0), (0, 1, 0), (0, -1, 0)), "dim": 1},
            {"id": "Hxm", "ineqs": _rows((1, 0, 0), (0, 1, 0), (0, -1, 0)), "dim": 1},
            {"id": "Hyp", "ineqs": _rows((0, -1, 0), (1, 0, 0), (-1, 0, 0)), "dim": 1},
            {"id": "Hym", "ineqs": _rows((0, 1, 0), (1, 0, 0), (-1, 0, 0)), "dim": 1},
            {"id": "vc", "ineqs": _rows((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)),
             "dim": 0},
        ],
        "faces": [
            ["Hxp", "Qpm"], ["Hxp", "Qpp"],
            ["Hxm", "Qmm"], ["Hxm", "Qmp"],
            ["Hyp", "Qmp"], ["Hyp", "Qpp"],
            ["Hym", "Qmm"], ["Hym", "Qpm"],
            ["vc", "Qmm"], ["vc", "Qpm"], ["vc", "Qpp"], ["vc", "Qmp"],
            ["vc", "Hxp"], ["vc", "Hxm"], ["vc", "Hyp"], ["vc", "Hym"],
        ],
        "dual_cells": [
            {"id": "Qmm", "vertices": [_pt(0, 0)], "rays": []},
            {"id": "Qpm", "vertices": [_pt(1, 0)], "rays": []},
            {"id": "Qpp", "vertices": [_pt(1, 1)], "rays": []},
            {"id": "Qmp", "vertices": [_pt(0, 1)], "rays": []},
            {"id": "Hxp", "vertices": [_pt(1, 0), _pt(1, 1)], "rays": []},
            {"id": "Hxm", "vertices": [_pt(0, 0), _pt(0, 1)], "rays": []},
            {"id": "Hyp", "vertices": [_pt(0, 1), _pt(1, 1)], "rays": []},
            {"id": "Hym", "vertices": [_pt(0, 0), _pt(1, 0)], "rays": []},
            {"id": "vc", "vertices": [_pt(0, 0), _pt(1, 0), _pt(1, 1), _pt(0, 1)],
             "rays": []},
        ],
        "split_set": list(split),
    }


def cube_complex() -> dict:
    """Subcomplex of the three-orthogonal-cut decomposition of R^3: two
    opposite octants, the two z-axis half-lines, and the origin.  The dual
    complex is the unit cube (two opposite corners, two horizontal faces,
    the solid cube)."""
    return {
        "ambient_dim": 3,
        "polytopes": [
            {"id": "Ommm", "ineqs": _rows((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
             "dim": 3},
            {"id": "Oppp", "ineqs": _rows((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0)),
             "dim": 3},
            {"id": "Hzm", "ineqs": _rows((1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0),
                                         (0, -1, 0, 0), (0, 0, 1, 0)), "dim": 1},
            {"id": "Hzp", "ineqs": _rows((1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0),
                                         (0, -1, 0, 0), (0, 0, -1, 0)), "dim": 1},
            {"id": "vc", "ineqs": _rows((1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0),
                                        (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0)),
             "dim": 0},
        ],
        "faces": [
            ["Hzm", "Ommm"], ["Hzp", "Oppp"],
            ["vc", "Ommm"], ["vc", "Oppp"], ["vc", "Hzm"], ["vc", "Hzp"],
        ],
        "dual_cells": [
            {"id": "Ommm", "vertices": [_pt(0, 0, 0)], "rays": []},
            {"id": "Oppp", "vertices": [_pt(1, 1, 1)], "rays": []},
            {"id": "Hzm", "vertices": [_pt(0, 0, 0), _pt(1, 0, 0), _pt(0, 1, 0),
                                       _pt(1, 1, 0)], "rays": []},
            {"id": "Hzp", "vertices": [_pt(0, 0, 1), _pt(1, 0, 1), _pt(0, 1, 1),
                                       _pt(1, 1, 1)], "rays": []},
            {"id": "vc", "vertices": [_pt(x, y, z) for x in (0, 1) for y in (0, 1)
                                      for z in (0, 1)], "rays": []},
        ],
        "split_set": ["vc"],
    }


# ---------------------------------------------------------------------------
# rigid / non-rigid square graphs (one interior vertex vs. a split pair)


def fig_rigid_gamma1() -> dict:
    return {
        "vertices": [
            {"id": "v", "polytope": "vc"},
            {"id": "vA", "polytope": "Qmm"},
            {"id": "vB", "polytope": "Qpm"},
            {"id": "vC", "polytope": "Qpp"},
        ],
        "edges": [
            {"id": "e1", "ends": ["v", "vA"], "kind": "tropical", "direction": [1, 1]},
            {"id": "e2", "ends": ["v", "vB"], "kind": "tropical", "direction": [-1, 1]},
            {"id": "e3", "ends": ["vC", "v"], "kind": "tropical", "direction": [1, 1]},
        ],
    }


def fig_rigid_gamma2() -> dict:
    return {
        "vertices": [
            {"id": "v1", "polytope": "vc"},
            {"id": "v2", "polytope": "vc"},
            {"id": "vA", "polytope": "Qmm"},
            {"id": "vB", "polytope": "Qpm"},
            {"id": "vC", "polytope": "Qpp"},
        ],
        "edges": [
            {"id": "e1", "ends": ["v1", "vA"], "kind": "tropical", "direction": [1, 1]},
            {"id": "e2", "ends": ["v1", "vB"], "kind": "tropical", "direction": [-1, 1]},
            {"id": "e", "ends": ["v2", "v1"], "kind": "tropical", "direction": [1, 1]},
            {"id": "e3", "ends": ["vC", "v2"], "kind": "tropical", "direction": [1, 1]},
        ],
        "collapse": {
            "vertex_map": {"v1": "v", "v2": "v", "vA": "vA", "vB": "vB", "vC": "vC"},
            "to_graph": "fig_rigid_gamma1",
        },
    }


# ---------------------------------------------------------------------------
# one split edge on the square (the (2,1) / (0,-1) pair)


def fig_square_base() -> dict:
    return {
        "vertices": [
            {"id": "v0", "polytope": "Qmm"},
            {"id": "v2", "polytope": "Qpp"},
        ],
        "edges": [
            {"id": "e", "ends": ["v0", "v2"], "kind": "tropical", "direction": [-1, -1]},
        ],
        "split_order": ["e"],
    }


def fig_square_top1() -> dict:
    """New vertex on the inner-corner side, relative ray (2,1)."""
    return {
        "vertices": [
            {"id": "u0", "polytope": "Qmm"},
            {"id": "up", "polytope": "vc"},
            {"id": "u2", "polytope": "Qpp"},
        ],
        "edges": [
            {"id": "et1", "ends": ["up", "u0"], "kind": "tropical", "direction": [2, 1]},
            {"id": "e", "ends": ["up", "u2"], "kind": "tropical",
             "direction": [-1, -1], "maps_to": "e"},
        ],
        "collapse": {
            "vertex_map": {"u0": "v0", "up": "v0", "u2": "v2"},
            "to_graph": "fig_square_base",
        },
    }


def fig_square_top2() -> dict:
    """New vertex on a side dual cell, relative ray (0,-1)."""
    return {
        "vertices": [
            {"id": "u0", "polytope": "Qmm"},
            {"id": "um", "polytope": "Hxp"},
            {"id": "u2", "polytope": "Qpp"},
        ],
        "edges": [
            {"id": "e", "ends": ["u0", "um"], "kind": "tropical",
             "direction": [-1, -1], "maps_to": "e"},
            {"id": "et2", "ends": ["u2", "um"], "kind": "tropical", "direction": [0, 1]},
        ],
        "collapse": {
            "vertex_map": {"u0": "v0", "um": "v2", "u2": "v2"},
            "to_graph": "fig_square_base",
        },
    }


# ---------------------------------------------------------------------------
# the cube pair: non-generic ray vs. the two-ray split graph of torsion 3


def fig_cube_base() -> dict:
    return {
        "vertices": [
            {"id": "v0", "polytope": "Ommm"},
            {"id": "v1", "polytope": "Oppp"},
        ],
        "edges": [
            {"id": "e", "ends": ["v0", "v1"], "kind": "tropical",
             "direction": [-1, -1, -1]},
        ],
        "split_order": ["e"],
    }


def fig_cube_top1() -> dict:
    """Single new vertex; discrepancy cone is one ray, not top-dimensional."""
    return {
        "vertices": [
            {"id": "u0", "polytope": "Ommm"},
            {"id": "um", "polytope": "Hzp"},
            {"id": "u1", "polytope": "Oppp"},
        ],
        "edges": [
            {"id": "e", "ends": ["u0", "um"], "kind": "tropical",
             "direction": [-1, -1, -1], "maps_to": "e"},
            {"id": "et", "ends": ["u1", "um"], "kind": "tropical",
             "direction": [1, 1, 0]},
        ],
        "collapse": {
            "vertex_map": {"u0": "v0", "um": "v1", "u1": "v1"},
            "to_graph": "fig_cube_base",
        },
    }


def fig_cube_top2() -> dict:
    """Two new vertices on opposite horizontal faces; top-dimensional
    discrepancy cone spanned by (2,1,0) and (1,2,0); multiplicity 3."""
    return {
        "vertices": [
            {"id": "u0", "polytope": "Ommm"},
            {"id": "up", "polytope": "Hzm"},
            {"id": "um", "polytope": "Hzp"},
            {"id": "u1", "polytope": "Oppp"},
        ],
        "edges": [
            {"id": "etp", "ends": ["up", "u0"], "kind": "tropical",
             "direction": [2, 1, 0]},
            {"id": "e", "ends": ["up", "um"], "kind": "tropical",
             "direction": [-1, -1, -1], "maps_to": "e"},
            {"id": "etm", "ends": ["u1", "um"], "kind": "tropical",
             "direction": [1, 2, 0]},
        ],
        "collapse": {
            "vertex_map": {"u0": "v0", "up": "v0", "um": "v1", "u1": "v1"},
            "to_graph": "fig_cube_base",
        },
    }


# ---------------------------------------------------------------------------
# dropping direction conditions (single edge, and three edges)


def fig_drop_single_base() -> dict:
    return {
        "vertices": [
            {"id": "vp", "polytope": "Hxp"},
            {"id": "vm", "polytope": "Qmm"},
        ],
        "edges": [
            {"id": "e", "ends": ["vp", "vm"], "kind": "tropical", "direction": [2, 1]},
        ],
        "split_order": ["e"],
    }


def fig_drop_single_top() -> dict:
    g = fig_drop_single_base()
    del g["split_order"]
    g["collapse"] = {
        "vertex_map": {"vp": "vp", "vm": "vm"},
        "to_graph": "fig_drop_single_base",
    }
    g["edges"][0]["maps_to"] = "e"
    return g


def fig_drop_three_base() -> dict:
    return {
        "vertices": [
            {"id": "v0", "polytope": "vc"},
            {"id": "v1", "polytope": "Hxp"},
            {"id": "cA", "polytope": "Qmm"},
            {"id": "cB", "polytope": "Qpm"},
        ],
        "edges": [
            {"id": "e1", "ends": ["v0", "cA"], "kind": "tropical", "direction": [1, 1]},
            {"id": "e2", "ends": ["v0", "cB"], "kind": "tropical", "direction": [-1, 1]},
            {"id": "e3", "ends": ["v1", "cA"], "kind": "tropical", "direction": [2, 1]},
        ],
        "split_order": ["e1", "e2", "e3"],
    }


def fig_drop_three_top() -> dict:
    g = fig_drop_three_base()
    del g["split_order"]
    for e in g["edges"]:
        e["maps_to"] = e["id"]
    g["collapse"] = {
        "vertex_map": {v: v for v in ("v0", "v1", "cA", "cB")},
        "to_graph": "fig_drop_three_base",
    }
    return g


# ---------------------------------------------------------------------------
# four ordered split edges (accepted graph vs. plain dropping)


def fig_four_base() -> dict:
    return {
        "vertices": [
            {"id": "v0", "polytope": "vc"},
            {"id": "c1", "polytope": "Qmm"},
            {"id": "c2", "polytope": "Qpm"},
            {"id": "c3", "polytope": "Qpp"},
            {"id": "c4", "polytope": "Qmp"},
        ],
        "edges": [
            {"id": "e1", "ends": ["v0", "c1"], "kind": "tropical", "direction": [1, 1]},
            {"id": "e2", "ends": ["v0", "c2"], "kind": "tropical", "direction": [-1, 1]},
            {"id": "e3", "ends": ["v0", "c3"], "kind": "tropical", "direction": [-1, -1]},
            {"id": "e4", "ends": ["v0", "c4"], "kind": "tropical", "direction": [1, -1]},
        ],
        "split_order": ["e1", "e2", "e3", "e4"],
    }


def fig_four_top() -> dict:
    """New vertices along the first two split edges; the remaining two are
    dropped in place.  Accepted for the cone direction (5,1)."""
    return {
        "vertices": [
            {"id": "v0", "polytope": "vc"},
            {"id": "w1", "polytope": "vc"},
            {"id": "w2", "polytope": "vc"},
            {"id": "c1", "polytope": "Qmm"},
            {"id": "c2", "polytope": "Qpm"},
            {"id": "c3", "polytope": "Qpp"},
            {"id": "c4", "polytope": "Qmp"},
        ],
        "edges": [
            {"id": "e1", "ends": ["v0", "w1"], "kind": "tropical",
             "direction": [1, 1], "maps_to": "e1"},
            {"id": "et1", "ends": ["w1", "c1"], "kind": "tropical", "direction": [1, 2]},
            {"id": "e2", "ends": ["v0", "w2"], "kind": "tropical",
             "direction": [-1, 1], "maps_to": "e2"},
            {"id": "et2", "ends": ["w2", "c2"], "kind": "tropical", "direction": [-2, 1]},
            {"id": "e3", "ends": ["v0", "c3"], "kind": "tropical",
             "direction": [-1, -1], "maps_to": "e3"},
            {"id": "e4", "ends": ["v0", "c4"], "kind": "tropical",
             "direction": [1, -1], "maps_to": "e4"},
        ],
        "collapse": {
            "vertex_map": {"v0": "v0", "w1": "c1", "w2": "c2",
                           "c1": "c1", "c2": "c2", "c3": "c3", "c4": "c4"},
            "to_graph": "fig_four_base",
        },
    }


def fig_four_top_prime() -> dict:
    """All four direction conditions dropped in place; rejected (the inner
    vertex only moves in two dimensions)."""
    g = fig_four_base()
    del g["split_order"]
    for e in g["edges"]:
        e["maps_to"] = e["id"]
    g["collapse"] = {
        "vertex_map": {v: v for v in ("v0", "c1", "c2", "c3", "c4")},
        "to_graph": "fig_four_base",
    }
    return g


def fig_four_intermediate(k: int) -> dict:
    """Intermediate graph with split edges e1..ek (one-edge-at-a-time check)."""
    if not 1 <= k <= 4:
        raise ValueError("k must be 1..4")
    top = fig_four_top()
    keep_new = {1: ("w1",), 2: ("w1", "w2"), 3: ("w1", "w2"), 4: ("w1", "w2")}[k]
    drop_new = {"w1", "w2"} - set(keep_new)
    vertices = [v for v in top["vertices"] if v["id"] not in drop_new]
    edges = []
    for e in top["edges"]:
        if e["id"] in ("et1", "et2"):
            if e["ends"][0] in drop_new:
                continue
            edges.append(dict(e))
        elif e["id"] in ("e1", "e2"):
            if e["id"] == "e2" and "w2" in drop_new:
                edges.append({"id": "e2", "ends": ["v0", "c2"], "kind": "tropical",
                              "direction": [-1, 1], "maps_to": "e2"})
            else:
                edges.append(dict(e))
        else:
            edges.append(dict(e))
    vmap = {v["id"]: v["id"] for v in vertices if v["id"] not in ("w1", "w2")}
    if "w1" in keep_new:
        vmap["w1"] = "c1"
    if "w2" in keep_new:
        vmap["w2"] = "c2"
    return {
        "vertices": vertices,
        "edges": edges,
        "collapse": {"vertex_map": vmap, "to_graph": "fig_four_base"},
        "partial_split": ["e1", "e2", "e3", "e4"][:k],
    }


# ---------------------------------------------------------------------------
# toric inputs


def toric_square() -> dict:
    return {
        "normals": [[-1, 0], [1, 0], [0, -1], [0, 1]],
        "constants": ["0", "1", "0", "1"],
        "epsilons": ["1/10"] * 4,
        "lambda": ["1/2", "1/2"],
    }


def toric_cube() -> dict:
    return {
        "normals": [[-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, -1], [0, 0, 1]],
        "constants": ["0", "1", "0", "1", "0", "1"],
        "epsilons": ["1/10"] * 6,
        "lambda": ["1/2", "1/2", "1/2"],
    }


def hirzebruch_two() -> dict:
    """Second Hirzebruch surface: moment polytope with vertices
    (0,0), (3,0), (1,1), (0,1)."""
    return {
        "normals": [[-1, 0], [0, -1], [0, 1], [1, 2]],
        "constants": ["0", "0", "1", "3"],
        "epsilons": ["1/10"] * 4,
        "lambda": ["1", "1/2"],
    }


def toric_hexagonal_prism() -> dict:
    """Hexagon times a segment: normals +-e1, +-e2, +-(e1+e2), +-e3; eight
    facets, 185 cells.  A cut at scale, not a corpus case."""
    return {
        "normals": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                    [1, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]],
        "constants": ["1"] * 8,
        "epsilons": ["1/10"] * 8,
        "lambda": ["0", "0", "0"],
    }


def toric_four_cube() -> dict:
    """The cube [-1, 1]^4: normals +-e_i; eight facets, 625 cells.  A cut
    at scale, not a corpus case."""
    return {
        "normals": [[s * (j == i) for j in range(4)] for i in range(4) for s in (1, -1)],
        "constants": ["1"] * 8,
        "epsilons": ["1/10"] * 8,
        "lambda": ["0"] * 4,
    }


GRAPHS = {
    "fig_rigid_gamma1": fig_rigid_gamma1,
    "fig_rigid_gamma2": fig_rigid_gamma2,
    "fig_square_base": fig_square_base,
    "fig_square_top1": fig_square_top1,
    "fig_square_top2": fig_square_top2,
    "fig_cube_base": fig_cube_base,
    "fig_cube_top1": fig_cube_top1,
    "fig_cube_top2": fig_cube_top2,
    "fig_drop_single_base": fig_drop_single_base,
    "fig_drop_single_top": fig_drop_single_top,
    "fig_drop_three_base": fig_drop_three_base,
    "fig_drop_three_top": fig_drop_three_top,
    "fig_four_base": fig_four_base,
    "fig_four_top": fig_four_top,
    "fig_four_top_prime": fig_four_top_prime,
}

DECOMPOSITIONS = {
    "square_plain": lambda: square_complex(split=()),
    "square_split": square_complex,
    "cube_split": cube_complex,
}
