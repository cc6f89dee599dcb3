import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

import oracles
from conftest import graph, quasi
from tropsplit import fixtures as fx
from tropsplit.exact import vec
from tropsplit.graphs import (
    Edge,
    GraphError,
    TropicalGraph,
    is_rigid,
    match_collapse,
    split_edges,
    validate_collapse,
    validate_graph,
    vertex_positions,
)
from tropsplit.polyhedra import Polyhedron
from tropsplit.serialize import decomposition_from_dict, graph_from_dict


# -- realizability and rigidity -------------------------------------------------


def test_gamma1_rigid(square_plain):
    w = vertex_positions(square_plain, graph("fig_rigid_gamma1"))
    assert w.realizable and w.dim == 0
    assert is_rigid(square_plain, graph("fig_rigid_gamma1"))
    # unique interior position: the center of the dual square
    assert w.position(w.witness, "v") == vec((F(1, 2), F(1, 2)))


def test_gamma2_one_dimensional(square_plain):
    w = vertex_positions(square_plain, graph("fig_rigid_gamma2"))
    assert w.realizable and w.dim == 1
    assert not is_rigid(square_plain, graph("fig_rigid_gamma2"))
    # the witness respects all strict conditions
    assert w.position(w.witness, "v1") == vec((F(1, 2), F(1, 2)))
    x, y = w.position(w.witness, "v2")
    assert x == y and F(1, 2) < x < 1


def test_witness_on_a_strict_row_is_caught(square_plain, monkeypatch):
    """The integer witness check still raises when the relative interior
    point lies on a strict row: here a vertex of the closed polyhedron."""
    g = graph("fig_rigid_gamma2")
    w = vertex_positions(square_plain, g)
    vertex = w.closed.vertices[0]
    assert any(sum(x * y for x, y in zip(a, vertex)) == b for a, b in w.strict_rows)
    monkeypatch.setattr(Polyhedron, "relative_interior_point", lambda self: self.vertices[0])
    with pytest.raises(RuntimeError, match="relative interior point violates a strict row"):
        vertex_positions(square_plain, g)


def test_single_vertex_top_dimensional(square_plain):
    g = TropicalGraph((("v", "Qpp"),), ())
    w = vertex_positions(square_plain, g)
    assert w.realizable and w.dim == 0
    assert is_rigid(square_plain, g)


def test_weakly_realizable_only(square_plain):
    # two interior vertices forced onto coinciding positions by opposite
    # direction conditions: closed system feasible, strict system not
    g = TropicalGraph(
        (("a", "vc"), ("b", "vc"), ("cA", "Qmm")),
        (
            Edge("e1", ("a", "b"), "tropical", (1, 1)),
            Edge("e2", ("b", "a"), "tropical", (1, 1)),
            Edge("e3", ("a", "cA"), "tropical", (1, 1)),
        ),
    )
    w = vertex_positions(square_plain, g)
    assert w.realizable_weakly and not w.realizable
    with pytest.raises(GraphError):
        is_rigid(square_plain, g)


def test_unrealizable_graph(square_plain):
    # two parallel direction conditions from different corners force
    # inconsistent equalities: x = y and x - y = 1
    g = TropicalGraph(
        (("v", "vc"), ("cA", "Qmm"), ("cB", "Qpm")),
        (
            Edge("e1", ("v", "cA"), "tropical", (1, 1)),
            Edge("e2", ("v", "cB"), "tropical", (1, 1)),
        ),
    )
    w = vertex_positions(square_plain, g)
    assert not w.realizable_weakly


def test_direction_must_lie_in_normal_lattice(square_split):
    g = TropicalGraph(
        (("a", "Hxp"), ("b", "Qpp")),
        (Edge("e", ("b", "a"), "tropical", (1, 0)),),  # not in ann(Hxp)
    )
    with pytest.raises(GraphError):
        validate_graph(square_split, g)


def test_zero_direction_rejected(square_plain):
    g = TropicalGraph(
        (("a", "vc"), ("b", "Qpp")),
        (Edge("e", ("b", "a"), "tropical", (0, 0)),),
    )
    with pytest.raises(GraphError):
        validate_graph(square_plain, g)


def test_direction_of_wrong_dimension_rejected(square_split):
    """A direction of the wrong length is an input error that names its
    edge, raised before its lattice test."""
    data = fx.fig_four_top()
    data["edges"][3]["direction"] = data["edges"][3]["direction"][:1]
    with pytest.raises(GraphError, match="^edge et2: direction of wrong dimension$"):
        validate_graph(square_split, graph_from_dict(data))
    data["edges"][3]["direction"] = [-2, 1, 0]
    with pytest.raises(GraphError, match="^edge et2: direction of wrong dimension$"):
        validate_graph(square_split, graph_from_dict(data))


def _positions(route, dec, g):
    """What ``route`` answers for a graph: the verdicts, the dimension and
    the witness, or the validation error."""
    try:
        w = route(dec, g)
    except GraphError as exc:
        return "error", str(exc)
    return w.realizable, w.realizable_weakly, w.dim, w.witness, w.strict_rows


def _fixture_pairs():
    decs = {name: decomposition_from_dict(make()) for name, make in fx.DECOMPOSITIONS.items()}
    return [(dec, graph(name)) for dec in decs.values() for name in sorted(fx.GRAPHS)]


def test_vertex_positions_match_the_hyperplane_reference_on_fixtures():
    """Every fixture graph on every fixture decomposition: the zero-set
    read-off gives the frozen hyperplane scan's verdicts, dimension and
    witness (or its validation error)."""
    kinds = Counter()
    for dec, g in _fixture_pairs():
        want = _positions(oracles.vertex_positions, dec, g)
        assert _positions(vertex_positions, dec, g) == want
        kinds["error" if want[0] == "error" else "realizable" if want[0] else "not"] += 1
    assert kinds == {"realizable": 19, "not": 8, "error": 18}, kinds


def _mutant(rng, dec, g):
    """g with one or two tropical edges turned to a nonzero vector of their
    edge cell's normal lattice, so that it still validates: a positive
    multiple of the direction, its negative, or a random vector."""
    edges = list(g.edges)
    cells = validate_graph(dec, g).cells
    tropical = [i for i, e in enumerate(edges) if e.kind == "tropical"]
    for i in rng.sample(tropical, min(len(tropical), rng.randint(1, 2))):
        e = edges[i]
        basis = dec.normal_space(cells[e.id]).basis
        k = rng.choice((2, 3, -1, 0, 0))
        d = tuple(k * x for x in e.direction)
        while not any(d):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            d = tuple(sum(c * b[j] for c, b in zip(coeffs, basis))
                      for j in range(dec.ambient_dim))
        edges[i] = Edge(e.id, e.ends, e.kind, d, e.maps_to)
    return TropicalGraph(g.vertices, tuple(edges), g.split_order)


def test_vertex_positions_match_the_hyperplane_reference_on_mutated_directions():
    """Seeded graphs with directions changed inside their normal lattices:
    realizable ones, weakly realizable ones that no strict map realizes,
    and infeasible ones all get the frozen scan's answers."""
    rng = random.Random(19)
    pairs = [(dec, g) for dec, g in _fixture_pairs()
             if g.tropical_edges() and _positions(vertex_positions, dec, g)[0] != "error"]
    kinds = Counter()
    for _ in range(300):
        dec, g = rng.choice(pairs)
        m = _mutant(rng, dec, g)
        want = _positions(oracles.vertex_positions, dec, m)
        assert want[0] != "error", want
        assert _positions(vertex_positions, dec, m) == want
        kinds["realizable" if want[0] else "weakly" if want[1] else "empty"] += 1
    assert min(kinds["realizable"], kinds["weakly"], kinds["empty"]) >= 50, kinds


def test_monotone_under_edge_deletion(square_plain, square_split):
    """Removing a tropical edge never shrinks the position polyhedron."""
    cases = [
        (square_plain, "fig_rigid_gamma1"),
        (square_plain, "fig_rigid_gamma2"),
        (square_split, "fig_four_base"),
        (square_split, "fig_drop_three_base"),
    ]
    for dec, name in cases:
        g = graph(name)
        w_full = vertex_positions(dec, g)
        for e in g.tropical_edges():
            reduced = TropicalGraph(
                g.vertices, tuple(x for x in g.edges if x.id != e.id)
            )
            w_red = vertex_positions(dec, reduced)
            assert w_red.closed.contains_polyhedron(w_full.closed)


# -- collapses -------------------------------------------------------------------


def test_collapse_gamma2_to_gamma1(square_plain):
    rep = validate_collapse(
        square_plain,
        graph("fig_rigid_gamma2"),
        graph("fig_rigid_gamma1"),
        {"v1": "v", "v2": "v", "vA": "vA", "vB": "vB", "vC": "vC"},
    )
    assert rep.ok
    assert rep.collapsed_edges == ("e",)
    assert rep.edge_map == {"e1": "e1", "e2": "e2", "e3": "e3"}


def test_identity_collapse(square_plain):
    g = graph("fig_rigid_gamma1")
    rep = validate_collapse(square_plain, g, g, {v: v for v, _ in g.vertices})
    assert rep.ok and rep.collapsed_edges == ()


def test_collapse_rejects_changed_direction(square_plain):
    g1 = graph("fig_rigid_gamma1")
    d = fx.fig_rigid_gamma2()
    d["edges"][0]["direction"] = [2, 1]  # e1 direction changed
    g2bad = graph_from_dict(d)
    rep = validate_collapse(
        square_plain, g2bad, g1,
        {"v1": "v", "v2": "v", "vA": "vA", "vB": "vB", "vC": "vC"},
    )
    assert not rep.ok
    assert any("direction" in msg for msg in rep.diagnostics)


def test_collapse_rejects_nonsurjective(square_plain):
    g1 = graph("fig_rigid_gamma1")
    g2 = graph("fig_rigid_gamma2")
    rep = validate_collapse(
        square_plain, g2, g1,
        {"v1": "v", "v2": "v", "vA": "vA", "vB": "vB", "vC": "vA"},
    )
    assert not rep.ok


def test_collapse_names_edges_with_an_unknown_endpoint(square_plain):
    """An edge end that names no vertex of its graph, top or base, is a
    diagnostic, not a failed lookup in the vertex map."""
    top, base = fx.fig_rigid_gamma2(), fx.fig_rigid_gamma1()
    top["edges"][0]["ends"][0] = "zz"
    base["edges"][0]["ends"][1] = "yy"
    rep = match_collapse(
        square_plain, graph_from_dict(top), graph_from_dict(base),
        {"v1": "v", "v2": "v", "vA": "vA", "vB": "vB", "vC": "vC"},
    )
    assert not rep.ok
    assert "edge e1: unknown endpoint zz" in rep.diagnostics
    assert "base edge e1: unknown endpoint yy" in rep.diagnostics


def test_collapse_epsilon_scaling(square_plain):
    """A base witness plus a small multiple of a relative translation is a
    position map of the finer graph."""
    cases = []
    # the rigid-square pair
    cases.append(
        ("fig_rigid_gamma2", "fig_rigid_gamma1",
         {"v1": "v", "v2": "v", "vA": "vA", "vB": "vB", "vC": "vC"})
    )
    for top_name, base_name, vmap in cases:
        top = graph(top_name)
        base = graph(base_name)
        q = quasi(square_plain, top_name)
        from tropsplit.splitting import relative_position_cone

        w_base = vertex_positions(square_plain, base)
        t = relative_position_cone(q).relative_interior_point()
        n = square_plain.ambient_dim
        order_top = top.vertex_ids()
        order_base = w_base.vertex_order
        ok = False
        for k in range(1, 12):
            eps = F(1, 2 ** k)
            coords = []
            for i, v in enumerate(order_top):
                basepos = w_base.position(w_base.witness, vmap[v])
                shift = t[i * n : (i + 1) * n]
                coords.extend(b + eps * s for b, s in zip(basepos, shift))
            w_top = vertex_positions(square_plain, top)
            point = tuple(coords)
            if w_top.closed.contains(point) and all(
                sum(a * x for a, x in zip(row, point)) < b
                for row, b in w_top.strict_rows
            ):
                ok = True
                break
        assert ok


# -- split edges ------------------------------------------------------------------


def test_split_edges_fig_square(square_split):
    assert split_edges(square_split, graph("fig_square_base")) == ("e",)


def test_split_edges_empty(square_plain):
    assert split_edges(square_plain, graph("fig_rigid_gamma1")) == ()


def test_split_edges_four_ordered(square_split):
    g = graph("fig_four_base")
    assert split_edges(square_split, g) == ("e1", "e2", "e3", "e4")
    assert split_edges(square_split, g, order=("e2", "e1", "e3", "e4")) == (
        "e2", "e1", "e3", "e4",
    )


def test_split_edges_rejects_wrong_cover(square_split):
    """A full order that misses or repeats a derived split edge is
    rejected with the split-order rule's one message."""
    g = graph("fig_four_base")
    for order in (("e1", "e2"), ("e1", "e2", "e3", "e3"), ("e1", "e2", "e3", "e4", "e4")):
        msg = (f"split order {order} must name each edge, exactly once, of the derived "
               "split set ('e1', 'e2', 'e3', 'e4')")
        with pytest.raises(GraphError, match=f"^{re.escape(msg)}$"):
            split_edges(square_split, g, order=order)
