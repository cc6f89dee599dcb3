import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

import oracles
from conftest import graph, quasi
from oracles import matvec, vec
from tropsplit import fixtures as fx
from tropsplit import reports
from tropsplit.cones import Cone
from tropsplit.graphs import GraphError
from tropsplit.polyhedra import Polyhedron
from tropsplit.serialize import graph_from_dict
from tropsplit.splitting import (
    QuasiSplitGraph,
    SplitError,
    cone_condition,
    discrepancy,
    index_shift,
    is_rigid_split,
    is_split_graph,
    iterative_split_check,
    relative_position_cone,
)
from tropsplit.symmetry import component_splitting, symmetry_group


def block(v, order, vertex, n=2):
    i = list(order).index(vertex)
    return v[i * n : (i + 1) * n]


# -- cone of relative vertex positions ---------------------------------------------


def test_w_cone_square_top1(square_split):
    q = quasi(square_split, "fig_square_top1")
    w = relative_position_cone(q)
    order = q.vertex_order()
    assert w.dim() == 1 and len(w.rays) == 1 and not w.lineality
    ray = w.rays[0]
    assert block(ray, order, "up") == vec((2, 1))
    assert block(ray, order, "u0") == vec((0, 0))
    assert block(ray, order, "u2") == vec((0, 0))


def test_w_cone_square_top2(square_split):
    q = quasi(square_split, "fig_square_top2")
    w = relative_position_cone(q)
    order = q.vertex_order()
    assert w.dim() == 1 and len(w.rays) == 1
    assert block(w.rays[0], order, "um") == vec((0, -1))


def test_w_cone_identity_collapse_of_rigid_base(square_plain):
    g = graph("fig_rigid_gamma1")
    q = QuasiSplitGraph(square_plain, g, g, {v: v for v, _ in g.vertices})
    assert relative_position_cone(q).is_zero()


def test_w_cone_cube_top2(cube_split):
    q = quasi(cube_split, "fig_cube_top2")
    w = relative_position_cone(q)
    order = q.vertex_order()
    assert w.dim() == 2
    rays = {block(r, order, "up", 3) + block(r, order, "um", 3) for r in w.rays}
    assert rays == {
        vec((2, 1, 0)) + vec((0, 0, 0)),
        vec((0, 0, 0)) + vec((-1, -2, 0)),
    }


# -- discrepancy cones ---------------------------------------------------------------


def test_disc_square_top1(square_split):
    q = quasi(square_split, "fig_square_top1")
    d = discrepancy(q)
    assert d.disc.dim() == 1 and len(d.disc.rays) == 1 and not d.disc.lineality
    # the discrepancy ray is the projection of (2,1); the projection of
    # (1,-1) must lie on it (hand check: (2,1) and (1,-1) agree modulo (1,1))
    (bid, direction, proj) = d.blocks[0]
    assert d.disc.contains(matvec(proj, vec((1, -1))))
    assert not d.disc.contains(matvec(proj, vec((-1, 1))))


def test_disc_cube_dims(cube_split):
    q1 = quasi(cube_split, "fig_cube_top1")
    assert discrepancy(q1).disc.dim() == 1
    q2 = quasi(cube_split, "fig_cube_top2")
    assert discrepancy(q2).disc.dim() == 2


def test_disc_no_split_edges(square_plain):
    g = graph("fig_rigid_gamma1")
    q = QuasiSplitGraph(square_plain, g, g, {v: v for v, _ in g.vertices})
    d = discrepancy(q)
    assert d.disc.ambient_dim == 0 and d.disc.dim() == 0


def test_disc_full_spaces(square_split):
    assert discrepancy(quasi(square_split, "fig_drop_single_top")).disc.same_set(
        Cone.full(1)
    )
    assert discrepancy(quasi(square_split, "fig_drop_three_top")).disc.same_set(
        Cone.full(3)
    )


# -- cone condition --------------------------------------------------------------------


def test_cone_condition_square(square_split):
    q = quasi(square_split, "fig_square_top1")
    cc = cone_condition(q, (1, -1))
    assert cc.holds and cc.certified
    cc2 = cone_condition(q, (-1, 1))
    assert not cc2.holds
    with pytest.raises(SplitError):
        cone_condition(q, (0, 0))


@pytest.mark.parametrize("eta", [(True, 0), (1, False), (True, True)])
def test_cone_condition_rejects_bool_directions(square_split, eta):
    """A bool is no cone direction entry, though True == 1."""
    q = quasi(square_split, "fig_square_top1")
    with pytest.raises(ValueError):
        cone_condition(q, eta)


def test_cone_condition_cube_nongeneric(cube_split):
    q = quasi(cube_split, "fig_cube_top1")
    cc = cone_condition(q, (1, 1, 0))
    assert cc.holds and not cc.certified  # literal membership, no certificate
    assert cc.disc_dim == 1 and cc.expected_disc_dim == 2
    v = is_split_graph(q, (1, 1, 0))
    assert not v.accepted and not v.disc_dim_matches


def test_cone_condition_cube_generic(cube_split):
    q = quasi(cube_split, "fig_cube_top2")
    v = is_split_graph(q, (F(3, 4), 1, 0))
    assert v.accepted and v.disc_dim_matches and v.rigid
    # slope outside the admissible window (r > 2 leaves the cone)
    v2 = is_split_graph(q, (3, 1, 0))
    assert not v2.cone_condition.holds


def test_cone_condition_four_split(square_split):
    q = quasi(square_split, "fig_four_top")
    v = is_split_graph(q, (5, 1))
    assert v.accepted and v.cone_condition.disc_dim == 4 and v.rigid
    qp = quasi(square_split, "fig_four_top_prime")
    vp = is_split_graph(qp, (5, 1))
    assert not vp.accepted and vp.cone_condition.disc_dim == 2


def test_cone_condition_order_matters(square_split):
    top = fx.GRAPHS["fig_four_top"]()
    base = fx.GRAPHS["fig_four_base"]()
    q = QuasiSplitGraph(
        square_split, graph_from_dict(base), graph_from_dict(top),
        top["collapse"]["vertex_map"], split_order=("e3", "e1", "e2", "e4"),
    )
    assert not cone_condition(q, (5, 1)).holds


def test_flipped_split_edge_orientation(square_split):
    """Storing the split edge with reversed ends and negated direction
    changes nothing: blocks are oriented by the base edge."""
    top = fx.fig_square_top1()
    (e,) = [x for x in top["edges"] if x["id"] == "e"]
    e["ends"] = ["u2", "up"]
    e["direction"] = [1, 1]
    base = fx.fig_square_base()
    q = QuasiSplitGraph(
        square_split, graph_from_dict(base), graph_from_dict(top),
        top["collapse"]["vertex_map"],
    )
    ref = quasi(square_split, "fig_square_top1")
    assert relative_position_cone(q).same_set(relative_position_cone(ref))
    assert discrepancy(q).disc.same_set(discrepancy(ref).disc)
    assert cone_condition(q, (1, -1)).holds
    assert not cone_condition(q, (-1, 1)).holds


def test_split_edge_direction_may_be_omitted(square_split):
    """Split edges inherit the base direction when the top file omits it."""
    top = fx.fig_square_top1()
    (e,) = [x for x in top["edges"] if x["id"] == "e"]
    del e["direction"]
    base = fx.fig_square_base()
    q = QuasiSplitGraph(
        square_split, graph_from_dict(base), graph_from_dict(top),
        top["collapse"]["vertex_map"],
    )
    assert cone_condition(q, (1, -1)).holds


def test_analyses_run_once_per_graph(cube_split, monkeypatch):
    """One graph computes its cones and genericity family once, however
    many cone directions its reports test, and the wire forms of w, Disc
    and each distinct scalings cone are built once: later reports read
    them back.  A warm report's genericity certificate runs no
    elimination."""
    from tropsplit import exact, reports, serialize, splitting

    calls = Counter()

    def count(module, name, key):
        original = getattr(module, name)

        def counted(*args, _original=original):
            calls[key] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)

    built = []

    def wire_form(cone, _original=serialize._wire_form):
        built.append(cone)
        return _original(cone)

    monkeypatch.setattr(serialize, "_wire_form", wire_form)
    for name in ("relative_position_cone", "discrepancy", "_genericity_family"):
        count(splitting, name, name)
    q = quasi(cube_split, "fig_cube_top2")
    reports.split_report(q, (1, 1, 1), {})
    count(exact, "_rref_int", "_rref_int")
    etas = ((F(3, 4), 1, 0), (3, 1, 0), (1, F(5, 4), 0), (F(3, 4), 1, 0), (1, 1, 1))
    for eta in etas:
        reports.split_report(q, eta, {})
    assert calls == {"relative_position_cone": 1, "discrepancy": 1, "_genericity_family": 1}
    want = [q.w, q.disc.disc]
    for eta in ((1, 1, 1), *etas):
        D = cone_condition(q, eta).D
        if not any(D is c for c in want):
            want.append(D)
    assert len(want) > 3  # the directions meet several scalings cones
    assert len(built) == len(want)
    assert all(a is b for a, b in zip(built, want))


def test_reports_share_no_mutable_data(square_split):
    """A caller that edits one report changes no later report, nor the
    cached wire form of a cone that a later report shares."""
    from tropsplit.serialize import canonical_json

    q = quasi(square_split, "fig_square_top1")
    report = reports.split_report(q, (1, -1), {})
    want, want_D = canonical_json(report), canonical_json(report["scalings_cone"])
    first = reports.split_report(q, (1, -1), {})
    first["w_cone"]["rays"].append(["9", "9"])
    first["w_cone"]["rays"][0][0] = "7"
    first["w_cone"]["dim"] = -1
    first["disc_cone"]["ineqs"].clear()
    first["projected_eta"][0].append("5")
    first["scalings_cone"]["rays"].append(["9"])
    first["scalings_cone"]["rays"][0][0] = "7"
    first["scalings_cone"]["ineqs"].clear()
    first["scalings_cone"]["dim"] = -1
    # (2, -2) pulls back to the same rows as (1, -1), so its report reads
    # the same scalings cone
    assert cone_condition(q, (2, -2)).D is cone_condition(q, (1, -1)).D
    assert canonical_json(reports.split_report(q, (1, -1), {})) == want
    later = reports.split_report(q, (2, -2), {})
    assert canonical_json(later["scalings_cone"]) == want_D


def _eta_sweep_graphs():
    """The eight quasi-split graphs of the eta-sweep benchmark, each with
    the inputs its corpus report digests."""
    from tropsplit.cli import corpus_cases
    from tropsplit.serialize import decomposition_from_dict

    names = (
        "fig_square_top1", "fig_square_top2", "fig_cube_top1", "fig_cube_top2",
        "fig_drop_single_top", "fig_drop_three_top", "fig_four_top", "fig_four_top_prime",
    )
    dec_of = {c["graph"]: c["dec"] for c in corpus_cases() if c["kind"] == "split"}
    out = []
    for name in names:
        dec_dict = fx.DECOMPOSITIONS[dec_of[name]]()
        top_dict = fx.GRAPHS[name]()
        base_dict = fx.GRAPHS[top_dict["collapse"]["to_graph"]]()
        q = QuasiSplitGraph(
            decomposition_from_dict(dec_dict), graph_from_dict(base_dict),
            graph_from_dict(top_dict), top_dict["collapse"]["vertex_map"],
        )
        out.append((q, {"dec": dec_dict, "top": top_dict, "base": base_dict}))
    return out


def test_cached_split_report_matches_per_direction_reference():
    """Verdicts and report bytes of the per-graph caches equal those of the
    frozen cone condition that redoes every step for each direction, on the
    eight eta-sweep graphs and 40 seeded directions each: some with zero
    coordinates and some inside a genericity subspace."""
    from tropsplit.serialize import canonical_json

    rng = random.Random(8)
    seen = Counter()
    for q, inputs in _eta_sweep_graphs():
        fam, _ = q.genericity_family
        etas = []
        while len(etas) < 40:
            if len(etas) % 4 == 0:  # a direction inside a genericity subspace
                basis = rng.choice(fam).basis
                eta = [0] * q.n
                for b in basis:
                    c = F(rng.randint(-3, 3), rng.randint(1, 3))
                    eta = [x + c * y for x, y in zip(eta, b)]
            else:
                eta = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(q.n)]
            if any(eta):
                etas.append(tuple(eta))
        for eta in etas:
            got, want = cone_condition(q, eta), oracles.cone_condition(q, eta)
            for field in ("holds", "certified", "certificate", "disc_dim",
                          "expected_disc_dim", "projected_eta"):
                assert getattr(got, field) == getattr(want, field), (q.top, eta, field)
            assert (got.D.ambient_dim, got.D.rays, got.D.lineality, got.D.ineqs,
                    got.D.eqs) == (want.D.ambient_dim, want.D.rays, want.D.lineality,
                                   want.D.ineqs, want.D.eqs)
            assert canonical_json(reports.split_report(q, eta, inputs)) == canonical_json(
                oracles.split_report(q, eta, inputs))
            seen["holds" if got.holds else "fails"] += 1
            seen["certified" if got.certified else "not certified"] += 1
            seen["zero coordinate"] += 0 in eta
    for key in ("holds", "fails", "certified", "not certified", "zero coordinate"):
        assert seen[key], seen


def _cube_two_split_edges(cube_split, order):
    """Two parallel split edges from Ommm to Oppp, split as in
    ``fig_cube_top1`` (e1) and ``fig_cube_top2`` (e2).  In R^2 every slice
    of Disc at an edge is that edge's direction span or the whole space;
    here span(Disc) slices differently at e1 and e2."""
    def edge(eid, ends, direction, maps_to=None):
        return {"id": eid, "ends": ends, "kind": "tropical", "direction": direction,
                **({"maps_to": maps_to} if maps_to else {})}

    diag = [-1, -1, -1]
    base = {
        "vertices": [{"id": "v0", "polytope": "Ommm"}, {"id": "v1", "polytope": "Oppp"}],
        "edges": [edge("e1", ["v0", "v1"], diag), edge("e2", ["v0", "v1"], diag)],
    }
    cells = {"u0": "Ommm", "u1": "Oppp", "um1": "Hzp", "up2": "Hzm", "um2": "Hzp"}
    top = {
        "vertices": [{"id": v, "polytope": p} for v, p in cells.items()],
        "edges": [
            edge("e1", ["u0", "um1"], diag, "e1"), edge("et1", ["u1", "um1"], [1, 1, 0]),
            edge("etp2", ["up2", "u0"], [2, 1, 0]), edge("e2", ["up2", "um2"], diag, "e2"),
            edge("etm2", ["u1", "um2"], [1, 2, 0]),
        ],
    }
    vertex_map = {"u0": "v0", "u1": "v1", "um1": "v1", "up2": "v0", "um2": "v1"}
    return QuasiSplitGraph(cube_split, graph_from_dict(base), graph_from_dict(top),
                           vertex_map, split_order=order)


def test_genericity_family_matches_the_frozen_slicing(square_plain, square_split, cube_split):
    """The family read off the pull table equals the frozen one that sliced
    the rows of Disc's minimal form again: the same bases, annihilators and
    labels in the same order.  Checked on the eight split graphs, a graph
    with no split edge, the partial orders of the one-edge-at-a-time check,
    and two split edges in R^3 in both orders, where a slice taken at the
    wrong edge shows."""
    g = graph("fig_rigid_gamma2")
    qs = [q for q, _ in _eta_sweep_graphs()]
    qs.append(QuasiSplitGraph(square_plain, g, g, {v: v for v, _ in g.vertices}))
    qs += _intermediates(square_split, "fig_four_base", fx.fig_four_intermediate)
    qs += [_cube_two_split_edges(cube_split, order) for order in (("e1", "e2"), ("e2", "e1"))]
    kinds = Counter()
    for q in qs:
        fam, labels = q.genericity_family
        assert (fam, labels) == oracles.genericity_family(q), q.top
        kinds.update(label.split()[0] for label in labels)
    assert set(kinds) == {"direction", "span(Disc)", "facet"}, kinds


def test_no_split_edge_takes_the_one_cone_condition_path(square_plain):
    """With no split edge the pull table and the family are empty, and the
    scalings cone is the zero cone of R^0, which is increasing.  The verdict
    holds, is certified, and keeps eta's common denominator (once always
    1)."""
    g = graph("fig_rigid_gamma2")
    q = QuasiSplitGraph(square_plain, g, g, {v: v for v, _ in g.vertices})
    cc = cone_condition(q, (F(1, 2), 1))
    assert cc.holds and cc.certified
    assert (cc.D.ambient_dim, cc.D.dim(), cc.projected_eta, cc.den) == (0, 0, (), 2)


WARM_CASES = (
    ("square", "fig_square_top1", (1, -1)),
    ("square", "fig_square_top1", (-1, 1)),
    ("square", "fig_four_top", (5, 1)),
    ("square", "fig_four_top_prime", (5, 1)),
    ("cube", "fig_cube_top1", (1, 1, 0)),
    ("cube", "fig_cube_top2", (F(3, 4), 1, 0)),
    ("cube", "fig_cube_top2", (3, 1, 0)),
)


def _count_h_to_v(monkeypatch) -> Counter:
    from tropsplit import cones

    calls = Counter()
    original = cones._h_to_v

    def counted(*args):
        calls["dd"] += 1
        return original(*args)

    monkeypatch.setattr(cones, "_h_to_v", counted)
    return calls


def _warm(square_split, cube_split, run=cone_condition) -> list:
    """The warm cases' graphs, each with its cached cones built by one
    ``run`` in another direction."""
    decs = {"square": square_split, "cube": cube_split}
    warm = []
    for dec, name, eta in WARM_CASES:
        q = quasi(decs[dec], name)
        run(q, (1,) * q.n)
        warm.append((q, eta))
    return warm


def test_warm_cone_condition_runs_no_conversion(square_split, cube_split, monkeypatch):
    """Once a graph's cones are cached, a cone direction runs no conversion:
    D is cut from the orthant's known rays, the increasing test reads D's
    ray supports, the genericity test runs no conversion, and D's minimal
    H-representation is read off the cut's zero-sets."""
    warm = _warm(square_split, cube_split)
    calls = _count_h_to_v(monkeypatch)
    for q, eta in warm:
        calls.clear()
        D = cone_condition(q, eta).D
        D.ineqs, D.eqs
        assert calls["dd"] == 0, q.top


def test_warm_split_report_runs_no_conversion(square_split, cube_split, monkeypatch):
    """A warm split report serializes D, both sides of its minimal form,
    and runs no conversion."""
    warm = _warm(square_split, cube_split, lambda q, eta: reports.split_report(q, eta, {}))
    calls = _count_h_to_v(monkeypatch)
    for q, eta in warm:
        calls.clear()
        reports.split_report(q, eta, {})
        assert calls["dd"] == 0, q.top


def test_warm_cone_condition_runs_pinned_dd_steps(square_split, cube_split, monkeypatch):
    """A warm cone direction takes one ``_dd_step`` per distinct nonzero
    pulled-back inequality of Disc and two per nonzero pulled-back
    equality, from the orthant; a pulled row equal to a unit row, or to an
    earlier row, takes no step: 0, 1, 2, 4, 0, 0 and 1 steps on the warm
    cases (8 in all, 13 when every row steps).  A conversion from the full
    space would add a step per orthant row."""
    from tropsplit import cones

    warm = _warm(square_split, cube_split)
    calls = Counter()
    original = cones._dd_step

    def counted(*args):
        calls["step"] += 1
        return original(*args)

    monkeypatch.setattr(cones, "_dd_step", counted)
    steps = []
    for q, eta in warm:
        calls.clear()
        cone_condition(q, eta)
        steps.append(calls["step"])
    assert steps == [0, 1, 2, 4, 0, 0, 1]


def _sweep_etas(seed: int) -> list:
    """The eta-sweep benchmark's 40 seeded nonzero directions in Q^3, made
    the way it makes them; a graph in dimension n takes the first n
    coordinates, so the first two are never both zero."""
    rng = random.Random(f"eta:{seed}")
    out = []
    while len(out) < 40:
        eta = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        if eta[0] or eta[1]:
            out.append(eta)
    return out


def _count_calls(monkeypatch, calls: Counter, name: str, original):
    """Count the calls of ``original`` under ``name`` in every tropsplit
    module that binds it."""
    import sys

    def counted(*args):
        calls[name] += 1
        return original(*args)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "tropsplit" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


def _count_fractions(monkeypatch, calls: Counter):
    """Count the ``Fraction``s built by name in every tropsplit module that
    binds ``Fraction``.  The stand-in class builds real ``Fraction``s, and
    an instance check against it is one against ``Fraction``."""
    import sys

    class Counting(type(F)):
        def __instancecheck__(cls, obj):
            return isinstance(obj, F)

        def __call__(cls, *args, **kwargs):
            calls["Fraction"] += 1
            return F(*args, **kwargs)

    class CountedFraction(F, metaclass=Counting):
        pass

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "tropsplit" and getattr(module, "Fraction", None) is F:
            monkeypatch.setattr(module, "Fraction", CountedFraction)


def test_warm_eta_sweep_pass_runs_pinned_work(monkeypatch):
    """One pass of the eta-sweep benchmark at seed 0, over the eight graphs
    each warmed by one report, gives its report digest with no conversion
    and no ``Fraction`` (pi(eta) is formatted from pi(num) and the common
    denominator).  Each graph cuts the scalings cone of each distinct set of
    primitive pulled-back rows once and keeps it with its verdict: the 40
    directions meet 30 such sets on the eight graphs, 26 of them new, which
    take 39 double description steps (one per distinct nonzero pulled row
    of Disc, two per equality, from the orthant, none for a row equal to
    a unit row or an earlier row; 56 when every row steps) and 15
    ``_rref_int`` calls (D's implicit rows, read off its zero-sets once).
    A cut per report (once 508 steps and 152 calls a pass) or a
    ``Fraction`` per projected entry (once 720 a pass) changes the count.
    The memo key, pi(num) and the genericity certificate are read off one
    pass over the row table, so ``orthant_rows`` runs only inside the 26
    new cuts (once 346 a pass) and ``is_generic_wrt`` never (once 320);
    each report marshals its inputs mapping once (once three times)."""
    import hashlib
    import marshal
    from types import SimpleNamespace

    from tropsplit import cones, exact
    from tropsplit.serialize import canonical_json

    graphs = _eta_sweep_graphs()
    for q, inputs in graphs:
        reports.split_report(q, (1,) * q.n, inputs)
    calls = Counter()
    for module, name in ((cones, "_h_to_v"), (cones, "_dd_step"), (exact, "_rref_int"),
                         (cones, "orthant_rows"), (exact, "is_generic_wrt")):
        _count_calls(monkeypatch, calls, name, getattr(module, name))
    _count_fractions(monkeypatch, calls)

    def dumps(value):
        calls["marshal.dumps"] += 1
        return marshal.dumps(value)

    monkeypatch.setattr(reports, "marshal", SimpleNamespace(dumps=dumps, loads=marshal.loads))
    digest = hashlib.sha256()
    for eta in _sweep_etas(0):
        digest.update("".join(
            canonical_json(reports.split_report(q, eta[:q.n], inputs)) for q, inputs in graphs
        ).encode())
    assert digest.hexdigest() == (
        "0e440166856ded0124592256d7e30ba8482f1e84350d80334465260b913b48fb")
    assert calls == Counter({"_dd_step": 39, "_rref_int": 15, "orthant_rows": 26,
                             "is_generic_wrt": 0, "marshal.dumps": 320})


def _step_by_step_route(q, eta):
    """The cone-condition verdict pieces as separate steps give them: the
    memo key from ``orthant_rows`` of the rows pulled back with num, D and
    its increasing test from a fresh ``orthant_cut``, the certificate from
    ``is_generic_wrt`` on the genericity family, and pi(num) with den."""
    from math import lcm

    from tropsplit.cones import is_increasing, orthant_cut, orthant_rows
    from tropsplit.exact import is_generic_wrt

    eta = tuple(map(F, eta))
    den = lcm(*(x.denominator for x in eta))
    num = tuple(int(x * den) for x in eta)

    def pull(row):
        return [sum(c * x for c, x in zip(col, num)) for col in row]

    ineqs, eqs = q.pull_table
    key = orthant_rows(q.num_split, map(pull, ineqs), map(pull, eqs))
    D = orthant_cut(q.num_split, *key)
    projected = tuple(tuple(sum(a * x for a, x in zip(prow, num)) for prow in proj)
                      for _, _, proj in q.disc.blocks)
    return key, D, is_increasing(D), is_generic_wrt(num, *q.genericity_family), projected, den


def _awkward_etas(n: int, rng) -> list:
    """Directions with a zero coordinate, a common factor and denominators
    up to 12, in dimension n."""
    etas = [(4, -6), (-6, 4), (0, 1), (1, 0), (0, -3), (12, 0), (F(5, 12), F(-7, 6)),
            (F(1, 12), F(1, 11)), (F(-4, 6), F(8, 12))]
    etas = [(*eta, 0)[:n] for eta in etas]
    if n == 3:
        etas += [(0, 0, 1), (0, 0, F(-5, 12)), (4, -6, 8), (F(3, 4), 0, F(-9, 12))]
    while len(etas) < 40:
        eta = tuple(F(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(n))
        if any(eta):
            etas.append(eta)
    return etas


def test_one_pass_verdict_matches_the_step_by_step_route(square_plain, square_split,
                                                         cube_split):
    """The verdict read off one pass over the row table equals the route
    that runs ``orthant_rows``, ``orthant_cut`` and ``is_generic_wrt``:
    its memo key finds the verdict's D and test, D has the fresh cut's
    both sides, and the certificate, pi(num) and den agree.  Checked on
    the eight eta-sweep graphs at seeds 1-5 and on awkward directions, a
    graph with no split edge, the partial orders of the one-edge-at-a-time
    check, and two split edges in R^3 in both orders."""
    rng = random.Random(25)
    g = graph("fig_rigid_gamma2")
    cases = [(q, [eta[:q.n] for seed in range(1, 6) for eta in _sweep_etas(seed)])
             for q, _ in _eta_sweep_graphs()]
    qs = [q for q, _ in cases]
    qs.append(QuasiSplitGraph(square_plain, g, g, {v: v for v, _ in g.vertices}))
    qs += _intermediates(square_split, "fig_four_base", fx.fig_four_intermediate)
    qs += [_cube_two_split_edges(cube_split, order) for order in (("e1", "e2"), ("e2", "e1"))]
    cases += [(q, _awkward_etas(q.n, rng)) for q in qs]
    seen = Counter()
    for q, etas in cases:
        for eta in etas:
            got = cone_condition(q, eta)
            key, D, holds, cert, projected, den = _step_by_step_route(q, eta)
            assert q.scalings_cones[key] == (got.D, got.holds), (q.top, eta)
            assert (got.D.ambient_dim, got.D.rays, got.D.lineality, got.D.ineqs,
                    got.D.eqs) == (D.ambient_dim, D.rays, D.lineality, D.ineqs, D.eqs)
            assert (got.holds, got.certified, got.certificate) == (holds, cert.generic, cert)
            assert (got.projected_num, got.den) == (projected, den), (q.top, eta)
            seen["s = 0"] += not q.num_split
            seen["holds" if holds else "fails"] += 1
            seen["certified" if cert.generic else "not certified"] += 1
            seen["zero coordinate"] += 0 in eta
            seen["den > 4"] += den > 4
    for key in ("holds", "fails", "certified", "not certified", "zero coordinate", "den > 4",
                "s = 0"):
        assert seen[key], seen


def test_scalings_memo_matches_a_fresh_cut():
    """For 40 seeded directions from each of seeds 1-5 on the eight
    eta-sweep graphs, the memoized scalings cone and verdict equal a fresh
    orthant cut of the pulled-back rows (pulled with eta's ``Fraction``s)
    and its increasing test, and each report's bytes equal those of a twin
    graph whose memo is emptied before every report, so that it cuts D
    again each time.  Both hits and misses occur."""
    from tropsplit.cones import is_increasing, orthant_cut
    from tropsplit.serialize import canonical_json

    seen = Counter()
    for (q, inputs), (twin, _) in zip(_eta_sweep_graphs(), _eta_sweep_graphs()):
        ineqs, eqs = q.pull_table
        for seed in range(1, 6):
            for eta in _sweep_etas(seed):
                eta = eta[:q.n]

                def pull(row, eta=eta):
                    return [sum(c * x for c, x in zip(col, eta)) for col in row]

                size = len(q.scalings_cones)
                got = cone_condition(q, eta)
                seen["miss" if len(q.scalings_cones) > size else "hit"] += 1
                D = orthant_cut(q.num_split, map(pull, ineqs), map(pull, eqs))
                assert (got.D.ambient_dim, got.D.rays, got.D.lineality, got.D.ineqs,
                        got.D.eqs, got.holds) == (D.ambient_dim, D.rays, D.lineality,
                                                  D.ineqs, D.eqs, is_increasing(D))
                twin.scalings_cones.clear()
                assert canonical_json(reports.split_report(q, eta, inputs)) == (
                    canonical_json(reports.split_report(twin, eta, inputs))), (q.top, eta)
    assert seen["hit"] > seen["miss"] > 0, seen


def test_scalings_memo_is_bounded_and_per_graph(cube_split, monkeypatch):
    """More distinct pulled-row sets than the bound leave a graph's memo at
    its bound, holding the newest; a second graph built from the same
    inputs shares no entry and cuts its own cones."""
    from tropsplit import splitting

    monkeypatch.setattr(splitting, "SCALINGS_MEMO_SIZE", 3)
    q, other = quasi(cube_split, "fig_cube_top1"), quasi(cube_split, "fig_cube_top1")
    inserted = []
    for eta in _sweep_etas(0):
        before = list(q.scalings_cones)
        cone_condition(q, eta)
        after = list(q.scalings_cones)
        assert len(after) <= 3
        if after != before:  # a miss adds its key last
            inserted.append(after[-1])
    assert len(set(inserted)) > 3  # more distinct sets than the bound
    assert list(q.scalings_cones) == inserted[-3:]
    assert not other.scalings_cones
    eta = _sweep_etas(0)[-1]
    assert cone_condition(other, eta).D is not cone_condition(q, eta).D
    assert cone_condition(q, eta).D is cone_condition(q, eta).D
    assert len(other.scalings_cones) == 1


def test_cone_condition_ignores_the_scale_of_eta(square_split, cube_split):
    decs = {"square": square_split, "cube": cube_split}
    verdicts = set()
    for dec, name, eta in WARM_CASES:
        q = quasi(decs[dec], name)
        a = cone_condition(q, eta)
        b = cone_condition(q, tuple(F(3, 2) * x for x in eta))
        assert (b.D.rays, b.D.lineality, b.D.ineqs, b.D.eqs) == (
            a.D.rays, a.D.lineality, a.D.ineqs, a.D.eqs)
        assert (b.holds, b.certified) == (a.holds, a.certified)
        assert b.projected_eta == tuple(
            tuple(F(3, 2) * x for x in p) for p in a.projected_eta)
        verdicts.add((a.holds, a.certified))
    assert verdicts == {(True, True), (True, False), (False, True)}


def test_split_edge_direction_must_match_base(square_split):
    top = fx.fig_square_top1()
    (e,) = [x for x in top["edges"] if x["id"] == "e"]
    e["direction"] = [-2, -2]
    with pytest.raises(SplitError, match="edge e: direction changes under the collapse"):
        QuasiSplitGraph(
            square_split, graph_from_dict(fx.fig_square_base()), graph_from_dict(top),
            top["collapse"]["vertex_map"],
        )


# -- rigidity and index bookkeeping ------------------------------------------------------


def test_rigid_split_fixtures(square_split, cube_split):
    assert is_rigid_split(quasi(square_split, "fig_square_top1"))
    assert is_rigid_split(quasi(square_split, "fig_square_top2"))
    assert is_rigid_split(quasi(cube_split, "fig_cube_top2"))
    assert not is_rigid_split(quasi(cube_split, "fig_cube_top1"))
    assert is_rigid_split(quasi(square_split, "fig_four_top"))
    assert not is_rigid_split(quasi(square_split, "fig_four_top_prime"))


def test_non_rigid_base_is_not_rigid_split(square_plain):
    g2 = graph("fig_rigid_gamma2")
    q = QuasiSplitGraph(square_plain, g2, g2, {v: v for v, _ in g2.vertices})
    assert not is_rigid_split(q)


def test_index_shift(square_split):
    q1 = quasi(square_split, "fig_square_top1")  # one split edge, dim t = 2
    assert index_shift(q1, 0) == (2, 0)
    q4 = quasi(square_split, "fig_four_top")  # four split edges
    assert index_shift(q4, 0) == (8, 0)


@pytest.mark.parametrize("i_br", [2.7, True])
def test_index_shift_rejects_a_non_integer_broken_index(square_split, i_br):
    """A float or bool broken index raises, in index_shift and in the split
    report, instead of being rounded."""
    q = quasi(square_split, "fig_square_top1")
    with pytest.raises(ValueError):
        index_shift(q, i_br)
    with pytest.raises(ValueError):
        reports.split_report(q, (2, 1), {}, i_br=i_br)


def test_index_shift_takes_an_exact_integer(square_split):
    q = quasi(square_split, "fig_square_top1")
    assert index_shift(q, F(3)) == index_shift(q, "3") == (5, 3)
    report = reports.split_report(q, (2, 1), {}, i_br=F(3))
    assert report["index_shift"] == {"i_br": 3, "i_split": 5, "i_red": 3}


def test_index_shift_no_split(square_plain):
    g = graph("fig_rigid_gamma1")
    q = QuasiSplitGraph(square_plain, g, g, {v: v for v, _ in g.vertices})
    assert index_shift(q, 1) == (1, 1)


# -- single-split-edge equivalence --------------------------------------------------------


def test_single_edge_membership_equivalence(square_split, cube_split):
    """For one split edge and a certified direction, the cone condition is
    exactly membership of the projected direction, and membership then
    forces a full-dimensional discrepancy cone."""
    cases = [
        (square_split, "fig_square_top1", [(1, -1), (-1, 1), (3, -2), (-2, 5)]),
        (square_split, "fig_square_top2", [(1, -1), (-1, 1), (2, -3)]),
        (cube_split, "fig_cube_top2", [(F(3, 4), 1, 0), (3, 1, 0), (1, F(5, 4), 0)]),
    ]
    for dec, name, etas in cases:
        q = quasi(dec, name)
        d = discrepancy(q)
        (_, _, proj) = d.blocks[0]
        for eta in etas:
            cc = cone_condition(q, eta)
            if not cc.certified:
                continue
            member = d.disc.contains(matvec(proj, vec(eta)))
            assert cc.holds == member
            if member:
                assert d.disc.dim() == q.n - 1


# -- iterative one-edge-at-a-time ----------------------------------------------------------


def _intermediates(square_split, base_name, builder):
    base = graph_from_dict(fx.GRAPHS[base_name]())
    out = []
    for k in (1, 2, 3, 4):
        d = builder(k)
        out.append(
            QuasiSplitGraph(
                square_split, base, graph_from_dict(d),
                d["collapse"]["vertex_map"],
                split_order=d.get("partial_split", ["e1", "e2", "e3", "e4"][:k]),
                partial=True,
            )
        )
    return out


def test_iterative_agrees_accepted(square_split):
    qs = _intermediates(square_split, "fig_four_base", fx.fig_four_intermediate)
    rep = iterative_split_check(qs, (5, 1))
    assert rep["agrees"] and rep["all_steps_accept"] and rep["direct"]


def test_iterative_agrees_rejected(square_split):
    top = fx.fig_four_top_prime()
    base = graph_from_dict(fx.GRAPHS["fig_four_base"]())

    def builder(k):
        d = dict(top)
        d["partial_split"] = ["e1", "e2", "e3", "e4"][:k]
        return d

    qs = _intermediates(square_split, "fig_four_base", builder)
    rep = iterative_split_check(qs, (5, 1))
    assert rep["agrees"] and not rep["direct"]


# -- randomized acceptance family (dimension theorem etc.) ----------------------------------


def _random_one_edge_family(square_split, rng):
    """Quasi-split graph on the square with one split edge whose new vertex
    leaves the inner corner along a random direction of the positive
    quadrant."""
    # both entries positive: the new vertex must stay in the open square
    a = rng.randint(1, 4)
    b = rng.randint(1, 4)
    top = fx.fig_square_top1()
    top["edges"][0]["direction"] = [a, b]
    base = fx.fig_square_base()
    return (
        QuasiSplitGraph(
            square_split,
            graph_from_dict(base),
            graph_from_dict(top),
            top["collapse"]["vertex_map"],
        ),
        (a, b),
    )


ETA_POOL = [(1, -1), (-1, 1), (2, -1), (-1, 3), (5, -2), (-3, 2), (1, -4)]


def test_randomized_dimension_theorem(square_split):
    """>= 50 random accepted split graphs: the discrepancy-cone dimension
    equals |split edges| (dim t - 1); acceptance itself matches the
    hand-computed sign oracle; unframed symmetry dimension obeys the lower
    bound with equality in the rigid case; component dimensions add up."""
    rng = random.Random(77)
    accepted = 0
    rejected = 0
    while accepted < 55:
        q, (a, b) = _random_one_edge_family(square_split, rng)
        eta = ETA_POOL[rng.randrange(len(ETA_POOL))]
        verdict = is_split_graph(q, eta)
        # independent oracle: the projections of eta and of the relative
        # ray (a,b) to the quotient by (1,1) live on the same side of the
        # functional <., (1,-1)>; non-generic cases are exactly a = b
        side_dir = a - b
        side_eta = eta[0] - eta[1]
        if side_dir == 0:
            expect_accept = False  # discrepancy cone is the origin
        else:
            expect_accept = (side_dir > 0) == (side_eta > 0)
        assert verdict.accepted == expect_accept
        if verdict.accepted:
            accepted += 1
            assert verdict.cone_condition.disc_dim == q.num_split * (q.n - 1)
            assert verdict.rigid
            group = symmetry_group(
                square_split, q.top, framed=False, split_edge_ids=q.top_split_ids
            )
            bound = q.num_split * (q.n - 1)
            assert group.complex_dimension >= bound
            assert group.complex_dimension == bound  # rigid case: equality
            comps = component_splitting(
                square_split, q.top, split_edge_ids=q.top_split_ids
            )
            assert sum(c.complex_dimension for c in comps) == group.complex_dimension
        else:
            rejected += 1
    assert rejected > 0


def test_fixture_dimension_theorem(square_split, cube_split):
    """Prop.-style dimension equality on every accepted bundled fixture."""
    cases = [
        (square_split, "fig_square_top1", (1, -1)),
        (square_split, "fig_square_top2", (-1, 1)),
        (cube_split, "fig_cube_top2", (F(3, 4), 1, 0)),
        (square_split, "fig_drop_single_top", (1, -3)),
        (square_split, "fig_drop_three_top", (1, -3)),
        (square_split, "fig_four_top", (5, 1)),
    ]
    for dec, name, eta in cases:
        q = quasi(dec, name)
        v = is_split_graph(q, eta)
        assert v.accepted
        assert v.cone_condition.disc_dim == q.num_split * (q.n - 1)
        w = relative_position_cone(q)
        assert w.dim() >= discrepancy(q).disc.dim()


def test_w_generators_embed_in_symmetry_kernel(square_split, cube_split):
    """Every generator of w maps to an exponent vector of the unframed
    symmetry group (relative translations generate symmetries)."""
    from oracles import mat, transpose
    from tropsplit.exact import solve, vdot

    for dec, name in [
        (square_split, "fig_square_top1"),
        (square_split, "fig_four_top"),
        (cube_split, "fig_cube_top2"),
    ]:
        q = quasi(dec, name)
        w = relative_position_cone(q)
        group = symmetry_group(dec, q.top, framed=False, split_edge_ids=q.top_split_ids)
        order = q.vertex_order()
        n = q.n
        for ray in w.rays:
            coords = []
            consistent = True
            for var in group.variables:
                if var[0] == "g":
                    _, vid, k = var
                    lattice = dec.normal_space(q.top.label[vid])
                    i = order.index(vid)
                    blockv = ray[i * n : (i + 1) * n]
                    sol = solve(transpose(mat(lattice.basis)), blockv)
                    if sol is None:
                        consistent = False
                        break
                    coords.append(sol[k])
                else:
                    _, eid = var
                    e = q.top.edge(eid)
                    ia, ib = order.index(e.ends[0]), order.index(e.ends[1])
                    delta = tuple(
                        x - y
                        for x, y in zip(ray[ia * n : (ia + 1) * n], ray[ib * n : (ib + 1) * n])
                    )
                    d = vec(e.direction)
                    zeta = vdot(delta, d) / vdot(d, d)
                    coords.append(zeta)
            assert consistent
            # the coordinate vector solves the relation system
            for row in group.relations:
                assert vdot(vec(row), vec(coords)) == 0


def test_quasi_split_construction_checks_every_witness(square_split, monkeypatch):
    """Realizability read off the zero-sets still comes with an integer
    witness, checked for the component polyhedra too: a relative interior
    point that is a vertex of the closed polyhedron lies on a strict row,
    and construction raises.  The base here is a point, whose one vertex
    is a true witness, so the raise comes from a component."""
    q = quasi(square_split, "fig_square_top1")
    assert q.base_positions.witness is not None and q.base_positions.dim == 0
    monkeypatch.setattr(Polyhedron, "relative_interior_point", lambda self: self.vertices[0])
    with pytest.raises(RuntimeError, match="relative interior point violates a strict row"):
        quasi(square_split, "fig_square_top1")


@pytest.mark.parametrize("direction, message", [
    ([-2, -1], "component containing u0 is not realizable"),
    ([2, 1], None),
])
def test_quasi_split_construction_checks_each_component(square_split, direction, message):
    """The new edge of ``fig_square_top1`` turned around points its new
    vertex out of the open square: the top graph validates, the base is
    realizable, and the component {u0, up} is not."""
    top = fx.fig_square_top1()
    top["edges"][0]["direction"] = direction
    args = (square_split, graph("fig_square_base"), graph_from_dict(top),
            top["collapse"]["vertex_map"])
    if message is None:
        assert len(QuasiSplitGraph(*args).components) == 2
        return
    with pytest.raises(SplitError, match=f"^{message}$"):
        QuasiSplitGraph(*args)


def _first_intermediate(square_split, order):
    d = fx.fig_four_intermediate(1)
    return QuasiSplitGraph(square_split, graph("fig_four_base"), graph_from_dict(d),
                           d["collapse"]["vertex_map"], split_order=order, partial=True)


def test_partial_split_order_names_distinct_derived_edges(square_split):
    """A partial order that repeats an edge is rejected.  ``("e1", "e1")``
    was once accepted as two split edges, with expected Disc dimension 2
    and a cone condition at (5, 1) that failed where ``("e1",)`` holds."""
    cc = cone_condition(_first_intermediate(square_split, ("e1",)), (5, 1))
    assert cc.holds and cc.expected_disc_dim == 1
    for order in (("e1", "e1"), ("e1", "e9")):
        msg = (f"split order {order} must name distinct edges of the derived split set "
               "('e1', 'e2', 'e3', 'e4')")
        with pytest.raises(GraphError, match=f"^{re.escape(msg)}$"):
            _first_intermediate(square_split, order)


@pytest.mark.parametrize("order", [
    ("e1", "e2"),
    ("e1", "e2", "e3", "e3"),
    ("e1", "e2", "e3", "e4", "e4"),
])
def test_full_split_order_names_each_derived_edge_once(square_split, order):
    """A full order that misses or repeats a derived split edge is rejected
    with the message ``split_edges`` gives."""
    msg = (f"split order {order} must name each edge, exactly once, of the derived "
           "split set ('e1', 'e2', 'e3', 'e4')")
    with pytest.raises(GraphError, match=f"^{re.escape(msg)}$"):
        quasi(square_split, "fig_four_top", split_order=order)
