import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

import oracles
from conftest import graph, quasi
from oracles import matvec
from tropsplit import fixtures as fx
from tropsplit import reports
from tropsplit.cones import Cone
from tropsplit.exact import vec
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
    """One graph computes its cones, genericity family and serialized cones
    once, however many cone directions its reports test: a warm report
    serializes only its scalings cone, and its genericity certificate
    runs no elimination."""
    from tropsplit import exact, reports, splitting

    calls = Counter()

    def count(module, name, key):
        original = getattr(module, name)

        def counted(*args, _original=original):
            calls[key] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("relative_position_cone", "discrepancy", "_genericity_family"):
        count(splitting, name, name)
    q = quasi(cube_split, "fig_cube_top2")
    reports.split_report(q, (1, 1, 1), {})
    count(reports, "cone_to_dict", "cone_to_dict")
    count(splitting, "cone_to_dict", "cone_to_dict")
    count(exact, "_rref_int", "_rref_int")
    for eta in ((F(3, 4), 1, 0), (3, 1, 0), (1, F(5, 4), 0)):
        reports.split_report(q, eta, {})
    assert calls == {
        "relative_position_cone": 1, "discrepancy": 1, "_genericity_family": 1,
        "cone_to_dict": 3,
    }


def test_reports_share_no_mutable_data(square_split):
    """A caller that edits one report changes no later report."""
    from tropsplit.serialize import canonical_json

    q = quasi(square_split, "fig_square_top1")
    want = canonical_json(reports.split_report(q, (1, -1), {}))
    first = reports.split_report(q, (1, -1), {})
    first["w_cone"]["rays"].append(["9", "9"])
    first["w_cone"]["rays"][0][0] = "7"
    first["w_cone"]["dim"] = -1
    first["disc_cone"]["ineqs"].clear()
    first["projected_eta"][0].append("5")
    assert canonical_json(reports.split_report(q, (1, -1), {})) == want


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
            for field in ("holds", "certified", "certificate", "certificate_labels",
                          "disc_dim", "expected_disc_dim", "projected_eta"):
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
    """A warm cone direction takes one ``_dd_step`` per nonzero pulled-back
    inequality of Disc and two per nonzero pulled-back equality, from the
    orthant: 1, 1, 2, 4, 1, 2 and 2 steps on the warm cases (13 in all).
    A conversion from the full space would add a step per orthant row."""
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
    assert steps == [1, 1, 2, 4, 1, 2, 2]


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
