import sys
from collections import Counter

import pytest

import oracles
from conftest import graph, quasi
from oracles import count_root_solutions
from tropsplit import fixtures as fx
from tropsplit.cli import corpus_cases
from tropsplit.graphs import Edge, GraphError, TropicalGraph
from tropsplit.serialize import decomposition_from_dict
from tropsplit.symmetry import (
    component_splitting,
    multiplicity,
    symmetry_group,
)


def test_gamma2_unframed_dimension_one(square_plain):
    group = symmetry_group(square_plain, graph("fig_rigid_gamma2"))
    assert group.complex_dimension == 1


def test_gamma1_unframed_dimension_zero(square_plain):
    group = symmetry_group(square_plain, graph("fig_rigid_gamma1"))
    assert group.complex_dimension == 0


def test_cube_framed_torsion_three(cube_split):
    q = quasi(cube_split, "fig_cube_top2")
    framed = symmetry_group(cube_split, q.top, framed=True, split_edge_ids=q.top_split_ids)
    assert framed.complex_dimension == 0
    assert framed.torsion_order == 3
    unframed = symmetry_group(cube_split, q.top, framed=False, split_edge_ids=q.top_split_ids)
    assert unframed.complex_dimension == 2


def test_cube_component_splitting(cube_split):
    q = quasi(cube_split, "fig_cube_top2")
    comps = component_splitting(cube_split, q.top, split_edge_ids=q.top_split_ids)
    dims = [c.complex_dimension for c in comps]
    assert dims == [1, 1]
    # the one-parameter components move along (2,1,0) and (1,2,0)
    lattices = []
    for c in comps:
        (gen,) = c.exponent_lattice.basis
        g_part = gen[:2]  # two torus exponents in the normal-lattice basis
        lattices.append(tuple(g_part))
    assert set(lattices) == {(2, 1), (1, 2)}


def test_square_component_splittings(square_split):
    q1 = quasi(square_split, "fig_square_top1")
    dims1 = [c.complex_dimension for c in
             component_splitting(square_split, q1.top, split_edge_ids=q1.top_split_ids)]
    assert dims1 == [1, 0]
    q2 = quasi(square_split, "fig_square_top2")
    dims2 = [c.complex_dimension for c in
             component_splitting(square_split, q2.top, split_edge_ids=q2.top_split_ids)]
    assert dims2 == [0, 1]


def test_no_split_edges_single_component(square_plain):
    g = graph("fig_rigid_gamma2")
    comps = component_splitting(square_plain, g)
    assert len(comps) == 1
    total = symmetry_group(square_plain, g)
    assert comps[0].complex_dimension == total.complex_dimension


def test_splitting_additivity(square_split, cube_split):
    for dec, name in [
        (square_split, "fig_square_top1"),
        (square_split, "fig_four_top"),
        (square_split, "fig_drop_three_top"),
        (cube_split, "fig_cube_top2"),
    ]:
        q = quasi(dec, name)
        total = symmetry_group(dec, q.top, split_edge_ids=q.top_split_ids)
        comps = component_splitting(dec, q.top, split_edge_ids=q.top_split_ids)
        assert sum(c.complex_dimension for c in comps) == total.complex_dimension


def test_dimension_lower_bound(square_split, cube_split):
    """dim T >= |split|(dim t - 1) on every accepted fixture, with
    equality for the rigid ones."""
    from fractions import Fraction as F

    from tropsplit.splitting import is_rigid_split, is_split_graph

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
        assert is_split_graph(q, eta).accepted
        group = symmetry_group(dec, q.top, split_edge_ids=q.top_split_ids)
        bound = q.num_split * (q.n - 1)
        assert group.complex_dimension >= bound
        if is_rigid_split(q):
            assert group.complex_dimension == bound


def test_multiplicity_cube_is_three(cube_split):
    assert multiplicity(quasi(cube_split, "fig_cube_top2")) == 3


def test_multiplicity_unimodular_is_one(square_split):
    assert multiplicity(quasi(square_split, "fig_square_top1")) == 1
    assert multiplicity(quasi(square_split, "fig_square_top2")) == 1


def test_multiplicity_four_split_is_two(square_split):
    # hand solution of the framed system: the two in-place split edges with
    # directions (-1,-1) and (1,-1) force z3^2 = 1 and z4 = z3, and every
    # other rotation is determined by z3, so the group is {+-1}
    assert multiplicity(quasi(square_split, "fig_four_top")) == 2


def test_multiplicity_errors_when_infinite(cube_split):
    q = quasi(cube_split, "fig_cube_top1")  # not rigid split
    with pytest.raises(GraphError):
        multiplicity(q)


def test_brute_force_oracle(square_split, cube_split):
    """Enumerating T-th-root solutions of the multiplicative system
    reproduces the torsion order on every zero-dimensional instance."""
    for dec, name in [
        (cube_split, "fig_cube_top2"),
        (square_split, "fig_square_top1"),
        (square_split, "fig_square_top2"),
        (square_split, "fig_four_top"),
    ]:
        q = quasi(dec, name)
        framed = symmetry_group(dec, q.top, framed=True, split_edge_ids=q.top_split_ids)
        assert framed.complex_dimension == 0
        T = framed.torsion_order
        assert T <= 12
        got = count_root_solutions(framed.relations, len(framed.variables), T)
        assert got == T


def test_interior_edges_identify_translations(square_plain):
    # an interior edge forces equal torus elements; here both vertices sit
    # in the center cell, so one 2-torus survives
    g = TropicalGraph(
        (("a", "vc"), ("b", "vc")),
        (Edge("e", ("a", "b"), "interior"),),
    )
    group = symmetry_group(square_plain, g)
    assert group.complex_dimension == 2
    assert group.torsion_order == 1


def _corpus_groups():
    """Every symmetry group the corpus graphs give: framed and unframed, of
    each plain graph, each top graph (split edges from its base) and each
    base graph, and of their components without split edges."""
    decs = {}
    for case in corpus_cases():
        if case["kind"] not in ("graph", "split", "symmetry", "mult"):
            continue
        if case["dec"] not in decs:
            decs[case["dec"]] = decomposition_from_dict(fx.DECOMPOSITIONS[case["dec"]]())
        dec = decs[case["dec"]]
        if "collapse" in fx.GRAPHS[case["graph"]]():
            q = quasi(dec, case["graph"])
            graphs = [(q.top, q.top_split_ids), (q.base, None)]
        else:
            graphs = [(graph(case["graph"]), None)]
        for g, split_ids in graphs:
            for framed in (False, True):
                yield case["name"], symmetry_group(dec, g, framed, split_ids)
            for comp in component_splitting(dec, g, split_ids):
                yield case["name"], comp


def test_corpus_groups_match_fraction_rank_and_kernel():
    """Dimension, torsion and exponent lattice read off one Smith form equal
    the frozen ``Fraction`` rank, saturated kernel and separate torsion."""
    compared = 0
    for name, group in _corpus_groups():
        want = oracles.symmetry_numbers(group.relations, len(group.variables))
        got = (group.complex_dimension, group.torsion_order, group.exponent_lattice)
        assert got == want, name
        compared += 1
    assert compared >= 100


def test_symmetry_group_runs_one_smith_form(cube_split, monkeypatch):
    """With the decomposition's normal lattices cached, a symmetry group is
    one Smith form of its relation matrix and no rational elimination."""
    from tropsplit import exact
    from tropsplit.graphs import validate_graph

    q = quasi(cube_split, "fig_cube_top2")
    validate_graph(cube_split, q.top)  # caches the normal lattices
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key.startswith("tropsplit")]
    for name in ("smith_normal_form", "rank", "kernel_basis", "saturate", "rref", "solve"):
        fn = getattr(exact, name)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    for framed in (True, False):
        calls.clear()
        symmetry_group(cube_split, q.top, framed=framed, split_edge_ids=q.top_split_ids)
        assert calls == Counter(smith_normal_form=1), (framed, calls)
