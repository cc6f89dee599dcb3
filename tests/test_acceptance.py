"""Acceptance suite: one test per criterion, each printing a verdict line.

Every assertion is exact (integer / rational equality); there are no
tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import random
import sys
from fractions import Fraction as F

from conftest import graph, quasi
from oracles import count_root_solutions, tail_of_sequence_in, vec
from tropsplit import fixtures as fx
from tropsplit.cones import Cone, is_increasing, is_increasing_inductive
from tropsplit.graphs import is_rigid, vertex_positions
from tropsplit.potential import bg_potential
from tropsplit.serialize import graph_from_dict
from tropsplit.splitting import (
    QuasiSplitGraph,
    cone_condition,
    discrepancy,
    is_rigid_split,
    is_split_graph,
    iterative_split_check,
    relative_position_cone,
)
from tropsplit.symmetry import (
    component_splitting,
    multiplicity,
    symmetry_group,
)

from test_cones import _random_orthant_cone
from test_exact import snf_checks
from test_splitting import ETA_POOL, _random_one_edge_family


def criterion(num, text):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num}: FAIL - {text}", file=sys.stderr)
                raise
            print(f"[acceptance] criterion {num}: PASS - {text}")

        return run

    return wrap


def _single_ray_block(cone, order, vertex, n):
    assert len(cone.rays) == 1 and not cone.lineality
    i = list(order).index(vertex)
    return cone.rays[0][i * n : (i + 1) * n]


@criterion(1, "rigid square pair: dims 0 and 1, relative cone a single ray")
def test_criterion_1(square_plain):
    g1 = graph("fig_rigid_gamma1")
    g2 = graph("fig_rigid_gamma2")
    assert vertex_positions(square_plain, g1).dim == 0
    assert is_rigid(square_plain, g1)
    assert vertex_positions(square_plain, g2).dim == 1
    assert not is_rigid(square_plain, g2)
    q = quasi(square_plain, "fig_rigid_gamma2")
    w = relative_position_cone(q)
    assert w.dim() == 1 and len(w.rays) == 1 and not w.lineality


@criterion(2, "square split pair: rays (2,1) and (0,-1), verdicts, rigidity")
def test_criterion_2(square_split):
    q1 = quasi(square_split, "fig_square_top1")
    w1 = relative_position_cone(q1)
    assert _single_ray_block(w1, q1.vertex_order(), "up", 2) == vec((2, 1))
    q2 = quasi(square_split, "fig_square_top2")
    w2 = relative_position_cone(q2)
    assert _single_ray_block(w2, q2.vertex_order(), "um", 2) == vec((0, -1))
    cc_pos = cone_condition(q1, (1, -1))
    assert cc_pos.holds and cc_pos.certified
    assert not cone_condition(q1, (-1, 1)).holds
    assert is_rigid_split(q1) and is_rigid_split(q2)


@criterion(3, "cube pair: non-generic ray rejected, generic pair accepted")
def test_criterion_3(cube_split):
    q1 = quasi(cube_split, "fig_cube_top1")
    v1 = is_split_graph(q1, (1, 1, 0))
    assert not v1.accepted
    assert v1.cone_condition.disc_dim == 1
    assert not v1.cone_condition.certified
    assert v1.cone_condition.certificate.violations  # named violating subspace
    q2 = quasi(cube_split, "fig_cube_top2")
    v2 = is_split_graph(q2, (F(3, 4), 1, 0))
    assert v2.accepted
    assert v2.cone_condition.disc_dim == 2 == q2.num_split * (q2.n - 1)
    assert v2.cone_condition.certified


@criterion(4, "multiplicity three, unframed dimension two, splitting (1,1)")
def test_criterion_4(cube_split):
    q = quasi(cube_split, "fig_cube_top2")
    framed = symmetry_group(cube_split, q.top, framed=True, split_edge_ids=q.top_split_ids)
    assert framed.complex_dimension == 0
    assert framed.torsion_order == 3
    assert multiplicity(q) == 3
    unframed = symmetry_group(cube_split, q.top, framed=False, split_edge_ids=q.top_split_ids)
    assert unframed.complex_dimension == 2
    comps = component_splitting(cube_split, q.top, split_edge_ids=q.top_split_ids)
    assert [c.complex_dimension for c in comps] == [1, 1]
    rays = set()
    for c in comps:
        (gen,) = c.exponent_lattice.basis
        rays.add(tuple(gen[:2]))  # exponents in the horizontal normal basis
    assert rays == {(2, 1), (1, 2)}
    # brute-force root-of-unity oracle
    assert count_root_solutions(framed.relations, len(framed.variables), 3) == 3


@criterion(5, "four ordered split edges: 4 vs 2 dimensional, iterative test agrees")
def test_criterion_5(square_split):
    q = quasi(square_split, "fig_four_top")
    v = is_split_graph(q, (5, 1))
    assert v.accepted and v.cone_condition.disc_dim == 4
    qp = quasi(square_split, "fig_four_top_prime")
    vp = is_split_graph(qp, (5, 1))
    assert not vp.accepted and vp.cone_condition.disc_dim == 2
    base = graph_from_dict(fx.fig_four_base())
    intermediates = []
    for k in (1, 2, 3, 4):
        d = fx.fig_four_intermediate(k)
        intermediates.append(
            QuasiSplitGraph(
                square_split, base, graph_from_dict(d), d["collapse"]["vertex_map"],
                split_order=d["partial_split"], partial=True,
            )
        )
    rep = iterative_split_check(intermediates, (5, 1))
    assert rep["agrees"] and rep["all_steps_accept"]
    prime_intermediates = []
    for k in (1, 2, 3, 4):
        d = fx.fig_four_top_prime()
        prime_intermediates.append(
            QuasiSplitGraph(
                square_split, base, graph_from_dict(d), d["collapse"]["vertex_map"],
                split_order=("e1", "e2", "e3", "e4")[:k], partial=True,
            )
        )
    rep_p = iterative_split_check(prime_intermediates, (5, 1))
    assert rep_p["agrees"] and not rep_p["direct"]


@criterion(6, "dropping direction conditions: full R^3 and full R^1")
def test_criterion_6(square_split):
    q3 = quasi(square_split, "fig_drop_three_top")
    assert discrepancy(q3).disc.same_set(Cone.full(3))
    assert is_split_graph(q3, (1, -3)).accepted
    q1 = quasi(square_split, "fig_drop_single_top")
    assert discrepancy(q1).disc.same_set(Cone.full(1))
    assert is_split_graph(q1, (1, -3)).accepted


@criterion(7, "toric cuts and potentials: 9 cells, valid dual complex, exact terms")
def test_criterion_7():
    from tropsplit.complexes import is_tropical_fiber, toric_cut

    t = fx.toric_square()
    lam = tuple(F(x) for x in t["lambda"])
    dec, inner = toric_cut(
        t["normals"], [F(c) for c in t["constants"]], [F(e) for e in t["epsilons"]], lam
    )
    assert sum(1 for p in dec.polytopes.values() if p.dim == 2) == 9
    dec.validate(geometric=True)  # dual complex invariants, all pairs
    assert is_tropical_fiber(dec, inner, lam)
    W = bg_potential(t["normals"], [F(c) for c in t["constants"]], lam)
    assert len(W.terms) == len(t["normals"])
    for coeff, area, mono in W.terms:
        mu = vec(mono)
        c = [F(cc) for cc, m in zip(t["constants"], t["normals"]) if tuple(m) == mono][0]
        assert coeff == 1
        assert area == c - sum(m * l for m, l in zip(mu, lam))
    h = fx.hirzebruch_two()
    Wh = bg_potential(h["normals"], [F(c) for c in h["constants"]],
                      tuple(F(x) for x in h["lambda"]))
    assert len(Wh.terms) == 4


@criterion(8, "randomized property suites, >= 50 exact instances each")
def test_criterion_8(square_split):
    # double-description round trips preserve the point set
    rng = random.Random(31337)
    for trial in range(55):
        n = rng.randint(1, 4)
        rays = [[rng.randint(-4, 4) for _ in range(n)]
                for _ in range(rng.randint(0, n + 2))]
        lin = [[rng.randint(-2, 2) for _ in range(n)]
               for _ in range(rng.randint(0, 1))]
        c = Cone.from_rays(rays, lin, ambient_dim=n)
        assert Cone.from_hrep(c.ineqs, c.eqs, ambient_dim=n).same_set(c)

    # Smith normal form identities with the divisibility chain
    rng = random.Random(60221023)
    for _ in range(55):
        M = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
             for _ in range(rng.randint(1, 4))]
        width = max(len(r) for r in M)
        M = [r + [0] * (width - len(r)) for r in M]
        snf_checks(M)

    # increasing-cone definition vs sequential characterizations
    rng = random.Random(271828)
    for _ in range(55):
        n = rng.randint(1, 4)
        c = _random_orthant_cone(rng, n)
        scales = [F(rng.randint(1, 5)) for _ in range(n)]
        assert (
            is_increasing(c)
            == is_increasing_inductive(c)
            == tail_of_sequence_in(c.minimal(), scales)
        )

    # dimension theorem, symmetry lower bound, splitting additivity on a
    # random family of accepted split graphs
    rng = random.Random(1729)
    accepted = 0
    while accepted < 50:
        q, _ = _random_one_edge_family(square_split, rng)
        eta = ETA_POOL[rng.randrange(len(ETA_POOL))]
        verdict = is_split_graph(q, eta)
        if not verdict.accepted:
            continue
        accepted += 1
        bound = q.num_split * (q.n - 1)
        assert verdict.cone_condition.disc_dim == bound
        group = symmetry_group(
            square_split, q.top, framed=False, split_edge_ids=q.top_split_ids
        )
        assert group.complex_dimension >= bound
        comps = component_splitting(square_split, q.top, split_edge_ids=q.top_split_ids)
        assert sum(c.complex_dimension for c in comps) == group.complex_dimension
