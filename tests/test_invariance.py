"""Metamorphic checks: corpus answers do not depend on names, on the order
of the input lists, or on the lattice basis of the ambient space.

Each graph, split, mult and symmetry corpus case runs again on seeded
transformed inputs.  Every cell, vertex and edge is renamed and every input
list shuffled, and one seeded U in GL_n(Z) acts on the space t of the dual
cells: dual vertices and rays, edge directions, cone directions and the
normals a of the cells' rows a.x <= b all map to U times themselves (the
cells themselves map by U^-T, so every pairing a.x stays the same), and
the dual vertices are then shifted by one seeded tau in Q^n.  The fields
that mean the same thing in every coordinate system must agree: the
verdicts, the dimensions, the multiplicity and the group orders, the split
edges under the renaming, the scalings cone (its coordinates follow the
split order, which the renaming keeps), and the witness of a graph report,
vertex by vertex, as U times the original plus tau.

The toric cuts of the square, the second Hirzebruch surface and the cube
run again with their moment polytope moved by x -> U x + tau, for a seeded
U in GL_n(Z) and tau in Q^n: each normal mu maps to U^-T mu, integer since
U is unimodular, and each constant c to c + <U^-T mu, tau>, so every cut
hyperplane moves with the polytope and the cells keep their sign vectors,
hence their ids.  Each cell must keep its dimension (so the per-dimension
counts stay), its vertices must move by the same map, the tropical-fiber
test at each cell's moved relative interior point must give the same
answer, and the Batyrev-Givental potential must keep its coefficients and
areas, with each monomial mu moved to U^-T mu.
"""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from tropsplit import fixtures as fx
from tropsplit import reports
from tropsplit.cli import _quasi_split, _symmetry_report, corpus_cases, run_corpus_case
from tropsplit.complexes import is_tropical_fiber, toric_cut
from tropsplit.exact import solve
from tropsplit.potential import bg_potential
from tropsplit.serialize import decomposition_from_dict, graph_from_dict, parse_vec

CASES = [c for c in corpus_cases() if c["kind"] in ("graph", "split", "mult", "symmetry")]
SEEDS = range(3)


def test_cases_cover_the_graph_kinds():
    assert len(CASES) == 15
    assert {c["kind"] for c in CASES} == {"graph", "split", "mult", "symmetry"}


def unimodular(rng, n) -> list:
    """A seeded n x n integer matrix of determinant +-1, n >= 2: row
    additions, a shuffle of the rows and sign changes."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        U[i] = [x + k * y for x, y in zip(U[i], U[j])]
    rng.shuffle(U)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in U]


def apply(U, v) -> tuple:
    v = [F(x) for x in v]
    return tuple(sum((a * x for a, x in zip(row, v)), F(0)) for row in U)


def shift(v, tau) -> tuple:
    return tuple(x + t for x, t in zip(v, tau))


def text(v) -> list:
    return [str(x) for x in v]


class Renaming(dict):
    """Old name -> a fresh seeded name, distinct from every other."""

    def __init__(self, rng):
        super().__init__()
        self.rng = rng

    def __missing__(self, old):
        new = None
        while new is None or new in self.values():
            new = "".join(self.rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5))
        self[old] = new
        return new


def transform_dec(data, U, tau, cells, rng) -> dict:
    polytopes = []
    for p in data["polytopes"]:
        rows = [text(apply(U, row[:-1])) + [row[-1]] for row in p["ineqs"]]
        rng.shuffle(rows)
        polytopes.append({**p, "id": cells[p["id"]], "ineqs": rows})
    duals = []
    for d in data["dual_cells"]:
        verts = [text(shift(apply(U, v), tau)) for v in d["vertices"]]
        rays = [text(apply(U, r)) for r in d["rays"]]
        rng.shuffle(verts)
        rng.shuffle(rays)
        duals.append({"id": cells[d["id"]], "vertices": verts, "rays": rays})
    faces = [[cells[q], cells[p]] for q, p in data["faces"]]
    split = [cells[s] for s in data["split_set"]]
    for items in (polytopes, duals, faces, split):
        rng.shuffle(items)
    return {"ambient_dim": data["ambient_dim"], "polytopes": polytopes, "faces": faces,
            "dual_cells": duals, "split_set": split}


def transform_graph(data, U, cells, names, rng) -> dict:
    vertices = [{"id": names[v["id"]], "polytope": cells[v["polytope"]]}
                for v in data["vertices"]]
    edges = []
    for e in data["edges"]:
        new = {**e, "id": names[e["id"]], "ends": [names[x] for x in e["ends"]]}
        if e.get("direction") is not None:
            new["direction"] = [int(x) for x in apply(U, e["direction"])]
        if "maps_to" in e:
            new["maps_to"] = names[e["maps_to"]]
        edges.append(new)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    out = {**data, "vertices": vertices, "edges": edges}
    if data.get("split_order") is not None:
        out["split_order"] = [names[x] for x in data["split_order"]]
    if "collapse" in data:
        vmap = list(data["collapse"]["vertex_map"].items())
        rng.shuffle(vmap)
        out["collapse"] = {**data["collapse"],
                           "vertex_map": {names[a]: names[b] for a, b in vmap}}
    return out


def run(case, dec_dict, graphs, eta) -> dict:
    """The case's report on the given inputs, as ``run_corpus_case`` makes it."""
    dec = decomposition_from_dict(dec_dict)
    g = graphs[case["graph"]]
    if case["kind"] == "graph":
        return reports.graph_report(dec, graph_from_dict(g), {"dec": dec_dict, "graph": g})
    if case["kind"] == "symmetry":
        return _symmetry_report(dec, dec_dict, g, case["framed"], graphs.__getitem__)
    q, inputs = _quasi_split(dec, dec_dict, g, graphs.__getitem__)
    if case["kind"] == "split":
        return reports.split_report(q, eta, inputs)
    return reports.mult_report(q, inputs)


def invariants(report, rename=str) -> dict:
    """The fields of a report that no renaming, reordering or change of
    lattice basis may change, each edge id passed through ``rename``."""
    command = report["command"]
    if command == "graph-check":
        keys = ("valid", "realizable", "realizable_weakly", "rigid", "dim")
        out = {k: report[k] for k in keys}
        out["split_edges"] = sorted(map(rename, report["split_edges"]))
    elif command == "split-check":
        keys = ("accepted", "cone_condition_holds", "disc_dim", "disc_dim_matches",
                "expected_disc_dim", "genericity_certified", "rigid_split", "w_dim",
                "scalings_cone")
        out = {k: report[k] for k in keys}
        out["split_order"] = list(map(rename, report["split_order"]))
        out["violations"] = len(report["genericity_violations"])
        out["dims"] = report["disc_cone"]["dim"], report["w_cone"]["dim"]
    elif command == "mult":
        out = {"multiplicity": report["multiplicity"]}
    else:
        def orders(group):
            return group["complex_dimension"], group["torsion_order"], len(group["variables"])

        out = {"framed": report["framed"], "group": orders(report["group"]),
               "component_dims": sorted(report["component_dims"]),
               "components": sorted(map(orders, report["component_splitting"]))}
    return out


def witness_blocks(report) -> dict:
    """Each vertex's block of a graph report's witness."""
    order, w = report["vertex_order"], parse_vec(report["witness"])
    n = len(w) // len(order)
    return {v: w[i * n:(i + 1) * n] for i, v in enumerate(order)}


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_is_invariant_under_renaming_and_a_change_of_basis(case):
    original = run_corpus_case(case)
    dec_data = fx.DECOMPOSITIONS[case["dec"]]()
    top = fx.GRAPHS[case["graph"]]()
    graph_names = [case["graph"]]
    if "collapse" in top:
        graph_names.append(top["collapse"]["to_graph"])
    for seed in SEEDS:
        rng = random.Random(f"{case['name']}:{seed}")
        n = dec_data["ambient_dim"]
        U = unimodular(rng, n)
        tau = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        cells, names = Renaming(rng), Renaming(rng)
        dec_dict = transform_dec(dec_data, U, tau, cells, rng)
        graphs = {g: transform_graph(fx.GRAPHS[g](), U, cells, names, rng) for g in graph_names}
        eta = apply(U, parse_vec(case["eta"])) if "eta" in case else None
        got = run(case, dec_dict, graphs, eta)
        assert invariants(got) == invariants(original, names.__getitem__), (seed, U, tau)
        if "witness" in original:
            blocks = witness_blocks(got)
            for v, block in witness_blocks(original).items():
                assert blocks[names[v]] == shift(apply(U, block), tau), (seed, U, tau, v)


TORIC = ("toric_square", "hirzebruch_two", "toric_cube")


def transform_toric(data, U, tau) -> dict:
    """Toric data of the moment polytope moved by x -> U x + tau: the
    normals U^-T mu, the constants c + <U^-T mu, tau>, the base point
    U lambda + tau and the same epsilons."""
    UT = [list(col) for col in zip(*U)]
    normals = []
    for mu in data["normals"]:
        moved = solve(UT, [F(x) for x in mu])
        assert all(x.denominator == 1 for x in moved), (U, mu)
        normals.append(tuple(int(x) for x in moved))
    constants = [F(c) + sum(a * x for a, x in zip(mu, tau))
                 for mu, c in zip(normals, data["constants"])]
    return {"normals": normals, "constants": constants,
            "epsilons": [F(e) for e in data["epsilons"]],
            "lambda": shift(apply(U, data["lambda"]), tau)}


def toric_answers(data, points=None) -> tuple:
    """The cut of ``data``, each cell's dimension and vertices, the
    tropical-fiber test of each cell at ``points[cell]`` (by default the
    cell's relative interior point), the inner cell and the potential."""
    dec, inner = toric_cut(data["normals"], data["constants"], data["epsilons"],
                           data["lambda"])
    if points is None:
        points = {p: dec.cell(p).relative_interior_point() for p in dec.polytopes}
    cells = {p: (poly.dim, sorted(dec.cell(p).vertices)) for p, poly in dec.polytopes.items()}
    fibers = {p: is_tropical_fiber(dec, p, points[p]) for p in dec.polytopes}
    series = bg_potential(data["normals"], data["constants"], data["lambda"])
    return cells, fibers, points, inner, series


@pytest.mark.parametrize("name", TORIC)
def test_toric_answers_are_invariant_under_a_lattice_change_of_basis(name):
    data = getattr(fx, name)()
    cells, fibers, points, inner, series = toric_answers(data)
    assert fibers[inner] and sum(fibers.values()) < len(fibers)
    n = len(data["normals"][0])
    for seed in SEEDS:
        rng = random.Random(f"{name}:{seed}")
        U = unimodular(rng, n)
        tau = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        moved = transform_toric(data, U, tau)
        at = {p: shift(apply(U, x), tau) for p, x in points.items()}
        got_cells, got_fibers, _, got_inner, got_series = toric_answers(moved, at)
        assert Counter(d for d, _ in got_cells.values()) == Counter(d for d, _ in cells.values())
        assert got_cells.keys() == cells.keys() and got_inner == inner, (seed, U, tau)
        for p, (dim, vertices) in cells.items():
            want = sorted(shift(apply(U, v), tau) for v in vertices)
            assert got_cells[p] == (dim, want), (seed, U, tau, p)
        assert got_fibers == fibers, (seed, U, tau)
        UT = list(zip(*U))
        back = Counter((c, a, tuple(int(x) for x in apply(UT, m))) for c, a, m in got_series.terms)
        assert back == Counter(series.terms), (seed, U, tau)
