import random
from collections import Counter
from fractions import Fraction as F

import pytest

import oracles
from oracles import mat, vec
from tropsplit import fixtures as fx
from tropsplit.complexes import toric_cut
from tropsplit.cones import Cone
from tropsplit.polyhedra import Polyhedron
from tropsplit.serialize import decomposition_from_dict, decomposition_to_dict


def unit_square():
    return Polyhedron.from_hrep(
        2, ineqs=[((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    )


def test_square_basics():
    sq = unit_square()
    assert not sq.is_empty()
    assert sq.dim() == 2
    assert set(sq.vertices) == {vec((a, b)) for a in (0, 1) for b in (0, 1)}
    assert sq.relative_interior_point() == vec((F(1, 2), F(1, 2)))


def test_from_hrep_rows_are_the_primitive_rows_of_minus_a_b():
    """Each row (a, b) reaches the cone as the primitive row of (-a, b)
    (an equality basis in rref), whether its entries are ints,
    ``Fraction``s or rational strings, or come from an iterator; a bool or
    a float entry is refused."""
    want = (((-1, 0, 2), (0, 3, 2), (0, 0, 1)), ((2, -1, 0),))
    for ineqs, eqs in [
        ([((1, 0), 2), ((0, -3), 2)], [((4, -2), 0)]),
        ([((F(1, 2), 0), 1), ((0, F(-3, 2)), 1)], [((F(2), F(-1)), 0)]),
        ([(("1/2", "0"), "1"), ((0, "-3/2"), 1)], [(("2", -1), 0)]),
        ([(iter((1, 0)), 2), (iter((0, -3)), 2)], [(iter((2, -1)), 0)]),
    ]:
        p = Polyhedron.from_hrep(2, ineqs=ineqs, eqs=eqs)
        assert p.cone.given_rows() == want, (ineqs, eqs)
    with pytest.raises(ValueError):
        Polyhedron.from_hrep(1, ineqs=[((True,), 1)])
    with pytest.raises(TypeError):
        Polyhedron.from_hrep(1, ineqs=[((1.5,), 1)])


def test_empty_polyhedron():
    p = Polyhedron.from_hrep(1, ineqs=[((1,), 0), ((-1,), -1)])
    assert p.is_empty() and p.dim() == -1
    with pytest.raises(ValueError):
        p.relative_interior_point()


def test_empty_polyhedron_stays_empty_through_its_hrep():
    """An empty polyhedron's H-representation keeps the implicit equality
    t = 0 of its homogenization cone, as the row 0.x = 1, so reading it
    back gives the empty set again.  Only ``t >= 0`` is left out."""
    empties = [
        Polyhedron.from_hrep(1, ineqs=[((1,), 0), ((-1,), -1)]),
        Polyhedron.from_hrep(2, ineqs=[((1, 0), 0), ((-1, 0), -1)]),
        Polyhedron.from_hrep(2, ineqs=[((1, 1), 1)], eqs=[((1, 1), 2)]),
        Polyhedron.from_hrep(3, eqs=[((0, 0, 0), 1)]),
    ]
    for p in empties:
        assert p.is_empty()
        ineqs, eqs = p.hrep()
        assert ((0,) * p.ambient_dim, 1) in eqs, (ineqs, eqs)
        back = Polyhedron.from_hrep(p.ambient_dim, ineqs=ineqs, eqs=eqs)
        assert back.is_empty() and back.same_set(p)
        assert back.hrep() == (ineqs, eqs)
    # a nonempty polyhedron's rows leave out t >= 0 alone
    assert unit_square().rows()[1] == ()
    assert (0, 0, 1) not in unit_square().rows()[0]


def test_unbounded_quadrant():
    q = Polyhedron.from_hrep(2, ineqs=[((-1, 0), 0), ((0, -1), 0)])
    assert q.dim() == 2
    assert set(q.recession_rays) == {vec((1, 0)), vec((0, 1))}
    assert q.contains((5, 7)) and not q.contains((-1, 0))


def test_face_recognition():
    sq = unit_square()
    edge = Polyhedron.from_vrep(2, vertices=[(1, 0), (1, 1)])
    corner = Polyhedron.from_vrep(2, vertices=[(1, 1)])
    diag = Polyhedron.from_vrep(2, vertices=[(0, 0), (1, 1)])
    assert edge.is_face_of(sq)
    assert corner.is_face_of(sq) and corner.is_face_of(edge)
    assert not diag.is_face_of(sq)
    assert sq.is_face_of(sq)


def test_vrep_hrep_roundtrip_random():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 3)
        verts = [[rng.randint(-3, 3) for _ in range(n)]
                 for _ in range(rng.randint(1, 4))]
        rays = [[rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(0, 2))]
        p = Polyhedron.from_vrep(n, vertices=verts, rays=rays)
        ineqs, eqs = p.hrep()
        back = Polyhedron.from_hrep(n, ineqs=ineqs, eqs=eqs)
        assert back.same_set(p)


def test_direction_space_of_segment():
    seg = Polyhedron.from_vrep(2, vertices=[(0, 0), (2, 4)])
    assert seg.direction_space() == [vec((1, 2))]


def test_relative_interior_avoids_proper_faces():
    p = Polyhedron.from_vrep(2, vertices=[(0, 0), (2, 0), (0, 2)])
    x = p.relative_interior_point()
    ineqs, _ = p.hrep()
    for a, b in ineqs:
        assert sum(ai * xi for ai, xi in zip(a, x)) < b


def test_image_dim_equality_for_injective_maps():
    c = Cone.from_rays([(1, 0), (1, 1)])
    M = mat([(1, 1), (0, 1)])  # invertible
    assert c.linear_image(M).dim() == c.dim()


def test_empty_polyhedra_get_set_answers():
    """Empty polyhedra whose cones keep different recession directions."""
    slab1 = Polyhedron.from_hrep(2, ineqs=[((1, 0), 0), ((-1, 0), -1)])
    slab2 = Polyhedron.from_hrep(2, ineqs=[((0, 1), 0), ((0, -1), -1)])
    square = Polyhedron.from_vrep(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])
    assert slab1.is_empty() and slab2.is_empty()
    assert slab1.same_set(slab2) and slab2.same_set(slab1)
    assert square.contains_polyhedron(slab1) and slab2.contains_polyhedron(slab1)
    assert not slab1.contains_polyhedron(square)
    assert not square.same_set(slab1) and not slab1.same_set(square)


def test_empty_polyhedron_lies_in_every_hyperplane():
    """The cone of {x1 <= 0, x1 >= 1} keeps the recession line of x2, which
    does not lie in x2 = 0; the empty set does."""
    slab = Polyhedron.from_hrep(2, ineqs=[((1, 0), 0), ((-1, 0), -1)])
    assert slab.is_empty()
    for a, b in (((0, 1), 0), ((1, 0), 0), ((1, 1), 5)):
        assert oracles.hom_lies_in_hyperplane(slab, a, b)


# -- differential check against the de-homogenized queries -----------------------


def _random_polyhedron(rng, n):
    kind = rng.randrange(3)
    if kind == 0:
        return Polyhedron.from_vrep(
            n,
            vertices=[[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 4))],
            rays=[[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 2))],
            lineality=[[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 1))],
        )
    rows = [([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2))
            for _ in range(rng.randint(1, 5))]
    eqs = [([rng.randint(-1, 1) for _ in range(n)], rng.randint(-1, 1))
           for _ in range(rng.randint(0, 1))]
    if kind == 2:
        # a slab with no point between its walls: empty, with the walls'
        # direction space as recession lineality
        a, b = rows[0]
        rows.append(([-x for x in a], -b - 1))
    return Polyhedron.from_hrep(n, ineqs=rows, eqs=eqs)


def _derived(rng, p, q):
    """Polyhedra built from p that are often contained in or equal to it."""
    out = [p.intersect(q), Polyhedron.from_hrep(p.ambient_dim, *p.hrep()),
           Polyhedron.from_vrep(p.ambient_dim, p.vertices, p.recession_rays, p.lineality)]
    ineqs, _ = p.hrep()
    if ineqs:
        out.append(oracles.intersect_hrep(p, eqs=rng.sample(ineqs, rng.randint(1, len(ineqs)))))
    return out


def _hyperplanes(rng, p):
    n = p.ambient_dim
    ineqs, eqs = p.hrep()
    out = list(ineqs) + list(eqs)
    for _ in range(2):
        a = [rng.randint(-2, 2) for _ in range(n)]
        out.append((a, rng.randint(-2, 2)))
        if p.vertices:
            out.append((a, sum(x * y for x, y in zip(a, rng.choice(p.vertices)))))
    return out


def test_polyhedron_queries_match_dehomogenized_reference():
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(120):
        n = rng.randint(1, 3)
        p, q = _random_polyhedron(rng, n), _random_polyhedron(rng, n)
        for poly in (p, q):
            if poly.is_empty() and (poly.recession_rays or poly.lineality):
                seen["empty with recession"] += 1
            if not poly.is_empty() and poly.hrep()[1]:
                seen["with equalities"] += 1
            if not poly.is_empty() and poly.lineality:
                seen["with lineality"] += 1
        for x, y in [(p, q), (q, p)] + [(d, p) for d in _derived(rng, p, q)]:
            for x, y in ((x, y), (y, x)):
                got = x.contains_polyhedron(y)
                if x.is_empty() or y.is_empty():
                    # set answers; the frozen code answered by the cones
                    assert got == y.is_empty()
                    assert x.same_set(y) == (x.is_empty() and y.is_empty())
                    assert y.is_face_of(x) == y.is_empty()
                    seen["empty side"] += 1
                    continue
                assert got == oracles.contains_polyhedron(x, y)
                assert x.same_set(y) == oracles.same_set(x, y)
                assert y.is_face_of(x) == oracles.is_face_of(y, x)
                seen["contained"] += got
                seen["equal"] += x.same_set(y)
                seen["proper face"] += (
                    y.is_face_of(x) and not y.is_empty() and not x.same_set(y))
        for poly in (p, q):
            assert poly.direction_space() == oracles.direction_space(poly)
            for a, b in _hyperplanes(rng, poly):
                got = oracles.hom_lies_in_hyperplane(poly, a, b)
                if poly.is_empty():
                    # the set answer; the frozen code answered by the cone
                    assert got
                    seen["empty in hyperplane"] += 1
                    continue
                assert got == oracles.lies_in_hyperplane(poly, a, b)
                seen["in hyperplane"] += got
    for key in ("empty with recession", "with equalities", "with lineality", "empty side",
                "empty in hyperplane"):
        assert seen[key] >= 10, seen
    for key in ("contained", "equal", "proper face", "in hyperplane"):
        assert seen[key] >= 50, seen


@pytest.mark.parametrize("dim", [1.5, 1.0, True])
def test_polyhedron_rejects_a_non_integer_ambient_dim(dim):
    with pytest.raises(ValueError):
        Polyhedron.from_hrep(dim, ineqs=[((1,), 1)])
    with pytest.raises(ValueError):
        Polyhedron.from_vrep(dim, vertices=[(0,)])
    with pytest.raises(ValueError):
        Polyhedron(dim, Cone.zero(2))



def test_emptiness_and_interior_points_read_off_integer_generators():
    """On seeded polyhedra, empty, bounded, unbounded and with lineality,
    some with rational vertices: ``is_empty()`` is ``not vertices``, and
    the relative interior point is (sum of the ``Fraction`` vertices + sum
    of the recession rays) / number of vertices."""
    rng = random.Random(1212)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 3)
        if rng.random() < 0.25:
            den = rng.randint(2, 4)
            p = Polyhedron.from_vrep(
                n,
                vertices=[[F(rng.randint(-4, 4), den) for _ in range(n)]
                          for _ in range(rng.randint(1, 3))],
                rays=[[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 1))],
            )
        else:
            p = _random_polyhedron(rng, n)
        assert p.is_empty() == (not p.vertices)
        if p.is_empty():
            seen["empty"] += 1
            with pytest.raises(ValueError):
                p.relative_interior_point()
            continue
        seen["unbounded" if p.recession_rays or p.lineality else "bounded"] += 1
        seen["with lineality"] += bool(p.lineality)
        seen["rational vertex"] += any(x.denominator > 1 for v in p.vertices for x in v)
        k = len(p.vertices)
        want = [F(0)] * n
        for g in list(p.vertices) + list(p.recession_rays):
            want = [x + y for x, y in zip(want, g)]
        got = p.relative_interior_point()
        assert got == tuple(x / k for x in want)
        assert all(type(x) is F for x in got) and p.contains(got)
    for key in ("empty", "bounded", "unbounded", "with lineality", "rational vertex"):
        assert seen[key] >= 50, seen


# -- faces by tight sets ---------------------------------------------------------


def _no_intersections(monkeypatch):
    def refuse(self, other):
        raise AssertionError("is_face_of converted an intersection")

    monkeypatch.setattr(Cone, "intersect", refuse)


@pytest.mark.parametrize("name", sorted(fx.DECOMPOSITIONS))
def test_is_face_of_matches_the_reference_on_fixture_cells(monkeypatch, name):
    """Every ordered pair of cells, and of dual cells, of each bundled
    decomposition gets the frozen answer, with no intersection converted."""
    dec = decomposition_from_dict(fx.DECOMPOSITIONS[name]())
    frozen = decomposition_from_dict(fx.DECOMPOSITIONS[name]())
    ids = sorted(dec.polytopes)
    want = {
        (q, p): (oracles.is_face_of(frozen.cell(q), frozen.cell(p)),
                 oracles.is_face_of(frozen.dual(q), frozen.dual(p)))
        for q in ids for p in ids
    }
    _no_intersections(monkeypatch)
    got = {
        (q, p): (dec.cell(q).is_face_of(dec.cell(p)), dec.dual(q).is_face_of(dec.dual(p)))
        for q in ids for p in ids
    }
    assert got == want
    assert Counter(got.values())[(True, False)] > 0


@pytest.mark.parametrize("name", ["toric_square", "hirzebruch_two", "toric_cube"])
def test_is_face_of_matches_the_reference_on_cut_cells(name):
    """The cut hands its walked cones to its decomposition: their faces by
    tight sets agree with the frozen answer on the cells rebuilt from rows,
    over every ordered pair (on the cube, every pair sharing a face)."""
    t = getattr(fx, name)()
    dec, _ = toric_cut(t["normals"], t["constants"], t["epsilons"], t["lambda"])
    frozen = decomposition_from_dict(decomposition_to_dict(dec))
    ids = sorted(dec.polytopes)
    pairs = [(q, p) for q in ids for p in ids]
    if len(ids) > 100:
        pairs = [(q, p) for q, p in pairs
                 if any(dec.face_le(f, q) and dec.face_le(f, p) for f in ids)]
    answers = Counter()
    for q, p in pairs:
        got = dec.cell(q).is_face_of(dec.cell(p))
        assert got == oracles.is_face_of(frozen.cell(q), frozen.cell(p)), (q, p)
        assert got == dec.face_le(q, p), (q, p)
        answers[got] += 1
    assert answers[True] and answers[False]


def _box(rng, n):
    """A random polytope: a box cut by up to two random halfspaces through
    points of it."""
    rows = []
    for i in range(n):
        e = [int(i == j) for j in range(n)]
        rows += [(e, rng.randint(1, 3)), ([-x for x in e], rng.randint(0, 2))]
    for _ in range(rng.randint(0, 2)):
        a = [rng.randint(-2, 2) for _ in range(n)]
        rows.append((a, rng.randint(0, 3)))
    return Polyhedron.from_hrep(n, ineqs=rows)


def test_is_face_of_matches_the_reference_on_seeded_sub_polytopes(monkeypatch):
    """Faces of seeded polytopes (cut by some of their facets), proper
    sub-polytopes (cut by a random halfspace) and the same sets built from
    their vertices, against the frozen answer."""
    rng = random.Random(18)
    cases = []
    for _ in range(60):
        p = _box(rng, rng.randint(1, 3))
        if p.is_empty():
            continue
        ineqs, _ = p.hrep()
        subs = [oracles.intersect_hrep(p, eqs=rng.sample(ineqs, rng.randint(1, len(ineqs))))
                for _ in range(3)]
        a = [rng.randint(-2, 2) for _ in range(p.ambient_dim)]
        subs.append(oracles.intersect_hrep(p, ineqs=[(a, rng.randint(-1, 2))]))
        subs += [Polyhedron.from_vrep(q.ambient_dim, q.vertices) for q in subs]
        cases += [(q, p) for q in subs] + [(p, q) for q in subs]
    want = [oracles.is_face_of(q, p) for q, p in cases]
    _no_intersections(monkeypatch)
    got = [q.is_face_of(p) for q, p in cases]
    assert got == want
    assert got.count(True) >= 100 and got.count(False) >= 100, Counter(got)
