import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import oracles
from oracles import mat, tail_of_sequence_in, vec
from tropsplit import cones
from tropsplit import fixtures as fx
from tropsplit.complexes import toric_cut
from tropsplit.cones import (
    Cone,
    is_increasing,
    is_increasing_inductive,
    normal_cone_at_first_axis,
)
from tropsplit.polyhedra import Polyhedron

# -- conversions ---------------------------------------------------------------


def test_orthant_h_to_v():
    c = Cone.from_hrep([(1, 0), (0, 1)])
    assert set(c.rays) == {vec((1, 0)), vec((0, 1))}
    assert c.lineality == ()


def test_halfplane_h_to_v():
    c = Cone.from_hrep([(1, 0)])
    assert c.rays == (vec((1, 0)),)
    assert c.lineality == (vec((0, 1)),)


def test_line_slice_gives_single_ray():
    # {x - 2y = 0, x >= 0}: solving the one-dimensional system by hand
    # gives the ray through (2, 1)
    c = Cone.from_hrep([(1, 0)], eqs=[(1, -2)])
    assert c.rays == (vec((2, 1)),)
    assert c.lineality == ()


def test_roundtrip_examples():
    for rays, lin in [
        ([(1, 0), (0, 1)], []),
        ([(2, 1)], []),
        ([(1, 0)], [(0, 1)]),
        ([(1, 0, 0), (1, 1, 0), (1, 1, 1)], []),
        ([], [(1, 2, 3)]),
    ]:
        c = Cone.from_rays(rays, lin, ambient_dim=len((rays + lin)[0]))
        c2 = Cone.from_hrep(c.ineqs, c.eqs, ambient_dim=c.ambient_dim)
        assert c2.same_set(c)


# -- dim / contains / relative interior -----------------------------------------


def test_dim_examples():
    assert Cone.zero(2).dim() == 0
    assert Cone.from_rays([(2, 1)]).dim() == 1
    assert Cone.full(3).dim() == 3


def test_contains_examples():
    orthant = Cone.from_hrep([(1, 0), (0, 1)])
    assert orthant.contains((1, 2))
    ray = Cone.from_rays([(2, 1)])
    assert not ray.contains((1, 1))
    assert ray.contains((1, F(1, 2)))


def test_relative_interior_examples():
    orthant = Cone.from_hrep([(1, 0), (0, 1)])
    assert orthant.relative_interior_point() == vec((1, 1))
    ray = Cone.from_rays([(2, 1)])
    assert ray.relative_interior_point() == vec((2, 1))
    half = Cone.from_hrep([(1, 0)])
    p = half.relative_interior_point()
    assert p == vec((1, 0))
    # strictness oracle: the point satisfies every facet strictly
    for a in half.minimal().ineqs:
        assert sum(x * y for x, y in zip(a, p)) > 0
    with pytest.raises(ValueError):
        Cone.zero(2).relative_interior_point()


def test_relative_interior_of_hidden_line():
    c = Cone.from_rays([(1, 1), (-1, -1)])
    p = c.relative_interior_point()
    assert c.contains(p) and p != vec((0, 0))


# -- images and preimages ---------------------------------------------------------


def test_image_identity():
    orthant = Cone.from_hrep([(1, 0), (0, 1)])
    img = orthant.linear_image(mat([(1, 0), (0, 1)]))
    assert img.same_set(orthant)


def test_image_under_quotient_by_diagonal():
    # (2,1) = (3/2)(1,1) + (1/2)(1,-1): the image of the ray through (2,1)
    # in the quotient by span(1,1) is the positive ray, the image of (1,-1)
    from tropsplit.exact import quotient_projection

    P = quotient_projection((1, 1))
    img = Cone.from_rays([(2, 1)]).linear_image(P)
    ref = Cone.from_rays([vec((1, -1))]).linear_image(P)
    assert img.dim() == 1 and img.lineality == ()
    assert img.same_set(ref)


def test_preimage_of_zero_under_projection():
    proj = mat([(1, 0)])
    pre = Cone.zero(1).preimage(proj)
    assert pre.same_set(Cone.from_rays([], [(0, 1)], ambient_dim=2))


def test_image_dim_bound():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rays = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        M = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        c = Cone.from_rays(rays, ambient_dim=n)
        img = c.linear_image(mat(M))
        assert img.dim() <= c.dim()


# -- increasing cones -------------------------------------------------------------


def test_increasing_orthant():
    for n in (1, 2, 3):
        rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        assert is_increasing(Cone.from_hrep(rows))


def test_increasing_diagonal_fails():
    c = Cone.from_hrep([(1, 0), (0, 1)], eqs=[(1, -1)])
    assert not is_increasing(c)


def test_increasing_staircase():
    # {x1 >= x2 >= 0}: slice x2 = 0 is the x1-ray (hand oracle: dim 1)
    c = Cone.from_hrep([(1, -1), (0, 1)])
    assert is_increasing(c)


def test_increasing_rejects_non_orthant():
    with pytest.raises(ValueError):
        is_increasing(Cone.from_rays([(1, -1)]))


def _random_orthant_cone(rng, n):
    """Random cone inside the nonnegative orthant, with structured zero
    patterns so that non-increasing slices occur frequently."""
    k = rng.randint(1, n + 1)
    rays = []
    for _ in range(k):
        r = [0] * n
        support = rng.sample(range(n), rng.randint(1, n))
        for i in support:
            r[i] = rng.randint(0, 4)
        if all(x == 0 for x in r):
            r[rng.randrange(n)] = 1
        rays.append(r)
    return Cone.from_rays(rays, ambient_dim=n)


def test_increasing_equivalences_random():
    """Slice definition == inductive characterization == sequence-tail
    test, on >= 50 random exact cones in dimensions <= 4."""
    rng = random.Random(424242)
    checked = 0
    seen_true = seen_false = 0
    while checked < 60:
        n = rng.randint(1, 4)
        c = _random_orthant_cone(rng, n)
        by_slices = is_increasing(c)
        by_induction = is_increasing_inductive(c)
        scales = [F(rng.randint(1, 5)) for _ in range(n)]
        by_tail = tail_of_sequence_in(c.minimal(), scales)
        assert by_slices == by_induction == by_tail
        checked += 1
        seen_true += by_slices
        seen_false += not by_slices
    assert seen_true >= 5 and seen_false >= 5


def test_increasing_generic_blocks_full_dim():
    """A cone containing increasing combinations of per-block directions is
    top-dimensional exactly when the directions are effectively generic
    (each avoids the proper block slices of the cone's span)."""
    from tropsplit.exact import is_generic_wrt, kernel_basis, rank

    rng = random.Random(1001)
    for trial in range(60):
        dims = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        k = len(dims)
        n = sum(dims)
        etas = []
        for d in dims:
            if d == 1:
                etas.append([rng.choice([1, 2, 3])])
            else:
                etas.append([rng.randint(0, 4), rng.randint(1, 4)])
        # increasing-sequence samples: coefficient tuples (nu^{k-1}, ..., 1)
        gens = []
        for nu in range(1, k + 2):
            coeffs = [F(nu) ** (k - i - 1) for i in range(k)]
            g = []
            for cfac, eta in zip(coeffs, etas):
                g.extend(cfac * F(x) for x in eta)
            gens.append(g)
        if trial % 3 == 0:
            # extra spanning rays produce genuinely generic instances
            for j in range(n):
                gens.append([1 if i == j else 0 for i in range(n)])
        c = Cone.from_rays(gens, ambient_dim=n)
        # per-block effective genericity relative to the span of C
        span = list(c.rays) + list(c.lineality)
        complement = kernel_basis(mat(span), n)
        generic = True
        offset = 0
        for eta, d in zip(etas, dims):
            rows = [row[offset : offset + d] for row in complement]
            rows = [r for r in rows if any(x != 0 for x in r)]
            if rows:
                slice_basis = kernel_basis(mat(rows), d)
                if rank(mat(slice_basis)) < d:
                    generic = generic and is_generic_wrt(
                        [F(x) for x in eta], [slice_basis]
                    ).generic
            offset += d
        if generic:
            assert c.dim() == n
        if c.dim() < n:
            assert not generic


def _random_hrep_rows(rng, n):
    """Rows and equalities of a random cone, mostly cut out of the orthant: the axis
    rows, staircase rows x_i >= c x_j (i < j) and random rows in random
    order, redundant positive rational multiples and sums of them, and
    sometimes rational equalities."""
    rows = []
    if rng.random() < 0.85:
        rows += [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 3)):
        if n > 1 and rng.random() < 0.6:
            i, j = sorted(rng.sample(range(n), 2))
            if rng.random() < 0.2:
                i, j = j, i
            row = [0] * n
            row[i], row[j] = 1, -F(rng.randint(0, 4), rng.randint(1, 2))
        else:
            row = [rng.randint(-2, 2) for _ in range(n)]
        rows.append(row)
    for _ in range(rng.randint(0, 2)):
        if rows:
            c = F(rng.randint(1, 5), rng.randint(1, 3))
            rows.append([c * x + y for x, y in zip(rng.choice(rows), rng.choice(rows))])
    rng.shuffle(rows)
    eqs = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
           for _ in range(rng.choice((0, 0, 0, 1, 2)))]
    return rows, eqs


def test_is_increasing_matches_slice_reference():
    """The ray-support test gives the verdicts (and the orthant error) of
    the frozen test that converts every coordinate slice."""
    rng = random.Random(606)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 6)
        rows, eqs = _random_hrep_rows(rng, n)
        c = Cone.from_hrep(rows, eqs, ambient_dim=n)
        try:
            want = oracles.is_increasing(Cone.from_hrep(rows, eqs, ambient_dim=n))
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                is_increasing(c)
            seen["outside the orthant"] += 1
            continue
        assert is_increasing(c) == want
        seen[want] += 1
        seen["with equalities"] += bool(eqs)
        seen["redundant rows"] += len(c.minimal().ineqs) < len(c.ineqs)
    assert seen[True] >= 50 and seen[False] >= 100, seen
    for key in ("outside the orthant", "with equalities", "redundant rows"):
        assert seen[key] >= 30, seen


def test_is_increasing_runs_no_elimination(monkeypatch):
    """The increasing test reads the last nonzero coordinate of each known
    ray: no ``_rref_int`` call, on increasing and non-increasing cones."""
    cut = cones.orthant_cut(3, [(1, -1, 0), (0, 1, -1)], [])
    flat = cones.orthant_cut(3, [], [(0, 1, -1)])
    staircase = Cone.from_rays([(1, 0, 0), (1, 1, 0), (1, 1, 1)])
    gap = Cone.from_rays([(1, 0, 0), (1, 1, 1)])
    known = [cut, flat, staircase, gap]
    for c in known:
        c.rays
    calls = Counter()
    original = cones._rref_int

    def counted(*args):
        calls["rref"] += 1
        return original(*args)

    monkeypatch.setattr(cones, "_rref_int", counted)
    assert [is_increasing(c) for c in known] == [True, False, True, False]
    assert calls["rref"] == 0


def _orthant_cut_input(rng, s):
    """Cut rows and equalities in R^s: random rows, staircase rows, zero
    rows, repeats and negated axis rows, and sometimes equalities, some of
    them zero."""
    rows = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.1:
            row = [0] * s
        elif kind < 0.4 and s > 1:
            i, j = rng.sample(range(s), 2)
            row = [0] * s
            row[i], row[j] = rng.randint(1, 3), -rng.randint(0, 3)
        elif kind < 0.5:
            row = [-int(k == rng.randrange(s)) for k in range(s)]
        else:
            row = [rng.randint(-3, 3) for _ in range(s)]
        rows.append(row)
    if rows and rng.random() < 0.2:
        rows.append([2 * x for x in rng.choice(rows)])
    eqs = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(rng.choice((0, 0, 0, 1, 2)))]
    if rng.random() < 0.05:
        eqs.append([0] * s)
    return rows, eqs


def test_orthant_cut_matches_minimal_of_the_full_conversion():
    """Cutting the orthant's known rays gives the cone, both sides and the
    dimension that ``Cone(...).minimal()`` gives when it converts the same
    rows plus the orthant rows from the full space, on 2500 seeded inputs
    in R^1..R^5."""
    rng = random.Random(1414)
    seen = Counter()
    for _ in range(2500):
        s = rng.randint(1, 5)
        rows, eqs = _orthant_cut_input(rng, s)
        units = [[int(i == j) for j in range(s)] for i in range(s)]
        got = cones.orthant_cut(s, rows, eqs)
        want = Cone(s, ineqs=rows + units, eqs=eqs).minimal()
        assert (got.ambient_dim, got.rays, got.lineality, got.ineqs, got.eqs, got.dim()) == (
            want.ambient_dim, want.rays, want.lineality, want.ineqs, want.eqs, want.dim()
        ), (s, rows, eqs)
        d = want.dim()
        seen["zero" if d == 0 else "full" if d == s else "lower-dimensional"] += 1
        seen["with equalities"] += bool(eqs)
        seen["zero rows"] += any(not any(r) for r in rows + eqs)
    for key in ("zero", "lower-dimensional", "full", "with equalities", "zero rows"):
        assert seen[key] >= 100, seen


def test_orthant_cut_rejects_rows_of_wrong_dimension():
    with pytest.raises(ValueError, match="wrong dimension"):
        cones.orthant_cut(2, [(1, 2, 3)], [])
    with pytest.raises(ValueError, match="wrong dimension"):
        cones.orthant_cut(3, [], [(1, 2)])


def test_zero_rows_of_wrong_dimension_are_rejected():
    """A zero row is checked before it is dropped: orthant_cut and Cone
    reject one of the wrong length as they reject any other."""
    for ineqs, eqs in (([(0, 0, 0)], []), ([], [(0,)]), ([(1, 0), (0, 0, 0)], [])):
        with pytest.raises(ValueError, match="constraint row of wrong dimension"):
            cones.orthant_cut(2, ineqs, eqs)
        with pytest.raises(ValueError, match="constraint row of wrong dimension"):
            cones.orthant_rows(2, ineqs, eqs)
    for kwargs in ({"ineqs": [(0, 0, 0)]}, {"eqs": [(0,)]},
                   {"rays": [(0, 0, 0)]}, {"lineality": [(1, 0), (0, 0, 0)]}):
        with pytest.raises(ValueError, match="generator of wrong dimension"):
            Cone(2, **kwargs)
    assert cones.orthant_rows(2, [(0, 0), (2, 4)], [(0, 0), (-3, 6)]) == (
        ((1, 2),), ((-1, 2),))


def test_is_increasing_reads_known_rays_without_conversion(monkeypatch):
    calls = Counter()
    original = cones._h_to_v

    def counted(*args):
        calls["dd"] += 1
        return original(*args)

    monkeypatch.setattr(cones, "_h_to_v", counted)
    staircase = Cone.from_rays([(1, 0, 0), (1, 1, 0), (1, 1, 1)])
    assert is_increasing(staircase) and not is_increasing(Cone.from_rays([(1, 1)]))
    assert calls["dd"] == 0
    assert is_increasing(Cone.from_hrep([(1, -1, 0), (0, 1, -1), (0, 0, 1)]))
    assert calls["dd"] == 1  # the cone's own rays, no slice


def test_roundtrip_random():
    """Double-description round-trips preserve the point set on >= 50
    random cones in dimensions <= 4."""
    rng = random.Random(2718)
    for trial in range(60):
        n = rng.randint(1, 4)
        if trial % 2 == 0:
            rays = [[rng.randint(-4, 4) for _ in range(n)]
                    for _ in range(rng.randint(0, n + 2))]
            lin = [[rng.randint(-2, 2) for _ in range(n)]
                   for _ in range(rng.randint(0, 1))]
            c = Cone.from_rays(rays, lin, ambient_dim=n)
            back = Cone.from_hrep(c.ineqs, c.eqs, ambient_dim=n)
        else:
            ineqs = [[rng.randint(-3, 3) for _ in range(n)]
                     for _ in range(rng.randint(0, n + 2))]
            eqs = [[rng.randint(-2, 2) for _ in range(n)]
                   for _ in range(rng.randint(0, 1))]
            c = Cone.from_hrep(ineqs, eqs, ambient_dim=n)
            back = Cone.from_rays(c.rays, c.lineality, ambient_dim=n)
        assert back.same_set(c)


def test_minimal_hrep_has_no_implicit_equalities():
    c = Cone.from_rays([(1, 0)], ambient_dim=2)  # a single ray in the plane
    m = c.minimal()
    assert len(m.eqs) == 1 and len(m.ineqs) == 1


def _count_h_to_v(monkeypatch) -> list:
    calls = []
    original = cones._h_to_v

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_h_to_v", counted)
    return calls


def _reps(c: Cone) -> tuple:
    return c.rays, c.lineality, c.ineqs, c.eqs


def _round_trip(n, ineqs, eqs) -> tuple:
    """The minimal representations of an H-built cone by the full round
    trip: H to V, then V to H."""
    rays, lin = cones._h_to_v(n, ineqs, eqs)[:2]
    return (rays, lin) + cones._h_to_v(n, rays, lin)[:2]


def _random_hreps():
    rng = random.Random(4242)
    out = [
        ([(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 1, 1)], []),  # pointed, redundant row
        ([(1, -1, 0), (0, 1, 0)], [(1, 1, -1)]),  # an equation
        ([(1, 0, 0), (1, 1, 0)], []),  # lineality: the third axis
        ([(1, 0, 0)], [(0, 1, 0), (0, 2, 0)]),  # both, and a repeated equation
        ([], []),  # the full space
    ]
    while len(out) < 30:
        ineqs = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(rng.randint(0, 5))]
        eqs = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(rng.randint(0, 1))]
        out.append((ineqs, eqs))
    return out


@pytest.mark.parametrize("ineqs, eqs", _random_hreps())
def test_minimal_reuses_the_conversion_of_an_h_built_cone(monkeypatch, ineqs, eqs):
    """An H-built cone's V-representation is its own H to V conversion, so
    ``minimal()`` after ``.rays`` runs no conversion, its minimal
    H-representation is read off that conversion's zero-sets, and both
    give what a fresh cone's ``minimal()`` and the full round trip give."""
    fresh = Cone.from_hrep(ineqs, eqs, ambient_dim=3)
    want = _round_trip(3, fresh.ineqs, fresh.eqs)
    assert _reps(fresh.minimal()) == want
    calls = _count_h_to_v(monkeypatch)
    c = Cone.from_hrep(ineqs, eqs, ambient_dim=3)
    c.rays
    assert len(calls) == 1
    m = c.minimal()
    assert len(calls) == 1
    assert _reps(m) == want
    assert len(calls) == 1
    assert m.minimal() is m


def test_minimal_of_a_v_built_cone_runs_one_conversion(monkeypatch):
    """A V-built cone's ``minimal()`` runs V to H, and its extreme rays
    and lineality are read off that conversion's zero-sets over the given
    generators: one conversion, with the values of the full round trip."""
    rays, lin = [(1, 0, 0), (1, 1, 0), (2, 1, 0)], [(0, 0, 1)]
    want = _round_trip(3, *cones._h_to_v(3, rays, lin)[:2])
    calls = _count_h_to_v(monkeypatch)
    c = Cone.from_rays(rays, lin)
    c.rays
    assert calls == []
    m = c.minimal()
    assert len(calls) == 1  # V to H
    assert _reps(m) == want
    assert len(calls) == 1  # the rays read off, no H to V
    assert m.minimal() is m


def test_hrep_of_a_v_built_polyhedron_runs_one_conversion(monkeypatch):
    """``from_vrep(...).hrep()`` is the one V to H conversion of its
    generators; the minimal cone it reads is built from that side."""
    square = Polyhedron.from_vrep(2, vertices=[(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    calls = _count_h_to_v(monkeypatch)
    ineqs, eqs = square.hrep()
    assert len(calls) == 1
    assert sorted(ineqs) == [((-1, 0), 0), ((0, -1), 0), ((0, 1), 2), ((1, 0), 2)]
    assert eqs == []


@pytest.mark.parametrize(
    "reps",
    [{}, {"rays": (), "ineqs": ()}, {"lineality": (), "eqs": ()}],
    ids=["neither", "rays-and-ineqs", "lineality-and-eqs"],
)
def test_a_cone_takes_exactly_one_representation(reps):
    with pytest.raises(ValueError, match="exactly one representation"):
        Cone(2, **reps)


def test_normal_cone_helper():
    c = Cone.from_hrep([(1, -1), (0, 1)])  # x1 >= x2 >= 0
    n = normal_cone_at_first_axis(c)
    assert n.ambient_dim == 1 and n.dim() == 1


def test_int_cone_builds_no_fraction(monkeypatch):
    """A cone built from int rows stays in ints through both conversions
    and the queries, and every representation it stores is int tuples."""
    built = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    c = Cone.from_hrep([(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, -1)])
    m = c.minimal()
    assert c.dim() == m.dim() == 3
    assert c.contains((1, 1, 1)) and not c.contains((0, 0, 5))
    assert c.same_set(m) and m.same_set(c)
    flat = Cone.from_rays([(2, 0, 0)], lineality=[(0, 3, -3)])
    assert flat.dim() == 2 and flat.contains((1, -1, 1)) and not flat.same_set(c)
    cones = (c, m, flat)
    reps = [g for k in cones for g in (k.rays, k.lineality, k.ineqs, k.eqs)]
    monkeypatch.undo()
    assert built == []
    assert flat.lineality == ((0, 1, -1),) and flat.eqs == ((0, 1, 1),)
    assert all(type(x) is int for group in reps for v in group for x in v)


@pytest.mark.parametrize("dim", [2.5, 2.0, True])
def test_cone_rejects_a_non_integer_ambient_dim(dim):
    with pytest.raises(ValueError):
        Cone(dim, rays=())
    with pytest.raises(ValueError):
        Cone(dim, ineqs=())


@pytest.mark.parametrize(
    "kwargs",
    [{"ineqs": [(True, 0)]}, {"eqs": [(0, False)]}, {"rays": [(1, True)]}, {"lineality": [(True, 1)]}],
)
def test_cone_rejects_bool_entries(kwargs):
    """A bool is no exact rational: ``Cone(2, ineqs=[(True, 0)])`` does not
    build the half-plane x1 >= 0."""
    with pytest.raises(ValueError):
        Cone(2, **kwargs)


# -- the double description step and read-off ----------------------------------


def _dd_rows(rng, d, count):
    """Rows in R^d for a sequence of double description steps: random and
    sparse rows, zero rows, negated and scaled earlier rows, and sums of
    two earlier rows, which vanish on the lineality space those two left."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.08:
            row = [0] * d
        elif kind < 0.2 and rows:
            row = [rng.choice((-2, -1, 2)) * x for x in rng.choice(rows)]
        elif kind < 0.35 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            row = [x + y for x, y in zip(a, b)]
        elif kind < 0.6:
            row = [0] * d
            for i in rng.sample(range(d), min(d, 2)):
                row[i] = rng.randint(-3, 3)
        else:
            row = [rng.randint(-3, 3) for _ in range(d)]
        rows.append(tuple(row))
    return rows


def test_dd_step_matches_the_eliminating_step():
    """The elimination-free step returns the lineality basis and the rays,
    with their zero-sets, in the order the frozen step that ran
    ``_rref_int`` and ``_reduce_mod_span`` returns them, on every state
    of seeded conversions in R^1..R^6, over 2000 of them with a row that
    cuts a nonempty lineality space."""
    rng = random.Random(1515)
    seen = Counter()
    for _ in range(900):
        d = rng.randint(1, 6)
        lin, rays = cones._units(d), []
        for idx, a in enumerate(_dd_rows(rng, d, rng.randint(1, d + 2))):
            want = oracles.dd_step(lin, rays, a, 1 << idx)
            assert cones._dd_step(lin, rays, a, 1 << idx) == want, (lin, rays, a)
            if lin:
                cuts = any(sum(x * y for x, y in zip(a, l)) for l in lin)
                seen["nonempty lineality"] += 1
                seen["cut lineality" if cuts else "a vanishes on it"] += 1
                seen["with rays"] += bool(rays)
            lin, rays = want
    assert seen["cut lineality"] >= 2000, seen
    for key in ("a vanishes on it", "with rays"):
        assert seen[key] >= 200, seen


def _with_repeats(rng, d, done, count) -> tuple:
    """``count`` rows of ``_dd_rows`` in R^d to cut after the rows ``done``,
    with exact copies of earlier rows (``done`` too) and zero rows put
    in among them."""
    rows = []
    for a in _dd_rows(rng, d, count):
        if rng.random() < 0.4:
            rows.append(rng.choice([*done, *rows, (0,) * d]))
        rows.append(a)
    return tuple(rows)


def _repeat_kinds(start, done, rows) -> Counter:
    """The rows of ``rows`` equal to a row cut before them, by kind."""
    kinds = Counter()
    for i, a in enumerate(rows):
        if a in done or a in rows[:i]:
            unit = start == "orthant" and a in done  # the orthant's rows are its unit rows
            kinds[start, "zero row" if not any(a) else "unit row" if unit else "repeat"] += 1
    return kinds


def test_cut_matches_one_step_per_row():
    """Every start cuts each distinct row once: from the full space, from
    the orthant with rows equal to its unit rows, and by one-row cuts in
    turn as the toric walk makes them, zero rows included, the cut gives
    the lineality basis, the rays and every zero-set that the frozen cut,
    which stepped once per row, gives (the rays in any order).  Each kind
    of repeat is met often enough to show a cut that drops a twin's bit."""
    rng = random.Random(1717)
    seen = Counter()
    for _ in range(600):
        d = rng.randint(1, 5)
        space, orthant = cones.DDState.space(d), cones.DDState.orthant(d)
        for start, state in (("space", space), ("orthant", orthant)):
            rows = _with_repeats(rng, d, state.rows, rng.randint(1, d + 3))
            got = state.cut(*rows)
            want = oracles.dd_cut(state.lin, state.rays, state.rows, rows)
            assert (got.lin, sorted(got.rays)) == (want[0], sorted(want[1])), (start, rows)
            assert got.rows == state.rows + rows
            seen.update(_repeat_kinds(start, state.rows, rows))
        # the walk: one row a call, each call after the rows of the last
        state = space.cut(*_dd_rows(rng, d, rng.randint(0, d)))
        want = oracles.dd_cut(cones._units(d), [], (), state.rows)
        for a in _with_repeats(rng, d, state.rows, rng.randint(1, d + 3)):
            seen.update(_repeat_kinds("walk", state.rows, (a,)))
            want = oracles.dd_cut(*want, state.rows, (a,))
            state = state.cut(a)
            assert (state.lin, sorted(state.rays)) == (want[0], sorted(want[1])), state.rows
    for start, kind in itertools.product(("space", "orthant", "walk"), ("repeat", "zero row")):
        assert seen[start, kind] >= 100, seen
    assert seen["orthant", "unit row"] >= 100, seen


def _tight_masks(gens, rows) -> tuple:
    """Per generator, the bitmask of the rows it is tight on."""
    return tuple(
        sum(1 << i for i, a in enumerate(rows) if not sum(x * y for x, y in zip(a, g)))
        for g in gens
    )


def _random_h_cone(rng):
    n = rng.randint(1, 5)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 6))]
    if rows and rng.random() < 0.3:
        rows.append([-x for x in rng.choice(rows)])  # an implicit pair
    eqs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.choice((0, 0, 1, 2)))]
    return Cone(n, ineqs=rows, eqs=eqs).minimal()


def _random_v_cone(rng):
    n = rng.randint(1, 5)
    rays = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 5))]
    if rays and rng.random() < 0.3:
        rays.append([-x for x in rng.choice(rays)])  # a line among the rays
    lin = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.choice((0, 0, 1, 2)))]
    return Cone(n, rays=rays, lineality=lin).minimal()


def _random_orthant_cut(rng):
    s = rng.randint(1, 5)
    return cones.orthant_cut(s, *_orthant_cut_input(rng, s))


def _toric_cells(rng):
    for name in ("toric_square", "toric_cube", "hirzebruch_two", "toric_hexagonal_prism"):
        t = getattr(fx, name)()
        toric_cut(t["normals"], t["constants"], t["epsilons"], t["lambda"])


@pytest.mark.parametrize(
    "kind, build, count",
    [
        ("H-built", _random_h_cone, 700),
        ("V-built", _random_v_cone, 700),
        ("orthant cut", _random_orthant_cut, 700),
        ("toric cell", _toric_cells, 1),
    ],
)
def test_read_off_matches_the_kernel_route(monkeypatch, kind, build, count):
    """Every minimal cone that ``Cone.from_state`` builds reads off
    the other side, and its dimension, as the frozen read-off gives them,
    which computed the equalities (on the dual, the lineality) as the
    kernel of the converted side.  The zero-sets it is handed are checked
    against the dot products first.  Zero cones, subspaces and cones with
    implicit rows are counted for each kind that can have them."""
    made = []
    original = Cone.from_state

    def recording(state, rows_given=True):
        cone = original(state, rows_given)
        made.append((cone, state.rows, tuple(z for _, z in state.rays), not rows_given))
        return cone

    monkeypatch.setattr(Cone, "from_state", staticmethod(recording))
    rng = random.Random(f"read-off:{kind}")
    for _ in range(count):
        build(rng)
    monkeypatch.undo()
    seen = Counter()
    for cone, rows, zs, dual in made:
        n = cone.ambient_dim
        if dual:
            gens = (cone.ineqs, cone.eqs)
            got = (cone.rays, cone.lineality)
        else:
            gens = (cone.rays, cone.lineality)
            got = (cone.ineqs, cone.eqs)
        assert zs == _tight_masks(gens[0], rows)
        want = oracles.read_off(n, rows, zs, *gens)
        assert got == want, (kind, rows, zs, gens)
        eqs = cone.eqs
        assert cone.dim() == n - len(eqs) == oracles.rank(mat(cone.rays + cone.lineality))
        seen["cones"] += 1
        seen["zero"] += cone.dim() == 0
        seen["subspace"] += not cone.rays and cone.dim() > 0
        implicit = any(all(z >> i & 1 for z in zs) for i in range(len(rows)))
        seen["implicit rows, with rays"] += implicit and bool(zs)
    minimum = {
        "H-built": ("zero", "subspace", "implicit rows, with rays"),
        "V-built": ("zero", "subspace", "implicit rows, with rays"),
        "orthant cut": ("zero", "implicit rows, with rays"),
        "toric cell": ("implicit rows, with rays",),
    }[kind]
    assert seen["cones"] >= 200, seen
    for key in minimum:
        assert seen[key] >= 20, (kind, seen)


def test_lineality_step_and_read_off_run_no_elimination(monkeypatch):
    """A step that cuts the lineality space makes no ``_rref_int`` and no
    ``_reduce_mod_span`` call; reading a minimal cone's other side makes
    no ``_kernel_int`` call, and no ``_rref_int`` call when no row is
    implicit."""
    calls = Counter()

    def count(name):
        original = getattr(cones, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cones, name, counted)

    for name in ("_rref_int", "_reduce_mod_span", "_kernel_int"):
        count(name)
    lin = cones._units(3)
    lin, rays = cones._dd_step(lin, [], (1, 2, -1), 1)
    lin, rays = cones._dd_step(lin, rays, (0, 1, 1), 2)
    assert (lin, rays) == (((3, -1, 1),), [((0, 1, -1), 2), ((0, 1, 2), 1)])
    assert calls == {}
    # the facets are reduced modulo the equalities, one call per facet
    cut = cones.orthant_cut(3, [(1, -1, 0), (0, 1, -1)], [])
    assert cut.ineqs == ((0, 0, 1), (0, 1, -1), (1, -1, 0)) and cut.eqs == ()
    assert calls == {"_reduce_mod_span": 3}
    flat = cones.orthant_cut(3, [], [(0, 1, -1)])
    assert flat.eqs == ((0, 1, -1),) and flat.dim() == 2
    # one elimination, of the implicit rows (0, 1, -1) and (0, -1, 1)
    assert calls["_rref_int"] == 1 and calls["_kernel_int"] == 0
    half = Cone.from_rays([(1, 0, 0), (0, 1, 0), (-1, 0, 0)], lineality=[(0, 0, 1)])
    m = half.minimal()  # one conversion, V to H, with one _kernel_int call
    calls.clear()
    assert m.lineality == ((1, 0, 0), (0, 0, 1)) and m.rays == ((0, 1, 0),)
    # one elimination, of the lineality and the implicit rays +-(1, 0, 0)
    assert calls["_rref_int"] == 1 and calls["_kernel_int"] == 0


# -- intersections by a state cut --------------------------------------------------


def _seeded_polyhedron(rng, n):
    """A homogenization cone of a random polyhedron in R^n: a few small
    rows, so that cells with lines, empty cells and unbounded ones occur,
    or a face of one, cut by some of its facets."""
    rows = [([rng.randint(-1, 1) for _ in range(n)], rng.randint(-1, 1))
            for _ in range(rng.randint(1, 4))]
    p = Polyhedron.from_hrep(n, ineqs=rows)
    ineqs, _ = p.hrep()
    if ineqs and rng.random() < 0.4:
        p = oracles.intersect_hrep(p, eqs=rng.sample(ineqs, 1))
    return p.cone


def _cut_key(c1, c2):
    """The key of c1 n c2: c1's state cut by the rows that cut c2 out,
    each equality as a pair of rows."""
    ineqs, eqs = c2.given_rows()
    rows = ineqs + tuple(r for e in eqs for r in (e, tuple(-x for x in e)))
    return c1.state().cut(*rows).key()


def test_state_cut_agrees_with_the_converted_intersection():
    """One cone's state, or its minimal form's, cut by another cone's rows
    has the converted intersection's canonical generators.  Seeded pairs
    cover a cone contained in the other, intersections with no ray at a
    positive last coordinate, and faces with and without lineality."""
    rng = random.Random(1996)
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(1, 3)
        c1, c2 = _seeded_polyhedron(rng, n), _seeded_polyhedron(rng, n)
        if rng.random() < 0.3:
            c1 = c1.intersect(c2)  # contained in c2
            seen["contained"] += 1
        want = c1.intersect(c2).key()
        assert _cut_key(c1, c2) == _cut_key(c1.minimal(), c2) == want, (c1, c2)
        if not any(r[-1] > 0 for r in want[0]):
            seen["empty"] += 1
        else:
            seen["face with lineality" if want[1] else "face"] += 1
    assert min(seen[k] for k in ("contained", "empty", "face", "face with lineality")) >= 30, seen


def test_state_cut_tells_a_line_from_a_point_on_it():
    """The line x = 0 and the origin share their rays but not their
    lineality: cut either way round they meet in the origin.  Two
    half-planes meet in the line, and the last axis, which has points at a
    positive last coordinate though no ray, meets ``t >= 0`` in a ray."""
    line = Polyhedron.from_hrep(2, eqs=[((1, 0), 0)]).cone
    point = Polyhedron.from_hrep(2, eqs=[((1, 0), 0), ((0, 1), 0)]).cone
    assert line.key()[0] == point.key()[0]
    assert _cut_key(line, point) == _cut_key(point, line) == point.key()
    left = Polyhedron.from_hrep(2, ineqs=[((1, 0), 0)]).cone
    right = Polyhedron.from_hrep(2, ineqs=[((-1, 0), 0)]).cone
    assert _cut_key(left, right) == _cut_key(right, left) == line.key()
    axis = Cone.from_hrep([], eqs=[(1, 0)])
    upper = Cone.from_hrep([(0, 1)])
    assert axis.key() == ((), ((0, 1),))
    assert _cut_key(axis, upper) == _cut_key(upper, axis) == (((0, 1),), ())


def test_lies_in_any_reads_the_conversion_zero_sets():
    """A given row of an H-built cone is tight on the whole cone exactly
    when it vanishes on every ray and lineality vector, and its minimal
    form's state answers as its own does; so does the state of a cone not
    yet converted and of its minimal form.  Only a cone cut out by rows has
    a state."""
    rng = random.Random(61)
    seen = Counter()
    for _ in range(200):
        n = rng.randint(1, 4)
        ineqs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        eqs = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 1))]
        c = Cone.from_hrep(ineqs, eqs, ambient_dim=n)
        rows, _ = c.given_rows()
        gens = c.rays + c.lineality
        state, minimal = c.state(), c.minimal().state()
        fresh = Cone.from_hrep(ineqs, eqs, ambient_dim=n)
        for i, a in enumerate(rows):
            tight = not any(sum(x * y for x, y in zip(a, g)) for g in gens)
            assert state.lies_in_any([i]) == minimal.lies_in_any([i]) == tight
            assert fresh.state().lies_in_any([i]) == c.minimal().state().lies_in_any([i]) == tight
            seen[tight] += 1
        want = any(not any(sum(x * y for x, y in zip(a, g)) for g in gens) for a in rows)
        for read in (state, minimal, c.state(), c.minimal().state()):
            assert read.lies_in_any(range(len(rows))) == want
    assert min(seen.values()) >= 100, seen
    for generated in (Cone.from_rays([(1, 0)]), Cone.from_rays([(1, 0)]).minimal()):
        with pytest.raises(RuntimeError):
            generated.state()
        with pytest.raises(RuntimeError):
            generated.state().lies_in_any([0])


def test_minimal_rows_are_the_minimal_forms_rows():
    """``minimal_rows()`` is ``minimal()``'s facets and equality basis for
    a cone built from rows, from generators and walked, and a cone built
    from generators answers from its converted side with no minimal form
    built.  A polyhedron's rows are read once and kept."""
    rng = random.Random(62)
    for _ in range(100):
        n = rng.randint(1, 4)
        vecs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        extra = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 1))]
        for make in (lambda: Cone.from_hrep(vecs, extra, ambient_dim=n),
                     lambda: Cone.from_rays(vecs, extra, ambient_dim=n),
                     lambda: cones.DDState.space(n).cut(*map(tuple, vecs)).cone()):
            m = make().minimal()
            assert make().minimal_rows() == (m.ineqs, m.eqs)
        gens = Cone.from_rays(vecs, extra, ambient_dim=n)
        gens.minimal_rows()
        assert gens._minimal is None
    square = Polyhedron.from_vrep(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])
    assert square.rows() is square.rows()
    assert square.rows() == (((-1, 0, 1), (0, -1, 1), (0, 1, 0), (1, 0, 0)), ())


def test_a_walked_cell_gives_the_rows_it_was_cut_by():
    """A walked cell's given rows are the rows its walk cut, before and
    after its minimal rows are read, and so are its state's rows."""
    cell = cones.DDState.space(2).cut((1, 0), (0, 1), (1, 1)).cone()
    before = cell.given_rows()
    assert before == (((1, 0), (0, 1), (1, 1)), ())
    assert cell.ineqs == ((0, 1), (1, 0))  # the minimal rows, read off
    assert cell.given_rows() == before
    assert cell.state().rows == before[0]


def test_a_cone_holds_one_conversion_record(monkeypatch):
    """A cone cut out by rows hands back the one state its conversion left:
    the same object on every call and for its minimal form, with the given
    rows and equality basis, which a cut carries along with no bit.  Every
    minimal cone, of a cone or of a state, is built by ``from_state``; a
    cone given by generators keeps its dual's state, with no state of its
    own to hand back."""
    built = []
    original = Cone.from_state

    def recording(state, rows_given=True):
        built.append((state, rows_given))
        return original(state, rows_given)

    monkeypatch.setattr(Cone, "from_state", staticmethod(recording))
    c = Cone.from_hrep([(1, 0, 0), (0, 1, 0), (1, 1, 0)], eqs=[(0, 0, 2)])
    state = c.state()
    assert c.state() is state and c.minimal().state() is state
    assert (state.rows, state.eqs) == c.given_rows() == (((1, 0, 0), (0, 1, 0), (1, 1, 0)),
                                                          ((0, 0, 1),))
    assert built == [(state, True)]
    cut = state.cut((1, -1, 0))
    assert cut.eqs == state.eqs and cut.rows == state.rows + ((1, -1, 0),)
    assert cut.cone().key() == c.intersect(Cone.from_hrep([(1, -1, 0)])).key()
    assert built[-1][0].rays == sorted(cut.rays)
    g = Cone.from_rays([(1, 0), (1, 1), (0, 1)])
    assert g.minimal().rays == ((0, 1), (1, 0))
    dual, rows_given = built[-1]
    assert not rows_given and dual.rows == ((0, 1), (1, 0), (1, 1)) and dual.eqs == ()
    assert len(built) == 3
    with pytest.raises(RuntimeError):
        g.state()
