"""Independent cross-checks of the double description conversions.

The brute-force oracle enumerates candidate extreme rays of a pointed cone
as kernel lines of (d-1)-subsets of the constraint rows, keeps the feasible
sign, and drops conic-hull duplicates.  It shares no code path with the
incremental algorithm.  The integer-only conversion is also compared, for
exact equality, with the frozen ``Fraction`` implementation in
``oracles.py``, both passed through the same canonical reduction.
"""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from oracles import kernel_basis, mat, rank, vec, vneg
from tropsplit.cones import Cone, _h_to_v
from tropsplit.exact import is_zero_vec, primitive, vdot


def brute_force_rays(n, rows):
    """Extreme rays of {x : a.x >= 0} assuming the cone is pointed."""
    rows = [vec(r) for r in rows if not is_zero_vec(vec(r))]
    candidates = set()
    for subset in itertools.combinations(range(len(rows)), n - 1):
        sub = mat([rows[i] for i in subset])
        if rank(sub) != n - 1:
            continue
        (line,) = kernel_basis(sub, n)
        for cand in (vec(line), vneg(vec(line))):
            if all(vdot(a, cand) >= 0 for a in rows):
                candidates.add(tuple(primitive(cand)))
    # drop candidates lying on a face spanned by the others (non-extreme):
    # r is extreme iff the tight set at r is (n-1)-dimensional
    out = []
    for cand in sorted(candidates):
        tight = [a for a in rows if vdot(a, vec(cand)) == 0]
        if rank(mat(tight)) == n - 1:
            out.append(vec(cand))
    return set(out)


def random_pointed_hrep(rng, n):
    """Constraint rows that keep the cone pointed (include a simplex of
    axis constraints, then add random cuts)."""
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, n + 1)):
        rows.append([rng.randint(-3, 3) for _ in range(n)])
    return rows


def test_h_to_v_matches_brute_force():
    rng = random.Random(987)
    trials = 0
    while trials < 50:
        n = rng.randint(2, 4)
        rows = random_pointed_hrep(rng, n)
        c = Cone.from_hrep(rows)
        if c.dim() < 2:
            continue
        trials += 1
        assert not c.lineality
        expected = brute_force_rays(n, rows)
        assert set(c.rays) == expected, (rows, c.rays, expected)


def test_insertion_order_irrelevant():
    rng = random.Random(555)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(1, 2 * n))]
        c1 = Cone.from_hrep(rows, ambient_dim=n)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        c2 = Cone.from_hrep(shuffled, ambient_dim=n)
        assert c1.same_set(c2)
        # canonical minimal representations agree exactly
        m1, m2 = c1.minimal(), c2.minimal()
        assert m1.rays == m2.rays
        assert m1.lineality == m2.lineality
        assert m1.ineqs == m2.ineqs
        assert m1.eqs == m2.eqs


def test_double_dual_is_identity():
    rng = random.Random(808)
    for _ in range(50):
        n = rng.randint(1, 4)
        rays = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(1, n + 2))]
        c = Cone.from_rays(rays, ambient_dim=n)
        dual = Cone.from_hrep(c.rays, ambient_dim=n)  # C* as an H-cone
        # C** = C for closed convex cones
        ddual = Cone(n, ineqs=dual.rays, eqs=dual.lineality)
        assert ddual.same_set(c)


def random_differential_input(rng):
    """Rows mixing non-integral rationals, zero rows, duplicate and
    negated rows (which make lineality), with optional equalities.  Some
    inputs start from rescaled axis constraints, so that pointed cones
    with many rays occur as well."""
    n = rng.randint(1, 5)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))

    def row():
        return [entry() for _ in range(n)]

    ineqs = []
    if rng.random() < 0.4:
        for i in range(n):
            scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            ineqs.append([scale if j == i else Fraction(0) for j in range(n)])
    ineqs += [row() for _ in range(rng.randint(0, 2 * n))]
    for _ in range(rng.randint(0, 2)):
        if not ineqs:
            break
        base = rng.choice(ineqs)
        kind = rng.choice(("zero", "duplicate", "negated", "scaled"))
        if kind == "zero":
            new = [Fraction(0)] * n
        elif kind == "duplicate":
            new = list(base)
        elif kind == "negated":
            new = [-x for x in base]
        else:
            new = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) * x for x in base]
        ineqs.insert(rng.randint(0, len(ineqs)), new)
    eqs = [row() for _ in range(rng.choice((0, 0, 1, 2)))]
    if eqs and rng.random() < 0.3:
        eqs.append([Fraction(0)] * n)
    return n, ineqs, eqs


def test_h_to_v_matches_fraction_reference():
    """The integer-only conversion returns exactly what the frozen
    Fraction implementation returns, as primitive integer tuples, once both
    are put in the form canonical for the set, which the integer one
    already returns; each ray comes with the bitmask of the inequalities it
    is tight on.  The conversion takes the rows in the canonical form a
    ``Cone`` holds them (nonzero primitive rows, an rref equality basis);
    the frozen one takes the raw rows."""
    rng = random.Random(31337)
    with_lineality = with_eqs = repeated = repeated_on_kernel = 0
    for _ in range(600):
        n, ineqs, eqs = random_differential_input(rng)
        rows, basis = Cone(n, ineqs=ineqs, eqs=eqs).given_rows()
        # rows that repeat as given, or only once restricted to the nonzero
        # kernel of the equalities, take the conversion's repeat path
        if len(basis) < n:
            restricted = rows
            if basis:
                K = kernel_basis(mat(basis), n)
                restricted = [primitive([vdot(vec(a), k) for k in K]) for a in rows]
            if len(set(rows)) < len(rows):
                repeated += 1
            elif len(set(restricted)) < len(restricted):
                repeated_on_kernel += 1
        got = _h_to_v(n, rows, basis)
        want = oracles._h_to_v(n, ineqs, eqs)
        assert oracles.canonical_vrep(*got[:2]) == oracles.canonical_vrep(*want), (
            n, ineqs, eqs)
        assert got[:2] == oracles.canonical_vrep(*got[:2]), (n, ineqs, eqs)
        assert got[2] == tuple(
            sum(1 << i for i, a in enumerate(rows) if vdot(vec(a), vec(r)) == 0)
            for r in got[0]
        )
        for group in got[:2]:
            for v in group:
                assert all(type(x) is int for x in v)
        with_lineality += bool(got[1]) and bool(got[0])
        with_eqs += bool(eqs)
    # the sample reaches cones with both rays and lineality, equalities,
    # and rows that repeat before or only after the kernel transform
    assert with_lineality >= 50 and with_eqs >= 150
    assert repeated >= 100 and repeated_on_kernel >= 15, (repeated, repeated_on_kernel)


def test_h_to_v_rejects_rows_of_wrong_dimension():
    with pytest.raises(ValueError):
        _h_to_v(2, [(1, 2, 3)], [])
    with pytest.raises(ValueError):
        _h_to_v(3, [(1, 0, 0)], [(1, 2)])


def _redundant(rng, vectors, lin):
    """A non-minimal description of the cone of ``vectors`` and the span
    ``lin``: the vectors rescaled, a sum of two of them, and one spanning
    vector given as a pair of opposite vectors instead of in ``lin``."""
    scales = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in vectors]
    vectors = [[c * x for x in v] for c, v in zip(scales, vectors)]
    if len(vectors) >= 2:
        a, b = rng.sample(vectors, 2)
        vectors.append([x + y for x, y in zip(a, b)])
    lin = list(lin)
    if lin and rng.random() < 0.5:
        l = lin.pop(rng.randrange(len(lin)))
        vectors += [list(l), [-x for x in l]]
    rng.shuffle(vectors)
    return vectors, lin


def random_set_descriptions(rng):
    """One cone given twice: by rows and by generators.  One side is drawn
    at random, with a row given also negated (an equality it does not
    state) or a generator given also negated (a line it does not state);
    the other side is the frozen ``Fraction`` conversion of it, made
    redundant with ``_redundant``."""
    n = rng.randint(1, 5)

    def vector():
        return [rng.randint(-3, 3) for _ in range(n)]

    first = [vector() for _ in range(rng.randint(0, n + 2))]
    if first and rng.random() < 0.5:
        first.append([-x for x in rng.choice(first)])
    span = [vector() for _ in range(rng.choice((0, 0, 1, 2)))]
    other = _redundant(rng, *oracles._h_to_v(n, first, span))
    if rng.random() < 0.5:
        return n, "H", (first, span), other
    return n, "V", other, (first, span)


def _inside(rays, lin, ineqs, eqs) -> bool:
    """Whether every generator satisfies every row, in ``Fraction``
    arithmetic with no cone code."""
    gens = [vec(g) for g in rays] + [vec(l) for l in lin] + [vneg(vec(l)) for l in lin]
    return all(vdot(vec(a), g) >= 0 for a in ineqs for g in gens) and not any(
        vdot(vec(e), g) for e in eqs for g in gens)


def test_one_canonical_minimal_form_per_set():
    """Whatever describes a set, its minimal form is the same: the cone
    built from rows, the cone built from generators, and every cone
    rebuilt from either side of their minimal forms give identical rays,
    lineality, inequalities and equalities.  That form is the set of the
    frozen round trip (H to V to H, or V to H to V), and has its
    dimension."""
    rng = random.Random(1729)
    seen = {"H": 0, "V": 0, "unstated equality": 0, "unstated line": 0}
    for _ in range(1000):
        n, built, (ineqs, eqs), (rays, lin) = random_set_descriptions(rng)
        h = Cone(n, ineqs=ineqs, eqs=eqs)
        v = Cone(n, rays=rays, lineality=lin)
        m = h.minimal() if built == "H" else v.minimal()
        want = (m.rays, m.lineality, m.ineqs, m.eqs)
        rebuilt = [
            Cone(n, ineqs=k.ineqs, eqs=k.eqs) for k in (h.minimal(), v.minimal())
        ] + [Cone(n, rays=k.rays, lineality=k.lineality) for k in (h.minimal(), v.minimal())]
        for c in [h, v] + rebuilt:
            k = c.minimal()
            assert (k.rays, k.lineality, k.ineqs, k.eqs) == want, (n, built, ineqs, eqs, rays, lin)
        if built == "H":
            o_rays, o_lin = oracles._h_to_v(n, ineqs, eqs)
            o_ineqs, o_eqs = oracles._h_to_v(n, o_rays, o_lin)
        else:
            o_ineqs, o_eqs = oracles._h_to_v(n, rays, lin)
            o_rays, o_lin = oracles._h_to_v(n, o_ineqs, o_eqs)
        assert _inside(m.rays, m.lineality, o_ineqs, o_eqs)
        assert _inside(o_rays, o_lin, m.ineqs, m.eqs)
        o_dim = rank(mat(list(o_rays) + list(o_lin))) if o_rays or o_lin else 0
        assert h.dim() == v.dim() == m.dim() == o_dim
        seen[built] += 1
        seen["unstated equality"] += len(m.eqs) > (rank(mat(eqs)) if eqs else 0)
        seen["unstated line"] += len(m.lineality) > (rank(mat(lin)) if lin else 0)
    assert min(seen.values()) >= 200, seen
