import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest

import oracles
from oracles import det, mat, matmul, transpose, vec
from tropsplit.exact import (
    IntegerLattice,
    Subspace,
    _kernel_int,
    _lead,
    _rref_int,
    as_int,
    fr,
    imat,
    invariant_factors,
    is_generic_wrt,
    kernel_basis,
    primitive,
    quotient_projection,
    rank,
    ratvec,
    rref,
    saturate,
    saturated_kernel_lattice,
    smith_kernel,
    smith_normal_form,
    solve,
    unimodular_completion,
)
from tropsplit.serialize import parse_rat

# -- Smith normal form -------------------------------------------------------


def snf_checks(M):
    U, D, V = smith_normal_form(M)
    assert matmul(mat(U), matmul(mat(M), mat(V))) == mat(D)
    assert abs(det(mat(U))) == 1
    assert abs(det(mat(V))) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
            else:
                assert x >= 0
    assert rank(mat(M)) == sum(1 for d in diag if d != 0)
    return diag


def test_snf_identity():
    diag = snf_checks([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert diag == [1, 1, 1]


def test_snf_diag_2_3():
    # elementary-divisor oracle: d1 = gcd of all entries, d1*d2 = |det|
    M = [[2, 0], [0, 3]]
    d1 = gcd(2, 3)
    d1d2 = abs(int(det(mat(M))))
    assert (d1, d1d2 // d1) == (1, 6)
    assert snf_checks(M) == [1, 6]


def framed_cube_relations():
    """Relation matrix of the framed symmetry system of the two-ray cube
    graph: variables (a+, b+, a-, b-, z+, ze, z-), one row per torus
    coordinate of each of the three edges."""
    return [
        # new edge at the inner corner: xi+ = z+ * (2,1,0)
        [1, 0, 0, 0, -2, 0, 0],
        [0, 1, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0],
        # split edge: xi+ - xi- = ze * (-1,-1,-1)
        [1, 0, -1, 0, 0, 1, 0],
        [0, 1, 0, -1, 0, 1, 0],
        [0, 0, 0, 0, 0, 1, 0],
        # new edge at the outer corner: -xi- = z- * (1,2,0)
        [0, 0, -1, 0, 0, 0, -1],
        [0, 0, 0, -1, 0, 0, -2],
        [0, 0, 0, 0, 0, 0, 0],
    ]


def test_snf_framed_cube_relations_torsion_three():
    M = framed_cube_relations()
    snf_checks(M)
    factors, _ = smith_kernel(M)
    assert prod(factors) == 3
    nontrivial = [d for d in invariant_factors(M) if d > 1]
    assert nontrivial == [3]


def test_snf_random_matrices():
    rng = random.Random(20240811)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf_checks(M)


# -- saturation ---------------------------------------------------------------


def lattice_index(basis):
    """Index of a full-rank sublattice: |det| of its basis matrix."""
    return abs(int(det(mat(basis))))


def test_saturate_gcd_scaling():
    L = IntegerLattice(2, ((2, 2),))
    S = saturate(L)
    assert S.basis == ((1, 1),)


def test_saturate_full_rank():
    # (2,0),(0,3) spans Q^2; the saturation is all of Z^2.  Oracle: the
    # fundamental cell of the input holds |det| = 6 lattice points, the
    # saturation's holds exactly one.
    L = IntegerLattice(2, ((2, 0), (0, 3)))
    assert lattice_index(L.basis) == 6
    S = saturate(L)
    assert lattice_index(S.basis) == 1
    assert S.contains((1, 0)) and S.contains((0, 1))


def test_saturate_unimodular_fixed():
    L = IntegerLattice(3, ((1, 0, 0), (0, 1, 1)))
    S = saturate(L)
    assert S.contains((1, 0, 0)) and S.contains((0, 1, 1))
    assert not S.contains((0, 1, 0))


def test_saturate_idempotent_and_span_preserving():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rows = []
        while rank(mat(rows)) < k if rows else True:
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            if rank(mat(rows)) == k:
                break
        L = IntegerLattice(n, tuple(tuple(r) for r in rows))
        S = saturate(L)
        S2 = saturate(S)
        assert S.basis == S2.basis
        for b in L.basis:
            assert S.contains(b)
        for b in S.basis:
            assert oracles.lattice_spans(L, b)


def test_hermite_normal_form_is_lattice_canonical():
    """Unimodular row changes leave the Hermite normal form fixed."""
    from tropsplit.exact import hermite_normal_form

    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        basis = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        if rank(mat(basis)) != k:
            continue
        hnf = hermite_normal_form(basis)
        # shear + swap + negate: same lattice
        changed = [row[:] for row in basis]
        if k >= 2:
            changed[0] = [a + 3 * b for a, b in zip(changed[0], changed[1])]
            changed[0], changed[1] = changed[1], changed[0]
        changed[-1] = [-x for x in changed[-1]]
        assert hermite_normal_form(changed) == hnf
        assert hermite_normal_form(hnf) == hnf


def test_snf_medium_stress():
    rng = random.Random(90210)
    for _ in range(8):
        M = [[rng.randint(-50, 50) for _ in range(6)] for _ in range(6)]
        snf_checks(M)


def random_snf_input(rng):
    """Random integer matrix, 1 x n and m x 1 shapes included, with some
    rows and columns forced to zero."""
    m, n = rng.choice(((1, rng.randint(1, 5)), (rng.randint(1, 5), 1),
                       (rng.randint(1, 5), rng.randint(1, 5))))
    M = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        M[rng.randrange(m)] = [0] * n
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in M:
            row[j] = 0
    return M


def test_snf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices import normalforms

    Matrix, ZZ = sympy.Matrix, sympy.ZZ
    rng = random.Random(1729)
    shapes = set()
    for _ in range(150):
        M = random_snf_input(rng)
        shapes.add((len(M) == 1, len(M[0]) == 1, any(not any(r) for r in M)))
        U, D, V = smith_normal_form(M)
        assert matmul(mat(U), matmul(mat(M), mat(V))) == mat(D)
        assert abs(det(mat(U))) == 1
        assert abs(det(mat(V))) == 1
        want = normalforms.smith_normal_form(Matrix(M), domain=ZZ)
        assert [list(r) for r in D] == [[abs(x) for x in r] for r in want.tolist()]
        sym_factors = normalforms.invariant_factors(Matrix(M), domain=ZZ)
        assert invariant_factors(M) == tuple(abs(int(x)) for x in sym_factors if x != 0)
    # row vectors, column vectors and zero rows all occurred
    assert {(True, False), (False, True)} <= {s[:2] for s in shapes}
    assert any(s[2] for s in shapes)


# -- lattice membership ---------------------------------------------------------


def test_zero_lattice_contains_only_zero():
    L = IntegerLattice(2, ())
    assert L.contains((0, 0))
    assert L.contains((Fraction(0), Fraction(0)))
    assert not L.contains((Fraction(1, 2), 0))
    assert not L.contains((0, Fraction(-1, 3)))
    assert not L.contains((1, 0))


def test_contains_matches_the_elimination_reference():
    """Membership by reduction against the Hermite form agrees with the
    frozen elimination on seeded lattices whose bases are not in Hermite
    form: members, near misses, rational vectors and random ones.  A
    vector of the wrong length raises ValueError on both."""
    from tropsplit.exact import hermite_normal_form

    rng = random.Random(23)
    seen = Counter()
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        basis = ()
        while len(basis) != k or rank(mat(basis)) != k:
            basis = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k))
        L = IntegerLattice(n, basis)
        seen["not in Hermite form"] += hermite_normal_form(basis) != basis
        coeffs = [rng.randint(-3, 3) for _ in basis]
        member = tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n))
        vectors = [
            member,
            tuple(x + rng.randint(-1, 1) for x in member),
            tuple(Fraction(x, 2) for x in member),
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)),
            tuple(rng.randint(-4, 4) for _ in range(n)),
        ]
        for v in vectors:
            got = L.contains(v)
            assert got == oracles.lattice_contains(L, v), (basis, v)
            seen[got] += 1
        for v in (member[:-1], member + (0,)):
            with pytest.raises(ValueError):
                L.contains(v)
            with pytest.raises(ValueError):
                oracles.lattice_contains(L, v)
    assert seen["not in Hermite form"] >= 120 and min(seen[True], seen[False]) >= 200, seen


# -- genericity ----------------------------------------------------------------


def test_generic_containment():
    cert = is_generic_wrt((1, 0), [[(1, 0)]])
    assert not cert.generic and cert.violations == (0,)


def test_generic_avoids_axes():
    cert = is_generic_wrt((3, 7), [[(1, 0)], [(0, 1)]])
    assert cert.generic


def test_generic_cube_span():
    # the non-generic cube direction lies in the plane spanned by the
    # discrepancy ray and the split-edge direction
    cert = is_generic_wrt((1, 1, 0), [[(1, 1, 0), (1, 1, 1)]])
    assert not cert.generic


def test_generic_rejects_full_space():
    with pytest.raises(ValueError):
        is_generic_wrt((1, 1), [[(1, 0), (0, 1)]])


def test_is_generic_wrt_matches_fraction_reference():
    """Integer ranks give the certificate (and the full-space error) of the
    frozen test that ranks ``Fraction`` matrices."""
    rng = random.Random(77)
    seen = Counter()

    def rvec(n):
        if rng.random() < 0.3:
            return tuple(rng.randint(-3, 3) for _ in range(n))
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))

    for _ in range(500):
        n = rng.randint(1, 4)
        family = []
        for _ in range(rng.randint(0, 4)):
            k = n if rng.random() < 0.08 else rng.randint(0, n - 1)
            B = [rvec(n) for _ in range(k)]
            if B and rng.random() < 0.3:  # a dependent spanning vector
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                B.append(tuple(c * x + y for x, y in zip(B[0], B[-1])))
            family.append(B)
        spans = [B for B in family if B]
        if spans and rng.random() < 0.5:  # often a vector of a listed span
            v = [Fraction(0)] * n
            for b in rng.choice(spans):
                c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                v = [x + c * y for x, y in zip(v, b)]
        else:
            v = rvec(n)
        labels = [f"S{i}" for i in range(len(family))] if rng.random() < 0.5 else None
        try:
            want = oracles.is_generic_wrt(v, family, labels)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                is_generic_wrt(v, family, labels)
            seen["full space"] += 1
            continue
        assert is_generic_wrt(v, family, labels) == want
        seen["generic" if want.generic else "violated"] += 1
        seen["several violations"] += len(want.violations) > 1
        seen["zero vector"] += not any(v)
    for key in ("generic", "violated"):
        assert seen[key] >= 100, seen
    for key in ("full space", "several violations", "zero vector"):
        assert seen[key] >= 10, seen


# -- misc kernels --------------------------------------------------------------


def test_quotient_projection_kernel_and_surjectivity():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 4)
        v = [0] * n
        while all(x == 0 for x in v):
            v = [rng.randint(-6, 6) for _ in range(n)]
        u = primitive(v)
        P = quotient_projection(v)
        assert len(P) == n - 1
        assert all(x == 0 for x in (sum(P[i][j] * u[j] for j in range(n)) for i in range(n - 1)))
        assert rank(P) == n - 1
        # integral surjectivity: the rows extend to a unimodular matrix
        U = unimodular_completion(u)
        assert abs(int(det(mat(U)))) == 1


def test_kernel_of_empty_matrix_is_identity():
    kb = kernel_basis((), 3)
    assert len(kb) == 3


# -- rational views of the integer elimination, one-Smith-form lattices ---------


def random_rational_matrix(rng, seen):
    """Random rational matrix with 0 to 5 rows and 1 to 5 columns; some have
    zero rows, rows that are rational combinations of others, or the 1 x n
    and m x 1 shapes.  ``seen`` counts what each draw covers."""
    m, n = rng.choice(((0, rng.randint(1, 5)), (1, rng.randint(1, 5)),
                       (rng.randint(1, 5), 1), (rng.randint(2, 5), rng.randint(2, 5))))

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6)))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.4:
        a, b = rng.sample(range(m), 2)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        rows[rng.randrange(m)] = [c * x + y for x, y in zip(rows[a], rows[b])]
        seen["dependent rows"] += 1
    if m and rng.random() < 0.25:
        rows[rng.randrange(m)] = [Fraction(0)] * n
        seen["zero row"] += 1
    seen["no rows" if m == 0 else "1 x n" if m == 1 else "m x 1" if n == 1 else "m x n"] += 1
    return mat(rows), n


def test_rational_views_match_fraction_elimination():
    """``rref``, ``rank``, ``kernel_basis`` and ``solve`` on ``_rref_int``
    give exactly what the frozen ``Fraction`` Gauss-Jordan gave."""
    rng = random.Random(2718)
    seen = Counter()
    for _ in range(600):
        M, n = random_rational_matrix(rng, seen)
        assert rref(M) == oracles.rref(M)
        assert rank(M) == oracles.rank(M)
        assert kernel_basis(M, n) == oracles.kernel_basis(M, n)
        if not M:
            continue
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        for b in (tuple(sum(a * y for a, y in zip(row, x)) for row in M),
                  tuple(Fraction(rng.randint(-5, 5)) for _ in M)):
            want = oracles.solve(M, b)
            assert solve(M, b) == want
            seen["inconsistent" if want is None else "solved"] += 1
    for key in ("no rows", "1 x n", "m x 1", "m x n", "zero row", "dependent rows",
                "inconsistent", "solved"):
        assert seen[key] >= 40, seen


def random_int_rows(rng):
    """Random raw integer rows, 0 to 5 of them with 1 to 5 columns, as
    ``_rref_int`` is handed them: not primitive, zero or led by a negative
    entry, dependent, all zero, or in the 1 x n and m x 1 shapes."""
    m, n = rng.choice(((0, rng.randint(1, 5)), (1, rng.randint(1, 5)),
                       (rng.randint(2, 5), 1), (rng.randint(2, 5), rng.randint(2, 5))))
    rows = [[0 if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(n)]
            for _ in range(m)]
    if m >= 2 and rng.random() < 0.4:
        a, b = rng.sample(range(m), 2)
        c, d = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[rng.randrange(m)] = [c * x + d * y for x, y in zip(rows[a], rows[b])]
    for row in rows:
        if rng.random() < 0.3:
            row[:] = [rng.choice((-6, 2, 3, 4)) * x for x in row]
    if m and rng.random() < 0.25:
        rows[rng.randrange(m)] = [0] * n
    if m and rng.random() < 0.12:
        rows = [[0] * n for _ in range(m)]
    return [tuple(row) for row in rows]


def int_row_kinds(rows) -> set:
    """What a list of integer rows covers, read off the rows themselves."""
    nonzero = [r for r in rows if any(r)]
    kinds = {"no rows" if not rows else "1 x n" if len(rows) == 1
             else "m x 1" if len(rows[0]) == 1 else "m x n"}
    if rows and not nonzero:
        kinds.add("all-zero matrix")
    if nonzero and len(nonzero) < len(rows):
        kinds.add("zero row")
    if any(gcd(*r) > 1 for r in nonzero):
        kinds.add("non-primitive row")
    if any(next(x for x in r if x) < 0 for r in nonzero):
        kinds.add("negative leading entry")
    if nonzero and oracles.rank(mat(nonzero)) < len(nonzero):
        kinds.add("dependent rows")
    return kinds


def test_rref_int_on_raw_integer_rows_matches_fraction_elimination():
    """``_rref_int`` on raw integer rows, not only on the primitive rows
    its views pass, gives the nonzero rows of the frozen ``Fraction``
    Gauss-Jordan scaled to sign-normalized primitive int rows, their
    pivots strictly increasing, from a list or from an iterator."""
    rng = random.Random(3141)
    seen = Counter()
    for k in range(500):
        rows = random_int_rows(rng)
        R, pivots = oracles.rref(mat(rows))
        want = tuple(oracles.sign_normalized(R[i]) for i in range(len(pivots)))
        got = _rref_int(rows if k % 2 else iter(rows))
        assert got == want, rows
        assert all(type(x) is int for row in got for x in row), rows
        leads = [_lead(row) for row in got]
        assert leads == sorted(set(leads)), rows
        seen.update(int_row_kinds(rows))
    for key in ("no rows", "1 x n", "m x 1", "m x n", "all-zero matrix", "zero row",
                "non-primitive row", "negative leading entry", "dependent rows"):
        assert seen[key] >= 40, seen


def test_views_return_fractions_on_int_input():
    assert rref(((1, 2), (3, 4))) == (((1, 0), (0, 1)), (0, 1))
    assert solve(((2,),), (1,)) == (Fraction(1, 2),)
    entries = [
        *(x for row in rref(((1, 2), (3, 4), (0, 0)))[0] for x in row),
        *(x for row in rref(((2, 4, 1), (1, 2, 0)))[0] for x in row),
        *(x for v in kernel_basis(((2, 4, 6),)) for x in v),
        *(x for v in kernel_basis((), 2) for x in v),
        *solve(((2, 1), (0, 3)), (1, 1)),
        *solve(((2, 4),), (3,)),
    ]
    assert entries and all(type(x) is Fraction for x in entries), entries


def independent_int_rows(rng, n, k):
    """k independent integer rows in Z^n, some scaled so that their lattice
    is not saturated."""
    while True:
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        if oracles.rank(mat(rows)) == k:
            return [[rng.choice((1, 1, 2, 3)) * x for x in r] for r in rows]


def test_lattices_match_inverse_smith_saturation():
    """``saturated_kernel_lattice`` and ``saturate`` from one Smith form give
    the lattices of the frozen inverse-of-V construction; membership agrees
    with an exact rational solve."""
    rng = random.Random(1618)
    seen = Counter()
    for _ in range(500):
        M, n = random_rational_matrix(rng, seen)
        K = saturated_kernel_lattice(M, n)
        assert K == oracles.saturated_kernel_lattice(M, n)
        seen["zero kernel" if not K.basis else "full kernel" if len(K.basis) == n
             else "proper kernel"] += 1
        k = rng.randint(0, n)
        L = IntegerLattice(n, tuple(map(tuple, independent_int_rows(rng, n, k))) if k else ())
        S = saturate(L)
        assert S == oracles.saturate(L)
        seen["empty lattice" if k == 0 else "full rank" if k == n else "proper lattice"] += 1
        for v in (*L.basis, *S.basis, tuple(rng.randint(-3, 3) for _ in range(n)),
                  tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(n))):
            sol = oracles.solve(transpose(mat(L.basis)), vec(v)) if L.basis else None
            want = (sol is not None and all(x.denominator == 1 for x in sol)) if L.basis \
                else all(x == 0 for x in v)
            assert L.contains(v) == want
            assert oracles.lattice_spans(L, v) == (
                (sol is not None) if L.basis else all(x == 0 for x in v))
            seen["member" if want else "non-member"] += 1
    for key in ("zero kernel", "full kernel", "proper kernel", "empty lattice",
                "full rank", "proper lattice", "member", "non-member"):
        assert seen[key] >= 40, seen


# -- strict integer coercion ------------------------------------------------------


@pytest.mark.parametrize("bad", [1.5, True, Fraction(3, 2), "3/2", "x", 2.0, None])
def test_imat_rejects_inexact_integers(bad):
    with pytest.raises(ValueError, match="expected an integer"):
        imat(((1, bad),))
    with pytest.raises(ValueError, match="expected an integer"):
        smith_normal_form(((bad, 0),))


def test_imat_keeps_exact_integers():
    assert imat(((1, Fraction(4, 2), "-3"),)) == ((1, 2, -3),)
    assert all(type(x) is int for x in imat(((Fraction(6, 3), "7"),))[0])


@pytest.mark.parametrize("bad", [1.5, None, Fraction(1, 2), "x" * 78, [0] * 26, {"b": [1.5], "a": 0}])
def test_as_int_shows_a_short_value_whole(bad):
    """A value whose repr is at most 80 characters is shown as repr shows it."""
    assert len(repr(bad)) <= 80
    with pytest.raises(ValueError) as info:
        as_int(bad)
    assert str(info.value) == f"expected an integer, got {bad!r}"


def test_as_int_cuts_a_long_or_deep_value():
    """A longer value is cut to 80 characters, and a value nested deeper
    than ``repr`` reaches is shown seven levels deep: the message stays one
    short line, and never raises ``RecursionError`` itself."""
    for bad in ([0] * 27, [0] * 2000, "x" * 79):
        with pytest.raises(ValueError) as info:
            as_int(bad)
        assert str(info.value) == f"expected an integer, got {repr(bad)[:77]}..."
    deep = []
    for _ in range(100000):
        deep = [deep]
    with pytest.raises(ValueError) as info:
        as_int(deep)
    assert str(info.value) == "expected an integer, got [[[[[[[...]]]]]]]"


COERCIONS = {"fr": fr, "ratvec": lambda x: ratvec([x]), "as_int": as_int,
             "parse_rat": parse_rat}


@pytest.mark.parametrize("name", sorted(COERCIONS))
def test_coercions_refuse_a_zero_denominator(name):
    """``fr`` alone turns a zero denominator into a ValueError, and every
    coercion that reads a string through it raises the same."""
    with pytest.raises(ValueError):
        COERCIONS[name]("1/0")


@pytest.mark.parametrize("name", sorted(COERCIONS))
def test_coercions_cut_a_long_value(name):
    """A 5000-character string outside the rational grammar gives one
    short line, its message's words and the value cut to 80 characters
    (``as_int``'s 25 characters of words are the most)."""
    with pytest.raises(ValueError) as info:
        COERCIONS[name]("x" * 5000)
    assert str(info.value).endswith(repr("x" * 5000)[:77] + "...")
    assert len(str(info.value)) <= 25 + 80


# -- the integer fast path of primitive ------------------------------------------


def _primitive_by_fractions(a):
    """Every entry made a ``Fraction``, scaled by the lcm of the
    denominators and divided by the gcd: the rational route."""
    q = [Fraction(x) for x in a]
    den = 1
    for x in q:
        den = den * x.denominator // gcd(den, x.denominator)
    num = [x.numerator * (den // x.denominator) for x in q]
    g = gcd(*num)
    return tuple(x // g for x in num) if g > 1 else tuple(num)


def test_primitive_matches_the_fraction_route():
    """Seeded int, integral-``Fraction``, mixed, zero, negative and large
    vectors give the same int tuple as the all-``Fraction`` route."""
    rng = random.Random(12)
    seen = Counter()
    for _ in range(2400):
        n = rng.randint(0, 6)
        kind = rng.choice(("int", "integral fraction", "mixed", "zero", "large"))
        if kind == "zero":
            a = [0] * n
        elif kind == "large":
            a = [rng.choice((-1, 1)) * rng.randrange(10**30) * rng.choice((1, 2, 6))
                 for _ in range(n)]
        else:
            a = [rng.randint(-12, 12) * rng.choice((1, 1, 3, 4)) for _ in range(n)]
        if kind == "integral fraction":
            a = [Fraction(x) for x in a]
        elif kind == "mixed":
            a = [rng.choice((x, Fraction(x), Fraction(x, rng.randint(1, 5)))) for x in a]
        for v in (a, tuple(a), iter(a)):
            got = primitive(v)
            assert got == _primitive_by_fractions(a), a
            assert type(got) is tuple and all(type(x) is int for x in got), a
        seen[kind] += 1
        seen["negative"] += any(x < 0 for x in a)
        seen["all int"] += all(type(x) is int for x in a)
    for key in ("int", "integral fraction", "mixed", "zero", "large"):
        assert seen[key] >= 400, seen
    assert seen["negative"] >= 1000 and seen["all int"] >= 1000, seen


@pytest.mark.parametrize("bad", [(1.0, 2), (2, 0.5), (Fraction(1, 2), 1.5), (0.0,)])
def test_primitive_still_rejects_floats(bad):
    with pytest.raises(TypeError):
        primitive(bad)


@pytest.mark.parametrize("call", [fr, lambda x: vec((x, 1)), lambda x: primitive((x, 0))])
@pytest.mark.parametrize("flag", [True, False])
def test_bools_are_not_rationals(call, flag):
    with pytest.raises(ValueError):
        call(flag)


def test_hyperplane_slice_matches_the_eliminated_kernel():
    """``Subspace.hyperplane(c)`` is the span of the kernel of the one row
    c as two eliminations and two kernels give it, the same annihilator,
    on seeded integer rows in R^1..R^5, the zero row included."""
    rng = random.Random(36)
    zero = 0
    for n in range(1, 6):
        for _ in range(300):
            c = tuple(rng.choice((0, 0, 1, -1, 2, -3, 4, -6, 9)) for _ in range(n))
            zero += not any(c)
            want = Subspace.spanned_by(_kernel_int(_rref_int([c]), n), n)
            assert Subspace.hyperplane(c) == want, c
        assert Subspace.hyperplane((0,) * n) == Subspace.spanned_by(_kernel_int((), n), n)
    assert zero >= 20, zero
