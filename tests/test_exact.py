import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

import oracles
from tropsplit.exact import (
    IntegerLattice,
    det,
    invariant_factors,
    is_generic_wrt,
    kernel_basis,
    mat,
    matmul,
    primitive,
    quotient_projection,
    rank,
    saturate,
    smith_normal_form,
    torsion_order,
    unimodular_completion,
)

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
    assert torsion_order(M) == 3
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
            assert L.spans(b)


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
