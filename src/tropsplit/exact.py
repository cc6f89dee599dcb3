"""Exact rational and integer linear algebra.

Everything here runs on arbitrary-precision integers and
``fractions.Fraction``; no operation in this package ever produces a float.
There is one Gauss-Jordan elimination, the fraction-free ``_rref_int`` on
integer rows, and ``rref``, ``rank``, ``kernel_basis`` and ``solve`` are its
``Fraction`` views: the rational rref of a matrix is unique, so they are
exact.  Kernel lattices come from one Smith form U M V = D: the columns of V
past the rank span the saturated kernel.  ``primitive`` scales a rational
vector to integer form (an int vector only by its gcd), ``ratvec`` keeps
int entries as ints, and ``as_int`` is the one strict integer coercion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

Vec = tuple  # tuple of exact rationals: Fraction, or int (cone generators and rows)
Mat = tuple  # tuple of Vec


# ---------------------------------------------------------------------------
# vectors


def fr(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction.

    Floats raise TypeError and bools ValueError: neither is an exact
    rational.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact arithmetic")
    if isinstance(x, bool):
        raise ValueError(f"expected a rational, got {x!r}")
    return Fraction(x)


def as_int(x) -> int:
    """Exact value of an int, an integral ``Fraction`` or an integer string.

    Bools, floats and non-integral values raise ValueError; nothing is
    rounded.
    """
    if type(x) is int:
        return x
    try:
        q = Fraction(x) if isinstance(x, (Fraction, str)) else None
    except (ValueError, ZeroDivisionError):
        q = None
    if q is None or q.denominator != 1:
        raise ValueError(f"expected an integer, got {x!r}")
    return q.numerator


def ratvec(xs) -> Vec:
    """Exact vector that keeps int entries as ints; the others go through
    ``fr``, so floats and bools are rejected.  For integer arithmetic and
    comparisons: ``/`` on an int entry gives a float."""
    return tuple([x if type(x) is int else fr(x) for x in xs])


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def _dot(a, b):
    """Dot product without a ``Fraction`` start value: an int on int rows."""
    return sum(map(mul, a, b))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def gcd_reduce(v) -> tuple:
    """Integer vector divided by the gcd of its entries (zeros stay zeros)."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


_INT = frozenset((int,))


def primitive(a) -> tuple:
    """Primitive integer vector positively proportional to a rational one.

    An all-int vector is only divided by its gcd.  Otherwise int entries
    pass through and the others are coerced with ``fr``, so floats and
    bools are rejected, and the vector is scaled by the lcm of the
    denominators first.  The zero vector maps to zeros.
    """
    if not isinstance(a, (tuple, list)):
        a = tuple(a)  # read twice below
    if set(map(type, a)) <= _INT:  # every entry is exactly an int, so no bool
        return gcd_reduce(a)
    a = ratvec(a)
    l = lcm(*(x.denominator for x in a))
    return gcd_reduce([x.numerator * (l // x.denominator) for x in a])


# ---------------------------------------------------------------------------
# elimination: one integer Gauss-Jordan and its rational views


def _rref_int(rows) -> tuple:
    """Fraction-free Gauss-Jordan elimination on integer rows.

    Returns the nonzero rows of the reduced row echelon form, each scaled
    to a primitive integer vector with a positive pivot.  A pivot row is
    negated when its pivot is negative; every other step combines two rows
    as ``p*row - row[c]*pivot_row`` with ``p > 0`` and divides by the gcd.
    The result is the sign-normalized primitive form of the rational rref
    rows; its length is the rank.
    """
    rows = [r for r in rows if any(r)]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        piv = rows[pr]
        if piv[c] < 0:
            piv = tuple(-x for x in piv)
        rows[pr] = rows[r]
        rows[r] = piv
        p = piv[c]
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                rows[i] = gcd_reduce([p * x - f * y for x, y in zip(rows[i], piv)])
        r += 1
    return tuple(map(gcd_reduce, rows[:r]))


def _lead(row) -> int:
    """Column of the first nonzero entry: the pivot of an rref row."""
    return next(i for i, x in enumerate(row) if x)


def _kernel_int(R, n: int) -> list:
    """Primitive integer basis of the kernel of a matrix in the form that
    ``_rref_int`` returns, one vector per free column in increasing order;
    the vector of free column c is positive at c and zero at every other
    free column."""
    pivots = [_lead(row) for row in R]
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        l = lcm(*(row[pc] for row, pc in zip(R, pivots)))
        v = [0] * n
        v[fc] = l
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc] * (l // row[pc])
        basis.append(gcd_reduce(v))
    return basis


def rref(M: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form of a rational matrix, as ``Fraction`` rows.

    Returns (R, pivot_columns): all m rows of R, the zero rows last.  Each
    row of ``_rref_int`` on the primitive rows is divided by its pivot.
    """
    R = _rref_int(map(primitive, M))
    pivots = tuple(map(_lead, R))
    zero = (Fraction(0),) * (len(M[0]) if M else 0)
    rows = tuple(tuple(Fraction(x, row[p]) for x in row) for row, p in zip(R, pivots))
    return rows + (zero,) * (len(M) - len(R)), pivots


def rank(M: Mat) -> int:
    return len(_rref_int(map(primitive, M)))


def kernel_basis(M: Mat, n: int | None = None) -> list[Vec]:
    """Basis of the right kernel {x : M x = 0}, in canonical order: one
    ``Fraction`` vector per free column, 1 there and 0 at the other free
    columns.

    ``n`` gives the ambient dimension when M has no rows.
    """
    if M:
        n = len(M[0])
    elif n is None:
        raise ValueError("ambient dimension required for a matrix without rows")
    R = _rref_int(map(primitive, M))
    pivots = set(map(_lead, R))
    free = (c for c in range(n) if c not in pivots)
    return [tuple(Fraction(x, v[c]) for x in v) for c, v in zip(free, _kernel_int(R, n))]


def solve(M: Mat, b: Vec) -> Vec | None:
    """One exact solution of M x = b, or None if inconsistent; the free
    variables are 0."""
    if not M:
        return ()
    n = len(M[0])
    x = [Fraction(0)] * n
    aug = (primitive(tuple(row) + (bb,)) for row, bb in zip(M, b, strict=True))
    for row in _rref_int(aug):
        p = _lead(row)
        if p == n:
            return None
        x[p] = Fraction(row[n], row[p])
    return tuple(x)


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form and lattices


def imat(rows) -> tuple:
    """Integer matrix of exact integer entries, coerced with ``as_int``."""
    return tuple(tuple(map(as_int, r)) for r in rows)


def smith_normal_form(M) -> tuple[tuple, tuple, tuple]:
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U*M*V = D, D diagonal with d1 | d2 | ... >= 0,
    and U, V unimodular.
    """
    A = [list(r) for r in imat(M)]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        A[dst] = [a - q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def addmul_col(dst, src, q):
        for row in A:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    t = 0
    while t < min(m, n):
        # deterministic pivot: smallest nonzero absolute value, ties row-major
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    addmul_row(i, t, q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    addmul_col(j, t, q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # divisibility of the remaining block
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, -1)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return (
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in A),
        tuple(tuple(r) for r in V),
    )


def hermite_normal_form(rows) -> tuple:
    """Row-style Hermite normal form of the lattice spanned by integer rows.

    The result is the canonical basis of the lattice: echelon shape,
    positive pivots, entries above each pivot reduced into [0, pivot).
    Zero rows are dropped.
    """
    A = [list(r) for r in imat(rows)]
    m = len(A)
    n = len(A[0]) if m else 0
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, m):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    if A[i][c] != 0:
                        A[r], A[i] = A[i], A[r]
                        changed = True
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        r += 1
    return tuple(tuple(row) for row in A[:r])


def invariant_factors(M) -> tuple[int, ...]:
    _, D, _ = smith_normal_form(M)
    return tuple(D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i] != 0)


@dataclass(frozen=True)
class IntegerLattice:
    """Sublattice of Z^n given by an independent integer basis."""

    ambient_dim: int
    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", imat(self.basis))
        for b in self.basis:
            if len(b) != self.ambient_dim:
                raise ValueError("basis vector of wrong dimension")
        if len(_rref_int(self.basis)) != len(self.basis):
            raise ValueError("lattice basis is not linearly independent")

    @cached_property
    def _echelon(self) -> tuple:
        """An echelon basis of the lattice, each row with its pivot column,
        pivots strictly increasing: the basis itself when it already is one
        (``smith_kernel`` returns a Hermite basis), else its Hermite normal
        form, computed once."""
        rows = [(row, _lead(row)) for row in self.basis]
        if all(p < q for (_, p), (_, q) in zip(rows, rows[1:])):
            return tuple(rows)
        return tuple((row, _lead(row)) for row in hermite_normal_form(self.basis))

    def contains(self, v) -> bool:
        """Exact membership of a rational vector.

        An integer v is reduced against the echelon basis in pivot order:
        the later rows are zero at a row's pivot p, so once the earlier rows
        are subtracted, v's coefficient on it is v[p] / row[p], and v lies
        in the lattice exactly when subtracting each floor leaves nothing.
        """
        v = ratvec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector of wrong dimension")
        if any(x.denominator != 1 for x in v):
            return False
        v = [x.numerator for x in v]
        for row, p in self._echelon:
            q = v[p] // row[p]  # a remainder stays at p: no later row reaches it
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return not any(v)


def smith_kernel(A) -> tuple[tuple, IntegerLattice]:
    """Nonzero invariant factors of an integer matrix with at least one row,
    and the saturated integer lattice of its kernel, from one Smith form.

    With U A V = D, an integer x has A x = 0 exactly when V^-1 x vanishes at
    the first r = rank coordinates, so the columns of V past the rank are a
    basis of the saturated kernel; it is returned in Hermite normal form.
    """
    _, D, V = smith_normal_form(A)
    n = len(V)
    factors = tuple(D[i][i] for i in range(min(len(D), n)) if D[i][i])
    return factors, IntegerLattice(n, hermite_normal_form(tuple(zip(*V))[len(factors):]))


def saturated_kernel_lattice(M: Mat, n: int | None = None) -> IntegerLattice:
    """Saturated integer lattice of the rational kernel of M.

    ``n`` gives the ambient dimension when M has no rows.
    """
    if not M and n is None:
        raise ValueError("ambient dimension required for a matrix without rows")
    return smith_kernel([primitive(r) for r in M] or [(0,) * n])[1]


def saturate(L: IntegerLattice) -> IntegerLattice:
    """Largest lattice of the same rank in the same rational span: the
    saturated kernel of L's annihilator, in Hermite normal form, which makes
    the operation literally idempotent."""
    if not L.basis:
        return L
    return saturated_kernel_lattice(saturated_kernel_lattice(L.basis).basis, L.ambient_dim)


def unimodular_completion(u) -> tuple:
    """Unimodular M with M @ u = e1, for a primitive integer vector u.

    Rows 2..n of M give deterministic coordinates on Z^n / Zu.
    """
    u = tuple(map(as_int, u))
    if tuple(primitive(u)) != u:
        raise ValueError("vector must be primitive")
    col = tuple((x,) for x in u)
    U, D, V = smith_normal_form(col)
    # U @ u * V[0][0] = D with D = e1 (u primitive)
    if D[0][0] != 1:
        raise RuntimeError("Smith form of a primitive vector is not e1")
    if V[0][0] == -1:
        U = tuple(tuple(-x for x in row) for row in U)
    return U


def quotient_projection(direction) -> Mat:
    """Rational projection t -> t/<direction> in deterministic coordinates.

    Returns the (n-1) x n integer matrix of the projection, the last rows
    of a unimodular completion; its kernel is the span of ``direction``
    and it maps Z^n onto Z^(n-1).
    """
    return unimodular_completion(primitive(direction))[1:]


# ---------------------------------------------------------------------------
# effective genericity


@dataclass(frozen=True)
class GenericityCertificate:
    """Result of testing a vector against a finite family of subspaces."""

    generic: bool
    violations: tuple  # indices into the tested family
    labels: tuple = ()

    def __bool__(self) -> bool:
        return self.generic


@dataclass(frozen=True)
class Subspace:
    """A rational subspace of R^n, held by its canonical basis (primitive
    integer rref rows) and an annihilator: primitive integer rows whose
    common kernel is the subspace, so that a vector lies in it exactly when
    it is orthogonal to every annihilator row.  The full space has no
    annihilator rows."""

    basis: tuple
    annihilator: tuple

    @classmethod
    def spanned_by(cls, rows, n: int) -> "Subspace":
        """The span in R^n of rational rows."""
        R = _rref_int(map(primitive, rows))
        return cls(R, tuple(_kernel_int(R, n)))


def is_generic_wrt(v, subspaces, labels=None) -> GenericityCertificate:
    """Effective genericity: v lies in none of the given proper subspaces.

    Each subspace is a list of rational spanning vectors or a ``Subspace``.
    v lies in a subspace when its primitive integer form is orthogonal to
    every annihilator row; a ``Subspace`` carries its annihilator, so
    testing against one runs no elimination.  Raises ValueError if a
    listed subspace is the whole space.
    """
    v = primitive(v)
    n = len(v)
    labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(len(subspaces)))
    violations = []
    for idx, S in enumerate(subspaces):
        if not isinstance(S, Subspace):
            S = Subspace.spanned_by(S, n)
        if not S.annihilator:
            raise ValueError("subspace %s is the full space" % labels[idx])
        if not any(_dot(a, v) for a in S.annihilator):
            violations.append(idx)
    return GenericityCertificate(not violations, tuple(violations), labels)
