"""Novikov-ring formal series and toric disk potentials.

A series is a finite sum of terms  coeff * q^area * y^monomial  with exact
rational coefficients, nonnegative rational area exponents, and integer
monomials (negative exponents allowed).  The Batyrev-Givental potential of
a moment polytope assigns one term per facet; the split composition-weight
aggregator combines caller-supplied component counts with the multiplicity
and the symmetry factorials.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, prod

from .complexes import check_toric_data
from .exact import Value, as_int, fr, imat, ratvec, vdot
from .polyhedra import Polyhedron


class NovikovSeries(Value):
    """Finite formal series with terms, tuples (coeff, area, monomial),
    merged and sorted by (area, monomial)."""

    _fields = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: tuple):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        merged: dict = {}
        for c, a, m in terms:
            c, a = fr(c), fr(a)
            if a < 0:
                raise ValueError("negative area exponent")
            m = tuple(map(as_int, m))
            if len(m) != num_vars:
                raise ValueError("monomial of wrong arity")
            key = (a, m)
            merged[key] = merged.get(key, Fraction(0)) + c
        cleaned = tuple(
            (c, a, m) for (a, m), c in sorted(merged.items()) if c != 0
        )
        self.__dict__.update(num_vars=num_vars, terms=cleaned)

    @classmethod
    def zero(cls, num_vars: int) -> "NovikovSeries":
        return cls(num_vars, ())

    @classmethod
    def term(cls, num_vars: int, coeff, area, monomial=None) -> "NovikovSeries":
        if monomial is None:
            monomial = (0,) * num_vars
        return cls(num_vars, ((coeff, area, monomial),))

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self):
        """Least area exponent; None for the zero series (infinite)."""
        return self.terms[0][1] if self.terms else None

    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        if self.num_vars != other.num_vars:
            raise ValueError("arity mismatch")
        return NovikovSeries(self.num_vars, self.terms + other.terms)

    def scale(self, c) -> "NovikovSeries":
        c = fr(c)
        return NovikovSeries(self.num_vars, tuple((c * t, a, m) for t, a, m in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self.scale(other)
        if self.num_vars != other.num_vars:
            raise ValueError("arity mismatch")
        prod = []
        for c1, a1, m1 in self.terms:
            for c2, a2, m2 in other.terms:
                prod.append((c1 * c2, a1 + a2, tuple(x + y for x, y in zip(m1, m2))))
        return NovikovSeries(self.num_vars, tuple(prod))

    __rmul__ = __mul__


def leading_terms(series: NovikovSeries) -> NovikovSeries:
    """Sub-series of terms with minimal area exponent; error on zero."""
    if series.is_zero():
        raise ValueError("zero series has no leading terms")
    v = series.valuation()
    return NovikovSeries(
        series.num_vars, tuple(t for t in series.terms if t[1] == v)
    )


def bg_potential(normals, constants, lam) -> NovikovSeries:
    """Batyrev-Givental potential: one term y^mu_i q^(c_i - <lam, mu_i>)
    per facet of the moment polytope, for lam strictly interior.  Every
    row must be a facet: a zero, repeated or redundant row raises.  A
    normal must be primitive: scaling a row by k would scale its term's
    exponents by k and leave the polytope as it is.  On a polytope whose
    fan is not smooth this is only the smooth-disk part: orbifold disks
    add terms (Cho & Poddar)."""
    normals = imat(normals)
    constants = ratvec(constants)
    if len(normals) != len(constants) or not normals:
        raise ValueError("need matching nonempty normals and constants")
    n = len(normals[0])
    lam = check_toric_data(normals, lam)
    terms = []
    for i, (m, c) in enumerate(zip(normals, constants)):
        if gcd(*m) > 1:
            raise ValueError(f"row {i}: normal {list(m)} is not primitive")
        area = c - vdot(m, lam)
        if area <= 0:
            raise ValueError("base point is not strictly interior to the polytope")
        terms.append((Fraction(1), area, m))
    # lam is interior, so the polytope is full-dimensional: its minimal rows are its facets
    facets = len(Polyhedron.from_hrep(n, ineqs=zip(normals, constants)).rows()[0])
    if facets != len(normals):
        raise ValueError(f"every row must be a facet: {len(normals)} rows, {facets} facets")
    return NovikovSeries(n, tuple(terms))


# The largest count whose factorial the scale computes (10**6! takes seconds).
MAX_COUNT = 10**4


def split_contribution(mult: int, split_count: int, d_black: int, heart_sign: int,
                       component_series) -> NovikovSeries:
    """Composition weight of a split type: the product of the component
    series scaled by heart_sign * mult / (d_black! * split_count!).

    Component counts are caller-supplied analytic inputs; a rational
    prefactor of one component is applied by scaling its series first
    (``NovikovSeries.scale``).  A count above ``MAX_COUNT`` raises
    ``ValueError`` before any factorial is computed.
    """
    if heart_sign not in (1, -1):
        raise ValueError("heart_sign must be +1 or -1")
    if mult < 1:
        raise ValueError("multiplicity must be a positive integer")
    if split_count < 0 or d_black < 0:
        raise ValueError("counts must be nonnegative")
    if split_count > MAX_COUNT or d_black > MAX_COUNT:
        raise ValueError(f"split_count and d_black must be at most {MAX_COUNT}")
    component_series = list(component_series)
    if not component_series:
        raise ValueError("no component series")
    out = prod(component_series[1:], start=component_series[0])
    scale = Fraction(heart_sign * mult, factorial(d_black) * factorial(split_count))
    return out.scale(scale)
