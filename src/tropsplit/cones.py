"""Rational polyhedral cones with dual representations.

A cone carries a V-representation (rays and lineality generators) and an
H-representation (homogeneous inequalities ``a.x >= 0`` and equalities
``a.x = 0``).  Conversions run the double description method with
deterministic insertion order (input order), with redundancy eliminated
after every step, so converted representations are minimal (extreme rays,
facet inequalities) and reproducible.

A cone is primitive integer vectors end to end.  Rational input rows and
generators are scaled once, by a positive factor, with
``exact.primitive``; the cone then stores and hands out Python int tuples:
rays and inequality rows are primitive vectors, and the lineality and
equality bases are sign-normalized primitive rref rows.  The double
description runs on the same ints: new rays ``(a.r+) r- - (a.r-) r+`` and
every elimination step are fraction-free with a gcd division, and a ray's
zero-set is an int bitmask over the input rows.  Positive scaling keeps
every cone and every sign test that of the rational input.  The integer
Gauss-Jordan that ranks and reduces these vectors is ``exact._rref_int``,
and ``exact._kernel_int`` reads kernels off its rows.

Cones are immutable; the lazy representation cache is filled at most once
per value, so concurrent readers always observe a pure function.
"""

from __future__ import annotations

from .exact import (
    Vec,
    _dot,
    _kernel_int,
    _lead,
    _rref_int,
    as_int,
    gcd_reduce,
    is_zero_vec,
    primitive,
    rref,  # unused here; the tracer tests in perfbench patch cones.rref
    vadd,
)


def _unit(n: int, j: int) -> tuple:
    return tuple(int(i == j) for i in range(n))


def _canon_rays(rays) -> tuple:
    """Canonical ray tuple: the sorted distinct nonzero primitive vectors."""
    return tuple(sorted({r for r in map(primitive, rays) if any(r)}))


def _canon_span(rows) -> tuple:
    """Canonical basis (primitive rref rows) of the span of the given rows."""
    return _rref_int(map(primitive, rows))


def _reduce_mod_span(span, v) -> tuple:
    """Primitive canonical coset representative of v modulo the span of
    primitive rref rows: the one that vanishes at every pivot."""
    for row in span:
        p = _lead(row)
        f = v[p]
        if f:
            q = row[p]
            v = [q * x - f * y for x, y in zip(v, row)]
    return gcd_reduce(v)


# ---------------------------------------------------------------------------
# double description core
#
# Everything below runs on primitive integer vectors.  Rows and rays are only
# ever rescaled by positive factors, so the cones and the sign tests are those
# of the rational input.  A ray's zero-set, the input rows it is tight on, is
# an int bitmask over the row indices.


def _dd_pointed(d: int, rows) -> tuple[list, list]:
    """Generators of {y in R^d : a.y >= 0 for a in rows}, for integer rows.

    Returns (rays, lineality) as primitive integer vectors.  Rays are kept
    extreme modulo the lineality space throughout; insertion follows the
    input row order.
    """
    lin = tuple(_unit(d, j) for j in range(d))
    rays: list[tuple[tuple, int]] = []

    for idx, a in enumerate(rows):
        bit = 1 << idx
        if not any(a):
            rays = [(r, z | bit) for r, z in rays]
            continue
        i0 = next((i for i, l in enumerate(lin) if _dot(a, l)), None)
        if i0 is not None:
            l0 = lin[i0]
            al0 = _dot(a, l0)
            if al0 < 0:
                l0, al0 = tuple(-x for x in l0), -al0
            lin = _rref_int(
                [al0 * x - _dot(a, l) * y for x, y in zip(l, l0)]
                for i, l in enumerate(lin)
                if i != i0
            )
            new_rays = [
                (
                    _reduce_mod_span(
                        lin, [al0 * x - _dot(a, r) * y for x, y in zip(r, l0)]
                    ),
                    z | bit,
                )
                for r, z in rays
            ]
            new_rays.append((_reduce_mod_span(lin, l0), bit - 1))
            rays = _dedupe(new_rays)
            continue
        # a vanishes on the lineality space and every ray already vanishes
        # at the pivots of its basis, so combinations need no reduction
        vals = [_dot(a, r) for r, _ in rays]
        plus = [(r, z, v) for (r, z), v in zip(rays, vals) if v > 0]
        minus = [(r, z, v) for (r, z), v in zip(rays, vals) if v < 0]
        zero = [(r, z | bit) for (r, z), v in zip(rays, vals) if v == 0]
        if not minus:
            rays = [(r, z) for r, z, _ in plus] + zero
            continue
        # rp and rm are adjacent unless a third ray is tight on every row
        # that both are tight on; rp and rm themselves always are
        nots = [~z for _, z in rays]
        combos = []
        for rp, zp, vp in plus:
            for rm, zm, vm in minus:
                inter = zp & zm
                tight = 0
                for nz in nots:
                    if not inter & nz:
                        tight += 1
                        if tight > 2:
                            break
                if tight <= 2:
                    w = [vp * x - vm * y for x, y in zip(rm, rp)]
                    combos.append((gcd_reduce(w), inter | bit))
        rays = _dedupe([(r, z) for r, z, _ in plus] + zero + combos)
    return [r for r, _ in rays], list(lin)


def _dedupe(pairs):
    seen = {}
    for r, z in pairs:
        if any(r) and r not in seen:
            seen[r] = z
    return list(seen.items())


def _h_to_v(n: int, ineqs, eqs) -> tuple[tuple, tuple]:
    """V-representation of {x : ineq.x >= 0, eq.x = 0}.

    Rows may be rational; the conversion runs on their primitive integer
    forms and returns the canonical rays and lineality basis as primitive
    integer tuples.
    """
    ineqs = [primitive(a) for a in ineqs]
    eqs = [primitive(e) for e in eqs]
    if any(len(a) != n for a in ineqs + eqs):
        raise ValueError("constraint row of wrong dimension")
    E = _rref_int(eqs)
    K = _kernel_int(E, n) if E else None
    d = len(K) if E else n
    if d == 0:
        return (), ()
    if K is not None:
        ineqs = [gcd_reduce([_dot(a, k) for k in K]) for a in ineqs]
    rays_y, lin_y = _dd_pointed(d, ineqs)
    if K is not None:
        Kt = list(zip(*K))
        rays_y = [[_dot(y, col) for col in Kt] for y in rays_y]
        lin_y = [[_dot(y, col) for col in Kt] for y in lin_y]
    return _canon_rays(rays_y), _rref_int(lin_y)


class Cone:
    """Rational polyhedral cone in R^n."""

    __slots__ = ("ambient_dim", "_rays", "_lineality", "_ineqs", "_eqs", "_minimal", "_dim")

    def __init__(self, ambient_dim, rays=None, lineality=None, ineqs=None, eqs=None):
        self.ambient_dim = as_int(ambient_dim)
        self._minimal = None
        self._dim = None
        has_v = rays is not None or lineality is not None
        has_h = ineqs is not None or eqs is not None
        if not has_v and not has_h:
            raise ValueError("cone needs at least one representation")
        self._rays = _canon_rays(rays or ()) if has_v else None
        self._lineality = _canon_span(lineality or ()) if has_v else None
        if has_h:
            self._ineqs = tuple(r for r in map(primitive, ineqs or ()) if any(r))
            self._eqs = _canon_span(eqs or ())
        else:
            self._ineqs = None
            self._eqs = None
        for group in (self._rays, self._lineality, self._ineqs, self._eqs):
            for v in group or ():
                if len(v) != self.ambient_dim:
                    raise ValueError("generator of wrong dimension")

    @classmethod
    def from_rays(cls, rays, lineality=(), ambient_dim=None):
        rays, lineality = list(rays), list(lineality)
        if ambient_dim is None:
            probe = rays or lineality
            if not probe:
                raise ValueError("ambient_dim required for the zero cone")
            ambient_dim = len(probe[0])
        return cls(ambient_dim, rays=rays, lineality=lineality)

    @classmethod
    def from_hrep(cls, ineqs, eqs=(), ambient_dim=None):
        ineqs, eqs = list(ineqs), list(eqs)
        if ambient_dim is None:
            probe = ineqs or eqs
            if not probe:
                raise ValueError("ambient_dim required for the full cone")
            ambient_dim = len(probe[0])
        return cls(ambient_dim, ineqs=ineqs, eqs=eqs)

    @classmethod
    def zero(cls, n):
        return cls(n, rays=(), lineality=())

    @classmethod
    def full(cls, n):
        return cls(n, ineqs=(), eqs=())

    # representations --------------------------------------------------------

    def _ensure_v(self):
        if self._rays is None:
            rays, lin = _h_to_v(self.ambient_dim, self._ineqs, self._eqs)
            self._rays, self._lineality = rays, lin

    def _ensure_h(self):
        if self._ineqs is None:
            self._ensure_v()
            # minimal H-representation: double description on the dual cone
            self._ineqs, self._eqs = _h_to_v(self.ambient_dim, self._rays, self._lineality)

    @property
    def rays(self) -> tuple:
        self._ensure_v()
        return self._rays

    @property
    def lineality(self) -> tuple:
        self._ensure_v()
        return self._lineality

    @property
    def ineqs(self) -> tuple:
        self._ensure_h()
        return self._ineqs

    @property
    def eqs(self) -> tuple:
        self._ensure_h()
        return self._eqs

    def minimal(self) -> "Cone":
        """The same cone with both representations minimal and canonical."""
        if self._minimal is None:
            rays, lin = _h_to_v(self.ambient_dim, self.ineqs, self.eqs)
            c = Cone(self.ambient_dim, rays=rays, lineality=lin)
            c._ineqs, c._eqs = _h_to_v(self.ambient_dim, rays, lin)
            c._minimal = c
            self._minimal = c
        return self._minimal

    def __repr__(self):
        parts = [f"n={self.ambient_dim}"]
        if self._rays is not None:
            parts.append(f"rays={len(self._rays)} lin={len(self._lineality)}")
        if self._ineqs is not None:
            parts.append(f"ineqs={len(self._ineqs)} eqs={len(self._eqs)}")
        return f"Cone({' '.join(parts)})"

    # queries ----------------------------------------------------------------

    def dim(self) -> int:
        if self._dim is None:
            self._ensure_v()
            self._dim = len(_rref_int(self._rays + self._lineality))
        return self._dim

    def is_zero(self) -> bool:
        return self.dim() == 0

    def contains(self, p) -> bool:
        p = primitive(p)  # a positive multiple: the signs are those of p
        if len(p) != self.ambient_dim:
            raise ValueError("point of wrong dimension")
        self._ensure_h()
        return all(_dot(a, p) >= 0 for a in self._ineqs) and not any(
            _dot(a, p) for a in self._eqs
        )

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(r) for r in other.rays) and all(
            self.contains(l) and self.contains(tuple(-x for x in l))
            for l in other.lineality
        )

    def same_set(self, other: "Cone") -> bool:
        return self.contains_cone(other) and other.contains_cone(self)

    def intersect(self, other: "Cone") -> "Cone":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Cone(
            self.ambient_dim,
            ineqs=self.ineqs + other.ineqs,
            eqs=self.eqs + other.eqs,
        )

    def linear_image(self, M, codim: int | None = None) -> "Cone":
        """Image cone under x -> M x, computed on the V-representation.

        M has int or ``Fraction`` entries."""
        m = len(M) if M else (codim if codim is not None else 0)
        if M and len(M[0]) != self.ambient_dim:
            raise ValueError("matrix has wrong number of columns")
        return Cone(
            m,
            rays=[tuple(_dot(row, r) for row in M) for r in self.rays],
            lineality=[tuple(_dot(row, l) for row in M) for l in self.lineality],
        )

    def preimage(self, M, domain_dim: int | None = None) -> "Cone":
        """Preimage cone {x : M x in C}, computed on the H-representation.

        M has int or ``Fraction`` entries."""
        if len(M) != self.ambient_dim:
            raise ValueError("matrix has wrong number of rows")
        if M:
            cols = list(zip(*M))
        elif domain_dim is not None:
            cols = [()] * domain_dim
        else:
            raise ValueError("domain_dim required for an empty matrix")

        def pull(a):
            return tuple(_dot(a, col) for col in cols)

        return Cone(
            len(cols),
            ineqs=[pull(a) for a in self.ineqs],
            eqs=[pull(a) for a in self.eqs],
        )

    def relative_interior_point(self) -> Vec:
        """A rational point in the relative interior; error on the zero cone.

        Sum of the extreme rays, with a lineality tiebreak for subspaces.
        """
        m = self.minimal()
        p = (0,) * self.ambient_dim
        for r in m.rays:
            p = vadd(p, r)
        if is_zero_vec(p):
            if m.lineality:
                p = m.lineality[0]
            else:
                raise ValueError("zero cone has no relative interior point")
        if not self.contains(p):
            raise RuntimeError("relative interior point outside the cone")
        return p


def is_increasing(cone: Cone) -> bool:
    """Increasing-cone test: every coordinate truncation slice of C inside
    the nonnegative orthant is a cone of the expected dimension.

    The i-th slice is C with coordinates i+1..n forced to zero; C is
    increasing when slice i has dimension exactly i for all i.  Raises if C
    is not contained in the orthant.

    Inside the orthant each slice is a face of C, cut out by the valid
    inequalities x_k >= 0 for k > i, and a face of a pointed cone is
    generated by the extreme rays of C that lie in it.  So slice i has the
    rank of the rays that vanish at coordinates i+1..n, and the test needs
    no conversion beyond C's own rays.
    """
    n = cone.ambient_dim
    _check_in_orthant(cone)
    for i in range(1, n + 1):
        if len(_rref_int([r for r in cone.rays if not any(r[i:])])) != i:
            return False
    return True


def _check_in_orthant(cone: Cone):
    if cone.lineality:
        raise ValueError("cone is not contained in the nonnegative orthant")
    for r in cone.rays:
        if any(x < 0 for x in r):
            raise ValueError("cone is not contained in the nonnegative orthant")


# These two stay here: perfbench's eta-sweep oracle calls cones.is_increasing_inductive.
def normal_cone_at_first_axis(cone: Cone) -> Cone:
    """Directions v with (1, t v) in C for all small t > 0; assumes e1 in C.

    Internal cross-check oracle for the inductive characterization of
    increasing cones.
    """
    n = cone.ambient_dim
    if not cone.contains(_unit(n, 0)):
        raise ValueError("first axis not contained in the cone")
    ineqs = [a[1:] for a in cone.ineqs if a[0] == 0]
    eqs = [a[1:] for a in cone.eqs]
    return Cone(n - 1, ineqs=ineqs, eqs=eqs)


def is_increasing_inductive(cone: Cone) -> bool:
    """Recursive form of the increasing test (internal oracle)."""
    _check_in_orthant(cone)
    n = cone.ambient_dim
    if n == 0:
        return True
    if not cone.contains(_unit(n, 0)):
        return False
    return is_increasing_inductive(normal_cone_at_first_axis(cone.minimal()).minimal())
