"""Exact polyhedra via homogenization over the cone engine.

A polyhedron {x : A x <= b, E x = d} is stored as its homogenization cone
{(x, t) : b t - A x >= 0, d t - E x = 0, t >= 0} in one extra dimension, and
every polyhedron query is a cone query: containment, equality and
intersection run on that cone, and emptiness, dimension, affine
hulls, faces and relative interior points are read off its generators,
exactly and without any LP solver.  A polyhedron is empty exactly when no
generator has t > 0, so emptiness is read off the t-signs of the integer
rays.  Containment and equality first ask whether a side is empty, because
the cone of an empty polyhedron keeps recession directions at t = 0 that
are no points of the set.  Affine hulls and relative interior points are
computed on the integer generators too.  Vertices are the generators with
t > 0 scaled to t = 1, as ``Fraction`` tuples, built when read;
recession rays and lineality lie at t = 0 and stay the cone's primitive
integer tuples.  ``Polyhedron.from_rows`` builds from homogenized rows,
appending ``t >= 0`` last, and ``Polyhedron.rows`` reads the minimal ones
back without it (``stated_rows``); ``from_hrep`` and
``hrep`` take and give pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cones import Cone, _canon_span
from .exact import (
    _dot,
    as_int,
    ratvec,
    rref,  # unused here; the tracer tests in perfbench call polyhedra.rref
)


def _hom(a, b) -> tuple:
    """Cone row of ``a.x <= b`` (or of ``a.x = b``) on the homogenization:
    ``(-a, b) . (x, t) >= 0``, that is ``b t - a.x >= 0``, unscaled.  ``a``
    is read with ``ratvec``, so strings are read and bools and floats
    refused; ``Cone`` scales each row once."""
    return (*[-x for x in ratvec(a)], b)


def stated_rows(ineqs) -> tuple:
    """The homogenized inequality rows that state the polyhedron: all but
    ``t >= 0``, which holds on every homogenization cone.  A row zero on x
    is kept only when its t coefficient is negative."""
    return tuple(r for r in ineqs if any(r[:-1]) or r[-1] < 0)


def _pair(row) -> tuple:
    """The pair (a, b) of a homogenized row, the inverse of ``_hom``."""
    return tuple(-x for x in row[:-1]), row[-1]


def _difference(g, h) -> tuple:
    """For generators g and h of a homogenization cone, h at t > 0: a
    positive multiple of g/t_g - h/t_h when g is at t > 0 too (a vertex
    difference), and of g itself when g is at t = 0 (a recession ray)."""
    s, t = g[-1], h[-1]
    return tuple(t * x - s * y for x, y in zip(g[:-1], h[:-1]))


class Polyhedron:
    """Immutable polyhedron in R^n, stored as its homogenization cone."""

    __slots__ = ("ambient_dim", "cone", "_directions")

    def __init__(self, ambient_dim: int, cone: Cone):
        self.ambient_dim = as_int(ambient_dim)
        self.cone = cone
        self._directions = None

    @classmethod
    def from_rows(cls, ambient_dim: int, ineqs=(), eqs=()):
        """Build from homogenized rows r meaning r.(x, t) >= 0 (or = 0 for
        eqs).  The cone's given inequalities are the nonzero rows of
        ``ineqs`` in order, then ``t >= 0``."""
        n = as_int(ambient_dim)
        return cls(n, Cone(n + 1, ineqs=[*ineqs, (0,) * n + (1,)], eqs=eqs))

    @classmethod
    def from_hrep(cls, ambient_dim: int, ineqs=(), eqs=()):
        """Build from rows (a, b) meaning a.x <= b (or a.x = b for eqs)."""
        return cls.from_rows(ambient_dim, [_hom(a, b) for a, b in ineqs],
                             [_hom(a, b) for a, b in eqs])

    @classmethod
    def from_vrep(cls, ambient_dim: int, vertices=(), rays=(), lineality=()):
        n = as_int(ambient_dim)
        gen = [(*v, 1) for v in vertices]
        gen += [(*r, 0) for r in rays]
        lin = [(*l, 0) for l in lineality]
        return cls(n, Cone(n + 1, rays=gen, lineality=lin))

    # structure ---------------------------------------------------------------

    @property
    def vertices(self) -> list:
        """The generators at t > 0 scaled to t = 1, as ``Fraction`` tuples."""
        return [tuple(Fraction(x, g[-1]) for x in g[:-1]) for g in self.cone.rays if g[-1] > 0]

    @property
    def recession_rays(self) -> list:
        return [g[:-1] for g in self.cone.rays if not g[-1]]

    @property
    def lineality(self) -> list:
        return [l[:-1] for l in self.cone.lineality]

    def is_empty(self) -> bool:
        """No generator has t > 0, so the polyhedron has no vertex."""
        return not any(g[-1] > 0 for g in self.cone.rays)

    def dim(self) -> int:
        """Dimension of the polyhedron; -1 when empty."""
        if self.is_empty():
            return -1
        return self.cone.dim() - 1

    def rows(self) -> tuple[tuple, tuple]:
        """The minimal homogenized rows r (r.(x, t) >= 0, or = 0 for the
        equalities), primitive, without ``t >= 0``: ``minimal()``'s, read
        in place off a cone built from generators.  An empty polyhedron
        keeps the equality ``t = 0``."""
        c = self.cone.minimal() if self.cone._rows_given else self.cone
        return stated_rows(c.ineqs), c.eqs

    def hrep(self) -> tuple[list, list]:
        """Minimal inequalities [(a, b)] (a.x <= b) and equalities, as
        fresh lists: the pairs of ``rows()``."""
        return tuple(list(map(_pair, rows)) for rows in self.rows())

    def contains(self, p) -> bool:
        return self.cone.contains((*p, 1))

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        return other.is_empty() or self.cone.contains_cone(other.cone)

    def same_set(self, other: "Polyhedron") -> bool:
        if other.is_empty():
            return self.is_empty()
        return self.cone.same_set(other.cone)

    def direction_space(self) -> list:
        """Basis rows of the affine hull's direction space: the span of
        the vertex differences, recession rays and lineality, read off the
        integer generators once and kept."""
        if self._directions is None:
            g0 = next((g for g in self.cone.rays if g[-1] > 0), None)
            if g0 is None:
                self._directions = ()
            else:
                rows = [_difference(g, g0) for g in self.cone.rays]
                self._directions = _canon_span(rows + self.lineality)
        return list(self._directions)

    def generator_sum(self) -> list:
        """The integer sum h of the generators, each vertex scaled to
        t = l, the lcm of their t, and each recession ray by l: a point of
        the homogenization cone, strict on every row that is not implicit,
        whose point h / h_t is ``relative_interior_point()``."""
        ts = [g[-1] for g in self.cone.rays if g[-1] > 0]
        if not ts:
            raise ValueError("empty polyhedron has no relative interior point")
        l = lcm(*ts)
        h = [0] * (self.ambient_dim + 1)
        for g in self.cone.rays:
            c = l // g[-1] if g[-1] else l
            h = [x + c * y for x, y in zip(h, g)]
        return h

    def relative_interior_point(self) -> tuple:
        """(sum of the vertices + sum of the recession rays) / number of
        vertices, as a ``Fraction`` tuple: h / h_t for h the
        ``generator_sum()``, checked to lie in the polyhedron."""
        h = self.generator_sum()
        if not self.cone.contains(h):
            raise RuntimeError("relative interior point outside the polyhedron")
        return tuple(Fraction(x, h[-1]) for x in h[:-1])

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        return Polyhedron(self.ambient_dim, self.cone.intersect(other.cone))

    def is_face_of(self, other: "Polyhedron") -> bool:
        """Whether self is a (proper or improper) face of other.

        The smallest face of other containing self is cut out by the rows
        of any H-representation of other's cone that vanish on self's rays
        (they vanish on its lineality once self lies in other).  That face
        keeps other's lineality, and its extreme rays are other's rays tight
        on those rows, so self is a face exactly when its canonical
        generators are those: no intersection is converted.
        """
        if self.is_empty():
            return True
        if not other.contains_polyhedron(self):
            return False
        key = self.cone.key()
        ineqs, _ = other.cone.given_rows()
        tight = [a for a in ineqs if not any(_dot(a, r) for r in key[0])]
        rays, lin = other.cone.key()
        return (tuple(g for g in rays if not any(_dot(a, g) for a in tight)), lin) == key

    def __repr__(self):
        return f"Polyhedron(n={self.ambient_dim}, dim={self.dim()})"
