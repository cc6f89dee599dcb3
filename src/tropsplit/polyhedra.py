"""Exact polyhedra via homogenization over the cone engine.

A polyhedron {x : A x <= b, E x = d} is handled as the cone
{(x, t) : b t - A x >= 0, d t - E x = 0, t >= 0} in one extra dimension.
Emptiness, dimension, affine hulls, faces and relative interior points all
reduce to cone computations, exactly and without any LP solver.
"""

from __future__ import annotations

from fractions import Fraction

from .cones import Cone
from .exact import (
    fr,
    is_zero_vec,
    mat,
    rref,
    sign_normalized,
    vadd,
    vdot,
    vec,
    vscale,
    vsub,
    vzero,
)


class Polyhedron:
    """Immutable polyhedron in R^n, stored as its homogenization cone."""

    __slots__ = ("ambient_dim", "cone", "_gens", "_hrep")

    def __init__(self, ambient_dim: int, cone: Cone):
        self.ambient_dim = int(ambient_dim)
        self.cone = cone
        self._gens = None
        self._hrep = None

    @classmethod
    def from_hrep(cls, ambient_dim: int, ineqs=(), eqs=()):
        """Build from rows (a, b) meaning a.x <= b (or a.x = b for eqs)."""
        n = int(ambient_dim)
        rows = []
        for a, b in ineqs:
            a = vec(a)
            rows.append(tuple(-x for x in a) + (fr(b),))
        eq_rows = []
        for a, b in eqs:
            a = vec(a)
            eq_rows.append(tuple(-x for x in a) + (fr(b),))
        rows.append(vzero(n) + (Fraction(1),))  # t >= 0
        return cls(n, Cone(n + 1, ineqs=rows, eqs=eq_rows))

    @classmethod
    def from_vrep(cls, ambient_dim: int, vertices=(), rays=(), lineality=()):
        n = int(ambient_dim)
        gen = [vec(v) + (Fraction(1),) for v in vertices]
        gen += [vec(r) + (Fraction(0),) for r in rays]
        lin = [vec(l) + (Fraction(0),) for l in lineality]
        return cls(n, Cone(n + 1, rays=gen, lineality=lin))

    # structure ---------------------------------------------------------------

    def _generators(self):
        if self._gens is None:
            verts, rays = [], []
            for g in self.cone.rays:
                t = g[-1]
                if t > 0:
                    verts.append(tuple(x / t for x in g[:-1]))
                else:
                    rays.append(g[:-1])
            lin = [l[:-1] for l in self.cone.lineality]
            self._gens = (verts, rays, lin)
        return self._gens

    @property
    def vertices(self) -> list:
        return self._generators()[0]

    @property
    def recession_rays(self) -> list:
        return self._generators()[1]

    @property
    def lineality(self) -> list:
        return self._generators()[2]

    def is_empty(self) -> bool:
        return not self.vertices

    def dim(self) -> int:
        """Dimension of the polyhedron; -1 when empty."""
        if self.is_empty():
            return -1
        return self.cone.dim() - 1

    def hrep(self) -> tuple[list, list]:
        """Minimal inequalities [(a, b)] (a.x <= b) and equalities."""
        if self._hrep is None:
            minimal = self.cone.minimal()
            ineqs, eqs = [], []
            for row in minimal.ineqs:
                a, b = row[:-1], row[-1]
                if is_zero_vec(a):
                    continue  # the homogenization constraint t >= 0
                ineqs.append((tuple(-x for x in a), b))
            for row in minimal.eqs:
                a, b = row[:-1], row[-1]
                if not is_zero_vec(a):
                    eqs.append((tuple(-x for x in a), b))
            self._hrep = (ineqs, eqs)
        return self._hrep

    def contains(self, p) -> bool:
        p = vec(p)
        return self.cone.contains(p + (Fraction(1),))

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        verts, rays, lin = other._generators()
        if not verts and not rays and not lin:
            return True
        ineqs, eqs = self.hrep()
        for v in verts:
            if not self.contains(v):
                return False
        for r in rays:
            for a, b in ineqs:
                if vdot(vec(a), r) > 0:
                    return False
            for a, b in eqs:
                if vdot(vec(a), r) != 0:
                    return False
        for l in lin:
            for a, b in ineqs:
                if vdot(vec(a), l) != 0:
                    return False
            for a, b in eqs:
                if vdot(vec(a), l) != 0:
                    return False
        return True

    def same_set(self, other: "Polyhedron") -> bool:
        return self.contains_polyhedron(other) and other.contains_polyhedron(self)

    def direction_space(self) -> list:
        """Basis rows of the affine hull's direction space."""
        verts, rays, lin = self._generators()
        if not verts:
            return []
        v0 = verts[0]
        rows = [vsub(v, v0) for v in verts[1:]] + list(rays) + list(lin)
        rows = [r for r in rows if not is_zero_vec(r)]
        if not rows:
            return []
        R, pivots = rref(mat(rows))
        return [vec(sign_normalized(R[i])) for i in range(len(pivots))]

    def relative_interior_point(self):
        verts, rays, lin = self._generators()
        if not verts:
            raise ValueError("empty polyhedron has no relative interior point")
        k = len(verts)
        p = vzero(self.ambient_dim)
        for v in verts:
            p = vadd(p, v)
        for r in rays:
            p = vadd(p, r)
        p = vscale(Fraction(1, k), p)
        if not self.contains(p):
            raise RuntimeError("relative interior point outside the polyhedron")
        return p

    def lies_in_hyperplane(self, a, b) -> bool:
        """Whether the whole polyhedron satisfies a.x = b."""
        a = vec(a)
        b = fr(b)
        verts, rays, lin = self._generators()
        return (
            all(vdot(a, v) == b for v in verts)
            and all(vdot(a, r) == 0 for r in rays)
            and all(vdot(a, l) == 0 for l in lin)
        )

    def intersect_hrep(self, ineqs=(), eqs=()) -> "Polyhedron":
        """Intersection with additional rows (a, b)."""
        n = self.ambient_dim
        extra_ineq = [tuple(-x for x in vec(a)) + (fr(b),) for a, b in ineqs]
        extra_eq = [tuple(-x for x in vec(a)) + (fr(b),) for a, b in eqs]
        c = Cone(
            n + 1,
            ineqs=self.cone.ineqs + tuple(extra_ineq),
            eqs=self.cone.eqs + tuple(extra_eq),
        )
        return Polyhedron(n, c)

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        c = Cone(
            self.ambient_dim + 1,
            ineqs=self.cone.ineqs + other.cone.ineqs,
            eqs=self.cone.eqs + other.cone.eqs,
        )
        return Polyhedron(self.ambient_dim, c)

    def is_face_of(self, other: "Polyhedron") -> bool:
        """Whether self is a (proper or improper) face of other."""
        if self.is_empty():
            return True
        if not other.contains_polyhedron(self):
            return False
        ineqs, eqs = other.hrep()
        tight = [(a, b) for a, b in ineqs if self.lies_in_hyperplane(a, b)]
        face = other.intersect_hrep(eqs=tight)
        return face.same_set(self)

    def __repr__(self):
        return f"Polyhedron(n={self.ambient_dim}, dim={self.dim()})"
