"""Frozen reference implementations used only by the tests.

``_h_to_v`` and ``_dd_pointed`` with their helpers are the double
description conversion as it ran on ``fractions.Fraction`` vectors with
frozenset zero-sets, kept verbatim so that the integer-only conversion in
``tropsplit.cones`` can be checked against it for exact equality.

``contains_polyhedron``, ``same_set``, ``lies_in_hyperplane``,
``is_face_of`` and ``direction_space`` are the ``Polyhedron`` queries as
they ran de-homogenized on vertices, recession rays and the minimal
``hrep()``, kept verbatim (with ``self`` as an argument) so that the cone
form in ``tropsplit.polyhedra`` can be checked against them.
"""

from __future__ import annotations

from fractions import Fraction

from tropsplit.exact import (
    Vec,
    fr,
    is_zero_vec,
    kernel_basis,
    mat,
    primitive,
    rref,
    sign_normalized,
    vadd,
    vdot,
    vec,
    vscale,
    vsub,
    vzero,
)


def _prim(v) -> Vec:
    return vec(primitive(v))


def _unit(n: int, j: int) -> Vec:
    return tuple(Fraction(1 if i == j else 0) for i in range(n))


def _canon_rays(rays) -> tuple:
    out = sorted({_prim(r) for r in rays if not is_zero_vec(vec(r))})
    return tuple(out)


def _canon_span(rows) -> tuple:
    """Canonical basis (primitive rref rows) of the span of the given rows."""
    rows = [vec(r) for r in rows if not is_zero_vec(vec(r))]
    if not rows:
        return ()
    R, pivots = rref(mat(rows))
    return tuple(vec(sign_normalized(R[i])) for i in range(len(pivots)))


def _reduce_mod_span(span_rref, v) -> Vec:
    """Canonical coset representative of v modulo the row span (rref rows)."""
    v = list(vec(v))
    for row in span_rref:
        p = next(i for i, x in enumerate(row) if x != 0)
        if v[p] != 0:
            f = v[p] / row[p]
            v = [x - f * y for x, y in zip(v, row)]
    return tuple(v)


# ---------------------------------------------------------------------------
# double description core


def _dd_pointed(d: int, rows) -> tuple[list, list]:
    """Generators of {y in R^d : a.y >= 0 for a in rows}.

    Returns (rays, lineality).  Rays are kept extreme modulo the lineality
    space throughout; insertion follows the input row order.
    """
    lin: list[Vec] = [_unit(d, j) for j in range(d)]
    rays: list[tuple[Vec, frozenset]] = []
    processed: list[Vec] = []

    def renorm(v) -> Vec:
        return _prim(_reduce_mod_span(lin, v))

    for a in rows:
        a = vec(a)
        idx = len(processed)
        if is_zero_vec(a):
            processed.append(a)
            rays = [(r, z | {idx}) for r, z in rays]
            continue
        i0 = next((i for i, l in enumerate(lin) if vdot(a, l) != 0), None)
        if i0 is not None:
            l0 = lin[i0]
            if vdot(a, l0) < 0:
                l0 = vec(vscale(-1, l0))
            al0 = vdot(a, l0)
            rest = [l for i, l in enumerate(lin) if i != i0]
            lin = list(
                _canon_span(vsub(l, vscale(vdot(a, l) / al0, l0)) for l in rest)
            )
            new_rays = [
                (renorm(vsub(r, vscale(vdot(a, r) / al0, l0))), z | {idx})
                for r, z in rays
            ]
            new_rays.append((renorm(l0), frozenset(range(idx))))
            rays = _dedupe(new_rays)
            processed.append(a)
            continue
        plus = [(r, z) for r, z in rays if vdot(a, r) > 0]
        zero = [(r, z | {idx}) for r, z in rays if vdot(a, r) == 0]
        minus = [(r, z) for r, z in rays if vdot(a, r) < 0]
        if not minus:
            rays = plus + zero
            processed.append(a)
            continue
        combos = []
        for rp, zp in plus:
            for rm, zm in minus:
                inter = zp & zm
                blocked = any(
                    inter <= z3
                    for r3, z3 in rays
                    if r3 is not rp and r3 is not rm
                )
                if blocked:
                    continue
                w = vsub(vscale(vdot(a, rp), rm), vscale(vdot(a, rm), rp))
                combos.append((renorm(w), frozenset(inter | {idx})))
        rays = _dedupe(plus + zero + combos)
        processed.append(a)
    return [r for r, _ in rays], lin


def _dedupe(pairs):
    seen = {}
    for r, z in pairs:
        if is_zero_vec(r):
            continue
        if r not in seen:
            seen[r] = frozenset(z)
    return [(r, z) for r, z in seen.items()]


def _h_to_v(n: int, ineqs, eqs) -> tuple[tuple, tuple]:
    """V-representation of {x : ineq.x >= 0, eq.x = 0}."""
    eqs = [vec(e) for e in eqs if not is_zero_vec(vec(e))]
    if eqs:
        K = kernel_basis(mat(eqs), n)
    else:
        K = [_unit(n, j) for j in range(n)]
    d = len(K)
    if d == 0:
        return (), ()
    restricted = [tuple(vdot(vec(a), k) for k in K) for a in ineqs]
    rays_y, lin_y = _dd_pointed(d, restricted)

    def lift(y):
        out = vzero(n)
        for c, k in zip(y, K):
            out = vadd(out, vscale(c, k))
        return out

    return _canon_rays(lift(y) for y in rays_y), _canon_span(lift(y) for y in lin_y)


# ---------------------------------------------------------------------------
# de-homogenized polyhedron queries


def contains_polyhedron(self, other) -> bool:
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


def same_set(self, other) -> bool:
    return contains_polyhedron(self, other) and contains_polyhedron(other, self)


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


def is_face_of(self, other) -> bool:
    """Whether self is a (proper or improper) face of other."""
    if self.is_empty():
        return True
    if not contains_polyhedron(other, self):
        return False
    ineqs, eqs = other.hrep()
    tight = [(a, b) for a, b in ineqs if lies_in_hyperplane(self, a, b)]
    face = other.intersect_hrep(eqs=tight)
    return same_set(face, self)


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
