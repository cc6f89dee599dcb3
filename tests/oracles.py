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

``is_increasing`` is the increasing-cone test as it ran one double
description per coordinate slice, and ``is_generic_wrt`` the genericity
test as it ran ``Fraction`` ranks; both are kept verbatim so that the
face-based test in ``tropsplit.cones`` and the integer test in
``tropsplit.exact`` can be checked against them.  ``sign_normalized`` is
kept for ``direction_space``.
"""

from __future__ import annotations

from fractions import Fraction

from tropsplit.cones import Cone, _check_in_orthant
from tropsplit.exact import (
    GenericityCertificate,
    Vec,
    fr,
    is_zero_vec,
    kernel_basis,
    mat,
    primitive,
    rank,
    rref,
    vadd,
    vdot,
    vec,
    vscale,
    vsub,
    vzero,
)


def sign_normalized(a) -> tuple:
    """Primitive integer vector with first nonzero entry positive."""
    p = primitive(a)
    for x in p:
        if x != 0:
            return p if x > 0 else tuple(-y for y in p)
    return p


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


# ---------------------------------------------------------------------------
# the cone condition by slices, genericity by rational ranks


def is_increasing(cone: Cone) -> bool:
    """Increasing-cone test: every coordinate truncation slice of C inside
    the nonnegative orthant is a cone of the expected dimension.

    The i-th slice is C with coordinates i+1..n forced to zero; C is
    increasing when slice i has dimension exactly i for all i.  Raises if C
    is not contained in the orthant.
    """
    n = cone.ambient_dim
    _check_in_orthant(cone)
    for i in range(1, n + 1):
        tail = [_unit(n, k) for k in range(i, n)]
        sliced = Cone(n, ineqs=cone.ineqs, eqs=cone.eqs + tuple(tail))
        if sliced.dim() != i:
            return False
    return True


def is_generic_wrt(v, subspaces, labels=None) -> GenericityCertificate:
    """Effective genericity: v lies in none of the given proper subspaces.

    Each subspace is a list of rational basis vectors.  Raises ValueError
    if a listed subspace is the whole space.
    """
    v = vec(v)
    n = len(v)
    labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(len(subspaces)))
    violations = []
    for idx, B in enumerate(subspaces):
        Bm = mat(B)
        r = rank(Bm)
        if r >= n:
            raise ValueError("subspace %s is the full space" % labels[idx])
        if rank(Bm + (v,)) == r:
            violations.append(idx)
    return GenericityCertificate(not violations, tuple(violations), labels)
