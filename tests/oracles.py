"""Frozen reference implementations used only by the tests.

``_h_to_v`` and ``_dd_pointed`` with their helpers are the double
description conversion as it ran on ``fractions.Fraction`` vectors with
frozenset zero-sets, kept verbatim so that the integer-only conversion in
``tropsplit.cones`` can be checked against it for exact equality once
``canonical_vrep`` has put both outputs in the form canonical for the set
(the frozen one reduces rays modulo the lineality in the coordinates of
the given equalities, so its representatives can differ).

``contains_polyhedron``, ``same_set``, ``lies_in_hyperplane``,
``is_face_of`` and ``direction_space`` are the ``Polyhedron`` queries as
they ran de-homogenized on vertices, recession rays and the minimal
``hrep()``, kept verbatim (with ``self`` as an argument) so that the cone
form in ``tropsplit.polyhedra`` can be checked against them.

``cone_condition`` and ``split_report`` are the cone-condition verdict and
the split report as they ran with every step repeated per cone direction:
Disc's preimage, an orthant ``intersect`` and a conversion from the full
space, the increasing test by one conversion per slice (this module's
``is_increasing``, not the library's), a full elimination per genericity
subspace and ``Fraction`` projections, both cached cones serialized again
and, in ``_head``, every input serialized and hashed again with no memo;
they are kept verbatim (the family passed by its bases, and the
``Fraction`` projections handed to the verdict as integers over eta's
common denominator, the form its fields now take) so that the per-graph
caches and the orthant cut of ``tropsplit.splitting`` can be checked
against them.  ``genericity_family`` is the genericity family as it sliced
the rows of Disc's minimal form again, each through its own transpose of
the edge's projection; it is kept verbatim so that the family read off
``QuasiSplitGraph.pull_table`` can be checked against it, and
``cone_condition`` reads it in place of the library's.

``is_increasing`` is the increasing-cone test as it ran one double
description per coordinate slice, and ``is_generic_wrt`` the genericity
test as it ran ``Fraction`` ranks; both are kept verbatim so that the
ray-support test in ``tropsplit.cones`` and the integer test in
``tropsplit.exact`` can be checked against them.  ``sign_normalized`` is
kept for ``direction_space``.

``toric_cut`` is the multiple cut as it ran one polyhedron conversion for
each of its 3^N sign vectors and found face pairs by scanning all pairs of
kept cells; it is kept verbatim so that the pruned sign-prefix walk in
``tropsplit.complexes`` can be checked against it.

``cut_combinatorics`` is not a frozen copy: it derives a cut's pair
table, face pairs and dual cells from its kept sign vectors alone, with no
geometry, so that ``intersection_cell``, the face pairs and the dual cells
of ``toric_cut`` can be checked against it.

``intersection_cell``, ``listed_faces`` and ``is_tropical_fiber`` are how
``tropsplit.complexes`` named cell intersections and facets: one
conversion of each intersection (and of each facet, cut from its cell by
its row), named by a ``same_set`` scan over every listed cell in sorted
order.  They are kept verbatim (with the decomposition as an argument, and
without the intersection cache) so that the containment and tight-set
certificates and the canonical-key lookup can be checked against them.

``face_closure`` and ``faces_of`` are the face poset as
``Decomposition`` cached it twice, as a set of (face, cell) pairs closed
under transitivity and as a sorted list of each cell's faces built from
it, and ``poset_cycle`` is how ``validate`` named a cycle by scanning the
sorted pairs; they are kept verbatim (with the decomposition as an
argument, and without the caches) so that the one table of face sets in
``tropsplit.complexes`` can be checked against them.

``dd_step`` is the integer double description step as it ran an
elimination of the remaining lineality basis and a reduction of every ray
when a row cut the lineality space, ``dd_cut`` is ``DDState.cut`` as it
took one step per row, a repeated row too, and ``read_off`` the minimal
H-representation read off a conversion's zero-sets as it computed the
equalities by ``_rref_int(_kernel_int(_rref_int(rays + lin)))``; both are
kept verbatim (their helpers renamed ``_int_reduce_mod_span`` and
``_int_dedupe``, and ``dd_cut`` stepping with ``dd_step``) so that the
elimination-free step, the cut that steps once per distinct row and the
reading of the implicit rows in ``tropsplit.cones`` can be checked against
them.

``vertex_positions`` (with its ``direction_rows``, the rows of an edge's
quotient projection, and its result type) is the position polyhedron as it
decided strict realizability by one hyperplane test per strict row,
``hom_lies_in_hyperplane`` (once ``Polyhedron.lies_in_hyperplane``),
computed its dimension eagerly and each edge's quotient projection per
call, and ``lattice_contains`` is ``IntegerLattice.contains`` as it ran
one elimination per call.  Both are kept verbatim (with ``self`` as an
argument) so that the zero-set read-off in ``tropsplit.graphs`` and the
echelon reduction in ``tropsplit.exact`` can be checked against them.
Its witness is this module's ``relative_interior_point``, the mean of the
vertices plus the recession rays summed in ``Fraction`` arithmetic, so the
library's integer generator sum is checked against a route of its own.
``intersect_hrep`` is ``Polyhedron.intersect_hrep`` and ``lattice_spans``
is ``IntegerLattice.spans`` (with ``self`` as an argument), which only the
tests and the oracles here used.

``relative_position_cone`` is the relative-position cone W as it placed
each vertex's rows with ``block_row`` and each edge's with its own
``direction_rows``, here renamed ``pivot_direction_rows``; the three are
kept verbatim so that ``graphs.graph_rows``, the one builder of the
vertex-block systems, can be checked against them.  Its per-vertex cell
is this module's ``cone_of_relative_cell`` unless another is passed:
the relative cell as it was generated by every difference of a vertex of
dual(P(v)) and a vertex of dual(P(kappa v)), with the recession rays of
the one and the negated ones of the other, and converted; it is kept
verbatim so that the cell read off the dual rows
(``complexes.relative_cell_rows``) can be checked against it.

``rref``, ``rank``, ``kernel_basis`` and ``solve`` are the ``Fraction``
Gauss-Jordan elimination and ``saturate``/``saturated_kernel_lattice`` the
lattices as they ran through an inverse of the Smith transform, and
``symmetry_numbers`` is how ``symmetry_group`` computed its dimension,
torsion and exponent lattice; all are kept verbatim so that the views of
the integer elimination and the one-Smith-form lattices in
``tropsplit.exact`` can be checked against them.  The oracles above use
these frozen versions too.  ``mat``, ``transpose``, ``det``, ``matmul``,
``vneg``, ``vzero``, ``vsub``, ``vscale``, ``count_root_solutions`` and
``tail_of_sequence_in`` are helpers and brute-force checks that only the
tests use; ``_generators`` reads a ``Polyhedron``'s vertices, recession
rays and lineality for the de-homogenized queries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from tropsplit import __version__
from tropsplit.complexes import (
    MAX_SIGN_VECTORS,
    Decomposition,
    DecompositionError,
    DualCell,
    Polytope,
)
from tropsplit.cones import Cone, _check_in_orthant
from tropsplit.exact import (
    GenericityCertificate,
    _dot,
    _kernel_int,
    _lead,
    _rref_int,
    IntegerLattice,
    Mat,
    Subspace,
    Vec,
    fr,
    gcd_reduce,
    hermite_normal_form,
    imat,
    invariant_factors,
    is_zero_vec,
    primitive,
    quotient_projection,
    ratvec,
    smith_normal_form,
    vadd,
    vdot,
)
from tropsplit.graphs import TROPICAL, GraphError, pair_row, validate_graph
from tropsplit.polyhedra import Polyhedron, _difference, _hom
from tropsplit.reports import digest
from tropsplit.serialize import canonical_json, cone_to_dict, vec_str
from tropsplit.splitting import (
    ConeConditionVerdict,
    SplitError,
    index_shift,
    is_rigid_split,
)


def vec(xs) -> Vec:
    """Exact vector with every entry a ``Fraction`` (see ``exact.fr``)."""
    return tuple(fr(x) for x in xs)


def vzero(n: int) -> Vec:
    return (Fraction(0),) * n


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, a: Vec) -> Vec:
    c = fr(c)
    return tuple(c * x for x in a)


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


def canonical_vrep(rays, lin) -> tuple[tuple, tuple]:
    """A V-representation in the form that is canonical for its set: the
    lineality as primitive rref rows, and each ray reduced modulo them (zero
    at every pivot), primitive, the rays sorted."""
    span = _canon_span(lin)
    return _canon_rays(_reduce_mod_span(span, r) for r in rays), span


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


def _generators(p) -> tuple:
    """Vertices, recession rays and lineality of a ``Polyhedron``."""
    return p.vertices, p.recession_rays, p.lineality


def contains_polyhedron(self, other) -> bool:
    verts, rays, lin = _generators(other)
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
    verts, rays, lin = _generators(self)
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
    face = intersect_hrep(other, eqs=tight)
    return same_set(face, self)


def direction_space(self) -> list:
    """Basis rows of the affine hull's direction space."""
    verts, rays, lin = _generators(self)
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


# ---------------------------------------------------------------------------
# the cone condition and split report with every step run per direction


def genericity_family(q):
    """Proper rational subspaces of t that the cone direction must avoid:
    per split edge, the direction span, the block slice of span(Disc) when
    proper, and block slices of the facet hyperplanes of Disc.  Each is
    listed once, as a ``Subspace``: duplicates are found by the canonical
    basis of primitive integer rref rows, computed here, not by the
    annihilator the library compares."""
    data = q.disc
    n = q.n
    fam, labels = [], []
    seen = set()

    def add(basis_rows, label):
        basis = _rref_int(map(primitive, basis_rows))
        S = Subspace.spanned_by(basis_rows, n)
        if not basis or not S.annihilator or basis in seen:
            return
        seen.add(basis)
        fam.append(S)
        labels.append(label)

    disc_min = data.disc.minimal()
    complement = disc_min.eqs  # the orthogonal complement of span(Disc)
    width = n - 1

    def sliced_kernel(vs, proj, lo):
        """Subspace of t on which every block slice of vs vanishes after
        the projection; the whole space when every slice is zero."""
        cols = tuple(zip(*proj))
        rows = [tuple(_dot(col, v[lo : lo + width]) for col in cols) for v in vs]
        return _kernel_int(_rref_int(rows), n)

    for i, (bid, d, proj) in enumerate(data.blocks):
        add([d], f"direction span of {bid}")
        lo = i * width
        add(sliced_kernel(complement, proj, lo), f"span(Disc) sliced at {bid}")
        for k, a in enumerate(disc_min.ineqs):
            add(sliced_kernel([a], proj, lo), f"facet {k} of Disc sliced at {bid}")
    return fam, labels


def cone_condition(q, eta) -> ConeConditionVerdict:
    """Literal cone-condition verdict plus the effective-genericity
    certificate.  A failed certificate does not flip ``holds``; it marks
    the verdict as not certified."""
    eta = vec(eta)
    if len(eta) != q.n:
        raise SplitError("cone direction has wrong dimension")
    if is_zero_vec(eta):
        raise SplitError("cone direction must be nonzero")
    data = q.disc
    n, s = q.n, q.num_split
    if s == 0:
        cert = GenericityCertificate(True, (), ())
        return ConeConditionVerdict(True, True, cert, Cone.zero(0), 0, 0, (), 1)
    # M_eta maps the scalings x to the blocks x_i pi_i(eta); it is built from
    # the primitive integer multiple of eta, which leaves the preimage cone
    # unchanged
    eta_int = primitive(eta)
    m_eta_rows = []
    for i, (bid, d, proj) in enumerate(data.blocks):
        for prow in proj:
            row = [0] * s
            row[i] = _dot(prow, eta_int)
            m_eta_rows.append(row)
    pre = data.disc.preimage(m_eta_rows, domain_dim=s)
    orthant = Cone.from_hrep([_unit(s, i) for i in range(s)])
    D = pre.intersect(orthant).minimal()
    holds = is_increasing(D)
    fam, labels = genericity_family(q)
    cert = is_generic_wrt(eta_int, [_kernel_int(_rref_int(S.annihilator), n) for S in fam],
                          labels)
    den = lcm(*(x.denominator for x in eta))
    return ConeConditionVerdict(
        holds=holds,
        certified=cert.generic,
        certificate=cert,
        D=D,
        disc_dim=data.disc.dim(),
        expected_disc_dim=s * (n - 1),
        # pi(eta) = projected_num / den, with den the lcm of eta's denominators
        projected_num=tuple(
            tuple(int(x * den) for x in matvec(proj, eta)) for _, _, proj in data.blocks
        ),
        den=den,
    )


def _head(command: str, inputs: dict) -> dict:
    return {
        "tool": "tropsplit",
        "version": __version__,
        "command": command,
        "inputs": {k: digest(canonical_json(v).encode()) for k, v in sorted(inputs.items())},
    }


def split_report(q, eta, inputs: dict, i_br=None) -> dict:
    cc = cone_condition(q, eta)
    out = _head("split-check", inputs)
    out.update(
        {
            "eta": vec_str(eta),
            "split_order": list(q.split_order),
            "w_cone": cone_to_dict(q.w),
            "w_dim": q.w.dim(),
            "disc_cone": cone_to_dict(q.disc.disc),
            "disc_dim": cc.disc_dim,
            "expected_disc_dim": cc.expected_disc_dim,
            "disc_dim_matches": cc.disc_dim == cc.expected_disc_dim,
            "projected_eta": [vec_str(p) for p in cc.projected_eta],
            "scalings_cone": cone_to_dict(cc.D),
            "cone_condition_holds": cc.holds,
            "genericity_certified": cc.certified,
            "genericity_violations": [
                cc.certificate.labels[i] for i in cc.certificate.violations
            ],
            "accepted": cc.holds and cc.certified,
            "rigid_split": is_rigid_split(q),
        }
    )
    if i_br is not None:
        i_split, i_red = index_shift(q, i_br)
        out["index_shift"] = {"i_br": int(i_br), "i_split": i_split, "i_red": i_red}
    return out


# ---------------------------------------------------------------------------
# the toric cut over all 3^N sign vectors, one conversion each


def toric_cut(normals, constants, epsilons, lam) -> tuple[Decomposition, str]:
    """Multiple-cut decomposition of a moment polytope.

    The polytope Delta = {x : <mu_i, x> <= c_i} is cut along the hyperplanes
    <mu_i, x> = c_i - eps_i.  Cells are indexed by sign vectors; the cell
    containing ``lam`` (which must satisfy <mu_i, lam> < c_i - eps_i
    strictly) is the inner polytope.  All cells of positive codimension are
    marked split.  Returns (decomposition, inner_cell_id).  A cut whose
    3^N sign vectors exceed ``MAX_SIGN_VECTORS`` raises before any
    conversion.
    """
    normals = imat(normals)
    N = len(normals)
    if 3**N > MAX_SIGN_VECTORS:
        raise DecompositionError(
            f"{N} facets give 3^{N} = {3**N} sign vectors, more than the "
            f"bound of {MAX_SIGN_VECTORS} sign vectors a cut may visit"
        )
    constants = [fr(c) for c in constants]
    epsilons = [fr(e) for e in epsilons]
    if not normals:
        raise DecompositionError("no facets")
    n = len(normals[0])
    if len(constants) != N or len(epsilons) != N:
        raise DecompositionError("normals, constants, epsilons must have equal length")
    if any(e <= 0 for e in epsilons):
        raise DecompositionError("epsilons must be positive")
    lam = vec(lam)
    delta_rows = [(m, c) for m, c in zip(normals, constants)]
    delta = Polyhedron.from_hrep(n, ineqs=delta_rows)
    if delta.is_empty() or delta.dim() != n:
        raise DecompositionError("moment polytope is not full-dimensional")
    rec = Cone(n, ineqs=[tuple(-x for x in m) for m in normals])
    if rec.dim() != 0:
        raise DecompositionError("moment polytope is unbounded")
    cuts = [c - e for c, e in zip(constants, epsilons)]
    for m, cut in zip(normals, cuts):
        if not vdot(m, lam) < cut:
            raise DecompositionError("base point is not strictly inside the inner cell")

    def cell_id(sigma):
        return "c" + "".join({-1: "m", 0: "z", 1: "p"}[s] for s in sigma)

    kept: dict[tuple, Polyhedron] = {}
    for sigma in itertools.product((-1, 0, 1), repeat=N):
        ineqs = list(delta_rows)
        eqs = []
        for s, m, cut in zip(sigma, normals, cuts):
            if s < 0:
                ineqs.append((m, cut))
            elif s > 0:
                ineqs.append((tuple(-x for x in m), -cut))
            else:
                eqs.append((m, cut))
        poly = Polyhedron.from_hrep(n, ineqs=ineqs, eqs=eqs)
        if poly.is_empty():
            continue
        # the relatively open cell must be nonempty: the closed cell may not
        # collapse onto the boundary hyperplane of any strict sign
        degenerate = any(
            s != 0 and hom_lies_in_hyperplane(poly, m, cut)
            for s, m, cut in zip(sigma, normals, cuts)
        )
        if degenerate:
            continue
        kept[sigma] = poly

    polytopes = []
    dual_cells = []
    faces = []
    split = []
    for sigma, poly in kept.items():
        pid = cell_id(sigma)
        ineqs, eqs = poly.hrep()
        rows = tuple(ineqs) + tuple(
            pair for a, b in eqs for pair in ((a, b), (tuple(-x for x in a), -b))
        )
        polytopes.append(Polytope(pid, rows, dim=poly.dim()))
        zeros = [i for i, s in enumerate(sigma) if s == 0]
        if zeros:
            split.append(pid)
        verts = set()
        for signs in itertools.product((-1, 1), repeat=len(zeros)):
            full = list(sigma)
            for z, s in zip(zeros, signs):
                full[z] = s
            full = tuple(full)
            if full in kept:
                v = vec([0] * n)
                for i, s in enumerate(full):
                    if s > 0:
                        v = tuple(x + y for x, y in zip(v, normals[i]))
                verts.add(v)
        dual_cells.append(DualCell(pid, tuple(sorted(verts)), ()))
    sigmas = list(kept)
    for s1 in sigmas:
        for s2 in sigmas:
            if s1 == s2:
                continue
            if all(a == b or a == 0 for a, b in zip(s1, s2)):
                faces.append((cell_id(s1), cell_id(s2)))
    inner = cell_id(tuple([-1] * N))
    if inner not in {p.id for p in polytopes}:
        raise DecompositionError("inner cell did not survive the cut")
    dec = Decomposition(n, polytopes, faces, dual_cells, split)
    return dec, inner


# ---------------------------------------------------------------------------
# a cut's combinatorics from its kept sign vectors alone


def _signs(v) -> tuple:
    """A sign vector as its pair of sets (positions of +, positions of -)."""
    return (frozenset(i for i, x in enumerate(v) if x > 0),
            frozenset(i for i, x in enumerate(v) if x < 0))


def cut_combinatorics(kept, normals) -> tuple[dict, set, dict]:
    """The pair table, the face pairs and the dual cells of a toric cut,
    from its kept sign vectors and its normals only.

    The cells of a cut are the nonempty sign classes of its hyperplanes
    inside Delta.  A sign vector v conforms to rho when v is 0 where rho
    is 0, and rho's sign or 0 elsewhere: its + set lies in rho's + set and
    its - set in rho's - set.  The closed class of rho is the union of the
    kept cells that conform to it.  Closed cells sigma and tau meet in the
    closed class of rho, where rho_i = sigma_i if sigma_i = tau_i and 0
    otherwise (so rho's sets are the intersections of theirs).  That class
    is convex, so it is one closed cell, the conforming kept vector with
    the fewest zeros, or empty when no kept vector conforms.  The faces of
    sigma are the kept vectors that conform to it, and its dual vertices
    are the sums of the normals with sign + over the full-sign kept
    vectors sigma conforms to (Bjoerner et al., *Oriented Matroids*,
    ch. 4).

    Returns the meet or None of every unordered pair (sigma, tau) of kept
    vectors, sigma <= tau, sigma = tau included; the (face, cell) pairs of
    proper faces; and each kept vector's dual vertices, sorted.  Raises
    ValueError when two conforming vectors tie for the fewest zeros: the
    kept vectors are then not the cells of a complex.
    """
    signs = {v: _signs(v) for v in sorted(set(map(tuple, kept)))}

    def conforming(plus, minus):
        return [v for v, (p, m) in signs.items() if p <= plus and m <= minus]

    meets = {}

    def meet(rho):
        if rho not in meets:
            found = conforming(*rho)
            fewest = min((v.count(0) for v in found), default=None)
            best = [v for v in found if v.count(0) == fewest]
            if len(best) > 1:
                raise ValueError(f"{best} tie as the meet of the class of {rho}")
            meets[rho] = best[0] if best else None
        return meets[rho]

    pairs = {(s, t): meet((signs[s][0] & signs[t][0], signs[s][1] & signs[t][1]))
             for s, t in itertools.combinations_with_replacement(signs, 2)}
    faces = {(v, s) for s in signs for v in conforming(*signs[s]) if v != s}
    n = len(normals[0])

    def vertex(v):
        return tuple(sum(m[j] for m, x in zip(normals, v) if x > 0) for j in range(n))

    top = [v for v in signs if 0 not in v]
    duals = {s: tuple(sorted({vertex(v) for v in top
                              if signs[s][0] <= signs[v][0] and signs[s][1] <= signs[v][1]}))
             for s in signs}
    return pairs, faces, duals


# ---------------------------------------------------------------------------
# cell intersections by one conversion each, named by a same_set scan


def listed_faces(self, poly: Polyhedron, *cells: str):
    """Ids, in sorted order, of the listed cells that are faces of every
    given cell and equal poly as a set."""
    for q in sorted(self.polytopes):
        if all(self.face_le(q, p) for p in cells) and self.cell(q).same_set(poly):
            yield q


def intersection_cell(self, p1: str, p2: str) -> str | None:
    """Id of the listed cell equal to p1 n p2, or None when empty.

    Raises DecompositionError when the intersection is nonempty but not
    a listed common face.
    """
    inter = self.cell(p1).intersect(self.cell(p2))
    result: str | None = None
    if not inter.is_empty():
        result = next(listed_faces(self, inter, p1, p2), None)
        if result is None:
            raise DecompositionError(
                f"intersection of {p1} and {p2} is not a listed common face"
            )
    return result


def is_tropical_fiber(dec: Decomposition, p0: str, lam) -> bool:
    """Whether lam is interior to the cell p0 and every facet of p0 is a
    listed cell of the decomposition (so all invariant divisors of the
    inner piece are relative)."""
    if p0 not in dec.polytopes:
        raise DecompositionError(f"unknown cell {p0}")
    geom = dec.cell(p0)
    lam = ratvec(lam)
    ineqs, eqs = geom.hrep()
    if not geom.contains(lam):
        return False
    for a, b in ineqs:
        if _dot(a, lam) == b:
            return False  # lam on the boundary
    for a, b in eqs:
        if _dot(a, lam) != b:
            return False
    for a, b in ineqs:
        facet = intersect_hrep(geom, eqs=[(a, b)])
        if not any(q != p0 for q in listed_faces(dec, facet, p0)):
            return False
    return True


# ---------------------------------------------------------------------------
# the face poset as a closure of pairs and a sorted face list per cell


def face_closure(self) -> frozenset:
    adj: dict[str, set] = {}
    for q, p in self.face_pairs:
        adj.setdefault(q, set()).add(p)
    out = set()
    for q in self.polytopes:
        seen = set()
        stack = list(adj.get(q, ()))
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            stack.extend(adj.get(p, ()))
        out.update((q, p) for p in seen)
    return frozenset(out)


def faces_of(self) -> dict:
    """Ids, in sorted order, of the listed faces of each cell (itself
    included)."""
    below = {q: {q} for q in self.polytopes}
    for q, r in face_closure(self):
        below[r].add(q)
    return {q: sorted(faces) for q, faces in below.items()}


def poset_cycle(self) -> str | None:
    """The error ``validate`` raised for a cycle in the face poset, or None."""
    closure = face_closure(self)
    for q, p in sorted(closure):
        if q != p and (p, q) in closure:
            return f"face poset has a cycle through {q},{p}"
    return None


# ---------------------------------------------------------------------------
# the integer double description step and read-off with their eliminations


def _int_reduce_mod_span(span, v) -> tuple:
    """Primitive canonical coset representative of v modulo the span of
    primitive rref rows: the one that vanishes at every pivot."""
    for row in span:
        p = _lead(row)
        f = v[p]
        if f:
            q = row[p]
            v = [q * x - f * y for x, y in zip(v, row)]
    return gcd_reduce(v)


def _int_dedupe(pairs):
    seen = {}
    for r, z in pairs:
        if any(r) and r not in seen:
            seen[r] = z
    return list(seen.items())


def dd_step(lin: tuple, rays: list, a, bit: int) -> tuple[tuple, list]:
    """One double description step: cut the cone generated by the
    lineality basis ``lin`` and the extreme rays ``rays`` with ``a.y >= 0``.

    ``rays`` pairs each ray with its zero-set over the earlier rows, which
    hold the bits below ``bit``, the new row's bit.  Returns the new
    (lin, rays), rays again extreme modulo the lineality space and paired
    with their zero-sets, now over the new row too.
    """
    if not any(a):
        return lin, [(r, z | bit) for r, z in rays]
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
                _int_reduce_mod_span(
                    lin, [al0 * x - _dot(a, r) * y for x, y in zip(r, l0)]
                ),
                z | bit,
            )
            for r, z in rays
        ]
        new_rays.append((_int_reduce_mod_span(lin, l0), bit - 1))
        return lin, _int_dedupe(new_rays)
    # a vanishes on the lineality space and every ray already vanishes
    # at the pivots of its basis, so combinations need no reduction
    vals = [_dot(a, r) for r, _ in rays]
    plus = [(r, z, v) for (r, z), v in zip(rays, vals) if v > 0]
    minus = [(r, z, v) for (r, z), v in zip(rays, vals) if v < 0]
    zero = [(r, z | bit) for (r, z), v in zip(rays, vals) if v == 0]
    if not minus:
        return lin, [(r, z) for r, z, _ in plus] + zero
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
    return lin, _int_dedupe([(r, z) for r, z, _ in plus] + zero + combos)


def dd_cut(lin: tuple, rays: list, done, rows) -> tuple[tuple, list]:
    """``DDState.cut``, from the state (lin, rays) after the rows ``done``,
    as it stepped once per row of ``rows``, a row equal to an earlier one
    too."""
    for i, a in enumerate(rows, len(done)):
        lin, rays = dd_step(lin, rays, a, 1 << i)
    return lin, rays


def read_off(n: int, rows, zs, rays, lin) -> tuple[tuple, tuple]:
    """The minimal H-representation of the cone cut out by the primitive
    rows ``a.x >= 0`` (and equalities, which play no part), read off the
    output of its conversion: extreme rays ``rays`` with their zero-sets
    ``zs`` over ``rows``, and the lineality basis ``lin``.

    The equalities are the rref basis of the orthogonal complement of the
    span.  Every facet is cut out by some row, and faces are ordered as
    the rays they hold, so a row is a facet exactly when the set of rays
    it is tight on is proper and maximal among the rows' sets; its
    representative is the row reduced modulo the equalities.  Run on the
    dual, the same reading gives the extreme rays and lineality of a cone
    from its generators and its converted facets.
    """
    eqs = _rref_int(_kernel_int(_rref_int(rays + lin), n))
    tight = [0] * len(rows)
    for j, z in enumerate(zs):
        while z:
            low = z & -z
            tight[low.bit_length() - 1] |= 1 << j
            z ^= low
    # rows with one tight set cut out one face, so one row stands for it
    full = (1 << len(zs)) - 1
    faces = {}
    for i, t in enumerate(tight):
        if t != full:
            faces.setdefault(t, i)
    facets = [
        _int_reduce_mod_span(eqs, rows[i])
        for t, i in faces.items()
        if not any(t & u == t and t != u for u in faces)
    ]
    return tuple(sorted(facets)), eqs


# ---------------------------------------------------------------------------
# rational elimination and lattices as they ran on ``Fraction`` rows


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def matvec(M: Mat, x: Vec) -> Vec:
    return tuple(vdot(row, x) for row in M)


def transpose(M: Mat) -> Mat:
    return tuple(zip(*M)) if M else ()


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def eye(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def matmul(A: Mat, B: Mat) -> Mat:
    Bt = transpose(B)
    return tuple(tuple(vdot(row, col) for col in Bt) for row in A)


def rref(M: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with deterministic pivoting.

    Returns (R, pivot_columns).  The pivot in each step is the first row
    (top to bottom) with a nonzero entry in the first unused column.
    """
    rows = [list(r) for r in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(M: Mat) -> int:
    if not M:
        return 0
    return len(rref(M)[1])


def kernel_basis(M: Mat, n: int | None = None) -> list[Vec]:
    """Basis of the right kernel {x : M x = 0}, in canonical order.

    ``n`` gives the ambient dimension when M has no rows.
    """
    if not M:
        if n is None:
            raise ValueError("ambient dimension required for a matrix without rows")
        return list(eye(n))
    n = len(M[0])
    R, pivots = rref(M)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(tuple(v))
    return basis


def solve(M: Mat, b: Vec) -> Vec | None:
    """One exact solution of M x = b, or None if inconsistent."""
    if not M:
        return ()
    n = len(M[0])
    aug = tuple(tuple(row) + (bb,) for row, bb in zip(M, b, strict=True))
    R, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = R[r][n]
    return tuple(x)


def det(M: Mat) -> Fraction:
    rows = [list(r) for r in M]
    n = len(rows)
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = -d
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


def torsion_order(M) -> int:
    """Product of the invariant factors exceeding 1."""
    out = 1
    for d in invariant_factors(M):
        if d > 1:
            out *= d
    return out


def saturate(L: IntegerLattice) -> IntegerLattice:
    """Largest lattice of the same rank in the same rational span.

    Computed from the Smith decomposition of the basis matrix (the first r
    rows of V^-1 span the saturation) and returned in Hermite normal form,
    which makes the operation literally idempotent.
    """
    if not L.basis:
        return L
    B = imat(L.basis)
    r = len(B)
    _, _, V = smith_normal_form(B)
    Vinv = _integer_inverse(V)
    return IntegerLattice(L.ambient_dim, hermite_normal_form(Vinv[:r]))


def _integer_inverse(V) -> tuple:
    n = len(V)
    aug = tuple(
        tuple(Fraction(V[i][j]) for j in range(n))
        + tuple(Fraction(1 if i == j else 0) for j in range(n))
        for i in range(n)
    )
    R, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    out = []
    for i in range(n):
        row = R[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("inverse is not integral")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def saturated_kernel_lattice(M: Mat, n: int | None = None) -> IntegerLattice:
    """Saturated integer lattice of the rational kernel of M."""
    kb = kernel_basis(M, n)
    n = n if n is not None else (len(M[0]) if M else 0)
    if not kb:
        return IntegerLattice(n, ())
    prim = [primitive(v) for v in kb]
    return saturate(IntegerLattice(n, tuple(prim)))


def symmetry_numbers(rows, nvars: int) -> tuple:
    """(complex dimension, torsion order, exponent lattice) of a relation
    matrix, as ``symmetry.symmetry_group`` computed them: a ``Fraction``
    rank, the saturated ``Fraction`` kernel, and the torsion of a separate
    Smith form."""
    r = rank(mat(rows)) if rows else 0
    lattice = (
        saturated_kernel_lattice(mat(rows), nvars)
        if rows
        else IntegerLattice(nvars, tuple(tuple(1 if i == j else 0 for j in range(nvars))
                                         for i in range(nvars)))
    )
    return nvars - r, torsion_order(rows) if rows else 1, lattice


# ---------------------------------------------------------------------------
# brute-force checks used only by the tests


def count_root_solutions(rows, nvars: int, order: int, cap: int = 2_000_000) -> int:
    """Brute-force oracle: number of solutions of the multiplicative system
    with all variables `order`-th roots of unity, i.e. of A u = 0 over
    Z/order.  For a zero-dimensional group this equals the torsion order."""
    if order < 1:
        raise ValueError("order must be positive")
    if order ** nvars > cap:
        raise ValueError("enumeration too large")
    rows = imat(rows)
    count = 0
    for u in product(range(order), repeat=nvars):
        if all(sum(r * x for r, x in zip(row, u)) % order == 0 for row in rows):
            count += 1
    return count


def tail_of_sequence_in(cone: Cone, scales) -> bool:
    """Whether (s_1 nu^{n-1}, s_2 nu^{n-2}, ..., s_n) lies in C for all
    large nu; decided symbolically by leading coefficients in nu.

    ``scales`` are n positive rationals multiplying the standard
    increasing sequence.
    """
    n = cone.ambient_dim
    scales = vec(scales)
    if len(scales) != n or any(s <= 0 for s in scales):
        raise ValueError("scales must be n positive rationals")

    def sign_at_infinity(a):
        for i in range(n):  # falling degrees n-1 .. 0
            c = a[i] * scales[i]
            if c != 0:
                return 1 if c > 0 else -1
        return 0

    for a in cone.ineqs:
        if sign_at_infinity(a) < 0:
            return False
    for a in cone.eqs:
        if sign_at_infinity(a) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# vertex positions by a hyperplane test per strict row, lattice membership
# by elimination


def hom_lies_in_hyperplane(self, a, b) -> bool:
    """Whether the whole polyhedron satisfies a.x = b (the empty one
    lies in every hyperplane)."""
    row = _hom(a, b)
    return self.is_empty() or not any(
        _dot(row, g) for g in self.cone.rays + self.cone.lineality
    )


def intersect_hrep(self, ineqs=(), eqs=()) -> Polyhedron:
    """Intersection with additional rows (a, b)."""
    rows = Cone(
        self.ambient_dim + 1,
        ineqs=[_hom(a, b) for a, b in ineqs],
        eqs=[_hom(a, b) for a, b in eqs],
    )
    return Polyhedron(self.ambient_dim, self.cone.intersect(rows))


@dataclass(frozen=True)
class VertexPositionPolyhedron:
    """The fields ``vertex_positions`` returned, ``dim`` computed eagerly."""

    vertex_order: tuple
    closed: Polyhedron
    strict_rows: tuple  # rows (a, b) valid on `closed`, needed strictly
    realizable: bool
    realizable_weakly: bool
    dim: int
    witness: tuple | None


def direction_rows(direction, n_vars, ia, ib, n):
    """Equality rows forcing pos(a) - pos(b) onto the line of `direction`
    (the rows of its quotient projection), plus the inequality row whose
    sign is the multiplier."""
    eqs = [pair_row(n_vars, ia, ib, n, p) for p in quotient_projection(direction)]
    return eqs, pair_row(n_vars, ia, ib, n, direction)


def relative_interior_point(self) -> tuple:
    """(sum of the vertices + sum of the recession rays) / number of
    vertices, summed in ``Fraction`` arithmetic over the de-homogenized
    generators and checked to lie in the polyhedron."""
    vertices = self.vertices
    if not vertices:
        raise ValueError("empty polyhedron has no relative interior point")
    total = [sum(xs, Fraction(0)) for xs in zip(*vertices, *self.recession_rays)]
    point = tuple(x / len(vertices) for x in total)
    if not self.contains(point):
        raise RuntimeError("relative interior point outside the polyhedron")
    return point


def vertex_positions(dec: Decomposition, graph) -> VertexPositionPolyhedron:
    """The polyhedron of vertex position maps, with strict realizability."""
    validate_graph(dec, graph)
    order = tuple(graph.vertex_ids())
    n = dec.ambient_dim
    n_vars = n * len(order)
    index = {v: i for i, v in enumerate(order)}
    ineqs = []  # (row, b) meaning row.x <= b
    eqs = []
    strict = []  # rows (row, b) of `ineqs` that the strict system needs
    for v in order:
        dual = dec.dual(graph.label[v])
        cell_ineqs, cell_eqs = dual.hrep()
        for a, b in cell_ineqs:
            row = (block_row(n_vars, index[v], n, a), b)
            ineqs.append(row)
            strict.append(row)
        for a, b in cell_eqs:
            eqs.append((block_row(n_vars, index[v], n, a), b))
    for e in graph.tropical_edges():
        ia, ib = index[e.ends[0]], index[e.ends[1]]
        line_rows, ineq_row = direction_rows(e.direction, n_vars, ia, ib, n)
        eqs += [(r, 0) for r in line_rows]
        # <pos(a)-pos(b), d> >= 0, strictly for a positive multiplier
        row = (tuple(-x for x in ineq_row), 0)
        ineqs.append(row)
        strict.append(row)
    closed = Polyhedron.from_hrep(n_vars, ineqs=ineqs, eqs=eqs)
    weakly = not closed.is_empty()
    realizable = weakly and all(
        not hom_lies_in_hyperplane(closed, a, b) for a, b in strict
    )
    witness = relative_interior_point(closed) if realizable else None
    # a relative interior point avoids every strict boundary: no strict
    # row is implicit, so each cuts out a proper face.  The integer rows
    # are tested on witness = num / den over one common denominator.
    if witness is not None:
        den = lcm(*(x.denominator for x in witness))
        num = [x.numerator * (den // x.denominator) for x in witness]
        if not all(_dot(a, num) < b * den for a, b in strict):
            raise RuntimeError("relative interior point violates a strict row")
    return VertexPositionPolyhedron(
        vertex_order=order,
        closed=closed,
        strict_rows=tuple(strict),
        realizable=realizable,
        realizable_weakly=weakly,
        dim=closed.dim(),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# the relative-position cone by one row helper per block and per edge


def block_row(n_vars: int, block: int, n: int, a):
    """Row representing a.x_block."""
    row = [0] * n_vars
    for j, x in enumerate(a):
        row[block * n + j] = x
    return tuple(row)


def pivot_direction_rows(e, n_vars, ia, ib, n):
    """Equality rows forcing pos(a) - pos(b) onto the line of the edge's
    direction d, plus the inequality row whose sign is the multiplier.

    The line is cut out by n - 1 integer rows that annihilate d: with k
    the first coordinate where d is nonzero, the rows d_k e_i - d_i e_k
    for i != k, independent since each is d_k at its own i.  A cone keeps
    the canonical basis of its equalities, so any rows of the same span
    give the same cone; the Smith projection (``Edge.projection``) is only
    for coordinates that a report prints."""
    d = e.direction
    k = next((i for i, x in enumerate(d) if x), None)
    if k is None:
        raise GraphError(f"edge {e.id}: zero direction")
    eqs = []
    for i in range(n):
        if i != k:
            line = [0] * n
            line[i], line[k] = d[k], -d[i]
            eqs.append(pair_row(n_vars, ia, ib, n, line))
    return eqs, pair_row(n_vars, ia, ib, n, d)


def cone_of_relative_cell(dec: Decomposition, pv: str, pkv: str) -> Cone:
    """Cone(kappa, v): cone generated by dual(P(v)) minus dual(P(kappa v)).

    Requires P(v) to be a face of (or equal to) P(kappa v).  Both ids are
    checked first: ``face_le`` holds for any id and itself.
    """
    dec._known(pv, pkv)
    if not dec.face_le(pv, pkv):
        raise DecompositionError(f"{pv} is not a face of {pkv}")
    dv = dec.dual(pv)
    dk = dec.dual(pkv)
    # differences of the vertices, on the integer generators
    rays = [_difference(g, h) for g in dv.cone.rays if g[-1] for h in dk.cone.rays if h[-1]]
    rays.extend(dv.recession_rays)
    rays.extend(tuple(-x for x in r) for r in dk.recession_rays)
    return Cone(dec.ambient_dim, rays=rays, lineality=())


def relative_position_cone(q, cell=cone_of_relative_cell) -> Cone:
    """Cone of relative vertex positions: per-vertex relative cells with
    the direction condition on new edges (nonnegative multiples) and on
    retained non-split edges (real multiples); split edges are free."""
    n = q.n
    index = q.checked_top.index
    n_vars = n * len(index)
    ineqs: list = []
    eqs: list = []
    for v, i in index.items():
        cone_v = cell(q.dec, q.top.label[v], q.base.label[q.vertex_map[v]])
        ineqs += [block_row(n_vars, i, n, a) for a in cone_v.ineqs]
        eqs += [block_row(n_vars, i, n, a) for a in cone_v.eqs]
    collapsed = set(q.collapse.collapsed_edges)
    for e in q.top.edges:
        if e.kind != TROPICAL or e.id in q.top_split_ids:
            continue
        line_rows, ineq_row = pivot_direction_rows(
            e, n_vars, index[e.ends[0]], index[e.ends[1]], n
        )
        eqs += line_rows
        if e.id in collapsed:
            ineqs.append(ineq_row)  # new edge: nonnegative multiple
    return Cone(n_vars, ineqs=ineqs, eqs=eqs)


def lattice_contains(self, v) -> bool:
    """Exact membership of a rational vector.

    v = B^T x has one rational solution x when v spans with the basis B;
    the integer rref of [B^T | v] gives x_p = row[k] / row[p] for the
    row with pivot p, and v lies in the lattice when all are integers.
    """
    v = ratvec(v)
    if any(x.denominator != 1 for x in v):
        return False
    k = len(self.basis)
    R = _rref_int(zip(*self.basis, (x.numerator for x in v), strict=True))
    return all(_lead(row) < k and row[k] % row[_lead(row)] == 0 for row in R)


def lattice_spans(self, v) -> bool:
    """Membership of a rational vector in the rational span."""
    return len(_rref_int(self.basis + (primitive(v),))) == len(self.basis)
