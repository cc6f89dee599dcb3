"""Polyhedral decompositions of t-dual, dual complexes, and toric cuts.

A decomposition is a finite collection of cells (polytopes in t-dual given
by inequalities a.x <= b), a face poset, one dual cell per cell (a polytope
in t given by vertices and rays), and a designated split set of cells.

Cells meet in listed common faces.  A cell is the set cut out by its
rows, so a listed cell whose rows are exactly the union of two cells' rows
is their intersection as a set: ``Decomposition.intersection_cell`` tries
that first, on the first listed common face, and reads no geometry of the
two cells.  Every other pair (the empty ones among them) is answered
exactly by going on with one cell's double description state
(``Cone.state()``) cut by the other cell's rows, whose canonical
generators name the listed face.  A facet is its cell's rays tight on its
row; a cut's decomposition keeps the cones its walk kept, and their given
rows are the rows it cut them by.

A relative cell Cone(kappa, v), the cone of differences of the dual cells
of P(v) and of its face P(kappa v), is the tangent cone of dual(P(v)) at
the smaller dual cell: it is cut out by the rows of dual(P(v)) tight on
every generator of dual(P(kappa v)) and by its equalities, t dropped
(``relative_cell_rows``), read off rows already held, with no conversion
of the cell.  The same generators check that the smaller dual cell lies
in the larger one.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .cones import Cone, DDState
from .exact import (
    IntegerLattice,
    _dot,
    as_int,
    imat,
    primitive,
    ratvec,
    saturated_kernel_lattice,
    vdot,
)
from .polyhedra import Polyhedron, _hom, _pair


class DecompositionError(ValueError):
    pass


class Polytope(NamedTuple):
    id: str
    ineqs: tuple  # rows ((a...), b) meaning a.x <= b
    dim: int | None = None


class DualCell(NamedTuple):
    polytope_id: str
    vertices: tuple
    rays: tuple = ()


class Decomposition:
    """Polyhedral decomposition with dual complex and split designation."""

    def __init__(self, ambient_dim, polytopes, faces, dual_cells, split_set=()):
        self.ambient_dim = as_int(ambient_dim)
        polytopes = list(polytopes)
        self.polytopes: dict[str, Polytope] = {p.id: p for p in polytopes}
        if len(self.polytopes) != len(polytopes):
            raise DecompositionError("duplicate polytope ids")
        self.face_pairs = frozenset((q, p) for q, p in faces)
        self.dual_cells: dict[str, DualCell] = {}
        for d in dual_cells:
            if d.polytope_id not in self.polytopes:
                raise DecompositionError(f"dual cell for unknown polytope {d.polytope_id}")
            if d.polytope_id in self.dual_cells:
                raise DecompositionError(f"duplicate dual cell for {d.polytope_id}")
            if not d.vertices:
                raise DecompositionError(f"dual cell of {d.polytope_id} has no vertex")
            for field, gens in (("vertex", d.vertices), ("ray", d.rays)):
                if any(len(g) != self.ambient_dim for g in gens):
                    raise DecompositionError(
                        f"dual cell of {d.polytope_id}: {field} of wrong length"
                    )
            self.dual_cells[d.polytope_id] = d
        self.split_set = frozenset(split_set)
        self._geom: dict[str, Polyhedron] = {}
        self._dual_geom: dict[str, Polyhedron] = {}
        self._normal: dict[str, IntegerLattice] = {}
        self._isect_cache: dict[tuple[str, str], str | None] = {}
        self._rows: dict[str, frozenset] = {}
        # name the smallest bad entry (as text: ids can be any value), whatever the hash seed
        known = self.polytopes
        bad = [(q, p) for q, p in self.face_pairs if q not in known or p not in known]
        if bad:
            q, p = min(bad, key=str)
            raise DecompositionError(f"face pair ({q},{p}) references unknown cell")
        bad = [s for s in self.split_set if s not in known]
        if bad:
            raise DecompositionError(f"split cell {min(bad, key=str)} unknown")

    def _known(self, *pids) -> None:
        """Raise DecompositionError naming the first id that is no cell."""
        for pid in pids:
            if pid not in self.polytopes:
                raise DecompositionError(f"unknown cell {pid}")

    # geometry ----------------------------------------------------------------

    def cell(self, pid: str) -> Polyhedron:
        if pid not in self._geom:
            p = self.polytopes[pid]
            self._geom[pid] = Polyhedron.from_hrep(self.ambient_dim, ineqs=p.ineqs)
        return self._geom[pid]

    def dual(self, pid: str) -> Polyhedron:
        if pid not in self._dual_geom:
            d = self.dual_cells[pid]
            self._dual_geom[pid] = Polyhedron.from_vrep(
                self.ambient_dim, vertices=d.vertices, rays=d.rays
            )
        return self._dual_geom[pid]

    def normal_space(self, pid: str) -> IntegerLattice:
        """Saturated integer basis of t_P = ann(TP), built with a Smith
        form.  Symmetry groups read the basis; a membership test needs
        none (``in_normal_lattice``)."""
        if pid not in self._normal:
            dirs = self.cell(pid).direction_space()
            self._normal[pid] = saturated_kernel_lattice(dirs, self.ambient_dim)
        return self._normal[pid]

    def in_normal_lattice(self, pid: str, d) -> bool:
        """Whether the integer vector d lies in the normal lattice of the
        cell, ann(TP) n Z^n: exactly when d is orthogonal to each basis row
        of TP, the cell's direction space, since the lattice is saturated.
        A dot product per row; no lattice is built."""
        self._known(pid)
        return not any(_dot(u, d) for u in self.cell(pid).direction_space())

    # face poset ----------------------------------------------------------------

    @functools.cached_property
    def _faces(self) -> dict:
        """Each cell's listed faces, itself included: the cells below it in
        the transitive closure of the face pairs."""
        below: dict[str, list] = {}
        for q, p in self.face_pairs:
            below.setdefault(p, []).append(q)
        table = {}
        for p in self.polytopes:
            seen = {p}
            stack = list(below.get(p, ()))
            while stack:
                q = stack.pop()
                if q not in seen:
                    seen.add(q)
                    stack.extend(below.get(q, ()))
            table[p] = frozenset(seen)
        return table

    def face_le(self, q: str, p: str) -> bool:
        """Whether cell q is a face of cell p (or equal)."""
        return q == p or q in self._faces.get(p, ())

    def listed_faces(self, face: tuple, cell: str, *cells: str):
        """Ids, in sorted order, of the listed cells that are faces of every
        given cell and whose cones have the canonical generators ``face``, a
        ``(rays, lineality)`` pair: the set's key, since a conversion's
        output is canonical for the set."""
        for q in sorted(self._faces[cell]):
            if all(self.face_le(q, p) for p in cells) and self.cell(q).cone.key() == face:
                yield q

    def _row_set(self, pid: str) -> frozenset:
        """The rows r (r.(x, t) >= 0) that cut the cell's homogenization
        cone out: its cone's given rows (for a cut's cell those the walk
        cut), primitive, with no conversion.  ``t >= 0`` and the zero
        rows, which hold on every homogenization cone, are left out: a row
        zero on x is kept only when its t coefficient is negative."""
        rows = self._rows.get(pid)
        if rows is None:
            given, _ = self.cell(pid).cone.given_rows()
            rows = self._rows[pid] = frozenset(r for r in given if any(r[:-1]) or r[-1] < 0)
        return rows

    def _cell_by_rows(self, p1: str, p2: str) -> str | None:
        """The first listed common face of p1 and p2 when its rows are
        exactly the union of theirs, else None.  Each cell is the set its
        rows cut out, so that face is p1 n p2 as a set."""
        common = self._faces[p1] & self._faces[p2]
        if common:
            q = min(common)
            if self._row_set(q) == self._row_set(p1) | self._row_set(p2):
                return q
        return None

    def intersection_cell(self, p1: str, p2: str) -> str | None:
        """Id of the listed cell equal to p1 n p2, or None when empty.

        Raises DecompositionError when an id is no cell, or when the
        intersection is nonempty but not a listed common face.  The answer
        is the smallest id among the listed common faces equal to p1 n p2.
        Two routes find it, in turn:

        - rows (``_cell_by_rows``): q, the smallest listed common face,
          is p1 n p2 when q's rows are exactly the union of p1's and p2's,
          since each cell is the set its rows cut out.  Then the answer is
          q if q has a point (a generator at t > 0), else None; no
          geometry of p1 or p2 is read.
        - the cut: p1's double description state (``Cone.state()``) cut
          by the rows of p2 that p1 lacks is p1 n p2, exactly, with its
          canonical generators; a generator at t > 0 names the answer
          among the listed common faces (``listed_faces``), and none
          makes it None.
        """
        self._known(p1, p2)
        key = (min(p1, p2), max(p1, p2))
        if key in self._isect_cache:
            return self._isect_cache[key]
        q = self._cell_by_rows(p1, p2)
        if q is not None:
            result = self._isect_cache[key] = None if self.cell(q).is_empty() else q
            return result
        rows = sorted(self._row_set(p2) - self._row_set(p1))
        face = self.cell(p1).cone.state().cut(*rows).key()
        result: str | None = None
        if any(r[-1] > 0 for r in face[0]):  # some point at t = 1
            result = next(self.listed_faces(face, p1, p2), None)
            if result is None:
                raise DecompositionError(
                    f"intersection of {p1} and {p2} is not a listed common face"
                )
        self._isect_cache[key] = result
        return result

    # validation ----------------------------------------------------------------

    def validate(self, geometric: bool = True) -> None:
        """Check the decomposition invariants; raises DecompositionError.

        With geometric=False the quadratic all-pairs intersection audit is
        skipped (structural checks only).
        """
        n = self.ambient_dim
        for pid, p in self.polytopes.items():
            geom = self.cell(pid)
            if geom.is_empty():
                raise DecompositionError(f"cell {pid} is empty")
            if p.dim is not None and geom.dim() != p.dim:
                raise DecompositionError(f"cell {pid} has dim {geom.dim()}, not {p.dim}")
            if pid not in self.dual_cells:
                raise DecompositionError(f"cell {pid} has no dual cell")
            dual = self.dual(pid)
            if geom.dim() + dual.dim() != n:
                raise DecompositionError(
                    f"cell {pid}: dim {geom.dim()} + dual dim {dual.dim()} != {n}"
                )
        # with the dimensions adding up to n, orthogonal direction spaces are
        # orthogonal complements
        for pid in sorted(self.polytopes):
            dual_dirs = self.dual(pid).direction_space()
            if any(_dot(u, v) for u in self.cell(pid).direction_space() for v in dual_dirs):
                raise DecompositionError(f"dual cell of {pid} is not orthogonal to {pid}")
        # poset: antisymmetry
        faces = self._faces
        cycles = sorted((q, p) for p in faces for q in faces[p] if q != p and p in faces[q])
        if cycles:
            raise DecompositionError("face poset has a cycle through %s,%s" % cycles[0])
        # listed pairs are geometric faces, and dual faces reverse
        for q, p in sorted(self.face_pairs):
            if q == p:
                raise DecompositionError(f"reflexive face pair {q}")
            if not self.cell(q).is_face_of(self.cell(p)):
                raise DecompositionError(f"{q} is not a face of {p}")
            if not self.dual(p).is_face_of(self.dual(q)):
                raise DecompositionError(
                    f"dual of {p} is not a face of dual of {q}"
                )
        if geometric:
            for p1, p2 in itertools.combinations(sorted(self.polytopes), 2):
                self.intersection_cell(p1, p2)  # raises when violated


def relative_cell_rows(dec: Decomposition, pv: str, pkv: str) -> tuple[list, list]:
    """Rows ``(ineqs, eqs)`` (``a.z >= 0``, ``e.z = 0``) that cut out
    Cone(kappa, v), the cone generated by dual(P(v)) minus dual(P(kappa v)),
    read off the dual rows already held: no conversion of the cell.

    Requires P(v) to be a face of (or equal to) P(kappa v), both ids
    checked first (``face_le`` holds for any id and itself), and the dual
    cell D_k of P(kappa v) to lie in the dual cell D_v of P(v): a minimal
    row of D_v negative on a homogenized generator of D_k, or an equality
    that does not vanish on one, raises ``DecompositionError``.

    The ineqs are the minimal rows of D_v tight on every generator of D_k,
    the eqs D_v's equalities, each with t dropped.  This is the tangent
    cone of D_v at D_k.  Take y0 = (average of D_k's vertices) + (sum of
    its rays): a row of D_v is tight at y0 exactly when it is tight on
    every generator of D_k, and every other row is strict there.  With I
    those rows, D_v = {y : a_i.y <= b_i, E y = d}: a difference x - y of
    D_v and D_k has a_I.(x - y) <= b_I - b_I = 0 and E (x - y) = 0, and a z
    with a_I.z <= 0 and E z = 0 has y0 + e z in D_v for a small e > 0, so
    cone(D_v - D_k) = cone(D_v - y0) = {z : a_I.z <= 0, E z = 0}.  A
    conversion's side is canonical for the set, so this cone converts to
    what the generator differences converted to."""
    dec._known(pv, pkv)
    if not dec.face_le(pv, pkv):
        raise DecompositionError(f"{pv} is not a face of {pkv}")
    ineqs, eqs = dec.dual(pv).rows()
    gens = dec.dual(pkv).cone.rays  # given generators: no conversion
    values = [[_dot(r, g) for g in gens] for r in ineqs]
    if any(x < 0 for row in values for x in row) or any(_dot(e, g) for e in eqs for g in gens):
        raise DecompositionError(f"dual cell of {pkv} does not lie in the dual cell of {pv}")
    tight = [r[:-1] for r, row in zip(ineqs, values) if not any(row)]
    return tight, [e[:-1] for e in eqs]


def cone_of_relative_cell(dec: Decomposition, pv: str, pkv: str) -> Cone:
    """Cone(kappa, v): cone generated by dual(P(v)) minus dual(P(kappa v)),
    cut out by ``relative_cell_rows``, which checks the ids."""
    ineqs, eqs = relative_cell_rows(dec, pv, pkv)
    return Cone(dec.ambient_dim, ineqs=ineqs, eqs=eqs)


def check_toric_data(normals, lam) -> tuple:
    """Check that the nonempty integer ``normals`` share one length n and
    that the base point ``lam`` has length n; return ``ratvec(lam)``."""
    n = len(normals[0])
    if any(len(m) != n for m in normals):
        raise DecompositionError("normals must have equal length")
    lam = ratvec(lam)
    if len(lam) != n:
        raise DecompositionError("base point of wrong dimension")
    return lam


# The cut walks the 3^N sign vectors of its N facets as a tree of sign
# prefixes and prunes it, but the bound is on all 3^N, checked before any
# conversion; 3^10 covers every bundled fixture, the 8-facet prism and the
# 4-cube.
MAX_SIGN_VECTORS = 3**10


def toric_cut(normals, constants, epsilons, lam) -> tuple[Decomposition, str]:
    """Multiple-cut decomposition of a moment polytope.

    The polytope Delta = {x : <mu_i, x> <= c_i} is cut along the hyperplanes
    <mu_i, x> = c_i - eps_i.  Cells are indexed by sign vectors; the cell
    containing ``lam`` (which must satisfy <mu_i, lam> < c_i - eps_i
    strictly) is the inner polytope.  All cells of positive codimension are
    marked split.  Returns (decomposition, inner_cell_id).  A cut whose
    3^N sign vectors exceed ``MAX_SIGN_VECTORS`` raises before any
    conversion.

    The cells come from a depth-first walk over sign prefixes that carries
    the double description state (``DDState``) of the prefix's cell from
    parent to child.  The root is Delta's homogenization cone, cut from
    the full space by Delta's rows.  Sign -1 or +1 on facet i cuts the
    state by the cut row or its negation, and sign 0 cuts the -1 child's
    state by the negation too.  A prefix whose cell is empty, or lies in
    the hyperplane of a strict sign on its path, stays so in every
    refinement, so its whole subtree is dropped.  Delta is bounded, so
    every cone on the walk is pointed and its state's rays are its extreme
    rays, with their zero-sets over Delta's rows and the path's sign rows:
    a kept cell is the state's minimal cone, and its minimal
    H-representation is read off those zero-sets with no conversion.
    """
    normals = imat(normals)
    N = len(normals)
    if 3**N > MAX_SIGN_VECTORS:
        raise DecompositionError(
            f"{N} facets give 3^{N} = {3**N} sign vectors, more than the "
            f"bound of {MAX_SIGN_VECTORS} sign vectors a cut may visit"
        )
    constants = ratvec(constants)
    epsilons = ratvec(epsilons)
    if not normals:
        raise DecompositionError("no facets")
    n = len(normals[0])
    if len(constants) != N or len(epsilons) != N:
        raise DecompositionError("normals, constants, epsilons must have equal length")
    if any(e <= 0 for e in epsilons):
        raise DecompositionError("epsilons must be positive")
    lam = check_toric_data(normals, lam)
    # Delta's homogenization cone, from the DD state the walk starts at
    delta_rows = [primitive(_hom(m, c)) for m, c in zip(normals, constants)]
    delta_rows.append((0,) * n + (1,))  # t >= 0
    root = DDState.space(n + 1).cut(*delta_rows)
    delta = Polyhedron(n, root.cone())
    if delta.dim() != n:
        raise DecompositionError("moment polytope is not full-dimensional")
    if delta.recession_rays or delta.lineality:
        raise DecompositionError("moment polytope is unbounded")
    cuts = [c - e for c, e in zip(constants, epsilons)]
    for m, cut in zip(normals, cuts):
        if not vdot(m, lam) < cut:
            raise DecompositionError("base point is not strictly inside the inner cell")
    # cut_rows[i] . (x, t) >= 0 is <mu_i, x> <= cut_i; its negation the reverse
    cut_rows = [primitive(_hom(m, cut)) for m, cut in zip(normals, cuts)]

    def cell_id(sigma):
        return "c" + "".join({-1: "m", 0: "z", 1: "p"}[s] for s in sigma)

    kept: dict[tuple, Polyhedron] = {}

    def walk(sigma, cell, strict):
        # cell: the prefix cell's DD state; strict: the indices of its
        # strict sign rows in cell.rows
        if not cell.rays or cell.lies_in_any(strict):
            return  # empty, or in the hyperplane of a strict sign
        i = len(sigma)
        if i == N:
            kept[sigma] = Polyhedron(n, cell.cone())
            return
        a = cut_rows[i]
        neg = tuple(-x for x in a)
        k = len(cell.rows)  # the index of the sign row cut next
        below = cell.cut(a)
        walk(sigma + (-1,), below, strict + (k,))
        if below.rays:
            walk(sigma + (0,), below.cut(neg), strict)
        walk(sigma + (1,), cell.cut(neg), strict + (k,))

    walk((), root, ())

    def dual_vertex(sigma):
        v = [0] * n
        for s, m in zip(sigma, normals):
            if s > 0:
                v = [x + y for x, y in zip(v, m)]
        return tuple(v)

    vertex = {sigma: dual_vertex(sigma) for sigma in kept if 0 not in sigma}
    polytopes = []
    dual_cells = []
    faces = []
    split = []
    for sigma, poly in kept.items():
        pid = cell_id(sigma)
        ineqs, eqs = poly.rows()
        both = (r for e in eqs for r in (e, tuple(-x for x in e)))  # an equality as two rows
        rows = tuple(map(_pair, (*ineqs, *both)))
        polytopes.append(Polytope(pid, rows, dim=poly.cone.dim() - 1))  # not empty
        zeros = [i for i, s in enumerate(sigma) if s == 0]
        if zeros:
            split.append(pid)
        # sigma is a face of the kept cells that refill its zeros; the top
        # cells among them give its dual vertices
        verts = set()
        for fill in itertools.product((-1, 0, 1), repeat=len(zeros)):
            full = list(sigma)
            for z, s in zip(zeros, fill):
                full[z] = s
            full = tuple(full)
            if full not in kept:
                continue
            if any(fill):
                faces.append((pid, cell_id(full)))
            if full in vertex:
                verts.add(vertex[full])
        dual_cells.append(DualCell(pid, tuple(sorted(verts)), ()))
    inner = cell_id(tuple([-1] * N))
    if inner not in {p.id for p in polytopes}:
        raise DecompositionError("inner cell did not survive the cut")
    dec = Decomposition(n, polytopes, faces, dual_cells, split)
    # the kept cones are the cells, so the decomposition converts none
    # again; their given rows are the rows the walk cut them by, whose
    # unions the row route compares
    dec._geom.update((cell_id(sigma), poly) for sigma, poly in kept.items())
    return dec, inner


def is_tropical_fiber(dec: Decomposition, p0: str, lam) -> bool:
    """Whether lam is interior to the cell p0 and every facet of p0 is a
    listed cell of the decomposition (so all invariant divisors of the
    inner piece are relative).

    Each facet is the face of p0's cone cut out by its row, so its
    canonical generators are p0's lineality and the rays tight on that
    row; it is named by them, with no conversion."""
    dec._known(p0)
    geom = dec.cell(p0)
    point = (*ratvec(lam), 1)
    ineqs, _ = geom.rows()
    if not geom.cone.contains(point) or not all(_dot(row, point) for row in ineqs):
        return False  # lam outside p0 or on its boundary
    rays, lin = geom.cone.key()
    for row in ineqs:
        facet = tuple(r for r in rays if not _dot(row, r)), lin
        if not any(q != p0 for q in dec.listed_faces(facet, p0)):
            return False
    return True
