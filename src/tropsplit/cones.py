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

There is one double description step, ``_dd_step``, one loop, ``_cut``,
and one record of a conversion, ``DDState``: a lineality basis and
extreme rays, each ray with its zero-set over the rows cut so far, and an
equality basis every generator already satisfies, which takes no bit.
Every start cuts each distinct row once: a row equal to an earlier one
takes no step.  A conversion starts from the full space, ``orthant_cut``
from the nonnegative orthant, and ``toric_cut`` carries a state from each
cell to its refinements; ``cone()`` hands a state over as a minimal cone
(``Cone.from_state``).  A cone keeps its conversion as a state, and
``Cone.state()`` hands that record back for a cone cut out by rows, so
one cell's state cut by another's rows is their intersection, exactly.
Whether a row is tight on the whole cone is one AND over the zero-sets
(``DDState.lies_in_any``).

A cone is built from exactly one representation, and the other side is
converted from it, once, when something first reads it.  The conversion,
``_h_to_v``, is called only by ``Cone`` and takes the rows as the cone
holds them, already canonical: primitive rows (or rays) and an rref
equality (or lineality) basis, so it scales and eliminates nothing again.
It cuts the rows in the coordinates of the equalities' kernel, where
rows that differ as given may be twins.  It returns the
sorted primitive extreme rays (or facets), each reduced modulo an rref
basis of the lineality space (or of the equalities) in the cone's own
coordinates, and each ray paired with its zero-set over the given rows
(or generators).  That converted side is minimal and canonical for the
set, whatever rows or generators stated it.  The cone keeps the
conversion as one ``DDState``: for a cone given by rows, those rows and
equalities with the extreme rays and lineality; for a cone given by
generators, the dual's, with the generators as rows, the facets as rays
and the equality basis as lineality.  ``minimal()`` is that record as a
cone, which reads the other side off the zero-sets when first read: the
rows tight on every ray (the implicit rows) and the given equalities span
the equalities, and the rows whose tight rays form a maximal proper set
are the facets, reduced modulo the equalities; on the dual, the
generators read the same way give the lineality and the extreme rays.  So
a minimal form costs one conversion in either direction, and the cut's
cells, whose rays and zero-sets come off its walk, cost none.

The double description keeps its state canonical by construction: a step
that cuts the lineality space pivots on the last basis row the new row
does not vanish on, which leaves the other rows in rref form and every
ray reduced, so it runs no elimination.

Cones are immutable; the lazy representation cache is filled at most once
per value, so concurrent readers always observe a pure function.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import NamedTuple

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


@cache
def _units(n: int) -> tuple:
    """The unit vectors of R^n, in order, built once per n."""
    return tuple((0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n))


def _canon_rays(rays) -> tuple:
    """Canonical ray tuple: the sorted distinct nonzero primitive vectors."""
    return tuple(sorted({r for r in map(primitive, rays) if any(r)}))


def _canon_span(rows) -> tuple:
    """Canonical basis (primitive rref rows) of the span of a list of rows;
    no rows span the zero space, with no elimination."""
    return _rref_int(map(primitive, rows)) if rows else ()


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


def _dd_step(lin: tuple, rays: list, a, bit: int) -> tuple[tuple, list]:
    """One double description step: cut the cone generated by the
    lineality basis ``lin`` and the extreme rays ``rays`` with ``a.y >= 0``.

    ``lin`` is a canonical basis (primitive rref rows) and every ray
    vanishes at its pivots.  ``rays`` pairs each ray with its zero-set over
    the earlier rows, which hold the bits below ``bit``, the new row's bit.
    Returns the new (lin, rays) in the same canonical form, rays again
    extreme modulo the lineality space and paired with their zero-sets, now
    over the new row too.

    When ``a`` is nonzero on the lineality space the step pivots on the
    last basis row ``l0`` with ``a.l0 != 0``, signed so that ``a.l0 > 0``.
    Every other row with ``a.l != 0`` has its pivot before that of ``l0``,
    so ``(a.l0) l - (a.l) l0`` over its gcd still leads at its own pivot,
    positive, and is zero at the other remaining pivots: the rows are the
    canonical basis of the cut lineality with no elimination.  Each ray
    ``(a.l0) r - (a.r) l0``, and ``l0`` itself, already vanishes at every
    remaining pivot, so over its gcd it is the canonical representative.
    The rays were distinct modulo the larger lineality space, so the
    combined rays and ``l0`` are distinct and need no deduplication.
    """
    if not any(a):
        return lin, [(r, z | bit) for r, z in rays]
    # the innermost loop: dot products inline, as ``_dot`` takes them
    i0 = None
    if lin:
        dots = [sum(map(mul, a, l)) for l in lin]
        for i in range(len(dots) - 1, -1, -1):
            if dots[i]:
                i0 = i
                break
    if i0 is not None:
        l0, al0 = lin[i0], dots[i0]
        if al0 < 0:
            l0, al0 = tuple([-x for x in l0]), -al0
        lin = tuple([
            gcd_reduce([al0 * x - d * y for x, y in zip(l, l0)]) if d else l
            for i, (l, d) in enumerate(zip(lin, dots))
            if i != i0
        ])
        new_rays = []
        for r, z in rays:
            ar = sum(map(mul, a, r))
            if ar:
                r = gcd_reduce([al0 * x - ar * y for x, y in zip(r, l0)])
            new_rays.append((r, z | bit))
        new_rays.append((l0, bit - 1))
        return lin, new_rays
    # a vanishes on the lineality space and every ray already vanishes
    # at the pivots of its basis, so combinations need no reduction
    plus, minus, zero = [], [], []
    for r, z in rays:
        v = sum(map(mul, a, r))
        if v > 0:
            plus.append((r, z, v))
        elif v:
            minus.append((r, z, v))
        else:
            zero.append((r, z | bit))
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
    return lin, _dedupe([(r, z) for r, z, _ in plus] + zero + combos)


def _cut(lin: tuple, rays: list, done: tuple, rows) -> tuple[tuple, list]:
    """The state (lin, rays) after the rows ``done``, cut by each row of
    ``rows`` in turn, row i of ``done + rows`` at bit i.  A row equal to an
    earlier one takes no step: each ray gets its bit where it has its
    twin's, and every later step keeps the two bits equal.  A plain
    function: a conversion of one row builds no ``DDState`` around it.

    Only the new rows are indexed: each one's first twin is looked up in
    ``done`` by a scan, then among the new rows, so a walk that cuts one
    row at a time indexes each row once, not the whole path per cut."""
    first = {}  # each new row -> the index of its first twin, or its own
    for i, a in enumerate(rows, len(done)):
        j = first.get(a)
        if j is None:
            j = first[a] = done.index(a) if a in done else i
        if j == i:
            lin, rays = _dd_step(lin, rays, a, 1 << i)
        else:
            bit, twin = 1 << i, 1 << j
            rays = [(r, z | bit if z & twin else z) for r, z in rays]
    return lin, rays


class DDState(NamedTuple):
    """The cone {y in R^dim : a.y >= 0 for a in rows, e.y = 0 for e in eqs}:
    a lineality basis, tight on every row, and extreme rays modulo it, each
    with its zero-set, bit i for rows[i].  ``eqs`` is a canonical basis
    (primitive rref rows) of equalities that every generator already
    satisfies; they take no bit, and a cut carries them along."""

    dim: int
    lin: tuple
    rays: list
    rows: tuple
    eqs: tuple = ()

    @classmethod
    def space(cls, d: int) -> "DDState":
        return cls(d, _units(d), [], ())

    @classmethod
    def orthant(cls, d: int) -> "DDState":
        """The nonnegative orthant: unit ray i is tight on every unit row but i."""
        units, full = _units(d), (1 << d) - 1
        return cls(d, (), [(u, full ^ (1 << i)) for i, u in enumerate(units)], units)

    def cut(self, *rows) -> "DDState":
        """The cone cut by ``a.y >= 0`` for each integer row in turn."""
        lin, rays = _cut(self.lin, self.rays, self.rows, rows)
        return DDState(self.dim, lin, rays, self.rows + rows, self.eqs)

    def lies_in_any(self, indices) -> bool:
        """Whether some ``rows[i]``, i in ``indices``, has its bit in every
        extreme ray's zero-set: it is tight on every extreme ray, and every
        lineality vector is tight on every row, so on the whole cone."""
        tight = 0
        for i in indices:
            tight |= 1 << i
        for _, z in self.rays:
            tight &= z
        return bool(tight)

    def key(self) -> tuple[tuple, tuple]:
        """``cone().key()``, the sorted extreme rays and the lineality
        basis, with no ``Cone`` built."""
        return tuple(sorted(r for r, _ in self.rays)), self.lin

    def cone(self) -> "Cone":
        """The minimal cone the state cuts out, its rays sorted."""
        return Cone.from_state(DDState(self.dim, self.lin, sorted(self.rays), self.rows, self.eqs))


def orthant_rows(s: int, ineqs, eqs) -> tuple[tuple, tuple]:
    """The rows ``orthant_cut`` cuts by: each row of ``ineqs`` and of
    ``eqs`` checked to have length ``s``, scaled to a primitive vector and
    kept when nonzero, in order.  The cut is a function of these rows
    alone."""
    ineqs, eqs = list(ineqs), list(eqs)
    if any(len(a) != s for a in (*ineqs, *eqs)):
        raise ValueError("constraint row of wrong dimension")
    return tuple(
        tuple(a for a in map(primitive, rows) if any(a)) for rows in (ineqs, eqs)
    )


def orthant_cut(s: int, ineqs, eqs) -> "Cone":
    """The minimal cone {x in R^s : x >= 0, a.x >= 0 for a in ineqs,
    e.x = 0 for e in eqs}, converted from the nonnegative orthant.

    The rows are those of ``orthant_rows``: checked, primitive, nonzero.
    The conversion starts at ``DDState.orthant`` and cuts it once per
    inequality and twice, by ``e`` and ``-e``, per equality.  The result equals
    ``Cone(s, ineqs=ineqs + units, eqs=eqs).minimal()`` on both sides.
    """
    ineqs, eqs = orthant_rows(s, ineqs, eqs)
    cuts = list(ineqs)
    for e in eqs:
        cuts += [e, tuple(-x for x in e)]
    return DDState.orthant(s).cut(*cuts).cone()


def _dedupe(pairs):
    seen = {}
    for r, z in pairs:
        if any(r) and r not in seen:
            seen[r] = z
    return list(seen.items())


def _h_to_v(n: int, ineqs, eqs) -> tuple[tuple, tuple, list]:
    """V-representation of {x : ineq.x >= 0, eq.x = 0}.

    The rows come in the canonical form a ``Cone`` holds: ``ineqs`` are
    primitive integer vectors (inequality rows, or on the dual the rays)
    and ``eqs`` is a canonical basis (primitive rref rows) of the
    equalities (or of the lineality), so no row is scaled or eliminated
    again.  Returns the sorted primitive extreme rays, the lineality basis
    (primitive rref rows) and the sorted pairs of each ray with its
    zero-set: the bitmask of the given inequalities it is tight on, bit i
    for ``ineqs[i]``.  Each ray is reduced modulo the
    lineality basis in x coordinates, so the result depends on the set
    only, not on the equalities that state it.
    """
    if any(len(a) != n for a in (*ineqs, *eqs)):
        raise ValueError("constraint row of wrong dimension")
    K = _kernel_int(eqs, n) if eqs else None
    d = len(K) if eqs else n
    if d == 0:
        return (), (), []
    if K is not None:
        ineqs = [gcd_reduce([sum(map(mul, a, k)) for k in K]) for a in ineqs]
    lin, rays = _cut(_units(d), [], (), ineqs)
    if K is not None:
        # back to x coordinates; reducing modulo the lineality keeps every
        # zero-set, since a lineality vector is tight on every row
        Kt = list(zip(*K))
        lin = _rref_int([[sum(map(mul, y, col)) for col in Kt] for y in lin])
        rays = [(_reduce_mod_span(lin, [sum(map(mul, y, col)) for col in Kt]), z)
                for y, z in rays]
    rays.sort()
    return tuple(r for r, _ in rays), lin, rays


def _read_off(state: DDState) -> tuple[tuple, tuple]:
    """The minimal H-representation of the cone cut out by the state's
    primitive rows ``a.x >= 0`` and its equalities, a canonical basis
    (primitive rref rows), read off the zero-sets of its extreme rays.

    A row is tight on the whole cone exactly when it is tight on every
    extreme ray (each lineality vector is tight on every row).  These
    implicit rows and the given equalities span the orthogonal complement
    of the cone, so the equalities are their canonical basis; with no
    implicit row that is ``eqs`` as given.  Every facet is cut out by some
    row, and faces are ordered as the rays they hold, so a row is a facet
    exactly when the set of rays it is tight on is proper and maximal among
    the rows' sets; its representative is the row reduced modulo the
    equalities.  Run on the dual's state, with the generators as rows, the
    converted facets as rays and the given lineality as equalities, the
    same reading gives the extreme rays and the lineality.
    """
    rows, eqs = state.rows, state.eqs
    tight = [0] * len(rows)
    for j, (_, z) in enumerate(state.rays):
        while z:
            low = z & -z
            tight[low.bit_length() - 1] |= 1 << j
            z ^= low
    full = (1 << len(state.rays)) - 1
    implicit = [rows[i] for i, t in enumerate(tight) if t == full]
    if implicit:
        eqs = _rref_int(eqs + tuple(implicit))
    # rows with one tight set cut out one face, so one row stands for it
    faces = {}
    for i, t in enumerate(tight):
        if t != full:
            faces.setdefault(t, i)
    facets = [
        _reduce_mod_span(eqs, rows[i])
        for t, i in faces.items()
        if not any(t & u == t and t != u for u in faces)
    ]
    return tuple(sorted(facets)), eqs


class Cone:
    """Rational polyhedral cone in R^n, built from one representation:
    rays and lineality, or inequalities and equalities.

    Its conversion is one ``DDState``, ``_state``.  With ``_rows_given``
    the record's rows and equalities cut the cone out (a cone given by
    rows, or the cone of a walked or orthant state); otherwise the record
    is the dual's, over the cone's generators."""

    __slots__ = (
        "ambient_dim", "_rays", "_lineality", "_ineqs", "_eqs", "_minimal", "_dim",
        "_state", "_rows_given", "__weakref__",
    )

    def __init__(self, ambient_dim, rays=None, lineality=None, ineqs=None, eqs=None):
        self.ambient_dim = as_int(ambient_dim)
        self._minimal = self._dim = self._state = None
        has_v = rays is not None or lineality is not None
        self._rows_given = ineqs is not None or eqs is not None
        if has_v == self._rows_given:
            raise ValueError("cone needs exactly one representation")
        # every given vector is checked, zero ones too, before any is dropped
        first, second = (list(g or ()) for g in ((rays, lineality) if has_v else (ineqs, eqs)))
        if any(len(v) != self.ambient_dim for v in (*first, *second)):
            raise ValueError("generator of wrong dimension")
        self._rays = self._lineality = self._ineqs = self._eqs = None
        if has_v:
            self._rays, self._lineality = _canon_rays(first), _canon_span(second)
        else:
            self._ineqs = tuple(r for r in map(primitive, first) if any(r))
            self._eqs = _canon_span(second)

    @classmethod
    def from_state(cls, state: DDState, rows_given: bool = True) -> "Cone":
        """The minimal cone of a state whose rays are sorted: with
        ``rows_given`` the cone its rows and equalities cut out, whose
        canonical extreme rays and lineality basis are the state's.  Its
        H-representation is read off the zero-sets when first read: the
        equalities are the state's and the rows tight on every ray.
        Otherwise the state is the dual's: its rays and lineality are the
        facets and equality basis of the cone generated by its rows and the
        lineality basis ``eqs``."""
        m = cls.__new__(cls)
        m.ambient_dim, m._state, m._rows_given, m._minimal = state.dim, state, rows_given, m
        m._rays = m._lineality = m._ineqs = m._eqs = m._dim = None
        side = tuple(r for r, _ in state.rays), state.lin
        if rows_given:
            m._rays, m._lineality = side
        else:
            # the converted equalities span the orthogonal complement
            (m._ineqs, m._eqs), m._dim = side, state.dim - len(state.lin)
        return m

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
            if self._rows_given:
                n, ineqs, eqs = self.ambient_dim, self._ineqs, self._eqs
                self._rays, self._lineality, pairs = _h_to_v(n, ineqs, eqs)
                self._state = DDState(n, self._lineality, pairs, ineqs, eqs)
            else:
                self._rays, self._lineality = _read_off(self._state)

    def _ensure_h(self):
        if self._ineqs is None:
            if self._rows_given:
                self._ineqs, self._eqs = _read_off(self._state)
            else:
                # double description on the dual cone
                n, rays, lin = self.ambient_dim, self._rays, self._lineality
                self._ineqs, self._eqs, pairs = _h_to_v(n, rays, lin)
                self._state = DDState(n, self._eqs, pairs, rays, lin)
            # either way the equalities span the orthogonal complement
            self._dim = self.ambient_dim - len(self._eqs)

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
        """The same cone with both representations minimal and canonical
        for the set: the side converted from the given one, with the other
        side read off the conversion's zero-sets over the given rows (or
        generators) when first read.  One conversion in all: the cone's own
        record, as a cone."""
        if self._minimal is None:
            (self._ensure_v if self._rows_given else self._ensure_h)()
            self._minimal = Cone.from_state(self._state, self._rows_given)
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

    def contains(self, p) -> bool:
        p = primitive(p)  # a positive multiple: the signs are those of p
        if len(p) != self.ambient_dim:
            raise ValueError("point of wrong dimension")
        self._ensure_h()
        return all(_dot(a, p) >= 0 for a in self._ineqs) and not any(
            _dot(a, p) for a in self._eqs
        )

    def key(self) -> tuple[tuple, tuple]:
        """The extreme rays and the lineality basis, canonical for the set,
        so two cones have equal keys exactly when they are equal: a
        conversion's side as it returned it, and for a cone built from
        generators those of its minimal form."""
        c = self if self._rows_given else self.minimal()
        return c.rays, c.lineality

    def minimal_rows(self) -> tuple[tuple, tuple]:
        """``minimal()``'s facets and equality basis, the other side of
        ``key()``: a cone built from generators reads its converted side
        and a conversion's cone its read-off, with no minimal form built;
        only a cone built from rows needs one."""
        c = self.minimal() if self._rows_given else self
        return c.ineqs, c.eqs

    def given_rows(self) -> tuple[tuple, tuple]:
        """Rows ``a.x >= 0`` and an equality basis that cut the cone out: the
        given ones, or those its conversion cut (a walked cell's own rows,
        also once its minimal rows have been read), so no conversion and no
        read-off runs unless the cone was built from generators."""
        if self._rows_given and self._state is not None:
            return self._state.rows, self._state.eqs
        return self.ineqs, self.eqs

    def state(self) -> DDState:
        """The double description state of a cone cut out by rows (an
        H-built cone, converted once if need be, a walked cell or the
        minimal form of either): the record the cone holds.  Its rows and
        equalities are ``given_rows()`` and its rays the extreme rays with
        their zero-sets over those rows, so ``state().cut(*rows)`` goes on
        with the double description the cone came from."""
        if not self._rows_given:
            raise RuntimeError("only a cone cut out by rows has a double description state")
        self._ensure_v()
        return self._state

    def contains_cone(self, other: "Cone") -> bool:
        """Whether other lies in self: other's generators against the rows
        that cut self out."""
        ineqs, eqs = self.given_rows()
        rays, lin = other.rays, other.lineality
        return (
            all(_dot(a, r) >= 0 for a in ineqs for r in rays)
            and not any(_dot(a, l) for a in ineqs for l in lin)
            and not any(_dot(e, g) for e in eqs for g in rays + lin)
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

    def linear_image(self, M) -> "Cone":
        """Image cone under x -> M x, computed on the V-representation.

        M has int or ``Fraction`` entries."""
        if M and len(M[0]) != self.ambient_dim:
            raise ValueError("matrix has wrong number of columns")
        return Cone(
            len(M),
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
    inequalities x_k >= 0 for k > i, and a face of a cone is generated by
    the generators of C that lie in it: the rays whose last nonzero
    coordinate is at most i.  So every slice i has dimension i exactly when,
    for each i, some ray's last nonzero coordinate is i.  By induction on i:
    slice i-1 then spans R^(i-1), and slice i lies in R^i, so one ray with
    a nonzero coordinate i lifts its dimension to i; without such a ray
    slice i is slice i-1, of dimension at most i-1.  The test is one set of
    ray supports: no conversion beyond C's own rays and no elimination.
    """
    _check_in_orthant(cone)
    last = {max(i for i, x in enumerate(r) if x) for r in cone.rays}
    return len(last) == cone.ambient_dim


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
    if not cone.contains(_units(n)[0]):
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
    if not cone.contains(_units(n)[0]):
        return False
    return is_increasing_inductive(normal_cone_at_first_axis(cone.minimal()).minimal())
