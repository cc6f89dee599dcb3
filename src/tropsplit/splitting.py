"""Quasi-split graphs: relative-position cones, discrepancy cones, the
cone condition against a cone direction, split-graph rigidity, and the
expected-dimension bookkeeping.

A quasi-split graph is a collapse kappa from a graph with tropical
structure away from the base's split edges onto a base tropical graph,
together with an ordering of the split edges.  The split-edge blocks of
all discrepancy data follow that ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .complexes import Decomposition, cone_of_relative_cell
from .cones import Cone, is_increasing, orthant_cut
from .exact import (
    GenericityCertificate,
    Subspace,
    _dot,
    _kernel_int,
    _rref_int,
    as_int,
    is_generic_wrt,
    is_zero_vec,
    ratvec,
)
from .graphs import (
    TROPICAL,
    CollapseReport,
    Edge,
    TropicalGraph,
    block_row,
    direction_diagnostics,
    direction_rows,
    image_direction,
    match_collapse,
    pair_row,
    validate_graph,
    vertex_positions,
)
from .serialize import cone_to_dict, freeze


class SplitError(ValueError):
    pass


class QuasiSplitGraph:
    """Validated quasi-split graph kappa: top -> base.

    ``split_order`` lists base split-edge ids in their designated order.
    With ``partial=True`` the order may name only some of the derived
    split edges, each once (used by the one-edge-at-a-time check); the
    remaining split cells are then treated as ordinary tropical edges.

    The base and the top graph are each checked once; ``checked_top`` is
    the checked top and ``components`` are its checked components with the
    split edges removed, each realizable.

    Everything about the graph that no cone direction changes is computed
    once, on first use, and cached: the relative-position cone ``w``, the
    discrepancy data ``disc`` with Disc's H-representation, the
    ``genericity_family`` (each subspace with its annihilator rows) and
    ``cone_dicts`` (w and Disc serialized, frozen, for reports).  A cone
    direction then costs Disc's rows pulled back along M_eta, one scalings
    cone cut from the orthant's known rays by a double description step per
    pulled row (no conversion), the increasing test on its ray supports and
    one dot product per annihilator row.
    """

    def __init__(self, dec: Decomposition, base: TropicalGraph, top: TropicalGraph,
                 vertex_map: dict, split_order=None, partial: bool = False):
        self.dec = dec
        self.base = base
        checked_base = validate_graph(dec, base)
        self.vertex_map = dict(vertex_map)
        self.partial = bool(partial)
        self.base_positions = vertex_positions(dec, checked_base)
        if not self.base_positions.realizable:
            raise SplitError("base graph is not realizable")
        self.split_order = checked_base.split_order(split_order, partial)
        report = match_collapse(dec, top, base, self.vertex_map)
        if not report.ok:
            raise SplitError("invalid collapse: " + "; ".join(report.diagnostics))
        self.collapse: CollapseReport = report
        # locate the top edge over each split base edge
        self.split_top: dict[str, str] = {}
        for eid, bid in report.edge_map.items():
            if bid in self.split_order:
                if bid in self.split_top:
                    raise SplitError(f"base split edge {bid} has several preimages")
                self.split_top[bid] = eid
        for bid in self.split_order:
            if bid not in self.split_top:
                raise SplitError(f"base split edge {bid} has no preimage")
        self.top = self._with_inherited_directions(top)
        self.checked_top = validate_graph(dec, self.top)
        self.top_split_ids = frozenset(self.split_top.values())
        diags = direction_diagnostics(self.top, base, report)
        if diags:
            raise SplitError("invalid collapse: " + "; ".join(diags))
        self._check_components()

    # construction checks ------------------------------------------------------

    def _with_inherited_directions(self, top: TropicalGraph) -> TropicalGraph:
        """Split edges may omit their direction; they inherit the base's."""
        edges = []
        for e in top.edges:
            if self.collapse.edge_map.get(e.id) in self.split_top and e.direction is None:
                d = image_direction(self.base, self.collapse, e.id)
                e = Edge(e.id, e.ends, e.kind, d, e.maps_to)
            edges.append(e)
        return TropicalGraph(top.vertices, tuple(edges), top.split_order)

    def _check_components(self):
        """Each component of the checked top graph, split edges removed, is
        realizable."""
        self.components = self.checked_top.components(self.top_split_ids)
        for c in self.components:
            if not c.positions.realizable:
                raise SplitError(f"component containing {min(c.graph.label)} is not realizable")

    # cached analyses ------------------------------------------------------------

    @cached_property
    def w(self) -> Cone:
        return relative_position_cone(self)

    @cached_property
    def disc(self) -> DiscrepancyData:
        return discrepancy(self)

    @cached_property
    def genericity_family(self) -> tuple:
        return _genericity_family(self)

    @cached_property
    def cone_dicts(self) -> tuple:
        """``cone_to_dict`` of w and of Disc, frozen; a report thaws a
        fresh copy of each."""
        return freeze(cone_to_dict(self.w)), freeze(cone_to_dict(self.disc.disc))

    # basic data -----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.dec.ambient_dim

    @property
    def num_split(self) -> int:
        return len(self.split_order)

    def vertex_order(self) -> tuple:
        return tuple(self.checked_top.index)

    def split_edge_blocks(self) -> list:
        """Per split edge (in order): (base id, top edge, base-oriented ends,
        base direction, quotient projection matrix)."""
        out = []
        for bid in self.split_order:
            eid = self.split_top[bid]
            e = self.top.edge(eid)
            ends = e.ends
            if eid in self.collapse.flipped:
                ends = (ends[1], ends[0])
            b = self.base.edge(bid)
            out.append((bid, e, ends, b.direction, b.projection))
        return out


def relative_position_cone(q: QuasiSplitGraph) -> Cone:
    """Cone of relative vertex positions: per-vertex relative cells with
    the direction condition on new edges (nonnegative multiples) and on
    retained non-split edges (real multiples); split edges are free."""
    n = q.n
    index = q.checked_top.index
    n_vars = n * len(index)
    ineqs: list = []
    eqs: list = []
    for v, i in index.items():
        cone_v = cone_of_relative_cell(q.dec, q.top.label[v], q.base.label[q.vertex_map[v]])
        ineqs += [block_row(n_vars, i, n, a) for a in cone_v.ineqs]
        eqs += [block_row(n_vars, i, n, a) for a in cone_v.eqs]
    collapsed = set(q.collapse.collapsed_edges)
    for e in q.top.edges:
        if e.kind != TROPICAL or e.id in q.top_split_ids:
            continue
        line_rows, ineq_row = direction_rows(e, n_vars, index[e.ends[0]], index[e.ends[1]], n)
        eqs += line_rows
        if e.id in collapsed:
            ineqs.append(ineq_row)  # new edge: nonnegative multiple
    return Cone(n_vars, ineqs=ineqs, eqs=eqs)


@dataclass(frozen=True)
class DiscrepancyData:
    diff_matrix: tuple  # rows: one (n-1)-block per split edge, in order
    disc: Cone
    w: Cone
    blocks: tuple  # (base edge id, direction, projection matrix) per block


def discrepancy(q: QuasiSplitGraph) -> DiscrepancyData:
    """The discrepancy map Diff (projected split-edge mismatches of a
    relative position) and the discrepancy cone, its image over w."""
    n = q.n
    index = q.checked_top.index
    n_vars = n * len(index)
    rows = []
    blocks = []
    for bid, e, ends, d, proj in q.split_edge_blocks():
        ia, ib = index[ends[0]], index[ends[1]]
        rows += [pair_row(n_vars, ia, ib, n, prow) for prow in proj]
        blocks.append((bid, tuple(d), proj))
    s = q.num_split
    disc = q.w.linear_image(rows, codim=s * (n - 1)) if s else Cone.zero(0)
    return DiscrepancyData(tuple(rows), disc, q.w, tuple(blocks))


def _genericity_family(q: QuasiSplitGraph):
    """Proper rational subspaces of t that the cone direction must avoid:
    per split edge, the direction span, the block slice of span(Disc) when
    proper, and block slices of the facet hyperplanes of Disc.  Each is
    listed once, as a ``Subspace`` with its canonical basis of primitive
    integer rref rows and its annihilator."""
    data = q.disc
    n = q.n
    fam, labels = [], []
    seen = set()

    def add(basis_rows, label):
        S = Subspace.spanned_by(basis_rows, n)
        if not S.basis or not S.annihilator or S.basis in seen:
            return
        seen.add(S.basis)
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


@dataclass(frozen=True)
class ConeConditionVerdict:
    holds: bool
    certified: bool
    certificate: GenericityCertificate
    certificate_labels: tuple
    D: Cone  # scalings cone in R^(number of split edges)
    disc_dim: int
    expected_disc_dim: int
    projected_eta: tuple  # per split edge, pi(eta)

    @property
    def accepted(self) -> bool:
        return self.holds and self.certified


def cone_condition(q: QuasiSplitGraph, eta) -> ConeConditionVerdict:
    """Literal cone-condition verdict plus the effective-genericity
    certificate.  A failed certificate does not flip ``holds``; it marks
    the verdict as not certified."""
    eta = ratvec(eta)
    if len(eta) != q.n:
        raise SplitError("cone direction has wrong dimension")
    if is_zero_vec(eta):
        raise SplitError("cone direction must be nonzero")
    data = q.disc
    n, s = q.n, q.num_split
    if s == 0:
        cert = GenericityCertificate(True, (), ())
        return ConeConditionVerdict(True, True, cert, (), Cone.zero(0), 0, 0, ())
    # eta = num / den over one common denominator.  M_eta maps the scalings
    # x to the blocks x_i pi_i(eta); D is built from num, a positive
    # multiple of eta, which leaves D unchanged.  Column i of M_eta is
    # pi_i(num) in block i, and a row of Disc pulls back to its dot
    # products with the columns.  D is the orthant cut by the pulled rows,
    # so its double description starts from the unit rays.
    den = lcm(*(x.denominator for x in eta))
    num = tuple(x.numerator * (den // x.denominator) for x in eta)
    pi_num = [tuple(_dot(prow, num) for prow in proj) for _, _, proj in data.blocks]
    width = n - 1
    cols = [(0,) * (i * width) + p + (0,) * ((s - 1 - i) * width) for i, p in enumerate(pi_num)]

    def pull(a):
        return tuple(_dot(a, col) for col in cols)

    D = orthant_cut(s, [pull(a) for a in data.disc.ineqs], [pull(a) for a in data.disc.eqs])
    holds = is_increasing(D)
    fam, labels = q.genericity_family
    cert = is_generic_wrt(num, fam, labels)
    return ConeConditionVerdict(
        holds=holds,
        certified=cert.generic,
        certificate=cert,
        certificate_labels=tuple(labels),
        D=D,
        disc_dim=data.disc.dim(),
        expected_disc_dim=s * (n - 1),
        projected_eta=tuple(tuple(Fraction(x, den) for x in p) for p in pi_num),
    )


@dataclass(frozen=True)
class SplitGraphVerdict:
    accepted: bool
    cone_condition: ConeConditionVerdict
    rigid: bool
    disc_dim_matches: bool  # dim Disc == |split|(dim t - 1)


def is_split_graph(q: QuasiSplitGraph, eta) -> SplitGraphVerdict:
    """Split tropical graph test: the cone condition must hold and the
    cone direction must pass the effective-genericity certificate."""
    cc = cone_condition(q, eta)
    return SplitGraphVerdict(
        accepted=cc.holds and cc.certified,
        cone_condition=cc,
        rigid=is_rigid_split(q),
        disc_dim_matches=cc.disc_dim == cc.expected_disc_dim,
    )


def is_rigid_split(q: QuasiSplitGraph) -> bool:
    """Base rigid and dim w = |split edges| (dim t - 1)."""
    return q.base_positions.dim == 0 and q.w.dim() == q.num_split * (q.n - 1)


def index_shift(q: QuasiSplitGraph, i_br: int) -> tuple[int, int]:
    """(split index, reduced index) from a caller-supplied broken index:
    dropping a split-edge matching condition adds 2(dim t - 1) dimensions,
    all of which the tropical symmetry group quotients away again."""
    i_br = as_int(i_br)
    return i_br + 2 * q.num_split * (q.n - 1), i_br


def iterative_split_check(intermediates, eta) -> dict:
    """One-edge-at-a-time splitting: each intermediate graph splits one more
    edge of the shared order; step k accepts when its scalings cone is
    increasing.  Agrees with the direct test on the final graph."""
    if not intermediates:
        raise SplitError("no intermediate graphs")
    final = intermediates[-1]
    order = final.split_order
    steps = []
    for k, qk in enumerate(intermediates, start=1):
        if tuple(qk.split_order) != tuple(order[:k]):
            raise SplitError(f"step {k} does not split the prefix of the order")
        cc = cone_condition(qk, eta)
        steps.append(cc.holds)
    direct = cone_condition(final, eta).holds
    return {
        "steps": steps,
        "all_steps_accept": all(steps),
        "direct": direct,
        "agrees": all(steps) == direct,
    }
