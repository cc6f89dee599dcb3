"""Quasi-split graphs: relative-position cones, discrepancy cones, the
cone condition against a cone direction, split-graph rigidity, and the
expected-dimension bookkeeping.

A quasi-split graph is a collapse kappa from a graph with tropical
structure away from the base's split edges onto a base tropical graph,
together with an ordering of the split edges.  The split-edge blocks of
all discrepancy data follow that ordering.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .complexes import Decomposition, relative_cell_rows
from .cones import Cone, is_increasing, orthant_cut
from .exact import (
    GenericityCertificate,
    Subspace,
    _dot,
    _kernel_int,
    _rref_int,
    as_int,
    ratvec,
)
from .graphs import (
    TROPICAL,
    CollapseReport,
    Edge,
    TropicalGraph,
    direction_diagnostics,
    graph_rows,
    image_direction,
    match_collapse,
    pair_row,
    validate_graph,
    vertex_positions,
)


class SplitError(ValueError):
    pass


# How many scalings cones a quasi-split graph keeps (``scalings_cones``).
# Directions share few pulled-row sets: 40 seeded directions give 30 over
# the eight bundled split graphs.
SCALINGS_MEMO_SIZE = 256


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
    ``pull_table`` (each row of Disc as one integer row per split edge),
    the ``genericity_family`` read off that table (each subspace as its
    annihilator rows), and the ``row_table`` that stacks every integer row
    a direction is dotted with.  The graph caches no report fields:
    ``reports.split_report`` writes the split report, and
    ``serialize.cone_to_dict`` builds each cone's wire form once.  A cone
    direction eta = num / den then costs one pass over ``row_table``, one
    integer dot product with num per row, and the verdict is read off that
    one vector of values: each row of Disc pulled back to s values, scaled
    to a primitive vector and looked up in ``scalings_cones``; pi_i(num)
    per split edge; and the genericity subspaces num lies in, those whose
    annihilator rows all give zero.  Only a pulled-row set the graph has
    not met costs more: its scalings cone cut from the orthant's known
    rays by a double description step per pulled row (no conversion) and
    the increasing test on its ray supports, both kept for the next
    direction.
    """

    def __init__(self, dec: Decomposition, base: TropicalGraph, top: TropicalGraph,
                 vertex_map: dict, split_order=None, partial: bool = False):
        self.dec = dec
        self.base = base
        checked_base = validate_graph(dec, base)
        self.vertex_map = dict(vertex_map)
        self.base_positions = vertex_positions(dec, checked_base)
        if not self.base_positions.realizable:
            raise SplitError("base graph is not realizable")
        self.split_order = checked_base.split_order(split_order, partial)
        report = match_collapse(dec, top, base, self.vertex_map)
        if not report.ok:
            raise SplitError("invalid collapse: " + "; ".join(report.diagnostics))
        self.collapse: CollapseReport = report
        # locate the top edge over each split base edge; a valid collapse
        # maps some top edge onto every base edge
        self.split_top: dict[str, str] = {}
        for eid, bid in report.edge_map.items():
            if bid in self.split_order:
                if bid in self.split_top:
                    raise SplitError(f"base split edge {bid} has several preimages")
                self.split_top[bid] = eid
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
        realizable.

        A component with one vertex has no edge (a checked graph has no
        loop), so it is realizable by construction and its positions are
        computed only when something reads them.  Its strict rows are the
        facets of the minimal H-representation of its vertex's dual cell:
        that cell has a vertex (``Decomposition`` refuses a dual cell
        without one), so its position polyhedron is not empty, and a facet
        of a minimal H-representation is never implicit, so no strict row
        is tight on the whole polyhedron."""
        self.components = self.checked_top.components(self.top_split_ids)
        for c in self.components:
            if len(c.graph.vertices) > 1 and not c.positions.realizable:
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
    def pull_table(self) -> tuple:
        """Disc's inequality rows, then its equality rows, each pulled back
        to one integer row per split edge: c_i = proj_i^T a_i for the row's
        block a_i at split edge i.  Along M_eta, which maps the scalings x
        to the blocks x_i pi_i(num), the row a pulls back to (c_i . num)_i."""
        width = self.n - 1
        cols = [tuple(zip(*proj)) for _, _, proj in self.disc.blocks]

        def pulled(a):
            return tuple(
                tuple(_dot(a[i * width : (i + 1) * width], col) for col in c)
                for i, c in enumerate(cols)
            )

        disc = self.disc.disc
        return tuple(map(pulled, disc.ineqs)), tuple(map(pulled, disc.eqs))

    @cached_property
    def row_table(self) -> RowTable:
        """The ``pull_table`` rows (s per inequality of Disc, then s per
        equality), each split edge's projection rows and each genericity
        subspace's annihilator rows, stacked in that order, with the slice
        of each group in the values the stack gives."""
        ineqs, eqs = self.pull_table
        fam, labels = self.genericity_family
        rows = []

        def stack(groups) -> tuple:
            parts = []
            for group in groups:
                parts.append(slice(len(rows), len(rows) + len(group)))
                rows.extend(group)
            return tuple(parts)

        parts = (stack(ineqs), stack(eqs), stack(proj for _, _, proj in self.disc.blocks),
                 stack(S.annihilator for S in fam))
        return RowTable(tuple(rows), *parts, tuple(labels))

    @cached_property
    def scalings_cones(self) -> dict:
        """The scalings cones cut so far, each as ``(D, is_increasing(D))``
        keyed by the rows that cut D from the orthant: the primitive nonzero
        pulled-back rows ``(ineqs, eqs)`` of ``cones.orthant_rows``.  D is a
        function of its key alone, so an entry cannot disagree with it.  At
        most ``SCALINGS_MEMO_SIZE`` entries; a full memo drops its oldest."""
        return {}

    # basic data -----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.dec.ambient_dim

    @property
    def num_split(self) -> int:
        return len(self.split_order)

    def vertex_order(self) -> tuple:
        return tuple(self.checked_top.index)


class RowTable(NamedTuple):
    """Every integer row a cone direction is dotted with, and the slices
    of the values those rows give that ``cone_condition`` reads."""

    rows: tuple  # length-n integer rows
    ineqs: tuple  # per inequality of Disc, its s pulled-back values
    eqs: tuple  # per equality of Disc, its s pulled-back values
    projections: tuple  # per split edge, pi_i(num)
    annihilators: tuple  # per genericity subspace, its annihilator values
    labels: tuple  # per genericity subspace, its label


def relative_position_cone(q: QuasiSplitGraph) -> Cone:
    """Cone of relative vertex positions: per-vertex relative cells with
    the direction condition on new edges (nonnegative multiples) and on
    retained non-split edges (real multiples); split edges are free."""
    index = q.checked_top.index
    cells = {v: relative_cell_rows(q.dec, q.top.label[v], q.base.label[q.vertex_map[v]])
             for v in index}
    collapsed = set(q.collapse.collapsed_edges)
    edges = [(e, e.id in collapsed)  # a new edge: nonnegative multiple
             for e in q.top.edges if e.kind == TROPICAL and e.id not in q.top_split_ids]
    ineqs, eqs = graph_rows(index, q.n, cells, edges)
    return Cone(q.n * len(index), ineqs=ineqs, eqs=eqs)


class DiscrepancyData(NamedTuple):
    disc: Cone
    blocks: tuple  # (base edge id, direction, projection matrix) per block


def discrepancy(q: QuasiSplitGraph) -> DiscrepancyData:
    """The discrepancy cone: the image of w under the discrepancy map Diff
    (projected split-edge mismatches of a relative position), with Diff's
    blocks, one per split edge in order.  The mismatch at a split edge is
    taken between the ends of its top edge oriented as the base edge."""
    n = q.n
    index = q.checked_top.index
    n_vars = n * len(index)
    rows = []
    blocks = []
    for bid in q.split_order:
        eid = q.split_top[bid]
        a, b = q.top.edge(eid).ends
        if eid in q.collapse.flipped:
            a, b = b, a
        base = q.base.edge(bid)
        rows += [pair_row(n_vars, index[a], index[b], n, prow) for prow in base.projection]
        blocks.append((bid, tuple(base.direction), base.projection))
    return DiscrepancyData(q.w.linear_image(rows), tuple(blocks))


def _genericity_family(q: QuasiSplitGraph):
    """Proper rational subspaces of t that the cone direction must avoid:
    per split edge, the direction span, the block slice of span(Disc) when
    proper, and block slices of the facet hyperplanes of Disc.  Each slice
    is read off ``pull_table``: at split edge i, span(Disc) slices to the
    kernel of the i-th pulled rows of Disc's equalities, and facet k to
    the kernel of the i-th pulled row of inequality k, whose annihilator is
    that row made primitive (``Subspace.hyperplane``).  Each subspace is
    its annihilator and is listed once: equal subspaces have equal
    annihilators.  The whole space (no annihilator row; span(Disc) with
    no equality is not built) and the zero subspace (n rows) are skipped."""
    n = q.n
    ineqs, eqs = q.pull_table
    fam, labels = [], []
    seen = set()

    def add(S, label):
        if 0 < len(S.annihilator) < n and S.annihilator not in seen:
            seen.add(S.annihilator)
            fam.append(S)
            labels.append(label)

    for i, (bid, d, _) in enumerate(q.disc.blocks):
        add(Subspace.spanned_by([d], n), f"direction span of {bid}")
        if eqs:
            add(Subspace.spanned_by(_kernel_int(_rref_int([row[i] for row in eqs]), n), n),
                f"span(Disc) sliced at {bid}")
        for k, row in enumerate(ineqs):
            add(Subspace.hyperplane(row[i]), f"facet {k} of Disc sliced at {bid}")
    return fam, labels


class ConeConditionVerdict(NamedTuple):
    holds: bool
    certified: bool
    certificate: GenericityCertificate
    D: Cone  # scalings cone in R^(number of split edges)
    disc_dim: int
    expected_disc_dim: int
    projected_num: tuple  # per split edge, pi(num), where eta = num / den
    den: int

    @property
    def projected_eta(self) -> tuple:
        """Per split edge, pi(eta) as ``Fraction``s."""
        return tuple(tuple(Fraction(x, self.den) for x in p) for p in self.projected_num)


def cone_condition(q: QuasiSplitGraph, eta) -> ConeConditionVerdict:
    """Literal cone-condition verdict plus the effective-genericity
    certificate.  A failed certificate does not flip ``holds``; it marks
    the verdict as not certified."""
    eta = ratvec(eta)
    if len(eta) != q.n:
        raise SplitError("cone direction has wrong dimension")
    if not any(eta):
        raise SplitError("cone direction must be nonzero")
    n, s = q.n, q.num_split
    # eta = num / den over one common denominator.  M_eta maps the scalings
    # x to the blocks x_i pi_i(eta); D is built from num, a positive
    # multiple of eta, which leaves D unchanged.  A row of Disc pulls back
    # to its pull-table rows dotted with num, one slice of the values of the
    # row table, and D is the orthant cut by the pulled rows, so its double
    # description starts from the unit rays.
    # With no split edge the table and the family are empty, and D is the
    # zero cone of R^0, which is increasing.
    den = lcm(*(x.denominator for x in eta))
    num = tuple(x.numerator * (den // x.denominator) for x in eta)
    table = q.row_table
    values = tuple([sum(map(mul, row, num)) for row in table.rows])
    # many directions pull back to the same rows once these are primitive,
    # and D and its verdict depend on nothing else
    key = _primitive_rows(values, table.ineqs), _primitive_rows(values, table.eqs)
    memo = q.scalings_cones
    entry = memo.get(key)
    if entry is None:
        D = orthant_cut(s, *key)
        entry = D, is_increasing(D)
        if len(memo) >= SCALINGS_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = entry
    D, holds = entry
    # num lies in a genericity subspace when it is orthogonal to each of
    # the subspace's annihilator rows
    violations = tuple(k for k, part in enumerate(table.annihilators) if not any(values[part]))
    return ConeConditionVerdict(
        holds=holds,
        certified=not violations,
        certificate=GenericityCertificate(not violations, violations, table.labels),
        D=D,
        disc_dim=q.disc.disc.dim(),
        expected_disc_dim=s * (n - 1),
        projected_num=tuple(values[part] for part in table.projections),
        den=den,
    )


def _primitive_rows(values: tuple, parts) -> tuple:
    """The rows ``cones.orthant_rows`` makes of the given slices of values:
    each divided by the gcd of its entries and kept when nonzero, in
    order."""
    out = []
    for part in parts:
        row = values[part]
        g = gcd(*row)
        if g:
            out.append(row if g == 1 else tuple(x // g for x in row))
    return tuple(out)


class SplitGraphVerdict(NamedTuple):
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
    return q.base_positions.dim == 0 and q.w.minimal().dim() == q.num_split * (q.n - 1)


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
