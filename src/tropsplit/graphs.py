"""Tropical graphs: vertex-polytope labels, integer edge directions,
realizability by vertex positions, rigidity, and edge-collapse morphisms.

Vertex positions live in the dual complex: the position of v ranges over
the dual cell of its polytope label, and each tropical edge e = (a, b)
forces position(a) - position(b) onto the positive span of its direction.

Validity for a decomposition is checked once: ``validate_graph`` returns a
``CheckedGraph`` that carries each tropical edge's cell and what is read
off it (split edges, components, positions), and callers pass it along.

``graph_rows`` lays out every linear system on the vertex blocks: the
position polyhedron here and the relative position cone in ``splitting``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .complexes import Decomposition
from .exact import Value, _dot, as_int, quotient_projection
from .polyhedra import Polyhedron, _pair

TROPICAL = "tropical"
INTERIOR = "interior"
BOUNDARY = "boundary"
EDGE_KINDS = (TROPICAL, INTERIOR, BOUNDARY)


class GraphError(ValueError):
    pass


class Edge(Value):
    """A graph edge.  ``ends`` (a, b): the direction condition reads
    pos(a) - pos(b).  ``direction`` is the integer vector of a tropical
    edge; ``maps_to`` an explicit image under a collapse, optional."""

    _fields = ("id", "ends", "kind", "direction", "maps_to")

    def __init__(self, id: str, ends: tuple, kind: str = TROPICAL,
                 direction: tuple | None = None, maps_to: str | None = None):
        if kind not in EDGE_KINDS:
            raise GraphError(f"edge {id}: unknown kind {kind}")
        if direction is not None:
            direction = tuple(map(as_int, direction))
        self.__dict__.update(id=id, ends=ends, kind=kind, direction=direction, maps_to=maps_to)

    @cached_property
    def projection(self) -> tuple:
        """``quotient_projection`` of the direction, computed once per edge
        (a Smith form).  Only coordinates that a report prints need it: the
        split base edges' blocks of Disc and of the projected cone
        direction.  The line of an edge needs no Smith form
        (``graph_rows``)."""
        return quotient_projection(self.direction)


class TropicalGraph(Value):
    """``vertices`` are pairs (vertex id, polytope id), ``edges`` are
    ``Edge``s and ``split_order`` an optional user ordering of the split
    edges.  ``label`` maps each vertex id to its polytope id."""

    _fields = ("vertices", "edges", "split_order")

    def __init__(self, vertices, edges, split_order: tuple | None = None):
        vertices = tuple((str(v), str(p)) for v, p in vertices)
        edges = tuple(edges)
        ids = [v for v, _ in vertices]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate vertex ids")
        eids = [e.id for e in edges]
        if len(set(eids)) != len(eids):
            raise GraphError("duplicate edge ids")
        self.__dict__.update(vertices=vertices, edges=edges, split_order=split_order,
                             label=dict(vertices), _edge_index={e.id: e for e in edges})

    def vertex_ids(self) -> list:
        return sorted(v for v, _ in self.vertices)

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_index[eid]
        except KeyError:
            raise GraphError(f"unknown edge {eid}") from None

    def tropical_edges(self) -> list:
        return [e for e in self.edges if e.kind == TROPICAL]


def validate_graph(dec: Decomposition, graph) -> CheckedGraph:
    """Tropical-graph invariants: some vertex, labels exist, edge cells are
    listed, and directions are nonzero vectors of the edge cell's normal
    lattice.

    A direction is an integer vector, so it lies in the saturated normal
    lattice exactly when it is orthogonal to the cell's direction space
    (``Decomposition.in_normal_lattice``): no lattice is built for it.

    Returns the checked graph.  A graph already checked against ``dec``
    comes back unchanged; one checked against another decomposition is
    checked again."""
    if isinstance(graph, CheckedGraph):
        if graph.dec is dec:
            return graph
        graph = graph.graph
    if not graph.vertices:
        raise GraphError("graph has no vertex")
    for v, p in graph.vertices:
        if p not in dec.polytopes:
            raise GraphError(f"vertex {v}: unknown polytope {p}")
        if p not in dec.dual_cells:
            raise GraphError(f"vertex {v}: polytope {p} has no dual cell")
    cells = {}
    for e in graph.edges:
        for end in e.ends:
            if end not in graph.label:
                raise GraphError(f"edge {e.id}: unknown endpoint {end}")
        if e.ends[0] == e.ends[1]:
            raise GraphError(f"edge {e.id} is a loop")
        if e.kind == TROPICAL:
            if e.direction is None:
                raise GraphError(f"edge {e.id}: tropical edge without direction")
            if len(e.direction) != dec.ambient_dim:
                raise GraphError(f"edge {e.id}: direction of wrong dimension")
            if all(x == 0 for x in e.direction):
                raise GraphError(f"edge {e.id}: zero direction")
            pa, pb = (graph.label[end] for end in e.ends)
            cell = dec.intersection_cell(pa, pb)
            if cell is None:
                raise GraphError(f"edge {e.id}: endpoint cells {pa}, {pb} do not meet")
            if not dec.in_normal_lattice(cell, e.direction):
                raise GraphError(
                    f"edge {e.id}: direction not in the normal lattice of {cell}"
                )
            cells[e.id] = cell
        elif e.direction is not None:
            raise GraphError(f"edge {e.id}: non-tropical edge with a direction")
    return CheckedGraph(dec, graph, cells)


class CheckedGraph(Value):
    """A tropical graph that ``validate_graph`` has passed for ``dec``.

    ``cells`` maps each tropical edge id to its edge cell P(a) n P(b), a
    listed cell whose normal lattice holds the edge's direction.  The
    block index and the vertex positions are computed once, when read.
    Checked graphs compare by identity.
    """

    _fields = ("dec", "graph", "cells")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, dec: Decomposition, graph: TropicalGraph, cells: dict):
        self.__dict__.update(dec=dec, graph=graph, cells=cells)

    @property
    def split_ids(self) -> frozenset:
        """Ids of the tropical edges whose cell lies in the split set."""
        return frozenset(e for e, cell in self.cells.items() if cell in self.dec.split_set)

    def split_order(self, order=None, partial: bool = False) -> tuple:
        """The split edges in ``order``, else in the graph's split_order,
        else sorted by id.  A full order names each split edge exactly
        once; a partial one names distinct split edges."""
        order = self.graph.split_order if order is None else order
        derived = self.split_ids
        if order is None:
            return tuple(sorted(derived))
        order = tuple(order)
        named = set(order)
        if len(named) != len(order) or not (named <= derived if partial else named == derived):
            need = "distinct edges of" if partial else "each edge, exactly once, of"
            raise GraphError(f"split order {order} must name {need} the derived split set "
                             f"{tuple(sorted(derived))}")
        return order

    @cached_property
    def index(self) -> dict:
        """Block of each vertex in a position vector, in sorted id order."""
        return {v: i for i, v in enumerate(self.graph.vertex_ids())}

    def components(self, removed) -> list:
        """Connected components of the graph minus the edges ``removed``, as
        checked graphs ordered by smallest vertex id.  A subgraph of a valid
        graph is valid with the same edge cells, so none is checked again."""
        comp = {v: {v} for v in self.graph.label}  # vertex -> its component so far
        kept = [e for e in self.graph.edges if e.id not in removed]
        for e in kept:
            a, b = comp[e.ends[0]], comp[e.ends[1]]
            if a is not b:
                a |= b
                comp.update(dict.fromkeys(b, a))
        out = []
        for _, vs in sorted({min(c): c for c in comp.values()}.items()):
            es = tuple(e for e in kept if e.ends[0] in vs)
            sub = TropicalGraph(tuple(x for x in self.graph.vertices if x[0] in vs), es)
            out.append(CheckedGraph(self.dec, sub,
                                    {e.id: self.cells[e.id] for e in es if e.id in self.cells}))
        return out

    @cached_property
    def positions(self) -> VertexPositionPolyhedron:
        """The polyhedron of vertex position maps, with strict realizability,
        decided in one integer pass over its one conversion.

        Its cone's rows, on the homogenization (x, t), are the strict rows,
        each r.(x, t) >= 0 needed strictly, then ``t >= 0``, and the
        equalities (``Polyhedron.from_rows``).  ``graph_rows`` lays them
        out with t shared by every block: each vertex block takes its dual
        cell's minimal homogenized rows (``Polyhedron.rows``, read off the
        cell's kept minimal cone), primitive, so no row is paired, read or scaled again, and
        each tropical edge adds its line's equalities and the strict row of
        its multiplier.

        The zero-sets decide.  The closed polyhedron is nonempty when some
        generator has t > 0.  A relative interior point is strict on
        exactly the rows that are not implicit, so the strict system is
        feasible exactly when no strict row is tight on the whole cone:
        when no strict row's bit is in the zero-set of every ray of the
        conversion, which the cone's DD record answers
        (``state().lies_in_any``).  The cone keeps the nonzero rows in
        order, and no strict row is zero, so strict row i has bit i.

        The witness certifies.  The integer sum h of the generators
        (``Polyhedron.generator_sum``) is checked once against every row:
        each strict row > 0, t > 0 and each equality = 0.  A verdict the
        zero-sets gave and h does not bear out is an internal error; the
        witness is h / h_t."""
        index, n = self.index, self.dec.ambient_dim
        duals = {v: self.dec.dual(self.graph.label[v]).rows() for v in index}
        edges = [(e, True) for e in self.graph.tropical_edges()]
        strict, eqs = graph_rows(index, n, duals, edges, shared=1)
        closed = Polyhedron.from_rows(n * len(index), strict, eqs)
        weakly = not closed.is_empty()
        realizable = weakly and not closed.cone.state().lies_in_any(range(len(strict)))
        witness = None
        if realizable:
            h = closed.generator_sum()
            if h[-1] <= 0 or any(_dot(r, h) <= 0 for r in strict) or any(_dot(e, h) for e in eqs):
                raise RuntimeError("relative interior point violates a strict row")
            witness = tuple(Fraction(x, h[-1]) for x in h[:-1])
        return VertexPositionPolyhedron(
            vertex_order=tuple(index),
            closed=closed,
            strict=tuple(strict),
            realizable=realizable,
            realizable_weakly=weakly,
            witness=witness,
        )


class VertexPositionPolyhedron(Value):
    """Closed position polyhedron of a tropical graph plus strictness data.

    ``strict`` holds the rows r of ``closed``'s cone for which
    r.(x, t) >= 0 is needed strictly.  ``realizable`` means the strict
    system (open dual cells, positive edge multipliers) is feasible;
    ``realizable_weakly`` only asks for the closed polyhedron to be
    nonempty.  ``witness`` is a strict position map when one exists,
    computed and checked in integers with the verdict.  ``dim`` is the
    dimension of the closed polyhedron (-1 when empty) and ``strict_rows``
    the strict rows as pairs (a, b) meaning a.x <= b, each computed when
    first read: only reports, rigidity and tests read them.
    """

    _fields = ("vertex_order", "closed", "strict", "realizable", "realizable_weakly", "witness")

    def __init__(self, vertex_order: tuple, closed: Polyhedron, strict: tuple,
                 realizable: bool, realizable_weakly: bool, witness: tuple | None):
        self.__dict__.update(vertex_order=vertex_order, closed=closed, strict=strict,
                             realizable=realizable, realizable_weakly=realizable_weakly,
                             witness=witness)

    @cached_property
    def dim(self) -> int:
        return self.closed.dim()

    @cached_property
    def strict_rows(self) -> tuple:
        return tuple(map(_pair, self.strict))

    def position(self, witness, v: str):
        i = self.vertex_order.index(v)
        n = self.closed.ambient_dim // len(self.vertex_order)
        return witness[i * n : (i + 1) * n]


def pair_row(n_vars: int, block_a: int, block_b: int, n: int, a):
    """Row representing a.(x_blockA - x_blockB)."""
    row = [0] * n_vars
    for j, x in enumerate(a):
        row[block_a * n + j] += x
        row[block_b * n + j] -= x
    return tuple(row)


def graph_rows(index: dict, n: int, vertex_rows, edges, shared: int = 0) -> tuple[list, list]:
    """Rows ``(ineqs, eqs)`` on blocks of n coordinates, vertex v's at
    ``index[v]``, then ``shared`` coordinates common to all (t, on the
    homogenization).  Each vertex's rows ``vertex_rows[v] = (ineqs, eqs)``
    go to its block; each ``(edge, signed)`` of ``edges`` then adds n - 1
    rows forcing pos(a) - pos(b) onto the line of its direction d and,
    when signed, the row <pos(a) - pos(b), d> >= 0 of its multiplier.

    The line rows are d_k e_i - d_i e_k for i != k, k the first coordinate
    where d is nonzero: they annihilate d and are independent.  A cone
    keeps the canonical basis of its equalities, so the Smith projection
    (``Edge.projection``) is only for coordinates that a report prints."""
    n_vars = n * len(index)
    pad = (0,) * shared
    ineqs, eqs = [], []
    for v, i in index.items():
        before, after = (0,) * (i * n), (0,) * (n_vars - (i + 1) * n)
        for rows, out in zip(vertex_rows[v], (ineqs, eqs)):
            out += [before + r[:n] + after + r[n:] for r in rows]
    for e, signed in edges:
        d, ia, ib = e.direction, index[e.ends[0]], index[e.ends[1]]
        k = next((i for i, x in enumerate(d) if x), None)
        if k is None:
            raise GraphError(f"edge {e.id}: zero direction")
        for i in range(n):
            if i != k:
                line = [0] * n
                line[i], line[k] = d[k], -d[i]
                eqs.append(pair_row(n_vars, ia, ib, n, line) + pad)
        if signed:
            ineqs.append(pair_row(n_vars, ia, ib, n, d) + pad)
    return ineqs, eqs


def vertex_positions(dec: Decomposition, graph) -> VertexPositionPolyhedron:
    """The polyhedron of vertex position maps, with strict realizability."""
    return validate_graph(dec, graph).positions


def is_rigid(dec: Decomposition, graph: TropicalGraph) -> bool:
    w = vertex_positions(dec, graph)
    if not w.realizable:
        raise GraphError("graph is not realizable")
    return w.dim == 0


class CollapseReport(NamedTuple):
    ok: bool
    diagnostics: tuple
    collapsed_edges: tuple  # top edge ids that kappa collapses
    edge_map: dict  # top edge id -> base edge id, for uncollapsed edges
    flipped: frozenset  # uncollapsed top edges stored with reversed ends


def match_collapse(dec: Decomposition, top: TropicalGraph, base: TropicalGraph,
                   vertex_map: dict) -> CollapseReport:
    """Structural matching of a collapse kappa: top -> base.

    An edge is collapsed exactly when its endpoints map to one base vertex;
    uncollapsed edges must match a base edge by endpoint images (``maps_to``
    overrides) with the same direction, up to simultaneous end/direction
    reversal.
    """
    diags = []
    for v in top.label:
        if v not in vertex_map:
            diags.append(f"vertex {v} has no image")
    images = set(vertex_map.values())
    for v in base.label:
        if v not in images:
            diags.append(f"base vertex {v} has no preimage")
    for v, img in vertex_map.items():
        if v not in top.label:
            diags.append(f"unknown vertex {v} in the map")
        elif img not in base.label:
            diags.append(f"vertex {v} maps to unknown vertex {img}")
    diags += [f"{s}edge {e.id}: unknown endpoint {x}" for s, g in (("", top), ("base ", base))
              for e in g.edges for x in e.ends if x not in g.label]
    if diags:
        return CollapseReport(False, tuple(diags), (), {}, frozenset())
    for v, img in vertex_map.items():
        if not dec.face_le(top.label[v], base.label[img]):
            diags.append(
                f"vertex {v}: {top.label[v]} is not a face of {base.label[img]}"
            )
    collapsed = []
    edge_map = {}
    flipped = set()
    base_by_ends = {}
    for e in base.edges:
        base_by_ends.setdefault(e.ends, []).append(e)
    for e in top.edges:
        a, b = vertex_map[e.ends[0]], vertex_map[e.ends[1]]
        if a == b:
            collapsed.append(e.id)
            continue
        if e.maps_to is not None:
            candidates = [base.edge(e.maps_to)]
        else:
            candidates = base_by_ends.get((a, b), []) + base_by_ends.get((b, a), [])
        if len(candidates) != 1:
            diags.append(f"edge {e.id}: image edge not unique (got {len(candidates)})")
            continue
        img = candidates[0]
        flip = img.ends == (b, a)
        if img.ends != ((b, a) if flip else (a, b)):
            diags.append(f"edge {e.id}: declared image {img.id} has wrong endpoints")
            continue
        if img.kind != e.kind:
            diags.append(f"edge {e.id}: kind changes under the collapse")
        edge_map[e.id] = img.id
        if flip:
            flipped.add(e.id)
    mapped = set(edge_map.values())
    for e in base.edges:
        if e.id not in mapped:
            diags.append(f"base edge {e.id} has no preimage")
    return CollapseReport(not diags, tuple(diags), tuple(collapsed), edge_map,
                          frozenset(flipped))


def image_direction(base: TropicalGraph, report: CollapseReport, eid: str) -> tuple:
    """Direction of the base image of top edge ``eid``, oriented like the
    top edge's stored ends."""
    d = base.edge(report.edge_map[eid]).direction
    return tuple(-x for x in d) if eid in report.flipped else d


def direction_diagnostics(top: TropicalGraph, base: TropicalGraph,
                          report: CollapseReport) -> list:
    """Uncollapsed tropical edges whose direction is not their base image's."""
    return [
        f"edge {eid}: direction changes under the collapse"
        for eid in report.edge_map
        if top.edge(eid).kind == TROPICAL
        and top.edge(eid).direction != image_direction(base, report, eid)
    ]


def validate_collapse(dec: Decomposition, top: TropicalGraph, base: TropicalGraph,
                      vertex_map: dict) -> CollapseReport:
    """Tropical edge collapse: structural match plus unchanged directions
    on uncollapsed edges."""
    validate_graph(dec, top)
    validate_graph(dec, base)
    report = match_collapse(dec, top, base, vertex_map)
    diags = report.diagnostics + tuple(direction_diagnostics(top, base, report))
    return CollapseReport(not diags, diags, report.collapsed_edges,
                          report.edge_map, report.flipped)


def split_edges(dec: Decomposition, graph, order=None) -> tuple:
    """Edges whose cell lies in the split set, in the supplied order (see
    ``CheckedGraph.split_order``)."""
    return validate_graph(dec, graph).split_order(order)
