"""Tropical graphs: vertex-polytope labels, integer edge directions,
realizability by vertex positions, rigidity, and edge-collapse morphisms.

Vertex positions live in the dual complex: the position of v ranges over
the dual cell of its polytope label, and each tropical edge e = (a, b)
forces position(a) - position(b) onto the positive span of its direction.

Validity for a decomposition is checked once: ``validate_graph`` returns a
``CheckedGraph`` that carries each tropical edge's cell and what is read
off it (split edges, components, positions), and callers pass it along.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .complexes import Decomposition
from .exact import _dot, as_int, quotient_projection
from .polyhedra import Polyhedron

TROPICAL = "tropical"
INTERIOR = "interior"
BOUNDARY = "boundary"
EDGE_KINDS = (TROPICAL, INTERIOR, BOUNDARY)


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple  # (a, b): direction condition reads pos(a) - pos(b)
    kind: str = TROPICAL
    direction: tuple | None = None  # integer vector for tropical edges
    maps_to: str | None = None  # explicit image under a collapse, optional

    def __post_init__(self):
        if self.kind not in EDGE_KINDS:
            raise GraphError(f"edge {self.id}: unknown kind {self.kind}")
        if self.direction is not None:
            object.__setattr__(self, "direction", tuple(map(as_int, self.direction)))

    @cached_property
    def projection(self) -> tuple:
        """``quotient_projection`` of the direction, computed once per edge
        (a Smith form) and shared by every system the edge enters."""
        return quotient_projection(self.direction)


@dataclass(frozen=True)
class TropicalGraph:
    vertices: tuple  # pairs (vertex id, polytope id)
    edges: tuple  # Edge
    split_order: tuple | None = None  # optional user ordering of split edges

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple((str(v), str(p)) for v, p in self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate vertex ids")
        eids = [e.id for e in self.edges]
        if len(set(eids)) != len(eids):
            raise GraphError("duplicate edge ids")
        object.__setattr__(self, "_label", dict(self.vertices))
        object.__setattr__(self, "_edge_index", {e.id: e for e in self.edges})

    @property
    def label(self) -> dict:
        return self._label

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
    """Tropical-graph invariants: labels exist, edge cells are listed, and
    directions are nonzero vectors of the edge cell's normal lattice.

    Returns the checked graph.  A graph already checked against ``dec``
    comes back unchanged; one checked against another decomposition is
    checked again."""
    if isinstance(graph, CheckedGraph):
        if graph.dec is dec:
            return graph
        graph = graph.graph
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
            if not dec.normal_space(cell).contains(e.direction):
                raise GraphError(
                    f"edge {e.id}: direction not in the normal lattice of {cell}"
                )
            cells[e.id] = cell
        elif e.direction is not None:
            raise GraphError(f"edge {e.id}: non-tropical edge with a direction")
    return CheckedGraph(dec, graph, cells)


@dataclass(frozen=True, eq=False)
class CheckedGraph:
    """A tropical graph that ``validate_graph`` has passed for ``dec``.

    ``cells`` maps each tropical edge id to its edge cell P(a) n P(b), a
    listed cell whose normal lattice holds the edge's direction.  The
    block index and the vertex positions are computed once, when read.
    """

    dec: Decomposition
    graph: TropicalGraph
    cells: dict  # tropical edge id -> edge cell

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
        """The polyhedron of vertex position maps, with strict realizability.

        A strict row is implicit, so the strict system infeasible, exactly
        when the closed polyhedron lies in its hyperplane: when its bit is
        in the zero-set of every ray of the one conversion that decides
        emptiness."""
        index = self.index
        n = self.dec.ambient_dim
        n_vars = n * len(index)
        strict = []  # (row, b) meaning row.x <= b, each needed strictly
        eqs = []
        for v, i in index.items():
            cell_ineqs, cell_eqs = self.dec.dual(self.graph.label[v]).hrep()
            strict += [(block_row(n_vars, i, n, a), b) for a, b in cell_ineqs]
            eqs += [(block_row(n_vars, i, n, a), b) for a, b in cell_eqs]
        for e in self.graph.tropical_edges():
            line_rows, ineq_row = direction_rows(e, n_vars, index[e.ends[0]], index[e.ends[1]], n)
            eqs += [(r, 0) for r in line_rows]
            # <pos(a)-pos(b), d> >= 0, strictly for a positive multiplier
            strict.append((tuple(-x for x in ineq_row), 0))
        closed = Polyhedron.from_hrep(n_vars, ineqs=strict, eqs=eqs)
        # the cone keeps the nonzero rows in order, so strict row i has bit i;
        # a zero row would have no bit
        if not all(b or any(a) for a, b in strict):
            raise RuntimeError("a strict row is zero and has no bit in the conversion")
        weakly = not closed.is_empty()
        realizable = weakly and not closed.cone.lies_in_any(range(len(strict)))
        witness = closed.relative_interior_point() if realizable else None
        # a relative interior point avoids every strict boundary: no strict
        # row is implicit, so each cuts out a proper face.  The integer rows
        # are tested on witness = num / den over one common denominator.
        if witness is not None:
            den = lcm(*(x.denominator for x in witness))
            num = [x.numerator * (den // x.denominator) for x in witness]
            if not all(_dot(a, num) < b * den for a, b in strict):
                raise RuntimeError("relative interior point violates a strict row")
        return VertexPositionPolyhedron(
            vertex_order=tuple(index),
            closed=closed,
            strict_rows=tuple(strict),
            realizable=realizable,
            realizable_weakly=weakly,
            witness=witness,
        )


@dataclass(frozen=True)
class VertexPositionPolyhedron:
    """Closed position polyhedron of a tropical graph plus strictness data.

    ``realizable`` means the strict system (open dual cells, positive edge
    multipliers) is feasible; ``realizable_weakly`` only asks for the closed
    polyhedron to be nonempty.  ``witness`` is a strict position map when
    one exists, computed and checked in integers with the verdict.  ``dim``
    is the dimension of the closed polyhedron (-1 when empty), computed
    when first read: only reports and rigidity read it.
    """

    vertex_order: tuple
    closed: Polyhedron
    strict_rows: tuple  # rows (a, b) valid on `closed`, needed strictly
    realizable: bool
    realizable_weakly: bool
    witness: tuple | None

    @cached_property
    def dim(self) -> int:
        return self.closed.dim()

    def position(self, witness, v: str):
        i = self.vertex_order.index(v)
        n = self.closed.ambient_dim // len(self.vertex_order)
        return witness[i * n : (i + 1) * n]


def block_row(n_vars: int, block: int, n: int, a):
    """Row representing a.x_block."""
    row = [0] * n_vars
    for j, x in enumerate(a):
        row[block * n + j] = x
    return tuple(row)


def pair_row(n_vars: int, block_a: int, block_b: int, n: int, a):
    """Row representing a.(x_blockA - x_blockB)."""
    row = [0] * n_vars
    for j, x in enumerate(a):
        row[block_a * n + j] += x
        row[block_b * n + j] -= x
    return tuple(row)


def direction_rows(e: Edge, n_vars, ia, ib, n):
    """Equality rows forcing pos(a) - pos(b) onto the line of the edge's
    direction (the rows of its quotient projection), plus the inequality
    row whose sign is the multiplier."""
    eqs = [pair_row(n_vars, ia, ib, n, p) for p in e.projection]
    return eqs, pair_row(n_vars, ia, ib, n, e.direction)


def vertex_positions(dec: Decomposition, graph) -> VertexPositionPolyhedron:
    """The polyhedron of vertex position maps, with strict realizability."""
    return validate_graph(dec, graph).positions


def is_rigid(dec: Decomposition, graph: TropicalGraph) -> bool:
    w = vertex_positions(dec, graph)
    if not w.realizable:
        raise GraphError("graph is not realizable")
    return w.dim == 0


@dataclass(frozen=True)
class CollapseReport:
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
