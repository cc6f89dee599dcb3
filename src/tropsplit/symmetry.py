"""Tropical symmetry groups as kernels of lattice torus homomorphisms.

A symmetry assigns a translation g_v in the torus of the vertex's normal
lattice to every vertex and a rotation z_e to every constrained tropical
edge, subject to g(v+) g(v-)^{-1} = z_e^{T(e)} per edge (interior edges
force z_e = 1).  The group is the kernel of the induced homomorphism of
complex tori.  One Smith form of the integer relation matrix gives all of
it: the rank fixes the dimension, the invariant factors the component
group, and the columns past the rank the exponent lattice.  No complex
numbers are ever materialized.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .complexes import Decomposition
from .exact import IntegerLattice, smith_kernel
from .graphs import (
    INTERIOR,
    TROPICAL,
    GraphError,
    TropicalGraph,
    validate_graph,
)
from .splitting import is_rigid_split


class SymmetryGroup(NamedTuple):
    """Kernel description of a tropical symmetry group.

    ``variables`` label the exponent coordinates: ("g", vertex, k) for the
    k-th normal-lattice basis vector of a vertex torus, ("z", edge) for an
    edge rotation.  The identity component is the complex torus of the
    saturated kernel lattice; ``torsion_order`` counts the components.
    """

    complex_dimension: int
    torsion_order: int
    exponent_lattice: IntegerLattice
    variables: tuple
    relations: tuple  # integer relation matrix rows


def _relation_system(dec: Decomposition, graph: TropicalGraph, constrained_edges):
    """Variables and integer relation rows for the given edge set."""
    n = dec.ambient_dim
    variables = []
    var_index = {}
    bases = {}
    for v in graph.vertex_ids():
        lattice = dec.normal_space(graph.label[v])
        bases[v] = lattice.basis
        for k in range(len(lattice.basis)):
            var_index[("g", v, k)] = len(variables)
            variables.append(("g", v, k))
    z_edges = [e for e in constrained_edges if e.kind == TROPICAL]
    for e in sorted(z_edges, key=lambda e: e.id):
        var_index[("z", e.id)] = len(variables)
        variables.append(("z", e.id))
    rows = []
    for e in sorted(constrained_edges, key=lambda e: e.id):
        a, b = e.ends
        for i in range(n):
            row = [0] * len(variables)
            for k, bv in enumerate(bases[a]):
                row[var_index[("g", a, k)]] += bv[i]
            for k, bv in enumerate(bases[b]):
                row[var_index[("g", b, k)]] -= bv[i]
            if e.kind == TROPICAL:
                row[var_index[("z", e.id)]] -= e.direction[i]
            rows.append(tuple(row))
    return tuple(variables), tuple(rows)


def symmetry_group(dec: Decomposition, graph, framed: bool = False,
                   split_edge_ids=None) -> SymmetryGroup:
    """Tropical symmetry group of a (possibly split) tropical graph, plain
    or already checked.

    Unframed symmetries leave split edges unconstrained; the framed group
    also constrains them.  ``split_edge_ids`` overrides the split set
    derived from the decomposition (used for the top graph of a collapse,
    whose split edges are the preimages of the base's).
    """
    checked = validate_graph(dec, graph)
    if split_edge_ids is None:
        split_edge_ids = checked.split_ids
    constrained = [
        e
        for e in checked.graph.edges
        if e.kind == INTERIOR
        or (e.kind == TROPICAL and (framed or e.id not in split_edge_ids))
    ]
    variables, rows = _relation_system(dec, checked.graph, constrained)
    factors, lattice = smith_kernel(rows or ((0,) * len(variables),))
    return SymmetryGroup(
        complex_dimension=len(variables) - len(factors),
        torsion_order=prod(factors),
        exponent_lattice=lattice,
        variables=variables,
        relations=rows,
    )


def component_splitting(dec: Decomposition, graph, split_edge_ids=None) -> list:
    """Unframed symmetry groups of the connected components of the graph
    minus its split edges; their dimensions sum to the full unframed
    dimension."""
    checked = validate_graph(dec, graph)
    if split_edge_ids is None:
        split_edge_ids = checked.split_ids
    return [symmetry_group(dec, c, split_edge_ids=frozenset())
            for c in checked.components(split_edge_ids)]


def multiplicity(q) -> int:
    """Order of the framed tropical symmetry group of a rigid split graph."""
    group = symmetry_group(q.dec, q.checked_top, framed=True, split_edge_ids=q.top_split_ids)
    if group.complex_dimension > 0:
        raise GraphError("non-rigid: the framed tropical symmetry group is infinite")
    if not is_rigid_split(q):
        raise GraphError("non-rigid split graph: multiplicity undefined")
    return group.torsion_order
