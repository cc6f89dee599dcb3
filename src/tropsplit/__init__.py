"""Exact combinatorics of split tropical graphs.

Rational polyhedral cones, polyhedral decompositions with dual complexes,
tropical graphs and edge collapses, discrepancy cones and the cone
condition, tropical symmetry groups, and toric disk potentials, all in
exact arithmetic.
"""

__version__ = "0.1.0"

from .cones import Cone, is_increasing
from .complexes import Decomposition, cone_of_relative_cell, is_tropical_fiber, toric_cut
from .exact import (
    GenericityCertificate,
    IntegerLattice,
    hermite_normal_form,
    invariant_factors,
    is_generic_wrt,
    saturate,
    smith_normal_form,
)
from .graphs import (
    Edge,
    TropicalGraph,
    is_rigid,
    split_edges,
    validate_collapse,
    vertex_positions,
)
from .polyhedra import Polyhedron
from .potential import NovikovSeries, bg_potential, leading_terms, split_contribution
from .splitting import (
    QuasiSplitGraph,
    cone_condition,
    discrepancy,
    index_shift,
    is_rigid_split,
    is_split_graph,
    iterative_split_check,
    relative_position_cone,
)
from .symmetry import component_splitting, multiplicity, symmetry_group

__all__ = [
    "Cone",
    "Decomposition",
    "Edge",
    "GenericityCertificate",
    "IntegerLattice",
    "NovikovSeries",
    "Polyhedron",
    "QuasiSplitGraph",
    "TropicalGraph",
    "bg_potential",
    "component_splitting",
    "cone_condition",
    "cone_of_relative_cell",
    "discrepancy",
    "hermite_normal_form",
    "index_shift",
    "invariant_factors",
    "is_generic_wrt",
    "is_increasing",
    "is_rigid",
    "is_rigid_split",
    "is_split_graph",
    "is_tropical_fiber",
    "iterative_split_check",
    "leading_terms",
    "multiplicity",
    "relative_position_cone",
    "saturate",
    "smith_normal_form",
    "split_contribution",
    "split_edges",
    "symmetry_group",
    "toric_cut",
    "validate_collapse",
    "vertex_positions",
]
