"""Value semantics of the library's value types: the NamedTuple records
and the ``exact.Value`` classes that check or normalize their input."""

import re
from fractions import Fraction as F

import pytest
from conftest import graph, quasi

from tropsplit.exact import (
    GenericityCertificate,
    IntegerLattice,
    Subspace,
    is_generic_wrt,
    saturated_kernel_lattice,
)
from tropsplit.graphs import CheckedGraph, Edge, GraphError, TropicalGraph, validate_graph
from tropsplit.potential import NovikovSeries, bg_potential
from tropsplit.splitting import cone_condition, is_split_graph
from tropsplit.symmetry import symmetry_group

# One instance of each value type, as the library builds it.
INSTANCES = {
    "IntegerLattice": lambda dec, q: saturated_kernel_lattice(((1, 2),), 2),
    "GenericityCertificate": lambda dec, q: is_generic_wrt((1, 1), [[(1, 0)]]),
    "Subspace": lambda dec, q: Subspace.spanned_by([(2, 4)], 2),
    "Polytope": lambda dec, q: dec.polytopes[min(dec.polytopes)],
    "DualCell": lambda dec, q: dec.dual_cells[min(dec.dual_cells)],
    "Edge": lambda dec, q: q.top.edges[0],
    "TropicalGraph": lambda dec, q: q.top,
    "CheckedGraph": lambda dec, q: q.checked_top,
    "VertexPositionPolyhedron": lambda dec, q: q.checked_top.positions,
    "CollapseReport": lambda dec, q: q.collapse,
    "DiscrepancyData": lambda dec, q: q.disc,
    "ConeConditionVerdict": lambda dec, q: cone_condition(q, (1, -1)),
    "SplitGraphVerdict": lambda dec, q: is_split_graph(q, (1, -1)),
    "SymmetryGroup": lambda dec, q: symmetry_group(dec, graph("fig_rigid_gamma2")),
    "NovikovSeries": lambda dec, q: bg_potential([(1, 0), (-1, 0), (0, 1), (0, -1)],
                                                 [1, 0, 1, 0], (F(1, 2), F(1, 2))),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_value_semantics(name, square_split):
    """Rebuilt from its fields, a value equals the original and hashes
    alike (when its fields hash); a checked graph compares by identity.
    Assigning or deleting a field raises ``AttributeError``."""
    dec = square_split
    value = INSTANCES[name](dec, quasi(dec, "fig_square_top1"))
    cls = type(value)
    assert cls.__name__ == name
    fields = tuple(getattr(value, f) for f in cls._fields)
    a, b = cls(*fields), cls(*fields)
    if cls is CheckedGraph:
        assert a != b and a == a and value != a
        assert hash(a) == object.__hash__(a)
    else:
        assert a == b == value and not a != b
        try:
            hash(fields)
        except TypeError:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(value)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert repr(a).startswith(f"{name}({cls._fields[0]}=")


@pytest.mark.parametrize("a, b", [
    (IntegerLattice(1, ()), IntegerLattice(2, ())),
    (IntegerLattice(2, ((1, 0),)), IntegerLattice(2, ((0, 1),))),
    (Edge("e", ("a", "b")), Edge("f", ("a", "b"))),
    (Edge("e", ("a", "b"), direction=(1, 0)), Edge("e", ("a", "b"), direction=(0, 1))),
    (TropicalGraph([("a", "P")], ()), TropicalGraph([("b", "P")], ())),
    (TropicalGraph([("a", "P")], ()), TropicalGraph([("a", "P")], (), split_order=())),
    (NovikovSeries.zero(1), NovikovSeries.zero(2)),
    (NovikovSeries.term(1, 1, 0), NovikovSeries.term(1, 2, 0)),
])
def test_values_differing_in_a_field_are_unequal(a, b):
    assert a != b and not a == b


def test_a_certificate_is_true_when_generic():
    assert bool(GenericityCertificate(True, (), ())) is True
    assert bool(GenericityCertificate(False, (0,), ("x",))) is False
    assert not is_generic_wrt((1, 0), [[(2, 0)]])


@pytest.mark.parametrize("build, error, message", [
    (lambda: Edge("e", ("a", "b"), kind="bogus"), GraphError, "edge e: unknown kind bogus"),
    (lambda: Edge("e", ("a", "b"), direction=(F(1, 2), 0)), ValueError,
     "expected an integer, got Fraction(1, 2)"),
    (lambda: TropicalGraph((("a", "P"), ("a", "Q")), ()), GraphError, "duplicate vertex ids"),
    (lambda: TropicalGraph((("a", "P"), ("b", "P")),
                           (Edge("e", ("a", "b"), "interior"),) * 2),
     GraphError, "duplicate edge ids"),
    (lambda: NovikovSeries(-1, ()), ValueError, "num_vars must be nonnegative"),
    (lambda: NovikovSeries(1, ((1, -1, (0,)),)), ValueError, "negative area exponent"),
    (lambda: NovikovSeries(1, ((1, 0, (0, 0)),)), ValueError, "monomial of wrong arity"),
    (lambda: IntegerLattice(2, ((1, 0, 0),)), ValueError, "basis vector of wrong dimension"),
    (lambda: IntegerLattice(2, ((1, 0), (2, 0))), ValueError,
     "lattice basis is not linearly independent"),
])
def test_value_validation_keeps_its_errors(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_value_normalization():
    """Directions and lattice bases become int tuples, graph ids strings,
    and a series merges and sorts its terms."""
    e = Edge("e", ("a", "b"), direction=["2", F(-3)])
    assert e.direction == (2, -3) and all(type(x) is int for x in e.direction)
    g = TropicalGraph([(1, 2), ("b", "P")], [e], split_order=("e",))
    assert g.vertices == (("1", "2"), ("b", "P")) and g.edges == (e,)
    assert g.label == {"1": "2", "b": "P"} and g.edge("e") is e
    assert IntegerLattice(2, [[1, 0]]).basis == ((1, 0),)
    s = NovikovSeries(1, ((1, 1, (0,)), ("1/2", 0, ("2",)), (1, 1, (0,)), (0, 0, (1,))))
    assert s.terms == ((F(1, 2), 0, (2,)), (2, 1, (0,)))
    assert s + NovikovSeries.zero(1) == s and s != NovikovSeries.zero(1)


def test_cached_properties_are_computed_once(square_split):
    """``cached_property`` writes the instance dict, past the raising
    ``__setattr__``, so each is computed once."""
    checked = validate_graph(square_split, graph("fig_rigid_gamma1"))
    assert checked.index is checked.index and checked.positions is checked.positions
    assert checked.positions.strict_rows is checked.positions.strict_rows
    edge = checked.graph.tropical_edges()[0]
    assert edge.projection is edge.projection
    lattice = saturated_kernel_lattice(((1, 2),), 2)
    assert lattice.contains((2, -1)) and lattice._echelon is lattice._echelon
