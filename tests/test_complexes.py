import itertools
from fractions import Fraction as F

import pytest

from oracles import kernel_basis, mat, rank
from tropsplit import cones
from tropsplit import fixtures as fx
from tropsplit.complexes import (
    MAX_SIGN_VECTORS,
    Decomposition,
    DecompositionError,
    cone_of_relative_cell,
    is_tropical_fiber,
    toric_cut,
)
from tropsplit.cones import Cone
from tropsplit.exact import vec
from tropsplit.serialize import decomposition_from_dict


def test_fixture_complexes_validate(square_plain, square_split, cube_split):
    square_plain.validate()
    square_split.validate()
    cube_split.validate()


def test_complementary_dimensions(square_split, cube_split):
    for dec in (square_split, cube_split):
        for pid in dec.polytopes:
            assert dec.cell(pid).dim() + dec.dual(pid).dim() == dec.ambient_dim
            assert (
                len(dec.normal_space(pid).basis) + dec.cell(pid).dim()
                == dec.ambient_dim
            )


# -- normal spaces ---------------------------------------------------------------


def test_normal_space_top_dimensional_is_zero(square_split):
    assert square_split.normal_space("Qpp").basis == ()


def test_normal_space_halfline(square_split):
    lat = square_split.normal_space("Hxp")
    assert lat.basis == ((0, 1),)


def test_normal_space_cube_edge_cell(cube_split):
    # the z-axis half-line has a rank-2 annihilator; oracle: the kernel of
    # its direction space, computed directly
    lat = cube_split.normal_space("Hzm")
    dirs = cube_split.cell("Hzm").direction_space()
    oracle = kernel_basis(mat(dirs), 3)
    assert len(lat.basis) == 2 == len(oracle)
    for b in lat.basis:
        assert rank(mat(list(oracle) + [vec(b)])) == 2


def test_normal_space_center(square_split):
    lat = square_split.normal_space("vc")
    assert len(lat.basis) == 2


# -- relative cells ----------------------------------------------------------------


def test_cone_kappa_v_equal_top_dim(square_split):
    c = cone_of_relative_cell(square_split, "Qpp", "Qpp")
    assert c.is_zero()


def test_cone_kappa_v_same_lower_cell_is_span(square_split):
    # dual cell of Hxp is a segment; differences span its direction line
    c = cone_of_relative_cell(square_split, "Hxp", "Hxp")
    assert c.same_set(Cone.from_rays([], [(0, 1)], ambient_dim=2))


def test_cone_kappa_v_side_into_corner(square_split):
    # the dual segment of Hxp relative to the corner dual point of Qpp:
    # hand subtraction of the V-representations gives the ray (0,-1)
    c = cone_of_relative_cell(square_split, "Hxp", "Qpp")
    assert c.same_set(Cone.from_rays([(0, -1)]))


def test_cone_kappa_v_center_into_corner(square_split):
    c = cone_of_relative_cell(square_split, "vc", "Qmm")
    assert c.same_set(Cone.from_rays([(1, 0), (0, 1)]))


def test_cone_kappa_v_requires_face_relation(square_split):
    with pytest.raises(DecompositionError):
        cone_of_relative_cell(square_split, "Qpp", "Hxp")


# -- toric cuts -----------------------------------------------------------------------


def test_toric_cut_square():
    t = fx.toric_square()
    dec, inner = toric_cut(
        t["normals"], [F(c) for c in t["constants"]], [F(e) for e in t["epsilons"]],
        [F(x) for x in t["lambda"]],
    )
    top = [p for p in dec.polytopes.values() if p.dim == 2]
    assert len(top) == 9
    assert len(dec.polytopes) == 25
    dec.validate(geometric=True)
    # dual complex is the 3x3-vertex square complex: dual vertices form
    # the grid {-1,0,1}^2 and the inner dual cell is the origin
    assert dec.dual(inner).vertices == [vec((0, 0))]
    verts = {dec.dual(p.id).vertices[0] for p in top}
    assert verts == {vec((a, b)) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    assert dec.split_set == {p for p in dec.polytopes if dec.cell(p).dim() < 2}


def test_toric_cut_cube():
    t = fx.toric_cube()
    dec, inner = toric_cut(
        t["normals"], [F(c) for c in t["constants"]], [F(e) for e in t["epsilons"]],
        [F(x) for x in t["lambda"]],
    )
    top = [p for p in dec.polytopes.values() if p.dim == 3]
    assert len(top) == 27
    dec.validate(geometric=False)
    assert is_tropical_fiber(dec, inner, [F(1, 2)] * 3)


def test_toric_cut_hirzebruch():
    # non-axis-aligned facet (1,2): nine faces of the trapezoid, nine top cells
    h = fx.hirzebruch_two()
    dec, inner = toric_cut(
        h["normals"], [F(c) for c in h["constants"]], [F(e) for e in h["epsilons"]],
        [F(x) for x in h["lambda"]],
    )
    top = [p for p in dec.polytopes.values() if p.dim == 2]
    assert len(top) == 9
    dec.validate(geometric=True)
    assert is_tropical_fiber(dec, inner, [F(x) for x in h["lambda"]])


def test_toric_cut_rejects_outside_lambda():
    t = fx.toric_square()
    with pytest.raises(DecompositionError):
        toric_cut(
            t["normals"], [F(c) for c in t["constants"]],
            [F(e) for e in t["epsilons"]], (F(95, 100), F(1, 2)),
        )


def test_toric_cut_rejects_too_many_facets_before_any_conversion(monkeypatch):
    """11 facets give 3^11 sign vectors, over the bound: the cut raises,
    naming the bound, before it converts a single polyhedron."""
    calls = []
    monkeypatch.setattr(cones, "_h_to_v", lambda *args: calls.append(args))
    normals = [(1, k) for k in range(-5, 6)]
    assert 3 ** len(normals) > MAX_SIGN_VECTORS >= 3**10
    with pytest.raises(DecompositionError, match=str(MAX_SIGN_VECTORS)):
        toric_cut(normals, [1] * 11, [F(1, 10)] * 11, (0, 0))
    assert calls == []


@pytest.mark.parametrize("dim", [2.5, 2.0, True])
def test_decomposition_rejects_a_non_integer_ambient_dim(dim):
    with pytest.raises(ValueError):
        Decomposition(dim, [], [], [])


def test_toric_cut_rejects_unbounded():
    with pytest.raises(DecompositionError):
        toric_cut([(1, 0), (0, 1)], [1, 1], [F(1, 10)] * 2, (0, 0))


# -- tropical fibers ---------------------------------------------------------------


def test_tropical_fiber_true_for_cut_output():
    t = fx.toric_square()
    dec, inner = toric_cut(
        t["normals"], [F(c) for c in t["constants"]], [F(e) for e in t["epsilons"]],
        [F(x) for x in t["lambda"]],
    )
    assert is_tropical_fiber(dec, inner, (F(1, 2), F(1, 2)))
    assert not is_tropical_fiber(dec, inner, (F(9, 10), F(1, 2)))  # boundary


def test_tropical_fiber_false_with_missing_facet(square_split):
    # Qpp has unbounded facets that are cells, but the quadrant complex's
    # inner cell is not a cut polytope: construct a decomposition missing a
    # facet by dropping a half-line cell
    data = fx.square_complex()
    data["polytopes"] = [p for p in data["polytopes"] if p["id"] != "Hxp"]
    data["dual_cells"] = [d for d in data["dual_cells"] if d["id"] != "Hxp"]
    data["faces"] = [f for f in data["faces"] if "Hxp" not in f]
    dec = decomposition_from_dict(data)
    assert not is_tropical_fiber(dec, "Qpp", (F(1), F(1)))


def test_validation_catches_wrong_dual_identification():
    # swap two side dual cells: the corner dual point stops being a face of
    # the right dual cell
    data = fx.square_complex()
    for d in data["dual_cells"]:
        if d["id"] == "Hxp":
            d["vertices"] = [["0", "0"], ["0", "1"]]  # left side, wrong
    dec = decomposition_from_dict(data)
    with pytest.raises(DecompositionError):
        dec.validate(geometric=False)


def test_validation_catches_wrong_dual_dimension():
    data = fx.square_complex()
    for d in data["dual_cells"]:
        if d["id"] == "vc":
            d["vertices"] = [["0", "0"], ["1", "0"]]  # segment, not square
    dec = decomposition_from_dict(data)
    with pytest.raises(DecompositionError):
        dec.validate(geometric=False)


def test_intersection_audit_catches_missing_cell():
    data = fx.square_complex()
    data["polytopes"] = [p for p in data["polytopes"] if p["id"] != "vc"]
    data["dual_cells"] = [d for d in data["dual_cells"] if d["id"] != "vc"]
    data["faces"] = [f for f in data["faces"] if "vc" not in f]
    data["split_set"] = []
    dec = decomposition_from_dict(data)
    with pytest.raises(DecompositionError):
        dec.validate(geometric=True)


def test_intersection_cell_needs_no_minimal_cone(monkeypatch):
    """The intersection audit compares cells as cones; it never asks for a
    minimal H-representation."""
    calls = []
    original = Cone.minimal

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Cone, "minimal", counted)
    dec = decomposition_from_dict(fx.square_complex())
    meets = {
        (p1, p2): dec.intersection_cell(p1, p2)
        for p1, p2 in itertools.combinations(sorted(dec.polytopes), 2)
    }
    assert calls == []
    assert meets[("Qpm", "Qpp")] == "Hxp"
    assert meets[("Qmm", "Qpp")] == "vc"
    assert meets[("Hxp", "Hyp")] == "vc"
    assert meets[("Hxp", "Qpp")] == "Hxp"
    assert all(dec.face_le(q, p1) and dec.face_le(q, p2) for (p1, p2), q in meets.items())
