import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F
from functools import partial

import pytest

import oracles
from oracles import kernel_basis, mat, rank, vec
from tropsplit import cones
from tropsplit import fixtures as fx
from tropsplit.complexes import (
    MAX_SIGN_VECTORS,
    Decomposition,
    DecompositionError,
    DualCell,
    Polytope,
    cone_of_relative_cell,
    is_tropical_fiber,
    toric_cut,
)
from tropsplit.cones import Cone, DDState
from tropsplit.potential import bg_potential
from tropsplit.serialize import (
    canonical_json,
    decomposition_from_dict,
    decomposition_to_dict,
)


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
    assert c.dim() == 0


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


@pytest.mark.parametrize("pv, pkv, unknown", [
    ("zz", "zz", "zz"), ("zz", "Qpp", "zz"), ("Qpp", "zz", "zz"), ("zz", "yy", "zz"),
])
def test_cone_kappa_v_names_an_unknown_cell(square_split, pv, pkv, unknown):
    """An id the decomposition does not list is an input error naming the
    first unknown id, checked before the face test (which holds for any id
    and itself), not a ``KeyError`` from the dual cells."""
    with pytest.raises(DecompositionError, match=f"^unknown cell {unknown}$"):
        cone_of_relative_cell(square_split, pv, pkv)


@pytest.mark.parametrize("cell, vertices, pv, pkv", [
    ("vc", [["1/2", "0"], ["1", "0"], ["1", "1"], ["1/2", "1"]], "vc", "Qmm"),
    ("Qpp", [["1/2", "1"]], "Hxp", "Qpp"),
])
def test_relative_cell_of_duals_that_do_not_nest_raises(cell, vertices, pv, pkv):
    """A dual cell of P(kappa v) outside the dual cell of P(v) is an input
    error: on the square with vc's dual shrunk to [1/2,1]x[0,1], Qmm's dual
    point fails an inequality of vc's dual; with Qpp's dual moved to
    (1/2,1), it fails the equality x = 1 of Hxp's dual segment.  Pairs
    whose duals still nest keep their cells."""
    data = fx.square_complex()
    next(d for d in data["dual_cells"] if d["id"] == cell)["vertices"] = vertices
    dec = decomposition_from_dict(data)
    message = f"^dual cell of {pkv} does not lie in the dual cell of {pv}$"
    with pytest.raises(DecompositionError, match=message):
        cone_of_relative_cell(dec, pv, pkv)
    want = oracles.cone_of_relative_cell(dec, "vc", "Qpp").key()
    assert cone_of_relative_cell(dec, "vc", "Qpp").key() == want


@pytest.mark.parametrize("p1, p2, unknown", [
    ("Qmm", "nope", "nope"), ("nope", "Qmm", "nope"), ("nope", "zz", "nope"),
    ("nope", "nope", "nope"),
])
def test_intersection_cell_names_an_unknown_cell(p1, p2, unknown):
    """An id the decomposition does not list is an input error naming the
    first unknown id, checked before any route reads the face table or a
    cell, not a ``KeyError``; nothing is read or cached."""
    dec = decomposition_from_dict(fx.square_complex())
    with pytest.raises(DecompositionError, match=f"^unknown cell {unknown}$"):
        dec.intersection_cell(p1, p2)
    assert dec._isect_cache == dec._rows == dec._geom == {}


def test_in_normal_lattice_names_an_unknown_cell(square_split):
    with pytest.raises(DecompositionError, match="^unknown cell nope$"):
        square_split.in_normal_lattice("nope", (1, 0))
    assert square_split.in_normal_lattice("Hxp", (0, 1))


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


def _count_dd(monkeypatch, delta_rows=0) -> Counter:
    """Count DD steps and conversions ("h_to_v").  A step is told by the
    bit it gives its row: one of a state's first ``delta_rows`` rows, in a
    cut those of Delta, is a "step", and a later one, a sign row on the
    cut's walk, a "walk" step."""
    calls = Counter()

    def counted(key, original):
        def wrapper(*args):
            calls[key] += 1
            return original(*args)

        return wrapper

    def step(lin, rays, a, bit):
        calls["step" if bit < 1 << delta_rows else "walk"] += 1
        return original_step(lin, rays, a, bit)

    original_step = cones._dd_step
    monkeypatch.setattr(cones, "_dd_step", step)
    monkeypatch.setattr(cones, "_h_to_v", counted("h_to_v", cones._h_to_v))
    return calls


@pytest.mark.parametrize("lam", [(0,), (0, 0, 0)])
def test_toric_cut_rejects_a_base_point_of_wrong_dimension_before_any_conversion(
    monkeypatch, lam
):
    calls = _count_dd(monkeypatch)
    with pytest.raises(DecompositionError, match="base point of wrong dimension"):
        toric_cut([(1, 0), (0, 1), (-1, 0), (0, -1)], [1] * 4, [F(1, 2)] * 4, lam)
    assert calls == Counter()


def test_toric_cut_rejects_too_many_facets_before_any_conversion(monkeypatch):
    """11 facets give 3^11 sign vectors, over the bound: the cut raises,
    naming the bound, before it runs a single DD step."""
    calls = _count_dd(monkeypatch)
    normals = [(1, k) for k in range(-5, 6)]
    assert 3 ** len(normals) > MAX_SIGN_VECTORS >= 3**10
    with pytest.raises(DecompositionError, match=str(MAX_SIGN_VECTORS)):
        toric_cut(normals, [1] * 11, [F(1, 10)] * 11, (0, 0))
    assert calls == Counter()


def test_toric_cut_walks_the_cube_in_pinned_dd_steps(monkeypatch):
    """The cube cut runs 7 DD steps for Delta's rows and 372 on the walk,
    one per prefix visited (of 1092 prefixes in the full sign tree), and no
    conversion: each of its 125 cells reads its minimal H-representation
    off the walk's zero-sets.  A fallback to a conversion per sign vector
    or per cell changes these counts."""
    calls = _count_dd(monkeypatch, delta_rows=7)  # six facets and t >= 0
    t = fx.toric_cube()
    dec, _ = toric_cut(t["normals"], t["constants"], t["epsilons"], t["lambda"])
    assert len(dec.polytopes) == 125
    assert dict(calls) == {"walk": 372, "step": 7}


def _cut_outcome(cut, args):
    """Canonical bytes and inner cell of a cut, or its error message."""
    try:
        dec, inner = cut(*args)
    except DecompositionError as exc:
        return "error", str(exc)
    return canonical_json(decomposition_to_dict(dec)), inner


@pytest.mark.parametrize("name", ["toric_square", "toric_cube", "hirzebruch_two"])
def test_toric_cut_matches_the_all_sign_vector_reference(name):
    t = getattr(fx, name)()
    args = (t["normals"], t["constants"], t["epsilons"], t["lambda"])
    assert _cut_outcome(toric_cut, args) == _cut_outcome(oracles.toric_cut, args)


# sha256 of the canonical bytes of each cut.  The all-sign-vector reference
# runs on the smaller cuts only, so these pin the prism's and the 4-cube's.
CUT_DIGESTS = {
    "toric_cube": "71ecb634c3c2d8694f03f06a5619c7858937202a8d7fe1744cd67689e4c18e7e",
    "toric_hexagonal_prism": "189fa51575f932c7d7e3a4e96bbdc1b49107b7cbc16dc23f0727e2ed47007259",
    "toric_four_cube": "d97581f600a8b43838b2a80b1828191fc01091e535f73602c5e3917ba6c0e535",
}


@pytest.mark.parametrize("name", sorted(CUT_DIGESTS))
def test_toric_cut_gives_pinned_bytes(name):
    t = getattr(fx, name)()
    dec, inner = toric_cut(t["normals"], t["constants"], t["epsilons"], t["lambda"])
    assert inner == "c" + "m" * len(t["normals"])
    data = canonical_json(decomposition_to_dict(dec)).encode()
    assert hashlib.sha256(data).hexdigest() == CUT_DIGESTS[name]


def random_cut(n, seed):
    """A bounded polytope around the origin: the +-e_i normals plus 0 to 1
    extra normals, each a repeat of a normal, a multiple of one, or random,
    in shuffled order.  Each epsilon is a fraction of its constant or just
    below it, so that cut hyperplanes meet, coincide or miss Delta and
    cells drop; lambda = 0 stays strictly inside the inner cell."""
    rng = random.Random(f"cut:{n}:{seed}")
    normals = [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    for _ in range(rng.choice((0, 1, 1) if n == 2 else (0,))):
        pick = rng.random()
        if pick < 0.25:
            normals.append(rng.choice(normals))
        elif pick < 0.5:
            normals.append(tuple(2 * x for x in rng.choice(normals)))
        else:
            v = (0,) * n
            while not any(v):
                v = tuple(rng.randint(-2, 2) for _ in range(n))
            normals.append(v)
    rng.shuffle(normals)
    constants = [F(rng.randint(1, 6), rng.randint(1, 2)) for _ in normals]
    epsilons = [
        c - F(1, rng.randint(10, 40)) if rng.random() < 0.4 else c * F(rng.randint(1, 9), 10)
        for c in constants
    ]
    return normals, constants, epsilons, (0,) * n


# 188 plane cuts and 12 solid ones, in blocks of 25 or fewer.  Six plane
# cuts (seeds 7, 64, 129, 142, 153, 155) have a cell that collapses onto the
# hyperplane of a strict sign set earlier on its path, not the newest one:
# a walk that tests only the newest sign keeps cells the reference drops.
SEEDED_CUTS = [(2, range(k, min(k + 25, 188))) for k in range(0, 188, 25)] + [(3, range(12))]


@pytest.mark.parametrize(
    "n, seeds", SEEDED_CUTS, ids=[f"{n}d-{s.start}-{s.stop - 1}" for n, s in SEEDED_CUTS]
)
def test_toric_cut_matches_the_all_sign_vector_reference_on_seeded_polytopes(n, seeds):
    for seed in seeds:
        args = random_cut(n, seed)
        assert _cut_outcome(toric_cut, args) == _cut_outcome(oracles.toric_cut, args), (n, seed)


@pytest.mark.parametrize(
    "args",
    [
        ([], [], [], ()),  # no facets
        ([(1, 0), (0, 1), (-1, -1)], [1, 1], [F(1, 10)] * 3, (0, 0)),  # lengths
        ([(1, 0), (0, 1), (-1, -1)], [1, 1, 1], [F(1, 10), 0, F(1, 10)], (0, 0)),
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 0, 1, 1], [F(1, 10)] * 4, (0, 0)),  # flat
        ([(1,), (-1,)], [1, -2], [F(1, 10)] * 2, (0,)),  # empty
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, -2, 1, 1], [F(1, 10)] * 4, (0, 0)),  # empty
        ([(1, 0), (0, 1)], [1, 1], [F(1, 10)] * 2, (0, 0)),  # unbounded, a pointed cone
        ([(1, 0), (-1, 0)], [1, 1], [F(1, 10)] * 2, (0, 0)),  # unbounded, a line
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], [1] * 4, [F(1, 10)] * 4, (F(9, 10), 0)),
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], [1] * 4, [F(1, 10)] * 4, (2, 0)),
        # a zero normal: with constant 1 its cut 0 <= 9/10 holds everywhere;
        # with constant 0 its cut 0 <= -1/10 misses lambda
        ([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)], [1] * 5, [F(1, 10)] * 5, (0, 0)),
        ([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)], [1, 1, 1, 1, 0], [F(1, 10)] * 5, (0, 0)),
    ],
)
def test_toric_cut_edge_inputs_match_the_all_sign_vector_reference(args):
    assert _cut_outcome(toric_cut, args) == _cut_outcome(oracles.toric_cut, args)


def test_toric_cut_rejects_ragged_normals():
    with pytest.raises(DecompositionError, match="equal length"):
        toric_cut([(1, 0), (-1,), (0, 1), (0, -1)], [1] * 4, [F(1, 10)] * 4, (0, 0))


@pytest.mark.parametrize(
    "name, cells, cells_by_dim",
    [
        # 13 hexagon pieces (inner, 6 strips, 6 corners) times the segment's
        # 3 pieces, and so on down
        ("toric_hexagonal_prism", 185, {3: 39, 2: 80, 1: 54, 0: 12}),
        # each axis cut into 3 intervals and 2 points: C(4,k) 3^k 2^(4-k)
        ("toric_four_cube", 625, {4: 81, 3: 216, 2: 216, 1: 96, 0: 16}),
    ],
)
def test_toric_cut_at_scale(name, cells, cells_by_dim):
    """Eight facets: the walk prunes 3^8 = 6561 sign vectors to the
    nonempty, non-degenerate cells."""
    t = getattr(fx, name)()
    dec, inner = toric_cut(t["normals"], t["constants"], t["epsilons"], t["lambda"])
    assert len(dec.polytopes) == cells
    assert Counter(p.dim for p in dec.polytopes.values()) == cells_by_dim
    assert inner == "c" + "m" * 8
    assert is_tropical_fiber(dec, inner, t["lambda"])


def sign_vector(pid: str) -> tuple:
    """A cut cell's sign vector, read off its id: "c", then m, z or p per
    facet."""
    return tuple({"m": -1, "z": 0, "p": 1}[c] for c in pid[1:])


def check_cut_combinatorics(dec, normals, sample=None, seed=0):
    """The face pairs, the dual cells and ``intersection_cell`` on every
    pair of a cut's cells (on ``sample`` pairs drawn with ``seed``, when
    given) agree with ``oracles.cut_combinatorics`` on its sign vectors."""
    sigma = {pid: sign_vector(pid) for pid in dec.polytopes}
    pid_of = {s: pid for pid, s in sigma.items()}
    pairs, faces, duals = oracles.cut_combinatorics(sigma.values(), normals)
    assert len(pairs) == len(sigma) * (len(sigma) + 1) // 2
    assert dec.face_pairs == {(pid_of[v], pid_of[s]) for v, s in faces}
    for pid, s in sigma.items():
        assert (dec.dual_cells[pid].vertices, dec.dual_cells[pid].rays) == (duals[s], ()), pid
    checked = sorted(pairs.items())
    if sample is not None and sample < len(checked):
        checked = random.Random(seed).sample(checked, sample)
    for (s, t), m in checked:
        got = dec.intersection_cell(pid_of[s], pid_of[t])
        assert got == (None if m is None else pid_of[m]), (pid_of[s], pid_of[t])


def _seeded_cuts():
    """(seed, decomposition, normals) of each of the 200 ``SEEDED_CUTS``
    that the cut does not refuse."""
    for n, seeds in SEEDED_CUTS:
        for seed in seeds:
            args = random_cut(n, seed)
            try:
                yield seed, toric_cut(*args)[0], args[0]
            except DecompositionError:
                pass


def test_seeded_cut_combinatorics_match_the_sign_vector_oracle():
    """The 200 ``SEEDED_CUTS``, with repeated, doubled and random normals
    and cut hyperplanes that meet, coincide or miss Delta: every face pair
    and dual cell, and 40 pairs of each cut.  ``check_cut_combinatorics_in_full``
    checks every pair."""
    checked = 0
    for seed, dec, normals in _seeded_cuts():
        check_cut_combinatorics(dec, normals, sample=40, seed=seed)
        checked += 1
    assert checked > 150, checked


def check_cut_combinatorics_in_full():
    """What tier-1 leaves out: every pair of the 4-cube's cut (195,625)
    and of the 200 ``SEEDED_CUTS`` (188,730).  CI runs it:
    ``PYTHONPATH=src:tests python -c "import test_complexes as t;
    t.check_cut_combinatorics_in_full()"``."""
    check_cut_combinatorics(_cut("toric_four_cube")[0], fx.toric_four_cube()["normals"])
    for _, dec, normals in _seeded_cuts():
        check_cut_combinatorics(dec, normals)


@pytest.mark.parametrize("dim", [2.5, 2.0, True])
def test_decomposition_rejects_a_non_integer_ambient_dim(dim):
    with pytest.raises(ValueError):
        Decomposition(dim, [], [], [])


def test_decomposition_rejects_a_duplicate_dual_cell(square_plain):
    """A second dual cell for one polytope is an input error naming the
    polytope, not a silent replacement of the first."""
    duals = list(square_plain.dual_cells.values())
    extra = DualCell("Qmm", ((9, 9),))
    with pytest.raises(DecompositionError, match="duplicate dual cell for Qmm"):
        Decomposition(2, square_plain.polytopes.values(), square_plain.face_pairs,
                      duals + [extra])


def test_decomposition_rejects_a_dual_cell_for_an_unknown_polytope(square_plain):
    """A dual cell must belong to a listed polytope; an orphan is an input
    error naming it, not an extra entry of ``dual_cells``."""
    duals = list(square_plain.dual_cells.values())
    extra = DualCell("Qzz", ((9, 9),))
    with pytest.raises(DecompositionError, match="dual cell for unknown polytope Qzz"):
        Decomposition(2, square_plain.polytopes.values(), square_plain.face_pairs,
                      duals + [extra])


def test_decomposition_accepts_any_iterable_of_polytopes(square_plain):
    """Polytopes given by a generator are read once: distinct ids pass and
    a repeated id is still caught."""
    args = (square_plain.face_pairs, square_plain.dual_cells.values())
    cells = list(square_plain.polytopes.values())
    dec = Decomposition(2, (p for p in cells), *args)
    assert dec.polytopes == square_plain.polytopes
    with pytest.raises(DecompositionError, match="duplicate polytope ids"):
        Decomposition(2, (p for p in cells + cells[:1]), *args)


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


def test_hrep_hands_out_fresh_lists():
    """Editing the lists ``hrep()`` returns changes no later answer: not the
    next ``hrep()``, not ``is_tropical_fiber``, not ``bg_potential``.
    Checked on a bundled cell and on the inner cell of the toric-square cut,
    each at a point of its boundary, where a cleared list of facets would
    made the fiber test answer True, and at an interior point."""
    t = fx.toric_square()
    cut, inner = toric_cut(t["normals"], t["constants"], t["epsilons"], t["lambda"])
    cases = [
        (decomposition_from_dict(fx.square_complex()), "Qpp", [(0, 1), (1, 1)]),
        (cut, inner, [(F(1, 10), F(1, 10)), (F(1, 2), F(1, 2))]),
    ]

    def answers(dec, pid, points):
        ineqs, eqs = dec.cell(pid).hrep()
        return ((tuple(ineqs), tuple(eqs)), [is_tropical_fiber(dec, pid, p) for p in points],
                bg_potential(t["normals"], t["constants"], t["lambda"]))

    for dec, pid, points in cases:
        want = answers(dec, pid, points)
        assert want[1] == [False, True]
        ineqs, eqs = dec.cell(pid).hrep()
        ineqs.clear()
        eqs.append(((1, 0), 0))
        assert answers(dec, pid, points) == want, pid


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


@pytest.mark.parametrize("reverse", [False, True], ids=["listed", "reversed"])
def test_validation_catches_a_dual_that_is_not_orthogonal(reverse):
    """Shearing the square's dual vertices by (x, y) -> (x + y, y), to
    (0,0), (1,0), (2,1), (1,1), keeps every dimension and every reversed
    dual face, but the duals of Hxm and Hxp then run along (1,1) against
    their cells' (1,0).  The error names the smaller id, Hxm, whatever the
    order the cells are listed in."""
    data = fx.square_complex(split=())
    for d in data["dual_cells"]:
        d["vertices"] = [[str(F(x) + F(y)), y] for x, y in d["vertices"]]
    if reverse:
        data["polytopes"].reverse()
        data["dual_cells"].reverse()
    dec = decomposition_from_dict(data)
    with pytest.raises(DecompositionError, match="^dual cell of Hxm is not orthogonal to Hxm$"):
        dec.validate(geometric=False)


@pytest.mark.parametrize("name", ["toric_cube", "toric_hexagonal_prism"])
def test_cut_duals_are_orthogonal(name):
    """Each cut cell's dual runs orthogonal to it: the structural checks
    pass on the cube and prism cuts as on the bundled decompositions."""
    dec, _ = _cut(name)
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


# -- intersection certificates against the frozen conversion -------------------


def _square_mutant(kind):
    """``square_split`` with one seeded defect."""
    data = fx.square_complex()
    cells = {p["id"]: p for p in data["polytopes"]}
    if kind == "overlap":  # Qmm's x <= 0 becomes x <= 1, so Qmm overlaps Qpm
        cells["Qmm"]["ineqs"][0] = ["1", "0", "1"]
    elif kind == "dropped face pair":
        data["faces"].remove(["Hxp", "Qpp"])
    elif kind == "shrunk cell":  # Qpp becomes the square [0, 5]^2
        cells["Qpp"]["ineqs"] += [["1", "0", "5"], ["0", "1", "5"]]
    elif kind == "disjoint cells":
        # Qpp becomes x, y >= 1, and vc, its only listed common face with
        # Qmm, keeps exactly the rows of both: the empty set
        cells["Qpp"]["ineqs"] = [["-1", "0", "-1"], ["0", "-1", "-1"]]
        cells["vc"]["ineqs"] = cells["Qmm"]["ineqs"] + cells["Qpp"]["ineqs"]
    elif kind == "scaled row":  # vc's x <= 0 written as 2x <= 0
        cells["vc"]["ineqs"][0] = ["2", "0", "0"]
    elif kind.startswith("duplicate"):
        # a copy of vc under the id "a_vc", which sorts before "vc"
        data["polytopes"].append({**cells["vc"], "id": "a_vc"})
        dual = next(d for d in data["dual_cells"] if d["id"] == "vc")
        data["dual_cells"].append({**dual, "id": "a_vc"})
        if kind == "duplicate face":
            data["faces"] += [["a_vc", p] for q, p in data["faces"] if q == "vc"]
    return data


MUTANTS = ["overlap", "dropped face pair", "shrunk cell", "duplicate face", "duplicate",
           "disjoint cells", "scaled row"]


def _answer(meet, *args):
    """The cell id or None a query gives, or its DecompositionError text."""
    try:
        return meet(*args)
    except DecompositionError as exc:
        return f"error: {exc}"


def _answers(meet, pairs):
    return {(p1, p2): _answer(meet, p1, p2) for p1, p2 in pairs}


def _ordered_pairs(dec):
    return list(itertools.product(sorted(dec.polytopes), repeat=2))


def _bundled_and_mutants():
    out = {name: make() for name, make in fx.DECOMPOSITIONS.items()}
    out.update({kind: _square_mutant(kind) for kind in MUTANTS})
    return out


@pytest.mark.parametrize("name", sorted(fx.DECOMPOSITIONS) + MUTANTS)
def test_intersection_cell_matches_the_conversion_reference(name):
    """Every ordered cell pair gives the frozen version's id, None or error
    text, with the error naming the cells in the caller's order.  The
    mutants cover an overlap, a dropped face pair, a cell shrunk to a
    sub-polytope, a copy of ``vc`` under the smaller id ``a_vc``, which,
    listed as a face where vc is, names every meet vc named, two disjoint
    cells whose listed common face has exactly their rows, and a common
    face whose rows are the union only once made primitive."""
    data = _bundled_and_mutants()[name]
    dec, old = decomposition_from_dict(data), decomposition_from_dict(data)
    pairs = _ordered_pairs(dec)
    got = _answers(dec.intersection_cell, pairs)
    assert got == _answers(partial(oracles.intersection_cell, old), pairs)
    if name == "duplicate face":
        assert got[("Qmm", "Qpp")] == got[("Hxp", "Hyp")] == "a_vc"
    if name == "disjoint cells":
        assert got[("Qmm", "Qpp")] is None
    if name == "scaled row":
        assert got[("Qmm", "Qpp")] == "vc"
    if name == "overlap":
        for p1, p2 in (("Qmm", "Qpm"), ("Qpm", "Qmm")):
            assert got[(p1, p2)] == (
                f"error: intersection of {p1} and {p2} is not a listed common face")


@pytest.mark.parametrize("name", sorted(fx.DECOMPOSITIONS) + MUTANTS)
def test_listed_faces_match_the_same_set_scan(name):
    """The canonical-key lookup names the listed faces the frozen
    ``same_set`` scan names, for every cell as the set and every cell as the
    upper bound."""
    data = _bundled_and_mutants()[name]
    dec, old = decomposition_from_dict(data), decomposition_from_dict(data)
    for q, p in _ordered_pairs(dec):
        got = list(dec.listed_faces(dec.cell(q).cone.key(), p))
        assert got == list(oracles.listed_faces(old, old.cell(q), p)), (q, p)


def _cut(name):
    t = getattr(fx, name)()
    return toric_cut(t["normals"], t["constants"], t["epsilons"], t["lambda"])


CUTS = ["toric_square", "hirzebruch_two", "toric_cube", "toric_hexagonal_prism"]


@pytest.mark.parametrize("name", sorted(fx.DECOMPOSITIONS) + CUTS)
def test_relative_cell_read_off_the_dual_rows_matches_the_generator_differences(name):
    """For every pair pv <= pkv of listed cells (pv = pkv too), the cell cut
    out by the rows of dual(P(v)) tight on dual(P(kappa v)) has the
    canonical generators of the frozen cell converted from the generator
    differences."""
    if name in fx.DECOMPOSITIONS:
        dec = decomposition_from_dict(fx.DECOMPOSITIONS[name]())
    else:
        dec, _ = _cut(name)
    pairs = [(q, p) for q in sorted(dec.polytopes) for p in sorted(dec.polytopes)
             if dec.face_le(q, p)]
    dims = Counter()
    for pv, pkv in pairs:
        got = cone_of_relative_cell(dec, pv, pkv)
        assert got.key() == oracles.cone_of_relative_cell(dec, pv, pkv).key(), (pv, pkv)
        dims[got.dim()] += 1
    assert len(pairs) > len(dec.polytopes) and len(dims) > 1, dims


@pytest.mark.parametrize("name", CUTS)
def test_cut_intersections_match_the_conversion_reference(name):
    """Every pair of cut cells, on the cells the walk handed over, gives
    the frozen version's answer on the same cells rebuilt from their rows,
    and the pairs, face pairs and dual cells agree with the sign-vector
    oracle."""
    dec, _ = _cut(name)
    old = decomposition_from_dict(decomposition_to_dict(dec))
    pairs = list(itertools.combinations(sorted(dec.polytopes), 2))
    want = _answers(partial(oracles.intersection_cell, old), pairs)
    assert _answers(dec.intersection_cell, pairs) == want
    check_cut_combinatorics(dec, getattr(fx, name)()["normals"])


@pytest.mark.parametrize("name", CUTS)
def test_tropical_fiber_matches_the_conversion_reference_on_every_cut_cell(name):
    """At each cut cell's relative interior point, and at the base point,
    the facets named by tight rays give the frozen version's verdict."""
    t = getattr(fx, name)()
    dec, inner = _cut(name)
    old = decomposition_from_dict(decomposition_to_dict(dec))
    verdicts = Counter()
    for p in sorted(dec.polytopes):
        for lam in (dec.cell(p).relative_interior_point(), t["lambda"]):
            got = is_tropical_fiber(dec, p, lam)
            assert got == oracles.is_tropical_fiber(old, p, lam), (p, lam)
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False]
    assert is_tropical_fiber(dec, inner, t["lambda"])


def _settled_by_rows(monkeypatch) -> list:
    """Record the pairs the row route settles, and the cell it names."""
    settled = []
    by_rows = Decomposition._cell_by_rows

    def recorded(self, p1, p2):
        q = by_rows(self, p1, p2)
        if q is not None:
            settled.append((p1, p2, q))
        return q

    monkeypatch.setattr(Decomposition, "_cell_by_rows", recorded)
    return settled


@pytest.mark.parametrize("name", sorted(fx.DECOMPOSITIONS) + MUTANTS + CUTS[:3])
def test_intersection_cell_answers_do_not_depend_on_the_certificate(monkeypatch, name):
    """Every ordered pair gives the same answer two ways: by both routes,
    and with the row route declining every pair, so by the state cut
    alone, on cells read from the wire and on a cut's walked cells.  The
    row route settles pairs on every input, a cut's with the rows its walk
    cut."""
    if name in CUTS:
        data = decomposition_to_dict(_cut(name)[0])
    else:
        data = _bundled_and_mutants()[name]
    with monkeypatch.context() as m:
        settled = _settled_by_rows(m)
        certified = _cut(name)[0] if name in CUTS else decomposition_from_dict(data)
        pairs = _ordered_pairs(certified)
        want = _answers(certified.intersection_cell, pairs)
    assert settled
    if name in ("disjoint cells", "scaled row"):
        assert ("Qmm", "Qpp", "vc") in settled
    monkeypatch.setattr(Decomposition, "_cell_by_rows", lambda self, p1, p2: None)
    cuts = []
    key = DDState.key

    def counted(self):
        cuts.append(self)
        return key(self)

    monkeypatch.setattr(DDState, "key", counted)
    for dec in [decomposition_from_dict(data)] + ([_cut(name)[0]] if name in CUTS else []):
        cuts.clear()
        assert _answers(dec.intersection_cell, pairs) == want
        assert len(cuts) >= len(dec._isect_cache) > 0


@pytest.mark.parametrize("name", sorted(fx.DECOMPOSITIONS) + CUTS)
def test_rows_settle_every_nonempty_pair(monkeypatch, name):
    """On every bundled decomposition and fixture cut, the row route names
    the cell of every nonempty pair, and of no other: a cut's cells keep
    the rows their walk cut them by.  Only empty pairs reach the state
    cut."""
    settled = _settled_by_rows(monkeypatch)
    dec = _cut(name)[0] if name in CUTS else decomposition_from_dict(fx.DECOMPOSITIONS[name]())
    pairs = itertools.combinations(sorted(dec.polytopes), 2)
    meets = {(p1, p2): dec.intersection_cell(p1, p2) for p1, p2 in pairs}
    assert {(p1, p2): q for p1, p2, q in settled} == {
        pair: q for pair, q in meets.items() if q is not None}


def test_cut_intersections_run_no_conversion(monkeypatch):
    """The cut hands its walked cones to its decomposition and every pair
    of its cells is certified, so auditing the cube's 7750 pairs and
    checking its inner cell's facets run no double description
    conversion."""
    calls = []
    original = cones._h_to_v

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_h_to_v", counted)
    t = fx.toric_cube()
    dec, inner = _cut("toric_cube")
    for p1, p2 in itertools.combinations(sorted(dec.polytopes), 2):
        dec.intersection_cell(p1, p2)
    assert is_tropical_fiber(dec, inner, t["lambda"])
    assert len(dec._isect_cache) == 7750
    assert calls == []


def _face_posets_agree(dec):
    """``face_le`` on every pair of cells and unknown ids, and each cell's
    sorted faces, as the frozen closure gives them."""
    closure = oracles.face_closure(dec)
    ids = sorted(dec.polytopes) + ["unknown", ""]
    for q, p in itertools.product(ids, repeat=2):
        assert dec.face_le(q, p) == (q == p or (q, p) in closure), (q, p)
    assert {p: sorted(faces) for p, faces in dec._faces.items()} == oracles.faces_of(dec)


@pytest.mark.parametrize("name", sorted(fx.DECOMPOSITIONS) + CUTS)
def test_face_table_matches_the_closure_reference(name):
    if name in CUTS:
        dec, _ = _cut(name)
    else:
        dec = decomposition_from_dict(fx.DECOMPOSITIONS[name]())
    _face_posets_agree(dec)


SQUARE = (((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1))


def test_face_table_matches_the_closure_reference_on_seeded_posets():
    """Up to eight copies of one square with seeded face pairs (chains,
    cycles and self-loops among them) give the frozen closure's answers,
    and ``validate`` names the cycle the frozen scan of sorted pairs
    named."""
    rng = random.Random(26)
    cycles = 0
    for _ in range(300):
        ids = rng.sample("abcdefgh", rng.randint(1, 8))
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randrange(12))]
        dec = Decomposition(2, [Polytope(i, SQUARE) for i in ids], pairs,
                            [DualCell(i, ((0, 0),)) for i in ids])
        _face_posets_agree(dec)
        want = oracles.poset_cycle(dec)
        try:
            dec.validate(geometric=False)
            got = None
        except DecompositionError as exc:
            got = str(exc)
        if want is None:
            assert got is None or got.startswith("reflexive face pair"), got
        else:
            assert got == want
            cycles += 1
    assert cycles > 50
