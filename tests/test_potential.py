import random
from fractions import Fraction as F

import pytest

from tropsplit import fixtures as fx
from tropsplit import potential
from tropsplit.potential import (
    MAX_COUNT,
    NovikovSeries,
    bg_potential,
    leading_terms,
    split_contribution,
)


def term_set(series):
    return set(series.terms)


def test_bg_unit_square():
    t = fx.toric_square()
    W = bg_potential(t["normals"], [F(c) for c in t["constants"]], (F(1, 2), F(1, 2)))
    assert term_set(W) == {
        (F(1), F(1, 2), (1, 0)),
        (F(1), F(1, 2), (-1, 0)),
        (F(1), F(1, 2), (0, 1)),
        (F(1), F(1, 2), (0, -1)),
    }


def test_bg_hirzebruch_four_terms():
    h = fx.hirzebruch_two()
    W = bg_potential(h["normals"], [F(c) for c in h["constants"]], (F(1), F(1, 2)))
    assert len(W.terms) == 4
    # exponents are exactly c_i - <lambda, mu_i>
    expo = {m: a for _, a, m in W.terms}
    assert expo[(-1, 0)] == F(1)
    assert expo[(0, -1)] == F(1, 2)
    assert expo[(0, 1)] == F(1, 2)
    assert expo[(1, 2)] == F(1)


def test_bg_exponent_monotone_toward_facet():
    t = fx.toric_square()
    far = bg_potential(t["normals"], [F(c) for c in t["constants"]], (F(1, 2), F(1, 2)))
    near = bg_potential(t["normals"], [F(c) for c in t["constants"]], (F(9, 10), F(1, 2)))
    exp_far = {m: a for _, a, m in far.terms}
    exp_near = {m: a for _, a, m in near.terms}
    assert exp_near[(1, 0)] == F(1, 10) < exp_far[(1, 0)]


def test_bg_rejects_boundary_lambda():
    t = fx.toric_square()
    with pytest.raises(ValueError):
        bg_potential(t["normals"], [F(c) for c in t["constants"]], (F(1), F(1, 2)))


# The unit square with one more row: a zero normal, a repeated facet, and a
# redundant row.  Each satisfies the interior check at lam = (1/2, 1/2).
EXTRA_ROWS = [((0, 0), 1), ((-1, 0), 0), ((1, 1), 10)]


@pytest.mark.parametrize("extra", EXTRA_ROWS)
def test_bg_rejects_a_row_that_is_not_a_facet(extra):
    """One term per facet: a row that is no facet of the moment polytope
    raises instead of adding a term (once a fifth term, or coefficient 2
    on a repeated facet)."""
    t = fx.toric_square()
    normals = [*t["normals"], extra[0]]
    constants = [*(F(c) for c in t["constants"]), extra[1]]
    with pytest.raises(ValueError, match="every row must be a facet"):
        bg_potential(normals, constants, (F(1, 2), F(1, 2)))
    assert len(bg_potential(t["normals"], constants[:4], (F(1, 2), F(1, 2))).terms) == 4


def test_leading_single_term():
    s = NovikovSeries.term(1, 2, F(3, 4), (1,))
    assert leading_terms(s) == s


def test_leading_drops_higher_order():
    s = NovikovSeries(1, ((1, 1, (1,)), (1, 2, (0,))))
    assert leading_terms(s).terms == ((F(1), F(1), (1,)),)


def test_leading_asymmetric_square():
    t = fx.toric_square()
    W = bg_potential(t["normals"], [F(c) for c in t["constants"]], (F(1, 4), F(1, 2)))
    # independent oracle: minimum over the exponent list
    lead = leading_terms(W)
    min_area = min(a for _, a, _ in W.terms)
    assert {t_ for t_ in W.terms if t_[1] == min_area} == term_set(lead)
    assert lead.terms == ((F(1), F(1, 4), (-1, 0)),)


def test_leading_of_zero_errors():
    with pytest.raises(ValueError):
        leading_terms(NovikovSeries.zero(1))


def test_split_contribution_identity():
    s = split_contribution(1, 0, 0, 1, [NovikovSeries.term(0, 1, F(3, 4))])
    assert s.terms == ((F(1), F(3, 4), ()),)


def test_split_contribution_arithmetic():
    s = split_contribution(
        3, 1, 0, 1,
        [NovikovSeries.term(0, 1, F(1, 2)), NovikovSeries.term(0, 1, F(1, 3))],
    )
    assert s.terms == ((F(3), F(5, 6), ()),)


def test_split_contribution_signs_and_factorials():
    s = split_contribution(
        1, 2, 2, -1,
        [NovikovSeries.term(0, 2, 1), NovikovSeries.term(0, 1, 2)],
    )
    assert s.terms == ((F(-1, 2), F(3), ()),)


def test_split_contribution_rejects_empty():
    with pytest.raises(ValueError):
        split_contribution(1, 0, 0, 1, [])


@pytest.mark.parametrize("counts", [(MAX_COUNT + 1, 0), (0, MAX_COUNT + 1), (10**8, 10**8)])
def test_split_contribution_rejects_counts_over_the_bound_before_any_factorial(
        counts, monkeypatch):
    """A split count or black-vertex count over ``MAX_COUNT`` raises a
    ``ValueError`` naming the bound, and no factorial is computed."""
    def factorial(k):
        raise AssertionError(f"factorial({k}) computed")

    monkeypatch.setattr(potential, "factorial", factorial)
    split_count, d_black = counts
    with pytest.raises(ValueError, match=f"at most {MAX_COUNT}"):
        split_contribution(1, split_count, d_black, 1, [NovikovSeries.zero(1)])


def test_split_contribution_accepts_counts_at_the_bound():
    s = split_contribution(1, MAX_COUNT, 0, 1, [NovikovSeries.term(0, 1, 0)])
    assert s.terms[0][0].numerator == 1


def test_series_algebra_random():
    """Multiplication is commutative and associative; valuation is additive."""
    rng = random.Random(5)

    def rand_series():
        n_terms = rng.randint(1, 4)
        return NovikovSeries(
            2,
            tuple(
                (
                    F(rng.randint(-3, 3) or 1),
                    F(rng.randint(0, 6), rng.choice([1, 2, 3])),
                    (rng.randint(-2, 2), rng.randint(-2, 2)),
                )
                for _ in range(n_terms)
            ),
        )

    for _ in range(50):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        if not a.is_zero() and not b.is_zero() and not (a * b).is_zero():
            assert (a * b).valuation() == a.valuation() + b.valuation()


def test_blaschke_leading_order_identity():
    """Feeding the facet-disk inputs (coefficient one, area c_i - <lam,mu_i>,
    monomial mu_i) through the weight aggregator reproduces the potential,
    so the leading orders agree term by term."""
    for data, lam in [
        (fx.toric_square(), (F(1, 2), F(1, 2))),
        (fx.hirzebruch_two(), (F(1), F(1, 2))),
    ]:
        normals = data["normals"]
        constants = [F(c) for c in data["constants"]]
        W = bg_potential(normals, constants, lam)
        disks = []
        for mu, c in zip(normals, constants):
            area = c - sum(F(m) * l for m, l in zip(mu, lam))
            disks.append(NovikovSeries(2, ((F(1), area, tuple(mu)),)))
        combined = None
        for d in disks:
            contrib = split_contribution(1, 0, 0, 1, [d])
            combined = contrib if combined is None else combined + contrib
        assert combined == W
        assert leading_terms(combined) == leading_terms(W)
