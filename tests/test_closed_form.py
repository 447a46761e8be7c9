from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import F1, F3, F4, F4_TABLE, big_ints, case3c_polys, sample_with
from quadval import (
    Case,
    DomainError,
    QuadraticPoly,
    classify,
    closed_form_valuation,
    max_valuation,
    nu2,
    period_table,
)
from quadval.closed_form import MAX_VALUES


def test_f4_full_table():
    table = period_table(F4)
    assert (table.ell, table.period, table.even_offset) == (5, 32, 0)
    assert table.entries == F4_TABLE


def test_f3_table_spot_values():
    table = period_table(F3)
    assert table.period == 128
    assert table.entries[:16] == (0, 2, 0, 6, 0, 2, 0, 4, 0, 2, 0, 10, 0, 2, 0, 4)
    assert table.entries[11] == 10
    assert table.entries[43] == 12
    assert table.entries[107] == 13


def test_small_tables():
    assert period_table(QuadraticPoly(1, 2, 5)).entries == (0, 3, 0, 2)
    assert period_table(QuadraticPoly(2, 4, 6)).entries == (1, 2)


def test_closed_form_examples():
    assert closed_form_valuation(F4, 15) == 8
    assert closed_form_valuation(F4, 7) == 6
    assert closed_form_valuation(F4, 31) == 10
    assert closed_form_valuation(F3, 3) == 6
    assert closed_form_valuation(F3, 11) == 10
    assert closed_form_valuation(QuadraticPoly(1, 2, -4), 0) == 2
    assert closed_form_valuation(QuadraticPoly(1, 2, -4), 1) == 0


def test_closed_form_on_constants():
    assert closed_form_valuation(QuadraticPoly(1, 1, 1), 12) == 0
    table = period_table(QuadraticPoly(4, 8, 2))
    assert (table.period, table.entries) == (1, (1,))


def test_period_table_refuses_oversize_tables_before_allocating():
    # n**2 + 2n + 1 - 5 * 4**(ell-1) has period 2**ell
    assert period_table(QuadraticPoly(1, 2, 1 - 5 * 4**19)).period == MAX_VALUES
    for ell in (21, 64):
        with pytest.raises(ValueError, match=f"ℓ={ell}") as info:
            period_table(QuadraticPoly(1, 2, 1 - 5 * 4 ** (ell - 1)))
        assert not isinstance(info.value, DomainError)


def test_unbounded_raises():
    with pytest.raises(DomainError, match="unbounded"):
        period_table(F1)
    with pytest.raises(DomainError, match="unbounded"):
        closed_form_valuation(F1, 3)
    with pytest.raises(DomainError, match="unbounded"):
        max_valuation(QuadraticPoly(1, 1, 2))


# one polynomial for each (m, b mod 4) pair at the single-level case
LEVEL_ONE_WITNESSES = [
    ((1, 0, -2), 2, 0, (1, 0)),
    ((1, 2, 7), 2, 2, (0, 1)),
    ((1, 4, 1), 3, 0, (0, 1)),
    ((1, 2, 6), 3, 2, (1, 0)),
    ((1, 0, 3), 5, 0, (0, 2)),
    ((1, 2, -4), 5, 2, (2, 0)),
    ((1, 0, 2), 6, 0, (1, 0)),
    ((1, 2, 3), 6, 2, (0, 1)),
    ((1, 0, 9), 7, 0, (0, 1)),
    ((1, 2, 2), 7, 2, (1, 0)),
]


@pytest.mark.parametrize("coeffs,m,b4,expected", LEVEL_ONE_WITNESSES)
def test_level_one_table(coeffs, m, b4, expected):
    f = QuadraticPoly(*coeffs)
    cls = classify(f)
    assert cls.disc.ell == 1 and cls.disc.m == m and f.b % 4 == b4
    table = period_table(f, classification=cls)
    assert table.entries == expected
    for n in range(64):
        assert closed_form_valuation(f, n, classification=cls) == nu2(f(n))


def test_max_valuation():
    assert max_valuation(F3) == 13
    assert max_valuation(F4) == 10
    assert max_valuation(QuadraticPoly(1, 2, 5)) == 3
    assert max_valuation(QuadraticPoly(2, 4, 6)) == 2
    assert max_valuation(QuadraticPoly(1, 1, 1)) == 0


def test_table_invariants_on_random_bounded_polys():
    rng = Random(4242)
    suite = sample_with(rng, lambda f, c: c.case_tag is Case.CASE3C_BOUNDED, 120, bound=2000)
    for f, cls in suite:
        table = period_table(f, classification=cls)
        top = max(table.entries)
        assert top == max_valuation(f, classification=cls)
        assert sum(1 for e in table.entries if e == top) == 1
        ell, off = table.ell, table.even_offset
        assert all(e <= 2 * ell + off for e in table.entries)
        # no period half as long: the sequence's minimal period is the full table
        if table.period > 1:
            half = table.period // 2
            assert any(table.entries[r] != table.entries[r + half] for r in range(half))
        # terminal values below the last level are the even numbers 2(i-1),
        # each covering half the residues of the previous level's share
        for i in range(1, ell):
            count = sum(1 for e in table.entries if e == 2 * (i - 1) + off)
            assert count == table.period >> i


def test_closed_form_matches_oracle_windows():
    for f in (F3, F4, QuadraticPoly(1, 2, 5), QuadraticPoly(2, 4, 6), QuadraticPoly(1, 2, -4)):
        cls = classify(f)
        for n in range(4 * cls.period):
            assert closed_form_valuation(f, n, classification=cls) == nu2(f(n))


@st.composite
def bounded_polys(draw):
    """Case-3(c) polynomials with big coefficients, scaled by 2**i: half
    the draws take c freely and assume the case (free draws rarely give
    ell above 3), the other half come from case3c_polys with ell <= 100."""
    if draw(st.booleans()):
        shift = draw(st.integers(min_value=0, max_value=4))
        a, h, c = 2 * draw(big_ints) + 1, draw(big_ints), draw(big_ints)
        f = QuadraticPoly(a << shift, (2 * h) << shift, c << shift)
    else:
        f = draw(case3c_polys(max_ell=100))
    cls = classify(f)
    assume(cls.case_tag is Case.CASE3C_BOUNDED)
    return f, cls


@given(fc=bounded_polys(), n=st.integers(min_value=-(1 << 256), max_value=1 << 256))
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_nu2_on_big_coefficients(fc, n):
    f, cls = fc
    assert closed_form_valuation(f, n, classification=cls) == nu2(f(n))
    assert closed_form_valuation(f, -n, classification=cls) == nu2(f(-n))
    # a random n rarely lands in the two deepest classes, a*n + b/2 == 0 or
    # 2**(ell-1) (mod 2**ell), where the value depends on m; visit both
    f0, period = cls.reduced, cls.period
    for t in (0, period // 2):
        deep = pow(f0.a, -1, period) * (t - f0.b // 2) % period + n * period
        assert closed_form_valuation(f, deep, classification=cls) == nu2(f(deep))


@given(fc=bounded_polys())
@settings(max_examples=100, deadline=None)
def test_table_matches_closed_form_on_big_coefficients(fc):
    f, cls = fc
    assume(cls.period <= 1 << 12)
    table = period_table(f, classification=cls)
    assert table.entries == tuple(closed_form_valuation(f, r, classification=cls) for r in range(cls.period))
    top = max(table.entries)
    assert max_valuation(f, classification=cls) == top
    assert table.entries.count(top) == 1
