from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import F1, F4, big_ints, case3c_polys, sample_with
from quadval import (
    Case,
    DomainError,
    OperatorDescriptor,
    OperatorKind,
    QuadraticPoly,
    apply_operators,
    build_tree,
    canonical_residue_map,
    canonicalize_to_type_ell_1,
    classify,
    dilate,
    is_type_ell_1,
    nu2,
    period_table,
    s_backward,
    s_forward,
    table_s_law,
    table_translate_law,
    translate,
)


def test_translate_examples():
    assert translate(QuadraticPoly(1, 0, 0), 1) == QuadraticPoly(1, -2, 1)
    assert translate(QuadraticPoly(1, 2, 5), 2) == QuadraticPoly(1, -2, 5)


def test_translate_is_argument_shift():
    rng = Random(11)
    for _ in range(50):
        f = QuadraticPoly(rng.randint(1, 60), rng.randint(-60, 60), rng.randint(-60, 60))
        s = rng.randint(-20, 20)
        g = translate(f, s)
        assert all(g(n) == f(n - s) for n in range(-10, 30))
        assert g.discriminant == f.discriminant


def test_dilate_examples():
    assert dilate(QuadraticPoly(1, 106, 5625), 5) == QuadraticPoly(25, 530, 5625)
    f = QuadraticPoly(3, -7, 11)
    g = dilate(f, -4)
    assert all(g(n) == f(-4 * n) for n in range(-5, 6))
    with pytest.raises(ValueError):
        dilate(f, 0)


def test_s_operator_directions():
    assert s_forward(QuadraticPoly(1, 106, 5625), 5) == QuadraticPoly(5, 106, 1125)
    assert s_backward(QuadraticPoly(5, 106, 1125), 5) == QuadraticPoly(1, 106, 5625)
    back = s_backward(F4, 5)
    assert s_forward(back, 5) == F4


def test_s_operator_validation():
    with pytest.raises(ValueError):
        s_forward(QuadraticPoly(1, 2, 6), 4)
    with pytest.raises(ValueError):
        s_forward(QuadraticPoly(1, 2, 6), -3)
    with pytest.raises(DomainError):
        s_forward(QuadraticPoly(2, 2, 6), 3)  # not monic
    with pytest.raises(DomainError):
        s_forward(QuadraticPoly(1, 2, 5), 3)  # 3 does not divide 5
    with pytest.raises(DomainError):
        s_backward(QuadraticPoly(5, 2, 5), 3)  # leading must equal 3


def test_s_forward_matches_dilation_valuations():
    f = QuadraticPoly(1, 106, 5625)
    g = s_forward(f, 5)
    assert all(nu2(g(n)) == nu2(f(5 * n)) for n in range(64))


def test_table_translate_law():
    assert table_translate_law(F4, 7)
    assert table_translate_law(QuadraticPoly(1, 2, 5), -3)
    rng = Random(13)
    suite = sample_with(rng, lambda f, c: c.case_tag is Case.CASE3C_BOUNDED, 40, bound=3000)
    for f, _ in suite:
        assert table_translate_law(f, rng.randint(-100, 100))
    with pytest.raises(DomainError):
        table_translate_law(F1, 3)


def test_table_s_law_with_and_without_divisibility():
    assert table_s_law(QuadraticPoly(1, 2, 5), 3)       # 3 does not divide 5
    assert table_s_law(QuadraticPoly(1, 2, -47), 47)    # divisible case
    assert table_s_law(QuadraticPoly(1, 106, 5625), 5)
    with pytest.raises(DomainError):
        table_s_law(QuadraticPoly(5, 106, 1125), 3)     # not monic
    with pytest.raises(ValueError):
        table_s_law(QuadraticPoly(1, 2, 5), 6)


def test_table_laws_refuse_oversize_tables():
    ell_64 = QuadraticPoly(1, 2, 1 - 5 * 4**63)
    with pytest.raises(ValueError, match="ℓ=64"):
        table_translate_law(ell_64, 3)
    with pytest.raises(ValueError, match="ℓ=64"):
        table_s_law(ell_64, 3)


def test_table_s_law_random_monic():
    rng = Random(17)
    suite = sample_with(
        rng,
        lambda f, c: c.case_tag is Case.CASE3C_BOUNDED and f.a == 1,
        30,
        bound=400,
    )
    for f, _ in suite:
        assert table_s_law(f, 2 * rng.randint(0, 30) + 1)


def test_operator_descriptor_apply_and_str():
    ops = [
        OperatorDescriptor(OperatorKind.TRANSLATE, -52),
        OperatorDescriptor(OperatorKind.S_FORWARD, 5),
    ]
    g = QuadraticPoly(1, 2, 2817)
    assert apply_operators(ops, g) == F4
    assert [str(op) for op in ops] == ["TRANSLATE(-52)", "S_FORWARD(5)"]
    d = OperatorDescriptor(OperatorKind.DILATE, 3)
    assert d.apply(QuadraticPoly(1, 2, 5)) == QuadraticPoly(9, 6, 5)
    back = OperatorDescriptor(OperatorKind.S_BACKWARD, 5)
    assert back.apply(F4) == QuadraticPoly(1, 106, 5625)


def test_canonicalize_reference():
    g, ops = canonicalize_to_type_ell_1(F4)
    assert g == QuadraticPoly(1, 2, 2817)
    assert [(op.kind, op.param) for op in ops] == [
        (OperatorKind.TRANSLATE, -52),
        (OperatorKind.S_FORWARD, 5),
    ]
    assert apply_operators(ops, g) == F4
    assert g.discriminant == F4.discriminant
    assert is_type_ell_1(build_tree(g, 5))


def test_canonicalize_identity_like():
    g, ops = canonicalize_to_type_ell_1(QuadraticPoly(1, 2, 5))
    assert g == QuadraticPoly(1, 2, 5)
    assert [(op.kind, op.param) for op in ops] == [
        (OperatorKind.TRANSLATE, 0),
        (OperatorKind.S_FORWARD, 1),
    ]


def test_canonicalize_domain_checks():
    with pytest.raises(DomainError):
        canonicalize_to_type_ell_1(F1)  # unbounded
    with pytest.raises(DomainError):
        canonicalize_to_type_ell_1(QuadraticPoly(1, 2, -4))  # single level
    with pytest.raises(DomainError):
        canonicalize_to_type_ell_1(QuadraticPoly(-1, 2, -5))  # negative leading


def test_canonicalize_even_reduced_input():
    f = QuadraticPoly(4 * 5, 4 * 106, 4 * 1125)
    g, ops = canonicalize_to_type_ell_1(f)
    assert g == QuadraticPoly(1, 2, 2817)
    assert apply_operators(ops, g) == F4  # the reduced form, not f itself


def test_canonical_residue_map_reference():
    mapping = canonical_residue_map(F4)
    assert (5, 15, 31) in mapping and (5, 31, 15) in mapping
    assert (1, 0, 0) in mapping and (2, 1, 1) in mapping
    # each map entry carries the valuation across: canonical residue t at
    # its level has the same constant valuation as F4 at the image residue
    gtable = period_table(QuadraticPoly(1, 2, 2817))
    ftable = period_table(F4)
    for level, t, r in mapping:
        assert gtable.entries[t % 32] == ftable.entries[r % 32]


def test_discriminant_preserved_by_ops():
    rng = Random(23)
    for _ in range(60):
        f = QuadraticPoly(2 * rng.randint(0, 49) + 1, rng.randint(-99, 99), rng.randint(-99, 99))
        assert translate(f, rng.randint(-30, 30)).discriminant == f.discriminant
        s = 2 * rng.randint(1, 15) + 1
        assert dilate(f, s).discriminant == s * s * f.discriminant
        assert s_backward(f, f.a).discriminant == f.discriminant


@given(f=case3c_polys(), s=big_ints, odd=st.integers(min_value=0, max_value=1 << 70))
@settings(max_examples=150, deadline=None)
def test_operator_laws_and_canonical_chain_on_big_coefficients(f, s, odd):
    cls = classify(f)
    assert cls.case_tag is Case.CASE3C_BOUNDED and cls.disc.ell <= 10
    assert table_translate_law(f, s)
    f0 = cls.reduced
    # negating all three coefficients leaves every valuation unchanged
    pos = f0 if f0.a > 0 else QuadraticPoly(-f0.a, -f0.b, -f0.c)
    monic = s_backward(pos, pos.a)
    assert s_forward(monic, pos.a) == pos
    assert table_s_law(monic, pos.a)  # pos.a divides the constant term
    assert table_s_law(monic, 2 * odd + 1)
    if cls.disc.ell < 2 or f0.a < 0:
        with pytest.raises(DomainError):
            canonicalize_to_type_ell_1(f, classification=cls)
        return
    g, chain = canonicalize_to_type_ell_1(f, classification=cls)
    assert (g.a, g.b, g.discriminant) == (1, 2, f0.discriminant)
    assert apply_operators(chain, g) == f0
