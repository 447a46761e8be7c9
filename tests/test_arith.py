from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadval import INFINITE, factor_discriminant, inverse_mod_pow2, nu2
from quadval.arith import sqrt_mod_pow2

nonzero_ints = st.integers(min_value=-10**12, max_value=10**12).filter(lambda n: n != 0)


@pytest.mark.parametrize(
    "n,expected",
    [(1, 0), (2, 1), (-2, 1), (12, 2), (-12, 2), (96, 5), (9216, 10), (2**40, 40), (7, 0), (-1, 0)],
)
def test_nu2_known_values(n, expected):
    assert nu2(n) == expected


def test_nu2_of_zero_is_infinite():
    assert nu2(0) is INFINITE


def test_infinite_ordering_and_arithmetic():
    assert INFINITE > 10**100
    assert INFINITE >= 0
    assert not INFINITE < 5
    assert not INFINITE <= 5
    assert INFINITE <= INFINITE
    assert INFINITE == INFINITE
    assert INFINITE != 3
    assert INFINITE + 7 is INFINITE
    assert 7 + INFINITE is INFINITE
    assert str(INFINITE) == "inf"
    assert repr(INFINITE) == "INFINITE"
    assert len({INFINITE, INFINITE}) == 1


@given(x=nonzero_ints, y=nonzero_ints)
@settings(max_examples=300)
def test_nu2_additive_on_products(x, y):
    assert nu2(x * y) == nu2(x) + nu2(y)


def general_nu(p, n):
    """The p-adic valuation of a nonzero n by repeated division."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(n=nonzero_ints)
def test_nu2_agrees_with_general_nu(n):
    assert nu2(n) == general_nu(2, n)


@given(d=nonzero_ints)
@settings(max_examples=300)
def test_factor_discriminant_roundtrip(d):
    fd = factor_discriminant(d)
    assert not fd.is_zero
    assert d == 4**fd.ell * fd.delta
    assert fd.delta % 4 != 0
    assert fd.m == fd.delta % 8
    assert fd.m not in (0, 4)


def test_factor_discriminant_examples():
    assert (factor_discriminant(1600).ell, factor_discriminant(1600).delta) == (3, 25)
    assert (factor_discriminant(-229376).ell, factor_discriminant(-229376).delta) == (7, -14)
    assert factor_discriminant(-229376).m == 2
    assert (factor_discriminant(20).ell, factor_discriminant(20).m) == (1, 5)
    assert (factor_discriminant(-16).ell, factor_discriminant(-16).m) == (2, 7)
    assert factor_discriminant(0).is_zero


@given(half=st.integers(min_value=-10**9, max_value=10**9), i=st.integers(min_value=1, max_value=80))
@settings(max_examples=300)
def test_inverse_mod_pow2(half, i):
    a = 2 * half + 1
    inv = inverse_mod_pow2(a, i)
    assert 0 <= inv < (1 << i)
    assert (a * inv) % (1 << i) == 1


def test_inverse_mod_pow2_edges():
    assert inverse_mod_pow2(5, 5) == 13
    assert inverse_mod_pow2(13, 3) == 5
    assert inverse_mod_pow2(1, 10) == 1
    assert inverse_mod_pow2(7, 0) == 0
    with pytest.raises(ValueError):
        inverse_mod_pow2(6, 3)
    with pytest.raises(ValueError):
        inverse_mod_pow2(3, -1)


def test_sqrt_mod_pow2_at_every_precision():
    # each Newton step gains 2*j - 2 bits of delta*y**2 == 1, not 2*j - 1;
    # a schedule that counted one bit more would stop short of k here
    rng = Random(8)
    deltas = [1, 9, 17, 25, 33, 41, 57, -7, -15, -23, -31, -39, -63, (1 << 200) + 1, 1 - (1 << 200)]
    deltas += [8 * rng.randint(1, 1 << rng.randint(1, 300)) * sign + 1 for sign in (1, -1) for _ in range(20)]
    for delta in deltas:
        root = sqrt_mod_pow2(delta, 300)
        assert root % 4 == 1
        for k in range(1, 301):
            s = sqrt_mod_pow2(delta, k)
            assert s == root % (1 << k)
            # s**2 == delta mod 2**(k+1) holds only at +-sqrt(delta) mod 2**k
            assert (s * s - delta) % (1 << (k + 1)) == 0


def test_sqrt_mod_pow2_validation():
    with pytest.raises(ValueError):
        sqrt_mod_pow2(5, 3)
    with pytest.raises(ValueError):
        sqrt_mod_pow2(9, 0)
