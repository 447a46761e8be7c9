"""Integer 2-adic helpers: nu2, the valuation of zero, discriminant
factoring, and inverses and square roots modulo powers of two.

Everything here works on plain Python ints, which are arbitrary precision,
so no special big-number handling is needed anywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass


class _InfiniteValuation:
    """The valuation of zero.

    Compares strictly above every integer, absorbs addition, and prints as
    ``inf``.  A single shared instance (``INFINITE``) is used everywhere.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("quadval-infinite-valuation")

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __add__(self, other: object) -> "_InfiniteValuation":
        return self

    __radd__ = __add__

    def __str__(self) -> str:
        return "inf"

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _InfiniteValuation()

Valuation = int | _InfiniteValuation

def nu2(n: int) -> Valuation:
    """2-adic valuation of n.  nu2(0) == INFINITE.

    ``n & -n`` isolates the lowest set bit even for negative n, since
    Python ints behave as two's complement of unbounded width.
    """
    if n == 0:
        return INFINITE
    return (n & -n).bit_length() - 1


@dataclass(frozen=True)
class DiscFactorization:
    """A nonzero discriminant D written as 4**ell * delta with delta not
    divisible by 4, plus m = delta mod 8 (never 0 or 4 by construction).

    For D == 0 the fields ell, delta, m are meaningless and set to None.
    """

    is_zero: bool
    ell: int | None
    delta: int | None
    m: int | None


def factor_discriminant(d: int) -> DiscFactorization:
    """Split d as 4**ell * delta with 4 not dividing delta."""
    if d == 0:
        return DiscFactorization(True, None, None, None)
    e = nu2(d)
    assert isinstance(e, int)
    ell = e // 2
    delta = d // (4**ell)
    return DiscFactorization(False, ell, delta, delta % 8)


def inverse_mod_pow2(a: int, i: int) -> int:
    """Inverse of an odd a modulo 2**i (returns 0 when i == 0)."""
    if a % 2 == 0:
        raise ValueError(f"{a} is even, so it has no inverse modulo a power of 2")
    if i < 0:
        raise ValueError("modulus exponent must be nonnegative")
    return pow(a, -1, 1 << i) if i else 0


def sqrt_mod_pow2(delta: int, k: int) -> int:
    """The 2-adic square root of delta == 1 (mod 8) that is == 1 (mod 4),
    reduced mod 2**k (k >= 1).

    Newton on the inverse square root: from y = 1, where delta * y**2 ==
    1 (mod 8), each step y <- y * (3 - delta * y**2) / 2 takes delta * y**2
    == 1 (mod 2**j) to (mod 2**(2*j - 2)).  Once j > k, delta * y agrees
    with the root mod 2**k.
    """
    if delta % 8 != 1:
        raise ValueError(f"{delta} is not 1 mod 8, so it has no 2-adic square root of this kind")
    if k < 1:
        raise ValueError("precision must be at least 1")
    y, j = 1, 3
    while j <= k:
        y = (y * (3 - delta * y * y) >> 1) & ((1 << (2 * j - 3)) - 1)
        j = 2 * j - 2
    return delta * y & ((1 << k) - 1)
