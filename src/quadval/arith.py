"""Integer 2-adic helpers: nu2, the valuation of zero, discriminant
factoring and inverses modulo powers of two.

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
