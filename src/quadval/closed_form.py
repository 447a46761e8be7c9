"""Closed-form evaluation of bounded valuation sequences.

Take a reduced polynomial in the bounded case: odd leading coefficient
a, even middle coefficient b = 2h, discriminant 4**ell * delta with
m = delta mod 8 in {2, 3, 5, 6, 7}.  Completing the square,

    a * f(n) = t**2 - 4**(ell-1) * delta,    t = a*n + h,

and a is odd, so nu2(f(n)) is the valuation of the right-hand side.
With k = nu2(t) it is 2*k when k < ell - 1.  Otherwise t = 2**(ell-1) * u
and the value is 2*(ell-1) + nu2(u**2 - delta), which depends only on m
and the parity of u:

    m in {2, 6}:  1 for u even, 0 for u odd
    m in {3, 7}:  0 for u even, 1 for u odd
    m == 5:       0 for u even, 2 for u odd

This one rule covers every ell >= 1.  The value depends on t mod 2**ell,
hence on n mod 2**ell, which is the period.  A shared factor 2**i pulled
out during reduction adds i to every value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import inverse_mod_pow2, nu2
from .classify import Classification, classify
from .poly import DomainError, QuadraticPoly

_NO_TABLE_MSG = "sequence is unbounded; no period table"
_NO_CLOSED_FORM_MSG = "sequence is unbounded; no closed form"

# The most entries a period table may have.  The closed form answers a
# point query at any ell, but 2**ell entries soon exceed memory.  The CLI
# bounds every listing and brute-force window by the same number.
MAX_VALUES = 2**20

# m -> (value for u even, value for u odd) above 2*(ell-1); see the module docstring.
_FINAL = {2: (1, 0), 6: (1, 0), 3: (0, 1), 7: (0, 1), 5: (0, 2)}


@dataclass(frozen=True)
class PeriodTable:
    """One full period of a bounded valuation sequence.

    entries[r] is nu2(f(n)) for every n == r (mod period).  ell is the
    exponent with period == 2**ell (0 for the constant cases), and
    even_offset the shared power of two already folded into the entries.
    """

    ell: int
    period: int
    even_offset: int
    entries: tuple[int, ...]

    def value_at(self, n: int) -> int:
        return self.entries[n % self.period]


def _ell_m(cls: Classification, message: str) -> tuple[int, int] | None:
    """(ell, m) of a non-constant bounded sequence, None for a constant one.

    Raises DomainError with message when the sequence is unbounded.
    """
    if not cls.case_tag.is_bounded:
        raise DomainError(message)
    if cls.case_tag.is_constant:
        return None
    assert cls.disc is not None and cls.disc.ell is not None and cls.disc.m is not None
    return cls.disc.ell, cls.disc.m


def _completed_square_value(t: int, ell: int, m: int) -> int:
    """nu2(t**2 - 4**(ell-1) * delta) for delta == m (mod 8)."""
    k = nu2(t)
    if k < ell - 1:
        return 2 * k
    return 2 * (ell - 1) + _FINAL[m][(t >> (ell - 1)) & 1]


def closed_form_valuation(f: QuadraticPoly, n: int, *, classification: Classification | None = None) -> int:
    """nu2(f(n)) computed from the closed form, never by evaluating f.

    Raises DomainError when the sequence is unbounded.  The optional
    classification avoids reclassifying in hot loops.
    """
    cls = classification if classification is not None else classify(f)
    ell_m = _ell_m(cls, _NO_CLOSED_FORM_MSG)
    if ell_m is None:
        return cls.even_offset
    f0 = cls.reduced
    return cls.even_offset + _completed_square_value(f0.a * n + f0.b // 2, *ell_m)


def period_table(f: QuadraticPoly, *, classification: Classification | None = None) -> PeriodTable:
    """The full table of one minimal period.

    Each class of t = a*n + h the rule tells apart, t == 2**(i-1) (mod
    2**i) for i = 1 .. ell and t == 0 (mod 2**ell), is one residue class
    of n and fills one slice.  Building the table also proves, via an
    assertion, that these classes tile the period exactly once.  Raises
    ValueError, before allocating, when the period exceeds MAX_VALUES.
    """
    cls = classification if classification is not None else classify(f)
    ell_m = _ell_m(cls, _NO_TABLE_MSG)
    off = cls.even_offset
    if ell_m is None:
        return PeriodTable(0, 1, off, (off,))
    ell, m = ell_m
    period = 1 << ell
    if period > MAX_VALUES:
        raise ValueError(f"the period table at ℓ={ell} has 2^{ell} entries, above the limit of {MAX_VALUES}")
    h = cls.reduced.b // 2
    ainv = inverse_mod_pow2(cls.reduced.a, ell)
    entries: list[int | None] = [None] * period
    written = 0
    for i, t in [(i, 1 << (i - 1)) for i in range(1, ell + 1)] + [(ell, 0)]:
        step = 1 << i
        entries[(ainv * (t - h)) % step :: step] = [off + _completed_square_value(t, ell, m)] * (period >> i)
        written += period >> i
    assert written == period and None not in entries, "residue classes failed to tile the period"
    return PeriodTable(ell, period, off, tuple(entries))  # type: ignore[arg-type]


def max_valuation(f: QuadraticPoly, *, classification: Classification | None = None) -> int:
    """The largest value a bounded sequence attains (it is attained)."""
    cls = classification if classification is not None else classify(f)
    ell_m = _ell_m(cls, _NO_CLOSED_FORM_MSG)
    if ell_m is None:
        return cls.even_offset
    ell, m = ell_m
    return cls.even_offset + 2 * (ell - 1) + max(_FINAL[m])
