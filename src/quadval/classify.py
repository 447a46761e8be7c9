"""Classification of the sequence nu2(f(n)) for an integer quadratic f.

Any common factor 2**i of the coefficients is pulled out first; it shifts
every valuation by i and changes nothing else.  The reduced polynomial
(at least one odd coefficient) then falls into exactly one case, decided
by coefficient parities and, when the leading coefficient is odd and the
middle one even, by the discriminant D = b**2 - 4ac:

* case 1: a, b even, c odd.  nu2(f(n)) is constantly 0.
* case 2: a even, b odd.  Unbounded, one infinite branch (f has a single
  root in the 2-adic integers).
* case 3: a odd, b even.  Write D = 4**ell * delta with 4 not dividing
  delta, and m = delta mod 8.  Note b even forces ell >= 1, and m is
  never 0 or 4.
    - 3(a): D == 0.  Unbounded, one infinite branch (the double root).
    - 3(b): m == 1, so delta is an odd 2-adic square.  Unbounded, two
      infinite branches.
    - 3(c): m in {2, 3, 5, 6, 7}.  Bounded and periodic with minimal
      period 2**ell.
* case 4: a, b odd, c even.  Unbounded, two infinite branches.
* case 5: a, b, c all odd.  Constantly 0.

The constant cases are periodic with period 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arith import INFINITE, DiscFactorization, factor_discriminant, nu2
from .poly import QuadraticPoly


class Case(Enum):
    """The five parity cases, with case 3 split by discriminant."""

    CASE1_CONST_ZERO = "1"
    CASE2_UNBOUNDED = "2"
    CASE3A_UNBOUNDED = "3(a)"
    CASE3B_UNBOUNDED = "3(b)"
    CASE3C_BOUNDED = "3(c)"
    CASE4_UNBOUNDED = "4"
    CASE5_CONST_ZERO = "5"

    @property
    def is_constant(self) -> bool:
        return self in _CONSTANT

    @property
    def is_bounded(self) -> bool:
        return self in _BOUNDED


_CONSTANT = (Case.CASE1_CONST_ZERO, Case.CASE5_CONST_ZERO)
_BOUNDED = _CONSTANT + (Case.CASE3C_BOUNDED,)
# one infinite branch per 2-adic root of f; the other cases have none
_INFINITE_BRANCHES = {Case.CASE2_UNBOUNDED: 1, Case.CASE3A_UNBOUNDED: 1, Case.CASE3B_UNBOUNDED: 2, Case.CASE4_UNBOUNDED: 2}


@dataclass(frozen=True)
class Classification:
    """Everything the rest of the package needs to know about f.

    poly is the input, reduced the polynomial after dividing out the
    largest shared power of two (2**even_offset).  disc is the factored
    discriminant of the reduced polynomial when the case consults it
    (case 3), otherwise None.  period and infinite_branches follow from
    the case.
    """

    poly: QuadraticPoly
    reduced: QuadraticPoly
    even_offset: int
    case_tag: Case
    disc: DiscFactorization | None

    @property
    def period(self) -> int | None:
        """The minimal period: 1 for a constant case, 2**ell for case
        3(c), None for an unbounded sequence."""
        if self.case_tag is Case.CASE3C_BOUNDED:
            assert self.disc is not None and self.disc.ell is not None
            return 1 << self.disc.ell
        return 1 if self.case_tag.is_constant else None

    @property
    def infinite_branches(self) -> int:
        """How many residue classes refine forever."""
        return _INFINITE_BRANCHES.get(self.case_tag, 0)


def reduce_even(f: QuadraticPoly) -> tuple[int, QuadraticPoly]:
    """Split f as 2**i * f0 where f0 has at least one odd coefficient."""
    i = min(nu2(f.a), nu2(f.b), nu2(f.c))
    if i is INFINITE:  # unreachable: a != 0
        raise ValueError("cannot reduce the zero polynomial")
    assert isinstance(i, int)
    if i == 0:
        return 0, f
    s = 1 << i
    return i, QuadraticPoly(f.a // s, f.b // s, f.c // s)


def classify(f: QuadraticPoly) -> Classification:
    offset, f0 = reduce_even(f)
    a_odd = f0.a % 2 == 1
    b_odd = f0.b % 2 == 1
    c_odd = f0.c % 2 == 1

    disc: DiscFactorization | None = None
    if not a_odd and not b_odd:
        # c must be odd, or the reduction would have gone further
        assert c_odd
        tag = Case.CASE1_CONST_ZERO
    elif not a_odd:
        tag = Case.CASE2_UNBOUNDED
    elif not b_odd:
        disc = factor_discriminant(f0.discriminant)
        if disc.is_zero:
            tag = Case.CASE3A_UNBOUNDED
        elif disc.m == 1:
            tag = Case.CASE3B_UNBOUNDED
        else:
            tag = Case.CASE3C_BOUNDED
    elif not c_odd:
        tag = Case.CASE4_UNBOUNDED
    else:
        tag = Case.CASE5_CONST_ZERO

    return Classification(f, f0, offset, tag, disc)


def constant_valuation(cls: Classification) -> int | None:
    """The single value the sequence takes, for the constant cases."""
    if cls.case_tag.is_constant:
        return cls.even_offset
    return None
