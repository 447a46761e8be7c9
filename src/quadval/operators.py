"""Structure-preserving operators on quadratics.

translate(f, s) shifts the argument: the result evaluated at n equals
f(n - s), so a period table shifts by s.  dilate(f, s) scales it: the
result at n equals f(s * n); for odd s this permutes each period.

s_backward and s_forward implement the substitution trick that makes
any bounded polynomial monic.  Backward, (a, b, c) becomes (1, b, a*c);
forward, a monic (1, b, a*c) is folded back to (a, b, c).  Both keep
the discriminant, and for odd positive a the valuation sequences are
related by nu2(forward(f)(n)) == nu2(f(a * n)), which is the dilation
by a.  That identity holds whether or not the forward image has integer
coefficients, so the table law is checked through the dilation whenever
a does not divide the constant term.

canonicalize_to_type_ell_1 composes the two: any bounded f with period
at least 4 maps to a polynomial g = n**2 + 2n + c0 whose tree has the
canonical single-chain shape, together with the operator chain that
rebuilds f (up to the shared power of two) from g.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arith import inverse_mod_pow2
from .classify import Case, Classification, classify
from .closed_form import period_table
from .poly import DomainError, QuadraticPoly


class OperatorKind(Enum):
    TRANSLATE = "TRANSLATE"
    DILATE = "DILATE"
    S_FORWARD = "S_FORWARD"
    S_BACKWARD = "S_BACKWARD"


@dataclass(frozen=True)
class OperatorDescriptor:
    kind: OperatorKind
    param: int

    def apply(self, f: QuadraticPoly) -> QuadraticPoly:
        if self.kind is OperatorKind.TRANSLATE:
            return translate(f, self.param)
        if self.kind is OperatorKind.DILATE:
            return dilate(f, self.param)
        if self.kind is OperatorKind.S_FORWARD:
            return s_forward(f, self.param)
        return s_backward(f, self.param)

    def __str__(self) -> str:
        return f"{self.kind.value}({self.param})"


def translate(f: QuadraticPoly, s: int) -> QuadraticPoly:
    """The polynomial whose value at n is f(n - s)."""
    return QuadraticPoly(f.a, f.b - 2 * f.a * s, f.c + f.a * s * s - f.b * s)


def dilate(f: QuadraticPoly, s: int) -> QuadraticPoly:
    """The polynomial whose value at n is f(s * n)."""
    if s == 0:
        raise ValueError("dilation factor must be nonzero")
    return QuadraticPoly(f.a * s * s, f.b * s, f.c)


def _check_s_param(a: int) -> None:
    if a <= 0 or a % 2 == 0:
        raise ValueError("the substitution parameter must be a positive odd integer")


def s_forward(f: QuadraticPoly, a: int) -> QuadraticPoly:
    """(1, b, a*c) -> (a, b, c)."""
    _check_s_param(a)
    if f.a != 1:
        raise DomainError("forward substitution is defined for monic polynomials")
    if f.c % a != 0:
        raise DomainError(f"constant term {f.c} is not divisible by {a}")
    return QuadraticPoly(a, f.b, f.c // a)


def s_backward(f: QuadraticPoly, a: int) -> QuadraticPoly:
    """(a, b, c) -> (1, b, a*c)."""
    _check_s_param(a)
    if f.a != a:
        raise DomainError(f"backward substitution with parameter {a} needs leading coefficient {a}")
    return QuadraticPoly(1, f.b, f.a * f.c)


def apply_operators(ops: list[OperatorDescriptor], f: QuadraticPoly) -> QuadraticPoly:
    for op in ops:
        f = op.apply(f)
    return f


def _tables_agree(f: QuadraticPoly, g: QuadraticPoly, *, unit: int = 1, shift: int = 0) -> bool:
    """Whether g's period table holds f's entry for r at unit^(-1) * r +
    shift mod the period.  period_table raises DomainError for an
    unbounded f."""
    t1, t2 = period_table(f), period_table(g)
    p, uinv = t1.period, inverse_mod_pow2(unit, t1.ell)
    return t2.period == p and all(t2.entries[(uinv * r + shift) % p] == t1.entries[r] for r in range(p))


def table_translate_law(f: QuadraticPoly, s: int) -> bool:
    """Whether the period table of translate(f, s) is f's table shifted
    by s: shifted.entries[(r + s) % period] == original.entries[r]."""
    return _tables_agree(f, translate(f, s), shift=s)


def table_s_law(f: QuadraticPoly, a: int) -> bool:
    """Whether forward substitution permutes the table of a monic f by
    r -> a^(-1) * r mod period.

    The forward image is materialized when a divides the constant term;
    otherwise its valuations are taken through the equivalent dilation.
    """
    _check_s_param(a)
    if f.a != 1:
        raise DomainError("the substitution law is stated for monic polynomials")
    return _tables_agree(f, s_forward(f, a) if f.c % a == 0 else dilate(f, a), unit=a)


def _canonical_ell(cls: Classification) -> int:
    """ell of a sequence that has a canonical form: case 3(c) with ell >= 2."""
    if cls.case_tag is not Case.CASE3C_BOUNDED:
        raise DomainError("the canonical form exists only for bounded, non-constant sequences")
    assert cls.disc is not None and cls.disc.ell is not None
    if cls.disc.ell < 2:
        raise DomainError("the canonical form needs period at least 4")
    return cls.disc.ell


def canonicalize_to_type_ell_1(
    f: QuadraticPoly, *, classification: Classification | None = None
) -> tuple[QuadraticPoly, list[OperatorDescriptor]]:
    """Reduce f to the canonical polynomial g = n**2 + 2n + c0 with the
    same discriminant data, plus the chain that rebuilds f from g.

    Applying the returned operators to g reproduces the even-reduced
    form of f exactly (equal to f when no power of two was shared).
    Requires a bounded sequence with period at least 4 and, because the
    substitution parameter must be positive, a positive leading
    coefficient after reduction.
    """
    cls = classification if classification is not None else classify(f)
    _canonical_ell(cls)
    f0 = cls.reduced
    if f0.a < 0:
        raise DomainError(
            "the substitution step needs a positive leading coefficient; "
            "negating all three coefficients leaves every valuation unchanged"
        )
    s = f0.b // 2 - 1
    monic = s_backward(f0, f0.a)
    g = translate(monic, s)
    ops = [
        OperatorDescriptor(OperatorKind.TRANSLATE, -s),
        OperatorDescriptor(OperatorKind.S_FORWARD, f0.a),
    ]
    assert g.a == 1 and g.b == 2
    assert apply_operators(ops, g) == f0
    return g, ops


def canonical_residue_map(
    f: QuadraticPoly, *, classification: Classification | None = None
) -> list[tuple[int, int, int]]:
    """(level, canonical residue, residue for f) for every terminating
    node of the canonical tree.

    The canonical tree terminates at residue 2**(i-1) - 1 on each level
    i below the last, and at both residues on the last level.  Each maps
    to the node of f's tree holding the same valuation via
    r -> a^(-1) * (r + 1 - b/2) mod 2**level, with a, b taken from the
    even-reduced form of f.
    """
    cls = classification if classification is not None else classify(f)
    ell = _canonical_ell(cls)
    a, b = cls.reduced.a, cls.reduced.b
    shift = 1 - b // 2
    out = []
    for level in range(1, ell + 1):
        ainv = inverse_mod_pow2(a, level)
        mod = 1 << level
        targets = [(1 << (level - 1)) - 1]
        if level == ell:
            targets.append((1 << level) - 1)
        for t in targets:
            out.append((level, t, (ainv * (t + shift)) % mod))
    return out
