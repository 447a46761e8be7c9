"""Brute-force reference for valuation sequences.

This module is deliberately dumb.  It evaluates the polynomial and counts
factors of two, nothing else, so it can serve as an independent check on
the classifier, the closed forms, and the trees.  It imports only the
polynomial type and the valuation primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .arith import Valuation, nu2
from .poly import QuadraticPoly


@dataclass(frozen=True)
class ValuationSequence:
    """The values nu2(f(n)) for n in [start, start + len(values))."""

    poly: QuadraticPoly
    start: int
    values: tuple[Valuation, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Valuation]:
        return iter(self.values)

    def __getitem__(self, idx: int) -> Valuation:
        return self.values[idx]


def valuation_sequence(f: QuadraticPoly, start: int = 0, count: int = 64) -> ValuationSequence:
    """Compute nu2(f(n)) for count consecutive n from start."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    values = tuple(nu2(f(n)) for n in range(start, start + count))
    return ValuationSequence(f, start, values)


def empirical_period(values: Sequence[Valuation]) -> int | None:
    """Smallest power of two P <= len(values) // 2 with
    values[n] == values[n + P] for all n in [0, len(values) - P),
    or None if no such P exists within the values.

    Only powers of two are tried; any period of these sequences is one.
    """
    horizon = len(values)
    if horizon < 4:
        raise ValueError("at least 4 values are needed")
    p = 1
    while p <= horizon // 2:
        if all(values[n] == values[n + p] for n in range(horizon - p)):
            return p
        p *= 2
    return None
