"""Exact rational helpers shared across the package.

Every numeric quantity a solver component exchanges (thresholds, LP values,
weights, certified bounds) is either a Python int or a `fractions.Fraction`.
There is deliberately no float anywhere in the pipeline.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping, TypeVar

K = TypeVar("K", bound=Hashable)


def rat_to_str(x: int | Fraction) -> str:
    """Format an exact rational as ``"p/q"`` in lowest terms."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rat_from_str(text: str) -> Fraction:
    """Parse a ``"p/q"`` rational; the denominator must be positive."""
    num, sep, den = text.partition("/")
    if not sep:
        raise ValueError(f"expected 'p/q' rational, got {text!r}")
    try:
        n = int(num)
        d = int(den)
    except ValueError as exc:
        raise ValueError(f"expected 'p/q' rational, got {text!r}") from exc
    if d <= 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(n, d)


def ceil_frac(x: int | Fraction) -> int:
    f = Fraction(x)
    return -((-f.numerator) // f.denominator)


def to_counts(values: Mapping[K, int | Fraction]) -> tuple[dict[K, int], int]:
    """Exact rationals as integer counts over one scale, the lcm of their
    denominators: ``values[k] == Fraction(counts[k], scale)``."""
    scale = lcm(*(Fraction(v).denominator for v in values.values()))
    return {k: int(v * scale) for k, v in values.items()}, scale
