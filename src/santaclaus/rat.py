"""Exact rational helpers shared across the package.

Every threshold and weight the solver's stages exchange is a Python int,
weights as integer counts over one scale.  A `fractions.Fraction` is built
only where a rational is shown: the report and the public API (``T``, the
minimum load, the certified ratio bound), error messages, and LP values
handed to a caller.  There is deliberately no float anywhere in the pipeline.
"""

from __future__ import annotations

import re
from fractions import Fraction


def rat_to_str(x: int | Fraction) -> str:
    """Format an exact rational as ``"p/q"`` in lowest terms."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rat_from_str(text: str) -> Fraction:
    """Parse a ``"p/q"`` rational: p an optional minus and ASCII digits, q
    ASCII digits, both without leading zeros, and q positive."""
    # int() would also read " 3", "+3", "03", "3_0" or non-ASCII digits.
    if not re.fullmatch("-?(0|[1-9][0-9]*)/[1-9][0-9]*", text):
        raise ValueError(f"expected 'p/q' rational, got {text!r}")
    num, den = text.split("/")
    return Fraction(int(num), int(den))

