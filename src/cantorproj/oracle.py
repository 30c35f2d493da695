"""Brute-force oracles that ``check`` reads.

Everything here works from first principles: representative points, the raw
membership predicate restricted to finitely many removed columns, the
middle-thirds stages, and nothing from the image machinery.  The suites use
it to cross-check the exact projection code on finite windows, and the digit
model against the middle-thirds construction.  The references that only the
tests read live beside the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .family import Family
from .words import CantorPoint, ClopenSet, WordError, all_words, repr_point

# Depth of the cylinders whose canonical points the brute traces sample.
# Every approximant word has at least 8 digits, so none of these points is
# an approximant and no sample is removed from a piece's clopen parts.
TRACE_DEPTH = 6


def diag_pair(t: int) -> tuple[int, int]:
    """Fixed diagonal enumeration of pairs of naturals."""
    s = (isqrt(8 * t + 1) - 1) // 2
    j = t - s * (s + 1) // 2
    return s - j, j


def removed_fibers(fam: Family, count: int) -> list[tuple[CantorPoint, str]]:
    """First ``count`` removed columns, in ``diag_pair`` order.

    Column t is the approximant point of ``diag_pair(t)`` with the base
    word of its sequence.
    """
    out = []
    for t in range(count):
        n, i = diag_pair(t)
        out.append((fam.approximant(n, i), fam.base_word(n)))
    return out


def cantor_stage(n: int) -> list[tuple[Fraction, Fraction]]:
    """End points of the 2**n intervals of the n-th middle-thirds stage.

    Each stage is cut from the last, never read off a digit word.
    """
    if n < 0:
        raise WordError("stage index must be a natural number")
    ends = [(Fraction(0), Fraction(1))]
    for _ in range(n):
        ends = [cut for lo, hi in ends
                for cut in ((lo, (2 * lo + hi) / 3), ((lo + 2 * hi) / 3, hi))]
    return ends


@lru_cache(maxsize=None)
def representatives(depth: int) -> tuple[tuple[str, CantorPoint], ...]:
    """Each depth-d word with its canonical representative point."""
    return tuple((w, repr_point(w)) for w in all_words(depth))


def brute_rect_trace(
    fam: Family,
    x_set: ClopenSet,
    y_set: ClopenSet,
    n_fibers: int,
) -> tuple[str, ...]:
    """Trace of the truncated image, computed point by point.

    A sample (x, y) is in the truncated space unless one of the first
    ``n_fibers`` columns sits at x and its base holds y; x and y range over
    the canonical points of the depth-``TRACE_DEPTH`` cylinders.  The
    columns are grouped by point once, so each x looks its bases up.
    """
    ys = [y for _, y in representatives(TRACE_DEPTH) if y_set.member(y)]
    bases_at: dict[CantorPoint, list[str]] = {}
    for point, base in removed_fibers(fam, n_fibers):
        bases_at.setdefault(point, []).append(base)
    out = []
    for w, x in representatives(TRACE_DEPTH):
        if not x_set.member(x):
            continue
        bases = bases_at.get(x, ())
        if any(not any(y.starts_with(b) for b in bases) for y in ys):
            out.append(w)
    return tuple(out)
