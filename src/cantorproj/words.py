"""Exact arithmetic on the middle-thirds Cantor set.

Points of the set are infinite words over the digit alphabet {0, 2}; the word
(d1, d2, ...) denotes the real number sum_k dk * 3**-k in [0, 1].  This module
implements the eventually periodic points, cylinders and finite unions of
cylinders in a canonical antichain normal form, and exact interval metrics
over `fractions.Fraction`.  No floating point is used anywhere in the package.
Clopen rectangles and their finite unions close the module, so the verifier
kernel reads certificates without the projection code.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

ALPHABET = "02"


class WordError(ValueError):
    """Malformed digit word or an illegal set operation."""


def _check_digits(word: str) -> None:
    if word.strip(ALPHABET):
        raise WordError(f"digits must come from {{0, 2}}: {word!r}")


def flip(digit: str) -> str:
    """The other digit."""
    if digit == "0":
        return "2"
    if digit == "2":
        return "0"
    raise WordError(f"not a digit: {digit!r}")


def _primitive(cycle: str) -> str:
    # Smallest period of the cycle, via the doubled-string occurrence trick.
    return cycle[: (cycle + cycle).index(cycle, 1)]


@dataclass(frozen=True, slots=True, init=False)
class CantorPoint:
    """An eventually periodic point: prefix followed by cycle repeated forever.

    Instances normalize on construction so that equal digit streams compare
    equal as values: the cycle is primitive, and the prefix is minimal (its
    last digit never equals the digit the cycle would produce there, so no
    further digit can be absorbed into a rotation of the cycle).  One pass
    validates and normalizes the arguments, then sets each field once.  The
    cycle ``"0"`` or ``"2"`` of every representative and approximant is
    checked by that comparison, and its normal form is a single ``rstrip``.
    A longer cycle is reduced to its primitive period, strips whole copies
    of itself, then a partial one, and rotates once, so the normal form is
    linear in the prefix.  Points are slotted: they carry no instance
    ``__dict__``, which keeps the many representative points of a deep
    trace small.
    """

    prefix: str
    cycle: str

    def __init__(self, prefix: str = "", cycle: str = "0") -> None:
        _check_digits(prefix)
        if cycle != "0" and cycle != "2":
            _check_digits(cycle)
            if not cycle:
                raise WordError("cycle must be nonempty")
            cycle = _primitive(cycle)
        if len(cycle) == 1:
            prefix = prefix.rstrip(cycle)
        elif prefix.endswith(cycle[-1]):
            # Strip the longest suffix of the prefix that reads the cycle
            # backwards, whole copies first and then fewer than c digits,
            # and rotate the cycle right once by the digits of the partial
            # copy.
            c = len(cycle)
            end = len(prefix)
            while prefix.endswith(cycle, 0, end):
                end -= c
            r = 0
            while r < end and prefix[end - 1 - r] == cycle[c - 1 - r]:
                r += 1
            prefix, cycle = prefix[: end - r], cycle[c - r :] + cycle[: c - r]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    def digit(self, k: int) -> str:
        """The k-th digit, 0-indexed."""
        if k < len(self.prefix):
            return self.prefix[k]
        return self.cycle[(k - len(self.prefix)) % len(self.cycle)]

    def digits(self, n: int) -> str:
        """The first n digits as a finite word."""
        if n <= len(self.prefix):
            return self.prefix[:n]
        reps = (n - len(self.prefix)) // len(self.cycle) + 1
        return (self.prefix + self.cycle * reps)[:n]

    def value(self) -> Fraction:
        """Exact value in [0, 1]."""
        m, c = len(self.prefix), len(self.cycle)
        head = int(self.prefix, 3) if self.prefix else 0
        tail = Fraction(int(self.cycle, 3), 3**c - 1)
        return Fraction(head, 3**m) + tail / 3**m

    def starts_with(self, word: str) -> bool:
        return self.digits(len(word)) == word

    def __str__(self) -> str:
        return f"{self.prefix}^({self.cycle})"


ZERO_POINT = CantorPoint("", "0")


def parse_point(text: str) -> CantorPoint:
    """Inverse of ``str(point)``; accepts e.g. ``02^(20)`` or ``^(0)``."""
    head, sep, rest = text.partition("^(")
    if not sep or not rest.endswith(")"):
        raise WordError(f"not a point literal: {text!r}")
    return CantorPoint(head, rest[:-1])


def distance(p: CantorPoint, q: CantorPoint) -> Fraction:
    """Distance between the real values of two points."""
    return abs(p.value() - q.value())


def separation_depth(p: CantorPoint, q: CantorPoint) -> int:
    """Index of the first digit where two distinct points disagree."""
    if p == q:
        raise WordError("points are equal; no separating digit")
    # Eventually periodic words that agree this far are equal.
    bound = max(len(p.prefix), len(q.prefix)) + lcm(len(p.cycle), len(q.cycle))
    for k in range(bound):
        if p.digit(k) != q.digit(k):
            return k
    raise AssertionError("unequal normal forms must differ within the bound")


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise WordError(f"empty interval: [{self.lo}, {self.hi}]")

    def length(self) -> Fraction:
        return self.hi - self.lo


def cylinder_interval(word: str) -> RationalInterval:
    """Convex hull of a cylinder inside [0, 1]."""
    _check_digits(word)
    lo = Fraction(int(word, 3) if word else 0, 3 ** len(word))
    return RationalInterval(lo, lo + Fraction(1, 3 ** len(word)))


def all_words(depth: int) -> tuple[str, ...]:
    """All digit words of the given length, in increasing value order."""
    return tuple("".join(t) for t in itertools.product(ALPHABET, repeat=depth))


def cantor_stage(n: int) -> list[RationalInterval]:
    """The 2**n intervals of the n-th stage of the middle-thirds removal,
    each stage cut from the last rather than read off :func:`cylinder_interval`."""
    if n < 0:
        raise WordError("stage index must be a natural number")
    ends = [(Fraction(0), Fraction(1))]
    for _ in range(n):
        ends = [cut for lo, hi in ends
                for cut in ((lo, (2 * lo + hi) / 3), ((lo + 2 * hi) / 3, hi))]
    return [RationalInterval(lo, hi) for lo, hi in ends]


def repr_point(word: str) -> CantorPoint:
    """Canonical representative of a cylinder: the word padded with zeros."""
    return CantorPoint(word, "0")


def _normalize_words(words) -> tuple[str, ...]:
    # One pass over the sorted words keeps ``out`` a sorted antichain with no
    # sibling pair.  A kept word's extensions sort directly after it, so only
    # ``out[-1]`` can prefix the next word; a merged sibling pair leaves their
    # parent, which can pair only with the new ``out[-1]``, since a parent
    # cannot extend, or sit below, any word kept before its ``0`` child.  So
    # one pass is complete, and the result is the canonical form.
    out: list[str] = []
    for w in sorted(words):
        if out and w.startswith(out[-1]):
            continue
        while out and len(out[-1]) == len(w) and out[-1][:-1] == w[:-1]:
            w = out.pop()[:-1]
        out.append(w)
    return tuple(out)


@dataclass(frozen=True)
class ClopenSet:
    """A finite union of cylinders, kept as a sorted prefix antichain.

    The normal form is canonical: two instances denote the same set of points
    iff they are equal as values.  The empty tuple denotes the empty set and
    ``("",)`` the whole space.  Construction makes one pass over the sorted
    words, dropping extensions and merging sibling pairs; the sort is linear
    on a normal input (every ``intersect`` and ``complement`` result) and
    merges the two sorted runs that ``union`` concatenates.
    """

    words: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for w in self.words:
            _check_digits(w)
        object.__setattr__(self, "words", _normalize_words(self.words))

    def is_empty(self) -> bool:
        return not self.words

    # Computed on first use, not at construction: most sets are built as
    # intermediate results and never asked, and a field set in
    # __post_init__ would cost every construction.  cached_property stores
    # into the instance __dict__, so the class must stay unslotted.
    @cached_property
    def depth(self) -> int:
        return max(map(len, self.words), default=0)

    def member(self, p: CantorPoint) -> bool:
        # Only the last word sorting at or before ``lead`` can be a prefix of
        # it: every string between a prefix w of ``lead`` and ``lead`` itself
        # starts with w, and a prefix antichain holds no extension of w.
        if not self.words:
            return False
        lead = p.digits(self.depth)
        i = bisect_right(self.words, lead)
        return i > 0 and lead.startswith(self.words[i - 1])

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet(self.words + other.words)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        out = []
        for a in self.words:
            for b in other.words:
                if a.startswith(b):
                    out.append(a)
                elif b.startswith(a):
                    out.append(b)
        return ClopenSet(tuple(out))

    def complement(self) -> "ClopenSet":
        # The cylinders off the set are the children of its words' proper
        # prefixes that are no prefix of a word themselves.
        if not self.words:
            return WHOLE_SPACE
        prefixes = {w[:k] for w in self.words for k in range(len(w) + 1)}
        inner = prefixes.difference(self.words)
        return ClopenSet(tuple(u + c for u in inner for c in "02" if u + c not in prefixes))

    def minus(self, other: "ClopenSet") -> "ClopenSet":
        return self.intersect(other.complement())

    def subset(self, other: "ClopenSet") -> bool:
        # Valid on normal forms: a covered cylinder has a prefix in the cover.
        return all(any(a.startswith(b) for b in other.words) for a in self.words)

    def diam(self) -> Fraction:
        """Diameter as a subset of [0, 1]; both extremes are Cantor points."""
        if not self.words:
            raise WordError("diameter of the empty set")
        spans = [cylinder_interval(w) for w in self.words]
        return max(s.hi for s in spans) - min(s.lo for s in spans)

    def common_prefix(self) -> str:
        if not self.words:
            raise WordError("common prefix of the empty set")
        # The words are sorted, so the first and last bound the prefix.
        lo, hi = self.words[0], self.words[-1]
        k = 0
        while k < len(lo) and lo[k] == hi[k]:
            k += 1
        return lo[:k]

    def __str__(self) -> str:
        if not self.words:
            return "∅"
        return ",".join(w or "ε" for w in self.words)


WHOLE_SPACE = ClopenSet(("",))


def parse_clopen(text: str) -> ClopenSet:
    """Parse a comma-joined word list; the whole space is spelled ``ε``."""
    words = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise WordError(f"not a clopen literal: {text!r}")
        words.append("" if chunk == "ε" else chunk)
    return ClopenSet(tuple(words))


class PieceError(ValueError):
    """Empty factor or a rectangle escaping its piece."""


@dataclass(frozen=True)
class Rect:
    """A clopen rectangle: first factor x_set, second factor y_set."""

    x_set: ClopenSet
    y_set: ClopenSet

    def is_empty(self) -> bool:
        return self.x_set.is_empty() or self.y_set.is_empty()

    def __str__(self) -> str:
        return f"{self.x_set}x{self.y_set}"

    def as_dict(self) -> dict:
        return {"x": list(self.x_set.words), "y": list(self.y_set.words)}


@dataclass(frozen=True)
class RectUnion:
    """A finite union of clopen rectangles; empty rectangles are dropped."""

    rects: tuple[Rect, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rects", tuple(r for r in self.rects if not r.is_empty())
        )

    def covers(self, x: CantorPoint, y: CantorPoint) -> bool:
        return any(r.x_set.member(x) and r.y_set.member(y) for r in self.rects)

    def __str__(self) -> str:
        return ";".join(str(r) for r in self.rects)

    def as_dict(self) -> list:
        return [r.as_dict() for r in self.rects]


def parse_rect(text: str) -> Rect:
    """Parse ``WxV`` with comma-joined cylinder words, ``ε`` for the root."""
    body = text.replace("×", "x")
    left, sep, right = body.partition("x")
    if not sep:
        raise PieceError(f"not a rectangle literal: {text!r}")
    return Rect(parse_clopen(left), parse_clopen(right))


def parse_rect_union(text: str) -> RectUnion:
    if not text.strip():
        raise PieceError("empty rectangle union literal")
    return RectUnion(tuple(parse_rect(chunk) for chunk in text.split(";")))
