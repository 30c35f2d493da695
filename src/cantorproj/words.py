"""Exact arithmetic on the middle-thirds Cantor set.

Points of the set are infinite words over the digit alphabet {0, 2}; the word
(d1, d2, ...) denotes the real number sum_k dk * 3**-k in [0, 1].  This module
implements the eventually periodic points, cylinders and finite unions of
cylinders in a canonical antichain normal form, and exact values, distances
and diameters over `fractions.Fraction`.  No floating point is used anywhere
in the package.  Clopen rectangles and their finite unions close the module,
so the verifier kernel reads certificates without the projection code.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

ALPHABET = "02"


class WordError(ValueError):
    """Malformed digit word or an illegal set operation."""


def check_digits(word: str) -> str:
    """Return ``word`` if every character is a digit 0 or 2, else raise ``WordError``."""
    if word.strip(ALPHABET):
        raise WordError(f"digits must come from {{0, 2}}: {word!r}")
    return word


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
    validates and normalizes the arguments, then sets each slot once through
    its descriptor, past the frozen ``__setattr__``.  A prefix meets the
    digit check only if ``strip`` leaves some character.  The cycle ``"0"``
    or ``"2"`` of every representative and approximant takes its own
    branch: the comparison checks it, and its normal form is a single
    ``rstrip``.  Any other cycle is reduced to its primitive period, strips
    whole copies of itself, then a partial one, and rotates once, so the
    normal form is linear in the prefix.  Points are slotted: they carry no
    instance ``__dict__``, which keeps the many representative points of a
    deep trace small.
    """

    prefix: str
    cycle: str

    def __init__(self, prefix: str = "", cycle: str = "0") -> None:
        if prefix.strip(ALPHABET):
            check_digits(prefix)
        if cycle == "0" or cycle == "2":
            _set_prefix(self, prefix.rstrip(cycle))
            _set_cycle(self, cycle)
            return
        check_digits(cycle)
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
        _set_prefix(self, prefix)
        _set_cycle(self, cycle)

    def digits(self, n: int) -> str:
        """The first n digits as a finite word."""
        if n <= len(self.prefix):
            return self.prefix[:n]
        reps = (n - len(self.prefix)) // len(self.cycle) + 1
        return (self.prefix + self.cycle * reps)[:n]

    def value(self) -> Fraction:
        """Exact value in [0, 1], one reduced fraction."""
        return Fraction(*_ratio(self))

    def starts_with(self, word: str) -> bool:
        return self.digits(len(word)) == word

    def __str__(self) -> str:
        return f"{self.prefix}^({self.cycle})"


_set_prefix, _set_cycle = CantorPoint.prefix.__set__, CantorPoint.cycle.__set__


def _ratio(p: CantorPoint) -> tuple[int, int]:
    # The value unreduced: (head (3^c - 1) + cycle) / ((3^c - 1) 3^m).
    period = 3 ** len(p.cycle) - 1
    head = int(p.prefix, 3) if p.prefix else 0
    return head * period + int(p.cycle, 3), period * 3 ** len(p.prefix)


def parse_point(text: str) -> CantorPoint:
    """Inverse of ``str(point)``; accepts e.g. ``02^(20)`` or ``^(0)``."""
    head, sep, rest = text.partition("^(")
    if not sep or not rest.endswith(")"):
        raise WordError(f"not a point literal: {text!r}")
    return CantorPoint(head, rest[:-1])


def distance(p: CantorPoint, q: CantorPoint) -> Fraction:
    """Distance between the real values of two points."""
    (a, b), (c, d) = _ratio(p), _ratio(q)
    return Fraction(abs(a * d - c * b), b * d)


def separation_depth(p: CantorPoint, q: CantorPoint) -> int:
    """Index of the first digit where two distinct points disagree."""
    if p == q:
        raise WordError("points are equal; no separating digit")
    # Eventually periodic words that agree this far are equal.
    bound = max(len(p.prefix), len(q.prefix)) + lcm(len(p.cycle), len(q.cycle))
    return _lcp(p.digits(bound), q.digits(bound))


def all_words(depth: int) -> tuple[str, ...]:
    """All digit words of the given length, in increasing value order."""
    return tuple("".join(t) for t in itertools.product(ALPHABET, repeat=depth))


def repr_point(word: str) -> CantorPoint:
    """Canonical representative of a cylinder: the word padded with zeros."""
    return CantorPoint(word, "0")


def _lcp(u: str, v: str) -> int:
    k, n = 0, min(len(u), len(v))
    while k < n and u[k] == v[k]:
        k += 1
    return k


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


def _has_prefix(words: tuple[str, ...], s: str) -> bool:
    # Whether some word of a sorted prefix antichain is a prefix of s.  Only
    # the last word sorting at or before s can be: every string between a
    # prefix w of s and s itself starts with w, and the antichain holds no
    # extension of w.
    i = bisect_right(words, s)
    return i > 0 and s.startswith(words[i - 1])


def _extensions(words: tuple[str, ...], s: str) -> tuple[str, ...]:
    # The words of a sorted prefix antichain that properly extend s: a run,
    # since every string from s up to s + "3" starts with s, "3" sorting
    # after both digits.
    return words[bisect_right(words, s):bisect_left(words, s + "3")]


@dataclass(frozen=True, slots=True)
class ClopenSet:
    """A finite union of cylinders, kept as a sorted prefix antichain.

    The normal form is canonical: two instances denote the same set of points
    iff they are equal as values.  The empty tuple denotes the empty set and
    ``("",)`` the whole space.  Construction makes one pass over the sorted
    words, dropping extensions and merging sibling pairs; the sort merges
    the two sorted runs that ``union`` concatenates.  ``intersect`` and
    ``complement`` yield normal forms themselves and skip that pass, and an
    intersection hands back an operand, or the shared ``EMPTY``, where it
    can.  Sets are slotted; the depth has a slot of its own, outside ``==``,
    ``hash`` and ``repr``, left unset until first read.
    """

    words: tuple[str, ...] = ()
    _depth: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for w in self.words:
            check_digits(w)
        _set_words(self, _normalize_words(self.words))

    @classmethod
    def _normal(cls, words: tuple[str, ...]) -> "ClopenSet":
        # For words already checked and in normal form: no second pass.
        s = object.__new__(cls)
        _set_words(s, words)
        return s

    def is_empty(self) -> bool:
        return not self.words

    # Computed on first use, not at construction: most sets are built as
    # intermediate results and never asked, and a slot filled in
    # __post_init__ would cost every construction.
    @property
    def depth(self) -> int:
        try:
            return self._depth
        except AttributeError:
            _set_depth(self, max(map(len, self.words), default=0))
            return self._depth

    def member(self, p: CantorPoint) -> bool:
        # The identities first, by value, as in ``intersect``: only ∅ and
        # the whole space have depth 0, and ∅ holds no point, the whole
        # space every point.  The depth is read anyway, where a test of the
        # words against ``("",)`` would cost every other set a comparison.
        # Otherwise a word no longer than the prefix starts the point iff it
        # starts the prefix, so a prefix at least ``depth`` long is a lead.
        depth = self.depth
        if not depth:
            return bool(self.words)
        lead = p.prefix if len(p.prefix) >= depth else p.digits(depth)
        return _has_prefix(self.words, lead)

    def holds_word(self, s: str) -> bool:
        """Whether the cylinder of ``s`` lies in the set; ∅ and Ω by value, as ``member``."""
        words = self.words
        if not words or words == ("",):
            return bool(words)
        return _has_prefix(words, s)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet(self.words + other.words)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        """The meet, bisecting each word u of the shorter operand into the
        longer: u is kept if a word of the longer is its prefix, else the
        longer's words that extend u are.  The kept words are a normal form.
        The shorter operand comes back itself when all of it is kept (so
        ``a ∩ ∅`` and ``a ∩ Ω``), the longer when the shorter is Ω, and
        ``EMPTY`` when nothing is kept."""
        if len(self.words) > len(other.words):
            self, other = other, self
        a, b = self.words, other.words
        if a == ("",):
            return other
        out, whole = [], True
        for u in a:
            if _has_prefix(b, u):
                out.append(u)
            else:
                whole = False
                out += _extensions(b, u)
        if whole:
            return self
        return ClopenSet._normal(tuple(out)) if out else EMPTY

    def complement(self) -> "ClopenSet":
        # The gaps are the other children w[:k]+d of the words' proper
        # prefixes, no two siblings.  Words sharing a prefix are contiguous,
        # so each is built once, from w when k passes w's common prefix with
        # the word on its side (before for d = 0, after for d = 2).
        words = self.words
        if not words:
            return WHOLE_SPACE
        shared = [_lcp(u, v) for u, v in zip(words, words[1:])]
        gaps = []
        for w, a, b in zip(words, [-1] + shared, shared + [-1]):
            gaps += [w[:k] + "0" for k in range(a + 1, len(w)) if w[k] == "2"]
            gaps += [w[:k] + "2" for k in range(b + 1, len(w)) if w[k] == "0"]
        gaps.sort()
        return ClopenSet._normal(tuple(gaps))

    def minus(self, other: "ClopenSet") -> "ClopenSet":
        return self.intersect(other.complement())

    def subset(self, other: "ClopenSet") -> bool:
        # Valid on normal forms: a covered cylinder has a prefix in the cover.
        # Bisected here, not through ``holds_word``, to spare a frame per
        # word, and in a plain loop, to spare a generator per call.
        c = other.words
        for a in self.words:
            if not _has_prefix(c, a):
                return False
        return True

    def diam(self) -> Fraction:
        """Diameter as a subset of [0, 1]; both extremes are Cantor points."""
        if not self.words:
            raise WordError("diameter of the empty set")
        # A sorted prefix antichain over {0, 2} is in value order, so the
        # span runs from the first cylinder's left end to the last one's
        # right end, both read as integers over 3**m.
        u, v = self.words[0], self.words[-1]
        m = max(len(u), len(v))
        hi = (int(v or "0", 3) + 1) * 3 ** (m - len(v))
        return Fraction(hi - int(u or "0", 3) * 3 ** (m - len(u)), 3 ** m)

    def common_prefix(self) -> str:
        if not self.words:
            raise WordError("common prefix of the empty set")
        # The words are sorted, so the first and last bound the prefix.
        return self.words[0][: _lcp(self.words[0], self.words[-1])]

    def __str__(self) -> str:
        if not self.words:
            return "∅"
        return ",".join(w or "ε" for w in self.words)


_set_words, _set_depth = ClopenSet.words.__set__, ClopenSet._depth.__set__
WHOLE_SPACE = ClopenSet(("",))
EMPTY = ClopenSet(())


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
