"""Reference implementations that the tests read and no command runs.

Plain scans and brute traces: the base table by first fit, dense pairs by
freshness tests, tag decoding by slicing, normal forms and clopen covers
digit by digit, and truncated images.  Each is the specification that a fast
path of the package is tested against.  Like ``cantorproj.oracle``, this
module reads only ``words``, ``family`` and the oracle.
"""

from __future__ import annotations

from cantorproj.family import DENSE_CYCLE, Family, approximant_depth, lenlex_word
from cantorproj.oracle import (
    TRACE_DEPTH, brute_rect_trace, diag_pair, removed_fibers, representatives,
)
from cantorproj.words import CantorPoint, ClopenSet, RectUnion, all_words, flip


def first_fit_bases(fam: Family, steps: int) -> dict[int, str]:
    """Base table after ``steps`` steps of the back and forth, by plain scans.

    Step t gives the t-th nonempty word to the least unassigned index whose
    y point starts with it, rescanning from index 0, then gives index t the
    shortest prefix of its own y point that no index holds yet.  Reads only
    ``fam.dense_pair``; every index below ``steps`` is in the table.
    """
    table: dict[int, str] = {}
    for t in range(steps):
        w = lenlex_word(t + 1)
        if w not in table.values():
            n = 0
            while n in table or not fam.dense_pair(n).y.starts_with(w):
                n += 1
            table[n] = w
        length = 1
        while t not in table:
            pref = fam.dense_pair(t).y.digits(length)
            if pref not in table.values():
                table[t] = pref
            length += 1
    return table


def scanned_dense_pairs(count: int) -> list[tuple[CantorPoint, CantorPoint]]:
    """First ``count`` dense pairs, freshness tested on built points.

    Pair t pads the words of its diagonal ranks with the least k >= 1 whose
    point ``word 0^k (20)^w`` its coordinate does not hold yet, building
    every candidate and scanning from k = 1 each time.
    """
    taken: tuple[set[CantorPoint], set[CantorPoint]] = (set(), set())
    pairs = []
    for t in range(count):
        pair = []
        for rank, seen in zip(diag_pair(t), taken):
            word, k = lenlex_word(rank), 1
            while (p := CantorPoint(word + "0" * k, DENSE_CYCLE)) in seen:
                k += 1
            seen.add(p)
            pair.append(p)
        pairs.append((pair[0], pair[1]))
    return pairs


def decode_tag(fam: Family, p: CantorPoint) -> tuple[int, int] | None:
    """Which approximant ``p`` is, slicing its tag off two digits at a time.

    Quadratic in the tag length; the reference for ``Family._decode``.
    """
    if p.cycle != "0" or not p.prefix.endswith("22"):
        return None
    rest = p.prefix[:-2]
    i = 0
    while rest.endswith("02"):
        rest = rest[:-2]
        i += 1
    if not rest.endswith("22"):
        return None
    rest = rest[:-2]
    n = 0
    while True:
        d = approximant_depth(n, i)
        if len(rest) == d + 2 and rest.endswith("2"):
            head = fam.dense_pair(n).x.digits(d + 1)
            if rest[:d] == head[:d] and rest[d] == flip(head[d]):
                return n, i
        if not rest.endswith("02"):
            return None
        rest = rest[:-2]
        n += 1


def scanned_missing_index(
    fam: Family, union: RectUnion, n: int, separator: str
) -> int:
    """Least i from 0 whose approximant starts with ``separator`` and is off
    the image: no rectangle holds it with a second factor outside the base
    of n, the one column it is removed from.
    """
    base = ClopenSet((fam.base_word(n),))
    i = 0
    while True:
        q = fam.approximant(n, i)
        if q.starts_with(separator) and not any(
            r.x_set.member(q) and not r.y_set.subset(base) for r in union.rects
        ):
            return i
        i += 1


def normal_point(prefix: str, cycle: str) -> tuple[str, str]:
    """Normal form (prefix, cycle) of ``prefix cycle^w``, digit by digit.

    The cycle is cut to its least period by trying each divisor of its
    length; the prefix then gives up its last digit, and the cycle rotates
    right, one digit at a time while the two agree.
    """
    period = next(
        d for d in range(1, len(cycle) + 1)
        if len(cycle) % d == 0 and cycle[:d] * (len(cycle) // d) == cycle
    )
    pre, cyc = prefix, cycle[:period]
    while pre and pre[-1] == cyc[-1]:
        pre = pre[:-1]
        cyc = cyc[-1] + cyc[:-1]
    return pre, cyc


def scan_member(s: ClopenSet, p: CantorPoint) -> bool:
    """Membership by scanning every word of the set against the point."""
    lead = p.digits(max(map(len, s.words), default=0))
    return any(lead.startswith(w) for w in s.words)


def clopen_cover(s: ClopenSet, depth: int) -> frozenset[str]:
    """The depth-d words with a prefix in the set, scanning every word."""
    return frozenset(c for c in all_words(depth) if any(c.startswith(w) for w in s.words))


def brute_union_trace(fam: Family, union: RectUnion, n_fibers: int) -> frozenset[str]:
    """Trace of a truncated union image: its rectangles' brute traces joined."""
    return frozenset(
        w
        for r in union.rects
        for w in brute_rect_trace(fam, r.x_set, r.y_set, n_fibers)
    )


def brute_split_traces(
    trace: frozenset[str], f: ClopenSet
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Traces of F intersect image and F minus image, given the image trace.

    No representative point at ``TRACE_DEPTH`` is an approximant, so these
    traces equal those of the two clopen parts of the closure split.
    """
    in_f = [w for w, p in representatives(TRACE_DEPTH) if f.member(p)]
    return (
        tuple(w for w in in_f if w in trace),
        tuple(w for w in in_f if w not in trace),
    )


def project_rect_truncated(
    fam: Family, x_set: ClopenSet, y_set: ClopenSet, n_fibers: int
) -> tuple[ClopenSet, tuple[CantorPoint, ...]]:
    """Truncated image as hull minus a finite list of removed points."""
    removed = []
    for point, word in removed_fibers(fam, n_fibers):
        if y_set.subset(ClopenSet((word,))) and x_set.member(point):
            removed.append(point)
    return x_set, tuple(removed)


def truncated_member(
    truncated: tuple[ClopenSet, tuple[CantorPoint, ...]], p: CantorPoint
) -> bool:
    hull, removed = truncated
    return hull.member(p) and p not in removed
