"""Deterministic generation of the punctured Cantor square.

The space under study is the product of two Cantor sets with countably many
fiber sets removed: for every approximant point ``x`` of a dense sequence, a
whole column ``{x} x B`` is punched out, where ``B`` is a cylinder drawn from
a constrained enumeration.  Everything here is generated by fixed greedy
schemes, so two instances of :class:`Family` always agree digit for digit.

Tail markers keep the point classes decidable: every dense point ends in the
alternating cycle ``20``, every approximant ends in zeros after a
self-delimiting tag, so a single backward scan recovers which fiber (if any)
a given point belongs to.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .words import CantorPoint, check_digits, flip

DENSE_CYCLE = "20"
SCHEMA_VERSION = 1  # the envelope of export and of every certificate

# Extra agreement depth of an approximant beyond its index.  Two units keep
# the distance bound strictly below 1/(n+1) even when n+1 is a power of 3.
DEPTH_OFFSET = 2


class FamilyError(ValueError):
    """Invalid index or word for the generated family."""


def lenlex_word(rank: int) -> str:
    """The rank-th word in length-lexicographic order, starting from ''.

    Rank + 1 in binary is a 1 followed by the word, each 2 written as 1:
    the children of rank r are ``u0`` at 2r + 1 and ``u2`` at 2r + 2.
    """
    return bin(rank + 1)[3:].replace("1", "2")


def lenlex_rank(word: str) -> int:
    """Rank of a word in length-lexicographic order: ``lenlex_word``'s inverse."""
    return int("1" + word.replace("2", "1"), 2) - 1


def ceil_log3(m: int) -> int:
    """Least c with 3**c >= m, for m >= 1."""
    c, p = 0, 1
    while p < m:
        p *= 3
        c += 1
    return c


def approximant_depth(n: int, i: int) -> int:
    """Agreement depth of the i-th approximant of sequence n.

    Strictly increasing in i, and large enough that the approximant sits
    within 3**-(depth) < 1/(n+1) of its limit.
    """
    return i + ceil_log3(n + 1) + DEPTH_OFFSET


def stable_index(n: int, depth: int) -> int:
    """Least i whose approximant of sequence n agrees with its limit to ``depth``.

    Approximant i agrees exactly to ``approximant_depth(n, i)`` digits, which
    grows with i, so every later index agrees too and no earlier one does.
    """
    return max(0, depth - approximant_depth(n, 0))


def dense_key(word: str, k: int) -> tuple[str, int]:
    """Canonical name of the dense stream ``word 0^k (20)^w``, for k >= 1.

    The head ``word 0^k`` with every trailing ``20`` stripped (the cycle
    absorbs them) is canonical: two heads that do not end in ``20`` and
    give the same stream are equal.  The key is that head as its root
    without trailing zeros and its count of trailing zeros.  For k >= 2
    the head ends in ``00`` and nothing is stripped; for k = 1 the pad
    zero closes a ``20`` exactly when the word ends in ``2``.
    """
    if k == 1 and word.endswith("2"):
        word, k = word[:-1], 0
        while word.endswith("20"):
            word = word[:-2]
    root = word.rstrip("0")
    return root, len(word) - len(root) + k


def dense_digits(word: str, k: int, length: int) -> str:
    """First ``length`` digits of the dense stream ``word 0^k (20)^w``."""
    head = word + "0" * k
    return (head + DENSE_CYCLE * ((length - len(head)) // 2 + 1))[:length]


def scheme_params() -> dict:
    """The generation scheme a certificate pins, read from the constants above."""
    return {
        "name": "diagonal-lenlex-greedy",
        "version": 1,
        "dense_tail_cycle": DENSE_CYCLE,
        "approximant_tail_digit": "0",
        "depth_rule": f"i + ceil_log3(n + 1) + {DEPTH_OFFSET}",
        "tag": "2 (02)^n 22 (02)^i 22",
    }


def approximant_tag(n: int, i: int) -> str:
    return "2" + "02" * n + "22" + "02" * i + "22"


def _dense_point(head: tuple[str, int]) -> CantorPoint:
    word, k = head
    return CantorPoint(word + "0" * k, DENSE_CYCLE)


@dataclass(frozen=True)
class DensePair:
    """The n-th point of the dense family in the square.

    Each coordinate is kept as its (word, zero pad) head and its point
    ``word 0^pad (20)^w`` built on first read.  A family builds a pair only
    when :meth:`Family.dense_pair` reads it; its scans read the heads.
    """

    x_head: tuple[str, int]
    y_head: tuple[str, int]
    x = cached_property(lambda pair: _dense_point(pair.x_head))
    y = cached_property(lambda pair: _dense_point(pair.y_head))


class _Column:
    """One coordinate of the dense pairs: its (word, pad) heads in pair order.

    Pair t = s(s + 1)/2 + j sits on diagonal s at position j, with x rank
    s - j and y rank j.  Each rank keeps the pad it last took and each root
    the zero counts taken, so the two columns grow apart.
    """

    __slots__ = ("heads", "_ranks", "_y", "_pads", "_taken", "_s", "_j")

    def __init__(self, ranks: list, y: bool) -> None:
        self.heads: list[tuple[str, int]] = []
        self._ranks = ranks
        self._y = y
        self._pads: list[int] = []
        self._taken: defaultdict[str, set[int]] = defaultdict(set)
        self._s, self._j = -1, 0

    def head(self, n: int) -> tuple[str, int]:
        if not 0 <= n < len(self.heads):
            if n < 0:
                raise FamilyError("pair index must be a natural number")
            self.grow(n + 1)
        return self.heads[n]

    def grow(self, count: int) -> None:
        # Minimal zero padding >= 1 keeping the new point distinct within
        # its column; the point stays inside the requested cylinder.  Taken
        # sets only grow, so a rank resumes at its last pad.
        heads, ranks, pads, taken, y = self.heads, self._ranks, self._pads, self._taken, self._y
        s, j = self._s, self._j
        for _ in range(count - len(heads)):
            if j > s:
                # Diagonal s brings rank s: its word, root and trailing
                # zeros (pad k >= 2 keys as the root with zeros + k), and
                # its key at pad 1, shared by both columns.
                s, j = s + 1, 0
                pads.append(1)
                if s == len(ranks):
                    word = lenlex_word(s)
                    root = word.rstrip("0")
                    ranks.append((word, root, len(word) - len(root), dense_key(word, 1)))
            r = j if y else s - j
            word, root, tz, (one_root, one_zeros) = ranks[r]
            k = pads[r]
            if k == 1:
                seen = taken[one_root]
                if one_zeros in seen:
                    k = 2
                else:
                    seen.add(one_zeros)
            if k > 1:
                seen = taken[root]
                zeros = tz + k
                while zeros in seen:
                    zeros += 1
                seen.add(zeros)
                k = pads[r] = zeros - tz
            heads.append((word, k))
            j += 1
        self._s, self._j = s, j


class Family:
    """Append-only memo of the generated family.

    Pair t pads the words of its diagonal ranks with the fewest zeros k >= 1
    giving a point ``word 0^k (20)^w`` new to its coordinate.  Freshness is
    tested on :func:`dense_key`, not on built points: the head ``word 0^k``
    with its trailing ``20`` blocks stripped names the stream exactly, since
    every dense point shares the cycle ``20``, and is kept as a root word
    and a count of trailing zeros, one set of counts per root.  The two
    coordinates share no counts, so each is a column of (word, pad) heads
    grown as far as its readers reach: the base table walks the y column
    alone, approximants and recognition read x heads, and a
    :class:`DensePair` is built only for an index :meth:`dense_pair` reads.

    The base assignment is a greedy back and forth, run as one sweep over
    the indices.  Step t gives index t, if free, the shortest prefix of y_t
    no index holds, walking from a memo per y rank's word: the length below
    which every prefix of ``word 0^w`` is held.  When that prefix has
    length-lexicographic rank <= t + 1, it is the word first fit would give
    t; so the table on indices 0..n reads y heads 0..n.  A word of rank at
    most the sweep that no index holds waits, and :meth:`base_index` of it
    runs first fit on its waiting prefixes, shortest first, then on the
    word: only they can take an index whose y point starts with it.  First
    fit walks only the diagonals of ranks whose word extends the word or is
    one of its prefixes.  The step count is the back and forth's: a pair
    (word, index) is known after step min(rank - 1, index).

    Approximants are memoised by their indices.  Recognition decodes a tag
    in closed form: its last ``22`` but one is at ``top``, the run after it
    fixes i, and sequence n leaves d + 2 digits before its n-run, so
    2n + ceil_log3(n + 1) = top - i - 4 fixes n, the left side rising
    strictly.  One comparison checks the n-run before any x head is read.
    It keeps the inverse map on the approximants it has decoded, and
    nothing else.

    Deterministic: two instances always produce identical output.  The memo
    is not thread safe; give each thread its own instance.
    """

    def __init__(self) -> None:
        ranks: list[tuple[str, str, int, tuple[str, int]]] = []
        self._x = _Column(ranks, y=False)
        self._y = _Column(ranks, y=True)
        self._pairs: dict[int, DensePair] = {}
        self._approx: dict[tuple[int, int], CantorPoint] = {}
        self._recog: dict[str, tuple[int, int]] = {}
        self._idx2word: dict[int, str] = {}
        self._word2idx: dict[str, int] = {}
        self._reach: dict[str, int] = {}
        self._sweep = 0
        self._enum_step = 0

    # -- dense pairs ------------------------------------------------------

    def dense_pair(self, n: int) -> DensePair:
        pair = self._pairs.get(n)
        if pair is None:
            pair = self._pairs[n] = DensePair(self._x.head(n), self._y.head(n))
        return pair

    # -- approximants -----------------------------------------------------

    def approximant(self, n: int, i: int) -> CantorPoint:
        """The i-th approximant of the x-coordinate of dense pair n."""
        found = self._approx.get((n, i))
        if found is None:
            found = self._approx[n, i] = CantorPoint(self.approximant_word(n, i), "0")
        return found

    def approximant_word(self, n: int, i: int) -> str:
        """Approximant (n, i) before its zero tail: lead and tag, as recognition reads them."""
        if n < 0 or i < 0:
            raise FamilyError("approximant indices must be natural numbers")
        return self._lead(n, approximant_depth(n, i)) + approximant_tag(n, i)

    def x_digits(self, n: int, length: int) -> str:
        """The first ``length`` digits of x_n, read off its head: no pair is built."""
        return dense_digits(*self._x.head(n), length)

    def _lead(self, n: int, d: int) -> str:
        # The first d digits of x_n and its next digit flipped, read off the
        # x column, so an override of approximant changes no lead.
        head = self.x_digits(n, d + 1)
        return head[:d] + flip(head[d])

    def recognize(self, p: CantorPoint) -> tuple[int, int] | None:
        """Decode which approximant a point is, if any.

        Returns ``(n, i)`` exactly when ``p`` equals the i-th approximant of
        sequence n; any corruption of the tag yields ``None``.  The tag shape
        is tested before the memo: approximants end in zeros, which in
        normal form means cycle ``"0"``, and their tag ends in ``"22"``, so
        any other point is answered at once.  Points of that shape are
        decoded, and the memo keeps only those that decode to an
        approximant, keyed by prefix (the shape fixes the cycle, and a string
        caches its hash), so it maps each prefix seen back to its indices.
        """
        if p.cycle != "0" or not p.prefix.endswith("22"):
            return None
        hit = self._recog.get(p.prefix)
        if hit is None:
            hit = self._decode(p)
            if hit is not None:
                self._recog[p.prefix] = hit
        return hit

    def _decode(self, p: CantorPoint) -> tuple[int, int] | None:
        # Called on tag-shaped points only: cycle "0" and a prefix ending in
        # "22".  The i-run holds no "22", so the separator is the last "22"
        # before the final one, at top, and the run after it fixes i.  A tag
        # has a "2" before its separator: testing it first is a cheap reject.
        s = p.prefix
        top = s.rfind("22", 0, -2)
        run = s[top + 2 : -2]
        i = len(run) >> 1
        t = top - i - 4
        if t < 0 or s[top - 1] != "2" or run != "02" * i:
            return None
        # Sequence n leaves d + 2 digits before its n-run, d its depth: the
        # depth digits, the flipped digit and a "2".  So 2n + ceil_log3(n + 1)
        # = t, whose left side rises strictly in n.  As n <= t / 2, its
        # ceil_log3 is c or c - 1 for c = ceil_log3(t // 2 + 1), and the
        # parity of t - c picks which.
        n = (t - ceil_log3(t // 2 + 1) + 1) // 2
        d = top - 2 * n - 2
        if s[d + 2 : top] != "02" * n or ceil_log3(n + 1) != t - 2 * n:
            return None
        if s.startswith(self._lead(n, d) + "2"):
            return n, i
        return None

    # -- base enumeration -------------------------------------------------

    def base_word(self, n: int) -> str:
        """Word of the base cylinder of sequence n; the n-th y point extends it."""
        if n < 0:
            raise FamilyError("base index must be a natural number")
        while n not in self._idx2word:
            self._sweep_step()
        word = self._idx2word[n]
        self._known(word, n)
        return word

    def base_index(self, word: str) -> int:
        """Index of the sequence whose base is the given nonempty word."""
        if not word:
            raise FamilyError("the whole-space cylinder is never a base")
        check_digits(word)
        rank = lenlex_rank(word)
        while word not in self._word2idx and self._sweep < rank:
            self._sweep_step()
        # Of the waiting words below it, only a prefix can take an index it
        # needs: those first fit, shortest first, and then the word itself.
        for length in range(1, len(word) + 1):
            prefix = word[:length]
            if prefix not in self._word2idx:
                self._assign(self._first_fit(prefix), prefix)
        n = self._word2idx[word]
        self._known(word, n)
        return n

    def _assign(self, n: int, word: str) -> None:
        self._idx2word[n] = word
        self._word2idx[word] = n

    def _known(self, word: str, n: int) -> None:
        # The back and forth knows (word, n) after step min(rank - 1, n).
        if n >= self._enum_step:
            self._enum_step = max(self._enum_step, min(lenlex_rank(word), n + 1))

    def _sweep_step(self) -> None:
        # Index t, if free, takes the shortest prefix of y_t no index holds.
        # Every prefix of word 0^w shorter than its reach is held already.
        t = self._sweep
        self._sweep += 1
        if t in self._idx2word:
            return
        word, k = self._y.head(t)
        end = len(word) + k  # where the head word 0^k ends and the cycle starts
        stream = word + "0" * k + DENSE_CYCLE
        length = min(self._reach.get(word, 1), end + 1)
        while stream[:length] in self._word2idx:
            length += 1
            if length > len(stream):
                stream += DENSE_CYCLE
        self._reach[word] = min(length, end) + 1
        self._assign(t, stream[:length])

    def _first_fit(self, w: str) -> int:
        # Least unassigned index whose y point starts with w.  Pair T(s) + j,
        # T(s) = s(s+1)/2, has y rank j and point lenlex_word(j) 0^pad (20)^w.
        # It holds w when its word extends w: the ranks (R+1)2^k - 1 to
        # (R+2)2^k - 2 for R = rank(w), k >= 0.  Or when its word is a
        # proper prefix u of w = u 0^a r, a >= 1, r a prefix of the cycle:
        # at pad == a if r is nonempty, at pad >= a if not.  The diagonals
        # are walked in index order from the least such rank.  A rank's pad
        # starts at 1 and rises on each diagonal, so it is at least s - j + 1:
        # a head is read only when that bound leaves the test open, and a
        # prefix with an exact a is dropped once the bound passes a.
        top, cands = lenlex_rank(w), []
        for i in range(len(w)):
            r = w[i:].lstrip("0")
            if len(r) < len(w) - i and (DENSE_CYCLE * len(r)).startswith(r):
                cands.append((lenlex_rank(w[:i]), len(w) - i - len(r), r != ""))
        assigned, s = self._idx2word, cands[0][0] if cands else top
        while True:
            base = s * (s + 1) // 2
            for cand in [c for c in cands if c[0] <= s]:
                j, a, exact = cand
                n, floor = base + j, s - j + 1
                if exact and floor > a:
                    cands.remove(cand)
                elif n not in assigned:
                    pad = a if floor >= a and not exact else self._y.head(n)[1]
                    if pad == a or pad > a and not exact:
                        return n
            lo, width = top, 1
            while lo <= s:
                for n in range(base + lo, base + min(lo + width - 1, s) + 1):
                    if n not in assigned:
                        return n
                lo, width = 2 * lo + 1, 2 * width
            s = s + 1 if cands else max(s + 1, top)

    def enumeration_steps(self) -> int:
        return self._enum_step

    # -- the punctured square ---------------------------------------------

    def in_x(self, x: CantorPoint, y: CantorPoint) -> bool:
        """Membership of (x, y) in the punctured square."""
        hit = self.recognize(x)
        if hit is None:
            return True
        return not y.starts_with(self.base_word(hit[0]))

    # -- export -----------------------------------------------------------

    def export(self, n_max: int, i_max: int) -> dict:
        """Deterministic, diffable description of the family window."""
        pairs = [
            {"n": n, "a": str(self.dense_pair(n).x), "b": str(self.dense_pair(n).y)}
            for n in range(n_max)
        ]
        approx = [
            {
                "n": n,
                "i": i,
                "point": str(self.approximant(n, i)),
                "D": approximant_depth(n, i),
            }
            for n in range(n_max)
            for i in range(i_max)
        ]
        table = [{"n": n, "word": self.base_word(n)} for n in range(n_max)]
        return {
            "schema_version": SCHEMA_VERSION,
            "scheme_params": scheme_params(),
            "dense_pairs": pairs,
            "approximants": approx,
            "enumeration": table,
        }
