"""Exact word arithmetic: points, cylinders, clopen algebra."""

import dataclasses
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorproj import (
    CantorPoint,
    ClopenSet,
    PieceError,
    WordError,
    all_words,
    parse_clopen,
    parse_point,
    parse_rect_union,
    project_union,
    repr_point,
)
from cantorproj.oracle import (
    cantor_stage,
    clopen_cover,
    normal_point,
    representatives,
    scan_member,
)
from cantorproj.suites import clopen_antichains, probe_pool
from cantorproj import words
from cantorproj.words import (
    WHOLE_SPACE,
    distance,
    flip,
    separation_depth,
)

ZERO = CantorPoint("", "0")

words_st = st.text(alphabet="02", max_size=8)
cycles_st = st.text(alphabet="02", min_size=1, max_size=4)
points_st = st.builds(CantorPoint, words_st, cycles_st)
clopen_st = st.builds(
    lambda ws: ClopenSet(tuple(ws)),
    st.lists(st.text(alphabet="02", max_size=6), max_size=8),
)

# The inputs of test_normal_form_property, as the sets they build.  Each
# has depth at most 6: a longer word there extends or is the sibling of a
# word of a depth-6 set, and normalises away.
sets_st = st.one_of(
    clopen_st,
    st.one_of(
        st.lists(st.text(alphabet="02", max_size=5), max_size=10),
        clopen_st.map(lambda c: list(c.words) + [w + "0" for w in c.words]),
        clopen_st.map(lambda c: [w + d for w in c.words for d in "02"]),
        clopen_st.map(lambda c: [w for w in c.words for _ in "02"]),
        st.tuples(clopen_st, clopen_st).map(lambda ab: list(ab[0].words + ab[1].words)),
    ).map(lambda ws: ClopenSet(tuple(ws))),
)

COMMON = settings(max_examples=120)
# Parser fuzz: any text over the literals' characters plus "1" and a space,
# or text shaped like a literal, so that both the parses and the rejections
# are reached.
LITERAL_TEXT = st.text(alphabet="02^()x;,ε1 ", max_size=16)
POINT_TEXT = st.builds("{}^({})".format, st.text("021 ", max_size=5), st.text("02", max_size=4))
_CLOPEN_TEXT = st.lists(
    st.sampled_from(["ε", "0", "2", "20", " 02 ", "1", ""]), min_size=1, max_size=2
)
UNION_TEXT = st.lists(
    st.builds("{}x{}".format, _CLOPEN_TEXT.map(",".join), _CLOPEN_TEXT.map(",".join)),
    min_size=1, max_size=2,
).map(";".join)


def nested_intersect(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    """The quadratic definition: the longer word of every related pair."""
    return ClopenSet(
        tuple(max(u, v) for u in a.words for v in b.words if u.startswith(v) or v.startswith(u))
    )


def assert_normal_form(out: tuple[str, ...]) -> None:
    """Sorted, a prefix antichain with no sibling pair, and kept by the pass."""
    assert ClopenSet(out).words == out
    assert all(u < v for u, v in zip(out, out[1:]))
    assert not any(v.startswith(u) for u in out for v in out if u != v)
    assert not any(w and w[:-1] + flip(w[-1]) in out for w in out)


def digit_sum_oracle(p: CantorPoint, n: int = 40) -> Fraction:
    return sum(Fraction(int(d), 3 ** (k + 1)) for k, d in enumerate(p.digits(n)))


def _digit_sum(word: str) -> Fraction:
    return sum(Fraction(int(d), 3 ** (k + 1)) for k, d in enumerate(word))


def exact_value_oracle(p: CantorPoint) -> Fraction:
    """The value from the digits alone: the prefix's digit sum plus 3^-m times
    the cycle's, summed over every repeat by the geometric series 3^c/(3^c - 1)."""
    m, c = len(p.prefix), len(p.cycle)
    return _digit_sum(p.prefix) + Fraction(1, 3**m) * _digit_sum(p.cycle) * Fraction(
        3**c, 3**c - 1
    )


class TestPointValues:
    def test_frozen_values(self):
        assert CantorPoint("", "0").value() == 0
        assert CantorPoint("2", "0").value() == Fraction(2, 3)
        assert CantorPoint("", "02").value() == Fraction(1, 4)
        assert CantorPoint("", "20").value() == Fraction(3, 4)
        assert CantorPoint("", "2").value() == 1
        assert CantorPoint("02", "0").value() == Fraction(2, 9)

    def test_zero_point(self):
        assert ZERO.value() == 0
        assert CantorPoint("000", "0") == ZERO == parse_point("^(0)") == repr_point("")

    @COMMON
    @given(points_st)
    def test_value_matches_digit_stream(self, p):
        assert abs(p.value() - digit_sum_oracle(p)) <= Fraction(1, 3**40)

    @COMMON
    @given(points_st, points_st)
    def test_equality_iff_value(self, p, q):
        assert (p == q) == (p.value() == q.value())
        assert (p == q) == (p.digits(60) == q.digits(60))

    def test_rejects_bad_digits(self):
        with pytest.raises(WordError):
            CantorPoint("1", "0")
        with pytest.raises(WordError):
            CantorPoint("0", "")


class TestNormalForm:
    def test_unrolled_cycle_collapses(self):
        assert CantorPoint("", "0202") == CantorPoint("", "02")
        assert CantorPoint("0", "2020") == CantorPoint("0", "20")

    def test_prefix_absorption(self):
        # 0.00 (20)^w == 0.0 (02)^w, one digit popped, cycle rotated
        assert CantorPoint("00", "20") == CantorPoint("0", "02")
        assert CantorPoint("0202", "02") == CantorPoint("", "02")
        assert CantorPoint("20", "20") == CantorPoint("", "20")

    def test_canonical_fields(self):
        p = CantorPoint("00", "20")
        assert (p.prefix, p.cycle) == ("0", "02")

    @COMMON
    @given(points_st, st.integers(min_value=1, max_value=3))
    def test_unrolling_invariant(self, p, k):
        assert CantorPoint(p.prefix + p.cycle * k, p.cycle) == p

    @COMMON
    @given(points_st)
    def test_parse_roundtrip(self, p):
        assert parse_point(str(p)) == p

    @COMMON
    @given(
        st.lists(
            st.tuples(st.sampled_from("02"), st.integers(min_value=0, max_value=40)),
            max_size=5,
        ).map(lambda runs: "".join(d * k for d, k in runs)),
        cycles_st,
    )
    def test_matches_digit_by_digit_strip(self, prefix, cycle):
        # Long runs of one digit exercise the one-digit-cycle strip.
        p = CantorPoint(prefix, cycle)
        assert (p.prefix, p.cycle) == normal_point(prefix, cycle)

    @COMMON
    @given(
        words_st,
        st.text(alphabet="02", min_size=2, max_size=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=3),
    )
    def test_matches_strip_on_periodic_runs(self, head, cycle, shift, reps, cut):
        # A long run of a rotated cycle, cut short at either end, makes the
        # strip take whole copies and then a partial one.
        turned = cycle[shift % len(cycle) :] + cycle[: shift % len(cycle)]
        run = (turned * reps)[cut:]
        p = CantorPoint(head + run, cycle)
        assert (p.prefix, p.cycle) == normal_point(head + run, cycle)

    def test_long_periodic_prefix(self):
        # Linear in the prefix: 200k blocks strip in one pass.
        p = CantorPoint("02" * 200_000, "02")
        assert str(p) == "^(02)"
        q = CantorPoint("2" + "02" * 200_000 + "0", "20")
        assert (q.prefix, q.cycle) == ("", "20")

    @pytest.mark.parametrize(
        "prefix, cycle",
        [("2" + "0" * 1000, "0"), ("00000", "00"), ("0202", "02")],
    )
    def test_strip_named_cases(self, prefix, cycle):
        p = CantorPoint(prefix, cycle)
        assert (p.prefix, p.cycle) == normal_point(prefix, cycle)

    def test_slotted(self):
        assert not hasattr(CantorPoint("02", "20"), "__dict__")

    @staticmethod
    def reference(prefix, cycle):
        # The two-pass normal form the constructor replaced: validate both
        # words, cut the cycle to its primitive period, then strip and rotate.
        for word in (prefix, cycle):
            if word.strip("02"):
                raise WordError(f"digits must come from {{0, 2}}: {word!r}")
        if not cycle:
            raise WordError("cycle must be nonempty")
        cyc = cycle[: (cycle + cycle).index(cycle, 1)]
        pre = prefix
        if len(cyc) == 1:
            return pre.rstrip(cyc), cyc
        c, end = len(cyc), len(pre)
        while pre.endswith(cyc, 0, end):
            end -= c
        r = 0
        while r < end and pre[end - 1 - r] == cyc[c - 1 - r]:
            r += 1
        return pre[: end - r], cyc[c - r :] + cyc[: c - r]

    @COMMON
    @given(
        st.text(alphabet="02", max_size=12),
        st.one_of(st.sampled_from(["0", "2"]), cycles_st),
    )
    def test_matches_reference_normal_form(self, prefix, cycle):
        p = CantorPoint(prefix, cycle)
        assert (p.prefix, p.cycle) == self.reference(prefix, cycle)

    def test_frozen_value(self):
        p = CantorPoint("20", "0")
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.prefix = "2"
        assert p == CantorPoint(prefix="2")
        assert hash(p) == hash(CantorPoint(prefix="2"))
        assert repr(p) == "CantorPoint(prefix='2', cycle='0')"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CantorPoint("1", "0"), "digits must come from {0, 2}: '1'"),
            (lambda: CantorPoint("0", "1"), "digits must come from {0, 2}: '1'"),
            (lambda: CantorPoint("0", ""), "cycle must be nonempty"),
            (lambda: CantorPoint("1", ""), "digits must come from {0, 2}: '1'"),
            (lambda: CantorPoint("0", "21"), "digits must come from {0, 2}: '21'"),
            (lambda: repr_point("1"), "digits must come from {0, 2}: '1'"),
            (lambda: parse_point("^()"), "cycle must be nonempty"),
            (lambda: flip("1"), "not a digit: '1'"),
            (lambda: cantor_stage(-1), "stage index must be a natural number"),
            (lambda: ClopenSet(()).diam(), "diameter of the empty set"),
            (lambda: ClopenSet(()).common_prefix(), "common prefix of the empty set"),
        ],
    )
    def test_error_messages(self, build, message):
        with pytest.raises(WordError) as err:
            build()
        assert str(err.value) == message


class TestDistance:
    def test_zero_iff_equal(self):
        p = CantorPoint("02", "20")
        assert distance(p, p) == 0
        assert distance(p, ZERO) > 0

    @COMMON
    @given(points_st, points_st)
    def test_symmetry(self, p, q):
        assert distance(p, q) == distance(q, p)

    @COMMON
    @given(
        st.builds(CantorPoint, st.text(alphabet="02", max_size=40), cycles_st),
        points_st,
    )
    def test_value_and_distance_are_exact(self, p, q):
        assert p.value() == exact_value_oracle(p)
        assert q.value() == exact_value_oracle(q)
        assert distance(p, q) == abs(exact_value_oracle(p) - exact_value_oracle(q))

    def test_value_and_distance_build_one_fraction_each(self, work):
        # Work count: each reads the unreduced ratios and normalises once.
        work.watch(Fraction, "__new__", "fractions")
        p, q = CantorPoint("02", "20"), CantorPoint("2", "002")
        v = p.value()
        assert work == {"fractions": 1}
        d = distance(p, q)
        assert work == {"fractions": 2}
        assert (v, d) == (Fraction(11, 36), abs(v - q.value()))

    def test_separation_depth_frozen(self):
        p = CantorPoint("", "02")  # 0.020202...
        q = CantorPoint("0", "02")  # 0.002020...
        k = separation_depth(p, q)
        assert k == 1
        assert p.digits(k) == q.digits(k)
        assert p.digits(k + 1) != q.digits(k + 1)

    @COMMON
    @given(points_st, points_st)
    def test_separation_depth_splits(self, p, q):
        if p == q:
            with pytest.raises(Exception):
                separation_depth(p, q)
        else:
            k = separation_depth(p, q)
            assert p.digits(k) == q.digits(k) and p.digits(k + 1) != q.digits(k + 1)

    @COMMON
    @given(points_st, points_st)
    def test_separation_depth_is_the_first_differing_digit(self, p, q):
        # The common-prefix length of the two digit words against a plain
        # digit loop; unequal points differ within their prefixes and a
        # common period.
        if p != q:
            k = next(k for k in range(100) if p.digits(k + 1) != q.digits(k + 1))
            assert separation_depth(p, q) == k


def cylinder_ends(word):
    # A cylinder's interval in [0, 1]: its least and greatest points' values.
    return CantorPoint(word, "0").value(), CantorPoint(word, "2").value()


class TestCylinders:
    def test_interval_oracles(self):
        assert cylinder_ends("") == (0, 1)
        assert cylinder_ends("0")[1] == Fraction(1, 3)
        assert cylinder_ends("2")[0] == Fraction(2, 3)
        assert cylinder_ends("00")[1] == Fraction(1, 9)
        assert cylinder_ends("20") == (Fraction(2, 3), Fraction(7, 9))

    @COMMON
    @given(st.text(alphabet="02", max_size=10))
    def test_interval_length(self, w):
        lo, hi = cylinder_ends(w)
        assert hi - lo == Fraction(1, 3 ** len(w))

    @COMMON
    @given(points_st, st.text(alphabet="02", max_size=6))
    def test_membership_matches_interval(self, p, w):
        lo, hi = cylinder_ends(w)
        assert p.starts_with(w) == (lo <= p.value() <= hi)

    def test_stage_two_frozen(self):
        assert cantor_stage(2) == [
            (Fraction(0), Fraction(1, 9)),
            (Fraction(2, 9), Fraction(1, 3)),
            (Fraction(2, 3), Fraction(7, 9)),
            (Fraction(8, 9), Fraction(1)),
        ]
        assert cantor_stage(2) == [cylinder_ends(w) for w in all_words(2)]

    def test_stage_nesting(self):
        for n in range(4):
            outer = cantor_stage(n)
            for lo, hi in cantor_stage(n + 1):
                assert any(a <= lo and hi <= b for a, b in outer)

    def test_all_words(self):
        assert all_words(0) == ("",)
        assert all_words(2) == ("00", "02", "20", "22")


class TestClopenAlgebra:
    def test_sibling_merge(self):
        assert ClopenSet(("00", "02")).words == ("0",)
        assert ClopenSet(("0", "2")).words == ("",)

    def test_prefix_absorption(self):
        assert ClopenSet(("0", "00")).words == ("0",)

    def test_complement_frozen(self):
        assert ClopenSet(("00",)).complement().words == ("02", "2")
        assert ClopenSet(("",)).complement().words == ()
        assert ClopenSet(()).complement().words == ("",)

    def test_complement_of_a_long_word(self):
        # One loop over the word's digits, no recursion: 0^3000 has the 3,000 gaps 0^k 2.
        word = ClopenSet(("0" * 3000,))
        comp = word.complement()
        assert set(comp.words) == {"0" * k + "2" for k in range(3000)}
        assert comp.union(word).words == ("",)
        assert comp.intersect(word).words == ()

    def test_complement_peak_memory_is_about_its_output(self):
        # One word of length L has L gap words of lengths 1..L, so the output
        # alone is quadratic; building it holds little beyond the output.
        word = ClopenSet(("0" * 6000,))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            comp = word.complement()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chars = sum(map(len, comp.words))
        assert chars == 6000 * 6001 // 2
        assert peak <= 1.3 * chars

    def test_diam(self):
        assert ClopenSet(("",)).diam() == 1
        assert ClopenSet(("00",)).diam() == Fraction(1, 9)
        # span from the left edge of [00] to the right edge of [2]
        assert ClopenSet(("00", "2")).diam() == 1
        # Multi-word sets against the per-word max and min: every set of
        # depth-3 cells, whose normal forms mix depths, and deeper words.
        cells = all_words(3)
        sets = [
            ClopenSet(tuple(c for j, c in enumerate(cells) if mask >> j & 1))
            for mask in range(1, 2 ** len(cells))
        ]
        sets += [ClopenSet(("0000002", "02", "222220")), ClopenSet(("2000", "202", "2220"))]
        for s in sets:
            spans = [cylinder_ends(w) for w in s.words]
            assert s.diam() == max(hi for _, hi in spans) - min(lo for lo, _ in spans)

    def test_diam_is_the_span_of_its_end_cylinders(self):
        # The law diam reads off integers: from the left end of the first
        # word's cylinder to the right end of the last word's, both read
        # here as point values.  Every set of depth 3, then seeded pairs of
        # words up to 2,000 digits, whose ends are far apart in length.
        def law(s):
            return cylinder_ends(s.words[-1])[1] - cylinder_ends(s.words[0])[0]

        for s in clopen_antichains(3):
            assert s.diam() == law(s), s
        rng = random.Random(2_000)
        for _ in range(200):
            u, v = ("".join(rng.choices("02", k=rng.randint(0, 2_000))) for _ in range(2))
            s = ClopenSet((u, v))
            assert s.diam() == law(s), (len(u), len(v))
        with pytest.raises(WordError):
            ClopenSet.diam(ClopenSet(()))

    @COMMON
    @given(clopen_st, clopen_st)
    def test_union_membership(self, a, b):
        p = CantorPoint("02", "20")
        assert a.union(b).member(p) == (a.member(p) or b.member(p))

    @COMMON
    @given(clopen_st, clopen_st, points_st)
    def test_boolean_laws(self, a, b, p):
        assert a.union(b).complement() == a.complement().intersect(b.complement())
        assert a.complement().complement() == a
        assert a.minus(b).member(p) == (a.member(p) and not b.member(p))
        assert a.subset(a.union(b))
        assert a.intersect(b).subset(a)

    @COMMON
    @given(clopen_st, points_st)
    def test_member_matches_scan(self, s, p):
        # Probes whose lead equals a word, extends it, or sits beside it.
        probes = [p, ZERO, CantorPoint("", "2")]
        for w in s.words:
            probes += [repr_point(w), CantorPoint(w, "2"), repr_point(w[:-1])]
            if w:
                probes.append(CantorPoint(w[:-1] + flip(w[-1]), "2"))
        for q in probes:
            assert s.member(q) == scan_member(s, q), (s, q)

    @COMMON
    @given(clopen_st, st.text(alphabet="02", max_size=10), cycles_st, st.integers(0, 7))
    def test_member_matches_prefix_test_around_the_depth(self, s, base, cycle, pick):
        # Normal-form prefixes one shorter than the depth, equal to it and
        # longer, so both the bisected prefix and the digits fallback are
        # reached; the base may start with a word of the set.
        if s.words:
            base = s.words[pick % len(s.words)] + base
        for n in {max(0, s.depth - 1), s.depth, s.depth + 1, s.depth + 3}:
            head = (base + "0" * n)[: n - 1] + flip(cycle[-1]) if n else ""
            p = CantorPoint(head, cycle)
            assert len(p.prefix) == n
            assert s.member(p) == any(p.starts_with(w) for w in s.words), (s, p)

    def test_member_empty_set(self):
        for q in (ZERO, CantorPoint("", "2"), CantorPoint("02", "20")):
            assert not ClopenSet(()).member(q)
            assert not scan_member(ClopenSet(()), q)

    def test_member_whole_space_by_value(self, fam):
        # The identity tests the words, not the object: an image hull is a
        # set of its own, equal to the whole space but not the same object,
        # and it holds every point, as the scan finds too.
        hull = project_union(fam, parse_rect_union("0 x ε; 2 x ε")).hull
        assert hull == ClopenSet(("",)) and hull is not WHOLE_SPACE
        probes = probe_pool(fam, random.Random(34), 60)
        probes += [q for _, q in representatives(6)]
        for q in probes:
            assert hull.member(q) and scan_member(hull, q), q

    def test_depth_is_lazy_and_kept(self):
        s = ClopenSet(("00", "020", "2"))
        assert "depth" not in vars(s)
        assert s.depth == 3 and vars(s)["depth"] == 3
        assert s == ClopenSet(("2", "00", "020")) and "depth" not in repr(s)

    @COMMON
    @given(clopen_st, clopen_st)
    def test_subset_is_minus_empty(self, a, b):
        assert a.subset(b) == a.minus(b).is_empty()

    @COMMON
    @given(st.one_of(clopen_st, st.sampled_from((ClopenSet(()), WHOLE_SPACE))),
           st.text(alphabet="02", max_size=8))
    def test_holds_word_is_cylinder_containment(self, s, w):
        # Words that are a word of the set, extend one, or sit beside one.
        probes = [w, ""] + [u + w for u in s.words] + [u[:-1] for u in s.words if u]
        for v in probes:
            assert s.holds_word(v) == ClopenSet((v,)).subset(s), (s, v)

    def test_holds_word_answers_the_identities_by_value(self, monkeypatch):
        # Work count: ∅ and Ω, the latter rebuilt as a set of its own, are
        # answered before any bisect, as member answers them.
        def no_bisect(ws, s):
            raise AssertionError("bisected")

        monkeypatch.setattr(words, "_has_prefix", no_bisect)
        for w in ("", "0", "2202"):
            assert not ClopenSet(()).holds_word(w)
            assert WHOLE_SPACE.holds_word(w) and ClopenSet(("0", "2")).holds_word(w)

    @COMMON
    @given(
        st.one_of(
            st.lists(st.text(alphabet="02", max_size=5), max_size=10),
            clopen_st.map(lambda c: list(c.words)),
            clopen_st.map(lambda c: list(c.words) + [w + "0" for w in c.words]),
            clopen_st.map(lambda c: [w + d for w in c.words for d in "02"]),
            clopen_st.map(lambda c: [w for w in c.words for _ in "02"]),
            st.tuples(clopen_st, clopen_st).map(lambda ab: list(ab[0].words + ab[1].words)),
        )
    )
    def test_normal_form_property(self, ws):
        # Inputs: arbitrary lists, normal forms, normal forms plus
        # extensions, sorted lists made of sibling pairs or duplicates, and
        # two normal forms concatenated, as ``union`` passes them.
        out = ClopenSet(tuple(ws)).words
        assert list(out) == sorted(set(out))
        assert not any(b.startswith(a) for a in out for b in out if a != b)
        assert not any(w and w[:-1] + flip(w[-1]) in out for w in out)
        assert ClopenSet(out).words == out
        depth = max(map(len, ws), default=0)

        def cover(words):
            return {c for c in all_words(depth) if any(c.startswith(w) for w in words)}

        assert cover(out) == cover(ws)

    @COMMON
    @given(sets_st, sets_st)
    def test_algebra_matches_the_cover_oracle(self, a, b):
        assert a.depth <= 6 and b.depth <= 6
        cover_a, cover_b = clopen_cover(a, 6), clopen_cover(b, 6)
        assert clopen_cover(a.intersect(b), 6) == cover_a & cover_b
        assert clopen_cover(a.complement(), 6) == set(all_words(6)) - cover_a
        assert clopen_cover(a.minus(b), 6) == cover_a - cover_b
        assert a.subset(b) == (cover_a <= cover_b)
        assert a.intersect(b) == nested_intersect(a, b)

    @COMMON
    @given(sets_st, sets_st)
    def test_results_keep_the_normal_form(self, a, b):
        # intersect and complement build their results without the
        # normalising pass, so each result must already be normal.
        for r in (a.intersect(b), a.complement(), a.minus(b)):
            assert_normal_form(r.words)

    def test_identities_match_the_cover_oracle(self):
        # Every set of depth at most 3, and the empty set, against the empty
        # set and the whole space in both orders.  On these intersect hands
        # back one of its operands, with no walk and no new set.
        empty, whole = ClopenSet(()), ClopenSet(("",))
        cells = frozenset(all_words(3))
        for a in clopen_antichains(3) + [empty]:
            cover_a = clopen_cover(a, 3)
            for e, cover_e in ((empty, frozenset()), (whole, cells)):
                for x, y, cx, cy in ((a, e, cover_a, cover_e), (e, a, cover_e, cover_a)):
                    meet = x.intersect(y)
                    assert meet is x or meet is y, (x, y)
                    results = (
                        (meet, cx & cy),
                        (x.union(y), cx | cy),
                        (x.minus(y), cx - cy),
                        (x.complement(), cells - cx),
                    )
                    for r, cover in results:
                        assert clopen_cover(r, 3) == cover, (x, y, r)
                        assert_normal_form(r.words)
                    assert x.subset(y) == (cx <= cy), (x, y)

    def test_normal_tuple_kept_as_given(self):
        words = ("00", "020", "2")
        assert ClopenSet(words).words == words
        assert ClopenSet(("2", "00", "020")).words == words

    def test_parse_clopen(self):
        assert parse_clopen("ε").words == ("",)
        assert parse_clopen("00,02").words == ("0",)
        assert str(ClopenSet(())) == "∅"

    @pytest.mark.parametrize("text", ["0,", "0,,2", " , "])
    def test_parse_clopen_rejects_an_empty_word(self, text):
        # Only ε spells the whole space; an empty chunk is a typo.
        with pytest.raises(WordError):
            parse_clopen(text)

    def test_parse_rect_union_rejects_an_empty_literal(self):
        with pytest.raises(PieceError, match="^empty rectangle union literal$"):
            parse_rect_union(" ")

    def test_repr_point(self):
        assert repr_point("020") == CantorPoint("02", "0")
        assert repr_point("") == ZERO


class TestParserFuzz:
    # Every text either parses to a valid value that prints back to itself,
    # or raises the parser's own error, never another exception.

    @settings(max_examples=200)
    @given(st.one_of(LITERAL_TEXT, POINT_TEXT))
    def test_parse_point_parses_or_raises_word_error(self, text):
        try:
            p = parse_point(text)
        except WordError:
            return
        assert not (p.prefix + p.cycle).strip("02") and p.cycle
        assert parse_point(str(p)) == p

    @settings(max_examples=200)
    @given(st.one_of(LITERAL_TEXT, UNION_TEXT))
    def test_parse_rect_union_parses_or_raises_its_errors(self, text):
        try:
            u = parse_rect_union(text)
        except (WordError, PieceError):
            return
        assert u.rects and not "".join(
            w for r in u.rects for w in r.x_set.words + r.y_set.words
        ).strip("02")
        assert parse_rect_union(str(u)) == u
