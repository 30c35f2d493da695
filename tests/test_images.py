"""Exact projection images of rectangles and their removal bookkeeping."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cantorproj import (
    CantorPoint,
    ClopenSet,
    Family,
    ImageSet,
    PieceError,
    Rect,
    RectUnion,
    all_words,
    decompose,
    image_member,
    image_trace,
    parse_rect_union,
    project_union,
    repr_point,
    words,
)
from cantorproj.certify import certificate_points
from cantorproj.images import (
    ImagePiece,
    TailSet,
    adjust_open,
    canonical,
    fin_indices,
    piece_member,
    project_rect,
    removal_sequences,
    settled_index,
)
from cantorproj import oracle
from cantorproj.oracle import (
    TRACE_DEPTH,
    brute_rect_trace,
    diag_pair,
    project_rect_truncated,
    truncated_member,
)
from cantorproj.suites import _random_rect_union, probe_pool
from cantorproj.words import parse_rect

WHOLE = ClopenSet(("",))


def point_trace(fam, img, depth):
    # The trace by its definition: every depth-d representative through
    # image_member.  The reference for the structural image_trace, and the
    # per-point kernel whose work the guards below count.
    return tuple(w for w in all_words(depth) if image_member(fam, img, repr_point(w)))


class TestRectLiterals:
    def test_parse_rect(self):
        r = parse_rect("0,2 x 00")
        assert r.x_set == WHOLE and r.y_set == ClopenSet(("00",))

    def test_parse_rect_union(self):
        u = parse_rect_union("0 x 0; 2 x ε")
        assert len(u.rects) == 2
        assert u.rects[1].y_set == WHOLE

    def test_multiplication_sign(self):
        assert parse_rect("0 × 2") == parse_rect("0 x 2")

    def test_bad_literals(self):
        for text in ("", "0", "0 x", "x 0", "0 y 0", "01 x 2"):
            with pytest.raises(Exception):
                parse_rect(text)

    def test_empty_rects_dropped(self):
        u = RectUnion((Rect(ClopenSet(()), WHOLE), Rect(WHOLE, WHOLE)))
        assert len(u.rects) == 1

    def test_covers(self):
        u = parse_rect_union("0 x 2")
        assert u.covers(repr_point("00"), repr_point("22"))
        assert not u.covers(repr_point("00"), repr_point("0"))


class TestFinIndices:
    def test_frozen_small(self, fam):
        # bases: 0 -> "0", 1 -> "00", 5 -> "2" under the greedy assignment
        assert fin_indices(fam, ClopenSet(("00",))) == (0, 1)
        assert fin_indices(fam, ClopenSet(("2",))) == (5,)

    def test_whole_axis_sees_no_base(self, fam):
        assert fin_indices(fam, WHOLE) == ()

    def test_base_inclusion_characterization(self, fam):
        v = ClopenSet(("00",))
        for n in fin_indices(fam, v):
            assert v.subset(ClopenSet((fam.base_word(n),)))

    def test_empty_factor_rejected(self, fam):
        with pytest.raises(PieceError):
            fin_indices(fam, ClopenSet(()))


class TestProjectRect:
    def test_whole_square_has_no_removals(self, fam):
        piece = project_rect(fam, WHOLE, WHOLE)
        assert piece.hull == WHOLE
        assert piece.removals == ()

    def test_case_without_limit(self, fam):
        # a_0, a_1 both sit inside [0]; the window [2] x [00] removes
        # nothing visible since neither limit nor any approximant is there.
        piece = project_rect(fam, ClopenSet(("2",)), ClopenSet(("00",)))
        assert piece.hull == ClopenSet(("2",))
        assert piece.removals == ()

    def test_case_with_tail(self, fam):
        x1 = fam.dense_pair(1).x
        w = ClopenSet((x1.digits(3),))
        piece = project_rect(fam, w, ClopenSet(("00",)))
        assert piece.hull == w
        assert piece.removals == (TailSet(1, 0, frozenset()),)

    def test_deep_window_shifts_start(self, fam):
        x1 = fam.dense_pair(1).x
        w = ClopenSet((x1.digits(6),))
        piece = project_rect(fam, w, ClopenSet(("00",)))
        assert piece.removals == (TailSet(1, 3, frozenset()),)
        for i in range(3):
            assert not w.member(fam.approximant(1, i))
        assert w.member(fam.approximant(1, 3))

    def test_membership_of_tail_piece(self, fam):
        x1 = fam.dense_pair(1).x
        w = ClopenSet((x1.digits(3),))
        piece = project_rect(fam, w, ClopenSet(("00",)))
        assert piece_member(fam, piece, x1)  # the limit stays
        for i in range(10):
            assert not piece_member(fam, piece, fam.approximant(1, i))
        assert piece_member(fam, piece, repr_point(x1.digits(3)))

    def test_empty_factors_rejected(self, fam):
        with pytest.raises(PieceError):
            project_rect(fam, ClopenSet(()), WHOLE)
        with pytest.raises(PieceError):
            project_rect(fam, WHOLE, ClopenSet(()))


class TestProjectUnion:
    def test_union_restores_tail(self, fam):
        x1 = fam.dense_pair(1).x
        w = ClopenSet((x1.digits(3),))
        img1 = project_union(fam, RectUnion((Rect(w, ClopenSet(("00",))),)))
        both = RectUnion(
            (Rect(w, ClopenSet(("00",))), Rect(w, ClopenSet(("02",))))
        )
        img2 = project_union(fam, both)
        q = fam.approximant(1, 4)
        assert not image_member(fam, img1, q)
        assert image_member(fam, img2, q)

    def test_projection_builds_no_pair(self, work):
        # Work count: each removed sequence's limit is tested against the x
        # factor on its x head's digits, so no pair or dense point is built.
        fresh = Family()
        img = project_union(fresh, parse_rect_union("0 x 00; 02 x 2; ε x 2"))
        assert removal_sequences(img) == (0, 1, 5)
        assert work.sizes(fresh)["pairs"] == 0

    def test_trace_matches_membership(self, fam):
        img = project_union(fam, parse_rect_union("0 x 00"))
        trace = image_trace(fam, img, 3)
        manual = tuple(
            w
            for w in ("000", "002", "020", "022", "200", "202", "220", "222")
            if image_member(fam, img, repr_point(w))
        )
        assert tuple(trace) == manual

    def test_trace_work_guard(self, work):
        # Work counts, not wall clock, from a fresh Family through projection
        # and a depth-12 point trace of 4,096 cylinders: one point per cylinder,
        # since projection tests the limit on its x head's digits and builds
        # no dense point.  Recognition reads the
        # x digits of sequences 0 and 1 off the x column; reading their
        # points instead would build two more.  Since recognition tests
        # the tag shape before the memo, it decodes only the 2,047
        # tag-shaped points, and memoises only the three approximants among
        # them: (0, 0), (0, 1) and (1, 0).  The hull is the whole space, which
        # answers membership by value, so no point reaches the bisect.
        work.watch(Family, "_decode", "decode")
        work.watch(CantorPoint, "__init__", "point")
        work.watch(words, "_has_prefix", "bisect")
        fresh = Family()
        img = project_union(fresh, parse_rect_union("ε x 2"))
        assert len(point_trace(fresh, img, 12)) == 4096
        assert work["point"] == 4096
        assert work["decode"] <= 2048
        assert work["bisect"] == 0
        assert work.sizes(fresh)["recognitions"] <= 3

    def test_a_partial_hull_still_bisects(self, work):
        # Work count: the whole-space identity does not widen to other hulls;
        # in the point trace each of the 64 depth-6 representatives is
        # bisected against "0".
        fresh = Family()
        img = project_union(fresh, parse_rect_union("0 x 2"))
        work.watch(words, "_has_prefix", "bisect")
        assert len(point_trace(fresh, img, 6)) == 32
        assert work == {"bisect": 64}

    @pytest.mark.parametrize(
        "literal, kept, calls", [("ε x ε", 4096, 0), ("ε x 0", 4094, 4096)]
    )
    def test_recognition_only_where_a_piece_removes(self, work, literal, kept, calls):
        # Work count, not wall clock: in the point trace a piece with no
        # removal records answers from its hull alone, so only "ε x 0"
        # recognizes each cylinder once (and drops the representatives of
        # two approximants).
        work.watch(Family, "recognize")
        fresh = Family()
        img = project_union(fresh, parse_rect_union(literal))
        assert len(point_trace(fresh, img, 12)) == kept
        assert work["recognize"] == calls

    def test_structural_trace_builds_only_suspects(self, work):
        # Work counts, not wall clock: on "ε x 0" sequence 0 is the one
        # removed sequence, and only its approximants 0 and 1 have at most
        # 12 digits (8 and 11).  The trace builds and recognises those two
        # representatives and no other point; the cover gives the rest.
        fresh = Family()
        img = project_union(fresh, parse_rect_union("ε x 0"))
        work.watch(CantorPoint, "__init__", "point")
        work.watch(Family, "recognize")
        assert len(image_trace(fresh, img, 12)) == 4094
        assert work == {"point": 2, "recognize": 2}

    def test_hull_memo_outside_value(self, fam):
        literal = "002 x 00; 02 x 2; 2 x 0"
        img = project_union(fam, parse_rect_union(literal))
        fresh = project_union(fam, parse_rect_union(literal))
        before = repr(img)
        assert img.hull == ClopenSet(("002", "02", "2"))
        assert img.hull is img.hull
        assert img.outside == ClopenSet(("000",)) == img.hull.complement()
        assert img.outside is img.outside
        assert img == fresh and hash(img) == hash(fresh)
        assert repr(img) == before == repr(fresh)


class TestTailSets:
    def test_validation(self):
        with pytest.raises(Exception):
            TailSet(0, 2, frozenset({5}))  # extras must precede the start

    def test_covers_index(self):
        t = TailSet(1, 4, frozenset({0, 2}))
        assert t.covers_index(0) and not t.covers_index(1)
        assert t.covers_index(2) and t.covers_index(9)

    def test_finite_only(self):
        t = TailSet(1, None, frozenset({3}))
        assert t.covers_index(3) and not t.covers_index(4)


class TestSettledIndex:
    def test_membership_is_constant_from_it(self, fam):
        rng = random.Random(11)
        for _ in range(200):
            union = _random_rect_union(rng, 3)
            img = project_union(fam, union)
            isolated = {d.seq for d in decompose(fam, img).isolated}
            for n in removal_sequences(img):
                start = settled_index(img, n)
                seen = {
                    image_member(fam, img, fam.approximant(n, i))
                    for i in range(start, start + 6)
                }
                assert len(seen) == 1, (str(union), n)
                if n in isolated:
                    assert seen == {False}, (str(union), n)

    def test_reads_tail_starts_and_sporadic_indices(self, fam):
        # Projected images never need these two terms (their removals
        # settle by the hull depth); hand-built descriptions do.
        for ts, settled in ((TailSet(3, 10), 10), (TailSet(3, None, frozenset({7})), 8)):
            img = ImageSet((ImagePiece(WHOLE, (ts,)),))
            assert settled_index(img, 3) == settled
            before = image_member(fam, img, fam.approximant(3, settled - 1))
            assert before != image_member(fam, img, fam.approximant(3, settled))


class TestAdjustOpen:
    def test_limit_removed_from_open_part(self, fam):
        x1 = fam.dense_pair(1).x
        w = ClopenSet((x1.digits(3),))
        piece = project_rect(fam, w, ClopenSet(("00",)))
        opened = adjust_open(piece)
        assert opened.removals[0].with_limit
        assert not piece_member(fam, opened, x1)
        assert piece_member(fam, opened, repr_point(x1.digits(4)))

    def test_tails_only_where_hull_holds_limit(self, fam):
        # adjust_open marks every infinite tail, which is sound because
        # projection records one only when the hull holds the limit.
        rng = random.Random(2718)
        tails = 0
        for _ in range(200):
            for r in _random_rect_union(rng, 3).rects:
                piece = project_rect(fam, r.x_set, r.y_set)
                for ts in piece.removals:
                    held = piece.hull.member(fam.dense_pair(ts.seq).x)
                    assert (ts.start is not None) == held, (str(r), ts)
                    tails += held
                opened = adjust_open(piece)
                assert [ts.with_limit for ts in opened.removals] == [
                    ts.start is not None for ts in piece.removals
                ]
                assert adjust_open(opened) == opened
        assert tails


# Seeded unions of 1-3 rectangles whose factors have depth at most 3.
unions_st = st.builds(
    lambda seed, depth: _random_rect_union(random.Random(seed), depth),
    st.integers(0, 2**32), st.integers(1, 3),
)


@pytest.fixture(scope="module")
def canonical_probes(fam):
    pool = probe_pool(fam, random.Random(1849), 120)
    return pool + [repr_point(w) for w in all_words(4)]


class TestCanonical:
    @settings(max_examples=60)
    @given(unions_st)
    def test_agrees_with_membership(self, fam, canonical_probes, union):
        img = project_union(fam, union)
        form = canonical(fam, img)
        assert len(form.pieces) == 1 and form.hull == img.hull
        for p in canonical_probes + certificate_points(fam, img):
            assert image_member(fam, form, p) == image_member(fam, img, p), str(p)

    @settings(max_examples=60)
    @given(unions_st)
    def test_idempotent(self, fam, union):
        form = canonical(fam, project_union(fam, union))
        assert canonical(fam, form) == form

    @settings(max_examples=60)
    @given(unions_st, st.integers(0, 2))
    def test_split_rectangle_keeps_the_form(self, fam, union, pick):
        # W x V and W0 x V; W2 x V are one set of pairs, so one image.
        k = pick % len(union.rects)
        w, v = union.rects[k].x_set, union.rects[k].y_set
        halves = tuple(Rect(ClopenSet(tuple(x + d for x in w.words)), v) for d in "02")
        split = RectUnion(union.rects[:k] + halves + union.rects[k + 1:])
        assert canonical(fam, project_union(fam, split)) == canonical(
            fam, project_union(fam, union)
        )

    def test_two_descriptions_of_one_image(self, fam):
        a = project_union(fam, parse_rect_union("0 x 00; 2 x 2"))
        b = project_union(fam, parse_rect_union("00 x 00; 02 x 00; 2 x 2"))
        assert a != b
        assert canonical(fam, a) == canonical(fam, b)

    def test_held_limits_are_put_back(self, fam):
        # The open part misses its isolated limits; holding them back in
        # gives the image's form.
        img = project_union(fam, parse_rect_union("0 x 00"))
        dec = decompose(fam, img)
        held = frozenset(d.seq for d in dec.isolated)
        assert held and canonical(fam, dec.open_part) != canonical(fam, img)
        assert canonical(fam, dec.open_part, held) == canonical(fam, img)


def reference_piece_member(fam, piece, p):
    # The definition in its plain order: hull by scan, every removed limit,
    # then recognition.
    if not any(p.starts_with(w) for w in piece.hull.words):
        return False
    for ts in piece.removals:
        if ts.with_limit and p == fam.dense_pair(ts.seq).x:
            return False
    hit = fam.recognize(p)
    return hit is None or not any(
        ts.seq == hit[0] and ts.covers_index(hit[1]) for ts in piece.removals
    )


random_points_st = st.lists(
    st.builds(CantorPoint, st.text(alphabet="02", max_size=8),
              st.text(alphabet="02", min_size=1, max_size=4)),
    max_size=6,
)


def _widened(union, rng):
    # Each rectangle's first factor widened to the whole space or kept, by a coin.
    return RectUnion(tuple(
        Rect(WHOLE, r.y_set) if rng.random() < 0.5 else r for r in union.rects
    ))


class TestStructuralTrace:
    @settings(max_examples=40)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.sampled_from(("", "0", "00")),
           st.booleans(), st.booleans())
    def test_equals_the_point_loop(self, fam, faulty, seed, depth, base, opened, corrupt):
        # Unions with whole-space first factors, their adjust_open pieces, on
        # the family and on one whose approximant generator recognition ignores.
        # A second factor of "0" or "00" lies in the bases of sequences 0 and
        # 1, the only ones with approximants of at most 10 digits.
        f = faulty if corrupt else fam
        rng = random.Random(seed)
        union = _widened(_random_rect_union(rng, depth), rng)
        if base:
            union = RectUnion((Rect(WHOLE, ClopenSet((base,))),) + union.rects[1:])
        img = project_union(f, union)
        if opened:
            img = ImageSet(tuple(adjust_open(p) for p in img.pieces))
        for d in range(11):
            assert image_trace(f, img, d) == point_trace(f, img, d), (d, img)

    def test_a_removed_suspect_is_dropped(self, fam):
        img = project_union(fam, parse_rect_union("ε x 0"))
        trace = image_trace(fam, img, 12)
        missed = {fam.approximant(0, i).prefix.ljust(12, "0") for i in (0, 1)}
        assert len(trace) == 4094
        assert set(all_words(12)) - set(trace) == missed
        assert trace == point_trace(fam, img, 12)

    def test_another_piece_keeps_a_suspect(self, fam):
        # "ε x 2" removes only sequence 5, whose approximants are longer
        # than 12 digits, so it keeps both suspects of "ε x 0".
        img = project_union(fam, parse_rect_union("ε x 0; ε x 2"))
        assert removal_sequences(img) == (0, 5)
        assert image_trace(fam, img, 12) == all_words(12)


class TestPieceMemberKernel:
    @settings(max_examples=60)
    @given(unions_st, random_points_st)
    def test_matches_reference_order(self, fam, union, randoms):
        # Projected and opened pieces at the representatives one digit past
        # the hull, each removed sequence's approximants up to its settled
        # index and its limit, and random points.  Opened pieces remove
        # their limits, which only the removed-limit test can see.
        for r in union.rects:
            piece = project_rect(fam, r.x_set, r.y_set)
            img = ImageSet((piece,))
            points = [repr_point(w) for w in all_words(piece.hull.depth + 1)] + randoms
            for n in removal_sequences(img):
                points += [fam.approximant(n, i) for i in range(settled_index(img, n) + 1)]
                points += [fam.dense_pair(n).x, fam.dense_pair(n + 1).x]
            for q in (piece, adjust_open(piece)):
                for p in points:
                    assert piece_member(fam, q, p) == reference_piece_member(fam, q, p), (
                        str(r), q.removals, str(p))

    @pytest.mark.parametrize("literal, kept", [("ε x 0", 1023), ("ε x ε", 1024)])
    def test_representatives_skip_digits_check_and_hash(self, work, literal, kept):
        # Work counts, not wall clock: a representative's prefix is its lead
        # for a depth-0 hull, its digits need no check, and the recognition
        # memo hashes its prefix, so none of these is called during a point
        # trace.
        fresh = Family()
        img = project_union(fresh, parse_rect_union(literal))
        work.watch(CantorPoint, "digits")
        work.watch(words, "check_digits")
        work.watch(CantorPoint, "__hash__")
        assert len(point_trace(fresh, img, 10)) == kept
        assert work == {}


class TestBruteTraceLookup:
    def test_a_fiber_at_a_representative_is_looked_up(self, fam, monkeypatch):
        # No depth-6 representative is an approximant, so the real columns
        # never meet the brute trace's points.  Columns put at the
        # representative of "002000" drop it exactly when every y of the
        # second factor lies in one of their bases.
        real, x = oracle.removed_fibers, repr_point("002000")
        assert x not in {point for point, _ in real(fam, 20)}
        full = all_words(TRACE_DEPTH)
        without = tuple(w for w in full if w != "002000")
        cases = [
            ([], WHOLE, full),
            ([(x, "0")], ClopenSet(("0",)), without),
            ([(x, "0")], ClopenSet(("00",)), without),
            ([(x, "0")], WHOLE, full),
            ([(x, "00")], ClopenSet(("0",)), full),
            ([(x, "0"), (x, "2")], WHOLE, without),
        ]
        for extra, y_set, want in cases:
            monkeypatch.setattr(
                oracle, "removed_fibers", lambda f, c, extra=extra: real(f, c) + extra
            )
            assert brute_rect_trace(fam, WHOLE, y_set, 20) == want, (extra, y_set)


class TestAgainstTruncatedOracle:
    def test_pointwise_agreement(self, fam):
        unions = [
            parse_rect_union("0 x 00"),
            parse_rect_union("002 x 00; 002 x 02"),
            parse_rect_union("ε x ε"),
            parse_rect_union("2 x 0; 0 x 2"),
            parse_rect_union("00 x 20; 22 x ε"),
        ]
        truncation = 40
        shallow = {
            (n, i)
            for t in range(truncation)
            for (n, i) in [diag_pair(t)]
        }
        probes = [repr_point(w) for w in ("", "0", "2", "00", "002", "020", "22")]
        probes += [fam.dense_pair(n).x for n in range(12)]
        probes += [
            fam.approximant(n, i)
            for (n, i) in sorted(shallow)
            if n <= 6 and i <= 6
        ]
        for union in unions:
            img = project_union(fam, union)
            approx = [project_rect_truncated(fam, r.x_set, r.y_set, truncation) for r in union.rects]
            for p in probes:
                got = image_member(fam, img, p)
                ref = any(truncated_member(a, p) for a in approx)
                rec = fam.recognize(p)
                if rec is None or rec in shallow:
                    assert got == ref, (str(union), str(p))
