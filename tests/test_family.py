"""Dense pairs, tagged approximants, recognition, base enumeration."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorproj import (
    CantorPoint,
    Family,
    FamilyError,
    all_words,
    image_trace,
    parse_rect_union,
    project_union,
    repr_point,
)
from cantorproj.cli import main as cli_main
from cantorproj.family import (
    approximant_depth,
    approximant_tag,
    ceil_log3,
    dense_digits,
    dense_key,
    lenlex_rank,
    lenlex_word,
    stable_index,
)
from cantorproj.oracle import (
    decode_tag,
    diag_pair,
    first_fit_bases,
    removed_fibers,
    scanned_dense_pairs,
)
from cantorproj.words import distance, flip

COMMON = settings(max_examples=80)


@pytest.fixture(scope="module")
def scanned():
    return scanned_dense_pairs(2000)


class TestHelpers:
    def test_diag_pair_frozen(self):
        seen = [diag_pair(t) for t in range(6)]
        assert seen == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_diag_pair_total(self):
        seen = {diag_pair(t) for t in range(231)}
        assert len(seen) == 231
        assert all((a, b) in seen for a in range(10) for b in range(10) if a + b <= 20)

    def test_lenlex_frozen(self):
        got = [lenlex_word(r) for r in range(8)]
        assert got == ["", "0", "2", "00", "02", "20", "22", "000"]

    def test_lenlex_rank_inverts_lenlex_word(self):
        assert [lenlex_rank(lenlex_word(r)) for r in range(2000)] == list(range(2000))

    def test_lenlex_orders_by_length_then_value(self):
        # Every word of length <= 12, by length and then by value.
        expect = [w for length in range(13) for w in all_words(length)]
        assert [lenlex_word(r) for r in range(len(expect))] == expect

    def test_ceil_log3(self):
        expect = {1: 0, 2: 1, 3: 1, 4: 2, 9: 2, 10: 3, 27: 3, 28: 4}
        for m, e in expect.items():
            assert ceil_log3(m) == e

    def test_depth_rule(self):
        assert approximant_depth(0, 0) == 2
        for n in range(12):
            for i in range(6):
                assert approximant_depth(n, i + 1) == approximant_depth(n, i) + 1

    def test_stable_index_law(self, fam):
        # Read off real points: the approximants below d + 2 that start with
        # the limit's first d digits are exactly those from stable_index on.
        for n in range(60):
            x = fam.dense_pair(n).x
            for d in range(30):
                head = x.digits(d)
                hits = [
                    i for i in range(d + 2)
                    if fam.approximant(n, i).starts_with(head)
                ]
                assert hits == list(range(stable_index(n, d), d + 2)), (n, d)


class TestDensePairs:
    def test_deterministic_across_instances(self):
        a, b = Family(), Family()
        for n in range(60):
            assert a.dense_pair(n) == b.dense_pair(n)

    def test_distinct_within_axis(self, fam):
        xs = [fam.dense_pair(n).x for n in range(300)]
        ys = [fam.dense_pair(n).y for n in range(300)]
        assert len(set(xs)) == 300
        assert len(set(ys)) == 300

    def test_stay_inside_requested_cylinder(self, fam):
        for n in range(200):
            xr, yr = diag_pair(n)
            pair = fam.dense_pair(n)
            assert pair.x.starts_with(lenlex_word(xr))
            assert pair.y.starts_with(lenlex_word(yr))

    def test_joint_density_depth_two(self, fam):
        cells = all_words(2)
        hits = {
            (u, v): None for u in cells for v in cells
        }
        for n in range(600):
            pair = fam.dense_pair(n)
            for (u, v), first in hits.items():
                if first is None and pair.x.starts_with(u) and pair.y.starts_with(v):
                    hits[(u, v)] = n
        assert all(v is not None for v in hits.values())

    def test_negative_index(self, fam):
        with pytest.raises(FamilyError):
            fam.dense_pair(-1)


class TestColumnOrder:
    """The two columns grow at different times; no order may change a result."""

    STEPS = 61

    @pytest.fixture(scope="class")
    def table(self):
        # Every index up to 60 and every word of length <= 4 is settled
        # within 61 steps of the back and forth.
        return first_fit_bases(Family(), self.STEPS)

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("base_word"), st.integers(0, STEPS - 1)),
            st.tuples(st.just("base_index"), st.text(alphabet="02", min_size=1, max_size=4)),
            st.tuples(st.just("dense_pair"), st.integers(0, 1999)),
            st.tuples(st.just("approximant"), st.integers(0, 400), st.integers(0, 8)),
            st.tuples(st.just("recognize"), st.integers(0, 400), st.integers(0, 8)),
        ),
        max_size=10,
    )

    @settings(max_examples=60)
    @given(OPS)
    def test_interleavings_match_the_oracles(self, scanned, table, ops):
        fresh = Family()
        for op, *args in ops:
            if op == "base_word":
                assert fresh.base_word(args[0]) == table[args[0]]
            elif op == "base_index":
                assert table[fresh.base_index(args[0])] == args[0]
            elif op == "dense_pair":
                pair = fresh.dense_pair(args[0])
                assert (pair.x, pair.y) == scanned[args[0]]
            else:
                n, i = args
                x, d = scanned[n][0], approximant_depth(n, i)
                body = x.digits(d) + flip(x.digits(d + 1)[d])
                want = CantorPoint(body + approximant_tag(n, i), "0")
                if op == "approximant":
                    assert fresh.approximant(n, i) == want
                else:
                    assert fresh.recognize(want) == (n, i)
                    near = CantorPoint(x.digits(d + 1) + approximant_tag(n, i), "0")
                    assert fresh.recognize(near) is None
        # Heads nobody read back must agree too.
        for column, axis in ((fresh._x, 0), (fresh._y, 1)):
            for n, (word, k) in enumerate(column.heads[: len(scanned)]):
                assert CantorPoint(word + "0" * k, "20") == scanned[n][axis]
        assert all(table[n] == w for n, w in fresh._idx2word.items())


class TestSweepOrder:
    """The sweep's answers and step count do not depend on the call order."""

    @pytest.fixture(scope="class")
    def table(self):
        # 201 steps hold every index up to 200 and every word up to rank 201;
        # TestGoldenBytes pins the base words on to index 1,599.
        return first_fit_bases(Family(), 201)

    CALLS = st.lists(
        st.one_of(
            st.tuples(st.just("base_word"), st.integers(0, 300)),
            st.tuples(st.just("base_index"), st.text(alphabet="02", min_size=1, max_size=9)),
        ),
        min_size=1,
        max_size=12,
    )

    @staticmethod
    def answer(fam, calls):
        # Each call's answer and the (word, index) pair it makes known.
        out = {}
        for op, arg in calls:
            got = getattr(fam, op)(arg)
            out[op, arg] = got, ((got, arg) if op == "base_word" else (arg, got))
        return out

    @settings(max_examples=40)
    @given(CALLS)
    def test_reversed_calls_agree(self, table, calls):
        drawn, reverse = Family(), Family()
        answers = self.answer(drawn, calls)
        assert self.answer(reverse, calls[::-1]) == answers
        # Step min(rank - 1, index) of the back and forth knows each pair.
        steps = max(min(lenlex_rank(w) - 1, n) for _, (w, n) in answers.values()) + 1
        index_of = {w: n for n, w in table.items()}
        for fam in (drawn, reverse):
            assert fam.enumeration_steps() == steps
            assert all(table[n] == w for n, w in fam._idx2word.items() if n in table)
            assert all(index_of[w] == n for w, n in fam._word2idx.items() if w in index_of)


class TestFreshnessKey:
    @staticmethod
    def point(word, k):
        return CantorPoint(word + "0" * k, "20")

    def test_names_the_stream_exactly(self):
        # Exhaustive over words of length <= 6 and pads 1..8: equal keys
        # exactly when the two dense points are equal.
        heads = [(w, k) for d in range(7) for w in all_words(d) for k in range(1, 9)]
        by_key, by_point = {}, {}
        for w, k in heads:
            by_key.setdefault(dense_key(w, k), set()).add((w, k))
            by_point.setdefault(self.point(w, k), set()).add((w, k))
        assert sorted(map(sorted, by_key.values())) == sorted(
            map(sorted, by_point.values())
        )

    @pytest.mark.parametrize(
        "a, b", [(("2", 1), ("202", 1)), (("0020202", 1), ("", 2))]
    )
    def test_cycle_absorbed_heads(self, a, b):
        # Keying before the "20" strip would tell these apart.
        assert self.point(*a) == self.point(*b)
        assert dense_key(*a) == dense_key(*b)

    def test_matches_point_keyed_scan(self, fam, scanned):
        for n, (x, y) in enumerate(scanned):
            assert (fam.dense_pair(n).x, fam.dense_pair(n).y) == (x, y)

    def test_builds_only_kept_points(self, work):
        # Work count, not wall clock: pairs build no point until a
        # coordinate is read, then one point per coordinate, kept.
        work.watch(CantorPoint, "__init__", "points")
        fresh = Family()
        fresh.dense_pair(2999)
        assert work["points"] == 0
        pairs = [fresh.dense_pair(n) for n in range(3000)]
        for pair in pairs:
            pair.x, pair.y
        assert work["points"] == 6000
        for pair in pairs:
            pair.x, pair.y
        assert work["points"] == 6000


class TestDenseDigits:
    @COMMON
    @given(
        st.text(alphabet="02", max_size=8),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["word", "pad", "boundary", "cycle"]),
        st.integers(min_value=0, max_value=12),
    )
    def test_matches_built_point(self, word, k, where, offset):
        # Lengths inside the word, inside the pad, at the pad's end and
        # past it into the cycle.
        length = {
            "word": offset % (len(word) + 1),
            "pad": len(word) + offset % (k + 1),
            "boundary": len(word) + k,
            "cycle": len(word) + k + 1 + offset,
        }[where]
        point = CantorPoint(word + "0" * k, "20")
        assert dense_digits(word, k, length) == point.digits(length)


class TestApproximants:
    @pytest.mark.parametrize("n, i", [(-1, 0), (0, -1)])
    def test_negative_indices_rejected(self, fam, n, i):
        with pytest.raises(FamilyError):
            fam.approximant(n, i)
        with pytest.raises(FamilyError):
            fam.approximant_word(n, i)

    def test_distinct_and_off_the_dense_family(self, fam):
        xs = {fam.dense_pair(n).x for n in range(100)}
        seen = {}
        for n in range(30):
            for i in range(10):
                q = fam.approximant(n, i)
                assert q not in xs
                assert q not in seen, (n, i, seen.get(q))
                seen[q] = (n, i)

    def test_strict_convergence(self, fam):
        for n in range(50):
            x = fam.dense_pair(n).x
            bound = Fraction(1, n + 1)
            last = None
            for i in range(20):
                d = distance(fam.approximant(n, i), x)
                assert 0 < d < bound
                if last is not None:
                    assert d < last
                last = d

    def test_distance_respects_depth(self, fam):
        for n in range(12):
            for i in range(8):
                d = distance(fam.approximant(n, i), fam.dense_pair(n).x)
                assert d <= Fraction(1, 3 ** approximant_depth(n, i))

    @COMMON
    @given(st.integers(0, 60), st.integers(0, 30))
    def test_word_is_the_point_s_prefix_as_recognition_reads_it(self, fam, faulty, n, i):
        # The family owns the spelling: the approximant's prefix, of
        # 3i + 2n + ceil_log3(n + 1) + 8 digits, that recognition decodes on
        # both families; an override of approximant changes no word.
        w = fam.approximant_word(n, i)
        assert w == Family().approximant(n, i).prefix
        assert len(w) == 3 * i + 2 * n + ceil_log3(n + 1) + 8
        assert faulty.approximant_word(n, i) == w != faulty.approximant(n, i).prefix
        assert fam.recognize(repr_point(w)) == faulty.recognize(repr_point(w)) == (n, i)

    def test_word_shape(self, fam):
        q = fam.approximant(1, 0)
        x = fam.dense_pair(1).x
        d = approximant_depth(1, 0)
        w = q.prefix
        assert w.startswith(x.digits(d))
        assert w[d] == flip(x.digits(d + 1)[d])
        assert w.endswith("22")
        assert q.cycle == "0"


class TestRecognition:
    def test_roundtrip(self, fam):
        for n in range(40):
            for i in range(12):
                assert fam.recognize(fam.approximant(n, i)) == (n, i)

    def test_dense_points_unrecognized(self, fam):
        for n in range(80):
            assert fam.recognize(fam.dense_pair(n).x) is None
            assert fam.recognize(fam.dense_pair(n).y) is None

    def test_shallow_representatives_unrecognized(self, fam):
        for d in range(8):
            for w in all_words(d):
                assert fam.recognize(repr_point(w)) is None

    def test_corruption_soundness(self, fam):
        # Any single-digit corruption is either rejected outright or lands
        # exactly on another generated approximant; it never misattributes.
        word = fam.approximant(3, 2).prefix
        for pos in range(len(word)):
            bad = CantorPoint(word[:pos] + flip(word[pos]) + word[pos + 1 :], "0")
            got = fam.recognize(bad)
            assert got != (3, 2)
            if got is not None:
                assert fam.approximant(*got) == bad

    def test_periodic_tails_unrecognized(self, fam):
        assert fam.recognize(CantorPoint("", "02")) is None
        assert fam.recognize(CantorPoint("0022", "20")) is None

    @staticmethod
    def corrupt(fam, n, i, how, at):
        # The prefix of approximant (n, i) with its tag damaged: one "02"
        # block dropped or added in the n or i run, one tag digit flipped,
        # or one "22" cut to "2".
        prefix = fam.approximant(n, i).prefix
        body = prefix[: len(prefix) - len(approximant_tag(n, i))]
        runs = ["02" * n, "02" * i]
        run = at % 2
        if how == "drop" and runs[run]:
            runs[run] = runs[run][2:]
        elif how == "extra":
            runs[run] += "02"
        tag = "2" + runs[0] + "22" + runs[1] + "22"
        if how == "flip":
            pos = at % len(tag)
            tag = tag[:pos] + flip(tag[pos]) + tag[pos + 1 :]
        elif how == "cut":
            tag = tag[:-1] if run else "2" + runs[0] + "2" + runs[1] + "22"
        return CantorPoint(body + tag, "0")

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4_999),
        st.integers(min_value=0, max_value=19),
        st.sampled_from(["none", "drop", "extra", "flip", "cut"]),
        st.integers(min_value=0, max_value=200),
    )
    def test_decoder_matches_slicing_oracle(self, fam, n, i, how, at):
        p = self.corrupt(fam, n, i, how, at)
        want = decode_tag(fam, p)
        if how == "none":
            assert want == (n, i)
        if want is not None:
            assert fam.approximant(*want) == p
        if p.cycle == "0" and p.prefix.endswith("22"):
            assert fam._decode(p) == want
        assert fam.recognize(p) == want

    @COMMON
    @given(st.lists(st.sampled_from(["0", "2", "02", "22"]), max_size=40))
    def test_decoder_matches_slicing_oracle_on_block_words(self, fam, blocks):
        # Any word ending in "22", not only a damaged tag: blocks of "02"
        # and "22" make runs and separators in every place, so each reject
        # path of the decoder meets words the oracle slices apart.
        p = CantorPoint("".join(blocks) + "22", "0")
        assert fam._decode(p) == decode_tag(fam, p)

    def test_decode_work_is_bounded(self):
        # Work count, not wall clock: every line event while _decode runs,
        # in its own frame and in what it calls, on an approximant of
        # sequence 30,000 whose x column is already grown.  The closed form
        # runs 85; only ceil_log3's loop grows, by one step per power of 3.
        # A walk over the n-run takes one step per block, over 60,000.
        fam = Family()
        p = fam.approximant(30_000, 7)
        lines = [0]

        def local(frame, event, arg):
            lines[0] += event == "line"
            return local

        outer = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local)
        try:
            got = fam._decode(p)
        finally:
            sys.settrace(outer)
        assert got == (30_000, 7)
        assert lines[0] <= 100

    def test_forged_tag_point_rejected(self, work):
        # 400k "02" blocks where sequence n's count goes: no n fits the
        # rest, and the linear scan decides that without building a pair.
        fresh = Family()
        p = CantorPoint("2" + "02" * 400_000 + "22" + "22", "0")
        assert fresh.recognize(p) is None
        assert work.sizes(fresh)["pairs"] == 0

    def test_forged_fitting_tag_reads_only_x_heads(self, work):
        # Work count, not wall clock: a forged "02" run that fits sequence
        # 99,993 exactly is rejected on that sequence's x digits, read off
        # the x column, with no pair, no point and no y head built.  The
        # work is smaller than building each pair, but still grows with
        # the run.
        p = CantorPoint("2" + "02" * 100_000 + "22" + "22", "0")
        work.watch(CantorPoint, "__init__", "points")
        fresh = Family()
        assert fresh.recognize(p) is None
        assert work["points"] == 0
        assert work.sizes(fresh) == {
            "x_heads": 99_994, "y_heads": 0, "pairs": 0, "approximants": 0, "recognitions": 0
        }

    def test_memo_holds_only_tag_shaped_points(self, work):
        # The memo keeps only decoded approximants, keyed by prefix, so after
        # a depth-12 trace it maps every prefix it holds back to the indices
        # of the point with that prefix and cycle "0".
        fresh = Family()
        img = project_union(fresh, parse_rect_union("0,2 x 00; 22 x ε"))
        image_trace(fresh, img, 12)
        assert work.sizes(fresh)["recognitions"] > 0
        assert all(fresh.approximant(*hit) == CantorPoint(prefix, "0")
                   for prefix, hit in fresh._recog.items())


class TestBaseEnumeration:
    def test_negative_index_rejected(self, fam):
        with pytest.raises(FamilyError):
            fam.base_word(-1)

    def test_every_word_is_some_base(self, fam):
        for d in range(1, 5):
            for w in all_words(d):
                n = fam.base_index(w)
                assert fam.base_word(n) == w

    def test_index_roundtrip(self, fam):
        for n in range(200):
            assert fam.base_index(fam.base_word(n)) == n

    def test_anchor_lies_inside_base(self, fam):
        for n in range(200):
            assert fam.dense_pair(n).y.starts_with(fam.base_word(n))

    def test_bases_injective(self):
        # The fine witness search relies on it up to the default budget.
        fam = Family()
        words = [fam.base_word(n) for n in range(10_000)]
        assert len(set(words)) == 10_000

    def test_matches_first_fit_oracle(self, fam):
        # The table after 201 steps holds every index n <= 200 (the range
        # ``check`` uses) and every word assigned on the way, both ways.
        table = first_fit_bases(fam, 201)
        assert set(range(201)) <= set(table)
        for n, w in table.items():
            assert fam.base_word(n) == w
            assert fam.base_index(w) == n

    def test_empty_word_rejected(self, fam):
        with pytest.raises(FamilyError):
            fam.base_index("")

    def test_walks_only_the_y_column(self, work):
        # Work count, not wall clock: base_word(200) grows the y column to
        # the 201 heads the sweep reads, and builds no pair and no x head.
        # First fit at each forward step read 1,275 heads; a y-prefix scan
        # read the 20,301 heads of diagonals 0 to 200, and building both
        # coordinates of each scanned pair built 20,301 pairs.
        fresh = Family()
        assert fresh.base_word(200) == "022000000000"
        assert work.sizes(fresh) == {
            "x_heads": 0, "y_heads": 201, "pairs": 0, "approximants": 0, "recognitions": 0
        }

    @pytest.mark.parametrize("n", [200, 1_600, 7_750])
    def test_base_word_reads_one_y_head_per_index(self, work, n):
        # The table on indices 0..n is a function of y heads 0..n.  First
        # fit at each forward step read 80,200 heads for n = 1,600 and
        # 1,875,016 for n = 7,750.
        fresh = Family()
        fresh.base_word(n)
        assert work.sizes(fresh)["y_heads"] == n + 1
        assert fresh.enumeration_steps() == n + 1

    def test_backward_word_waits_for_no_first_fit(self, work):
        # '0' * 800 is taken backward, at index 8,578: the sweep reaches it
        # reading one head per index (first fit at each step read 2,299,440).
        fresh = Family()
        assert fresh.base_index("0" * 800) == 8_578
        assert work.sizes(fresh)["y_heads"] == 8_579
        assert fresh.enumeration_steps() == 8_579

    def test_base_word_never_runs_first_fit(self, monkeypatch):
        def refuse(self, w):
            raise AssertionError(f"first fit ran for {w}")

        monkeypatch.setattr(Family, "_first_fit", refuse)
        fresh = Family()
        fresh.base_word(2_000)
        # Some word the sweep has passed still waits for its index.
        assert any(lenlex_word(r) not in fresh._word2idx for r in range(1, fresh._sweep + 1))

    @pytest.mark.parametrize(
        "word, n, heads", [("2" * 10, 2_096_127, 2_046), ("02020202", 58_310, 340)]
    )
    def test_base_index_first_fits_only_its_prefixes(self, work, word, n, heads):
        # Work count: first fit runs on the word's waiting prefixes alone,
        # and the y column grows to the sweep plus their diagonals.  First
        # fit on every waiting word below its rank read 130,305 heads for
        # '2' * 10 and 3,570 for '02020202'.
        fresh = Family()
        assert fresh.base_index(word) == n
        assert work.sizes(fresh)["y_heads"] == heads

    # Taken positions (diagonal, y rank) near the start, so that prefix
    # ranks with a taken head or a pad to read come before the word's own
    # rank.  The back and forth alone never lets a prefix rank win with an
    # exact pad for words up to length 10.
    TAKEN = st.sets(
        st.tuples(st.integers(0, 40), st.integers(0, 14)).map(
            lambda p: (p[0] + p[1]) * (p[0] + p[1] + 1) // 2 + p[1]
        ),
        max_size=80,
    )

    @COMMON
    @given(st.text(alphabet="02", min_size=1, max_size=6), TAKEN)
    def test_first_fit_matches_a_plain_scan(self, w, taken):
        fresh = Family()
        fresh._idx2word.update(dict.fromkeys(taken, ""))
        n = 0
        while n in taken or not fresh.dense_pair(n).y.starts_with(w):
            n += 1
        assert fresh._first_fit(w) == n

    def test_first_fit_past_every_taken_run(self, scanned):
        # With indices 0 to m - 1 taken, the answer can be any candidate of
        # a diagonal, including the later extensions of the word.
        fresh = Family()
        for w in [w for d in range(1, 4) for w in all_words(d)]:
            for m in range(600):
                fresh._idx2word = dict.fromkeys(range(m), "")
                n = m
                while not scanned[n][1].starts_with(w):
                    n += 1
                assert fresh._first_fit(w) == n

    def test_pads_rise_along_each_y_rank(self, work):
        # First fit bounds a y rank's pad on diagonal s by s - rank + 1 and
        # skips reading heads on that bound, which is sound only if every
        # rank's pad rises from one diagonal to the next.  The sweep reads
        # one head per index, so the column is grown here directly.
        fresh = Family()
        fresh._y.head(80_199)
        last: dict[int, int] = {}
        for n, (_, pad) in enumerate(fresh._y.heads):
            rank = diag_pair(n)[1]
            assert pad > last.get(rank, 0)
            last[rank] = pad
        # 80,200 heads on 400 ranks: 79,800 consecutive pads compared.
        assert work.sizes(fresh)["y_heads"] == 80_200 and len(last) == 400

    @pytest.mark.parametrize("t, cycle_digits", [(0, 1), (0, 6), (5, 3), (14, 2), (27, 5)])
    def test_backward_step_reads_past_the_padded_head(self, t, cycle_digits):
        # Words held elsewhere cover y_t's head word 0^k and its first cycle
        # digits, so the backward half must read the stream past that head.
        # No pinned input gets there: over base_word(1600) and every word of
        # length <= 9 each backward step stops inside word 0^k.
        fresh = Family()
        y = fresh.dense_pair(t).y
        word, k = fresh._y.head(t)
        seeded = len(word) + k + cycle_digits
        for length in range(1, seeded + 1):
            fresh._word2idx[y.digits(length)] = -length
        # The shortest free prefix of y_t: no earlier index holds it either.
        assert fresh.base_word(t) == y.digits(seeded + 1)

    @COMMON
    @given(st.text(alphabet="02", min_size=1, max_size=5))
    def test_totality_random(self, fam, w):
        assert fam.base_word(fam.base_index(w)) == w


def _sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    """SHA-256 digests pinning the generated family byte for byte.

    They cover the base table, the dense pairs and the ``construct`` output,
    so any change to pairs, zero pads or the base assignment shows up here.
    The 1,600 base words and the indices of every word up to length 9 were
    pinned from the y-prefix scan that first fit replaced.
    """

    BASE_WORDS_400 = "5bee6bd865ac687250efe9b6a89002a0a9e76d5f1fc00b2d1db399483f3f8d70"
    BASE_WORDS_1600 = "bf21a05c9f50b9fcb48745599b5a67622547c7d57727918b8d6475fb44b2db5d"
    BASE_INDEX_9 = "21e636dddbb5c828fe3dc9468b24dabb14c6226068f3f58e4005de706e4057e0"
    DENSE_PAIRS_3000 = "c74bc22acea0d993540175557a77673db9e16f314957c131fc0ba925cc11bf9c"
    CONSTRUCT_300_5 = "b21dda9c15b2948bc3aa295dd44f400f093edd3dfd3554fa7397349c56e4bc93"

    def test_base_words(self, fam):
        text = "\n".join(fam.base_word(n) for n in range(400))
        assert _sha256(text) == self.BASE_WORDS_400

    def test_base_words_1600(self, fam):
        text = "\n".join(fam.base_word(n) for n in range(1600))
        assert _sha256(text) == self.BASE_WORDS_1600

    def test_base_index_up_to_length_9(self, fam):
        words = [w for d in range(1, 10) for w in all_words(d)]
        text = "\n".join(f"{w} {fam.base_index(w)}" for w in words)
        assert _sha256(text) == self.BASE_INDEX_9

    def test_dense_pairs(self, fam):
        pairs = (fam.dense_pair(n) for n in range(3000))
        text = "\n".join(f"{p.x} {p.y}" for p in pairs)
        assert _sha256(text) == self.DENSE_PAIRS_3000

    def test_construct_bytes(self, tmp_path):
        target = tmp_path / "fam.json"
        argv = ["construct", "--n-max", "300", "--i-max", "5", "--out", str(target)]
        assert cli_main(argv) == 0
        assert _sha256(target.read_bytes()) == self.CONSTRUCT_300_5


class TestCliGoldenBytes:
    """SHA-256 digests of stdout plus ``exit=<code>`` of command runs, in-process.

    Every command's output is meant to stay byte-identical across refactors,
    so these pin the JSON of ``check``, ``image``, ``falsify`` and ``verify``.
    """

    @staticmethod
    def run(capsys, *argv):
        code = cli_main(list(argv))
        return capsys.readouterr().out + f"exit={code}\n"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["check", "--seed", "7"],
             "7c86661d231a64ea382b586113d82ff466c7695c98bb09f854a92e378301a04b"),
            (["check", "--inject-fault", "approximant-digit"],
             "c3ed9572c8d64fd7c0fa984410949e7dbc6bebac6026b87d4ce22754759e996e"),
            (["image", "0,2 x 00; 22 x ε", "--depth", "12"],
             "09f90366ebe4af33affd5f5333da8b6b80291b2360a216bdfa08a6bd1dceeba9"),
            (["image", "ε x 0202", "--depth", "16"],
             "3c09f999293eae6826cd3daba4f164ca3bd06d583086e4c41e6de7a1b51057ab"),
            (["falsify", "22 x 2"],
             "5bd78298edf853c85b59ead038ead3d6160f7039a2f3991d04040171a4bd3d54"),
        ],
        ids=["check", "check-fault", "image-depth-12", "image-depth-16", "falsify"],
    )
    def test_command_bytes(self, capsys, argv, digest):
        assert _sha256(self.run(capsys, *argv)) == digest

    # The rest of the md5 list that CHANGES.md checks on every change.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["construct", "--n-max", "8", "--i-max", "4"],
             "baa1b1c2aadac1ef82f9bd561756bc7d964733a9aa383abdd1ce72d39b0ac2fb"),
            (["image", "0 x 00", "--depth", "3"],
             "bf67f579fdb2cccf5f599d49b032f2e84d1376d5fa0aee8b0a5f3429e86f6d2e"),
            (["image", "0,2 x 00; 22 x ε", "--depth", "3"],
             "ddca6e91f0064340066f9c21bb1f3508ad09c0ad17293dfeb866995fce47f59b"),
            (["image", "0 x 00; 02 x 2; 2 x 0", "--depth", "4"],
             "8f6d044956af70557d08956b1d6949d831335f12770feff19e0d7c6b39507d24"),
            # Their base chains first fit past the sweep, out of rank order.
            (["image", "0 x 02020202", "--depth", "3"],
             "36b83f0d7965d4290038448aef70a0b1536cf4b7481f14cf65b06e14662db5e2"),
            (["image", "2 x 22222222", "--depth", "3"],
             "2e50250a1f9fbad8a16c148f7c5f5224ff8d2873f61c64d31177e30bc2c7a73e"),
        ],
        ids=[
            "construct", "image-one-rect", "image-two-rects", "image-three-rects",
            "image-deep-base-0", "image-deep-base-2",
        ],
    )
    def test_listed_command_bytes(self, capsys, argv, digest):
        assert _sha256(self.run(capsys, *argv)) == digest

    def test_listed_falsify_stdout_and_its_verdict(self, tmp_path, capsys):
        out = self.run(capsys, "falsify", "2 x 0", "--samples", "10")
        assert _sha256(out) == (
            "e152a2cfda5e69964dc3280824cc74a873565ab775d38c30b0e2baf5231c37fa"
        )
        cert = tmp_path / "w.json"
        cert.write_text(out.removesuffix("exit=0\n"), encoding="utf-8")
        assert _sha256(self.run(capsys, "verify", str(cert))) == (
            "ee339811dc8d082758ae5b368e1fbf72f4ba05aa67cbf47ee792c668132195b9"
        )

    def test_certificate_file_and_its_verdict(self, tmp_path, capsys):
        cert = tmp_path / "w.json"
        argv = ["falsify", "2 x 0", "--samples", "3", "--out", str(cert)]
        assert self.run(capsys, *argv) == "exit=0\n"
        assert _sha256(cert.read_bytes()) == (
            "291921b2a2e0b0812e8ff9d76e1f5a9499a36ac18b461694576b37ceb2e1431b"
        )
        assert _sha256(self.run(capsys, "verify", str(cert))) == (
            "e6ca777c13e69fec1930557a56a7aea689db6425ceea1168faf50eb2d7dfdfec"
        )

    # The same runs under --format text: each command's lines are pinned too.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["construct", "--n-max", "8", "--i-max", "4"],
             "e97df2ada84cd4a5f1398863a062efc6437a07592a1306f2ac577329dc10d1e2"),
            (["image", "0,2 x 00; 22 x ε", "--depth", "3"],
             "07cad3ecd8b1493903ae39819d703d788068724bb16017b0f33a1ede5c531673"),
            (["falsify", "2 x 0", "--samples", "10"],
             "1cc326897bd65b6b0dd30dc3634aefc83ba7be5c08d6dfd9968dca5388d90a1f"),
            (["check", "--seed", "7"],
             "da63dfe0a712cdfdc8e1328b4cdb913963e261acd08de32514606997f69bd90d"),
            (["check", "--inject-fault", "approximant-digit"],
             "14bd399ec557f2730f76adc3523f7ba360fd28791e5b02188182b679076b636b"),
        ],
        ids=["construct", "image-two-rects", "falsify", "check", "check-fault"],
    )
    def test_text_command_bytes(self, capsys, argv, digest):
        assert _sha256(self.run(capsys, *argv, "--format", "text")) == digest

    def test_text_verdict_bytes(self, tmp_path, capsys):
        cert = tmp_path / "w.json"
        assert self.run(capsys, "falsify", "2 x 0", "--samples", "10", "--out", str(cert)) == (
            "exit=0\n"
        )
        assert _sha256(self.run(capsys, "verify", str(cert), "--format", "text")) == (
            "ac3d0a36e761fd43288b1868884e4a786b004777cfa8f54f24ac412dd10fe9bb"
        )

    @pytest.mark.parametrize("fmt", [[], ["--format", "text"]], ids=["json", "text"])
    def test_verify_only_is_json_in_either_format(self, capsys, fmt):
        out = self.run(capsys, "falsify", "2 x 0", "--samples", "10", "--verify-only", *fmt)
        assert _sha256(out) == (
            "c93e5d04a5c4e2aafdaf1e4177290bcaeee0d9454ec2afa0c4fda8d9103b3e4d"
        )


class TestPuncturedSpace:
    def test_membership_rule(self, fam):
        for n in range(12):
            base = fam.base_word(n)
            inside = repr_point(base)
            outside = repr_point(flip(base[0]) + base[1:])
            for i in range(6):
                q = fam.approximant(n, i)
                assert not fam.in_x(q, inside)
                assert fam.in_x(q, outside)

    def test_dense_points_never_removed(self, fam):
        probe = repr_point("0")
        for n in range(60):
            assert fam.in_x(fam.dense_pair(n).x, probe)

    def test_fiber_witness(self, fam):
        points = [fam.dense_pair(n).x for n in range(50)]
        points += [fam.approximant(n, i) for n in range(10) for i in range(5)]
        points += [CantorPoint("02", "20"), CantorPoint("", "2")]
        for x in points:
            # The zero point off the removed columns; on the column of
            # sequence n, the point of the cylinder beside its base's first digit.
            hit = fam.recognize(x)
            y = repr_point("" if hit is None else flip(fam.base_word(hit[0])[0]))
            assert fam.in_x(x, y)

    def test_removed_fibers_diag_order(self, fam):
        fibers = removed_fibers(fam, 10)
        assert len(fibers) == 10
        for t, (point, base) in enumerate(fibers):
            n, i = diag_pair(t)
            assert fam.recognize(point) == (n, i)
            assert base == fam.base_word(n)


class TestExport:
    def test_deterministic_bytes(self):
        one = json.dumps(Family().export(10, 5), sort_keys=True)
        two = json.dumps(Family().export(10, 5), sort_keys=True)
        assert one == two

    def test_shape(self, fam):
        doc = fam.export(4, 2)
        assert doc["schema_version"] == 1
        assert len(doc["dense_pairs"]) == 4
        assert len(doc["approximants"]) == 8
        assert len(doc["enumeration"]) == 4
        assert all(set(row) == {"n", "a", "b"} for row in doc["dense_pairs"])
