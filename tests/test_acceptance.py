"""Acceptance gate: one printed verdict line per criterion.

Each criterion test prints ``ACCEPTANCE NN <name>: PASS|FAIL`` before
asserting, so a plain ``pytest -v -s tests/test_acceptance.py`` reads as a
checklist; the unnumbered oracle cross-check runs on the same rect suite.  All
randomness is drawn from generators seeded with fixed constants; tolerances
are exact rational bounds, never floating point.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from cantorproj import (
    ClopenSet,
    Family,
    Rect,
    RectUnion,
    all_words,
    falsify_restriction,
    image_member,
    image_trace,
    lc2_certificate,
    lc2_valid,
    parse_rect_union,
    project_union,
    resolvable_probe,
    verify_witness,
)
from cantorproj.certify import (
    certificate_points,
    closure_split,
    decompose,
    decomposition_member,
)
from cantorproj.cli import main as cli_main
from cantorproj.oracle import (
    brute_rect_trace,
    brute_split_traces,
    brute_union_trace,
    representatives,
    scanned_missing_index,
)
from cantorproj.suites import (
    WITNESS_MUTATIONS,
    _random_point,
    _random_rect_union,
    clopen_antichains,
    mutate_witness,
)
from cantorproj.words import distance

SEED = 20250823
RECT_SUITE_SHA256 = "ac121d694db113a25d6dd6084edb8ed4f9220bbf1cfe33f003142875b2eac627"
PROBE_POOL_SHA256 = "8f394c93784348bc629254d0acf459ede00dcbee1d5a50bb3565985e6036ab04"
TRIVIAL = RectUnion(())


def verdict(num: int, name: str, ok: bool, note: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed{': ' + note if note else ''}"


@pytest.fixture(scope="module")
def rect_suite(fam):
    """A seeded suite of 1000 rectangle unions with their exact images."""
    rng = random.Random(SEED)
    out = []
    for _ in range(1000):
        union = _random_rect_union(rng, 3)
        out.append((union, project_union(fam, union)))
    return out


@pytest.fixture(scope="module")
def probe_points(fam):
    rng = random.Random(SEED + 1)
    pool = []
    for t in range(500):
        kind = t % 3
        if kind == 0:
            pool.append(_random_point(rng))
        elif kind == 1:
            pool.append(fam.dense_pair(rng.randint(0, 60)).x)
        else:
            pool.append(fam.approximant(rng.randint(0, 15), rng.randint(0, 10)))
    return pool


def test_seeded_draws_pinned(rect_suite, probe_points):
    """Not a numbered criterion: the fixtures keep the draws they always had.

    Both fixtures draw with the generators of ``suites``; these SHA-256
    digests were taken from the fixtures' own copies of those generators,
    so a change to a shared generator shows up here.
    """
    unions = "\n".join(str(u) for u, _ in rect_suite)
    points = "\n".join(str(p) for p in probe_points)
    assert hashlib.sha256(unions.encode()).hexdigest() == RECT_SUITE_SHA256
    assert hashlib.sha256(points.encode()).hexdigest() == PROBE_POOL_SHA256


def test_01_family_distinct_and_convergent(fam):
    t0 = time.monotonic()
    ok = True
    xs = [fam.dense_pair(n).x for n in range(51)]
    ys = [fam.dense_pair(n).y for n in range(51)]
    ok &= len(set(xs)) == 51 and len(set(ys)) == 51
    dense_x = set(xs)
    seen = set()
    for n in range(51):
        bound = Fraction(1, n + 1)
        last = None
        for i in range(21):
            q = fam.approximant(n, i)
            ok &= q not in seen and q not in dense_x
            seen.add(q)
            d = distance(q, xs[n])
            ok &= 0 < d < bound
            ok &= last is None or d < last
            last = d
    for n in range(201):
        ok &= fam.dense_pair(n).y.starts_with(fam.base_word(n))
    elapsed = time.monotonic() - t0
    verdict(1, "family-distinct-and-convergent", ok and elapsed < 10, f"{elapsed:.1f}s")


def test_02_joint_density_depth_three():
    t0 = time.monotonic()
    tables = []
    for _ in range(2):
        fresh = Family()
        first = {}
        want = [(u, v) for u in all_words(3) for v in all_words(3)]
        for n in range(3000):
            if len(first) == 64:
                break
            pair = fresh.dense_pair(n)
            for u, v in want:
                if (u, v) not in first and pair.x.starts_with(u) and pair.y.starts_with(v):
                    first[(u, v)] = n
        tables.append(first)
    ok = len(tables[0]) == 64 and tables[0] == tables[1]
    elapsed = time.monotonic() - t0
    verdict(2, "joint-density-depth-three", ok and elapsed < 10, f"{elapsed:.1f}s")


def test_03_exact_trace_equals_brute_trace(fam):
    t0 = time.monotonic()
    sets = sorted(clopen_antichains(2), key=lambda c: c.words)
    ok = True
    for w_set in sets:
        for v_set in sets:
            img = project_union(fam, RectUnion((Rect(w_set, v_set),)))
            exact = image_trace(fam, img, 6)
            brute = brute_rect_trace(fam, w_set, v_set, 20, trace_depth=6)
            ok &= exact == brute
    elapsed = time.monotonic() - t0
    verdict(
        3,
        "oracle-trace-agreement",
        ok and elapsed < 60,
        f"{len(sets) ** 2} pairs in {elapsed:.1f}s",
    )


def test_04_decomposition_certified_with_probes(fam, rect_suite, probe_points):
    t0 = time.monotonic()
    ok = True
    for union, img in rect_suite:
        dec = decompose(fam, img)  # raises CertificationError when unsound
        probes = probe_points + certificate_points(fam, img)
        for p in probes:
            if decomposition_member(fam, dec, p) != image_member(fam, img, p):
                ok = False
                break
        if not ok:
            break
    elapsed = time.monotonic() - t0
    verdict(4, "decomposition-soundness", ok and elapsed < 120, f"{elapsed:.1f}s")


def test_05_locally_closed_form(fam, rect_suite):
    ok = True
    for union, img in rect_suite:
        cert = lc2_certificate(fam, img)
        if not lc2_valid(fam, img, cert, probe_depth=4):
            ok = False
            break
    verdict(5, "locally-closed-form", ok)


def test_06_resolvability_bulk_law(fam, rect_suite):
    cells = all_words(3)
    windows = []
    for mask in range(1, 256):
        windows.append(
            ClopenSet(tuple(c for j, c in enumerate(cells) if mask >> j & 1))
        )
    ok = True
    for union, img in rect_suite:
        for f in windows:
            if not resolvable_probe(fam, img, f):
                ok = False
                break
        if not ok:
            break
    verdict(6, "closure-resolvability", ok, str(len(windows)))


def test_closure_split_clopen_parts_match_brute_traces(fam, rect_suite):
    """Not a numbered criterion: the oracle cross-check behind criterion 06.

    At depth 6 the traces of ``inter_hull`` and ``diff_clopen`` must equal
    the brute-force traces of F intersect image and F minus image.
    """
    windows = [ClopenSet(("",))] + [ClopenSet((w,)) for w in all_words(3)]
    for union, img in rect_suite:
        trace = brute_union_trace(fam, union, n_fibers=20)
        for f in windows:
            split = closure_split(fam, img, f)
            got = tuple(
                tuple(w for w, p in representatives(6) if part.member(p))
                for part in (split.inter_hull, split.diff_clopen)
            )
            assert got == brute_split_traces(trace, f), (str(union), str(f))


def test_closure_split_tails_match_isolated_points(fam, rect_suite):
    """Not a numbered criterion: the cross-check of ``closure_split``'s tails.

    Over the whole space the removed tails of the closure split are exactly
    the sequences whose limits ``decompose`` finds isolated.
    """
    whole = ClopenSet(("",))
    with_isolated = 0
    for union, img in rect_suite:
        isolated = [d.seq for d in decompose(fam, img).isolated]
        tails = [ts.seq for ts in closure_split(fam, img, whole).diff_tails]
        assert tails == isolated, str(union)
        with_isolated += bool(isolated)
    assert with_isolated


def test_open_part_decomposes_to_itself(fam, rect_suite):
    """Not a numbered criterion: an open part is its own split.

    The open part ``decompose`` returns is an image with no isolated point,
    so decomposing it again finds none and returns it unchanged.
    """
    for union, img in rect_suite:
        open_part = decompose(fam, img).open_part
        again = decompose(fam, open_part)
        assert (again.isolated, again.open_part) == ((), open_part), str(union)


def test_closure_split_of_open_part_matches_image(fam, rect_suite):
    """Not a numbered criterion: removing the isolated limits keeps the split.

    The open part differs from the image only at the isolated limits, which
    lie in the closure of their removed tails, so the closure split of the
    open part lists the same tails and points as that of the image.
    """
    windows = [ClopenSet(("",)), ClopenSet(("0",)), ClopenSet(("2",))]
    with_tails = 0
    for union, img in rect_suite:
        open_part = decompose(fam, img).open_part
        for f in windows:
            split = closure_split(fam, img, f)
            assert closure_split(fam, open_part, f) == split, (str(union), str(f))
            with_tails += bool(split.diff_tails)
    assert with_tails


def test_missing_index_matches_scan_from_zero(fam, rect_suite):
    """Not a numbered criterion: the oracle cross-check of the missing scan.

    ``decompose`` starts its missing-approximant scan past the indices that
    cannot start with the separator; scanning every index from 0, with
    membership read off the rectangles, must find the same least index.
    """
    checked = 0
    for union, img in rect_suite:
        for d in decompose(fam, img).isolated:
            want = scanned_missing_index(fam, union, d.seq, d.separator)
            assert d.missing_index == want, (str(union), d.seq)
            checked += 1
    assert checked


def test_07_witnesses_on_basic_rectangles(fam):
    t0 = time.monotonic()
    ok = True
    for wx in all_words(2):
        for wy in all_words(2):
            rect = Rect(ClopenSet((wx,)), ClopenSet((wy,)))
            cert = falsify_restriction(fam, TRIVIAL, rect, samples=20)
            good, clause = verify_witness(fam, cert, samples=20)
            ok &= good and clause is None
            coarse = ClopenSet((cert.base_coarse,))
            fine = ClopenSet((cert.base_fine,))
            ok &= 2 * fine.diam() < coarse.diam()
            ok &= fine.subset(coarse) and coarse.subset(rect.y_set)
            bound = Fraction(1, cert.n_fine + 1)
            ok &= all(
                distance(m.point, cert.witness_x) < bound for m in cert.missing
            )
            ok &= len(cert.missing) == 20
    elapsed = time.monotonic() - t0
    verdict(7, "witness-on-basic-rectangles", ok and elapsed < 60, f"{elapsed:.1f}s")


def test_08_mutations_all_rejected(fam):
    ok = len(WITNESS_MUTATIONS) == 10
    for literal in ("ε x ε", "2 x 0"):
        rect = parse_rect_union(literal).rects[0]
        cert = falsify_restriction(fam, TRIVIAL, rect, samples=8)
        for kind, expected in WITNESS_MUTATIONS:
            bad = mutate_witness(fam, cert, kind)
            got, clause = verify_witness(fam, bad, samples=len(cert.missing))
            ok &= not got and clause == expected
    verdict(8, "mutation-rejection", ok)


def test_09_fiber_witnesses(fam):
    t0 = time.monotonic()
    rng = random.Random(SEED + 9)
    ok = True
    for _ in range(200):
        x = _random_point(rng, pre_len=8, cyc_len=4)
        ok &= fam.in_x(x, fam.fiber_witness(x))
    elapsed = time.monotonic() - t0
    verdict(9, "fiber-witnesses", ok and elapsed < 5, f"{elapsed:.1f}s")


def test_10_deterministic_outputs(tmp_path, capsys):
    pairs = []
    for stem, argv in (
        ("construct", ["construct", "--n-max", "8", "--i-max", "4"]),
        ("check", ["check"]),
    ):
        files = []
        for run in range(2):
            out = tmp_path / f"{stem}{run}.json"
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0
            files.append(out.read_bytes())
        pairs.append(files[0] == files[1])
    capsys.readouterr()
    ok = all(pairs)
    verdict(10, "deterministic-outputs", ok)
