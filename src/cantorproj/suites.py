"""Named self-check suites behind the ``check`` subcommand.

Every suite draws its randomness from a private generator seeded by the run
seed and the suite name, so a report is a pure function of its config and
two runs produce identical bytes.

A suite is a generator function of ``(fam, cfg, rng)``, ``cfg`` a
``cli.RunConfig``.  Each value it yields is one check: ``True`` if it passed,
or its failure record, so ``yield ok or {...}`` builds a record only when the
check fails.  A check that breaks two laws reports the first.  The generator
may return a dict of extra detail keys.  :func:`run_suite` owns the report: it
counts the checks, keeps the first five failure records and merges in the
returned keys; a suite that raises fails with the error as its whole detail.
"""

from __future__ import annotations

import json
import random
from collections.abc import Generator
from dataclasses import asdict, replace
from fractions import Fraction

from .certify import (
    CertificationError,
    certificate_points,
    decompose,
    decomposition_member,
    lc2_valid,
    resolvable_probe,
)
from .family import Family
from .images import image_member, image_trace, project_union
from .oracle import TRACE_DEPTH, brute_rect_trace, cantor_stage
from .witness import WitnessCertificate, falsify_restriction, verify_witness
from .words import (
    WHOLE_SPACE,
    CantorPoint,
    ClopenSet,
    Rect,
    RectUnion,
    all_words,
    distance,
    flip,
    repr_point,
)


FAULTS = ("approximant-digit",)
# The decomposition suite's fixed trial count and probe pool size; no flag
# sets them, and ``run_all`` reports them beside the run config.
SUITE_SIZE = 60
PROBES = 120


def _first_digit_flipped(p: CantorPoint) -> CantorPoint:
    return CantorPoint(flip(p.prefix[0]) + p.prefix[1:], p.cycle)


class _FaultyFamily(Family):
    """Family with a deliberately corrupted approximant generator."""

    def approximant(self, n, i):
        return _first_digit_flipped(super().approximant(n, i))


def make_family(fault: str | None = None) -> Family:
    if fault is None:
        return Family()
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known faults: {', '.join(FAULTS)}")
    return _FaultyFamily()


# -- deterministic random draws -------------------------------------------


def _random_word(rng: random.Random, depth: int) -> str:
    return "".join(rng.choice("02") for _ in range(rng.randint(0, depth)))


def _random_clopen(rng: random.Random, depth: int) -> ClopenSet:
    return ClopenSet(tuple(_random_word(rng, depth) for _ in range(rng.randint(1, 2))))


def _random_point(rng: random.Random, pre_len: int = 6, cyc_len: int = 3) -> CantorPoint:
    prefix = _random_word(rng, pre_len)
    cycle = "".join(rng.choice("02") for _ in range(rng.randint(1, cyc_len)))
    return CantorPoint(prefix, cycle)


def _random_rect_union(rng: random.Random, depth: int, max_rects: int = 3) -> RectUnion:
    rects = tuple(
        Rect(_random_clopen(rng, depth), _random_clopen(rng, depth))
        for _ in range(rng.randint(1, max_rects))
    )
    return RectUnion(rects)


def probe_pool(fam: Family, rng: random.Random, size: int) -> list[CantorPoint]:
    """A mixed bag of probe points: periodic, dense, and approximant."""
    pool = []
    for t in range(size):
        kind = t % 3
        if kind == 0:
            pool.append(_random_point(rng))
        elif kind == 1:
            pool.append(fam.dense_pair(rng.randint(0, 40)).x)
        else:
            pool.append(fam.approximant(rng.randint(0, 12), rng.randint(0, 8)))
    return pool


def clopen_antichains(depth: int) -> list[ClopenSet]:
    """All nonempty clopen sets of the given depth, via cell subsets."""
    cells = all_words(depth)
    out = []
    for mask in range(1, 2 ** len(cells)):
        out.append(ClopenSet(tuple(c for j, c in enumerate(cells) if mask >> j & 1)))
    return out


# -- suites ----------------------------------------------------------------


def _suite_normal_form(fam, cfg, rng):
    for _ in range(200):
        p = _random_point(rng)
        k = rng.randint(1, 2)
        j = rng.randint(0, len(p.cycle) - 1)
        unrolled = CantorPoint(
            p.prefix + p.cycle * k + p.cycle[:j], p.cycle[j:] + p.cycle[:j]
        )
        yield unrolled == p or {"point": str(p), "unrolled": str(unrolled)}
        q = _random_point(rng)
        same_digits = p.digits(60) == q.digits(60)
        same_value = p.value() == q.value()
        yield ((p == q) == same_digits == same_value) or {"p": str(p), "q": str(q)}


def _suite_boolean_laws(fam, cfg, rng):
    empty = ClopenSet(())
    for _ in range(120):
        a = _random_clopen(rng, cfg.depth)
        b = _random_clopen(rng, cfg.depth)
        c = _random_clopen(rng, cfg.depth)
        laws = {
            "de_morgan": a.union(b).complement() == a.complement().intersect(b.complement()),
            "double_complement": a.complement().complement() == a,
            "distribute": a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c)),
            "partition": a.union(a.complement()) == WHOLE_SPACE
            and a.intersect(a.complement()) == empty,
            "subset_minus": a.subset(b) == a.minus(b).is_empty(),
            "absorb": a.union(a.intersect(b)) == a,
        }
        p = _random_point(rng)
        laws["member_split"] = a.member(p) != a.complement().member(p)
        laws["member_union"] = a.union(b).member(p) == (a.member(p) or b.member(p))
        for name, ok in laws.items():
            yield ok or {"law": name, "a": str(a), "b": str(b), "c": str(c)}


def _suite_value_injective(fam, cfg, rng):
    seen: dict[Fraction, CantorPoint] = {}
    for _ in range(300):
        p = _random_point(rng)
        v = p.value()
        if not 0 <= v <= 1:
            yield {"point": str(p), "value": str(v)}
        elif v in seen and seen[v] != p:
            yield {"p": str(p), "q": str(seen[v])}
        else:
            yield True
        seen[v] = p
        m = rng.randint(1, 12)
        partial = Fraction(int(p.digits(m), 3), 3**m)
        yield abs(v - partial) <= Fraction(1, 3**m) or {"point": str(p), "m": m}


def _cylinder_ends(word: str) -> tuple[Fraction, Fraction]:
    # A cylinder's interval runs from its least point, the word padded with
    # 0s, to its greatest, the word padded with 2s.
    return CantorPoint(word, "0").value(), CantorPoint(word, "2").value()


def _suite_stage_agreement(fam, cfg, rng):
    for n in range(cfg.depth + 3):
        cells = sorted(map(_cylinder_ends, all_words(n)))
        yield sorted(cantor_stage(n)) == cells or {"stage": n}
        for lo, hi in cells:
            yield hi - lo == Fraction(1, 3**n) or {"stage": n, "interval": f"[{lo}, {hi}]"}
    for _ in range(60):
        w = _random_word(rng, cfg.depth + 3)
        p = _random_point(rng)
        lo, hi = _cylinder_ends(w)
        yield lo <= p.value() <= hi or not p.starts_with(w) or {"word": w, "point": str(p)}


def _suite_diam_law(fam, cfg, rng):
    for d in range(5):
        for w in all_words(d):
            yield ClopenSet((w,)).diam() == Fraction(1, 3 ** len(w)) or {"word": w}
    for _ in range(80):
        w = _random_word(rng, 4)
        ext = w + "".join(rng.choice("02") for _ in range(rng.randint(0, 3)))
        gap = 2 * ClopenSet((ext,)).diam() < ClopenSet((w,)).diam()
        yield gap == (len(ext) >= len(w) + 1) or {"outer": w, "inner": ext}


def _suite_family_determinism(fam, cfg, rng):
    one = type(fam)().export(n_max=12, i_max=6)
    two = type(fam)().export(n_max=12, i_max=6)
    same = json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    yield same or {"law": "export_bytes"}


def _suite_distinctness(fam, cfg, rng):
    xs = {}
    ys = {}
    for n in range(cfg.n_max + 1):
        pair = fam.dense_pair(n)
        for label, point, seen in (("x", pair.x, xs), ("y", pair.y, ys)):
            yield point not in seen or {"axis": label, "n": n, "clash": seen[point]}
            seen[point] = n
    approx = {}
    for n in range(min(cfg.n_max, 30) + 1):
        for i in range(min(cfg.i_max, 10) + 1):
            q = fam.approximant(n, i)
            yield (q not in approx and q not in xs) or {"n": n, "i": i}
            approx[q] = (n, i)


def _suite_convergence(fam, cfg, rng):
    for n in range(cfg.n_max + 1):
        x, bound = fam.dense_pair(n).x, Fraction(1, n + 1)
        last = None
        for i in range(cfg.i_max + 1):
            d = distance(fam.approximant(n, i), x)
            if not 0 < d < bound:
                yield {"n": n, "i": i, "distance": str(d)}
            elif last is not None and not d < last:
                yield {"n": n, "i": i, "law": "strict_decrease"}
            else:
                yield True
            last = d


def _suite_enumeration(fam, cfg, rng):
    for d in range(1, 5):
        for w in all_words(d):
            n = fam.base_index(w)
            yield fam.base_word(n) == w or {"word": w, "index": n}
    for n in range(201):
        base = fam.base_word(n)
        y = fam.dense_pair(n).y
        yield y.starts_with(base) or {"n": n, "law": "anchor_in_base"}
        yield fam.base_index(base) == n or {"n": n, "law": "roundtrip"}
    return {"steps": fam.enumeration_steps()}


def _suite_density(fam, cfg, rng):
    cover = {}
    for w in all_words(cfg.depth):
        hits = (n for n in range(4000) if fam.dense_pair(n).x.starts_with(w))
        hit = next(hits, None)
        yield hit is not None or {"word": w}
        if hit is not None:
            cover[w] = hit
    return {"cover_index": max(cover.values()) if cover else None}


def _suite_oracle_equivalence(fam, cfg, rng):
    sets = sorted(clopen_antichains(2), key=lambda c: c.words)
    pairs = [(a, b) for a in sets for b in sets]
    picks = rng.sample(range(len(pairs)), min(40, len(pairs)))
    depth1 = [c for c in sets if c.depth <= 1]
    jobs = [(a, b) for a in depth1 for b in depth1]
    jobs += [pairs[i] for i in picks]
    for w_set, v_set in jobs:
        img = project_union(fam, RectUnion((Rect(w_set, v_set),)))
        exact = image_trace(fam, img, TRACE_DEPTH)
        brute = brute_rect_trace(fam, w_set, v_set, cfg.truncation)
        yield exact == brute or {"w": str(w_set), "v": str(v_set)}


def _suite_decomposition(fam, cfg, rng):
    pool = probe_pool(fam, rng, PROBES)
    for t in range(SUITE_SIZE):
        union = _random_rect_union(rng, cfg.depth)
        img = project_union(fam, union)
        try:
            dec = decompose(fam, img)
        except CertificationError as err:
            yield {"trial": t, "error": str(err)}
            continue
        for p in pool + certificate_points(fam, img):
            agree = decomposition_member(fam, dec, p) == image_member(fam, img, p)
            yield agree or {"trial": t, "point": str(p)}
            if not agree:
                break


def _suite_lc2(fam, cfg, rng):
    for t in range(20):
        img = project_union(fam, _random_rect_union(rng, cfg.depth))
        yield lc2_valid(fam, img, decompose(fam, img)) or {"trial": t}


def _suite_resolvability(fam, cfg, rng):
    fs = clopen_antichains(2)
    for t in range(12):
        img = project_union(fam, _random_rect_union(rng, cfg.depth))
        for f in fs:
            yield resolvable_probe(fam, img, f) or {"trial": t, "f": str(f)}


def _suite_witness(fam, cfg, rng):
    rects = [
        Rect(WHOLE_SPACE, WHOLE_SPACE),
        Rect(ClopenSet(("0",)), ClopenSet(("0",))),
        Rect(ClopenSet(("2",)), ClopenSet(("0",))),
        Rect(ClopenSet(("00",)), ClopenSet(("20",))),
        Rect(ClopenSet(("20",)), ClopenSet(("2",))),
        Rect(ClopenSet(("02",)), ClopenSet(("22",))),
    ]
    for rect in rects:
        cert = falsify_restriction(fam, RectUnion(()), rect, budget=cfg.budget, samples=10)
        ok, clause = verify_witness(fam, cert, samples=10)
        yield ok or {"rect": str(rect), "clause": clause}
        coarse = ClopenSet((cert.base_coarse,))
        fine = ClopenSet((cert.base_fine,))
        yield 2 * fine.diam() < coarse.diam() or {"rect": str(rect), "law": "diameter"}


def _first_missing(cert: WitnessCertificate, **changes) -> WitnessCertificate:
    return replace(cert, missing=(replace(cert.missing[0], **changes),) + cert.missing[1:])


# Each mutation of a valid certificate: the one clause it breaks, and how.
_MUTATIONS = {
    "swap-order": ("n_fine_gt_n_coarse", lambda fam, c: replace(
        c, n_coarse=c.n_fine, n_fine=c.n_coarse)),
    "detached-y-factor": ("coarse_base_inside_y_factor", lambda fam, c: replace(
        c, rect=Rect(c.rect.x_set, ClopenSet((c.base_coarse,)).complement()))),
    "fat-coarse": ("diameter_gap", lambda fam, c: replace(c, base_coarse=c.base_fine)),
    "detached-fine": ("bases_nested", lambda fam, c: replace(
        c, base_fine=flip(c.base_fine[0]) + c.base_fine[1:])),
    "complement-swallows-rect": ("rect_inside_piece", lambda fam, c: replace(
        c, piece_complement=RectUnion((c.rect,)))),
    "witness-not-in-x": ("witness_in_x", lambda fam, c: replace(
        c, witness_x=c.missing[0].point, witness_y=repr_point(c.base_fine))),
    "witness-borrowed": ("witness_is_dense_pair", lambda fam, c: replace(
        c, witness_x=fam.dense_pair(c.n_coarse).x)),
    "truncated-missing": ("missing_count", lambda fam, c: replace(c, missing=c.missing[:-1])),
    "forged-approximant": ("[i=0] missing_identity", lambda fam, c: _first_missing(
        c, point=_first_digit_flipped(c.missing[0].point))),
    "evidence-in-fine": ("[i=0] evidence_outside_fine_base", lambda fam, c: _first_missing(
        c, evidence=repr_point(c.base_fine))),
}
WITNESS_MUTATIONS: list[tuple[str, str]] = [(kind, m[0]) for kind, m in _MUTATIONS.items()]


def mutate_witness(fam: Family, cert: WitnessCertificate, kind: str) -> WitnessCertificate:
    """Break exactly one clause of a valid certificate, by name."""
    if kind not in _MUTATIONS:
        raise ValueError(f"unknown mutation {kind!r}")
    return _MUTATIONS[kind][1](fam, cert)


def _suite_witness_mutations(fam, cfg, rng):
    for rect in (
        Rect(WHOLE_SPACE, WHOLE_SPACE),
        Rect(ClopenSet(("2",)), ClopenSet(("0",))),
    ):
        cert = falsify_restriction(fam, RectUnion(()), rect, budget=cfg.budget, samples=10)
        for kind, expected in WITNESS_MUTATIONS:
            mutated = mutate_witness(fam, cert, kind)
            ok, clause = verify_witness(fam, mutated, samples=len(cert.missing))
            yield (not ok and clause == expected) or {
                "rect": str(rect), "mutation": kind, "clause": clause
            }


SUITES = [
    ("core-normal-form-canonicity", _suite_normal_form),
    ("core-boolean-laws", _suite_boolean_laws),
    ("core-point-value-injective", _suite_value_injective),
    ("core-stage-cylinder-agreement", _suite_stage_agreement),
    ("core-diam-law", _suite_diam_law),
    ("family-determinism", _suite_family_determinism),
    ("family-distinctness", _suite_distinctness),
    ("family-approximant-convergence", _suite_convergence),
    ("family-enumeration-totality", _suite_enumeration),
    ("family-density", _suite_density),
    ("lab-oracle-equivalence", _suite_oracle_equivalence),
    ("lab-decomposition-soundness", _suite_decomposition),
    ("lab-lc2", _suite_lc2),
    ("lab-resolvability", _suite_resolvability),
    ("lab-witness", _suite_witness),
    ("lab-witness-mutations", _suite_witness_mutations),
]


def _tally(outcomes: Generator) -> tuple[bool, dict]:
    """Count a suite's checks and keep its first five failure records.

    The detail keys the suite returns are merged into the report.
    """
    checks, failures = 0, []
    while True:
        try:
            outcome = next(outcomes)
        except StopIteration as done:
            detail = {"checks": checks, "failures": failures[:5], **(done.value or {})}
            return not failures, detail
        checks += 1
        if outcome is not True:
            failures.append(outcome)


def run_suite(name: str, fam: Family, cfg) -> dict:
    table = dict(SUITES)
    if name not in table:
        raise ValueError(f"unknown suite {name!r}")
    rng = random.Random(f"{cfg.seed}:{name}")
    try:
        passed, detail = _tally(table[name](fam, cfg, rng))
    except Exception as err:  # a crashed suite is a failed suite, not a crash
        passed, detail = False, {"error": f"{type(err).__name__}: {err}"}
    return {"name": name, "passed": passed, "detail": detail}


def run_all(cfg, fault: str | None = None) -> dict:
    fam = make_family(fault)
    results = [run_suite(name, fam, cfg) for name, _ in SUITES]
    return {
        "config": {**asdict(cfg), "suite_size": SUITE_SIZE, "probes": PROBES},
        "fault": fault,
        "suites": results,
        "all_pass": all(r["passed"] for r in results),
    }
