"""The four benchmark workloads.

A workload is built from a seed (its set-up) and then runs rounds of units.
A round returns the latency and the verdict of each unit.  Work to be timed
runs inside ``meter.timed()``, each unit inside ``meter.unit()``; each
unit's correctness gate runs outside them, so gates cost run time but never
show in latencies, spans or profiles.  A unit fails if it raised or if
its output failed its gate.

Inputs come from the package's own seeded generators
(``cantorproj.suites._random_rect_union`` and ``probe_pool``), so the
benchmark draws from the distributions the self-check suites and the
acceptance tests use.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from collections import defaultdict
from time import perf_counter

from cantorproj import ClopenSet, Family, Rect, RectUnion, all_words, repr_point
from cantorproj import cli, suites
from cantorproj.certify import (
    certificate_points,
    decompose,
    decomposition_member,
    lc2_certificate,
    lc2_valid,
    resolvable_probe,
)
from cantorproj.images import image_member, piece_member, project_union
from cantorproj.suites import SUITES, WITNESS_MUTATIONS, clopen_antichains, mutate_witness, probe_pool
from cantorproj.words import WHOLE_SPACE
from cantorproj.witness import falsify_restriction, verify_witness, witness_dumps, witness_from_dict
from clock import Clock


class Lap:
    """The latency of one unit, in reference seconds (raw without a clock)."""

    seconds = 0.0


class Meter:
    """One round's timed seconds, unit latencies, named spans and enumeration steps.

    With a clock, timed seconds and unit latencies are also kept in
    reference seconds (see ``clock.py``), and the clock's readings are kept
    out of every raw time.  With a profiler attached, the profiler runs
    exactly while a timed section is open, so a traced round profiles the
    work an untraced round times and nothing else; a traced round has no
    clock, so no probe runs under the profiler.
    """

    def __init__(self, clock: Clock | None = None, profiler=None) -> None:
        self.clock = clock
        self.profiler = profiler
        self.busy = 0.0
        self.reference_busy = 0.0
        self.spans: dict[str, float] = defaultdict(float)
        self.enum_steps = 0

    @contextlib.contextmanager
    def timed(self):
        if self.profiler is not None:
            self.profiler.enable()
        mark, start = self._mark(), self._now()
        try:
            yield
        finally:
            self.busy += self._now() - start
            self.reference_busy += self._mark() - mark
            if self.profiler is not None:
                self.profiler.disable()

    @contextlib.contextmanager
    def unit(self, lap: Lap):
        mark = self._mark()
        try:
            yield
        finally:
            lap.seconds = self._mark() - mark

    @contextlib.contextmanager
    def span(self, name: str):
        start = self._now()
        try:
            yield
        finally:
            self.spans[name] += self._now() - start

    def _now(self) -> float:
        """Raw seconds, less the time spent on speed readings."""
        return perf_counter() - (self.clock.cost if self.clock else 0.0)

    def _mark(self) -> float:
        """Reference seconds with a clock, raw seconds without."""
        return self.clock.mark() if self.clock else self._now()


def _failed(lap: Lap) -> tuple[float, bool]:
    traceback.print_exc(file=sys.stderr)
    return lap.seconds, False


class Check:
    """``cantorproj check`` in-process: the 16 suites on one fresh Family.

    Each round runs ``check --seed`` with the next seed drawn from the
    workload's seed, so a run covers several suite inputs, as the other
    workloads draw fresh inputs every round.  A unit is one suite, timed
    around ``suites.run_suite``.  The gate is the suite's verdict, with
    ``all_pass`` and the exit code in agreement.
    """

    name = "check"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{seed}:{self.name}")

    def round(self, meter: Meter) -> list[tuple[float, bool]]:
        laps = {name: Lap() for name, _ in SUITES}
        run_suite = suites.run_suite

        def spanned(name, fam, cfg):
            with meter.unit(laps[name]), meter.span(f"suites.{name}_s"):
                return run_suite(name, fam, cfg)

        out = io.StringIO()
        # run_all looks run_suite up in its module at call time, so swapping
        # the module attribute spans each suite without editing the package.
        suites.run_suite = spanned
        try:
            with meter.timed(), contextlib.redirect_stdout(out):
                code = cli.main(["check", "--seed", str(self.rng.randrange(2**31))])
            report = json.loads(out.getvalue())
        except Exception:
            return [_failed(laps[name]) for name, _ in SUITES]
        finally:
            suites.run_suite = run_suite
        passed = {}
        for suite in report["suites"]:
            passed[suite["name"]] = suite["passed"]
            if suite["name"] == "family-enumeration-totality":
                meter.enum_steps += suite["detail"].get("steps", 0)
        all_pass = all(passed.get(name, False) for name, _ in SUITES)
        consistent = report["all_pass"] == all_pass and code == (0 if all_pass else 1)
        return [(laps[name].seconds, consistent and passed.get(name, False)) for name, _ in SUITES]


class CertifyBatch:
    """Certify seeded unions of 1-3 depth-3 rectangles on one warm Family.

    Per image: project, decompose, the lc2 certificate and its check, and
    the resolvability probe over all 255 depth-3 windows.  The gate: no
    exception (``CertificationError`` included), ``lc2_valid`` holds, and
    the decomposition agrees with the image on a seeded probe pool plus the
    image's certificate points.  Drawing the probe pool warms the Family.

    A round certifies eight unions each of 1, 2 and 3 rectangles, each
    rectangle drawn by the package's generator: the acceptance tests'
    distribution, with the mix of sizes fixed rather than drawn, so a run's
    cost does not swing with the seed.
    """

    name = "certify-batch"
    sizes = (1, 2, 3) * 8

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{seed}:{self.name}")
        self.fam = Family()
        self.pool = probe_pool(self.fam, random.Random(f"{seed}:probes"), 120)
        self.windows = clopen_antichains(3)

    def round(self, meter: Meter) -> list[tuple[float, bool]]:
        fam = self.fam
        steps = fam.enumeration_steps()
        units = [self._image(meter, fam, self._draw(size)) for size in self.sizes]
        meter.enum_steps += fam.enumeration_steps() - steps
        return units

    def _draw(self, size: int) -> RectUnion:
        rects = (suites._random_rect_union(self.rng, 3, max_rects=1).rects[0] for _ in range(size))
        return RectUnion(tuple(rects))

    def _image(self, meter: Meter, fam: Family, union: RectUnion) -> tuple[float, bool]:
        lap = Lap()
        try:
            with meter.timed(), meter.unit(lap):
                with meter.span("images.project_s"):
                    img = project_union(fam, union)
                with meter.span("certify.decompose_s"):
                    dec = decompose(fam, img)
                with meter.span("certify.lc2_s"):
                    extras = certificate_points(fam, img)
                    cert = lc2_certificate(fam, img)
                    valid = lc2_valid(fam, img, cert, probe_depth=4, extra_points=extras)
                with meter.span("certify.probe_s"):
                    for window in self.windows:
                        resolvable_probe(fam, img, window)
            agree = all(
                decomposition_member(fam, dec, p) == image_member(fam, img, p)
                for p in self.pool + extras
            )
        except Exception:
            return _failed(lap)
        return lap.seconds, valid and agree


class TraceDeep:
    """The ``image`` command's work at trace depth 16, one union per round.

    Unions are seeded unions of 1-3 rectangles whose first factor is widened
    to the whole space, so all 65,536 cylinders reach recognition: the
    per-point path at full load, at a cost that does not swing with the
    seed.  A fresh Family per union, as the CLI does.  The trace is split
    into 64 slices by the first six digits; a unit is one slice of 1,024
    cylinders, so a short run holds enough units for a 90th percentile.
    The gate compares the whole trace with the one the in-process ``image``
    CLI prints for the same union.
    """

    name = "trace-deep"
    depth = 16
    head_depth = 6

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{seed}:{self.name}")
        self.tails = all_words(self.depth - self.head_depth)

    def round(self, meter: Meter) -> list[tuple[float, bool]]:
        drawn = suites._random_rect_union(self.rng, 3)
        union = RectUnion(tuple(Rect(WHOLE_SPACE, rect.y_set) for rect in drawn.rects))
        laps = [Lap() for _ in range(2**self.head_depth)]
        try:
            words = self._trace(meter, union, laps)
            ok = self._cli_trace(union) == {"depth": self.depth, "words": sorted(words)}
        except Exception:
            return [_failed(lap) for lap in laps]
        return [(lap.seconds, ok) for lap in laps]

    def _trace(self, meter: Meter, union: RectUnion, laps: list[Lap]) -> list[str]:
        # Its own scope, so this Family is freed before the CLI builds one.
        words: list[str] = []
        with meter.timed():
            fam = Family()
            with meter.span("images.project_s"):
                img = project_union(fam, union)
            with meter.span("certify.decompose_s"):
                decompose(fam, img)
            with meter.span("images.trace_s"):
                for head, lap in zip(all_words(self.head_depth), laps):
                    with meter.unit(lap):
                        words += [
                            w
                            for w in (head + tail for tail in self.tails)
                            if any(piece_member(fam, piece, repr_point(w)) for piece in img.pieces)
                        ]
        meter.enum_steps += fam.enumeration_steps()
        return words

    def _cli_trace(self, union: RectUnion) -> dict | None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["image", str(union), "--depth", str(self.depth)])
        return json.loads(out.getvalue())["trace"] if code == 0 else None


class WitnessRoundtrip:
    """``falsify --out`` then ``verify``, then one mutation that must fail.

    A round covers every basic rectangle ``W x V`` of single cylinders with
    ``|W| + |V| <= 3`` (33 of them), in a seeded order, each with a seeded
    piece complement beside it and a seeded mutation.  Covering the same
    rectangles in every round keeps a run's cost fixed under a heavy tail:
    the four of total depth 4 cost 1-10 s each (``22 x 22`` takes 10 s) and
    are left out; ``check`` measures that deep enumeration.  A unit
    falsifies in a fresh Family, round-trips the certificate through its
    JSON codec, verifies it in a second fresh Family, and checks that the
    mutation from ``WITNESS_MUTATIONS`` is rejected at its named clause.
    Hostile certificates (say ``n_fine: 10000000``) are left out too:
    ``verify`` has no work budget yet and would not finish.
    """

    name = "witness-roundtrip"
    samples = 20

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{seed}:{self.name}")
        words = [w for d in range(3) for w in all_words(d)]
        self.rects = [
            Rect(ClopenSet((wx,)), ClopenSet((wy,)))
            for wx in words
            for wy in words
            if len(wx) + len(wy) <= 3
        ]

    def round(self, meter: Meter) -> list[tuple[float, bool]]:
        order = self.rng.sample(self.rects, len(self.rects))
        return [self._roundtrip(meter, rect, *self._draw(rect)) for rect in order]

    def _draw(self, rect: Rect) -> tuple[RectUnion, str, str]:
        other = suites._random_rect_union(self.rng, 2, max_rects=1).rects[0]
        # Only the part of the drawn complement beside the rectangle is kept;
        # RectUnion drops it when nothing is left.
        beside = Rect(other.x_set.minus(rect.x_set), other.y_set)
        kind, clause = self.rng.choice(WITNESS_MUTATIONS)
        return RectUnion((beside,)), kind, clause

    def _roundtrip(
        self, meter: Meter, rect: Rect, complement: RectUnion, kind: str, clause: str
    ) -> tuple[float, bool]:
        lap = Lap()
        try:
            with meter.timed(), meter.unit(lap):
                prover = Family()
                with meter.span("witness.falsify_s"):
                    cert = falsify_restriction(prover, complement, rect, samples=self.samples)
                with meter.span("witness.codec_s"):
                    back = witness_from_dict(json.loads(witness_dumps(cert)))
                verifier = Family()
                with meter.span("witness.verify_s"):
                    ok, failed_at = verify_witness(verifier, back, samples=self.samples)
                    mutant = mutate_witness(verifier, back, kind)
                    accepted, mutant_at = verify_witness(verifier, mutant, samples=len(back.missing))
        except Exception:
            return _failed(lap)
        meter.enum_steps += prover.enumeration_steps() + verifier.enumeration_steps()
        # Clause names carry the index of the first missing approximant,
        # which is 0 only when the rectangle holds approximant 0.
        expected = clause.replace("[i=0]", f"[i={back.missing[0].index}]")
        good = back == cert and ok and failed_at is None
        return lap.seconds, good and not accepted and mutant_at == expected


WORKLOADS = {w.name: w for w in (Check, CertifyBatch, TraceDeep, WitnessRoundtrip)}
