"""Seeded benchmark of cantorproj: one workload per run, one process, one thread.

    python3 bench/run.py --workload check --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads: check, certify-batch, trace-deep, witness-roundtrip (see
``workloads.py`` and ``README.md`` beside this file).

With ``--trace 0`` the run repeats rounds of its workload for ``--seconds``
seconds, and for at least enough units that ten samples lie beyond the
90th percentile, then reports the end-to-end metrics, with times in
reference seconds (see ``clock.py``).  With ``--trace 1`` it repeats
rounds for ``--seconds`` seconds to sample the spans, in raw seconds, then
runs the first round once more from a fresh set-up under ``cProfile`` and
reports the per-layer metrics: spans, exact call counts and self time per
module.  Profiled times carry a 3-4x overhead, so compare ``*.self_s`` only
between traced runs.

Each metric is printed on its own line as ``name value unit``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

from clock import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Ten samples must lie beyond the 90th percentile; with the exclusive method
# of statistics.quantiles that takes 109 samples.
MIN_UNITS = 110
SETUPS = 9
LAYERS = ("words", "family", "images", "certify", "witness", "schema", "suites", "cli")
SPANS = (
    "images.project_s",
    "images.trace_s",
    "certify.decompose_s",
    "certify.lc2_s",
    "certify.probe_s",
    "witness.falsify_s",
    "witness.verify_s",
    "witness.codec_s",
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values: list[float], n: int, k: int) -> float:
    """The k-th of the n-quantiles, refused unless ten samples lie beyond it."""
    cut = statistics.quantiles(values, n=n)[k - 1]
    if sum(v > cut for v in values) < 10:
        raise ValueError(f"fewer than ten of {len(values)} samples beyond the {k}/{n} quantile")
    return cut


def _run_rounds(workload, seconds: float, min_units: int):
    """Rounds until both the time and the unit count are reached.

    Unit latencies come back in reference seconds, with each round's meter.
    """
    from workloads import Meter

    units, meters = [], []
    clock = Clock()
    deadline = perf_counter() + seconds
    with clock.ticking():
        while perf_counter() < deadline or len(units) < min_units:
            # Each round starts from a collected heap, as a fresh CLI process
            # would, so collector pauses fall alike in every round.
            gc.collect()
            meters.append(Meter(clock))
            units += workload.round(meters[-1])
    print(f"reference_scale {clock.scale()} ratio")
    return units, meters


def _end_to_end(setup_s: float, units, meters) -> dict[str, tuple[float, str]]:
    latencies = [latency for latency, _ in units]
    failed = sum(not ok for _, ok in units)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(m.reference_busy for m in meters), "s"),
        "op_p50_ms": (_percentile(latencies, 2, 1) * 1e3, "ms"),
        "op_p90_ms": (_percentile(latencies, 10, 9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - failed / len(units), "ratio"),
    }


def _code_layers() -> tuple[dict[str, str], dict[types.CodeType, str]]:
    """Source file and generated-method code objects of each layer module.

    Dataclass methods (``__init__``, ``__eq__``, ``__hash__``) are compiled
    from strings, so they are found through their classes, not their file.
    """
    files, generated = {}, {}
    for layer in LAYERS:
        module = sys.modules[f"cantorproj.{layer}"]
        files[module.__file__] = layer
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for attr in vars(cls).values():
                    code = getattr(attr, "__code__", None)
                    if code is not None and code.co_filename != module.__file__:
                        generated[code] = layer
    return files, generated


def _profile_metrics(profiler: cProfile.Profile) -> dict[str, tuple[float, str]]:
    from cantorproj.certify import closure_split
    from cantorproj.family import DensePair, Family
    from cantorproj.images import piece_member
    from cantorproj.words import CantorPoint, ClopenSet

    files, generated = _code_layers()
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[object, int] = {}
    for entry in profiler.getstats():
        calls[entry.code] = entry.callcount
        code = entry.code
        layer = None if isinstance(code, str) else files.get(code.co_filename) or generated.get(code)
        if layer is None:
            continue
        self_s[layer] += entry.inlinetime
        # Builtins (str methods, any, sorted ...) count toward their caller.
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                self_s[layer] += sub.inlinetime

    def count(fn) -> int:
        return calls.get(fn.__code__, 0)

    recognized = count(Family.recognize)
    # Family._decode runs once per recognition-memo miss.
    hit_ratio = 1 - count(Family._decode) / recognized if recognized else 0.0
    metrics = {
        "words.clopen_built": (count(ClopenSet.__init__), "count"),
        "words.points_built": (count(CantorPoint.__init__), "count"),
        "family.dense_pair_calls": (count(Family.dense_pair), "count"),
        "family.pairs_materialised": (count(DensePair.__init__), "count"),
        "family.recognize_calls": (recognized, "count"),
        "family.recognize_hit_ratio": (hit_ratio, "ratio"),
        "images.member_calls": (count(piece_member), "count"),
        "certify.closure_splits": (count(closure_split), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    return metrics


def _per_layer(workload, seed: int, seconds: float) -> tuple[dict, list]:
    from cantorproj.suites import SUITES
    from workloads import Meter

    units, meters = _run_rounds(workload, seconds, 0)
    names = list(SPANS) + [f"suites.{name}_s" for name, _ in SUITES]
    metrics = {name: (statistics.median(m.spans.get(name, 0.0) for m in meters), "s") for name in names}

    # The first round again, from a fresh set-up, so the counts are exact
    # and repeat from run to run for a given seed.
    fresh = type(workload)(seed)
    profiler = cProfile.Profile()
    meter = Meter(profiler=profiler)
    gc.collect()
    units += fresh.round(meter)
    metrics.update(_profile_metrics(profiler))
    metrics["family.enum_steps"] = (meter.enum_steps, "count")
    metrics["trace_overhead_ratio"] = (meter.busy / meters[0].busy, "ratio")
    return metrics, units


def _set_up(name: str, seed: int, clock: Clock):
    """Import the package afresh and build the seeded workload; timed in
    reference seconds between two readings of the clock."""
    for module in [m for m in sys.modules if m == "workloads" or m.split(".")[0] == "cantorproj"]:
        del sys.modules[module]
    start = clock.mark()
    import workloads

    workload = workloads.WORKLOADS[name](seed) if name in workloads.WORKLOADS else None
    return workload, clock.mark() - start


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "cantorproj" / "__init__.py").is_file():
        print(f"error: no cantorproj package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Set-up is importing the package and building the seeded workload: its
    # random source, probe pools and any warm Family.  It runs several
    # times; the median in reference seconds is reported and the last build
    # is measured.
    clock = Clock()
    builds = [_set_up(args.workload, args.seed, clock) for _ in range(SETUPS)]
    setup_s = statistics.median(seconds for _, seconds in builds)
    workload = builds[-1][0]
    package = sys.modules["cantorproj"].__file__
    if Path(package).resolve().parent != SRC / "cantorproj":
        print(f"error: cantorproj imported from {package}", file=sys.stderr)
        return 2
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, units = _per_layer(workload, args.seed, args.seconds)
    else:
        units, meters = _run_rounds(workload, args.seconds, MIN_UNITS)
        metrics = _end_to_end(setup_s, units, meters)

    failed = sum(not ok for _, ok in units)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"ops {len(units)} count")
    print(f"fail_ratio {failed / len(units)} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
