"""Command line front end.

Subcommands::

    construct   emit the dense pairs, approximants and base assignments
    image       exact projection image of a rectangle union, decomposed
    falsify     search for a non-openness witness at a rectangle
    verify      recheck a witness certificate produced elsewhere
    check       run the named self-check suites

Exit codes: 0 success, 1 a verification or suite failed, 2 usage error or
unreadable input (an unusable path, a certificate that does not parse),
3 search budget exhausted.  A command takes only the integer knobs it reads:
``construct`` takes ``--n-max`` and ``--i-max``, ``image`` ``--depth``,
``falsify`` ``--budget``, ``check`` all six and ``verify`` none.  A negative
size knob (every knob but the seed) and a ``--samples`` below 1 are usage
errors.  The six knobs are the fields of a :class:`RunConfig`, kept here so
only ``check`` loads the suites; an unset knob takes its default, so a run's
config is its argv alone.  Each command returns its exit code, JSON
document and text lines, and ``_run`` alone writes them; all JSON output
is byte-deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import chain, islice

from .family import Family, FamilyError
from .schema import CertificateFormatError, iterdumps
from .witness import (
    BUDGET,
    SAMPLES,
    SearchBudgetExceeded,
    falsify_restriction,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)
from .words import PieceError, RectUnion, WordError, parse_rect_union


@dataclass(frozen=True)
class RunConfig:
    depth: int = 3
    n_max: int = 50
    i_max: int = 20
    truncation: int = 20
    budget: int = BUDGET
    seed: int = 0


INT_KNOBS = tuple(f.name for f in fields(RunConfig))
# Exit code, document, text lines; a line may come as an iterable of its pieces.
Output = tuple[int, dict | None, Iterable[str | Iterable[str]] | None]
# Chunks joined into one write: an encoder chunk is about one list element,
# a text chunk one line or piece, so a write stays small however long the
# output, and few enough writes that an in-memory sink does not keep one
# object per chunk.
WRITE_BATCH = 1024

KNOB_HELP = {
    "depth": "trace and cell depth",
    "truncation": "fibers kept by brute oracles",
    "budget": "dense-pair scan bound",
}
# The integer knobs each command takes as flags; a command accepts no other.
COMMAND_KNOBS = {
    "construct": ("n_max", "i_max"),
    "image": ("depth",),
    "falsify": ("budget",),
    "verify": (),
    "check": INT_KNOBS,
}


class UsageError(Exception):
    pass


def _config(args: argparse.Namespace) -> RunConfig:
    picked = {}
    for knob in COMMAND_KNOBS[args.command]:
        value = getattr(args, knob)
        if value is None:
            continue
        if knob != "seed" and value < 0:
            raise UsageError(f"{knob} must be a natural number, got {value}")
        picked[knob] = value
    return RunConfig(**picked)


def _samples(args: argparse.Namespace) -> int | None:
    if args.samples is not None and args.samples < 1:
        raise UsageError(f"samples must be at least 1, got {args.samples}")
    return args.samples


def _add_knobs(sub: argparse.ArgumentParser, command: str) -> None:
    for knob in COMMAND_KNOBS[command]:
        flag = "--" + knob.replace("_", "-")
        sub.add_argument(flag, type=int, default=None, dest=knob, help=KNOB_HELP.get(knob))
    sub.add_argument("--out", default=None, help="write output here instead of stdout")
    sub.add_argument("--format", choices=("json", "text"), default="json")


def cmd_construct(args: argparse.Namespace, cfg: RunConfig) -> Output:
    doc = Family().export(n_max=cfg.n_max, i_max=cfg.i_max)
    return 0, doc, (f"n={p['n']} x={p['a']} y={p['b']}" for p in doc["dense_pairs"])


def cmd_image(args: argparse.Namespace, cfg: RunConfig) -> Output:
    from .certify import CertificationError, decompose
    from .images import image_trace, project_union

    fam = Family()
    union = parse_rect_union(args.rect)
    img = project_union(fam, union)
    try:
        dec = decompose(fam, img)
    except CertificationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1, None, None
    trace = image_trace(fam, img, cfg.depth)
    doc = {
        "rect": union.as_dict(),
        "image": img.as_dict(),
        "decomposition": dec.as_dict(),
        "trace": {"depth": cfg.depth, "words": trace},
    }

    def lines():  # built only if written; the trace line, as long as the trace, in pieces
        yield from (f"piece hull={piece.hull}" for piece in img.pieces)
        yield from (f"isolated {iso.seq}: {iso.point}" for iso in dec.isolated)
        head = (trace[0] if trace else "") or "none"  # only a depth-0 trace has the word ""
        yield chain((f"trace[{cfg.depth}]: ", head), (", " + w for w in islice(trace, 1, None)))
    return 0, doc, lines()


def cmd_falsify(args: argparse.Namespace, cfg: RunConfig) -> Output:
    samples = _samples(args)
    fam = Family()
    union = parse_rect_union(args.rect)
    if len(union.rects) != 1:
        raise UsageError("falsify expects a single rectangle")
    complement = parse_rect_union(args.piece) if args.piece is not None else RectUnion(())
    cert = falsify_restriction(fam, complement, union.rects[0], budget=cfg.budget, samples=samples)
    ok, clause = verify_witness(fam, cert, samples=samples)
    if not ok:
        return 1, None, [f"self-verification failed at {clause}"]
    if args.verify_only:
        return 0, {"ok": True, "n_coarse": cert.n_coarse, "n_fine": cert.n_fine}, None
    return 0, witness_to_dict(cert), [
        f"witness for {union.rects[0]}: coarse n={cert.n_coarse} base={cert.base_coarse}, "
        f"fine n={cert.n_fine} base={cert.base_fine}, {len(cert.missing)} missing approximants"
    ]


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> Output:
    samples = _samples(args)
    try:
        if args.file == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (UnicodeDecodeError, RecursionError) as err:
        raise CertificateFormatError(f"unreadable certificate: {err}") from err
    cert = witness_from_dict(doc)
    if samples is None:
        samples = len(cert.missing)
    ok, clause = verify_witness(Family(), cert, samples=samples)
    verdict = "ok" if ok else f"FAILED at {clause}"
    return int(not ok), {"ok": ok, "clause": clause, "samples": samples}, [f"witness {verdict}"]


def cmd_check(args: argparse.Namespace, cfg: RunConfig) -> Output:
    from .suites import run_all

    try:
        report = run_all(cfg, fault=args.inject_fault)
    except ValueError as err:  # an unknown fault name; run_suite catches a suite's errors
        raise UsageError(str(err)) from err
    lines = [f"{s['name']}: {'PASS' if s['passed'] else 'FAIL'}" for s in report["suites"]]
    lines.append("all suites passed" if report["all_pass"] else "FAILURES present")
    return int(not report["all_pass"]), report, lines


def _text(lines: Iterable[str | Iterable[str]]) -> Iterator[str]:
    """Each line, or its pieces, then a newline; no lines write one newline."""
    empty = True
    for line in lines:
        empty = False
        yield from (line,) if isinstance(line, str) else line
        yield "\n"
    if empty:
        yield "\n"


def _run(args: argparse.Namespace, output: Output) -> int:
    """Write a command's output to stdout or ``--out``: the lines under
    ``--format text`` or when there is no document, as ``_text`` streams
    them, else the document as ``iterdumps`` streams it, ``WRITE_BATCH``
    chunks to a write."""
    code, doc, lines = output
    if lines is not None and (doc is None or args.format == "text"):
        chunks = _text(lines)
    elif doc is not None:
        chunks = iterdumps(doc)
    else:
        return code
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        while batch := list(islice(chunks, WRITE_BATCH)):
            fh.write("".join(batch))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorproj",
        description="exact projection counterexamples over the ternary Cantor set",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="emit the generated family")
    _add_knobs(p, "construct")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("image", help="project a rectangle union exactly")
    p.add_argument("rect", help="e.g. '0,2 x 00; 22 x ε'")
    _add_knobs(p, "image")
    p.set_defaults(func=cmd_image)

    p = subs.add_parser("falsify", help="find a non-openness witness")
    p.add_argument("rect", help="a single rectangle 'W x V'")
    p.add_argument("--piece", default=None, help="piece complement as a rect union")
    p.add_argument("--samples", "-k", type=int, default=SAMPLES)
    p.add_argument("--verify-only", action="store_true", dest="verify_only")
    _add_knobs(p, "falsify")
    p.set_defaults(func=cmd_falsify)

    p = subs.add_parser("verify", help="recheck a witness certificate")
    p.add_argument("file", help="certificate path, or - for stdin")
    p.add_argument("--samples", "-k", type=int, default=None)
    _add_knobs(p, "verify")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("check", help="run the self-check suites")
    p.add_argument("--inject-fault", default=None, dest="inject_fault", metavar="FAULT")
    _add_knobs(p, "check")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # Fail on an unusable --out before the work.  Append mode creates a
        # missing file and truncates nothing, so verify can overwrite its input.
        if args.out:
            open(args.out, "a", encoding="utf-8").close()
        return _run(args, args.func(args, _config(args)))
    except SearchBudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (
        UsageError,
        PieceError,
        WordError,
        FamilyError,
        CertificateFormatError,
        json.JSONDecodeError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
