"""Command line front end.

Subcommands::

    construct   emit the dense pairs, approximants and base assignments
    image       exact projection image of a rectangle union, decomposed
    falsify     search for a non-openness witness at a rectangle
    verify      recheck a witness certificate produced elsewhere
    check       run the named self-check suites

Exit codes: 0 success, 1 a verification or suite failed, 2 usage error or
unreadable input (an unusable path, a certificate that does not parse),
3 search budget exhausted.  Each subcommand declares its own flags:
``construct`` takes ``--n-max`` and ``--i-max``, ``image`` ``--depth``,
``falsify`` ``--budget`` and ``--samples``, ``check`` ``--seed`` and
``verify`` none: it checks every entry of the certificate it reads.  A
negative size and a ``--samples`` below 1 fail at parse time, before any
``--out`` target is made; a run's config is its argv alone.  Each command
returns its exit code, JSON document and text as a stream of chunks, and
``_run`` alone writes the one ``--format`` names.  A failure with no verdict
or report to give writes its reason to stderr and no document, so nothing
goes to stdout or ``--out``.
All JSON output is byte-deterministic for a fixed argv.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from itertools import islice

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


# Exit code, document, and the text as chunks whose join is the text, newlines
# included, as ``iterdumps`` hands out the document.  No document, from a
# command that told stderr why it failed, writes nothing.
Output = tuple[int, dict | None, Iterable[str] | None]
# Chunks joined into one write: an encoder chunk is about one list element,
# a text chunk one line or one trace word, so a write stays small however
# long the output, and few enough writes that an in-memory sink does not
# keep one object per chunk.
WRITE_BATCH = 1024


class UsageError(Exception):
    pass


def natural(text: str) -> int:
    """A size flag's value; argparse names the flag in its error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number, got {value}")
    return value


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"samples must be at least 1, got {value}")
    return value


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="write output here instead of stdout")
    sub.add_argument("--format", choices=("json", "text"), default="json")


def cmd_construct(args: argparse.Namespace) -> Output:
    doc = Family().export(n_max=args.n_max, i_max=args.i_max)
    pairs = doc["dense_pairs"]
    return 0, doc, (f"n={p['n']} x={p['a']} y={p['b']}\n" for p in pairs) if pairs else ["\n"]


def cmd_image(args: argparse.Namespace) -> Output:
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
    trace = image_trace(fam, img, args.depth)
    doc = {
        "rect": union.as_dict(),
        "image": img.as_dict(),
        "decomposition": dec.as_dict(),
        "trace": {"depth": args.depth, "words": trace},
    }

    def text():  # built only if written; the trace line, as long as the trace, in pieces
        yield from (f"piece hull={piece.hull}\n" for piece in img.pieces)
        yield from (f"isolated {iso.seq}: {iso.point}\n" for iso in dec.isolated)
        head = (trace[0] if trace else "") or "none"  # only a depth-0 trace has the word ""
        yield f"trace[{args.depth}]: {head}"
        yield from (", " + w for w in islice(trace, 1, None))
        yield "\n"
    return 0, doc, text()


def cmd_falsify(args: argparse.Namespace) -> Output:
    fam = Family()
    union = parse_rect_union(args.rect)
    if len(union.rects) != 1:
        raise UsageError("falsify expects a single rectangle")
    complement = parse_rect_union(args.piece) if args.piece is not None else RectUnion(())
    cert = falsify_restriction(
        fam, complement, union.rects[0], budget=args.budget, samples=args.samples
    )
    ok, clause = verify_witness(fam, cert, samples=args.samples)
    if not ok:
        print(f"error: self-verification failed at {clause}", file=sys.stderr)
        return 1, None, None
    return 0, witness_to_dict(cert), [
        f"witness for {union.rects[0]}: coarse n={cert.n_coarse} base={cert.base_coarse}, "
        f"fine n={cert.n_fine} base={cert.base_fine}, {len(cert.missing)} missing approximants\n"
    ]


def cmd_verify(args: argparse.Namespace) -> Output:
    try:
        if args.file == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (UnicodeDecodeError, RecursionError) as err:
        raise CertificateFormatError(f"unreadable certificate: {err}") from err
    cert = witness_from_dict(doc)
    samples = len(cert.missing)
    ok, clause = verify_witness(Family(), cert, samples=samples)
    verdict = "ok" if ok else f"FAILED at {clause}"
    return int(not ok), {"ok": ok, "clause": clause, "samples": samples}, [f"witness {verdict}\n"]


def cmd_check(args: argparse.Namespace) -> Output:
    from .suites import run_all

    try:
        report = run_all(args.seed, fault=args.inject_fault)
    except ValueError as err:  # an unknown fault name; run_suite catches a suite's errors
        raise UsageError(str(err)) from err
    text = [f"{s['name']}: {'PASS' if s['passed'] else 'FAIL'}\n" for s in report["suites"]]
    text.append("all suites passed\n" if report["all_pass"] else "FAILURES present\n")
    return int(not report["all_pass"]), report, text


def _run(args: argparse.Namespace, output: Output) -> int:
    """Write a command's output to stdout or ``--out``: nothing without a
    document, else the text's chunks under ``--format text`` or the
    document's as ``iterdumps`` streams it, ``WRITE_BATCH`` chunks to a
    write.  The stream is an iterator, so each batch reads on from the last."""
    code, doc, text = output
    if doc is None:
        return code
    chunks = iter(text) if args.format == "text" else iterdumps(doc)
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
    p.add_argument("--n-max", type=natural, default=50)
    p.add_argument("--i-max", type=natural, default=20)
    _add_output(p)
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("image", help="project a rectangle union exactly")
    p.add_argument("rect", help="e.g. '0,2 x 00; 22 x ε'")
    p.add_argument("--depth", type=natural, default=3, help="trace depth")
    _add_output(p)
    p.set_defaults(func=cmd_image)

    p = subs.add_parser("falsify", help="find a non-openness witness")
    p.add_argument("rect", help="a single rectangle 'W x V'")
    p.add_argument("--piece", default=None, help="piece complement as a rect union")
    p.add_argument("--samples", "-k", type=positive, default=SAMPLES)
    p.add_argument("--budget", type=natural, default=BUDGET, help="dense-pair scan bound")
    _add_output(p)
    p.set_defaults(func=cmd_falsify)

    p = subs.add_parser("verify", help="recheck a witness certificate")
    p.add_argument("file", help="certificate path, or - for stdin")
    _add_output(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("check", help="run the self-check suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", default=None, dest="inject_fault", metavar="FAULT")
    _add_output(p)
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
        return _run(args, args.func(args))
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
