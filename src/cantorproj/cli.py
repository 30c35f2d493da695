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
``falsify`` ``--budget``, ``check`` all six and ``verify`` none; defaults
come from ``CANTORPROJ_<KNOB>`` variables, and flags win.  A negative size
knob (every knob but the seed) and a ``--samples`` below 1 are usage errors.
The six knobs are the fields of a :class:`RunConfig`, kept here so only
``check`` loads the suites.  All JSON output is byte-deterministic for a
fixed config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from .family import Family, FamilyError
from .schema import CertificateFormatError
from .witness import (
    SearchBudgetExceeded,
    falsify_restriction,
    verify_witness,
    witness_dumps,
    witness_from_dict,
)
from .words import PieceError, RectUnion, WordError, parse_rect_union

ENV_PREFIX = "CANTORPROJ_"


@dataclass(frozen=True)
class RunConfig:
    depth: int = 3
    n_max: int = 50
    i_max: int = 20
    truncation: int = 20
    budget: int = 10_000
    seed: int = 0


INT_KNOBS = tuple(f.name for f in fields(RunConfig))

KNOB_HELP = {
    "depth": "trace and cell depth",
    "truncation": "fibers kept by brute oracles",
    "budget": "dense-pair scan bound",
}
# The integer knobs each command reads, as flags and as CANTORPROJ_*
# variables; a command accepts no other.
COMMAND_KNOBS = {
    "construct": ("n_max", "i_max"),
    "image": ("depth",),
    "falsify": ("budget",),
    "verify": (),
    "check": INT_KNOBS,
}


class UsageError(Exception):
    pass


def _env_default(knob: str) -> int | None:
    raw = os.environ.get(ENV_PREFIX + knob.upper())
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_PREFIX}{knob.upper()} must be an integer, got {raw!r}")


def _config(args: argparse.Namespace) -> RunConfig:
    picked = {}
    for knob in COMMAND_KNOBS[args.command]:
        flag = getattr(args, knob)
        value = flag if flag is not None else _env_default(knob)
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


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, doc: dict) -> None:
    _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_construct(args: argparse.Namespace) -> int:
    cfg = _config(args)
    fam = Family()
    doc = fam.export(n_max=cfg.n_max, i_max=cfg.i_max)
    if args.format == "text":
        lines = [
            f"n={p['n']} x={p['a']} y={p['b']}" for p in doc["dense_pairs"]
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, doc)
    return 0


def cmd_image(args: argparse.Namespace) -> int:
    from .certify import CertificationError, decompose
    from .images import image_trace, project_union

    cfg = _config(args)
    fam = Family()
    union = parse_rect_union(args.rect)
    img = project_union(fam, union)
    try:
        dec = decompose(fam, img)
    except CertificationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    trace = image_trace(fam, img, cfg.depth)
    doc = {
        "rect": union.as_dict(),
        "image": img.as_dict(),
        "decomposition": dec.as_dict(),
        "trace": {"depth": cfg.depth, "words": trace},
    }
    if args.format == "text":
        lines = [f"piece hull={piece.hull}" for piece in img.pieces]
        lines += [f"isolated {iso.seq}: {iso.point}" for iso in dec.isolated]
        lines.append(f"trace[{cfg.depth}]: {', '.join(trace) or 'none'}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, doc)
    return 0


def cmd_falsify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    samples = _samples(args)
    fam = Family()
    union = parse_rect_union(args.rect)
    if len(union.rects) != 1:
        raise UsageError("falsify expects a single rectangle")
    complement = parse_rect_union(args.piece) if args.piece else RectUnion(())
    cert = falsify_restriction(
        fam, complement, union.rects[0], budget=cfg.budget, samples=samples
    )
    ok, clause = verify_witness(fam, cert, samples=samples)
    if not ok:
        _emit(args, f"self-verification failed at {clause}\n")
        return 1
    if args.verify_only:
        _emit_json(args, {"ok": True, "n_coarse": cert.n_coarse, "n_fine": cert.n_fine})
        return 0
    if args.format == "text":
        _emit(
            args,
            f"witness for {union.rects[0]}: coarse n={cert.n_coarse} "
            f"base={cert.base_coarse}, fine n={cert.n_fine} base={cert.base_fine}, "
            f"{len(cert.missing)} missing approximants\n",
        )
    else:
        _emit(args, witness_dumps(cert))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    samples = _samples(args)
    fam = Family()
    try:
        if args.file == "-":
            raw = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                raw = fh.read()
        doc = json.loads(raw)
    except (UnicodeDecodeError, RecursionError) as err:
        raise CertificateFormatError(f"unreadable certificate: {err}") from err
    cert = witness_from_dict(doc)
    if samples is None:
        samples = len(cert.missing)
    ok, clause = verify_witness(fam, cert, samples=samples)
    doc = {"ok": ok, "clause": clause, "samples": samples}
    if args.format == "text":
        verdict = "ok" if ok else f"FAILED at {clause}"
        _emit(args, f"witness {verdict}\n")
    else:
        _emit_json(args, doc)
    return 0 if ok else 1


def cmd_check(args: argparse.Namespace) -> int:
    from .suites import run_all

    cfg = _config(args)
    try:
        report = run_all(cfg, fault=args.inject_fault)
    except ValueError as err:  # an unknown fault name; run_suite catches a suite's errors
        raise UsageError(str(err)) from err
    if args.format == "text":
        lines = [
            f"{s['name']}: {'PASS' if s['passed'] else 'FAIL'}"
            for s in report["suites"]
        ]
        lines.append("all suites passed" if report["all_pass"] else "FAILURES present")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, report)
    return 0 if report["all_pass"] else 1


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
    p.add_argument("--samples", "-k", type=int, default=20)
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
        return args.func(args)
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
