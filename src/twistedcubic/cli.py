"""Command-line interface.

Verbs: classify, orbits, stabilizer, verify, census.  Exit codes: 0 all
checks pass, 1 check failure or a fault of the census (RuntimeError), 2 usage
error / unsupported q / unwritable --out; an error is one stderr line.  Every
check is exhaustive, so a report depends only on (q, modulus); pass --timing
to include wall-clock runtime in the meta block (off by default so default
output is byte-stable).  --out is written as `write_atomic` says; an empty
--out, or a target that is no regular file, FIFO or character device, exits 2.
"""

from __future__ import annotations

import argparse
import errno
import os
import secrets
import stat
import sys

from . import census, pg3, twisted

USAGE_EXIT = 2


def _parse_integers(text):
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_line(text):
    line = _parse_integers(text)
    if len(line) != 6:
        raise argparse.ArgumentTypeError(f"a line needs 6 coordinates, got {text!r}")
    return line


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twistedcubic",
        description="Line classification and orbit census for the twisted "
                    "cubic in PG(3,q).")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, with_class=False):
        p.add_argument("--q", type=int, required=True, help="field order (prime power <= 64)")
        p.add_argument("--modulus", type=_parse_integers, default=None,
                       help="irreducible modulus, little-endian coefficients, e.g. 1,1,0,1")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--long-run", action="store_true",
                       help=f"required for the heavy orders {sorted(census.LONG_RUN_Q)}")
        if with_class:
            p.add_argument("--class", dest="line_class", default=None,
                           choices=twisted.LINE_CLASSES, help="restrict to one line class")

    p = sub.add_parser("classify", help="per-class line and plane counts")
    common(p)

    p = sub.add_parser("orbits", help="orbit census records per class")
    common(p, with_class=True)

    p = sub.add_parser("stabilizer", help="stabilizer of orbit representatives")
    common(p, with_class=True)
    p.add_argument("--line", type=_parse_line, default=None,
                   help="explicit line as 6 Pluecker coordinate encodings l01,l02,l03,l12,l13,l23")
    p.add_argument("--elements", action="store_true", help="also list the (a,b,c,d) elements")

    for verb, text in (("verify", "full check suite; exit 1 on any failure"),
                       ("census", "full report (classes, orbits, checks)")):
        p = sub.add_parser(verb, help=text)
        common(p)
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock runtime in the report meta")
    return ap


def _gate_long_run(args):
    if args.q in census.LONG_RUN_Q and not args.long_run:
        print(f"error: q={args.q} needs --long-run", file=sys.stderr)
        return False
    return True


def write_atomic(path, text):
    """Write text to path, or to a symlink's resolved target.  A regular file
    or a missing path is replaced through a temporary file in its directory,
    so a failed write leaves no partial file; a FIFO or a character device is
    written directly; any other target raises OSError."""
    path = os.path.realpath(path)
    mode = os.stat(path).st_mode if os.path.lexists(path) else stat.S_IFREG
    if stat.S_ISFIFO(mode) or stat.S_ISCHR(mode):
        with open(os.open(path, os.O_WRONLY), "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    if not stat.S_ISREG(mode):
        raise OSError(errno.EINVAL, "not a regular file, FIFO or character device")
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(doc_json, doc_csv, args):
    text = doc_csv if args.format == "csv" else doc_json
    if args.out is not None:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _counts_report(args):
    run = census.CensusRun(args.q, args.modulus)
    line_counts = run.engine.class_counts()
    plane_counts = run.engine.plane_class_counts()
    doc = {
        "schema_version": census.SCHEMA_VERSION,
        "q": args.q,
        "lines": line_counts,
        "planes": plane_counts,
    }
    rows = ["q,kind,class,count"]
    rows += [f"{args.q},line,{c},{n}" for c, n in line_counts.items()]
    rows += [f"{args.q},plane,{c},{n}" for c, n in plane_counts.items()]
    _emit(census.report_to_json(doc), "\n".join(rows) + "\n", args)
    return 0


def _orbits_report(args):
    doc = census.orbit_census(args.q, args.line_class, args.modulus)
    _emit(census.report_to_json(doc), census.report_to_csv(doc), args)
    return 0


def _stabilizer_report(args):
    if args.line is not None and args.line_class is not None:
        raise ValueError("--class is not taken with --line; the line's own class is printed")
    run = census.CensusRun(args.q, args.modulus)
    f = run.field
    entries = []
    if args.line is not None:
        lines = [(None, pg3.line_from_plucker(f, args.line))]
    else:
        lines = [(cls, run.engine.line_from_key(rep))
                 for cls in census.selected_classes(f, args.line_class)
                 for _size, _stab, rep in run.orbit_records(cls)]
    for cls, line in lines:
        elements = run.engine.stabilizer_abcd(line)
        entry = {
            "class": cls if cls else twisted.classify_line(line, run.model),
            "representative": [int(x) for x in line.plucker],
            "orbit_size": run.engine.group_order // len(elements),
            "stabilizer_order": len(elements),
        }
        if args.elements:
            entry["elements"] = [list(map(int, e)) for e in elements]
        entries.append(entry)
    doc = {"schema_version": census.SCHEMA_VERSION, "q": args.q, "stabilizers": entries}
    rows = ["q,class,orbit_size,stabilizer_order,representative"]
    rows += [
        "{},{},{},{},{}".format(args.q, e["class"], e["orbit_size"],
                                e["stabilizer_order"],
                                ":".join(map(str, e["representative"])))
        for e in entries
    ]
    _emit(census.report_to_json(doc), "\n".join(rows) + "\n", args)
    return 0


def _verify_report(args, print_checks):
    report = census.verify(args.q, args.modulus, timing=args.timing)
    if print_checks:
        for chk in report["checks"]:
            status = "PASS" if chk["pass"] else "FAIL"
            basis = "" if chk["basis"] == "theorem" else f" [{chk['basis']}]"
            print(f"{status} {chk['name']}{basis}")
        verdict = "all checks passed" if report["pass"] else "CHECK FAILURES"
        print(f"q={args.q}: {verdict} ({len(report['checks'])} checks)")
    if not print_checks or args.out is not None:
        _emit(census.report_to_json(report), census.report_to_csv(report), args)
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not _gate_long_run(args):
        return USAGE_EXIT
    if args.out == "":
        print("error: --out needs a path", file=sys.stderr)
        return USAGE_EXIT
    try:
        if args.verb == "classify":
            return _counts_report(args)
        if args.verb == "orbits":
            return _orbits_report(args)
        if args.verb == "stabilizer":
            return _stabilizer_report(args)
        if args.verb == "verify":
            return _verify_report(args, print_checks=True)
        if args.verb == "census":
            return _verify_report(args, print_checks=False)
    except (census.UnsupportedQ, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, RuntimeError) else USAGE_EXIT
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_EXIT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
