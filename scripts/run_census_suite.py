#!/usr/bin/env python3
"""Run the full verification suite over a range of field orders.

Writes one JSON report per order into --out-dir and prints a summary table.
The default list covers every order up to 32, each with a confirmed
external-line spectrum.  --long-run adds the confirmed orders of
census.LONG_RUN_Q (every supported order above 32), and --all --long-run
adds the remaining ones too (their external-line spectra are
conjecture-labeled in the reports).

Exit codes: 0 every check passed, 1 a check failed, 2 a report could not be
written.
"""

import argparse
import pathlib
import sys
import time

from twistedcubic import census, cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--long-run", action="store_true",
                    help=f"also run the confirmed orders among {sorted(census.LONG_RUN_Q)}")
    ap.add_argument("--all", action="store_true",
                    help="with --long-run, also run the conjecture-labeled orders "
                         f"{sorted(set(census.SUPPORTED_Q) - census.CONFIRMED_SPECTRUM_Q)}")
    ap.add_argument("--timing", action="store_true",
                    help="record wall-clock runtime inside each report")
    args = ap.parse_args()

    orders = [q for q in census.SUPPORTED_Q
              if (args.all or q in census.CONFIRMED_SPECTRUM_Q)
              and (args.long_run or q not in census.LONG_RUN_Q)]

    out_dir = pathlib.Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return cli.USAGE_EXIT

    any_failed = False
    print(f"{'q':>4} {'checks':>7} {'orbits':>7} {'verdict':>8} {'seconds':>8}")
    for q in orders:
        started = time.monotonic()
        report = census.verify(q, timing=args.timing)
        elapsed = time.monotonic() - started
        orbits = sum(len(e["orbits"]) for e in report["classes"])
        verdict = "ok" if report["pass"] else "FAILED"
        any_failed |= not report["pass"]
        path = out_dir / f"census_q{q}.json"
        try:
            cli.write_atomic(path, census.report_to_json(report))
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return cli.USAGE_EXIT
        print(f"{q:>4} {len(report['checks']):>7} {orbits:>7} {verdict:>8} {elapsed:>8.1f}")
        if not report["pass"]:
            for chk in report["checks"]:
                if not chk["pass"]:
                    print(f"     FAIL {chk['name']}: expected {chk['expected']}, "
                          f"got {chk['actual']}")
    print(f"reports written to {out_dir}/")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
