#!/usr/bin/env python3
"""Time the multiplicity oracle and a few CLI requests in process, for two source trees.

The oracle cases are eight certification sizes: both modes, cases A, B
and stacked C, and a ProductO shape, with A(5,3) and A(5,4) as the shapes
with three and four columns.  One bucket case times the weight
blocks alone: `build_buckets` on A(5,2) at degree 12, 646,646 monomials,
with only the dominant blocks kept.  The CLI cases are two `restrict o` tables larger than the
benchmark's, a `tensor sp` and a `tensor o` table, one large `lr` value,
the bracket check on A(6,3) and a `verify seesaw-a` on the 900 variables of
A(30,30) at degree 1, whose config build dominates and whose packed weight
code is the widest of any case (90 digits).

    PYTHONPATH=src python3 scripts/oracle_ladder.py [REPEAT]

Each oracle case calls `hwv_multiplicities` REPEAT times (default 5), the
bucket case `build_buckets` on a config built once, and each CLI case runs
its request in process REPEAT times from an empty LR memo, as a fresh CLI
process would.  Each case prints one line: the case, the median wall
seconds (`time.perf_counter`) and a sha256: of the result as the CLI would
emit it (JSON entries in label order) for an oracle case, of the table's
blocks in order (each key and its monomials as exponent tuples, as `repr`
prints them) for the bucket case, of the request's stdout for a CLI case.  So two source trees can be
compared on time and on output.  Each line is flushed as its case ends, and
a reader that closes stdout early (`oracle_ladder.py 5 | head -6`) ends the
run quietly with exit code 1.  Standard library only.
"""

import contextlib
import hashlib
import io
import os
import statistics
import sys
import time

from branchbox import cli, jsonio, lr
from branchbox.dualpair import (FULL, MOD_IDEAL, MatrixSpaceShape, ProductO, build_buckets,
                                build_config, hwv_multiplicities)
from branchbox.dualpair.poly import unpack
from branchbox.reports import sorted_entries

CASES = [
    ("A(5,2) FULL deg 7", MatrixSpaceShape("A", 5, 2), 7, FULL),
    ("A(9,2) FULL deg 5", MatrixSpaceShape("A", 9, 2), 5, FULL),
    ("A(6,2) ProductO(3,3) deg 6", ProductO(3, 3, 2), 6, MOD_IDEAL),
    ("A(7,2+1 split) MOD_IDEAL deg 5", MatrixSpaceShape("A", 7, 2, 1, split_columns=True), 5,
     MOD_IDEAL),
    ("B(3,2) FULL deg 7", MatrixSpaceShape("B", 3, 2), 7, FULL),
    ("C(4,2+2 stacked) FULL deg 6", MatrixSpaceShape("C", 4, 2, 2, split_columns=True), 6, FULL),
    ("A(5,3) FULL deg 7", MatrixSpaceShape("A", 5, 3), 7, FULL),
    ("A(5,4) FULL deg 6", MatrixSpaceShape("A", 5, 4), 6, FULL),
]
BUCKET_CASES = [
    ("buckets A(5,2) deg 12", MatrixSpaceShape("A", 5, 2), 12),
]
TABLE_CASES = [
    ("restrict o 5,4,3,2 n=m=9", ["restrict", "o", "--lam", "5,4,3,2", "--n", "9", "--m", "9"]),
    ("restrict o 4,3,3,2 n=m=9", ["restrict", "o", "--lam", "4,3,3,2", "--n", "9", "--m", "9"]),
    ("tensor sp 4,3,2 x 3,2,1 n=13",
     ["tensor", "sp", "--mu", "4,3,2", "--nu", "3,2,1", "--n", "13"]),
    ("tensor o 5,3,1 x 4,2,1 n=13", ["tensor", "o", "--mu", "5,3,1", "--nu", "4,2,1", "--n", "13"]),
    ("lr 8..1 / 5..1 x 6..1", ["lr", "--lam", "8,7,6,5,4,3,2,1", "--mu", "5,4,3,2,1",
                              "--nu", "6,5,4,3,2,1"]),
    ("verify brackets A(6,3)", ["verify", "brackets", "--case", "a", "--n", "6", "--m", "3"]),
    ("verify seesaw-a n=m=30 deg 1",
     ["verify", "seesaw-a", "--n", "30", "--m", "30", "--max-degree", "1"]),
]


def _report(name: str, times: list[float], text: str) -> None:
    sha = hashlib.sha256(text.encode()).hexdigest()
    print(f"{name}\t{statistics.median(times):.3f}\t{sha}", flush=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1 or (argv and not (argv[0].isdigit() and int(argv[0]) > 0)):
        print("usage: oracle_ladder.py [REPEAT]  (a positive repeat count)", file=sys.stderr)
        return 2
    repeat = int(argv[0]) if argv else 5
    for name, shape, degree, mode in CASES:
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            entries = hwv_multiplicities(shape, degree, mode)
            times.append(time.perf_counter() - start)
        _report(name, times, jsonio.dumps([jsonio.entry_json(e) for e in sorted_entries(entries)]))
    for name, shape, degree in BUCKET_CASES:
        config = build_config(shape)
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            table = build_buckets(config, degree, dominant_only=True)
            times.append(time.perf_counter() - start)
        _report(name, times, repr([(key, [unpack(mono, table.width, config.var_count)
                                          for mono in monos])
                                   for key, monos in table.buckets.items()]))
    for name, request in TABLE_CASES:
        times = []
        for _ in range(repeat):
            lr.clear_cache()
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(request)
            times.append(time.perf_counter() - start)
            if code:
                print(f"{name}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
                return 1
        _report(name, times, out.getvalue())
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # stdout is gone: point it at devnull so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
