#!/usr/bin/env python3
"""Replay every request of a benchmark workload for some seeds in process, and digest the output.

    PYTHONPATH=src python3 scripts/replay_oracle.py SEEDS [--workload formula-tables]

SEEDS is a comma-separated list of positive integers, for example
`1,2,3`.  The requests are those of every round of the workload for each
seed, as `perfbench.workloads.generate` deals them: `oracle-verify` by
default, or `formula-tables`, whose ops are all CLI requests too.  Each
runs through `branchbox.cli.main`, one at a time, with the LR memo cleared
at each round and the warning filters reset at each request, as a fresh
process would start.  The script prints the number of requests and one
sha256 over each request's argv, exit code, stdout and stderr, in order, so
two source trees can be compared byte for byte.  A request may exit 1 (a formula-vs-oracle mismatch out of range) or 3 (an
internal error the CLI reports): those are outputs like any other.  It
reads the benchmark's generator and changes nothing under `perfbench/`.
Standard library only.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import ROUNDS, generate  # noqa: E402

from branchbox import cli, lr  # noqa: E402

WORKLOADS = ("oracle-verify", "formula-tables")  # the workloads made only of CLI requests


def replay(seeds: list[int], workload: str = WORKLOADS[0]) -> tuple[int, str]:
    """(requests run, sha256 hex digest over their argv, exit code, stdout and stderr)."""
    digest = hashlib.sha256()
    count = 0
    for seed in seeds:
        for round_index in range(ROUNDS[workload]):
            lr.clear_cache()
            for op in generate(workload, seed, round_index):
                out, err = io.StringIO(), io.StringIO()
                with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
                      warnings.catch_warnings()):
                    warnings.simplefilter("default")
                    try:
                        code = cli.main(op["argv"])
                    except SystemExit as exc:
                        code = exc.code
                for part in (repr(op["argv"]), repr(code), out.getvalue(), err.getvalue()):
                    digest.update(part.encode())
                    digest.update(b"\0")
                count += 1
    return count, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", metavar="SEEDS", help="comma-separated positive seeds, e.g. 1,2,3")
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    args = parser.parse_args(argv)
    parts = args.seeds.split(",")
    if not all(p.isdigit() and int(p) > 0 for p in parts):
        print(parser.format_usage().rstrip() + "  (comma-separated positive seeds, e.g. 1,2,3)",
              file=sys.stderr)
        return 2
    count, hexdigest = replay([int(p) for p in parts], args.workload)
    print(f"{count} requests\t{hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
