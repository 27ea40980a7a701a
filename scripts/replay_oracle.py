#!/usr/bin/env python3
"""Replay every `oracle-verify` benchmark request of some seeds in process, and digest the output.

    PYTHONPATH=src python3 scripts/replay_oracle.py SEEDS

SEEDS is a comma-separated list of positive integers, for example
`1,2,3`.  The requests are those of every round of the `oracle-verify`
workload for each seed, as `perfbench.workloads.generate` deals them.  Each
runs through `branchbox.cli.main`, one at a time, with the LR memo cleared
at each round and the warning filters reset at each request, as a fresh
process would start.  The script prints the number of requests and one
sha256 over each request's argv, exit code, stdout and stderr, in order, so
two source trees can be compared byte for byte.  A request may exit 1 (a formula-vs-oracle mismatch out of range) or 3 (an
internal error the CLI reports): those are outputs like any other.  It
reads the benchmark's generator and changes nothing under `perfbench/`.
Standard library only.
"""

import contextlib
import hashlib
import io
import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import ROUNDS, generate  # noqa: E402

from branchbox import cli, lr  # noqa: E402

WORKLOAD = "oracle-verify"


def replay(seeds: list[int]) -> tuple[int, str]:
    """(requests run, sha256 hex digest over their argv, exit code, stdout and stderr)."""
    digest = hashlib.sha256()
    count = 0
    for seed in seeds:
        for round_index in range(ROUNDS[WORKLOAD]):
            lr.clear_cache()
            for op in generate(WORKLOAD, seed, round_index):
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
    argv = sys.argv[1:] if argv is None else argv
    parts = argv[0].split(",") if len(argv) == 1 else []
    if not parts or not all(p.isdigit() and int(p) > 0 for p in parts):
        print("usage: replay_oracle.py SEEDS  (comma-separated positive seeds, e.g. 1,2,3)",
              file=sys.stderr)
        return 2
    count, hexdigest = replay([int(p) for p in parts])
    print(f"{count} requests\t{hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
