#!/usr/bin/env python3
"""Run every formula-vs-oracle suite at its default certification sizes.

Each suite re-derives a table of branching or tensor multiplicities from
the polynomial model by exact linear algebra and compares it entry by
entry with the closed combinatorial formula.  Exit status is nonzero if
any suite reports a mismatch.  Sizes are chosen so the whole run stays
well under a minute.
"""

import argparse
import sys

from branchbox.cli import main as branchbox

SUITES = [
    ["verify", "seesaw-a", "--n", "5", "--m", "2"],
    ["verify", "seesaw-c", "--n", "3", "--m", "2", "--l", "1"],
    ["verify", "tensor-o", "--n", "5", "--m", "1", "--l", "1"],
    ["verify", "restrict-o", "--n", "3", "--l", "3", "--m", "1"],
    ["verify", "brackets", "--case", "a", "--n", "4", "--m", "2"],
    ["verify", "brackets", "--case", "b", "--n", "2", "--m", "2"],
    ["verify", "brackets", "--case", "c", "--n", "2", "--m", "1", "--l", "1"],
    ["hilbert", "--n", "5", "--m", "2", "--max-degree", "8"],
    ["hilbert", "--n", "7", "--m", "3", "--max-degree", "8"],
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=4,
                        help="degree bound for the oracle tables (default 4)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-entry JSON, keep the summaries")
    args = parser.parse_args(argv)

    failures = 0
    for argv in SUITES:
        if argv[0] == "verify" and argv[1] != "brackets":  # brackets has no degree
            argv = argv + ["--max-degree", str(args.max_degree)]
        print("$ branchbox " + " ".join(argv), file=sys.stderr)
        if args.quiet:
            from contextlib import redirect_stdout
            from io import StringIO
            with redirect_stdout(StringIO()):
                rc = branchbox(argv)
        else:
            rc = branchbox(argv)
        if rc != 0:
            failures += 1
    print(f"{len(SUITES) - failures}/{len(SUITES)} suites passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
