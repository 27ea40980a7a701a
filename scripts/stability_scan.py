#!/usr/bin/env python3
"""Tabulate branching multiplicities across the group rank n.

The closed formulas are rank-independent once n clears the bound for the
weight in question; below the bound they are evaluated anyway (warn
policy) and generally disagree with the true small-rank multiplicity.
The scan prints one row per weight pair with a marker '|' at the first n
for which the formula's own range rule (`branch.gl_to_o_range`,
`branch.o_tensor_range`) reports the stable range, so the onset of
stability is visible at a glance.

    PYTHONPATH=src python3 scripts/stability_scan.py [--max-size 3] [--window 9]
"""

import argparse
import itertools
import warnings

from branchbox import branch
from branchbox.partitions import enumerate_partitions, is_admissible_o


def scan_gl_to_o(max_size: int, window: int) -> None:
    print("gl_to_o(lam, mu, n): '|' marks the stable bound n > 2*len(lam)")
    header = "lam".rjust(8) + "mu".rjust(8)
    ns = list(range(1, window + 1))
    print(header + "".join(str(n).rjust(4) for n in ns))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lam in enumerate_partitions(max_size):
            for mu in enumerate_partitions(sum(lam), max_length=len(lam) or 1):
                if (sum(lam) - sum(mu)) % 2:
                    continue
                cells = []
                bound = next(n for n in itertools.count(1)
                             if branch.gl_to_o_range(lam, n) is None)
                for n in ns:
                    if len(lam) > n or not is_admissible_o(mu, n):
                        cells.append("   .")
                        continue
                    v = branch.gl_to_o(lam, mu, n, policy=branch.WARN_AND_COMPUTE)
                    mark = "|" if n == bound else " "
                    cells.append(mark + str(v).rjust(3))
                row = ",".join(map(str, lam)).rjust(8) + ",".join(map(str, mu)).rjust(8)
                print(row + "".join(cells))


def scan_o_tensor(max_size: int, window: int) -> None:
    print()
    print("o_tensor_stable(mu, nu, lam, n): '|' marks n > 2*(len(mu)+len(nu))")
    ns = list(range(1, window + 1))
    print("mu".rjust(6) + "nu".rjust(6) + "lam".rjust(8)
          + "".join(str(n).rjust(4) for n in ns))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for mu in enumerate_partitions(max_size // 2):
            for nu in enumerate_partitions(max_size - sum(mu)):
                for lam in enumerate_partitions(sum(mu) + sum(nu),
                                                max_length=(len(mu) + len(nu)) or 1):
                    if (sum(mu) + sum(nu) - sum(lam)) % 2:
                        continue
                    cells = []
                    bound = next(n for n in itertools.count(1)
                                 if branch.o_tensor_range(mu, nu, n) is None)
                    for n in ns:
                        if not all(is_admissible_o(p, n) for p in (mu, nu, lam)):
                            cells.append("   .")
                            continue
                        v = branch.o_tensor_stable(mu, nu, lam, n,
                                                   policy=branch.WARN_AND_COMPUTE)
                        mark = "|" if n == bound else " "
                        cells.append(mark + str(v).rjust(3))
                    row = (",".join(map(str, mu)).rjust(6)
                           + ",".join(map(str, nu)).rjust(6)
                           + ",".join(map(str, lam)).rjust(8))
                    print(row + "".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=3,
                        help="largest weight size to scan (default 3)")
    parser.add_argument("--window", type=int, default=9,
                        help="largest rank n in the table (default 9)")
    args = parser.parse_args(argv)
    scan_gl_to_o(args.max_size, args.window)
    scan_o_tensor(args.max_size, args.window)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
