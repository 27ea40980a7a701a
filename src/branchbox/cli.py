"""Batch front door: multiplicity tables, verification suites, reports.

Exit status: 0 on success (and all-PASS for verification suites), 1 when any
verification entry fails, 2 on usage, stable-range or size-budget errors, 3
on an internal invariant error (a bug, reported in one line).  A table is
handed to `_emit_table` as cells {weights: mult}: it validates, ranks and
renders each distinct label once and sorts the rows by those graded-revlex
ranks, in the order `reports.sorted_entries` defines, so output is
byte-identical for identical inputs.

Every formula-vs-oracle suite is one `Suite` row of `SUITES`: its flags, the
label families, the label grid, the formula and the polynomial model.  One
driver, `_cmd_verify`, checks the model's monomial count (so an oversized
request is refused before any work), evaluates the formula over the sorted
grid (so `--stable-policy enforce` refuses before the oracle runs), counts
highest weight vectors in the model, evaluates the formula on oracle-only
labels too, and compares entry by entry.  The `verify` subparsers are built
from the same table.

No refusal is decided here: `branch` owns the stable range (handlers read
the `stable` flag from its rules and table checks), and `dualpair` and
`dims.hilbert_check` the size budgets.  The argument parser is built once
per process, on the first `main` call, and records each leaf parser (`lr`,
`hilbert`, `branch gl-o`, ..., `verify <suite>`) under its command path.
A request is parsed once, by the leaf parser its leading tokens name; the
root parses only what no leaf takes whole (no command or an unknown one,
help above a leaf, or arguments the leaf leaves over), so help, usage
errors and "unrecognized arguments" read as they do from the root.  No
parser takes an abbreviated flag, so `--n` is never read as `--nu`.  A
`restrict o` or `tensor sp` table is gated once, by
`branch.check_o_restrict` or `branch.check_sp_tensor`, so under `warn` it
emits one StableRangeWarning, which `main` writes as one line, `warning:
<message>`.  A `tensor sp` table then maps the trusted kernel over keys that
are canonical and admissible by construction.  A `restrict o` table is
one scatter, `branch.o_restrict_table`: each GL intermediate tau <= lam
carries its even-row sum E_lam(tau), computed once, into every cell
(mu, nu) of its memoized LR coproduct `lr.coproduct(tau)`,
and the handler keeps the cells whose mu and nu are admissible O_n and O_m
labels, testing each distinct mu and nu once.  A single value still
gathers its one sum through `branch.o_restrict_stable`, which reads the
same memoized LR content tables (`lr.skew_contents`).  A `tensor o` table
still evaluates each entry through `branch.o_tensor_stable`, which checks
and gates every entry (after one `branch.refuse`): the benchmark's tests
plant wrong values in that binding and expect the table to show them.

Each handler hands `_emit` one callable per rendering, and `_emit_table`
branches on the format, so only the requested one is built.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import dataclass
from operator import getitem
from typing import Callable, Mapping, Sequence

from . import branch, jsonio, lr
from .dims import hilbert_check
from .dualpair import (FULL, MOD_IDEAL, MatrixSpaceShape, ProductO, check_monomial_count,
                       hwv_multiplicities, verify_brackets)
from .errors import BudgetError, InternalInvariantError, StableRangeError, UsageError
from .partitions import (IrrepLabel, Partition, admissible_o_kernel, enumerate_partitions,
                         grevlex_key, is_admissible_o, partitions_of)
from .reports import MultiplicityEntry, labels_sort_key
# Uncalled (`_emit_table` sorts by ranks); perfbench/tracer.py wraps this binding.
from .reports import sorted_entries  # noqa: F401

_POLICIES = {"enforce": branch.ENFORCE, "warn": branch.WARN_AND_COMPUTE}


# ---------------------------------------------------------------------------
# output helpers

def _emit(args, to_json: Callable[[], object], to_csv: Callable[[], str]) -> None:
    """Write the rendering --output-format asks for; only that one is built."""
    if args.output_format == "json":
        sys.stdout.write(jsonio.dumps(to_json()) + "\n")
    else:
        sys.stdout.write(to_csv())


def _emit_value(args, value: int, stable: bool | None = None) -> None:
    _emit(args, lambda: jsonio.value_json(value, stable), lambda: jsonio.value_csv(value, stable))


def _emit_table(args, columns: Sequence[tuple[str, int]],
                cells: Mapping[tuple[Partition, ...], int], stable: bool) -> None:
    """Write a table of cells {weights: mult}, columns[i] the (family, rank) of weights[i].

    Each distinct weight of a column is validated once (one `IrrepLabel`),
    ranked once (its place in graded-revlex order) and, for JSON, rendered
    once.  The cells are sorted by their tuple of column ranks: the order of
    `sorted_entries`, since a column shares one family, `grevlex_key` is
    injective on partitions and no two cells share their weights.
    """
    labels = [{w: IrrepLabel(family, rank, w) for w in set(col)}
              for (family, rank), col in zip(columns, zip(*cells))]
    ranks = [{w: r for r, w in enumerate(sorted(col, key=grevlex_key))} for col in labels]
    order = sorted(cells, key=lambda key: tuple(map(getitem, ranks, key)))
    if args.output_format == "json":
        texts = [{w: jsonio.dumps(jsonio.label_json(lab)) for w, lab in col.items()}
                 for col in labels]
        rows = ((tuple(map(getitem, texts, key)), cells[key]) for key in order)
        sys.stdout.write(jsonio.entries_json_text(rows, stable) + "\n")
    else:
        sys.stdout.write(jsonio.entries_csv(
            [MultiplicityEntry(tuple(map(getitem, labels, key)), cells[key], stable)
             for key in order]))


def _require_positive(**named: int) -> None:
    for flag, value in named.items():
        if value < 1:
            raise UsageError(f"--{flag} must be a positive integer")


# ---------------------------------------------------------------------------
# label sets shared by the tables and the verify grids

def _tensor_targets(mu, nu, admissible) -> list:
    """The labels lam that can occur in mu (x) nu: |lam| <= |mu| + |nu|, same parity."""
    total = sum(mu) + sum(nu)
    return [lam for lam in enumerate_partitions(total, max_length=len(mu) + len(nu))
            if (total - sum(lam)) % 2 == 0 and admissible(lam)]


def _restrict_targets(lam, n: int, m: int) -> list:
    """The O_n x O_m label pairs (mu, nu) that can occur in the O_{n+m} irrep lam."""
    size, rows = sum(lam), len(lam)
    return [(mu, nu)
            for mu in enumerate_partitions(size, max_length=rows)
            if is_admissible_o(mu, n)
            for rest in [size - sum(mu)]
            for nu in enumerate_partitions(rest, max_length=rows)
            if (rest - sum(nu)) % 2 == 0 and is_admissible_o(nu, m)]


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_lr(args) -> int:
    lam = jsonio.parse_partition(args.lam)
    mu = jsonio.parse_partition(args.mu)
    nu = jsonio.parse_partition(args.nu)
    _emit_value(args, lr.lr_coefficient(lam, mu, nu))
    return 0


def _cmd_branch(args) -> int:
    _require_positive(n=args.n)
    lam = jsonio.parse_partition(args.lam)
    mu = jsonio.parse_partition(args.mu)
    formula, rule = ((branch.gl_to_o, branch.gl_to_o_range) if args.pair == "gl-o"
                     else (branch.gl_to_sp, branch.gl_to_sp_range))
    value = formula(lam, mu, args.n, _POLICIES[args.stable_policy])
    _emit_value(args, value, rule(lam, args.n) is None)
    return 0


def _cmd_tensor(args) -> int:
    _require_positive(n=args.n)
    mu = jsonio.parse_partition(args.mu)
    nu = jsonio.parse_partition(args.nu)
    n = args.n
    policy = _POLICIES[args.stable_policy]
    if args.family == "o":
        single, fam, rank, rule = branch.o_tensor_stable, "O", n, branch.o_tensor_range
        admissible = lambda lam: is_admissible_o(lam, n)
    else:
        single, fam, rank, rule = branch.sp_tensor_stable, "Sp", 2 * n, branch.sp_tensor_range
        admissible = lambda lam: len(lam) <= n
    if args.lam is not None:
        value = single(mu, nu, jsonio.parse_partition(args.lam), n, policy)
        _emit_value(args, value, rule(mu, nu, n) is None)
        return 0
    if args.family == "o":  # per entry, through the binding the benchmark plants into
        stable = branch.refuse(rule(mu, nu, n), policy)
        value = lambda lam: branch.o_tensor_stable(mu, nu, lam, n, policy)
    else:
        stable = branch.check_sp_tensor(mu, nu, n, policy)
        value = lambda lam: branch.tensor_kernel(mu, nu, lam)
    cells = {(lam,): v for lam in _tensor_targets(mu, nu, admissible) for v in [value(lam)] if v}
    _emit_table(args, ((fam, rank),), cells, stable)
    return 0


def _cmd_tensor_rational(args) -> int:
    _require_positive(n=args.n)
    mu = jsonio.parse_signature(args.mu)
    nu = jsonio.parse_signature(args.nu)
    lam = jsonio.parse_signature(args.lam)
    _emit_value(args, branch.gl_tensor_rational(mu, nu, lam, args.n))
    return 0


def _cmd_restrict(args) -> int:
    _require_positive(n=args.n, m=args.m)
    lam = jsonio.parse_partition(args.lam)
    n, m = args.n, args.m
    if (args.mu is None) != (args.nu is None):
        raise UsageError("provide both --mu and --nu for a single value, or neither for the table")
    policy = _POLICIES[args.stable_policy]
    if args.mu is not None:
        mu = jsonio.parse_partition(args.mu)
        nu = jsonio.parse_partition(args.nu)
        value = branch.o_restrict_stable(lam, mu, nu, n, m, policy)
        _emit_value(args, value, branch.o_restrict_range(lam, n, m) is None)
        return 0
    stable = branch.check_o_restrict(lam, n, m, policy)
    table = branch.o_restrict_table(lam)
    # admissibility once per distinct mu and nu, not once per cell
    mus = {mu for mu in {mu for mu, _ in table} if admissible_o_kernel(mu, n)}
    nus = {nu for nu in {nu for _, nu in table} if admissible_o_kernel(nu, m)}
    cells = {key: v for key, v in table.items() if key[0] in mus and key[1] in nus}
    _emit_table(args, (("O", n), ("O", m)), cells, stable)
    return 0


# ---------------------------------------------------------------------------
# verification suites: formula vs. brute-force oracle, entry by entry

@dataclass(frozen=True)
class Suite:
    """One formula-vs-oracle suite.

    `flags` are (name, default or None if required, help) in parser order.
    `families` are (family, rank flag) in label order, which is also the
    order of the report's params p.  `grid(deg, **p)` is a set of keys, one
    weight per family; `formula(*key, policy, **p)` evaluates a key, and
    `model(**p)` is the oracle's (shape, mode).
    """
    help: str
    flags: tuple
    families: tuple
    grid: Callable
    formula: Callable
    model: Callable


_N, _M, _L = ("n", None, None), ("m", None, None), ("l", 1, None)

SUITES = {
    "seesaw-a": Suite(
        "GL to O branching vs. joint highest weight vectors",
        (_N, _M), (("O", "n"), ("GL", "m")),
        lambda deg, n, m: {(mu, lam)
                           for lam in enumerate_partitions(deg, max_length=min(n, m))
                           for mu in enumerate_partitions(sum(lam), max_length=min(n, m))
                           if is_admissible_o(mu, n)},
        lambda mu, lam, policy, n, m: branch.gl_to_o(lam, mu, n, policy),
        lambda n, m: (MatrixSpaceShape("A", n, m), FULL)),
    "seesaw-c": Suite(
        "LR coefficients vs. stacked two-block model",
        (_N, _M, _L), (("GL", "n"), ("GL", "m"), ("GL", "l")),
        lambda deg, n, m, l: {(lam, mu, nu)
                              for lam in enumerate_partitions(deg, max_length=min(n, m + l))
                              for mu in enumerate_partitions(sum(lam), max_length=min(n, m))
                              for nu in partitions_of(sum(lam) - sum(mu), max_length=min(n, l))},
        lambda lam, mu, nu, policy, **_: lr.lr_coefficient(lam, mu, nu),
        lambda n, m, l: (MatrixSpaceShape("C", n, m, l, split_columns=True), FULL)),
    "tensor-o": Suite(
        "stable O tensor product vs. harmonics of the split model",
        (_N, _M, _L), (("O", "n"), ("GL", "m"), ("GL", "l")),
        lambda deg, n, m, l: {(lam, mu, nu)
                              for mu in enumerate_partitions(deg, max_length=m)
                              for nu in enumerate_partitions(deg - sum(mu), max_length=l)
                              for lam in _tensor_targets(mu, nu,
                                                         lambda t: is_admissible_o(t, n))},
        lambda lam, mu, nu, policy, n, **_: branch.o_tensor_stable(mu, nu, lam, n, policy),
        lambda n, m, l: (MatrixSpaceShape("A", n, m, l, split_columns=True), MOD_IDEAL)),
    "restrict-o": Suite(
        "stable O restriction vs. the product-group model",
        (("n", None, "first orthogonal block size"),
         ("m", None, "column count of the matrix space"), ("l", 1, "second orthogonal block size")),
        (("O", "n"), ("O", "l"), ("GL", "m")),
        lambda deg, n, l, m: {(mu, nu, lam)
                              for lam in enumerate_partitions(deg, max_length=min(n + l, m))
                              for mu, nu in _restrict_targets(lam, n, l)},
        lambda mu, nu, lam, policy, n, l, m: branch.o_restrict_stable(lam, mu, nu, n, l, policy),
        lambda n, l, m: (ProductO(n, l, m), MOD_IDEAL)),
}


def _verdict(name: str, total: int, failed: int) -> int:
    print(f"verify {name}: {total} entries, "
          + (f"{failed} FAIL" if failed else "all PASS"), file=sys.stderr)
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    """The oracle's size first, then the formula over the sorted grid (so
    `enforce` refuses before the oracle runs), then the oracle, then the
    formula on oracle-only keys."""
    suite = SUITES[args.suite]
    _require_positive(**{name: getattr(args, name) for name, _, _ in suite.flags})
    p = {flag: getattr(args, flag) for _, flag in suite.families}
    policy, deg = _POLICIES[args.stable_policy], args.max_degree
    shape, mode = suite.model(**p)
    check_monomial_count(shape.var_count, deg)
    grid = suite.grid(deg, **p)
    values = {key: suite.formula(*key, policy, **p) for key in sorted(grid)}
    oracle = {tuple(lab.weight for lab in e.labels): e.mult
              for e in hwv_multiplicities(shape, deg, mode)}
    values.update((key, suite.formula(*key, policy, **p)) for key in sorted(oracle.keys() - grid))
    rows = sorted(((tuple(IrrepLabel(fam, p[flag], w)
                          for (fam, flag), w in zip(suite.families, key)),
                    value, oracle.get(key, 0))
                   for key, value in values.items()),
                  key=lambda row: labels_sort_key(row[0]))
    _emit(args, lambda: jsonio.verify_json(args.suite, {**p, "max_degree": deg}, rows),
          lambda: jsonio.verify_csv(rows))
    return _verdict(args.suite, len(rows), sum(1 for row in rows if row[1] != row[2]))


def _cmd_verify_brackets(args) -> int:
    _require_positive(n=args.n, m=args.m)
    shape = MatrixSpaceShape(args.case.upper(), args.n, args.m, args.l or 0)
    report = verify_brackets(shape)
    _emit(args, lambda: jsonio.bracket_report_json(report),
          lambda: jsonio.bracket_report_csv(report))
    return _verdict("brackets", len(report.entries), len(report.failures))


def _cmd_hilbert(args) -> int:
    _require_positive(n=args.n, m=args.m)
    ok, series = hilbert_check(args.n, args.m, args.max_degree)
    _emit(args, lambda: jsonio.hilbert_json(ok, series), lambda: jsonio.hilbert_csv(ok, series))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[tuple[str, ...], argparse.ArgumentParser]]:
    """The root parser, and each leaf parser under its command path."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output-format", choices=("json", "csv"), default="json")
    policy = argparse.ArgumentParser(add_help=False, parents=[output])
    policy.add_argument("--stable-policy", choices=("enforce", "warn"), default="enforce")
    oracle = argparse.ArgumentParser(add_help=False, parents=[policy])
    oracle.add_argument("--max-degree", type=int, default=6,
                        help="degree bound for oracle computations (default 6)")

    parser = argparse.ArgumentParser(
        prog="branchbox", allow_abbrev=False,
        description="Exact stable-range branching multiplicities with brute-force verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    leaves: dict[tuple[str, ...], argparse.ArgumentParser] = {}

    def node(subparsers, name: str, **kwargs) -> argparse.ArgumentParser:
        # no parser reads a flag as a prefix of another (`--n` for `--nu`)
        return subparsers.add_parser(name, allow_abbrev=False, **kwargs)

    def leaf(subparsers, *path: str, **kwargs) -> argparse.ArgumentParser:
        leaves[path] = node(subparsers, path[-1], **kwargs)
        return leaves[path]

    p = leaf(sub, "lr", parents=[output], help="single Littlewood-Richardson coefficient")
    p.add_argument("--lam", required=True, help="partition, e.g. 3,2,1 (empty string = empty)")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(handler=_cmd_lr)

    p = node(sub, "branch", help="stable branching multiplicity GL to O/Sp")
    pair_sub = p.add_subparsers(dest="pair", required=True)
    for pair in ("gl-o", "gl-sp"):
        q = leaf(pair_sub, "branch", pair, parents=[policy])
        q.add_argument("--lam", required=True, help="GL highest weight (partition)")
        q.add_argument("--mu", required=True, help="O/Sp highest weight (partition)")
        q.add_argument("--n", type=int, required=True)
        q.set_defaults(handler=_cmd_branch, pair=pair)

    p = node(sub, "tensor", help="stable tensor product multiplicities")
    fam_sub = p.add_subparsers(dest="family", required=True)
    for family in ("o", "sp"):
        q = leaf(fam_sub, "tensor", family, parents=[policy])
        q.add_argument("--mu", required=True)
        q.add_argument("--nu", required=True)
        q.add_argument("--lam", default=None,
                       help="target label; omit for the full table")
        q.add_argument("--n", type=int, required=True)
        q.set_defaults(handler=_cmd_tensor, family=family)
    q = leaf(fam_sub, "tensor", "gl-rational", parents=[output])
    q.add_argument("--mu", required=True, help="signature plus;minus, e.g. 2,1;1")
    q.add_argument("--nu", required=True)
    q.add_argument("--lam", required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(handler=_cmd_tensor_rational, family="gl-rational")

    p = node(sub, "restrict", help="stable restriction O_{n+m} to O_n x O_m")
    r_sub = p.add_subparsers(dest="target", required=True)
    q = leaf(r_sub, "restrict", "o", parents=[policy])
    q.add_argument("--lam", required=True, help="O_{n+m} highest weight")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--mu", default=None, help="O_n label (with --nu for a single value)")
    q.add_argument("--nu", default=None, help="O_m label")
    q.set_defaults(handler=_cmd_restrict)

    p = node(sub, "verify", help="formula vs. brute-force oracle suites")
    v_sub = p.add_subparsers(dest="suite", required=True)
    for name, suite in SUITES.items():
        q = leaf(v_sub, "verify", name, parents=[oracle], help=suite.help)
        for flag, default, text in suite.flags:
            q.add_argument(f"--{flag}", type=int, required=default is None, default=default,
                           help=text)
        q.set_defaults(handler=_cmd_verify, suite=name)
    q = leaf(v_sub, "verify", "brackets", parents=[output],
             help="commutation relations of the model operators")
    q.add_argument("--case", choices=("a", "b", "c"), required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--l", type=int, default=0)
    q.set_defaults(handler=_cmd_verify_brackets)

    p = leaf(sub, "hilbert", parents=[oracle],
             help="graded dimension identity for the harmonic decomposition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_hilbert)

    return parser, leaves


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the leaf parser its leading tokens name, or with the
    root when no leaf takes the rest whole (the root then reports the usage
    error, or the leftovers as unrecognized arguments)."""
    parser, leaves = _build_parser()
    for depth in (1, 2):
        leaf = leaves.get(tuple(argv[:depth]))
        if leaf is not None:
            args, extras = leaf.parse_known_args(argv[depth:])
            if not extras:
                return args
    return parser.parse_args(argv)


def _warning_line(message, *_) -> str:
    """A warning as one line, `warning: <message>`, free of install paths and source lines."""
    return f"warning: {message}\n"


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        if getattr(args, "max_degree", 0) < 0:  # only `verify <suite>` and `hilbert` have it
            raise UsageError("--max-degree must be nonnegative")
        return args.handler(args)
    except (UsageError, StableRangeError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
