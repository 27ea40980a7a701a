"""Seeded op generators for the three benchmark workloads.

A run of a workload has ROUNDS[workload] rounds, and the op list of round k
is a pure function of (workload, seed, k), so the same seed always yields
the same ops.  The partition arithmetic here is the benchmark's own and does
not import branchbox: the program only ever sees the generated inputs.

Each round follows a fixed template of op classes.  Inside a class the
candidates that matter for cost are *dealt* across the rounds of a run by
cost strata (`_Draw.deal`), so every run takes the cheap and the dear
candidates alike, whatever the seed; the seed picks inside strata, decides
which round gets which candidate and draws the remaining details.  A size
proxy that the benchmark computes itself bounds every candidate, so no
single op dominates a round:

* formula-tables: |lam| and the label lengths of each table;
* oracle-verify: the number of monomials up to the degree, C(V + d, d)
  for V matrix variables, kept inside a per-suite window;
* schur-crosscheck: the degree |mu| + |nu|, the label lengths and the
  variable count m, fixed per op class.

An op is a plain dict: `id`, `kind` ("cli" or "schur"), the inputs
(`argv`, or `mu`/`nu`/`m`), `expect` ("ok": judged, must succeed;
"refuse": must exit 2; "record": out of range under the warn policy, kept
but not judged), and `check`, the identity the checker applies.
"""

from __future__ import annotations

import random
from math import comb

WORKLOADS = ("formula-tables", "oracle-verify", "schur-crosscheck")


# ---------------------------------------------------------------------------
# partition helpers (independent of branchbox.partitions)

def partitions(size: int, max_len: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of `size` with at most `max_len` parts, largest first part first."""
    cap = size if max_part is None else min(size, max_part)
    if size == 0:
        return [()]
    if max_len == 0:
        return []
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions(size - first, max_len - 1, first):
            out.append((first,) + rest)
    return out


def contained(inner: tuple[int, ...], outer: tuple[int, ...]) -> bool:
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def text(p: tuple[int, ...]) -> str:
    return ",".join(str(a) for a in p)


class _Draw:
    """Seeded choices for round `k` of the `rounds` rounds of a run of a workload."""

    def __init__(self, key: str, k: int, rounds: int):
        self.key, self.k, self.rounds = key, k, rounds
        self.rng = random.Random(f"{key}:{k}")

    def deal(self, slot: str, items, count: int = 1, cost=None) -> list:
        """`count` items for this round, dealt so a run's load hardly depends on the seed.

        The items, ordered by `cost` (a size proxy), are cut into
        rounds*count contiguous strata (with fewer items than strata, each
        item fills one or more neighbouring strata).  Strata go round-robin
        to the rounds from a seeded start, and a seeded draw picks the item
        inside a stratum.  So a run takes one item from every stratum, the
        cheap and the dear alike, and with fewer items than strata it deals
        every item equally often and never twice in one round (a repeat would
        be a free memo hit).  The seed picks inside strata, rotates the
        rounds and orders the items of a round.
        """
        items = sorted(items, key=cost) if cost else list(items)
        strata = self.rounds * count
        shuffle = random.Random(f"{self.key}:{slot}")
        start = shuffle.randrange(self.rounds)
        mine = [s for s in range(strata) if (s + start) % self.rounds == self.k]
        out = []
        for s in mine:
            lo = s * len(items) // strata
            hi = max(lo + 1, (s + 1) * len(items) // strata)
            out.append(items[random.Random(f"{self.key}:{slot}:{s}").randrange(lo, hi)])
        return random.Random(f"{self.key}:{slot}:{self.k}").sample(out, len(out))


# ---------------------------------------------------------------------------
# formula-tables

# (|lam|, len(lam)) of the restrict tables in each block: a fixed ladder, so
# every seed carries the same table sizes.  The cost of a table varies by up
# to 2x inside a class, more than any cheap proxy explains, so each round
# takes _RESTRICT_TABLES of a class: a run then deals every candidate of a
# class (4 to 9 of them) about equally often, whatever the seed.
_RESTRICT_CLASSES = ((9, 3), (8, 4), (10, 3), (7, 3), (9, 4), (8, 3), (10, 4), (9, 2))
_RESTRICT_TABLES = 3
# The rank above the least stable one (0 or 1) is dealt too, so every run has
# as many of each rank and the seed moves no op's cost through it.
_EXTRA_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
# The shared weight pool: every tensor factor and LR factor comes from SMALL,
# every branch sweep weight from MID, so later requests reuse LR subproblems.
_SMALL = tuple(p for s in (2, 3, 4) for p in partitions(s, 2))
_MID = tuple(p for s in (4, 5) for p in partitions(s, 3) if len(p) >= 2)
_PAIRS = tuple((a, b) for a in _SMALL for b in _SMALL if a != b)


def _inside(lam: tuple[int, ...]) -> int:
    """Cost proxy of a table or sweep on lam: the partitions inside lam."""
    return sum(contained(mu, lam) for s in range(sum(lam) + 1)
               for mu in partitions(s, len(lam)))


def _pair_size(pair) -> tuple[int, int]:
    a, b = pair
    return (sum(a) + sum(b), len(a) + len(b))


# One sweep per block, rotating through the four single-value kinds: the
# pool each draws its weight or pair from, and that pool's cost proxy.
_SWEEPS = {"gl-o": (_MID, _inside), "gl-sp": (_MID, _inside),
           "lr": (_PAIRS, _pair_size), "gl-rational": (_PAIRS, _pair_size)}


def _formula_tables(draw: _Draw) -> list[dict]:
    rng = draw.rng
    ops: list[dict] = []

    def add(argv, check, group=None):
        ops.append({"kind": "cli", "argv": argv, "expect": "ok",
                    "check": check, "group": group})
        return len(ops) - 1

    # Tensor factors and sweep weights are dealt for all blocks at once, so
    # no table or sweep repeats inside a round.
    blocks = len(_RESTRICT_CLASSES)
    tensor = {family: list(zip(draw.deal(f"tensor-{family}", _PAIRS, blocks, cost=_pair_size),
                               draw.deal(f"tensor-n-{family}", (0, 1), blocks)))
              for family in ("o", "sp")}
    kinds = [tuple(_SWEEPS)[block % len(_SWEEPS)] for block in range(blocks)]
    sweeps = {}
    for kind, (pool, cost) in _SWEEPS.items():
        count = kinds.count(kind)
        sweeps[kind] = list(zip(draw.deal(f"sweep-{kind}", pool, count, cost=cost),
                                draw.deal(f"sweep-n-{kind}", (0, 1), count)))

    for block, (size, length) in enumerate(_RESTRICT_CLASSES):
        # restrict o: full tables, each followed by one single value of it
        singles = [(mu, nu)
                   for a in range(size + 1) for mu in partitions(a, length)
                   for b in range(size - a + 1) if (size - a - b) % 2 == 0
                   for nu in partitions(b, length)]
        lams = draw.deal(f"restrict{block}",
                         [p for p in partitions(size, length) if len(p) == length],
                         _RESTRICT_TABLES, cost=_inside)
        extras = draw.deal(f"restrict-nm{block}", _EXTRA_PAIRS, _RESTRICT_TABLES)
        for lam, (extra_n, extra_m) in zip(lams, extras):
            n = 2 * length + 1 + extra_n
            m = 2 * length + 1 + extra_m
            argv = ["restrict", "o", "--lam", text(lam), "--n", str(n), "--m", str(m)]
            table = add(argv, {"type": "restrict-table", "lam": lam, "n": n, "m": m})
            mu, nu = rng.choice(singles)
            add(argv + ["--mu", text(mu), "--nu", text(nu)],
                {"type": "single", "table": table, "labels": [mu, nu]})

        # tensor o and tensor sp: full table, then one single value of it
        for family in ("o", "sp"):
            (a, b), extra = tensor[family][block]
            base = len(a) + len(b)
            n = (2 * base + 1 if family == "o" else base + 1) + extra
            argv = ["tensor", family, "--mu", text(a), "--nu", text(b), "--n", str(n)]
            table = add(argv, {"type": f"tensor-{family}-table", "mu": a, "nu": b, "n": n})
            total = sum(a) + sum(b)
            lam = rng.choice([p for s in range(total % 2, total + 1, 2)
                              for p in partitions(s, base)])
            add(argv + ["--lam", text(lam)],
                {"type": "single", "table": table, "labels": [lam]})

        # the block's sweep of single values
        kind = kinds[block]
        group = f"sweep{block}"
        item, extra = sweeps[kind].pop()
        if kind in ("gl-o", "gl-sp"):
            lam = item
            if kind == "gl-o":
                n = 2 * len(lam) + 1 + extra
            else:
                n = len(lam) + extra
            sweep = {"type": f"sweep-{kind}", "lam": lam, "n": n}
            for s in range(sum(lam) % 2, sum(lam) + 1, 2):
                for mu in partitions(s, len(lam)):
                    if contained(mu, lam):
                        add(["branch", kind, "--lam", text(lam), "--mu", text(mu),
                             "--n", str(n)], sweep, group)
        elif kind == "lr":
            a, b = item
            sweep = {"type": "sweep-lr", "mu": a, "nu": b}
            for lam in partitions(sum(a) + sum(b), len(a) + len(b)):
                if contained(a, lam) and contained(b, lam):
                    add(["lr", "--lam", text(lam), "--mu", text(a), "--nu", text(b)],
                        sweep, group)
        else:
            a, b = item
            mu, nu = (a, ()), ((), b)
            n = len(a) + len(b) + 1 + extra
            sweep = {"type": "sweep-gl-rational", "mu": mu, "nu": nu, "n": n}
            for k in range(min(sum(a), sum(b)) + 1):
                for plus in partitions(sum(a) - k, n):
                    for minus in partitions(sum(b) - k, n - len(plus)):
                        add(["tensor", "gl-rational", "--mu", f"{text(a)};",
                             "--nu", f";{text(b)}", "--lam", f"{text(plus)};{text(minus)}",
                             "--n", str(n)], sweep, group)
    return ops


# ---------------------------------------------------------------------------
# oracle-verify

# Degrees and monomial-count window (inclusive) per suite.  A fixed degree
# pair keeps the number of verified entries per op comparable; the window
# keeps the cost comparable, and differs by suite because the cost per
# monomial does (MOD_IDEAL and ProductO add nullspaces).
_DEGREES = {"seesaw-a": (4, 5), "tensor-o": (3, 4), "restrict-o": (4, 5), "seesaw-c": (4, 5)}
_MONOMIAL_WINDOW = {
    "seesaw-a": (400, 2200),
    "tensor-o": (300, 1400),
    "restrict-o": (200, 800),
    "seesaw-c": (300, 1400),
}


def _stable(suite: str, n: int, m: int, l: int, d: int) -> bool:
    """Whether every label the suite compares up to degree d is in the stable range.

    The longest label has min(rows, columns, d) rows, so the bound the CLI
    enforces per entry holds for the whole request exactly when it holds
    for that length.
    """
    if suite == "seesaw-a":
        return n > 2 * min(n, m, d)
    if suite == "tensor-o":
        return n > 2 * min(m + l, d)
    if suite == "restrict-o":
        return min(n, l) > 2 * min(n + l, m, d)
    return True  # seesaw-c compares LR coefficients, which have no stable bound


def _var_count(suite: str, n: int, m: int, l: int) -> int:
    if suite == "seesaw-a":
        return n * m
    if suite == "restrict-o":
        return (n + l) * m
    return n * (m + l)


def monomials_up_to(var_count: int, degree: int) -> int:
    return comb(var_count + degree, degree)


def _monomials(suite: str):
    """Cost proxy of a verify shape (n, m, l, d): the monomials up to degree d."""
    return lambda shape: monomials_up_to(_var_count(suite, *shape[:3]), shape[3])


def _shapes(suite: str, parity: int, in_range: bool) -> list[tuple]:
    """(n, m, l, d) with rank parity, stable-range side and monomial count in the window."""
    lo, hi = _MONOMIAL_WINDOW[suite]
    second_blocks = range(1, 10) if suite == "restrict-o" else (1, 2)
    return [(n, m, l, d)
            for m in (1, 2, 3) for l in second_blocks for n in range(1, 10)
            if n % 2 == parity and (suite != "seesaw-a" or l == 1)
            for d in _DEGREES[suite]
            if _stable(suite, n, m, l, d) == in_range
            and lo <= monomials_up_to(_var_count(suite, n, m, l), d) <= hi]


# (n, m, l) per bracket case; cost differs by 100x across shapes, so only
# shapes of similar cost (30-50 ms on a 2-core x86-64 VM, Python 3.11) are drawn.
_BRACKET_SHAPES = {"a": ((5, 1, 0),),
                   "b": ((1, 2, 0),),
                   "c": ((3, 1, 1), (1, 2, 1), (3, 2, 0))}


def _oracle_verify(draw: _Draw) -> list[dict]:
    ops: list[dict] = []

    def add(argv, expect, check):
        ops.append({"kind": "cli", "argv": argv, "expect": expect,
                    "check": check, "group": None})

    for suite in ("seesaw-a", "tensor-o", "restrict-o"):
        for in_range in (True, False):
            for parity in (1, 0):
                for policy in ("enforce", "warn"):
                    slot = f"{suite}:{in_range}:{parity}:{policy}"
                    [(n, m, l, d)] = draw.deal(slot, _shapes(suite, parity, in_range),
                                               cost=_monomials(suite))
                    argv = ["verify", suite, "--n", str(n), "--m", str(m)]
                    if suite != "seesaw-a":
                        argv += ["--l", str(l)]
                    argv += ["--max-degree", str(d), "--stable-policy", policy]
                    if in_range:
                        add(argv, "ok", {"type": "verify"})
                    elif policy == "enforce":
                        add(argv, "refuse", {"type": "refusal"})
                    else:
                        add(argv, "record", {"type": "verify"})
    for parity in (1, 0):
        for policy in ("enforce", "warn"):
            slot = f"seesaw-c:{parity}:{policy}"
            [(n, m, l, d)] = draw.deal(slot, _shapes("seesaw-c", parity, True),
                                       cost=_monomials("seesaw-c"))
            add(["verify", "seesaw-c", "--n", str(n), "--m", str(m), "--l", str(l),
                 "--max-degree", str(d), "--stable-policy", policy], "ok", {"type": "verify"})
    for case, shapes in _BRACKET_SHAPES.items():
        [(n, m, l)] = draw.deal(f"brackets-{case}", shapes)
        argv = ["verify", "brackets", "--case", case, "--n", str(n), "--m", str(m)]
        if l:
            argv += ["--l", str(l)]
        add(argv, "ok", {"type": "verify"})
    rng = draw.rng
    for parity in (1, 0):
        [m] = draw.deal(f"hilbert:{parity}", (1, 2, 3))
        n = 2 * m + 1 + parity + 2 * rng.randrange(2)
        d = rng.randrange(8, 13)
        add(["hilbert", "--n", str(n), "--m", str(m), "--max-degree", str(d)],
            "ok", {"type": "hilbert", "n": n, "m": m})
    for policy in ("enforce", "warn"):
        m = rng.choice((2, 3))
        n = rng.randrange(1, 2 * m + 1)
        argv = ["hilbert", "--n", str(n), "--m", str(m),
                "--max-degree", str(rng.randrange(6, 11)), "--stable-policy", policy]
        add(argv, "refuse" if policy == "enforce" else "record", {"type": "refusal"})
    return ops


# ---------------------------------------------------------------------------
# schur-crosscheck

# (|mu|, len mu, |nu|, len nu, m) classes: degree 11-14 in 4-6 variables.
# Fixing the lengths as well as the sizes keeps the cost spread inside a
# class near a quarter of its mean.  Each round gets distinct pairs of each
# class, so LR sees mostly distinct triples.
_SCHUR_CLASSES = ((6, 3, 5, 2, 5), (7, 2, 5, 3, 5), (7, 3, 5, 2, 6), (8, 2, 5, 2, 4),
                  (6, 2, 6, 2, 6), (8, 3, 4, 2, 5), (7, 3, 6, 2, 4), (9, 2, 5, 2, 5),
                  (6, 3, 6, 2, 6), (8, 2, 6, 3, 4), (7, 2, 6, 2, 5), (9, 3, 4, 2, 4))
_SCHUR_PAIRS = 4


def _schur_crosscheck(draw: _Draw) -> list[dict]:
    ops: list[dict] = []
    for a, la, b, lb, m in _SCHUR_CLASSES:
        pairs = [(mu, nu) for mu in partitions(a, la) if len(mu) == la
                 for nu in partitions(b, lb) if len(nu) == lb]
        for mu, nu in draw.deal(f"{a},{la},{b},{lb},{m}", pairs, _SCHUR_PAIRS):
            ops.append({"kind": "schur", "mu": mu, "nu": nu, "m": m, "expect": "ok",
                        "check": {"type": "schur"}, "group": None})
    return ops


_GENERATORS = {"formula-tables": _formula_tables,
               "oracle-verify": _oracle_verify,
               "schur-crosscheck": _schur_crosscheck}

# Rounds per run; each round is a fresh interpreter with its own op list.
ROUNDS = {"formula-tables": 3, "oracle-verify": 4, "schur-crosscheck": 4}


def generate(workload: str, seed: int, round_index: int) -> list[dict]:
    """The op list of round `round_index` of `workload` for `seed`; ids are list positions."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if not 0 <= round_index < ROUNDS[workload]:
        raise ValueError(f"{workload} has rounds 0..{ROUNDS[workload] - 1}")
    ops = _GENERATORS[workload](_Draw(f"{workload}:{seed}", round_index, ROUNDS[workload]))
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
