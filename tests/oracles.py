"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately naive: direct enumeration and dense
monomial arithmetic, sharing no code with the library algorithms they are
used to check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd, lcm

from branchbox.dualpair import analysis, build_config
from branchbox.dualpair.linalg import solve_columns
from branchbox.dualpair.poly import apply_to_monomial, commutator_apply, monomials_of_degree
from branchbox.lr import lr_coefficient
from branchbox.partitions import contains, partitions_of


@lru_cache(maxsize=None)
def partition_count(k: int) -> int:
    """p(k) by the Euler pentagonal-number recurrence."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    total = 0
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > k and g2 > k:
            break
        sign = -1 if j % 2 == 0 else 1
        total += sign * (partition_count(k - g1) + partition_count(k - g2))
        j += 1
    return total


def ssyt_fillings(lam: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """All semistandard fillings of shape lam with entries in 1..m, as contents."""
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    results: list[tuple[int, ...]] = []
    values: dict[tuple[int, int], int] = {}

    def fill(pos: int) -> None:
        if pos == len(cells):
            content = [0] * m
            for v in values.values():
                content[v - 1] += 1
            results.append(tuple(content))
            return
        r, c = cells[pos]
        lo = 1
        if c > 0:
            lo = max(lo, values[(r, c - 1)])
        if r > 0:
            lo = max(lo, values[(r - 1, c)] + 1)
        for v in range(lo, m + 1):
            values[(r, c)] = v
            fill(pos + 1)
        values.pop((r, c), None)

    fill(0)
    return results


def ssyt_count(lam: tuple[int, ...], m: int) -> int:
    return len(ssyt_fillings(lam, m))


def kostka_brute(lam: tuple[int, ...], content: tuple[int, ...]) -> int:
    padded = tuple(content) + (0,) * (max(len(lam), len(content)) - len(content))
    m = len(padded)
    return sum(1 for c in ssyt_fillings(lam, m) if c == padded)


def dominated(kappa: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """Dominance kappa <| lam, comparing prefix sums over the longer length."""
    rows = max(len(kappa), len(lam))
    k = tuple(kappa) + (0,) * (rows - len(kappa))
    lm = tuple(lam) + (0,) * (rows - len(lam))
    return sum(k) == sum(lm) and all(sum(k[:i]) <= sum(lm[:i]) for i in range(1, rows + 1))


def orbit_monomials(key: tuple[int, ...], m: int) -> set[tuple[int, ...]]:
    padded = tuple(key) + (0,) * (m - len(key))
    return set(permutations(padded))


def dense_symmetric_poly(terms: dict[tuple[int, ...], int], m: int) -> dict[tuple[int, ...], int]:
    """Expand dominant-keyed coefficients into the full monomial dict."""
    out: dict[tuple[int, ...], int] = {}
    for key, coeff in terms.items():
        for mono in orbit_monomials(key, m):
            out[mono] = out.get(mono, 0) + coeff
    return out


def dense_product(p: dict[tuple[int, ...], int], q: dict[tuple[int, ...], int]) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def dominant_part(dense: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    out = {}
    for mono, coeff in dense.items():
        if all(mono[i] >= mono[i + 1] for i in range(len(mono) - 1)):
            key = tuple(a for a in mono if a)
            out[key] = coeff
    return out


def graded_sym_character(weights: list[tuple[int, ...]], max_degree: int) -> list[dict]:
    """Degreewise GL-weight character of Sym(V), V spanned by the given weights.

    Entry d maps a full exponent vector (the torus weight) to its dimension.
    """
    zero = tuple(0 for _ in weights[0])
    graded: list[dict[tuple[int, ...], int]] = [{zero: 1}]
    graded += [dict() for _ in range(max_degree)]
    # multiply in one geometric series 1/(1 - x^w) per generator
    for w in weights:
        nxt = [dict(layer) for layer in graded]
        for d in range(1, max_degree + 1):
            for k in range(1, d + 1):
                shift = tuple(k * a for a in w)
                for mono, coeff in graded[d - k].items():
                    key = tuple(x + y for x, y in zip(mono, shift))
                    nxt[d][key] = nxt[d].get(key, 0) + coeff
        graded = nxt
    return graded


def dominant_weight(factor, w: tuple[int, ...]) -> bool:
    """Whether w is dominant for a torus factor (family, rank, signed), by the inequalities."""
    if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        return False
    if not w:
        return True
    if factor.family == "O":
        if factor.rank % 2 == 0 and len(w) >= 2:
            return w[-2] + w[-1] >= 0  # type D allows one sign flip in the last slot
        return w[-1] >= 0
    if factor.family == "Sp":
        return w[-1] >= 0
    return factor.signed or w[-1] >= 0


def solve_columns_gauss_jordan(columns: list[list], rhs: list) -> list[Fraction] | None:
    """Solve sum_k c_k * columns[k] = rhs by Gauss-Jordan in Fractions; None if inconsistent.

    Pivots are taken left to right, first nonzero row first, and free
    columns are set to 0.
    """
    ncand = len(columns)
    nrows = len(rhs)
    aug = [[Fraction(columns[k][i]) for k in range(ncand)] + [Fraction(rhs[i])]
           for i in range(nrows)]
    pr = 0
    pivots = []
    for c in range(ncand):
        found = next((r for r in range(pr, nrows) if aug[r][c]), None)
        if found is None:
            continue
        aug[pr], aug[found] = aug[found], aug[pr]
        inv = 1 / aug[pr][c]
        aug[pr] = [a * inv for a in aug[pr]]
        for r in range(nrows):
            if r != pr and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[pr])]
        pivots.append((pr, c))
        pr += 1
        if pr == nrows:
            break
    if any(aug[r][ncand] for r in range(pr, nrows)):
        return None
    sol = [Fraction(0)] * ncand
    for r, c in pivots:
        sol[c] = aug[r][ncand]
    return sol


def brackets_by_application(shape, printed_euler_variant: bool = False,
                            test_degree: int = 2) -> analysis.BracketReport:
    """`verify_brackets`' report, each commutator applied to every monomial of degree <= test_degree.

    The bracket check as it was before it multiplied operator terms: [a, b]
    is applied by `commutator_apply` to each test monomial, and the expected
    span is solved on the coefficients of the span operators' images, one
    equation per (test monomial, target monomial).  Unlike the rest of this
    module it shares library code, the configs, the span rules
    (`_bracket_rule`) and `solve_columns` (a Fraction Gauss-Jordan made the
    A(6,3) case about four times slower); what it checks is the commutator.  It
    is evidence on low degrees, not an identity.
    """
    config = build_config(shape, printed_euler_variant=printed_euler_variant)
    family = list(config.deltas + config.r2s + config.eulers + config.k_raisings)
    sources = [mono for d in range(test_degree + 1)
               for mono in monomials_of_degree(config.var_count, d)]
    actions = {op.name: {src: apply_to_monomial(op, src) for src in sources} for op in family}
    actions["id"] = {src: {src: 1} for src in sources}
    spans = {
        "euler_id": [op.name for op in config.eulers] + ["id"],
        "delta": [op.name for op in config.deltas],
        "r2": [op.name for op in config.r2s],
        "raising": [op.name for op in config.k_raisings],
    }
    entries = []
    for a, b in combinations(family, 2):
        rule, span = analysis._bracket_rule(a.kind, b.kind)
        comm = {src: commutator_apply(a, b, {src: 1}) for src in sources}
        if span is None:
            ok = all(not p for p in comm.values())
            entries.append(analysis.BracketEntry(a.name, b.name, rule, ok, ()))
            continue
        names = spans[span]
        eq_keys = sorted({(src, tm) for src, p in comm.items() for tm in p} |
                         {(src, tm) for name in names
                          for src, p in actions[name].items() for tm in p})
        columns = [[actions[name][src].get(tm, 0) for src, tm in eq_keys] for name in names]
        sol = solve_columns(columns, [comm[src].get(tm, 0) for src, tm in eq_keys])
        if sol is None:
            entries.append(analysis.BracketEntry(a.name, b.name, rule, False, ()))
        else:
            expr = tuple((name, c) for name, c in zip(names, sol) if c)
            entries.append(analysis.BracketEntry(a.name, b.name, rule, True, expr))
    variant = "printed" if printed_euler_variant else "untwisted"
    return analysis.BracketReport(config.descriptor, test_degree, variant,
                                  all(e.ok for e in entries), tuple(entries))


def nullspace_gauss_jordan(rows: list[list], ncols: int) -> list[tuple[int, ...]]:
    """Kernel basis by Gauss-Jordan in Fractions, one vector per free column.

    Pivots are taken left to right.  The vector of a free column is 1 there,
    0 at the other free columns and minus the reduced rows' entries at the
    pivot columns, then scaled to a primitive integer vector, which keeps
    it positive at its free column.
    """
    m = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    for c in range(ncols):
        pr = len(pivots)
        found = next((r for r in range(pr, len(m)) if m[r][c]), None)
        if found is None:
            continue
        m[pr], m[found] = m[found], m[pr]
        inv = 1 / m[pr][c]
        m[pr] = [a * inv for a in m[pr]]
        for r in range(len(m)):
            if r != pr and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][free]
        scale = lcm(*(a.denominator for a in v))
        ints = [int(a * scale) for a in v]
        g = gcd(*ints)
        basis.append(tuple(a // g for a in ints))
    return basis


def lr_fillings_reference(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """c^lam_{mu,nu} by the dict-keyed lattice filler, on canonical partitions.

    Cells are filled in reverse reading order (top to bottom, right to left)
    with values keyed by (row, col); a value is at most its right neighbour,
    above its upper neighbour, within the content nu, and keeps the reverse
    reading word a lattice word.
    """
    if sum(lam) != sum(mu) + sum(nu) or len(mu) > len(lam):
        return 0
    if any(a > b for a, b in zip(mu, lam)):
        return 0
    if not nu:
        return 1 if lam == mu else 0
    rows = len(lam)
    mu_pad = tuple(mu) + (0,) * (rows - len(mu))
    cells = [(r, c) for r in range(rows) for c in range(lam[r] - 1, mu_pad[r] - 1, -1)]
    nvals = len(nu)
    counts = [0] * (nvals + 1)
    filling: dict[tuple[int, int], int] = {}
    total = 0

    def fill(pos: int) -> None:
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        r, c = cells[pos]
        right = filling.get((r, c + 1))
        above = filling.get((r - 1, c))
        hi = right if right is not None else nvals
        lo = (above + 1) if above is not None else 1
        for v in range(lo, hi + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            filling[(r, c)] = v
            fill(pos + 1)
            del filling[(r, c)]
            counts[v] -= 1

    fill(0)
    return total


def tensor_triple_loop(mu: tuple[int, ...], nu: tuple[int, ...], lam: tuple[int, ...]) -> int:
    """The Newell-Littlewood sum over every (alpha, beta, delta) of the right sizes.

    sum of c^lam_{alpha,beta} c^mu_{alpha,delta} c^nu_{beta,delta}, each
    factor one `lr_coefficient` call, on canonical partitions.
    """
    two_sa = sum(lam) + sum(mu) - sum(nu)
    two_sb = sum(lam) + sum(nu) - sum(mu)
    two_sd = sum(mu) + sum(nu) - sum(lam)
    if min(two_sa, two_sb, two_sd) < 0 or two_sa % 2:
        return 0
    sa, sb, sd = two_sa // 2, two_sb // 2, two_sd // 2
    total = 0
    for alpha in partitions_of(sa, max_length=min(len(lam), len(mu))):
        if not contains(lam, alpha) or not contains(mu, alpha):
            continue
        for beta in partitions_of(sb, max_length=min(len(lam), len(nu))):
            c_lab = lr_coefficient(lam, alpha, beta)
            if not c_lab:
                continue
            for delta in partitions_of(sd, max_length=min(len(mu), len(nu))):
                c_mad = lr_coefficient(mu, alpha, delta)
                if not c_mad:
                    continue
                total += c_lab * c_mad * lr_coefficient(nu, beta, delta)
    return total
