"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately naive: direct enumeration and dense
monomial arithmetic, sharing no code with the library algorithms they are
used to check.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, lcm

from branchbox.dualpair import analysis, build_config
from branchbox.dualpair.linalg import solve_columns
from branchbox.dualpair.poly import (apply_to_monomial, commutator_apply, digit_width,
                                     make_operator, pack, unpack)
from branchbox.lr import lr_coefficient
from branchbox.partitions import conjugate, contains, grevlex_key, partitions_of


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


def even_row_partitions(size: int, max_length: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of `size` all of whose rows have even length."""
    if size % 2:
        return []
    return [tuple(2 * a for a in p) for p in partitions_of(size // 2, max_length)]


def even_column_partitions(size: int, max_length: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of `size` all of whose columns have even length."""
    out = [conjugate(q) for q in even_row_partitions(size)]
    if max_length is not None:
        out = [p for p in out if len(p) <= max_length]
    return sorted(out, key=grevlex_key)


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


def monomials_of_degree(var_count: int, degree: int):
    """All exponent tuples of the given total degree."""
    if var_count == 0:
        if degree == 0:
            yield ()
        return

    def rec(position: int, remaining: int, prefix: list[int]):
        if position == var_count - 1:
            yield tuple(prefix + [remaining])
            return
        for e in range(remaining + 1):
            yield from rec(position + 1, remaining - e, prefix + [e])

    yield from rec(0, degree, [])


def grevlex_mono_key(mono: tuple[int, ...]) -> tuple:
    """Sort key putting same-degree exponent tuples in graded reverse lexicographic order."""
    return (sum(mono), tuple(reversed(mono)))


def poly_degree(poly: dict) -> int:
    """The largest total degree of a polynomial keyed by exponent tuples."""
    return max((sum(m) for m in poly), default=0)


def apply_to_exponents(op, mono: tuple[int, ...]) -> dict:
    """op applied to one exponent tuple, term by term on a copied tuple.

    A term c * x^a * d^b gives c times the integer falling factorials of the
    differentiated exponents, or nothing once one exponent is below its
    order; the reference for `poly.apply_to_monomial` on packed monomials.
    """
    out: dict = {}
    for coeff, xs, ds in op.terms:
        ff = 1
        for v, order in ds:
            e = mono[v]
            if e < order:
                break
            for k in range(order):
                ff *= e - k
        else:
            target = list(mono)
            for v, order in ds:
                target[v] -= order
            for v, e in xs:
                target[v] += e
            key = tuple(target)
            val = out.get(key, 0) + coeff * ff
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def decoded(poly: dict, width: int, var_count: int) -> dict:
    """A polynomial keyed by packed monomials, keyed by exponent tuples."""
    return {unpack(mono, width, var_count): c for mono, c in poly.items()}


def decoded_buckets(table, var_count: int) -> dict:
    """`build_buckets`' blocks with each monomial as its exponent tuple."""
    return {key: [unpack(mono, table.width, var_count) for mono in monos]
            for key, monos in table.buckets.items()}


def buckets_by_enumeration(config, max_degree: int, dominant_only: bool) -> dict:
    """`analysis.build_buckets`' blocks by enumerating every monomial of degree <= max_degree.

    Each variable multiset is summed to its packed weight code and appended to
    that code's group; a group's monomials are then sorted in grevlex order
    and the blocks in order of degree and then of weight.  With dominant_only,
    a block is kept when its weight meets every factor's dominance
    inequalities (`dominant_weight`).  No budget or degree check.
    """
    codes, decode, _ = analysis._weight_codes(config, max_degree)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for d in range(max_degree + 1):
        for combo in combinations_with_replacement(range(config.var_count), d):
            groups.setdefault(sum(codes[v] for v in combo), []).append(combo)
    blocks = []
    for code, combos in groups.items():
        key = decode(code)
        if dominant_only and not all(dominant_weight(factor, w)
                                     for factor, w in zip(config.factors, key)):
            continue
        monos = []
        for combo in combos:
            mono = [0] * config.var_count
            for v in combo:
                mono[v] += 1
            monos.append(tuple(mono))
        monos.sort(key=lambda mono: (sum(mono), mono[::-1]))
        blocks.append((len(combos[0]), key, monos))
    blocks.sort(key=lambda block: block[:2])
    return {key: monos for _, key, monos in blocks}


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


def printed_config(shape):
    """A plain case A config with the printed, row-reversed Euler family in place of its own.

    Etw[i,j] = sum_s x_{s,i} d/dx_{n+1-s,j} (+ n/2 if i = j) pairs each row
    with its mate under the antidiagonal form.  The bracket check rejects
    this convention: [D[1,1], r2[1,1]] leaves the span of these operators
    and the identity.
    """
    assert shape.case == "A" and not shape.split_columns, shape
    n, m = shape.n, shape.m

    def idx(s, j):
        return (s - 1) * m + (j - 1)

    eulers = tuple(make_operator(f"Etw[{i},{j}]", "euler",
                                 [(1, {idx(s, i): 1}, {idx(n + 1 - s, j): 1})
                                  for s in range(1, n + 1)]
                                 + ([(Fraction(n, 2), {}, {})] if i == j else []))
                   for i in range(1, m + 1) for j in range(1, m + 1))
    config = build_config(shape)
    return replace(config, descriptor=config.descriptor + " (printed E)", eulers=eulers)


def printed_bracket_report(shape) -> analysis.BracketReport:
    """`verify_brackets`' check run on `printed_config(shape)`, reported as the printed variant."""
    return replace(analysis._bracket_report(printed_config(shape)), euler_variant="printed")


def brackets_by_application(shape, printed: bool = False,
                            test_degree: int = 2) -> analysis.BracketReport:
    """`verify_brackets`' report, each commutator applied to every monomial of degree <= test_degree.

    The bracket check as it was before it multiplied operator terms: [a, b]
    is applied by `commutator_apply` to each test monomial, packed wide
    enough for two r2s on top of test_degree, and the expected
    span is solved on the coefficients of the span operators' images, one
    equation per (test monomial, target monomial).  Unlike the rest of this
    module it shares library code, the configs, the span rules
    (`_bracket_rule`) and `solve_columns` (a Fraction Gauss-Jordan made the
    A(6,3) case about four times slower); what it checks is the commutator.  It
    is evidence on low degrees, not an identity.  With `printed` it checks
    `printed_config(shape)`, as `printed_bracket_report` does.
    """
    config = printed_config(shape) if printed else build_config(shape)
    width = digit_width(test_degree + 4)
    family = list(config.deltas + config.r2s + config.eulers + config.k_raisings)
    packed = {op.name: op.packed(width) for op in family}
    sources = [pack(mono, width) for d in range(test_degree + 1)
               for mono in monomials_of_degree(config.var_count, d)]
    actions = {op.name: {src: apply_to_monomial(packed[op.name], src) for src in sources}
               for op in family}
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
        comm = {src: commutator_apply(packed[a.name], packed[b.name], {src: 1})
                for src in sources}
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
    variant = "printed" if printed else "untwisted"
    return analysis.BracketReport(config.descriptor, test_degree, variant,
                                  all(e.ok for e in entries), tuple(entries))


def nullspace_gauss_jordan(rows: list[list], ncols: int) -> list[tuple[int, ...]]:
    """Kernel basis by Gauss-Jordan in Fractions, one vector per free column.

    Pivots are taken left to right.  The vector of a free column is 1 there,
    0 at the other free columns and minus the reduced rows' entries at the
    pivot columns, then scaled to a primitive integer vector, which keeps
    it positive at its free column.  A pivot row found at column c is zero
    left of c, so each row operation starts at c and skips its zeros.
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
        top = m[pr][c:] = [a * inv if a else a for a in m[pr][c:]]
        for r in range(len(m)):
            if r != pr and m[r][c]:
                f = m[r][c]
                m[r][c:] = [a - f * b if b else a for a, b in zip(m[r][c:], top)]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][free]
        scale = lcm(*(a.denominator for a in v))
        ints = [a.numerator * (scale // a.denominator) for a in v]
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
