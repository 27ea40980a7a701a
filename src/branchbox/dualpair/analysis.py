"""Brute-force multiplicity tables, harmonic dimension counts, and bracket checks.

Everything reduces to exact rank computations, or exact solves for the
bracket check, on weight-space blocks: all operators in play are
weight-homogeneous for the product torus, so each block can be handled on
its own.  Highest weight vectors are the joint kernel of n+, the Lie algebra
of the maximal unipotent subgroup.  n+ is generated by its simple root
vectors, and an operator that kills v kills every bracket of operators that
kill v, so the multiplicity counts cut by the simple-root raisings alone
(`SpaceConfig.simple_raisings`); the bracket check and the minor
certificates keep every raising, because they certify the operators
themselves.  Each block's multiplicity is one joint kernel: of the simple
raisings on all polynomials (FULL), and of the Delta family together with
them on the harmonics, the Deltas' common kernel (MOD_IDEAL).  A model is
one shape value, `MatrixSpaceShape` or `ProductO`, built by `build_config`,
and each block is cut per degree parity in each orthogonal factor's rows,
which picks that factor's O_n label at odd n.
Raising-operator kernels are only computed at dominant weights, and only
those blocks are built; a kernel vector generates a highest weight module,
so nothing is lost, and a nonzero kernel at a weight that is not a partition
on an orthogonal factor is reported as an internal error rather than
silently dropped.  Each `TorusFactor` owns its dominance conditions and
labels; this module reads them and compares no family.  Monomials are
grouped by one packed integer code (`_weight_codes`, `_packed`) whose digits
hold their weight and then its dominance functionals, so one mask tests
dominance before any weight is decoded.  `build_buckets` computes every
monomial's code, degree by degree from the degree before (`_code_walk`),
walking the variables last first, and counts the codes in one Counter per
degree.  The block budget and the degree check read those counts, and
only the kept blocks' monomials are ever built, each block in reverse
grevlex order and then reversed.  A monomial is one int (`poly`) of the
table's digit width, for which each operator is packed once per call.
One builder, `_annihilator_rows`, turns one operator's images of a block's
columns into sparse {column: int} annihilator rows: for the kernel
dimensions and for the ideal's rank in `harmonic_report`, which ranks each
degree's r2 images with one pivot dict and reads the separation range off
the shape.  Each row goes into the online reducer `linalg.reduce_into` as
it is built, and a kernel dimension applies no further operator once the
rank reaches the block size.  The bracket check multiplies the operators'
normal-ordered terms c*x^a*d^b, a basis of the Weyl algebra, so each
relation it certifies is an operator identity, true on every polynomial.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm

from ..errors import BudgetError, InternalInvariantError, UsageError
from ..partitions import as_partition
from ..reports import MultiplicityEntry
from .configs import FULL, MOD_IDEAL, MatrixSpaceShape, ProductO, SpaceConfig, build_config
from .linalg import reduce_into, solve_columns
from .poly import (Monomial, Operator, Poly, Term, apply_operator, apply_to_monomial,
                   digit_width, pack)
# Nothing here calls these: the benchmark's tracer (perfbench/tracer.py) wraps their
# bindings in this module, and its tests need the names to exist.
from .configs import build_product_config  # noqa: F401
from .linalg import nullspace, rank  # noqa: F401
from .poly import commutator_apply  # noqa: F401

DEFAULT_BUDGET = 20000  # monomials in one weight block
# The most monomials build_buckets walks.  It holds every one's weight code
# before any block meets the budget, so a large max_degree would exhaust
# memory first.  A(5,2) at degree 12 is 646,646 monomials: with only the
# dominant blocks kept, 0.16 s and a 61 MB peak RSS on a 2-vCPU x86_64 VM.
MAX_MONOMIALS = 1_000_000
# The most term products, sum over operator pairs of |terms a| * |terms b|,
# of one bracket check.  They bound the pairs too, and each pair's solve only
# sees the span operators linked to its commutator (`_connected_span`), so the
# time follows them: on a 2-vCPU x86_64 VM A(6,3) makes 10,380 in 0.05 s,
# A(7,4) 45,140 in 0.1 s and C(1,17,0) 46,648 over 41,616 pairs in 0.5 s, the
# slowest under the bound in every case 0.7 s.  A(8,8) would make 743,516.
MAX_BRACKET_PRODUCTS = 50_000
# The most variables of a bracket check's shape, counted before its config is
# built, whose cost grows with them (A(20,20), 400 variables: 0.14 s).  Term
# products grow faster: A(12,12), 144 variables, already makes 8,740,578.
MAX_BRACKET_VARIABLES = 200
# The `test_degree` of every bracket report.  The check applies no operator to
# test monomials; the field keeps the degree the earlier sweep used, so the
# report's format and bytes are unchanged.
BRACKET_TEST_DEGREE = 2


def check_monomial_count(var_count: int, max_degree: int) -> None:
    """BudgetError if over MAX_MONOMIALS monomials in var_count variables have degree
    <= max_degree.  Every oracle enumeration checks this first; a caller may check sooner."""
    count = comb(var_count + max_degree, max_degree)
    if count > MAX_MONOMIALS:
        raise BudgetError(f"{count} monomials of degree <= {max_degree} in "
                          f"{var_count} variables exceed {MAX_MONOMIALS}")


@dataclass
class BucketTable:
    buckets: dict[tuple, list[Monomial]]  # in order of degree, then of weight
    degrees: dict[tuple, int]  # each block's degree
    width: int  # the monomials' exponent digit width, `digit_width(max_degree)`


def _packed(rows, bound: int) -> tuple[list[int], int]:
    """Each row as one integer of k-bit signed digits, the first entry lowest, and k.

    k is the least width with 2^(k-1) > bound.  Codes add like the rows, and
    two rows or sums of rows with entries in [-bound, bound] have the same
    code only if they are equal.  Adding 2^(k-1) in every digit turns each
    such entry e into e + 2^(k-1), inside [1, 2^k): no digit carries, and its
    top bit is set iff e >= 0.
    """
    k = bound.bit_length() + 1
    return [sum(c << (k * j) for j, c in enumerate(row) if c) for row in rows], k


def _weight_codes(config: SpaceConfig, max_degree: int):
    """Each variable's code, the decoder of sums of codes, and the filter keeping the
    dominant ones among such sums.

    A variable's row is its flat weight (each factor's `coords` coordinates)
    and then its value on each factor's dominance functionals (`dominance`),
    packed by `_packed` for b = 2 * max|coord| * max_degree.  On a monomial
    of degree <= max_degree every coordinate lies in [-b/2, b/2] and every
    functional, two terms of coefficient +-1, in [-b, b].  So a monomial's code is the sum
    of its variables' codes, it fixes the weight, and after adding the offset
    2^(k-1) in every digit the coordinate digits read back as the weight and
    the monomial is dominant iff every functional digit has its top bit set.
    """
    starts = list(itertools.accumulate((factor.coords for factor in config.factors), initial=0))
    functionals = [tuple((start + i, c) for i, c in f)  # (flat coordinate, coefficient) pairs
                   for factor, start in zip(config.factors, starts)
                   for f in factor.dominance()]
    flat = [[c for weights in config.var_weights for c in weights[v]]
            for v in range(config.var_count)]
    bound = 2 * max((abs(c) for w in flat for c in w), default=0) * max_degree
    codes, k = _packed([w + [sum(c * w[i] for i, c in f) for f in functionals]
                        for w in flat], bound)
    half, low, coords = 1 << (k - 1), (1 << k) - 1, starts[-1]
    offset = sum(half << (k * j) for j in range(coords + len(functionals)))
    mask = sum(half << (k * j) for j in range(coords, coords + len(functionals)))

    def decode(code: int) -> tuple[tuple[int, ...], ...]:
        code += offset
        digits = [(code >> (k * i) & low) - half for i in range(coords)]
        return tuple(tuple(digits[a:b]) for a, b in zip(starts, starts[1:]))

    def dominant(codes: Iterable[int]) -> list[int]:
        return [code for code in codes if (code + offset) & mask == mask]

    return codes, decode, dominant


def _code_walk(codes: list[int], max_degree: int):
    """Per degree d = 0..max_degree, the codes of every degree-d monomial, in the order
    `combinations_with_replacement(range(len(codes)), d)` walks their variables.

    That walk's combos that start at position p are p followed by the degree
    d-1 combos from p on: the last C(V-p+d-2, d-1) entries of the degree d-1
    list, V = len(codes).  So each degree is one pass per variable over a
    suffix slice of the list before it.
    """
    walk = [0]
    yield walk
    size = len(codes)
    for d in range(1, max_degree + 1):
        n = len(walk)
        walk = [x + c for p, c in enumerate(codes)
                for x in walk[n - comb(size - p + d - 2, d - 1):]]
        yield walk


def _refusal(codes: list[int], max_degree: int, counts: list[Counter], decode) -> Exception:
    """The error for the first block, in the natural order of the walk, over the budget
    or holding monomials of two degrees; the budget is tested first."""
    degrees: dict[int, list[int]] = {}
    for d, count in enumerate(counts):
        for code in count:
            degrees.setdefault(code, []).append(d)
    for walk in _code_walk(codes, max_degree):
        for code in walk:
            ds = degrees[code]
            size = sum(counts[d][code] for d in ds)
            if size > DEFAULT_BUDGET:
                return BudgetError(f"weight space of dimension {size} "
                                   f"exceeds the budget {DEFAULT_BUDGET}")
            if len(ds) > 1:
                return UsageError(f"weight {decode(code)} holds monomials of degrees "
                                  f"{ds[0]} and {ds[-1]}")
    raise InternalInvariantError("no block breaks a check")


def build_buckets(config: SpaceConfig, max_degree: int,
                  dominant_only: bool = False) -> BucketTable:
    """Monomials of degree <= max_degree grouped by torus weight, grevlex inside a block,
    the blocks in order of degree and then of weight.

    A weight must fix the degree: a config whose weights put monomials of two
    degrees in one block is a UsageError.  More than MAX_MONOMIALS monomials
    in all is a BudgetError, raised before any code is computed, and a block
    of more than DEFAULT_BUDGET monomials is one too, raised before any
    monomial is built.  Where several blocks break a check, the error names
    the first in the order of `combinations_with_replacement` over the
    variables in their own order (`_refusal`).

    A monomial's code (`_weight_codes`) is the sum of its variables' codes.
    `_code_walk` computes every monomial's code, degree by degree, walking
    the variables last first, and one Counter per degree counts each weight.
    The budget and the degree check read those counts, over every block,
    before any monomial is built.  With `dominant_only`, only dominant
    weights get a block, each code tested once with one mask before it is
    decoded.  Only the kept combos become monomials, each the sum of its
    variables' units 1 << k*v for the table's width k (`poly.digit_width`).
    The last-first walk yields each block in reverse grevlex order, so it is
    reversed, not sorted.
    """
    check_monomial_count(config.var_count, max_degree)
    codes, decode, dominant = _weight_codes(config, max_degree)
    width = digit_width(max_degree)
    units = [1 << width * v for v in range(config.var_count - 1, -1, -1)]
    walks = list(_code_walk(codes[::-1], max_degree))
    counts = [Counter(walk) for walk in walks]
    union: dict[int, int] = {}
    for count in counts:
        union.update(count)
    if (sum(map(len, counts)) > len(union)
            or max(union.values()) > DEFAULT_BUDGET):
        raise _refusal(codes, max_degree, counts, decode)
    table = BucketTable({}, {}, width)
    for d, (walk, count) in enumerate(zip(walks, counts)):
        keys = {code: decode(code) for code in (dominant(count) if dominant_only else count)}
        blocks: dict[int, list[Monomial]] = {code: [] for code in sorted(keys, key=keys.get)}
        combos = itertools.combinations_with_replacement(units, d)
        if dominant_only:
            flags = list(map(blocks.__contains__, walk))
            walk, combos = itertools.compress(walk, flags), itertools.compress(combos, flags)
        for code, mono in zip(walk, map(sum, combos)):
            blocks[code].append(mono)
        for code, monos in blocks.items():
            monos.reverse()
            table.buckets[keys[code]] = monos
            table.degrees[keys[code]] = d
    return table


def _annihilator_rows(images: list[Poly]) -> Iterable[dict[int, int]]:
    """The one builder of annihilator rows: one operator's images of a block's columns.

    images[j] is the operator applied to column j.  It gives one sparse
    {column: int} row per target monomial, so the rows' kernel is the
    operator's kernel on the span of the columns, and their rank is the
    rank of the columns.
    """
    rows: dict[Monomial, dict[int, int]] = {}
    for col, img in enumerate(images):
        for tm, tc in img.items():
            row = rows.get(tm)
            if row is None:
                rows[tm] = row = {}
            row[col] = tc
    return rows.values()


def _kernel_dim(ops, basis: list[Monomial]) -> int:
    """The joint kernel dimension of ops, packed for basis' width, on its span; 0 as
    soon as the rows reach full rank, with no further operator applied."""
    pivots: dict[int, dict[int, int]] = {}
    for op in ops:
        for row in _annihilator_rows([apply_to_monomial(op, mono) for mono in basis]):
            if reduce_into(pivots, row) and len(pivots) == len(basis):
                return 0
    return len(basis) - len(pivots)


def hwv_multiplicities(shape: MatrixSpaceShape | ProductO, max_degree: int,
                       mode: str = FULL) -> list[MultiplicityEntry]:
    """Joint highest-weight-vector dimensions per label tuple.

    FULL counts on all polynomials, MOD_IDEAL inside the joint kernel of the
    Delta family (the harmonic model of the quotient by the invariant ideal;
    for `ProductO(n1, n2, m)`, by the block-sum form of O_{n1+n2}).  Every
    operator keeps the degree parity in each row block's rows, so a ProductO
    block is cut per parity p in the first factor's rows (the shape's
    `first_block_vars` leading variables); a `MatrixSpaceShape`'s first
    factor holds every row.  `TorusFactor.label` reads p on the first factor
    and d - p on the others, whose rows ProductO's O_{n2} holds.  The weight
    fixes the parity in an even block's rows, each of which has a nonzero
    weight, so a block is cut only where the shape says it can split
    (`splits_by_parity`: n1 and n2 odd), and its two parts then name
    different O_{n1} labels.
    """
    if mode not in (FULL, MOD_IDEAL):
        raise UsageError(f"unknown mode {mode!r}")
    config = build_config(shape)
    table = build_buckets(config, max_degree, dominant_only=True)
    ops = config.simple_raisings if mode == FULL else config.deltas + config.simple_raisings
    cutters = [op.packed(table.width) for op in ops]
    odd = sum(1 << table.width * v for v in range(shape.first_block_vars))  # digits' low bits
    entries = []
    for key, basis in table.buckets.items():
        parts = [basis]
        if shape.splits_by_parity:
            split: dict[int, list[Monomial]] = {}
            for mono in basis:
                split.setdefault((mono & odd).bit_count() % 2, []).append(mono)
            parts = split.values()
        for part in parts:
            mult = _kernel_dim(cutters, part)
            if not mult:
                continue
            d, p = table.degrees[key], (part[0] & odd).bit_count() % 2
            labels = tuple(factor.label(w, (d - p) % 2 if i else p)
                           for i, (factor, w) in enumerate(zip(config.factors, key)))
            if None in labels:
                raise InternalInvariantError(
                    f"nonzero raising kernel at non-partition weight {key}")
            entries.append(MultiplicityEntry(labels, mult, True))
    return entries


@dataclass(frozen=True)
class HarmonicReport:
    descriptor: str
    max_degree: int
    full: tuple[int, ...]
    harmonic: tuple[int, ...]
    ideal: tuple[int, ...]
    identity_ok: bool
    separation_ok: bool | None
    generator_count: int | None


def harmonic_report(shape: MatrixSpaceShape, max_degree: int) -> HarmonicReport:
    """Degreewise dimensions of harmonics and of the invariant ideal.

    The identity harmonic + ideal = full is reported per degree.  The ideal
    in degree d is the span of the r2 images of degree d - 2, ranked with
    one pivot dict per degree: images of different weights share no
    monomial, so no row meets a pivot of another weight.  Inside the
    separation range (`MatrixSpaceShape.separates_variables`) the
    free-module certificate over the r2 family is checked as well.
    """
    config = build_config(shape)
    table = build_buckets(config, max_degree)
    full, harmonic = [0] * (max_degree + 1), [0] * (max_degree + 1)
    deltas = [op.packed(table.width) for op in config.deltas]
    # each r2 raises the degree by 2, applied only up to max_degree: no digit carries
    r2s = [op.packed(table.width) for op in config.r2s]
    images: list[list[Poly]] = [[] for _ in range(max_degree + 1)]
    for key, basis in table.buckets.items():
        d = table.degrees[key]
        full[d] += len(basis)
        harmonic[d] += _kernel_dim(deltas, basis)
        if d + 2 <= max_degree:
            images[d + 2] += (apply_to_monomial(op, mono) for op in r2s for mono in basis)
    ideal = []
    for vecs in images:
        pivots: dict[int, dict[int, int]] = {}
        for row in _annihilator_rows(vecs):
            reduce_into(pivots, row)
        ideal.append(len(pivots))

    identity_ok = all(full[d] == harmonic[d] + ideal[d] for d in range(max_degree + 1))

    separation_ok = gens = None
    if shape.separates_variables:
        gens = len(config.r2s)
        separation_ok = all(
            full[d] == sum(harmonic[d - 2 * b] * comb(b + gens - 1, gens - 1)
                           for b in range(d // 2 + 1))
            for d in range(max_degree + 1))
    return HarmonicReport(config.descriptor, max_degree, tuple(full), tuple(harmonic),
                          tuple(ideal), identity_ok, separation_ok, gens)


@dataclass(frozen=True)
class BracketEntry:
    left: str
    right: str
    rule: str
    ok: bool
    expression: tuple[tuple[str, Fraction], ...]


@dataclass(frozen=True)
class BracketReport:
    descriptor: str
    test_degree: int
    euler_variant: str
    ok: bool
    entries: tuple[BracketEntry, ...]

    @property
    def failures(self) -> tuple[BracketEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)


def _bracket_rule(kind_a: str, kind_b: str) -> tuple[str, str | None]:
    ks = frozenset((kind_a, kind_b))
    if "raising" in ks:
        return ("raising,raising", "raising") if ks == {"raising"} else ("commutant", None)
    if ks == {"delta"} or ks == {"r2"}:
        return ("abelian", None)
    if ks == {"delta", "r2"}:
        return ("delta,r2", "euler_id")
    if ks == {"delta", "euler"}:
        return ("euler,delta", "delta")
    if ks == {"r2", "euler"}:
        return ("euler,r2", "r2")
    return ("euler,euler", "euler_id")


WeylElement = dict[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]],
                   int | Fraction]  # (xs, ds) of a normal-ordered term -> coefficient


def _add_contractions(out: WeylElement, s: Term, t: Term, sign: int) -> None:
    """Add sign * s t, less its k = 0 term x^(a+c) d^(b+d), to out; s = x^a d^b, t = x^c d^d.

    Per variable d^b x^c = sum_k C(b, k) c!/(c-k)! x^(c-k) d^(b-k).  The k = 0
    term of the product is the same for s t and t s, so a commutator needs
    only the contractions, k != 0 on some variable where s differentiates
    and t multiplies.
    """
    xs_t = dict(t.xs)
    overlap = [(v, b, xs_t[v]) for v, b in s.ds if v in xs_t]
    if not overlap:
        return
    for ks in itertools.product(*(range(min(b, c) + 1) for _, b, c in overlap)):
        if not any(ks):
            continue
        coeff = sign * s.coeff * t.coeff
        xs, ds = dict(s.xs), dict(s.ds)
        for v, e in t.xs:
            xs[v] = xs.get(v, 0) + e
        for v, e in t.ds:
            ds[v] = ds.get(v, 0) + e
        for (v, b, c), k in zip(overlap, ks):
            coeff *= comb(b, k) * perm(c, k)
            xs[v] -= k
            ds[v] -= k
        key = (tuple(sorted((v, e) for v, e in xs.items() if e)),
               tuple(sorted((v, e) for v, e in ds.items() if e)))
        out[key] = out.get(key, 0) + coeff


def _weyl_commutator(a: Operator, b: Operator) -> WeylElement:
    """[a, b] = a b - b a in the normal-ordered basis of the Weyl algebra, zeros dropped."""
    out: WeylElement = {}
    for s in a.terms:
        for t in b.terms:
            _add_contractions(out, s, t, 1)
            _add_contractions(out, t, s, -1)
    return {key: c for key, c in out.items() if c}


def _connected_span(comm: WeylElement, names: list[str], coeffs: dict,
                    owners: dict) -> tuple[list[int], list]:
    """The span operators that can carry a coefficient of comm, and the keys they touch.

    Span columns and term keys form a bipartite graph, and the span system
    is block diagonal along its components.  The blocks outside comm's
    components have a zero right-hand side, so their columns are zero in
    the solution `solve_columns` returns, and dropping them changes no
    other coefficient.  Returns the column indices reached from comm's
    keys through shared keys, in span order, and the sorted keys of comm
    and of those columns.
    """
    cols: set[int] = set()
    keys = set(comm)
    frontier = list(comm)
    while frontier:
        for i in owners.get(frontier.pop(), ()):
            if i not in cols:
                cols.add(i)
                fresh = [key for key in coeffs[names[i]] if key not in keys]
                keys.update(fresh)
                frontier.extend(fresh)
    return sorted(cols), sorted(keys)


def verify_brackets(shape: MatrixSpaceShape) -> BracketReport:
    """Certify the oscillator-algebra bracket relations as Weyl-algebra identities.

    Every commutator of built operators must lie exactly in the expected
    span: Euler plus identity for [Delta, r2], the Delta respectively r2
    family for Euler brackets, zero for the group-side raisings against the
    whole family (the two actions centralize each other), and the raising
    span for raising pairs.  Abelianness of the Delta and r2 families is part
    of the same check.  Each commutator is computed on the operators'
    normal-ordered terms (`_weyl_commutator`) and its span solved on their
    coefficients, so a relation that holds holds on every polynomial; each
    solve keeps only the span operators linked to the commutator's terms
    (`_connected_span`).  The report's `test_degree` is always
    BRACKET_TEST_DEGREE and its `euler_variant` "untwisted".  A BudgetError
    refuses a shape of more than MAX_BRACKET_VARIABLES variables before its
    config is built, and more than MAX_BRACKET_PRODUCTS term products before
    any product.
    """
    if shape.var_count > MAX_BRACKET_VARIABLES:
        raise BudgetError(f"{shape.var_count} variables exceed {MAX_BRACKET_VARIABLES}")
    return _bracket_report(build_config(shape))


def _bracket_report(config: SpaceConfig) -> BracketReport:
    """`verify_brackets`' check on a built config, after its variable budget."""
    family = list(config.deltas + config.r2s + config.eulers + config.k_raisings)
    sizes = [len(op.terms) for op in family]
    products = (sum(sizes) ** 2 - sum(n * n for n in sizes)) // 2
    if products > MAX_BRACKET_PRODUCTS:
        raise BudgetError(f"{products} term products exceed {MAX_BRACKET_PRODUCTS}")

    coeffs = {op.name: {(t.xs, t.ds): t.coeff for t in op.terms} for op in family}
    coeffs["id"] = {((), ()): 1}
    spans = {
        "euler_id": [op.name for op in config.eulers] + ["id"],
        "delta": [op.name for op in config.deltas],
        "r2": [op.name for op in config.r2s],
        "raising": [op.name for op in config.k_raisings],
    }
    owners: dict[str, dict] = {}  # span -> term key -> indices of its operators with that key
    for span, names in spans.items():
        index = owners[span] = {}
        for i, name in enumerate(names):
            for key in coeffs[name]:
                index.setdefault(key, []).append(i)

    entries = []
    for a, b in itertools.combinations(family, 2):
        rule, span = _bracket_rule(a.kind, b.kind)
        comm = _weyl_commutator(a, b)
        if span is None or not comm:
            entries.append(BracketEntry(a.name, b.name, rule, not comm, ()))
            continue
        names = spans[span]
        cols, keys = _connected_span(comm, names, coeffs, owners[span])
        columns = [[coeffs[names[i]].get(key, 0) for key in keys] for i in cols]
        sol = solve_columns(columns, [comm.get(key, 0) for key in keys])
        if sol is None:
            entries.append(BracketEntry(a.name, b.name, rule, False, ()))
        else:
            expr = tuple((names[i], c) for i, c in zip(cols, sol) if c)
            entries.append(BracketEntry(a.name, b.name, rule, True, expr))

    return BracketReport(config.descriptor, BRACKET_TEST_DEGREE, "untwisted",
                         all(e.ok for e in entries), tuple(entries))


@dataclass(frozen=True)
class MinorCertificate:
    var_names: tuple[str, ...]
    poly: dict[tuple[int, ...], int]  # exponent tuple -> coefficient
    columns: tuple[int, ...]
    deltas_annihilate: bool
    raisings_annihilate: bool
    weight: tuple[tuple[int, ...], ...]
    weight_ok: bool

    @property
    def ok(self) -> bool:
        return self.deltas_annihilate and self.raisings_annihilate and self.weight_ok


def minor_hwv(n: int, m: int, columns) -> MinorCertificate:
    """The determinant on rows 1..j and the given columns, with its certificate.

    These minors generate the orthogonal highest-weight covariants in the
    separation range 2m <= n (`MatrixSpaceShape.separates_variables`); the
    certificate checks harmonicity, invariance under the group-side
    raisings, and the expected one-column orthogonal weight.
    """
    cols = tuple(columns)
    j = len(cols)
    if not (1 <= j <= m):
        raise UsageError("need between 1 and m columns")
    if any(not 1 <= c <= m for c in cols):
        raise UsageError(f"column indices must lie in 1..{m}")
    if any(cols[i] >= cols[i + 1] for i in range(j - 1)):
        raise UsageError("column indices must be strictly increasing")
    shape = MatrixSpaceShape("A", n, m)
    if not shape.separates_variables:
        raise UsageError(f"minor certificates need 2m <= n, got n={n}, m={m}")
    config = build_config(shape)

    def idx(s, c):
        return (s - 1) * m + (c - 1)

    poly: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(j)):
        sign = 1
        for i in range(j):
            for k in range(i + 1, j):
                if perm[i] > perm[k]:
                    sign = -sign
        mono = [0] * config.var_count
        for row in range(1, j + 1):
            mono[idx(row, cols[perm[row - 1]])] = 1
        poly[tuple(mono)] = sign  # rows 1..j and strictly increasing columns: one per perm
    width = digit_width(j)  # the operators keep or lower the degree j
    packed = {pack(mono, width): c for mono, c in poly.items()}

    def annihilates(ops):
        return not any(apply_operator(op.packed(width), packed) for op in ops)

    weights = {config.monomial_weight(mono) for mono in poly}
    if len(weights) != 1:
        raise InternalInvariantError("minor is not weight homogeneous")
    weight = weights.pop()
    expected_o = tuple([1] * j + [0] * (n // 2 - j))
    expected_gl = tuple(sum(1 for c in cols if c == i) for i in range(1, m + 1))
    weight_ok = weight == (expected_o, expected_gl)
    return MinorCertificate(config.var_names, poly, cols,
                            annihilates(config.deltas), annihilates(config.k_raisings),
                            weight, weight_ok)


def harmonic_isotypic_dims(shape: MatrixSpaceShape,
                           max_degree: int) -> dict[tuple[int, ...], int]:
    """Dimension of the harmonic isotypic component per GL-side highest weight.

    Joins `build_buckets`' blocks by the GL-side weight alone (all
    group-side weights mixed), then cuts by the Delta family and the GL-side
    simple raisings.  In the stable range the kernel at weight lambda is a
    single copy of the orthogonal or symplectic irreducible labelled lambda,
    so its dimension cross-checks the Weyl dimension formulas.  The budgets
    are `build_buckets`', and a joined block of more than DEFAULT_BUDGET
    monomials is a BudgetError too.
    """
    if shape.split_columns or shape.case == "C":
        raise UsageError("isotypic dimensions apply to the two-factor cases A and B")
    config = build_config(shape)
    dominance = config.factors[1].dominance()  # the GL side's
    groups: dict[tuple[int, ...], list[Monomial]] = {}
    table = build_buckets(config, max_degree)
    for key, basis in table.buckets.items():
        w = key[1]
        if all(sum(c * w[i] for i, c in f) >= 0 for f in dominance):
            groups.setdefault(w, []).extend(basis)
    for basis in groups.values():
        if len(basis) > DEFAULT_BUDGET:
            raise BudgetError(f"isotypic block of dimension {len(basis)} "
                              f"exceeds the budget {DEFAULT_BUDGET}")
    out: dict[tuple[int, ...], int] = {}
    cutters = [op.packed(table.width) for op in config.deltas + tuple(
        op for op in config.simple_raisings if op in config.gl_raisings)]
    for w in sorted(groups):
        dim = _kernel_dim(cutters, sorted(groups[w]))
        if dim:
            out[as_partition(w)] = dim
    return out
