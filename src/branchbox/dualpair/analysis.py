"""Brute-force multiplicity tables, harmonic dimension counts, and bracket checks.

Everything reduces to exact nullspace or rank computations on weight-space
blocks: all operators in play are weight-homogeneous for the product torus,
so each block can be handled on its own.  Raising-operator kernels are only
computed at dominant weights, and only those blocks are built; a kernel
vector generates a highest weight module, so nothing is lost, and a nonzero
kernel at a weight that is not a partition on an orthogonal factor is
reported as an internal error rather than silently dropped.  Monomials are
grouped by a packed integer code of their weight (`_weight_codes`), a second
packed code tests dominance before any weight is decoded
(`_dominance_codes`), and every row handed to the multiplicity eliminations
is made of `int`s.  One builder, `_stacked_rows`, turns per-operator images
of a block's columns into annihilator rows: for the kernel dimensions, for
the raisings on the harmonic domain in `hwv_multiplicities`, and for the
ideal's rank in `harmonic_report`.  The bracket check applies each operator
to each monomial once and builds every commutator from those images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from ..errors import BudgetError, InternalInvariantError, UsageError
from ..partitions import IrrepLabel, as_partition, weight_to_signature
from ..reports import MultiplicityEntry
from .configs import (FULL, MOD_IDEAL, MatrixSpaceShape, ProductO, SpaceConfig,
                      TorusFactor, build_config, build_product_config)
from .linalg import rank, nullspace, solve_columns
from .poly import (Monomial, Operator, Poly, apply_operator, apply_to_monomial,
                   commutator_apply, grevlex_mono_key, monomials_of_degree)

DEFAULT_BUDGET = 20000


@dataclass
class BucketTable:
    buckets: dict[tuple, list[Monomial]]
    degree: dict[tuple, int]
    by_degree: dict[int, list[tuple]]


def _flat_weights(config: SpaceConfig) -> tuple[list[int], list[tuple[int, ...]]]:
    """Each factor's coordinate count, and each variable's weight as one flat row."""
    sizes = [len(weights[0]) for weights in config.var_weights]
    flat = [tuple(c for weights in config.var_weights for c in weights[v])
            for v in range(config.var_count)]
    return sizes, flat


def _weight_codes(config: SpaceConfig, max_degree: int):
    """Each variable's torus weight packed into one integer, and the decoder of sums.

    The flat weight (all factors' coordinates in a row) is read as the digits
    of a balanced base B = 2*h + 1 number, h = max|coord| * max_degree.  Every
    coordinate of a monomial of degree <= max_degree lies in [-h, h], so the
    digits of a sum of codes never carry: the code of a monomial is the sum
    of its variables' codes, and it decodes back to the monomial's weight.
    """
    sizes, flat = _flat_weights(config)
    coords = sum(sizes)
    half = max((abs(c) for w in flat for c in w), default=0) * max_degree
    base = 2 * half + 1
    codes = []
    for w in flat:
        code = 0
        for c in reversed(w):
            code = code * base + c
        codes.append(code)

    def decode(code: int) -> tuple[tuple[int, ...], ...]:
        digits = []
        for _ in range(coords):
            digit = (code + half) % base - half
            digits.append(digit)
            code = (code - digit) // base
        key, start = [], 0
        for size in sizes:
            key.append(tuple(digits[start:start + size]))
            start += size
        return tuple(key)

    return codes, decode


def _dominance_codes(config: SpaceConfig, max_degree: int) -> tuple[list[int], int]:
    """Each variable's dominance functionals packed into one integer, and the sign mask.

    Every dominance condition of every factor is a functional f(w) >= 0 with
    two terms of coefficient +-1 (`_dominance_functionals`), so on a monomial
    of degree <= max_degree it lies in [-b, b], b = 2 * max|coord| * max_degree.
    A variable's code holds f(weight) in the k-bit digit of each functional,
    2^(k-1) > b.  Adding mask = 2^(k-1) in every digit turns the digits of a
    sum of codes into f + 2^(k-1), inside [0, 2^k) so nothing carries, and
    each digit's top bit is set iff its f >= 0: a monomial is dominant iff
    (sum of its variables' codes + mask) & mask == mask.
    """
    sizes, flat = _flat_weights(config)
    functionals = []  # (flat coordinate, coefficient) pairs
    start = 0
    for factor, size in zip(config.factors, sizes):
        functionals += [tuple((start + i, c) for i, c in f)
                        for f in _dominance_functionals(factor, size)]
        start += size
    bound = 2 * max((abs(c) for w in flat for c in w), default=0) * max_degree
    k = bound.bit_length() + 1
    codes = []
    for w in flat:
        code = 0
        for f in reversed(functionals):
            code = (code << k) + sum(c * w[i] for i, c in f)
        codes.append(code)
    mask = sum(1 << (k * j + k - 1) for j in range(len(functionals)))
    return codes, mask


def _dominance_functionals(factor: TorusFactor, coords: int) -> list[tuple[tuple[int, int], ...]]:
    """A factor's dominance conditions, each sum(c * w[i]) >= 0 as (i, c) pairs."""
    if not coords:
        return []
    out = [((i, 1), (i + 1, -1)) for i in range(coords - 1)]
    if factor.family == "O" and factor.rank % 2 == 0 and coords >= 2:
        out.append(((coords - 2, 1), (coords - 1, 1)))  # type D allows one sign flip in the last slot
    elif factor.family != "GL" or not factor.signed:
        out.append(((coords - 1, 1),))
    return out


def build_buckets(config: SpaceConfig, max_degree: int,
                  budget: int = DEFAULT_BUDGET,
                  dominant_only: bool = False) -> BucketTable:
    """Monomials of degree <= max_degree grouped by torus weight, grevlex inside a block.

    A weight must fix the degree: a config whose weights put monomials of two
    degrees in one block is a UsageError.

    With `dominant_only`, only dominant weights get a block, tested on the
    packed code (`_dominance_codes`) before the weight is decoded; the budget
    still covers every block.
    """
    codes, decode = _weight_codes(config, max_degree)
    groups: dict[int, list[tuple[int, ...]]] = {}  # code -> variable multisets
    for d in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(config.var_count), d):
            code = sum(map(codes.__getitem__, combo))
            group = groups.get(code)
            if group is None:
                groups[code] = group = []
            group.append(combo)
    if dominant_only:
        dominance, mask = _dominance_codes(config, max_degree)
    table = BucketTable({}, {}, {d: [] for d in range(max_degree + 1)})
    for code, combos in groups.items():
        if len(combos) > budget:
            raise BudgetError(
                f"weight space of dimension {len(combos)} exceeds the budget {budget}")
        if len(combos[0]) != len(combos[-1]):  # combos come in increasing degree
            raise UsageError(f"weight {decode(code)} holds monomials of degrees "
                             f"{len(combos[0])} and {len(combos[-1])}")
        if dominant_only and (sum(map(dominance.__getitem__, combos[0])) + mask) & mask != mask:
            continue
        key = decode(code)
        monos = []
        for combo in combos:
            mono = [0] * config.var_count
            for v in combo:
                mono[v] += 1
            monos.append(tuple(mono))
        monos.sort(key=grevlex_mono_key)
        table.buckets[key] = monos
        table.degree[key] = len(combos[0])
        table.by_degree[len(combos[0])].append(key)
    for keys in table.by_degree.values():
        keys.sort()
    return table


def _images(ops, basis: list[Monomial]) -> list[list[Poly]]:
    """Each operator's image of each basis monomial."""
    return [[apply_to_monomial(op, mono) for mono in basis] for op in ops]


def _combine(vec: tuple[int, ...], cols: list[Poly]) -> Poly:
    """The image of sum(vec[j] * basis[j]), given the images cols[j] of the basis."""
    out: Poly = {}
    for c, col in zip(vec, cols):
        if c:
            for tm, tc in col.items():
                out[tm] = out.get(tm, 0) + c * tc
    return out


def _stacked_rows(images: list[list[Poly]]) -> list[list[int]]:
    """The one builder of annihilator rows: per-operator column images, stacked.

    images[k][j] is operator k applied to column j.  Operator k gives one
    dense row per target monomial, so the rows' kernel is the joint kernel of
    the operators on the span of the columns, and their rank is the rank of
    the columns when there is one operator.
    """
    out = []
    for cols in images:
        rows: dict[Monomial, list] = {}
        for col, img in enumerate(cols):
            for tm, tc in img.items():
                row = rows.get(tm)
                if row is None:
                    rows[tm] = row = [0] * len(cols)
                row[col] = tc
        out += rows.values()
    return out


def _kernel_dim(ops, basis: list[Monomial]) -> int:
    return len(basis) - rank(_stacked_rows(_images(ops, basis)))


def _labels_for(config: SpaceConfig, key: tuple) -> tuple[IrrepLabel, ...] | None:
    labels = []
    for factor, w in zip(config.factors, key):
        if factor.family in ("O", "Sp"):
            if any(a < 0 for a in w):
                return None
            labels.append(IrrepLabel(factor.family, factor.rank, as_partition(w)))
        elif factor.signed:
            labels.append(IrrepLabel("GL", factor.rank, weight_to_signature(w)))
        else:
            labels.append(IrrepLabel("GL", factor.rank, as_partition(w)))
    return tuple(labels)


def hwv_multiplicities(shape: MatrixSpaceShape, max_degree: int,
                       mode: str | ProductO = FULL,
                       budget: int = DEFAULT_BUDGET) -> list[MultiplicityEntry]:
    """Joint highest-weight-vector dimensions per weight, as label tuples.

    FULL counts on all polynomials, MOD_IDEAL inside the joint kernel of the
    Delta family (the harmonic model of the quotient by the invariant ideal),
    ProductO(n1, n2) inside the harmonics of the block-sum form with two
    orthogonal factors acting on row blocks.
    """
    if isinstance(mode, ProductO):
        if shape.case != "A" or shape.split_columns or shape.l:
            raise UsageError("ProductO mode needs a plain case A shape")
        if mode.n1 + mode.n2 != shape.n:
            raise UsageError(f"ProductO blocks must fill the rows: {mode.n1}+{mode.n2} != {shape.n}")
        config = build_product_config(mode, shape.m)
        use_harmonics = True
    elif mode == FULL:
        config = build_config(shape)
        use_harmonics = False
    elif mode == MOD_IDEAL:
        config = build_config(shape)
        use_harmonics = True
    else:
        raise UsageError(f"unknown mode {mode!r}")

    table = build_buckets(config, max_degree, budget, dominant_only=True)
    raisers = config.raisings
    entries = []
    for d in range(max_degree + 1):
        for key in table.by_degree[d]:
            basis = table.buckets[key]
            if use_harmonics and config.deltas:
                domain = nullspace(_stacked_rows(_images(config.deltas, basis)), len(basis))
                if not domain:
                    continue
                images = [[_combine(vec, cols) for vec in domain]
                          for cols in _images(raisers, basis)]
                mult = len(domain) - rank(_stacked_rows(images))
            else:
                mult = _kernel_dim(raisers, basis)
            if not mult:
                continue
            labels = _labels_for(config, key)
            if labels is None:
                raise InternalInvariantError(
                    f"nonzero raising kernel at non-partition weight {key}")
            entries.append(MultiplicityEntry(labels, mult, True))
    return entries


def _op_weight_shift(config: SpaceConfig, op: Operator) -> tuple[tuple[int, ...], ...]:
    term = op.terms[0]
    out = []
    for weights in config.var_weights:
        coords = len(weights[0]) if weights else 0
        acc = [0] * coords
        for v, e in term.xs:
            for i in range(coords):
                acc[i] += e * weights[v][i]
        for v, e in term.ds:
            for i in range(coords):
                acc[i] -= e * weights[v][i]
        out.append(tuple(acc))
    return tuple(out)


def _add_keys(a: tuple, b: tuple) -> tuple:
    return tuple(tuple(x + y for x, y in zip(u, v)) for u, v in zip(a, b))


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


def harmonic_report(shape: MatrixSpaceShape, max_degree: int,
                    budget: int = DEFAULT_BUDGET) -> HarmonicReport:
    """Degreewise dimensions of harmonics and of the invariant ideal.

    The identity harmonic + ideal = full is reported per degree; in case A
    inside the separation range n >= 2m the free-module certificate over the
    m(m+1)/2 quadratic invariants is checked as well.
    """
    config = build_config(shape)
    table = build_buckets(config, max_degree, budget)
    full = [0] * (max_degree + 1)
    harmonic = [0] * (max_degree + 1)
    ideal = [0] * (max_degree + 1)
    for key, basis in table.buckets.items():
        d = table.degree[key]
        full[d] += len(basis)
        harmonic[d] += _kernel_dim(config.deltas, basis)

    shifts = {op.name: _op_weight_shift(config, op) for op in config.r2s}
    groups: dict[tuple, list[Poly]] = {}
    for key, basis in table.buckets.items():
        if table.degree[key] + 2 > max_degree:
            continue
        for op in config.r2s:
            tkey = _add_keys(key, shifts[op.name])
            vecs = groups.setdefault(tkey, [])
            for mono in basis:
                img = apply_to_monomial(op, mono)
                if img:
                    vecs.append(img)
    for tkey, vecs in groups.items():
        ideal[table.degree[tkey]] += rank(_stacked_rows([vecs]))

    identity_ok = all(full[d] == harmonic[d] + ideal[d] for d in range(max_degree + 1))

    separation_ok = None
    gens = None
    if shape.case == "A" and not shape.split_columns and shape.n >= 2 * shape.m:
        gens = shape.m * (shape.m + 1) // 2
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


def verify_brackets(shape: MatrixSpaceShape, test_degree: int = 2,
                    printed_euler_variant: bool = False,
                    budget: int = DEFAULT_BUDGET) -> BracketReport:
    """Certify the oscillator-algebra bracket relations by direct application.

    Every commutator of built operators must land exactly in the expected
    span: Euler plus identity for [Delta, r2], the Delta respectively r2
    family for Euler brackets, zero for the group-side raisings against the
    whole family (the two actions centralize each other), and the raising
    span for raising pairs.  Abelianness of the Delta and r2 families is part
    of the same sweep.  The row-reversed case A Euler variant can be swapped
    in to let the closure test arbitrate between the two conventions.
    """
    if test_degree < 2:
        raise UsageError("bracket verification needs test_degree >= 2")
    config = build_config(shape, printed_euler_variant=printed_euler_variant)
    sources = [mono for d in range(test_degree + 1)
               for mono in monomials_of_degree(config.var_count, d)]
    if len(sources) > budget:
        raise BudgetError(f"{len(sources)} test monomials exceed the budget {budget}")

    family = list(config.deltas + config.r2s + config.eulers + config.k_raisings)
    actions: dict[str, dict[Monomial, Poly]] = {
        op.name: {src: apply_to_monomial(op, src) for src in sources} for op in family}
    actions["id"] = {src: {src: 1} for src in sources}
    spans = {
        "euler_id": [op.name for op in config.eulers] + ["id"],
        "delta": [op.name for op in config.deltas],
        "r2": [op.name for op in config.r2s],
        "raising": [op.name for op in config.k_raisings],
    }

    images = {op.name: dict(actions[op.name]) for op in family}

    def image(op: Operator, mono: Monomial) -> Poly:
        known = images[op.name]
        img = known.get(mono)
        if img is None:
            img = known[mono] = apply_to_monomial(op, mono)
        return img

    entries = []
    for a, b in itertools.combinations(family, 2):
        rule, span = _bracket_rule(a.kind, b.kind)
        comm = {src: commutator_apply(a, b, {src: 1}, image) for src in sources}
        if span is None:
            ok = all(not p for p in comm.values())
            entries.append(BracketEntry(a.name, b.name, rule, ok, ()))
            continue
        names = spans[span]
        eq_keys = sorted({(src, tm) for src, p in comm.items() for tm in p} |
                         {(src, tm) for name in names
                          for src, p in actions[name].items() for tm in p})
        columns = [[actions[name][src].get(tm, 0) for src, tm in eq_keys]
                   for name in names]
        rhs = [comm[src].get(tm, 0) for src, tm in eq_keys]
        sol = solve_columns(columns, rhs)
        if sol is None:
            entries.append(BracketEntry(a.name, b.name, rule, False, ()))
        else:
            expr = tuple((name, c) for name, c in zip(names, sol) if c)
            entries.append(BracketEntry(a.name, b.name, rule, True, expr))

    variant = "printed" if printed_euler_variant else "untwisted"
    report = BracketReport(config.descriptor, test_degree, variant,
                           all(e.ok for e in entries), tuple(entries))
    return report


@dataclass(frozen=True)
class MinorCertificate:
    var_names: tuple[str, ...]
    poly: Poly
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
    range 2m <= n; the certificate checks harmonicity, invariance under the
    group-side raisings, and the expected one-column orthogonal weight.
    """
    cols = tuple(columns)
    j = len(cols)
    if not (1 <= j <= m):
        raise UsageError("need between 1 and m columns")
    if any(not 1 <= c <= m for c in cols):
        raise UsageError(f"column indices must lie in 1..{m}")
    if any(cols[i] >= cols[i + 1] for i in range(j - 1)):
        raise UsageError("column indices must be strictly increasing")
    if 2 * m > n:
        raise UsageError(f"minor certificates need 2m <= n, got n={n}, m={m}")
    shape = MatrixSpaceShape("A", n, m)
    config = build_config(shape)

    def idx(s, c):
        return (s - 1) * m + (c - 1)

    poly: Poly = {}
    for perm in itertools.permutations(range(j)):
        sign = 1
        for i in range(j):
            for k in range(i + 1, j):
                if perm[i] > perm[k]:
                    sign = -sign
        mono = [0] * config.var_count
        for row in range(1, j + 1):
            mono[idx(row, cols[perm[row - 1]])] += 1
        key = tuple(mono)
        poly[key] = poly.get(key, 0) + sign
    poly = {k: v for k, v in poly.items() if v}

    def annihilates(ops):
        return not any(apply_operator(op, poly) for op in ops)

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


def harmonic_isotypic_dims(shape: MatrixSpaceShape, max_degree: int,
                           budget: int = DEFAULT_BUDGET) -> dict[tuple[int, ...], int]:
    """Dimension of the harmonic isotypic component per GL-side highest weight.

    Groups monomials by the GL-side weight alone (all group-side weights
    mixed), then cuts by the Delta family and the GL-side raisings.  In the
    stable range the kernel at weight lambda is a single copy of the
    orthogonal or symplectic irreducible labelled lambda, so its dimension
    cross-checks the Weyl dimension formulas.
    """
    if shape.split_columns or shape.case == "C":
        raise UsageError("isotypic dimensions apply to the two-factor cases A and B")
    config = build_config(shape)
    groups: dict[tuple[int, ...], list[Monomial]] = {}
    for d in range(max_degree + 1):
        for mono in monomials_of_degree(config.var_count, d):
            groups.setdefault(config.monomial_weight(mono)[1], []).append(mono)
    for basis in groups.values():
        if len(basis) > budget:
            raise BudgetError(
                f"isotypic block of dimension {len(basis)} exceeds the budget {budget}")
    out: dict[tuple[int, ...], int] = {}
    cutters = config.deltas + config.gl_raisings
    for gl_weight in sorted(groups):
        w = gl_weight
        if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
            continue
        dim = _kernel_dim(cutters, sorted(groups[w], key=grevlex_mono_key))
        if dim:
            out[as_partition(w)] = dim
    return out
