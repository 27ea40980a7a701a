"""Variable grids, torus weights, and operator families for the three dual pair cases.

Case A: O_n x GL_m on P(M_{n,m}), bilinear form antidiagonal so that the
orthogonal Borel is upper triangular.  Case B: Sp_2n x GL_m on P(M_{2n,m}),
symplectic form in n+n block shape.  Case C: GL_n x (GL_m x GL_l) on
P(M_{n,m}) tensor P(M_{l,n}), the y block carrying the dual action.

split_columns variants put two column blocks (sizes m and l) on one grid:
for Case A this models a tensor product of two G'-factors against one O_n,
for Case C it models P(M_{n,m} + M_{n,l}) with all variables polynomial.
Case A and build_product_config share one builder, `_o_gl`: an O factor
per row block and a GL factor per column block, on the block sum of
antidiagonal forms.  Case A has one row block; ProductO(n1, n2) has row
blocks n1 and n2, which realizes O_{n1} x O_{n2} inside O_{n1+n2} with
each factor acting on its own rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from ..errors import UsageError
from .poly import Monomial, Operator, make_operator


@dataclass(frozen=True)
class MatrixSpaceShape:
    case: str
    n: int
    m: int
    l: int = 0
    split_columns: bool = False

    def __post_init__(self):
        if self.case not in ("A", "B", "C"):
            raise UsageError(f"case must be A, B, or C: {self.case!r}")
        if self.n < 1 or self.m < 1 or self.l < 0:
            raise UsageError("need n >= 1, m >= 1, l >= 0")
        if self.l and self.case == "B":
            raise UsageError("case B has no second group factor")
        if self.split_columns:
            if self.case == "B":
                raise UsageError("split_columns applies to cases A and C")
            if self.l < 1:
                raise UsageError("split_columns needs a second column block (l >= 1)")
        if self.case == "A" and self.l and not self.split_columns:
            raise UsageError("case A uses l only with split_columns")

    @property
    def var_count(self) -> int:
        """The number of variables `build_config` gives this shape, without building it."""
        return (2 if self.case == "B" else 1) * self.n * (self.m + self.l)


@dataclass(frozen=True)
class ProductO:
    """hwv_multiplicities mode: O_{n1} x O_{n2} acting on stacked row blocks."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise UsageError("ProductO needs positive block sizes")


def balanced_code(digits: tuple[int, ...], base: int) -> int:
    """The integer with these balanced base-`base` digits, the first one lowest.

    Codes add like the vectors they pack as long as every coordinate of the
    sum stays within +-(base - 1) / 2.
    """
    code = 0
    for c in reversed(digits):
        code = code * base + c
    return code


FULL = "full"
MOD_IDEAL = "mod_ideal"


@dataclass(frozen=True)
class TorusFactor:
    family: str  # "O" | "Sp" | "GL"
    rank: int  # matrix size: O_n -> n, Sp_2n -> 2n, GL_k -> k
    coords: int  # torus coordinates carried by weight vectors
    signed: bool = False  # weights may go negative (rational GL labels)


@dataclass(frozen=True)
class SpaceConfig:
    descriptor: str
    var_count: int
    var_names: tuple[str, ...]
    factors: tuple[TorusFactor, ...]
    var_weights: tuple[tuple[tuple[int, ...], ...], ...]  # [factor][var] -> weight vector
    deltas: tuple[Operator, ...]
    r2s: tuple[Operator, ...]
    eulers: tuple[Operator, ...]
    k_raisings: tuple[Operator, ...]
    gl_raisings: tuple[Operator, ...]

    def monomial_weight(self, mono: Monomial) -> tuple[tuple[int, ...], ...]:
        out = []
        for weights in self.var_weights:
            coords = len(weights[0]) if weights else 0
            acc = [0] * coords
            for v, e in enumerate(mono):
                if e:
                    w = weights[v]
                    for i in range(coords):
                        acc[i] += e * w[i]
            out.append(tuple(acc))
        return tuple(out)

    def op_weight_shift(self, op: Operator) -> tuple[tuple[int, ...], ...]:
        """The torus weight a weight-homogeneous operator adds, read off its first term."""
        term = op.terms[0]
        out = []
        for weights in self.var_weights:
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

    @property
    def raisings(self) -> tuple[Operator, ...]:
        return self.k_raisings + self.gl_raisings

    @property
    def simple_raisings(self) -> tuple[Operator, ...]:
        """The raisings of simple roots: those whose weight shift is no sum of two raising shifts.

        n+ is generated as a Lie algebra by its simple root vectors, and an
        operator that kills v kills every bracket of operators that kill v,
        so these raisings have the joint kernel of all of them.  The rule
        reads only the weight shifts, so it holds for every builder.

        Each shift (all factors' coordinates in a row) is packed into one
        integer by `balanced_code` in base B = 2*h + 1, h = 2 * max|coord|.
        A difference of two shifts has its coordinates in [-h, h], so its
        code is the difference of their codes, and s is a sum a + b of two
        raisings' shifts iff code(s) - code(a) is the code of a raising
        other than a's.
        """
        flats = [tuple(c for w in self.op_weight_shift(op) for c in w) for op in self.raisings]
        base = 4 * max((abs(c) for w in flats for c in w), default=0) + 1
        codes = [balanced_code(w, base) for w in flats]
        count = Counter(codes)
        sums = {s for s in count for a in count
                if s - a in count and (s - a != a or count[a] > 1)}
        return tuple(op for op, code in zip(self.raisings, codes) if code not in sums)


def _o_row_weight(s: int, n: int) -> tuple[int, ...]:
    """A_{O_n} weight of row s for the antidiagonal form, 1-indexed."""
    k = n // 2
    w = [0] * k
    if s <= k:
        w[s - 1] = 1
    elif s >= n + 1 - k:
        w[n - s] = -1
    return tuple(w)


def _unit(k: int, i: int) -> tuple[int, ...]:
    w = [0] * k
    w[i - 1] = 1
    return tuple(w)


def _zero(k: int) -> tuple[int, ...]:
    return (0,) * k


def _gl_eulers(tag: str, cols: list[int], idx, rows: list[int], shift: Fraction) -> list[Operator]:
    ops = []
    for ci, i in enumerate(cols, start=1):
        for cj, j in enumerate(cols, start=1):
            terms = [(1, {idx(s, i): 1}, {idx(s, j): 1}) for s in rows]
            if i == j:
                terms.append((shift, {}, {}))
            ops.append(make_operator(f"E{tag}[{ci},{cj}]", "euler", terms))
    return ops


def _gl_raisings(tag: str, cols: list[int], idx, rows: list[int]) -> list[Operator]:
    ops = []
    for ci, i in enumerate(cols, start=1):
        for cj, j in enumerate(cols, start=1):
            if ci < cj:
                terms = [(1, {idx(s, i): 1}, {idx(s, j): 1}) for s in rows]
                ops.append(make_operator(f"R{tag}[{ci},{cj}]", "raising", terms))
    return ops


def _o_raisings(tag: str, n: int, row_offset: int, cols: list[int], idx) -> list[Operator]:
    """Nilradical of so_n for the antidiagonal form: E_ab - E_{n+1-b,n+1-a}, a+b <= n."""
    ops = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if a + b > n:
                continue
            terms = []
            for j in cols:
                terms.append((1, {idx(row_offset + a, j): 1}, {idx(row_offset + b, j): 1}))
                terms.append((-1, {idx(row_offset + n + 1 - b, j): 1},
                              {idx(row_offset + n + 1 - a, j): 1}))
            ops.append(make_operator(f"Z{tag}[{a},{b}]", "raising", terms))
    return ops


def _o_gl(descriptor: str, row_blocks: list[int], col_blocks: list[int]) -> SpaceConfig:
    """O per row block x GL per column block on M_{sum(row_blocks), sum(col_blocks)}.

    The form is the block sum of antidiagonal forms, one per row block, so
    each orthogonal factor acts on its own rows with an upper triangular
    Borel.  The Laplacians and multiplication invariants pair each row with
    its mate under that form and two columns of one column block.
    """
    n, total_cols = sum(row_blocks), sum(col_blocks)

    def idx(s, j):
        return (s - 1) * total_cols + (j - 1)

    rows = list(range(1, n + 1))
    all_cols = list(range(1, total_cols + 1))
    var_names = tuple(f"x[{s},{j}]" for s in rows for j in all_cols)

    factors, var_weights, k_raise, mate = [], [], [], {}
    offset = 0
    for tag, size in zip([""] if len(row_blocks) == 1 else ["t", "b"], row_blocks):
        factors.append(TorusFactor("O", size, size // 2))
        var_weights.append(tuple(
            _o_row_weight(s - offset, size) if offset < s <= offset + size else _zero(size // 2)
            for s in rows for _ in all_cols))
        mate.update((s, 2 * offset + size + 1 - s) for s in range(offset + 1, offset + size + 1))
        k_raise += _o_raisings(tag, size, offset, all_cols, idx)
        offset += size

    deltas, r2s, eulers, gl_raise = [], [], [], []
    start = 1
    for tag, size in zip([""] if len(col_blocks) == 1 else ["a", "b"], col_blocks):
        cols = list(range(start, start + size))
        start += size
        factors.append(TorusFactor("GL", size, size))
        var_weights.append(tuple(_unit(size, j - cols[0] + 1) if j in cols else _zero(size)
                                 for s in rows for j in all_cols))
        for ci, i in enumerate(cols, start=1):
            for cj, j in enumerate(cols[ci - 1:], start=ci):
                pairs = [Counter((idx(s, i), idx(mate[s], j))) for s in rows]
                deltas.append(make_operator(f"D{tag}[{ci},{cj}]", "delta",
                                            [(1, {}, pair) for pair in pairs]))
                r2s.append(make_operator(f"r2{tag}[{ci},{cj}]", "r2",
                                         [(1, pair, {}) for pair in pairs]))
        eulers += _gl_eulers(tag, cols, idx, rows, Fraction(n, 2))
        gl_raise += _gl_raisings(tag, cols, idx, rows)

    return SpaceConfig(descriptor, n * total_cols, var_names, tuple(factors),
                       tuple(var_weights), tuple(deltas), tuple(r2s), tuple(eulers),
                       tuple(k_raise), tuple(gl_raise))


def _case_a_printed_eulers(config: SpaceConfig, n: int, m: int) -> SpaceConfig:
    """Variant family with the row-reversed Euler operators, for bracket arbitration."""

    def idx(s, j):
        return (s - 1) * m + (j - 1)

    eulers = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            terms = [(1, {idx(s, i): 1}, {idx(n + 1 - s, j): 1}) for s in range(1, n + 1)]
            if i == j:
                terms.append((Fraction(n, 2), {}, {}))
            eulers.append(make_operator(f"Etw[{i},{j}]", "euler", terms))
    return SpaceConfig(config.descriptor + " (printed E)", config.var_count,
                       config.var_names, config.factors, config.var_weights,
                       config.deltas, config.r2s, tuple(eulers),
                       config.k_raisings, config.gl_raisings)


def _case_b(n: int, m: int) -> SpaceConfig:
    def idx(s, j):
        return (s - 1) * m + (j - 1)

    rows = list(range(1, 2 * n + 1))
    var_count = 2 * n * m
    var_names = tuple(f"x[{s},{j}]" for s in rows for j in range(1, m + 1))
    sp_weights = []
    for s in rows:
        w = [0] * n
        if s <= n:
            w[s - 1] = 1
        else:
            w[s - n - 1] = -1
        sp_weights.extend([tuple(w)] * m)
    gl_weights = tuple(_unit(m, j) for s in rows for j in range(1, m + 1))
    factors = (TorusFactor("Sp", 2 * n, n), TorusFactor("GL", m, m))

    deltas, r2s = [], []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            dterms, rterms = [], []
            for s in range(1, n + 1):
                dterms.append((1, {}, {idx(s, i): 1, idx(n + s, j): 1}))
                dterms.append((-1, {}, {idx(n + s, i): 1, idx(s, j): 1}))
                rterms.append((1, {idx(s, i): 1, idx(n + s, j): 1}, {}))
                rterms.append((-1, {idx(n + s, i): 1, idx(s, j): 1}, {}))
            deltas.append(make_operator(f"D[{i},{j}]", "delta", dterms))
            r2s.append(make_operator(f"S2[{i},{j}]", "r2", rterms))

    eulers = _gl_eulers("", list(range(1, m + 1)), idx, rows, Fraction(n))
    gl_raise = _gl_raisings("", list(range(1, m + 1)), idx, rows)

    k_raise = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if a < b:
                terms = []
                for j in range(1, m + 1):
                    terms.append((1, {idx(a, j): 1}, {idx(b, j): 1}))
                    terms.append((-1, {idx(n + b, j): 1}, {idx(n + a, j): 1}))
                k_raise.append(make_operator(f"Za[{a},{b}]", "raising", terms))
            terms = []
            for j in range(1, m + 1):
                terms.append((1, {idx(a, j): 1}, {idx(n + b, j): 1}))
                if a < b:
                    terms.append((1, {idx(b, j): 1}, {idx(n + a, j): 1}))
            k_raise.append(make_operator(f"Zb[{a},{b}]", "raising", terms))

    return SpaceConfig(f"B(n={n},m={m})", var_count, var_names, factors,
                       (tuple(sp_weights), gl_weights),
                       tuple(deltas), tuple(r2s), tuple(eulers),
                       tuple(k_raise), tuple(gl_raise))


def _case_c(n: int, m: int, l: int) -> SpaceConfig:
    def xidx(a, i):
        return (a - 1) * m + (i - 1)

    def yidx(c, d):
        return n * m + (c - 1) * n + (d - 1)

    var_count = n * m + l * n
    names = [f"x[{a},{i}]" for a in range(1, n + 1) for i in range(1, m + 1)]
    names += [f"y[{c},{d}]" for c in range(1, l + 1) for d in range(1, n + 1)]

    gn, gm, gl = [], [], []
    for a in range(1, n + 1):
        for i in range(1, m + 1):
            gn.append(_unit(n, a))
            gm.append(_unit(m, i))
            gl.append(_zero(l))
    for c in range(1, l + 1):
        for d in range(1, n + 1):
            gn.append(tuple(-w for w in _unit(n, d)))
            gm.append(_zero(m))
            gl.append(_unit(l, c))
    factors = [TorusFactor("GL", n, n, signed=bool(l))]
    var_weights = [tuple(gn)]
    factors.append(TorusFactor("GL", m, m))
    var_weights.append(tuple(gm))
    if l:
        factors.append(TorusFactor("GL", l, l))
        var_weights.append(tuple(gl))

    deltas, r2s = [], []
    for i in range(1, m + 1):
        for j in range(1, l + 1):
            dterms = [(1, {}, {xidx(s, i): 1, yidx(j, s): 1}) for s in range(1, n + 1)]
            rterms = [(1, {xidx(s, i): 1, yidx(j, s): 1}, {}) for s in range(1, n + 1)]
            deltas.append(make_operator(f"D[{i},{j}]", "delta", dterms))
            r2s.append(make_operator(f"r2[{i},{j}]", "r2", rterms))

    eulers = _gl_eulers("x", list(range(1, m + 1)), xidx, list(range(1, n + 1)), Fraction(n, 2))
    gl_raise = _gl_raisings("x", list(range(1, m + 1)), xidx, list(range(1, n + 1)))
    if l:
        def ytrans(s, c):
            return yidx(c, s)

        # y rows play the column role: E^y_{cd} = sum_s y_{c,s} d/dy_{d,s}
        eulers += _gl_eulers("y", list(range(1, l + 1)), ytrans, list(range(1, n + 1)),
                             Fraction(n, 2))
        gl_raise += _gl_raisings("y", list(range(1, l + 1)), ytrans, list(range(1, n + 1)))

    k_raise = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            terms = [(1, {xidx(a, i): 1}, {xidx(b, i): 1}) for i in range(1, m + 1)]
            terms += [(-1, {yidx(c, b): 1}, {yidx(c, a): 1}) for c in range(1, l + 1)]
            k_raise.append(make_operator(f"Z[{a},{b}]", "raising", terms))

    return SpaceConfig(f"C(n={n},m={m},l={l})", var_count, tuple(names), tuple(factors),
                       tuple(var_weights), tuple(deltas), tuple(r2s), tuple(eulers),
                       tuple(k_raise), tuple(gl_raise))


def _case_c_stacked(n: int, m: int, l: int) -> SpaceConfig:
    """P(M_{n,m} + M_{n,l}) with both blocks polynomial; GL_n acts across all columns."""
    total_cols = m + l

    def idx(s, j):
        return (s - 1) * total_cols + (j - 1)

    rows = list(range(1, n + 1))
    var_count = n * total_cols
    var_names = tuple(f"x[{s},{j}]" for s in rows for j in range(1, total_cols + 1))
    gn = tuple(_unit(n, s) for s in rows for _ in range(total_cols))
    gm = tuple(_unit(m, j) if j <= m else _zero(m) for s in rows for j in range(1, total_cols + 1))
    gl = tuple(_unit(l, j - m) if j > m else _zero(l)
               for s in rows for j in range(1, total_cols + 1))
    factors = (TorusFactor("GL", n, n), TorusFactor("GL", m, m), TorusFactor("GL", l, l))

    k_raise = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            terms = [(1, {idx(a, j): 1}, {idx(b, j): 1}) for j in range(1, total_cols + 1)]
            k_raise.append(make_operator(f"Z[{a},{b}]", "raising", terms))
    gl_raise = _gl_raisings("a", list(range(1, m + 1)), idx, rows)
    gl_raise += _gl_raisings("b", list(range(m + 1, total_cols + 1)), idx, rows)
    eulers = _gl_eulers("a", list(range(1, m + 1)), idx, rows, Fraction(n, 2))
    eulers += _gl_eulers("b", list(range(m + 1, total_cols + 1)), idx, rows, Fraction(n, 2))

    return SpaceConfig(f"C(n={n},m={m}+{l} stacked)", var_count, var_names, factors,
                       (gn, gm, gl), (), (), tuple(eulers),
                       tuple(k_raise), tuple(gl_raise))


def build_config(shape: MatrixSpaceShape, printed_euler_variant: bool = False) -> SpaceConfig:
    if printed_euler_variant and shape.case != "A":
        raise UsageError("the row-reversed Euler variant exists only in case A")
    if shape.case == "A":
        blocks = [shape.m, shape.l] if shape.split_columns else [shape.m]
        tag = f"A(n={shape.n},m={shape.m}" + (f"+{shape.l} split)" if shape.split_columns else ")")
        config = _o_gl(tag, [shape.n], blocks)
        if printed_euler_variant:
            if shape.split_columns:
                raise UsageError("the row-reversed Euler variant applies to one column block")
            config = _case_a_printed_eulers(config, shape.n, shape.m)
        return config
    if shape.case == "B":
        return _case_b(shape.n, shape.m)
    if shape.split_columns:
        return _case_c_stacked(shape.n, shape.m, shape.l)
    return _case_c(shape.n, shape.m, shape.l)


def build_product_config(product: ProductO, m: int) -> SpaceConfig:
    """O_{n1} x O_{n2} x GL_m on M_{n1+n2, m} with the block-sum form.

    The Laplacians and multiplication invariants pair rows through the block
    form: they belong to the big group O_{n1+n2}, not to the factors, so the
    harmonic quotient models restriction from the big group.
    """
    n1, n2 = product.n1, product.n2
    return _o_gl(f"O({n1})xO({n2}) on M({n1 + n2},{m})", [n1, n2], [m])
