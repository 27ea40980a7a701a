"""Variable grids, torus weights, and operator families for the three dual pair cases.

Case A: O_n x GL_m on P(M_{n,m}), bilinear form antidiagonal so that the
orthogonal Borel is upper triangular.  Case B: Sp_2n x GL_m on P(M_{2n,m}),
symplectic form in n+n block shape.  Case C: GL_n x (GL_m x GL_l) on
P(M_{n,m}) tensor P(M_{l,n}), the y block carrying the dual action.

split_columns variants put two column blocks (sizes m and l) on one grid:
for Case A this models a tensor product of two G'-factors against one O_n,
for Case C it models P(M_{n,m} + M_{n,l}) with all variables polynomial.
Every model but plain case C comes from one builder, `_matrix_space`: a
group per row block (O, Sp or GL, each given by one row-family function)
and a GL factor per column block, on the block sum of the row groups'
forms.  Cases A, B and stacked C have one row block.  The shape
`ProductO(n1, n2, m)` has O row blocks n1 and n2 and one column block m,
which realizes O_{n1} x O_{n2} inside O_{n1+n2} with each factor acting on
its own rows.  `build_config` builds every shape.  Every column block's
Euler and raising operators come from one GL family builder, `_gl_family`.
Each `TorusFactor` owns its simple roots, the dominance they give, and its labels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from ..errors import InternalInvariantError, UsageError
from ..partitions import IrrepLabel, as_partition, associate_o, weight_to_signature
from .poly import Operator, make_operator


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

    @property
    def first_block_vars(self) -> int:
        """The leading variables in the rows of the config's first factor: all of them."""
        return self.var_count

    @property
    def splits_by_parity(self) -> bool:
        """Whether a weight block can mix degree parities in the first factor's rows: no,
        since those rows are all of them and a block has one degree."""
        return False

    @property
    def separates_variables(self) -> bool:
        """Whether the shape lies in the separation range: case A, one column block and
        n >= 2m, where P(M_{n,m}) is the harmonics times the free algebra of the
        quadratic invariants (Howe-Tan-Willenbring 2005)."""
        return self.case == "A" and not self.split_columns and self.n >= 2 * self.m


@dataclass(frozen=True)
class ProductO:
    """The shape O_{n1} x O_{n2} x GL_m on M_{n1+n2, m}: the restriction model of
    O_{n1+n2} to O_{n1} x O_{n2}, each factor acting on its own rows."""

    n1: int
    n2: int
    m: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1 or self.m < 1:
            raise UsageError("ProductO needs positive sizes n1, n2 and m")

    @property
    def var_count(self) -> int:
        """The number of variables `build_config` gives this shape, without building it."""
        return (self.n1 + self.n2) * self.m

    @property
    def first_block_vars(self) -> int:
        """The leading variables in the rows of the config's first factor, O_{n1}."""
        return self.n1 * self.m

    @property
    def splits_by_parity(self) -> bool:
        """Whether a weight block can mix degree parities in O_{n1}'s rows: only where
        n1 and n2 are odd.  Every row of an even O block has a nonzero weight, so
        the weight fixes the parity in that block's rows, and with the degree the
        other block's."""
        return bool(self.n1 % 2 and self.n2 % 2)


FULL = "full"
MOD_IDEAL = "mod_ideal"


@dataclass(frozen=True)
class TorusFactor:
    """A torus factor, owner of its family's simple roots, its dominance conditions and labels."""

    family: str  # "O" | "Sp" | "GL"
    rank: int  # matrix size: O_n -> n, Sp_2n -> 2n, GL_k -> k
    coords: int  # torus coordinates carried by weight vectors
    signed: bool = False  # weights may go negative (rational GL labels)

    def simple_roots(self) -> list[tuple[int, ...]]:
        """The simple roots of the upper triangular Borel, as weight vectors.

        With k = coords: e_i - e_{i+1} for i < k in every family, and then
        e_k on O_n at odd n (type B), e_{k-1} + e_k on O_n at even n >= 4
        (type D) and 2e_k on Sp_2n (type C).  GL_k, O_1 and O_2 have no more.
        """
        k = self.coords
        roots = [{i: 1, i + 1: -1} for i in range(k - 1)]  # {slot from 0: coefficient}
        if self.family == "O" and self.rank >= 3:
            roots.append({k - 1: 1} if self.rank % 2 else {k - 2: 1, k - 1: 1})
        elif self.family == "Sp" and k:
            roots.append({k - 1: 2})
        return [tuple(root.get(i, 0) for i in range(k)) for root in roots]

    def dominance(self) -> list[tuple[tuple[int, int], ...]]:
        """The dominance conditions, each sum(c * w[i]) >= 0 as (i, c) pairs, c = +-1.

        One per simple root, its coefficients reduced to their signs, and
        w_k >= 0 where no root bounds the last slot: polynomial GL_k and O_2.
        """
        out = [tuple((i, 1 if c > 0 else -1) for i, c in enumerate(root) if c)
               for root in self.simple_roots()]
        if self.coords and (self.family == "GL" and not self.signed
                            or self.family == "O" and self.rank == 2):
            out.append(((self.coords - 1, 1),))
        return out

    def label(self, w: tuple[int, ...], parity: int) -> IrrepLabel | None:
        """The irreducible a dominant weight w names; None for a negative weight on O or Sp.

        `parity` is the degree mod 2 of a highest weight vector in this
        factor's rows; only an O factor reads it.  On O_n at odd n, -I has
        det -1 and acts by (-1)^parity on the vector and by (-1)^|w| on the
        O_n irreducible w, so a mismatched parity names the associate label
        `associate_o(w, n)` (King 1971).  w has at most (n-1)/2 parts and its
        associate more, so no two weights name one label.  Even n keeps its
        SO_n weight.
        """
        if self.family == "GL":
            return IrrepLabel("GL", self.rank,
                              weight_to_signature(w) if self.signed else as_partition(w))
        if any(a < 0 for a in w):
            return None
        mu = as_partition(w)
        if self.family == "O" and self.rank % 2 and parity != sum(mu) % 2:
            mu = associate_o(mu, self.rank)
        return IrrepLabel(self.family, self.rank, mu)


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

    def _weight_sum(self, pairs) -> tuple[tuple[int, ...], ...]:
        """Per factor, the sum of e times the weight of v over the (v, e) pairs."""
        out = []
        for factor, weights in zip(self.factors, self.var_weights):
            acc = [0] * factor.coords
            for v, e in pairs:
                w = weights[v]
                for i in range(factor.coords):
                    acc[i] += e * w[i]
            out.append(tuple(acc))
        return tuple(out)

    def monomial_weight(self, mono: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return self._weight_sum([(v, e) for v, e in enumerate(mono) if e])

    def op_weight_shift(self, op: Operator) -> tuple[tuple[int, ...], ...]:
        """The torus weight a weight-homogeneous operator adds, read off its first term."""
        term = op.terms[0]
        return self._weight_sum(term.xs + tuple((v, -e) for v, e in term.ds))

    @property
    def raisings(self) -> tuple[Operator, ...]:
        return self.k_raisings + self.gl_raisings

    @property
    def simple_raisings(self) -> tuple[Operator, ...]:
        """The raisings, in their order, whose weight shift is a simple root of one factor
        (`TorusFactor.simple_roots`) and zero on the others; exactly one per root, or the
        builder is at fault (InternalInvariantError).  n+ is generated by its simple root
        vectors, and an operator that kills v kills every bracket of operators that kill
        v, so these raisings have the joint kernel of all of them."""
        zeros = [(0,) * factor.coords for factor in self.factors]
        roots = {tuple(zeros[:f]) + (root,) + tuple(zeros[f + 1:])
                 for f, factor in enumerate(self.factors) for root in factor.simple_roots()}
        picked = tuple(op for op in self.raisings if self.op_weight_shift(op) in roots)
        if sorted(map(self.op_weight_shift, picked)) != sorted(roots):
            raise InternalInvariantError(
                f"{self.descriptor} has not exactly one raising per simple root")
        return picked


def _unit(k: int, i: int) -> tuple[int, ...]:
    w = [0] * k
    w[i - 1] = 1
    return tuple(w)


def _gl_family(tag: str, cols: list[int], idx, rows: list[int]
               ) -> tuple[list[Operator], list[Operator]]:
    """The Euler operators E{tag}[i,j] = sum_s x_{s,i} d/dx_{s,j} (+ len(rows)/2 if i = j),
    and the raisings R{tag}[i,j], the same sums for i < j."""
    eulers, raisings = [], []
    for ci, i in enumerate(cols, start=1):
        for cj, j in enumerate(cols, start=1):
            terms = [(1, {idx(s, i): 1}, {idx(s, j): 1}) for s in rows]
            if ci < cj:
                raisings.append(make_operator(f"R{tag}[{ci},{cj}]", "raising", terms))
            if i == j:
                terms.append((Fraction(len(rows), 2), {}, {}))
            eulers.append(make_operator(f"E{tag}[{ci},{cj}]", "euler", terms))
    return eulers, raisings


# A row family gives, for a block of `size` rows numbered 1..size: its torus
# factor, each row's weight, its raisings as (name, [(coeff, a, b)]) standing
# for sum_j coeff * x_{a,j} d/dx_{b,j} over every column, and its form as
# {row: (mate, sign)}.


def _o_rows(n: int):
    """O_n with the antidiagonal form, so that its Borel is upper triangular.

    The raisings span the nilradical of so_n: E_ab - E_{n+1-b,n+1-a}, a < b, a+b <= n.
    """
    k = n // 2
    weights = []
    for s in range(1, n + 1):
        w = [0] * k
        if s <= k:
            w[s - 1] = 1
        elif s >= n + 1 - k:
            w[n - s] = -1
        weights.append(tuple(w))
    raisings = [(f"[{a},{b}]", [(1, a, b), (-1, n + 1 - b, n + 1 - a)])
                for a in range(1, n + 1) for b in range(a + 1, n + 1 - a)]
    return TorusFactor("O", n, k), weights, raisings, {s: (n + 1 - s, 1) for s in range(1, n + 1)}


def _sp_rows(size: int):
    """Sp_2n, size = 2n, with the skew form in n+n block shape: row s pairs with row n+s."""
    n = size // 2
    weights = [_unit(n, s) for s in range(1, n + 1)]
    weights += [tuple(-c for c in w) for w in weights]
    raisings = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if a < b:
                raisings.append((f"a[{a},{b}]", [(1, a, b), (-1, n + b, n + a)]))
            raisings.append((f"b[{a},{b}]", [(1, a, n + b)] + ([(1, b, n + a)] if a < b else [])))
    form = {s: (n + s, 1) for s in range(1, n + 1)}
    form.update((n + s, (s, -1)) for s in range(1, n + 1))
    return TorusFactor("Sp", size, n), weights, raisings, form


def _gl_rows(n: int):
    """GL_n with the raisings E_ab, a < b, and no form."""
    raisings = [(f"[{a},{b}]", [(1, a, b)]) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    return TorusFactor("GL", n, n), [_unit(n, s) for s in range(1, n + 1)], raisings, {}


_ROW_FAMILIES = {"O": _o_rows, "Sp": _sp_rows, "GL": _gl_rows}


def _matrix_space(descriptor: str, row_blocks: list[tuple[str, int]],
                  col_blocks: list[int]) -> SpaceConfig:
    """A group per row block x GL per column block on P(M_{rows, sum(col_blocks)}).

    `row_blocks` lists (family, size), family "O", "Sp" or "GL", each group
    acting on its own rows.  The form is the block sum of the row groups'
    forms.  The Laplacians and multiplication invariants pair each row with
    its mate under that form and two columns i <= j of one column block; a
    pair whose terms cancel (a skew form on i = j, or no form) is left out.
    """
    n, total_cols = sum(size for _, size in row_blocks), sum(col_blocks)

    def idx(s, j):
        return (s - 1) * total_cols + (j - 1)

    rows = list(range(1, n + 1))
    all_cols = list(range(1, total_cols + 1))
    var_names = tuple(f"x[{s},{j}]" for s in rows for j in all_cols)

    factors, var_weights, k_raise, form = [], [], [], {}
    offset = 0
    for tag, (family, size) in zip([""] if len(row_blocks) == 1 else ["t", "b"], row_blocks):
        factor, weights, raisings, block_form = _ROW_FAMILIES[family](size)
        factors.append(factor)
        zero = (0,) * factor.coords
        var_weights.append(tuple(weights[s - offset - 1] if offset < s <= offset + size else zero
                                 for s in rows for _ in all_cols))
        k_raise += [make_operator(f"Z{tag}{name}", "raising",
                                  [(c, {idx(offset + a, j): 1}, {idx(offset + b, j): 1})
                                   for c, a, b in terms for j in all_cols])
                    for name, terms in raisings]
        form.update((offset + s, (offset + mate, sign)) for s, (mate, sign) in block_form.items())
        offset += size
    r2_prefix = "S2" if any(family == "Sp" for family, _ in row_blocks) else "r2"

    deltas, r2s, eulers, gl_raise = [], [], [], []
    start = 1
    for tag, size in zip([""] if len(col_blocks) == 1 else ["a", "b"], col_blocks):
        cols = list(range(start, start + size))
        start += size
        factors.append(TorusFactor("GL", size, size))
        var_weights.append(tuple(_unit(size, j - cols[0] + 1) if j in cols else (0,) * size
                                 for s in rows for j in all_cols))
        for ci, i in enumerate(cols, start=1):
            for cj, j in enumerate(cols[ci - 1:], start=ci):
                pairs = [(sign, Counter((idx(s, i), idx(mate, j))))
                         for s, (mate, sign) in form.items()]
                delta = make_operator(f"D{tag}[{ci},{cj}]", "delta",
                                      [(sign, {}, pair) for sign, pair in pairs])
                if delta.terms:
                    deltas.append(delta)
                    r2s.append(make_operator(f"{r2_prefix}{tag}[{ci},{cj}]", "r2",
                                             [(sign, pair, {}) for sign, pair in pairs]))
        family_eulers, family_raisings = _gl_family(tag, cols, idx, rows)
        eulers += family_eulers
        gl_raise += family_raisings

    return SpaceConfig(descriptor, n * total_cols, var_names, tuple(factors),
                       tuple(var_weights), tuple(deltas), tuple(r2s), tuple(eulers),
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
            gl.append((0,) * l)
    for c in range(1, l + 1):
        for d in range(1, n + 1):
            gn.append(tuple(-w for w in _unit(n, d)))
            gm.append((0,) * m)
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

    eulers, gl_raise = _gl_family("x", list(range(1, m + 1)), xidx, list(range(1, n + 1)))
    if l:
        def ytrans(s, c):
            return yidx(c, s)

        # y rows play the column role: E^y_{cd} = sum_s y_{c,s} d/dy_{d,s}
        y_eulers, y_raisings = _gl_family("y", list(range(1, l + 1)), ytrans,
                                          list(range(1, n + 1)))
        eulers += y_eulers
        gl_raise += y_raisings

    k_raise = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            terms = [(1, {xidx(a, i): 1}, {xidx(b, i): 1}) for i in range(1, m + 1)]
            terms += [(-1, {yidx(c, b): 1}, {yidx(c, a): 1}) for c in range(1, l + 1)]
            k_raise.append(make_operator(f"Z[{a},{b}]", "raising", terms))

    return SpaceConfig(f"C(n={n},m={m},l={l})", var_count, tuple(names), tuple(factors),
                       tuple(var_weights), tuple(deltas), tuple(r2s), tuple(eulers),
                       tuple(k_raise), tuple(gl_raise))


def build_config(shape: MatrixSpaceShape | ProductO) -> SpaceConfig:
    if isinstance(shape, ProductO):
        return build_product_config(shape)
    n, m, l, split = shape.n, shape.m, shape.l, shape.split_columns
    if shape.case == "A":
        descriptor, rows = f"A(n={n},m={m}" + (f"+{l} split)" if split else ")"), ("O", n)
    elif shape.case == "B":
        descriptor, rows = f"B(n={n},m={m})", ("Sp", 2 * n)
    elif split:
        descriptor, rows = f"C(n={n},m={m}+{l} stacked)", ("GL", n)
    else:
        return _case_c(n, m, l)
    return _matrix_space(descriptor, [rows], [m, l] if split else [m])


def build_product_config(product: ProductO) -> SpaceConfig:
    """O_{n1} x O_{n2} x GL_m on M_{n1+n2, m} with the block-sum form.

    The Laplacians and multiplication invariants pair rows through the block
    form: they belong to the big group O_{n1+n2}, not to the factors, so the
    harmonic quotient models restriction from the big group.
    """
    n1, n2, m = product.n1, product.n2, product.m
    return _matrix_space(f"O({n1})xO({n2}) on M({n1 + n2},{m})", [("O", n1), ("O", n2)], [m])
