"""Exact linear algebra over the rationals.

Entries are `int`, or `Fraction` where a caller has rational data.
There is one elimination routine, `reduce_into`: online, sparse and
fraction-free.  It keeps pivot rows as {column: int} dicts by leading
column and reduces one incoming row against them, dividing each reduced
row by its content so entries stay small; where the incoming row is
sparser than the pivot at its leading column, it takes that pivot's place
and the old pivot is reduced instead, which keeps fill down.  A caller
that builds rows one at a time feeds them in as it goes and can stop at
full rank.  `echelon`, `rank`, `nullspace` and `solve_columns` run on it,
reading each row into a {column: int} dict of its nonzeros, cleared of
denominators.  Kernels come back as primitive integer vectors from a
fraction-free back-substitution, and `solve_columns` reads its solution off
the kernel vector of [A | -b] at the rhs column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = Sequence[int | Fraction]


def reduce_into(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    """Reduce a {column: int} row against `pivots`, kept by leading column; True if
    it adds a pivot.

    While the row's leading column c holds a pivot `top`, the sparser of the
    two stays at c and the other becomes p*row - f*top (p = top[c],
    f = row[c]) divided by its content, whose leading column is further
    right.  A row that reaches a free leading column is filed there as the
    dict it is, so the caller hands it over.
    """
    while row:
        c = min(row)
        top = pivots.get(c)
        if top is None:
            pivots[c] = row
            return True
        if len(row) < len(top):
            pivots[c], row, top = row, top, row
        f = row[c]
        g = gcd(top[c], f)
        a, b = top[c] // g, f // g
        new = {j: a * v for j, v in row.items() if j != c}
        for j, v in top.items():
            if j != c:
                x = new.get(j, 0) - b * v
                if x:
                    new[j] = x
                else:
                    del new[j]
        if new:
            content = gcd(*new.values())
            if content != 1:
                new = {j: v // content for j, v in new.items()}
        row = new
    return False


def echelon(rows: Sequence[Row]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Sparse fraction-free row echelon form; returns (pivot rows, pivot (row, col) list).

    Each nonzero row goes through `reduce_into` as a {column: int} dict,
    scaled by the lcm of its denominators, which changes neither row space
    nor kernel.  The pivot columns depend only on the row space, so neither
    the row order nor the choice of pivot rows changes them or the kernel
    `_back_substitute` reads off.  The pivot rows come back dense, in pivot
    column order.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        nz = {j: a for j, a in enumerate(row) if a}
        if nz:
            scale = lcm(*(a.denominator for a in nz.values()))
            reduce_into(pivots, {j: int(a * scale) for j, a in nz.items()})
    cols = sorted(pivots)
    m = [[pivots[c].get(j, 0) for j in range(len(rows[0]))] for c in cols]
    return m, list(enumerate(cols))


def rank(rows: Sequence[Row]) -> int:
    return len(echelon(rows)[1])


def _back_substitute(m: list[list[int]], pivots: list[tuple[int, int]],
                     free: int, ncols: int) -> list[int]:
    """The kernel vector of the echelon form `m` with a 1 at `free`, 0 at other free columns.

    Back-substitution stays in integers: before solving pivot p against the
    partial sum s, the vector is scaled by k = |p| / g, g = gcd(s, p), so the
    new entry -s*k/p = -(s/g)*sign(p) is exact.  The vector starts as a unit
    vector and each step keeps it primitive, because k is coprime to s/g; no
    content is left to divide out.
    """
    v = [0] * ncols
    v[free] = 1
    for r, c in reversed(pivots):
        row = m[r]
        s = 0
        for j in range(c + 1, ncols):
            if v[j]:
                s += row[j] * v[j]
        if not s:
            continue
        p = row[c]
        k = abs(p) // gcd(s, p)
        if k != 1:
            v = [a * k for a in v]
            s *= k
        v[c] = -s // p
    return v


def nullspace(rows: Sequence[Row], ncols: int) -> list[tuple[int, ...]]:
    """Basis of {v : A v = 0}, one vector per free column.

    Each vector is primitive (its entries have gcd 1) with a positive entry at
    its free column, and zeros at the other free columns.
    """
    m, pivots = echelon(rows)
    pivot_cols = {c for _, c in pivots}
    return [tuple(_back_substitute(m, pivots, free, ncols))
            for free in range(ncols) if free not in pivot_cols]


def solve_columns(columns: list[list[int | Fraction]], rhs: list[int | Fraction]
                  ) -> list[Fraction] | None:
    """Solve sum_k c_k * columns[k] = rhs exactly; None if inconsistent.

    The system is the kernel of [A | -rhs]: it is consistent iff the rhs
    column is not a pivot column of the echelon form, and then the kernel
    vector v with v_rhs > 0 and zeros at the free candidate columns gives
    the particular solution c_k = v_k / v_rhs.  The solution is made of
    `Fraction`s whatever the input.
    """
    ncand = len(columns)
    rows = [[col[i] for col in columns] + [-b] for i, b in enumerate(rhs)]
    m, pivots = echelon(rows)
    if any(c == ncand for _, c in pivots):
        return None
    v = _back_substitute(m, pivots, ncand, ncand + 1)
    return [Fraction(a, v[ncand]) for a in v[:ncand]]
