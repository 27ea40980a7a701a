"""Exact linear algebra over the rationals.

Entries are `int`, or `Fraction` where a caller has rational data.
There is one elimination routine, `echelon`: sparse and fraction-free.  It
reads each row into a {column: int} dict of its nonzeros (clearing
rational rows of denominators, which changes neither row space nor
kernel), and a pivot step updates only the rows with a nonzero in the
pivot column, each divided by its content afterwards, so entries stay
small.  `rank`, `nullspace` and `solve_columns` all run on it.  Kernels
come back as primitive integer vectors from a fraction-free
back-substitution, and `solve_columns` reads its solution off the kernel
vector of [A | -b] at the rhs column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Row = Sequence[int | Fraction]


def _sparse_rows(rows: Sequence[Row]) -> list[dict[int, int]]:
    """Each nonzero row as {column: int}, its Fraction denominators cleared.

    Scaling a row by the lcm of its denominators changes neither row space
    nor kernel; all-`int` rows pass through unscaled.
    """
    out = []
    for row in rows:
        nz = {j: a for j, a in enumerate(row) if a}
        if not nz:
            continue
        if any(type(a) is not int for a in nz.values()):
            scale = 1
            for a in nz.values():
                if isinstance(a, Fraction) and a.denominator != 1:
                    scale = scale * a.denominator // gcd(scale, a.denominator)
            nz = {j: int(a * scale) for j, a in nz.items()}
        out.append(nz)
    return out


def echelon(rows: Sequence[Row]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Sparse fraction-free row echelon form; returns (pivot rows, pivot (row, col) list).

    Columns are taken left to right.  A live row whose first nonzero is in
    column c waits in bucket c; the sparsest of them becomes the pivot row
    `top`, and each other row there becomes p*row - f*top (p = top[c],
    f = row[c]) divided by its content, then waits in the bucket of its new
    first nonzero.  Rows with a zero in the pivot column are never touched.
    Pivot columns depend only on which columns depend on earlier ones, so
    the kernel read off by `_back_substitute` does not depend on the choice
    of pivot row.  The pivot rows come back dense, in pivot column order.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    buckets: list[list[dict[int, int]]] = [[] for _ in range(ncols)]
    for row in _sparse_rows(rows):
        buckets[min(row)].append(row)
    m: list[list[int]] = []
    pivots: list[tuple[int, int]] = []
    for c, waiting in enumerate(buckets):
        if not waiting:
            continue
        top = min(waiting, key=len)
        p = top[c]
        for row in waiting:
            if row is top:
                continue
            f = row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
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
                buckets[min(new)].append(new)
        dense = [0] * ncols
        for j, v in top.items():
            dense[j] = v
        pivots.append((len(m), c))
        m.append(dense)
    return m, pivots


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
    if not rows:
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
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
