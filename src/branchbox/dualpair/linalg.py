"""Exact linear algebra over the rationals.

Entries are `int`, or `Fraction` where a caller has rational data.
There is one elimination routine, `echelon`: fraction-free (Bareiss) on
integer rows; rational input rows are cleared of denominators first, which
changes neither row space nor kernel, and all-`int` rows pass through
unscaled.  `rank`, `nullspace` and `solve_columns` all run on it.  Kernels
come back as primitive integer vectors from a fraction-free
back-substitution, and `solve_columns` reads its solution off the kernel
vector of [A | -b] at the rhs column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Row = Sequence[int | Fraction]


def _integer_rows(rows: Sequence[Row]) -> list[list[int]]:
    out = []
    for row in rows:
        if all(type(a) is int for a in row):
            out.append(list(row))
            continue
        scale = 1
        for a in row:
            if isinstance(a, Fraction) and a.denominator != 1:
                scale = scale * a.denominator // gcd(scale, a.denominator)
        out.append([int(a * scale) for a in row])
    return out


def echelon(rows: Sequence[Row]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Fraction-free row echelon form; returns (matrix, pivot (row, col) list).

    Every row below the pivot is updated with the two-term Bareiss formula,
    including rows with a zero in the pivot column: the exact division by the
    previous pivot is only guaranteed under the uniform update.
    """
    m = _integer_rows(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[tuple[int, int]] = []
    pr = 0
    prev = 1
    for c in range(ncols):
        if pr >= nrows:
            break
        found = next((r for r in range(pr, nrows) if m[r][c]), None)
        if found is None:
            continue
        m[pr], m[found] = m[found], m[pr]
        p = m[pr][c]
        top = m[pr]
        for r in range(pr + 1, nrows):
            row = m[r]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[c] = 0
        pivots.append((pr, c))
        prev = p
        pr += 1
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
