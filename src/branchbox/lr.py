"""Littlewood-Richardson coefficients by explicit skew tableau enumeration.

c^lam_{mu,nu} counts semistandard fillings of the skew shape lam/mu with
content nu whose reverse reading word (rows top to bottom, right to left)
is a lattice word.  This is deliberately direct so it can serve as an
independent oracle for the symmetric-polynomial arithmetic, and it shares
no code with `schur`.

The filler keeps its values in one flat list indexed by reading position.
Each call computes once, per cell, the positions of its right and upper
neighbours, and caps the values in row r (1-indexed) at r, the row bound
of an LR tableau: the first value read in a row is its largest, and the
lattice condition needs that value minus one read before it, in a row
above, so by induction no row r holds a value over r.

Two fillers use that layout, each with its own copy, so the single-content
filler, the hot path of the Schur check, pays for no extra call.
`lr_kernel` fills lam/mu for one content nu and memoizes each
(lam, mu, nu); a caller that needs one coefficient at a time, like the
single-value gather `branch.o_restrict_kernel` or a check of one Schur
product, pays for that content alone.  `coproduct(tau)` fills each tau/mu
once with no content bound and counts every finished filling under its
content nu, which the lattice condition makes a partition; it is memoized
by tau alone, so a `restrict o` table, which needs every c^tau_{mu,nu} of
each GL intermediate tau, makes one fill per (tau, mu) instead of one
`lr_kernel` call per (tau, mu, nu), most of them zero.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .partitions import Partition, as_partition, contains, partitions_between

_memo: dict[tuple[Partition, Partition, Partition], int] = {}
_coproduct_memo: dict[Partition, tuple[tuple[tuple[Partition, Partition], int], ...]] = {}


def lr_coefficient(lam: Iterable[int], mu: Iterable[int], nu: Iterable[int]) -> int:
    """Multiplicity of the GL irrep lam inside the tensor product mu x nu."""
    return lr_kernel(as_partition(lam), as_partition(mu), as_partition(nu))


def lr_kernel(lam: Partition, mu: Partition, nu: Partition) -> int:
    """lr_coefficient on canonical partitions, which it trusts and does not re-check."""
    if sum(mu) + sum(nu) != sum(lam):
        return 0
    if not (contains(lam, mu) and contains(lam, nu)):
        return 0
    if mu < nu:  # symmetric in the two factors; normalize the memo key
        mu, nu = nu, mu
    key = (lam, mu, nu)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    val = _count_lattice_fillings(lam, mu, nu)
    _memo[key] = val
    return val


def _count_lattice_fillings(lam: Partition, mu: Partition, nu: Partition) -> int:
    if not nu:
        return 1 if lam == mu else 0
    rows = len(lam)
    mu_pad = mu + (0,) * (rows - len(mu))
    nvals = len(nu)
    # Cells in reverse reading order (top to bottom, right to left in each
    # row) are positions 0..ncells-1 of `vals`.  Slot ncells + r holds row r's
    # value cap min(r + 1, nvals) and slot ncells + rows holds 0, so every
    # cell reads its bounds from two slots: `right[pos]` (the cell to its
    # right, or its row's cap) and `above[pos]` (the cell above, or 0).
    ncells = sum(lam) - sum(mu)
    right: list[int] = []
    above: list[int] = []
    first = [0] * rows  # position of each row's rightmost cell
    for r in range(rows):
        first[r] = len(right)
        for c in range(lam[r] - 1, mu_pad[r] - 1, -1):
            right.append(ncells + r if c == lam[r] - 1 else len(right) - 1)
            up = r > 0 and c >= mu_pad[r - 1]
            above.append(first[r - 1] + lam[r - 1] - 1 - c if up else ncells + rows)
    vals = [0] * ncells + [min(r + 1, nvals) for r in range(rows)] + [0]
    need = (0,) + nu  # need[v]: how many v the content nu asks for
    counts = [ncells] + [0] * nvals  # counts[0] never binds the lattice check
    last = ncells - 1

    def fill(pos: int) -> int:
        total = 0
        for v in range(vals[above[pos]] + 1, vals[right[pos]] + 1):
            c = counts[v]
            # content nu, and the lattice condition on the reverse reading word
            if c < need[v] and c < counts[v - 1]:
                if pos == last:
                    total += 1
                else:
                    counts[v] = c + 1
                    vals[pos] = v
                    total += fill(pos + 1)
                    counts[v] = c
        return total

    return fill(0)


def coproduct(tau: Partition) -> tuple[tuple[tuple[Partition, Partition], int], ...]:
    """Every nonzero ((mu, nu), c^tau_{mu,nu}) on a canonical tau, which it trusts.

    One free-content fill of tau/mu per mu <= tau, each filling counted under
    its content nu; memoized by tau alone.
    """
    hit = _coproduct_memo.get(tau)
    if hit is None:
        hit = _coproduct_memo[tau] = tuple(
            ((mu, nu), c)
            for k in range(sum(tau) + 1)
            for mu in partitions_between((), tau, k)
            for nu, c in _fillings_by_content(tau, mu).items())
    return hit


def _fillings_by_content(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """c^lam_{mu,nu} for every nu: `_count_lattice_fillings` with no content bound."""
    rows = len(lam)
    mu_pad = mu + (0,) * (rows - len(mu))
    ncells = sum(lam) - sum(mu)
    if not ncells:
        return {(): 1}
    # the layout of `_count_lattice_fillings`, with row r's cap r + 1
    right: list[int] = []
    above: list[int] = []
    first = [0] * rows
    for r in range(rows):
        first[r] = len(right)
        for c in range(lam[r] - 1, mu_pad[r] - 1, -1):
            right.append(ncells + r if c == lam[r] - 1 else len(right) - 1)
            up = r > 0 and c >= mu_pad[r - 1]
            above.append(first[r - 1] + lam[r - 1] - 1 - c if up else ncells + rows)
    vals = [0] * ncells + [r + 1 for r in range(rows)] + [0]
    # counts[v] for v = 1..rows; the lattice condition keeps them weakly
    # decreasing, so the content nu is the run before the first zero, and the
    # trailing 0 (no value reaches rows + 1) ends every run
    counts = [ncells] + [0] * (rows + 1)
    last = ncells - 1
    out: dict[Partition, int] = {}

    def fill(pos: int) -> None:
        for v in range(vals[above[pos]] + 1, vals[right[pos]] + 1):
            c = counts[v]
            if c < counts[v - 1]:  # the lattice condition on the reverse reading word
                counts[v] = c + 1
                if pos == last:
                    nu = tuple(counts[1:counts.index(0, 1)])
                    out[nu] = out.get(nu, 0) + 1
                else:
                    vals[pos] = v
                    fill(pos + 1)
                counts[v] = c

    fill(0)
    return out


def lr_multi(lam: Iterable[int], factors: Sequence[Iterable[int]]) -> int:
    """Multiplicity of lam in the tensor product of several GL irreps."""
    lam = as_partition(lam)
    parts = [as_partition(f) for f in factors]
    if sum(sum(p) for p in parts) != sum(lam):
        return 0
    if not parts:
        return 1  # the size check left only lam == ()
    # c^tau_{(), gamma} = [tau == gamma]: the first factor is the starting state
    state: dict[Partition, int] = {parts[0]: 1}
    running = sum(parts[0])
    for gamma in parts[1:]:
        running += sum(gamma)
        nxt: dict[Partition, int] = {}
        for kappa, mult in state.items():
            for tau in partitions_between(kappa, lam, running):
                c = lr_kernel(tau, kappa, gamma)
                if c:
                    nxt[tau] = nxt.get(tau, 0) + mult * c
        state = nxt
        if not state:
            return 0
    return state.get(lam, 0)


def cache_snapshot() -> dict[tuple[Partition, Partition, Partition], int]:
    """A copy of the (lam, mu, nu) memo of `lr_kernel`; the coproduct memo is not in it."""
    return dict(_memo)


def clear_cache() -> None:
    """Empty both memos: `lr_kernel`'s triples and `coproduct`'s tables."""
    _memo.clear()
    _coproduct_memo.clear()
