"""Littlewood-Richardson coefficients by explicit skew tableau enumeration.

c^lam_{mu,nu} counts semistandard fillings of the skew shape lam/mu with
content nu whose reverse reading word (rows top to bottom, right to left)
is a lattice word.  This is deliberately direct so it can serve as an
independent oracle for the symmetric-polynomial arithmetic, and it shares
no code with `schur`.

One filler fills lam/mu with no content bound and counts every finished
filling under its content nu, which the lattice condition makes a
partition.  It keeps its values in one flat list indexed by reading
position, computes once, per cell, the positions of its right and upper
neighbours, and caps the values in row r (1-indexed) at r, the row bound
of an LR tableau: the first value read in a row is its largest, and the
lattice condition needs that value minus one read before it, in a row
above, so by induction no row r holds a value over r.

One memo keyed by (lam, mu) holds each content table {nu: c^lam_{mu,nu}}
(`skew_contents`), and every coefficient is read from it: `lr_kernel`
looks up one content, `coproduct(tau)` lists the tables of every mu <= tau,
and the formula kernels of `branch` read whole tables.  A caller that needs
c^lam_{mu,nu} for several nu pays for one fill of lam/mu; a single
coefficient pays for the fill of every content.  `coproduct` keeps its own
memo by tau, so a table that revisits a GL intermediate tau does not
gather its tables again.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .partitions import Partition, as_partition, contains, partitions_between

_memo: dict[tuple[Partition, Partition], dict[Partition, int]] = {}
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
    return skew_contents(lam, mu).get(nu, 0)


def skew_contents(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Every nonzero c^lam_{mu,nu}, keyed by nu, on canonical mu <= lam, which it trusts.

    One fill of lam/mu, memoized by (lam, mu); callers read the table and
    must not change it.
    """
    key = (lam, mu)
    hit = _memo.get(key)
    if hit is None:
        hit = _memo[key] = _fillings_by_content(lam, mu)
    return hit


def coproduct(tau: Partition) -> tuple[tuple[tuple[Partition, Partition], int], ...]:
    """Every nonzero ((mu, nu), c^tau_{mu,nu}) on a canonical tau, which it trusts.

    The content tables of tau/mu for every mu <= tau; memoized by tau.
    """
    hit = _coproduct_memo.get(tau)
    if hit is None:
        hit = _coproduct_memo[tau] = tuple(
            ((mu, nu), c)
            for k in range(sum(tau) + 1)
            for mu in partitions_between((), tau, k)
            for nu, c in skew_contents(tau, mu).items())
    return hit


def _fillings_by_content(lam: Partition, mu: Partition) -> dict[Partition, int]:
    rows = len(lam)
    mu_pad = mu + (0,) * (rows - len(mu))
    ncells = sum(lam) - sum(mu)
    if not ncells:
        return {(): 1}
    # Cells in reverse reading order (top to bottom, right to left in each
    # row) are positions 0..ncells-1 of `vals`.  Slot ncells + r holds row r's
    # value cap r + 1 and slot ncells + rows holds 0, so every cell reads its
    # bounds from two slots: `right[pos]` (the cell to its right, or its row's
    # cap) and `above[pos]` (the cell above, or 0).
    right: list[int] = []
    above: list[int] = []
    first = [0] * rows  # position of each row's rightmost cell
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
    """The (lam, mu) memo flattened to {(lam, mu, nu): c} over its nonzero c."""
    return {(lam, mu, nu): c for (lam, mu), table in _memo.items() for nu, c in table.items()}


def clear_cache() -> None:
    """Empty both memos: the (lam, mu) content tables and `coproduct`'s tables."""
    _memo.clear()
    _coproduct_memo.clear()
