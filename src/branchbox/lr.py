"""Littlewood-Richardson coefficients by explicit skew tableau enumeration.

c^lam_{mu,nu} counts semistandard fillings of the skew shape lam/mu with
content nu whose reverse reading word (rows top to bottom, right to left)
is a lattice word.  This is deliberately direct so it can serve as an
independent oracle for the symmetric-polynomial arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .partitions import Partition, as_partition, contains, partitions_between

_memo: dict[tuple[Partition, Partition, Partition], int] = {}


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
    mu_pad = tuple(mu) + (0,) * (rows - len(mu))
    # Cells in reverse reading order: top to bottom, right to left in each row.
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
                continue  # lattice condition on the reverse reading word
            counts[v] += 1
            filling[(r, c)] = v
            fill(pos + 1)
            del filling[(r, c)]
            counts[v] -= 1

    fill(0)
    return total


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
    return dict(_memo)


def clear_cache() -> None:
    _memo.clear()
