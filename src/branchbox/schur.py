"""Schur polynomial arithmetic over exact integers, truncated to m variables.

Symmetric polynomials are stored sparsely on dominant exponent vectors: the
table maps each weakly decreasing key to the common coefficient of its whole
S_m orbit of monomials.  schur_expand realizes a Schur polynomial through
semistandard tableau counting (Kostka numbers), decompose peels a symmetric
polynomial back into Schur coefficients, and multiply_schur multiplies Schur
expansions by Brauer's form of the Weyl character formula: the weights of one
factor, with their Kostka multiplicities, shift the other factor's
alternant.  It shares no code with lr, which makes it a check on the LR
coefficients.

Two facts keep the kernels small.  K_{lam,kappa} is nonzero exactly when
kappa <| lam in dominance order, so schur_expand and the Kostka recursion
visit only dominated keys.  The coefficient of m_gamma in m_a * m_b is
|orb b| * #{alpha in orb a : sort(alpha + b) = gamma} / |orb gamma|, so
monomial_product is one pass over an orbit; with dmp_multiply and decompose
it forms the monomial-orbit product, which multiply_schur does not use and
the tests check it against.  The public functions check
their partition arguments; the private kernels they call (and
monomial_product, which sees only keys of dominant tables) trust canonical
tuples and do not re-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, starmap

from .errors import InternalInvariantError, UsageError
from .partitions import Partition, as_partition


@dataclass(frozen=True)
class DominantMonomialPoly:
    """Homogeneous symmetric polynomial keyed on dominant exponent vectors."""

    var_count: int
    degree: int
    terms: dict[Partition, int] = field(default_factory=dict)

    def coefficient(self, key) -> int:
        return self.terms.get(as_partition(key), 0)


@dataclass(frozen=True)
class SchurVector:
    """Integer linear combination of Schur polynomials in a fixed variable count."""

    var_count: int
    coeffs: dict[Partition, int] = field(default_factory=dict)

    def coefficient(self, lam) -> int:
        return self.coeffs.get(as_partition(lam), 0)


_kostka_memo: dict[tuple[Partition, Partition], int] = {}
_expand_memo: dict[tuple[Partition, int], DominantMonomialPoly] = {}
_orbit_memo: dict[tuple[Partition, int], list[tuple[int, ...]]] = {}


def kostka(lam: Partition, content: Partition) -> int:
    """Count semistandard tableaux of shape lam and content `content`."""
    return _kostka(as_partition(lam), as_partition(content))


def _kostka(lam: Partition, content: Partition) -> int:
    """kostka on canonical partitions: peel the largest entry as a horizontal strip.

    K_{lam,content} = 0 unless content <| lam, which prunes the recursion.
    """
    key = (lam, content)
    hit = _kostka_memo.get(key)
    if hit is not None:
        return hit
    if not _dominates(lam, content):
        val = 0
    elif not content:
        val = 1 if not lam else 0
    else:
        h = content[-1]
        val = sum(_kostka(mu, content[:-1]) for mu in _strip_predecessors(lam, h))
    _kostka_memo[key] = val
    return val


def _dominates(lam: Partition, kappa: Partition) -> bool:
    """kappa <| lam: equal sizes and every prefix sum of kappa at most that of lam."""
    if sum(lam) != sum(kappa) or len(kappa) < len(lam):
        return False
    a = b = 0
    for x, y in zip(lam, kappa):
        a += x
        b += y
        if b > a:
            return False
    return True


def _strip_predecessors(lam: Partition, h: int) -> list[Partition]:
    """Shapes mu such that lam/mu is a horizontal strip of size h."""
    rows = len(lam)
    out: list[Partition] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == rows:
            if remaining == 0:
                while prefix and not prefix[-1]:
                    prefix = prefix[:-1]
                out.append(prefix)
            return
        lo = lam[i + 1] if i + 1 < rows else 0
        for mu_i in range(lam[i], lo - 1, -1):
            removed = lam[i] - mu_i
            if removed > remaining:
                break
            rec(i + 1, remaining - removed, prefix + (mu_i,))

    rec(0, h, ())
    return out


def _dominated(lam: Partition, m: int) -> list[Partition]:
    """The kappa <| lam with at most m parts, lex-greatest first."""
    bound, acc = [], 0
    for a in lam:
        acc += a
        bound.append(acc)
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if not remaining:
            out.append(prefix)
            return
        i = len(prefix)
        room = bound[i] - (acc - remaining) if i < len(bound) else remaining
        for part in range(min(cap, remaining, room), 0, -1):
            if part * (m - i) < remaining:
                break
            rec(remaining - part, part, prefix + (part,))

    if len(lam) <= m:
        rec(acc, acc, ())
    return out


def schur_expand(lam, m: int) -> DominantMonomialPoly:
    """The Schur polynomial s_lam(x_1..x_m) on dominant keys.

    The coefficient of m_kappa is the Kostka number K_{lam,kappa}, which is
    positive exactly when kappa <| lam in dominance order.  So only the
    dominated keys with at most m parts are visited.
    """
    lam = as_partition(lam)
    if m < 0:
        raise UsageError("variable count must be nonnegative")
    key = (lam, m)
    hit = _expand_memo.get(key)
    if hit is not None:
        return hit
    terms = {kappa: _kostka(lam, kappa) for kappa in _dominated(lam, m)}
    poly = DominantMonomialPoly(m, sum(lam), terms)
    _expand_memo[key] = poly
    return poly


def orbit_vectors(key: Partition, m: int) -> list[tuple[int, ...]]:
    """All distinct permutations of `key` padded with zeros to length m."""
    key = as_partition(key)
    if len(key) > m:
        raise UsageError(f"key {key} does not fit in {m} variables")
    return _orbit_vectors(key, m)


def _orbit_vectors(key: Partition, m: int) -> list[tuple[int, ...]]:
    """orbit_vectors of a canonical key of at most m parts."""
    memo_key = (key, m)
    hit = _orbit_memo.get(memo_key)
    if hit is not None:
        return hit
    remaining: dict[int, int] = {}
    for v in key:
        remaining[v] = remaining.get(v, 0) + 1
    if len(key) < m:
        remaining[0] = remaining.get(0, 0) + (m - len(key))
    values = sorted(remaining)
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int]):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for v in values:
            if remaining[v]:
                remaining[v] -= 1
                prefix.append(v)
                rec(prefix)
                prefix.pop()
                remaining[v] += 1

    rec([])
    _orbit_memo[memo_key] = out
    return out


def orbit_size(key: Partition, m: int) -> int:
    """Size of the S_m orbit of `key` padded to length m."""
    return _orbit_size(as_partition(key), m)


def _orbit_size(key: Partition, m: int) -> int:
    if len(key) > m:
        return 0
    mult: dict[int, int] = {0: m - len(key)}
    for v in key:
        mult[v] = mult.get(v, 0) + 1
    size = math.factorial(m)
    for c in mult.values():
        size //= math.factorial(c)
    return size


def monomial_product(a: Partition, b: Partition, m: int) -> dict[Partition, int]:
    """Expansion of m_a * m_b in the monomial basis for m variables.

    The keys are canonical partitions, as the dominant tables hold them; they
    are not re-checked.  The coefficient of m_gamma counts the pairs
    (alpha, beta) in orb a x orb b with alpha + beta = gamma.  Every vector
    of orb gamma has as many such pairs, and S_m carries each pair onto one
    with beta = b, so

        coeff(gamma) = |orb b| * #{alpha in orb a : sort(alpha + b) = gamma} / |orb gamma|,

    one pass over the smaller of the two orbits.
    """
    if len(a) > m or len(b) > m:
        raise UsageError(f"key {max(a, b, key=len)} does not fit in {m} variables")
    if a > b:  # one pass, and one order of the result, for (a, b) and (b, a)
        a, b = b, a
    size_a, size_b = _orbit_size(a, m), _orbit_size(b, m)
    small, big, size_big = (a, b, size_b) if size_a <= size_b else (b, a, size_a)
    big_padded = big + (0,) * (m - len(big))
    hits: dict[Partition, int] = {}
    for al in _orbit_vectors(small, m):
        gv = sorted(map(int.__add__, al, big_padded), reverse=True)
        while gv and not gv[-1]:
            gv.pop()
        gamma = tuple(gv)
        hits[gamma] = hits.get(gamma, 0) + 1
    out: dict[Partition, int] = {}
    for gamma, n in hits.items():
        coeff, rest = divmod(size_big * n, _orbit_size(gamma, m))
        if rest:
            raise InternalInvariantError(
                f"orbit count of {gamma} in m_{a} * m_{b} is not divisible by its orbit size")
        out[gamma] = coeff
    return out


def dmp_multiply(p: DominantMonomialPoly, q: DominantMonomialPoly) -> DominantMonomialPoly:
    if p.var_count != q.var_count:
        raise UsageError("variable counts differ")
    m = p.var_count
    terms: dict[Partition, int] = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            for gamma, n in monomial_product(ka, kb, m).items():
                c = terms.get(gamma, 0) + ca * cb * n
                if c:
                    terms[gamma] = c
                else:
                    terms.pop(gamma, None)
    return DominantMonomialPoly(m, p.degree + q.degree, terms)


def decompose(p: DominantMonomialPoly) -> SchurVector:
    """Peel a symmetric polynomial into Schur coefficients, leading key first.

    Keys are canonicalized (trailing zeros dropped, equal keys merged); a key
    that is not a partition or has more than var_count parts is a UsageError.
    """
    m = p.var_count
    work: dict[Partition, int] = {}
    for key, c in p.terms.items():
        lam = as_partition(key)
        if len(lam) > m:
            raise UsageError(f"key {tuple(key)} has more than {m} parts")
        work[lam] = work.get(lam, 0) + c
    return _peel(m, {lam: c for lam, c in work.items() if c})


def _peel(m: int, work: dict[Partition, int]) -> SchurVector:
    """decompose on canonical keys of at most m parts; consumes `work`."""
    out: dict[Partition, int] = {}
    previous = None
    while work:
        kappa = max(work)  # lex-greatest key of the top grade dominates
        # s_kappa only reaches keys dominated by kappa, which are lex-smaller, so
        # the leading key falls strictly and the peel ends over the finitely many keys
        if previous is not None and kappa >= previous:
            raise InternalInvariantError(f"peel did not lower its leading key {kappa}")
        previous = kappa
        c = work[kappa]
        out[kappa] = c
        for k2, c2 in schur_expand(kappa, m).terms.items():
            nxt = work.get(k2, 0) - c * c2
            if nxt:
                work[k2] = nxt
            else:
                work.pop(k2, None)
    return SchurVector(m, out)


def schur_vector(m: int, coeffs: dict) -> SchurVector:
    """A SchurVector in m variables; equal keys merge and zero sums are dropped."""
    clean: dict[Partition, int] = {}
    for lam, c in coeffs.items():
        lam = as_partition(lam)
        if len(lam) > m:
            raise UsageError(f"{lam} has more than {m} rows")
        if not isinstance(c, int) or isinstance(c, bool):
            raise UsageError(f"coefficient of {lam} must be an int, got {c!r}")
        clean[lam] = clean.get(lam, 0) + c
    return SchurVector(m, {lam: c for lam, c in clean.items() if c})


def multiply_schur(a: SchurVector, b: SchurVector) -> SchurVector:
    """Product of two Schur expansions by Brauer's formula, one term pair at a time.

    With delta = (k-1, ..., 1, 0), the Weyl character formula gives
    s_mu * s_nu = sum over the weights alpha of s_nu, with their Kostka
    multiplicities, of a_{mu+delta+alpha} / a_delta.  An alternant with a
    repeated exponent vanishes; otherwise sorting mu+delta+alpha strictly
    decreasing by a permutation of sign e makes the term e * s_lam, lam being
    the sorted vector minus delta.  The factor of smaller dimension
    (eval_ones of its expansion) is the one whose weights are enumerated.

    Each pair is computed in k = min(m, len(mu) + len(nu)) variables.  Setting
    x_{k+1..m} = 0 is a ring map that sends s_lam to itself when lam has at
    most k parts and to 0 otherwise, and no lam in s_mu * s_nu has more than
    len(mu) + len(nu) parts, so the product in k variables is the product in m.
    """
    if a.var_count != b.var_count:
        raise UsageError("variable counts differ")
    m = a.var_count
    terms_b = [(as_partition(lb), cb) for lb, cb in b.coeffs.items()]
    out: dict[Partition, int] = {}
    for la, ca in a.coeffs.items():
        la = as_partition(la)
        for lb, cb in terms_b:
            if len(la) > m or len(lb) > m:  # s_la or s_lb vanishes in m variables
                continue
            for lam, c in _brauer_product(la, lb, min(m, len(la) + len(lb))).items():
                nxt = out.get(lam, 0) + ca * cb * c
                if nxt:
                    out[lam] = nxt
                else:
                    out.pop(lam, None)
    return SchurVector(m, out)


def _brauer_product(mu: Partition, nu: Partition, k: int) -> dict[Partition, int]:
    """multiply_schur of one term pair: canonical mu, nu of at most k parts."""
    pmu, pnu = schur_expand(mu, k), schur_expand(nu, k)
    if eval_ones(pmu) < eval_ones(pnu):
        mu, pnu = nu, pmu
    delta = tuple(range(k - 1, -1, -1))
    shifted = tuple(map(int.__add__, mu + (0,) * (k - len(mu)), delta))
    alternants: dict[tuple[int, ...], int] = {}
    for kappa, mult in pnu.terms.items():
        for alpha in _orbit_vectors(kappa, k):
            v = tuple(map(int.__add__, shifted, alpha))
            if len(set(v)) < k:
                continue
            odd = sum(starmap(int.__lt__, combinations(v, 2))) & 1  # inversions
            v = tuple(sorted(v, reverse=True))
            alternants[v] = alternants.get(v, 0) + (-mult if odd else mult)
    out: dict[Partition, int] = {}
    for v, c in alternants.items():
        if c:
            lam = list(map(int.__sub__, v, delta))
            while lam and not lam[-1]:
                lam.pop()
            out[tuple(lam)] = c
    return out


def eval_ones(p: DominantMonomialPoly) -> int:
    """Evaluate at x_1 = ... = x_m = 1 (the polynomial's dimension count).

    The keys are not re-checked: an orbit's size depends only on the
    multiset of a key's entries, with or without trailing zeros.
    """
    return sum(c * _orbit_size(key, p.var_count) for key, c in p.terms.items())

