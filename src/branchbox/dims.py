"""Weyl dimension formulas and exact truncated power series bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .branch import ENFORCE, hilbert_range, refuse
from .errors import BudgetError, InternalInvariantError, UsageError
from .partitions import as_partition, partitions_of


def dim_gl(lam, n: int) -> int:
    """Dimension of the polynomial GL_n irrep with highest weight lam."""
    lam = as_partition(lam)
    if n < 0:
        raise UsageError("n must be nonnegative")
    if len(lam) > n:
        return 0
    w = list(lam) + [0] * (n - len(lam))
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    if num % den:
        raise InternalInvariantError(f"dim_gl({lam}, n={n}): Weyl dimension is not an integer")
    return num // den


def _weyl_product(a: list[int], b: list[int], linear: bool) -> Fraction:
    """prod_i a_i/b_i (only if `linear`) * prod_{i<j} (a_i^2 - a_j^2)/(b_i^2 - b_j^2).

    The Weyl dimension of types B, C (`linear`) and D, with a the shifted
    highest weight mu + rho and b = rho, both scaled to integers.
    """
    total = Fraction(1)
    for i in range(len(a)):
        if linear:
            total *= Fraction(a[i], b[i])
        for j in range(i + 1, len(a)):
            total *= Fraction(a[i] ** 2 - a[j] ** 2, b[i] ** 2 - b[j] ** 2)
    return total


def dim_so(mu, n: int) -> int:
    """Dimension of the SO_n irrep with integral highest weight mu."""
    mu = as_partition(mu)
    if n < 1:
        raise UsageError("n must be positive")
    k = n // 2
    if len(mu) > k:
        raise UsageError(f"{mu} has more than {k} rows")
    w = list(mu) + [0] * (k - len(mu))
    if n % 2:  # type B_k: roots e_i +- e_j and e_i, 2*(mu_i + rho_i) with rho_i = k - i - 1/2
        total = _weyl_product([2 * w[i] + 2 * (k - i) - 1 for i in range(k)],
                              [2 * (k - i) - 1 for i in range(k)], linear=True)
    else:  # type D_k: roots e_i +- e_j
        total = _weyl_product([w[i] + k - i - 1 for i in range(k)],
                              [k - i - 1 for i in range(k)], linear=False)
    if total.denominator != 1:
        raise InternalInvariantError(f"dim_so({mu}, n={n}): Weyl dimension is not an integer")
    return int(total)


def dim_sp(mu, n: int) -> int:
    """Dimension of the Sp_{2n} irrep with highest weight mu (rank n)."""
    mu = as_partition(mu)
    if n < 0:
        raise UsageError("n must be nonnegative")
    if len(mu) > n:
        raise UsageError(f"{mu} has more than {n} rows")
    w = list(mu) + [0] * (n - len(mu))
    total = _weyl_product([w[i] + n - i for i in range(n)],  # mu_i + rho_i, rho_i = n - i
                          [n - i for i in range(n)], linear=True)
    if total.denominator != 1:
        raise InternalInvariantError(f"dim_sp({mu}, n={n}): Weyl dimension is not an integer")
    return int(total)


def dim_o(mu, n: int) -> int:
    """Dimension of the O_n irrep labelled mu, valid when len(mu) < n/2.

    In that range the restriction to SO_n stays irreducible, so the SO
    dimension is the honest dimension of the O_n representation.
    """
    mu = as_partition(mu)
    if 2 * len(mu) >= n:
        raise UsageError(
            f"dim_o needs len(mu) < n/2; got len {len(mu)} at n = {n}")
    return dim_so(mu, n)


@dataclass(frozen=True)
class PowerSeriesTruncated:
    """Power series with exact integer coefficients, truncated at max_degree."""

    max_degree: int
    coeffs: tuple[int, ...]

    @staticmethod
    def from_list(coeffs, max_degree: int) -> "PowerSeriesTruncated":
        c = list(coeffs)[: max_degree + 1]
        c += [0] * (max_degree + 1 - len(c))
        return PowerSeriesTruncated(max_degree, tuple(c))

    def __mul__(self, other: "PowerSeriesTruncated") -> "PowerSeriesTruncated":
        if self.max_degree != other.max_degree:
            raise UsageError("truncation degrees differ")
        d = self.max_degree
        out = [0] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(d + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeriesTruncated(d, tuple(out))

    @staticmethod
    def binomial_inverse_power(step: int, power: int, max_degree: int) -> "PowerSeriesTruncated":
        """(1 - q^step)^(-power) expanded exactly."""
        coeffs = [0] * (max_degree + 1)
        for b in range(max_degree // step + 1):
            coeffs[b * step] = comb(b + power - 1, power - 1) if power > 0 else (1 if b == 0 else 0)
        return PowerSeriesTruncated(max_degree, tuple(coeffs))


MAX_HILBERT_PRODUCTS = 250_000


def _hilbert_products(n: int, m: int, max_degree: int) -> int:
    """An estimate of the multiplications `hilbert_check` makes: (d+1)^2 in
    its series products, and per label (a partition of at most d into at
    most m parts) one per factor of its Weyl dimensions dim_o(lam, n) and
    dim_gl(lam, m).  When the series products alone exceed
    MAX_HILBERT_PRODUCTS, they are the count, so the labels are counted only
    for d < 500."""
    d = max_degree
    series = (d + 1) ** 2
    if series > MAX_HILBERT_PRODUCTS:
        return series
    counts = [1] + [0] * d  # counts[j]: partitions of j into parts <= m, i.e. at most m parts
    for part in range(1, min(m, d) + 1):
        for j in range(part, d + 1):
            counts[j] += counts[j - part]
    k = n // 2
    return series + sum(counts) * (k * (k + 1) // 2 + m * (m - 1) // 2)


def hilbert_check(n: int, m: int, max_degree: int):
    """Check the graded dimension identity of the orthogonal harmonic model.

    The harmonic series sum_lam dim_o(lam,n) dim_gl(lam,m) q^|lam| times the
    free invariant series (1-q^2)^(-m(m+1)/2), in closed form
    (`binomial_inverse_power`), must reproduce the full polynomial series
    (1-q)^(-nm).  Requires n > 2m (`branch.hilbert_range`)
    so every label in range has a well-defined O_n dimension, and raises
    StableRangeError otherwise.  The bound is always enforced: the CLI's
    `hilbert --stable-policy warn` is accepted and ignored, and exits 2
    exactly as under `enforce`.  A request of more than MAX_HILBERT_PRODUCTS
    multiplications (`_hilbert_products`) is a BudgetError, raised before
    any label or series is built.
    """
    refuse(hilbert_range(n, m), ENFORCE)
    count = _hilbert_products(n, m, max_degree)
    if count > MAX_HILBERT_PRODUCTS:
        raise BudgetError(f"{count} products for the Hilbert series of degree <= {max_degree} "
                          f"at n = {n}, m = {m} exceed {MAX_HILBERT_PRODUCTS}")
    d = max_degree
    harm = [0] * (d + 1)
    for lam in [p for k in range(d + 1) for p in partitions_of(k, max_length=m)]:
        harm[sum(lam)] += dim_o(lam, n) * dim_gl(lam, m)
    harmonic = PowerSeriesTruncated.from_list(harm, d)
    invariants = PowerSeriesTruncated.binomial_inverse_power(2, m * (m + 1) // 2, d)
    full = PowerSeriesTruncated.binomial_inverse_power(1, n * m, d)
    match = (harmonic * invariants).coeffs == full.coeffs
    return match, {"harmonic": harmonic, "invariants": invariants, "full": full}
