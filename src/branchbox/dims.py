"""Weyl dimension formulas and exact truncated power series bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InternalInvariantError, StableRangeError, UsageError
from .partitions import Partition, as_partition, partitions_of


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


def dim_so(mu, n: int) -> int:
    """Dimension of the SO_n irrep with integral highest weight mu."""
    mu = as_partition(mu)
    if n < 1:
        raise UsageError("n must be positive")
    k = n // 2
    if len(mu) > k:
        raise UsageError(f"{mu} has more than {k} rows")
    w = list(mu) + [0] * (k - len(mu))
    total = Fraction(1)
    if n % 2:  # type B_k: roots e_i +- e_j and e_i
        a = [2 * w[i] + 2 * (k - i) - 1 for i in range(k)]  # 2*(mu_i + rho_i), rho_i = k - i - 1/2
        b = [2 * (k - i) - 1 for i in range(k)]
        for i in range(k):
            total *= Fraction(a[i], b[i])
            for j in range(i + 1, k):
                total *= Fraction(a[i] ** 2 - a[j] ** 2, b[i] ** 2 - b[j] ** 2)
    else:  # type D_k: roots e_i +- e_j
        a = [w[i] + k - i - 1 for i in range(k)]
        b = [k - i - 1 for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                total *= Fraction(a[i] ** 2 - a[j] ** 2, b[i] ** 2 - b[j] ** 2)
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
    a = [w[i] + n - i for i in range(n)]  # mu_i + rho_i with rho_i = n - i
    b = [n - i for i in range(n)]
    total = Fraction(1)
    for i in range(n):
        total *= Fraction(a[i], b[i])
        for j in range(i + 1, n):
            total *= Fraction(a[i] ** 2 - a[j] ** 2, b[i] ** 2 - b[j] ** 2)
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

    def reciprocal(self) -> "PowerSeriesTruncated":
        if self.coeffs[0] not in (1, -1):
            raise UsageError("reciprocal needs a unit constant term")
        d = self.max_degree
        u = self.coeffs[0]
        out = [u] + [0] * d
        for k in range(1, d + 1):
            acc = 0
            for i in range(1, k + 1):
                acc += self.coeffs[i] * out[k - i]
            out[k] = -u * acc  # u in {1,-1} so division is multiplication
        return PowerSeriesTruncated(d, tuple(out))

    @staticmethod
    def binomial_inverse_power(step: int, power: int, max_degree: int) -> "PowerSeriesTruncated":
        """(1 - q^step)^(-power) expanded exactly."""
        coeffs = [0] * (max_degree + 1)
        for b in range(max_degree // step + 1):
            coeffs[b * step] = comb(b + power - 1, power - 1) if power > 0 else (1 if b == 0 else 0)
        return PowerSeriesTruncated(max_degree, tuple(coeffs))


def hilbert_check(n: int, m: int, max_degree: int):
    """Check the graded dimension identity of the orthogonal harmonic model.

    The harmonic series sum_lam dim_o(lam,n) dim_gl(lam,m) q^|lam| times the
    free invariant series (1-q^2)^(-m(m+1)/2) must reproduce the full
    polynomial series (1-q)^(-nm).  Requires n > 2m so every label in range
    has a well-defined O_n dimension, and raises StableRangeError otherwise.
    There is no policy: the CLI's `hilbert --stable-policy warn` is accepted
    and ignored, and exits 2 exactly as under `enforce`.
    """
    if n <= 2 * m:
        raise StableRangeError(
            f"outside the stable range: requires n > 2*m = {2 * m}")
    d = max_degree
    harm = [0] * (d + 1)
    for lam in [p for k in range(d + 1) for p in partitions_of(k, max_length=m)]:
        harm[sum(lam)] += dim_o(lam, n) * dim_gl(lam, m)
    harmonic = PowerSeriesTruncated.from_list(harm, d)
    gens = m * (m + 1) // 2
    # exercise reciprocal() instead of the closed binomial form
    one_minus_q2_pow = [0] * (d + 1)
    for b in range(min(gens, d // 2) + 1):
        one_minus_q2_pow[2 * b] = (-1) ** b * comb(gens, b)
    invariants = PowerSeriesTruncated.from_list(one_minus_q2_pow, d).reciprocal()
    full = PowerSeriesTruncated.binomial_inverse_power(1, n * m, d)
    match = (harmonic * invariants).coeffs == full.coeffs
    return match, {"harmonic": harmonic, "invariants": invariants, "full": full}
