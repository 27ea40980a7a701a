"""Stable-range branching and tensor multiplicities for classical groups.

Each operation is a finite Littlewood-Richardson sum.  The answers are exact
and n-independent once the rank clears the stated stable bound; below the
bound the formulas are not guaranteed, so a policy decides between raising
and computing anyway with a warning.

Each formula's bound is written once, as a rule (`gl_to_o_range` ...) that
returns the text of the bound a request misses, or None in the stable range.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import LabelError, StableRangeError, StableRangeWarning
from .lr import coproduct, lr_coefficient, lr_kernel, skew_contents
# Nothing here calls lr_multi: the benchmark's tracer (perfbench/tracer.py) wraps
# the binding `branchbox.branch.lr_multi`, and its tests need the name to exist.
from .lr import lr_multi  # noqa: F401
from .partitions import (
    Partition,
    Signature,
    as_partition,
    check_signature_rank,
    contains,
    is_admissible_o,
    partitions_between,
    signature_weight,
)


@dataclass(frozen=True)
class StablePolicy:
    mode: str  # "enforce" or "warn_and_compute"


ENFORCE = StablePolicy("enforce")
WARN_AND_COMPUTE = StablePolicy("warn_and_compute")


def refuse(need: str | None, policy: StablePolicy) -> bool:
    """The stable flag, need is None; a request that misses `need` raises under ENFORCE."""
    if need is not None and policy.mode == "enforce":
        raise StableRangeError(f"outside the stable range: requires {need}")
    return need is None


def _gate(need: str | None, policy: StablePolicy) -> bool:
    """`refuse`, and a warning for a request computed outside the stable range."""
    if refuse(need, policy):
        return True
    warnings.warn(f"computing outside the stable range ({need})", StableRangeWarning,
                  stacklevel=3)
    return False


def _check_o(label: Partition, n: int) -> None:
    if not is_admissible_o(label, n):
        raise LabelError(f"{label} is not an admissible O_{n} label")


def _check_sp(label: Partition, n: int) -> None:
    if len(label) > n:
        raise LabelError(f"{label} has more than {n} rows (Sp rank {n})")


def gl_to_o_range(lam, n: int) -> str | None:
    rows = len(as_partition(lam))
    return None if n > 2 * rows else f"n > 2*len(lam) = {2 * rows}"


def gl_to_o(lam, mu, n: int, policy: StablePolicy = ENFORCE) -> int:
    """Multiplicity of the O_n irrep mu in the GL_n irrep lam (Littlewood)."""
    lam, mu = as_partition(lam), as_partition(mu)
    if len(lam) > n:
        raise LabelError(f"{lam} has more than {n} rows")
    _check_o(mu, n)
    _gate(gl_to_o_range(lam, n), policy)
    return _even_row_sum(lam, mu)


def _even_row_sum(lam: Partition, tau: Partition) -> int:
    """sum over even-row delta of c^lam_{tau,delta}, on canonical partitions."""
    if (sum(lam) - sum(tau)) % 2 or not contains(lam, tau):
        return 0
    return sum(c for delta, c in skew_contents(lam, tau).items()
               if not any(a % 2 for a in delta))


def gl_to_sp_range(lam, n: int) -> str | None:
    rows = len(as_partition(lam))
    return None if n >= rows else f"n >= len(lam) = {rows}"


def gl_to_sp(lam, mu, n: int, policy: StablePolicy = ENFORCE) -> int:
    """Multiplicity of the Sp_{2n} irrep mu in the GL_{2n} irrep lam."""
    lam, mu = as_partition(lam), as_partition(mu)
    if len(lam) > 2 * n:
        raise LabelError(f"{lam} has more than {2 * n} rows")
    _check_sp(mu, n)
    _gate(gl_to_sp_range(lam, n), policy)
    if (sum(lam) - sum(mu)) % 2 or not contains(lam, mu):
        return 0
    # even columns: delta's parts pair off, and an odd length leaves the slices unequal
    return sum(c for delta, c in skew_contents(lam, mu).items()
               if delta[0::2] == delta[1::2])


def tensor_kernel(mu: Partition, nu: Partition, lam: Partition) -> int:
    """sum over (alpha, beta, delta) of c^lam_{alpha,beta} c^mu_{alpha,delta} c^nu_{beta,delta}.

    The stable O and Sp tensor multiplicity, on canonical labels that the
    caller has checked and gated.  Each alpha inside lam and mu, of size
    (|lam| + |mu| - |nu|) / 2, pairs the nonzero beta of the content table of
    lam/alpha with the nonzero delta of that of mu/alpha (`lr.skew_contents`),
    so only the last factor is looked up one content at a time.
    """
    two_sa = sum(lam) + sum(mu) - sum(nu)
    two_sb = sum(lam) + sum(nu) - sum(mu)
    two_sd = sum(mu) + sum(nu) - sum(lam)
    if min(two_sa, two_sb, two_sd) < 0 or two_sa % 2:
        return 0
    total = 0
    for alpha in partitions_between((), mu, two_sa // 2):
        if not contains(lam, alpha):
            continue
        deltas = skew_contents(mu, alpha).items()
        for beta, c_lab in skew_contents(lam, alpha).items():
            for delta, c_mad in deltas:
                c_nbd = lr_kernel(nu, beta, delta)
                if c_nbd:
                    total += c_lab * c_mad * c_nbd
    return total


def o_tensor_range(mu, nu, n: int) -> str | None:
    rows = len(as_partition(mu)) + len(as_partition(nu))
    return None if n > 2 * rows else f"n > 2*(len(mu)+len(nu)) = {2 * rows}"


def o_tensor_stable(mu, nu, lam, n: int, policy: StablePolicy = ENFORCE) -> int:
    """Multiplicity of the O_n irrep lam in the tensor product mu x nu."""
    mu, nu, lam = as_partition(mu), as_partition(nu), as_partition(lam)
    for label in (mu, nu, lam):
        _check_o(label, n)
    _gate(o_tensor_range(mu, nu, n), policy)
    return tensor_kernel(mu, nu, lam)


def sp_tensor_range(mu, nu, n: int) -> str | None:
    rows = len(as_partition(mu)) + len(as_partition(nu))
    return None if n > rows else f"n > len(mu)+len(nu) = {rows}"


def sp_tensor_stable(mu, nu, lam, n: int, policy: StablePolicy = ENFORCE) -> int:
    """Multiplicity of the Sp_{2n} irrep lam in the tensor product mu x nu."""
    mu, nu, lam = as_partition(mu), as_partition(nu), as_partition(lam)
    for label in (mu, nu, lam):
        _check_sp(label, n)
    _gate(sp_tensor_range(mu, nu, n), policy)
    return tensor_kernel(mu, nu, lam)


def check_sp_tensor(mu: Partition, nu: Partition, n: int,
                    policy: StablePolicy = ENFORCE) -> bool:
    """Gate an Sp_{2n} tensor table once and check its canonical factors; the stable flag.

    Under ENFORCE an unstable table is refused before its labels are checked.
    """
    need = sp_tensor_range(mu, nu, n)
    refuse(need, policy)
    _check_sp(mu, n)
    _check_sp(nu, n)
    return _gate(need, policy)


def o_restrict_range(lam, n: int, m: int) -> str | None:
    rows = len(as_partition(lam))
    return None if min(n, m) > 2 * rows else f"min(n, m) > 2*len(lam) = {2 * rows}"


def o_restrict_stable(lam, mu, nu, n: int, m: int, policy: StablePolicy = ENFORCE) -> int:
    """Multiplicity of mu x nu in the restriction of the O_{n+m} irrep lam to O_n x O_m."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    _check_o(lam, n + m)
    _check_o(mu, n)
    _check_o(nu, m)
    _gate(o_restrict_range(lam, n, m), policy)
    return o_restrict_kernel(lam, mu, nu)


def check_o_restrict(lam: Partition, n: int, m: int, policy: StablePolicy = ENFORCE) -> bool:
    """Gate an O_{n+m} restriction table once and check its canonical lam; the stable flag.

    Under ENFORCE an unstable table is refused before lam is checked.
    """
    need = o_restrict_range(lam, n, m)
    refuse(need, policy)
    _check_o(lam, n + m)
    return _gate(need, policy)


def o_restrict_kernel(lam: Partition, mu: Partition, nu: Partition) -> int:
    """o_restrict_stable on canonical labels that the caller has checked and gated.

    The restriction factors through its GL intermediate tau, |tau| = |mu|+|nu|:
    sum over tau of c^tau_{mu,nu} times the even-row sum of c^lam_{tau,delta}.
    This gathers one value, reading each c^tau_{mu,nu} and each even-row sum
    from the memoized content tables of `lr.skew_contents`; `o_restrict_table`
    scatters the same sum over every (mu, nu) at once.
    """
    size = sum(mu) + sum(nu)
    rest = sum(lam) - size
    if rest < 0 or rest % 2:
        return 0
    total = 0
    for tau in partitions_between(mu, lam, size):
        c = lr_kernel(tau, mu, nu)
        if c:
            total += c * _even_row_sum(lam, tau)
    return total


def o_restrict_table(lam: Partition) -> dict[tuple[Partition, Partition], int]:
    """Every nonzero o_restrict_kernel(lam, mu, nu), keyed by (mu, nu), on a checked lam.

    One scatter over the GL intermediates tau <= lam with |lam| - |tau| even:
    the even-row sum E_lam(tau) is computed once per tau, and when it is
    nonzero c^tau_{mu,nu} * E_lam(tau) is added to every (mu, nu) of
    `lr.coproduct(tau)`, which lists each nonzero c^tau_{mu,nu} once from the
    content table of tau/mu for every mu <= tau and is memoized by tau, so
    tables sharing a tau share its fills.  Every term is positive, so no cell
    is zero.  Admissibility of mu and nu is left to the caller.
    """
    table: dict[tuple[Partition, Partition], int] = {}
    size = sum(lam)
    for t in range(size % 2, size + 1, 2):
        for tau in partitions_between((), lam, t):
            weight = _even_row_sum(lam, tau)
            if weight:
                for key, c in coproduct(tau):
                    table[key] = table.get(key, 0) + c * weight
    return table


def hilbert_range(n: int, m: int) -> str | None:
    """The bound of `dims.hilbert_check`, which sums an O_n dimension for every label."""
    return None if n > 2 * m else f"n > 2*m = {2 * m}"


def gl_tensor_rational(mu: Signature, nu: Signature, lam: Signature, n: int) -> int:
    """Multiplicity of lam in mu x nu for rational GL_n irreps.

    Twisting by enough powers of the determinant reduces each factor to a
    polynomial diagram on n rows; the answer is a single LR coefficient and
    is invariant under further determinant shifts.  It does not depend on n
    once n >= l(mu) + l(nu), l = l+ + l- (Koike, Adv. Math. 74, 1989), so after
    the rank checks it is evaluated on min(n, max(l(mu) + l(nu), l(lam))) rows.
    """
    for sig in (mu, nu, lam):
        check_signature_rank(sig, n)
    l_mu, l_nu, l_lam = (len(sig.plus) + len(sig.minus) for sig in (mu, nu, lam))
    rows = min(n, max(l_mu + l_nu, l_lam))
    k_mu = mu.minus[0] if mu.minus else 0
    k_nu = nu.minus[0] if nu.minus else 0
    return _shifted_lr(mu, nu, lam, rows, k_mu, k_nu)


def _shifted_lr(mu: Signature, nu: Signature, lam: Signature,
                n: int, k_mu: int, k_nu: int) -> int:
    mu_w = [a + k_mu for a in signature_weight(mu, n)]
    nu_w = [a + k_nu for a in signature_weight(nu, n)]
    lam_w = [a + k_mu + k_nu for a in signature_weight(lam, n)]
    if lam_w and lam_w[-1] < 0:
        return 0  # lam dips below the lowest weight the product can reach
    return lr_coefficient(as_partition(lam_w), as_partition(mu_w), as_partition(nu_w))
