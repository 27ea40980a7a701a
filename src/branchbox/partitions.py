"""Integer partitions, rational GL signatures, and orthogonal label combinatorics.

Partitions are canonical tuples: weakly decreasing, strictly positive parts,
no stored trailing zeros.  The empty partition is ().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import LabelError, UsageError

Partition = tuple[int, ...]

EMPTY: Partition = ()


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize to a partition, stripping trailing zeros.

    One pass over the parts: a tuple that is already canonical is returned
    as it is, the same object.  Only input that fails the pass is checked
    part by part, to name the fault.
    """
    seq = parts if type(parts) is tuple else tuple(parts)
    end = len(seq)
    while end and seq[end - 1] == 0:
        end -= 1
    if end < len(seq):
        seq = seq[:end]
    prev = seq[0] if seq else 0
    for a in seq:
        if type(a) is not int or not 0 < a <= prev:
            break
        prev = a
    else:
        return seq
    # The part-by-part check names the fault, and accepts int subclasses such as bool.
    for a in seq:
        if not isinstance(a, int) or a <= 0:
            raise UsageError(f"partition parts must be positive integers: {list(seq)!r}")
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise UsageError(f"partition parts must be weakly decreasing: {list(seq)!r}")
    return seq


def conjugate(lam: Iterable[int]) -> Partition:
    """Transpose of the Young diagram."""
    p = as_partition(lam)
    if not p:
        return EMPTY
    return tuple(sum(1 for a in p if a >= i) for i in range(1, p[0] + 1))


def contains(outer: Partition, inner: Partition) -> bool:
    """Diagram containment inner <= outer, row by row."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def grevlex_key(p: Partition):
    """Sort key for the graded reverse-lexicographic enumeration order."""
    return (sum(p), tuple(-a for a in p))


def partitions_of(size: int, max_length: int | None = None) -> Iterator[Partition]:
    """Partitions of `size`, largest leading part first."""
    if size < 0:
        return
    if size == 0:
        yield EMPTY
        return
    maxlen = size if max_length is None else min(max_length, size)

    def rec(remaining: int, cap: int, slots: int) -> Iterator[Partition]:
        if remaining == 0:
            yield EMPTY
            return
        if slots == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            if part * slots < remaining:
                break
            for rest in rec(remaining - part, part, slots - 1):
                yield (part,) + rest

    yield from rec(size, size, maxlen)


def enumerate_partitions(max_size: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of size <= max_size in graded reverse-lexicographic order."""
    if max_size < 0:
        raise UsageError("max_size must be nonnegative")
    out: list[Partition] = []
    for k in range(max_size + 1):
        out.extend(partitions_of(k, max_length))
    return out


def partitions_between(inner: Partition, outer: Partition, size: int) -> Iterator[Partition]:
    """Partitions tau with inner <= tau <= outer and |tau| = size."""
    if size < sum(inner) or size > sum(outer):
        return
    rows = len(outer)
    inner_padded = tuple(inner) + (0,) * (rows - len(inner))

    def rec(i: int, remaining: int, prev: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            if i >= len(inner):  # rows below inner's last row may stay empty
                yield ()
            return
        if i == rows:
            return
        hi = min(outer[i], prev, remaining)
        lo = inner_padded[i]
        for part in range(hi, max(lo, 1) - 1, -1):
            for rest in rec(i + 1, remaining - part, part):
                yield (part,) + rest

    if len(inner) > rows:
        return
    yield from rec(0, size, size)


def is_admissible_o(nu: Iterable[int], n: int) -> bool:
    """O_n admissibility: the first two columns together have at most n cells."""
    p = as_partition(nu)
    if n < 0:
        raise UsageError("n must be nonnegative")
    return admissible_o_kernel(p, n)


def admissible_o_kernel(p: Partition, n: int) -> bool:
    """is_admissible_o on a canonical partition, which it trusts and does not re-check."""
    return len(p) + sum(1 for a in p if a >= 2) <= n


def associate_o(nu: Iterable[int], n: int) -> Partition:
    """The associate O_n label: first column replaced by n minus itself."""
    p = as_partition(nu)
    if not is_admissible_o(p, n):
        raise LabelError(f"{p} is not an admissible O_{n} label")
    cols = list(conjugate(p))
    first = n - (cols[0] if cols else 0)
    beta_cols = [first] + cols[1:]
    return conjugate(as_partition(beta_cols))


class Signature(NamedTuple):
    """Rational GL_n highest weight: polynomial part and dual-polynomial part."""

    plus: Partition
    minus: Partition


def as_signature(plus: Iterable[int], minus: Iterable[int]) -> Signature:
    return Signature(as_partition(plus), as_partition(minus))


def check_signature_rank(sig: Signature, n: int) -> None:
    if len(sig.plus) + len(sig.minus) > n:
        raise LabelError(f"signature {sig} needs more than {n} rows")


def signature_weight(sig: Signature, n: int) -> tuple[int, ...]:
    """The length-n weakly decreasing weight vector of a rational GL_n irrep."""
    check_signature_rank(sig, n)
    zeros = n - len(sig.plus) - len(sig.minus)
    return tuple(sig.plus) + (0,) * zeros + tuple(-a for a in reversed(sig.minus))


def weight_to_signature(weight: Iterable[int]) -> Signature:
    """Inverse of signature_weight, for any weakly decreasing integer vector."""
    w = tuple(weight)
    if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        raise UsageError(f"weight must be weakly decreasing: {w!r}")
    plus = tuple(a for a in w if a > 0)
    minus = tuple(-a for a in reversed(w) if a < 0)
    return Signature(plus, minus)


@dataclass(frozen=True)
class IrrepLabel:
    """A labelled irreducible: family GL/O/Sp, matrix size, and weight data, kept canonical."""

    family: str
    rank: int
    weight: Partition | Signature

    def __post_init__(self):
        if self.family not in ("GL", "O", "Sp"):
            raise LabelError(f"unknown family {self.family!r}")
        if self.rank < 0:
            raise LabelError("rank must be nonnegative")
        w = self.weight
        if isinstance(w, Signature):
            if self.family != "GL":
                raise LabelError(f"{self.family} labels are partitions")
            canonical = as_signature(*w)
            check_signature_rank(canonical, self.rank)
        else:
            if self.family == "Sp" and self.rank % 2:
                raise LabelError("Sp rank is the matrix size 2n")
            canonical = as_partition(w)
            if self.family == "GL" and len(canonical) > self.rank:
                raise LabelError(f"partition {w} too long for GL_{self.rank}")
            if self.family == "O" and not admissible_o_kernel(canonical, self.rank):
                raise LabelError(f"{w} is not an admissible O_{self.rank} label")
            if self.family == "Sp" and len(canonical) > self.rank // 2:
                raise LabelError(f"{w} too long for Sp_{self.rank}")
        if canonical is not w:  # as_partition returns a canonical tuple itself
            object.__setattr__(self, "weight", canonical)
