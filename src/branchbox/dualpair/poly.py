"""Sparse exact polynomials and polynomial-coefficient differential operators.

A monomial is one `int`: variable v's exponent is its k-bit digit at bit
k*v, for a width k (`digit_width`) with 2^k above every exponent reached,
so no digit carries and within one degree int order is grevlex order.
`pack` and `unpack` convert exponent tuples at the boundary.  A polynomial
maps monomials to exact coefficients.  An operator is a sum of terms
c * x^a * d^b, packed per width (`Operator.packed`) and applied by falling
factorials, so it stays exact on any polynomial and needs no degree
truncation.

Coefficients are `int` wherever they are integral, which covers every
Delta, r2 and raising operator and so the whole multiplicity oracle; only
the Euler operators' n/2 shift (odd n) is a `Fraction`, and it reaches
nothing but the bracket check.  That check multiplies the terms themselves
and applies no operator; `commutator_apply` is the reference it is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm
from typing import Iterable, Mapping, NamedTuple

Monomial = int
Poly = dict[Monomial, int | Fraction]


class Term(NamedTuple):
    coeff: int | Fraction
    xs: tuple[tuple[int, int], ...]  # (variable index, exponent), multiplication part
    ds: tuple[tuple[int, int], ...]  # (variable index, order), differentiation part


class PackedOperator(NamedTuple):
    terms: tuple[tuple[int | Fraction, int, tuple[tuple[int, int], ...]], ...]  # (c, delta, ds)
    low: int  # the mask of one exponent digit, 2^k - 1


@dataclass(frozen=True)
class Operator:
    name: str
    kind: str  # "delta" | "r2" | "euler" | "raising"
    shift: int  # homogeneous degree shift
    terms: tuple[Term, ...]

    def packed(self, width: int) -> PackedOperator:
        """Each term as (coeff, the int it adds to a monomial, ((bit shift, order), ...))."""
        return PackedOperator(tuple(
            (t.coeff, sum(e << width * v for v, e in t.xs) - sum(e << width * v for v, e in t.ds),
             tuple((width * v, e) for v, e in t.ds)) for t in self.terms), (1 << width) - 1)


def digit_width(max_degree: int) -> int:
    """The least exponent digit width k, at least 1, with 2^k > max_degree."""
    return max(1, max_degree.bit_length())


def pack(exponents: Iterable[int], width: int) -> Monomial:
    """The monomial of an exponent tuple; ValueError for an exponent that would carry."""
    exponents = tuple(exponents)
    if not all(0 <= e < 1 << width for e in exponents):
        raise ValueError(f"an exponent of {exponents} does not fit a {width}-bit digit")
    return sum(e << width * v for v, e in enumerate(exponents))


def unpack(mono: Monomial, width: int, var_count: int) -> tuple[int, ...]:
    """The exponent tuple of a monomial over var_count variables."""
    low = (1 << width) - 1
    return tuple(mono >> width * v & low for v in range(var_count))


def make_operator(name: str, kind: str,
                  raw_terms: Iterable[tuple[Fraction | int, Mapping[int, int], Mapping[int, int]]],
                  ) -> Operator:
    """Build an operator from (coeff, {var: exp}, {var: order}) triples, merging duplicates.

    A merged coefficient is stored as an `int` when it is integral.
    """
    merged: dict[tuple, int | Fraction] = {}
    for coeff, xs, ds in raw_terms:
        key = (tuple(sorted((v, e) for v, e in xs.items() if e)),
               tuple(sorted((v, e) for v, e in ds.items() if e)))
        merged[key] = merged.get(key, 0) + coeff
    terms = tuple(Term(_integral(c), xs, ds) for (xs, ds), c in sorted(merged.items()) if c)
    shifts = {sum(e for _, e in t.xs) - sum(e for _, e in t.ds) for t in terms}
    if len(shifts) > 1:
        raise ValueError(f"operator {name} is not degree-homogeneous: shifts {shifts}")
    return Operator(name, kind, shifts.pop() if shifts else 0, terms)


def _integral(c: int | Fraction) -> int | Fraction:
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def apply_to_monomial(op: PackedOperator, mono: Monomial) -> Poly:
    """op applied to one monomial: the one routine that applies operator terms.

    A term gives its coefficient times the integer falling factorials of the
    differentiated exponents, each read as the digit `mono >> shift & low`,
    at mono plus the term's integer, or nothing once one exponent is below
    its order.  Terms are taken in order, so the image's keys keep that order.
    """
    terms, low = op.terms, op.low
    out: Poly = {}
    for c, delta, ds in terms:
        for shift, order in ds:
            e = mono >> shift & low
            if e < order:
                break
            c *= e if order == 1 else perm(e, order)
        else:
            key = mono + delta
            val = out.get(key, 0) + c
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def apply_operator(op: PackedOperator, poly: Poly) -> Poly:
    """op applied to poly, by linearity from op's images of its monomials."""
    out: Poly = {}
    for mono, c in poly.items():
        for target, tc in apply_to_monomial(op, mono).items():
            val = out.get(target, 0) + c * tc
            if val:
                out[target] = val
            else:
                out.pop(target, None)
    return out


def commutator_apply(a: PackedOperator, b: PackedOperator, poly: Poly) -> Poly:
    """[a, b] applied to poly."""
    first = apply_operator(a, apply_operator(b, poly))
    for mono, c in apply_operator(b, apply_operator(a, poly)).items():
        val = first.get(mono, 0) - c
        if val:
            first[mono] = val
        else:
            first.pop(mono, None)
    return first
