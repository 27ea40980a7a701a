"""Sparse exact polynomials and polynomial-coefficient differential operators.

A monomial is a dense exponent tuple over a fixed variable list; a polynomial
maps monomials to exact coefficients.  An operator is a sum of terms
c * x^a * d^b applied by falling factorials, so it stays exact on any
polynomial and needs no degree truncation.

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
from typing import Iterable, Iterator, Mapping, NamedTuple

Monomial = tuple[int, ...]
Poly = dict[Monomial, int | Fraction]


class Term(NamedTuple):
    coeff: int | Fraction
    xs: tuple[tuple[int, int], ...]  # (variable index, exponent), multiplication part
    ds: tuple[tuple[int, int], ...]  # (variable index, order), differentiation part


@dataclass(frozen=True)
class Operator:
    name: str
    kind: str  # "delta" | "r2" | "euler" | "raising"
    shift: int  # homogeneous degree shift
    terms: tuple[Term, ...]


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


def apply_to_monomial(op: Operator, mono: Monomial) -> Poly:
    """op applied to one monomial: the one routine that applies operator terms.

    A term c * x^a * d^b gives c times the integer falling factorials of the
    differentiated exponents, or nothing once one exponent is below its
    order; terms are taken in order, so the image's keys keep that order.
    """
    out: Poly = {}
    for coeff, xs, ds in op.terms:
        ff = 1
        for v, order in ds:
            e = mono[v]
            if e < order:
                break
            for k in range(order):
                ff *= e - k
        else:
            target = list(mono)
            for v, order in ds:
                target[v] -= order
            for v, e in xs:
                target[v] += e
            key = tuple(target)
            val = out.get(key, 0) + coeff * ff
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def apply_operator(op: Operator, poly: Poly) -> Poly:
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


def commutator_apply(a: Operator, b: Operator, poly: Poly) -> Poly:
    """[a, b] applied to poly."""
    first = apply_operator(a, apply_operator(b, poly))
    second = apply_operator(b, apply_operator(a, poly))
    for mono, c in second.items():
        val = first.get(mono, 0) - c
        if val:
            first[mono] = val
        else:
            first.pop(mono, None)
    return first


def monomials_of_degree(var_count: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples of the given total degree."""
    if var_count == 0:
        if degree == 0:
            yield ()
        return

    def rec(position: int, remaining: int, prefix: list[int]) -> Iterator[Monomial]:
        if position == var_count - 1:
            yield tuple(prefix + [remaining])
            return
        for e in range(remaining + 1):
            yield from rec(position + 1, remaining - e, prefix + [e])

    yield from rec(0, degree, [])


def grevlex_mono_key(mono: Monomial) -> tuple:
    """Sort key putting same-degree monomials in graded reverse lexicographic order."""
    return (sum(mono), tuple(reversed(mono)))


def poly_degree(poly: Poly) -> int:
    return max((sum(m) for m in poly), default=0)
