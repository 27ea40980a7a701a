import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchbox import lr
from branchbox.errors import UsageError
from branchbox.partitions import (enumerate_partitions, even_column_partitions,
                                  even_row_partitions, partitions_of)
from branchbox.schur import (DominantMonomialPoly, SchurVector, decompose,
                             dmp_multiply, eval_ones, kostka, monomial_product,
                             multiply_schur, orbit_size, schur_expand,
                             schur_vector)

from .oracles import (dense_product, dense_symmetric_poly, dominant_part,
                      dominated, graded_sym_character, kostka_brute,
                      ssyt_count)

small_partitions = st.lists(st.integers(1, 4), max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


def test_schur_expand_examples():
    assert schur_expand((1, 1, 1), 2).terms == {}
    assert schur_expand((2, 1), 2).terms == {(2, 1): 1}
    assert schur_expand((2,), 2).terms == {(2,): 1, (1, 1): 1}


def test_schur_expand_coefficients_are_kostka():
    for lam in enumerate_partitions(5):
        poly = schur_expand(lam, 3)
        for key, coeff in poly.terms.items():
            assert coeff == kostka(lam, key)
            assert coeff == kostka_brute(lam, key)


def test_schur_expand_support_is_the_dominance_interval():
    for lam in enumerate_partitions(6):
        for m in range(5):
            terms = schur_expand(lam, m).terms
            expected = {kappa for kappa in enumerate_partitions(sum(lam), max_length=m)
                        if dominated(kappa, lam)}
            assert set(terms) == expected, (lam, m)
            for kappa, coeff in terms.items():
                assert coeff == kostka_brute(lam, kappa), (lam, kappa)


def test_monomial_product_matches_dense_brute_force():
    seen_equal_orbits = seen_overflow = False
    for m in range(1, 5):
        keys = enumerate_partitions(4, max_length=m)
        for a in keys:
            for b in keys:
                dense = dense_product(dense_symmetric_poly({a: 1}, m),
                                      dense_symmetric_poly({b: 1}, m))
                assert monomial_product(a, b, m) == dominant_part(dense), (a, b, m)
                seen_equal_orbits |= a != b and orbit_size(a, m) == orbit_size(b, m)
                seen_overflow |= len(a) + len(b) > m
    assert seen_equal_orbits and seen_overflow


def test_monomial_product_rejects_keys_longer_than_m():
    with pytest.raises(UsageError):
        monomial_product((1, 1, 1), (1,), 2)
    with pytest.raises(UsageError):
        monomial_product((1,), (1, 1, 1), 2)


def test_kostka_example():
    assert kostka((2, 1), (1, 1, 1)) == 2


def test_eval_ones_matches_ssyt_count():
    for lam in enumerate_partitions(5):
        for m in (1, 2, 3):
            assert eval_ones(schur_expand(lam, m)) == ssyt_count(lam, m)


def test_decompose_round_trip():
    assert decompose(DominantMonomialPoly(2, 0, {})).coeffs == {}
    assert decompose(schur_expand((2,), 2)).coeffs == {(2,): 1}
    for lam in enumerate_partitions(6, max_length=3):
        assert decompose(schur_expand(lam, 3)).coeffs == {lam: 1}


def test_decompose_peels_long_monomial_orbit():
    # m_lam has 117 Schur terms here: more peels than a guess from the input
    # size allows, yet the leading key falls at every peel
    lam = (6, 4, 4, 3, 1)
    vec = decompose(DominantMonomialPoly(10, 18, {lam: 1}))
    back: dict = {}
    for kappa, c in vec.coeffs.items():
        for key, k in schur_expand(kappa, 10).terms.items():
            back[key] = back.get(key, 0) + c * k
    assert {key: c for key, c in back.items() if c} == {lam: 1}


def test_decompose_rejects_keys_longer_than_var_count():
    with pytest.raises(UsageError):
        decompose(DominantMonomialPoly(2, 3, {(1, 1, 1): 1}))
    with pytest.raises(UsageError):
        decompose(DominantMonomialPoly(2, 3, {(1, 2): 1}))


def test_decompose_canonicalizes_trailing_zeros():
    # (2, 1, 0) and (2, 1) name the same orbit in three variables
    padded = decompose(DominantMonomialPoly(3, 3, {(2, 1, 0): 1}))
    assert padded == decompose(DominantMonomialPoly(3, 3, {(2, 1): 1}))
    merged = decompose(DominantMonomialPoly(3, 3, {(2, 1, 0): 1, (2, 1): -1}))
    assert merged.coeffs == {}


def test_decompose_square_of_power_sum():
    # (x1 + x2)^2 expands to the dominant table {(2):1, (1,1):2}
    sq = dmp_multiply(schur_expand((1,), 2), schur_expand((1,), 2))
    assert decompose(sq).coeffs == {(2,): 1, (1, 1): 1}


def orbit_path_product(a: SchurVector, b: SchurVector) -> dict:
    """Reference for multiply_schur: monomial orbits in all m variables, then a peel."""
    m = a.var_count
    out: dict = {}
    for la, ca in a.coeffs.items():
        for lb, cb in b.coeffs.items():
            prod = decompose(dmp_multiply(schur_expand(la, m), schur_expand(lb, m)))
            for lam, c in prod.coeffs.items():
                out[lam] = out.get(lam, 0) + ca * cb * c
    return {lam: c for lam, c in out.items() if c}


def test_multiply_schur_examples():
    one = schur_vector(2, {(): 1})
    b = schur_vector(2, {(2, 1): 3})
    assert multiply_schur(one, b).coeffs == b.coeffs
    s1 = schur_vector(2, {(1,): 1})
    assert multiply_schur(s1, s1).coeffs == {(2,): 1, (1, 1): 1}
    s21 = schur_vector(4, {(2, 1): 1})
    prod = multiply_schur(s21, s21)
    assert prod.coeffs[(3, 2, 1)] == 2


def test_multiply_schur_matches_orbit_path_on_small_grid():
    # m runs below, at and above len(mu) + len(nu), so the variable cap both
    # truncates and is inactive somewhere on the grid
    seen_below = seen_above = False
    for m in range(8):
        for mu in enumerate_partitions(8, max_length=m):
            for nu in enumerate_partitions(8 - sum(mu), max_length=m):
                a, b = schur_vector(m, {mu: 1}), schur_vector(m, {nu: 1})
                assert multiply_schur(a, b).coeffs == orbit_path_product(a, b), (mu, nu, m)
                seen_below |= m < len(mu) + len(nu)
                seen_above |= m > len(mu) + len(nu)
    assert seen_below and seen_above


def test_multiply_schur_matches_orbit_path_on_signed_vectors():
    # s1 * (s2 - s11) = s3 - s111: the two s21 terms cancel
    s1 = schur_vector(3, {(1,): 1})
    assert multiply_schur(s1, schur_vector(3, {(2,): 1, (1, 1): -1})).coeffs == {
        (3,): 1, (1, 1, 1): -1}
    rng = random.Random(12)
    signs = (-3, -2, -1, 1, 2, 3)
    for _ in range(40):
        m = rng.randint(1, 5)
        pool = enumerate_partitions(4, max_length=m)
        a = schur_vector(m, {rng.choice(pool): rng.choice(signs) for _ in range(3)})
        b = schur_vector(m, {rng.choice(pool): rng.choice(signs) for _ in range(3)})
        assert multiply_schur(a, b).coeffs == orbit_path_product(a, b), (a, b)


def test_multiply_schur_never_reaches_lr_code(monkeypatch):
    # the Schur = LR identity checks LR only while the product is computed without it
    def refuse(*args):
        raise AssertionError("multiply_schur called LR code")

    monkeypatch.setattr(lr, "lr_kernel", refuse)
    monkeypatch.setattr(lr, "skew_contents", refuse)
    monkeypatch.setattr(lr, "_fillings_by_content", refuse)
    s21 = schur_vector(5, {(2, 1): 1})
    assert multiply_schur(s21, s21).coeffs == {
        (4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1,
        (2, 2, 2): 1, (2, 2, 1, 1): 1}
    a = schur_vector(6, {(3, 2, 1): 2, (4, 1): -1})
    b = schur_vector(6, {(2, 2): 1, (1,): 3})
    assert multiply_schur(a, b).coeffs == orbit_path_product(a, b)


def test_multiply_schur_rejects_mismatched_variable_counts():
    with pytest.raises(UsageError):
        multiply_schur(schur_vector(2, {(1,): 1}), schur_vector(3, {(1,): 1}))


@pytest.mark.parametrize("bad", [Fraction(1, 2), 1.5, Fraction(2, 1), 2.0, True])
def test_schur_vector_rejects_non_int_coefficients(bad):
    with pytest.raises(UsageError):
        schur_vector(2, {(1,): bad})


def test_schur_vector_stores_no_zero():
    assert schur_vector(2, {(1,): 0, (2,): 1}).coeffs == {(2,): 1}
    # (2, 1, 0) and (2, 1) name one Schur polynomial, so their coefficients add
    assert schur_vector(3, {(2, 1, 0): 1, (2, 1): -1}).coeffs == {}
    assert schur_vector(3, {(2, 1, 0): 1, (2, 1): 2}).coeffs == {(2, 1): 3}


@given(small_partitions, small_partitions)
@settings(max_examples=60, deadline=None)
def test_multiply_schur_commutes(lam, mu):
    a = schur_vector(6, {lam: 1})
    b = schur_vector(6, {mu: 1})
    assert multiply_schur(a, b).coeffs == multiply_schur(b, a).coeffs


@given(small_partitions, small_partitions)
@settings(max_examples=30, deadline=None)
def test_multiply_schur_stable_in_variable_count(lam, mu):
    # multiply_schur computes every m >= len(lam) + len(mu) in the same capped
    # variable count, so the reference is the uncapped orbit path at each m
    base = max(len(lam) + len(mu), 1)
    reference = None
    for m in range(base, base + 3):
        a, b = schur_vector(m, {lam: 1}), schur_vector(m, {mu: 1})
        expected = orbit_path_product(a, b)
        assert multiply_schur(a, b).coeffs == expected, m
        if reference is None:
            reference = expected
        else:
            assert expected == reference, m


def test_sym2_series_matches_brute_force_symmetric_algebra():
    # Sym(S^2 C^2): generators of GL_2 weight (2,0), (1,1), (0,2); generator
    # degree d carries weight degree 2d, and the Schur content there is the
    # even-row partitions, the delta-set that branch.gl_to_o sums over
    graded = graded_sym_character([(2, 0), (1, 1), (0, 2)], 3)
    for d in range(4):
        dom = dominant_part(graded[d])
        vec = decompose(DominantMonomialPoly(2, 2 * d, dom))
        assert vec.coeffs == {p: 1 for p in even_row_partitions(2 * d, 2)}
    for odd in (1, 3, 5):
        assert even_row_partitions(odd, 2) == []


def test_wedge2_series_matches_brute_force():
    # Sym(wedge^2 C^2) is a polynomial ring on the single weight (1,1); its
    # Schur content is the even-column partitions that branch.gl_to_sp sums over
    graded = graded_sym_character([(1, 1)], 3)
    for d in range(4):
        dom = dominant_part(graded[d])
        vec = decompose(DominantMonomialPoly(2, 2 * d, dom))
        assert vec.coeffs == {p: 1 for p in even_column_partitions(2 * d, 2)}


def test_cauchy_series_matches_brute_force():
    # Sym(C^2 x C^2): four generators with weight pairs e_i (x) e_j.
    # The sum of s_delta (x) s_delta over the diagonal pairs, expanded to
    # dense monomials, must reproduce the brute-force character exactly.
    weights = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    brute = graded_sym_character(weights, 4)
    for d in range(5):
        dense: dict[tuple[int, ...], int] = {}
        for delta in partitions_of(d, max_length=2):
            side = dense_symmetric_poly(schur_expand(delta, 2).terms, 2)
            for ml, cl in side.items():
                for mr, cr in side.items():
                    key = ml + mr
                    dense[key] = dense.get(key, 0) + cl * cr
        assert {k: v for k, v in dense.items() if v} == brute[d]
