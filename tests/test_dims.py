import ast
import hashlib
from pathlib import Path

import pytest

import branchbox
from branchbox import dims
from branchbox.dims import (MAX_HILBERT_PRODUCTS, PowerSeriesTruncated, dim_gl, dim_o, dim_so,
                            dim_sp, hilbert_check)
from branchbox.errors import BudgetError, StableRangeError, UsageError
from branchbox.partitions import enumerate_partitions, partitions_of
from branchbox.schur import eval_ones, schur_expand

from .oracles import ssyt_count


def test_dim_gl_examples():
    assert dim_gl((1,), 4) == 4
    assert dim_gl((2, 1), 2) == 2
    assert dim_gl((), 7) == 1
    assert dim_gl((1, 1, 1), 2) == 0


def test_dim_gl_matches_tableau_count():
    for lam in enumerate_partitions(6):
        for m in range(1, 6):
            assert dim_gl(lam, m) == ssyt_count(lam, m)
            assert dim_gl(lam, m) == eval_ones(schur_expand(lam, m))


def test_dim_so_examples():
    assert dim_so((1,), 5) == 5
    assert dim_so((1, 1), 5) == 10
    assert dim_so((2,), 5) == 14
    assert dim_so((1,), 4) == 4
    assert dim_so((1, 1), 7) == 21


def test_dim_sp_examples():
    assert dim_sp((1, 1), 2) == 5
    assert dim_sp((1,), 2) == 4
    assert dim_sp((2,), 2) == 10


def test_weyl_products_of_types_b_c_d_are_pinned():
    # one shared product serves dim_so (types B and D) and dim_sp (type C);
    # the digest was taken before it was shared
    values = [("so", n, mu, dim_so(mu, n))
              for n in range(1, 14) for mu in enumerate_partitions(9, max_length=n // 2)]
    values += [("sp", n, mu, dim_sp(mu, n))
               for n in range(7) for mu in enumerate_partitions(9, max_length=n)]
    assert len(values) == 1013
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "2d6461d2f2a7aadf38115c7e6a90f65314c3999c5ad2b1058d63deb25bf77f50")


def test_dim_length_bounds():
    with pytest.raises(UsageError):
        dim_so((1, 1, 1), 5)
    with pytest.raises(UsageError):
        dim_sp((1, 1, 1), 2)
    with pytest.raises(UsageError):
        dim_o((1, 1), 4)  # needs len < n/2
    assert dim_o((1, 1), 5) == 10


def test_power_series_arithmetic():
    a = PowerSeriesTruncated.from_list([1, -1], 4)      # 1 - q
    geom = PowerSeriesTruncated.binomial_inverse_power(1, 1, 4)
    assert geom.coeffs == (1, 1, 1, 1, 1)
    assert (a * geom).coeffs == (1, 0, 0, 0, 0)         # (1 - q) (1 - q)^(-1) = 1
    sq = PowerSeriesTruncated.binomial_inverse_power(2, 3, 6)
    assert sq.coeffs == (1, 0, 3, 0, 6, 0, 10)
    with pytest.raises(UsageError):
        a * PowerSeriesTruncated.from_list([1], 2)


def test_invariant_series_inverts_its_generators_polynomial():
    # hilbert_check's invariant series (1 - q^2)^(-g), times the expanded
    # (1 - q^2)^g, is 1 up to the truncation degree
    from math import comb
    for g in range(8):
        for d in range(15):
            poly = [0] * (d + 1)
            for b in range(min(g, d // 2) + 1):
                poly[2 * b] = (-1) ** b * comb(g, b)
            product = (PowerSeriesTruncated.from_list(poly, d)
                       * PowerSeriesTruncated.binomial_inverse_power(2, g, d))
            assert product.coeffs == (1,) + (0,) * d, (g, d)


def test_hilbert_check_small_closed_form():
    ok, series = hilbert_check(5, 1, 4)
    assert ok
    assert series["harmonic"].coeffs == (1, 5, 14, 30, 55)
    from math import comb
    assert series["full"].coeffs == tuple(comb(d + 4, 4) for d in range(5))


def test_hilbert_check_acceptance_pairs():
    for n, m in ((5, 1), (5, 2), (6, 2), (7, 3)):
        ok, _ = hilbert_check(n, m, 8)
        assert ok, (n, m)


def test_hilbert_check_range_error():
    with pytest.raises(StableRangeError, match="n > 2"):
        hilbert_check(4, 2, 4)


@pytest.mark.parametrize("n,m,d", [(5, 2, 1000), (3, 1, 3000), (5, 2, 10**8), (3, 1, 499),
                                   (100001, 1, 0), (201, 100, 12)])
def test_hilbert_check_refuses_an_oversized_request_before_any_work(monkeypatch, n, m, d):
    def no_work(*args, **kwargs):
        raise AssertionError("a label or series was built before the budget check")
    monkeypatch.setattr(dims, "partitions_of", no_work)
    monkeypatch.setattr(dims.PowerSeriesTruncated, "from_list", no_work)
    with pytest.raises(BudgetError, match=f"at n = {n}, m = {m} exceed {MAX_HILBERT_PRODUCTS}$"):
        hilbert_check(n, m, d)


def test_hilbert_budget_admits_the_largest_series_it_counts():
    # (498+1)^2 series products and 499 labels of one Weyl factor: 249,500
    assert hilbert_check(3, 1, 498)[0]


@pytest.mark.parametrize("n,m,d", [(5, 1, 4), (7, 3, 12), (10, 3, 12), (9, 4, 7), (11, 5, 3)])
def test_hilbert_products_count_every_label(n, m, d):
    labels = sum(1 for j in range(d + 1) for _ in partitions_of(j, max_length=m))
    k = n // 2
    assert dims._hilbert_products(n, m, d) == (
        (d + 1) ** 2 + labels * (k * (k + 1) // 2 + m * (m - 1) // 2))


def test_library_has_no_assert_statements():
    # python -O drops asserts, so an invariant check must raise an error instead
    root = Path(branchbox.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(root.rglob("*.py"))) > 10
    assert found == []
