import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchbox import branch, cli, lr
from branchbox.branch import (ENFORCE, WARN_AND_COMPUTE, _shifted_lr,
                              gl_tensor_rational, gl_to_o, gl_to_sp,
                              o_restrict_stable, o_tensor_stable,
                              sp_tensor_stable)
from branchbox.errors import (LabelError, StableRangeError, StableRangeWarning)
from branchbox.lr import lr_coefficient, lr_multi
from branchbox.partitions import Signature, contains, enumerate_partitions

from .oracles import even_column_partitions, even_row_partitions, tensor_triple_loop

small_partitions = st.lists(st.integers(1, 3), max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


def test_gl_to_o_examples():
    assert gl_to_o((2, 1), (2, 1), 7) == 1
    assert gl_to_o((2,), (), 5) == 1
    assert gl_to_o((1, 1), (), 5) == 0


def test_gl_to_sp_examples():
    assert gl_to_sp((2, 1), (2, 1), 3) == 1
    assert gl_to_sp((1, 1), (), 2) == 1
    assert gl_to_sp((2,), (), 2) == 0


def test_o_tensor_examples():
    assert o_tensor_stable((1,), (1,), (), 5) == 1
    assert o_tensor_stable((1,), (1,), (2,), 5) == 1
    assert o_tensor_stable((1,), (), (1,), 5) == 1


def test_sp_tensor_examples():
    assert sp_tensor_stable((1,), (1,), (1, 1), 3) == 1
    assert sp_tensor_stable((1,), (1,), (), 3) == 1
    assert sp_tensor_stable((), (2, 1), (2, 1), 4) == 1


def test_o_restrict_examples():
    assert o_restrict_stable((1,), (1,), (), 3, 3) == 1
    assert o_restrict_stable((2,), (), (), 3, 3) == 1
    assert o_restrict_stable((2,), (1,), (1,), 3, 3) == 1


def test_o_restrict_factors_through_gl_intermediate():
    # sum over tau of c^tau_{mu,nu} times the even-row sum of c^lam_{tau,delta}
    # against the three-factor form sum_delta c^lam_{mu,nu,delta}
    checked = 0
    for lam in enumerate_partitions(8, max_length=4):
        size = sum(lam)
        for mu in enumerate_partitions(size):
            for nu in enumerate_partitions(size - sum(mu)):
                rest = size - sum(mu) - sum(nu)
                want = sum(lr_multi(lam, [mu, nu, delta])
                           for delta in even_row_partitions(rest, len(lam)))
                assert o_restrict_stable(lam, mu, nu, 9, 9) == want, (lam, mu, nu)
                checked += 1
    assert checked > 7000


def test_restrict_table_takes_each_even_row_sum_once(monkeypatch):
    # one E_lam(tau) per tau <= lam with |lam| - |tau| even, and no other
    calls = []
    even_row_sum = branch._even_row_sum

    def counted(lam, tau):
        calls.append((lam, tau))
        return even_row_sum(lam, tau)

    monkeypatch.setattr(branch, "_even_row_sum", counted)
    lam = (4, 3, 1)
    branch.o_restrict_table(lam)
    want = [(lam, tau) for tau in enumerate_partitions(sum(lam), max_length=len(lam))
            if contains(lam, tau) and (sum(lam) - sum(tau)) % 2 == 0]
    assert sorted(calls) == sorted(want)


def _fill_keys(lam):
    """(tau, mu) for each tau <= lam with E_lam(tau) > 0 and each mu <= tau."""
    return sorted((tau, mu) for tau in enumerate_partitions(sum(lam), max_length=len(lam))
                  if contains(lam, tau) and branch._even_row_sum(lam, tau)
                  for mu in enumerate_partitions(sum(tau), max_length=len(tau))
                  if contains(tau, mu))


def test_restrict_table_fills_each_tau_once(monkeypatch):
    # one skew fill per (tau, mu) with tau weighted, and none for a later
    # table whose weighted tau were all seen before
    fills = []
    by_content = lr._fillings_by_content

    def counted(tau, mu):
        fills.append((tau, mu))
        return by_content(tau, mu)

    monkeypatch.setattr(lr, "_fillings_by_content", counted)
    lr.clear_cache()
    try:
        branch.o_restrict_table((4, 3, 1))
        assert sorted(fills) == _fill_keys((4, 3, 1))
        seen = len(fills)
        assert {tau for tau, _ in _fill_keys((3, 2, 1))} <= set(lr._coproduct_memo)
        warm = branch.o_restrict_table((3, 2, 1))
        assert len(fills) == seen
        lr.clear_cache()
        assert branch.o_restrict_table((3, 2, 1)) == warm
        assert sorted(fills[seen:]) == _fill_keys((3, 2, 1))
    finally:
        lr.clear_cache()


def test_gl_tensor_rational_examples():
    assert gl_tensor_rational(Signature((1,), ()), Signature((1,), ()),
                              Signature((2,), ()), 2) == 1
    assert gl_tensor_rational(Signature((1,), ()), Signature((), (1,)),
                              Signature((), ()), 2) == 1
    assert gl_tensor_rational(Signature((1,), ()), Signature((), (1,)),
                              Signature((1,), (1,)), 2) == 1


def test_gl_tensor_rational_rejects_overlong_signature():
    with pytest.raises(LabelError):
        gl_tensor_rational(Signature((1,), (1,)), Signature((), ()),
                           Signature((), ()), 1)


def test_enforce_raises_with_named_bound():
    with pytest.raises(StableRangeError, match=r"n > 2\*len\(lam\) = 2"):
        gl_to_o((2,), (), 2)
    with pytest.raises(StableRangeError, match=r"n >= len\(lam\)"):
        gl_to_sp((1, 1, 1), (1,), 2)
    with pytest.raises(StableRangeError):
        o_tensor_stable((1,), (1,), (2,), 4)
    with pytest.raises(StableRangeError):
        sp_tensor_stable((1,), (1,), (2,), 2)
    with pytest.raises(StableRangeError):
        o_restrict_stable((1,), (1,), (), 2, 3)


def test_warn_policy_computes_and_warns():
    with pytest.warns(StableRangeWarning):
        value = gl_to_o((2,), (), 2, policy=WARN_AND_COMPUTE)
    assert value == 1  # same formula, evaluated outside the guarantee


def test_label_errors_precede_stability_gate():
    # lam inadmissible for O_n must fail as a label, not as a range problem
    with pytest.raises(LabelError):
        o_tensor_stable((2, 2), (2, 2), (1, 1, 1, 1, 1), 4)
    with pytest.raises(LabelError):
        gl_to_sp((1, 1, 1, 1, 1), (), 2)


def test_n_independence_across_stable_window():
    for lam in enumerate_partitions(4, max_length=2):
        for mu in enumerate_partitions(4, max_length=2):
            vals_o = {gl_to_o(lam, mu, n) for n in (5, 6, 7, 9)}
            assert len(vals_o) == 1
            vals_sp = {gl_to_sp(lam, mu, n) for n in (2, 3, 5)}
            assert len(vals_sp) == 1


@given(small_partitions, small_partitions)
@settings(max_examples=60, deadline=None)
def test_o_tensor_symmetric_in_factors(mu, nu):
    n = 2 * (len(mu) + len(nu)) + 1
    for lam in enumerate_partitions(sum(mu) + sum(nu)):
        if (sum(mu) + sum(nu) - sum(lam)) % 2:
            continue
        if len(lam) > len(mu) + len(nu):
            continue
        assert o_tensor_stable(mu, nu, lam, n) == o_tensor_stable(nu, mu, lam, n)


SMALL_LAMS = enumerate_partitions(8)


def _label_id(lam) -> str:
    return ",".join(map(str, lam)) or "empty"


@pytest.mark.parametrize("lam", SMALL_LAMS, ids=_label_id)
def test_gl_to_o_equals_the_even_row_sum(lam):
    # direct restatement of the formula: c^lam_{mu,delta} summed over even-row delta
    for mu in enumerate_partitions(sum(lam)):
        expected = sum(lr_coefficient(lam, mu, delta)
                       for delta in even_row_partitions(sum(lam) - sum(mu)))
        assert gl_to_o(lam, mu, 17) == expected, mu


@pytest.mark.parametrize("lam", SMALL_LAMS, ids=_label_id)
def test_gl_to_sp_equals_the_even_column_sum(lam):
    # direct restatement of the formula: c^lam_{mu,delta} summed over even-column delta
    for mu in enumerate_partitions(sum(lam)):
        expected = sum(lr_coefficient(lam, mu, delta)
                       for delta in even_column_partitions(sum(lam) - sum(mu)))
        assert gl_to_sp(lam, mu, 8) == expected, mu


TENSOR_PAIRS = ([(mu, nu) for mu in enumerate_partitions(4) for nu in enumerate_partitions(4)]
                + [((4, 3, 2), (3, 2, 1)), ((2, 1), (1, 1)), ((3, 2, 1), (2, 1)),
                   ((4, 2), (3, 1)), ((5, 3, 1), (4, 2, 1))])


def test_tensor_kernel_equals_the_triple_loop():
    # every target of a tensor table, against the sum over every (alpha, beta, delta)
    checked = 0
    for mu, nu in TENSOR_PAIRS:
        for lam in cli._tensor_targets(mu, nu, lambda lam: True):
            assert branch.tensor_kernel(mu, nu, lam) == tensor_triple_loop(mu, nu, lam), \
                (mu, nu, lam)
            checked += 1
    assert checked > 3000


@given(small_partitions, small_partitions, st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_gl_tensor_rational_shift_invariance(pp, pm, extra_mu, extra_nu):
    mu = Signature(pp, pm)
    nu = Signature(pm, pp)
    n = max(len(pp) + len(pm), 1) * 2 + 2
    # target: anything reachable; use the product of sizes to stay small
    lam = Signature(pp, pm)
    base = _shifted_lr(mu, nu, lam, n, (pm[0] if pm else 0),
                       (pp[0] if pp else 0))
    shifted = _shifted_lr(mu, nu, lam, n, (pm[0] if pm else 0) + extra_mu,
                          (pp[0] if pp else 0) + extra_nu)
    assert base == shifted
    assert gl_tensor_rational(mu, nu, lam, n) == base


def test_dimension_conservation_restriction():
    from branchbox.dims import dim_gl, dim_o
    for lam in enumerate_partitions(4):
        n = 2 * max(sum(lam), 1) + 1
        total = 0
        for mu in enumerate_partitions(sum(lam), max_length=len(lam) or 1):
            c = gl_to_o(lam, mu, n)
            if c:
                total += c * dim_o(mu, n)
        assert total == dim_gl(lam, n)
