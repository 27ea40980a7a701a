from hypothesis import given, settings
from hypothesis import strategies as st

from branchbox.lr import cache_snapshot, clear_cache, lr_coefficient, lr_multi
from branchbox.partitions import conjugate, enumerate_partitions, partitions_of
from branchbox.schur import multiply_schur, schur_vector

small_partitions = st.lists(st.integers(1, 4), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


def test_lr_examples():
    assert lr_coefficient((3, 1), (3, 1), ()) == 1
    assert lr_coefficient((2, 2), (2,), (1, 1)) == 0
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2


def test_lr_degenerate_shapes():
    assert lr_coefficient((2,), (3,), ()) == 0  # size mismatch
    assert lr_coefficient((2, 2), (1, 1, 1), (1,)) == 0  # mu not inside lam
    assert lr_coefficient((), (), ()) == 1


@given(small_partitions, small_partitions)
@settings(max_examples=80, deadline=None)
def test_lr_symmetry_and_conjugation(mu, nu):
    for lam in partitions_of(sum(mu) + sum(nu), max_length=8):
        c = lr_coefficient(lam, mu, nu)
        assert c == lr_coefficient(lam, nu, mu)
        assert c == lr_coefficient(conjugate(lam), conjugate(mu), conjugate(nu))


def test_lr_matches_schur_product_small():
    m = 6
    for mu in enumerate_partitions(4, max_length=3):
        for nu in enumerate_partitions(4, max_length=3):
            prod = multiply_schur(schur_vector(m, {mu: 1}),
                                  schur_vector(m, {nu: 1}))
            for lam in partitions_of(sum(mu) + sum(nu), max_length=m):
                assert prod.coeffs.get(lam, 0) == lr_coefficient(lam, mu, nu)


def test_lr_multi_examples():
    assert lr_multi((3, 1), [(3, 1)]) == 1
    assert lr_multi((2,), [(1,), (1,)]) == 1
    assert lr_multi((2, 1), [(1,), (1,), (1,)]) == 2


def test_lr_multi_two_factors_equal_lr():
    for mu in enumerate_partitions(3):
        for nu in enumerate_partitions(3):
            for lam in partitions_of(sum(mu) + sum(nu)):
                assert lr_multi(lam, [mu, nu]) == lr_coefficient(lam, mu, nu)


@given(st.permutations([(2, 1), (1, 1), (2,)]))
@settings(max_examples=6, deadline=None)
def test_lr_multi_factor_permutation_invariance(factors):
    reference = sorted(
        (lam, lr_multi(lam, [(2, 1), (1, 1), (2,)]))
        for lam in partitions_of(7))
    got = sorted((lam, lr_multi(lam, list(factors))) for lam in partitions_of(7))
    assert got == reference


def test_lr_multi_empty_factor_list():
    assert lr_multi((), []) == 1
    assert lr_multi((1,), []) == 0


def _lr_multi_unpruned(lam, factors):
    """Sum over every partition tau of each running size, no containment pruning."""
    state = {(): 1}
    running = 0
    for gamma in factors:
        running += sum(gamma)
        nxt = {}
        for kappa, mult in state.items():
            for tau in partitions_of(running):
                c = lr_coefficient(tau, kappa, gamma)
                if c:
                    nxt[tau] = nxt.get(tau, 0) + mult * c
        state = nxt
    return state.get(tuple(lam), 0)


def test_lr_multi_matches_unpruned_sum():
    checked = 0
    for lam in enumerate_partitions(6):
        size = sum(lam)
        for first in enumerate_partitions(size):
            assert lr_multi(lam, [first]) == _lr_multi_unpruned(lam, [first])
            for second in enumerate_partitions(size - sum(first)):
                factors = [first, second]
                assert lr_multi(lam, factors) == _lr_multi_unpruned(lam, factors)
                third = partitions_of(size - sum(first) - sum(second))
                for factors in ([first, second, t] for t in third):
                    assert lr_multi(lam, factors) == _lr_multi_unpruned(lam, factors)
                    checked += 1
    assert checked > 1000


def test_memo_stores_one_entry_under_the_normalized_key():
    clear_cache()
    try:
        assert lr_coefficient((2, 1), (1,), (2,)) == 1
        assert cache_snapshot() == {((2, 1), (2,), (1,)): 1}  # mu >= nu
        assert lr_coefficient((2, 1), (2,), (1,)) == 1
        assert cache_snapshot() == {((2, 1), (2,), (1,)): 1}  # swapped: no new entry
    finally:
        clear_cache()
