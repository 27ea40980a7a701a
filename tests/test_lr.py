from hypothesis import given, settings
from hypothesis import strategies as st

from branchbox import branch, lr, schur
from branchbox.lr import (cache_snapshot, clear_cache, coproduct, lr_coefficient, lr_kernel,
                          lr_multi)
from branchbox.partitions import (conjugate, enumerate_partitions, partitions_between,
                                  partitions_of)
from branchbox.schur import multiply_schur, schur_vector

from .oracles import lr_fillings_reference

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


def _triples(max_size):
    """Every (lam, mu, nu) with |lam| <= max_size and |mu| + |nu| = |lam|."""
    for size in range(max_size + 1):
        for lam in partitions_of(size):
            for k in range(size + 1):
                for mu in partitions_of(k):
                    for nu in partitions_of(size - k):
                        yield lam, mu, nu


def test_lr_kernel_matches_the_dict_keyed_filler_to_size_10():
    clear_cache()
    try:
        checked = nonzero = 0
        for lam, mu, nu in _triples(10):
            c = lr_kernel(lam, mu, nu)
            assert c == lr_fillings_reference(lam, mu, nu), (lam, mu, nu)
            checked += 1
            nonzero += c > 0
        assert (checked, nonzero) == (36032, 5462)
    finally:
        clear_cache()


@st.composite
def lr_triples(draw, max_size=16):
    """lam of size <= max_size, mu inside lam, nu inside lam of the remaining size."""
    lam = draw(st.sampled_from(list(partitions_of(draw(st.integers(0, max_size))))))
    mu = draw(st.sampled_from(list(partitions_between(
        (), lam, draw(st.integers(0, sum(lam)))))))
    nu = draw(st.sampled_from(list(partitions_between((), lam, sum(lam) - sum(mu)))))
    return lam, mu, nu


@given(lr_triples())
@settings(max_examples=300, deadline=None)
def test_lr_kernel_matches_the_dict_keyed_filler_to_size_16(triple):
    clear_cache()
    try:
        assert lr_kernel(*triple) == lr_fillings_reference(*triple)
    finally:
        clear_cache()


def test_lr_coefficient_never_reaches_schur_code(monkeypatch):
    # converse of test_multiply_schur_never_reaches_lr_code: LR checks Schur only
    # while it is computed without Schur arithmetic
    def refuse(*args):
        raise AssertionError("lr_coefficient called Schur code")

    for name in ("_kostka", "_brauer_product", "schur_expand"):
        monkeypatch.setattr(schur, name, refuse)
    clear_cache()
    try:
        table = {lam: lr_coefficient(lam, (3, 2, 1), (2, 1)) for lam in partitions_of(9)}
    finally:
        clear_cache()
    assert sum(table.values()) == 17
    assert {lam: c for lam, c in table.items() if c > 1} == {
        (4, 3, 2): 2, (4, 3, 1, 1): 2, (4, 2, 2, 1): 2, (3, 3, 2, 1): 2}
    assert table[(5, 3, 1)] == 1 and table[(3, 2, 1, 1, 1, 1)] == 0


def _coproduct_reference(tau, mus):
    """c^tau_{mu,nu} by the dict-keyed filler for every mu in mus and nu inside tau."""
    return {(mu, nu): lr_fillings_reference(tau, mu, nu)
            for mu in mus for nu in partitions_between((), tau, sum(tau) - sum(mu))}


def test_coproduct_matches_the_dict_keyed_filler_to_size_10():
    clear_cache()
    try:
        checked = nonzero = 0
        for tau in enumerate_partitions(10):
            got = coproduct(tau)
            mus = [mu for k in range(sum(tau) + 1) for mu in partitions_between((), tau, k)]
            want = _coproduct_reference(tau, mus)
            assert len(dict(got)) == len(got), tau  # each (mu, nu) once
            assert dict(got) == {key: c for key, c in want.items() if c}, tau
            checked += len(want)
            nonzero += len(got)
        assert (checked, nonzero) == (8376, 5462)
    finally:
        clear_cache()


@st.composite
def taus_and_mus(draw, max_size=14):
    """tau of size <= max_size and mu inside tau."""
    tau = draw(st.sampled_from(list(partitions_of(draw(st.integers(0, max_size))))))
    mu = draw(st.sampled_from(list(partitions_between((), tau, draw(st.integers(0, sum(tau)))))))
    return tau, mu


@given(taus_and_mus())
@settings(max_examples=150, deadline=None)
def test_coproduct_matches_the_dict_keyed_filler_to_size_14(pair):
    tau, mu = pair
    clear_cache()
    try:
        got = {(m, nu): c for (m, nu), c in coproduct(tau) if m == mu}
        want = _coproduct_reference(tau, [mu])
        assert got == {key: c for key, c in want.items() if c}
    finally:
        clear_cache()


def test_clear_cache_empties_both_memos():
    clear_cache()
    branch.o_restrict_table((3, 2, 1))
    assert cache_snapshot() and lr._coproduct_memo
    clear_cache()
    assert cache_snapshot() == {} and lr._coproduct_memo == {}
