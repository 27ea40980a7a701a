from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchbox
from branchbox import branch, jsonio, lr, schur
from branchbox.errors import LabelError, UsageError
from branchbox.partitions import (IrrepLabel, Signature, as_partition,
                                  as_signature, associate_o,
                                  check_signature_rank, conjugate, contains,
                                  enumerate_partitions, grevlex_key,
                                  is_admissible_o, partitions_between,
                                  partitions_of, signature_weight,
                                  weight_to_signature)

from .oracles import even_column_partitions, even_row_partitions, partition_count

partitions = st.lists(st.integers(1, 6), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


def test_as_partition_canonicalizes():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition(()) == ()
    assert as_partition((5,)) == (5,)


def test_as_partition_rejects_bad_input():
    with pytest.raises(UsageError):
        as_partition((1, 2))
    with pytest.raises(UsageError):
        as_partition((2, -1))


def _as_partition_reference(parts):
    """as_partition as it was before its one-pass check: strip, then check part by part."""
    seq = list(parts)
    while seq and seq[-1] == 0:
        seq.pop()
    for a in seq:
        if not isinstance(a, int) or a <= 0:
            raise UsageError(f"partition parts must be positive integers: {seq!r}")
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise UsageError(f"partition parts must be weakly decreasing: {seq!r}")
    return tuple(seq)


AS_PARTITION_INPUTS = {
    "list": lambda: [3, 2, 2],
    "tuple": lambda: (3, 2, 2),
    "range": lambda: range(4, 0, -1),
    "generator": lambda: (a for a in (3, 1, 1)),
    "trailing zeros": lambda: (3, 2, 0, 0),
    "inner zero": lambda: (2, 0, 1),
    "increasing": lambda: (1, 2),
    "negative": lambda: (2, -1),
    "bool": lambda: (True,),
    "float": lambda: (2.0,),
    "str": lambda: ("a",),
    "trailing float zero": lambda: (2, 0.0),
    "trailing Fraction zero": lambda: (2, Fraction(0)),
}


def _outcome(fn, parts):
    try:
        result = fn(parts)
    except Exception as exc:
        return type(exc), str(exc)
    return type(result), result, [type(a) for a in result]


@pytest.mark.parametrize("name", AS_PARTITION_INPUTS)
def test_as_partition_keeps_the_part_by_part_results(name):
    make = AS_PARTITION_INPUTS[name]
    assert _outcome(as_partition, make()) == _outcome(_as_partition_reference, make())


def test_as_partition_returns_a_canonical_tuple_itself():
    lam = (4, 2, 2, 1)
    assert as_partition(lam) is lam
    assert as_partition(()) == ()


# Each public entry point with a placeholder p for one partition argument;
# the other arguments are valid and in the stable range.
BOUNDARY_CALLS = [
    lambda p: lr.lr_coefficient(p, (1,), (1,)),
    lambda p: lr.lr_coefficient((2,), p, (1,)),
    lambda p: lr.lr_coefficient((2,), (1,), p),
    lambda p: lr.lr_multi(p, [(1,), (1,)]),
    lambda p: lr.lr_multi((2,), [(1,), p]),
    lambda p: schur.kostka(p, (1, 1, 1)),
    lambda p: schur.kostka((2, 1), p),
    lambda p: schur.schur_expand(p, 3),
    lambda p: schur.orbit_vectors(p, 3),
    lambda p: branch.gl_to_o(p, (1,), 9),
    lambda p: branch.gl_to_o((3,), p, 9),
    lambda p: branch.gl_to_sp(p, (1,), 9),
    lambda p: branch.gl_to_sp((3,), p, 9),
    lambda p: branch.o_tensor_stable(p, (1,), (3,), 15),
    lambda p: branch.o_tensor_stable((2,), p, (3,), 15),
    lambda p: branch.o_tensor_stable((2,), (1,), p, 15),
    lambda p: branch.sp_tensor_stable(p, (1,), (3,), 9),
    lambda p: branch.sp_tensor_stable((2,), p, (3,), 9),
    lambda p: branch.sp_tensor_stable((2,), (1,), p, 9),
    lambda p: branch.o_restrict_stable(p, (1,), (1,), 9, 9),
    lambda p: branch.o_restrict_stable((2,), p, (1,), 9, 9),
    lambda p: branch.o_restrict_stable((2,), (1,), p, 9, 9),
    lambda p: branch.gl_tensor_rational(Signature(p, ()), as_signature((1,), ()),
                                        as_signature((3,), ()), 9),
    lambda p: branch.gl_tensor_rational(as_signature((2,), ()), Signature((1,), p),
                                        as_signature((3,), ()), 9),
]


@pytest.mark.parametrize("bad", [(1, 2), (2, -1)])
@pytest.mark.parametrize("call", range(len(BOUNDARY_CALLS)))
def test_public_entry_points_reject_bad_partitions(call, bad):
    BOUNDARY_CALLS[call]((1,))  # the call is valid with a good partition in place
    with pytest.raises(UsageError):
        BOUNDARY_CALLS[call](bad)


def test_trusting_kernels_stay_out_of_the_public_api():
    # these take partitions unchecked, so only library code may call them
    trusting = {"lr_kernel", "skew_contents", "coproduct", "monomial_product",
                "o_restrict_kernel", "o_restrict_table", "tensor_kernel", "admissible_o_kernel"}
    assert not trusting & set(branchbox.__all__)
    assert not [name for name in branchbox.__all__ if name.startswith("_")]


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate((3, 1)) == (2, 1, 1)


@given(partitions)
@settings(max_examples=200)
def test_conjugate_involution_and_stats(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)
    if lam:
        assert len(conjugate(lam)) == lam[0]


def test_conjugate_involution_exhaustive_to_12():
    for lam in enumerate_partitions(12):
        assert conjugate(conjugate(lam)) == lam


def test_admissible_o_examples():
    assert is_admissible_o((), 1)
    assert not is_admissible_o((2, 2), 3)
    assert is_admissible_o((3, 1), 4)


def test_associate_o_examples():
    assert associate_o((1,), 3) == (1, 1)
    assert associate_o((), 2) == (1, 1)
    assert associate_o((1,), 2) == (1,)


def test_associate_o_rejects_inadmissible():
    with pytest.raises(LabelError):
        associate_o((2, 2), 3)


def test_associate_o_involution_exhaustive():
    for n in range(1, 9):
        for lam in enumerate_partitions(8):
            if is_admissible_o(lam, n):
                assert associate_o(associate_o(lam, n), n) == lam


def test_enumerate_partitions_examples():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(2) == [(), (1,), (2,), (1, 1)]
    assert enumerate_partitions(3, max_length=1) == [(), (1,), (2,), (3,)]


def test_enumerate_partitions_counts_against_recurrence():
    for k in range(11):
        expected = sum(partition_count(j) for j in range(k + 1))
        assert len(enumerate_partitions(k)) == expected


def test_enumerate_partitions_sorted_unique():
    seq = enumerate_partitions(9)
    assert len(set(seq)) == len(seq)
    keys = [grevlex_key(p) for p in seq]
    assert keys == sorted(keys)


def test_partitions_of_respects_bounds():
    assert list(partitions_of(4, max_length=2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions_of(0)) == [()]


def test_partitions_between():
    inner, outer = (1,), (3, 2)
    got = set(partitions_between(inner, outer, 3))
    assert got == {(3,), (2, 1)}
    assert set(partitions_between((), (2, 2), 2)) == {(2,), (1, 1)}


def test_partitions_between_matches_a_brute_force_filter():
    # every inner <= outer pair with |outer| <= 6, inner shorter, as long as, or longer
    # than any tail, against containment checked cell by cell
    def inside(small, big):
        return len(small) <= len(big) and all(a <= b for a, b in zip(small, big))

    labels = enumerate_partitions(6)
    for outer in labels:
        for inner in labels:
            for size in range(8):
                want = [tau for tau in partitions_of(size)
                        if inside(inner, tau) and inside(tau, outer)]
                got = list(partitions_between(inner, outer, size))
                assert sorted(got) == sorted(want), (inner, outer, size)
                assert len(set(got)) == len(got)


def test_even_series_index_sets():
    assert even_row_partitions(4, 2) == [(4,), (2, 2)]
    assert even_row_partitions(3, 2) == []
    assert even_column_partitions(2, 2) == [(1, 1)]
    assert even_column_partitions(4, 4) == [(2, 2), (1, 1, 1, 1)]


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (1, 1, 1))


def test_signature_helpers():
    sig = as_signature((2, 1), (1,))
    assert sig == Signature((2, 1), (1,))
    check_signature_rank(sig, 3)
    with pytest.raises(LabelError):
        check_signature_rank(sig, 2)
    w = signature_weight(sig, 4)
    assert w == (2, 1, 0, -1)
    assert weight_to_signature(w) == sig


def test_irrep_label_validation():
    IrrepLabel("GL", 3, Signature((1,), (1,)))
    IrrepLabel("O", 5, (2, 2))
    with pytest.raises(LabelError):
        IrrepLabel("O", 3, (2, 2))  # column sums 2+2 > 3
    with pytest.raises(LabelError):
        IrrepLabel("Sp", 4, (1, 1, 1))  # rank 4 means Sp_4, length <= 2
    with pytest.raises(LabelError):
        IrrepLabel("O", 5, Signature((1,), ()))  # signatures are GL-only


@pytest.mark.parametrize("family,rank,given,canonical", [
    ("GL", 3, (2, 1, 0), (2, 1)),
    ("GL", 3, [2, 1], (2, 1)),
    ("O", 5, [2, 1], (2, 1)),
    ("O", 5, (1, 0, 0), (1,)),
    ("Sp", 4, [2, 2, 0], (2, 2)),
    ("GL", 3, Signature([2, 0], (1, 0)), Signature((2,), (1,))),
], ids=["GL-zeros", "GL-list", "O-list", "O-zeros", "Sp-list", "Signature"])
def test_irrep_label_stores_its_canonical_weight(family, rank, given, canonical):
    label, expected = IrrepLabel(family, rank, given), IrrepLabel(family, rank, canonical)
    assert label == expected
    assert hash(label) == hash(expected)
    assert label.weight == canonical and type(label.weight) is type(canonical)
    assert jsonio.dumps(jsonio.label_json(label)) == jsonio.dumps(jsonio.label_json(expected))
