"""Acceptance gate: the formula layer against the polynomial-model oracle.

Every check is exact (integer or rational arithmetic, tolerance zero) and
prints one "criterion N: PASS" / "criterion N: FAIL" line; run with -s to
see the lines while the suite is green.
"""

import time

import pytest

from branchbox import branch
from branchbox.dims import dim_gl, dim_o, hilbert_check
from branchbox.dualpair import (FULL, MOD_IDEAL, MatrixSpaceShape, ProductO,
                                harmonic_report, hwv_multiplicities,
                                minor_hwv, verify_brackets)
from branchbox.errors import StableRangeWarning
from branchbox.lr import lr_coefficient
from branchbox.partitions import (enumerate_partitions, is_admissible_o,
                                  partitions_of)
from branchbox.schur import multiply_schur, schur_vector


def check(num: int, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def table(entries):
    return {tuple(lab.weight for lab in e.labels): e.mult for e in entries}


def row(size: int):
    return (size,) if size else ()


@pytest.fixture(scope="module")
def full_a52():
    # shared by criteria 3, 6 and 7: case A joint highest weight vectors
    return table(hwv_multiplicities(MatrixSpaceShape("A", 5, 2), 5, FULL))


def test_criterion_1_lr_equals_schur_product():
    start = time.monotonic()
    widths = {s: list(partitions_of(s, max_length=4)) for s in range(9)}
    targets = {s: list(partitions_of(s)) for s in range(9)}
    ok = True
    compared = nonzero = 0
    for total in range(9):
        for k in range(total // 2, total + 1):
            for mu in widths[k]:
                for nu in widths[total - k]:
                    if k == total - k and nu > mu:
                        continue  # symmetric in mu, nu
                    prod = multiply_schur(schur_vector(8, {mu: 1}),
                                          schur_vector(8, {nu: 1}))
                    for lam in targets[total]:
                        c = lr_coefficient(lam, mu, nu)
                        compared += 1
                        nonzero += bool(c)
                        if c != prod.coefficient(lam):
                            ok = False
    elapsed = time.monotonic() - start
    check(1, ok and compared == 3211 and nonzero == 726 and elapsed < 60.0)


def test_criterion_2_stacked_model_records_lr():
    shape = MatrixSpaceShape("C", 3, 2, 1, split_columns=True)
    t = table(hwv_multiplicities(shape, 5, FULL))
    ok = True
    for lam in enumerate_partitions(5, max_length=3):
        for mu in enumerate_partitions(sum(lam), max_length=2):
            nu = row(sum(lam) - sum(mu))
            if t.get((lam, mu, nu), 0) != lr_coefficient(lam, mu, nu):
                ok = False
    for (lam, mu, nu), mult in t.items():
        if mult != lr_coefficient(lam, mu, nu):
            ok = False
    check(2, ok)


def test_criterion_3_full_table_is_gl_to_o(full_a52):
    ok = True
    for lam in enumerate_partitions(5, max_length=2):
        for mu in enumerate_partitions(sum(lam), max_length=2):
            if full_a52.get((mu, lam), 0) != branch.gl_to_o(lam, mu, 5):
                ok = False
    for (mu, lam), mult in full_a52.items():
        if mult != branch.gl_to_o(lam, mu, 5):
            ok = False
    check(3, ok)


def test_criterion_4_stable_o_tensor():
    shape = MatrixSpaceShape("A", 5, 1, 1, split_columns=True)
    t = table(hwv_multiplicities(shape, 4, MOD_IDEAL))
    ok = True
    for lam in enumerate_partitions(4, max_length=2):
        for a in range(5):
            for b in range(5 - a):
                want = branch.o_tensor_stable(row(a), row(b), lam, 5)
                if t.get((lam, row(a), row(b)), 0) != want:
                    ok = False
    for (lam, mu, nu), mult in t.items():
        if mult != branch.o_tensor_stable(mu, nu, lam, 5):
            ok = False
    ok = ok and t.get(((2,), (1,), (1,)), 0) == 1
    ok = ok and t.get(((1, 1), (1,), (1,)), 0) == 1
    ok = ok and t.get(((), (1,), (1,)), 0) == 1
    check(4, ok)


def test_criterion_5_stable_o_restriction():
    t = table(hwv_multiplicities(ProductO(3, 3, 1), 4, MOD_IDEAL))
    ok = True
    for size in range(5):
        lam = row(size)
        for a in range(size + 1):
            for b in range(size + 1 - a):
                want = branch.o_restrict_stable(lam, row(a), row(b), 3, 3)
                if t.get((row(a), row(b), lam), 0) != want:
                    ok = False
    for (mu, nu, lam), mult in t.items():
        if mult != branch.o_restrict_stable(lam, mu, nu, 3, 3):
            ok = False
    ok = ok and branch.o_restrict_stable((2,), (), (), 3, 3) == 1
    ok = ok and branch.o_restrict_stable((2,), (1,), (1,), 3, 3) == 1
    ok = ok and branch.o_restrict_stable((1,), (1,), (), 3, 3) == 1
    check(5, ok)


def test_o1_factor_carries_the_det_label():
    # O_6 restricted to O_1 x O_5: the O_6 vector (1) holds det (x) 1 and 1 (x) (1).
    # x[1,1], of odd degree in the O_1 row, spans the first; its SO_1 weight is
    # (), and its O_1 label is det = (1)
    t = table(hwv_multiplicities(ProductO(1, 5, 1), 3, MOD_IDEAL))
    assert t[((1,), (), (1,))] == 1
    assert ((), (), (1,)) not in t
    with pytest.warns(StableRangeWarning):
        assert branch.o_restrict_stable((1,), (1,), (), 1, 5,
                                        policy=branch.WARN_AND_COMPUTE) == 1


def test_criterion_6_even_row_graded_structure(full_a52):
    deltas = [d for d in enumerate_partitions(5, max_length=2)
              if all(part % 2 == 0 for part in d)]
    ok = True
    for lam in enumerate_partitions(5, max_length=2):
        for mu in enumerate_partitions(sum(lam), max_length=2):
            want = sum(lr_coefficient(lam, mu, d) for d in deltas)
            if full_a52.get((mu, lam), 0) != want:
                ok = False
    check(6, ok)


def test_criterion_7_stability_in_n(full_a52):
    ok = True
    for lam in enumerate_partitions(4, max_length=3):
        base = 2 * len(lam) + 1
        for mu in enumerate_partitions(sum(lam), max_length=3):
            if is_admissible_o(mu, base):
                vals = {branch.gl_to_o(lam, mu, n) for n in range(base, base + 4)}
                ok = ok and len(vals) == 1
            start = max(len(lam), len(mu), 1)
            vals = {branch.gl_to_sp(lam, mu, n) for n in range(start, start + 4)}
            ok = ok and len(vals) == 1
    t5 = {k: v for k, v in full_a52.items() if sum(k[1]) <= 4}
    t6 = table(hwv_multiplicities(MatrixSpaceShape("A", 6, 2), 4, FULL))
    ok = ok and t5 == t6
    check(7, ok)


def test_criterion_8_separation_of_variables():
    ok = all(hilbert_check(n, m, 8)[0]
             for n, m in ((5, 1), (5, 2), (6, 2), (7, 3)))
    report = harmonic_report(MatrixSpaceShape("A", 5, 2), 6)
    ok = ok and report.identity_ok
    check(8, ok)


def test_criterion_9_brackets_and_minor_certificates():
    ok = True
    for shape in (MatrixSpaceShape("A", 4, 2), MatrixSpaceShape("B", 2, 2),
                  MatrixSpaceShape("C", 2, 1, 1)):
        report = verify_brackets(shape)
        ok = ok and report.ok
        abelian = [e for e in report.entries if e.rule == "abelian"]
        ok = ok and all(e.ok for e in abelian)
        if shape.case == "A":
            ok = ok and bool(abelian)  # several generators, pairs must commute
    for cols in ([1], [2], [1, 2]):
        ok = ok and minor_hwv(5, 2, cols).ok
    check(9, ok)


def test_criterion_10_dimension_conservation():
    ok = True
    for lam in enumerate_partitions(5):
        n = 2 * sum(lam) + 1
        total = sum(branch.gl_to_o(lam, mu, n) * dim_o(mu, n)
                    for mu in enumerate_partitions(sum(lam),
                                                   max_length=max(len(lam), 1)))
        if total != dim_gl(lam, n):
            ok = False
    for mu in enumerate_partitions(4):
        for nu in enumerate_partitions(4 - sum(mu)):
            n = 2 * (sum(mu) + sum(nu)) + 1
            lams = enumerate_partitions(sum(mu) + sum(nu),
                                        max_length=max(len(mu) + len(nu), 1))
            total = sum(branch.o_tensor_stable(mu, nu, lam, n) * dim_o(lam, n)
                        for lam in lams)
            if total != dim_o(mu, n) * dim_o(nu, n):
                ok = False
    check(10, ok)
