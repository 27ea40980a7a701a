import warnings
from math import comb

import pytest

from branchbox import branch
from branchbox.dims import dim_o, dim_sp
from branchbox.dualpair import (FULL, MOD_IDEAL, MatrixSpaceShape, ProductO,
                                SpaceConfig, build_buckets, build_config,
                                build_product_config, harmonic_isotypic_dims,
                                harmonic_report, hwv_multiplicities)
from branchbox.dualpair.analysis import _labels_for
from branchbox.dualpair.configs import TorusFactor
from branchbox.dualpair.linalg import rank
from branchbox.dualpair.poly import apply_to_monomial, grevlex_mono_key
from branchbox.errors import BudgetError, UsageError
from branchbox.lr import lr_coefficient
from branchbox.partitions import Signature, as_partition, enumerate_partitions

from .oracles import dominant_weight


def weights_table(entries):
    return {tuple(lab.weight for lab in e.labels): e.mult for e in entries}


def test_full_case_a_small_example():
    entries = hwv_multiplicities(MatrixSpaceShape("A", 5, 1), 2, FULL)
    assert weights_table(entries) == {
        ((), ()): 1,
        ((1,), (1,)): 1,
        ((), (2,)): 1,
        ((2,), (2,)): 1,
    }
    assert all(e.stable for e in entries)


def test_full_case_a_matches_branching_formula():
    entries = hwv_multiplicities(MatrixSpaceShape("A", 5, 2), 4, FULL)
    table = weights_table(entries)
    for lam in enumerate_partitions(4, max_length=2):
        for mu in enumerate_partitions(sum(lam), max_length=2):
            assert table.get((mu, lam), 0) == branch.gl_to_o(lam, mu, 5)


def test_full_case_a_multiplicity_free_in_gl_blocks():
    # each O_n label appears at most once inside a fixed GL_m constituent
    entries = hwv_multiplicities(MatrixSpaceShape("A", 5, 2), 5, FULL)
    assert all(e.mult == 1 for e in entries)
    mus = {e.labels[0].weight for e in entries}
    assert mus == {p for p in enumerate_partitions(5, max_length=2)}


def test_mod_ideal_two_block_tensor():
    shape = MatrixSpaceShape("A", 5, 1, 1, split_columns=True)
    entries = hwv_multiplicities(shape, 4, MOD_IDEAL)
    table = weights_table(entries)
    # closed form: E^(1) (x) E^(1) decomposition
    assert table[((2,), (1,), (1,))] == 1
    assert table[((1, 1), (1,), (1,))] == 1
    assert table[((), (1,), (1,))] == 1
    for (lam, mu, nu), mult in table.items():
        assert mult == branch.o_tensor_stable(mu, nu, lam, 5)


def test_product_o_restriction():
    entries = hwv_multiplicities(MatrixSpaceShape("A", 6, 1), 4, ProductO(3, 3))
    table = weights_table(entries)
    assert table[((), (), (2,))] == 1
    assert table[((1,), (1,), (2,))] == 1
    assert table[((1,), (), (1,))] == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for (mu, nu, lam), mult in table.items():
            want = branch.o_restrict_stable(lam, mu, nu, 3, 3,
                                            policy=branch.WARN_AND_COMPUTE)
            assert mult == want


def _joint_kernel_dim(ops, basis):
    rows = []
    for op in ops:
        targets = {}
        for col, mono in enumerate(basis):
            for tm, tc in apply_to_monomial(op, mono).items():
                targets.setdefault(tm, [0] * len(basis))[col] = tc
        rows += targets.values()
    return len(basis) - rank(rows)


HARMONIC_CASES = [
    ("A split", MatrixSpaceShape("A", 3, 1, 1, split_columns=True), MOD_IDEAL),
    ("A even", MatrixSpaceShape("A", 6, 1), MOD_IDEAL),
    ("A odd", MatrixSpaceShape("A", 3, 2), MOD_IDEAL),
    ("ProductO", MatrixSpaceShape("A", 5, 1), ProductO(2, 3)),
]


@pytest.mark.parametrize("name,shape,mode", HARMONIC_CASES, ids=[c[0] for c in HARMONIC_CASES])
def test_harmonic_multiplicity_is_the_joint_kernel(name, shape, mode):
    # the raisings' kernel on the Delta family's kernel is the joint kernel
    # of both families on the whole weight block
    if isinstance(mode, ProductO):
        config = build_product_config(mode, shape.m)
    else:
        config = build_config(shape)
    table = build_buckets(config, 4, dominant_only=True)
    expected = {}
    for key, basis in table.buckets.items():
        dim = _joint_kernel_dim(config.deltas + config.raisings, basis)
        if dim:
            expected[tuple(as_partition(w) for w in key)] = dim
    assert weights_table(hwv_multiplicities(shape, 4, mode)) == expected


ALL_RAISINGS_CASES = [
    ("A(5,2)", MatrixSpaceShape("A", 5, 2), FULL),
    ("A(6,2)", MatrixSpaceShape("A", 6, 2), FULL),
    ("A(5,1+1 split)", MatrixSpaceShape("A", 5, 1, 1, split_columns=True), FULL),
    ("B(2,2)", MatrixSpaceShape("B", 2, 2), FULL),
    ("B(3,1)", MatrixSpaceShape("B", 3, 1), FULL),
    ("C(3,2,1)", MatrixSpaceShape("C", 3, 2, 1), FULL),
    ("C(3,2,1 stacked)", MatrixSpaceShape("C", 3, 2, 1, split_columns=True), FULL),
    ("ProductO(5,3)", MatrixSpaceShape("A", 8, 1), ProductO(5, 3)),
]


@pytest.mark.parametrize("name,shape,mode", ALL_RAISINGS_CASES,
                         ids=[c[0] for c in ALL_RAISINGS_CASES])
def test_simple_raisings_count_what_all_raisings_count(name, shape, mode):
    # the oracle cuts by the simple-root raisings only; the joint kernel of
    # every raising (and, on harmonics, every Delta) must be the same
    if isinstance(mode, ProductO):
        config = build_product_config(mode, shape.m)
        ops = config.deltas + config.raisings
    else:
        config = build_config(shape)
        ops = config.raisings
    assert len(config.simple_raisings) < len(config.raisings)
    table = build_buckets(config, 4, dominant_only=True)
    expected = {}
    for key, basis in table.buckets.items():
        dim = _joint_kernel_dim(ops, basis)
        if dim:
            expected[_labels_for(config, key)] = dim
    assert expected
    assert {e.labels: e.mult for e in hwv_multiplicities(shape, 4, mode)} == expected


SIMPLE_RAISING_CONFIGS = (
    [build_config(MatrixSpaceShape("A", n, m)) for n in range(1, 10) for m in (1, 3)]
    + [build_config(MatrixSpaceShape("A", n, 2), printed_euler_variant=True) for n in (3, 4)]
    + [build_config(MatrixSpaceShape("A", n, 2, 3, split_columns=True)) for n in (2, 5, 6)]
    + [build_config(MatrixSpaceShape("B", n, m)) for n in (1, 2, 3, 4) for m in (1, 3)]
    + [build_config(MatrixSpaceShape("C", n, 2, l)) for n in (1, 3, 4) for l in (0, 2)]
    + [build_config(MatrixSpaceShape("C", n, 2, 3, split_columns=True)) for n in (1, 4)]
    + [build_product_config(ProductO(n1, n2), 2) for n1, n2 in ((1, 2), (3, 3), (4, 5), (6, 2))]
)


@pytest.mark.parametrize("config", SIMPLE_RAISING_CONFIGS, ids=lambda c: c.descriptor)
def test_simple_raisings_number_the_rank_of_each_factor(config):
    expected = []
    for factor in config.factors:
        if factor.family == "O":
            expected.append(factor.rank // 2 if factor.rank >= 3 else 0)
        elif factor.family == "Sp":
            expected.append(factor.rank // 2)
        else:
            expected.append(factor.rank - 1)
    found = [0] * len(config.factors)
    for op in config.simple_raisings:
        [factor] = [i for i, w in enumerate(config.op_weight_shift(op)) if any(w)]
        found[factor] += 1
    assert found == expected


def test_product_o_requires_matching_block_sizes():
    with pytest.raises(UsageError):
        hwv_multiplicities(MatrixSpaceShape("A", 5, 1), 3, ProductO(3, 3))
    with pytest.raises(UsageError):
        hwv_multiplicities(MatrixSpaceShape("A", 6, 1, 1, split_columns=True),
                           3, ProductO(3, 3))


def test_stacked_case_c_matches_lr():
    shape = MatrixSpaceShape("C", 3, 2, 1, split_columns=True)
    entries = hwv_multiplicities(shape, 4, FULL)
    table = weights_table(entries)
    for (lam, mu, nu), mult in table.items():
        assert mult == lr_coefficient(lam, mu, nu)
    # and nothing missing: every nonzero LR triple in range appears
    for lam in enumerate_partitions(4, max_length=3):
        for mu in enumerate_partitions(sum(lam), max_length=2):
            nu_size = sum(lam) - sum(mu)
            for nu in enumerate_partitions(nu_size, max_length=1):
                if sum(nu) != nu_size:
                    continue
                c = lr_coefficient(lam, mu, nu)
                assert table.get((lam, mu, nu), 0) == c


def test_standard_case_c_rational_pairing():
    entries = hwv_multiplicities(MatrixSpaceShape("C", 3, 2, 1), 3, FULL)
    for e in entries:
        sig = e.labels[0].weight
        mu = e.labels[1].weight
        nu = e.labels[2].weight
        assert isinstance(sig, Signature)
        want = branch.gl_tensor_rational(Signature(mu, ()), Signature((), nu),
                                         sig, 3)
        assert e.mult == want


def test_case_c_without_y_block_pairs_diagonally():
    entries = hwv_multiplicities(MatrixSpaceShape("C", 3, 2, 0), 4, FULL)
    table = weights_table(entries)
    assert table == {(lam, lam): 1
                     for lam in enumerate_partitions(4, max_length=2)}


def test_hwv_table_keys():
    entries = hwv_multiplicities(MatrixSpaceShape("A", 5, 1), 2, FULL)
    table = weights_table(entries)
    assert all(v == 1 for v in table.values())
    assert len(table) == 4


# ---------------------------------------------------------------------------
# weight blocks

BUCKET_CONFIGS = [
    ("A", lambda: build_config(MatrixSpaceShape("A", 4, 2))),
    ("A odd", lambda: build_config(MatrixSpaceShape("A", 3, 2))),
    ("A split", lambda: build_config(MatrixSpaceShape("A", 3, 1, 2, split_columns=True))),
    ("B", lambda: build_config(MatrixSpaceShape("B", 2, 2))),
    ("C", lambda: build_config(MatrixSpaceShape("C", 2, 2))),
    ("C signed y", lambda: build_config(MatrixSpaceShape("C", 2, 1, 2))),
    ("C stacked", lambda: build_config(MatrixSpaceShape("C", 2, 1, 1, split_columns=True))),
    ("ProductO", lambda: build_product_config(ProductO(2, 3), 1)),
    # w0 - w1 = +-2 per variable on the GL_2 factor, so the dominance sums reach
    # the bound 2*max|coord|*degree; the GL_1 factor counts the degree
    ("GL at the bound", lambda: SpaceConfig(
        "GL_2 x GL_1", 4, ("a", "b", "c", "d"),
        (TorusFactor("GL", 2, 2), TorusFactor("GL", 1, 1)),
        (((1, -1), (-1, 1), (0, 1), (0, -1)), ((1,), (1,), (1,), (1,))),
        (), (), (), (), ())),
]


def _is_dominant(config):
    return lambda key: all(dominant_weight(f, w) for f, w in zip(config.factors, key))


@pytest.mark.parametrize("max_degree", [0, 1, 3])
@pytest.mark.parametrize("name,make", BUCKET_CONFIGS, ids=[c[0] for c in BUCKET_CONFIGS])
def test_bucket_keys_decode_to_monomial_weights(name, make, max_degree):
    config = make()
    table = build_buckets(config, max_degree)
    seen = 0
    for key, monos in table.buckets.items():
        assert monos == sorted(monos, key=grevlex_mono_key)
        for mono in monos:
            assert config.monomial_weight(mono) == key
            assert sum(mono) == table.degree[key]
        assert key in table.by_degree[table.degree[key]]
        seen += len(monos)
    assert seen == comb(config.var_count + max_degree, max_degree)
    if name == "C signed y" and max_degree:
        assert any(a < 0 for key in table.buckets for a in key[0])


@pytest.mark.parametrize("name,make", BUCKET_CONFIGS, ids=[c[0] for c in BUCKET_CONFIGS])
def test_dominant_buckets_are_the_full_table_restricted(name, make):
    # the packed sign test against the inequalities, on type D's last-slot
    # sign flip, Sp, O_2, signed and unsigned GL
    config = make()
    keep = _is_dominant(config)
    for max_degree in range(6):
        full = build_buckets(config, max_degree)
        dominant = build_buckets(config, max_degree, dominant_only=True)
        assert dominant.buckets == {k: v for k, v in full.buckets.items() if keep(k)}
        assert dominant.degree == {k: d for k, d in full.degree.items() if keep(k)}
        assert dominant.by_degree == {d: [k for k in keys if keep(k)]
                                      for d, keys in full.by_degree.items()}
        if max_degree:
            assert len(dominant.buckets) < len(full.buckets)


@pytest.mark.parametrize("dominant_only", [False, True])
def test_weight_that_does_not_fix_the_degree_is_refused(dominant_only):
    # the GL_2 config of "GL at the bound" without its degree-counting GL_1
    # factor: a*b has weight (0, 0), as does the constant monomial
    config = SpaceConfig("GL_2 alone", 4, ("a", "b", "c", "d"),
                         (TorusFactor("GL", 2, 2),),
                         (((1, -1), (-1, 1), (0, 1), (0, -1)),), (), (), (), (), ())
    assert build_buckets(config, 1, dominant_only=dominant_only).buckets  # nothing mixes yet
    with pytest.raises(UsageError, match=r"weight \(\(0, 0\),\) holds monomials of degrees 0 and 2"):
        build_buckets(config, 2, dominant_only=dominant_only)


def test_budget_covers_blocks_that_are_not_kept():
    # one unsigned GL_2 factor on three variables of weights (0,1), (0,1), (1,0):
    # the weight (0, 4) block holds 5 monomials and is not dominant, while no
    # dominant block at degree <= 4 holds more than 3
    factor = TorusFactor("GL", 2, 2)
    config = SpaceConfig("GL_2 on three lines", 3, ("u", "v", "w"), (factor,),
                         (((0, 1), (0, 1), (1, 0)),), (), (), (), (), ())
    full = build_buckets(config, 4)
    keep = _is_dominant(config)
    largest = max(len(v) for v in full.buckets.values())
    assert largest == 5
    assert max(len(v) for k, v in full.buckets.items() if keep(k)) == 3
    dominant = build_buckets(config, 4, budget=largest, dominant_only=True)
    assert dominant.buckets == {k: v for k, v in full.buckets.items() if keep(k)}
    with pytest.raises(BudgetError):
        build_buckets(config, 4, budget=largest - 1, dominant_only=True)


def test_budget_error():
    with pytest.raises(BudgetError):
        hwv_multiplicities(MatrixSpaceShape("A", 4, 2), 4, FULL, budget=1)


def test_harmonic_report_case_a_51():
    report = harmonic_report(MatrixSpaceShape("A", 5, 1), 3)
    assert report.full == (1, 5, 15, 35)
    assert report.harmonic == (1, 5, 14, 30)
    assert report.ideal == (0, 0, 1, 5)
    assert report.identity_ok
    assert report.separation_ok
    assert report.generator_count == 1


def test_harmonic_report_separation_only_in_stable_range():
    report = harmonic_report(MatrixSpaceShape("A", 3, 2), 3)
    assert report.identity_ok          # the exact-sequence identity always holds
    assert report.separation_ok is None  # no free-module claim outside n >= 2m


def test_harmonic_isotypic_dims_match_weyl_formula():
    iso = harmonic_isotypic_dims(MatrixSpaceShape("A", 5, 2), 3)
    for lam, got in iso.items():
        assert got == dim_o(lam, 5)
    assert (1,) in iso and (2,) in iso


def test_harmonic_isotypic_dims_case_b():
    iso = harmonic_isotypic_dims(MatrixSpaceShape("B", 3, 1), 3)
    for lam, got in iso.items():
        assert got == dim_sp(lam, 3)


def test_oracle_stability_between_two_ranks():
    t5 = weights_table(hwv_multiplicities(MatrixSpaceShape("A", 5, 2), 3, FULL))
    t6 = weights_table(hwv_multiplicities(MatrixSpaceShape("A", 6, 2), 3, FULL))
    assert t5 == t6
