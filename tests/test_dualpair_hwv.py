import hashlib
import itertools
import random
import warnings
from dataclasses import replace
from math import comb

import pytest

from branchbox import branch, jsonio
from branchbox.dims import dim_o, dim_sp
from branchbox.dualpair import (FULL, MOD_IDEAL, MatrixSpaceShape, ProductO,
                                SpaceConfig, build_buckets, build_config,
                                harmonic_isotypic_dims, harmonic_report, hwv_multiplicities)
from branchbox.dualpair import analysis
from branchbox.dualpair.configs import TorusFactor
from branchbox.dualpair.poly import apply_to_monomial, make_operator, pack
from branchbox.errors import BudgetError, InternalInvariantError, UsageError
from branchbox.lr import lr_coefficient
from branchbox.partitions import Signature, as_partition, associate_o, enumerate_partitions
from branchbox.reports import sorted_entries

from .oracles import (buckets_by_enumeration, decoded_buckets, dominant_weight,
                      grevlex_mono_key, nullspace_gauss_jordan, printed_config)


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
    entries = hwv_multiplicities(ProductO(3, 3, 1), 4, MOD_IDEAL)
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
    """The joint kernel dimension of ops, packed for the basis' width as `_kernel_dim`
    takes them, on the span of basis, by the test-side
    Gauss-Jordan reference, not the elimination under test: each operator cuts
    the kernel of the ones before it, a vector kept as {column: coefficient}."""
    kernel = [{j: 1} for j in range(len(basis))]
    for op in ops:
        images = [apply_to_monomial(op, mono) for mono in basis]
        rows = {}  # target monomial -> op's image of each kernel vector there
        for k, vec in enumerate(kernel):
            for j, c in vec.items():
                for tm, tc in images[j].items():
                    rows.setdefault(tm, [0] * len(kernel))[k] += c * tc
        cut = []
        for coeffs in nullspace_gauss_jordan(list(rows.values()), len(kernel)):
            vec = {}
            for a, old in zip(coeffs, kernel):
                if a:
                    for j, c in old.items():
                        vec[j] = vec.get(j, 0) + a * c
            cut.append(vec)
        kernel = cut
    return len(kernel)


class _PlantedOperator:
    """An operator that fails the test if it is ever applied."""
    name, kind = "planted", "raising"

    @property
    def terms(self):
        raise AssertionError("an operator was applied after the rows reached full rank")


def test_kernel_dim_applies_no_operator_after_full_rank():
    basis = [pack(mono, 2) for mono in [(2, 0), (1, 1), (0, 2)]]
    times_x0 = make_operator("x0", "r2", [(1, {0: 1}, {})]).packed(2)  # injective: full rank
    d_x0 = make_operator("d0", "delta", [(1, {}, {0: 1})]).packed(2)  # rank 2 on the block
    assert analysis._kernel_dim([times_x0, _PlantedOperator()], basis) == 0
    assert analysis._kernel_dim([d_x0, times_x0, _PlantedOperator()], basis) == 0
    assert analysis._kernel_dim([d_x0], basis) == _joint_kernel_dim([d_x0], basis) == 1
    with pytest.raises(AssertionError):  # short of full rank, the next operator is applied
        analysis._kernel_dim([d_x0, _PlantedOperator()], basis)


HARMONIC_CASES = [
    ("A split", MatrixSpaceShape("A", 3, 1, 1, split_columns=True), MOD_IDEAL),
    ("A even", MatrixSpaceShape("A", 6, 1), MOD_IDEAL),
    ("A odd", MatrixSpaceShape("A", 3, 2), MOD_IDEAL),
    ("ProductO", ProductO(2, 3, 1), MOD_IDEAL),
]


def _so_keyed_table(config, max_degree, ops):
    """(dimension, degree) of the joint kernel of ops per dominant weight block where it
    is nonzero, keyed by each factor's weight as a partition (SO_n weights on O factors)."""
    table = build_buckets(config, max_degree, dominant_only=True)
    ops = [op.packed(table.width) for op in ops]
    exponents = decoded_buckets(table, config.var_count)
    out = {}
    for key, basis in table.buckets.items():
        dim = _joint_kernel_dim(ops, basis)
        if dim:
            out[tuple(as_partition(w) for w in key)] = (dim, sum(exponents[key][0]))
    return out


def _o_labelled(so_table, n):
    """so_table keyed by O_n labels: at odd n, a first weight w whose size has
    the other parity than its block's degree moves to associate_o(w, n)."""
    return {(associate_o(w, n) if n % 2 and (sum(w) - d) % 2 else w, *rest): dim
            for (w, *rest), (dim, d) in so_table.items()}


def _o_keyed_table(config, max_degree, ops):
    """The joint kernel dimension of ops per dominant weight block, keyed by O_n
    labels on the O factors.  The O factors come first and hold consecutive
    rows; each block splits by the degree in each O factor's rows, and at odd n
    a weight whose size has the other parity than that degree moves to
    associate_o(w, n).  Parts that name one key add up."""
    ranks = [factor.rank for factor in config.factors if factor.family == "O"]
    per_row = config.var_count // sum(ranks)
    bounds = list(itertools.accumulate((r * per_row for r in ranks), initial=0))
    out = {}
    table = build_buckets(config, max_degree, dominant_only=True)
    ops = [op.packed(table.width) for op in ops]
    exponents = decoded_buckets(table, config.var_count)
    for key, basis in table.buckets.items():
        parts = {}
        for mono, exps in zip(basis, exponents[key]):
            parts.setdefault(tuple(sum(exps[a:b]) % 2 for a, b in zip(bounds, bounds[1:])),
                             []).append(mono)
        for parities, part in parts.items():
            dim = _joint_kernel_dim(ops, part)
            if dim:
                weights = [as_partition(w) for w in key]
                for i, (n, p) in enumerate(zip(ranks, parities)):
                    if n % 2 and (sum(weights[i]) - p) % 2:
                        weights[i] = associate_o(weights[i], n)
                out[tuple(weights)] = out.get(tuple(weights), 0) + dim
    return out


@pytest.mark.parametrize("name,shape,mode", HARMONIC_CASES, ids=[c[0] for c in HARMONIC_CASES])
def test_harmonic_multiplicity_is_the_joint_kernel(name, shape, mode):
    # the oracle's count by the Deltas and the simple raisings is the joint
    # kernel of the Deltas and every raising on the whole weight block, split
    # and relabelled per O factor, under O_n labels at odd n
    config = build_config(shape)
    expected = _o_keyed_table(config, 4, config.deltas + config.raisings)
    assert weights_table(hwv_multiplicities(shape, 4, mode)) == expected


def test_torus_factor_label_reads_the_parity_only_on_odd_orthogonal_factors():
    o3, o4 = TorusFactor("O", 3, 1), TorusFactor("O", 4, 2)
    assert [o3.label((1,), p).weight for p in (1, 0)] == [(1,), (1, 1)]
    assert [o3.label((0,), p).weight for p in (0, 1)] == [(), (1, 1, 1)]
    assert TorusFactor("O", 1, 0).label((), 1).weight == (1,)
    assert [o4.label((1, 0), p).weight for p in (0, 1)] == [(1,), (1,)]
    assert TorusFactor("Sp", 2, 1).label((1,), 0).weight == (1,)
    assert TorusFactor("GL", 2, 2).label((1, 0), 0).weight == (1,)


# Every table whose pin changed when odd n began to report O_n labels: ten
# HARMONIC_DIGESTS rows, and the FULL and MOD_IDEAL models of the two
# out-of-range PINNED_VERIFY rows of tests/test_cli.py (seesaw-a (3,2) and
# tensor-o (3,1,1), degree 4)
RELABELLED_SHAPES = [
    ((1, 2, 0), 5, MOD_IDEAL), ((3, 2, 0), 4, MOD_IDEAL), ((3, 3, 0), 5, MOD_IDEAL),
    ((5, 3, 0), 4, MOD_IDEAL), ((1, 1, 1), 5, MOD_IDEAL), ((3, 1, 1), 5, MOD_IDEAL),
    ((3, 2, 1), 4, MOD_IDEAL), ((3, 1, 2), 5, MOD_IDEAL), ((5, 2, 1), 3, MOD_IDEAL),
    ((5, 1, 2), 4, MOD_IDEAL), ((3, 2, 0), 4, FULL), ((3, 1, 1), 4, MOD_IDEAL),
]


@pytest.mark.parametrize("dims,degree,mode", RELABELLED_SHAPES,
                         ids=[f"{d}-deg{g}-{m}" for d, g, m in RELABELLED_SHAPES])
def test_odd_n_moves_exactly_the_parity_mismatched_keys(dims, degree, mode):
    n, m, l = dims
    shape = MatrixSpaceShape("A", n, m, l, split_columns=bool(l))
    config = build_config(shape)
    ops = config.raisings if mode == FULL else config.deltas + config.raisings
    so_table = _so_keyed_table(config, degree, ops)
    mismatched = [key for key, (_, d) in so_table.items() if (sum(key[0]) - d) % 2]
    assert mismatched  # the old SO_n-keyed table differs
    expected = _o_labelled(so_table, n)
    assert len(expected) == len(so_table)  # no two keys relabel onto one label
    assert weights_table(hwv_multiplicities(shape, degree, mode)) == expected


# The ProductO rows of HARMONIC_DIGESTS with an odd block, as (n1, n2, m) and
# degree: the ones whose pin changed when ProductO began to report O_n labels
RELABELLED_PRODUCTS = [
    ((1, 1, 1), 5), ((1, 1, 2), 5), ((1, 2, 1), 4), ((1, 2, 2), 5), ((2, 1, 2), 3),
    ((1, 3, 2), 5), ((3, 1, 2), 4), ((2, 3, 2), 4), ((3, 2, 2), 5), ((3, 3, 2), 5),
    ((1, 4, 1), 3), ((4, 1, 1), 5),
]


@pytest.mark.parametrize("sizes,degree", RELABELLED_PRODUCTS,
                         ids=[f"{s}-deg{d}" for s, d in RELABELLED_PRODUCTS])
def test_product_o_tables_are_the_relabelled_joint_kernel(sizes, degree):
    shape = ProductO(*sizes)
    config = build_config(shape)
    ops = config.deltas + config.raisings
    so_table = {key: dim for key, (dim, _) in _so_keyed_table(config, degree, ops).items()}
    expected = _o_keyed_table(config, degree, ops)
    assert expected != so_table  # the old SO_n-keyed table differs
    assert weights_table(hwv_multiplicities(shape, degree, MOD_IDEAL)) == expected


# sha256 of the MOD_IDEAL entries as the CLI emits them (JSON, label order),
# recorded while the harmonic modes cut the raisings' kernel out of the
# Deltas' nullspace; blocks None is a MatrixSpaceShape, a pair (n1, n2) the
# shape ProductO(n1, n2, m).  The rows of RELABELLED_SHAPES were recorded
# again when odd n began to report O_n labels, and the ProductO rows of
# RELABELLED_PRODUCTS when ProductO did;
# `test_odd_n_moves_exactly_the_parity_mismatched_keys` and
# `test_product_o_tables_are_the_relabelled_joint_kernel` check each against
# its relabelled SO_n-keyed table.  Shapes whose even-n factor raises
# InternalInvariantError on an SO_n-only weight (ROADMAP item 1) stay out.
HARMONIC_DIGESTS = [
    (("A", 1, 2, 0), None, 5, "eb45c2c61c5d9b5dac9549058a05c97d2a52f2c6f47dee127e56494ce8535762"),
    (("A", 3, 1, 0), None, 5, "83942a5998328ba53175929590057c26bb69db20a322efdbcdcacb824bf1a3ed"),
    (("A", 3, 2, 0), None, 4, "477cda81d5579bf11ba2a4e900435d501ef7c7a7e3493623895b345c0ea80ae5"),
    (("A", 3, 3, 0), None, 5, "8c62850ad59110330d894b7143ac4fad4e16682736f1aaaf72b10ec63d2b950f"),
    (("A", 5, 1, 0), None, 3, "586569487b87763fd020e5168032ae67d62150ee50272baf75c8a514769a344d"),
    (("A", 5, 2, 0), None, 5, "d5d2be516a98a276391a81e1e1be6c5cfa4e7bf868812a9963f645a7e1d69c9a"),
    (("A", 5, 3, 0), None, 4, "3f713cc4f34132e3ce6e21782167988a5fda34bf9f7ab99293aa89fe75ea9f56"),
    (("A", 7, 1, 0), None, 5, "552c2bc79bd5ad519430e4796cc0d937bb2a07d1fe9d4f4facf6ab19a1c477b1"),
    (("A", 7, 2, 0), None, 4, "c4f640fb24b24bf32f2502a56503ac60552fb071da475b21ad6d36b81a65eff5"),
    (("A", 7, 3, 0), None, 3, "3ae3296878c9b4b4c5c9e319c0c2cd2a49b476d2a7eb49ac2f5cd6db1a34a15c"),
    (("A", 1, 1, 1), None, 5, "8207fd3c25f46da7ee2c4c5b388f12a96e7b4416943ff089582e3958c15beda2"),
    (("A", 3, 1, 1), None, 5, "a93486166942889c3e1e21be6ac207bbd00d455f387131b9b81f843e878871fe"),
    (("A", 3, 2, 1), None, 4, "109cd81d63e4b780a8a4f6f5bba344e1d3303ac0b767950d975233ad65d85ef3"),
    (("A", 3, 1, 2), None, 5, "d7365460cfbf9440e8745f964cee2a48331ee3689019b820d44ae1f4d752cb48"),
    (("A", 5, 1, 1), None, 5, "01c726d8102b074966798e4e197b460a2bc208c3cccc401acb811c8c4395c2ec"),
    (("A", 5, 2, 1), None, 3, "9aae96360e598889841026a82818c65653e5e63ffdb6fcdcf2bc096d6d0ba6e6"),
    (("A", 5, 1, 2), None, 4, "8ed50a1dd636e2ca066d3578852472022de7ba8f5db53236dc18ee275663bf5f"),
    (("A", 7, 1, 1), None, 4, "b10a040edaf694d3d9b6b80accde6b4da1bf6f862c41912ca20c1b344a84134c"),
    (("A", 7, 1, 2), None, 3, "0330327601a2e6be14902ccd6c1aaed5940d74872385fd4ce4c9dacd16189872"),
    (("A", 2, 1, 0), (1, 1), 5, "27447082d3bb8127fd511a0d25a8aece15e2b616cb5cd9891c4be1b8994b20c6"),
    (("A", 2, 2, 0), (1, 1), 5, "9df16668adcfaec67a841c435b60497747f6a91f28248389e492b324b4ae5751"),
    (("A", 3, 1, 0), (1, 2), 4, "9355e27c310619f15ff48335280d91e9b376251996833f0225dedbf1dac828e7"),
    (("A", 3, 2, 0), (1, 2), 5, "f3984fb83f5430724b6d958f012f5b0ee66ce4e3ebecb0102cfe27c5d5c21d5e"),
    (("A", 3, 2, 0), (2, 1), 3, "b79d35e8250a98bc792196f853edf72d0f6d92531438aedd3bcc63e05d632086"),
    (("A", 4, 2, 0), (1, 3), 5, "8316ee24a37816832f5861e4bb9a07a2c3efc317617ce611069267aab8454a96"),
    (("A", 4, 2, 0), (3, 1), 4, "26dced90cf82dbefd58581a7ae1b009cb4d7d731c24c963978e7c9918a242056"),
    (("A", 4, 1, 0), (2, 2), 5, "ea12f0e2e1fce783fcd3aba2c26faf5611f38e7d20d3d86c533d8c77c62403ca"),
    (("A", 4, 2, 0), (2, 2), 5, "7d74f7f4cb0823b3c5d77bcbb06deddab1f32fe5e7321d799d2bd65b61c07145"),
    (("A", 5, 2, 0), (2, 3), 4, "82f53f53fc1738e80033752e7e292905848938b6132d37a97e1ec7260799fd6e"),
    (("A", 5, 2, 0), (3, 2), 5, "c5bc4682779b40d05def2cebdf9210c6d6b9cd486afd5debab1635faa2c9cb9b"),
    (("A", 6, 1, 0), (3, 3), 5, "1dc6357fc1970c2fc03703df9c7d762a0370c956f9214c16ac2d4223cded2b4a"),
    (("A", 6, 2, 0), (3, 3), 5, "1b046ffd46bb31c2766b6af8d34c9040147cb091cbba75c417e82a5204fda90c"),
    (("A", 5, 1, 0), (1, 4), 3, "ef72d492af2f0f866835b1a958b2883cd75ed3047f50ef75dc69a3a3abf5fa22"),
    (("A", 5, 1, 0), (4, 1), 5, "a2e9b4f7c54a612f8ad1b287c3676f81256ea62b84b98d199971c6fa537d794d"),
    (("A", 6, 1, 0), (2, 4), 4, "54d5bb22bde65eca0474b16578cffb6ff1febd29849e4b896aafd2ee0456ca42"),
    (("A", 6, 1, 0), (4, 2), 5, "7e8888e79b4db4e1895df5011b8c5ee7d0fbf3bfa8452ea15ff1082d7814db4a"),
    (("A", 7, 1, 0), (3, 4), 5, "30edd26bc45531d19a6b81326d17ed82fc2bbf82ead9e09af074a97948ddf7b6"),
    (("A", 7, 1, 0), (4, 3), 3, "83d5c9467266b073e3651388f38ca1381b36c95929374baaf491bc401339c349"),
    (("A", 8, 1, 0), (4, 4), 5, "bdb503c3fd895b6b063378df685d57dba9ffc81b826753a43d5932635e2434c2"),
]


@pytest.mark.parametrize("shape,blocks,degree,digest", HARMONIC_DIGESTS,
                         ids=[f"{s[1:]}{'-' + str(b) if b else ''}-deg{d}"
                              for s, b, d, _ in HARMONIC_DIGESTS])
def test_harmonic_multiplicities_are_pinned(shape, blocks, degree, digest):
    case, n, m, l = shape
    model = (ProductO(*blocks, m) if blocks
             else MatrixSpaceShape(case, n, m, l, split_columns=bool(l)))
    entries = hwv_multiplicities(model, degree, MOD_IDEAL)
    text = jsonio.dumps([jsonio.entry_json(e) for e in sorted_entries(entries)])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


ALL_RAISINGS_CASES = [
    ("A(5,2)", MatrixSpaceShape("A", 5, 2), FULL),
    ("A(6,2)", MatrixSpaceShape("A", 6, 2), FULL),
    ("A(5,1+1 split)", MatrixSpaceShape("A", 5, 1, 1, split_columns=True), FULL),
    ("B(2,2)", MatrixSpaceShape("B", 2, 2), FULL),
    ("B(3,1)", MatrixSpaceShape("B", 3, 1), FULL),
    ("C(3,2,1)", MatrixSpaceShape("C", 3, 2, 1), FULL),
    ("C(3,2,1 stacked)", MatrixSpaceShape("C", 3, 2, 1, split_columns=True), FULL),
    ("ProductO(5,3)", ProductO(5, 3, 1), MOD_IDEAL),
]


@pytest.mark.parametrize("name,shape,mode", ALL_RAISINGS_CASES,
                         ids=[c[0] for c in ALL_RAISINGS_CASES])
def test_simple_raisings_count_what_all_raisings_count(monkeypatch, name, shape, mode):
    # the oracle cuts by the simple-root raisings only; the joint kernel of
    # every raising (and, on harmonics, every Delta), by this file's own
    # rows, must give the same table
    config = build_config(shape)
    assert len(config.simple_raisings) < len(config.raisings)
    found = {e.labels: e.mult for e in hwv_multiplicities(shape, 4, mode)}
    monkeypatch.setattr(SpaceConfig, "simple_raisings", property(lambda c: c.raisings))
    monkeypatch.setattr(analysis, "_kernel_dim", _joint_kernel_dim)
    expected = {e.labels: e.mult for e in hwv_multiplicities(shape, 4, mode)}
    assert expected
    assert found == expected


def _grid_shapes():
    for case in "ABC":
        for n, m, l, split in itertools.product(range(1, 5), range(1, 4), range(3), (False, True)):
            try:
                yield MatrixSpaceShape(case, n, m, l, split)
            except UsageError:  # a combination the shape does not offer
                pass


def test_shape_counts_the_variables_its_config_builds():
    shapes = list(_grid_shapes())
    assert len(shapes) == 108
    shapes += [ProductO(*sizes) for sizes in itertools.product(range(1, 4), range(1, 4), (1, 2))]
    assert [s for s in shapes if s.var_count != build_config(s).var_count] == []


SIMPLE_RAISING_CONFIGS = (
    [build_config(MatrixSpaceShape("A", n, m)) for n in range(1, 10) for m in (1, 3)]
    + [printed_config(MatrixSpaceShape("A", n, 2)) for n in (3, 4)]
    + [build_config(MatrixSpaceShape("A", n, 2, 3, split_columns=True)) for n in (2, 5, 6)]
    + [build_config(MatrixSpaceShape("B", n, m)) for n in (1, 2, 3, 4) for m in (1, 3)]
    + [build_config(MatrixSpaceShape("C", n, 2, l)) for n in (1, 3, 4) for l in (0, 2)]
    + [build_config(MatrixSpaceShape("C", n, 2, 3, split_columns=True)) for n in (1, 4)]
    + [build_config(ProductO(n1, n2, 2)) for n1, n2 in ((1, 2), (3, 3), (4, 5), (6, 2))]
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


def _pair_sum_simple_raisings(config):
    """The raisings whose weight shift is no sum of two raisings' shifts, by every pair sum."""
    shifts = [config.op_weight_shift(op) for op in config.raisings]
    sums = {tuple(tuple(x + y for x, y in zip(u, v)) for u, v in zip(a, b))
            for a, b in itertools.combinations(shifts, 2)}
    return tuple(op for op, s in zip(config.raisings, shifts) if s not in sums)


def test_simple_raisings_match_the_pair_sum_rule():
    configs = list(SIMPLE_RAISING_CONFIGS)
    configs += [build_config(shape) for shape in _grid_shapes()]
    configs += [build_config(shape) for _, shape, _ in ALL_RAISINGS_CASES]
    configs.append(build_config(MatrixSpaceShape("A", 20, 20)))
    assert len(configs) == 43 + 108 + 8 + 1
    for config in configs:
        assert config.simple_raisings == _pair_sum_simple_raisings(config), config.descriptor
    assert (len(config.raisings), len(config.simple_raisings)) == (280, 29)


def _random_shift_config(seed, positive):
    """Six x_i d_j raisings on four variables of random GL_2 weights in {-1, 0, 1}^2;
    with `positive`, only pairs whose shift has a positive height 2*w_0 + w_1."""
    rng = random.Random(seed)
    weights = tuple(tuple(rng.randint(-1, 1) for _ in range(2)) for _ in range(4))
    pairs = [(i, j) for i, j in itertools.product(range(4), repeat=2)
             if not positive or sum((2 - k) * (a - b) for k, (a, b) in
                                    enumerate(zip(weights[i], weights[j]))) > 0]
    raisings = tuple(make_operator(f"R{i}{j}", "raising", [(1, {i: 1}, {j: 1})])
                     for i, j in rng.sample(pairs, min(6, len(pairs))))
    return SpaceConfig("random shifts", 4, ("a", "b", "c", "d"),
                       (TorusFactor("GL", 2, 2, signed=True),), (weights,),
                       (), (), (), raisings, ())


def test_simple_raisings_match_the_pair_sum_rule_on_repeated_shifts():
    # built-in configs never repeat a shift or double one; these x_i d_j
    # raisings on random small weights do both, each of positive height
    repeated = doubled = 0
    for seed in range(200):
        config = _random_shift_config(seed, positive=True)
        assert config.simple_raisings == _pair_sum_simple_raisings(config), seed
        shifts = [config.op_weight_shift(op) for op in config.raisings]
        repeated += len(set(shifts)) < len(shifts)
        doubled += any(tuple(tuple(2 * c for c in w) for w in s) in shifts for s in shifts)
    assert repeated and doubled


def test_simple_raisings_refuse_a_raising_of_height_at_most_zero():
    # the height walk needs every raising positive; a shift by 0 or a lowering
    # is no raising, so the pick names it an internal error.  Every unfiltered
    # random config of the test above has one
    for seed in range(200):
        with pytest.raises(InternalInvariantError, match="has height <= 0$"):
            _random_shift_config(seed, positive=False).simple_raisings


@pytest.mark.parametrize("shape", [MatrixSpaceShape("A", n, 1) for n in range(8, 13)]
                         + [ProductO(5, 5, 2)], ids=str)
def test_simple_raisings_pick_without_testing_every_pair(shape):
    # the pick walks the shifts by height instead of testing every pair; it
    # picks what the pair rule picks on shapes of many raisings
    config = build_config(shape)
    assert config.simple_raisings == _pair_sum_simple_raisings(config)


def test_simple_raisings_read_shift_differences_up_to_twice_the_largest_coordinate():
    # GL_3 heights 3*w_0 + 2*w_1 + w_2 are 1, 1 and 15.  (2, -3, 1) - (-1, 2, 0)
    # = (3, -5, 1) is no shift here.  The shift digit must hold +-6; a 3-bit
    # digit would wrap it to (3, 3, 0), the third shift, and drop (2, -3, 1),
    # which is no sum of two shifts
    weights = ((-1, 2, 0), (2, -3, 1), (3, 3, 0))
    raisings = tuple(make_operator(f"X{i}", "raising", [(1, {i: 1}, {})]) for i in range(3))
    config = SpaceConfig("three shifts", 3, ("a", "b", "c"),
                         (TorusFactor("GL", 3, 3, signed=True),), (weights,),
                         (), (), (), raisings, ())
    assert config.simple_raisings == raisings == _pair_sum_simple_raisings(config)
    # the earlier example, (3, 0) - (-2, 1) on GL_2, has heights 6, -3 and -6
    lowering = replace(config, factors=(TorusFactor("GL", 2, 2, signed=True),),
                       var_weights=(((3, 0), (-2, 1), (-3, 0)),))
    with pytest.raises(InternalInvariantError):
        lowering.simple_raisings


def test_product_o_refuses_non_positive_sizes():
    for sizes in ((0, 3, 1), (3, 0, 1), (3, 3, 0), (-1, 2, 2)):
        with pytest.raises(UsageError, match="^ProductO needs positive sizes n1, n2 and m$"):
            ProductO(*sizes)


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
    ("ProductO", lambda: build_config(ProductO(2, 3, 1))),
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
    buckets = decoded_buckets(build_buckets(config, max_degree), config.var_count)
    seen = 0
    for key, monos in buckets.items():
        assert monos == sorted(monos, key=grevlex_mono_key)
        for mono in monos:
            assert config.monomial_weight(mono) == key
            assert sum(mono) == sum(monos[0])
        seen += len(monos)
    blocks = [(sum(monos[0]), key) for key, monos in buckets.items()]
    assert blocks == sorted(blocks)  # in order of degree, then of weight
    assert seen == comb(config.var_count + max_degree, max_degree)
    if name == "C signed y" and max_degree:
        assert any(a < 0 for key in buckets for a in key[0])


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
        assert list(dominant.buckets) == [k for k in full.buckets if keep(k)]
        if max_degree:
            assert len(dominant.buckets) < len(full.buckets)


ENUMERATED_CASES = [(name, make, range(7)) for name, make in BUCKET_CONFIGS] + [
    ("A(7,2+1 split)", lambda: build_config(MatrixSpaceShape("A", 7, 2, 1, split_columns=True)),
     [5]),
    ("ProductO(3,3,2)", lambda: build_config(ProductO(3, 3, 2)), [6]),
]


@pytest.mark.parametrize("dominant_only", [False, True])
@pytest.mark.parametrize("name,make,degrees", ENUMERATED_CASES,
                         ids=[c[0] for c in ENUMERATED_CASES])
def test_buckets_equal_the_enumeration_in_order(name, make, degrees, dominant_only):
    # key order and monomial order both count
    config = make()
    for max_degree in degrees:
        table = build_buckets(config, max_degree, dominant_only=dominant_only)
        expected = buckets_by_enumeration(config, max_degree, dominant_only)
        assert list(decoded_buckets(table, config.var_count).items()) == list(expected.items())


def _gl_config(name, weights):
    """One unsigned GL_k factor on len(weights) variables, with no operators."""
    factor = TorusFactor("GL", len(weights[0]), len(weights[0]))
    return SpaceConfig(name, len(weights), tuple(f"x{i}" for i in range(len(weights))),
                       (factor,), (tuple(weights),), (), (), (), (), ())


@pytest.mark.parametrize("dominant_only", [False, True])
def test_budget_names_the_first_block_of_the_natural_walk(monkeypatch, dominant_only):
    # four variables of weight (1, 0), three of (0, 1): at degree 2 the blocks
    # (2, 0), (1, 1) and (0, 2) hold 10, 12 and 6 monomials.  Over a budget of
    # 9, (2, 0) comes first in the walk of combinations_with_replacement over
    # the variables in their order; (1, 1) is larger and first in the walk
    # last variable first and in order of weight
    config = _gl_config("GL_2 on 4 + 3 lines", [(1, 0)] * 4 + [(0, 1)] * 3)
    sizes = {key: len(monos) for key, monos in build_buckets(config, 2).buckets.items()}
    assert sizes[((2, 0),)] == 10 and sizes[((1, 1),)] == 12 and sizes[((0, 2),)] == 6
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 9)
    with pytest.raises(BudgetError, match=r"^weight space of dimension 10 exceeds the budget 9$"):
        build_buckets(config, 2, dominant_only=dominant_only)
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetError, match=r"^weight space of dimension 12 exceeds the budget 10$"):
        build_buckets(config, 2, dominant_only=dominant_only)


@pytest.mark.parametrize("dominant_only", [False, True])
def test_degree_check_names_the_lowest_and_highest_degree(monkeypatch, dominant_only):
    # the GL_2 config of "GL at the bound" without its GL_1 factor: the weight
    # (0, 0) holds 1, 2 and 3 monomials at degrees 0, 2 and 4 (a^i b^i c^k d^k),
    # and it is the first block of the walk
    config = _gl_config("GL_2 alone", [(1, -1), (-1, 1), (0, 1), (0, -1)])  # a, b, c, d
    with pytest.raises(UsageError, match=r"^weight \(\(0, 0\),\) holds monomials of "
                                         r"degrees 0 and 4$"):
        build_buckets(config, 4, dominant_only=dominant_only)
    # the budget is tested first, on the block's size over all three degrees
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 5)
    with pytest.raises(BudgetError, match=r"^weight space of dimension 6 exceeds the budget 5$"):
        build_buckets(config, 4, dominant_only=dominant_only)


@pytest.mark.parametrize("shape,max_degree", [
    (ProductO(2, 3, 1), 5), (ProductO(3, 4, 1), 5), (ProductO(2, 2, 2), 4), (ProductO(3, 3, 2), 4),
], ids=str)
def test_product_o_blocks_split_only_where_both_factors_are_odd(monkeypatch, shape, max_degree):
    # a block holds one degree parity in O_{n1}'s rows unless n1 and n2 are
    # odd, and hwv_multiplicities cuts it into one part per parity it holds
    head = shape.first_block_vars
    config = build_config(shape)
    blocks = decoded_buckets(build_buckets(config, max_degree, dominant_only=True),
                             config.var_count)
    parities = [len({sum(mono[:head]) % 2 for mono in basis}) for basis in blocks.values()]
    assert (max(parities) == 2) == shape.splits_by_parity == (shape.n1 % 2 == shape.n2 % 2 == 1)
    parts = []
    kernel_dim = analysis._kernel_dim
    monkeypatch.setattr(analysis, "_kernel_dim",
                        lambda ops, part: parts.append(part) or kernel_dim(ops, part))
    hwv_multiplicities(shape, max_degree, MOD_IDEAL)
    assert len(parts) == sum(parities)


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


def test_budget_covers_blocks_that_are_not_kept(monkeypatch):
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
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", largest)
    dominant = build_buckets(config, 4, dominant_only=True)
    assert dominant.buckets == {k: v for k, v in full.buckets.items() if keep(k)}
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", largest - 1)
    with pytest.raises(BudgetError):
        build_buckets(config, 4, dominant_only=True)


def test_budget_error(monkeypatch):
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 1)
    with pytest.raises(BudgetError):
        hwv_multiplicities(MatrixSpaceShape("A", 4, 2), 4, FULL)


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


def test_harmonic_isotypic_dims_refuses_before_enumerating():
    # C(40, 30) = 847,660,528 monomials: enumerating them would exhaust memory
    with pytest.raises(BudgetError, match="^847660528 monomials of degree <= 30 in 10 "
                                          "variables exceed 1000000$"):
        harmonic_isotypic_dims(MatrixSpaceShape("A", 5, 2), 30)


def test_harmonic_isotypic_dims_case_b():
    iso = harmonic_isotypic_dims(MatrixSpaceShape("B", 3, 1), 3)
    for lam, got in iso.items():
        assert got == dim_sp(lam, 3)


def test_oracle_stability_between_two_ranks():
    t5 = weights_table(hwv_multiplicities(MatrixSpaceShape("A", 5, 2), 3, FULL))
    t6 = weights_table(hwv_multiplicities(MatrixSpaceShape("A", 6, 2), 3, FULL))
    assert t5 == t6
