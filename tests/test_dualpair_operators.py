import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from branchbox import jsonio
from branchbox.dualpair import (MatrixSpaceShape, ProductO, analysis, build_config,
                                minor_hwv, verify_brackets)
from branchbox.dualpair.analysis import _connected_span, _weyl_commutator
from branchbox.dualpair.linalg import echelon, nullspace, rank, solve_columns
from branchbox.dualpair.poly import (apply_operator, apply_to_monomial,
                                     commutator_apply, digit_width, make_operator, pack,
                                     unpack)
from branchbox.errors import BudgetError, UsageError

from .oracles import (apply_to_exponents, brackets_by_application, decoded, grevlex_mono_key,
                      monomials_of_degree, nullspace_gauss_jordan, poly_degree,
                      printed_bracket_report, printed_config, solve_columns_gauss_jordan)


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# symbolic polynomial layer

def _apply(op, poly, width):
    """op applied to a polynomial keyed by exponent tuples, through the packed path."""
    var_count = len(next(iter(poly)))
    packed = {pack(mono, width): c for mono, c in poly.items()}
    return decoded(apply_operator(op.packed(width), packed), width, var_count)


def test_apply_operator_falling_factorials():
    # x d/dx on x^3 gives 3 x^3-1+1 = 3x^3; d^2/dx^2 on x^3 gives 6x
    euler = make_operator("E", "euler", [(1, {0: 1}, {0: 1})])
    out = _apply(euler, {(3,): F(1)}, 2)
    assert out == {(3,): F(3)}
    second = make_operator("D2", "delta", [(1, {}, {0: 2})])
    out = _apply(second, {(3,): F(1)}, 2)
    assert out == {(1,): F(6)}
    # derivative order exceeding the exponent annihilates
    assert _apply(second, {(1,): F(1)}, 2) == {}


def test_apply_operator_merges_terms():
    # (d/dx0 d/dx1) applied to x0 x1 leaves the constant 1
    mixed = make_operator("D", "delta", [(1, {}, {0: 1, 1: 1})])
    assert apply_to_monomial(mixed.packed(1), pack((1, 1), 1)) == {pack((0, 0), 1): F(1)}


def test_make_operator_validates_weight_homogeneity():
    with pytest.raises(ValueError):
        make_operator("bad", "euler", [(1, {0: 1}, {0: 1}), (1, {0: 2}, {})])


def test_commutator_of_x_and_d():
    # [d/dx, x] = 1 on any polynomial
    x = make_operator("x", "r2", [(1, {0: 1}, {})])
    d = make_operator("d", "delta", [(1, {}, {0: 1})])
    for mono in ((0,), (1,), (4,)):
        out = commutator_apply(d.packed(3), x.packed(3), {pack(mono, 3): F(1)})
        assert decoded(out, 3, 1) == {mono: F(1)}


def test_monomials_of_degree_counts():
    assert len(list(monomials_of_degree(3, 0))) == 1
    assert len(list(monomials_of_degree(3, 2))) == 6  # C(2+2,2)
    assert len(list(monomials_of_degree(4, 3))) == 20  # C(3+3,3)
    assert poly_degree({(2, 1): F(1)}) == 3


def test_grevlex_mono_ordering():
    monos = sorted(monomials_of_degree(2, 2), key=grevlex_mono_key)
    assert monos == [(2, 0), (1, 1), (0, 2)]
    # packed monomials of one degree sort as ints in the same order
    assert sorted(pack(mono, 2) for mono in monos) == [pack(mono, 2) for mono in monos]


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_an_exponent_digit_holds_up_to_its_width(width):
    top = (1 << width) - 1
    mono = pack((top, 0, top), width)
    assert unpack(mono, width, 3) == (top, 0, top)
    assert unpack(mono + pack((0, top, 0), width), width, 3) == (top, top, top)
    assert digit_width(top) == width and digit_width(top + 1) == width + 1
    refusal = f"^an exponent of \\(0, {top + 1}\\) does not fit a {width}-bit digit$"
    with pytest.raises(ValueError, match=refusal):
        pack((0, top + 1), width)
    with pytest.raises(ValueError):
        pack((-1,), width)


# ---------------------------------------------------------------------------
# exact linear algebra

def test_echelon_and_rank():
    rows = [[F(2), F(4)], [F(1), F(2)]]
    _, pivots = echelon(rows)
    assert len(pivots) == 1
    assert rank(rows) == 1
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank([]) == 0


def test_nullspace_known_kernel():
    # x + y + z = 0 and y - z = 0 has kernel spanned by (-2, 1, 1)
    rows = [[F(1), F(1), F(1)], [F(0), F(1), F(-1)]]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] + v[2] == 0
    assert v[1] == v[2]
    assert any(c != 0 for c in v)
    # 2x + 3y = 0: back-substitution gives (-3/2, 1), returned as primitive (-3, 2)
    assert nullspace([[2, 3]], 2) == [(-3, 2)]


def test_nullspace_no_rows_gives_identity():
    basis = nullspace([], 2)
    assert len(basis) == 2


def test_nullspace_with_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 3)]]
    basis = nullspace(rows, 2)
    assert len(basis) == 1
    a, b = basis[0]
    assert Fraction(1, 2) * a + Fraction(1, 3) * b == 0
    assert basis == [(-2, 3)]


def _apply_rows(rows, v):
    return [sum(a * b for a, b in zip(row, v)) for row in rows]


@pytest.mark.parametrize("seed", range(12))
def test_nullspace_returns_primitive_integer_kernel_vectors(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 7)
    rows = [[rng.choice((0, 0, 1, -1, 2, -3, 6)) for _ in range(ncols)] for _ in range(nrows)]
    if seed % 2:  # rational rows: the kernel is the same, so still integral
        rows = [[Fraction(a, rng.choice((1, 2, 3, 4))) for a in row] for row in rows]
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - rank(rows)
    pivot_cols = {c for _, c in echelon(rows)[1]}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    for v, free in zip(basis, free_cols):
        assert all(type(a) is int for a in v)
        assert math.gcd(*v) == 1
        assert v[free] > 0
        assert all(v[c] == 0 for c in free_cols if c != free)
        assert _apply_rows(rows, v) == [0] * nrows


def _annihilator_like_rows(rng, nrows, ncols):
    """Tall sparse integer rows with zero rows, duplicate rows, zero and dependent columns."""
    rows = [[rng.choice((1, -1, 2, -2, 3, -5, 7)) if rng.random() < 0.1 else 0
             for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randrange(3)):
        rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    for _ in range(rng.randrange(4)):
        src = rng.choice(rows)
        rows.insert(rng.randrange(len(rows) + 1), [rng.choice((1, -2)) * a for a in src])
    for k in rng.sample(range(ncols), rng.randrange(ncols // 3 + 1)):
        if rng.random() < 0.3:  # an all-zero column
            terms = []
        else:  # a column that depends on two others
            terms = [(rng.randrange(ncols), rng.choice((1, -2, 3))) for _ in range(2)]
        for row in rows:
            row[k] = sum(c * row[i] for i, c in terms if i != k)
    return rows


def _denser_twin(rows):
    """The sparsest nonzero row plus every row that is zero up to and at its leading
    column: a row of the span with the same leading column and, unless nothing is
    added or the sum cancels, more nonzeros."""
    nonzero = [row for row in rows if any(row)] or [rows[0]]
    twin = min(nonzero, key=lambda row: sum(map(bool, row)))
    lead = next((j for j, a in enumerate(twin) if a), len(twin))
    for row in nonzero:
        if not any(row[:lead + 1]):
            twin = [a + b for a, b in zip(twin, row)]
    return twin


@pytest.mark.parametrize("seed", range(40))
def test_sparse_elimination_matches_gauss_jordan(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randrange(1, 81), rng.randrange(1, 13)
    rows = _annihilator_like_rows(rng, nrows, ncols)
    if seed % 4 == 3:  # rational rows: the same kernel, cleared of denominators
        rows = [[Fraction(a, rng.choice((1, 2, 3, 6))) for a in row] for row in rows]
    expected = nullspace_gauss_jordan(rows, ncols)
    # rows are reduced in the order they come: a shuffle gives the same kernel,
    # and so does a denser row of the span put first, which the sparsest row
    # at its leading column then displaces as pivot
    for order in (rows, rng.sample(rows, len(rows)), [_denser_twin(rows)] + rows):
        assert nullspace(order, ncols) == expected
        assert rank(order) == ncols - len(expected)


def test_sparse_elimination_edge_shapes():
    for rows, ncols in [([[0, 0, 0]], 3), ([[0, 2, 0], [0, 2, 0], [0, -4, 0]], 3),
                        ([[1, 0, 0, 0]] * 5, 4), ([[0, 3, 0, 6], [0, 0, 0, 0], [0, 1, 0, 2]], 4),
                        ([[Fraction(1, 2), Fraction(-1, 3), 0], [3, -2, 0]], 3)]:
        assert nullspace(rows, ncols) == nullspace_gauss_jordan(rows, ncols)
        assert rank(rows) == ncols - len(nullspace_gauss_jordan(rows, ncols))


def test_solve_columns_returns_fractions_on_int_input():
    sol = solve_columns([[1, 0], [1, 1]], [3, 2])
    assert sol == [1, 2]
    assert all(type(c) is Fraction for c in sol)
    # a pivot that does not divide: 1 / int would give the float 0.5
    sol = solve_columns([[2]], [1])
    assert sol == [Fraction(1, 2)] and type(sol[0]) is Fraction


def test_solve_columns():
    cols = [[F(1), F(0)], [F(1), F(1)]]
    sol = solve_columns(cols, [F(3), F(2)])
    assert sol == [F(1), F(2)]
    assert solve_columns([[F(1), F(1)]], [F(1), F(2)]) is None
    # inconsistent rhs outside the column span
    assert solve_columns([[F(1), F(0)]], [F(0), F(1)]) is None


def _random_system(rng, kind: str, halves: bool):
    """Columns and rhs of a random system of the given kind, with zero rows and columns."""
    nrows, ncand = rng.randrange(1, 7), rng.randrange(1, 6)
    pool = (0, 0, 0, 1, -1, 2, -3, 5)

    def entry():
        a = rng.choice(pool)
        return Fraction(a, 2) if halves and a % 2 else a

    cols = [[entry() for _ in range(nrows)] for _ in range(ncand)]
    if rng.random() < 0.5:  # a zero row
        zero = rng.randrange(nrows)
        for col in cols:
            col[zero] = 0
    if rng.random() < 0.5:  # a zero column
        cols[rng.randrange(ncand)] = [0] * nrows
    if kind == "rank-deficient":  # one column a combination of two others
        a, b = rng.choice(pool), rng.choice(pool)
        cols.append([a * x + b * y for x, y in zip(rng.choice(cols), rng.choice(cols))])
        rng.shuffle(cols)
    coeffs = [entry() for _ in cols]
    rhs = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(nrows)]
    if kind == "inconsistent":  # a combination of the equations with its rhs moved
        alphas = [rng.choice(pool) for _ in range(nrows)]
        for col in cols:
            col.append(sum(a * x for a, x in zip(alphas, col)))
        rhs.append(sum(a * b for a, b in zip(alphas, rhs)) + rng.choice((1, -2, Fraction(3, 2))))
    return cols, rhs


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("kind", ["consistent", "inconsistent", "rank-deficient"])
def test_solve_columns_matches_gauss_jordan(kind, seed):
    rng = random.Random(f"{kind}{seed}")
    cols, rhs = _random_system(rng, kind, halves=seed % 2 == 1)
    sol = solve_columns(cols, rhs)
    assert sol == solve_columns_gauss_jordan(cols, rhs)
    if kind == "inconsistent":
        assert sol is None
        return
    assert sol is not None and all(type(c) is Fraction for c in sol)
    assert [sum(c * col[i] for c, col in zip(sol, cols)) for i in range(len(rhs))] == rhs


def test_solve_columns_edge_shapes():
    assert solve_columns([], []) == []
    assert solve_columns([], [0, 0]) == []
    assert solve_columns([], [0, 1]) is None
    assert solve_columns([[], []], []) == [0, 0]
    assert solve_columns([[0, 0], [0, 0]], [0, 0]) == [0, 0]


# ---------------------------------------------------------------------------
# model configurations

@pytest.mark.parametrize("shape", [MatrixSpaceShape("A", 3, 2),
                                   MatrixSpaceShape("A", 3, 1, 1, split_columns=True),
                                   MatrixSpaceShape("B", 2, 2),
                                   MatrixSpaceShape("C", 3, 2, 1),
                                   MatrixSpaceShape("C", 3, 1, 1, split_columns=True)])
def test_integral_operators_carry_int_coefficients(shape):
    cfg = build_config(shape)
    for op in cfg.deltas + cfg.r2s + cfg.k_raisings + cfg.gl_raisings:
        assert all(type(t.coeff) is int for t in op.terms), op.name
        for mono in monomials_of_degree(cfg.var_count, 2):
            image = apply_to_monomial(op.packed(3), pack(mono, 3))
            assert all(type(c) is int for c in image.values())


def test_euler_operators_keep_their_half_integer_shift():
    # E[i,i] carries n/2 = 3/2 for n = 3: the one non-integral coefficient
    cfg = build_config(MatrixSpaceShape("A", 3, 1))
    (euler,) = cfg.eulers
    assert [t.coeff for t in euler.terms if not t.xs] == [Fraction(3, 2)]
    out = decoded(apply_to_monomial(euler.packed(1), pack((1, 0, 0), 1)), 1, 3)
    assert out == {(1, 0, 0): Fraction(5, 2)}
    assert all(type(c) is Fraction for c in out.values())


def test_case_a_operator_counts():
    cfg = build_config(MatrixSpaceShape("A", 5, 2))
    assert cfg.var_count == 10
    assert len(cfg.deltas) == 3   # i <= j pairs of 2 columns
    assert len(cfg.r2s) == 3
    assert len(cfg.eulers) == 4   # all (i, j) pairs of GL_2
    assert len(cfg.k_raisings) == 4  # positive roots of so_5 (type B2)
    assert len(cfg.gl_raisings) == 1


def test_o_raising_counts_match_root_systems():
    assert len(build_config(MatrixSpaceShape("A", 4, 1)).k_raisings) == 2  # D2
    assert len(build_config(MatrixSpaceShape("A", 6, 1)).k_raisings) == 6  # D3


def test_case_b_operator_counts():
    cfg = build_config(MatrixSpaceShape("B", 2, 2))
    assert cfg.var_count == 8  # 2n x m
    assert len(cfg.deltas) == 1   # antisymmetric: i < j only
    assert len(cfg.r2s) == 1
    assert len(cfg.k_raisings) == 4  # positive roots of sp_4 (C2)


def test_case_c_operator_counts():
    cfg = build_config(MatrixSpaceShape("C", 2, 1, 1))
    assert cfg.var_count == 4  # x: 2x1, y: 1x2
    assert len(cfg.deltas) == 1
    assert len(cfg.r2s) == 1
    assert len(cfg.k_raisings) == 1  # gl_2 has one positive root


def test_split_shapes_validate():
    with pytest.raises(UsageError):
        MatrixSpaceShape("B", 2, 2, 1)
    with pytest.raises(UsageError):
        MatrixSpaceShape("A", 5, 2, 1)  # case A uses l only when split
    with pytest.raises(UsageError):
        MatrixSpaceShape("A", 5, 2, 0, split_columns=True)
    MatrixSpaceShape("A", 5, 1, 1, split_columns=True)
    MatrixSpaceShape("C", 3, 2, 1, split_columns=True)


def test_product_config_shares_form():
    cfg = build_config(ProductO(3, 3, 1))
    assert cfg.var_count == 6
    assert len(cfg.deltas) == 1
    assert len(cfg.r2s) == 1
    families = [f.family for f in cfg.factors]
    assert families == ["O", "O", "GL"]


# ---------------------------------------------------------------------------
# bracket closure

# sha256 of repr() of every config in a grid (every SpaceConfig field, the
# operators' terms included), recorded while ProductO had a builder of its
# own: case A plain and printed-Euler (`printed_config`) over n 1..8, split
# over n 1..8 with column blocks (m, l), ProductO over n1, n2 in 1..6
CONFIG_DIGESTS = [
    ("A", 1, "9a646ca3fe5dbe68163378b2fd9aaa28d67b52400c8c10ad8ee331353a81aa2d"),
    ("A", 2, "aee1ab7c3a1333307fca0f220e467365ee00dd8eef3ebd0182373af0e40355a4"),
    ("A", 3, "f78603295aa733141cbfed2760bb943c55830e9ce284f78aeb6f4d368da14a31"),
    ("A printed", 1, "26d2b84e533bb1298f9c98c89f082e66d2ec2fe0e562560fb6a10b8a661bfa4f"),
    ("A printed", 2, "9602aceec3246fa95b7ed0257a64b6b57120c8ecde27b8ab3744d8b694df3f0e"),
    ("A printed", 3, "77bb719832c2a6970dc14ad016b0952d7d6f0c4dda122e1faf64163633ac2caa"),
    ("A split", (1, 1), "d2df473efdd433546ae23038b4016cc2a484292fab8bebb6ae2dfa592badf863"),
    ("A split", (1, 2), "fa76114068405e186d9326e0f1fe2919fc894f499797526fec290c3a23aefde6"),
    ("A split", (2, 1), "2d253879c268214bba318580f4947057eef54ce8b207f361b02425b12b7c1c9e"),
    ("A split", (2, 2), "ba0ed758d900e1cbcdb3c01db0dfd08b9968749e6dff4fab95413a2331ca667e"),
    ("A split", (3, 1), "27ad12d5ba0603d780d465df525f6372a25e082ea243a89d984608e637aab192"),
    ("A split", (3, 2), "4dbab8be29914cdd444c735c89a6334a59cbc77b2c594a1d12ded8142f783c91"),
    ("ProductO", 1, "6d9947f031f0a164263d667321d845511c28cf25200f648fd8b148667fd3c876"),
    ("ProductO", 2, "db850344d85c44ca2d270bc501344826e20e3cf6579f8346b08d02ed40753836"),
    ("ProductO", 3, "b2bc2f760bd3fab2884bcc5cc201dc733243d1b638fb71c44b45299a50ae2ffc"),
    # recorded while cases B and stacked C had builders of their own: case B
    # over n 1..5 with m given, stacked C over n 1..5 with column blocks
    # (m, l), plain C over n 1..5 and m 1..3 with l given
    ("B", 1, "5a0b7127a6e111e8b72cf0b18da0dd6d0e0a9704158f586a8b114a9936d195c2"),
    ("B", 2, "6135ebdf6edf5d69509abaf75d61515f1a7dcc2410d1c05a27e771ef9db0fa6a"),
    ("B", 3, "a0a5ef0a5d032c38b8baf53075af6de4c89120ede6a4bdb779186a382dff598e"),
    ("B", 4, "f04f2d5af8c43728566bd421f232367ed969b857f5744aafbc7078e97a699ee3"),
    ("C split", (1, 1), "43ec0a623b9de5b962a1fb3659a74f68ea7de6c6ebe25b2b1653562778610035"),
    ("C split", (1, 2), "abab3feef92b64db1a4fac0e8c83802ea3aee83017c655b602927b195f9f4fc8"),
    ("C split", (2, 1), "c9e3a9f914d96630b80393427180e981eb6d489d0dfea099a20c8430530624f0"),
    ("C split", (2, 2), "eb0d10c5c9d36c278897c6403dc7f353b8441d60d168a26d9faee4c7bfb18cd5"),
    ("C split", (3, 1), "9861552f52fa637e48dedc28526af78cbe12a021a827c82741885282121b2949"),
    ("C split", (3, 2), "62f8602745c543d5ef2fb0381c50cd6ad2fa170c6f7615b24b42af3d5bf6340f"),
    ("C", 0, "88b080392807444f8a0afb865c97889d797a39e5c9a3877825ef9a0dd0685d76"),
    ("C", 1, "2b86192814292d6b6e30929ba9d50b853678c66a005fbb4c6fabe6b44788cc25"),
    ("C", 2, "ec60fc38f47181b87e74f183bc80d26d329237cb7464b7019c860a0e5bbb7f1a"),
]


def _config_grid(kind, cols):
    if kind == "ProductO":
        return [build_config(ProductO(n1, n2, cols))
                for n1 in range(1, 7) for n2 in range(1, 7)]
    if kind == "A split":
        return [build_config(MatrixSpaceShape("A", n, *cols, split_columns=True))
                for n in range(1, 9)]
    if kind == "B":
        return [build_config(MatrixSpaceShape("B", n, cols)) for n in range(1, 6)]
    if kind == "C split":
        return [build_config(MatrixSpaceShape("C", n, *cols, split_columns=True))
                for n in range(1, 6)]
    if kind == "C":
        return [build_config(MatrixSpaceShape("C", n, m, cols))
                for n in range(1, 6) for m in range(1, 4)]
    build = build_config if kind == "A" else printed_config
    return [build(MatrixSpaceShape("A", n, cols)) for n in range(1, 9)]


@pytest.mark.parametrize("kind,cols,digest", CONFIG_DIGESTS,
                         ids=[f"{k}-{c}" for k, c, _ in CONFIG_DIGESTS])
def test_orthogonal_configs_are_pinned(kind, cols, digest):
    text = "".join(repr(config) for config in _config_grid(kind, cols))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _check_packed_application(config, ops, variables, degree, width):
    """Each op on every monomial of the given degree in the given variables, the others
    at exponent 0: the decoded packed image against the tuple reference."""
    packed = [op.packed(width) for op in ops]
    for exps in monomials_of_degree(len(variables), degree):
        mono = [0] * config.var_count
        for v, e in zip(variables, exps):
            mono[v] = e
        code = pack(mono, width)
        for op, pop in zip(ops, packed):
            image = decoded(apply_to_monomial(pop, code), width, config.var_count)
            assert image == apply_to_exponents(op, tuple(mono)), (config.descriptor, op.name)


@pytest.mark.parametrize("kind,cols", [(k, c) for k, c, _ in CONFIG_DIGESTS],
                         ids=[f"{k}-{c}" for k, c, _ in CONFIG_DIGESTS])
def test_packed_application_equals_the_tuple_reference(kind, cols):
    # every operator family on monomials of degree d <= 3: the families that
    # raise no degree at the width of degree 3, the r2s at the width of d + 2.
    # Every config of the grid with at most 6 variables takes every monomial;
    # the grid's largest (up to 40 variables, 80 bits at width 2) takes each
    # family's last operator on the monomials in that operator's own variables
    grid = _config_grid(kind, cols)
    for config in [c for c in grid if c.var_count <= 6] + [grid[-1]]:
        families = (config.deltas, config.eulers, config.raisings, config.r2s)
        if config.var_count > 6:
            families = tuple(family[-1:] for family in families)
        for degree in range(4):
            for i, family in enumerate(families):
                width = digit_width(degree + 2 if i == 3 else 3)
                for op in family:
                    variables = (range(config.var_count) if config.var_count <= 6 else
                                 sorted({v for t in op.terms for v, _ in t.xs + t.ds}))
                    _check_packed_application(config, [op], variables, degree, width)


def test_brackets_pass_on_acceptance_shapes():
    for shape in (MatrixSpaceShape("A", 2, 1), MatrixSpaceShape("B", 2, 2),
                  MatrixSpaceShape("C", 2, 1, 1)):
        report = verify_brackets(shape)
        assert report.ok, report.failures


def test_bracket_structure_constant_example():
    report = verify_brackets(MatrixSpaceShape("A", 2, 1))
    entry = next(e for e in report.entries
                 if e.left == "D[1,1]" and e.right == "r2[1,1]")
    assert entry.ok
    assert entry.expression == (("E[1,1]", Fraction(4)),)


def test_bracket_abelian_pieces_checked():
    report = verify_brackets(MatrixSpaceShape("A", 4, 2))
    rules = {(e.left[:1], e.right[:1], e.rule) for e in report.entries}
    assert ("D", "D", "abelian") in rules
    assert ("r", "r", "abelian") in rules
    assert all(e.ok for e in report.entries if e.rule == "abelian")


@pytest.mark.parametrize("n,message", [
    # 400 variables, counted before the config is built
    (20, "400 variables exceed 200"),
    # 144 variables fit, but the 330 operators' terms make this many products
    (12, "8740578 term products exceed 50000"),
])
def test_bracket_check_refuses_on_its_counts_before_any_work(monkeypatch, n, message):
    def expensive(*args, **kwargs):
        raise AssertionError("the bracket check did work before refusing")

    for name in ("_add_contractions", "_weyl_commutator", "solve_columns"):
        monkeypatch.setattr(analysis, name, expensive)
    if n == 20:
        monkeypatch.setattr(analysis, "build_config", expensive)
    with pytest.raises(BudgetError, match=f"^{message}$"):
        verify_brackets(MatrixSpaceShape("A", n, n))


# A(6,3) and A(7,4) (10,380 and 45,140 term products; A(7,4) was refused by the
# count of applications), and per case the shape under the count that took the
# longest, 0.4-0.7 s each on a 2-vCPU x86_64 VM: A(1,12), 44,850 pairs; A(1,8+7
# split), 28,920; B(1,8), 7,260; C(1,17,0), 41,616 pairs of which 136 solve against
# the Euler span; C(1,2,17 split), 42,778.
LARGEST_BRACKET_SHAPES = [("A", 6, 3, 0, False), ("A", 7, 4, 0, False),
                          ("A", 1, 12, 0, False), ("A", 1, 8, 7, True),
                          ("B", 1, 8, 0, False), ("C", 1, 17, 0, False),
                          ("C", 1, 2, 17, True)]


@pytest.mark.parametrize("case,n,m,l,split", LARGEST_BRACKET_SHAPES)
def test_bracket_check_accepts_the_largest_shapes_within_its_count(case, n, m, l, split):
    assert verify_brackets(MatrixSpaceShape(case, n, m, l, split_columns=split)).ok


def test_bracket_solves_keep_only_the_connected_span(monkeypatch):
    # C(1,17,0) has 289 Euler operators; the 17 diagonal ones share their n/2 shift
    # with the identity, so an Euler-span solve sees at most those 18 columns
    widths = []

    def recording(columns, rhs):
        widths.append(len(columns))
        return solve_columns(columns, rhs)

    monkeypatch.setattr(analysis, "solve_columns", recording)
    assert verify_brackets(MatrixSpaceShape("C", 1, 17)).ok
    assert len(widths) == 4760 and max(widths) == 18


def test_connected_span_follows_shared_keys():
    # comm = x0 reaches a = x0 + x1 directly, b = x1 + x2 through x1, and c = x2
    # through b; e = x3 shares no key, so it is left out
    x = [((((i, 1),), ()),) for i in range(4)]
    coeffs = {"a": {x[0][0]: 1, x[1][0]: 1}, "e": {x[3][0]: 1},
              "b": {x[1][0]: 1, x[2][0]: -1}, "c": {x[2][0]: 1}}
    names = ["a", "e", "b", "c"]
    owners = {}
    for i, name in enumerate(names):
        for key in coeffs[name]:
            owners.setdefault(key, []).append(i)
    cols, keys = _connected_span({x[0][0]: 1}, names, coeffs, owners)
    assert cols == [0, 2, 3] and keys == [x[0][0], x[1][0], x[2][0]]


# sha256 of jsonio.dumps(bracket_report_json(report)) for the bench's bracket
# shapes, the report of `verify_brackets` or, printed, of
# `printed_bracket_report`, recorded before the bracket check cached
# operator images and solved its spans by fraction-free elimination
BRACKET_REPORT_DIGESTS = [
    (("A", 5, 1, 0), False, "d7aaad05a2647221920a4ac3f5e50d8343f7974f3938e79568ce40e547eebf2e"),
    (("B", 1, 2, 0), False, "1ca8b76b8b1ee011da69de03d90c0d236b70ca28a6e5701b1943510287e816bb"),
    (("C", 3, 1, 1), False, "b9737cb10c718964288542d604b1cdaa3a2cae976201766e0ef28455a27c9a97"),
    (("C", 1, 2, 1), False, "6b3fab1ac449f3f55139b117d4bb2f08f6b0975f478ff63155b5e8d6cf8b55c5"),
    (("C", 3, 2, 0), False, "287e4f4043cb1fbd31345eb2d76c86799ee11cbb1dbec5a7669b1a664a84ed1c"),
    (("A", 4, 2, 0), True, "8706674187ccbdece665520537b659dc203d36739a282511a0bdb5e96c68333b"),
]


@pytest.mark.parametrize("shape,printed,digest", BRACKET_REPORT_DIGESTS,
                         ids=[f"{s[0]}{s[1:]}{'-printed' if p else ''}"
                              for s, p, _ in BRACKET_REPORT_DIGESTS])
def test_bracket_report_is_pinned(shape, printed, digest):
    shape = MatrixSpaceShape(*shape)
    report = printed_bracket_report(shape) if printed else verify_brackets(shape)
    text = jsonio.dumps(jsonio.bracket_report_json(report))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _weyl(terms):
    return {(tuple(sorted(xs.items())), tuple(sorted(ds.items()))): c for c, xs, ds in terms}


def test_weyl_commutator_product_rule():
    x = make_operator("x", "r2", [(1, {0: 1}, {})])
    d = make_operator("d", "delta", [(1, {}, {0: 1})])
    assert _weyl_commutator(d, x) == _weyl([(1, {}, {})])
    assert _weyl_commutator(x, d) == _weyl([(-1, {}, {})])
    x2 = make_operator("x2", "r2", [(1, {0: 2}, {})])
    d2 = make_operator("d2", "delta", [(1, {}, {0: 2})])
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    assert _weyl_commutator(d2, x2) == _weyl([(4, {0: 1}, {0: 1}), (2, {}, {})])
    # d0^2 d1 against x0 x1^2: one contraction on x0, one on x1, or both
    s = make_operator("s", "delta", [(1, {}, {0: 2, 1: 1})])
    t = make_operator("t", "r2", [(1, {0: 1, 1: 2}, {})])
    assert _weyl_commutator(s, t) == _weyl([(2, {1: 2}, {0: 1, 1: 1}),
                                            (2, {0: 1, 1: 1}, {0: 2}), (4, {1: 1}, {0: 1})])
    # terms that share no variable commute; equal terms cancel to zero
    assert _weyl_commutator(make_operator("e", "euler", [(1, {0: 1}, {1: 1})]),
                            make_operator("f", "euler", [(3, {2: 1}, {3: 1})])) == {}
    assert _weyl_commutator(d2, d2) == {} and _weyl_commutator(x2, x2) == {}


def test_weyl_commutator_acts_as_the_applied_commutator():
    # every pair of the case C family, Euler operators with their n/2 shift and the
    # GL-side raisings included, on every monomial of degree <= 3
    cfg = build_config(MatrixSpaceShape("C", 3, 1, 1))
    family = cfg.deltas + cfg.r2s + cfg.eulers + cfg.k_raisings + cfg.gl_raisings
    width = digit_width(3 + 4)  # two r2s on top of degree 3
    sources = [pack(mono, width) for d in range(4)
               for mono in monomials_of_degree(cfg.var_count, d)]
    for a, b in itertools.combinations(family, 2):
        comm = make_operator("comm", "euler", [(c, dict(xs), dict(ds))
                                               for (xs, ds), c in _weyl_commutator(a, b).items()])
        pa, pb, pc = a.packed(width), b.packed(width), comm.packed(width)
        for src in sources:
            assert apply_to_monomial(pc, src) == commutator_apply(pa, pb, {src: 1})


# the shapes the Weyl-algebra check was first compared on, case A in both Euler
# variants but A(6,3), whose sweep takes seconds, in the untwisted one only
APPLICATION_SHAPES = ([(("A", n, m), printed) for n, m in ((2, 1), (4, 2), (5, 1))
                       for printed in (False, True)] +
                      [((case, *dims), False) for case, *dims in
                       (("A", 6, 3), ("B", 1, 2), ("B", 2, 2), ("B", 3, 2), ("C", 1, 2, 1),
                        ("C", 2, 1, 1), ("C", 3, 1, 1), ("C", 3, 2, 0), ("C", 3, 2, 2))])


@pytest.mark.parametrize("shape,printed", APPLICATION_SHAPES,
                         ids=[f"{s[0]}{s[1:]}{'-printed' if p else ''}"
                              for s, p in APPLICATION_SHAPES])
def test_bracket_report_equals_the_application_sweep(shape, printed):
    shape = MatrixSpaceShape(*shape)
    report = printed_bracket_report(shape) if printed else verify_brackets(shape)
    assert report == brackets_by_application(shape, printed=printed)


def test_printed_euler_variant_fails_brackets():
    report = printed_bracket_report(MatrixSpaceShape("A", 2, 1))
    assert not report.ok
    failing = {(e.left, e.right) for e in report.failures}
    assert ("D[1,1]", "r2[1,1]") in failing


# ---------------------------------------------------------------------------
# explicit harmonic highest weight vectors

def test_minor_certificates():
    for cols in ([1], [2], [1, 2]):
        cert = minor_hwv(5, 2, cols)
        assert cert.ok
        j = len(cols)
        assert cert.weight[0] == tuple([1] * j + [0] * (2 - j))


def test_minor_validation():
    with pytest.raises(UsageError):
        minor_hwv(3, 2, [1, 2])  # needs 2m <= n
    with pytest.raises(UsageError):
        minor_hwv(5, 2, [2, 1])  # not increasing
    with pytest.raises(UsageError):
        minor_hwv(5, 2, [])
    with pytest.raises(UsageError):
        minor_hwv(5, 2, [3])  # column out of range


def test_delta_and_r2_degree_shifts():
    config = build_config(MatrixSpaceShape("A", 3, 1))
    assert config.deltas and config.r2s
    assert all(op.shift == -2 for op in config.deltas)
    assert all(op.shift == 2 for op in config.r2s)
