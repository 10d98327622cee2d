import random

import pytest
from hypothesis import given, settings, strategies as st

from hsagg.field import ModulusMismatch, PrimeField
from hsagg.matrix import (
    DimensionMismatch,
    FieldTooSmall,
    GfMatrix,
    IndexOutOfRange,
    RowSpace,
    Singular,
    extended_vandermonde,
    make_points,
    vandermonde,
)

F7 = PrimeField(7)

# Worked-instance matrices for (N=4, Nr=3, q=7), checked entry for entry.
V_ROWS = ((1, 1, 1), (1, 2, 4), (1, 3, 2), (1, 4, 2))
S3_ROWS = ((1, 2, 5), (2, 5, 1), (1, 0, 0), (5, 1, 2))
S4_ROWS = ((3, 6, 6), (6, 6, 3), (3, 4, 1), (1, 0, 0))


def naive_echelon(rows, q):
    """Plain Gauss-Jordan reduction, independent of RowSpace: the
    reduced echelon rows with their pivot columns, in column order."""
    mat = [[v % q for v in r] for r in rows]
    rank = 0
    pivots = []
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [(v * inv) % q for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(v - c * p) % q for v, p in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    return list(zip(pivots, mat))


def naive_rank(rows, q):
    return len(naive_echelon(rows, q))


def test_make_points_canonical():
    assert make_points(F7, 4, 3) == (1, 2, 3, 4, 5, 6)
    assert make_points(PrimeField(11), 4, 3) == (1, 2, 3, 4, 5, 6)
    with pytest.raises(FieldTooSmall):
        make_points(PrimeField(5), 4, 3)


def test_vandermonde_golden():
    pts = make_points(F7, 4, 3)
    assert vandermonde(F7, pts[:4], 3).data == V_ROWS
    assert vandermonde(F7, (3, 5, 6), 3).data == ((1, 3, 2), (1, 5, 4), (1, 6, 1))
    assert vandermonde(F7, (1,), 1).data == ((1,),)


def test_extended_vandermonde():
    pts = make_points(F7, 4, 3)
    assert extended_vandermonde(F7, pts, 4, 3).data == ((0, 0), (1, 5), (1, 6))
    f11 = PrimeField(11)
    assert extended_vandermonde(f11, make_points(f11, 4, 3), 4, 3).data == (
        (0, 0),
        (1, 5),
        (1, 6),
    )
    degenerate = extended_vandermonde(F7, make_points(F7, 4, 1), 4, 1)
    assert (degenerate.rows, degenerate.cols) == (1, 0)


def test_invert_golden():
    g3 = vandermonde(F7, (3, 5, 6), 3)
    assert g3 @ g3.inv() == GfMatrix(F7, [[int(i == j) for j in range(3)] for i in range(3)])
    ident = GfMatrix(F7, [[int(i == j) for j in range(4)] for i in range(4)])
    assert ident.inv() == ident
    with pytest.raises(Singular):
        GfMatrix(F7, [(0, 0), (0, 0)]).inv()
    with pytest.raises(DimensionMismatch):
        GfMatrix(F7, [(1, 2, 3)]).inv()


def test_known_inverse_from_decode_path():
    sub = GfMatrix(F7, ((1, 2, 5), (2, 5, 1), (5, 1, 2)))
    assert sub.inv().data == ((2, 1, 5), (1, 5, 2), (5, 2, 1))


def test_rank():
    v = GfMatrix(F7, V_ROWS)
    for rows in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
        space = RowSpace(F7, 3)
        space.insert_matrix(v.select_rows(rows))
        assert space.rank == 3
    space = RowSpace(F7, 3)
    space.insert_matrix(GfMatrix(F7, [(0, 0, 0)] * 3))
    assert space.rank == 0


def test_rank_of_duplicated_stack_matches_oracle():
    rng = random.Random(11)
    for _ in range(25):
        rows = [
            [rng.randrange(7) for _ in range(4)] for _ in range(rng.randrange(1, 5))
        ]
        a, stacked = RowSpace(F7, 4), RowSpace(F7, 4)
        a.insert_matrix(GfMatrix(F7, rows))
        stacked.insert_matrix(GfMatrix(F7, rows + rows))
        assert stacked.rank == a.rank == naive_rank(rows, 7)


def test_mat_mul_golden_decode_matrices():
    pts = make_points(F7, 4, 3)
    v = vandermonde(F7, pts[:4], 3)
    g3 = vandermonde(F7, (3, 5, 6), 3)
    g4 = vandermonde(F7, (4, 5, 6), 3)
    assert (v @ g3.inv()).data == S3_ROWS
    assert (v @ g4.inv()).data == S4_ROWS
    assert v @ GfMatrix(F7, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == v


def test_mat_mul_errors():
    a = GfMatrix(F7, [(1, 2)])
    with pytest.raises(DimensionMismatch):
        a @ a
    with pytest.raises(ModulusMismatch):
        a @ GfMatrix(PrimeField(5), [(1,), (2,)])


def test_select_rows():
    v = GfMatrix(F7, V_ROWS)
    assert v.select_rows([1, 2, 3]).data == ((1, 2, 4), (1, 3, 2), (1, 4, 2))
    assert v.select_rows(range(4)) == v
    s3 = GfMatrix(F7, S3_ROWS)
    assert s3.select_rows([0, 1, 3]).data == ((1, 2, 5), (2, 5, 1), (5, 1, 2))
    with pytest.raises(IndexOutOfRange):
        v.select_rows([0, 4])
    with pytest.raises(ValueError):
        v.select_rows([2, 1])


def test_double_inverse_on_random_invertibles():
    rng = random.Random(3)
    found = 0
    while found < 20:
        rows = [[rng.randrange(7) for _ in range(3)] for _ in range(3)]
        m = GfMatrix(F7, rows)
        try:
            inv = m.inv()
        except Singular:
            continue
        found += 1
        assert inv.inv() == m
        assert m @ inv == GfMatrix(F7, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_mds_row_subsets_of_upload_matrix():
    # every subset of at most Nr rows has full rank
    from itertools import combinations

    v = GfMatrix(F7, V_ROWS)
    for size in range(1, 4):
        for rows in combinations(range(4), size):
            space = RowSpace(F7, 3)
            space.insert_matrix(v.select_rows(rows))
            assert space.rank == size


def test_decode_matrix_unit_row():
    pts = make_points(F7, 4, 3)
    v = vandermonde(F7, pts[:4], 3)
    tail = pts[4:]
    for n in range(1, 5):
        gn = vandermonde(F7, (pts[n - 1],) + tail, 3)
        sn = v @ gn.inv()
        assert sn.row(n - 1) == (1, 0, 0)


def test_entries_canonicalized():
    m = GfMatrix(F7, [(-1, 8), (9, 0)])
    assert m.data == ((6, 1), (2, 0))
    with pytest.raises(DimensionMismatch):
        GfMatrix(F7, [(1, 2), (3,)])


def naive_product(a, b, q):
    return [
        [sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a
    ]


@settings(max_examples=80)
@given(
    st.sampled_from([2, 7, 11, 2**31 - 1]),
    st.integers(0, 4),
    st.integers(1, 4),
    st.integers(1, 5),
    st.data(),
)
def test_product_walks_only_nonzero_entries_yet_matches_the_naive_product(
    q, rows, inner, cols, data
):
    """Sparse rows (unit vectors, mostly zeros) and dense ones alike; a
    left operand with no rows gives a product of the right operand's
    width, which a further product accepts."""
    f = PrimeField(q)
    entry = st.one_of(st.just(0), st.just(0), st.integers(0, q - 1))
    a = [[data.draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[data.draw(entry) for _ in range(cols)] for _ in range(inner)]
    product = GfMatrix(f, a, inner) @ GfMatrix(f, b)
    assert [list(r) for r in product.data] == naive_product(a, b, q)
    assert (product.rows, product.cols) == (rows, cols)
    assert product == GfMatrix(f, product.data, cols)  # canonical, as if reduced
    identity = GfMatrix(f, [[int(i == j) for j in range(cols)] for i in range(cols)])
    assert product @ identity == product


def test_of_reduced_takes_rows_as_they_are():
    rows = ((1, 0, 6), (0, 2, 3))
    m = GfMatrix.of_reduced(F7, rows)
    assert m == GfMatrix(F7, rows) and m.data is rows
    assert (m.rows, m.cols) == (2, 3)
    assert GfMatrix.of_reduced(F7, ()).data == ()
    empty = GfMatrix.of_reduced(F7, (), 3)
    assert (empty.rows, empty.cols) == (0, 3) and empty != GfMatrix(F7, [])
    assert (GfMatrix(F7, [], 4).cols, GfMatrix(F7, [], 2).cols) == (4, 2)


def _state(space):
    """A snapshot of a space's pivots, basis rows and supports."""
    return list(space.pivots), [list(b) for b in space.basis], [list(s) for s in space.support]


@settings(max_examples=100)
@given(st.sampled_from([2, 3, 5, 11, 2**31 - 1, 2**61 - 1]), st.integers(0, 10), st.data())
def test_rowspace_rank_matches_oracle(q, width, data):
    """Rows with entries outside [0, q), some of them combinations of
    earlier ones, so that large fields see dependent rows too.  After
    every insert the pivots and the basis are the reduced echelon form
    of the rows so far, each support lists its row's nonzero columns,
    and ``insert`` says whether the rank grew."""
    space = RowSpace(PrimeField(q), width)
    entry = st.one_of(st.just(0), st.integers(-3 * q, 3 * q))
    rows = []
    for _ in range(data.draw(st.integers(0, 12))):
        if rows and data.draw(st.booleans()):
            coeffs = [data.draw(st.integers(-q, q)) for _ in rows]
            row = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)]
        else:
            row = [data.draw(entry) for _ in range(width)]
        rows.append(row)
        before = space.rank
        grew = space.insert(row)
        expect = naive_echelon(rows, q)
        assert space.rank == len(expect) == naive_rank(rows, q)
        assert grew == (space.rank == before + 1)
        assert sorted(zip(space.pivots, space.basis)) == expect
        assert space.support == [[j for j, v in enumerate(b) if v] for b in space.basis]


def test_rowspace_clone_is_independent():
    """A space and its clone share basis rows; inserting into either
    one leaves the other's rows, pivots and supports as they were, also
    where the insert reduces every shared row."""
    space = RowSpace(F7, 3)
    space.insert([1, 2, 3])
    fork = space.clone()
    fork.insert([0, 1, 1])
    assert space.rank == 1
    assert fork.rank == 2
    for grow_the_fork in (True, False):
        space = RowSpace(F7, 4)
        space.insert([1, 0, 1, 1])
        space.insert([0, 1, 1, 1])
        fork = space.clone()
        changed, kept = (fork, space) if grow_the_fork else (space, fork)
        snapshot = _state(kept)
        assert changed.insert([0, 0, 1, 2])
        assert _state(kept) == snapshot
        assert _state(changed) == (
            [0, 1, 2],
            [[1, 0, 0, 6], [0, 1, 0, 6], [0, 0, 1, 2]],
            [[0, 3], [1, 3], [2, 3]],
        )


def test_a_full_rowspace_still_checks_the_width():
    space = RowSpace(F7, 2)
    assert space.insert([1, 0]) and space.insert([0, 3])
    assert not space.insert([5, 6])
    with pytest.raises(DimensionMismatch):
        space.insert([1, 2, 3])
    empty = RowSpace(F7, 0)
    assert not empty.insert([])
    with pytest.raises(DimensionMismatch):
        empty.insert([1])


def test_of_echelon_of_a_basis_is_that_space():
    rng = random.Random(5)
    for q in (2, 7, 2**31 - 1):
        f = PrimeField(q)
        space = RowSpace(f, 6)
        for _ in range(5):
            space.insert([rng.randrange(q) if rng.random() < 0.5 else 0 for _ in range(6)])
        seeded = RowSpace.of_echelon(f, 6, space.basis)
        assert _state(seeded) == _state(space)
        assert (seeded.field, seeded.width, seeded.rank) == (f, 6, space.rank)
        seeded.insert([1] * 6)
        assert _state(RowSpace.of_echelon(f, 6, space.basis)) == _state(space)
