import random
import warnings

import numpy as np
import pytest

from fiberres import linalg


def brute_rank(mat, p):
    """Row-reduce with fraction-free elimination, counting pivots."""
    rows = [list(int(x) % p for x in row) for row in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def random_matrix(rng, m, n, p):
    return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)],
                    dtype=np.int64)


def stored(mat, p, entries):
    """``mat`` read into a ``linalg.Matrix`` kept as its nonzero entries,
    or as a dense block, whatever its size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "STORAGE_MIN_CELLS", 0 if entries else 1 << 62)
        return linalg.Matrix.read(mat, p)


@pytest.fixture(params=["entries everywhere", "default rule"])
def storage(request, monkeypatch):
    """Run each test with every matrix kept as entries, and again with
    the module's storage rule, below which matrices are dense blocks."""
    cells = 0 if request.param == "entries everywhere" else linalg.STORAGE_MIN_CELLS
    monkeypatch.setattr(linalg, "STORAGE_MIN_CELLS", cells)
    return cells


def test_echelon_against_brute_force():
    rng = random.Random(101)
    for p in (2, 5, 32003):
        for _ in range(25):
            m, n = rng.randrange(1, 7), rng.randrange(1, 7)
            mat = random_matrix(rng, m, n, p)
            R, pivots = linalg.echelon(mat, p)
            R = np.asarray(R)
            assert len(pivots) == brute_rank(mat, p) and R.shape == (len(pivots), n)
            # pivot columns are unit columns
            for r, c in enumerate(pivots):
                col = np.zeros(len(pivots), dtype=np.int64)
                col[r] = 1
                assert np.array_equal(R[:, c], col)
            # row space is preserved
            assert linalg.rank(np.vstack([mat, R]), p) == len(pivots)


def test_kernel_properties():
    rng = random.Random(202)
    p = 5
    for _ in range(40):
        m, n = rng.randrange(0, 6), rng.randrange(0, 6)
        mat = random_matrix(rng, m, n, p) if m and n else np.zeros((m, n), dtype=np.int64)
        ker = np.asarray(linalg.kernel(mat, p))
        assert ker.shape[0] == n - linalg.rank(mat, p)
        if ker.size and mat.size:
            assert not np.any((mat @ ker.T) % p)
        assert linalg.rank(ker, p) == ker.shape[0]


def test_the_kernel_of_a_map_with_no_rows_is_the_identity_without_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("eliminated a map with no rows")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    monkeypatch.setattr(linalg, "_split", refuse)
    for n in (0, 3, 200):
        for entries in (False, True):
            K = linalg.kernel(stored(np.zeros((0, n)), 5, entries), 5)
            assert np.asarray(K).dtype == np.int64 and np.array_equal(K, np.eye(n, dtype=np.int64))


def test_solve_particular_and_inconsistent():
    p = 7
    mat = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)
    rhs = np.array([3, 6], dtype=np.int64)
    x = linalg.solve(mat, rhs, p)
    assert np.array_equal((mat @ x) % p, rhs)
    assert linalg.solve(mat, np.array([1, 0]), p) is None
    # matrix right-hand side
    B = np.array([[3, 1], [6, 2]], dtype=np.int64)
    X = linalg.solve(mat, B, p)
    assert np.array_equal((mat @ X) % p, B % p)


def test_multi_column_solve_equals_column_by_column():
    rng = random.Random(404)
    p = 7
    for _ in range(60):
        m, n, k = rng.randrange(0, 6), rng.randrange(0, 6), rng.randrange(1, 5)
        mat = random_matrix(rng, m, n, p) if m and n else np.zeros((m, n), dtype=np.int64)
        if n and rng.random() < 0.5:
            mat[:, rng.randrange(n)] = 0  # leave a free column
        x = random_matrix(rng, n, k, p) if n else np.zeros((0, k), dtype=np.int64)
        rhs = (mat @ x) % p
        if m and rng.random() < 0.5:
            rhs[:, rng.randrange(k)] = random_matrix(rng, m, 1, p)[:, 0]
        cols = [linalg.solve(mat, rhs[:, c], p) for c in range(k)]
        X = linalg.solve(mat, rhs, p)
        if any(c is None for c in cols):
            assert X is None
        else:
            assert np.array_equal(X, np.stack(cols, axis=1))


def test_solve_is_deterministic_echelon_choice():
    p = 5
    mat = np.array([[1, 1, 0]], dtype=np.int64)
    x = linalg.solve(mat, np.array([2]), p)
    # free coordinates stay zero
    assert np.array_equal(x, np.array([2, 0, 0]))


def test_span_incremental_matches_batch():
    rng = random.Random(303)
    p = 11
    for _ in range(30):
        n = rng.randrange(1, 8)
        vecs = random_matrix(rng, rng.randrange(1, 10), n, p)
        span = linalg.Span(p, n)
        for v in vecs:
            span.add(v)
        assert span.dim == linalg.rank(vecs, p)
        R = np.asarray(linalg.echelon(vecs, p)[0])
        assert np.array_equal(span.basis_matrix(), R)
        for v in vecs:
            assert not span.reduce(v).any()


def test_span_reduce_residual_is_outside_span():
    p = 5
    span = linalg.Span(p, 3)
    span.add([1, 2, 0])
    v = np.array([2, 4, 1], dtype=np.int64)
    resid = span.reduce(v)
    assert np.array_equal(resid, np.array([0, 0, 1]))


def test_empty_shapes():
    p = 5
    assert linalg.rank(np.zeros((0, 4), dtype=np.int64), p) == 0
    assert linalg.kernel(np.zeros((0, 3), dtype=np.int64), p).shape == (3, 3)
    assert linalg.kernel(np.zeros((3, 0), dtype=np.int64), p).shape == (0, 0)


def test_inv_mod():
    for p in (2, 3, 32003):
        for x in range(1, min(p, 20)):
            assert (x * linalg.inv_mod(x, p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        linalg.inv_mod(0, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 32003, 65521])
def test_the_table_of_inverses_agrees_with_pow(p):
    """The table built from the powers of a primitive root holds the
    inverse of every nonzero x, as Python's pow gives it, at primes up to
    the largest one allowed; it is kept once per prime as uint16."""
    table = linalg._inverse_table(p)
    assert table.dtype == np.uint16 and table.shape == (p,)
    assert table[1:].tolist() == [pow(x, p - 2, p) for x in range(1, p)]
    linalg.inv_mod(np.ones(2, dtype=np.int64), p)
    assert np.array_equal(linalg._INVERSES[p], table)


@pytest.mark.parametrize("p", [2, 3, 5003, 65521])
def test_inv_mod_of_an_array_is_entrywise(p):
    """The table lookup agrees with Python's pow at primes up to the
    largest one allowed, including x = p - 1, keeps the array's shape and
    gives int64."""
    x = np.random.default_rng(p).integers(1, p, 200)
    x[:2] = 1, p - 1
    inv = linalg.inv_mod(x, p)
    assert inv.dtype == np.int64
    assert inv.tolist() == [pow(int(v), p - 2, p) for v in x]
    assert linalg.inv_mod(x[:0], p).shape == (0,)
    assert linalg.inv_mod(x[:6].reshape(2, 3), p).tolist() == inv[:6].reshape(2, 3).tolist()
    with pytest.raises(ZeroDivisionError):
        linalg.inv_mod(np.array([1, p]), p)


# -- the int64 product, the reshape and typed errors ------------------------


def test_matmul_equals_the_exact_product_in_both_storages():
    """``matmul`` is exact int64 at every prime up to 2^16: a dense block
    product and the summed entry products, on random sparse operands on
    both sides of the storage rule, and a long product of all p - 1."""
    rng = np.random.default_rng(7)
    for p in (2, 3, 32003, 65521):
        for m, k, n in ((1, 1, 1), (3, 5, 4), (17, 40, 9), (0, 3, 2), (2, 0, 3), (70, 80, 90)):
            a = rng.integers(0, p, size=(m, k)) * (rng.random((m, k)) < 0.3)
            b = rng.integers(0, p, size=(k, n)) * (rng.random((k, n)) < 0.3)
            got = linalg.matmul(a, b, p)
            assert got.shape == (m, n)
            assert np.array_equal(np.asarray(got), (a @ b) % p)
    top = np.full((4, 300), 65520, dtype=np.int64)
    exact = 300 * 65520 ** 2 % 65521
    assert np.asarray(linalg.matmul(top, top.T, 65521)).tolist() == [[exact] * 4] * 4


def test_matmul_raises_a_typed_error_on_shapes_that_do_not_fit():
    with pytest.raises(linalg.LinalgError, match="cannot multiply"):
        linalg.matmul(np.zeros((2, 3)), np.zeros((2, 3)), 5)
    assert issubclass(linalg.LinalgError, ValueError)


@pytest.mark.parametrize("shape, new", [((6, 4), (3, 8)), ((100, 90), (900, 10)),
                                        ((64, 64), (1, 4096)), ((0, 5), (5, 0))])
def test_reshape_reads_the_cells_row_major_in_either_storage(shape, new):
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 7, size=shape) * (rng.random(shape) < 0.1)
    mat = linalg.Matrix.read(arr, 7)
    got = mat.reshape(new)
    assert got.shape == new and got.kept_dense == mat.kept_dense
    want = arr.reshape(new) % 7
    assert np.array_equal(np.asarray(got), want)
    r, c, v = got.nonzero()  # entries stay row-major
    assert [r.tolist(), c.tolist()] == [x.tolist() for x in np.nonzero(want)]
    assert v.tolist() == want[np.nonzero(want)].tolist()
    with pytest.raises(linalg.LinalgError, match="cannot reshape"):
        mat.reshape((shape[0] + 1, shape[1]))


@pytest.mark.parametrize("shape", [(6, 4), (100, 90)])
def test_key_tells_matrices_of_one_shape_apart_in_either_storage(shape):
    rng = np.random.default_rng(5)
    arr = rng.integers(0, 7, size=shape) * (rng.random(shape) < 0.1)
    a, b = linalg.Matrix.read(arr, 7), linalg.Matrix.read(arr + 7, 7)
    assert a.key() == b.key()
    arr[0, 0] = (arr[0, 0] + 1) % 7
    assert linalg.Matrix.read(arr, 7).key() != a.key()


def test_normalize_rejects_three_axes():
    with pytest.raises(linalg.LinalgError, match="3 axes"):
        linalg.normalize(np.zeros((2, 2, 2), dtype=np.int64), 5)


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(linalg.LinalgError, match="does not fit"):
        linalg.solve(np.eye(3, dtype=np.int64), np.array([1, 2]), 5)


def test_kernel_against_definition():
    rng = random.Random(404)
    for p in (2, 7, 32003):
        for _ in range(20):
            m, n = rng.randrange(1, 6), rng.randrange(1, 8)
            mat = random_matrix(rng, m, n, p)
            K = np.asarray(linalg.kernel(mat, p))
            assert K.shape == (n - linalg.rank(mat, p), n)
            assert not np.any((mat @ K.T) % p)
            # echelon in the free columns: the k-th vector has a 1 at the
            # k-th free column and 0 at the others
            pivots = linalg.echelon(mat, p)[1]
            free = [c for c in range(n) if c not in pivots]
            assert np.array_equal(K[:, free], np.eye(len(free), dtype=np.int64))


class InsertSpan:
    """Reference: the loop-and-insert Span that keeps its rows sorted by
    pivot, reducing against one pivot at a time."""

    def __init__(self, p, width):
        self.p = p
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots = []

    def reduce(self, vec):
        v = np.asarray(vec, dtype=np.int64) % self.p
        for r, c in enumerate(self.pivots):
            if v[c]:
                v = (v - v[c] * self.rows[r]) % self.p
        return v

    def add(self, vec):
        p = self.p
        v = self.reduce(vec)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return None
        c = int(nz[0])
        v = (v * linalg.inv_mod(v[c], p)) % p
        hit = np.flatnonzero(self.rows[:, c])
        self.rows[hit] = (self.rows[hit] - np.outer(self.rows[hit, c], v)) % p
        pos = int(np.searchsorted(self.pivots, c))
        self.rows = np.insert(self.rows, pos, v, axis=0)
        self.pivots.insert(pos, c)
        return v


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_span_matches_the_insert_reference(p):
    """Grown from a few random rows, then with vectors whose pivots come
    out of order (each vector's leading column is drawn at random), the
    buffered Span agrees with the sorted-insert one after every add."""
    rng = random.Random(p)
    for _ in range(25):
        n = rng.randrange(1, 12)
        span, ref = linalg.Span(p, n), InsertSpan(p, n)
        for v in random_matrix(rng, rng.randrange(0, 4), n, p):
            span.add(v), ref.add(v)
        for _ in range(rng.randrange(1, 3 * n)):
            v = np.array(random_matrix(rng, 1, n, p)[0], dtype=np.int64)
            v[: rng.randrange(n)] = 0
            if rng.random() < 0.3 and ref.rows.shape[0]:  # already in the span
                v = (rng.randrange(p) * ref.rows[rng.randrange(ref.rows.shape[0])]) % p
            a, b = span.add(v), ref.add(v)
            assert (a is None and b is None) or np.array_equal(a, b)
            assert span.pivots == ref.pivots and span.dim == len(ref.pivots)
            assert np.array_equal(span.basis_matrix(), ref.rows)
            w = random_matrix(rng, 1, n, p)[0]
            assert np.array_equal(span.reduce(w), ref.reduce(w))


# -- echelon by connected components ----------------------------------------

SPLIT_PRIMES = (2, 3, 32003, 65521)


def column_loop(mat, p):
    """Reference: the column loop on the whole normalised matrix; its
    pivot rows, as a ``linalg.Matrix``, and pivots, as ``echelon`` gives
    them."""
    R = linalg.normalize(mat, p)
    pivots = linalg._eliminate(R, p)
    return linalg.Matrix.read(R[: len(pivots)], p), pivots


@pytest.fixture(params=["split everything", "default crossover"])
def min_cells(request, monkeypatch):
    """Run each test with every nonempty matrix split into components, and
    again with the module's crossover, below which the loop runs whole."""
    cells = 1 if request.param == "split everything" else linalg.SPLIT_MIN_CELLS
    monkeypatch.setattr(linalg, "SPLIT_MIN_CELLS", cells)
    return cells


def sparse_matrix(rng, m, n, p, density):
    """Unreduced entries of both signs at the given density; about one
    stored entry in ten is a nonzero multiple of p."""
    mat = rng.integers(-3 * p, 3 * p, size=(m, n))
    mat[rng.random((m, n)) >= density] = 0
    multiple = rng.random((m, n)) < 0.1 * density
    mat[multiple] = p * rng.choice([-2, -1, 1, 2], size=int(multiple.sum()))
    return mat


def assert_entries_equal_nonzero(mat):
    rows, cols = linalg.entries(mat)
    ref_rows, ref_cols = np.nonzero(mat)
    assert rows.dtype == ref_rows.dtype and cols.dtype == ref_cols.dtype
    assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_entries_equal_nonzero_on_every_layout(p):
    """C-contiguous, column-selected (``rows[:, idx]``), strided and
    transposed inputs; unreduced entries, multiples of p among them, are
    nonzero entries as they stand."""
    rng = np.random.default_rng(7000 + p)
    for _ in range(10):
        m, n = rng.integers(1, 40, size=2)
        mat = sparse_matrix(rng, m, n, p, rng.choice([0.01, 0.1, 0.5]))
        idx = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        for a in (mat, mat[:, idx], mat[:, ::2], mat[1:, 1:], mat.T, mat[:, idx].T):
            assert_entries_equal_nonzero(a)
    multiples = np.array([[0, p, 0], [-2 * p, 0, 3]])
    assert [x.tolist() for x in linalg.entries(multiples)] == [[0, 1, 1], [1, 0, 2]]


def test_entries_of_empty_shapes_raise_no_warning():
    """No row, no column or neither: empty indices, and no numpy warning
    (the column count divides nothing)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in ((0, 7), (7, 0), (0, 0)):
            mat = np.zeros(shape, dtype=np.int64)
            for a in (mat, mat.T):
                assert_entries_equal_nonzero(a)
                assert all(x.size == 0 for x in linalg.entries(a))


def assert_echelon_equals_column_loop(mat, p, brute=True):
    R, pivots = linalg.echelon(mat, p)
    assert R.kept_dense == (R.size < linalg.STORAGE_MIN_CELLS)
    R = np.asarray(R)
    ref_R, ref_pivots = column_loop(mat, p)
    ref_R = np.asarray(ref_R)
    assert R.dtype == np.int64 and R.shape == ref_R.shape
    assert np.array_equal(R, ref_R)
    assert pivots == ref_pivots and all(type(c) is int for c in pivots)
    if brute:
        assert len(pivots) == brute_rank(linalg.normalize(mat, p), p)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_echelon_of_random_sparse_matrices_equals_the_column_loop(p, min_cells):
    rng = np.random.default_rng(1000 + p)
    for _ in range(40):
        m, n = rng.integers(1, 25, size=2)
        density = rng.choice([0.02, 0.08, 0.2, 0.5, 1.0])
        assert_echelon_equals_column_loop(sparse_matrix(rng, m, n, p, density), p)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_echelon_of_empty_and_one_row_shapes(p, min_cells):
    rng = np.random.default_rng(2000 + p)
    for shape in ((0, 7), (0, 0), (7, 0), (1, 1), (1, 80), (80, 1)):
        for density in (0.0, 0.1, 1.0):
            mat = sparse_matrix(rng, *shape, p, density)
            assert_echelon_equals_column_loop(mat, p)
            R, pivots = linalg.echelon(mat, p)
            assert R.shape == (len(pivots), shape[1])
    # a zero matrix whose entries are all multiples of p
    assert_echelon_equals_column_loop(np.full((9, 9), -p), p)
    # a vector is one row
    assert_echelon_equals_column_loop(np.array([0, 0, 2 * p + 3, -1, 0] * 20), p)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_echelon_of_shuffled_block_diagonal_matrices(p, min_cells):
    """One-row, one-column and larger blocks, rows and columns permuted,
    so every component is spread over the matrix."""
    rng = np.random.default_rng(3000 + p)
    for _ in range(15):
        shapes = [tuple(rng.integers(1, 5, size=2)) for _ in range(rng.integers(1, 12))]
        m, n = sum(a for a, _ in shapes), sum(b for _, b in shapes)
        mat = np.zeros((m, n), dtype=np.int64)
        r = c = 0
        for a, b in shapes:
            mat[r:r + a, c:c + b] = sparse_matrix(rng, a, b, p, rng.choice([0.5, 1.0]))
            r, c = r + a, c + b
        mat = mat[rng.permutation(m)][:, rng.permutation(n)]
        assert_echelon_equals_column_loop(mat, p, brute=m * n <= 400)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_echelon_of_one_dense_component(p, min_cells):
    rng = np.random.default_rng(4000 + p)
    full = rng.integers(1, p, size=(12, 15))
    assert_echelon_equals_column_loop(full, p)
    # a dense product of rank at most 4, with unreduced entries
    low = rng.integers(-p, p, size=(20, 4)) @ rng.integers(-p, p, size=(4, 18))
    assert_echelon_equals_column_loop(low, p)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_echelon_of_a_bidiagonal_path(p):
    """A 300 x 300 bidiagonal matrix is one component shaped like a path
    through all 600 rows and columns."""
    rng = np.random.default_rng(5000 + p)
    mat = np.diag(rng.integers(1, p, size=300)) + np.diag(rng.integers(1, p, size=299), 1)
    for a in (mat, mat.T, mat[:, 1:]):
        assert_echelon_equals_column_loop(a, p, brute=False)
    assert linalg.rank(mat, p) == 300 and linalg.rank(mat[:, 1:], p) == 299


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_solve_with_a_dense_right_hand_side(p, min_cells, monkeypatch):
    rng = np.random.default_rng(6000 + p)
    for _ in range(5):
        mat = sparse_matrix(rng, 30, 24, p, 0.1)
        rhs = (linalg.normalize(mat, p) @ rng.integers(0, p, size=(24, 9))) % p
        rhs[:, 0] = rng.integers(0, p, size=30)  # most likely inconsistent
        X = linalg.solve(mat, rhs[:, 1:], p)
        assert np.array_equal((linalg.normalize(mat, p) @ X) % p, rhs[:, 1:])
        got = [linalg.solve(mat, rhs, p), X]
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "echelon", column_loop)
            ref = [linalg.solve(mat, rhs, p), linalg.solve(mat, rhs[:, 1:], p)]
        for a, b in zip(got, ref):
            assert (a is None and b is None) or np.array_equal(a, b)


def assert_same_solution(a, b):
    assert (a is None and b is None) or (
        a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b))


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_solve_on_entry_form_equals_solve_on_the_dense_form(p, min_cells):
    """``solve`` on a map kept as entries gives, byte for byte, what it
    gives on the map kept dense: for a matrix right-hand side with a
    column outside the image (``None``), without it, for a vector, and
    for maps with no row or no column."""
    rng = np.random.default_rng(6100 + p)
    for m, n in ((30, 24), (12, 40), (0, 5), (5, 0), (0, 0), (1, 1)):
        for _ in range(3):
            mat = sparse_matrix(rng, m, n, p, 0.15)
            E, D = stored(mat, p, True), stored(mat, p, False)
            rhs = (linalg.normalize(mat, p) @ rng.integers(0, p, size=(n, 6))) % p
            bad = rhs.copy()
            if m:
                bad[:, 2] = rng.integers(0, p, size=m)
            for b in (rhs, bad, rhs[:, 0], rhs[:, :0]):
                want = linalg.solve(D, b, p)
                assert_same_solution(linalg.solve(E, b, p), want)
                if want is not None:
                    assert np.array_equal(linalg.normalize(mat, p) @ want % p, b % p)
    full = stored(np.eye(4, dtype=np.int64), p, True)
    assert linalg.solve(full, np.arange(4), p).tolist() == [x % p for x in range(4)]
    assert linalg.solve(stored(np.zeros((3, 2)), p, True), np.eye(3)[:, :1], p) is None


def reference_solve(mat, rhs, p):
    """The solution read off the column loop's echelon rows of ``[mat |
    rhs]``: None when a pivot falls in the right-hand side, else the
    right-hand columns at the pivots and zero at the free coordinates."""
    vector = np.ndim(rhs) == 1
    b = linalg.normalize(rhs, p)
    b = b.T if vector else b
    A = linalg.normalize(mat, p)
    n = A.shape[1]
    R = np.hstack([A, b])
    pivots = linalg._eliminate(R, p)
    if pivots and pivots[-1] >= n:
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    x[pivots] = R[: len(pivots), n:]
    return x[:, 0] if vector else x


def kept_elimination_cases(rng, p):
    """(map, right-hand sides) pairs: maps with no row or no column, of
    full rank, rank-deficient products and sparse maps, each right-hand
    side a consistent matrix, one with a column outside the image, a
    vector and an empty matrix."""
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1), (3, 7), (7, 3), (16, 12), (30, 24), (12, 40)]
    for m, n in shapes:
        r = int(rng.integers(0, min(m, n) + 1))
        low = rng.integers(-p, p, size=(m, r)) @ rng.integers(-p, p, size=(r, n))
        for mat in (low, sparse_matrix(rng, m, n, p, 0.15)):
            x = rng.integers(0, p, size=(n, 5))
            rhs = (linalg.normalize(mat, p) @ x) % p
            bad = rhs.copy()
            if m:
                bad[:, 1] = rng.integers(0, p, size=m)
            yield mat, [rhs, bad, rhs[:, 0], bad[:, 1], rhs[:, :0]]


@pytest.mark.parametrize("p", (2, 3, 65521))
def test_solve_on_a_kept_elimination_equals_the_column_loop_on_the_augmented_map(
        p, min_cells):
    """``solve`` on a map and on one ``Elimination`` kept for many
    right-hand sides, the map kept dense or as entries, gives byte for
    byte the solution of the column loop on ``[mat | rhs]``, None where a
    column is outside the image; a ``linalg.Matrix`` right-hand side, in
    either storage, gives the same solution as a ``linalg.Matrix``."""
    rng = np.random.default_rng(6200 + p)
    for mat, sides in kept_elimination_cases(rng, p):
        for form in (stored(mat, p, False), stored(mat, p, True)):
            kept = linalg.Elimination(form, p)
            A = linalg.normalize(mat, p)
            U, N = np.asarray(kept.U), np.asarray(kept.N)
            assert kept.pivots == linalg.echelon(mat, p)[1]
            assert np.array_equal(U @ A % p, np.asarray(linalg.echelon(mat, p)[0]))
            assert N.shape[0] == mat.shape[0] - len(kept.pivots) and not np.any(N @ A % p)
            for b in sides:
                want = reference_solve(mat, b, p)
                assert_same_solution(linalg.solve(form, b, p), want)
                assert_same_solution(linalg.solve(kept, b, p), want)
                for entries in ((False, True) if np.ndim(b) == 2 else ()):
                    got = linalg.solve(kept, stored(b, p, entries), p)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert isinstance(got, linalg.Matrix) and got.shape == want.shape
                        assert np.array_equal(got.dense(), want)


def test_a_kept_elimination_refuses_a_wrong_length_and_another_field():
    kept = linalg.Elimination(np.eye(3, dtype=np.int64), 5)
    for rhs in (np.array([1, 2]), np.ones((4, 2), dtype=np.int64),
                stored(np.ones((2, 2)), 5, True)):
        with pytest.raises(linalg.LinalgError, match="does not fit a matrix with 3 rows"):
            linalg.solve(kept, rhs, 5)
    with pytest.raises(linalg.LinalgError, match="over GF.5. cannot solve over GF.7."):
        linalg.solve(kept, np.arange(3), 7)


@pytest.mark.parametrize("entries", [False, True])
def test_a_matrix_reads_as_its_dense_matrix(entries):
    mat = np.array([[0, 3, 0], [4, 0, 0]])
    S = stored(mat, 5, entries)
    assert S.kept_dense != entries
    assert np.shape(S) == (2, 3) and np.ndim(S) == 2
    assert np.array_equal(np.asarray(S), mat % 5)
    assert np.asarray(S, dtype=np.float64).dtype == np.float64


# -- the entry-form elimination core ------------------------------------------

CORE_PRIMES = (2, 3, 65521)


def block_sparse_matrix(rng, p):
    """Blocks on disjoint rows and columns, then rows and columns
    shuffled: a one-row and a one-column component, larger blocks, zero
    rows and zero columns, and stored multiples of p (zero mod p)."""
    shapes = [(1, int(rng.integers(2, 6))), (int(rng.integers(2, 6)), 1), (3, 0), (0, 2)]
    shapes += [tuple(int(x) for x in rng.integers(1, 7, size=2))
               for _ in range(rng.integers(1, 6))]
    m, n = sum(a for a, _ in shapes), sum(b for _, b in shapes)
    mat = np.zeros((m, n), dtype=np.int64)
    r = c = 0
    for a, b in shapes:
        block = rng.integers(-p, 2 * p, size=(a, b))
        block[rng.random((a, b)) < 0.4] = 0
        multiple = rng.random((a, b)) < 0.1
        block[multiple] = p * rng.choice([-1, 1, 2], size=int(multiple.sum()))
        if a == 1 or b == 1:  # a component of its own: no zero entry
            block[block % p == 0] = 1
        mat[r:r + a, c:c + b] = block
        r, c = r + a, c + b
    return mat[rng.permutation(m)][:, rng.permutation(n)]


def assert_entry_form(E, p):
    """Row-major entries, each value in [1, p), inside the shape, and the
    storage the rule asks for."""
    rows, cols, vals = E.nonzero()
    key = rows * E.shape[1] + cols
    assert np.all(np.diff(key) > 0)
    assert np.all((vals >= 1) & (vals < p))
    assert rows.size == 0 or (rows.max() < E.shape[0] and cols.max() < E.shape[1])
    assert E.kept_dense == (E.size < linalg.STORAGE_MIN_CELLS)


@pytest.mark.parametrize("p", CORE_PRIMES)
def test_entry_form_core_equals_the_column_loop(p, min_cells, storage):
    """``echelon``, ``rank`` and ``kernel`` on a matrix in either storage
    give the echelon rows, pivots and kernel the dense column loop
    gives."""
    rng = np.random.default_rng([8000, p])
    for _ in range(30):
        mat = block_sparse_matrix(rng, p)
        R = linalg.normalize(mat, p)
        pivots = linalg._eliminate(R, p)
        E = linalg.Matrix.read(mat, p)
        assert_entry_form(E, p)
        rows, got = linalg.echelon(E, p)
        assert got == pivots and all(type(c) is int for c in got)
        assert_entry_form(rows, p)
        assert np.array_equal(np.asarray(rows), R[: len(pivots)])
        assert linalg.rank(E, p) == len(pivots)
        free = [c for c in range(mat.shape[1]) if c not in pivots]
        ref = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
        ref[np.arange(len(free)), free] = 1
        ref[:, pivots] = (-R[: len(pivots), free].T) % p
        K = linalg.kernel(E, p)
        assert_entry_form(K, p)
        assert np.array_equal(np.asarray(K), ref)
        assert not np.any(linalg.normalize(mat, p) @ np.asarray(K).T % p)


@pytest.mark.parametrize("p", CORE_PRIMES)
def test_summed_entries_equal_the_read_matrix(p, storage):
    """Entries given in any order, each value split into two repeats
    that may be 0 or p mod p, sum to the matrix read at its entries."""
    rng = np.random.default_rng([8100, p])
    for _ in range(20):
        mat = block_sparse_matrix(rng, p) % p
        r, c = np.nonzero(mat)
        part = rng.integers(0, p, size=r.size)
        order = rng.permutation(2 * r.size)
        parts = [tuple(np.concatenate([x, x])[order] for x in (r, c)) +
                 (np.concatenate([part, (mat[r, c] - part) % p])[order],)]
        E = linalg.Matrix.summed(parts, mat.shape, p)
        assert_entry_form(E, p)
        ref = linalg.Matrix.read(mat, p)
        assert all(np.array_equal(a, b) for a, b in zip(E.nonzero(), ref.nonzero()))
        assert np.array_equal(E.dense(), mat)


@pytest.mark.parametrize("p", CORE_PRIMES)
def test_entry_products_equal_the_dense_product(p, storage):
    rng = np.random.default_rng([8200, p])
    for _ in range(20):
        a = block_sparse_matrix(rng, p) % p
        b = rng.integers(0, p, size=(a.shape[1], 4)) * (rng.random((a.shape[1], 4)) < 0.3)
        got = linalg.matmul(linalg.Matrix.read(a, p), linalg.Matrix.read(b, p), p)
        assert_entry_form(got, p)
        assert np.array_equal(got.dense(), a @ b % p)
        cols = np.flatnonzero(rng.random(4) < 0.5)
        assert np.array_equal(linalg.Matrix.read(b, p).columns(cols).dense(), b[:, cols])


# -- the one map type on both sides of its storage rule -------------------------


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_every_operation_of_the_map_type_equals_the_dense_reference(p):
    """Matrices just below and just above ``STORAGE_MIN_CELLS`` cells, one
    kept as a dense block and one as entries, give under every operation
    what int64 arithmetic on their dense arrays gives, each result in the
    storage its own size asks for."""
    rng = np.random.default_rng([9000, p])
    cells, n = linalg.STORAGE_MIN_CELLS, 64
    below, above = cells // n - 1, cells // n + 1  # 63 x 64 and 65 x 64
    for m in (below, above):
        for density in (0.02, 0.3):
            a = sparse_matrix(rng, m, n, p, density)
            A = linalg.normalize(a, p)
            M = linalg.Matrix.read(a, p)
            assert M.kept_dense == (m == below)
            assert_entry_form(M, p)
            assert np.array_equal(M.dense(), A) and np.array_equal(np.asarray(M), A)
            for k in (below, above):  # a dense and an entry-form right factor
                B = linalg.normalize(sparse_matrix(rng, n, k, p, density), p)
                prod = linalg.matmul(M, linalg.Matrix.read(B, p), p)
                assert_entry_form(prod, p)
                assert np.array_equal(prod.dense(), A @ B % p)
            idx = np.flatnonzero(rng.random(n) < 0.5)
            assert np.array_equal(M.columns(idx).dense(), A[:, idx])
            assert_entry_form(M.columns(idx), p)
            top = linalg.Matrix.read(A[:2], p)
            stacked = linalg.Matrix.stack([top, M])
            assert_entry_form(stacked, p)
            assert np.array_equal(stacked.dense(), np.vstack([A[:2], A]))
            assert_entry_form(M.T, p)
            assert np.array_equal(M.T.dense(), A.T)
            blocks = 3 if m % 3 == 0 else 5
            wide = M.side_by_side(blocks)
            assert np.array_equal(wide.dense(), np.hstack(np.split(A, blocks)))
            # the elimination interface against the column loop
            R, pivots = column_loop(A, p)
            R = np.asarray(R)
            rows, got = linalg.echelon(M, p)
            assert got == pivots and np.array_equal(rows.dense(), R)
            assert_entry_form(rows, p)
            assert linalg.rank(M, p) == len(pivots)
            free = [c for c in range(n) if c not in pivots]
            ker = np.zeros((len(free), n), dtype=np.int64)
            ker[np.arange(len(free)), free] = 1
            ker[:, pivots] = (-R[:, free].T) % p
            K = linalg.kernel(M, p)
            assert_entry_form(K, p)
            assert np.array_equal(K.dense(), ker)
            residual = linalg.reduce_rows(M, rows, pivots, p)
            assert np.array_equal(residual.dense(), (A - A[:, pivots] @ R) % p)
            kept = linalg.Elimination(M, p)
            assert kept.pivots == pivots
            assert np.array_equal(kept.U.dense() @ A % p, R)
            assert not np.any(kept.N.dense() @ A % p)
            rhs = A @ rng.integers(0, p, size=(n, 6)) % p
            rhs[:, 0] = rng.integers(0, p, size=m)  # most likely inconsistent
            for b in (rhs, rhs[:, 1:], rhs[:, 1]):
                want = reference_solve(A, b, p)
                assert_same_solution(linalg.solve(M, b, p), want)
                assert_same_solution(linalg.solve(kept, b, p), want)
                if np.ndim(b) == 2:
                    got = linalg.solve(kept, linalg.Matrix.read(b, p), p)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert_entry_form(got, p)
                        assert np.array_equal(got.dense(), want)
