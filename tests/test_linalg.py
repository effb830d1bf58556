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


def test_rref_against_brute_force():
    rng = random.Random(101)
    for p in (2, 5, 32003):
        for _ in range(25):
            m, n = rng.randrange(1, 7), rng.randrange(1, 7)
            mat = random_matrix(rng, m, n, p)
            R, pivots = linalg.rref(mat, p)
            assert len(pivots) == brute_rank(mat, p)
            # pivot columns are unit columns
            for r, c in enumerate(pivots):
                col = np.zeros(m, dtype=np.int64)
                col[r] = 1
                assert np.array_equal(R[:, c], col)
            # row space is preserved
            assert linalg.rank(np.vstack([mat, R]), p) == len(pivots)


def test_kernel_basis_properties():
    rng = random.Random(202)
    p = 5
    for _ in range(40):
        m, n = rng.randrange(0, 6), rng.randrange(0, 6)
        mat = random_matrix(rng, m, n, p) if m and n else np.zeros((m, n), dtype=np.int64)
        ker = linalg.kernel_basis(mat, p)
        assert ker.shape[0] == n - linalg.rank(mat, p)
        if ker.size and mat.size:
            assert not np.any((mat @ ker.T) % p)
        assert linalg.rank(ker, p) == ker.shape[0]


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
        R = linalg.row_space(vecs, p)
        assert np.array_equal(span.basis_matrix(), R)
        for v in vecs:
            assert span.contains(v)


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
    assert linalg.kernel_basis(np.zeros((0, 3), dtype=np.int64), p).shape == (3, 3)
    assert linalg.kernel_basis(np.zeros((3, 0), dtype=np.int64), p).shape == (0, 0)


def test_inv_mod():
    for p in (2, 3, 32003):
        for x in range(1, min(p, 20)):
            assert (x * linalg.inv_mod(x, p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        linalg.inv_mod(0, 5)


@pytest.mark.parametrize("p", [2, 3, 5003, 65521])
def test_inv_mod_of_an_array_is_entrywise(p):
    """Square-and-multiply in int64 on a long array, and pow entry by
    entry on a short one, agree with Python's pow at primes up to the
    largest one allowed, including x = p - 1."""
    x = np.random.default_rng(p).integers(1, p, 200)
    x[:2] = 1, p - 1
    inv = linalg.inv_mod(x, p)
    assert inv.dtype == np.int64
    assert inv.tolist() == [pow(int(v), p - 2, p) for v in x]
    assert linalg.inv_mod(x[:0], p).shape == (0,)
    assert linalg.inv_mod(x[:6].reshape(2, 3), p).tolist() == inv[:6].reshape(2, 3).tolist()
    with pytest.raises(ZeroDivisionError):
        linalg.inv_mod(np.array([1, p]), p)


# -- the float64 product kernel and typed errors ----------------------------

BIG_P = 65521
# Longest product the float64 kernel takes at BIG_P: k (p - 1)^2 < 2^53.
BIG_P_TERMS = (linalg.FLOAT64_EXACT - 1) // (BIG_P - 1) ** 2


def test_matmul_mod_equals_int64_product():
    rng = np.random.default_rng(7)
    for p in (2, 3, 32003, BIG_P):
        for m, k, n in ((1, 1, 1), (3, 5, 4), (17, 40, 9), (0, 3, 2), (2, 0, 3)):
            a = rng.integers(0, p, size=(m, k))
            b = rng.integers(0, p, size=(k, n))
            got = linalg.matmul_mod(a, b, p)
            assert got.dtype == np.int64
            assert np.array_equal(got, (a @ b) % p)
    top = np.full((4, 300), BIG_P - 1, dtype=np.int64)
    assert np.array_equal(linalg.matmul_mod(top, top.T, BIG_P), (top @ top.T) % BIG_P)


def test_matmul_mod_is_exact_at_its_bound():
    """All entries p - 1 at the longest allowed product: the sum is just
    below 2^53, and one more term would not be representable."""
    assert BIG_P_TERMS >= 1 << 21
    assert BIG_P_TERMS * (BIG_P - 1) ** 2 < linalg.FLOAT64_EXACT
    a = np.broadcast_to(np.int64(BIG_P - 1), (1, BIG_P_TERMS))
    got = linalg.matmul_mod(a, a.T, BIG_P)
    assert got.tolist() == [[BIG_P_TERMS * (BIG_P - 1) ** 2 % BIG_P]]


def test_matmul_mod_raises_past_its_bound():
    a = np.broadcast_to(np.int64(BIG_P - 1), (1, BIG_P_TERMS + 1))
    with pytest.raises(linalg.LinalgError, match="not exact"):
        linalg.matmul_mod(a, a.T, BIG_P)
    assert issubclass(linalg.LinalgError, ValueError)


def test_matmul_mod_rejects_unreduced_entries():
    with pytest.raises(linalg.LinalgError, match=r"\[0, 5\)"):
        linalg.matmul_mod(np.array([[5]]), np.array([[1]]), 5)
    with pytest.raises(linalg.LinalgError, match=r"\[0, 5\)"):
        linalg.matmul_mod(np.array([[1]]), np.array([[-1]]), 5)


def test_normalize_rejects_three_axes():
    with pytest.raises(linalg.LinalgError, match="3 axes"):
        linalg.normalize(np.zeros((2, 2, 2), dtype=np.int64), 5)


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(linalg.LinalgError, match="does not fit"):
        linalg.solve(np.eye(3, dtype=np.int64), np.array([1, 2]), 5)


def test_kernel_basis_against_definition():
    rng = random.Random(404)
    for p in (2, 7, 32003):
        for _ in range(20):
            m, n = rng.randrange(1, 6), rng.randrange(1, 8)
            mat = random_matrix(rng, m, n, p)
            K = linalg.kernel_basis(mat, p)
            assert K.shape == (n - linalg.rank(mat, p), n)
            assert not np.any((mat @ K.T) % p)
            # echelon in the free columns: the k-th vector has a 1 at the
            # k-th free column and 0 at the others
            R, pivots = linalg.rref(mat, p)
            free = [c for c in range(n) if c not in pivots]
            assert np.array_equal(K[:, free], np.eye(len(free), dtype=np.int64))


def test_span_seeded_from_an_echelon_basis():
    rng = random.Random(505)
    p = 11
    for _ in range(20):
        n = rng.randrange(1, 8)
        seed = random_matrix(rng, rng.randrange(0, 5), n, p).reshape(-1, n)
        more = random_matrix(rng, rng.randrange(1, 6), n, p)
        seeded = linalg.Span(p, n, linalg.row_space(seed, p))
        grown = linalg.Span(p, n)
        for v in seed:
            grown.add(v)
        assert seeded.pivots == grown.pivots
        for v in more:
            a, b = seeded.add(v), grown.add(v)
            assert (a is None and b is None) or np.array_equal(a, b)
        assert np.array_equal(seeded.basis_matrix(), grown.basis_matrix())


class InsertSpan:
    """Reference: the loop-and-insert Span that keeps its rows sorted by
    pivot, reducing against one pivot at a time."""

    def __init__(self, p, width, echelon=None):
        self.p = p
        self.rows = (np.zeros((0, width), dtype=np.int64) if echelon is None
                     else linalg.normalize(echelon, p))
        self.pivots = [int(np.flatnonzero(r)[0]) for r in self.rows]

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
    """Seeded, then grown with vectors whose pivots come out of order
    (each vector's leading column is drawn at random), the buffered Span
    agrees with the sorted-insert one after every add."""
    rng = random.Random(p)
    for _ in range(25):
        n = rng.randrange(1, 12)
        seed = linalg.row_space(random_matrix(rng, rng.randrange(0, 4), n, p)
                                .reshape(-1, n), p)
        span, ref = linalg.Span(p, n, seed), InsertSpan(p, n, seed)
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


# -- rref by connected components -------------------------------------------

SPLIT_PRIMES = (2, 3, 32003, 65521)


def column_loop(mat, p):
    """Reference: the column loop on the whole normalised matrix."""
    R = linalg.normalize(mat, p)
    return R, linalg._eliminate(R, p)


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


def assert_rref_equals_column_loop(mat, p, brute=True):
    R, pivots = linalg.rref(mat, p)
    ref_R, ref_pivots = column_loop(mat, p)
    assert R.dtype == np.int64 and R.shape == ref_R.shape
    assert np.array_equal(R, ref_R)
    assert pivots == ref_pivots and all(type(c) is int for c in pivots)
    if brute:
        assert len(pivots) == brute_rank(linalg.normalize(mat, p), p)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_rref_of_random_sparse_matrices_equals_the_column_loop(p, min_cells):
    rng = np.random.default_rng(1000 + p)
    for _ in range(40):
        m, n = rng.integers(1, 25, size=2)
        density = rng.choice([0.02, 0.08, 0.2, 0.5, 1.0])
        assert_rref_equals_column_loop(sparse_matrix(rng, m, n, p, density), p)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_rref_of_empty_and_one_row_shapes(p, min_cells):
    rng = np.random.default_rng(2000 + p)
    for shape in ((0, 7), (0, 0), (7, 0), (1, 1), (1, 80), (80, 1)):
        for density in (0.0, 0.1, 1.0):
            mat = sparse_matrix(rng, *shape, p, density)
            assert_rref_equals_column_loop(mat, p)
            assert linalg.rref(mat, p)[0].shape == shape
    # a zero matrix whose entries are all multiples of p
    assert_rref_equals_column_loop(np.full((9, 9), -p), p)
    # a vector is one row
    assert_rref_equals_column_loop(np.array([0, 0, 2 * p + 3, -1, 0] * 20), p)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_rref_of_shuffled_block_diagonal_matrices(p, min_cells):
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
        assert_rref_equals_column_loop(mat, p, brute=m * n <= 400)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_rref_of_one_dense_component(p, min_cells):
    rng = np.random.default_rng(4000 + p)
    full = rng.integers(1, p, size=(12, 15))
    assert_rref_equals_column_loop(full, p)
    # a dense product of rank at most 4, with unreduced entries
    low = rng.integers(-p, p, size=(20, 4)) @ rng.integers(-p, p, size=(4, 18))
    assert_rref_equals_column_loop(low, p)


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_rref_of_a_bidiagonal_path(p):
    """A 300 x 300 bidiagonal matrix is one component shaped like a path
    through all 600 rows and columns."""
    rng = np.random.default_rng(5000 + p)
    mat = np.diag(rng.integers(1, p, size=300)) + np.diag(rng.integers(1, p, size=299), 1)
    for a in (mat, mat.T, mat[:, 1:]):
        assert_rref_equals_column_loop(a, p, brute=False)
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
            patch.setattr(linalg, "rref", column_loop)
            ref = [linalg.solve(mat, rhs, p), linalg.solve(mat, rhs[:, 1:], p)]
        for a, b in zip(got, ref):
            assert (a is None and b is None) or np.array_equal(a, b)


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
    """Row-major entries, each value in [1, p), inside the shape."""
    key = E.rows * E.shape[1] + E.cols
    assert np.all(np.diff(key) > 0)
    assert np.all((E.vals >= 1) & (E.vals < p))
    assert E.rows.size == 0 or (E.rows.max() < E.shape[0] and E.cols.max() < E.shape[1])


@pytest.mark.parametrize("p", CORE_PRIMES)
def test_entry_form_core_equals_the_column_loop(p, min_cells):
    """``echelon``, ``rank`` and ``kernel`` on entry-form input give the
    echelon rows, pivots and kernel the dense column loop gives."""
    rng = np.random.default_rng([8000, p])
    for _ in range(30):
        mat = block_sparse_matrix(rng, p)
        R = linalg.normalize(mat, p)
        pivots = linalg._eliminate(R, p)
        E = linalg.Sparse.read(mat, p)
        assert_entry_form(E, p)
        rows, got = linalg.echelon(E, p)
        assert got == pivots and all(type(c) is int for c in got)
        assert isinstance(rows, linalg.Sparse) == (mat.size >= min_cells)
        if isinstance(rows, linalg.Sparse):
            assert_entry_form(rows, p)
        assert np.array_equal(linalg.as_dense(rows), R[: len(pivots)])
        assert linalg.rank(E, p) == len(pivots)
        free = [c for c in range(mat.shape[1]) if c not in pivots]
        ref = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
        ref[np.arange(len(free)), free] = 1
        ref[:, pivots] = (-R[: len(pivots), free].T) % p
        K = linalg.kernel(E, p)
        assert np.array_equal(linalg.as_dense(K), ref)
        assert not np.any(linalg.normalize(mat, p) @ linalg.as_dense(K).T % p)


@pytest.mark.parametrize("p", CORE_PRIMES)
def test_summed_entries_equal_the_read_matrix(p):
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
        E = linalg.Sparse.summed(parts, mat.shape, p)
        assert_entry_form(E, p)
        ref = linalg.Sparse.read(mat, p)
        assert all(np.array_equal(a, b) for a, b in
                   zip((E.rows, E.cols, E.vals), (ref.rows, ref.cols, ref.vals)))
        assert np.array_equal(E.dense(), mat)


@pytest.mark.parametrize("p", CORE_PRIMES)
def test_entry_products_equal_the_dense_product(p):
    rng = np.random.default_rng([8200, p])
    for _ in range(20):
        a = block_sparse_matrix(rng, p) % p
        b = rng.integers(0, p, size=(a.shape[1], 4)) * (rng.random((a.shape[1], 4)) < 0.3)
        got = linalg.matmul_entries(linalg.Sparse.read(a, p), linalg.Sparse.read(b, p), p)
        assert_entry_form(got, p)
        assert np.array_equal(got.dense(), a @ b % p)
        cols = np.flatnonzero(rng.random(4) < 0.5)
        assert np.array_equal(linalg.Sparse.read(b, p).columns(cols).dense(), b[:, cols])
