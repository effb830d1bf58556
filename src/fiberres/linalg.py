"""Exact linear algebra over a prime field GF(p).

Matrices are numpy int64 arrays with entries reduced into [0, p).  All
reductions use Gaussian elimination with the fixed pivot order "first
nonzero column, topmost row", so every basis this module produces is
deterministic.

``rref`` follows the nonzero structure of its input, in the spirit of
Faugere and Lachartre (PASCO 2010).  Join row r and column c when entry
(r, c) is nonzero; the connected components of this graph split the
matrix into blocks on disjoint rows and disjoint columns, so the row
space is the direct sum of the blocks' row spaces.  The reduced row
echelon form of a matrix is the unique reduced echelon basis of its row
space, so it is the union of the blocks' reduced echelon rows sorted by
pivot column: every such row is zero at the other blocks' columns, and
deleting zero columns or reordering rows does not change a block's
form.  A one-row component is its row divided by its leading entry and a
one-column component is the unit row at its column; only the larger
components run the column loop ``_eliminate``, each on its compressed
block.  A matrix below ``SPLIT_MIN_CELLS`` cells runs the loop whole.
The result is the same array, byte for byte, as the loop on the whole
matrix.

Floating point is used in one place: ``matmul_mod`` multiplies reduced
matrices as float64 through BLAS and reduces once at the end (delayed
reduction, as in FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 35(3),
2008).  Every partial sum of a product with k terms is an integer at
most k (p - 1)^2, so the product is exact while k (p - 1)^2 < 2^53; past
that bound ``matmul_mod`` raises ``LinalgError`` instead of rounding.
Every p is below 2^16, so products of up to 2^21 terms are always
allowed.  Elimination stays in int64.

``Span`` grows a reduced echelon basis one vector at a time: rows stay
where they were added, and a vector is reduced by one int64 product
with the rows whose pivots it hits.  ``gmodule.minimal_generators``
reduces and normalizes most of its rows itself, from their nonzero
entries, and hands a ``Span`` only the rows whose residuals share a
column with another row's.  ``inv_mod`` inverts one entry or an array
of them, a long array by square-and-multiply in int64.

``entries`` is the one reader of a whole matrix's nonzero entries:
``rref``'s input, the sparse rows of ``gmodule.FreeModule.times``, the
reduction in ``gmodule.minimal_generators`` and the failure pairs of
``resolve.verify_complex`` go through it.  It gives the same row-major
``(rows, columns)`` as ``np.nonzero``, from one flat scan of a
one-byte mask, the flat positions split by ``divmod``.  ``np.nonzero``
on a two-axis array steps a multi-index through every cell, even on a
boolean mask, while the comparison and ``flatnonzero`` on one axis are
tight loops: on a 1000 x 2500 int64 matrix at 0.1 % nonzero (a
resolution's kernel rows look like that) the reader takes 3.7 ms
against 17 ms for ``np.nonzero`` (2-core x86-64, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinalgError",
    "normalize",
    "entries",
    "inv_mod",
    "matmul_mod",
    "rref",
    "rank",
    "row_space",
    "kernel_basis",
    "solve",
    "Span",
]


# Every integer of magnitude below 2^53 is a float64.
FLOAT64_EXACT = 1 << 53


class LinalgError(ValueError):
    pass


def _matrix(mat) -> np.ndarray:
    """``mat`` as an int64 matrix, not reduced; a vector is one row."""
    arr = np.asarray(mat, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise LinalgError(f"expected a vector or a matrix, got {arr.ndim} axes")
    return arr


def normalize(mat, p: int) -> np.ndarray:
    """Coerce to an int64 matrix with entries in [0, p)."""
    return _matrix(mat) % p


def entries(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries of a matrix, in
    row-major order: the same arrays as ``np.nonzero(mat)``, read in one
    flat scan of ``mat != 0``.  Entries are compared with zero as they
    are, so an unreduced multiple of p counts as nonzero."""
    return divmod(np.flatnonzero(mat != 0), mat.shape[1])


# Below this many entries inv_mod inverts an array entry by entry: some 30
# array operations of square-and-multiply cost more than that many pow
# calls (measured at p = 31991).
INV_ARRAY_MIN = 40


def inv_mod(x, p: int):
    """Inverse of x mod p: an int for an int, and entrywise an int64
    array for an array.  A long array is raised to the power p - 2 by
    square-and-multiply; every p is below 2^16, so each int64 product is
    below 2^32.  A zero raises ZeroDivisionError."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        x = int(x) % p
        if x == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(x, p - 2, p)
    base = x.astype(np.int64, copy=False) % p
    if not base.all():
        raise ZeroDivisionError("zero has no inverse")
    if base.size < INV_ARRAY_MIN:
        return np.array([pow(v, p - 2, p) for v in base.ravel().tolist()],
                        dtype=np.int64).reshape(base.shape)
    out = np.ones_like(base)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        e >>= 1
        base = base * base % p
    return out


def matmul_mod(a, b, p: int) -> np.ndarray:
    """``a @ b mod p`` for matrices with entries in [0, p), as an int64
    matrix: one float64 BLAS product and one final reduction.  Exact
    while ``a.shape[1] * (p - 1)^2 < 2^53``; a longer product, or an
    entry outside [0, p), raises LinalgError."""
    k = np.shape(a)[1]
    if k * (p - 1) ** 2 >= FLOAT64_EXACT:
        raise LinalgError(f"float64 product of {k} terms at p = {p} is not exact: "
                          f"{k} * (p - 1)^2 >= 2^53")
    for x in (a, b):
        if np.size(x) and (np.min(x) < 0 or np.max(x) >= p):
            raise LinalgError(f"matmul_mod needs entries in [0, {p})")
    prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    return np.fmod(prod, p, out=prod).astype(np.int64)


# Below this many cells rref runs the column loop on the whole matrix:
# the split's fixed cost of some 40 numpy calls exceeds what it saves.
# Over the rref inputs of the benchmark's workloads, the total time is
# flat from 48 to 192 cells and lowest at 128 (see CHANGES.md).
SPLIT_MIN_CELLS = 128


def _eliminate(R: np.ndarray, p: int) -> list[int]:
    """The column loop: bring R (int64, entries in [0, p)) to its reduced
    row echelon form in place and return the pivot columns."""
    m, n = R.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
        R[row] = (R[row] * inv_mod(R[row, col], p)) % p
        hit = np.nonzero(R[:, col])[0]
        hit = hit[hit != row]
        if hit.size:
            # R[row] is zero left of col, so only columns col.. change
            R[hit, col:] = (R[hit, col:] - np.outer(R[hit, col], R[row, col:])) % p
        pivots.append(col)
        row += 1
    return pivots


def _components(u: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """Connected components of the graph on range(size) with the edges
    (u[i], v[i]): each node's label is the smallest node of its component.
    Every root hooks to the smallest root it shares an edge with, then
    pointer jumping flattens the trees, so a path of length L needs about
    log2(L) jumps."""
    label = np.arange(size)
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return label
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def rref(mat, p: int):
    """Reduced row echelon form.

    Returns (R, pivots) where R has the same shape as ``mat``, pivot
    entries are 1 with zeros elsewhere in their columns, and ``pivots``
    lists the pivot column indices in increasing order.  From
    ``SPLIT_MIN_CELLS`` cells on, the input is read once, at its nonzero
    entries (``entries``), and split into its connected blocks.
    """
    arr = _matrix(mat)
    m, n = arr.shape
    if arr.size < SPLIT_MIN_CELLS:
        R = arr % p
        return R, _eliminate(R, p)
    rows, cols = entries(arr)  # row-major: each row's leading entry first
    vals = arr[rows, cols] % p
    if not vals.all():  # entries that are multiples of p
        keep = vals != 0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    R = np.zeros((m, n), dtype=np.int64)
    if rows.size == 0:
        return R, []
    # Per entry: its row is a one-row component when no column of the row
    # holds another nonzero, and its column is a one-column component when
    # the column is shared and none of its rows holds another nonzero.
    # Every other entry lies in a component of at least two rows and two
    # columns.
    shared = np.bincount(cols, minlength=n)[cols] > 1
    one_row = np.bincount(rows[shared], minlength=m)[rows] == 0
    alone = np.bincount(rows, minlength=m)[rows] == 1
    one_col = shared & (np.bincount(cols[~alone], minlength=n)[cols] == 0)
    rest = ~(one_row | one_col)
    blocks = []  # (pivot columns, columns, pivot rows) of each larger component
    if rest.any():
        rr, rc = rows[rest], cols[rest] + m
        label = _components(rr, rc, m + n)
        used = np.zeros(m + n, dtype=bool)
        used[rr] = used[rc] = True
        nodes = np.flatnonzero(used)
        node_label = label[nodes]
        for b in nodes[node_label == nodes]:  # the smallest node is a row
            members = nodes[node_label == b]
            cs = members[members >= m] - m
            block = arr[np.ix_(members[members < m], cs)] % p
            piv = _eliminate(block, p)
            blocks.append((cs[piv], cs, block[: len(piv)]))
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    heads = np.flatnonzero(first & one_row)
    unit_cols = cols[one_col]
    is_piv = np.zeros(n, dtype=bool)
    is_piv[cols[heads]] = True
    is_piv[unit_cols] = True
    for pc, _, _ in blocks:
        is_piv[pc] = True
    slot = np.cumsum(is_piv) - 1  # the result row of each pivot column
    # a one-row component is its row over its leading entry; only those
    # leading entries are inverted
    inv = np.zeros(rows.size, dtype=np.int64)
    inv[heads] = inv_mod(vals[heads], p)
    head = np.flatnonzero(first)[np.cumsum(first) - 1][one_row]
    R[slot[cols[head]], cols[one_row]] = vals[one_row] * inv[head] % p
    # a one-column component is the unit row at its column
    R[slot[unit_cols], unit_cols] = 1
    for pc, cs, pivot_rows in blocks:
        R[np.ix_(slot[pc], cs)] = pivot_rows
    return R, np.flatnonzero(is_piv).tolist()


# rank, row_space and kernel_basis leave the reduced copy of their input
# to rref: a second copy would double the peak memory of a large matrix.


def rank(mat, p: int) -> int:
    return len(rref(mat, p)[1])


def row_space(mat, p: int) -> np.ndarray:
    """Echelon basis of the row space (nonzero rows of the rref)."""
    R, pivots = rref(mat, p)
    return R[: len(pivots)].copy()


def kernel_basis(mat, p: int) -> np.ndarray:
    """Echelon basis of the right kernel, one row per basis vector.

    Basis vectors are indexed by the free columns in increasing order;
    vector for free column c has a 1 at position c.
    """
    R, pivots = rref(mat, p)
    n = R.shape[1]
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-R[: len(pivots), free].T) % p
    return basis


def solve(mat, rhs, p: int):
    """One solution of mat @ x = rhs, or None if inconsistent.

    Free coordinates are set to zero, so the solution is deterministic.
    ``rhs`` may be a vector or a matrix of stacked column vectors.
    """
    arr = normalize(mat, p)
    b = np.asarray(rhs, dtype=np.int64) % p
    vector_input = b.ndim == 1
    if vector_input:
        b = b.reshape(-1, 1)
    m, n = arr.shape
    if b.ndim != 2 or b.shape[0] != m:
        raise LinalgError(f"right-hand side of shape {np.shape(rhs)} does not fit "
                          f"a matrix with {m} rows")
    aug = np.hstack([arr, b])
    R, pivots = rref(aug, p)
    pivots_in_a = [c for c in pivots if c < n]
    if len(pivots_in_a) != len(pivots):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots_in_a):
        x[c] = R[r, n:]
    return x[:, 0] if vector_input else x


class Span:
    """Row space maintained incrementally in reduced echelon form.

    ``echelon`` seeds it with the nonzero rows of a reduced row echelon
    form, such as ``row_space`` returns.  Rows are kept in the order they
    were added, in a buffer that grows geometrically up to the width.
    Each row is zero at every other row's pivot, so reduction against
    the rows commutes: ``reduce`` is one product with the rows whose
    pivots the vector hits, and ``add`` never moves a row.  ``pivots``
    and ``basis_matrix`` come out in increasing pivot order."""

    def __init__(self, p: int, width: int, echelon=None):
        self.p = p
        self.width = width
        self._rows = (np.zeros((0, width), dtype=np.int64) if echelon is None
                      else normalize(echelon, p))
        self._piv = np.argmax(self._rows != 0, axis=1)
        self.dim = self._rows.shape[0]

    def reduce(self, vec) -> np.ndarray:
        """Residual of vec after reduction against the current span."""
        p = self.p
        v = np.asarray(vec, dtype=np.int64) % p
        piv = self._piv[: self.dim]
        hit = np.flatnonzero(v[piv])
        if hit.size:
            # at most dim terms, each below p^2 < 2^32: exact in int64
            v = (v - v[piv[hit]] @ self._rows[hit]) % p
        return v

    def add(self, vec) -> np.ndarray | None:
        """Insert vec; return the normalized new echelon row, or None
        if vec was already in the span."""
        p, n = self.p, self.dim
        v = self.reduce(vec)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return None
        c = int(nz[0])
        v = (v * inv_mod(v[c], p)) % p
        rows = self._rows[:n]
        hit = np.flatnonzero(rows[:, c])
        if hit.size:
            rows[hit] = (rows[hit] - np.outer(rows[hit, c], v)) % p
        if n == self._rows.shape[0]:  # full; rows past dim are never read
            size = min(self.width, max(2 * n, 8))
            self._rows = np.resize(self._rows, (size, self.width))
            self._piv = np.resize(self._piv, size)
        self._rows[n], self._piv[n] = v, c
        self.dim = n + 1
        return v

    def contains(self, vec) -> bool:
        return not np.any(self.reduce(vec))

    @property
    def pivots(self) -> list[int]:
        return sorted(self._piv[: self.dim].tolist())

    def basis_matrix(self) -> np.ndarray:
        return self._rows[np.argsort(self._piv[: self.dim])]
