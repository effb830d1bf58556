"""Exact linear algebra over a prime field GF(p).

``Matrix`` is the one map type: a matrix with entries in [0, p) that
keeps a dense int64 block below ``STORAGE_MIN_CELLS`` cells and the
row-major ``(row, column, value)`` arrays of its nonzero entries from
there on.  Its operations read either storage and give their result in
the storage the result's size asks for, so no caller chooses a form:
the product ``matmul``, a column or a row selection (``columns``,
``rows``), a rectangle (``block``), a row stack (``Matrix.stack``), the
transpose ``T`` (its entry rows are the columns),
``side_by_side``, ``reshape`` (the cells read row-major into another
shape of the same size), ``reduce_rows`` and the elimination interface
below.  ``Matrix.read`` takes an array-like in, ``Matrix.summed`` and
``Matrix.placed`` build a matrix from entry parts (summed, or each cell
given once), ``Matrix.placed_tables`` a three-axis table (``algebra``'s
one table storage) from smaller tables at offsets, ``nonzero`` gives the
entries, ``key`` the bytes of the storage and ``dense`` (or
``np.asarray``) a dense copy.  Every function here that takes a matrix
takes a ``Matrix`` or an array-like.  All reductions use Gaussian
elimination with the fixed pivot order "first nonzero column, topmost
row", so every basis this module produces is deterministic.

``echelon`` is the one elimination core.  It follows the nonzero
structure of its input, in the spirit of Faugere and Lachartre (PASCO
2010).  Join row r and column c when entry (r, c) is nonzero; the
connected components of this graph split the matrix into blocks on
disjoint rows and disjoint columns, so the row space is the direct sum
of the blocks' row spaces.  The reduced row echelon form of a matrix is
the unique reduced echelon basis of its row space, so it is the union
of the blocks' reduced echelon rows sorted by pivot column: every such
row is zero at the other blocks' columns, and deleting zero columns or
reordering rows does not change a block's form.  A one-row component is
its row divided by its leading entry and a one-column component is the
unit row at its column; only the larger components run the column loop
``_eliminate``, each on its compressed block.  Below ``SPLIT_MIN_CELLS``
cells the loop runs on the whole dense matrix instead; either way the
pivot rows are, entry for entry, the loop's pivot rows on the whole
matrix.  ``echelon``, ``pivots``, ``kernel`` and ``solve`` are the whole
elimination interface: ``pivots`` gives the core's pivot columns and
``rank`` counts them, ``kernel`` assembles the kernel basis from its
rows (a map with no rows has the identity, with nothing eliminated),
and ``solve`` reads solutions off a
map's kept ``Elimination``, the echelon rows of ``[mat | I]`` eliminated
once and applied to every right-hand side.  A map with no rows or no
columns has nothing to eliminate.  A caller that solves many times
against one map keeps its ``Elimination`` and hands it to ``solve`` in
place of the map.

``Span`` grows a reduced echelon basis one vector at a time: rows stay
where they were added, and a vector is reduced by one int64 product
with the rows whose pivots it hits.  No code of the package calls it:
it stays as the row-by-row reference that tests hold the elimination
interface against.  ``inv_mod`` inverts one entry by ``pow`` and an
array of them by one lookup in a table of the prime's inverses, kept per
prime as uint16 (at most 128 KB).  The table is built in place from the
powers of a primitive root g, their run doubled at each step, since the
inverse of g^k is g^(p - 1 - k): 0.3-0.4 ms at p = 32003 (2-core x86-64,
numpy 2.4), where square-and-multiply over every residue takes 3.2-3.6 ms,
paid again in every fresh process.

``entries`` is the one reader of a whole dense matrix's nonzero
entries: ``Matrix.nonzero`` of a dense block and ``Matrix.read`` of a
large array go through it.  It gives the same row-major ``(rows,
columns)`` as ``np.nonzero``, from one flat scan of a one-byte mask, the
flat positions split by ``divmod``.  ``np.nonzero`` on a two-axis array
steps a multi-index through every cell, even on a boolean mask, while
the comparison and ``flatnonzero`` on one axis are tight loops: on a
1000 x 2500 int64 matrix at 0.1 % nonzero the reader takes 3.7 ms
against 17 ms for ``np.nonzero`` (2-core x86-64, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinalgError",
    "normalize",
    "entries",
    "Matrix",
    "matmul",
    "reduce_rows",
    "inv_mod",
    "echelon",
    "pivots",
    "rank",
    "kernel",
    "Elimination",
    "solve",
    "Span",
]


# From this many cells on a Matrix keeps its nonzero entries; below it, a
# dense int64 block, on which products and reductions take fewer array
# operations.  Over the benchmark's products and reductions of the
# resolution layer, the total is flat from 2048 to 4096 cells and rises on
# either side (see CHANGES.md).
STORAGE_MIN_CELLS = 4096

# Below this many cells a matrix is reduced by the column loop whole: the
# split's fixed cost of some 40 numpy calls exceeds what it saves.  Over
# the elimination inputs of the benchmark's workloads, the total time is flat
# from 48 to 192 cells and lowest at 128 (see CHANGES.md).
SPLIT_MIN_CELLS = 128


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


_EMPTY = np.zeros(0, dtype=np.int64)

# shape -> the one Matrix of that shape with no cells.  A product table
# has a degree of dimension 0 in most of its (m, n) keys (a truncated
# ring's degrees past its socle, a module's empty degrees), and these
# share one object per shape; a Matrix is never mutated.
_NO_CELLS: dict[tuple[int, int], "Matrix"] = {}


def _no_cells(shape) -> "Matrix":
    m = _NO_CELLS.get(shape)
    if m is None:
        m = _NO_CELLS[shape] = Matrix(shape, np.zeros(shape, dtype=np.int64), _EMPTY, _EMPTY,
                                      _EMPTY)
    return m


class Matrix:
    """A matrix over GF(p), entries in [0, p): a dense int64 block below
    ``STORAGE_MIN_CELLS`` cells, its nonzero entries (row-major int64
    ``(row, column, value)`` arrays, every value in [1, p)) from there on.
    A dense one reads its entries once, at the first ``nonzero``.  A
    Matrix is never mutated; what ``nonzero`` returns is shared."""

    __slots__ = ("shape", "_block", "_rows", "_cols", "_vals")

    def __init__(self, shape, block=None, rows=None, cols=None, vals=None):
        self.shape = shape
        self._block = block
        self._rows, self._cols, self._vals = rows, cols, vals

    @classmethod
    def read(cls, mat, p: int) -> "Matrix":
        """An array-like (a vector is one row) reduced mod p; a Matrix as
        it is."""
        if isinstance(mat, Matrix):
            return mat
        arr = _matrix(mat)
        if not arr.size:
            return _no_cells(arr.shape)
        if arr.size < STORAGE_MIN_CELLS:
            return cls(arr.shape, arr % p)
        r, c = entries(arr)
        v = arr[r, c] % p
        if not v.all():  # multiples of p
            keep = v != 0
            r, c, v = r[keep], c[keep], v[keep]
        return cls(arr.shape, None, r, c, v)

    @classmethod
    def zeros(cls, shape) -> "Matrix":
        shape = (int(shape[0]), int(shape[1]))
        if not shape[0] * shape[1]:
            return _no_cells(shape)
        block = np.zeros(shape, dtype=np.int64) if shape[0] * shape[1] < STORAGE_MIN_CELLS else None
        return cls(shape, block, _EMPTY, _EMPTY, _EMPTY)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        unit = np.arange(n)
        return _from_entries(unit, unit, np.ones(n, dtype=np.int64), (n, n))

    @classmethod
    def summed(cls, parts, shape, p: int) -> "Matrix":
        """The matrix whose entry (r, c) is the sum mod p of the values at
        (r, c), from ``parts``, a list of ``(rows, cols, values)`` arrays
        that broadcast together, in any order, repeats allowed; a sum must
        stay below 2^63."""
        shape = (int(shape[0]), int(shape[1]))
        if shape[0] * shape[1] < STORAGE_MIN_CELLS:
            block = np.zeros(shape, dtype=np.int64)
            for r, c, v in parts:
                np.add.at(block, (r, c), v)
            return cls(shape, np.remainder(block, p, out=block))
        flat = []
        for r, c, v in parts:
            if v.ndim != 1:  # a block of cells: its zeros are dropped first
                nz = v != 0
                r, c, v = np.broadcast_to(r, v.shape)[nz], np.broadcast_to(c, v.shape)[nz], v[nz]
            flat.append((r, c, v))
        rows, cols, vals = ((np.concatenate(x) for x in zip(*flat)) if flat
                            else (_EMPTY, _EMPTY, _EMPTY))
        width = max(shape[1], 1)
        key = rows * width + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        heads = np.flatnonzero(first)
        v = np.add.reduceat(vals[order], heads) % p if heads.size else vals
        r, c = divmod(key[heads], width)
        nz = v != 0
        return cls(shape, None, r[nz], c[nz], v[nz])

    @classmethod
    def placed(cls, parts, shape, p: int) -> "Matrix":
        """The matrix with the values of ``parts``, ``(rows, cols, values)``
        arrays that broadcast together, each value in [0, p) and no cell
        given twice; the other cells are zero."""
        shape = (int(shape[0]), int(shape[1]))
        if shape[0] * shape[1] >= STORAGE_MIN_CELLS:
            return cls.summed(parts, shape, p)
        block = np.zeros(shape, dtype=np.int64)
        for r, c, v in parts:
            block[r, c] = v
        return cls(shape, block)

    @classmethod
    def placed_tables(cls, parts, dims, p: int) -> "Matrix":
        """A three-axis table of ``dims`` (A, B, C) as the (A * B, C)
        matrix whose row a * B + b holds cells (a, b, .), built from
        smaller tables: a part ``(mat, width, (a0, b0, c0))``, ``mat`` the
        Matrix of a table ``width`` wide on its middle axis, puts its cell
        (a, b, c) at (a0 + a, b0 + b, c0 + c).  No cell is given twice and
        the other cells are zero.  A dense part goes in as one block."""
        A, B, C = dims
        shape = (A * B, C)
        if not A * B * C:
            return _no_cells(shape)
        if A * B * C >= STORAGE_MIN_CELLS:
            cells = []
            for mat, width, (a0, b0, c0) in parts:
                r, c, v = mat.nonzero()
                a, b = divmod(r, max(width, 1))
                cells.append(((a0 + a) * B + b0 + b, c0 + c, v))
            return cls.summed(cells, shape, p)
        block = np.zeros(shape, dtype=np.int64)
        view = block.reshape(A, B, C)
        for mat, width, (a0, b0, c0) in parts:
            if not mat.size:
                continue
            if mat._block is not None:
                rows, cols = mat.shape[0] // width, mat.shape[1]
                view[a0: a0 + rows, b0: b0 + width, c0: c0 + cols] = \
                    mat._block.reshape(rows, width, cols)
            else:
                r, c, v = mat.nonzero()
                a, b = divmod(r, width)
                view[a0 + a, b0 + b, c0 + c] = v
        return cls(shape, block)

    @classmethod
    def stack(cls, parts) -> "Matrix":
        """The matrices in ``parts`` (at least one, all of one width)
        stacked by rows."""
        width = parts[0].shape[1]
        heights = [x.shape[0] for x in parts]
        shape = (sum(heights), width)
        if shape[0] * width < STORAGE_MIN_CELLS and all(x._block is not None for x in parts):
            return cls(shape, np.vstack([x._block for x in parts]))
        start = np.cumsum([0] + heights)
        r, c, v = zip(*(x.nonzero() for x in parts))
        return _from_entries(np.concatenate([x + h for x, h in zip(r, start)]),
                             np.concatenate(c), np.concatenate(v), shape)

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def kept_dense(self) -> bool:
        """Whether the storage rule keeps this matrix as a dense block."""
        return self._block is not None

    @property
    def nnz(self) -> int:
        if self._vals is None:
            return int(np.count_nonzero(self._block))
        return self._vals.size

    def nonzero(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-major ``(rows, cols, values)`` of the nonzero entries."""
        if self._rows is None:
            r, c = entries(self._block)
            self._rows, self._cols, self._vals = r, c, self._block[r, c]
        return self._rows, self._cols, self._vals

    def key(self) -> bytes:
        """The bytes of the matrix in its storage, its dense block or its
        entry arrays: two matrices of one shape (so of one storage) are
        equal exactly when their keys are."""
        if self._block is not None:
            return self._block.tobytes()
        return self._rows.tobytes() + self._cols.tobytes() + self._vals.tobytes()

    def dense(self) -> np.ndarray:
        """A new dense int64 array of the matrix."""
        if self._block is not None:
            return self._block.copy()
        out = np.zeros(self.shape, dtype=np.int64)
        out[self._rows, self._cols] = self._vals
        return out

    def __array__(self, dtype=None, copy=None):
        """``np.asarray`` reads a Matrix as a dense copy, so a reader of
        array-likes (a shape, a digest, a comparison) takes it."""
        if copy is False:
            raise ValueError("a Matrix becomes an array only by a copy")
        return self.dense() if dtype is None else self.dense().astype(dtype)

    @property
    def T(self) -> "Matrix":
        m, n = self.shape
        if self._block is not None:
            return Matrix((n, m), self._block.T)
        order = np.argsort(self._cols * m + self._rows, kind="stable")
        return Matrix((n, m), None, self._cols[order], self._rows[order], self._vals[order])

    def columns(self, idx) -> "Matrix":
        """The columns ``idx`` (increasing) of the matrix."""
        idx = np.asarray(idx, dtype=np.int64)
        shape = (self.shape[0], idx.size)
        if self._block is not None:
            return Matrix(shape, self._block[:, idx])
        pos = np.full(self.shape[1], -1)
        pos[idx] = np.arange(idx.size)
        c = pos[self._cols]
        keep = c >= 0
        return _from_entries(self._rows[keep], c[keep], self._vals[keep], shape)

    def rows(self, idx) -> "Matrix":
        """The rows ``idx`` (increasing) of the matrix."""
        idx = np.asarray(idx, dtype=np.int64)
        shape = (idx.size, self.shape[1])
        if self._block is not None:
            return Matrix(shape, self._block[idx])
        pos = np.full(self.shape[0], -1)
        pos[idx] = np.arange(idx.size)
        r = pos[self._rows]
        keep = r >= 0
        return _from_entries(r[keep], self._cols[keep], self._vals[keep], shape)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Rows ``r0`` to ``r1`` and columns ``c0`` to ``c1`` (stops
        excluded) of the matrix; a dense block is a view."""
        shape = (r1 - r0, c1 - c0)
        if self._block is not None:
            return Matrix(shape, self._block[r0:r1, c0:c1])
        a, b = np.searchsorted(self._rows, [r0, r1])
        c = self._cols[a:b]
        keep = (c >= c0) & (c < c1)
        return _from_entries(self._rows[a:b][keep] - r0, c[keep] - c0,
                             self._vals[a:b][keep], shape)

    def side_by_side(self, blocks: int) -> "Matrix":
        """The matrix's ``blocks`` row blocks, of equal height, set side
        by side: row i of block b goes to row i, column block b."""
        if blocks == 1:
            return self
        m, k = self.shape[0] // blocks, self.shape[1]
        shape = (m, blocks * k)
        if self._block is not None:
            return Matrix(shape, self._block.reshape(blocks, m, k).transpose(1, 0, 2)
                          .reshape(shape))
        b, i = divmod(self._rows, max(m, 1))
        c = b * k + self._cols
        order = np.argsort(i * shape[1] + c, kind="stable")
        return Matrix(shape, None, i[order], c[order], self._vals[order])

    def reshape(self, shape) -> "Matrix":
        """The cells read row-major into ``shape``, of the same size: cell
        (r, c) goes to the cell at flat index r * width + c.  The size, and
        so the storage, is unchanged, and row-major entries stay
        row-major."""
        shape = (int(shape[0]), int(shape[1]))
        if shape[0] * shape[1] != self.size:
            raise LinalgError(f"cannot reshape {self.shape} into {shape}")
        if self._block is not None:
            return Matrix(shape, self._block.reshape(shape))
        r, c = divmod(self._rows * self.shape[1] + self._cols, max(shape[1], 1))
        return Matrix(shape, None, r, c, self._vals)


def _from_entries(r, c, v, shape) -> Matrix:
    """The matrix with the nonzero entries ``(r, c, v)``, row-major and
    reduced, each cell once, in the storage its size asks for."""
    shape = (int(shape[0]), int(shape[1]))
    if shape[0] * shape[1] < STORAGE_MIN_CELLS:
        block = np.zeros(shape, dtype=np.int64)
        if r.size:
            block[r, c] = v
        return Matrix(shape, block, r, c, v)
    return Matrix(shape, None, r, c, v)


def _product_terms(a, b, inner: int):
    """The terms of ``a @ b`` for entry triples ``(rows, cols, values)``,
    b's row-major and ``inner`` rows tall, not summed: ``(row, column,
    value)`` with one value a[i, k] * b[k, j] (below p^2) per pair of
    entries that meet at k.  ``Matrix.summed`` adds them up."""
    (ar, ac, av), (br, bc, bv) = a, b
    count = np.bincount(br, minlength=inner)
    start = np.cumsum(count) - count
    reps = count[ac]
    term = np.repeat(np.arange(ar.size), reps)
    idx = np.repeat(start[ac] - (np.cumsum(reps) - reps), reps) + np.arange(term.size)
    return ar[term], bc[idx], av[term] * bv[idx]


def matmul(a, b, p: int) -> Matrix:
    """``a @ b`` mod p: one int64 product of two dense blocks (each term
    below p^2, every p below 2^16), else the summed products of their
    entries."""
    a, b = Matrix.read(a, p), Matrix.read(b, p)
    if a.shape[1] != b.shape[0]:
        raise LinalgError(f"cannot multiply shapes {a.shape} and {b.shape}")
    if a._block is not None and b._block is not None:
        return Matrix.read(a._block @ b._block, p)
    return Matrix.summed([_product_terms(a.nonzero(), b.nonzero(), b.shape[0])],
                         (a.shape[0], b.shape[1]), p)


def reduce_rows(rows, lower, pivots, p: int) -> Matrix:
    """``rows`` reduced against ``lower``, reduced echelon rows with the
    pivot columns ``pivots``: each row minus, for each pivot entry a of
    the row, a times the pivot's row of ``lower``, so it is zero at the
    pivots.  Two dense blocks take one int64 product of at most
    len(pivots) terms below p^2; otherwise those products are taken entry
    by entry and summed per (row, column) with the row's own entries."""
    rows, lower = Matrix.read(rows, p), Matrix.read(lower, p)
    if not len(pivots):
        return rows
    if rows._block is not None and lower._block is not None:
        res = rows._block
        return Matrix.read(res - res[:, pivots] @ lower._block, p)
    r, c, v = rows.nonzero()
    pos = np.full(rows.shape[1], -1)
    pos[pivots] = np.arange(len(pivots))
    at = pos[c] >= 0
    if not at.any():
        return rows
    lr, lc, lv = lower.nonzero()
    keep = pos[lc] < 0  # lower is zero at the other pivots and 1 at its own
    off = ~at
    return Matrix.summed([(r[off], c[off], v[off]),
                          _product_terms((r[at], pos[c[at]], p - v[at]),
                                         (lr[keep], lc[keep], lv[keep]), len(pivots))],
                         rows.shape, p)


# p -> uint16 array whose entry x is the inverse of x mod p (entry 0 unused).
_INVERSES: dict[int, np.ndarray] = {}


def _primitive_root(p: int) -> int:
    """The smallest generator of the multiplicative group mod the prime p."""
    n, factors, q = p - 1, [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _inverse_table(p: int) -> np.ndarray:
    """The inverses mod p of 0 .. p - 1 (0 at 0): the powers g^k of a
    primitive root, their run doubled in place, and g^k's inverse is
    g^(p - 1 - k).  Every p is below 2^16, so each uint32 product is
    below 2^32 and every entry fits a uint16."""
    g = _primitive_root(p)
    powers = np.ones(p - 1, dtype=np.uint32)
    n = 1
    while n < p - 1:
        k = min(n, p - 1 - n)
        run = np.multiply(powers[:k], pow(g, n, p), out=powers[n: n + k])
        np.remainder(run, p, out=run)
        n += k
    table = np.zeros(p, dtype=np.uint16)
    table[powers[1:]] = powers[:0:-1]
    table[1] = 1
    return table


def inv_mod(x, p: int):
    """Inverse of x mod p: an int for an int, by ``pow``, and entrywise an
    int64 array for an array, by one lookup in the prime's table of
    inverses, built at the first array.  A zero raises
    ZeroDivisionError."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        x = int(x) % p
        if x == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(x, p - 2, p)
    base = x.astype(np.int64, copy=False) % p
    if not base.all():
        raise ZeroDivisionError("zero has no inverse")
    table = _INVERSES.get(p)
    if table is None:
        table = _INVERSES[p] = _inverse_table(p)
    return table[base].astype(np.int64)


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


def echelon(mat, p: int) -> tuple[Matrix, list[int]]:
    """The reduced echelon rows of ``mat``, pivot rows only, and the
    pivot columns in increasing order.

    The one elimination core.  Below ``SPLIT_MIN_CELLS`` cells the column
    loop runs on the whole dense matrix; from there on the rows are
    assembled from the entries ``_split`` gives."""
    mat = Matrix.read(mat, p)
    if mat.size < SPLIT_MIN_CELLS:
        R = mat.dense()
        pivots = _eliminate(R, p)
        return Matrix.read(R[: len(pivots)], p), pivots
    parts, pivots = _split(mat, p)
    return Matrix.placed(parts, (len(pivots), mat.shape[1]), p), pivots


def _split(E: Matrix, p: int) -> tuple[list, list[int]]:
    """The echelon rows of E, as ``(row, column, value)`` parts in no
    particular order, and the pivot columns.  The entries are split into
    their connected blocks, and only blocks of at least two rows and two
    columns are made dense, each compressed to its own rows and
    columns."""
    m, n = E.shape
    rows, cols, vals = E.nonzero()  # row-major: each row's leading entry first
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
    blocks = []  # (pivot columns, row in block, column, value) of each larger component
    if rest.any():
        rr, rc, rv = rows[rest], cols[rest], vals[rest]
        label = _components(rr, rc + m, m + n)
        used = np.zeros(m + n, dtype=bool)
        used[rr] = used[rc + m] = True
        # the rows, then the columns, of each component in increasing order
        nodes = np.flatnonzero(used)
        nodes = nodes[np.argsort(label[nodes], kind="stable")]
        new = np.ones(nodes.size, dtype=bool)
        new[1:] = label[nodes[1:]] != label[nodes[:-1]]
        comp = np.cumsum(new) - 1
        start = np.flatnonzero(new)
        height = np.bincount(comp[nodes < m], minlength=start.size)
        # each row's and column's index inside its component's block
        local = np.empty(m + n, dtype=np.int64)
        local[nodes] = np.arange(nodes.size) - start[comp] - (nodes >= m) * height[comp]
        of = np.empty(m + n, dtype=np.int64)
        of[nodes] = comp
        order = np.argsort(of[rr], kind="stable")  # row-major inside a component
        rr, rc, rv = rr[order], rc[order], rv[order]
        cut = np.searchsorted(of[rr], np.arange(start.size + 1)).tolist()
        ends = [*start[1:].tolist(), nodes.size]
        for k, (s, e) in enumerate(zip(start.tolist(), ends)):
            cs = nodes[s + height[k]: e] - m
            block = np.zeros((height[k], cs.size), dtype=np.int64)
            a, z = cut[k], cut[k + 1]
            block[local[rr[a:z]], local[rc[a:z] + m]] = rv[a:z]
            piv = _eliminate(block, p)
            pr, pc = np.nonzero(block[: len(piv)])
            blocks.append((cs[piv], pr, cs[pc], block[pr, pc]))
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    heads = np.flatnonzero(first & one_row)
    unit_cols = np.flatnonzero(np.bincount(cols[one_col], minlength=n))
    is_piv = np.zeros(n, dtype=bool)
    is_piv[cols[heads]] = True
    is_piv[unit_cols] = True
    for pc, _, _, _ in blocks:
        is_piv[pc] = True
    slot = np.cumsum(is_piv) - 1  # the echelon row of each pivot column
    # a one-row component is its row over its leading entry; only those
    # leading entries are inverted
    inv = np.zeros(rows.size, dtype=np.int64)
    inv[heads] = inv_mod(vals[heads], p)
    head = np.flatnonzero(first)[np.cumsum(first) - 1][one_row]
    # a one-column component is the unit row at its column
    parts = [(slot[cols[head]], cols[one_row], vals[one_row] * inv[head] % p),
             (slot[unit_cols], unit_cols, np.ones(unit_cols.size, dtype=np.int64))]
    parts += [(slot[pc][pr], c, v) for pc, pr, c, v in blocks]
    return parts, np.flatnonzero(is_piv).tolist()


def pivots(mat, p: int) -> list[int]:
    """The pivot columns of a matrix's echelon form, in increasing order;
    no echelon rows are assembled."""
    mat = Matrix.read(mat, p)
    if mat.size < SPLIT_MIN_CELLS:
        return _eliminate(mat.dense(), p)
    return _split(mat, p)[1]


def rank(mat, p: int) -> int:
    """Rank of a matrix: its pivots are counted."""
    return len(pivots(mat, p))


def kernel(mat, p: int) -> Matrix:
    """Echelon basis of the right kernel of a matrix, one row per basis
    vector.

    Basis vectors are indexed by the free columns in increasing order;
    the vector of free column c has a 1 at c and, at pivot column
    pivots[r], minus entry (r, c) of the echelon rows.
    """
    mat = Matrix.read(mat, p)
    m, n = mat.shape
    if not m:  # no rows: the identity, with nothing to eliminate
        return Matrix.identity(n)
    small = mat.size < SPLIT_MIN_CELLS
    if small:
        R = mat.dense()
        pivots = _eliminate(R, p)
    else:
        parts, pivots = _split(mat, p)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    if small:
        basis = np.zeros((free.size, n), dtype=np.int64)
        basis[np.arange(free.size), free] = 1
        basis[:, pivots] = (-R[: len(pivots), free].T) % p
        return Matrix.read(basis, p)
    index = np.cumsum(is_free) - 1  # a free column's basis vector
    piv = np.asarray(pivots, dtype=np.int64)
    out = [(np.arange(free.size), free, np.ones(free.size, dtype=np.int64))]
    for r, c, v in parts:
        at = is_free[c]
        out.append((index[c[at]], piv[r[at]], p - v[at]))
    return Matrix.placed(out, (free.size, n), p)


class Elimination:
    """A map's kept elimination, for many right-hand sides.

    ``echelon`` reduces ``[mat | I_m]`` once, for an m x n ``mat``.  Its
    rows with pivots below n are ``[R | U]``, R the reduced echelon rows of
    ``mat`` and ``U @ mat == R``; the rows with pivots from n on are
    ``[0 | N]``, so ``N @ mat == 0`` and the rows of N span the left
    kernel.  ``pivots`` are mat's own pivot columns, and U and N are
    ``Matrix``es.  A map with no rows or no columns eliminates nothing:
    U has no rows and N is the identity, so a right-hand side is
    consistent exactly when it is zero, and the solution is zero.
    ``solve`` reads every solution off U and N."""

    __slots__ = ("shape", "p", "pivots", "U", "N")

    def __init__(self, mat, p: int):
        mat = Matrix.read(mat, p)
        m, n = self.shape = mat.shape
        self.p = p
        if not m * n:
            self.pivots, self.U, self.N = [], Matrix.zeros((0, m)), Matrix.identity(m)
            return
        unit = np.arange(m)
        rows, pivots = echelon(Matrix.placed(
            [mat.nonzero(), (unit, unit + n, np.ones(m, dtype=np.int64))], (m, n + m), p), p)
        r = int(np.searchsorted(pivots, n))
        self.pivots = pivots[:r]
        right = rows.columns(np.arange(n, n + m))
        self.U, self.N = right.block(0, r, 0, m), right.block(r, len(pivots), 0, m)


def solve(mat, rhs, p: int):
    """One solution of mat @ x = rhs, or None if inconsistent.

    ``mat`` is a map or its kept ``Elimination``; on a map the
    elimination is built here, so every solve takes the one path below.
    ``rhs`` is a vector, an array of stacked column vectors, or a
    ``Matrix``; the solution comes back in the same kind.  A column b is
    consistent iff ``N @ b == 0``, and then x is ``U @ b`` at the pivots
    and zero at the free coordinates: the pivots of ``[mat | b]`` below n
    are mat's own, so this is the solution the echelon rows of ``[mat |
    b]`` give, and it is deterministic."""
    elim = mat if isinstance(mat, Elimination) else Elimination(mat, p)
    if elim.p != p:
        raise LinalgError(f"an elimination over GF({elim.p}) cannot solve over GF({p})")
    vector_input = not isinstance(rhs, Matrix) and np.ndim(rhs) == 1
    b = Matrix.read(_matrix(rhs).T if vector_input else rhs, p)
    m, n = elim.shape
    if b.shape[0] != m:
        raise LinalgError(f"right-hand side of shape {np.shape(rhs)} "
                          f"does not fit a matrix with {m} rows")
    if elim.N.shape[0] and matmul(elim.N, b, p).nnz:
        return None
    y = matmul(elim.U, b, p)
    piv = np.asarray(elim.pivots, dtype=np.int64)
    if isinstance(rhs, Matrix):
        r, c, v = y.nonzero()
        return _from_entries(piv[r], c, v, (n, b.shape[1]))
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    x[piv] = y.dense()
    return x[:, 0] if vector_input else x


class Span:
    """Row space maintained incrementally in reduced echelon form.

    Rows are kept in the order they were added, in a buffer that grows
    geometrically up to the width.  Each row is zero at every other row's pivot, so reduction against
    the rows commutes: ``reduce`` is one product with the rows whose
    pivots the vector hits, and ``add`` never moves a row.  ``pivots``
    and ``basis_matrix`` come out in increasing pivot order."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self._rows = np.zeros((0, width), dtype=np.int64)
        self._piv = np.zeros(0, dtype=np.int64)
        self.dim = 0

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

    @property
    def pivots(self) -> list[int]:
        return sorted(self._piv[: self.dim].tolist())

    def basis_matrix(self) -> np.ndarray:
        return self._rows[np.argsort(self._piv[: self.dim])]
