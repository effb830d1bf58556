"""Exact linear algebra over a prime field GF(p).

Matrices are numpy int64 arrays with entries reduced into [0, p), or,
from a size on, ``Sparse`` matrices: row-major ``(row, column, value)``
arrays of their nonzero entries with a shape.  All reductions use
Gaussian elimination with the fixed pivot order "first nonzero column,
topmost row", so every basis this module produces is deterministic.

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
``_eliminate``, each on its compressed block.  The core takes a dense
or a ``Sparse`` input and gives the pivot rows only: below
``SPLIT_MIN_CELLS`` cells it runs the loop on the whole dense matrix
and its rows are dense, from there on they are a ``Sparse``; either way
they are, entry for entry, the loop's pivot rows on the whole matrix.
``echelon``, ``rank``, ``kernel`` and ``solve`` are the whole
elimination interface: ``rank`` counts the core's pivots, ``kernel``
assembles the kernel basis from its rows in the same form (a map with
no rows has the identity, with nothing eliminated), and ``solve`` reads
solutions off a map's kept ``Elimination``, the echelon rows of ``[mat
| I]`` eliminated once and applied to every right-hand side, dense or in
entry form.  A caller that solves many times against one map keeps its
``Elimination`` and hands it to ``solve`` in place of the map.
``matmul_entries`` multiplies two ``Sparse`` matrices, summing the
terms ``product_terms`` gives.

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
with the rows whose pivots it hits.
``gmodule.minimal_generators_by_degree`` reduces and normalizes most of
its rows itself, from their nonzero entries, and hands a ``Span`` only
the rows whose residuals share a column with another row's.
``inv_mod`` inverts one entry or an array of them, a long array by
square-and-multiply in int64.

``entries`` is the one reader of a whole dense matrix's nonzero
entries: ``Sparse.read`` (through it a dense right-hand side of
``solve`` against an entry-form elimination) and the dense residuals
of ``gmodule.minimal_generators_by_degree`` go through it.  It gives
the same row-major ``(rows, columns)`` as ``np.nonzero``, from one flat
scan of a one-byte mask, the flat positions split by ``divmod``.
``np.nonzero`` on a two-axis array steps a multi-index through every
cell, even on a boolean mask, while the comparison and ``flatnonzero``
on one axis are tight loops: on a 1000 x 2500 int64 matrix at 0.1 %
nonzero the reader takes 3.7 ms against 17 ms for ``np.nonzero``
(2-core x86-64, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinalgError",
    "normalize",
    "entries",
    "Sparse",
    "as_dense",
    "as_sparse",
    "product_terms",
    "matmul_entries",
    "inv_mod",
    "matmul_mod",
    "echelon",
    "rank",
    "kernel",
    "Elimination",
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


def as_dense(mat) -> np.ndarray:
    """A ``Sparse`` as its dense matrix; an array as it is."""
    return mat.dense() if isinstance(mat, Sparse) else mat


def as_sparse(mat, p: int) -> "Sparse":
    """A dense matrix read at its nonzero entries; a ``Sparse`` as it is."""
    return mat if isinstance(mat, Sparse) else Sparse.read(mat, p)


class Sparse:
    """A matrix by its nonzero entries: int64 arrays ``rows``, ``cols``
    and ``vals`` in row-major order, every value in [1, p), and its
    ``shape``.  ``size`` is the cell count, as for an array, so a size
    crossover reads the same on either form."""

    __slots__ = ("rows", "cols", "vals", "shape")

    def __init__(self, rows, cols, vals, shape: tuple[int, int]):
        self.rows, self.cols, self.vals = rows, cols, vals
        self.shape = shape

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @classmethod
    def read(cls, mat, p: int) -> "Sparse":
        """The nonzero entries of a dense matrix, reduced mod p."""
        arr = _matrix(mat)
        r, c = entries(arr)
        v = arr[r, c] % p
        if not v.all():  # multiples of p
            keep = v != 0
            r, c, v = r[keep], c[keep], v[keep]
        return cls(r, c, v, arr.shape)

    @classmethod
    def summed(cls, parts, shape, p: int) -> "Sparse":
        """The matrix whose entry (r, c) is the sum mod p of the values at
        (r, c), from ``parts``, a list of ``(rows, cols, values)`` arrays
        in any order, repeats allowed; a sum must stay below 2^63."""
        rows, cols, vals = ((np.concatenate(x) for x in zip(*parts)) if parts
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
        return cls(r[nz], c[nz], v[nz], shape)

    @classmethod
    def vstack(cls, parts, width: int) -> "Sparse":
        """The matrices in ``parts``, each ``width`` columns wide, stacked
        by rows."""
        height = np.cumsum([0] + [x.shape[0] for x in parts])
        r = np.concatenate([x.rows + h for x, h in zip(parts, height)] or [_EMPTY])
        c = np.concatenate([x.cols for x in parts] or [_EMPTY])
        v = np.concatenate([x.vals for x in parts] or [_EMPTY])
        return cls(r, c, v, (int(height[-1]), width))

    def __array__(self, dtype=None, copy=None):
        """``np.asarray`` reads a ``Sparse`` as its dense matrix, so a
        reader of array-likes (a shape, a digest) takes either form."""
        if copy is False:
            raise ValueError("a Sparse becomes an array only by a copy")
        return self.dense() if dtype is None else self.dense().astype(dtype)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.rows, self.cols] = self.vals
        return out

    def columns(self, idx) -> "Sparse":
        """The columns ``idx`` (increasing) of the matrix."""
        pos = np.full(self.shape[1], -1)
        pos[idx] = np.arange(len(idx))
        c = pos[self.cols]
        keep = c >= 0
        return Sparse(self.rows[keep], c[keep], self.vals[keep], (self.shape[0], len(idx)))


_EMPTY = np.zeros(0, dtype=np.int64)


def product_terms(a: Sparse, b: Sparse):
    """The terms of ``a @ b``, not summed: ``(row, column, value)`` with
    one value a[i, k] * b[k, j] (below p^2) per pair of entries that
    meet at k.  ``Sparse.summed`` adds them up."""
    count = np.bincount(b.rows, minlength=b.shape[0])
    start = np.cumsum(count) - count
    reps = count[a.cols]
    term = np.repeat(np.arange(a.rows.size), reps)
    idx = np.repeat(start[a.cols] - (np.cumsum(reps) - reps), reps) + np.arange(term.size)
    return a.rows[term], b.cols[idx], a.vals[term] * b.vals[idx]


def matmul_entries(a: Sparse, b: Sparse, p: int) -> Sparse:
    """``a @ b`` mod p in entry form."""
    return Sparse.summed([product_terms(a, b)], (a.shape[0], b.shape[1]), p)


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


# Below this many cells a matrix is reduced by the column loop whole: the
# split's fixed cost of some 40 numpy calls exceeds what it saves.  Over
# the elimination inputs of the benchmark's workloads, the total time is flat
# from 48 to 192 cells and lowest at 128 (see CHANGES.md).
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


def _small(mat):
    """``mat`` as a dense int64 matrix when it has fewer than
    ``SPLIT_MIN_CELLS`` cells, else None."""
    if isinstance(mat, Sparse):
        return mat.dense() if mat.size < SPLIT_MIN_CELLS else None
    arr = _matrix(mat)
    return arr if arr.size < SPLIT_MIN_CELLS else None


def echelon(mat, p: int) -> tuple[np.ndarray | Sparse, list[int]]:
    """The reduced echelon rows of ``mat`` (dense or a ``Sparse``), pivot
    rows only, and the pivot columns in increasing order.

    The one elimination core.  Below ``SPLIT_MIN_CELLS`` cells the column
    loop runs on the whole dense matrix, and the rows are dense.  From
    there on the rows are a ``Sparse``, from the entries ``_split``
    gives."""
    small = _small(mat)
    if small is not None:
        R = small % p
        pivots = _eliminate(R, p)
        return R[: len(pivots)], pivots
    E = as_sparse(mat, p)
    parts, pivots = _split(E, p)
    return Sparse.summed(parts, (len(pivots), E.shape[1]), p), pivots


def _split(E: Sparse, p: int) -> tuple[list, list[int]]:
    """The echelon rows of E, as ``(row, column, value)`` parts in no
    particular order, and the pivot columns.  The entries are split into
    their connected blocks, and only blocks of at least two rows and two
    columns are made dense, each compressed to its own rows and
    columns."""
    m, n = E.shape
    rows, cols, vals = E.rows, E.cols, E.vals  # row-major: each row's leading entry first
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


def rank(mat, p: int) -> int:
    """Rank of a dense or a ``Sparse`` matrix: its pivots are counted,
    and no echelon rows are assembled."""
    small = _small(mat)
    if small is not None:
        return len(_eliminate(small % p, p))
    return len(_split(as_sparse(mat, p), p)[1])


def kernel(mat, p: int) -> np.ndarray | Sparse:
    """Echelon basis of the right kernel of a dense or a ``Sparse``
    matrix, one row per basis vector: dense below ``SPLIT_MIN_CELLS``
    cells of ``mat``, a ``Sparse`` from there on.

    Basis vectors are indexed by the free columns in increasing order;
    the vector of free column c has a 1 at c and, at pivot column
    pivots[r], minus entry (r, c) of the echelon rows.
    """
    small = _small(mat)
    if small is not None:
        if not small.shape[0]:  # no rows: the identity, with nothing to eliminate
            return np.eye(small.shape[1], dtype=np.int64)
        R = small % p
        pivots = _eliminate(R, p)
    else:
        E = as_sparse(mat, p)
        parts, pivots = _split(E, p)
    n = (E if small is None else small).shape[1]
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    if small is not None:
        basis = np.zeros((free.size, n), dtype=np.int64)
        basis[np.arange(free.size), free] = 1
        basis[:, pivots] = (-R[: len(pivots), free].T) % p
        return basis
    index = np.cumsum(is_free) - 1  # a free column's basis vector
    piv = np.asarray(pivots, dtype=np.int64)
    out = [(np.arange(free.size), free, np.ones(free.size, dtype=np.int64))]
    for r, c, v in parts:
        at = is_free[c]
        out.append((index[c[at]], piv[r[at]], p - v[at]))
    return Sparse.summed(out, (free.size, n), p)


class Elimination:
    """A map's kept elimination, for many right-hand sides.

    ``echelon`` reduces ``[mat | I_m]`` once, for an m x n ``mat``.  Its
    rows with pivots below n are ``[R | U]``, R the reduced echelon rows of
    ``mat`` and ``U @ mat == R``; the rows with pivots from n on are
    ``[0 | N]``, so ``N @ mat == 0`` and the rows of N span the left
    kernel.  ``pivots`` are mat's own pivot columns.  U and N are kept in
    the form their size asks for: a ``Sparse`` from ``SPLIT_MIN_CELLS``
    cells on, dense below.  ``solve`` reads every solution off them."""

    __slots__ = ("shape", "p", "pivots", "U", "N")

    def __init__(self, mat, p: int):
        if not isinstance(mat, Sparse):
            mat = _matrix(mat)
        m, n = self.shape = mat.shape
        self.p = p
        if isinstance(mat, Sparse):
            unit = np.arange(m)
            aug = Sparse.summed([(mat.rows, mat.cols, mat.vals),
                                 (unit, unit + n, np.ones(m, dtype=np.int64))], (m, n + m), p)
        else:
            aug = np.hstack([mat, np.eye(m, dtype=np.int64)])
        rows, pivots = echelon(aug, p)
        r = int(np.searchsorted(pivots, n))
        self.pivots = pivots[:r]
        if isinstance(rows, Sparse):
            right = rows.columns(np.arange(n, n + m))
            cut = int(np.searchsorted(right.rows, r))
            U = Sparse(right.rows[:cut], right.cols[:cut], right.vals[:cut], (r, m))
            N = Sparse(right.rows[cut:] - r, right.cols[cut:], right.vals[cut:],
                       (len(pivots) - r, m))
        else:
            U, N = rows[:r, n:], rows[r:, n:]
        self.U, self.N = (x if x.size >= SPLIT_MIN_CELLS else as_dense(x) for x in (U, N))


def _times(a, b, p: int):
    """``a @ b`` mod p: int64 for two dense matrices (each term below
    p^2, every p below 2^16), else a ``Sparse`` from their entries."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a @ b % p
    return matmul_entries(as_sparse(a, p), as_sparse(b, p), p)


def solve(mat, rhs, p: int):
    """One solution of mat @ x = rhs, or None if inconsistent.

    ``mat`` is a map, dense or a ``Sparse``, or its kept ``Elimination``;
    on a map the elimination is built here, so every solve takes the one
    path below.  ``rhs`` is a vector or a matrix of stacked column
    vectors.  A column b is consistent iff ``N @ b == 0``, and then x is
    ``U @ b`` at the pivots and zero at the free coordinates: the pivots
    of ``[mat | b]`` below n are mat's own, so this is the solution the
    echelon rows of ``[mat | b]`` give, and it is deterministic."""
    elim = mat if isinstance(mat, Elimination) else Elimination(mat, p)
    if elim.p != p:
        raise LinalgError(f"an elimination over GF({elim.p}) cannot solve over GF({p})")
    sparse = isinstance(rhs, Sparse)
    vector_input = not sparse and np.ndim(rhs) == 1
    b = rhs if sparse else (_matrix(rhs).T if vector_input else _matrix(rhs)) % p
    m, n = elim.shape
    if b.shape[0] != m:
        raise LinalgError(f"right-hand side of shape {rhs.shape if sparse else np.shape(rhs)} "
                          f"does not fit a matrix with {m} rows")
    if elim.N.shape[0]:
        left = _times(elim.N, b, p)
        if left.vals.size if isinstance(left, Sparse) else left.any():
            return None
    y = _times(elim.U, b, p)
    piv = np.asarray(elim.pivots, dtype=np.int64)
    if sparse:
        return Sparse(piv[y.rows], y.cols, y.vals, (n, b.shape[1]))
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    if isinstance(y, Sparse):
        x[piv[y.rows], y.cols] = y.vals
    else:
        x[piv] = y
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

    def contains(self, vec) -> bool:
        return not np.any(self.reduce(vec))

    @property
    def pivots(self) -> list[int]:
        return sorted(self._piv[: self.dim].tolist())

    def basis_matrix(self) -> np.ndarray:
        return self._rows[np.argsort(self._piv[: self.dim])]
