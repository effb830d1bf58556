"""Dense exact linear algebra over a prime field GF(p).

Matrices are numpy int64 arrays with entries reduced into [0, p).  All
reductions use Gaussian elimination with the fixed pivot order "first
nonzero column, topmost row", so every basis this module produces is
deterministic.  No floating point is used anywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize",
    "inv_mod",
    "rref",
    "rank",
    "row_space",
    "kernel_basis",
    "solve",
    "Span",
]


def normalize(mat, p: int) -> np.ndarray:
    """Coerce to an int64 matrix with entries in [0, p)."""
    arr = np.asarray(mat, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    assert arr.ndim == 2
    return arr % p


def inv_mod(x: int, p: int) -> int:
    x = int(x) % p
    assert x != 0, "zero has no inverse"
    return pow(x, p - 2, p)


def rref(mat, p: int):
    """Reduced row echelon form.

    Returns (R, pivots) where R has the same shape as ``mat``, pivot
    entries are 1 with zeros elsewhere in their columns, and ``pivots``
    lists the pivot column indices in increasing order.
    """
    R = normalize(mat, p).copy()
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
            R[hit] = (R[hit] - np.outer(R[hit, col], R[row])) % p
        pivots.append(col)
        row += 1
    return R, pivots


def rank(mat, p: int) -> int:
    arr = normalize(mat, p)
    if arr.size == 0:
        return 0
    return len(rref(arr, p)[1])


def row_space(mat, p: int) -> np.ndarray:
    """Echelon basis of the row space (nonzero rows of the rref)."""
    arr = normalize(mat, p)
    if arr.size == 0:
        return np.zeros((0, arr.shape[1]), dtype=np.int64)
    R, pivots = rref(arr, p)
    return R[: len(pivots)].copy()


def kernel_basis(mat, p: int) -> np.ndarray:
    """Echelon basis of the right kernel, one row per basis vector.

    Basis vectors are indexed by the free columns in increasing order;
    vector for free column c has a 1 at position c.
    """
    arr = normalize(mat, p)
    m, n = arr.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if m == 0:
        return np.eye(n, dtype=np.int64)
    R, pivots = rref(arr, p)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-R[r, c]) % p
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
    assert b.shape[0] == m
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
    """Row space maintained incrementally in reduced echelon form."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots: list[int] = []

    def reduce(self, vec) -> np.ndarray:
        """Residual of vec after reduction against the current span."""
        p = self.p
        v = (np.asarray(vec, dtype=np.int64) % p).copy()
        for r, c in enumerate(self.pivots):
            if v[c]:
                v = (v - v[c] * self.rows[r]) % p
        return v

    def add(self, vec) -> np.ndarray | None:
        """Insert vec; return the normalized new echelon row, or None
        if vec was already in the span."""
        p = self.p
        v = self.reduce(vec)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return None
        c = int(nz[0])
        v = (v * inv_mod(v[c], p)) % p
        if self.rows.shape[0]:
            hit = np.nonzero(self.rows[:, c])[0]
            if hit.size:
                self.rows[hit] = (self.rows[hit] - np.outer(self.rows[hit, c], v)) % p
        pos = int(np.searchsorted(np.asarray(self.pivots, dtype=np.int64), c))
        self.rows = np.insert(self.rows, pos, v, axis=0)
        self.pivots.insert(pos, c)
        return v

    def add_rows(self, mat) -> None:
        for row in normalize(mat, self.p):
            self.add(row)

    def contains(self, vec) -> bool:
        return not np.any(self.reduce(vec))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis_matrix(self) -> np.ndarray:
        return self.rows.copy()
