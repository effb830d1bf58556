"""Graded left modules, based free modules, and matrices over a graded
algebra.

A GradedModule is a degreewise table (basis labels plus action tensors),
mirroring GradedAlgebra.  A FreeModule is a list of homogeneous
generators; its degree-d component has the basis {a * g} with a running
over the algebra basis in degree d - deg(g).

A map of free modules (or a batch of maps) is stored as sparse
generator terms: per (source generator degree, entry degree e), arrays
``(tgt, src, batch, coef)`` with one row per nonzero entry, ``coef``
being its coefficients in degree e.  ``generator_terms`` reads them off
generator images, dense columns or ``linalg.Sparse`` rows, and
``extend``, the one module-linear extension, evaluates them degree by
degree; ``extend_entries`` gives each degree's matrix as a
``linalg.Sparse`` from ``SPARSE_MIN_CELLS`` cells on.  An AlgMatrix
writes a map by its algebra entries and hands it on as terms; nothing
turns terms back into one.

Rows of the resolution layer travel in the form their size asks for:
from ``SPARSE_MIN_CELLS`` cells on as ``linalg.Sparse`` entries, below
it as dense arrays.  A module's ``times`` returns the form it is given,
and ``minimal_generators_by_degree`` keeps the products, the echelon
basis of the lower degrees, the residuals and the new rows of entry
rows in entry form.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import Element, FiberProductAlgebra, GradedAlgebra, reduced_table
from .series import PowerSeries

__all__ = [
    "GradedModule",
    "FreeModule",
    "AlgMatrix",
    "residue_module",
    "trivial_module",
    "algebra_as_module",
    "free_module_table",
    "restrict_to_fiber",
    "cokernel_module",
    "extend",
    "extend_entries",
    "generator_terms",
    "fiber_product_module",
    "minimal_generators_by_degree",
    "submodule_as_gmodule",
]


class ModuleError(ValueError):
    pass


class GradedModule:
    def __init__(self, algebra: GradedAlgebra, basis: list[list[str]], action: dict):
        if len(basis) != algebra.cap + 1:
            raise ModuleError(f"{len(basis)} basis degrees, expected cap + 1 = "
                              f"{algebra.cap + 1}")
        self.algebra = algebra
        self.cap = algebra.cap
        self.basis = [list(b) for b in basis]
        # action[(m, n)]: ndarray (dimA_m, dimM_n, dimM_{m+n}), m >= 1, m+n <= cap
        self.action = {}
        for (m, n), arr in action.items():
            a = reduced_table(arr, algebra.p)
            expected = (algebra.dim(m), self.dim(n), self.dim(m + n))
            if a.shape != expected:
                # JSON round trips flatten degenerate axes
                if a.size or 0 not in expected:
                    raise ModuleError(f"action tensor {(m, n)} has shape {a.shape}, "
                                      f"expected {expected}")
                a = a.reshape(expected)
            self.action[(m, n)] = a
        for m in range(1, self.cap + 1):
            for n in range(0, self.cap + 1 - m):
                if (m, n) not in self.action:
                    raise ModuleError(f"missing action tensor {(m, n)}")

    def dim(self, n: int) -> int:
        if n < 0 or n > self.cap:
            return 0
        return len(self.basis[n])

    def labels(self, n: int) -> list[str]:
        return self.basis[n]

    def hilbert_series(self) -> PowerSeries:
        return PowerSeries([self.dim(n) for n in range(self.cap + 1)], self.cap)

    def act_matrix(self, a: Element, n: int) -> np.ndarray:
        """Matrix of x -> a*x from degree n to n + deg(a), rows indexed
        by the source basis."""
        m = a.degree
        if m == 0:
            return (np.eye(self.dim(n), dtype=np.int64) * int(a.vec[0])) % self.algebra.p
        if n + m > self.cap:
            raise ModuleError(f"action lands beyond cap {self.cap}")
        return np.einsum("ijk,i->jk", self.action[(m, n)], a.vec) % self.algebra.p

    def times(self, rows, a: Element, n: int):
        """``rows @ act_matrix(a, n)`` mod p, in the form of ``rows``
        (dense or a ``linalg.Sparse``); the product itself is dense."""
        p = self.algebra.p
        if isinstance(rows, linalg.Sparse):
            return linalg.Sparse.read(self.times(rows.dense(), a, n), p)
        return linalg.matmul_mod(rows, self.act_matrix(a, n), p)

    def act(self, a: Element, n: int, vec) -> tuple[int, np.ndarray]:
        """``vec @ act_matrix(a, n)`` mod p, without building the matrix:
        the vector is contracted first, then the element."""
        p, m = self.algebra.p, a.degree
        v = np.asarray(vec, dtype=np.int64) % p
        if m == 0:
            return n, (v * int(a.vec[0])) % p
        if n + m > self.cap:
            raise ModuleError(f"action lands beyond cap {self.cap}")
        av = np.einsum("ijk,j->ik", self.action[(m, n)], v) % p
        return n + m, (a.vec @ av) % p

    def check_associativity(self) -> list[tuple]:
        """(a*b)*x == a*(b*x) for basis elements within cap; returns
        violating (deg a, deg b, deg x) triples."""
        A = self.algebra
        bad = []
        for m1 in range(1, self.cap):
            for m2 in range(1, self.cap + 1 - m1):
                for n in range(0, self.cap + 1 - m1 - m2):
                    lhs = np.einsum(
                        "abk,kxy->abxy", A.mult[(m1, m2)], self.action[(m1 + m2, n)]
                    ) % A.p
                    rhs = np.einsum(
                        "bxj,ajy->abxy", self.action[(m2, n)], self.action[(m1, m2 + n)]
                    ) % A.p
                    if not np.array_equal(lhs, rhs):
                        bad.append((m1, m2, n))
        return bad

    def min_degree(self) -> int | None:
        for n in range(self.cap + 1):
            if self.dim(n):
                return n
        return None


# -- standard constructions ----------------------------------------------


def residue_module(algebra: GradedAlgebra) -> GradedModule:
    return trivial_module(algebra, 1)


def trivial_module(algebra: GradedAlgebra, rank: int, degree: int = 0) -> GradedModule:
    """k^rank concentrated in one degree with trivial positive action."""
    basis = [[] for _ in range(algebra.cap + 1)]
    basis[degree] = [f"v{i}" for i in range(rank)] if rank != 1 else ["v"]
    dims = [len(b) for b in basis]
    action = {}
    for m in range(1, algebra.cap + 1):
        for n in range(0, algebra.cap + 1 - m):
            action[(m, n)] = np.zeros((algebra.dim(m), dims[n], dims[n + m]),
                                      dtype=np.int64)
    return GradedModule(algebra, basis, action)


def algebra_as_module(algebra: GradedAlgebra) -> GradedModule:
    action = {}
    for m in range(1, algebra.cap + 1):
        for n in range(0, algebra.cap + 1 - m):
            if n == 0:
                arr = np.zeros((algebra.dim(m), 1, algebra.dim(m)), dtype=np.int64)
                for i in range(algebra.dim(m)):
                    arr[i, 0, i] = 1
                action[(m, n)] = arr
            else:
                action[(m, n)] = algebra.mult[(m, n)]
    return GradedModule(algebra, algebra.basis, action)


def free_module_table(algebra: GradedAlgebra, gen_degrees: list[int]) -> GradedModule:
    """The free module on the given generators, as a degreewise table."""
    free = FreeModule(algebra, gen_degrees)
    units = [np.eye(free.dim(d), dtype=np.int64) for d in range(algebra.cap + 1)]
    return GradedModule(algebra, [free.pair_labels(d) for d in range(algebra.cap + 1)],
                        _action_tensors(algebra, free, units, lambda imgs, m, n: imgs))


def restrict_to_fiber(R: FiberProductAlgebra, module: GradedModule,
                      side: str) -> GradedModule:
    """View a module over one factor as a module over the fiber product:
    the other factor's augmentation ideal acts by zero."""
    if side not in ("S", "T"):
        raise ModuleError(f"side must be 'S' or 'T', not {side!r}")
    if module.algebra is not R.factor(side):
        raise ModuleError(f"the module is not over the fiber product's {side} factor")
    basis = [module.labels(n) if n <= R.cap else [] for n in range(R.cap + 1)]
    action = {}
    for m in range(1, R.cap + 1):
        for n in range(0, R.cap + 1 - m):
            arr = np.zeros((R.dim(m), module.dim(n), module.dim(n + m)), dtype=np.int64)
            arr[R.part(side, m)] = module.action[(m, n)]
            action[(m, n)] = arr
    return GradedModule(R, basis, action)


# -- free modules and matrices -------------------------------------------


# From this many cells on, the rows and maps of the resolution layer are
# kept as linalg.Sparse entries, and FreeModule.times and the reduction in
# minimal_generators_by_degree work on those entries; below it, dense int64
# products take fewer array operations.  Over the benchmark's calls to
# times and to the reduction, the total is flat from 2048 to 4096 cells
# and rises on either side (see CHANGES.md).
SPARSE_MIN_CELLS = 4096


class FreeModule:
    """Free module on homogeneous generators.  It is never mutated, so
    each degree's block layout is computed once and kept."""

    def __init__(self, algebra: GradedAlgebra, gen_degrees: list[int],
                 gen_labels: list[str] | None = None):
        self.algebra = algebra
        self.gen_degrees = [int(d) for d in gen_degrees]
        if any(d < 0 for d in self.gen_degrees):
            raise ModuleError(f"negative generator degree in {self.gen_degrees}")
        if gen_labels is None:
            gen_labels = [f"g{j}" for j in range(len(gen_degrees))]
        if len(gen_labels) != len(gen_degrees):
            raise ModuleError(f"{len(gen_labels)} labels for {len(gen_degrees)} "
                              f"generators")
        self.gen_labels = list(gen_labels)
        self._degrees = np.array(self.gen_degrees, dtype=np.int64)
        self._layouts: dict[int, tuple[list[int], np.ndarray, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def _layout(self, d: int) -> tuple[list[int], np.ndarray, int]:
        """Degree-d offset of each generator's block (as a list and as
        an array) and the total dimension; the block size is looked up
        once per run of equal consecutive generator degrees."""
        lay = self._layouts.get(d)
        if lay is None:
            out, acc, prev, size = [], 0, None, 0
            for s in self.gen_degrees:
                if s != prev:
                    prev, size = s, self.algebra.dim(d - s)
                out.append(acc)
                acc += size
            lay = self._layouts[d] = (out, np.array(out, dtype=np.int64), acc)
        return lay

    def dim(self, d: int) -> int:
        return self._layout(d)[2]

    def offsets(self, d: int) -> list[int]:
        """Offset of each generator's block in degree d (shared; do not
        modify)."""
        return self._layout(d)[0]

    @cached_property
    def by_degree(self) -> dict[int, np.ndarray]:
        """Generator indices grouped by degree, degrees increasing."""
        return {d: np.flatnonzero(np.equal(self.gen_degrees, d))
                for d in sorted(set(self.gen_degrees))}

    def block_indices(self, d: int, gens, width: int = 1, start: int = 0) -> np.ndarray:
        """Degree-d coordinates start .. start + width - 1 of the block of
        each generator in ``gens``, generator by generator."""
        return (self._layout(d)[1][gens][:, None] + (start + np.arange(width))).ravel()

    def block_generators(self, d: int, coords) -> np.ndarray:
        """The generator whose degree-d block holds each coordinate: the
        last one whose block starts at or before it, as an empty block
        starts where the next one does."""
        return self._layout(d)[1].searchsorted(coords, "right") - 1

    def pair_index(self, d: int, j: int, a_idx: int) -> int:
        return self._layout(d)[0][j] + a_idx

    def gen_index(self, d: int, j: int) -> int:
        """Flat index of 1 * g_j in degree d = deg(g_j)."""
        if self.gen_degrees[j] != d:
            raise ModuleError(f"generator {j} has degree {self.gen_degrees[j]}, "
                              f"not {d}")
        return self._layout(d)[0][j]

    def pair_labels(self, d: int) -> list[str]:
        out = []
        for j, s in enumerate(self.gen_degrees):
            for lab in self.algebra.labels(d - s) if 0 <= d - s <= self.algebra.cap else []:
                out.append(self.gen_labels[j] if lab == "1" else f"{lab}*{self.gen_labels[j]}")
        return out

    def times(self, rows, a: Element, d: int):
        """``rows`` (coordinate rows in degree d, dense or a
        ``linalg.Sparse``) times the matrix of v -> a*v, mod p, in the
        form of ``rows``: one int64 product per generator degree s, exact
        as each entry sums dim A_(d - s) terms below p^2.

        Rows of ``SPARSE_MIN_CELLS`` cells or more are read only at their
        nonzero entries.  Entry c of a row is coordinate x of the block
        of the generator g_j holding it, and a * (x g_j) lies in g_j's
        block in degree d + m.  Per s, only the (row, generator) pairs
        that are hit enter the product, and the result is made of their
        blocks alone.  Smaller rows are multiplied block by block whole."""
        A, m, p = self.algebra, a.degree, self.algebra.p
        sparse = isinstance(rows, linalg.Sparse)
        shape = (rows.shape[0], self.dim(d + m))
        if rows.size < SPARSE_MIN_CELLS:
            dense = rows.dense() if sparse else rows
            out = np.zeros(shape, dtype=np.int64)
            for s, gens in self.by_degree.items():
                na, nb = A.dim(d - s), A.dim(d + m - s)
                if na * nb * shape[0]:
                    prod = (dense[:, self.block_indices(d, gens, na)].reshape(-1, na)
                            @ A.left_mult_matrix(a, d - s))
                    out[:, self.block_indices(d + m, gens, nb)] = prod.reshape(shape[0], -1) % p
            return linalg.Sparse.read(out, p) if sparse else out
        E = linalg.as_sparse(rows, p)
        r, c = E.rows, E.cols  # row-major, so each pair's entries are consecutive
        parts = []
        if r.size:
            src_off, tgt_off = self._layout(d)[1], self._layout(d + m)[1]
            j = self.block_generators(d, c)
            key = r * self.rank + j
            first = np.ones(r.size, dtype=bool)
            first[1:] = key[1:] != key[:-1]
            # coef[k, x]: coordinate x of the k-th (row, generator) pair hit
            coef = np.zeros((first.sum(), max(A.dim(d - s) for s in self.by_degree)),
                            dtype=np.int64)
            coef[first.cumsum() - 1, c - src_off[j]] = E.vals
            pr, pj = r[first], j[first]
            pdeg = self._degrees[pj]
            for s in self.by_degree:
                na, nb = A.dim(d - s), A.dim(d + m - s)
                k = (pdeg == s).nonzero()[0] if na * nb else ()
                if len(k):
                    prod = coef[k, :na] @ A.left_mult_matrix(a, d - s) % p
                    parts.append((np.repeat(pr[k], nb),
                                  (tgt_off[pj[k], None] + np.arange(nb)).ravel(), prod.ravel()))
        out = linalg.Sparse.summed(parts, shape, p)
        return out if sparse else out.dense()


class AlgMatrix:
    """Matrix of homogeneous entries mapping src -> tgt, dropping
    internal degree by ``shift``: entry (i, j) has degree
    deg(src_j) - deg(tgt_i) - shift.  It is the one way to write a map
    by its entries; ``terms()`` gives the map in the form ``extend``
    evaluates."""

    def __init__(self, algebra: GradedAlgebra, src: FreeModule, tgt: FreeModule,
                 entries: dict[tuple[int, int], Element], shift: int = 0):
        self.algebra = algebra
        self.src = src
        self.tgt = tgt
        self.shift = shift
        self.entries = {}
        for (i, j), el in entries.items():
            if el is None or el.is_zero():
                continue
            expected = src.gen_degrees[j] - tgt.gen_degrees[i] - shift
            if el.degree != expected:
                raise ModuleError(f"entry ({i},{j}) degree {el.degree}, "
                                  f"expected {expected}")
            self.entries[(i, j)] = el

    def terms(self) -> dict:
        """The entries as sparse generator terms of one map."""
        groups: dict[tuple[int, int], list] = {}
        for (i, j), el in self.entries.items():
            groups.setdefault((self.src.gen_degrees[j], el.degree), []).append((i, j, 0, el.vec))
        return {key: tuple(np.array(col, dtype=np.int64) for col in zip(*g))
                for key, g in groups.items()}


# -- module-linear extension of generator images ------------------------------


def generator_terms(ftgt: FreeModule, images: list, shift: int = 0,
                    batch: int = 1) -> dict:
    """Sparse generator terms of ``batch`` maps into ftgt from generator
    images: ``images`` holds ``(degree, generators, sol)``, the image of
    generator j under map b being column (b, j) of a dense ``sol`` or row
    (b, j) of a ``linalg.Sparse`` one.  The terms are ordered by (target
    generator i, b, j) in either form."""
    A = ftgt.algebra
    terms = {}
    for sj, gens, sol in images:
        if isinstance(sol, linalg.Sparse):
            terms.update(_entry_terms(ftgt, sj, sj - shift, np.asarray(gens), sol, batch))
            continue
        k = len(gens)
        for t, tg in ftgt.by_degree.items():
            e = sj - shift - t
            dk = A.dim(e)
            if not dk:
                continue
            # (i, b, j, c): coefficient c of target generator i in the
            # image of source generator j under map b
            coef = sol[ftgt.block_indices(t + e, tg, dk)].reshape(
                len(tg), dk, batch, k).transpose(0, 2, 3, 1)
            i, b, j = np.nonzero(coef.any(axis=3))
            if i.size:
                terms[(sj, e)] = (tg[i], np.asarray(gens)[j], b, coef[i, b, j])
    return terms


def _entry_terms(ftgt: FreeModule, sj: int, dt: int, gens: np.ndarray,
                 img: linalg.Sparse, batch: int) -> dict:
    """``generator_terms`` of the degree-sj generators ``gens``, their
    images the rows of ``img`` in target degree dt: entry c of row (b, j)
    is coordinate x of the block of a target generator i, and the entries
    of one (i, b, j) make up its coefficient."""
    A, width = ftgt.algebra, batch * len(gens)
    i = ftgt.block_generators(dt, img.cols)
    x = img.cols - ftgt._layout(dt)[1][i]
    pair = i * width + img.rows
    deg = ftgt._degrees[i]
    terms = {}
    for t in ftgt.by_degree:
        dk = A.dim(dt - t)
        sel = (deg == t).nonzero()[0] if dk else ()
        if not len(sel):
            continue
        keys, slot = np.unique(pair[sel], return_inverse=True)
        coef = np.zeros((keys.size, dk), dtype=np.int64)
        coef[slot, x[sel]] = img.vals[sel]
        tg, bj = divmod(keys, width)
        b, j = divmod(bj, len(gens))
        terms[(sj, dt - t)] = (tg, gens[j], b, coef)
    return terms


def _extended_blocks(ftgt: FreeModule, fsrc: FreeModule, terms: dict, d: int,
                     shift: int, side: str | None):
    """The nonzero blocks of the degree-d matrix of ``extend``, one per
    term group: row indices (K, dy), column indices (K, dx) and values
    (K, dx, dy), entry ((b, i, y), (j, x)) being coordinate y of x *
    coefficient.  No two blocks share a cell."""
    A, p = ftgt.algebra, ftgt.algebra.p
    (_, tgt_off, nrow), src_off = ftgt._layout(d - shift), fsrc._layout(d)[1]
    for (sj, e), (tg, sg, bt, coef) in terms.items():
        da = d - sj
        dx, dy = A.dim(da), A.dim(da + e)
        if not dx * dy:
            continue
        # a unit factor (da or e zero) multiplies by the identity
        mult = A.mult[(da, e)] if da and e else np.eye(
            dy, dtype=np.int64).reshape(dx, -1, dy)
        prod = coef @ mult.transpose(1, 0, 2).reshape(coef.shape[1], -1)
        rows = (bt * nrow + tgt_off[tg])[:, None] + np.arange(dy)
        cols = (src_off[sg] + (fsrc.algebra.part(side, da).start if side else 0))[:, None] \
            + np.arange(dx)
        yield rows, cols, np.remainder(prod, p, out=prod).reshape(-1, dx, dy)


def extend(ftgt: FreeModule, fsrc: FreeModule, terms: dict, degrees,
           shift: int = 0, batch: int = 1, side: str | None = None,
           ) -> dict[int, np.ndarray]:
    """Degree-d matrices (d in ``degrees``) of ``batch`` module-linear
    maps fsrc -> ftgt dropping internal degree by ``shift``, stacked by
    rows.  A term r (target h_i, source g_j) sends a * g_j to (a * r) *
    h_i: one product with ``mult`` per term group and degree, scattered
    into the nonzero blocks only.  With ``side``, fsrc lives over a fiber
    product and each map precomposes the coefficient projection onto the
    factor ftgt lives over."""
    out = {}
    for d in degrees:
        mat = out[d] = np.zeros((batch * ftgt.dim(d - shift), fsrc.dim(d)), dtype=np.int64)
        for rows, cols, vals in _extended_blocks(ftgt, fsrc, terms, d, shift, side):
            mat[rows[:, None, :], cols[:, :, None]] = vals
    return out


def extend_entries(ftgt: FreeModule, fsrc: FreeModule, terms: dict, degrees,
                   ) -> dict[int, np.ndarray | linalg.Sparse]:
    """``extend`` of one map of internal degree 0 (a differential), with
    each degree's matrix in the form its size asks for: from
    ``SPARSE_MIN_CELLS`` cells on a ``linalg.Sparse`` of the nonzero cells
    of its blocks, below that the dense matrix."""
    out = {}
    for d in degrees:
        shape = (ftgt.dim(d), fsrc.dim(d))
        if shape[0] * shape[1] < SPARSE_MIN_CELLS:
            out.update(extend(ftgt, fsrc, terms, [d]))
            continue
        parts = []
        for rows, cols, vals in _extended_blocks(ftgt, fsrc, terms, d, 0, None):
            nz = vals != 0
            parts.append((np.broadcast_to(rows[:, None, :], vals.shape)[nz],
                          np.broadcast_to(cols[:, :, None], vals.shape)[nz], vals[nz]))
        out[d] = linalg.Sparse.summed(parts, shape, ftgt.algebra.p)
    return out


# -- subquotients of free modules -------------------------------------------------


def _action_tensors(A: GradedAlgebra, free: FreeModule, rows, coords,
                    embed=lambda el: el) -> dict:
    """Action tensors of A on a subquotient of ``free`` whose degree-n
    basis is given by the coordinate rows ``rows[n]``: slice i of tensor
    (m, n) holds the images of those rows under basis element i of A_m
    (through ``embed`` into free's algebra), in the coordinates
    ``coords(images, m, n)`` returns."""
    action = {}
    for m in range(1, A.cap + 1):
        for n in range(A.cap + 1 - m):
            imgs = [coords(free.times(rows[n], embed(A.basis_element(m, i)), n), m, n)
                    for i in range(A.dim(m))]
            action[(m, n)] = np.array(imgs, dtype=np.int64).reshape(
                A.dim(m), len(rows[n]), len(rows[n + m]))
    return action


def cokernel_module(phi: AlgMatrix) -> GradedModule:
    """Quotient of the target free module by the image of phi, with the
    deterministic complement-coordinate basis in each degree."""
    if phi.shift:
        raise ModuleError(f"cokernel of a map with shift {phi.shift}; need shift 0")
    A = phi.algebra
    p = A.p
    free = phi.tgt
    echelon: list[tuple[np.ndarray, list[int]]] = []  # pivot rows, pivots
    free_cols: list[list[int]] = []
    mats = extend(free, phi.src, phi.terms(), range(A.cap + 1))
    for d in range(A.cap + 1):
        R, pivots = linalg.echelon(mats[d].T, p)  # rows span the image
        echelon.append((linalg.as_dense(R), pivots))
        is_pivot = set(pivots)
        free_cols.append([c for c in range(free.dim(d)) if c not in is_pivot])

    def project(rows, d):
        # the pivot rows are zero at each other's pivots, so one product
        # reduces each row (at most dim terms below p^2: exact in int64)
        R, pivots = echelon[d]
        if pivots:
            rows = (rows - rows[:, pivots] @ R) % p
        return rows[:, free_cols[d]]

    basis = [[labels[c] for c in cols] for labels, cols in
             zip((free.pair_labels(d) for d in range(A.cap + 1)), free_cols)]
    units = [np.eye(free.dim(n), dtype=np.int64)[cols] for n, cols in enumerate(free_cols)]
    return GradedModule(A, basis, _action_tensors(
        A, free, units, lambda imgs, m, n: project(imgs, n + m)))


# -- minimal generators ------------------------------------------------------


def _in_form(mat, p: int):
    """``mat`` in the form its size asks for: a ``linalg.Sparse`` from
    ``SPARSE_MIN_CELLS`` cells on, dense below."""
    return linalg.as_sparse(mat, p) if mat.size >= SPARSE_MIN_CELLS else linalg.as_dense(mat)


def _stacked(parts, width: int, p: int):
    """The matrices in ``parts`` stacked by rows: dense when every part
    is, a ``linalg.Sparse`` otherwise."""
    if all(isinstance(x, np.ndarray) for x in parts):
        return np.vstack(parts)
    return linalg.Sparse.vstack([linalg.as_sparse(x, p) for x in parts], width)


def minimal_generators_by_degree(algebra: GradedAlgebra, rows, times, dmax: int) \
        -> list[tuple[int, np.ndarray, np.ndarray | linalg.Sparse]]:
    """Minimal generators of the submodule spanned by ``rows[d]`` (d <=
    dmax, each dense or a ``linalg.Sparse``), where ``times(rows, a, n)``
    is ``rows`` times the matrix of x -> a*x out of degree n, mod p, in
    the form of ``rows`` (a module's ``times``).  The rows must span a
    submodule degreewise (kernels, or a whole module), so the part of
    degree d generated below it is the sum of g * rows[d - deg g] over
    the algebra's indecomposables g, folded into one reduced echelon
    basis ``lower`` of pivot rows only.  Returns, per degree with new
    generators, ``(degree, row indices, new rows)``: the indices of the
    rows that enlarge the span of ``lower`` and the rows before them, and
    for each such row its normalized residual against the reduced echelon
    basis of that span, as ``linalg.Span.add`` gives it, stacked.

    Each degree's rows are taken in the form their size asks for
    (``_in_form``): from ``SPARSE_MIN_CELLS`` cells on they are read at
    their nonzero entries once, and their products, ``lower``, their
    residuals and their new rows stay in entry form; below it the new
    rows are a dense matrix.  The residual is unique, and reducing
    against ``lower`` first leaves it unchanged, so each degree's rows
    are reduced against ``lower`` in one product (``_reduced_entries``).
    The reduced echelon form of a sum of spans on disjoint columns is the
    union of their forms, so a residual row that shares no column with
    another residual row is its own new row, up to its leading entry:
    all such rows are normalized at once.  Only the rows of
    shared-column components go through a ``Span``."""
    p = algebra.p
    read = [_in_form(rows[d], p) for d in range(dmax + 1)]
    out = []
    for d in range(dmax + 1):
        m, n = read[d].shape
        if m == 0:
            continue
        lower, piv = np.zeros((0, n), dtype=np.int64), []
        for deg, i in algebra.indecomposables:
            if deg > d or read[d - deg].shape[0] == 0:
                continue
            prod = times(read[d - deg], algebra.basis_element(deg, i), d - deg)
            lower, piv = linalg.echelon(_stacked([lower, prod], n, p), p)
        r, c, v = _reduced_entries(read[d], lower, piv, p)
        if not r.size:
            continue
        col_count = np.bincount(c, minlength=n)
        shared = np.bincount(r[col_count[c] > 1], minlength=m) > 0
        parts = []  # (row index, column, value) of the new rows
        alone = ~shared[r]
        if alone.any():
            r1, c1, v1 = r[alone], c[alone], v[alone]
            first = np.ones(r1.size, dtype=bool)
            first[1:] = r1[1:] != r1[:-1]
            slot = np.cumsum(first) - 1
            heads = np.flatnonzero(first)  # each row's leading entry
            parts.append((r1, c1, v1 * linalg.inv_mod(v1[heads], p)[slot] % p))
        if not alone.all():
            span_rows = np.flatnonzero(shared)
            dense = np.zeros((span_rows.size, n), dtype=np.int64)
            dense[np.searchsorted(span_rows, r[~alone]), c[~alone]] = v[~alone]
            span = linalg.Span(p, n)
            for j, row in zip(span_rows.tolist(), dense):
                vec = span.add(row)
                if vec is not None:
                    nz = np.flatnonzero(vec)
                    parts.append((np.full(nz.size, j), nz, vec[nz]))
        if isinstance(read[d], linalg.Sparse):
            new = linalg.Sparse.summed(parts, (m, n), p)
            kept = np.flatnonzero(np.bincount(new.rows, minlength=m))
            new = linalg.Sparse(np.searchsorted(kept, new.rows), new.cols, new.vals,
                                (kept.size, n))
        else:
            new = np.zeros((m, n), dtype=np.int64)
            for pr, pc, pv in parts:
                new[pr, pc] = pv
            kept = np.flatnonzero(new.any(axis=1))
            new = new[kept]
        out.append((d, kept, new))
    return out


def _reduced_entries(rows, lower, piv, p: int):
    """Nonzero entries ``(row, column, value)``, row-major, of ``rows``
    reduced against ``lower`` (reduced echelon, pivot columns ``piv``).

    A row's residual is zero at the pivots, and elsewhere it is the row
    minus, for each pivot entry a of the row, a times the pivot's row of
    ``lower``.  Dense rows take one int64 product, of at most len(piv)
    terms below p^2, and the residual is read.  For entry rows those
    products are taken entry by entry (each below p^2) and summed per
    (row, column) with the row's own entries."""
    if isinstance(rows, np.ndarray):
        res = rows % p
        if len(piv):
            res = (res - res[:, piv] @ linalg.as_dense(lower)) % p
        r, c = linalg.entries(res)
        return r, c, res[r, c]
    pos = np.full(rows.shape[1], -1)
    pos[piv] = np.arange(len(piv))
    at = pos[rows.cols] >= 0
    if not at.any():
        return rows.rows, rows.cols, rows.vals
    lower = linalg.as_sparse(lower, p)
    hits = linalg.Sparse(rows.rows[at], pos[rows.cols[at]], p - rows.vals[at],
                         (rows.shape[0], len(piv)))
    keep = pos[lower.cols] < 0  # lower is zero at the other pivots and 1 at its own
    rest = linalg.Sparse(lower.rows[keep], lower.cols[keep], lower.vals[keep], lower.shape)
    off = ~at
    res = linalg.Sparse.summed([(rows.rows[off], rows.cols[off], rows.vals[off]),
                                linalg.product_terms(hits, rest)], rows.shape, p)
    return res.rows, res.cols, res.vals


# -- fiber products of modules ---------------------------------------------


def fiber_product_module(R: FiberProductAlgebra, m_mod: GradedModule,
                         n_mod: GradedModule) -> GradedModule:
    """Pullback of M -> V <- N over the fiber product ring, along the
    identities of V = M_0 = N_0 (k^v in degree 0).

    M is a module over the S factor, N over the T factor, both generated
    in degree 0.  The tables are those of M and N restricted to R
    (``restrict_to_fiber``): degree 0 is one copy of V, on which the two
    restricted actions are concatenated along the last axis; in degrees
    n >= 1 the pullback is M_n + N_n, with the two blocks placed on the
    diagonal.  A failed precondition (dim M_0 = dim N_0, generation in
    degree 0) raises ModuleError.
    """
    S, T = R.s_algebra, R.t_algebra
    if m_mod.algebra is not S or n_mod.algebra is not T:
        raise ModuleError("M must be over the S factor and N over the T factor")

    def check(name, ok, detail=""):
        if not ok:
            raise ModuleError(f"fiber module precondition failed: {name} {detail}")

    m0, n0 = m_mod.dim(0), n_mod.dim(0)
    check("dim M_0 = dim N_0", m0 == n0, f"{m0} vs {n0}")
    for mod, alg, name in ((m_mod, S, "M"), (n_mod, T, "N")):
        units = [np.eye(mod.dim(n), dtype=np.int64) for n in range(R.cap + 1)]
        new = Counter({n: len(kept) for n, kept, _ in
                       minimal_generators_by_degree(alg, units, mod.times, R.cap)})
        for n in range(1, R.cap + 1):
            dim = mod.dim(n)
            check(f"{name} generated in degree 0 (degree {n})",
                  new[n] == 0, f"{dim - new[n]} vs {dim}")

    m_r, n_r = restrict_to_fiber(R, m_mod, "S"), restrict_to_fiber(R, n_mod, "T")
    basis = [[f"w{i}" for i in range(m0)]] + [
        [f"M:{lab}" for lab in m_mod.labels(n)] + [f"N:{lab}" for lab in n_mod.labels(n)]
        for n in range(1, R.cap + 1)]
    action = {}
    for (m, n), a in m_r.action.items():
        b = n_r.action[(m, n)]
        if n == 0:
            action[(m, n)] = np.concatenate([a, b], axis=2)
            continue
        arr = action[(m, n)] = np.zeros((R.dim(m), a.shape[1] + b.shape[1],
                                         a.shape[2] + b.shape[2]), dtype=np.int64)
        arr[:, :a.shape[1], :a.shape[2]] = a
        arr[:, a.shape[1]:, a.shape[2]:] = b
    return GradedModule(R, basis, action)


# -- submodules with chosen bases -------------------------------------------


def submodule_as_gmodule(free: FreeModule, bases: dict[int, np.ndarray],
                         over: GradedAlgebra | None = None,
                         embed=None,
                         label_prefix: str = "s") -> GradedModule:
    """A graded submodule of a free module, tabulated in its own echelon
    basis.  ``bases[d]`` holds basis rows inside free.dim(d).

    ``over``/``embed`` re-express the action over a different algebra:
    embed maps an element of ``over`` to an element of free.algebra
    (used to view an annihilated component as a module over one factor).
    """
    big = free.algebra
    p = big.p
    A = over or big
    if embed is None:
        embed = lambda el: el
    cap = A.cap
    rows = {d: linalg.normalize(bases.get(d, np.zeros((0, free.dim(d)))), p)
            for d in range(cap + 1)}
    basis = [[f"{label_prefix}{d}_{i}" for i in range(rows[d].shape[0])]
             for d in range(cap + 1)]

    elims: dict[int, linalg.Elimination] = {}  # one per target degree

    def coords(imgs, m, n):
        if not np.any(imgs):
            return np.zeros((len(imgs), len(rows[n + m])), dtype=np.int64)
        if n + m not in elims:
            elims[n + m] = linalg.Elimination(rows[n + m].T, p)
        sol = linalg.solve(elims[n + m], imgs.T, p)
        if sol is None:
            raise ModuleError(f"submodule not closed under action at degrees {(m, n)}")
        return sol.T

    return GradedModule(A, basis, _action_tensors(A, free, rows, coords, embed))
