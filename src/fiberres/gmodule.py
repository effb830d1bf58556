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
generator images, the columns of a ``linalg.Matrix``, and ``extend``,
the one module-linear extension, evaluates them degree by degree into a
``linalg.Matrix`` per degree.  An AlgMatrix writes a map by its algebra
entries and hands it on as terms; nothing turns terms back into one.

Rows and maps of the resolution layer are ``linalg.Matrix``es, so
``linalg``'s storage rule alone decides how each is stored.  A module's
``times`` takes and gives one; ``FreeModule.times`` reads the rows at
their nonzero entries in either storage, on one path.
``minimal_generators_by_degree`` eliminates each degree's lower span
once and keeps its new rows with ``linalg.echelon`` and
``linalg.reduce_rows`` alone.
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

    def times(self, rows, a: Element, n: int) -> linalg.Matrix:
        """``rows @ act_matrix(a, n)`` mod p."""
        return linalg.matmul(rows, self.act_matrix(a, n), self.algebra.p)

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
    units = [linalg.Matrix.identity(free.dim(d)) for d in range(algebra.cap + 1)]
    return GradedModule(algebra, [free.pair_labels(d) for d in range(algebra.cap + 1)],
                        _action_tensors(algebra, free, units,
                                        lambda imgs, m, n: imgs.dense()))


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

    def times(self, rows, a: Element, d: int) -> linalg.Matrix:
        """``rows`` (coordinate rows in degree d) times the matrix of v ->
        a*v, mod p: one int64 product per generator degree s, exact as
        each entry sums dim A_(d - s) terms below p^2.

        The rows are read only at their nonzero entries, in either
        storage.  Entry c of a row is coordinate x of the block of the
        generator g_j holding it, and a * (x g_j) lies in g_j's block in
        degree d + m.  Per s, only the (row, generator) pairs that are hit
        enter the product, and the result is made of their blocks
        alone."""
        A, m, p = self.algebra, a.degree, self.algebra.p
        rows = linalg.Matrix.read(rows, p)
        shape = (rows.shape[0], self.dim(d + m))
        r, c, vals = rows.nonzero()  # row-major, so each pair's entries are consecutive
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
            coef[first.cumsum() - 1, c - src_off[j]] = vals
            pr, pj = r[first], j[first]
            pdeg = self._degrees[pj]
            for s in self.by_degree:
                na, nb = A.dim(d - s), A.dim(d + m - s)
                k = (pdeg == s).nonzero()[0] if na * nb else ()
                if len(k):
                    prod = coef[k, :na] @ A.left_mult_matrix(a, d - s) % p
                    parts.append((np.repeat(pr[k], nb),
                                  (tgt_off[pj[k], None] + np.arange(nb)).ravel(), prod.ravel()))
        return linalg.Matrix.placed(parts, shape, p)


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
    generator j under map b being column (b, j) of the ``linalg.Matrix``
    ``sol``, in target degree dt = degree - shift.  Entry x of a column
    is coordinate y of the block of a target generator i, and the
    entries of one (i, b, j) make up its coefficient.  The terms are
    ordered by (target generator i, b, j)."""
    A = ftgt.algebra
    terms = {}
    for sj, gens, sol in images:
        x, bj, vals = linalg.Matrix.read(sol, A.p).nonzero()
        if not x.size:
            continue
        gens, dt = np.asarray(gens), sj - shift
        width = batch * len(gens)
        i = ftgt.block_generators(dt, x)
        # the entries in order of (i, b, j); each x is already in order of (b, j)
        key = i * width + bj
        order = key.argsort(kind="stable")
        key = key[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        dims = {t: A.dim(dt - t) for t in ftgt.by_degree}
        coef = np.zeros((int(first.sum()), max(dims.values())), dtype=np.int64)
        coef[first.cumsum() - 1, (x - ftgt._layout(dt)[1][i])[order]] = vals[order]
        tg, bj = divmod(key[first], width)
        b, j = divmod(bj, len(gens))
        deg = ftgt._degrees[tg]
        for t, dk in dims.items():
            sel = np.flatnonzero(deg == t)
            if sel.size:
                terms[(sj, dt - t)] = (tg[sel], gens[j[sel]], b[sel], coef[sel, :dk])
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
           ) -> dict[int, linalg.Matrix]:
    """Degree-d matrices (d in ``degrees``) of ``batch`` module-linear
    maps fsrc -> ftgt dropping internal degree by ``shift``, stacked by
    rows.  A term r (target h_i, source g_j) sends a * g_j to (a * r) *
    h_i: one product with ``mult`` per term group and degree, placed in
    the nonzero blocks only.  With ``side``, fsrc lives over a fiber
    product and each map precomposes the coefficient projection onto the
    factor ftgt lives over."""
    return {d: linalg.Matrix.placed(
        [(rows[:, None, :], cols[:, :, None], vals)
         for rows, cols, vals in _extended_blocks(ftgt, fsrc, terms, d, shift, side)],
        (batch * ftgt.dim(d - shift), fsrc.dim(d)), ftgt.algebra.p) for d in degrees}


# -- subquotients of free modules -------------------------------------------------


def _action_tensors(A: GradedAlgebra, free: FreeModule, rows, coords,
                    embed=lambda el: el) -> dict:
    """Action tensors of A on a subquotient of ``free`` whose degree-n
    basis is given by the coordinate rows ``rows[n]`` (a
    ``linalg.Matrix``): slice i of tensor (m, n) holds the images of
    those rows under basis element i of A_m (through ``embed`` into
    free's algebra), in the coordinates ``coords(images, m, n)`` returns
    as an array."""
    action = {}
    for m in range(1, A.cap + 1):
        for n in range(A.cap + 1 - m):
            imgs = [coords(free.times(rows[n], embed(A.basis_element(m, i)), n), m, n)
                    for i in range(A.dim(m))]
            action[(m, n)] = np.array(imgs, dtype=np.int64).reshape(
                A.dim(m), rows[n].shape[0], rows[n + m].shape[0])
    return action


def cokernel_module(phi: AlgMatrix) -> GradedModule:
    """Quotient of the target free module by the image of phi, with the
    deterministic complement-coordinate basis in each degree."""
    if phi.shift:
        raise ModuleError(f"cokernel of a map with shift {phi.shift}; need shift 0")
    A = phi.algebra
    p = A.p
    free = phi.tgt
    echelon: list[tuple[linalg.Matrix, list[int]]] = []  # pivot rows, pivots
    free_cols: list[list[int]] = []
    mats = extend(free, phi.src, phi.terms(), range(A.cap + 1))
    for d in range(A.cap + 1):
        R, pivots = linalg.echelon(mats[d].T, p)  # rows span the image
        echelon.append((R, pivots))
        is_pivot = set(pivots)
        free_cols.append([c for c in range(free.dim(d)) if c not in is_pivot])

    def project(rows, d):
        # the pivot rows are zero at each other's pivots, so one product
        # reduces each row
        return linalg.reduce_rows(rows, *echelon[d], p).columns(free_cols[d]).dense()

    basis = [[labels[c] for c in cols] for labels, cols in
             zip((free.pair_labels(d) for d in range(A.cap + 1)), free_cols)]
    units = [linalg.Matrix.identity(free.dim(n)).columns(cols).T
             for n, cols in enumerate(free_cols)]
    return GradedModule(A, basis, _action_tensors(
        A, free, units, lambda imgs, m, n: project(imgs, n + m)))


# -- minimal generators ------------------------------------------------------


def minimal_generators_by_degree(algebra: GradedAlgebra, rows, times, dmax: int) \
        -> list[tuple[int, np.ndarray, linalg.Matrix]]:
    """Minimal generators of the submodule spanned by ``rows[d]`` (d <=
    dmax, each a ``linalg.Matrix`` or an array-like), where ``times(rows,
    a, n)`` is ``rows`` times the matrix of x -> a*x out of degree n, mod
    p (a module's ``times``).  The rows must span a submodule degreewise
    (kernels, or a whole module), so the part of degree d generated below
    it is spanned by the products g * rows[d - deg g] over the algebra's
    indecomposables g: they are stacked and eliminated once, into the
    reduced echelon basis ``lower`` of pivot rows only.  Returns, per
    degree with new generators, ``(degree, row indices, new rows)``: the
    indices of the rows that enlarge the span of ``lower`` and the rows
    before them, and for each such row its residual against ``lower``
    divided by its leading entry, stacked.  The new rows span a
    complement of ``lower`` in the submodule's degree-d part.

    Each degree's rows are reduced against ``lower`` in one
    ``linalg.reduce_rows``; the residual of a row is unique, and a row
    enlarges the span exactly when its residual is independent of the
    residuals before it.  So a nonzero residual row that shares no column
    with another residual row is kept, and among the rows that share
    columns the kept ones are the pivot columns of the echelon form of
    their residuals' transpose.  All kept rows are normalized in one
    batch."""
    p = algebra.p
    rows = [linalg.Matrix.read(rows[d], p) for d in range(dmax + 1)]
    out = []
    for d in range(dmax + 1):
        m, n = rows[d].shape
        if m == 0:
            continue
        prods = [times(rows[d - deg], algebra.basis_element(deg, i), d - deg)
                 for deg, i in algebra.indecomposables
                 if deg <= d and rows[d - deg].shape[0]]
        res = rows[d] if not prods else linalg.reduce_rows(
            rows[d], *linalg.echelon(linalg.Matrix.stack(prods), p), p)
        r, c, v = res.nonzero()
        if not r.size:
            continue
        keep = np.zeros(m, dtype=bool)
        keep[r] = True
        shared = np.bincount(r[np.bincount(c, minlength=n)[c] > 1], minlength=m) > 0
        if shared.any():
            block, at = np.flatnonzero(shared), shared[r]
            piv = linalg.echelon(linalg.Matrix.placed(
                [(np.searchsorted(block, r[at]), c[at], v[at])], (block.size, n), p).T, p)[1]
            keep[block] = False
            keep[block[piv]] = True
        at = keep[r]
        r, c, v = r[at], c[at], v[at]
        first = np.ones(r.size, dtype=bool)
        first[1:] = r[1:] != r[:-1]
        slot = np.cumsum(first) - 1  # each entry's row among the kept rows
        out.append((d, r[first], linalg.Matrix.placed(
            [(slot, c, v * linalg.inv_mod(v[first], p)[slot] % p)], (slot[-1] + 1, n), p)))
    return out


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
    basis.  ``bases[d]`` holds basis rows inside free.dim(d), a
    ``linalg.Matrix`` or an array-like.

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
    rows = {d: linalg.Matrix.read(bases.get(d, np.zeros((0, free.dim(d)))), p)
            for d in range(cap + 1)}
    basis = [[f"{label_prefix}{d}_{i}" for i in range(rows[d].shape[0])]
             for d in range(cap + 1)]

    elims: dict[int, linalg.Elimination] = {}  # one per target degree

    def coords(imgs, m, n):
        if not imgs.nnz:
            return np.zeros((imgs.shape[0], rows[n + m].shape[0]), dtype=np.int64)
        if n + m not in elims:
            elims[n + m] = linalg.Elimination(rows[n + m].T, p)
        sol = linalg.solve(elims[n + m], imgs.T, p)
        if sol is None:
            raise ModuleError(f"submodule not closed under action at degrees {(m, n)}")
        return sol.T.dense()

    return GradedModule(A, basis, _action_tensors(A, free, rows, coords, embed))
