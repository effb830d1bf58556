"""Graded left modules, based free modules, and matrices over a graded
algebra.

A GradedModule is a degreewise table (basis labels plus action tables),
mirroring GradedAlgebra.  Action table (m, n) is in ``algebra``'s one
table storage, a ``linalg.Matrix`` whose row a * dim M_n + x holds a * x,
and every reader (``act_matrix``, ``act``, ``window_times``,
``check_associativity``, the constructors) goes through the table
products of ``algebra``, so no reader chooses a storage.  A FreeModule is
a list of homogeneous generators; its degree-d component has the basis
{a * g} with a running over the algebra basis in degree d - deg(g).

A module's window of degrees 0..dmax orders its coordinates
degree-major: degree, then (for a free module) generator, then algebra
basis element.  ``window(dmax)`` gives the start of each degree; a free
module also keeps the start of each (degree, generator) block, all from
one running sum of the block sizes, and reads each degree's offsets off
it.

A map of free modules (or a batch of maps) is stored as sparse
generator terms: per (source generator degree, entry degree e), arrays
``(tgt, src, batch, coef)`` with one row per nonzero entry, ``coef``
being its coefficients in degree e.  ``generator_terms`` reads them off
generator images, the columns of a ``linalg.Matrix`` per degree.
``extend``, the one module-linear extension, evaluates them degree by
degree into a ``linalg.Matrix`` per degree, and ``extend_window``
places the same blocks into one block-diagonal ``linalg.Matrix`` over
the window.  An AlgMatrix writes a map by its algebra entries and hands it on as terms;
nothing turns terms back into one.  ``placed_terms`` reads the terms of
a map over a factor as terms over a larger algebra that holds the
factor's basis (a fiber product, a free product).

Rows and maps of the resolution layer are ``linalg.Matrix``es, so
``linalg``'s storage rule alone decides how each is stored.  A module's
``window_times`` takes and gives one; ``FreeModule.window_times`` reads
the rows at their nonzero entries in either storage, on one path, and
``FreeModule.times`` is the same product on the rows of one degree.
``minimal_generators``, the one generator step, takes a submodule's rows
over the whole window, eliminates the lower span of every degree at
once and keeps its new rows with ``linalg.echelon`` and
``linalg.reduce_rows`` alone.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import (Element, FiberProductAlgebra, GradedAlgebra, difference, left_product,
                      read_table, right_product, scalar_matrix)
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
    "extend_window",
    "generator_terms",
    "placed_terms",
    "fiber_product_module",
    "minimal_generators",
    "window_degrees",
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
        # action[(m, n)]: the table of A_m acting on M_n, m >= 1, m+n <= cap
        # (see algebra.read_table)
        self.action: dict[tuple[int, int], linalg.Matrix] = {}
        for (m, n), arr in action.items():
            expected = (algebra.dim(m), self.dim(n), self.dim(m + n))
            self.action[(m, n)] = read_table(arr, expected, algebra.p, lambda shape: ModuleError(
                f"action tensor {(m, n)} has shape {shape}, expected {expected}"))
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

    def table_dims(self, m: int, n: int) -> tuple[int, int, int]:
        """(dim A_m, dim M_n, dim M_(m+n)): the dims of action table (m, n)."""
        return self.algebra.dim(m), self.dim(n), self.dim(m + n)

    def act_matrix(self, a: Element, n: int) -> linalg.Matrix:
        """Matrix of x -> a*x from degree n to n + deg(a), rows indexed
        by the source basis."""
        m, p = a.degree, self.algebra.p
        if m == 0:
            return scalar_matrix(self.dim(n), int(a.vec[0]), p)
        if n + m > self.cap:
            raise ModuleError(f"action lands beyond cap {self.cap}")
        dims = self.table_dims(m, n)
        return left_product(self.action[(m, n)], dims, a.vec, p).reshape(dims[1:])

    def window(self, dmax: int) -> np.ndarray:
        """The start of each degree 0..dmax in the window (the degreewise
        bases one after the other), then its total width."""
        return np.cumsum([0] + [self.dim(n) for n in range(dmax + 1)])

    def window_times(self, rows, a: Element, dmax: int) -> linalg.Matrix:
        """``rows`` (coordinate rows over the window of degrees 0..dmax)
        times the matrix of x -> a*x over the same window, mod p: one
        product with the matrix whose blocks are ``act_matrix(a, n)``; what
        lands past dmax is dropped."""
        starts, m, blocks = self.window(dmax), a.degree, []
        for n in range(dmax + 1 - m):
            if self.dim(n) and self.dim(n + m):
                r, c, v = self.act_matrix(a, n).nonzero()
                blocks.append((starts[n] + r, starts[n + m] + c, v))
        act = linalg.Matrix.placed(blocks, (starts[-1], starts[-1]), self.algebra.p)
        return linalg.matmul(rows, act, self.algebra.p)

    def act(self, a: Element, n: int, vec) -> tuple[int, np.ndarray]:
        """``vec @ act_matrix(a, n)`` mod p, without building the matrix:
        the vector is contracted first (``right_product``), then the
        element."""
        p, m = self.algebra.p, a.degree
        v = np.asarray(vec, dtype=np.int64) % p
        if m == 0:
            return n, (v * int(a.vec[0])) % p
        if n + m > self.cap:
            raise ModuleError(f"action lands beyond cap {self.cap}")
        av = right_product(self.action[(m, n)], self.table_dims(m, n), v.reshape(-1, 1), p)
        return n + m, linalg.matmul(a.vec, av, p).dense()[0]

    def check_associativity(self) -> list[tuple]:
        """(a*b)*x == a*(b*x) for basis elements within cap; returns
        violating (deg a, deg b, deg x) triples.  Both sides are read as
        (dim A_m1) x (dim A_m2 * dim M_n * dim M_(m1+m2+n)) matrices, as in
        ``GradedAlgebra.check_associativity``."""
        A, p = self.algebra, self.algebra.p
        bad = []
        for m1 in range(1, self.cap):
            for m2 in range(1, self.cap + 1 - m1):
                for n in range(0, self.cap + 1 - m1 - m2):
                    d1, d2, d12 = A.dim(m1), A.dim(m2), A.dim(m1 + m2)
                    dn, dy = self.dim(n), self.dim(m1 + m2 + n)
                    lhs = linalg.matmul(A.mult[(m1, m2)],
                                        self.action[(m1 + m2, n)].reshape((d12, dn * dy)), p)
                    rhs = right_product(self.action[(m1, m2 + n)], self.table_dims(m1, m2 + n),
                                        self.action[(m2, n)].T, p)
                    if difference(lhs.reshape((d1, d2 * dn * dy)), rhs, p).nnz:
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
            action[(m, n)] = linalg.Matrix.zeros((algebra.dim(m) * dims[n], dims[n + m]))
    return GradedModule(algebra, basis, action)


def algebra_as_module(algebra: GradedAlgebra) -> GradedModule:
    """A over itself: A_m acting on A_0 = k is the identity of A_m, and on
    A_n, n >= 1, the product table itself."""
    action = {}
    for m in range(1, algebra.cap + 1):
        for n in range(0, algebra.cap + 1 - m):
            action[(m, n)] = (linalg.Matrix.identity(algebra.dim(m)) if n == 0
                              else algebra.mult[(m, n)])
    return GradedModule(algebra, algebra.basis, action)


def free_module_table(algebra: GradedAlgebra, gen_degrees: list[int]) -> GradedModule:
    """The free module on the given generators, as a degreewise table."""
    free = FreeModule(algebra, gen_degrees)
    units = [linalg.Matrix.identity(free.dim(d)) for d in range(algebra.cap + 1)]
    return GradedModule(algebra, [free.pair_labels(d) for d in range(algebra.cap + 1)],
                        _action_tables(algebra, free, units, lambda imgs, m, n: imgs))


def restrict_to_fiber(R: FiberProductAlgebra, module: GradedModule,
                      side: str) -> GradedModule:
    """View a module over one factor as a module over the fiber product:
    the other factor's augmentation ideal acts by zero.  Built once per
    (R, module, side) inside a ``resolve.sharing()`` scope."""
    from .resolve import shared  # resolve builds on this module
    if side not in ("S", "T"):
        raise ModuleError(f"side must be 'S' or 'T', not {side!r}")
    if module.algebra is not R.factor(side):
        raise ModuleError(f"the module is not over the fiber product's {side} factor")

    def build():
        basis = [module.labels(n) if n <= R.cap else [] for n in range(R.cap + 1)]
        action = {}
        for m in range(1, R.cap + 1):
            for n in range(0, R.cap + 1 - m):
                dims = (R.dim(m), module.dim(n), module.dim(n + m))
                action[(m, n)] = linalg.Matrix.placed_tables(
                    [(module.action[(m, n)], module.dim(n), (R.part(side, m).start, 0, 0))],
                    dims, R.p)
        # the module is held, so that the id in the key stays its
        return module, GradedModule(R, basis, action)

    return shared(("restriction", id(R), id(module), side), build)[1]


# -- free modules and matrices -------------------------------------------


class FreeModule:
    """Free module on homogeneous generators.  It is never mutated, so
    its window layout and each degree's block layout are computed once
    and kept.

    The window of degrees 0..dmax orders the coordinates degree-major:
    degree, then generator, then algebra basis element.  ``window(dmax)``
    gives the start of each degree in it; the layout over degrees 0..cap
    also keeps the start of each (degree, generator) block, and the
    window of a smaller dmax is its prefix."""

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

    def _block_sizes(self, degrees) -> np.ndarray:
        """Entry (k, j): the size dim A_(d - deg g_j) of generator j's
        block in degree d = degrees[k]."""
        A = self.algebra
        da = np.asarray(degrees, dtype=np.int64)[:, None] - self._degrees
        return A.dims[np.where((da >= 0) & (da <= A.cap), da, -1)]

    @cached_property
    def _window(self) -> tuple[np.ndarray, np.ndarray]:
        """The layout of the window of degrees 0..cap: the start of each
        degree (and the total width last), and the start of each (degree,
        generator) block, from one running sum of the block sizes."""
        cap = self.algebra.cap
        sizes = self._block_sizes(np.arange(cap + 1))
        flat = sizes.ravel()
        starts = np.zeros(cap + 2, dtype=np.int64)
        np.cumsum(sizes.sum(axis=1), out=starts[1:])
        return starts, (np.cumsum(flat) - flat).reshape(sizes.shape)

    def window(self, dmax: int) -> np.ndarray:
        """The start of each degree 0..dmax in the window, then its total
        width (shared; do not modify)."""
        return self._window[0][: dmax + 2]

    def _blocks(self, coords) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat index, the degree and the generator of the block that
        holds each window coordinate: the last block starting at or
        before it, as an empty block starts where the next one does."""
        block = self._window[1].ravel().searchsorted(coords, "right") - 1
        return (block, *np.divmod(block, max(self.rank, 1)))

    def window_generators(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """The degree and the generator of the block that holds each
        window coordinate."""
        return self._blocks(coords)[1:]

    @cached_property
    def unit_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """The generators j of degree at most the cap, and the window
        coordinate of 1 * g_j for each: a generator above the cap has no
        coordinate in the window."""
        gens = np.flatnonzero(self._degrees <= self.algebra.cap)
        return gens, self._window[1][self._degrees[gens], gens]

    def _layout(self, d: int) -> tuple[list[int], np.ndarray, int]:
        """Degree-d offset of each generator's block (as a list and as
        an array) and the total dimension.  Inside degrees 0..cap they are
        a slice of the window layout, cheaper than summing the block sizes
        afresh for each of the hundreds of degrees the lifter asks for.
        Outside, the block sizes are summed: the module is nonzero up to
        cap + its top generator degree, and a layout over all of those
        degrees would grow with generator degrees that input files set."""
        lay = self._layouts.get(d)
        if lay is None:
            if 0 <= d <= self.algebra.cap:
                starts, blocks = self._window
                off, total = blocks[d] - starts[d], starts[d + 1] - starts[d]
            else:
                sizes = self._block_sizes([d])[0]
                off, total = np.cumsum(sizes) - sizes, sizes.sum()
            lay = self._layouts[d] = (off.tolist(), off, int(total))
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

    def _product(self, r, c, vals, a: Element, dmax: int, origin: int = 0) -> list:
        """The entry parts of the rows with entries ``(r, c, vals)``
        (row-major, c a window coordinate) times the matrix of v -> a*v,
        at window coordinates minus ``origin``; a coordinate whose image
        lies past degree ``dmax`` is dropped.  One int64 product per
        algebra degree e of the coordinates, exact as each entry sums dim
        A_e terms below p^2.

        Entry c of a row is coordinate x of the block of a degree-d
        generator g_j, and a * (x g_j) lies in g_j's block in degree d +
        deg a.  Only the (row, block) pairs that are hit enter the
        product, and the result is made of their blocks alone."""
        A, m, p = self.algebra, a.degree, self.algebra.p
        blocks = self._window[1].ravel()
        block, d, j = self._blocks(c)
        inside = d + m <= dmax
        if not inside.all():
            r, c, vals, block, d, j = (x[inside] for x in (r, c, vals, block, d, j))
        if not r.size:
            return []
        key = r * blocks.size + block  # row-major, so each pair's entries are consecutive
        first = np.ones(r.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        e = d - self._degrees[j]
        pr, pe = r[first], e[first]
        tgt = blocks[block[first] + m * self.rank] - origin
        degrees = np.flatnonzero(np.bincount(pe))
        # coef[k, x]: coordinate x of the k-th (row, block) pair hit
        coef = np.zeros((pr.size, A.dims[degrees].max()), dtype=np.int64)
        coef[first.cumsum() - 1, c - blocks[block]] = vals
        parts = []
        for x in degrees.tolist():
            if A.dim(x + m):
                k = np.flatnonzero(pe == x)
                kr, kc, kv = linalg.matmul(coef[k, :A.dim(x)], A.left_mult_matrix(a, x),
                                           p).nonzero()
                parts.append((pr[k][kr], tgt[k][kr] + kc, kv))
        return parts

    def window_times(self, rows, a: Element, dmax: int) -> linalg.Matrix:
        """``rows`` (coordinate rows over the window of degrees 0..dmax)
        times the matrix of v -> a*v over the same window, mod p; what
        lands past dmax is dropped.  The rows are read only at their
        nonzero entries, in either storage."""
        rows = linalg.Matrix.read(rows, self.algebra.p)
        return linalg.Matrix.placed(self._product(*rows.nonzero(), a, dmax),
                                    (rows.shape[0], self.window(dmax)[-1]), self.algebra.p)

    def times(self, rows, a: Element, d: int) -> linalg.Matrix:
        """``rows`` (coordinate rows in degree d) times the matrix of v ->
        a*v, mod p: ``window_times`` on the rows placed at degree d of the
        window, read back at degree d + deg a.  The action must land
        inside the cap."""
        dt = d + a.degree
        if not 0 <= d <= dt <= self.algebra.cap:
            raise ModuleError(f"action from degree {d} lands beyond cap {self.algebra.cap}")
        rows = linalg.Matrix.read(rows, self.algebra.p)
        starts = self._window[0]
        r, c, vals = rows.nonzero()
        return linalg.Matrix.placed(self._product(r, c + starts[d], vals, a, dt, starts[dt]),
                                    (rows.shape[0], self.dim(dt)), self.algebra.p)


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


def generator_terms(ftgt: FreeModule, images: list, shift: int = 0) -> dict:
    """Sparse generator terms of maps into ftgt from generator images:
    ``images`` holds ``(degree, generators, sol)``, the image of
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
        gens, dt, width = np.asarray(gens), sj - shift, sol.shape[1]
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


def placed_terms(terms: dict, coordinates, dim) -> dict:
    """Generator terms over an algebra A read over a larger algebra B
    that holds A's positive-degree basis: each coefficient row of degree
    e placed at B's coordinates ``coordinates(e)`` of its ``dim(e)``."""
    out = {}
    for (sj, e), (tg, sg, b, coef) in terms.items():
        wide = np.zeros((coef.shape[0], dim(e)), dtype=np.int64)
        wide[:, coordinates(e)] = coef
        out[(sj, e)] = (tg, sg, b, wide)
    return out


def _extended_blocks(ftgt: FreeModule, fsrc: FreeModule, terms: dict, d: int,
                     tgt_off: np.ndarray, nrow: int, src_off: np.ndarray,
                     side: str | None):
    """The nonzero entries of the degree-d matrix of a map, one
    ``linalg.Matrix.placed`` part per term group: one product of the
    group's coefficients with ``by_right_factor``, entry ((b, i, y), (j,
    x)) being coordinate y of x * coefficient, where h_i's block starts at
    row b * nrow + tgt_off[i] and g_j's at column src_off[j].  No two
    parts share a cell."""
    A, p = ftgt.algebra, ftgt.algebra.p
    for (sj, e), (tg, sg, bt, coef) in terms.items():
        da = d - sj
        dy = A.dim(da + e)
        if not A.dim(da) * dy:
            continue
        # entry (k, x * dy + y): coordinate y of x * coefficient k
        k, c, v = linalg.matmul(coef, A.by_right_factor(da, e), p).nonzero()
        x, y = divmod(c, dy)
        yield ((bt * nrow + tgt_off[tg])[k] + y,
               (src_off[sg] + (fsrc.algebra.part(side, da).start if side else 0))[k] + x, v)


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
    return {d: linalg.Matrix.placed(list(_extended_blocks(
        ftgt, fsrc, terms, d, ftgt._layout(d - shift)[1], ftgt.dim(d - shift),
        fsrc._layout(d)[1], side)), (batch * ftgt.dim(d - shift), fsrc.dim(d)),
        ftgt.algebra.p) for d in degrees}


def extend_window(ftgt: FreeModule, fsrc: FreeModule, terms: dict, dmax: int) -> linalg.Matrix:
    """The matrix of one module map fsrc -> ftgt over the window of
    degrees 0..dmax: a module map keeps the internal degree, so it is
    block-diagonal, block (d, d) being ``extend``'s degree-d matrix.
    Only the degrees where both modules are nonzero are visited."""
    (tw, tb), (sw, sb) = ftgt._window, fsrc._window
    return linalg.Matrix.placed(
        [part for d in range(dmax + 1) if tw[d + 1] > tw[d] and sw[d + 1] > sw[d]
         for part in _extended_blocks(ftgt, fsrc, terms, d, tb[d], 0, sb[d], None)],
        (tw[dmax + 1], sw[dmax + 1]), ftgt.algebra.p)


# -- subquotients of free modules -------------------------------------------------


def _action_tables(A: GradedAlgebra, free: FreeModule, rows, coords,
                   embed=lambda el: el) -> dict:
    """Action tables of A on a subquotient of ``free`` whose degree-n
    basis is given by the coordinate rows ``rows[n]`` (a
    ``linalg.Matrix``): rows i * len(rows[n]) onwards of table (m, n) are
    the images of those rows under basis element i of A_m (through
    ``embed`` into free's algebra), in the coordinates ``coords(images,
    m, n)`` returns as a ``linalg.Matrix``."""
    action = {}
    for m in range(1, A.cap + 1):
        for n in range(A.cap + 1 - m):
            imgs = [coords(free.times(rows[n], embed(A.basis_element(m, i)), n), m, n)
                    for i in range(A.dim(m))]
            action[(m, n)] = (linalg.Matrix.stack(imgs) if imgs
                              else linalg.Matrix.zeros((0, rows[n + m].shape[0])))
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
        return linalg.reduce_rows(rows, *echelon[d], p).columns(free_cols[d])

    basis = [[labels[c] for c in cols] for labels, cols in
             zip((free.pair_labels(d) for d in range(A.cap + 1)), free_cols)]
    units = [linalg.Matrix.identity(free.dim(n)).columns(cols).T
             for n, cols in enumerate(free_cols)]
    return GradedModule(A, basis, _action_tables(
        A, free, units, lambda imgs, m, n: project(imgs, n + m)))


# -- minimal generators ------------------------------------------------------


def window_degrees(starts: np.ndarray, coords) -> np.ndarray:
    """The degree of each window coordinate, given the start of each
    degree in the window: the last degree starting at or before it, as
    an empty degree starts where the next one does."""
    return starts.searchsorted(coords, "right") - 1


def minimal_generators(module, rows, degrees, dmax: int) -> tuple[np.ndarray, linalg.Matrix]:
    """Minimal generators of the submodule spanned by ``rows``, a
    ``linalg.Matrix`` (or an array-like) over ``module``'s window of
    degrees 0..dmax whose row r is homogeneous of degree ``degrees[r]``,
    nondecreasing.  The rows must span a submodule degreewise (kernels,
    or a whole module), so the part of degree d generated below it is
    spanned by the products g * (a row of degree d - deg g) over the
    algebra's indecomposables g.  ``module.window_times`` takes them, one
    product per indecomposable of the rows whose products land on a
    degree with rows, and they are stacked and eliminated once, into the
    reduced echelon basis ``lower`` of pivot rows only.  A module map
    keeps the degree, so ``lower`` is the union of each degree's lower
    span.  Returns the indices of the rows that enlarge the span of
    ``lower`` and the rows before them, and for each such row its
    residual against ``lower`` divided by its leading entry, stacked.
    The new rows of degree d span a complement of ``lower`` in the
    submodule's degree-d part.

    All rows are reduced against ``lower`` in one ``linalg.reduce_rows``;
    the residual of a row is unique, and a row enlarges the span exactly
    when its residual is independent of the residuals before it.  So a
    nonzero residual row that shares no column with another residual row
    is kept, and among the rows that share columns (all of one degree)
    the kept ones are the pivot columns of the echelon form of their
    residuals' transpose.  All kept rows are normalized in one batch."""
    A = module.algebra
    p = A.p
    rows = linalg.Matrix.read(rows, p)
    degrees = np.asarray(degrees, dtype=np.int64)
    m, n = rows.shape
    present = np.zeros(dmax + A.cap + 2, dtype=bool)
    present[degrees] = True
    prods = []
    for deg, i in A.indecomposables:
        src = np.flatnonzero(present[degrees + deg])
        if src.size:
            prods.append(module.window_times(rows if src.size == m else rows.rows(src),
                                             A.basis_element(deg, i), dmax))
    res = rows if not prods else linalg.reduce_rows(
        rows, *linalg.echelon(linalg.Matrix.stack(prods), p), p)
    r, c, v = res.nonzero()
    if not r.size:
        return r, linalg.Matrix.zeros((0, n))
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
    return r[first], linalg.Matrix.placed(
        [(slot, c, v * linalg.inv_mod(v[first], p)[slot] % p)], (slot[-1] + 1, n), p)


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
    for mod, name in ((m_mod, "M"), (n_mod, "N")):
        starts = mod.window(R.cap)
        degrees = window_degrees(starts, np.arange(starts[-1]))
        kept, _ = minimal_generators(mod, linalg.Matrix.identity(starts[-1]), degrees, R.cap)
        new = Counter(degrees[kept].tolist())
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
        (_, a1, a2), (_, b1, b2) = m_r.table_dims(m, n), n_r.table_dims(m, n)
        # degree 0 is one copy of V: N's block sits beside M's, not below it
        b0 = 0 if n == 0 else a1
        action[(m, n)] = linalg.Matrix.placed_tables(
            [(a, a1, (0, 0, 0)), (n_r.action[(m, n)], b1, (0, b0, a2))],
            (R.dim(m), b0 + b1, a2 + b2), R.p)
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
            return linalg.Matrix.zeros((imgs.shape[0], rows[n + m].shape[0]))
        if n + m not in elims:
            elims[n + m] = linalg.Elimination(rows[n + m].T, p)
        sol = linalg.solve(elims[n + m], imgs.T, p)
        if sol is None:
            raise ModuleError(f"submodule not closed under action at degrees {(m, n)}")
        return sol.T

    return GradedModule(A, basis, _action_tables(A, free, rows, coords, embed))
