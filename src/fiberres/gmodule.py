"""Graded left modules, based free modules, and matrices over a graded
algebra.

A GradedModule is a degreewise table (basis labels plus action tensors),
mirroring GradedAlgebra.  A FreeModule is a list of homogeneous
generators; its degree-d component has the basis {a * g} with a running
over the algebra basis in degree d - deg(g).  An AlgMatrix is a matrix
of homogeneous algebra entries between free modules, with an optional
uniform internal-degree drop (used by chain-map lifts).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import Element, FiberProductAlgebra, GradedAlgebra
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
    "fiber_product_module",
    "minimal_generators",
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
            a = np.asarray(arr, dtype=np.int64) % algebra.p
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

    def times(self, rows, a: Element, n: int) -> np.ndarray:
        """``rows @ act_matrix(a, n)`` mod p."""
        return linalg.matmul_mod(rows, self.act_matrix(a, n), self.algebra.p)

    def act(self, a: Element, n: int, vec) -> tuple[int, np.ndarray]:
        v = np.asarray(vec, dtype=np.int64) % self.algebra.p
        return n + a.degree, (v @ self.act_matrix(a, n)) % self.algebra.p

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


def free_module_table(algebra: GradedAlgebra, gen_degrees: list[int],
                      gen_labels: list[str] | None = None) -> GradedModule:
    """The free module on the given generators, as a degreewise table."""
    free = FreeModule(algebra, gen_degrees, gen_labels)
    basis = [free.pair_labels(d) for d in range(algebra.cap + 1)]
    action = {}
    for m in range(1, algebra.cap + 1):
        for n in range(0, algebra.cap + 1 - m):
            arr = np.zeros((algebra.dim(m), free.dim(n), free.dim(n + m)),
                           dtype=np.int64)
            for i in range(algebra.dim(m)):
                arr[i] = free.left_mult_matrix(algebra.basis_element(m, i), n)
            action[(m, n)] = arr
    return GradedModule(algebra, basis, action)


def restrict_to_fiber(R: FiberProductAlgebra, module: GradedModule,
                      side: str) -> GradedModule:
    """View a module over one factor as a module over the fiber product:
    the other factor's augmentation ideal acts by zero."""
    if side not in ("S", "T"):
        raise ModuleError(f"side must be 'S' or 'T', not {side!r}")
    factor = R.s_algebra if side == "S" else R.t_algebra
    if module.algebra is not factor:
        raise ModuleError(f"the module is not over the fiber product's {side} factor")
    basis = [module.labels(n) if n <= R.cap else [] for n in range(R.cap + 1)]
    action = {}
    for m in range(1, R.cap + 1):
        for n in range(0, R.cap + 1 - m):
            arr = np.zeros((R.dim(m), module.dim(n), module.dim(n + m)), dtype=np.int64)
            sl = R.s_slice(m) if side == "S" else R.t_slice(m)
            arr[sl] = module.action[(m, n)]
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
        self._layouts: dict[int, tuple[list[int], np.ndarray, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def _layout(self, d: int) -> tuple[list[int], np.ndarray, int]:
        """Degree-d offset of each generator's block (as a list and as
        an array) and the total dimension."""
        lay = self._layouts.get(d)
        if lay is None:
            out, acc = [], 0
            for s in self.gen_degrees:
                out.append(acc)
                acc += self.algebra.dim(d - s)
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

    def left_mult_matrix(self, a: Element, d: int) -> np.ndarray:
        """Matrix of v -> a*v from degree d to d + deg(a), row-indexed
        by the source basis."""
        m = a.degree
        out = np.zeros((self.dim(d), self.dim(d + m)), dtype=np.int64)
        src_off, tgt_off = self.offsets(d), self.offsets(d + m)
        for j, s in enumerate(self.gen_degrees):
            da = d - s
            if da < 0 or self.algebra.dim(da) == 0:
                continue
            block = self.algebra.left_mult_matrix(a, da)
            out[src_off[j]: src_off[j] + block.shape[0],
                tgt_off[j]: tgt_off[j] + block.shape[1]] = block
        return out

    def times(self, rows, a: Element, d: int) -> np.ndarray:
        """``rows @ left_mult_matrix(a, d)`` mod p without that matrix:
        one int64 product per generator degree s, exact as each entry
        sums dim A_(d - s) terms below p^2."""
        A, m, r = self.algebra, a.degree, rows.shape[0]
        out = np.zeros((r, self.dim(d + m)), dtype=np.int64)
        for s, gens in self.by_degree.items():
            na, nb = A.dim(d - s), A.dim(d + m - s)
            if na * nb * r:
                prod = (rows[:, self.block_indices(d, gens, na)].reshape(-1, na)
                        @ A.left_mult_matrix(a, d - s))
                out[:, self.block_indices(d + m, gens, nb)] = prod.reshape(r, -1) % A.p
        return out

    def decompose(self, vec, d: int) -> dict[int, Element]:
        """Algebra coefficients per generator of a degree-d vector."""
        v = np.asarray(vec, dtype=np.int64) % self.algebra.p
        off, starts, total = self._layout(d)
        if v.shape != (total,):
            raise ModuleError(f"degree-{d} vector has shape {v.shape}, "
                              f"expected ({total},)")
        # The block of a coordinate is the last one starting at or before
        # it; an empty block starts where the next one does, so
        # side="right" passes over it.  The hits come sorted; dict.fromkeys
        # drops repeats (np.unique's first call loads modules that add
        # about 1.6 MB of resident memory).
        hit = np.searchsorted(starts, np.flatnonzero(v), side="right") - 1
        out = {}
        for j in dict.fromkeys(hit.tolist()):
            da = d - self.gen_degrees[j]
            out[j] = Element(self.algebra, da,
                             v[off[j]: off[j] + self.algebra.dim(da)])
        return out


class AlgMatrix:
    """Matrix of homogeneous entries mapping src -> tgt, dropping
    internal degree by ``shift``: entry (i, j) has degree
    deg(src_j) - deg(tgt_i) - shift."""

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

    def evaluate(self, d: int) -> np.ndarray:
        """k-linear matrix (tgt.dim(d - shift), src.dim(d)) acting on
        coordinate columns."""
        p = self.algebra.p
        rows, cols = self.tgt.dim(d - self.shift), self.src.dim(d)
        out = np.zeros((rows, cols), dtype=np.int64)
        if rows == 0 or cols == 0:
            return out
        src_off = self.src.offsets(d)
        tgt_off = self.tgt.offsets(d - self.shift)
        for (i, j), c in self.entries.items():
            da = d - self.src.gen_degrees[j]
            if da < 0 or self.algebra.dim(da) == 0:
                continue
            rm = self.algebra.right_mult_matrix(da, c)  # (dim da, dim da+e)
            out[tgt_off[i]: tgt_off[i] + rm.shape[1],
                src_off[j]: src_off[j] + rm.shape[0]] += rm.T
        return out % p

    def compose(self, other: "AlgMatrix") -> "AlgMatrix":
        """self o other, for other: A -> B and self: B -> C."""
        if other.tgt is not self.src and other.tgt.gen_degrees != self.src.gen_degrees:
            raise ModuleError("compose: the inner free modules differ")
        acc: dict[tuple[int, int], Element] = {}
        for (k, j), b in other.entries.items():
            for (i, k2), a in self.entries.items():
                if k2 != k:
                    continue
                # evaluate multiplies coefficients on the right, so entry
                # (i, j) is the sum over k of other[k, j] * self[i, k]
                prod = b * a
                if prod.is_zero():
                    continue
                if (i, j) in acc:
                    acc[(i, j)] = acc[(i, j)] + prod
                else:
                    acc[(i, j)] = prod
        acc = {key: el for key, el in acc.items() if not el.is_zero()}
        return AlgMatrix(self.algebra, other.src, self.tgt, acc,
                         self.shift + other.shift)

    def is_zero(self) -> bool:
        return not self.entries

    def min_entry_degree(self) -> int | None:
        if not self.entries:
            return None
        return min(el.degree for el in self.entries.values())

    def column(self, j: int) -> dict[int, Element]:
        return {i: el for (i, jj), el in self.entries.items() if jj == j}

    def entry_strings(self) -> list[list[str]]:
        out = [["0"] * self.src.rank for _ in range(self.tgt.rank)]
        for (i, j), el in self.entries.items():
            out[i][j] = repr(el)
        return out


# -- cokernels -------------------------------------------------------------


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
    for d in range(A.cap + 1):
        img = phi.evaluate(d).T  # rows span the image
        R, pivots = linalg.rref(img, p) if img.size else (img, [])
        echelon.append((R[: len(pivots)], pivots))
        is_pivot = set(pivots)
        free_cols.append([c for c in range(free.dim(d)) if c not in is_pivot])

    def project(vec, d):
        # the pivot rows are zero at each other's pivots, so one product
        # reduces vec (at most dim terms below p^2: exact in int64)
        R, pivots = echelon[d]
        v = np.asarray(vec, dtype=np.int64) % p
        if pivots:
            v = (v - v[pivots] @ R) % p
        return v[free_cols[d]]

    basis = []
    all_labels = [free.pair_labels(d) for d in range(A.cap + 1)]
    for d in range(A.cap + 1):
        basis.append([all_labels[d][c] for c in free_cols[d]])

    action = {}
    for m in range(1, A.cap + 1):
        for n in range(0, A.cap + 1 - m):
            arr = np.zeros((A.dim(m), len(free_cols[n]), len(free_cols[n + m])),
                           dtype=np.int64)
            for i in range(A.dim(m)):
                a = A.basis_element(m, i)
                L = free.left_mult_matrix(a, n)
                for x, c in enumerate(free_cols[n]):
                    arr[i, x] = project(L[c], n + m)
            action[(m, n)] = arr
    return GradedModule(A, basis, action)


# -- minimal generators ------------------------------------------------------


def minimal_generators(algebra: GradedAlgebra, rows, times, dmax: int) \
        -> list[tuple[int, int, np.ndarray]]:
    """Minimal generators of the submodule spanned by ``rows[d]`` (d <=
    dmax), where ``times(rows, a, n)`` is ``rows`` times the matrix of
    x -> a*x out of degree n, mod p (a module's ``times``).
    The rows must span a submodule degreewise (kernels, or a whole
    module), so the part of degree d generated below it is the sum of
    g * rows[d - deg g] over the algebra's indecomposables g.  Each
    degree's span starts from those products, folded into one reduced
    echelon basis one g at a time; its own rows are then added in
    order.  Returns ``(degree, row index, new echelon row)`` per row
    that enlarges it."""
    p = algebra.p
    out = []
    for d in range(dmax + 1):
        if rows[d].shape[0] == 0:
            continue
        lower = np.zeros((0, rows[d].shape[1]), dtype=np.int64)
        for m, i in algebra.indecomposables:
            if m > d or rows[d - m].shape[0] == 0:
                continue
            prod = times(rows[d - m], algebra.basis_element(m, i), d - m)
            lower = linalg.row_space(np.vstack([lower, prod]), p)
        span = linalg.Span(p, rows[d].shape[1], lower)
        for j, row in enumerate(rows[d]):
            new = span.add(row)
            if new is not None:
                out.append((d, j, new))
    return out


# -- fiber products of modules ---------------------------------------------


def fiber_product_module(R: FiberProductAlgebra, m_mod: GradedModule,
                         n_mod: GradedModule, mu=None, nu=None) -> GradedModule:
    """Pullback of M -> V <- N over the fiber product ring.

    M is a module over the S factor, N over the T factor; V = k^v sits
    in degree 0.  mu and nu are v x dim matrices on degree 0 and default
    to the identity.  Returns the pullback as a module over R; a failed
    precondition (shapes, bijectivity on degree 0, generation in
    degree 0) raises ModuleError.
    """
    S, T = R.s_algebra, R.t_algebra
    if m_mod.algebra is not S or n_mod.algebra is not T:
        raise ModuleError("M must be over the S factor and N over the T factor")
    p = R.p
    m0, n0 = m_mod.dim(0), n_mod.dim(0)
    mu = np.eye(m0, dtype=np.int64) if mu is None else linalg.normalize(mu, p)
    nu = np.eye(n0, dtype=np.int64) if nu is None else linalg.normalize(nu, p)
    v = mu.shape[0]

    def check(name, ok, detail=""):
        if not ok:
            raise ModuleError(f"fiber module precondition failed: {name} {detail}")

    check("mu shape", mu.shape == (v, m0), f"{mu.shape}")
    check("nu shape", nu.shape == (v, n0), f"{nu.shape}")
    check("mu bijective on degree 0",
          m0 == v and linalg.rank(mu, p) == v,
          "kernel condition forces an isomorphism in degree 0")
    check("nu bijective on degree 0", n0 == v and linalg.rank(nu, p) == v, "")
    for mod, alg, name in ((m_mod, S, "M"), (n_mod, T, "N")):
        units = [np.eye(mod.dim(n), dtype=np.int64) for n in range(R.cap + 1)]
        new = Counter(n for n, _, _ in
                      minimal_generators(alg, units, mod.times, R.cap))
        for n in range(1, R.cap + 1):
            dim = mod.dim(n)
            check(f"{name} generated in degree 0 (degree {n})",
                  new[n] == 0, f"{dim - new[n]} vs {dim}")

    glue = np.hstack([mu, (-nu) % p])
    deg0 = linalg.kernel_basis(glue, p)  # rows: (x, y) with mu x = nu y

    basis = [[f"w{i}" for i in range(deg0.shape[0])]]
    for n in range(1, R.cap + 1):
        basis.append([f"M:{lab}" for lab in m_mod.labels(n)]
                     + [f"N:{lab}" for lab in n_mod.labels(n)])

    def act_tensor(m, n):
        dim_n = len(basis[n])
        dim_o = len(basis[n + m])
        arr = np.zeros((R.dim(m), dim_n, dim_o), dtype=np.int64)
        s_rows = R.s_slice(m)
        t_rows = R.t_slice(m)
        mm, nn = m_mod.dim(n), n_mod.dim(n)
        mo = m_mod.dim(n + m)
        if n == 0:
            for x in range(dim_n):
                xm, xn = deg0[x, :m0], deg0[x, m0:]
                for i in range(S.dim(m)):
                    arr[s_rows.start + i, x, :mo] = (
                        xm @ m_mod.act_matrix(S.basis_element(m, i), 0)
                    ) % p
                for i in range(T.dim(m)):
                    arr[t_rows.start + i, x, mo:] = (
                        xn @ n_mod.act_matrix(T.basis_element(m, i), 0)
                    ) % p
        else:
            for i in range(S.dim(m)):
                arr[s_rows.start + i, :mm, :mo] = m_mod.action[(m, n)][i]
            for i in range(T.dim(m)):
                arr[t_rows.start + i, mm:, mo:] = n_mod.action[(m, n)][i]
        return arr

    action = {(m, n): act_tensor(m, n)
              for m in range(1, R.cap + 1) for n in range(0, R.cap + 1 - m)}
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
    action = {}
    for m in range(1, cap + 1):
        for n in range(0, cap + 1 - m):
            src, tgt = rows[n], rows[n + m]
            arr = np.zeros((A.dim(m), src.shape[0], tgt.shape[0]), dtype=np.int64)
            for i in range(A.dim(m)):
                a = embed(A.basis_element(m, i))
                if a.is_zero():
                    continue
                L = free.left_mult_matrix(a, n)
                imgs = (src @ L) % p
                if not np.any(imgs):
                    continue
                coords = linalg.solve(tgt.T, imgs.T, p)
                if coords is None:
                    raise ModuleError(
                        f"submodule not closed under action at degrees {(m, n)}"
                    )
                arr[i] = coords.T
            action[(m, n)] = arr
    return GradedModule(A, basis, action)
