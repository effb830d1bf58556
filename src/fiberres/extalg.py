"""Cohomology algebras of connected graded algebras and their behaviour
under fiber products.

Every chain map here is lifted by one numeric stage loop,
``_lift_stages``, and kept as the sparse generator terms of each stage
(``gmodule.generator_terms``).  Stage by stage it solves for the images
of the source generators, one multi-column solve per internal degree,
against the target map's elimination that the target resolution keeps
(``FreeResolution.elimination``), so each target map is eliminated once
however many lifts solve against it.  Maps, right-hand sides and
solutions are ``linalg.Matrix``es, stored as ``linalg`` decides.  The
stage below is evaluated with ``gmodule.extend`` only at the generator
degrees of the stage being solved, and the last stage is never
evaluated.  The entry points differ
only in stage 0 and the shift: ``lift_dual`` (the dual of a generator,
written down as terms, for Yoneda products; the duals of one step and
degree go as one batch, told apart by the terms' batch column),
``restriction_chain_map`` (the identity terms, which ``extend`` makes
the coefficient projection onto a factor of a fiber product) and
``cohomology.comparison_chain_map`` (a module map, solved against the
two covers).  ``_generator_coefficients``
and ``_dual_tensor`` read a stage off on generators from its terms of
algebra degree 0.

``ext_algebra`` tabulates the Yoneda algebra Ext(k, k) on the dual basis
of a minimal free resolution of the residue field; ``ext_module`` does
the same for Ext(M, k) as a left module.  ``free_product`` builds the
coproduct of two such algebras, and ``free_product_module`` the module
induced along it, each on a ``wordres.WordTable`` of alternating words,
their tables by one suffix-form recursion (``_word_products``) that
differs between the two only at the seed.  Every table here is built
straight into ``algebra``'s one table storage from its nonzero cells,
and the induced map's images are ``linalg.Matrix``es placed from their
entries, so an Ext table, almost all zeros, holds its entries only.
For a fiber product R and a module M over its first factor, Ext_R(M, k)
is the module induced from Ext_S(M, k) along that coproduct.  These
objects are built in one place, the Ext-layer set-up of (R, hmax, dmax)
(``_phi_setup``), which phi, theta and both depth bounds of
``cohomology`` read; each of its pieces is built on first read, so a
reader builds only what it reads.  One check body, ``_verify_induced``,
tests the induced structure degree by degree and product by product, on
an induced map that ``_word_images`` builds in suffix form too: a word
is its first letter's matrix applied to the row already built for the
rest of the word, one product per (degree, first letter).
``verify_theta_iso`` runs it for M; ``verify_phi_iso`` is its M = k
case, where the induced module is the free product itself, plus a
tensor-product control and the second factor's restriction.
``koszul_check`` reads the diagonal condition off the Betti table of
the residue field's resolution (``off_diagonal``), the one bigraded
count of Ext.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg
from .algebra import Element, FiberProductAlgebra, GradedAlgebra, difference, right_product
from .gmodule import (FreeModule, GradedModule, extend, generator_terms, residue_module,
                      restrict_to_fiber)
from .resolve import (ComplexReport, FreeResolution, WindowError, minimal_resolution,
                      shared, window)
from .series import coproduct_module_series
from .wordres import WordTable, assemble_word_complex


class ExtError(RuntimeError):
    pass


# -- chain-map lifting ------------------------------------------------------


def _lift_stages(src: FreeResolution, tgt: FreeResolution, prev: dict,
                 stages: range, step: int = 0, shift: int = 0, side: str | None = None,
                 batch: int = 1) -> list[dict]:
    """The one chain-map lifter: the generator terms of each stage n in
    ``stages`` of ``batch`` chain maps, stage n sending src[step + n]
    to tgt[n] and dropping internal degree by ``shift``, in the form
    ``gmodule.generator_terms`` gives (term b for map b).

    ``prev`` is the stage one down: below stage 0, the module map as
    stacked matrices per degree (rows = target coordinates, a missing
    degree acting as zero); above it, generator terms.  Stage n solves
    for the images of the source generators against tgt's stage-n
    differential (the two covers at stage 0), one ``linalg.solve`` per
    degree in increasing order with a column per generator and map,
    handed the map's elimination (``tgt.elimination``, not kept for a
    map with no rows or no columns).  The right-hand side is the product
    ``prev @ block`` (``linalg.matmul``) with each map's rows set side by
    side.  A right-hand side outside the image raises ``ExtError``.  It
    reads the stage below only at its own generator degrees, so
    ``extend`` evaluates a stage there alone, inside the window, and
    never evaluates the last one.  With ``side``, src lives over a fiber
    product and tgt over that factor.
    """
    p = tgt.algebra.p
    dcap = min(src.dmax, tgt.dmax + shift)
    out = []
    for n in stages:
        fsrc = src.frees[step + n]
        if n:
            prev = extend(tgt.frees[n - 1], src.frees[step + n - 1], prev,
                          [sj for sj in fsrc.by_degree if sj <= dcap], shift, batch, side)
        images = []
        for sj, gens in fsrc.by_degree.items():
            if sj > dcap:
                raise ExtError(f"lift window too small for a degree-{sj} generator")
            if sj not in prev:
                continue
            block = src.evaluated(step + n, sj).columns(fsrc.block_indices(sj, gens))
            rhs = linalg.matmul(prev[sj], block, p).side_by_side(batch)
            sol = linalg.solve(tgt.elimination(n, sj - shift), rhs, p)
            if sol is None:
                raise ExtError(f"chain-map lift failed at stage {n}, degree {sj}")
            images.append((sj, gens, sol))  # column (b, j): map b's image of generator j
        prev = generator_terms(tgt.frees[n], images, shift)
        out.append(prev)
    return out


def lift_dual(src: FreeResolution, tgt: FreeResolution, step: int,
              idx: int | list[int], nmax: int) -> list[dict]:
    """Chain map lifting the dual of generator ``idx`` at ``step`` of
    ``src`` through ``tgt``, a minimal resolution of the residue field
    over the same algebra.

    Returns the generator terms of stages 0..nmax, stage n sending
    src[step + n] to tgt[n] and dropping internal degree by the
    generator's internal degree s.  Stage 0 sends the generator to tgt's
    and the others to zero; later stages come from ``_lift_stages`` with
    shift s.  A list ``idx`` of generators of one internal degree is
    lifted as one batch: term b of a stage belongs to the lift of
    ``idx[b]``.
    """
    if tgt.algebra is not src.algebra:
        raise ExtError("lift_dual needs two resolutions over the same algebra")
    if tgt.gen_degrees(0) != [0]:
        raise ExtError("lift_dual needs a target resolving the residue field")
    if step + nmax > src.hmax or nmax > tgt.hmax:
        raise ExtError(f"lift needs source step {step + nmax} and target "
                       f"step {nmax}; the resolutions reach {src.hmax} and "
                       f"{tgt.hmax}")
    idxs = np.atleast_1d(idx)
    degs = {src.gen_degrees(step)[i] for i in idxs}
    if len(degs) != 1:
        raise ExtError(f"a batch of duals needs one internal degree, not {sorted(degs)}")
    s, nb = degs.pop(), len(idxs)
    # map b sends generator idxs[b] to the generator of tgt[0]
    dual = {(s, 0): (np.zeros(nb, dtype=np.int64), idxs, np.arange(nb),
                     np.ones((nb, 1), dtype=np.int64))}
    return [dual] + _lift_stages(src, tgt, dual, range(1, nmax + 1), step, s, batch=nb)


def _generator_coefficients(terms: dict, src: FreeModule, tgt: FreeModule) -> linalg.Matrix:
    """Read one chain-map stage off on generators: entry (a, c) of the
    ``linalg.Matrix`` is the coefficient of 1 * tgt generator a in the
    image of src generator c, the terms whose coefficients have algebra
    degree 0."""
    parts = [(tg, sg, coef[:, 0]) for (_, e), (tg, sg, _, coef) in terms.items() if e == 0]
    return linalg.Matrix.placed(parts, (tgt.rank, src.rank), src.algebra.p)


def _dual_tensor(E: FreeResolution, P: FreeResolution, lifts: dict, m: int,
                 n: int) -> linalg.Matrix:
    """Table (rank E_m, rank P_n, rank P_{m+n}) of step-m dual classes
    over E acting on step-n dual classes over P, placed from its entries:
    slice b is the stage-m lift of b's dual read off on generators,
    scattered a batch of duals at a time through the terms' batch
    column."""
    width = P.rank(n)
    parts = [(tg * width + np.asarray(duals)[b], sg, coef[:, 0])
             for duals, stages in lifts[n]
             for (_, e), (tg, sg, b, coef) in stages[m].items() if e == 0]
    return linalg.Matrix.placed(parts, (E.rank(m) * width, P.rank(m + n)), E.algebra.p)


def _yoneda_tables(E: FreeResolution, res: FreeResolution, imax: int,
                   first: int) -> dict[tuple[int, int], np.ndarray]:
    """Yoneda tables of the duals of E acting on the duals of res: each
    dual of res at steps first..imax is lifted through E once, and table
    (m, n) is ``_dual_tensor`` for m >= 1, n >= first, m + n <= imax."""
    if res.algebra is not E.algebra:
        raise ExtError("resolutions must be over the same algebra")
    if res.hmax < imax:
        raise ExtError(f"resolution reaches step {res.hmax}, need {imax}")
    if not res.is_minimal():
        raise ExtError("resolution must be minimal")
    lifts = {j: [(batch, lift_dual(res, E, j, list(batch), imax - j))
                 for batch in res.frees[j].by_degree.values()]
             for j in range(first, imax + 1)}
    return {(m, n): _dual_tensor(E, res, lifts, m, n)
            for m in range(1, imax + 1) for n in range(first, imax + 1 - m)}


# -- Ext algebras and Ext modules -------------------------------------------


class ExtAlgebra(GradedAlgebra):
    """Yoneda algebra on the dual basis of a minimal resolution of the
    residue field; the algebra grading is cohomological.  Basis class a
    in degree i is dual to generator a of step i of ``resolution``, so
    its internal degree is ``resolution.gen_degrees(i)[a]`` and the
    bigraded class counts through degree ``cap`` are those of
    ``resolution.betti()``."""

    def __init__(self, p, cap, basis, mult, generators, base, resolution):
        super().__init__(p, cap, basis, mult, generators)
        self.base = base
        self.resolution = resolution


def ext_algebra(algebra: GradedAlgebra, imax: int, dmax: int | None = None,
                resolution: FreeResolution | None = None) -> ExtAlgebra:
    """Ext(k, k) through cohomological degree ``imax`` with the Yoneda
    product (lift the right factor, then apply the left)."""
    res = resolution
    if res is None:
        res = minimal_resolution(algebra, residue_module(algebra), imax, dmax)
    if res.algebra is not algebra:
        raise ExtError("resolution must be over the given algebra")
    if res.rank(0) != 1 or res.gen_degrees(0) != [0]:
        raise ExtError("resolution must resolve the residue field")
    mult = _yoneda_tables(res, res, imax, 1)
    basis = [["1"]] + [[lab + "'" for lab in res.frees[i].gen_labels]
                       for i in range(1, imax + 1)]
    generators = {}
    for i in range(1, imax + 1):
        for a, lab in enumerate(basis[i]):
            generators[lab] = (i, a)
    return ExtAlgebra(algebra.p, imax, basis, mult, generators, algebra, res)


class ExtModule(GradedModule):
    """Ext(M, k) as a left module over the Yoneda algebra, on the dual
    basis of a minimal resolution of M (bigraded as ``ExtAlgebra``)."""

    def __init__(self, ext, basis, action, base_module, resolution):
        super().__init__(ext, basis, action)
        self.ext = ext
        self.base_module = base_module
        self.resolution = resolution


def ext_module(algebra: GradedAlgebra, module: GradedModule | None, imax: int,
               dmax: int | None = None, ext: ExtAlgebra | None = None,
               resolution: FreeResolution | None = None) -> ExtModule:
    """Ext(M, k) through degree ``imax``; a class at stage m acts on a
    module class at stage n by lifting the module class m stages."""
    if ext is None:
        ext = ext_algebra(algebra, imax, dmax)
    if ext.base is not algebra:
        raise ExtError("Ext algebra is over a different algebra")
    if ext.cap < imax:
        raise ExtError(f"Ext algebra reaches degree {ext.cap}, need {imax}")
    res = resolution
    if res is None:
        if module is None:
            raise ExtError("need a module or a resolution")
        res = minimal_resolution(algebra, module, imax, dmax)
    action = _yoneda_tables(ext.resolution, res, imax, 0)
    basis = [[lab + "'" for lab in res.frees[i].gen_labels]
             for i in range(imax + 1)]
    return ExtModule(ext, basis, action, res.module, res)


# -- restriction along a fiber-product projection ----------------------------


def restriction_chain_map(R_res: FreeResolution, fac_res: FreeResolution,
                          R: FiberProductAlgebra, side: str,
                          ) -> list[dict]:
    """Chain map from a resolution over the fiber product to one over a
    factor, equivariant for the projection onto that factor and lifting
    the identity on step-0 generators (which must match in degree), as
    the generator terms of each stage.

    Stage 0 is the identity on generators, which ``extend`` with the
    side makes the coefficient projection.  Later stages come from
    ``_lift_stages``.  Every stage is extended equivariantly: a
    coefficient r on a generator goes to its factor block acting on the
    image.
    """
    if side not in ("S", "T"):
        raise ExtError(f"side must be 'S' or 'T', not {side!r}")
    if R_res.algebra is not R or fac_res.algebra is not R.factor(side):
        raise ExtError(f"restriction needs resolutions over the fiber product "
                       f"and its {side} factor")
    if R_res.gen_degrees(0) != fac_res.gen_degrees(0):
        raise ExtError("step-0 generators do not align")
    identity = {(s, 0): (gens, gens, np.zeros(len(gens), dtype=np.int64),
                         np.ones((len(gens), 1), dtype=np.int64))
                for s, gens in R_res.frees[0].by_degree.items()}
    nmax = min(R_res.hmax, fac_res.hmax)
    return [identity] + _lift_stages(R_res, fac_res, identity, range(1, nmax + 1),
                                     side=side)


def _restriction_matrices(R: FiberProductAlgebra, R_res: FreeResolution,
                          fac_res: FreeResolution, side: str) -> list[linalg.Matrix]:
    """``restriction_chain_map`` read off on generators, stage by stage."""
    lift = restriction_chain_map(R_res, fac_res, R, side)
    return [_generator_coefficients(stage, R_res.frees[n], fac_res.frees[n])
            for n, stage in enumerate(lift)]


# -- free products on the alternating-word basis -----------------------------


def _letter_times(factors: tuple, table: WordTable, x: int, k: int, module) -> list:
    """(word, target, value) cells of letter x times the words of
    ``table`` of degree k: x is prepended where it may precede; it merges
    with a first letter y of its side through row (x, y) of that factor's
    table, read once; and at a seed it may not precede, an element of
    ``module`` alone, it acts through a row of the module's action."""
    t, w, i = table.letters[x]
    up = table.prepend(x, k, slice(None))
    words, blocked = np.flatnonzero(up >= 0), np.flatnonzero(up < 0)
    cells = [(words, up[words], np.ones(words.size, dtype=np.int64))]
    if not blocked.size:
        return cells
    lead, alg = table.first[k][blocked], factors[t]
    for y in np.flatnonzero(np.bincount(lead + 1)[1:]).tolist():  # np.unique loads numpy.ma
        vs = blocked[lead == y]
        _, wy, iy = table.letters[y]
        rows, zs, cs = alg.mult[(w, wy)].nonzero()
        at = rows == i * alg.dim(wy) + iy
        for z, c in zip(zs[at].tolist(), cs[at].tolist()):
            cells.append((vs, table.prepend(table.letter(t, w + wy, z), k - wy, table.rest[k][vs]),
                          np.full(vs.size, c)))
    seeds = blocked[lead < 0]
    if seeds.size:
        r, c, v = module.action[(w, k)].rows(i * module.dim(k) + table.rest[k][seeds]).nonzero()
        cells.append((seeds[r], c, v))   # onto the seeds alone, at their seeds' indices
    return cells


def _word_products(factors: tuple, left: WordTable, right: WordTable, n_min: int, p: int,
                   module: GradedModule | None = None) -> dict:
    """Tables (m, n), m >= 1, n >= ``n_min``, m + n <= left.cap, of the
    free product's words (``left``) times the words of ``right`` (its
    own, or those induced on ``module``'s basis), in suffix form: x.u
    times v is x times u.v, ``_letter_times`` for u = 1, else a cell of
    table (m - |x|, n), which starts from the other side than x and
    takes x by the prepend lookup."""
    tables = {}
    for m in range(1, left.cap + 1):
        for n in range(n_min, left.cap + 1 - m):
            width, cells = right.first[n].size, []
            for x, (_, w, _) in enumerate(left.letters):
                if w > m:
                    continue
                heads = left.prepend(x, m - w, slice(None))
                if w == m:
                    cells += [(heads[0] * width + v, c, val)
                              for v, c, val in _letter_times(factors, right, x, n, module)]
                else:
                    r, c, val = tables[(m - w, n)].nonzero()
                    u, v = np.divmod(r, max(width, 1))
                    u = heads[u]
                    keep = u >= 0
                    cells.append((u[keep] * width + v[keep], right.prepend(x, m - w + n, c[keep]),
                                  val[keep]))
            tables[(m, n)] = linalg.Matrix.placed(
                cells, (left.first[m].size * width, right.first[m + n].size), p)
    return tables


class FreeProductAlgebra(GradedAlgebra):
    """Coproduct of two connected graded algebras on the basis of
    alternating words in their positive-degree basis elements:
    ``table``, whose one seed is the unit."""

    def __init__(self, a: GradedAlgebra, b: GradedAlgebra, cap: int):
        if a.p != b.p:
            raise ExtError(f"factors disagree on the characteristic: "
                           f"{a.p} vs {b.p}")
        if not 0 <= cap <= min(a.cap, b.cap):
            raise ExtError(f"free product cap {cap} outside "
                           f"0..{min(a.cap, b.cap)}")
        self.factor_a, self.factor_b = a, b
        self.letter_counts = [[0] + [alg.dim(n) for n in range(1, cap + 1)] for alg in (a, b)]
        self.table = WordTable(self.letter_counts, [1], cap)
        self.letter_labels = [f"{'ST'[t]}:{(a, b)[t].labels(w)[i]}"
                              for t, w, i in self.table.letters]
        basis = [["1"]] + self.table.labels(self.letter_labels, [[None]])[1:]
        generators = {basis[w][j]: (w, j) for w in range(1, cap + 1) for t in (0, 1)
                      for j in self.table.singles(t, w).tolist()}
        super().__init__(a.p, cap, basis, _word_products((a, b), self.table, self.table, 1, a.p),
                         generators)


def free_product(a: GradedAlgebra, b: GradedAlgebra,
                 cap: int | None = None) -> FreeProductAlgebra:
    if cap is None:
        cap = min(a.cap, b.cap)
    return FreeProductAlgebra(a, b, cap)


class FreeProductModule(GradedModule):
    """Module induced along factor A of a free product: basis words
    (letters, module element) whose letters alternate and end, if any,
    with a letter from factor B (``table``, whose seeds are the module's
    basis elements); A-letters reaching the module element are absorbed
    through the A-action."""

    def __init__(self, fp: FreeProductAlgebra, module: GradedModule):
        if module.algebra is not fp.factor_a:
            raise ExtError("module must be over the free product's first factor")
        degrees = range(fp.cap + 1)
        self.factor_module = module
        self.table = WordTable(fp.letter_counts, [module.dim(n) for n in degrees], fp.cap, 1)
        labels = self.table.labels(fp.letter_labels, [module.labels(n) for n in degrees])
        super().__init__(fp, labels, _word_products((fp.factor_a, fp.factor_b), fp.table,
                                                    self.table, 0, fp.p, module))


def free_product_module(fp: FreeProductAlgebra,
                        module: GradedModule) -> FreeProductModule:
    return FreeProductModule(fp, module)


# -- cohomology of a fiber product, induced along the coproduct -------------


class _PhiData:
    """The Ext-layer set-up of a fiber product R at window (hmax, dmax).
    Each piece is built on its first read, from the pieces it needs, and
    kept: a function of (R, hmax, dmax) alone, or of a module the set-up
    holds.  ``FP`` is the free product of the factors' Ext algebras
    ``S_ext`` and ``T_ext``, on the factors' resolutions E and F of k;
    ``R_ext`` is on G, the word resolution of k over R; ``sig_mats`` and
    ``tau_mats`` are the restrictions from G to E and F on generators,
    ``phis`` the candidate isomorphism on FP's basis words, and ``C``
    resolves k over FP at ``min(3, hmax)`` steps, joined from ``a_res``
    and ``b_res``."""

    def __init__(self, R: FiberProductAlgebra, hmax: int, dmax: int):
        self.R = R  # held, so that the id in a shared key stays R's
        self.hmax, self.dmax, self._modules = hmax, dmax, {}

    S_ext = cached_property(lambda d: ext_algebra(d.R.s_algebra, d.hmax, d.dmax))
    T_ext = cached_property(lambda d: ext_algebra(d.R.t_algebra, d.hmax, d.dmax))
    E, F = property(lambda d: d.S_ext.resolution), property(lambda d: d.T_ext.resolution)
    FP = cached_property(lambda d: free_product(d.S_ext, d.T_ext, d.hmax))
    # G, the word resolution of k (so its P is E), is built with R_ext on it:
    # their Yoneda tables, the set-up's peak, come before FP is read
    R_ext = cached_property(lambda d: ext_algebra(d.R, d.hmax, d.dmax, resolution=(
        assemble_word_complex(d.R, d.E, d.F, d.E, d.hmax, d.dmax))))
    G = property(lambda d: d.R_ext.resolution)
    sig_mats = cached_property(lambda d: _restriction_matrices(d.R, d.G, d.E, "S"))
    tau_mats = cached_property(lambda d: _restriction_matrices(d.R, d.G, d.F, "T"))
    phis = cached_property(lambda d: _word_images(
        d, d.FP, [linalg.Matrix.identity(1)], [d.R_ext.dim(n) for n in range(d.hmax + 1)],
        d.R_ext.left_mult_matrix))
    a_res = cached_property(lambda d: minimal_resolution(
        d.S_ext, residue_module(d.S_ext), min(3, d.hmax)))
    b_res = cached_property(lambda d: minimal_resolution(
        d.T_ext, residue_module(d.T_ext), min(3, d.hmax)))

    @cached_property
    def C(self) -> FreeResolution:
        from .cohomology import combined_residue_resolution  # cohomology builds on this module
        return combined_residue_resolution(self.FP, min(3, self.hmax), self.a_res, self.b_res)

    def module(self, M: GradedModule) -> tuple:
        """(PM, M_ext, FPM) of a first-factor module M: Ext_S(M, k) on
        M's resolution PM, and the module FPM induced from it along FP;
        built at the first request for M and kept under ``id(M)``, with M
        held, so that the id stays M's."""
        if id(M) not in self._modules:
            M_ext = ext_module(self.R.s_algebra, M, self.hmax, self.dmax, ext=self.S_ext)
            self._modules[id(M)] = M, free_product_module(self.FP, M_ext)
        FPM = self._modules[id(M)][1]
        return FPM.factor_module.resolution, FPM.factor_module, FPM


def _phi_setup(R: FiberProductAlgebra, hmax: int, dmax: int) -> _PhiData:
    """The Ext-layer set-up of (R, hmax, dmax): one per key inside a
    ``resolve.sharing()`` scope, and afresh outside one."""
    return shared(("phi_setup", id(R), hmax, dmax), lambda: _build_phi_setup(R, hmax, dmax))


_build_phi_setup = _PhiData


def _word_images(d: _PhiData, induced, seeds: list, dims: list, letter_matrix) -> dict:
    """The induced map on the basis words of ``induced`` (the free
    product or an induced module), one ``linalg.Matrix`` per degree n
    with one row per word and ``dims[n]`` columns, built in ascending
    degree and placed from its entries.  A seed alone is its module
    element's image, a row of the Matrix ``seeds[n]``.  A word x.r is the
    restriction image of x acting, through ``letter_matrix`` (as
    ``act_matrix``), on the row already built for r: the words of one
    degree led by one letter go through one ``linalg.matmul``."""
    p, images, table = d.R.p, {}, induced.table
    for n, (first, rest) in enumerate(zip(table.first, table.rest)):
        parts, alone = [], np.flatnonzero(first < 0)
        if alone.size:
            r, c, v = seeds[n].rows(rest[alone]).nonzero()
            parts.append((alone[r], c, v))
        for x in np.flatnonzero(np.bincount(first + 1)[1:]).tolist():  # the first letters
            t, deg, i = table.letters[x]
            vec = (d.sig_mats if t == 0 else d.tau_mats)[deg].rows([i]).dense()[0]
            rows = np.flatnonzero(first == x)
            # ``rows`` takes increasing indices: the rests go sorted, their words with them
            order = np.argsort(rest[rows])
            pr, pc, pv = linalg.matmul(images[n - deg].rows(rest[rows][order]),
                                       letter_matrix(Element(d.R_ext, deg, vec), n - deg),
                                       p).nonzero()
            parts.append((rows[order][pr], pc, pv))
        images[n] = linalg.Matrix.placed(parts, (first.size, dims[n]), p)
    return images


def _concatenation_failures(d: _PhiData, tensors: dict, G, tmax: int) -> list[tuple]:
    """Letter duals that do not act by concatenation on the duals of
    G's basis words, for each table (j, n) of total degree <= tmax: the
    dual of each letter x of step j, an F letter or an E letter (the
    dual of its P letter in the word resolution of k), is tested on the
    words x may precede.  Failures are (letter tag, j, letter index, n,
    word index), by word."""
    bad = []
    for j, n in sorted(key for key in tensors if sum(key) <= tmax):
        table, width, fails = tensors[(j, n)], G.rank(n), []
        for t, duals in ((1, d.G.table.singles(1, j)), (0, np.arange(d.E.rank(j)))):
            tgt = np.array([G.table.prepend(G.table.letter(t, j, a), n, slice(None))
                            for a in range(duals.size)]).reshape(duals.size, width)
            a, wi = np.nonzero(tgt >= 0)
            at = _not_duals(table, duals[a] * width + wi, tgt[a, wi])
            fails += zip(wi[at].tolist(), a[at].tolist(), "ef"[t] * at.size)
        bad += [(tag, j, a, n, wi) for wi, a, tag in sorted(fails)]
    return bad


def _not_duals(mat: linalg.Matrix, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The positions in ``rows`` whose row of ``mat`` is not the dual of
    its basis element ``targets``: one nonzero entry, a 1 in that column."""
    r, c, v = mat.nonzero()
    start, stop = np.searchsorted(r, rows), np.searchsorted(r, rows, side="right")
    c, v = np.append(c, -1), np.append(v, 0)  # a row past the last entry reads (-1, 0)
    return np.flatnonzero((stop - start != 1) | (c[start] != targets) | (v[start] != 1))


def _products_degree(products_to: int, hmax: int, first: int) -> int:
    """min(products_to, hmax), the top total degree of the product
    checks; below first + 1 they would test nothing: ``WindowError``."""
    tmax = min(products_to, hmax)
    if tmax < first + 1:
        raise WindowError(f"window {hmax} with products-to {products_to} tests no product;"
                          f" the smallest valid products-to and window are {first + 1}")
    return tmax


def _verify_induced(d: _PhiData, *, first: int, tmax: int, key: str, names: tuple,
                    direct: FreeResolution, G, induced, induced_tensors: dict, m_ext,
                    tensors: dict, images: dict, restrictions: list,
                    controls=()) -> ComplexReport:
    """The one check that Ext_R(M, k) is ``induced``, the module induced
    from ``m_ext`` = Ext_S(M, k) along the coproduct of the factors' Ext
    algebras; at M = k (``first`` = 1) it is the free product.  ``G`` is
    the word complex of M over R, ``tensors`` R's Yoneda action on its
    duals, and ``images[n]`` the induced map on degree-n words, n >=
    ``first``.  Rows in order: the dims of ``induced`` against ``direct``,
    G and the coproduct series (``names[0:3]``, filed under ``key``); each
    control (key, name, label, dims), which must differ from Ext; each
    restriction (name, matrices, words), whose rows must be the duals of
    the G words ``words(n)``;
    concatenation (``names[3]``); bijectivity by rank; and, through total
    degree ``tmax``, that the map carries ``induced_tensors`` to
    ``tensors`` (``names[4]``).  Failing rank and product rows name the
    first offender."""
    p, hmax = d.R.p, G.hmax
    rep = ComplexReport()
    dims = [induced.dim(n) for n in range(hmax + 1)]
    ext = [direct.rank(n) for n in range(hmax + 1)]
    series = coproduct_module_series(
        *(A.hilbert_series() for A in (d.S_ext, d.T_ext, m_ext))).coeffs
    others = {"direct": ext, "word": [G.rank(n) for n in range(hmax + 1)], "series": series}
    rep.data["dims"] = {key: dims, **others, **{c[0]: c[3] for c in controls}}
    for name, other in zip(names, others.values()):
        rep.add(name, dims == other, f"{dims} vs {other}")
    for _, name, label, c in controls:
        n = next((n for n in range(hmax + 1) if c[n] != ext[n]), None)
        rep.add(name, n is not None, f"first mismatch at n={n}: {label} {c[n]} vs {ext[n]}"
                if n is not None else f"{label} dims agree through the window")
    for name, mats, words in restrictions:
        bad = [(n, a) for n in range(first, hmax + 1) for a in
               _not_duals(mats[n], np.arange(mats[n].shape[0]), words(n)).tolist()]
        rep.add(name, not bad, f"failures {bad[:5]}" if bad else "")
    bad = _concatenation_failures(d, tensors, G, tmax)
    rep.add(f"{names[3]} (total degree <= {tmax})", not bad,
            f"failures {bad[:5]}" if bad else "")

    ranks = {n: int(linalg.rank(images[n], p)) for n in range(first, hmax + 1)}
    short = [n for n, r in ranks.items() if not r == G.rank(n) == dims[n]]
    rep.add("induced map bijective per degree", not short, f"ranks {list(ranks.values())}"
            + "".join(f"; first at degree {n}: rank {ranks[n]}, expected word-complex "
                      f"rank {G.rank(n)} = induced dim {dims[n]}" for n in short[:1]))
    bad, detail = [], ""
    for m in range(1, tmax + 1 - first):
        for n in range(first, tmax + 1 - m):
            # both sides as (i, j * K + k): word i times word j at G generator k
            I, J, _ = induced.table_dims(m, n)
            lhs = linalg.matmul(induced_tensors[(m, n)], images[m + n], p).reshape(
                (I, J * G.rank(m + n)))
            rhs = linalg.matmul(d.phis[m], right_product(
                tensors[(m, n)], (d.R_ext.dim(m), G.rank(n), G.rank(m + n)), images[n].T, p), p)
            rows, cols, _ = difference(lhs, rhs, p).nonzero()
            if rows.size:
                if not bad:
                    i, c = int(rows[0]), int(cols[0])
                    j, k = divmod(c, G.rank(m + n))
                    lv, rv = (int(side.block(i, i + 1, c, c + 1).dense()[0, 0])
                              for side in (lhs, rhs))
                    detail = (f"; first at (m, n) = ({m}, {n}): {d.FP.labels(m)[i]} * "
                              f"{induced.labels(n)[j]} at {G.frees[m + n].gen_labels[k]}': "
                              f"{lv} vs {rv}")
                bad.append((m, n))
    rep.add(f"{names[4]} (total degree <= {tmax})", not bad,
            f"failures {bad}{detail}" if bad else "")
    return rep


def verify_phi_iso(R: FiberProductAlgebra, hmax: int, dmax: int | None = None,
                   products_to: int = 4) -> ComplexReport:
    """Check that cohomology of the fiber product is the free product of
    the factors' cohomology algebras: ``_verify_induced`` at M = k, plus
    a tensor-product control and the second factor's restriction.  The
    control agrees with Ext through degree 1 (both are s_1 + t_1), so a
    window below 2 raises ``WindowError``, as does a products-to below 2."""
    if hmax < 2:
        raise WindowError(f"window {hmax} is too small for the tensor-product "
                          f"control; the smallest valid window is 2")
    tmax = _products_degree(products_to, hmax, 1)
    dmax = window(R, hmax, dmax)
    d = _phi_setup(R, hmax, dmax)
    tensor_dims = (d.S_ext.hilbert_series() * d.T_ext.hilbert_series()).coeffs
    return _verify_induced(
        d, first=1, tmax=tmax, key="free_product",
        names=("free product dims = Ext dims (direct resolution)",
               "free product dims = word resolution ranks",
               "dims match coproduct series",
               "letter duals multiply by concatenation",
               "induced map multiplicative"),
        direct=minimal_resolution(R, residue_module(R), hmax, dmax), G=d.G,
        induced=d.FP, induced_tensors=d.FP.mult, m_ext=d.S_ext,
        tensors=d.R_ext.mult, images=d.phis,
        restrictions=[
            ("restriction to the first factor fixes dual generators", d.sig_mats,
             lambda n: np.arange(d.E.rank(n))),
            ("restriction to the second factor fixes dual generators", d.tau_mats,
             lambda n: d.G.table.singles(1, n))],
        controls=[("tensor_control", "tensor-product control disagrees somewhere",
                   "tensor", tensor_dims)])


def verify_theta_iso(R: FiberProductAlgebra, module: GradedModule, hmax: int,
                     dmax: int | None = None,
                     products_to: int = 4) -> ComplexReport:
    """Check that for a module over the first factor, cohomology over
    the fiber product is the module induced from its factor cohomology
    along the free product: ``_verify_induced`` on the module's word
    complex, the induced map sending a basis word to its letters acting
    on the image of its module class.  A window or products-to below 1
    tests no product and raises ``WindowError``."""
    if module.algebra is not R.s_algebra:
        raise ExtError("verify_theta_iso needs a module over the first factor")
    tmax = _products_degree(products_to, hmax, 0)
    dmax = window(R, hmax, dmax)
    d = _phi_setup(R, hmax, dmax)
    PM, M_ext, FPM = d.module(module)
    GM = assemble_word_complex(R, d.E, d.F, PM, hmax, dmax)
    MR_ext = ext_module(R, None, hmax, dmax, ext=d.R_ext, resolution=GM)
    mats_m = _restriction_matrices(R, GM, PM, "S")
    thetas = _word_images(d, FPM, mats_m, [GM.rank(n) for n in range(hmax + 1)],
                          MR_ext.act_matrix)
    return _verify_induced(
        d, first=0, tmax=tmax, key="induced_module",
        names=("induced module dims = Ext dims (direct resolution)",
               "induced module dims = word resolution ranks",
               "dims match coproduct module series",
               "letter duals act by concatenation",
               "induced map equivariant"),
        direct=minimal_resolution(R, restrict_to_fiber(R, module, "S"), hmax, dmax),
        G=GM, induced=FPM, induced_tensors=FPM.action, m_ext=M_ext,
        tensors=MR_ext.action, images=thetas,
        restrictions=[("restriction to the first factor fixes module dual generators",
                       mats_m, lambda n: np.arange(PM.rank(n)))])


# -- Koszul diagonal test ----------------------------------------------------


def off_diagonal(res: FreeResolution) -> list[tuple[int, int]]:
    """The (step, internal degree) pairs of ``res.betti()`` off the
    diagonal, sorted: the classes of Ext that are not Koszul."""
    return sorted(key for key in res.betti() if key[0] != key[1])


def koszul_check(algebra: GradedAlgebra, hmax: int, dmax: int | None = None,
                 ) -> tuple[bool, list[tuple[int, int]]]:
    """Whether every Ext class in the window sits on the diagonal
    (internal degree equal to homological degree); offenders are the
    off-diagonal (step, degree) pairs."""
    offenders = off_diagonal(minimal_resolution(algebra, residue_module(algebra), hmax, dmax))
    return not offenders, offenders
