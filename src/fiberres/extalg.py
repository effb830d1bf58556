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
coproduct of two such algebras on the alternating-word basis, placing
each concatenation by index and reading a merged boundary letter as a
row of its factor's table; ``free_product_module`` builds the module
induced along it the same way.  Every table here is built straight
into ``algebra``'s one table storage from its nonzero cells
(``_dual_tensor``, ``_placed``), and the induced map's images are
``linalg.Matrix``es placed from their entries, so an Ext table, almost
all zeros, holds its entries only: at hmax 12 on k[x]/(x^2) x_k
k[y]/(y^2), ``verify_phi_iso`` runs in about 50 MB where dense tables
took about 4 GB.  For a fiber product R and a module M
over its first factor, Ext_R(M, k) is the module induced from
Ext_S(M, k) along that coproduct; one check body, ``_verify_induced``,
tests this degree by degree and product by product, on an induced map
that ``_word_images`` builds in suffix form: in ascending degree, a
word is its first letter's matrix applied to the row already built for
the rest of the word, one product per (degree, first letter).
``verify_theta_iso`` runs it for M; ``verify_phi_iso`` is its M = k
case, where the induced module is the free product itself, plus a
tensor-product control and the second factor's restriction.
``koszul_check`` reads the diagonal condition off the Betti table of
the residue field's resolution (``off_diagonal``), the one bigraded
count of Ext.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebra import Element, FiberProductAlgebra, GradedAlgebra, difference, right_product
from .gmodule import (FreeModule, GradedModule, extend, generator_terms, residue_module,
                      restrict_to_fiber)
from .resolve import (ComplexReport, FreeResolution, WindowError, minimal_resolution,
                      shared, window)
from .series import coproduct_module_series
from .wordres import Letter, alternating_words, assemble_word_complex


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


# -- free products on the alternating-word basis -----------------------------


def _fp_letters(a: GradedAlgebra, b: GradedAlgebra, cap: int) -> list[tuple]:
    """(side, degree, letter) triples of the positive-degree basis
    elements of the two factors; a letter is (side, degree, index)."""
    return [(t, deg, (t, deg, i)) for t, alg in ((0, a), (1, b))
            for deg in range(1, cap + 1) for i in range(alg.dim(deg))]


def _fp_words(a: GradedAlgebra, b: GradedAlgebra, cap: int) -> list[list]:
    """Alternating words in positive-degree basis letters of the two
    factors, bucketed by total degree and sorted (length, letters)."""
    buckets = alternating_words([(0, None)], _fp_letters(a, b, cap), cap)
    return [sorted((ls for ls, _ in ws), key=lambda w: (len(w), w))
            for ws in buckets]


def _fp_letter_label(a: GradedAlgebra, b: GradedAlgebra, x: tuple) -> str:
    alg = a if x[0] == 0 else b
    return f"{'S' if x[0] == 0 else 'T'}:{alg.labels(x[1])[x[2]]}"


def _fp_product(a: GradedAlgebra, b: GradedAlgebra, u: tuple, v: tuple):
    """Concatenate, merging the boundary letters inside their common
    factor when they share one; a single merge keeps words alternating.
    A merged letter's coefficients are a slice of that factor's
    (reduced) product table."""
    x, y = u[-1], v[0]
    if x[0] != y[0]:
        return [(u + v, 1)]
    alg = a if x[0] == 0 else b
    ks, cs = _row(alg.mult[(x[1], y[1])], x[2] * alg.dim(y[1]) + y[2])
    return [(u[:-1] + ((x[0], x[1] + y[1], k),) + v[1:], c)
            for k, c in zip(ks.tolist(), cs.tolist())]


def _row(mat: linalg.Matrix, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns and values of the nonzero entries of row r of ``mat``:
    a slice of its row-major entries, which the matrix keeps once read."""
    rows, cols, vals = mat.nonzero()
    start, stop = np.searchsorted(rows, [r, r + 1])
    return cols[start:stop], vals[start:stop]


def _placed(dims: tuple, cells: list, p: int) -> linalg.Matrix:
    """The table of ``dims`` (A, B, C) holding the coefficient of each
    (a, b, c, coefficient) cell, placed from the cells; no cell
    repeats."""
    A, B, C = dims
    i, j, k, c = np.array(cells, dtype=np.int64).reshape(-1, 4).T
    return linalg.Matrix.placed([(i * B + j, k, c)], (A * B, C), p)


class FreeProductAlgebra(GradedAlgebra):
    """Coproduct of two connected graded algebras on the basis of
    alternating words in their positive-degree basis elements."""

    def __init__(self, a: GradedAlgebra, b: GradedAlgebra, cap: int):
        if a.p != b.p:
            raise ExtError(f"factors disagree on the characteristic: "
                           f"{a.p} vs {b.p}")
        if not 0 <= cap <= min(a.cap, b.cap):
            raise ExtError(f"free product cap {cap} outside "
                           f"0..{min(a.cap, b.cap)}")
        self.factor_a = a
        self.factor_b = b
        words = _fp_words(a, b, cap)
        self.words = words
        self._index = [{w: i for i, w in enumerate(ws)} for ws in words]
        basis = [["1"]] + [
            [".".join(_fp_letter_label(a, b, x) for x in w) for w in ws]
            for ws in words[1:]
        ]
        mult = {}
        for m in range(1, cap):
            for n in range(1, cap + 1 - m):
                index = self._index[m + n]
                mult[(m, n)] = _placed(
                    (len(words[m]), len(words[n]), len(index)),
                    [(i, j, index[w], c) for i, u in enumerate(words[m])
                     for j, v in enumerate(words[n]) for w, c in _fp_product(a, b, u, v)], a.p)
        generators = {}
        for d in range(1, cap + 1):
            for i, w in enumerate(words[d]):
                if len(w) == 1:
                    generators[basis[d][i]] = (d, i)
        super().__init__(a.p, cap, basis, mult, generators)

    def word_index(self, degree: int, word: tuple) -> int:
        return self._index[degree][word]

    def split(self, degree: int, word: tuple) -> tuple:
        """(first letter, index of the rest among the basis words of its
        degree) of a degree-``degree`` word; the empty word, the unit,
        gives (None, 0), the unit's index in k."""
        if not word:
            return None, 0
        x = word[0]
        return x, self._index[degree - x[1]][word[1:]]


def free_product(a: GradedAlgebra, b: GradedAlgebra,
                 cap: int | None = None) -> FreeProductAlgebra:
    if cap is None:
        cap = min(a.cap, b.cap)
    return FreeProductAlgebra(a, b, cap)


class FreeProductModule(GradedModule):
    """Module induced along factor A of a free product: basis words
    (letters, module element) whose letters alternate and end, if any,
    with a letter from factor B; A-letters reaching the module element
    are absorbed through the A-action."""

    def __init__(self, fp: FreeProductAlgebra, module: GradedModule):
        a, b = fp.factor_a, fp.factor_b
        if module.algebra is not a:
            raise ExtError("module must be over the free product's first factor")
        cap = fp.cap
        self.factor_module = module
        seeds = [(dm, (dm, mi)) for dm in range(cap + 1)
                 for mi in range(module.dim(dm))]
        words = [sorted(ws, key=lambda w: (len(w[0]), w[0], w[1])) for ws in
                 alternating_words(seeds, _fp_letters(a, b, cap), cap, first=1)]
        self.words = words
        self._index = [{w: i for i, w in enumerate(ws)} for ws in words]

        def label(w):
            ls, (dm, mi) = w
            head = ".".join(_fp_letter_label(a, b, x) for x in ls)
            tail = module.labels(dm)[mi]
            return f"{head}.{tail}" if head else tail

        action = {}
        for m in range(1, cap + 1):
            for n in range(cap + 1 - m):
                index, cells = self._index[m + n], []
                for i, u in enumerate(fp.words[m]):
                    x = u[-1]
                    for j, (ls, mpair) in enumerate(words[n]):
                        if ls:
                            cells.extend((i, j, index[(w, mpair)], c)
                                         for w, c in _fp_product(a, b, u, ls))
                        elif x[0] == 1:
                            cells.append((i, j, index[(u, mpair)], 1))
                        else:
                            dm, mi = mpair
                            ks, cs = _row(module.action[(x[1], dm)], x[2] * module.dim(dm) + mi)
                            cells.extend((i, j, index[(u[:-1], (dm + x[1], k))], c)
                                         for k, c in zip(ks.tolist(), cs.tolist()))
                action[(m, n)] = _placed((fp.dim(m), len(words[n]), len(index)), cells, fp.p)
        super().__init__(fp, [[label(w) for w in ws] for ws in words], action)

    def word_index(self, degree: int, word: tuple) -> int:
        return self._index[degree][word]

    def split(self, degree: int, word: tuple) -> tuple:
        """(first letter, index of the rest among the basis words of its
        degree) of a degree-``degree`` word with letters; (None, the
        module element's index in its degree) for a word without."""
        ls, (dm, mi) = word
        if not ls:
            return None, mi
        x = ls[0]
        return x, self._index[degree - x[1]][(ls[1:], (dm, mi))]


def free_product_module(fp: FreeProductAlgebra,
                        module: GradedModule) -> FreeProductModule:
    return FreeProductModule(fp, module)


# -- cohomology of a fiber product, induced along the coproduct -------------


class _PhiData:
    pass


def _phi_setup(R: FiberProductAlgebra, hmax: int, dmax: int) -> _PhiData:
    """Shared scaffolding: factor resolutions, the word resolution of
    the residue field, Ext algebras on both sides, the restriction
    chain maps, and the candidate isomorphism on basis words.  Built
    once per (R, hmax, dmax) inside a ``resolve.sharing()`` scope."""
    return shared(("phi_setup", id(R), hmax, dmax), lambda: _build_phi_setup(R, hmax, dmax))


def _build_phi_setup(R: FiberProductAlgebra, hmax: int, dmax: int) -> _PhiData:
    d = _PhiData()
    d.R = R  # held, so that the id in a shared key stays R's
    d.S, d.T = R.s_algebra, R.t_algebra
    d.E = minimal_resolution(d.S, residue_module(d.S), hmax, dmax)
    d.F = minimal_resolution(d.T, residue_module(d.T), hmax, dmax)
    d.P = d.E  # the module the word resolution resolves is k itself
    d.G = assemble_word_complex(R, d.E, d.F, d.P, hmax, dmax)
    d.gidx = [{w: i for i, w in enumerate(ws)} for ws in d.G.words]
    d.S_ext = ext_algebra(d.S, hmax, dmax, resolution=d.E)
    d.T_ext = ext_algebra(d.T, hmax, dmax, resolution=d.F)
    d.R_ext = ext_algebra(R, hmax, dmax, resolution=d.G)
    sigma = restriction_chain_map(d.G, d.E, R, "S")
    tau = restriction_chain_map(d.G, d.F, R, "T")
    d.sig_mats = [_generator_coefficients(sigma[n], d.G.frees[n], d.E.frees[n])
                  for n in range(hmax + 1)]
    d.tau_mats = [_generator_coefficients(tau[n], d.G.frees[n], d.F.frees[n])
                  for n in range(hmax + 1)]
    d.FP = free_product(d.S_ext, d.T_ext, hmax)
    d.phis = _word_images(d, d.FP, [linalg.Matrix.identity(1)],
                          [d.R_ext.dim(n) for n in range(hmax + 1)],
                          d.R_ext.left_mult_matrix)
    return d


def _word_images(d: _PhiData, induced, seeds: list, dims: list, letter_matrix) -> dict:
    """The induced map on the basis words of ``induced`` (the free
    product or an induced module), one ``linalg.Matrix`` per degree n
    with one row per word and ``dims[n]`` columns, built in ascending
    degree and placed from its entries.  A word without letters is its
    module element's image, a row of the Matrix ``seeds[n]``.  A word
    with letters is its first letter's restriction image acting, through
    ``letter_matrix`` (as ``act_matrix``), on the row already built for
    the rest of the word, a basis word of lower degree
    (``induced.split``).  The words of one degree that share their first
    letter go through one ``linalg.matmul``."""
    p, images = d.R.p, {}
    for n, words in enumerate(induced.words):
        parts, groups = [], {}
        for r, w in enumerate(words):
            x, i = induced.split(n, w)
            if x is None:
                cols, vals = _row(seeds[n], i)
                parts.append((np.full(cols.size, r), cols, vals))
            else:
                rows, rests = groups.setdefault(x, ([], []))
                rows.append(r)
                rests.append(i)
        for (t, deg, i), (rows, rests) in groups.items():
            vec = (d.sig_mats if t == 0 else d.tau_mats)[deg].rows([i]).dense()[0]
            # ``rows`` takes increasing indices: the rests go sorted, their words with them
            order = np.argsort(rests)
            pr, pc, pv = linalg.matmul(images[n - deg].rows(np.asarray(rests)[order]),
                                       letter_matrix(Element(d.R_ext, deg, vec), n - deg),
                                       p).nonzero()
            parts.append((np.asarray(rows)[order][pr], pc, pv))
        images[n] = linalg.Matrix.placed(parts, (len(words), dims[n]), p)
    return images


def _concatenation_failures(d: _PhiData, tensors: dict, G, gidx: list,
                            tmax: int) -> list[tuple]:
    """Letter duals that do not act by concatenation on the duals of
    G's basis words, for each table (j, n) of total degree <= tmax: the
    dual of an F letter is tested on words led by E or P, the dual of an
    E letter (its P letter in the word resolution of k) on the rest.
    Failures are (letter tag, j, letter index, n, word index)."""
    p0 = Letter("P", 0, 0, d.P.gen_degrees(0)[0])
    bad = []
    for j, n in sorted(key for key in tensors if sum(key) <= tmax):
        table, width = tensors[(j, n)], G.rank(n)
        for wi, w in enumerate(G.words[n]):
            f_lead = w[0].tag in ("E", "P")
            res = d.F if f_lead else d.E
            for a, deg in enumerate(res.gen_degrees(j)):
                if f_lead:
                    x = Letter("F", j, a, deg)
                    xi = d.gidx[j][(x, p0)]
                else:
                    x = Letter("E", j, a, deg)
                    xi = d.gidx[j][(Letter("P", j, a, deg),)]
                if not _is_dual(*_row(table, xi * width + wi), gidx[j + n][(x,) + w]):
                    bad.append(("f" if f_lead else "e", j, a, n, wi))
    return bad


def _is_dual(cols: np.ndarray, vals: np.ndarray, i: int) -> bool:
    """Whether the row with nonzero entries ``vals`` at ``cols`` is the
    dual of basis element i."""
    return cols.size == 1 and cols[0] == i and vals[0] == 1


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
    restriction (name, matrices, word), whose rows must be word duals;
    concatenation (``names[3]``); bijectivity by rank; and, through total
    degree ``tmax``, that the map carries ``induced_tensors`` to
    ``tensors`` (``names[4]``).  Failing rank and product rows name the
    first offender."""
    p, hmax = d.R.p, G.hmax
    rep = ComplexReport()
    gidx = [{w: i for i, w in enumerate(ws)} for ws in G.words]
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
    for name, mats, word in restrictions:
        bad = [(n, a) for n in range(first, hmax + 1) for a in range(mats[n].shape[0])
               if not _is_dual(*_row(mats[n], a), gidx[n][word(n, a)])]
        rep.add(name, not bad, f"failures {bad[:5]}" if bad else "")
    bad = _concatenation_failures(d, tensors, G, gidx, tmax)
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
    p0 = Letter("P", 0, 0, d.P.gen_degrees(0)[0])
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
             lambda n, a: (Letter("P", n, a, d.E.gen_degrees(n)[a]),)),
            ("restriction to the second factor fixes dual generators", d.tau_mats,
             lambda n, b: (Letter("F", n, b, d.F.gen_degrees(n)[b]), p0))],
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
    PM = minimal_resolution(d.S, module, hmax, dmax)
    GM = assemble_word_complex(R, d.E, d.F, PM, hmax, dmax)
    M_ext = ext_module(d.S, module, hmax, dmax, ext=d.S_ext, resolution=PM)
    FPM = free_product_module(d.FP, M_ext)
    MR_ext = ext_module(R, None, hmax, dmax, ext=d.R_ext, resolution=GM)
    cM = restriction_chain_map(GM, PM, R, "S")
    mats_m = [_generator_coefficients(cM[n], GM.frees[n], PM.frees[n])
              for n in range(hmax + 1)]
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
                       mats_m, lambda n, b: (Letter("P", n, b, PM.gen_degrees(n)[b]),))])


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
