"""Cohomology algebras of connected graded algebras and their behaviour
under fiber products.

Every chain map here is lifted by one stage loop, ``_lift_stages``:
stage by stage it solves for the images of the source generators, with
one multi-column solve per internal degree, and extends them
module-linearly.  Its entry points differ only in stage 0
and the shift: ``lift_dual`` (the dual of a generator, for Yoneda
products), ``restriction_chain_map`` (the coefficient projection onto a
factor of a fiber product) and ``cohomology.comparison_chain_map`` (a
module map).  ``induced_ext_matrix`` and the Yoneda tables read a stage
off on generators through one shared helper.

``ext_algebra`` tabulates the Yoneda algebra Ext(k, k) on the dual basis
of a minimal free resolution of the residue field; ``ext_module`` does
the same for Ext(M, k) as a left module.  ``free_product`` builds the
coproduct of two such algebras on the alternating-word basis, and
``verify_phi_iso`` / ``verify_theta_iso`` check that for a fiber product
the cohomology algebra (resp. the cohomology of a factor module) is the
free product (resp. the induced module over it), degree by degree and
product by product.  ``koszul_check`` reads the diagonal condition off
generator degrees.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebra import Element, FiberProductAlgebra, GradedAlgebra
from .gmodule import (AlgMatrix, FreeModule, GradedModule, residue_module,
                      restrict_to_fiber)
from .resolve import ComplexReport, FreeResolution, minimal_resolution
from .series import coproduct_module_series
from .wordres import Letter, alternating_words, assemble_word_complex


class ExtError(RuntimeError):
    pass


# -- chain-map lifting ------------------------------------------------------


def _boundary(res: FreeResolution, n: int, d: int) -> np.ndarray:
    """Degree-d map out of stage n: the differential, or the cover at 0."""
    return res.eval_diff(n, d) if n else res.eval_cover(d)


def _lift_stages(src: FreeResolution, tgt: FreeResolution,
                 prev: dict[int, np.ndarray], stages: range, step: int = 0,
                 shift: int = 0, side: str | None = None,
                 ) -> list[dict[int, np.ndarray]]:
    """The one chain-map lifter: numeric maps of each stage n in
    ``stages``, sending degree-d coordinates of src[step + n] to
    degree-(d - shift) coordinates of tgt[n].

    ``prev`` is the map one stage down (the module map, rows = target
    coordinates, when the first stage is 0); a degree it lacks acts as
    zero.  Stage n solves for the images of the source generators only,
    against tgt's stage-n differential (the two covers at stage 0), and
    extends module-linearly over tgt's algebra.  The generators of one
    degree share a single multi-column solve, and degrees go in
    increasing order.  When ``side`` names the factor tgt lives over,
    src lives over the fiber product and each stage is precomposed with
    the coefficient projection onto that factor.
    """
    A = tgt.algebra
    p = A.p
    dcap = min(src.dmax, tgt.dmax + shift)
    maps = []
    for n in stages:
        fsrc, ftgt = src.frees[step + n], tgt.frees[n]
        by_degree: dict[int, list[int]] = {}
        for j, sj in enumerate(fsrc.gen_degrees):
            by_degree.setdefault(sj, []).append(j)
        entries: dict[tuple[int, int], Element] = {}
        for sj in sorted(by_degree):
            if sj > dcap:
                raise ExtError(f"lift window too small for a degree-{sj} generator")
            if sj not in prev:
                continue
            gens = by_degree[sj]
            cols = [fsrc.gen_index(sj, j) for j in gens]
            rhs = prev[sj] @ _boundary(src, step + n, sj)[:, cols]
            sol = linalg.solve(_boundary(tgt, n, sj - shift), rhs % p, p)
            if sol is None:
                raise ExtError(f"chain-map lift failed at stage {n}, degree {sj}")
            for j, x in zip(gens, sol.T):
                for i, el in ftgt.decompose(x, sj - shift).items():
                    entries[(i, j)] = el
        if side is None:
            mat = AlgMatrix(A, fsrc, ftgt, entries, shift=shift)
            prev = {d: mat.evaluate(d) for d in range(dcap + 1)}
        else:
            twin = FreeModule(A, fsrc.gen_degrees, fsrc.gen_labels)
            mat = AlgMatrix(A, twin, ftgt, entries)
            prev = {d: (mat.evaluate(d) @ _coefficient_projection(
                        src.algebra, fsrc, twin, d, side)) % p
                    for d in range(dcap + 1)}
        maps.append(prev)
    return maps


def lift_dual(src: FreeResolution, tgt: FreeResolution, step: int, idx: int,
              nmax: int) -> list[dict[int, np.ndarray]]:
    """Chain map lifting the dual of generator ``idx`` at ``step`` of
    ``src`` through ``tgt``, a minimal resolution of the residue field
    over the same algebra.

    Returns per-stage numeric matrices L[n][d] sending degree-d
    coordinates of src[step + n] to degree-(d - s) coordinates of
    tgt[n], where s is the generator's internal degree.  Stage 0 reads
    off the generator's coefficient; later stages come from
    ``_lift_stages`` with shift s.
    """
    A = src.algebra
    if tgt.algebra is not A:
        raise ExtError("lift_dual needs two resolutions over the same algebra")
    if step + nmax > src.hmax or nmax > tgt.hmax:
        raise ExtError(f"lift needs source step {step + nmax} and target "
                       f"step {nmax}; the resolutions reach {src.hmax} and "
                       f"{tgt.hmax}")
    s = src.gen_degrees(step)[idx]
    dcap = min(src.dmax, tgt.dmax + s)
    first = AlgMatrix(A, src.frees[step], tgt.frees[0], {(0, idx): A.unit()},
                      shift=s)
    lifts = [{d: first.evaluate(d) for d in range(dcap + 1)}]
    return lifts + _lift_stages(src, tgt, lifts[0], range(1, nmax + 1), step, s)


def _generator_coefficients(stage: dict[int, np.ndarray], src: FreeModule,
                            tgt: FreeModule, shift: int = 0) -> np.ndarray:
    """Read one chain-map stage off on generators: entry (a, c) is the
    coefficient of 1 * tgt generator a in the image of src generator c,
    zero unless deg a = deg c - shift."""
    out = np.zeros((tgt.rank, src.rank), dtype=np.int64)
    for c, dc in enumerate(src.gen_degrees):
        if dc not in stage:
            raise ExtError("lift window too small for product read-off")
        vec = stage[dc][:, src.gen_index(dc, c)]
        off = tgt.offsets(dc - shift)
        for a, da in enumerate(tgt.gen_degrees):
            if da == dc - shift:
                out[a, c] = vec[off[a]]
    return out


def _dual_tensor(E: FreeResolution, P: FreeResolution, lifts: dict, m: int,
                 n: int) -> np.ndarray:
    """Tensor (rank E_m, rank P_n, rank P_{m+n}) of step-m dual classes
    over E acting on step-n dual classes over P: slice b is the stage-m
    lift of b's dual read off on generators."""
    arr = np.zeros((E.rank(m), P.rank(n), P.rank(m + n)), dtype=np.int64)
    for b, sb in enumerate(P.gen_degrees(n)):
        arr[:, b] = _generator_coefficients(lifts[(n, b)][m], P.frees[m + n],
                                            E.frees[m], sb)
    return arr % E.algebra.p


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
    lifts = {(j, b): lift_dual(res, E, j, b, imax - j)
             for j in range(first, imax + 1) for b in range(res.rank(j))}
    return {(m, n): _dual_tensor(E, res, lifts, m, n)
            for m in range(1, imax + 1) for n in range(first, imax + 1 - m)}


# -- Ext algebras and Ext modules -------------------------------------------


class ExtAlgebra(GradedAlgebra):
    """Yoneda algebra on the dual basis of a minimal resolution of the
    residue field; the algebra grading is cohomological and ``internal``
    records each class's internal degree."""

    def __init__(self, p, cap, basis, mult, generators, base, resolution,
                 internal):
        super().__init__(p, cap, basis, mult, generators)
        self.base = base
        self.resolution = resolution
        self.internal = internal  # internal[i][a]: internal degree of basis a

    def bigraded_dims(self) -> dict[tuple[int, int], int]:
        """Class counts per (cohomological, internal) degree."""
        out: dict[tuple[int, int], int] = {}
        for i, degs in enumerate(self.internal):
            for d in degs:
                out[(i, d)] = out.get((i, d), 0) + 1
        return out


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
    internal = [[0]] + [res.gen_degrees(i) for i in range(1, imax + 1)]
    return ExtAlgebra(algebra.p, imax, basis, mult, generators, algebra, res,
                      internal)


class ExtModule(GradedModule):
    """Ext(M, k) as a left module over the Yoneda algebra, on the dual
    basis of a minimal resolution of M."""

    def __init__(self, ext, basis, action, base_module, resolution, internal):
        super().__init__(ext, basis, action)
        self.ext = ext
        self.base_module = base_module
        self.resolution = resolution
        self.internal = internal

    bigraded_dims = ExtAlgebra.bigraded_dims


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
    internal = [res.gen_degrees(i) for i in range(imax + 1)]
    return ExtModule(ext, basis, action, res.module, res, internal)


# -- restriction along a fiber-product projection ----------------------------


def _coefficient_projection(R: FiberProductAlgebra, free_R: FreeModule,
                            twin: FreeModule, d: int, side: str) -> np.ndarray:
    """Project degree-d coordinates of a free module over the fiber
    product onto the twin free module over one factor, generator by
    generator, keeping that factor's block of each coefficient."""
    fac_alg = twin.algebra
    sl_fn = R.s_slice if side == "S" else R.t_slice
    mat = np.zeros((twin.dim(d), free_R.dim(d)), dtype=np.int64)
    roff, foff = free_R.offsets(d), twin.offsets(d)
    for j, s in enumerate(free_R.gen_degrees):
        da = d - s
        if da < 0:
            continue
        if da == 0:
            mat[foff[j], roff[j]] = 1
            continue
        nfac = fac_alg.dim(da)
        if nfac == 0:
            continue
        sl = sl_fn(da)
        mat[foff[j]: foff[j] + nfac,
            roff[j] + sl.start: roff[j] + sl.stop] = np.eye(nfac, dtype=np.int64)
    return mat


def restriction_chain_map(R_res: FreeResolution, fac_res: FreeResolution,
                          R: FiberProductAlgebra, side: str,
                          ) -> list[dict[int, np.ndarray]]:
    """Chain map from a resolution over the fiber product to one over a
    factor, equivariant for the projection onto that factor and lifting
    the identity on step-0 generators (which must match in degree).

    Stage 0 is the coefficient projection; later stages come from
    ``_lift_stages``, which extends generator images equivariantly: a
    coefficient r on a generator goes to its factor block acting on the
    image.
    """
    assert side in ("S", "T")
    fac_alg = R.s_algebra if side == "S" else R.t_algebra
    assert R_res.algebra is R and fac_res.algebra is fac_alg
    if R_res.gen_degrees(0) != fac_res.gen_degrees(0):
        raise ExtError("step-0 generators do not align")
    f0 = R_res.frees[0]
    twin = FreeModule(fac_alg, f0.gen_degrees, f0.gen_labels)
    first = {d: _coefficient_projection(R, f0, twin, d, side)
             for d in range(min(R_res.dmax, fac_res.dmax) + 1)}
    nmax = min(R_res.hmax, fac_res.hmax)
    return [first] + _lift_stages(R_res, fac_res, first, range(1, nmax + 1),
                                  side=side)


def induced_ext_matrix(chain: list[dict[int, np.ndarray]],
                       fac_res: FreeResolution, R_res: FreeResolution,
                       n: int) -> np.ndarray:
    """Matrix of the induced map on step-n dual classes: row a holds the
    coordinates, over the duals of R_res's generators, of the pullback
    of the a-th dual generator of fac_res along the chain map."""
    return _generator_coefficients(chain[n], R_res.frees[n], fac_res.frees[n])


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
    factor when they share one; a single merge keeps words alternating."""
    x, y = u[-1], v[0]
    if x[0] != y[0]:
        return [(u + v, 1)]
    alg = a if x[0] == 0 else b
    prod = alg.multiply(alg.basis_element(x[1], x[2]),
                        alg.basis_element(y[1], y[2]))
    out = []
    for k in np.flatnonzero(prod.vec):
        merged = u[:-1] + ((x[0], x[1] + y[1], int(k)),) + v[1:]
        out.append((merged, int(prod.vec[k])))
    return out


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
                arr = np.zeros((len(words[m]), len(words[n]),
                                len(words[m + n])), dtype=np.int64)
                for i, u in enumerate(words[m]):
                    for j, v in enumerate(words[n]):
                        for w, coeff in _fp_product(a, b, u, v):
                            arr[i, j, self._index[m + n][w]] += coeff
                mult[(m, n)] = arr % a.p
        generators = {}
        for d in range(1, cap + 1):
            for i, w in enumerate(words[d]):
                if len(w) == 1:
                    generators[basis[d][i]] = (d, i)
        super().__init__(a.p, cap, basis, mult, generators)

    def word_index(self, degree: int, word: tuple) -> int:
        return self._index[degree][word]


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

    def __init__(self, fp, factor_module, words, basis, action):
        super().__init__(fp, basis, action)
        self.factor_module = factor_module
        self.words = words


def free_product_module(fp: FreeProductAlgebra,
                        module: GradedModule) -> FreeProductModule:
    a, b = fp.factor_a, fp.factor_b
    if module.algebra is not a:
        raise ExtError("module must be over the free product's first factor")
    cap = fp.cap
    seeds = [(dm, (dm, mi)) for dm in range(cap + 1)
             for mi in range(module.dim(dm))]
    buckets = [sorted(ws, key=lambda w: (len(w[0]), w[0], w[1])) for ws in
               alternating_words(seeds, _fp_letters(a, b, cap), cap, first=1)]
    index = [{w: i for i, w in enumerate(ws)} for ws in buckets]

    def label(w):
        ls, (dm, mi) = w
        head = ".".join(_fp_letter_label(a, b, x) for x in ls)
        tail = module.labels(dm)[mi]
        return f"{head}.{tail}" if head else tail

    basis = [[label(w) for w in ws] for ws in buckets]
    action = {}
    for m in range(1, cap + 1):
        for n in range(cap + 1 - m):
            arr = np.zeros((fp.dim(m), len(buckets[n]), len(buckets[m + n])),
                           dtype=np.int64)
            for i, u in enumerate(fp.words[m]):
                x = u[-1]
                for j, (ls, mpair) in enumerate(buckets[n]):
                    if ls:
                        for w, coeff in _fp_product(a, b, u, ls):
                            arr[i, j, index[m + n][(w, mpair)]] += coeff
                    elif x[0] == 1:
                        arr[i, j, index[m + n][(u, mpair)]] += 1
                    else:
                        dm, mi = mpair
                        row = module.act_matrix(
                            a.basis_element(x[1], x[2]), dm)[mi]
                        for k in np.flatnonzero(row):
                            w = (u[:-1], (dm + x[1], int(k)))
                            arr[i, j, index[m + n][w]] += int(row[k])
            action[(m, n)] = arr % fp.p
    return FreeProductModule(fp, module, buckets, basis, action)


# -- comparison with the cohomology of a fiber product -----------------------


class _PhiData:
    pass


def _phi_setup(R: FiberProductAlgebra, hmax: int, dmax: int) -> _PhiData:
    """Shared scaffolding: factor resolutions, the word resolution of
    the residue field, Ext algebras on both sides, the restriction
    chain maps, and the candidate isomorphism on basis words."""
    d = _PhiData()
    d.S, d.T = R.s_algebra, R.t_algebra
    d.E = minimal_resolution(d.S, residue_module(d.S), hmax, dmax,
                             gen_label="e")
    d.F = minimal_resolution(d.T, residue_module(d.T), hmax, dmax,
                             gen_label="f")
    d.P = minimal_resolution(d.S, residue_module(d.S), hmax, dmax,
                             gen_label="p")
    d.G = assemble_word_complex(R, d.E, d.F, d.P, hmax, dmax)
    d.gidx = [{w: i for i, w in enumerate(ws)} for ws in d.G.words]
    d.S_ext = ext_algebra(d.S, hmax, dmax, resolution=d.E)
    d.T_ext = ext_algebra(d.T, hmax, dmax, resolution=d.F)
    d.R_ext = ext_algebra(R, hmax, dmax, resolution=d.G)
    sigma = restriction_chain_map(d.G, d.E, R, "S")
    tau = restriction_chain_map(d.G, d.F, R, "T")
    d.sig_mats = [induced_ext_matrix(sigma, d.E, d.G, n)
                  for n in range(hmax + 1)]
    d.tau_mats = [induced_ext_matrix(tau, d.F, d.G, n)
                  for n in range(hmax + 1)]
    d.FP = free_product(d.S_ext, d.T_ext, hmax)
    d.phis = {}
    for n in range(1, hmax + 1):
        rows = []
        for w in d.FP.words[n]:
            el = d.R_ext.unit()
            for (t, deg, i) in w:
                mats = d.sig_mats if t == 0 else d.tau_mats
                el = el * Element(d.R_ext, deg, mats[deg][i])
            rows.append(el.vec)
        d.phis[n] = np.array(rows, dtype=np.int64).reshape(
            len(d.FP.words[n]), d.R_ext.dim(n))
    return d


def _dual_image_failures(mats: list, gidx: list, steps: range,
                         word) -> list[tuple[int, int]]:
    """(n, a) where row a of the step-n induced matrix is not the dual
    of the basis word ``word(n, a)``."""
    bad = []
    for n in steps:
        for a, row in enumerate(mats[n]):
            exp = np.zeros(len(row), dtype=np.int64)
            exp[gidx[n][word(n, a)]] = 1
            if not np.array_equal(row, exp):
                bad.append((n, a))
    return bad


def _concatenation_failures(d: _PhiData, tensors: dict, G, gidx: list,
                            tmax: int) -> list[tuple]:
    """Letter duals that do not act by concatenation on the duals of
    G's basis words, for each tensor (j, n) of total degree <= tmax: the
    dual of an F letter is tested on words led by E or P, the dual of an
    E letter (its P letter in the word resolution of k) on the rest.
    Failures are (letter tag, j, letter index, n, word index)."""
    p0 = Letter("P", 0, 0, d.P.gen_degrees(0)[0])
    bad = []
    for j, n in sorted(key for key in tensors if sum(key) <= tmax):
        tensor = tensors[(j, n)]
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
                exp = np.zeros(G.rank(j + n), dtype=np.int64)
                exp[gidx[j + n][(x,) + w]] = 1
                if not np.array_equal(tensor[xi, wi], exp):
                    bad.append(("f" if f_lead else "e", j, a, n, wi))
    return bad


def verify_phi_iso(R: FiberProductAlgebra, hmax: int, dmax: int | None = None,
                   products_to: int = 4) -> ComplexReport:
    """Check that cohomology of the fiber product is the free product of
    the factors' cohomology algebras: dimension counts against a direct
    resolution, the closed-form series, and a tensor-product control;
    generator images under the two restriction maps; concatenation
    products of letter duals; and bijectivity plus multiplicativity of
    the induced map on basis words."""
    if dmax is None:
        dmax = R.cap
    d = _phi_setup(R, hmax, dmax)
    p = R.p
    rep = ComplexReport()

    direct = minimal_resolution(R, residue_module(R), hmax, dmax)
    dims_fp = [d.FP.dim(n) for n in range(hmax + 1)]
    dims_direct = [direct.rank(n) for n in range(hmax + 1)]
    dims_word = [d.G.rank(n) for n in range(hmax + 1)]
    closed = coproduct_module_series(d.S_ext.hilbert_series(),
                                     d.T_ext.hilbert_series(),
                                     d.S_ext.hilbert_series()).coeffs
    tensor_dims = [int(sum(d.S_ext.dim(i) * d.T_ext.dim(n - i)
                           for i in range(n + 1))) for n in range(hmax + 1)]
    rep.data["dims"] = {
        "free_product": dims_fp,
        "direct": dims_direct,
        "word": dims_word,
        "series": closed,
        "tensor_control": tensor_dims,
    }
    rep.add("free product dims = Ext dims (direct resolution)",
            dims_fp == dims_direct, f"{dims_fp} vs {dims_direct}")
    rep.add("free product dims = word resolution ranks",
            dims_fp == dims_word, f"{dims_fp} vs {dims_word}")
    rep.add("dims match coproduct series",
            dims_fp == closed, f"{dims_fp} vs {closed}")
    mism = [n for n in range(hmax + 1) if tensor_dims[n] != dims_direct[n]]
    rep.add("tensor-product control disagrees somewhere",
            bool(mism),
            (f"first mismatch at n={mism[0]}: tensor {tensor_dims[mism[0]]}"
             f" vs {dims_direct[mism[0]]}") if mism
            else "tensor dims agree through the window")

    bad_sig = _dual_image_failures(
        d.sig_mats, d.gidx, range(1, hmax + 1),
        lambda n, a: (Letter("P", n, a, d.E.gen_degrees(n)[a]),))
    rep.add("restriction to the first factor fixes dual generators",
            not bad_sig, f"failures {bad_sig[:5]}" if bad_sig else "")
    p0 = Letter("P", 0, 0, d.P.gen_degrees(0)[0])
    bad_tau = _dual_image_failures(
        d.tau_mats, d.gidx, range(1, hmax + 1),
        lambda n, b: (Letter("F", n, b, d.F.gen_degrees(n)[b]), p0))
    rep.add("restriction to the second factor fixes dual generators",
            not bad_tau, f"failures {bad_tau[:5]}" if bad_tau else "")

    tmax = min(products_to, hmax)
    bad = _concatenation_failures(d, d.R_ext.mult, d.G, d.gidx, tmax)
    rep.add(f"letter duals multiply by concatenation (total degree <= {tmax})",
            not bad, f"failures {bad[:5]}" if bad else "")

    ranks = [int(linalg.rank(d.phis[n], p)) for n in range(1, hmax + 1)]
    full = all(ranks[n - 1] == d.G.rank(n) == d.FP.dim(n)
               for n in range(1, hmax + 1))
    rep.add("induced map bijective per degree", full, f"ranks {ranks}")

    bad_mult = []
    for m in range(1, tmax):
        for n in range(1, tmax + 1 - m):
            lhs = np.einsum("ijc,ck->ijk", d.FP.mult[(m, n)],
                            d.phis[m + n]) % p
            rhs = np.einsum("ia,jb,abk->ijk", d.phis[m], d.phis[n],
                            d.R_ext.mult[(m, n)]) % p
            if not np.array_equal(lhs, rhs):
                bad_mult.append((m, n))
    rep.add(f"induced map multiplicative (total degree <= {tmax})",
            not bad_mult, f"failures {bad_mult}" if bad_mult else "")
    return rep


def verify_theta_iso(R: FiberProductAlgebra, module: GradedModule, hmax: int,
                     dmax: int | None = None,
                     products_to: int = 4) -> ComplexReport:
    """Check that for a module over the first factor, cohomology over
    the fiber product is the module induced from its factor cohomology
    along the free product: dimension counts, the closed-form series,
    generator images, concatenation action of letter duals, and
    bijectivity plus equivariance of the induced map."""
    if dmax is None:
        dmax = R.cap
    if module.algebra is not R.s_algebra:
        raise ExtError("verify_theta_iso needs a module over the first factor")
    d = _phi_setup(R, hmax, dmax)
    p = R.p
    rep = ComplexReport()

    PM = minimal_resolution(d.S, module, hmax, dmax, gen_label="m")
    GM = assemble_word_complex(R, d.E, d.F, PM, hmax, dmax)
    gidx = [{w: i for i, w in enumerate(ws)} for ws in GM.words]
    direct = minimal_resolution(R, restrict_to_fiber(R, module, "S"),
                                hmax, dmax)
    M_ext = ext_module(d.S, module, hmax, dmax, ext=d.S_ext, resolution=PM)
    FPM = free_product_module(d.FP, M_ext)

    dims_fpm = [FPM.dim(n) for n in range(hmax + 1)]
    dims_direct = [direct.rank(n) for n in range(hmax + 1)]
    dims_word = [GM.rank(n) for n in range(hmax + 1)]
    closed = coproduct_module_series(d.S_ext.hilbert_series(),
                                     d.T_ext.hilbert_series(),
                                     M_ext.hilbert_series()).coeffs
    rep.data["dims"] = {
        "induced_module": dims_fpm,
        "direct": dims_direct,
        "word": dims_word,
        "series": closed,
    }
    rep.add("induced module dims = Ext dims (direct resolution)",
            dims_fpm == dims_direct, f"{dims_fpm} vs {dims_direct}")
    rep.add("induced module dims = word resolution ranks",
            dims_fpm == dims_word, f"{dims_fpm} vs {dims_word}")
    rep.add("dims match coproduct module series",
            dims_fpm == closed, f"{dims_fpm} vs {closed}")

    cM = restriction_chain_map(GM, PM, R, "S")
    mats_m = [induced_ext_matrix(cM, PM, GM, n) for n in range(hmax + 1)]
    bad_res = _dual_image_failures(
        mats_m, gidx, range(hmax + 1),
        lambda n, b: (Letter("P", n, b, PM.gen_degrees(n)[b]),))
    rep.add("restriction to the first factor fixes module dual generators",
            not bad_res, f"failures {bad_res[:5]}" if bad_res else "")

    MR_ext = ext_module(R, None, hmax, dmax, ext=d.R_ext, resolution=GM)
    tmax = min(products_to, hmax)
    bad = _concatenation_failures(d, MR_ext.action, GM, gidx, tmax)
    rep.add(f"letter duals act by concatenation (total degree <= {tmax})",
            not bad, f"failures {bad[:5]}" if bad else "")

    thetas = {}
    for n in range(hmax + 1):
        rows = []
        for ls, (dm, mi) in FPM.words[n]:
            deg, vec = dm, mats_m[dm][mi]
            for (t, ldeg, i) in reversed(ls):
                mats = d.sig_mats if t == 0 else d.tau_mats
                el = Element(d.R_ext, ldeg, mats[ldeg][i])
                deg, vec = MR_ext.act(el, deg, vec)
            rows.append(vec)
        thetas[n] = np.array(rows, dtype=np.int64).reshape(
            len(FPM.words[n]), GM.rank(n))
    ranks = [int(linalg.rank(thetas[n], p)) for n in range(hmax + 1)]
    full = all(ranks[n] == GM.rank(n) == FPM.dim(n) for n in range(hmax + 1))
    rep.add("induced map bijective per degree", full, f"ranks {ranks}")

    bad_act = []
    for m in range(1, tmax + 1):
        for n in range(tmax + 1 - m):
            lhs = np.einsum("ijc,ck->ijk", FPM.action[(m, n)],
                            thetas[m + n]) % p
            rhs = np.einsum("ia,jb,abk->ijk", d.phis[m], thetas[n],
                            MR_ext.action[(m, n)]) % p
            if not np.array_equal(lhs, rhs):
                bad_act.append((m, n))
    rep.add(f"induced map equivariant (total degree <= {tmax})",
            not bad_act, f"failures {bad_act}" if bad_act else "")
    return rep


# -- Koszul diagonal test ----------------------------------------------------


def koszul_check(algebra: GradedAlgebra, hmax: int, dmax: int | None = None,
                 resolution: FreeResolution | None = None,
                 ) -> tuple[bool, list[tuple[int, int]]]:
    """Whether every Ext class in the window sits on the diagonal
    (internal degree equal to homological degree); offenders are the
    off-diagonal (step, degree) pairs."""
    return koszul_module_check(algebra, residue_module(algebra), hmax, dmax,
                               resolution)


def koszul_module_check(algebra: GradedAlgebra, module: GradedModule,
                        hmax: int, dmax: int | None = None,
                        resolution: FreeResolution | None = None,
                        ) -> tuple[bool, list[tuple[int, int]]]:
    """Diagonal test for a module generated in degree 0: every syzygy
    generator in the window must have internal degree equal to its
    homological degree."""
    res = resolution
    if res is None:
        res = minimal_resolution(algebra, module, hmax, dmax)
    offenders = sorted({(i, dv) for i in range(min(hmax, res.hmax) + 1)
                        for dv in res.gen_degrees(i) if dv != i})
    return not offenders, offenders
