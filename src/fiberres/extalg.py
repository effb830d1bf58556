"""Cohomology algebras of connected graded algebras and their behaviour
under fiber products.

Every chain map here is lifted by one numeric stage loop,
``_lift_stages``: stage by stage it solves for the images of the source
generators, one multi-column solve per internal degree, turns them into
sparse generator terms (``gmodule.generator_terms``) and extends them
module-linearly with ``gmodule.extend``, which also evaluates the
resolutions' differentials.  The entry points differ only in stage 0
(terms written down directly) and the shift: ``lift_dual`` (the dual of
a generator, for Yoneda products; the duals of one step and degree go
as one batch stacked by rows),
``restriction_chain_map`` (the coefficient projection onto a factor of
a fiber product) and ``cohomology.comparison_chain_map`` (a module
map).  ``_generator_coefficients`` reads a stage off on generators.

``ext_algebra`` tabulates the Yoneda algebra Ext(k, k) on the dual basis
of a minimal free resolution of the residue field; ``ext_module`` does
the same for Ext(M, k) as a left module.  ``free_product`` builds the
coproduct of two such algebras on the alternating-word basis.  For a
fiber product R and a module M over its first factor, Ext_R(M, k) is
the module induced from Ext_S(M, k) along that coproduct; one check
body, ``_verify_induced``, tests this degree by degree and product by
product, on an induced map that one loop, ``_word_images``, builds by
letting a word's letters act on its module element's image.
``verify_theta_iso`` runs it for M; ``verify_phi_iso`` is its M = k
case, where the induced module is the free product itself, plus a
tensor-product control and the second factor's restriction.
``koszul_check`` reads the diagonal condition off generator degrees.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebra import Element, FiberProductAlgebra, GradedAlgebra
from .gmodule import (FreeModule, GradedModule, extend, generator_terms, residue_module,
                      restrict_to_fiber)
from .resolve import ComplexReport, FreeResolution, WindowError, minimal_resolution, shared
from .series import coproduct_module_series
from .wordres import Letter, alternating_words, assemble_word_complex


class ExtError(RuntimeError):
    pass


# -- chain-map lifting ------------------------------------------------------


def _lift_stages(src: FreeResolution, tgt: FreeResolution,
                 prev: dict[int, np.ndarray], stages: range, step: int = 0,
                 shift: int = 0, side: str | None = None, batch: int = 1,
                 ) -> list[dict[int, np.ndarray]]:
    """The one chain-map lifter: numeric maps of each stage n in
    ``stages``, sending degree-d coordinates of src[step + n] to
    degree-(d - shift) coordinates of tgt[n], for ``batch`` chain maps
    stacked by rows.

    ``prev`` is the stacked map one stage down (the module map, rows =
    target coordinates, when the first stage is 0); a degree it lacks
    acts as zero.  Stage n solves for the images of the source
    generators against tgt's stage-n differential (the two covers at
    stage 0), one solve per degree in increasing order with a column per
    generator and map, and ``extend`` extends them module-linearly.
    With ``side``, src lives over a fiber product and tgt over that factor.
    """
    p = tgt.algebra.p
    dcap = min(src.dmax, tgt.dmax + shift)
    maps = []
    for n in stages:
        fsrc = src.frees[step + n]
        images = []
        for sj, gens in fsrc.by_degree.items():
            if sj > dcap:
                raise ExtError(f"lift window too small for a degree-{sj} generator")
            if sj not in prev:
                continue
            rhs = linalg.matmul_mod(
                prev[sj], src.boundary(step + n, sj)[:, fsrc.block_indices(sj, gens)], p)
            rhs = rhs.reshape(batch, -1, len(gens)).transpose(1, 0, 2)
            sol = linalg.solve(tgt.boundary(n, sj - shift),
                               rhs.reshape(-1, batch * len(gens)), p)
            if sol is None:
                raise ExtError(f"chain-map lift failed at stage {n}, degree {sj}")
            images.append((sj, gens, sol))
        terms = generator_terms(tgt.frees[n], images, shift, batch)
        prev = extend(tgt.frees[n], fsrc, terms, range(dcap + 1), shift, batch, side)
        maps.append(prev)
    return maps


def lift_dual(src: FreeResolution, tgt: FreeResolution, step: int,
              idx: int | list[int], nmax: int) -> list:
    """Chain map lifting the dual of generator ``idx`` at ``step`` of
    ``src`` through ``tgt``, a minimal resolution of the residue field
    over the same algebra.

    Returns per-stage numeric matrices L[n][d] sending degree-d
    coordinates of src[step + n] to degree-(d - s) coordinates of
    tgt[n], where s is the generator's internal degree.  Stage 0 sends
    the generator to tgt's and the others to zero; later stages come
    from ``_lift_stages`` with shift s.  A list ``idx`` of generators of
    one internal degree is lifted as one batch: the result lists their
    lifts, each a row slice of the stacked one.
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
    first = extend(tgt.frees[0], src.frees[step], dual,
                   range(min(src.dmax, tgt.dmax + s) + 1), s, nb)
    stacked = [first] + _lift_stages(src, tgt, first, range(1, nmax + 1), step, s,
                                     batch=nb)
    lifts = [[{d: m[b * m.shape[0] // nb: (b + 1) * m.shape[0] // nb]
               for d, m in stage.items()} for stage in stacked] for b in range(nb)]
    return lifts if np.ndim(idx) else lifts[0]


def _generator_coefficients(stage: dict[int, np.ndarray], src: FreeModule,
                            tgt: FreeModule, shift: int = 0) -> np.ndarray:
    """Read one chain-map stage off on generators: entry (a, c) is the
    coefficient of 1 * tgt generator a in the image of src generator c,
    zero unless deg a = deg c - shift."""
    out = np.zeros((tgt.rank, src.rank), dtype=np.int64)
    for dc, cs in src.by_degree.items():
        if dc not in stage:
            raise ExtError("lift window too small for product read-off")
        a = tgt.by_degree.get(dc - shift)
        if a is not None:
            out[np.ix_(a, cs)] = stage[dc][np.ix_(tgt.block_indices(dc - shift, a),
                                                  src.block_indices(dc, cs))]
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
    lifts = {}
    for j in range(first, imax + 1):
        for batch in res.frees[j].by_degree.values():
            lifts.update(zip(((j, b) for b in batch),
                             lift_dual(res, E, j, list(batch), imax - j)))
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


def restriction_chain_map(R_res: FreeResolution, fac_res: FreeResolution,
                          R: FiberProductAlgebra, side: str,
                          ) -> list[dict[int, np.ndarray]]:
    """Chain map from a resolution over the fiber product to one over a
    factor, equivariant for the projection onto that factor and lifting
    the identity on step-0 generators (which must match in degree).

    Stage 0 is the coefficient projection: ``extend`` of the identity
    on generators.  Later stages come from ``_lift_stages``.  Both extend
    generator images equivariantly: a coefficient r on a generator goes
    to its factor block acting on the image.
    """
    if side not in ("S", "T"):
        raise ExtError(f"side must be 'S' or 'T', not {side!r}")
    fac_alg = R.s_algebra if side == "S" else R.t_algebra
    if R_res.algebra is not R or fac_res.algebra is not fac_alg:
        raise ExtError(f"restriction needs resolutions over the fiber product "
                       f"and its {side} factor")
    if R_res.gen_degrees(0) != fac_res.gen_degrees(0):
        raise ExtError("step-0 generators do not align")
    f0, t0 = R_res.frees[0], fac_res.frees[0]
    identity = {(s, 0): (gens, gens, np.zeros(len(gens), dtype=np.int64),
                         np.ones((len(gens), 1), dtype=np.int64))
                for s, gens in f0.by_degree.items()}
    first = extend(t0, f0, identity, range(min(R_res.dmax, fac_res.dmax) + 1), side=side)
    nmax = min(R_res.hmax, fac_res.hmax)
    return [first] + _lift_stages(R_res, fac_res, first, range(1, nmax + 1),
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
    unit = d.R_ext.unit().vec
    d.phis = {n: _word_images(
        d, [(w, 0, unit) for w in d.FP.words[n]],
        lambda a, m, v: (m + a.degree, (a * Element(d.R_ext, m, v)).vec), d.R_ext.dim(n))
        for n in range(1, hmax + 1)}
    return d


def _word_images(d: _PhiData, words: list, act, dim: int) -> np.ndarray:
    """The induced map on basis words, one row per (letters, degree,
    image of the module element): the letters' restriction images act
    on that image through ``act`` (as ``GradedModule.act``), rightmost
    letter first."""
    rows = []
    for ls, deg, vec in words:
        for t, ldeg, i in reversed(ls):
            mats = d.sig_mats if t == 0 else d.tau_mats
            deg, vec = act(Element(d.R_ext, ldeg, mats[ldeg][i]), deg, vec)
        rows.append(vec)
    return np.array(rows, dtype=np.int64).reshape(len(words), dim)


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
                if not _is_dual(tensor[xi, wi], gidx[j + n][(x,) + w]):
                    bad.append(("f" if f_lead else "e", j, a, n, wi))
    return bad


def _is_dual(row: np.ndarray, i: int) -> bool:
    """Whether ``row`` is the dual of basis element i."""
    return np.count_nonzero(row) == 1 and row[i] == 1


def _products_degree(products_to: int, hmax: int, first: int) -> int:
    """min(products_to, hmax), the top total degree of the product
    checks; below first + 1 they would test nothing: ``WindowError``."""
    tmax = min(products_to, hmax)
    if tmax < first + 1:
        raise WindowError(f"window {hmax} with products-to {products_to} tests no product;"
                          f" the smallest valid products-to and window are {first + 1}")
    return tmax


def _image_products(left, right, tensor, p: int) -> np.ndarray:
    """``einsum("ia,jb,abk->ijk", left, right, tensor)`` mod p, one
    operand at a time, reduced in between: a three-operand sum has terms
    up to (p - 1)^3, so past 2^63 / (p - 1)^3 terms (32,792 at p =
    65521) it would wrap int64."""
    half = np.einsum("jb,abk->ajk", right, tensor) % p
    return np.einsum("ia,ajk->ijk", left, half) % p


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
        bad = [(n, a) for n in range(first, hmax + 1) for a, row in enumerate(mats[n])
               if not _is_dual(row, gidx[n][word(n, a)])]
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
            lhs = np.einsum("ijc,ck->ijk", induced_tensors[(m, n)], images[m + n]) % p
            rhs = _image_products(d.phis[m], images[n], tensors[(m, n)], p)
            if not np.array_equal(lhs, rhs):
                if not bad:
                    i, j, k = np.argwhere(lhs != rhs)[0]
                    detail = (f"; first at (m, n) = ({m}, {n}): {d.FP.labels(m)[i]} * "
                              f"{induced.labels(n)[j]} at {G.frees[m + n].gen_labels[k]}': "
                              f"{lhs[i, j, k]} vs {rhs[i, j, k]}")
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
    if dmax is None:
        dmax = R.cap
    d = _phi_setup(R, hmax, dmax)
    tensor_dims = [int(sum(d.S_ext.dim(i) * d.T_ext.dim(n - i)
                           for i in range(n + 1))) for n in range(hmax + 1)]
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
    if dmax is None:
        dmax = R.cap
    d = _phi_setup(R, hmax, dmax)
    PM = minimal_resolution(d.S, module, hmax, dmax)
    GM = assemble_word_complex(R, d.E, d.F, PM, hmax, dmax)
    M_ext = ext_module(d.S, module, hmax, dmax, ext=d.S_ext, resolution=PM)
    FPM = free_product_module(d.FP, M_ext)
    MR_ext = ext_module(R, None, hmax, dmax, ext=d.R_ext, resolution=GM)
    cM = restriction_chain_map(GM, PM, R, "S")
    mats_m = [_generator_coefficients(cM[n], GM.frees[n], PM.frees[n])
              for n in range(hmax + 1)]
    thetas = {n: _word_images(d, [(ls, dm, mats_m[dm][mi])
                                  for ls, (dm, mi) in FPM.words[n]],
                              MR_ext.act, GM.rank(n))
              for n in range(hmax + 1)}
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
