"""Cohomology structure over a fiber product: syzygy splitting, the
induced exact sequences on Ext, and depth certificates.

``syzygy_split`` decomposes the second syzygy of a module over a fiber
product into a piece supported on each factor's coefficients, one
annihilated by the other factor.  ``verify_ext_sequence_L`` checks the
dimension bookkeeping this forces on Ext of an arbitrary module, and
``verify_fiber_module_ext_sequence`` checks the short exact sequence
induced on Ext by a pullback of modules along maps to a trivial module;
its maps mu*/nu* are read off on generators from the terms that
``comparison_chain_map``, the stage-0 entry point of the chain-map
lifter in ``extalg``, keeps for each stage.

``combined_residue_resolution`` resolves the residue field over a free
product by joining minimal resolutions over the two factors.  On top of
it, ``depth_certificate`` builds explicit nonvanishing degree-1 classes
against the induced module of a factor module (in the free-product
model of the fiber product's cohomology), and ``depth_upper_bound``
does the same for Ext of an arbitrary module.

Grading convention on Hom complexes: a homogeneous map has internal
degree ``nu`` when it sends degree-n elements to degree-(n - nu)
elements, so classes built from positive-degree module elements sit in
negative internal degrees.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import linalg
from .algebra import Element, FiberProductAlgebra, GradedAlgebra, left_product
from .extalg import (ExtError, FreeProductAlgebra, _generator_coefficients,
                     _lift_stages, _phi_setup, ext_algebra, ext_module,
                     free_product, free_product_module)
from .gmodule import (AlgMatrix, FreeModule, GradedModule,
                      fiber_product_module, residue_module,
                      restrict_to_fiber, submodule_as_gmodule,
                      trivial_module)
from .resolve import (ComplexReport, FreeResolution, WindowError,
                      minimal_resolution, verify_complex, window)
from .series import coproduct_module_series, fiber_module_poincare_check


# -- syzygy splitting --------------------------------------------------------


def _factor_masks(R: FiberProductAlgebra, free: FreeModule, d: int):
    """Boolean masks over degree-d coordinates of a free module over a
    fiber product: positions whose coefficient lies in the first
    factor's positive part, resp. the second's.  Unit coordinates of
    degree-d generators belong to neither."""
    masks = {side: np.zeros(free.dim(d), dtype=bool) for side in "ST"}
    for s, gens in free.by_degree.items():
        if d - s >= 1:
            for side, mask in masks.items():
                mask[free.block_indices(d, gens, R.factor(side).dim(d - s),
                                        R.part(side, d - s).start)] = True
    return masks["S"], masks["T"]


def _supported_rows(K: linalg.Matrix, keep: np.ndarray, p: int) -> linalg.Matrix:
    """Echelon basis of the subspace of K's row space supported on the
    kept coordinates."""
    drop = np.flatnonzero(~keep)
    if K.shape[0] and drop.size:
        K = linalg.matmul(linalg.kernel(K.columns(drop).T, p), K, p)
    return linalg.echelon(K, p)[0]


class SyzygySplit:
    """Second syzygy of a module over a fiber product, split into the
    part with first-factor coefficients and the part with second-factor
    coefficients.

    ``m_module`` is the first component as a module over the first
    factor, ``n_module`` the second over the second factor; ``report``
    carries the verification."""

    def __init__(self, m_module, n_module, report):
        self.m_module = m_module
        self.n_module = n_module
        self.report = report

    @property
    def ok(self) -> bool:
        return self.report.ok

    def dims(self) -> list[tuple[int, int, int]]:
        return self.report.data["dims"]


def syzygy_split(R: FiberProductAlgebra, L: GradedModule) -> SyzygySplit:
    """Split the kernel of a minimal presentation of L over a fiber
    product into the rows supported on first-factor coefficients and
    those on second-factor coefficients, and verify that the two pieces
    exhaust the kernel degreewise and are annihilated by the opposite
    factor.

    The kernel is tabulated through the ring's full degree window so the
    components close under the factor actions."""
    if not isinstance(R, FiberProductAlgebra) or L.algebra is not R:
        raise ExtError("syzygy_split needs a fiber product ring and a "
                       "module over that ring")
    p = R.p
    res = minimal_resolution(R, L, 1)
    dmax, F1 = res.dmax, res.frees[1]
    rep = ComplexReport()

    m_bases: dict[int, linalg.Matrix] = {}
    n_bases: dict[int, linalg.Matrix] = {}
    unit_bad, split_bad, dims = [], [], []
    for d in range(dmax + 1):
        K = linalg.kernel(res.evaluated(1, d), p)
        pmask, qmask = _factor_masks(R, F1, d)
        if K.columns(np.flatnonzero(~(pmask | qmask))).nnz:
            unit_bad.append(d)
        M = _supported_rows(K, pmask, p)
        N = _supported_rows(K, qmask, p)
        m_bases[d], n_bases[d] = M, N
        if M.shape[0] + N.shape[0] != K.shape[0]:
            split_bad.append(d)
        dims.append((K.shape[0], M.shape[0], N.shape[0]))
    rep.add("kernel lies in the augmentation part of step 1", not unit_bad,
            f"unit coordinates in degrees {unit_bad}" if unit_bad else "")
    rep.add("kernel splits degreewise: dim M + dim N = dim kernel",
            not split_bad, f"failing degrees {split_bad}" if split_bad else "")

    for name, bases, side in (
        ("second factor annihilates the first component", m_bases, "T"),
        ("first factor annihilates the second component", n_bases, "S"),
    ):
        factor, bad = R.factor(side), []
        for d in range(dmax + 1):
            rows = bases[d]
            if rows.shape[0] == 0:
                continue
            for m in range(1, dmax - d + 1):
                for i in range(factor.dim(m)):
                    a = R.embed(side, factor.basis_element(m, i))
                    if F1.times(rows, a, d).nnz:
                        bad.append((d, m))
                        break
                else:
                    continue
                break
        rep.add(name, not bad, f"nonzero at (degree, action) {bad}" if bad else "")

    rep.data["dims"] = dims
    m_module, n_module = (
        submodule_as_gmodule(F1, bases, over=R.factor(side), embed=partial(R.embed, side),
                             label_prefix=prefix)
        for bases, side, prefix in ((m_bases, "S", "m"), (n_bases, "T", "n")))
    return SyzygySplit(m_module, n_module, rep)


def verify_ext_sequence_L(R: FiberProductAlgebra, L: GradedModule, hmax: int,
                          dmax: int | None = None,
                          split: SyzygySplit | None = None) -> ComplexReport:
    """Dimension bookkeeping for Ext(L, k) over a fiber product: beyond
    the presentation degrees, the Ext dimension in cohomological degree
    n equals the sum of the two syzygy components' coproduct-module
    series at n - 2.  ``split`` is ``syzygy_split(R, L)`` when the caller
    has it already."""
    if hmax < 2:
        raise WindowError(f"hmax {hmax} is too small for the Ext sequence; "
                          f"the smallest valid hmax is 2")
    dmax = window(R, hmax, dmax)
    S, T = R.s_algebra, R.t_algebra
    rep = ComplexReport()

    if split is None:
        split = syzygy_split(R, L)
    fail = split.report.first_failure()
    rep.add("syzygy split verified", split.ok,
            "" if split.ok else str(fail))

    res = minimal_resolution(R, L, hmax, dmax)
    ell = [res.rank(n) for n in range(hmax + 1)]
    h = hmax - 2
    psk = minimal_resolution(S, residue_module(S), hmax).poincare_series()
    ptk = minimal_resolution(T, residue_module(T), hmax).poincare_series()
    psm = minimal_resolution(S, split.m_module, h).poincare_series()
    ptn = minimal_resolution(T, split.n_module, h).poincare_series()
    pred = coproduct_module_series(psk, ptk, psm) \
        + coproduct_module_series(ptk, psk, ptn)
    predicted = [pred.coeff(n) for n in range(h + 1)]
    bad = [(n, ell[n], predicted[n - 2]) for n in range(2, hmax + 1)
           if ell[n] != predicted[n - 2]]
    rep.add(f"Ext dims match the shifted coproduct series (2 <= n <= {hmax})",
            not bad, f"(degree, ext dim, predicted) {bad}" if bad else "")
    rep.data.update({
        "ext_dims": ell,
        "presentation": ell[:2],
        "predicted_from_2": predicted,
        "m_poincare": [psm.coeff(n) for n in range(h + 1)],
        "n_poincare": [ptn.coeff(n) for n in range(h + 1)],
    })
    return rep


# -- the Ext sequence of a fiber-product module ------------------------------


def comparison_chain_map(src: FreeResolution, tgt: FreeResolution,
                         f_mats: dict[int, np.ndarray],
                         nmax: int) -> list[dict]:
    """Chain map between resolutions over one algebra lifting the module
    map given degreewise by ``f_mats[d]`` (rows = source coordinates;
    missing degrees act as zero).  ``_lift_stages`` runs from stage 0,
    solving against the two covers there; returns the generator terms of
    each stage (``gmodule.generator_terms``), which ``gmodule.extend``
    evaluates."""
    if tgt.algebra is not src.algebra:
        raise ExtError("a comparison chain map needs two resolutions over "
                       "one algebra")
    if nmax > min(src.hmax, tgt.hmax):
        raise WindowError(f"chain map through step {nmax}: the resolutions "
                          f"end at steps {src.hmax} and {tgt.hmax}")
    p = src.algebra.p
    module_map = {d: np.asarray(f, dtype=np.int64).T % p for d, f in f_mats.items()}
    return _lift_stages(src, tgt, module_map, range(nmax + 1))


def verify_fiber_module_ext_sequence(R: FiberProductAlgebra,
                                     m_mod: GradedModule,
                                     n_mod: GradedModule, hmax: int,
                                     dmax: int | None = None) -> ComplexReport:
    """Checks on the Ext sequence of a pullback module M x_V N over a
    fiber product, where V = k^v = M_0 = N_0 sits in degree 0 and the
    degree-0 quotient maps mu: M -> V and nu: N -> V are identities there:
    the Poincare identity P_fib + v * P_k = P_M + P_N coefficientwise, and
    injectivity of the combined pullback map Ext(V) -> Ext(M) x Ext(N),
    by rank in each cohomological degree."""
    p = R.p
    rep = ComplexReport()

    m0, n0 = m_mod.dim(0), n_mod.dim(0)
    fib = fiber_product_module(R, m_mod, n_mod)
    v = m0
    rep.add("fiber module construction checks", fib.dim(0) == m0 + n0 - v, "")

    m_r = restrict_to_fiber(R, m_mod, "S")
    n_r = restrict_to_fiber(R, n_mod, "T")
    res_fib = minimal_resolution(R, fib, hmax, dmax)
    res_k = minimal_resolution(R, residue_module(R), hmax, dmax)
    res_m = minimal_resolution(R, m_r, hmax, dmax)
    res_n = minimal_resolution(R, n_r, hmax, dmax)
    res_v = minimal_resolution(R, trivial_module(R, v), hmax, dmax)

    p_fib = res_fib.poincare_series()
    p_k = res_k.poincare_series()
    p_m = res_m.poincare_series()
    p_n = res_n.poincare_series()
    ok = fiber_module_poincare_check(p_fib, p_k, v, p_m, p_n)
    lhs = [p_fib.coeff(i) + v * p_k.coeff(i) for i in range(hmax + 1)]
    rhs = [p_m.coeff(i) + p_n.coeff(i) for i in range(hmax + 1)]
    detail = f"lhs {lhs} rhs {rhs}"
    if not ok:
        n = next(i for i in range(hmax + 1) if lhs[i] != rhs[i])
        detail += f"; first at degree {n}: lhs {lhs[n]}, rhs {rhs[n]}"
    rep.add(f"Poincare identity P_fib + {v} * P_k = P_M + P_N (through degree {hmax})",
            ok, detail)

    identity = {0: np.eye(v, dtype=np.int64)}
    chain_mu = comparison_chain_map(res_m, res_v, identity, hmax)
    chain_nu = comparison_chain_map(res_n, res_v, identity, hmax)
    bad = []
    ranks = []
    for n in range(hmax + 1):
        mu_star = _generator_coefficients(chain_mu[n], res_m.frees[n], res_v.frees[n])
        nu_star = _generator_coefficients(chain_nu[n], res_n.frees[n], res_v.frees[n])
        # the rank of (mu*, -nu*) is that of (mu*, nu*), a column's sign
        # aside: read on the two transposes stacked
        r = linalg.rank(linalg.Matrix.stack([mu_star.T, nu_star.T]), p)
        ranks.append((r, res_v.rank(n)))
        if r != res_v.rank(n):
            bad.append((n, r, res_v.rank(n)))
    rep.add(f"(mu*, -nu*) injective in each cohomological degree <= {hmax}",
            not bad, f"(degree, rank, expected) {bad}" if bad else "")
    rep.data.update({
        "rank_v": v,
        "p_fib": [p_fib.coeff(i) for i in range(hmax + 1)],
        "p_k": [p_k.coeff(i) for i in range(hmax + 1)],
        "p_m": [p_m.coeff(i) for i in range(hmax + 1)],
        "p_n": [p_n.coeff(i) for i in range(hmax + 1)],
        "injectivity_ranks": ranks,
    })
    return rep


# -- resolving the residue field over a free product -------------------------


def _include_factor(fp: FreeProductAlgebra, side: int, el: Element) -> Element:
    """A factor element as a combination of single-letter words of the
    free product (side 0 = first factor); in degree 0, of the unit."""
    if el.degree == 0:
        return Element(fp, 0, el.vec.copy())
    vec = np.zeros(fp.dim(el.degree), dtype=np.int64)
    vec[fp.table.singles(side, el.degree)] = el.vec
    return Element(fp, el.degree, vec)


def combined_residue_resolution(fp: FreeProductAlgebra, hmax: int,
                                a_res: FreeResolution | None = None,
                                b_res: FreeResolution | None = None,
                                ) -> FreeResolution:
    """Resolution of the residue field over a free product joined from
    minimal resolutions over the two factors: step i is free on both
    factors' step-i generators, and the differential applies the factor
    differentials with entries read as single-letter words.  The result
    is a minimal complex; exactness is checked by ``verify_complex``."""
    A, B = fp.factor_a, fp.factor_b
    if a_res is None:
        a_res = minimal_resolution(A, residue_module(A), hmax, fp.cap)
    if b_res is None:
        b_res = minimal_resolution(B, residue_module(B), hmax, fp.cap)
    if min(a_res.hmax, b_res.hmax) < hmax:
        raise WindowError(f"factor resolutions end at steps {a_res.hmax} and "
                          f"{b_res.hmax}, before hmax {hmax}")
    if a_res.gen_degrees(0) != [0] or b_res.gen_degrees(0) != [0]:
        raise ExtError("factor resolutions must resolve the residue field")

    frees = [FreeModule(fp, [0], ["g0"])]
    terms: list = [None]
    for i in range(1, hmax + 1):
        degs = a_res.gen_degrees(i) + b_res.gen_degrees(i)
        labels = ([f"S:{lab}" for lab in a_res.frees[i].gen_labels]
                  + [f"T:{lab}" for lab in b_res.frees[i].gen_labels])
        fi = FreeModule(fp, degs, labels)
        entries: dict[tuple[int, int], Element] = {}
        ra = a_res.rank(i)
        row_off = 0 if i == 1 else a_res.rank(i - 1)
        for r, c, el in a_res.entries(i):
            entries[(r, c)] = _include_factor(fp, 0, el)
        for r, c, el in b_res.entries(i):
            entries[(r + row_off, c + ra)] = _include_factor(fp, 1, el)
        terms.append(AlgMatrix(fp, fi, frees[i - 1], entries).terms())
        frees.append(fi)
    cover = {0: np.ones((1, 1), dtype=np.int64)}
    return FreeResolution(fp, residue_module(fp), hmax, fp.cap, frees, terms, cover)


# -- Hom complexes with internal grading -------------------------------------


def _hom_offsets(res: FreeResolution, module: GradedModule, i: int, nu: int):
    """Block dimensions and offsets of the internal-degree-nu part of
    Hom(F_i, module): one block of dim module^(s - nu) per generator."""
    dims = []
    for s in res.gen_degrees(i):
        d = s - nu
        if d > module.cap:
            raise WindowError(
                f"Hom window: need module degree {d}, table ends at {module.cap}")
        dims.append(module.dim(d))
    offs, acc = [], 0
    for w in dims:
        offs.append(acc)
        acc += w
    return dims, offs, acc


def hom_coboundary(res: FreeResolution, module: GradedModule, i: int,
                   nu: int) -> linalg.Matrix:
    """Matrix of composition with the differential into step i + 1,
    acting on coordinate rows of the internal-degree-nu part of
    Hom(F_i, module): the entries of each ``act_matrix`` block, summed."""
    if module.algebra is not res.algebra:
        raise ExtError("Hom coefficients must be a module over the "
                       "resolution's algebra")
    p = res.algebra.p
    sdims, soffs, stot = _hom_offsets(res, module, i, nu)
    tdims, toffs, ttot = _hom_offsets(res, module, i + 1, nu)
    parts = []
    for r, c, el in res.entries(i + 1):
        ms = res.gen_degrees(i)[r] - nu
        if ms < 0 or sdims[r] == 0 or tdims[c] == 0:
            continue
        br, bc, bv = module.act_matrix(el, ms).nonzero()
        parts.append((soffs[r] + br, toffs[c] + bc, bv))
    return linalg.Matrix.summed(parts, (stot, ttot), p)


def ext_bidegree_dim(res: FreeResolution, module: GradedModule, i: int,
                     nu: int) -> int:
    """dim Ext^(i, nu) of the resolved module with coefficients in
    ``module``, by ranks of the Hom-complex coboundaries."""
    p = res.algebra.p
    d_i = hom_coboundary(res, module, i, nu)
    ker = d_i.shape[0] - linalg.rank(d_i, p)
    if i == 0:
        return ker
    return ker - linalg.rank(hom_coboundary(res, module, i - 1, nu), p)


def socle_dims(module: GradedModule) -> dict[int, int]:
    """Dimension per degree of the joint kernel of all positive-degree
    actions that stay inside the tabulated window.  The top tabulated
    degree has no testable action and is omitted; a zero entry certifies
    no socle in that degree."""
    A = module.algebra
    out: dict[int, int] = {}
    for d in range(A.cap):
        dim = module.dim(d)
        if dim == 0:
            out[d] = 0
            continue
        # the rank of the actions set side by side, column block (m, i) the
        # action of basis element i of degree m: rank of its transpose
        blocks = [module.action[(m, d)].side_by_side(A.dim(m)).T
                  for m in range(1, A.cap - d + 1) if A.dim(m) * module.dim(d + m)]
        out[d] = dim - linalg.rank(linalg.Matrix.stack(blocks), A.p) if blocks else dim
    return out


# -- depth certificates -------------------------------------------------------


def _verified_combined_resolution(rep: ComplexReport, fp: FreeProductAlgebra, steps: int,
                                  a_res: FreeResolution | None,
                                  b_res: FreeResolution | None) -> FreeResolution:
    """``combined_residue_resolution(fp, steps, a_res, b_res)``, with the
    row of its ``verify_complex`` added to ``rep``."""
    C = combined_residue_resolution(fp, steps, a_res, b_res)
    cver = verify_complex(C)
    rep.add("combined resolution of k over the free product verifies",
            cver.ok, "" if cver.ok else str(cver.first_failure()))
    return C


def _nonzero_ext1(C: FreeResolution, module: GradedModule, internal_degrees):
    """``(nu, dim)`` for each internal degree nu, in the given order,
    where Ext^1 of the resolution C with coefficients in ``module`` is
    nonzero; a degree the module's window cannot hold is skipped."""
    for nu in internal_degrees:
        try:
            dim = ext_bidegree_dim(C, module, 1, nu)
        except WindowError:
            continue
        if dim > 0:
            yield nu, int(dim)


class DepthCertificate:
    """Witness data for depth 1 of the induced module of a factor module
    over a free product of cohomology algebras: the chosen degree-1 and
    degree-2 classes, the verified degree-1 cocycles with their internal
    degrees, socle dimensions in the window, and the certified interval.

    ``case`` states which witness family applied; ``interval`` is
    (lower, upper) where the lower bound is certified within the window
    and the upper bound by an explicit nonvanishing class."""

    def __init__(self, case, chosen, witnesses, socle, interval, report,
                 gldim_status):
        self.case = case
        self.chosen = chosen
        self.witnesses = witnesses
        self.socle = socle
        self.interval = interval
        self.report = report
        self.gldim_status = gldim_status

    @property
    def ok(self) -> bool:
        return self.report.ok

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "chosen": self.chosen,
            "witnesses": self.witnesses,
            "socle": {str(k): v for k, v in sorted(self.socle.items())},
            "interval": list(self.interval),
            "gldim_status": self.gldim_status,
        }


def _act_letters(fp, module, letters, deg, vec):
    """Left action of a word of letters (side, degree, index), rightmost
    first."""
    for t, n, i in reversed(letters):
        letter = (fp.factor_a, fp.factor_b)[t].basis_element(n, i)
        deg, vec = module.act(_include_factor(fp, t, letter), deg, vec)
    return deg, vec


def _single_label(module, deg, vec):
    idx = np.flatnonzero(vec)
    return module.labels(deg)[int(idx[0])] if idx.size == 1 else None


def depth_certificate(R: FiberProductAlgebra, module: GradedModule,
                      jmax: int, hmax: int,
                      dmax: int | None = None) -> DepthCertificate:
    """Certify that the induced module of a nonzero first-factor module
    has depth 1 over the free product of the factors' cohomology
    algebras: no socle in the window, and for j = 1..jmax an explicit
    degree-1 class, nonzero by exact rank computation, with internal
    degree -2j+1, -2j, or -2j-1 according to the witness family.

    The family is chosen by the case split: when neither factor's
    cohomology has a degree-2 class in the window, the alternating-word
    witnesses degenerate to coboundaries, so nonvanishing is certified
    instead by scanning internal degrees for a nonzero Ext^1 component;
    otherwise the family is picked by module-not-free, then a degree-2
    class in the second factor, then one in the first."""
    S, T = R.s_algebra, R.t_algebra
    for fac, name in ((S, "first"), (T, "second")):
        if all(fac.dim(n) == 0 for n in range(1, fac.cap + 1)):
            raise ExtError(f"the {name} factor equals the residue field; "
                           "there is no fiber to certify")
    if module.algebra is not S:
        raise ExtError("depth_certificate needs a module over the first "
                       "factor")
    if module.min_degree() is None:
        raise ExtError("zero module")
    if hmax < 3:
        raise WindowError(f"hmax {hmax} is too small for the depth certificate; "
                          f"the smallest valid hmax is 3")
    if jmax < 1:
        raise WindowError(f"jmax {jmax} asks for no witness; "
                          f"the smallest valid jmax is 1")
    dmax = window(R, hmax, dmax)

    s_ext = ext_algebra(S, hmax, dmax)
    t_ext = ext_algebra(T, hmax, dmax)
    m_ext = ext_module(S, module, hmax, dmax, ext=s_ext)
    fp = free_product(s_ext, t_ext, hmax)
    fpm = free_product_module(fp, m_ext)
    p = fp.p

    steps = 3
    a_res = minimal_resolution(s_ext, residue_module(s_ext), steps)
    b_res = minimal_resolution(t_ext, residue_module(t_ext), steps)
    rep = ComplexReport()
    C = _verified_combined_resolution(rep, fp, steps, a_res, b_res)

    socle = socle_dims(fpm)
    rep.add(f"no socle in window: Hom(k, M) = 0 through degree {fp.cap - 1}",
            all(v == 0 for v in socle.values()),
            f"socle dims {socle}" if any(socle.values()) else "")

    m_not_free = m_ext.resolution.rank(1) > 0
    s2, t2 = s_ext.dim(2) > 0, t_ext.dim(2) > 0
    gldim_status = {
        "first factor": "ext2 nonzero" if s2 else "no ext2 in window",
        "second factor": "ext2 nonzero" if t2 else "no ext2 in window",
    }
    if not s2 and not t2:
        # With both factor cohomologies linear in the window the
        # alternating-word classes are coboundaries, whatever the module.
        case = "linear-factors"
    elif m_not_free:
        case = "module-not-free"
    elif t2:
        case = "second-factor-ext2"
    else:
        case = "first-factor-ext2"

    sig, the = (0, 1, 0), (1, 1, 0)
    chosen = {"sigma": s_ext.labels(1)[0], "theta": t_ext.labels(1)[0]}
    # mu and mu' are the first module elements of degrees 0 and 1 alone,
    # word 0 of their degrees: a seed alone is the word of its seed's index
    chosen["mu"] = fpm.labels(0)[0]
    if case == "module-not-free":
        chosen["mu'"] = fpm.labels(1)[0]
    if case == "second-factor-ext2":
        chosen["theta'"] = t_ext.labels(2)[0]
    if case == "first-factor-ext2":
        chosen["sigma'"] = s_ext.labels(2)[0]

    def start(deg):  # mu (degree 0) or mu' (degree 1)
        vec = np.zeros(fpm.dim(deg), dtype=np.int64)
        vec[0] = 1
        return deg, vec

    witnesses = []
    gens1 = C.gen_degrees(1)
    ra1 = a_res.rank(1)
    if case == "linear-factors":
        found = next(_nonzero_ext1(C, fpm, range(1, -fp.cap - 1, -1)), None)
        rep.add("Ext^1 nonzero at some internal degree "
                "(both factors linear in window)", found is not None,
                f"internal degree {found[0]}, dim {found[1]}" if found
                else f"scanned internal degrees 1 down to {-fp.cap}")
        witnesses.append({"j": None,
                          "internal_degree": found[0] if found else None,
                          "ext1_dim": found[1] if found else 0})
    else:
        d1 = {c: el for _, c, el in C.entries(1)}  # F_0 has one generator
        d2: dict[int, list] = {}
        for r, c, el in C.entries(2):
            d2.setdefault(c, []).append((r, el))
        for j in range(1, jmax + 1):
            if case == "module-not-free":
                a_letters = [the, sig] * (j - 1) + [the]
                b_letters = [sig, the] * (j - 1)
                a_start, b_start = start(0), start(1)
            elif case == "second-factor-ext2":
                the2 = (1, 2, 0)
                a_letters = [the, sig] * (j - 1) + [the2]
                b_letters = [sig, the] * j
                a_start, b_start = start(0), start(0)
            else:
                sig2 = (0, 2, 0)
                a_letters = [the, sig] * j + [the]
                b_letters = [sig, the] * (j - 1) + [sig2, the]
                a_start, b_start = start(0), start(0)
            da = a_start[0] + sum(x[1] for x in a_letters)
            db = b_start[0] + sum(x[1] for x in b_letters)
            if da != db:
                raise ExtError(f"witness j={j}: the words reach degrees {da} and {db}")
            if max(gens1) + da > fpm.cap:
                raise ExtError(f"window too small for witness j={j}: "
                               f"need cap >= {max(gens1) + da}")
            da, alpha = _act_letters(fp, fpm, a_letters, *a_start)
            db, beta = _act_letters(fp, fpm, b_letters, *b_start)
            if not (np.any(alpha) and np.any(beta)):
                raise ExtError(f"witness j={j}: a word acts by zero (alpha in degree "
                               f"{da}, beta in degree {db})")
            nuval = -da

            blocks, block_degs = [], []
            for g, s in enumerate(gens1):
                el = d1.get(g)
                if el is None:
                    blocks.append(np.zeros(fpm.dim(s + da), dtype=np.int64))
                else:
                    vec = alpha if g < ra1 else beta
                    blocks.append(fpm.act(el, da, vec)[1])
                block_degs.append(s + da)
            phi = np.concatenate(blocks) if blocks else np.zeros(0, np.int64)

            tested, skipped, cocycle_ok = 0, 0, True
            for c, s2g in enumerate(C.gen_degrees(2)):
                if s2g + da > fpm.cap:
                    skipped += 1
                    continue
                acc = np.zeros(fpm.dim(s2g + da), dtype=np.int64)
                for r, el in d2.get(c, ()):
                    acc = (acc + fpm.act(el, block_degs[r], blocks[r])[1]) % p
                tested += 1
                if np.any(acc):
                    cocycle_ok = False
            rep.add(f"witness j={j}: cocycle at internal degree {nuval}",
                    cocycle_ok,
                    f"tested {tested} step-2 generators, {skipped} beyond window")

            d0 = hom_coboundary(C, fpm, 0, nuval)
            base = linalg.rank(d0, p)
            nonzero = linalg.rank(linalg.Matrix.stack([d0, linalg.Matrix.read(phi, p)]),
                                  p) == base + 1
            rep.add(f"witness j={j}: class nonzero in Ext^1 at internal "
                    f"degree {nuval}", nonzero,
                    f"coboundary rank {base}")
            witnesses.append({
                "j": j, "internal_degree": nuval,
                "alpha": _single_label(fpm, da, alpha),
                "beta": _single_label(fpm, db, beta),
                "cocycle": bool(cocycle_ok), "nonzero": bool(nonzero),
            })

    lower = 1 if all(v == 0 for v in socle.values()) else 0
    upper = 1 if rep.ok else None
    return DepthCertificate(case, chosen, witnesses, socle, (lower, upper),
                            rep, gldim_status)


def depth_upper_bound(R: FiberProductAlgebra, L: GradedModule, hmax: int,
                      dmax: int | None = None) -> ComplexReport:
    """Bound the depth of Ext(L, k) over the fiber product's cohomology
    from above: a finite minimal resolution forces socle in the top
    cohomological degree (depth 0); otherwise nonzero degree-1 classes
    are located over the free-product model (depth <= 1), scanning
    internal degrees the window covers."""
    if hmax < 2:
        raise WindowError(f"hmax {hmax} is too small for the depth upper bound; "
                          f"the smallest valid hmax is 2")
    dmax = window(R, hmax, dmax)
    rep = ComplexReport()
    res = minimal_resolution(R, L, hmax, dmax)
    betti = [res.rank(i) for i in range(hmax + 1)]
    rep.data["betti"] = betti
    if 0 in betti[1:]:
        i0 = betti.index(0, 1)
        top = max(i for i in range(i0) if betti[i] > 0)
        rep.data["case"] = "finite projective dimension"
        rep.data["depth"] = 0
        rep.add("projective dimension finite in window", True,
                f"pd <= {i0 - 1}")
        rep.add("Hom(k, Ext(L, k)) nonzero: top cohomological classes "
                "are socle", True, f"top degree {top}, dim {betti[top]}")
        return rep

    rep.data["case"] = "infinite projective dimension in window"
    d = _phi_setup(R, hmax, dmax)
    l_ext = ext_module(R, None, hmax, dmax, ext=d.R_ext, resolution=res)
    # L's action moved to the free-product basis: phis[m] times each table
    action = {}
    for (m, n), table in l_ext.action.items():
        dims = l_ext.table_dims(m, n)
        action[(m, n)] = left_product(table, dims, d.phis[m], R.p).reshape(
            (d.FP.dim(m) * dims[1], dims[2]))
    lfp = GradedModule(d.FP, [list(l_ext.labels(n)) for n in range(hmax + 1)],
                       action)
    C = _verified_combined_resolution(rep, d.FP, min(3, hmax), None, None)
    rep.data["socle_window"] = socle_dims(lfp)

    found = list(_nonzero_ext1(C, lfp, range(-hmax, hmax + 1)))
    rep.add("Ext^1(k, Ext(L, k)) nonzero in window", bool(found),
            f"(internal degree, dim) {found}")
    rep.data["ext1"] = found
    rep.data["depth"] = "<= 1"
    return rep
