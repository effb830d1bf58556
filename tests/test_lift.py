"""The chain-map property of the three lifts built on the one stage loop
(Yoneda lifts, restrictions onto a factor, comparison maps).  The lifter
returns each stage as generator terms; evaluated with ``extend`` over
every degree d of the window as L[n][d], for every stage n >= 1,

    tgt.d_n(d - s) @ L[n][d] == L[n-1][d] @ src.d_{step+n}(d)   (mod p),

and a comparison map's stage 0 commutes with the two covers.  The
lifter's array products equal the per-column route through algebra
entries; it makes one solve per stage and internal degree, eliminates
each target map at most once however many lifts solve against it (and
still fails a right-hand side outside the image), evaluates a stage only
at the generator degrees of the next source step and never the last
stage, lifts a batch of duals of one degree exactly as it lifts each
alone, and keeps its error texts and their order.  The read-off on
generators equals slicing the evaluated stage at its generators."""

import hashlib

import numpy as np
import pytest

from fiberres import extalg, linalg
from fiberres.algebra import (
    Element,
    MonomialQuotientPresentation,
    build_monomial_quotient,
    fiber_product,
)
from fiberres.cohomology import comparison_chain_map
from fiberres.extalg import ExtError, lift_dual, restriction_chain_map
from fiberres.gmodule import (
    AlgMatrix,
    FreeModule,
    extend,
    free_module_table,
    residue_module,
    restrict_to_fiber,
    trivial_module,
)
from fiberres.resolve import minimal_resolution

P = 32003


def mono(var, rel, cap=8):
    return build_monomial_quotient(
        P, cap, MonomialQuotientPresentation([var], [1], [rel], True))


@pytest.fixture(scope="module")
def cube_square():
    S, T = mono("x", "x^3"), mono("y", "y^2")
    return S, T, fiber_product(S, T)


def evaluated(src, tgt, stages, step=0, shift=0, side=None, batch=1):
    """The lifted stages' terms evaluated by ``extend`` at every degree of
    the lift window, with the lift's shift and side, dense: L[n][d]."""
    degrees = range(min(src.dmax, tgt.dmax + shift) + 1)
    return [{d: mat.dense() for d, mat in
             extend(tgt.frees[n], src.frees[step + n], terms, degrees, shift, batch,
                    side).items()}
            for n, terms in enumerate(stages)]


def dense_map(res, i, d):
    """The degree-d map out of step i of ``res``, dense."""
    return np.asarray(res.evaluated(i, d))


def assert_chain_map(src, tgt, lifts, step=0, shift=0):
    """Check every stage n >= 1 against the stage below; return how many
    of the checked matrices are nonzero, so a vacuous lift shows."""
    nonzero = 0
    for n in range(1, len(lifts)):
        assert lifts[n], f"stage {n} is empty"
        for d, L in lifts[n].items():
            lhs = dense_map(tgt, n, d - shift) @ L
            rhs = lifts[n - 1][d] @ dense_map(src, step + n, d)
            assert np.array_equal(lhs % P, rhs % P), (n, d)
            nonzero += bool(np.any(L))
    return nonzero


def test_lift_dual_is_a_chain_map():
    A = mono("x", "x^3")
    res = minimal_resolution(A, residue_module(A), 5)
    nonzero = 0
    for step in range(1, 5):
        for idx, s in enumerate(res.gen_degrees(step)):
            lifts = evaluated(res, res, lift_dual(res, res, step, idx, 5 - step), step, s)
            assert len(lifts) == 6 - step
            nonzero += assert_chain_map(res, res, lifts, step, s)
    assert nonzero > 0


@pytest.mark.parametrize("side", ["S", "T"])
def test_restriction_chain_map_is_a_chain_map(cube_square, side):
    S, T, R = cube_square
    fac = S if side == "S" else T
    R_res = minimal_resolution(R, residue_module(R), 4)
    fac_res = minimal_resolution(fac, residue_module(fac), 4)
    maps = evaluated(R_res, fac_res, restriction_chain_map(R_res, fac_res, R, side),
                     side=side)
    assert len(maps) == 5
    assert assert_chain_map(R_res, fac_res, maps) > 0


def test_comparison_chain_map_is_a_chain_map(cube_square):
    S, _, R = cube_square
    src = minimal_resolution(
        R, restrict_to_fiber(R, free_module_table(S, [0, 0]), "S"), 4)
    tgt = minimal_resolution(R, trivial_module(R, 2), 4)
    mu = np.array([[1, 2], [3, 5]], dtype=np.int64)  # V_0 <- M_0
    chain = evaluated(src, tgt, comparison_chain_map(src, tgt, {0: mu.T}, 4))
    assert len(chain) == 5
    for d, L in chain[0].items():
        f = mu if d == 0 else np.zeros(
            (tgt.module.dim(d), src.module.dim(d)), dtype=np.int64)
        assert np.array_equal((tgt.eval_cover(d) @ L) % P,
                              (f @ src.eval_cover(d)) % P), d
    assert assert_chain_map(src, tgt, chain) > 0


def counting_solve(monkeypatch):
    """Route extalg's solves through a recorder of right-hand-side widths."""
    widths = []
    real = extalg.linalg.solve

    def solve(mat, rhs, p):
        widths.append(1 if np.ndim(rhs) == 1 else np.shape(rhs)[1])
        return real(mat, rhs, p)

    monkeypatch.setattr(extalg.linalg, "solve", solve)
    return widths


def test_lift_dual_solves_once_per_stage_and_degree(cube_square, monkeypatch):
    _, _, R = cube_square
    res = minimal_resolution(R, residue_module(R), 5)
    widths = counting_solve(monkeypatch)
    step, nmax = 1, 4
    s = res.gen_degrees(step)[0]
    lifts = evaluated(res, res, lift_dual(res, res, step, 0, nmax), step, s)
    assert_chain_map(res, res, lifts, step, s)
    degrees = [res.gen_degrees(step + n) for n in range(1, nmax + 1)]
    assert len(widths) <= sum(len(set(degs)) for degs in degrees)
    assert sum(widths) == sum(len(degs) for degs in degrees)
    assert max(widths) > 1  # some degree holds several generators


@pytest.fixture(scope="module")
def short_target(cube_square):
    """A step-1 dual over R lifted into a resolution cut at degree 1: the
    window stops at degree 2, and step 2 has generators in degrees 2
    and 3."""
    _, _, R = cube_square
    src = minimal_resolution(R, residue_module(R), 3)
    tgt = minimal_resolution(R, residue_module(R), 3, dmax=1)
    assert src.gen_degrees(1) == [1, 1] and set(src.gen_degrees(2)) == {2, 3}
    return src, tgt


def test_too_small_window_keeps_its_error_text(short_target):
    with pytest.raises(ExtError,
                       match="^lift window too small for a degree-3 generator$"):
        lift_dual(*short_target, 1, 0, 2)


def test_failed_solve_in_a_lower_degree_is_reported_first(short_target,
                                                           monkeypatch):
    monkeypatch.setattr(extalg.linalg, "solve", lambda mat, rhs, p: None)
    with pytest.raises(ExtError,
                       match="^chain-map lift failed at stage 1, degree 2$"):
        lift_dual(*short_target, 1, 0, 2)


def test_a_batch_keeps_the_window_and_failed_solve_texts(short_target,
                                                          monkeypatch):
    with pytest.raises(ExtError,
                       match="^lift window too small for a degree-3 generator$"):
        lift_dual(*short_target, 1, [0, 1], 2)
    monkeypatch.setattr(extalg.linalg, "solve", lambda mat, rhs, p: None)
    with pytest.raises(ExtError,
                       match="^chain-map lift failed at stage 1, degree 2$"):
        lift_dual(*short_target, 1, [0, 1], 2)


def test_lift_dual_rejects_mismatched_resolutions_with_typed_errors(cube_square):
    S, T, _ = cube_square
    res_s = minimal_resolution(S, residue_module(S), 3)
    res_t = minimal_resolution(T, residue_module(T), 3)
    with pytest.raises(ExtError, match="same algebra"):
        lift_dual(res_s, res_t, 1, 0, 2)
    with pytest.raises(ExtError, match="needs source step 4"):
        lift_dual(res_s, res_s, 1, 0, 3)
    res_m = minimal_resolution(S, free_module_table(S, [0, 0]), 3)
    with pytest.raises(ExtError, match="^lift_dual needs a target resolving "
                                      "the residue field$"):
        lift_dual(res_s, res_m, 1, 0, 2)


def test_a_batch_of_duals_needs_one_internal_degree(short_target):
    src, _ = short_target
    degrees = src.gen_degrees(2)
    with pytest.raises(ExtError, match=r"^a batch of duals needs one internal "
                                       r"degree, not \[2, 3\]$"):
        lift_dual(src, src, 2, [degrees.index(2), degrees.index(3)], 1)


@pytest.mark.parametrize("side", ["U", "T"])
def test_restriction_chain_map_rejects_bad_input_with_typed_errors(cube_square,
                                                                   side):
    S, T, R = cube_square
    R_res = minimal_resolution(R, residue_module(R), 2)
    S_res = minimal_resolution(S, residue_module(S), 2)
    with pytest.raises(ExtError, match="side must be" if side == "U"
                       else "over the fiber product and its T factor"):
        restriction_chain_map(R_res, S_res, R, side)


# -- the numeric lifter against the per-column route -------------------------


def reference_evaluate(mat, d):
    """Per-entry evaluation of an AlgMatrix in degree d: entry (i, j)
    fills its block with the matrix of x -> x * entry."""
    A = mat.algebra
    out = np.zeros((mat.tgt.dim(d - mat.shift), mat.src.dim(d)), dtype=np.int64)
    src_off, tgt_off = mat.src.offsets(d), mat.tgt.offsets(d - mat.shift)
    for (i, j), c in mat.entries.items():
        da = d - mat.src.gen_degrees[j]
        if A.dim(da) and A.dim(da + c.degree):
            rm = A.right_mult_matrix(da, c)
            out[tgt_off[i]: tgt_off[i] + rm.shape[1],
                src_off[j]: src_off[j] + rm.shape[0]] = rm.T
    return out


def reference_entries(free, vec, d):
    """Algebra coefficients per generator of a degree-d vector, block by
    block."""
    out = {}
    for j, off in enumerate(free.offsets(d)):
        block = vec[off: off + free.algebra.dim(d - free.gen_degrees[j])]
        if np.any(block):
            out[j] = Element(free.algebra, d - free.gen_degrees[j], block)
    return out


def reference_lift_stages(src, tgt, prev, stages, step=0, shift=0, side=None):
    """The per-column route: one solve per generator, its image split
    into algebra entries block by block, and the stage evaluated entry by
    entry from an ``AlgMatrix`` of those entries (for a restriction, on a
    twin free module over the factor, then projected)."""
    A = tgt.algebra
    p = A.p
    dcap = min(src.dmax, tgt.dmax + shift)
    maps = []
    for n in stages:
        fsrc, ftgt = src.frees[step + n], tgt.frees[n]
        entries = {}
        for j, sj in enumerate(fsrc.gen_degrees):
            if sj in prev:
                col = dense_map(src, step + n, sj)[:, fsrc.gen_index(sj, j)]
                x = linalg.solve(dense_map(tgt, n, sj - shift),
                                 (prev[sj] @ col) % p, p)
                entries.update({(i, j): el for i, el in
                                reference_entries(ftgt, x, sj - shift).items()})
        twin = fsrc if side is None else FreeModule(A, fsrc.gen_degrees)
        mat = AlgMatrix(A, twin, ftgt, entries, shift=shift)
        prev = {d: reference_evaluate(mat, d) if side is None else (
                    reference_evaluate(mat, d) @ reference_projection(fsrc, twin, d, side)) % p
                for d in range(dcap + 1)}
        maps.append(prev)
    return maps


def reference_projection(free_R, twin, d, side):
    """Degree-d coefficient projection of a free module over a fiber
    product onto its twin over a factor, coordinate by coordinate."""
    R = free_R.algebra
    mat = np.zeros((twin.dim(d), free_R.dim(d)), dtype=np.int64)
    for j, s in enumerate(free_R.gen_degrees):
        for x in range(twin.algebra.dim(d - s)):
            mat[twin.offsets(d)[j] + x,
                free_R.offsets(d)[j] + R.part(side, d - s).start + x] = 1
    return mat


def assert_same_maps(got, want):
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got, want)):
        assert g.keys() == w.keys(), n
        for d in w:
            assert g[d].dtype == w[d].dtype and g[d].shape == w[d].shape, (n, d)
            assert g[d].tobytes() == w[d].tobytes(), (n, d)


@pytest.fixture(scope="module", params=[2, 3, 65521])
def weighted(request):
    """(k[x,w]/(x^3,w^2,xw), weights 1, 2) x_k k[y]/(y^2): the first
    factor has no degree 3, so some products land in a zero space."""
    p = request.param
    S = build_monomial_quotient(p, 6, MonomialQuotientPresentation(
        ["x", "w"], [1, 2], ["x^3", "w^2", "x*w"], True))
    T = build_monomial_quotient(p, 6, MonomialQuotientPresentation(
        ["y"], [1], ["y^2"], True))
    return S, T, fiber_product(S, T)


def reference_lift_dual(src, tgt, step, idx, nmax):
    A = src.algebra
    s = src.gen_degrees(step)[idx]
    first = AlgMatrix(A, src.frees[step], tgt.frees[0], {(0, idx): A.unit()},
                      shift=s)
    lifts = [{d: reference_evaluate(first, d)
              for d in range(min(src.dmax, tgt.dmax + s) + 1)}]
    return lifts + reference_lift_stages(src, tgt, lifts[0], range(1, nmax + 1),
                                         step, s)


def test_lift_dual_equals_the_per_column_route(weighted):
    S, _, R = weighted
    k_res = minimal_resolution(R, residue_module(R), 4)
    m_res = minimal_resolution(
        R, restrict_to_fiber(R, free_module_table(S, [0, 1]), "S"), 3)
    for src, first in ((k_res, 1), (m_res, 0)):
        for step in range(first, 4):
            for idx in range(src.rank(step)):
                s = src.gen_degrees(step)[idx]
                assert_same_maps(evaluated(src, k_res, lift_dual(src, k_res, step, idx,
                                                                 3 - step), step, s),
                                 reference_lift_dual(src, k_res, step, idx, 3 - step))


@pytest.mark.parametrize("side", ["S", "T"])
def test_restriction_equals_the_per_column_route(weighted, side):
    S, T, R = weighted
    fac = S if side == "S" else T
    R_res = minimal_resolution(R, residue_module(R), 4)
    fac_res = minimal_resolution(fac, residue_module(fac), 4)
    maps = evaluated(R_res, fac_res, restriction_chain_map(R_res, fac_res, R, side),
                     side=side)
    f0 = R_res.frees[0]
    first = {d: reference_projection(f0, FreeModule(fac, f0.gen_degrees), d, side)
             for d in range(R.cap + 1)}
    assert_same_maps(maps, [first] + reference_lift_stages(
        R_res, fac_res, first, range(1, 5), side=side))
    assert assert_chain_map(R_res, fac_res, maps) > 0


def test_comparison_map_of_rank_two_modules_equals_the_per_column_route(weighted):
    S, _, R = weighted
    p = R.p
    src = minimal_resolution(
        R, restrict_to_fiber(R, free_module_table(S, [0, 0]), "S"), 4)
    tgt = minimal_resolution(R, trivial_module(R, 2), 4)
    mu = np.array([[1, 2], [3, 5]], dtype=np.int64) % p
    chain = evaluated(src, tgt, comparison_chain_map(src, tgt, {0: mu.T}, 4))
    assert_same_maps(chain, reference_lift_stages(src, tgt, {0: mu}, range(5)))


def test_a_batch_of_duals_equals_the_lifts_one_by_one(weighted):
    _, _, R = weighted
    res = minimal_resolution(R, residue_module(R), 4)
    sizes = []
    for step in range(1, 4):
        for batch in res.frees[step].by_degree.values():
            s, nb = res.gen_degrees(step)[batch[0]], len(batch)
            stacked = evaluated(res, res, lift_dual(res, res, step, list(batch), 4 - step),
                                step, s, batch=nb)
            for b, gen in enumerate(batch):
                lifted = [{d: m[b * m.shape[0] // nb: (b + 1) * m.shape[0] // nb]
                           for d, m in stage.items()} for stage in stacked]
                single = lift_dual(res, res, step, int(gen), 4 - step)
                assert_same_maps(lifted, evaluated(res, res, single, step, s))
            sizes.append(nb)
    assert max(sizes) > 1


def test_yoneda_tables_solve_once_per_step_dual_degree_stage_and_degree(
        weighted, monkeypatch):
    _, _, R = weighted
    imax = 4
    res = minimal_resolution(R, residue_module(R), imax)
    widths = counting_solve(monkeypatch)
    extalg._yoneda_tables(res, res, imax, 1)
    degrees = [set(res.gen_degrees(i)) for i in range(imax + 1)]
    assert len(widths) <= sum(len(degrees[j]) * len(degrees[j + n])
                              for j in range(1, imax + 1)
                              for n in range(1, imax + 1 - j))
    assert sum(widths) == sum(res.rank(j) * res.rank(j + n)
                              for j in range(1, imax + 1)
                              for n in range(1, imax + 1 - j))


def recording_eliminations(monkeypatch):
    """Record the map of every ``linalg.Elimination`` built."""
    built = []
    real = linalg.Elimination.__init__

    def recording(self, mat, p):
        built.append(mat)
        real(self, mat, p)

    monkeypatch.setattr(linalg.Elimination, "__init__", recording)
    return built


def test_yoneda_tables_eliminate_each_target_map_once(weighted, monkeypatch):
    """Every solve of the Yoneda lifts against a map with rows and columns
    runs against the kept elimination of one of E's maps, and each such
    map is eliminated at most once."""
    _, _, R = weighted
    imax = 4
    res = minimal_resolution(R, residue_module(R), imax)
    built = recording_eliminations(monkeypatch)
    widths = counting_solve(monkeypatch)
    extalg._yoneda_tables(res, res, imax, 1)
    target = {id(mat): key for key, mat in res._ev_cache.items()}  # (step, degree)
    keys = [target.get(id(mat)) for mat in built if mat.size]
    assert None not in keys and len(set(keys)) == len(keys)
    assert 0 < len(keys) < len(widths)


# sha256 of the Yoneda tables below, (m, n) in order, each key's repr and then
# the table's int64 bytes; recorded while every map with no rows or no
# columns was still eliminated and kept
EMPTY_MAP_TABLES_SHA256 = "7baf8f0855581aae9d2dec9ffe91b83c1b493b91f4017f8132fd31eb2e257307"


def test_maps_with_no_rows_or_no_columns_are_neither_eliminated_nor_kept(monkeypatch):
    """Over (k[x,w]/(x^3,w^2,xw), weights 1, 2) x_k k[y]/(y^2) at p = 3,
    cap 8, 30 of the 71 solves of the Yoneda lifts are against maps with
    no rows or no columns, some at negative degrees.  Their eliminations
    run no echelon and are not kept, and the tables stay as they were."""
    p = 3
    S = build_monomial_quotient(p, 8, MonomialQuotientPresentation(
        ["x", "w"], [1, 2], ["x^3", "w^2", "x*w"], True))
    T = build_monomial_quotient(p, 8, MonomialQuotientPresentation(["y"], [1], ["y^2"], True))
    R = fiber_product(S, T)
    res = minimal_resolution(R, residue_module(R), 4)
    built = recording_eliminations(monkeypatch)
    echelons, shapes = [], []
    real_echelon, real_solve = linalg.echelon, linalg.solve
    monkeypatch.setattr(linalg, "echelon",
                        lambda mat, q: echelons.append(1) or real_echelon(mat, q))
    monkeypatch.setattr(extalg.linalg, "solve",
                        lambda mat, rhs, q: shapes.append(mat.shape) or real_solve(mat, rhs, q))
    tables = extalg._yoneda_tables(res, res, 4, 1)
    empty = [s for s in shapes if not s[0] * s[1]]
    assert len(shapes) == 71 and len(empty) == 30
    assert len(echelons) == sum(1 for mat in built if mat.size) < len(built)
    assert res._elim_cache and all(e.shape[0] * e.shape[1] for e in res._elim_cache.values())
    assert min(d for _, d in res._ev_cache) < 0  # empty maps at negative degrees were read
    digest = hashlib.sha256()
    for key in sorted(tables):
        digest.update(repr(key).encode())
        digest.update(np.ascontiguousarray(tables[key], dtype=np.int64).tobytes())
    assert digest.hexdigest() == EMPTY_MAP_TABLES_SHA256


def test_a_right_hand_side_outside_the_image_fails_through_a_kept_elimination(
        cube_square, monkeypatch):
    """A lift through the eliminations an earlier lift kept still checks
    consistency: a tampered source map gives the failed-solve text."""
    _, _, R = cube_square
    src = minimal_resolution(R, residue_module(R), 4)
    tgt = minimal_resolution(R, residue_module(R), 4)
    lift_dual(src, tgt, 1, 0, 3)
    built = recording_eliminations(monkeypatch)
    mat = dense_map(src, 3, 3)
    monkeypatch.setitem(src._ev_cache, (3, 3), linalg.Matrix.read(mat + 1, P))
    with pytest.raises(ExtError, match="^chain-map lift failed at stage 2, degree 3$"):
        lift_dual(src, tgt, 1, 0, 3)
    assert built == []


# -- what the lifter evaluates and reads off ------------------------------------


def test_lift_dual_evaluates_a_stage_only_where_the_next_stage_reads_it(weighted,
                                                                       monkeypatch):
    _, _, R = weighted
    res = minimal_resolution(R, residue_module(R), 4)
    calls = []
    real = extalg.extend

    def recording(ftgt, fsrc, terms, degrees, *args):
        calls.append((fsrc, list(degrees)))
        return real(ftgt, fsrc, terms, degrees, *args)

    monkeypatch.setattr(extalg, "extend", recording)
    checked = 0
    for step in range(1, 5):
        for s, batch in res.frees[step].by_degree.items():
            for idx in (list(batch), int(batch[0])):
                calls.clear()
                lift_dual(res, res, step, idx, 4 - step)
                dcap = min(res.dmax, res.dmax + s)
                # stage n is read by stage n + 1 only: never the last stage
                assert len(calls) == 4 - step
                for n, (fsrc, degrees) in enumerate(calls):
                    assert fsrc is res.frees[step + n]
                    assert degrees == sorted({d for d in res.gen_degrees(step + n + 1)
                                              if d <= dcap})
                checked += len(calls)
    assert checked > 0


def slicing_read_off(stage, src, tgt, shift=0):
    """An evaluated stage read off on generators by slicing: the entry of
    1 * tgt generator a against 1 * src generator c in degree deg c."""
    out = np.zeros((tgt.rank, src.rank), dtype=np.int64)
    for dc, cs in src.by_degree.items():
        a = tgt.by_degree.get(dc - shift)
        if a is not None:
            out[np.ix_(a, cs)] = stage[dc][np.ix_(tgt.block_indices(dc - shift, a),
                                                  src.block_indices(dc, cs))]
    return out


def test_term_read_off_equals_slicing_the_evaluated_stage(weighted):
    S, T, R = weighted
    p = R.p
    k_res = minimal_resolution(R, residue_module(R), 4)
    nonzero = 0
    for side, fac in (("S", S), ("T", T)):
        fac_res = minimal_resolution(fac, residue_module(fac), 4)
        maps = restriction_chain_map(k_res, fac_res, R, side)
        for n, L in enumerate(evaluated(k_res, fac_res, maps, side=side)):
            got = np.asarray(extalg._generator_coefficients(maps[n], k_res.frees[n],
                                                            fac_res.frees[n]))
            assert got.tobytes() == slicing_read_off(L, k_res.frees[n],
                                                     fac_res.frees[n]).tobytes(), (side, n)
            nonzero += np.count_nonzero(got)
    src = minimal_resolution(R, restrict_to_fiber(R, free_module_table(S, [0, 0]), "S"), 4)
    tgt = minimal_resolution(R, trivial_module(R, 2), 4)
    chain = comparison_chain_map(src, tgt, {0: np.array([[1, 3], [2, 5]]) % p}, 4)
    for n, L in enumerate(evaluated(src, tgt, chain)):
        got = np.asarray(extalg._generator_coefficients(chain[n], src.frees[n], tgt.frees[n]))
        assert got.tobytes() == slicing_read_off(L, src.frees[n], tgt.frees[n]).tobytes(), n
        nonzero += np.count_nonzero(got)
    # the Yoneda tables scatter each batch of duals through its batch column
    imax = 4
    tables = extalg._yoneda_tables(k_res, k_res, imax, 1)
    for n in range(1, imax):
        lifts = [evaluated(k_res, k_res, lift_dual(k_res, k_res, n, b, imax - n), n, s)
                 for b, s in enumerate(k_res.gen_degrees(n))]
        for m in range(1, imax + 1 - n):
            want = np.zeros((k_res.rank(m), k_res.rank(n), k_res.rank(m + n)), dtype=np.int64)
            for b, s in enumerate(k_res.gen_degrees(n)):
                want[:, b] = slicing_read_off(lifts[b][m], k_res.frees[m + n], k_res.frees[m], s)
            got = np.asarray(tables[(m, n)]).reshape(want.shape)
            assert got.tobytes() == (want % p).tobytes(), (m, n)
            nonzero += np.count_nonzero(want)
    assert nonzero > 0
