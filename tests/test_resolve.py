import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest

from fiberres.algebra import (
    Element,
    MonomialQuotientPresentation,
    build_monomial_quotient,
    fiber_product,
)
from fiberres.gmodule import (
    AlgMatrix,
    FreeModule,
    extend,
    generator_terms,
    GradedModule,
    algebra_as_module,
    cokernel_module,
    residue_module,
    restrict_to_fiber,
)
from fiberres import gmodule, linalg, resolve
from fiberres.wordres import build_word_resolution
from fiberres.resolve import (
    FreeResolution,
    ResolutionError,
    WindowError,
    betti_table_text,
    minimal_resolution,
    shared,
    sharing,
    syzygy_module,
    verify_complex,
)

P = 32003


def mono(vars_degs, rels, cap=8, commutative=True):
    names = [v for v, _ in vars_degs]
    degs = [d for _, d in vars_degs]
    return build_monomial_quotient(
        P, cap, MonomialQuotientPresentation(names, degs, rels, commutative)
    )


def test_residue_field_over_dual_numbers():
    A = mono([("x", 1)], ["x^2"], cap=7)
    res = minimal_resolution(A, residue_module(A), 6)
    assert [res.rank(i) for i in range(7)] == [1] * 7
    assert res.betti() == {(i, i): 1 for i in range(7)}
    assert verify_complex(res).ok


def test_residue_field_over_cubic_hypersurface():
    # differentials alternate between the variable and its square, so
    # generator degrees step by 1, 2, 1, 2, ...
    A = mono([("x", 1)], ["x^3"], cap=10)
    res = minimal_resolution(A, residue_module(A), 6)
    assert [res.rank(i) for i in range(7)] == [1] * 7
    assert [res.gen_degrees(i)[0] for i in range(7)] == [0, 1, 3, 4, 6, 7, 9]
    assert verify_complex(res).ok


def test_polynomial_ring_finite_resolution():
    A = mono([("x", 1)], [], cap=6)
    res = minimal_resolution(A, residue_module(A), 4)
    assert [res.rank(i) for i in range(5)] == [1, 1, 0, 0, 0]
    assert verify_complex(res).ok


def test_koszul_complex_two_variables():
    A = mono([("x", 1), ("y", 1)], [], cap=6)
    res = minimal_resolution(A, residue_module(A), 4)
    assert [res.rank(i) for i in range(5)] == [1, 2, 1, 0, 0]
    assert res.betti() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert verify_complex(res).ok


def test_hypersurface_xy_periodic_tail():
    A = mono([("x", 1), ("y", 1)], ["x*y"], cap=8)
    res = minimal_resolution(A, residue_module(A), 6)
    assert [res.rank(i) for i in range(7)] == [1, 2, 2, 2, 2, 2, 2]
    assert verify_complex(res).ok


def test_square_zero_fiber_product_doubles():
    S = mono([("x", 1)], ["x^2"])
    T = mono([("y", 1)], ["y^2"])
    R = fiber_product(S, T)
    res = minimal_resolution(R, residue_module(R), 6)
    assert [res.rank(i) for i in range(7)] == [1, 2, 4, 8, 16, 32, 64]
    assert res.betti() == {(0, 0): 1, **{(i, i): 2**i for i in range(1, 7)}}
    assert verify_complex(res).ok


def test_line_module_over_square_zero_pair():
    S = mono([("x", 1)], ["x^2"])
    T = mono([("y", 1)], ["y^2"])
    R = fiber_product(S, T)
    el = R.element_from_string("x+y")
    F0, F1 = FreeModule(R, [0]), FreeModule(R, [1])
    L = cokernel_module(AlgMatrix(R, F1, F0, {(0, 0): el}))
    res = minimal_resolution(R, L, 6)
    assert [res.rank(i) for i in range(7)] == [1, 1, 2, 4, 8, 16, 32]
    assert verify_complex(res).ok


def test_module_restricted_from_factor():
    S = mono([("x", 1)], ["x^3"])
    T = mono([("y", 1)], ["y^2"])
    R = fiber_product(S, T)
    M = restrict_to_fiber(R, algebra_as_module(S), "S")
    res = minimal_resolution(R, M, 4)
    assert res.rank(0) == 1
    assert verify_complex(res).ok
    # first syzygy is the T-side ideal: q = (y) has one generator
    assert res.rank(1) == 1 and res.gen_degrees(1) == [1]


def test_window_error_beyond_cap():
    A = mono([("x", 1)], ["x^2"], cap=5)
    with pytest.raises(WindowError):
        minimal_resolution(A, residue_module(A), 3, dmax=6)


def test_minimal_presentation():
    """Step 1 of a minimal resolution is a minimal presentation."""
    S = mono([("x", 1)], ["x^2"])
    T = mono([("y", 1)], ["y^2"])
    R = fiber_product(S, T)
    res = minimal_resolution(R, residue_module(R), 1)
    assert res.rank(1) == 2 and res.rank(0) == 1
    assert sorted(el.degree for _, _, el in res.entries(1)) == [1, 1]
    assert res.entry_strings(1) == [["S:x", "T:y"]]


def test_syzygy_module_of_dual_numbers():
    A = mono([("x", 1)], ["x^2"], cap=6)
    res = minimal_resolution(A, residue_module(A), 2)
    syz = syzygy_module(res, 1)
    assert [syz.dim(n) for n in range(3)] == [0, 1, 0]
    x = A.generator("x")
    _, v = syz.act(x, 1, [1])
    assert v.shape == (0,)


def test_verify_catches_nonzero_composition():
    A = mono([("x", 1)], ["x^3"], cap=6)
    k = residue_module(A)
    res = minimal_resolution(A, k, 2)
    x = A.generator("x")
    F2b = FreeModule(A, [2])
    d2 = AlgMatrix(A, F2b, res.frees[1], {(0, 0): x})
    bad = FreeResolution(A, k, 2, res.dmax, [res.frees[0], res.frees[1], F2b],
                         [None, res.terms[1], d2.terms()], res.cover)
    rep = verify_complex(bad)
    assert not rep.ok
    assert any("o d2" in c["name"] and not c["ok"] for c in rep.checks)


def test_verify_catches_inexactness():
    # over k[x]/(x^4), x^3 followed by x^3 squares to zero but misses
    # most of the kernel
    A = mono([("x", 1)], ["x^4"], cap=8)
    k = residue_module(A)
    res = minimal_resolution(A, k, 2)
    F1b, F2b = FreeModule(A, [3]), FreeModule(A, [6])
    cube = A.element_from_string("x^3")
    d1 = AlgMatrix(A, F1b, res.frees[0], {(0, 0): cube})
    d2 = AlgMatrix(A, F2b, F1b, {(0, 0): cube})
    bad = FreeResolution(A, k, 2, res.dmax, [res.frees[0], F1b, F2b],
                         [None, d1.terms(), d2.terms()], res.cover)
    rep = verify_complex(bad)
    assert not rep.ok
    assert any(c["name"] == "exactness at step 0" and not c["ok"] for c in rep.checks)


def test_verify_catches_nonminimality():
    A = mono([("x", 1)], ["x^2"], cap=6)
    k = residue_module(A)
    res = minimal_resolution(A, k, 1)
    F1b = FreeModule(A, [0])
    d1 = AlgMatrix(A, F1b, res.frees[0], {(0, 0): A.unit()})
    bad = FreeResolution(A, k, 1, res.dmax, [res.frees[0], F1b], [None, d1.terms()],
                         res.cover)
    rep = verify_complex(bad)
    assert any(c["name"] == "minimality step 1" and not c["ok"] for c in rep.checks)


def test_poincare_series_and_betti_text():
    S = mono([("x", 1)], ["x^2"])
    T = mono([("y", 1)], ["y^2"])
    R = fiber_product(S, T)
    res = minimal_resolution(R, residue_module(R), 4)
    ps = res.poincare_series()
    assert ps.coeffs == [1, 2, 4, 8, 16] and ps.truncation == 4
    text = betti_table_text(res.betti(), 4)
    assert "16" in text and text.count("\n") >= 4


def test_resolution_determinism():
    S = mono([("x", 1)], ["x^3"])
    T = mono([("y", 1)], ["y^2"])
    R = fiber_product(S, T)
    r1 = minimal_resolution(R, residue_module(R), 5)
    r2 = minimal_resolution(R, residue_module(R), 5)
    assert r1.betti() == r2.betti()
    for i in range(1, 6):
        assert r1.entry_strings(i) == r2.entry_strings(i)


def test_non_minimal_generator_raises_typed_error(monkeypatch):
    """A step-1 generator whose differential has a degree-0 entry is
    rejected with a ResolutionError, also under ``python -O``."""
    A = mono([("x", 1)], ["x^2"], cap=4)

    def unit_cover_as_syzygy(mat, p):
        # the kernel step: the generator of degree 0 maps to the unit
        return linalg.Matrix.placed([(np.array([0]), np.array([0]), np.array([1]))],
                                    (1, mat.shape[1]), p)

    monkeypatch.setattr(linalg, "kernel", unit_cover_as_syzygy)
    with pytest.raises(ResolutionError, match="non-minimal differential entry "
                                              "at step 1, degree 0"):
        minimal_resolution(A, residue_module(A), 2)


# -- one evaluation and one rank per map; named failures -----------------------


def cube_square():
    return fiber_product(mono([("x", 1)], ["x^3"]), mono([("y", 1)], ["y^2"]))


def test_each_map_is_evaluated_and_ranked_once(monkeypatch):
    """minimal_resolution keeps the window maps it evaluates for its
    kernels, and verify_complex eliminates each of them once, for its
    pivots, in the form it is kept in.  Each differential is extended to
    the window once, and no map is extended one degree at a time."""
    evaluated, pivoted, per_degree = Counter(), [], []
    real_window, real_pivots = resolve.extend_window, linalg.pivots

    def extend_window(ftgt, fsrc, terms, dmax):
        evaluated[id(fsrc)] += 1
        return real_window(ftgt, fsrc, terms, dmax)

    def pivots(mat, p):
        pivoted.append(mat)
        return real_pivots(mat, p)

    monkeypatch.setattr(resolve, "extend_window", extend_window)
    monkeypatch.setattr(resolve, "extend", lambda *args: per_degree.append(args))
    monkeypatch.setattr(linalg, "pivots", pivots)
    R = cube_square()
    res = minimal_resolution(R, residue_module(R), 4)
    assert verify_complex(res).ok
    assert max(evaluated.values()) == 1 and not per_degree
    step = {id(F): i for i, F in enumerate(res.frees)}
    assert sorted(step[f] for f in evaluated) == [1, 2, 3, 4]
    assert len(pivoted) == 5  # the cover and steps 1-4
    for i in range(1, 5):
        assert sum(mat is res.window_map(i) for mat in pivoted) == 1
    starts = [F.window(res.dmax) for F in res.frees]
    for i in range(1, 5):
        for d in range(res.dmax + 1):  # each degree's map is a block of the window map
            want = real_window(res.frees[i - 1], res.frees[i], res.terms[i], res.dmax).block(
                starts[i - 1][d], starts[i - 1][d + 1], starts[i][d], starts[i][d + 1])
            assert np.array_equal(res.evaluated(i, d).dense(), want.dense())


def test_an_empty_degree_is_neither_evaluated_nor_eliminated(monkeypatch):
    """Over k[x]/(x^2) x_k k[y]/(y^2), F_i lives in degrees i and i + 1
    only: the window map of d_i is extended only in degree i, the one
    degree where F_(i-1) and F_i are both nonzero, each step takes one
    kernel, of a window map with columns, the Betti table is 2^i in
    degree i, and every degree's map equals the differential extended
    afresh from its terms."""
    visited, kernels = [], []
    real_blocks, real_kernel = gmodule._extended_blocks, linalg.kernel

    def recording_blocks(ftgt, fsrc, terms, d, *args):
        visited.append((fsrc, d))
        return real_blocks(ftgt, fsrc, terms, d, *args)

    def kernel(mat, p):
        kernels.append(mat.shape)
        return real_kernel(mat, p)

    monkeypatch.setattr(gmodule, "_extended_blocks", recording_blocks)
    monkeypatch.setattr(linalg, "kernel", kernel)
    R = fiber_product(mono([("x", 1)], ["x^2"], cap=10), mono([("y", 1)], ["y^2"], cap=10))
    res = minimal_resolution(R, residue_module(R), 6)
    step = {id(F): i for i, F in enumerate(res.frees)}
    assert sorted((step[id(F)], d) for F, d in visited) == [(i, i) for i in range(1, 6)]
    assert len(kernels) == 6 and all(n for _, n in kernels)  # steps 1-6
    assert res.betti() == {(i, i): 2 ** i for i in range(7)}
    monkeypatch.undo()
    for i in range(1, 6):
        for d in (i, i + 1):
            want = extend(res.frees[i - 1], res.frees[i], res.terms[i], [d])[d]
            assert np.array_equal(res.evaluated(i, d).dense(), want.dense())
    assert verify_complex(res).ok


def test_one_elimination_per_step(monkeypatch):
    """The build makes, per step, one kernel of the window map, one
    echelon of the stacked products and one reduce_rows; step 0 takes no
    product, as k lives in degree 0.  verify_complex makes one rank
    elimination per map, the cover's and each step's."""
    calls, stacks = Counter(), []
    for name in ("kernel", "echelon", "reduce_rows", "pivots", "rank", "solve"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda mat, *args, real=real, name=name: calls.update(
            [name, "product echelon"] if name == "echelon" and any(mat is x for x in stacks)
            else [name]) or real(mat, *args))
    stack = linalg.Matrix.stack
    monkeypatch.setattr(linalg.Matrix, "stack",
                        staticmethod(lambda parts: stacks.append(stack(parts)) or stacks[-1]))
    for R, hmax in ((cube_square(), 6), (mono([("x", 1), ("y", 1)], ["x^2", "y^2", "y*x"],
                                                cap=6, commutative=False), 5)):
        R.indecomposables  # the ring's own echelons, once per ring, before the count
        calls.clear()
        res = minimal_resolution(R, residue_module(R), hmax)
        assert calls["kernel"] == calls["product echelon"] == calls["reduce_rows"] == hmax
        assert set(calls) == {"kernel", "echelon", "product echelon", "reduce_rows"}
        calls.clear()
        assert verify_complex(res).ok
        assert calls == {"pivots": hmax + 1}


def failures(res):
    return [(c["name"], c["detail"]) for c in verify_complex(res).checks
            if not c["ok"]]


def replace_term(res, step, pair, old, new):
    """Overwrite the stored coefficient of entry ``pair`` = (target,
    source generator) of d_step, which reads ``old``, with ``new``."""
    for (_, e), (tgt, src, _, coef) in res.terms[step].items():
        hit = np.flatnonzero((tgt == pair[0]) & (src == pair[1]))
        if hit.size:
            assert repr(Element(res.algebra, e, coef[hit[0]])) == old
            coef[hit[0]] = new.vec
            return
    raise AssertionError(f"no term at {pair}")


def test_verify_names_the_generator_pairs_of_a_nonzero_composite():
    """d2 sends the first generator to y*h0 + ...; with x in place of y,
    d1 o d2 = x^2 at generator pair (0, 0), seen in degree 2."""
    R = cube_square()
    res = minimal_resolution(R, residue_module(R), 2)
    replace_term(res, 2, (0, 0), "T:y", R.generator("x"))
    assert failures(res) == [("d1 o d2 = 0", "degrees [2], generator pairs [(0, 0)]")]


def test_verify_names_the_ranks_of_an_inexact_step():
    R = cube_square()
    res = minimal_resolution(R, residue_module(R), 2)
    replace_term(res, 2, (1, 1), "S:x", R.generator("y"))
    assert failures(res) == [(
        "exactness at step 1",
        "rank_in + rank_out != dim F_1 at (step, degree, rank_in, rank_out, "
        "expected) [(1, 2, 2, 1, 4), (1, 3, 1, 0, 2)]")]


def tamper_and_fail_d_squared(entry_form):
    """Entry (0, 0) of degree 3 of the kept window map of d2 is changed."""
    R = cube_square()
    res = minimal_resolution(R, residue_module(R), 3)
    kept = res.window_map(2)
    assert kept.kept_dense != entry_form
    mat = kept.dense()
    row, col = res.frees[1].window(3)[3], res.frees[2].window(3)[3]
    mat[row, col] = (mat[row, col] + 1) % R.p
    tampered = res._windows[2] = linalg.Matrix.read(mat, R.p)
    assert tampered.kept_dense == kept.kept_dense
    d2, d3 = (extend(res.frees[i - 1], res.frees[i], res.terms[i], [3])[3] for i in (2, 3))
    assert not linalg.matmul(d2, d3, R.p).nnz
    assert failures(res) == [("d2 o d3 = 0", "degrees [3], generator pairs []")]


def test_d_squared_is_checked_on_the_evaluated_matrices():
    """A tampered window map fails d o d although the algebra-level
    composite is zero, so no generator pair is named."""
    tamper_and_fail_d_squared(entry_form=False)


def test_d_squared_is_checked_on_maps_kept_as_entries(monkeypatch):
    """The same with every map kept in entry form."""
    monkeypatch.setattr(linalg, "STORAGE_MIN_CELLS", 0)
    tamper_and_fail_d_squared(entry_form=True)


def test_d_squared_names_the_pairs_in_the_noncommutative_order():
    """Over k<x, y>/(x^2, y^2, yx), where x*y is the only nonzero
    product, entry (h, g) of d1 o d2 is d2's entry times d1's.  d1 =
    (x y), and d2 sends its third generator to y on the second step-1
    generator: x in place of that y makes the composite x*y at pair
    (0, 2), while y in place of the x of the first generator gives
    y*x = 0, so only the first tampering fails d o d."""
    A = mono([("x", 1), ("y", 1)], ["x^2", "y^2", "y*x"], cap=4, commutative=False)
    x, y = A.generator("x"), A.generator("y")
    res = minimal_resolution(A, residue_module(A), 2)
    assert res.entry_strings(1) == [["x", "y"]]
    assert res.entry_strings(2) == [["x", "y", "0"], ["0", "0", "y"]]
    replace_term(res, 2, (1, 2), "y", x)
    assert ("d1 o d2 = 0", "degrees [2], generator pairs [(0, 2)]") in failures(res)
    res = minimal_resolution(A, residue_module(A), 2)
    replace_term(res, 2, (0, 0), "x", y)
    assert "d1 o d2 = 0" not in dict(failures(res))


def test_cover_o_d1_names_degree_and_generator():
    """S = k[x]/(x^3) as a module over R = S x_k k[y]/(y^3) is R/(y): d1
    sends its one generator g to y, so in degree 2 the column of y*g (the
    second of g's block) holds y^2.  A cover that reads y^2 as 1 fails
    cover o d1 = 0 at (degree 2, generator 0), and only there."""
    R = fiber_product(mono([("x", 1)], ["x^3"]), mono([("y", 1)], ["y^3"]))
    M = restrict_to_fiber(R, algebra_as_module(R.s_algebra), "S")
    res = minimal_resolution(R, M, 2)
    assert res.entry_strings(1) == [["T:y"]]
    assert verify_complex(res).ok
    res.cover[2] = np.ones_like(res.cover[2])
    got = [c["detail"] for c in verify_complex(res).checks if c["name"] == "cover o d1 = 0"]
    assert got == ["nonzero at (degree, generator) [(2, 0)]"]


def test_cover_surjective_names_degree_and_rank():
    A = mono([("x", 1)], ["x^2"], cap=4)
    k = residue_module(A)
    res = minimal_resolution(A, k, 1)
    res.cover[0] = np.zeros_like(res.cover[0])
    assert ("cover surjective", "(degree, rank, expected) [(0, 0, 1)]") \
        in failures(res)


def test_window_errors_for_steps_outside_the_resolution():
    A = mono([("x", 1)], ["x^2"], cap=6)
    res = minimal_resolution(A, residue_module(A), 2)
    assert res.entry_strings(2) == [["x"]]
    for i in (0, 3):
        for read in (res.entries, res.entry_strings):
            with pytest.raises(WindowError, match=f"differential d{i} outside steps 1..2"):
                read(i)
    for n in (0, 3):
        with pytest.raises(WindowError, match=f"syzygy step {n} outside 1..2"):
            syzygy_module(res, n)


@pytest.mark.parametrize("source", ["direct", "word complex"])
def test_syzygy_module_at_every_step(source):
    """The n-th syzygy, for n = 1..hmax, has the dimensions of the
    kernel of the map out of F_(n-1) and, by exactness, of the image of
    d_n, on a direct resolution and on a word complex alike (which
    keeps no kernels of its own)."""
    S = mono([("x", 1)], ["x^3"], cap=6)
    T = mono([("y", 1)], ["y^2"], cap=6)
    R = fiber_product(S, T)
    res = (minimal_resolution(R, residue_module(R), 4) if source == "direct"
           else build_word_resolution(S, T, residue_module(S), 4, fiber=R))
    for n in range(1, res.hmax + 1):
        syz = syzygy_module(res, n)
        dims = [syz.dim(d) for d in range(res.dmax + 1)]
        assert dims == [linalg.kernel(res.evaluated(n - 1, d), P).shape[0]
                        for d in range(res.dmax + 1)]
        assert dims == [linalg.rank(res.evaluated(n, d), P) for d in range(res.dmax + 1)]
        assert syz.labels(n)[:1] == [f"z{n}_{n}_0"]
    for n in (0, res.hmax + 1):
        with pytest.raises(WindowError, match=f"syzygy step {n} outside 1..4"):
            syzygy_module(res, n)


def column_loop_split(E, p):
    """``linalg._split`` by the column loop on the whole dense matrix."""
    R = E.dense()
    pivots = linalg._eliminate(R, p)
    r, c = np.nonzero(R[: len(pivots)])
    return [(r, c, R[r, c])], pivots


@pytest.mark.parametrize("p", [2, 3])
def test_resolution_equals_the_column_loop_run(p, monkeypatch):
    """k[x]/(x^3) x_k k[y]/(y^2): the Betti table, every kernel basis and
    every verify_complex check and datum are the same as with the
    elimination core replaced by the column loop on the whole matrix."""

    def run():
        kernels = []
        kernel = linalg.kernel

        def recording(mat, q):
            kernels.append(kernel(mat, q))
            return kernels[-1]

        S = build_monomial_quotient(p, 10, MonomialQuotientPresentation(["x"], [1], ["x^3"]))
        T = build_monomial_quotient(p, 10, MonomialQuotientPresentation(["y"], [1], ["y^2"]))
        R = fiber_product(S, T)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "kernel", recording)
            res = minimal_resolution(R, residue_module(R), 7)
        rep = verify_complex(res)
        return res.betti(), kernels, rep.checks, rep.data

    split = run()
    monkeypatch.setattr(linalg, "SPLIT_MIN_CELLS", 1)
    split_all = run()
    monkeypatch.setattr(linalg, "_split", column_loop_split)
    loop = run()
    assert all(c["ok"] for c in loop[2])
    for got in (split, split_all):
        assert got[0] == loop[0]
        assert len(got[1]) == len(loop[1]) > 0
        assert all(a.shape == b.shape and np.array_equal(np.asarray(a), np.asarray(b))
                   for a, b in zip(got[1], loop[1]))
        assert got[2:] == loop[2:]


# -- the window build against the per-degree reference ---------------------------


def reference_left_mult(F, a, d):
    """Dense matrix of v -> a*v on a free module out of degree d, block
    by block from the algebra's left multiplication matrices."""
    out = np.zeros((F.dim(d), F.dim(d + a.degree)), dtype=np.int64)
    src_off, tgt_off = F.offsets(d), F.offsets(d + a.degree)
    for j, s in enumerate(F.gen_degrees):
        if d >= s and F.algebra.dim(d - s) and F.algebra.dim(d + a.degree - s):
            block = F.algebra.left_mult_matrix(a, d - s)
            out[src_off[j]: src_off[j] + block.shape[0],
                tgt_off[j]: tgt_off[j] + block.shape[1]] = block
    return out


def reference_generators_by_degree(algebra, rows, act, dmax):
    """The per-degree generator step, kept as the reference the window
    step is held against: per degree d with rows, the products of the
    rows of degree d - deg g with each indecomposable g (``act(g, n)``,
    the dense matrix of x -> g*x out of degree n) are stacked and
    eliminated, the rows are reduced against them, and the rows that
    enlarge the span are kept and normalized.  Returns ``(degree, row
    indices, new rows)`` per degree with new generators."""
    p = algebra.p
    rows = [linalg.Matrix.read(rows[d], p) for d in range(dmax + 1)]
    out = []
    for d in range(dmax + 1):
        m, n = rows[d].shape
        if m == 0:
            continue
        prods = [linalg.matmul(rows[d - e], act(algebra.basis_element(e, i), d - e), p)
                 for e, i in algebra.indecomposables if e <= d and rows[d - e].shape[0]]
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
        slot = np.cumsum(first) - 1
        inverse = np.array([pow(int(x), p - 2, p) for x in v[first]], dtype=np.int64)
        out.append((d, r[first], linalg.Matrix.placed(
            [(slot, c, v * inverse[slot] % p)], (slot[-1] + 1, n), p)))
    return out


def reference_resolution(algebra, module, hmax):
    """The resolution built degree by degree: per-degree maps, kernels
    and generator steps, each degree's new rows read as terms."""
    p, dmax = algebra.p, resolve.window(algebra, hmax)
    units = [np.eye(module.dim(d), dtype=np.int64) for d in range(dmax + 1)]
    gens0 = [(d, units[d][j]) for d, kept, _ in
             reference_generators_by_degree(algebra, units, module.act_matrix, dmax)
             for j in kept.tolist()]
    frees = [FreeModule(algebra, [d for d, _ in gens0], [f"u0_{k}" for k in range(len(gens0))])]
    cover = resolve.cover_matrices(algebra, module, gens0, frees[0], dmax)
    terms = [None]
    for step in range(1, hmax + 1):
        prev = frees[-1]
        maps = cover if step == 1 else extend(frees[-2], prev, terms[-1], range(dmax + 1))
        kers = {d: linalg.kernel(maps[d], p) if prev.dim(d) else np.zeros((0, 0))
                for d in range(dmax + 1)}
        new = reference_generators_by_degree(algebra, kers, partial(reference_left_mult, prev),
                                             dmax)
        degrees = [d for d, kept, _ in new for _ in kept]
        fi = FreeModule(algebra, degrees, [f"u{step}_{k}" for k in range(len(degrees))])
        terms.append(generator_terms(prev, [(d, fi.by_degree[d], rows.T) for d, _, rows in new]))
        frees.append(fi)
    return frees, terms, cover


def random_presentation(rng, kind):
    """A random monomial quotient on one or two variables: powers of
    each variable (so the ring is finite) and, with two, maybe a mixed
    product; weights 1 and 2 when weighted, and a noncommutative one
    kills y*x but not x*y."""
    if kind == "one variable":
        return MonomialQuotientPresentation(["x"], [1], [f"x^{rng.integers(2, 5)}"])
    a, b = rng.integers(2, 5, size=2)
    rels = [f"x^{a}", f"y^{b}"]
    if kind == "noncommutative":
        return MonomialQuotientPresentation(["x", "y"], [1, 1], rels + ["y*x"], False)
    if rng.integers(2):
        rels.append(f"x*y^{rng.integers(1, b)}")
    return MonomialQuotientPresentation(["x", "y"], [1, 2] if kind == "weighted" else [1, 1],
                                        rels)


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize("kind", ["one variable", "two variables", "weighted", "noncommutative"])
def test_window_build_equals_the_per_degree_reference(p, kind):
    """On random monomial quotients, for k and for R/(x), the window
    build gives the per-degree reference's generator degrees, covers and
    terms, array for array and in the same order."""
    rng = np.random.default_rng([p, len(kind)])
    for _ in range(3):
        A = build_monomial_quotient(p, 7, random_presentation(rng, kind))
        x = AlgMatrix(A, FreeModule(A, [1]), FreeModule(A, [0]), {(0, 0): A.generator("x")})
        for module in (residue_module(A), cokernel_module(x)):
            res = minimal_resolution(A, module, 4)
            frees, terms, cover = reference_resolution(A, module, 4)
            assert [F.gen_degrees for F in res.frees] == [F.gen_degrees for F in frees]
            assert sorted(res.cover) == sorted(cover)
            assert all(np.array_equal(res.cover[d], cover[d]) for d in cover)
            for got, want in zip(res.terms[1:], terms[1:]):
                assert list(got) == list(want)
                assert all(len(got[k]) == len(want[k]) and all(
                    a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got[k], want[k]))
                    for k in want)
            assert verify_complex(res).ok


# The traced peak of the resolution and verification below is 1.3-1.7 MB
# with kernels, generator rows and evaluated maps in entry form; with
# dense kernels it is 16.8 MB, with dense evaluated maps 24.5 MB.
PEAK_BOUND_MB = 6


def test_memory_of_a_resolution_and_its_verification():
    """k over k[x]/(x^3) x_k k[y]/(y^2) at hmax 10, cap 16 (the first ring
    of the benchmark's resolve workload): the traced peak of
    minimal_resolution and verify_complex stays under the bound."""
    R = fiber_product(mono([("x", 1)], ["x^3"], cap=16), mono([("y", 1)], ["y^2"], cap=16))
    k = residue_module(R)
    tracemalloc.start()
    try:
        res = minimal_resolution(R, k, 10)
        assert verify_complex(res).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rank(10) > 1000
    assert peak < PEAK_BOUND_MB * 1e6, f"traced peak {peak / 1e6:.1f} MB"


# -- the sharing scope ----------------------------------------------------------


def test_equal_requests_share_one_resolution_inside_a_scope():
    S, S2 = (mono([("x", 1)], ["x^2"], cap=6) for _ in range(2))
    k = residue_module(S)
    with sharing():
        res = minimal_resolution(S, k, 3)
        assert minimal_resolution(S, residue_module(S), 3) is res  # equal content
        assert minimal_resolution(S, k, 3, dmax=S.cap) is res
        distinct = [minimal_resolution(S, k, 4),
                    minimal_resolution(S, k, 3, dmax=4),
                    minimal_resolution(S, algebra_as_module(S), 3),
                    minimal_resolution(S2, residue_module(S2), 3)]
        assert len({id(r) for r in [res] + distinct}) == 5
        assert minimal_resolution(S, k, 4) is distinct[0]


def test_module_content_is_compared_exactly():
    """S and k + k(-1) on S's basis labels differ only in their action
    tensors, and are resolved apart."""
    S = mono([("x", 1)], ["x^2"], cap=4)
    M = algebra_as_module(S)
    N = GradedModule(S, M.basis, {key: linalg.Matrix.zeros(arr.shape)
                                  for key, arr in M.action.items()})
    with sharing():
        rm, rn = minimal_resolution(S, M, 2), minimal_resolution(S, N, 2)
        assert rm is not rn
        assert (rm.rank(0), rn.rank(0)) == (1, 2)


def test_no_scope_builds_every_call():
    S = mono([("x", 1)], ["x^2"], cap=6)
    k = residue_module(S)
    assert minimal_resolution(S, k, 3) is not minimal_resolution(S, k, 3)
    assert shared("key", list) is not shared("key", list)


def test_a_content_key_is_built_only_inside_a_scope(monkeypatch):
    """Outside a ``sharing()`` scope ``minimal_resolution`` reads no
    module content; inside one it keys each call by it."""
    S = mono([("x", 1)], ["x^2"], cap=6)
    k = residue_module(S)
    read, real = [], resolve._module_content
    monkeypatch.setattr(resolve, "_module_content", lambda module: read.append(module) or
                        real(module))
    minimal_resolution(S, k, 3)
    assert read == []
    with sharing():
        assert minimal_resolution(S, k, 3) is minimal_resolution(S, k, 3)
    assert read == [k, k]
    with sharing():
        assert shared("key", list) is shared("key", list)


def test_nothing_survives_the_scope():
    S = mono([("x", 1)], ["x^2"], cap=6)
    k = residue_module(S)
    with sharing():
        inside = minimal_resolution(S, k, 3)
        with sharing():  # a nested scope starts empty and ends with its block
            assert minimal_resolution(S, k, 3) is not inside
        assert minimal_resolution(S, k, 3) is inside
    assert minimal_resolution(S, k, 3) is not inside
    with sharing():
        assert minimal_resolution(S, k, 3) is not inside


def test_a_build_that_raises_is_not_memoized():
    calls = []

    def build():
        calls.append(1)
        raise WindowError("no")

    with sharing():
        for _ in range(2):
            with pytest.raises(WindowError):
                shared("key", build)
        S = mono([("x", 1)], ["x^2"], cap=6)
        for _ in range(2):
            with pytest.raises(WindowError, match="beyond tabulated degrees"):
                minimal_resolution(S, residue_module(S), 2, dmax=S.cap + 1)
    assert len(calls) == 2
