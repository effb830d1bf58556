import tracemalloc
from collections import Counter

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
    GradedModule,
    algebra_as_module,
    cokernel_module,
    residue_module,
    restrict_to_fiber,
)
from fiberres import linalg, resolve
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
    def unit_cover_as_syzygy(algebra, rows, times, dmax):
        # the kernel steps: the generator of degree 0 maps to the unit
        return [(0, np.array([0]), np.array([[1]], dtype=np.int64))]

    monkeypatch.setattr(resolve, "minimal_generators_by_degree", unit_cover_as_syzygy)
    with pytest.raises(ResolutionError, match="non-minimal differential entry "
                                              "at step 1, degree 0"):
        minimal_resolution(A, residue_module(A), 2)


# -- one evaluation and one rank per map; named failures -----------------------


def cube_square():
    return fiber_product(mono([("x", 1)], ["x^3"]), mono([("y", 1)], ["y^2"]))


def test_each_map_is_evaluated_and_ranked_once(monkeypatch):
    """minimal_resolution keeps the matrices it evaluates for its kernels,
    and verify_complex ranks each of them once, in the form it is kept
    in.  Each differential is extended one degree per call."""
    evaluated, ranked = Counter(), []
    real_extend, real_rank = resolve.extend, linalg.rank

    def extend(ftgt, fsrc, terms, degrees, *args, **kwargs):
        for d in degrees:
            evaluated[(id(fsrc), d)] += 1
        return real_extend(ftgt, fsrc, terms, degrees, *args, **kwargs)

    def rank(mat, p):
        ranked.append(mat)
        return real_rank(mat, p)

    monkeypatch.setattr(resolve, "extend", extend)
    monkeypatch.setattr(linalg, "rank", rank)
    R = cube_square()
    res = minimal_resolution(R, residue_module(R), 4)
    assert verify_complex(res).ok
    assert max(evaluated.values()) == 1
    step = {id(F): i for i, F in enumerate(res.frees)}
    assert sorted((step[f], d) for f, d in evaluated) == [  # steps 1-4, every degree
        (i, d) for i in range(1, 5) for d in range(res.dmax + 1)]
    assert len(ranked) == 5 * (res.dmax + 1)  # the cover and steps 1-4
    for i in range(1, 5):
        for d in range(res.dmax + 1):
            kept = res.evaluated(i, d)
            assert sum(mat is kept for mat in ranked) == 1


def test_an_empty_degree_is_neither_evaluated_nor_eliminated(monkeypatch):
    """Over k[x]/(x^2) x_k k[y]/(y^2), F_i lives in degrees i and i + 1
    only: the builder evaluates and takes a kernel of a map out of F_i only
    there, the Betti table is 2^i in degree i, and every kept map equals
    the differential extended afresh from its terms."""
    evaluated, kernels = [], []
    real_extend, real_kernel = resolve.extend, linalg.kernel

    def recording_extend(ftgt, fsrc, terms, degrees, *args, **kwargs):
        evaluated.extend((fsrc, d) for d in degrees)
        return real_extend(ftgt, fsrc, terms, degrees, *args, **kwargs)

    def kernel(mat, p):
        kernels.append(mat.shape)
        return real_kernel(mat, p)

    monkeypatch.setattr(resolve, "extend", recording_extend)
    monkeypatch.setattr(linalg, "kernel", kernel)
    R = fiber_product(mono([("x", 1)], ["x^2"], cap=10), mono([("y", 1)], ["y^2"], cap=10))
    res = minimal_resolution(R, residue_module(R), 6)
    step = {id(F): i for i, F in enumerate(res.frees)}
    assert sorted((step[id(F)], d) for F, d in evaluated) == [
        (i, d) for i in range(1, 6) for d in (i, i + 1)]
    assert len(kernels) == 2 * 6 and all(n for _, n in kernels)  # steps 1-6
    assert res.betti() == {(i, i): 2 ** i for i in range(7)}
    for i in range(1, 6):
        for d in (i, i + 1):
            want = extend(res.frees[i - 1], res.frees[i], res.terms[i], [d])[d]
            assert np.array_equal(res.evaluated(i, d).dense(), want.dense())
    assert verify_complex(res).ok


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
    R = cube_square()
    res = minimal_resolution(R, residue_module(R), 3)
    kept = res.evaluated(2, 3)
    assert kept.kept_dense != entry_form
    mat = kept.dense()
    mat[0, 0] = (mat[0, 0] + 1) % R.p
    tampered = res._ev_cache[2, 3] = linalg.Matrix.read(mat, R.p)
    assert tampered.kept_dense == kept.kept_dense
    d2, d3 = (extend(res.frees[i - 1], res.frees[i], res.terms[i], [3])[3] for i in (2, 3))
    assert not linalg.matmul(d2, d3, R.p).nnz
    assert failures(res) == [("d2 o d3 = 0", "degrees [3], generator pairs []")]


def test_d_squared_is_checked_on_the_evaluated_matrices():
    """A tampered evaluation fails d o d although the algebra-level
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
    N = GradedModule(S, M.basis, {key: 0 * arr for key, arr in M.action.items()})
    with sharing():
        rm, rn = minimal_resolution(S, M, 2), minimal_resolution(S, N, 2)
        assert rm is not rn
        assert (rm.rank(0), rn.rank(0)) == (1, 2)


def test_no_scope_builds_every_call():
    S = mono([("x", 1)], ["x^2"], cap=6)
    k = residue_module(S)
    assert minimal_resolution(S, k, 3) is not minimal_resolution(S, k, 3)
    assert shared("key", list) is not shared("key", list)
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
