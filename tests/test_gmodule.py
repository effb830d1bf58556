import os
import re
from functools import partial

import numpy as np
import pytest

from fiberres import jsonio, linalg
from fiberres.algebra import (
    Element,
    MonomialQuotientPresentation,
    build_monomial_quotient,
    fiber_product,
)
from fiberres.gmodule import (
    AlgMatrix,
    FreeModule,
    GradedModule,
    ModuleError,
    algebra_as_module,
    cokernel_module,
    extend,
    fiber_product_module,
    free_module_table,
    generator_terms,
    minimal_generators,
    residue_module,
    restrict_to_fiber,
    submodule_as_gmodule,
    trivial_module,
)
from fiberres.resolve import minimal_resolution

P = 32003


def tensor(module, key):
    """Action table ``key`` of a module read as its (dim A_m, dim M_n,
    dim M_(m+n)) tensor."""
    return np.asarray(module.action[key]).reshape(module.table_dims(*key))


def dense_product(a, b, p):
    """``a @ b`` mod p in int64, the reference for the package's products."""
    return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64) % p


def mono(vars_degs, rels, cap=8, commutative=True):
    names = [v for v, _ in vars_degs]
    degs = [d for _, d in vars_degs]
    return build_monomial_quotient(
        P, cap, MonomialQuotientPresentation(names, degs, rels, commutative)
    )


@pytest.fixture(scope="module")
def square_zero_pair():
    S = mono([("x", 1)], ["x^2"])
    T = mono([("y", 1)], ["y^2"])
    return S, T, fiber_product(S, T)


def test_residue_module_shape():
    A = mono([("x", 1)], ["x^2"])
    k = residue_module(A)
    assert [k.dim(n) for n in range(3)] == [1, 0, 0]
    assert k.check_associativity() == []


def test_algebra_as_module_matches_multiplication():
    A = mono([("x", 1), ("y", 1)], ["x*y"], cap=5)
    M = algebra_as_module(A)
    assert M.check_associativity() == []
    x = A.generator("x")
    deg, vec = M.act(x, 1, [1, 0])  # x * x
    assert deg == 2 and list(vec) == [1, 0]


def test_free_module_dims_and_labels():
    A = mono([("x", 1)], ["x^2"])
    F = FreeModule(A, [0, 1], ["a", "b"])
    assert F.dim(0) == 1 and F.dim(1) == 2 and F.dim(2) == 1
    assert F.pair_labels(1) == ["x*a", "b"]
    tab = free_module_table(A, [0, 1])
    assert [tab.dim(n) for n in range(3)] == [1, 2, 1]
    assert tab.check_associativity() == []


def reference_offsets(F, d):
    """Block offsets by the prefix-sum formula, recomputed on each call."""
    out, acc = [], 0
    for s in F.gen_degrees:
        out.append(acc)
        acc += F.algebra.dim(d - s)
    return out, acc


@pytest.fixture(scope="module")
def gappy_free():
    """Top degree 3 below a cap of 6, so blocks are empty both below a
    generator's degree and past the algebra's top."""
    A = mono([("x", 1), ("y", 1)], ["x^2", "y^3"], cap=6)
    return FreeModule(A, [0, 2, 5, 2, 0, 6, 6])


def test_free_module_layout_matches_prefix_sums(gappy_free):
    # the second module has runs of equal generator degrees, with empty
    # blocks inside runs and a run past the cap
    runs = FreeModule(gappy_free.algebra, [1, 1, 1, 0, 0, 3, 3, 2, 2, 2, 7, 7, 0])
    for F in (gappy_free, runs):
        for d in range(-1, F.algebra.cap + 2):
            off, total = reference_offsets(F, d)
            for _ in range(2):  # a second call reads the kept layout
                assert F.offsets(d) == off and F.dim(d) == total
            assert F._layout(d)[1].dtype == np.int64 and F._layout(d)[1].tolist() == off
            for j, s in enumerate(F.gen_degrees):
                if s == d:
                    assert F.gen_index(d, j) == off[j]


def test_free_module_shape_and_degree_errors_are_typed(gappy_free):
    F = gappy_free
    with pytest.raises(ModuleError):
        F.gen_index(3, 1)  # generator 1 has degree 2


def test_alg_matrix_evaluate_single_variable():
    A = mono([("x", 1)], [], cap=4)
    F1 = FreeModule(A, [1])
    F0 = FreeModule(A, [0])
    x = A.generator("x")
    phi = AlgMatrix(A, F1, F0, {(0, 0): x})
    mats = extend(F0, F1, phi.terms(), range(5))
    for d in range(1, 5):
        # x^{d-1} * g  ->  x^d, both sides one-dimensional
        assert mats[d].shape == (1, 1) and mats[d].dense()[0, 0] == 1
    assert mats[0].shape == (1, 0)


def test_alg_matrix_compose_and_shift():
    A = mono([("x", 1)], [], cap=6)
    F1 = FreeModule(A, [1])
    F0 = FreeModule(A, [0])
    lift = AlgMatrix(A, F1, F0, {(0, 0): A.unit()}, shift=1)
    assert extend(F0, F1, lift.terms(), [3], shift=1)[3].shape == (A.dim(2), A.dim(2))


def test_alg_matrix_rejects_wrong_degree():
    A = mono([("x", 1)], [], cap=4)
    F1 = FreeModule(A, [2])
    F0 = FreeModule(A, [0])
    x = A.generator("x")
    with pytest.raises(ModuleError, match="expected 2"):
        AlgMatrix(A, F1, F0, {(0, 0): x})


def test_restrict_to_fiber_kills_other_side(square_zero_pair):
    S, T, R = square_zero_pair
    M = algebra_as_module(S)
    MR = restrict_to_fiber(R, M, "S")
    x, y = R.generator("x"), R.generator("y")
    _, vx = MR.act(x, 0, [1])
    _, vy = MR.act(y, 0, [1])
    assert list(vx) == [1] and list(vy) == [0]
    assert MR.check_associativity() == []


@pytest.mark.parametrize("side", ["U", "T"])
def test_restrict_to_fiber_rejects_bad_input_with_typed_errors(square_zero_pair,
                                                               side):
    S, _, R = square_zero_pair
    with pytest.raises(ModuleError, match="side must be" if side == "U"
                       else "not over the fiber product's T factor"):
        restrict_to_fiber(R, algebra_as_module(S), side)


def test_cokernel_module_line_quotient(square_zero_pair):
    _, _, R = square_zero_pair
    F0 = FreeModule(R, [0])
    F1 = FreeModule(R, [1])
    el = R.element_from_string("x+y")
    phi = AlgMatrix(R, F1, F0, {(0, 0): el})
    L = cokernel_module(phi)
    assert [L.dim(n) for n in range(3)] == [1, 1, 0]
    assert L.check_associativity() == []


def test_cokernel_module_polynomial():
    A = mono([("x", 1)], [], cap=6)
    F0 = FreeModule(A, [0])
    F1 = FreeModule(A, [2])
    phi = AlgMatrix(A, F1, F0, {(0, 0): A.element_from_string("x^2")})
    L = cokernel_module(phi)
    assert [L.dim(n) for n in range(4)] == [1, 1, 0, 0]


def test_fiber_product_module_recovers_ring(square_zero_pair):
    S, T, R = square_zero_pair
    fib = fiber_product_module(R, algebra_as_module(S), algebra_as_module(T))
    assert [fib.dim(n) for n in range(3)] == [R.dim(0), R.dim(1), R.dim(2)]
    assert fib.check_associativity() == []
    x = R.generator("x")
    _, v = fib.act(x, 0, [1])
    assert list(v) == [1, 0]  # lands in the M block


def test_fiber_product_module_rank_two(square_zero_pair):
    S, T, R = square_zero_pair
    M = free_module_table(S, [0, 0])
    N = free_module_table(T, [0, 0])
    fib = fiber_product_module(R, M, N)
    assert fib.dim(0) == 2
    assert [fib.dim(n) for n in range(3)] == [2 * R.dim(0), 2 * R.dim(1), 2 * R.dim(2)]


def test_fiber_product_module_rejects_bad_degree_zero(square_zero_pair):
    S, T, R = square_zero_pair
    N = free_module_table(T, [1])  # generated in degree 1
    with pytest.raises(ModuleError, match=re.escape(
            "fiber module precondition failed: dim M_0 = dim N_0 1 vs 0")):
        fiber_product_module(R, algebra_as_module(S), N)
    with pytest.raises(ModuleError, match=re.escape(
            "fiber module precondition failed: dim M_0 = dim N_0 2 vs 1")):
        fiber_product_module(R, free_module_table(S, [0, 0]), algebra_as_module(T))


def reference_fiber_product_module(R, m_mod, n_mod):
    """The pullback built basis element by basis element: degree 0 is the
    kernel of (id, -id) on M_0 + N_0, each of its rows acted on by every
    basis element of each factor through ``act_matrix``; in degrees n >=
    1 each factor's basis elements act on their own block."""
    S, T, p = R.s_algebra, R.t_algebra, R.p
    m0, n0 = m_mod.dim(0), n_mod.dim(0)
    glue = np.hstack([np.eye(m0, dtype=np.int64), (-np.eye(n0, dtype=np.int64)) % p])
    deg0 = np.asarray(linalg.kernel(glue, p))
    basis = [[f"w{i}" for i in range(deg0.shape[0])]]
    for n in range(1, R.cap + 1):
        basis.append([f"M:{lab}" for lab in m_mod.labels(n)]
                     + [f"N:{lab}" for lab in n_mod.labels(n)])
    action = {}
    for m in range(1, R.cap + 1):
        s0, t0 = R.part("S", m).start, R.part("T", m).start
        for n in range(R.cap + 1 - m):
            arr = np.zeros((R.dim(m), len(basis[n]), len(basis[n + m])), dtype=np.int64)
            mm, mo = m_mod.dim(n), m_mod.dim(n + m)
            if n == 0:
                for x in range(len(basis[0])):
                    xm, xn = deg0[x, :m0], deg0[x, m0:]
                    for i in range(S.dim(m)):
                        arr[s0 + i, x, :mo] = (
                            xm @ m_mod.act_matrix(S.basis_element(m, i), 0)) % p
                    for i in range(T.dim(m)):
                        arr[t0 + i, x, mo:] = (
                            xn @ n_mod.act_matrix(T.basis_element(m, i), 0)) % p
            else:
                for i in range(S.dim(m)):
                    arr[s0 + i, :mm, :mo] = tensor(m_mod, (m, n))[i]
                for i in range(T.dim(m)):
                    arr[t0 + i, mm:, mo:] = tensor(n_mod, (m, n))[i]
            action[(m, n)] = arr
    return basis, action


@pytest.mark.parametrize("s_file, t_file", [("s_x2.json", "t_y2.json"),
                                            ("s_x3.json", "t_y2_cap8.json")])
@pytest.mark.parametrize("module", ["m_k.json", "m_free.json", "rank two free"])
def test_fiber_product_module_equals_the_per_basis_element_construction(
        s_file, t_file, module):
    """On the second pair the first factor is tabulated beyond R's cap."""
    S, T = (jsonio.load_algebra(os.path.join(MANIFESTS, f)) for f in (s_file, t_file))
    R = fiber_product(S, T)
    if module == "rank two free":
        M, N = free_module_table(S, [0, 0]), free_module_table(T, [0, 0])
    else:
        M, N = (jsonio.load_module(os.path.join(MANIFESTS, module), A) for A in (S, T))
    fib = fiber_product_module(R, M, N)
    basis, action = reference_fiber_product_module(R, M, N)
    assert fib.basis == basis
    assert fib.action.keys() == action.keys()
    for key, arr in action.items():
        got = tensor(fib, key)
        assert got.dtype == arr.dtype and got.shape == arr.shape, key
        assert got.tobytes() == arr.tobytes(), key


def test_fiber_product_module_rejects_not_generated_in_zero(square_zero_pair):
    S, T, R = square_zero_pair
    # k + k(-1) has a degree-1 piece no degree-0 element reaches
    N = trivial_module(T, 1)
    bad_basis = [list(N.labels(n)) for n in range(T.cap + 1)]
    bad_basis[1] = ["w"]
    action = {}
    for m in range(1, T.cap + 1):
        for n in range(0, T.cap + 1 - m):
            action[(m, n)] = np.zeros(
                (T.dim(m), len(bad_basis[n]), len(bad_basis[n + m])), dtype=np.int64
            )
    from fiberres.gmodule import GradedModule

    N2 = GradedModule(T, bad_basis, action)
    with pytest.raises(ModuleError, match=re.escape(
            "fiber module precondition failed: "
            "N generated in degree 0 (degree 1) 0 vs 1")):
        fiber_product_module(R, algebra_as_module(S), N2)


MANIFESTS = os.path.join(os.path.dirname(__file__), os.pardir, "manifests")


@pytest.mark.parametrize("ring, module, degrees", [
    ("s_x3.json", "m_kx2.json", [[0], [2], [3]]),
    ("s_x2.json", "m_free.json", [[0], [], []]),
    ("r_square_zero.json", "l_line.json", [[0], [1], [2, 2]]),
])
def test_minimal_generators_keep_resolution_degrees(ring, module, degrees):
    """Generator degrees of steps 0-2, as recorded before the three
    generator loops became one generator step."""
    A = jsonio.load_algebra(os.path.join(MANIFESTS, ring))
    M = jsonio.load_module(os.path.join(MANIFESTS, module), A)
    units = [np.eye(M.dim(d), dtype=np.int64) for d in range(A.cap + 1)]
    gens = generators_by_degree(M, units, A.cap)
    assert generator_rows(gens) == [(0, 0)]
    res = minimal_resolution(A, M, 2)
    assert [res.gen_degrees(i) for i in range(3)] == degrees


def test_minimal_generators_reports_row_index_and_echelon_row():
    A = mono([("x", 1)], ["x^3"])
    F = free_module_table(A, [0, 1])  # degree 1 basis: x*g0, g1
    rows = [np.array([[1]]), np.array([[1, 1]])]
    gens = generators_by_degree(F, rows, 1)
    assert [(d, kept.tolist(), np.asarray(new).tolist()) for d, kept, new in gens] \
        == [(0, [0], [[1]]), (1, [0], [[0, 1]])]
    units = [np.eye(F.dim(d), dtype=np.int64) for d in range(2)]
    assert generator_rows(generators_by_degree(F, units, 1)) \
        == [(0, 0), (1, 1)]


def test_submodule_as_gmodule_principal_ideal():
    A = mono([("x", 1)], ["x^3"], cap=4)
    F = FreeModule(A, [0])
    bases = {1: np.array([[1]]), 2: np.array([[1]])}
    M = submodule_as_gmodule(F, bases)
    assert [M.dim(n) for n in range(4)] == [0, 1, 1, 0]
    x = A.generator("x")
    _, v = M.act(x, 1, [1])
    assert list(v) == [1]
    _, v2 = M.act(x, 2, [1])
    assert v2.shape == (0,)


# -- minimal generators from the indecomposables -----------------------------


def weighted_ring(p, cap=8):
    """(k[x,w]/(x^3,w^2,xw), weights 1, 2) x_k (k[y,v]/(y^2,v^2), weights
    2, 3): generators in degrees 1, 2 and 3."""
    S = build_monomial_quotient(p, cap, MonomialQuotientPresentation(
        ["x", "w"], [1, 2], ["x^3", "w^2", "x*w"]))
    T = build_monomial_quotient(p, cap, MonomialQuotientPresentation(
        ["y", "v"], [2, 3], ["y^2", "v^2"]))
    return fiber_product(S, T)


def reference_left_mult(F, a, d):
    """Matrix of v -> a*v on a free module from degree d, assembled block
    by block from the algebra's left multiplication matrices."""
    out = np.zeros((F.dim(d), F.dim(d + a.degree)), dtype=np.int64)
    src_off, tgt_off = F.offsets(d), F.offsets(d + a.degree)
    for j, s in enumerate(F.gen_degrees):
        if d >= s and F.algebra.dim(d - s):
            block = F.algebra.left_mult_matrix(a, d - s)
            out[src_off[j]: src_off[j] + block.shape[0],
                tgt_off[j]: tgt_off[j] + block.shape[1]] = block
    return out


def reference_generators(algebra, rows, act, dmax):
    """The definition: span every product rows[d - m] @ act(e, d - m) over
    every basis element e of every degree m >= 1, in int64.  Row j of
    rows[d] is new when its residual against that span is independent of
    the residuals of the rows before it; its new row is that residual
    divided by its leading entry."""
    p = algebra.p
    out = []
    for d in range(dmax + 1):
        if rows[d].shape[0] == 0:
            continue
        lower, residuals = linalg.Span(p, rows[d].shape[1]), linalg.Span(p, rows[d].shape[1])
        for m in range(1, d + 1):
            for i in range(algebra.dim(m)):
                if rows[d - m].shape[0]:
                    for v in (rows[d - m] @ act(algebra.basis_element(m, i), d - m)) % p:
                        lower.add(v)
        for j, row in enumerate(rows[d]):
            res = lower.reduce(row)
            if residuals.add(res) is not None:
                out.append((d, j, res * linalg.inv_mod(res[np.flatnonzero(res)[0]], p) % p))
    return out


def generator_rows(gens):
    """(degree, row index) of each new generator, in order."""
    return [(d, j) for d, kept, _ in gens for j in kept.tolist()]


def same_generators(gens, ref):
    """``gens``, per degree, has the reference's (degree, row) pairs and
    its new rows stacked, an entry matrix read as its dense form."""
    return generator_rows(gens) == [(d, j) for d, j, _ in ref] \
        and all(np.array_equal(np.asarray(new), np.vstack([v for e, _, v in ref if e == d]))
                for d, _, new in gens)


def generators_by_degree(module, rows, dmax):
    """The window generator step on per-degree rows: ``rows[d]`` is
    placed at degree d of the module's window, and the result is read
    back per degree as ``(degree, row indices, new rows)`` for each degree
    with new generators, the row indices and new rows in degree-d
    coordinates."""
    p = module.algebra.p
    starts = module.window(dmax)
    rows = [linalg.Matrix.read(rows[d], p) for d in range(dmax + 1)]
    heights = np.cumsum([0] + [r.shape[0] for r in rows])
    parts = []
    for d, mat in enumerate(rows):
        r, c, v = mat.nonzero()
        parts.append((r + heights[d], c + starts[d], v))
    window = linalg.Matrix.placed(parts, (heights[-1], starts[-1]), p)
    degrees = np.repeat(np.arange(dmax + 1), np.diff(heights))
    kept, new = minimal_generators(module, window, degrees, dmax)
    cut = np.searchsorted(degrees[kept], np.arange(dmax + 2))
    return [(d, kept[cut[d]: cut[d + 1]] - heights[d],
             new.block(cut[d], cut[d + 1], starts[d], starts[d + 1]))
            for d in range(dmax + 1) if cut[d + 1] > cut[d]]


def dense_kernels(res, step):
    """The kernel of each degree's map out of step ``step - 1``, dense."""
    return {d: np.asarray(linalg.kernel(res.evaluated(step - 1, d), res.algebra.p))
            for d in range(res.dmax + 1)}


def test_indecomposables_of_a_weighted_ring():
    R = weighted_ring(32003)
    assert [R.labels(d)[i] for d, i in R.indecomposables] \
        == ["S:x", "S:w", "T:y", "T:v"]
    assert R.indecomposables is R.indecomposables  # computed once
    # x^2 is decomposable, so a standard-graded ring has only its variables
    A = mono([("x", 1), ("y", 1)], ["x^3", "y^2"])
    assert [A.labels(d)[i] for d, i in A.indecomposables] == ["x", "y"]
    # a degree-2 generator is kept beside the decomposable x^2
    B = mono([("x", 1), ("z", 2)], ["x^3"], cap=6)
    assert [B.labels(d)[i] for d, i in B.indecomposables] == ["x", "z"]


@pytest.mark.parametrize("p", [2, 3, 65521])
@pytest.mark.parametrize("module", ["residue", "free rank 2"])
def test_minimal_generators_match_the_definition(p, module):
    R = weighted_ring(p)
    M = residue_module(R) if module == "residue" else free_module_table(R, [0, 1])
    units = [np.eye(M.dim(d), dtype=np.int64) for d in range(R.cap + 1)]
    gens = generators_by_degree(M, units, R.cap)
    assert same_generators(gens, reference_generators(R, units, M.act_matrix, R.cap))
    res = minimal_resolution(R, M, 4)
    assert [d for d, _ in generator_rows(gens)] == res.gen_degrees(0)
    for step in range(1, 5):
        kers = dense_kernels(res, step)
        free = res.frees[step - 1]
        assert same_generators(generators_by_degree(free, kers, R.cap),
                               reference_generators(R, kers, partial(reference_left_mult, free),
                                                    R.cap))


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_free_module_times_matches_the_dense_product(p):
    """R has dims 1, 1, 3, 1, 0, 1 in degrees 0-5, so the generators of
    degrees 0-6 include ones whose source block is empty (deg g > n) and
    ones whose target block is empty (n + m - deg g = 4) while the
    source block is not."""
    R = weighted_ring(p)
    F = FreeModule(R, [0, 0, 1, 2, 3, 6])
    rng = np.random.default_rng(p)
    for n in range(R.cap + 1):
        for m in range(1, R.cap + 1 - n):
            for i in range(R.dim(m)):
                a = R.basis_element(m, i)
                for r in (0, 3):
                    rows = rng.integers(0, p, (r, F.dim(n)))
                    assert np.array_equal(
                        F.times(rows, a, n),
                        dense_product(rows, reference_left_mult(F, a, n), p))


def test_unit_coordinates_leave_out_generators_above_the_cap():
    A = build_monomial_quotient(7, 3, MonomialQuotientPresentation(["x"], [1], ["x^3"], True))
    F = FreeModule(A, [0, 4, 2, 5, 1])
    gens, coords = F.unit_coordinates
    assert gens.tolist() == [0, 2, 4]
    starts = F.window(A.cap)
    degrees, found = F.window_generators(coords)
    assert found.tolist() == gens.tolist()
    assert degrees.tolist() == [0, 2, 1]
    for j, c, d in zip(gens.tolist(), coords.tolist(), degrees.tolist()):
        assert c == starts[d] + F.gen_index(d, j)


@pytest.mark.parametrize("p", [3, 32003])
def test_window_times_matches_the_dense_window_product(p):
    """Over the window of degrees 0..dmax, a free module's and a module
    table's ``window_times`` is the product with the block matrix of
    ``act_matrix``/the dense left multiplication, what lands past dmax
    dropped; rows whose every product lands past dmax give zero rows."""
    R = weighted_ring(p)
    F = FreeModule(R, [0, 0, 1, 2, 3, 6])
    M = free_module_table(R, [0, 1])
    rng = np.random.default_rng(p)
    for module, act in ((F, partial(reference_left_mult, F)), (M, M.act_matrix)):
        for dmax in (2, R.cap):
            starts = module.window(dmax)
            for m in range(1, R.cap + 1):
                for i in range(R.dim(m)):
                    a = R.basis_element(m, i)
                    want = np.zeros((starts[-1], starts[-1]), dtype=np.int64)
                    for n in range(dmax + 1 - m):
                        want[starts[n]: starts[n + 1], starts[n + m]: starts[n + m + 1]] = \
                            act(a, n)
                    n = starts[-1]
                    rows = rng.integers(1, p, (5, n)) * (rng.random((5, n)) < 0.3)
                    rows[0] = 0
                    rows[1, : starts[max(dmax + 1 - m, 0)]] = 0  # lands past dmax only
                    got = module.window_times(rows, a, dmax)
                    assert got.shape == (5, starts[-1])
                    assert np.array_equal(got, dense_product(rows, want, p))
                    assert not np.asarray(got)[:2].any()
                    assert not module.window_times(rows[1:2], a, dmax).nnz


@pytest.fixture(params=["sparse everything", "default crossover"])
def sparse_cells(request, monkeypatch):
    """Run each test with all rows kept as their nonzero entries, and
    again with ``linalg``'s storage rule, below which rows are dense
    blocks and dense products run."""
    cells = 0 if request.param == "sparse everything" else linalg.STORAGE_MIN_CELLS
    monkeypatch.setattr(linalg, "STORAGE_MIN_CELLS", cells)
    return cells


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_free_module_times_reads_only_the_nonzero_entries(p, sparse_cells):
    """Sparse rows, zero rows among them, against the dense product.  In
    degree n = 4 the generators of degree 0 have empty blocks (dim R_4 =
    0) that start where the next generator's block does, so an entry
    there must be charged to that next generator."""
    R = weighted_ring(p)
    F = FreeModule(R, [0, 4, 0, 1, 2, 3, 3, 6, 5])
    rng = np.random.default_rng(1000 + p)
    for n in range(R.cap + 1):
        for m in range(1, R.cap + 1 - n):
            for i in range(R.dim(m)):
                a = R.basis_element(m, i)
                rows = rng.integers(1, p, (6, F.dim(n))) * (rng.random((6, F.dim(n))) < 0.2)
                rows[rng.integers(0, 6)] = 0
                assert np.array_equal(
                    F.times(rows, a, n),
                    dense_product(rows, reference_left_mult(F, a, n), p))


def random_submodule_rows(rng, F, p):
    """Per degree, rows spanning a random submodule of F: a few sparse
    generators, every product of the lower generators with a basis
    element, and rows that only restate that span (zero rows, repeated
    rows, and combinations of two generators, which share their
    columns), in shuffled order."""
    A = F.algebra
    gens, rows = {}, []
    for d in range(A.cap + 1):
        n = F.dim(d)
        own = gens[d] = rng.integers(1, p, (3, n)) * (rng.random((3, n)) < 0.3)
        parts = [own, np.zeros((2, n), dtype=np.int64), own[:2],
                 (own[:1] + rng.integers(1, p) * own[1:2]) % p]
        parts += [gens[d - e] @ reference_left_mult(F, A.basis_element(e, i), d - e) % p
                  for e in range(1, d + 1) for i in range(A.dim(e))]
        block = np.vstack(parts)
        rows.append(block[rng.permutation(len(block))])
    return rows


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimal_generators_match_the_definition_on_random_rows(p, seed, sparse_cells,
                                                               monkeypatch):
    """Rows whose residuals share columns are kept by the echelon form of
    their transpose, and the rest by their residual alone; together they
    must give what the definition gives, row for row."""
    R = weighted_ring(p)
    F = FreeModule(R, [0, 0, 1, 2, 3])
    rows = random_submodule_rows(np.random.default_rng([seed, p]), F, p)
    residuals = []
    reduce_rows = linalg.reduce_rows
    monkeypatch.setattr(linalg, "reduce_rows",
                        lambda *args: residuals.append(reduce_rows(*args)) or residuals[-1])
    gens = generators_by_degree(F, rows, R.cap)
    monkeypatch.undo()
    assert any((np.count_nonzero(np.asarray(res), axis=0) > 1).any() for res in residuals), \
        "no residual rows shared a column"
    assert same_generators(gens, reference_generators(R, rows, partial(reference_left_mult, F),
                                                      R.cap))


def test_a_step_eliminates_all_its_products_at_once(monkeypatch):
    """The lower span of every degree is one ``linalg.echelon`` of the
    products with every indecomposable stacked: per indecomposable g, the
    rows whose products land on a degree with rows, times g over the
    window.  On the unit rows of a free module each residual is a unit
    row, so no two share a column and the one elimination is of the lower
    span."""
    R = weighted_ring(3)
    M = free_module_table(R, [0, 1])
    starts = M.window(R.cap)
    degrees = np.repeat(np.arange(R.cap + 1), np.diff(starts))
    assert len(R.indecomposables) == 4  # x, w, y and v, found before the count starts
    eliminated = []
    echelon = linalg.echelon
    monkeypatch.setattr(linalg, "echelon",
                        lambda mat, q: eliminated.append(np.asarray(mat)) or echelon(mat, q))
    minimal_generators(M, np.eye(starts[-1], dtype=np.int64), degrees, R.cap)
    monkeypatch.undo()
    stacks = []
    for e, i in R.indecomposables:
        act = np.zeros((starts[-1], starts[-1]), dtype=np.int64)
        for n in range(R.cap + 1 - e):
            act[starts[n]: starts[n + 1], starts[n + e]: starts[n + e + 1]] = \
                M.act_matrix(R.basis_element(e, i), n)
        hit = [r for r in range(starts[-1]) if degrees[r] + e <= R.cap and M.dim(degrees[r] + e)]
        if hit:
            stacks.append(act[hit])
    assert len(stacks) == 4  # all four act
    assert len(eliminated) == 1 and np.array_equal(eliminated[0], np.vstack(stacks))


@pytest.mark.parametrize("p", [3, 65521])
def test_act_equals_the_product_with_act_matrix_on_a_random_module(p):
    """``act`` contracts the vector without building the action matrix;
    on a random submodule of a free module it must give what the
    matrix gives, for every element degree (0 included) and every
    source degree the cap allows."""
    R = weighted_ring(p)
    F = FreeModule(R, [0, 1])
    rng = np.random.default_rng(p)
    rows = random_submodule_rows(rng, F, p)
    M = submodule_as_gmodule(F, {d: np.asarray(linalg.echelon(r, p)[0])
                                 for d, r in enumerate(rows)})
    for m in range(R.cap + 1):
        a = Element(R, m, rng.integers(0, p, R.dim(m)))
        for n in range(R.cap + 1 - m):
            v = rng.integers(0, p, M.dim(n))
            deg, img = M.act(a, n, v)
            assert deg == n + m
            assert np.array_equal(img, v @ M.act_matrix(a, n) % p)
    with pytest.raises(ModuleError, match="beyond cap"):
        M.act(R.basis_element(1, 0), R.cap, np.zeros(M.dim(R.cap), dtype=np.int64))


@pytest.mark.parametrize("p", [3, 65521])
def test_a_submodule_eliminates_each_target_degree_once(p, monkeypatch):
    """``submodule_as_gmodule`` keeps one elimination per target degree
    of its action and reuses it for every (element degree, source degree)
    landing there; its action tensors equal solves on the basis each
    time."""
    R = weighted_ring(p)
    F = FreeModule(R, [0, 1])
    rows = {d: np.asarray(linalg.echelon(r, p)[0]) for d, r in
            enumerate(random_submodule_rows(np.random.default_rng(p), F, p))}
    built, solves = [], []
    real_init, real_solve = linalg.Elimination.__init__, linalg.solve
    monkeypatch.setattr(linalg.Elimination, "__init__",
                        lambda self, mat, q: built.append(mat) or real_init(self, mat, q))
    monkeypatch.setattr(linalg, "solve",
                        lambda mat, rhs, q: solves.append(1) or real_solve(mat, rhs, q))
    M = submodule_as_gmodule(F, rows)
    assert 0 < len(built) <= R.cap < len(solves)  # target degrees 1..cap
    monkeypatch.undo()
    for m, n in M.action:
        for i in range(R.dim(m)):
            imgs = np.asarray(F.times(rows[n], R.basis_element(m, i), n))
            want = (np.zeros((len(imgs), len(rows[n + m])), dtype=np.int64) if not imgs.any()
                    else linalg.solve(rows[n + m].T, imgs.T, p).T)
            assert np.array_equal(tensor(M, (m, n))[i], want), (m, n, i)


def test_minimal_generators_read_each_kernel_matrix_once(sparse_cells, monkeypatch):
    """The products of a step's window kernel with the indecomposables and
    the reduction of its rows share one ``linalg.entries`` read; with
    every matrix read sparse, the kernel is read exactly once."""
    R = weighted_ring(5003)
    res = minimal_resolution(R, residue_module(R), 4)
    reads = []
    real = linalg.entries
    monkeypatch.setattr(linalg, "entries", lambda mat: reads.append(mat) or real(mat))
    for step in range(1, 5):
        free = res.frees[step - 1]
        kernel = np.asarray(linalg.kernel(res.window_map(step - 1), R.p))
        degrees = free.window(res.dmax).searchsorted((kernel != 0).argmax(axis=1), "right") - 1
        reads.clear()
        kept, _ = minimal_generators(free, kernel, degrees, res.dmax)
        assert degrees[kept].tolist() == res.gen_degrees(step)
        count = sum(mat is kernel for mat in reads)
        assert count <= 1
        if sparse_cells == 0:
            assert count == 1


def entry_rows(rows, p):
    return [linalg.Matrix.read(r, p) for r in rows]


@pytest.mark.parametrize("p", [2, 3, 65521])
@pytest.mark.parametrize("seed", [0, 1])
def test_minimal_generators_of_entry_rows_match_the_definition(p, seed, sparse_cells):
    """The same random submodule rows, handed over in entry form, give
    the definition's generators; with every matrix taken in entry form,
    each degree's new rows are an entry matrix, one row per row index."""
    R = weighted_ring(p)
    F = FreeModule(R, [0, 0, 1, 2, 3])
    rows = random_submodule_rows(np.random.default_rng([seed, p, 1]), F, p)
    gens = generators_by_degree(F, entry_rows(rows, p), R.cap)
    if sparse_cells == 0:
        assert all(not new.kept_dense and new.shape[0] == kept.size
                   for _, kept, new in gens)
    assert same_generators(gens, reference_generators(
        R, rows, partial(reference_left_mult, F), R.cap))


@pytest.mark.parametrize("p", [3, 65521])
def test_minimal_generators_of_entry_kernels_match_the_definition(p, sparse_cells):
    """Each step's kernels in entry form, as the resolution hands them on,
    against the definition on the same kernels made dense."""
    R = weighted_ring(p)
    res = minimal_resolution(R, residue_module(R), 4)
    for step in range(1, 5):
        kers = [linalg.kernel(res.evaluated(step - 1, d), p) for d in range(res.dmax + 1)]
        free = res.frees[step - 1]
        gens = generators_by_degree(free, kers, R.cap)
        assert [d for d, _ in generator_rows(gens)] == res.gen_degrees(step)
        assert same_generators(gens, reference_generators(
            R, [k.dense() for k in kers], partial(reference_left_mult, free), R.cap))


@pytest.mark.parametrize("p", [3, 65521])
def test_kept_maps_equal_the_dense_extension(p, sparse_cells):
    """Every evaluated differential of the weighted ring, kept dense below
    ``linalg.STORAGE_MIN_CELLS`` cells and as entries from there on, is
    the extension of its terms into a dense block."""
    R = weighted_ring(p)
    res = minimal_resolution(R, residue_module(R), 5)
    for i in range(1, 6):
        for d in range(res.dmax + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linalg, "STORAGE_MIN_CELLS", 1 << 62)
                ref = extend(res.frees[i - 1], res.frees[i], res.terms[i], [d])[d]
            assert ref.kept_dense
            kept = res.evaluated(i, d)
            assert kept.kept_dense == (ref.size < sparse_cells)
            if not kept.kept_dense:
                rows, cols, vals = kept.nonzero()
                key = rows * kept.shape[1] + cols
                assert np.all(np.diff(key) > 0) and np.all((vals >= 1) & (vals < p))
            assert np.array_equal(kept.dense(), ref.dense())


def test_resolution_is_the_same_read_sparse_or_dense(monkeypatch):
    """The sparse and the dense products give one resolution, term for
    term, over the kernels of a real resolution."""
    R = weighted_ring(5003)
    M = residue_module(R)
    built = []
    for cells in (0, 1 << 40):
        monkeypatch.setattr(linalg, "STORAGE_MIN_CELLS", cells)
        res = minimal_resolution(R, M, 5)
        built.append([{k: [a.tolist() for a in v] for k, v in t.items()}
                      for t in res.terms[1:]])
    assert built[0] == built[1] and built[0][-1]


# -- the one module-linear extension -------------------------------------------


def reference_evaluate(mat, d):
    """Per-entry evaluation of an AlgMatrix in degree d: entry (i, j)
    fills its block with the matrix of x -> x * entry, through
    ``right_mult_matrix``."""
    A, p = mat.algebra, mat.algebra.p
    rows, cols = mat.tgt.dim(d - mat.shift), mat.src.dim(d)
    out = np.zeros((rows, cols), dtype=np.int64)
    if rows == 0 or cols == 0:
        return out
    src_off, tgt_off = mat.src.offsets(d), mat.tgt.offsets(d - mat.shift)
    for (i, j), c in mat.entries.items():
        da = d - mat.src.gen_degrees[j]
        if da < 0 or A.dim(da) == 0:
            continue
        rm = A.right_mult_matrix(da, c)  # (dim da, dim da+e)
        out[tgt_off[i]: tgt_off[i] + rm.shape[1],
            src_off[j]: src_off[j] + rm.shape[0]] += rm.T
    return out % p


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


def random_map(rng, A, src, tgt, shift):
    """An AlgMatrix src -> tgt with about half of its entries nonzero."""
    entries = {}
    for i, t in enumerate(tgt.gen_degrees):
        for j, s in enumerate(src.gen_degrees):
            e = s - t - shift
            if A.dim(e) and rng.random() < 0.6:
                entries[(i, j)] = Element(A, e, rng.integers(0, A.p, A.dim(e)))
    return AlgMatrix(A, src, tgt, entries, shift)


def stacked_terms(maps):
    """The terms of several maps with one source and target, as a batch."""
    out = {}
    for b, mat in enumerate(maps):
        for key, (tg, sg, _, coef) in mat.terms().items():
            out.setdefault(key, []).append((tg, sg, np.full(len(tg), b), coef))
    return {key: tuple(np.concatenate(cols) for cols in zip(*parts))
            for key, parts in out.items()}


def term_entries(terms):
    """{(target, source generator): (entry degree, coefficients)} of one
    map's terms."""
    out = {}
    for (_, e), (tg, sg, _, coef) in terms.items():
        for i, j, c in zip(tg.tolist(), sg.tolist(), coef):
            assert (i, j) not in out
            out[(i, j)] = (e, c.tolist())
    return out


def nc_ring():
    """k<x, y>/(x^2, y^2, yx) at p = 5: x*y is the only nonzero product."""
    return build_monomial_quotient(5, 4, MonomialQuotientPresentation(
        ["x", "y"], [1, 1], ["x^2", "y^2", "y*x"], False))


def weighted_fiber(p):
    """(k[x,w]/(x^3,w^2,xw), weights 1, 2) x_k k[y]/(y^2): the first factor
    has no degree 3, so some products land in a zero space."""
    S = build_monomial_quotient(p, 6, MonomialQuotientPresentation(
        ["x", "w"], [1, 2], ["x^3", "w^2", "x*w"]))
    T = build_monomial_quotient(p, 6, MonomialQuotientPresentation(["y"], [1], ["y^2"]))
    return fiber_product(S, T)


def extend_cases():
    yield "nc", nc_ring()
    for p in (2, 3, 65521):
        yield p, weighted_fiber(p)


@pytest.mark.parametrize("shift", [0, 1, 2])
@pytest.mark.parametrize("ring", list(extend_cases()), ids=lambda c: str(c[0]))
def test_extend_equals_the_per_entry_evaluation(ring, shift):
    """Single maps and batches of three, with unit and zero entries and
    generators whose blocks are empty in some degrees."""
    A = ring[1]
    rng = np.random.default_rng(A.p + shift)
    src, tgt = FreeModule(A, [0, 1, 1, 2, 3, 5]), FreeModule(A, [0, 0, 1, 2])
    degrees = range(A.cap + shift + 1)
    for _ in range(4):
        maps = [random_map(rng, A, src, tgt, shift) for _ in range(3)]
        got = extend(tgt, src, maps[0].terms(), degrees, shift)
        batch = extend(tgt, src, stacked_terms(maps), degrees, shift, batch=3)
        for d in degrees:
            want, mat = reference_evaluate(maps[0], d), got[d].dense()
            assert mat.dtype == want.dtype and mat.tobytes() == want.tobytes(), d
            assert np.array_equal(batch[d], np.vstack(
                [reference_evaluate(m, d) for m in maps])), d


@pytest.mark.parametrize("side", ["S", "T"])
@pytest.mark.parametrize("p", [2, 3, 65521])
def test_extend_with_a_side_precomposes_the_coefficient_projection(p, side):
    R = weighted_fiber(p)
    fac = R.s_algebra if side == "S" else R.t_algebra
    rng = np.random.default_rng(p)
    src, tgt = FreeModule(R, [0, 1, 2, 2, 4]), FreeModule(fac, [0, 1])
    twin = FreeModule(fac, src.gen_degrees)
    for shift in (0, 1):
        mat = random_map(rng, fac, twin, tgt, shift)
        got = extend(tgt, src, mat.terms(), range(R.cap + 1), shift, side=side)
        for d in range(R.cap + 1):
            want = (reference_evaluate(mat, d) @ reference_projection(src, twin, d, side)) % p
            assert np.array_equal(got[d], want), (shift, d)


@pytest.mark.parametrize("ring", list(extend_cases()), ids=lambda c: str(c[0]))
def test_generator_terms_read_back_the_entries(ring):
    """Dense generator images of a batch of maps, turned into terms,
    give back each map's entries."""
    A = ring[1]
    rng = np.random.default_rng(A.p)
    src, tgt = FreeModule(A, [1, 1, 2, 3]), FreeModule(A, [0, 1])
    for shift in (0, 1):
        maps = [random_map(rng, A, src, tgt, shift) for _ in range(2)]
        images = []
        for s, gens in src.by_degree.items():
            cols = [reference_evaluate(m, s)[:, src.block_indices(s, gens)] for m in maps]
            images.append((s, gens, np.hstack(cols)))
        terms = generator_terms(tgt, images, shift)
        for b, mat in enumerate(maps):
            one = {key: tuple(a[bt == b] for a in (tg, sg, bt, coef))
                   for key, (tg, sg, bt, coef) in terms.items()}
            assert term_entries(one) == {
                key: (el.degree, el.vec.tolist()) for key, el in mat.entries.items()}


def test_graded_module_rejects_bad_tables():
    A = mono([("x", 1)], ["x^2"], cap=2)
    k = residue_module(A)
    with pytest.raises(ModuleError, match="2 basis degrees, expected cap"):
        GradedModule(A, k.basis[:2], k.action)
    bad = {**k.action, (1, 0): np.zeros((1, 2, 1), dtype=np.int64)}
    with pytest.raises(ModuleError, match=re.escape(
            "action tensor (1, 0) has shape (1, 2, 1), expected (1, 1, 0)")):
        GradedModule(A, k.basis, bad)
    with pytest.raises(ModuleError, match=re.escape("missing action tensor (1, 1)")):
        GradedModule(A, k.basis, {key: v for key, v in k.action.items()
                                  if key != (1, 1)})


def test_free_module_and_maps_reject_bad_input(square_zero_pair):
    S, T, R = square_zero_pair
    with pytest.raises(ModuleError, match="negative generator degree"):
        FreeModule(S, [0, -1])
    with pytest.raises(ModuleError, match="1 labels for 2 generators"):
        FreeModule(S, [0, 1], ["g"])
    lift = AlgMatrix(S, FreeModule(S, [1]), FreeModule(S, [0]),
                     {(0, 0): S.unit()}, shift=1)
    with pytest.raises(ModuleError, match="shift 1"):
        cokernel_module(lift)
    with pytest.raises(ModuleError, match="M must be over the S factor"):
        fiber_product_module(R, algebra_as_module(T), algebra_as_module(T))


def sequential_cokernel_action(phi):
    """Reference: the quotient basis and action of ``cokernel_module``,
    reducing a vector against one echelon row at a time and finding each
    row's pivot by a scan."""
    A, free, p = phi.algebra, phi.tgt, phi.algebra.p
    rows, free_cols = [], []
    for d in range(A.cap + 1):
        img = reference_evaluate(phi, d).T
        R, pivots = linalg.echelon(img, p)
        rows.append(np.asarray(R))
        free_cols.append([c for c in range(free.dim(d)) if c not in pivots])

    def project(vec, d):
        v = np.asarray(vec, dtype=np.int64) % p
        for r in rows[d]:
            c = int(np.nonzero(r)[0][0])
            if v[c]:
                v = (v - v[c] * r) % p
        return v[free_cols[d]]

    action = {}
    for m in range(1, A.cap + 1):
        for n in range(A.cap + 1 - m):
            arr = np.zeros((A.dim(m), len(free_cols[n]), len(free_cols[n + m])),
                           dtype=np.int64)
            for i in range(A.dim(m)):
                L = reference_left_mult(free, A.basis_element(m, i), n)
                for x, c in enumerate(free_cols[n]):
                    arr[i, x] = project(L[c], n + m)
            action[(m, n)] = arr
    labels = [[free.pair_labels(d)[c] for c in free_cols[d]] for d in range(A.cap + 1)]
    return labels, action


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_cokernel_module_equals_the_sequential_projection(p):
    S = build_monomial_quotient(p, 5, MonomialQuotientPresentation(["x"], [1], ["x^3"]))
    T = build_monomial_quotient(p, 5, MonomialQuotientPresentation(["y"], [1], ["y^2"]))
    R = fiber_product(S, T)
    el = R.element_from_string
    phi = AlgMatrix(R, FreeModule(R, [1, 1, 2]), FreeModule(R, [0, 0]),
                    {(0, 0): el("x+y"), (1, 0): el("x"), (0, 1): el("2*y"),
                     (1, 1): el("x-y"), (0, 2): el("x^2")})
    L = cokernel_module(phi)
    labels, action = sequential_cokernel_action(phi)
    assert L.basis == labels
    assert L.action.keys() == action.keys()
    assert all(np.array_equal(tensor(L, k), action[k]) for k in action)
    assert L.check_associativity() == []


def test_a_matrix_action_table_is_kept_and_a_tensor_is_read_mod_p():
    """As for algebras: a ``linalg.Matrix`` action table is held as it
    is; a tensor (a list or an entry outside [0, p)) is read mod p into a
    Matrix of the same cells."""
    A = build_monomial_quotient(5, 2, MonomialQuotientPresentation(["x"], [1], []))
    basis = [["m"], ["xm"], ["x2m"]]
    action = {key: linalg.Matrix.identity(1) for key in ((1, 0), (1, 1), (2, 0))}
    M = GradedModule(A, basis, action)
    assert all(M.action[key] is arr for key, arr in action.items())
    for other in ([[[1]]], np.array([[[6]]], dtype=np.int64), np.array([[[-4]]], dtype=np.int64)):
        N = GradedModule(A, basis, {**action, (1, 1): other})
        assert np.asarray(N.action[(1, 1)]).tolist() == [[1]]
