import copy

import numpy as np
import pytest

from fiberres import extalg, linalg
from fiberres.algebra import (
    Element,
    GradedAlgebra,
    MonomialQuotientPresentation,
    build_monomial_quotient,
    fiber_product,
    right_product,
)
from fiberres.extalg import (
    ExtError,
    FreeProductModule,
    ext_algebra,
    ext_module,
    free_product,
    free_product_module,
    koszul_check,
    off_diagonal,
    verify_phi_iso,
    verify_theta_iso,
)
from fiberres.gmodule import (
    AlgMatrix,
    FreeModule,
    algebra_as_module,
    cokernel_module,
    residue_module,
    trivial_module,
)
from fiberres.resolve import minimal_resolution
from fiberres.series import coproduct_module_series
from fiberres.wordres import Letter, generate_words

P = 32003


def mono(vars_degs, rels, cap=8, commutative=True):
    names = [v for v, _ in vars_degs]
    degs = [d for _, d in vars_degs]
    return build_monomial_quotient(
        P, cap, MonomialQuotientPresentation(names, degs, rels, commutative)
    )


def quotient_by_power(A, gen, power, degree):
    g = A.generator(gen)
    el = g
    for _ in range(power - 1):
        el = el * g
    return cokernel_module(
        AlgMatrix(A, FreeModule(A, [degree * power], ["a"]),
                  FreeModule(A, [0], ["b"]), {(0, 0): el})
    )


def test_ext_algebra_of_dual_numbers_is_polynomial():
    A = mono([("x", 1)], ["x^2"], cap=8)
    E = ext_algebra(A, 6)
    assert [E.dim(n) for n in range(7)] == [1] * 7
    # class a in degree i has the internal degree of its dual generator
    assert [E.resolution.gen_degrees(i) for i in range(7)] == [[n] for n in range(7)]
    # one class per degree and every product of classes is the class
    for m in range(1, 6):
        for n in range(1, 7 - m):
            assert np.asarray(E.mult[(m, n)]).ravel().tolist() == [1]
    assert E.check_associativity() == []


def test_ext_algebra_of_cubic_hypersurface():
    A = mono([("x", 1)], ["x^3"], cap=10)
    E = ext_algebra(A, 6, 10)
    assert sorted(E.resolution.betti().items()) == [
        ((0, 0), 1), ((1, 1), 1), ((2, 3), 1), ((3, 4), 1),
        ((4, 6), 1), ((5, 7), 1), ((6, 9), 1),
    ]
    # the degree-1 class squares to zero; multiplying by the degree-2
    # class is injective in this window
    assert np.asarray(E.mult[(1, 1)]).ravel().tolist() == [0]
    assert np.asarray(E.mult[(1, 2)]).ravel().tolist() == [1]
    assert np.asarray(E.mult[(2, 1)]).ravel().tolist() == [1]
    assert np.asarray(E.mult[(2, 2)]).ravel().tolist() == [1]
    assert E.check_associativity() == []


def test_ext_dims_equal_betti_numbers():
    A = mono([("x", 1), ("y", 1)], ["x*y"], cap=6)
    res = minimal_resolution(A, residue_module(A), 5)
    E = ext_algebra(A, 5, resolution=res)
    assert [E.dim(n) for n in range(6)] == [res.rank(n) for n in range(6)]
    assert [E.dim(n) for n in range(6)] == [1, 2, 2, 2, 2, 2]
    assert E.check_associativity() == []


def test_ext_module_of_residue_field_is_the_regular_module():
    A = mono([("x", 1)], ["x^3"], cap=10)
    E = ext_algebra(A, 6, 10)
    M = ext_module(A, residue_module(A), 6, 10, ext=E)
    assert [M.dim(n) for n in range(7)] == [1] * 7
    for m in range(1, 6):
        for n in range(1, 7 - m):
            assert np.array_equal(M.action[(m, n)], E.mult[(m, n)])
    assert M.check_associativity() == []


def test_ext_module_of_quotient_module():
    A = mono([("x", 1)], ["x^3"], cap=10)
    M = quotient_by_power(A, "x", 2, 1)
    EM = ext_module(A, M, 6, 10)
    assert [EM.dim(n) for n in range(7)] == [1] * 7
    assert [EM.resolution.gen_degrees(i) for i in range(7)] == [
        [0], [2], [3], [5], [6], [8], [9]]
    assert EM.check_associativity() == []


def test_ext_module_of_free_module_sits_in_degree_zero():
    A = mono([("x", 1)], ["x^3"], cap=10)
    EM = ext_module(A, algebra_as_module(A), 4, 10)
    assert [EM.dim(n) for n in range(5)] == [1, 0, 0, 0, 0]


def test_ext_algebra_rejects_other_resolutions():
    A = mono([("x", 1)], ["x^2"], cap=8)
    res = minimal_resolution(A, trivial_module(A, 2), 4)
    with pytest.raises(ExtError):
        ext_algebra(A, 4, resolution=res)


def test_free_product_of_polynomial_ext_algebras():
    S = mono([("x", 1)], ["x^2"], cap=8)
    T = mono([("y", 1)], ["y^2"], cap=8)
    ES, ET = ext_algebra(S, 6), ext_algebra(T, 6)
    FP = free_product(ES, ET, 6)
    assert [FP.dim(n) for n in range(7)] == [1, 2, 4, 8, 16, 32, 64]
    assert FP.labels(1) == ["S:u1_0'", "T:u1_0'"]
    assert FP.labels(2) == [
        "S:u2_0'", "T:u2_0'", "S:u1_0'.T:u1_0'", "T:u1_0'.S:u1_0'"
    ]
    assert FP.check_associativity() == []
    assert FP.hilbert_series().coeffs == coproduct_module_series(
        ES.hilbert_series(), ET.hilbert_series(), ES.hilbert_series()
    ).coeffs


def test_free_product_with_trivial_factor_is_the_other_factor():
    S = mono([("x", 1)], ["x^2"], cap=8)
    K = mono([("z", 1)], ["z"], cap=8)
    ES, EK = ext_algebra(S, 6), ext_algebra(K, 6)
    assert [EK.dim(n) for n in range(7)] == [1, 0, 0, 0, 0, 0, 0]
    FP = free_product(ES, EK, 6)
    assert [FP.dim(n) for n in range(7)] == [ES.dim(n) for n in range(7)]


def test_free_product_module_over_the_first_factor():
    S = mono([("x", 1)], ["x^2"], cap=8)
    T = mono([("y", 1)], ["y^2"], cap=8)
    ES, ET = ext_algebra(S, 5), ext_algebra(T, 5)
    FP = free_product(ES, ET, 5)
    FPM = free_product_module(FP, algebra_as_module(ES))
    # regular module over the first factor induces the regular module
    assert [FPM.dim(n) for n in range(6)] == [FP.dim(n) for n in range(6)]
    assert FPM.check_associativity() == []


def test_phi_square_zero_pair():
    S = mono([("x", 1)], ["x^2"], cap=8)
    T = mono([("y", 1)], ["y^2"], cap=8)
    R = fiber_product(S, T, 8)
    rep = verify_phi_iso(R, 5, 8, products_to=4)
    assert rep.ok, rep.first_failure()
    assert rep.data["dims"]["free_product"] == [1, 2, 4, 8, 16, 32]
    assert rep.data["dims"]["tensor_control"] == [1, 2, 3, 4, 5, 6]
    control = [c for c in rep.checks if "tensor" in c["name"]][0]
    assert "n=2" in control["detail"]


def test_phi_mixed_pair():
    S = mono([("x", 1)], ["x^3"], cap=10)
    T = mono([("y", 1)], ["y^2"], cap=10)
    R = fiber_product(S, T, 10)
    rep = verify_phi_iso(R, 4, 10, products_to=4)
    assert rep.ok, rep.first_failure()
    assert rep.data["dims"]["free_product"] == [1, 2, 4, 8, 16]


def test_theta_mixed_pair_with_nonfree_module():
    S = mono([("x", 1)], ["x^3"], cap=10)
    T = mono([("y", 1)], ["y^2"], cap=10)
    R = fiber_product(S, T, 10)
    M = quotient_by_power(S, "x", 2, 1)
    rep = verify_theta_iso(R, M, 4, 10, products_to=4)
    assert rep.ok, rep.first_failure()
    assert rep.data["dims"]["induced_module"] == [1, 2, 4, 8, 16]


def test_theta_rejects_module_over_the_wrong_factor():
    S = mono([("x", 1)], ["x^2"], cap=8)
    T = mono([("y", 1)], ["y^2"], cap=8)
    R = fiber_product(S, T, 8)
    with pytest.raises(ExtError, match="first factor"):
        verify_theta_iso(R, residue_module(T), 3, 8)


def bumped(arrays, key, index, dims=None):
    """A copy of the dict or list ``arrays`` whose entry ``key``, a
    ``linalg.Matrix``, is a copy with the coefficient at ``index`` raised
    by 1; with ``dims``, the index is into the table read as its (A, B, C)
    tensor."""
    out = dict(arrays) if isinstance(arrays, dict) else list(arrays)
    arr = np.asarray(out[key])
    cells = arr.reshape(dims) if dims else arr
    cells[index] = (cells[index] + 1) % P
    out[key] = linalg.Matrix.read(arr, P)
    return out


def bump_product_table(d):
    d.R_ext = copy.copy(d.R_ext)
    d.R_ext.mult = bumped(d.R_ext.mult, (1, 1), (0, 1, 0), d.R_ext.table_dims(1, 1))


def zero_phi_row(d):
    d.phis = dict(d.phis)
    arr = np.asarray(d.phis[2])
    arr[0] = 0
    d.phis[2] = linalg.Matrix.read(arr, P)


def failing_checks(monkeypatch, tamper):
    """{name: detail} of the failing checks of phi and of theta (M = k)
    on k[x]/(x^2) x_k k[y]/(y^2), window 4, each over a set-up that
    ``tamper`` corrupted after it was built."""
    real = extalg._build_phi_setup

    def setup(*args):
        d = real(*args)
        tamper(d)
        return d

    monkeypatch.setattr(extalg, "_build_phi_setup", setup)
    S = mono([("x", 1)], ["x^2"], cap=8)
    R = fiber_product(S, mono([("y", 1)], ["y^2"], cap=8), 8)
    reps = verify_phi_iso(R, 4, 8), verify_theta_iso(R, residue_module(S), 4, 8)
    return [{c["name"].split(" (total")[0]: c["detail"] for c in rep.checks if not c["ok"]}
            for rep in reps]


@pytest.mark.parametrize("tamper, phi, theta", [
    (lambda d: setattr(d, "phis", bumped(d.phis, 2, (0, 0))),
     {"induced map multiplicative": "failures [(1, 1), (1, 2), (2, 1), (2, 2)]; first at "
                                    "(m, n) = (1, 1): S:u1_0' * S:u1_0' at p2': 2 vs 1"},
     {"induced map equivariant": "failures [(2, 0), (2, 1), (2, 2)]; first at (m, n) = "
                                 "(2, 0): S:u2_0' * u0_0' at p2': 1 vs 2"}),
    (lambda d: setattr(d, "sig_mats", bumped(d.sig_mats, 1, (0, 0))),
     {"restriction to the first factor fixes dual generators": "failures [(1, 0)]"},
     {"induced map equivariant": "failures [(1, 1), (1, 2), (1, 3), (2, 0), (2, 1), "
                                 "(2, 2), (3, 0), (3, 1), (4, 0)]; first at (m, n) = "
                                 "(1, 1): S:u1_0' * T:u1_0'.u0_0' at e1.f1.p0': 2 vs 1"}),
    (bump_product_table,
     {"letter duals multiply by concatenation": "failures [('e', 1, 0, 1, 1)]",
      "induced map multiplicative": "failures [(1, 1)]; first at (m, n) = (1, 1): "
                                    "S:u1_0' * T:u1_0' at p2': 0 vs 1"},
     {}),
    (zero_phi_row,
     {"induced map bijective per degree": "ranks [2, 3, 8, 16]; first at degree 2: rank 3, "
                                          "expected word-complex rank 4 = induced dim 4",
      "induced map multiplicative": "failures [(1, 1), (1, 2), (2, 1), (2, 2)]; first at "
                                    "(m, n) = (1, 1): S:u1_0' * S:u1_0' at p2': 0 vs 1"},
     {"induced map equivariant": "failures [(2, 0), (2, 1), (2, 2)]; first at (m, n) = "
                                 "(2, 0): S:u2_0' * u0_0' at p2': 1 vs 0"}),
], ids=["phis", "sig_mats", "R_ext.mult", "phis-row"])
def test_tampered_setup_fails_exactly_the_checks_that_read_it(monkeypatch, tamper, phi,
                                                              theta):
    """A corrupted coefficient (or a zeroed row) in the shared set-up
    fails exactly the checks of each verifier that read it; a failing
    rank or product check names its first offender: degree and ranks,
    or (m, n), the basis pair and the coordinate where the sides differ."""
    assert failing_checks(monkeypatch, tamper) == [phi, theta]


def test_word_basis_ext_algebra_matches_free_product():
    from fiberres.wordres import build_word_resolution

    S = mono([("x", 1)], ["x^2"], cap=8)
    T = mono([("y", 1)], ["y^2"], cap=8)
    R = fiber_product(S, T, 8)
    G = build_word_resolution(S, T, residue_module(S), 4, 8, fiber=R)
    RE = ext_algebra(R, 4, 8, resolution=G)
    assert [RE.dim(n) for n in range(5)] == [1, 2, 4, 8, 16]
    assert RE.check_associativity() == []


def test_koszul_certificates():
    A = mono([("x", 1)], ["x^2"], cap=8)
    B = mono([("x", 1)], ["x^3"], cap=10)
    ok, off = koszul_check(A, 6)
    assert ok and off == []
    ok, off = koszul_check(B, 6, 10)
    assert not ok and off[0] == (2, 3)


def test_koszul_transfer_through_fiber_products():
    S = mono([("x", 1)], ["x^2"], cap=6)
    T = mono([("y", 1)], ["y^2"], cap=6)
    R = fiber_product(S, T, 6)
    ok, off = koszul_check(R, 5)
    assert ok and off == []

    S3 = mono([("x", 1)], ["x^3"], cap=6)
    R3 = fiber_product(S3, T, 6)
    ok, off = koszul_check(R3, 4)
    assert not ok and (2, 3) in off


def test_off_diagonal_on_module_resolutions():
    S = mono([("x", 1)], ["x^2"], cap=8)
    T = mono([("y", 1)], ["y^2"], cap=8)
    R = fiber_product(S, T, 8)
    assert off_diagonal(minimal_resolution(R, residue_module(R), 5)) == []
    M = quotient_by_power(S, "x", 1, 1)
    assert off_diagonal(minimal_resolution(S, M, 5)) == []
    B = mono([("x", 1)], ["x^3"], cap=10)
    assert off_diagonal(minimal_resolution(B, quotient_by_power(B, "x", 2, 1), 3)) == [
        (1, 2), (2, 3), (3, 5)]


def test_ext_algebra_is_deterministic():
    B = mono([("x", 1)], ["x^3"], cap=10)
    E1 = ext_algebra(B, 5, 10)
    E2 = ext_algebra(B, 5, 10)
    assert E1.basis == E2.basis
    for key in E1.mult:
        assert np.array_equal(E1.mult[key], E2.mult[key])


def test_yoneda_table_keys():
    A = mono([("x", 1)], ["x^3"], cap=10)
    imax = 5
    E = ext_algebra(A, imax)
    EM = ext_module(A, quotient_by_power(A, "x", 2, 1), imax, ext=E)
    for tables, first in ((E.mult, 1), (EM.action, 0)):
        assert set(tables) == {(m, n) for m in range(1, imax + 1)
                               for n in range(first, imax + 1)
                               if m + n <= imax}


def test_free_product_rejects_bad_factors_and_caps():
    S = mono([("x", 1)], ["x^2"], cap=8)
    T = mono([("y", 1)], ["y^2"], cap=8)
    T7 = build_monomial_quotient(
        7, 8, MonomialQuotientPresentation(["y"], [1], ["y^2"], True))
    ES, ET = ext_algebra(S, 4), ext_algebra(T, 4)
    with pytest.raises(ExtError, match="characteristic: 32003 vs 7"):
        free_product(ES, ext_algebra(T7, 4))
    with pytest.raises(ExtError, match="cap 5 outside 0..4"):
        free_product(ES, ET, 5)
    with pytest.raises(ExtError, match="first factor"):
        free_product_module(free_product(ES, ET), algebra_as_module(ET))


def test_ext_module_rejects_mismatched_inputs():
    A = mono([("x", 1)], ["x^3"], cap=10)
    B = mono([("y", 1)], ["y^2"], cap=10)
    M = quotient_by_power(A, "x", 2, 1)
    with pytest.raises(ExtError, match="different algebra"):
        ext_module(A, M, 3, ext=ext_algebra(B, 3))
    with pytest.raises(ExtError, match="reaches degree 2, need 3"):
        ext_module(A, M, 3, ext=ext_algebra(A, 2))
    with pytest.raises(ExtError, match="same algebra"):
        ext_module(A, None, 3, ext=ext_algebra(A, 3),
                   resolution=minimal_resolution(B, residue_module(B), 3))
    with pytest.raises(ExtError, match="given algebra"):
        ext_algebra(A, 3, resolution=minimal_resolution(B, residue_module(B), 3))


def test_table_products_do_not_wrap_past_the_int64_bound():
    """At p = 65521 a three-operand int64 sum wraps from about 32,792
    terms of (p - 1)^3; the product check's two products (``right_product``
    on the table's middle axis, then the rows of ``left``) sum 40,000
    terms (a and b of 200 each) and must agree with Python integers."""
    p = 65521
    rng = np.random.default_rng(65521)
    left = rng.integers(p - 50, p, size=(1, 200))
    right = rng.integers(p - 50, p, size=(2, 200))
    tensor = rng.integers(p - 50, p, size=(200, 200, 2))
    table = linalg.Matrix.read(tensor.reshape(-1, 2), p)
    got = linalg.matmul(left, right_product(table, (200, 200, 2), right.T, p), p)
    L, Rt, T = left.tolist(), right.tolist(), tensor.tolist()
    ref = [[sum(L[i][a] * Rt[j][b] * T[a][b][k] for a in range(200) for b in range(200)) % p
            for j in range(2) for k in range(2)] for i in range(1)]
    assert np.asarray(got).tolist() == ref
    # the one-shot sum wraps here, so the check above can fail
    assert not np.array_equal(np.einsum("ia,jb,abk->ijk", left, right, tensor).reshape(1, -1)
                              % p, np.asarray(got))


# -- word images and free-product tables against the letter-by-letter route --


def reference_word_images(d, induced, seeds, dims, act):
    """The induced map as the per-word loop builds it: each word's
    letters act, rightmost first, on its module element's image, one
    ``act`` (as ``GradedModule.act``) per letter."""
    images = {}
    for n in range(induced.table.cap + 1):
        words, rows = induced.table.words(n), []
        for ls, (dm, mi) in words:
            deg, vec = dm, np.asarray(seeds[dm])[mi]
            for t, ldeg, i in reversed(ls):
                mats = d.sig_mats if t == 0 else d.tau_mats
                deg, vec = act(Element(d.R_ext, ldeg, np.asarray(mats[ldeg])[i]), deg, vec)
            rows.append(vec)
        images[n] = np.array(rows, dtype=np.int64).reshape(len(words), dims[n])
    return images


def one_hot_product(a, b, u, v):
    """``_fp_product`` with the merged letter found by multiplying two
    one-hot basis elements."""
    x, y = u[-1], v[0]
    if x[0] != y[0]:
        return [(u + v, 1)]
    alg = a if x[0] == 0 else b
    prod = alg.multiply(alg.basis_element(x[1], x[2]), alg.basis_element(y[1], y[2]))
    return [(u[:-1] + ((x[0], x[1] + y[1], int(k)),) + v[1:], int(prod.vec[k]))
            for k in np.flatnonzero(prod.vec)]


def word_indices(table):
    """Per degree, each decoded word's index."""
    return [{w: i for i, w in enumerate(table.words(n))} for n in range(table.cap + 1)]


def one_hot_fp_tables(fp):
    a, b = fp.factor_a, fp.factor_b
    index = word_indices(fp.table)
    out = {}
    for m in range(1, fp.cap):
        for n in range(1, fp.cap + 1 - m):
            arr = np.zeros((fp.dim(m), fp.dim(n), fp.dim(m + n)), dtype=np.int64)
            for i, (u, unit) in enumerate(fp.table.words(m)):
                for j, (v, _) in enumerate(fp.table.words(n)):
                    for w, coeff in one_hot_product(a, b, u, v):
                        arr[i, j, index[m + n][(w, unit)]] += coeff
            out[(m, n)] = arr % fp.p
    return out


def one_hot_fpm_tables(fpm):
    fp, module = fpm.algebra, fpm.factor_module
    a, b = fp.factor_a, fp.factor_b
    index = word_indices(fpm.table)
    out = {}
    for m in range(1, fp.cap + 1):
        for n in range(fp.cap + 1 - m):
            arr = np.zeros((fp.dim(m), fpm.dim(n), fpm.dim(m + n)), dtype=np.int64)
            for i, (u, _) in enumerate(fp.table.words(m)):
                x = u[-1]
                for j, (ls, mpair) in enumerate(fpm.table.words(n)):
                    if ls:
                        for w, coeff in one_hot_product(a, b, u, ls):
                            arr[i, j, index[m + n][(w, mpair)]] += coeff
                    elif x[0] == 1:
                        arr[i, j, index[m + n][(u, mpair)]] += 1
                    else:
                        dm, mi = mpair
                        row = np.asarray(module.act_matrix(a.basis_element(x[1], x[2]), dm))[mi]
                        for k in np.flatnonzero(row):
                            w = (u[:-1], (dm + x[1], int(k)))
                            arr[i, j, index[m + n][w]] += int(row[k])
            out[(m, n)] = arr % fp.p
    return out


def assert_same_tables(got, want):
    """The ``linalg.Matrix``es of ``got`` hold the arrays of ``want``
    byte for byte: a three-axis (A, B, C) array as the (A * B, C) table."""
    assert got.keys() == want.keys()
    for key in want:
        g, w = np.asarray(got[key]), np.asarray(want[key])
        shape = (w.shape[0] * w.shape[1], w.shape[2]) if w.ndim == 3 else w.shape
        assert g.dtype == w.dtype and g.shape == shape, key
        assert g.tobytes() == w.tobytes(), key


@pytest.fixture(scope="module", params=[2, 3, 65521])
def weighted_theta(request):
    """``verify_theta_iso`` at window 5 on (k[x,w]/(x^3,w^2,xw), weights
    1, 2) x_k k[y]/(y^2), cap 10 (the lifts of window 5 reach internal
    degree 10), for the module S/(x^2) over the first factor, with the
    arguments and result of each ``_word_images`` call: the phi set-up's,
    then theta's."""
    p = request.param
    S = build_monomial_quotient(p, 10, MonomialQuotientPresentation(
        ["x", "w"], [1, 2], ["x^3", "w^2", "x*w"], True))
    T = build_monomial_quotient(p, 10, MonomialQuotientPresentation(["y"], [1], ["y^2"], True))
    R = fiber_product(S, T)
    calls, real = [], extalg._word_images

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extalg, "_word_images", recording)
        rep = verify_theta_iso(R, quotient_by_power(S, "x", 2, 1), 5)
    return rep, calls


def test_word_images_equal_the_letter_by_letter_route(weighted_theta):
    """phi's images (letters acting on the unit through the Yoneda
    product) and theta's (through the Ext module action) are byte for
    byte those of one product per letter, and theta's checks pass."""
    rep, calls = weighted_theta
    assert rep.ok, rep.first_failure()
    assert [type(args[1]) for args, _ in calls] == [extalg.FreeProductAlgebra,
                                                    FreeProductModule]
    (phi_args, phis), (theta_args, thetas) = calls
    d, _, _, _, left_mult = phi_args
    R_ext = left_mult.__self__
    assert_same_tables(phis, reference_word_images(
        *phi_args[:4], lambda a, m, v: (m + a.degree, (a * Element(R_ext, m, v)).vec)))
    assert_same_tables(thetas, reference_word_images(*theta_args[:4],
                                                     theta_args[4].__self__.act))


def test_word_images_make_one_product_per_first_letter_and_degree(weighted_theta,
                                                                 monkeypatch):
    """Each degree's words go through one ``linalg.matmul`` per first
    letter, in ascending degree: the group of the words of degree n led
    by a letter of degree e multiplies their rests' rows (degree n - e)
    by that letter's matrix.  The products that build a letter's matrix
    are not counted."""
    for args, images in weighted_theta[1]:
        table, dims = args[1].table, args[3]
        want = []
        for n, first in enumerate(table.first):
            want += [(int((first == x).sum()), (dims[n - table.letters[x][1]], dims[n]))
                     for x in np.unique(first[first >= 0]).tolist()]
        got, real, inside = [], linalg.matmul, []

        def letter(*a):
            inside.append(1)
            try:
                return args[4](*a)
            finally:
                inside.pop()

        def counting(a, b, p):
            if not inside:
                got.append((a.shape[0], b.shape))
            return real(a, b, p)

        monkeypatch.setattr(linalg, "matmul", counting)
        again = extalg._word_images(*args[:4], letter)
        monkeypatch.setattr(linalg, "matmul", real)
        assert got == want
        assert_same_tables(again, images)


def test_free_product_tables_equal_the_one_hot_route(weighted_theta):
    """FP.mult reads a merged letter as a slice of its factor's table and
    the induced module reads the A-action as a slice; both equal the
    tables built from products of one-hot basis elements."""
    (phi_args, _), (theta_args, _) = weighted_theta[1]
    fp, fpm = phi_args[1], theta_args[1]
    assert fpm.algebra is fp
    assert_same_tables(fp.mult, one_hot_fp_tables(fp))
    assert_same_tables(fpm.action, one_hot_fpm_tables(fpm))


def brute_force_words(letters, seeds, cap, first):
    """Every sequence of ``letters``, (side, weight, key) triples, of
    total weight <= cap, kept when neighbouring sides differ and the
    letter next to the seed is from side ``first`` (either if None),
    then followed by each seed, a (weight, key) pair, that fits: per
    weight the (letter keys, seed key) pairs, unsorted."""
    out = [[] for _ in range(cap + 1)]

    def grow(seq, weight):
        sides = [t for t, _, _ in seq]
        if all(a != b for a, b in zip(sides, sides[1:])) and (
                not seq or first is None or sides[-1] == first):
            out[weight].extend(((tuple(x for _, _, x in seq), s), w)
                               for w, s in seeds if weight + w <= cap)
        for x in letters:
            if weight + x[1] <= cap:
                grow(seq + [x], weight + x[1])

    grow([], 0)
    buckets = [[] for _ in range(cap + 1)]
    for weight, words in enumerate(out):
        for word, w in words:
            buckets[weight + w].append(word)
    return buckets


def test_word_tables_list_the_brute_force_words_in_the_old_order(weighted_theta):
    """The free product's words, sorted by (length, letters); the induced
    module's, sorted by (length, letters, module element); and the word
    complexes' of k and of M, sorted by (length, letter keys): each is
    the table's decoded word list."""
    (phi_args, _), (theta_args, _) = weighted_theta[1]
    d, fp, fpm = phi_args[0], phi_args[1], theta_args[1]
    cap, module = fp.cap, fpm.factor_module
    letters = [(t, n, (t, n, i)) for t, alg in enumerate((fp.factor_a, fp.factor_b))
               for n in range(1, cap + 1) for i in range(alg.dim(n))]
    want = brute_force_words(letters, [(0, (0, 0))], cap, None)
    assert [[ls for ls, _ in fp.table.words(n)] for n in range(cap + 1)] == \
        [sorted((ls for ls, _ in b), key=lambda w: (len(w), w)) for b in want]
    want = brute_force_words(letters, [(n, (n, i)) for n in range(cap + 1)
                                       for i in range(module.dim(n))], cap, 1)
    assert [fpm.table.words(n) for n in range(cap + 1)] == \
        [sorted(b, key=lambda w: (len(w[0]), w[0], w[1])) for b in want]
    rank = {"E": 0, "F": 1, "P": 2}
    for P in (d.P, module.resolution):
        def letter(tag, res, n, i):
            return Letter(tag, n, i, res.gen_degrees(n)[i])
        letters = [(t, n, letter(tag, res, n, i)) for t, (tag, res) in enumerate((("E", d.E), ("F", d.F)))
                   for n in range(1, cap + 1) for i in range(res.rank(n))]
        seeds = [(n, letter("P", P, n, i)) for n in range(cap + 1) for i in range(P.rank(n))]
        want = [sorted((ls + (s,) for ls, s in b),
                       key=lambda w: (len(w), tuple((rank[x.tag], x.hom, x.idx) for x in w)))
                for b in brute_force_words(letters, seeds, cap, 1)]
        assert generate_words(d.E, d.F, P, cap) == want


def test_free_product_tables_multiply_by_each_letter_once_per_degree(weighted_theta, monkeypatch):
    """The free product's and the induced module's tables make one
    ``_letter_times`` per (letter, degree of the right-hand word), none
    per pair of words, each reading a row of a factor's table (or of the
    module's action) at most once; the rebuilt tables are the same."""
    (phi_args, _), (theta_args, _) = weighted_theta[1]
    fp, fpm = phi_args[1], theta_args[1]
    calls, rows, real_times, real_rows = [], [], extalg._letter_times, linalg.Matrix.rows

    def letter_times(*args):
        calls.append(args[2:4])
        rows.append([])
        return real_times(*args)

    def read_rows(mat, idx):
        rows[-1].append((id(mat), tuple(np.atleast_1d(idx).tolist())))
        return real_rows(mat, idx)

    monkeypatch.setattr(extalg, "_letter_times", letter_times)
    monkeypatch.setattr(linalg.Matrix, "rows", read_rows)
    for build, old, n_min in ((lambda: extalg.FreeProductAlgebra(fp.factor_a, fp.factor_b, fp.cap),
                               lambda x: x.mult, 1),
                              (lambda: FreeProductModule(fp, fpm.factor_module),
                               lambda x: x.action, 0)):
        calls.clear()
        again = build()
        assert calls == [(x, n) for m in range(1, fp.cap + 1) for n in range(n_min, fp.cap + 1 - m)
                         for x, (_, w, _) in enumerate(fp.table.letters) if w == m]
        assert_same_tables(old(again), {k: np.asarray(t) for k, t in old(fp if n_min else fpm).items()})
    assert all(len(r) == len(set(r)) for r in rows)


def test_phi_setup_multiplies_no_elements(monkeypatch):
    """The phi set-up builds its word images and free-product tables
    without ``GradedAlgebra.multiply``; the per-letter route calls it
    once per letter."""
    calls, real = [], GradedAlgebra.multiply

    def counting(self, a, b):
        calls.append((a.degree, b.degree))
        return real(self, a, b)

    monkeypatch.setattr(GradedAlgebra, "multiply", counting)
    S = mono([("x", 1)], ["x^2"], cap=8)
    R = fiber_product(S, mono([("y", 1)], ["y^2"], cap=8), 8)
    d = extalg._build_phi_setup(R, 5, 8)
    assert calls == []
    act = lambda a, m, v: (m + a.degree, (a * Element(d.R_ext, m, v)).vec)  # noqa: E731
    reference_word_images(d, d.FP, [d.R_ext.unit().vec.reshape(1, 1)],
                          [d.R_ext.dim(n) for n in range(6)], act)
    assert len(calls) == sum(len(ls) for n in range(6) for ls, _ in d.FP.table.words(n))
