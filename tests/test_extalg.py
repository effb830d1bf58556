import copy

import numpy as np
import pytest

from fiberres import extalg
from fiberres.algebra import (
    MonomialQuotientPresentation,
    build_monomial_quotient,
    fiber_product,
)
from fiberres.extalg import (
    ExtError,
    ext_algebra,
    ext_module,
    free_product,
    free_product_module,
    koszul_check,
    koszul_module_check,
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
    assert E.internal == [[n] for n in range(7)]
    # one class per degree and every product of classes is the class
    for m in range(1, 6):
        for n in range(1, 7 - m):
            assert E.mult[(m, n)].ravel().tolist() == [1]
    assert E.check_associativity() == []


def test_ext_algebra_of_cubic_hypersurface():
    A = mono([("x", 1)], ["x^3"], cap=10)
    E = ext_algebra(A, 6, 10)
    assert sorted(E.bigraded_dims().items()) == [
        ((0, 0), 1), ((1, 1), 1), ((2, 3), 1), ((3, 4), 1),
        ((4, 6), 1), ((5, 7), 1), ((6, 9), 1),
    ]
    # the degree-1 class squares to zero; multiplying by the degree-2
    # class is injective in this window
    assert E.mult[(1, 1)].ravel().tolist() == [0]
    assert E.mult[(1, 2)].ravel().tolist() == [1]
    assert E.mult[(2, 1)].ravel().tolist() == [1]
    assert E.mult[(2, 2)].ravel().tolist() == [1]
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
    assert EM.internal == [[0], [2], [3], [5], [6], [8], [9]]
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


def bumped(arrays, key, index):
    """A copy of the dict or list ``arrays`` whose entry ``key`` is a
    copy of the array with the coefficient at ``index`` raised by 1."""
    out = dict(arrays) if isinstance(arrays, dict) else list(arrays)
    out[key] = out[key].copy()
    out[key][index] = (out[key][index] + 1) % P
    return out


def bump_product_table(d):
    d.R_ext = copy.copy(d.R_ext)
    d.R_ext.mult = bumped(d.R_ext.mult, (1, 1), (0, 1, 0))


def zero_phi_row(d):
    d.phis = dict(d.phis)
    d.phis[2] = d.phis[2].copy()
    d.phis[2][0] = 0


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


def test_koszul_module_check():
    S = mono([("x", 1)], ["x^2"], cap=8)
    T = mono([("y", 1)], ["y^2"], cap=8)
    R = fiber_product(S, T, 8)
    ok, off = koszul_module_check(R, residue_module(R), 5)
    assert ok and off == []
    M = quotient_by_power(S, "x", 1, 1)
    ok, off = koszul_module_check(S, M, 5)
    assert ok and off == []


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


def test_image_products_do_not_wrap_past_the_int64_bound():
    """At p = 65521 a three-operand int64 sum wraps from about 32,792
    terms of (p - 1)^3; the product check's contraction sums 40,000
    (a and b of 200 each) and must agree with Python integers."""
    p = 65521
    rng = np.random.default_rng(65521)
    left = rng.integers(p - 50, p, size=(1, 200))
    right = rng.integers(p - 50, p, size=(2, 200))
    tensor = rng.integers(p - 50, p, size=(200, 200, 2))
    got = extalg._image_products(left, right, tensor, p)
    L, Rt, T = left.tolist(), right.tolist(), tensor.tolist()
    ref = [[[sum(L[i][a] * Rt[j][b] * T[a][b][k] for a in range(200) for b in range(200)) % p
             for k in range(2)] for j in range(2)] for i in range(1)]
    assert got.tolist() == ref
    # the one-shot sum wraps here, so the check above can fail
    assert not np.array_equal(np.einsum("ia,jb,abk->ijk", left, right, tensor) % p, got)
