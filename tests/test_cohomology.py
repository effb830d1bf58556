import tracemalloc

import numpy as np
import pytest

from fiberres import cohomology
from fiberres.algebra import (
    MonomialQuotientPresentation,
    build_monomial_quotient,
    fiber_product,
)
from fiberres.cohomology import (
    combined_residue_resolution,
    comparison_chain_map,
    depth_certificate,
    depth_upper_bound,
    ext_bidegree_dim,
    hom_coboundary,
    socle_dims,
    syzygy_split,
    verify_ext_sequence_L,
    verify_fiber_module_ext_sequence,
)
from fiberres.extalg import (
    ExtError,
    ext_algebra,
    ext_module,
    free_product,
    free_product_module,
)
from fiberres.gmodule import (
    AlgMatrix,
    FreeModule,
    algebra_as_module,
    cokernel_module,
    extend,
    free_module_table,
    residue_module,
    trivial_module,
)
from fiberres.resolve import WindowError, minimal_resolution, verify_complex
from fiberres.series import PowerSeries

P = 32003


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


def line_quotient(R):
    phi = AlgMatrix(R, FreeModule(R, [1]), FreeModule(R, [0]),
                    {(0, 0): R.element_from_string("x+y")})
    return cokernel_module(phi)


# -- syzygy splitting ---------------------------------------------------------


def test_syzygy_split_line_quotient(square_zero_pair):
    _, _, R = square_zero_pair
    split = syzygy_split(R, line_quotient(R))
    assert split.ok
    dims = split.dims()
    assert dims[2] == (2, 1, 1)
    assert all(d == (0, 0, 0) for i, d in enumerate(dims) if i != 2)
    assert [split.m_module.dim(n) for n in range(4)] == [0, 0, 1, 0]
    assert [split.n_module.dim(n) for n in range(4)] == [0, 0, 1, 0]


def test_syzygy_split_residue_field(square_zero_pair):
    _, _, R = square_zero_pair
    split = syzygy_split(R, residue_module(R))
    assert split.ok
    assert split.dims()[2] == (4, 2, 2)
    assert [split.m_module.dim(n) for n in range(4)] == [0, 0, 2, 0]
    assert [split.n_module.dim(n) for n in range(4)] == [0, 0, 2, 0]


def test_syzygy_split_free_module(square_zero_pair):
    _, _, R = square_zero_pair
    split = syzygy_split(R, algebra_as_module(R))
    assert split.ok
    assert all(d == (0, 0, 0) for d in split.dims())
    assert split.m_module.min_degree() is None
    assert split.n_module.min_degree() is None


def test_syzygy_split_mixed_pair():
    S = mono([("x", 1)], ["x^3"])
    T = mono([("y", 1)], ["y^2"])
    R = fiber_product(S, T)
    split = syzygy_split(R, residue_module(R))
    assert split.ok
    assert split.dims()[2] == (3, 1, 2)
    assert split.dims()[3] == (2, 2, 0)
    assert [split.m_module.dim(n) for n in range(5)] == [0, 0, 1, 2, 0]
    assert [split.n_module.dim(n) for n in range(5)] == [0, 0, 2, 0, 0]


def test_syzygy_split_random_pairs():
    rng = np.random.default_rng(7)
    s_pool = [
        ([("x", 1)], ["x^2"]),
        ([("x", 1)], ["x^3"]),
        ([("x", 1), ("y", 1)], ["x*y", "y^2"]),
    ]
    t_pool = [
        ([("z", 1)], ["z^2"]),
        ([("z", 1), ("w", 1)], ["z^2", "z*w", "w^2"]),
    ]
    for _ in range(5):
        S = mono(*s_pool[rng.integers(len(s_pool))], cap=6)
        T = mono(*t_pool[rng.integers(len(t_pool))], cap=6)
        R = fiber_product(S, T)
        split = syzygy_split(R, residue_module(R))
        assert split.ok
        for k, m, n in split.dims():
            assert m + n == k


# -- the Ext bookkeeping for an arbitrary module ------------------------------


def test_ext_sequence_line_quotient(square_zero_pair):
    _, _, R = square_zero_pair
    rep = verify_ext_sequence_L(R, line_quotient(R), 6)
    assert rep.ok
    assert rep.data["ext_dims"] == [1, 1, 2, 4, 8, 16, 32]
    assert rep.data["predicted_from_2"] == [2, 4, 8, 16, 32]
    assert rep.data["m_poincare"] == [1, 1, 1, 1, 1]


def test_ext_sequence_residue_field(square_zero_pair):
    _, _, R = square_zero_pair
    rep = verify_ext_sequence_L(R, residue_module(R), 6)
    assert rep.ok
    assert rep.data["ext_dims"] == [1, 2, 4, 8, 16, 32, 64]
    assert rep.data["predicted_from_2"] == [4, 8, 16, 32, 64]


def test_ext_sequence_free_module(square_zero_pair):
    _, _, R = square_zero_pair
    rep = verify_ext_sequence_L(R, algebra_as_module(R), 4)
    assert rep.ok
    assert rep.data["ext_dims"] == [1, 0, 0, 0, 0]
    assert rep.data["predicted_from_2"] == [0, 0, 0]


def test_ext_sequence_mixed_pair():
    S = mono([("x", 1)], ["x^3"])
    T = mono([("y", 1)], ["y^2"])
    R = fiber_product(S, T)
    rep = verify_ext_sequence_L(R, residue_module(R), 5)
    assert rep.ok
    assert rep.data["ext_dims"] == [1, 2, 4, 8, 16, 32]


def test_ext_sequence_failure_names_degree_dim_and_prediction(square_zero_pair,
                                                              monkeypatch):
    """A series off by t in each component predicts 2 too many at n = 3."""
    _, _, R = square_zero_pair
    real = cohomology.coproduct_module_series
    monkeypatch.setattr(cohomology, "coproduct_module_series", lambda *args: real(
        *args) + PowerSeries.monomial(1, args[0].truncation))
    bad = verify_ext_sequence_L(R, line_quotient(R), 5).first_failure()
    assert bad["name"] == "Ext dims match the shifted coproduct series (2 <= n <= 5)"
    assert bad["detail"] == "(degree, ext dim, predicted) [(3, 4, 6)]"


# -- the Ext sequence of a pullback module ------------------------------------


def test_fiber_module_sequence_ring_factors(square_zero_pair):
    S, T, R = square_zero_pair
    rep = verify_fiber_module_ext_sequence(
        R, algebra_as_module(S), algebra_as_module(T), 6)
    assert rep.ok
    assert rep.data["p_fib"] == [1, 0, 0, 0, 0, 0, 0]
    assert rep.data["p_k"] == [1, 2, 4, 8, 16, 32, 64]
    assert rep.data["p_m"] == [1, 1, 2, 4, 8, 16, 32]
    assert rep.data["p_n"] == [1, 1, 2, 4, 8, 16, 32]


def test_fiber_module_sequence_residue_both(square_zero_pair):
    S, T, R = square_zero_pair
    rep = verify_fiber_module_ext_sequence(
        R, residue_module(S), residue_module(T), 5)
    assert rep.ok
    assert rep.data["p_fib"] == rep.data["p_k"]


def test_fiber_module_sequence_rank_two(square_zero_pair):
    S, T, R = square_zero_pair
    m2 = free_module_table(S, [0, 0])
    n2 = free_module_table(T, [0, 0])
    rep = verify_fiber_module_ext_sequence(R, m2, n2, 5)
    assert rep.ok
    assert rep.data["rank_v"] == 2
    assert rep.data["p_fib"] == [2, 0, 0, 0, 0, 0]
    assert rep.data["p_m"] == [2, 2, 4, 8, 16, 32]


def test_fiber_module_injectivity_failure_names_degree_and_ranks(square_zero_pair,
                                                                  monkeypatch):
    S, T, R = square_zero_pair
    real = cohomology.comparison_chain_map
    monkeypatch.setattr(cohomology, "comparison_chain_map", lambda *args: [
        {key: (tg, sg, b, np.zeros_like(coef)) for key, (tg, sg, b, coef) in stage.items()}
        for stage in real(*args)])
    rep = verify_fiber_module_ext_sequence(
        R, algebra_as_module(S), algebra_as_module(T), 3)
    bad = rep.first_failure()
    assert bad["name"] == "(mu*, -nu*) injective in each cohomological degree <= 3"
    assert bad["detail"] == ("(degree, rank, expected) "
                             "[(0, 0, 1), (1, 0, 2), (2, 0, 4), (3, 0, 8)]")


def test_fiber_module_poincare_failure_names_its_first_degree(square_zero_pair,
                                                              monkeypatch):
    """k^2 in place of k doubles P_k, so the identity fails from degree 0."""
    S, T, R = square_zero_pair
    monkeypatch.setattr(cohomology, "residue_module", lambda A: trivial_module(A, 2))
    bad = verify_fiber_module_ext_sequence(
        R, algebra_as_module(S), algebra_as_module(T), 3).first_failure()
    assert bad["name"] == "Poincare identity P_fib + 1 * P_k = P_M + P_N (through degree 3)"
    assert bad["detail"] == ("lhs [3, 4, 8, 16] rhs [2, 2, 4, 8]; "
                             "first at degree 0: lhs 3, rhs 2")


def test_comparison_chain_map_identity(square_zero_pair):
    S, _, _ = square_zero_pair
    res = minimal_resolution(S, residue_module(S), 3)
    chain = comparison_chain_map(res, res, {0: np.eye(1, dtype=np.int64)}, 3)
    for n in range(4):
        mats = extend(res.frees[n], res.frees[n], chain[n], range(S.cap + 1))
        for d in range(S.cap + 1):
            assert np.array_equal(mats[d], np.eye(res.frees[n].dim(d), dtype=np.int64))


# -- resolving k over a free product ------------------------------------------


def test_combined_resolution_polynomial_duals(square_zero_pair):
    # duals of square-zero factors are (truncated) polynomial algebras,
    # so the joined resolution stops at step 1
    S, T, _ = square_zero_pair
    fp = free_product(ext_algebra(S, 4), ext_algebra(T, 4))
    C = combined_residue_resolution(fp, 3)
    assert [C.rank(i) for i in range(4)] == [1, 2, 0, 0]
    assert verify_complex(C).ok
    direct = minimal_resolution(fp, residue_module(fp), 3)
    assert [direct.rank(i) for i in range(4)] == [1, 2, 0, 0]


def test_combined_resolution_exterior_duals():
    # duals of polynomial factors are exterior, with infinite resolutions
    S = mono([("x", 1)], [], cap=4)
    T = mono([("y", 1)], [], cap=4)
    fp = free_product(ext_algebra(S, 4), ext_algebra(T, 4))
    C = combined_residue_resolution(fp, 3)
    assert [C.rank(i) for i in range(4)] == [1, 2, 2, 2]
    assert C.gen_degrees(2) == [2, 2]
    assert verify_complex(C).ok
    direct = minimal_resolution(fp, residue_module(fp), 3)
    assert [direct.rank(i) for i in range(4)] == [1, 2, 2, 2]


def test_ext_bidegree_over_exterior_pair():
    S = mono([("x", 1)], [], cap=4)
    T = mono([("y", 1)], [], cap=4)
    s_ext, t_ext = ext_algebra(S, 4), ext_algebra(T, 4)
    fp = free_product(s_ext, t_ext)
    fpm = free_product_module(fp, ext_module(S, algebra_as_module(S), 4,
                                             ext=s_ext))
    C = combined_residue_resolution(fp, 3)
    assert ext_bidegree_dim(C, fpm, 0, 0) == 0
    assert ext_bidegree_dim(C, fpm, 1, 1) == 1


# -- socle ---------------------------------------------------------------------


def test_socle_dims_free_product_module(square_zero_pair):
    S, T, _ = square_zero_pair
    s_ext, t_ext = ext_algebra(S, 5), ext_algebra(T, 5)
    fp = free_product(s_ext, t_ext)
    fpm = free_product_module(fp, ext_module(S, residue_module(S), 5,
                                             ext=s_ext))
    assert all(v == 0 for v in socle_dims(fpm).values())


def test_socle_dims_detects_top_class():
    A = ext_algebra(mono([("x", 1)], [], cap=4), 4)  # exterior on one class
    assert socle_dims(algebra_as_module(A)) == {0: 0, 1: 1, 2: 0, 3: 0}


# -- depth certificates --------------------------------------------------------


def test_depth_certificate_module_not_free(square_zero_pair):
    S, _, R = square_zero_pair
    cert = depth_certificate(R, residue_module(S), 3, 6)
    assert cert.ok
    assert cert.case == "module-not-free"
    assert [w["internal_degree"] for w in cert.witnesses] == [-1, -3, -5]
    assert all(w["cocycle"] and w["nonzero"] for w in cert.witnesses)
    assert all(v == 0 for v in cert.socle.values())
    assert cert.interval == (1, 1)
    assert set(cert.chosen) == {"sigma", "theta", "mu", "mu'"}


def test_depth_witness_acting_by_zero_raises_a_typed_error(square_zero_pair,
                                                            monkeypatch):
    """The witness invariants are checks that ``python -O`` keeps: a
    letter word that acts by zero raises ExtError naming j and the
    degrees."""
    S, _, R = square_zero_pair

    def zero_action(fp, module, letters, deg, vec):
        deg += sum(x[1] for x in letters)
        return deg, np.zeros(module.dim(deg), dtype=np.int64)

    monkeypatch.setattr(cohomology, "_act_letters", zero_action)
    with pytest.raises(ExtError, match=r"^witness j=1: a word acts by zero "
                                       r"\(alpha in degree 1, beta in degree 1\)$"):
        depth_certificate(R, residue_module(S), 3, 6)


def test_depth_certificate_second_factor_ext2(square_zero_pair):
    S, _, R = square_zero_pair
    cert = depth_certificate(R, algebra_as_module(S), 2, 6)
    assert cert.ok
    assert cert.case == "second-factor-ext2"
    assert [w["internal_degree"] for w in cert.witnesses] == [-2, -4]
    assert cert.interval == (1, 1)


def test_depth_certificate_first_factor_ext2():
    S = mono([("x", 1)], ["x^2"])
    T = mono([("y", 1)], [])
    R = fiber_product(S, T)
    cert = depth_certificate(R, algebra_as_module(S), 1, 6)
    assert cert.ok
    assert cert.case == "first-factor-ext2"
    assert [w["internal_degree"] for w in cert.witnesses] == [-3]
    assert cert.gldim_status["second factor"] == "no ext2 in window"


def test_depth_certificate_linear_factors_free_module():
    S = mono([("x", 1)], [])
    T = mono([("y", 1)], [])
    R = fiber_product(S, T)
    cert = depth_certificate(R, algebra_as_module(S), 1, 6)
    assert cert.ok
    assert cert.case == "linear-factors"
    assert cert.witnesses[0]["internal_degree"] == 1
    assert cert.witnesses[0]["ext1_dim"] == 1
    assert cert.interval == (1, 1)


def test_depth_certificate_linear_factors_residue_module():
    # Over polynomial factors the alternating-word witnesses are
    # coboundaries; the nonzero class sits at internal degree 0.
    S = mono([("x", 1)], [])
    T = mono([("y", 1)], [])
    R = fiber_product(S, T)
    cert = depth_certificate(R, residue_module(S), 1, 6)
    assert cert.ok
    assert cert.case == "linear-factors"
    assert cert.witnesses[0]["internal_degree"] == 0
    assert cert.witnesses[0]["ext1_dim"] == 1
    assert cert.interval == (1, 1)


def test_depth_certificate_rejects_residue_factor():
    S = mono([("x", 1)], ["x^2"])
    T = mono([("y", 1)], ["y"])  # the second factor collapses to k
    R = fiber_product(S, T)
    with pytest.raises(ExtError, match="residue field"):
        depth_certificate(R, residue_module(S), 1, 4)


def test_depth_certificate_window_too_small(square_zero_pair):
    S, _, R = square_zero_pair
    with pytest.raises(ExtError, match="window"):
        depth_certificate(R, residue_module(S), 5, 4)


def test_depth_certificate_witnesses_persist_in_larger_window(square_zero_pair):
    S, _, R = square_zero_pair
    small = depth_certificate(R, residue_module(S), 2, 5)
    large = depth_certificate(R, residue_module(S), 2, 7)
    key = [(w["j"], w["internal_degree"]) for w in small.witnesses]
    assert key == [(w["j"], w["internal_degree"]) for w in large.witnesses]
    assert small.ok and large.ok


# -- depth upper bound for an arbitrary module --------------------------------


def test_depth_upper_bound_free_module(square_zero_pair):
    _, _, R = square_zero_pair
    rep = depth_upper_bound(R, algebra_as_module(R), 4)
    assert rep.ok
    assert rep.data["case"] == "finite projective dimension"
    assert rep.data["depth"] == 0


def test_depth_upper_bound_residue_field(square_zero_pair):
    _, _, R = square_zero_pair
    rep = depth_upper_bound(R, residue_module(R), 4)
    assert rep.ok
    assert rep.data["case"] == "infinite projective dimension in window"
    assert rep.data["betti"] == [1, 2, 4, 8, 16]
    assert (0, 3) in rep.data["ext1"]
    assert rep.data["depth"] == "<= 1"


def test_depth_upper_bound_line_quotient(square_zero_pair):
    _, _, R = square_zero_pair
    rep = depth_upper_bound(R, line_quotient(R), 4)
    assert rep.ok
    assert rep.data["betti"] == [1, 1, 2, 4, 8]
    assert rep.data["ext1"]


# Traced peaks of the benchmark's lift operations stay below this bound:
# the Ext tables are kept as their nonzero entries and the coefficient
# matrices of the fiber-module sequence are stacked sparse.
LIFT_PEAK_BOUND_MIB = 1.5


def lift_ring():
    """k[x]/(x^2) x_k k[y]/(y^2) at cap 12, the benchmark's lift ring."""
    S, T = mono([("x", 1)], ["x^2"], cap=12), mono([("y", 1)], ["y^2"], cap=12)
    return S, T, fiber_product(S, T)


def traced_peak(call):
    """``call()`` and the traced peak of the allocations it made."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_memory_of_a_depth_upper_bound():
    """depth_upper_bound(R, R/(x+y), 7) on the lift ring (the second
    operation of the benchmark's lift workload): the traced peak stays
    under the bound, as the lifter evaluates a stage only at the degrees
    the next stage reads and the Ext tables hold their entries only."""
    _, _, R = lift_ring()
    L = line_quotient(R)
    rep, peak = traced_peak(lambda: depth_upper_bound(R, L, 7))
    assert rep.ok and rep.data["betti"] == [1, 1, 2, 4, 8, 16, 32, 64]
    assert peak < LIFT_PEAK_BOUND_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_memory_of_the_fiber_module_ext_sequence():
    """verify_fiber_module_ext_sequence on rank-2 free modules over the
    lift ring at hmax 7 (the first operation of the lift workload): the
    rank of (mu*, -nu*) is taken on the stacked sparse coefficients."""
    S, T, R = lift_ring()
    M, N = free_module_table(S, [0, 0]), free_module_table(T, [0, 0])
    rep, peak = traced_peak(lambda: verify_fiber_module_ext_sequence(R, M, N, 7))
    assert rep.ok
    assert peak < LIFT_PEAK_BOUND_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


# -- inputs the constructions cannot use: typed errors, not asserts ----------
# (these hold under ``python -O`` too)


def test_syzygy_split_rejects_a_module_over_another_ring(square_zero_pair):
    S, _, R = square_zero_pair
    with pytest.raises(ExtError, match="module over that ring"):
        syzygy_split(R, residue_module(S))
    with pytest.raises(ExtError, match="fiber product ring"):
        syzygy_split(S, residue_module(S))


def test_comparison_chain_map_rejects_resolutions_over_two_algebras(
        square_zero_pair):
    S, T, _ = square_zero_pair
    src = minimal_resolution(S, residue_module(S), 2)
    tgt = minimal_resolution(T, residue_module(T), 2)
    with pytest.raises(ExtError, match="one algebra"):
        comparison_chain_map(src, tgt, {0: np.eye(1, dtype=np.int64)}, 2)


def test_comparison_chain_map_rejects_steps_past_the_resolutions(
        square_zero_pair):
    S, _, _ = square_zero_pair
    res = minimal_resolution(S, residue_module(S), 2)
    with pytest.raises(WindowError, match="step 3"):
        comparison_chain_map(res, res, {0: np.eye(1, dtype=np.int64)}, 3)


def test_combined_resolution_rejects_short_factor_resolutions(
        square_zero_pair):
    S, T, _ = square_zero_pair
    fp = free_product(ext_algebra(S, 4), ext_algebra(T, 4))
    short = minimal_resolution(fp.factor_a, residue_module(fp.factor_a), 1)
    with pytest.raises(WindowError, match="before hmax 3"):
        combined_residue_resolution(fp, 3, a_res=short)


def test_combined_resolution_rejects_a_resolution_of_another_module(
        square_zero_pair):
    S, T, _ = square_zero_pair
    fp = free_product(ext_algebra(S, 4), ext_algebra(T, 4))
    A = fp.factor_a
    shifted = minimal_resolution(A, trivial_module(A, 1, degree=1), 3)
    with pytest.raises(ExtError, match="residue field"):
        combined_residue_resolution(fp, 3, a_res=shifted)


def test_hom_coboundary_rejects_coefficients_over_another_algebra(
        square_zero_pair):
    S, T, _ = square_zero_pair
    res = minimal_resolution(S, residue_module(S), 2)
    with pytest.raises(ExtError, match="resolution's algebra"):
        hom_coboundary(res, residue_module(T), 0, 0)


def test_depth_certificate_rejects_a_module_over_the_second_factor(
        square_zero_pair):
    _, T, R = square_zero_pair
    with pytest.raises(ExtError, match="first factor"):
        depth_certificate(R, residue_module(T), 1, 4)
