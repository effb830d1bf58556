import re

import numpy as np
import pytest

from fiberres import linalg
from fiberres.algebra import (
    AlgebraError,
    Element,
    GradedAlgebra,
    MonomialQuotientPresentation,
    build_monomial_quotient,
    difference,
    fiber_product,
    left_product,
    right_product,
)

P = 32003


def mono(vars_degs, rels, cap=8, commutative=True, p=P):
    names = [v for v, _ in vars_degs]
    degs = [d for _, d in vars_degs]
    pres = MonomialQuotientPresentation(names, degs, rels, commutative)
    return build_monomial_quotient(p, cap, pres)


def test_truncated_dual_numbers():
    A = mono([("x", 1)], ["x^2"])
    assert [A.dim(n) for n in range(4)] == [1, 1, 0, 0]
    x = A.generator("x")
    assert (x * x).is_zero()


def test_polynomial_ring_window():
    A = mono([("x", 1)], [], cap=6)
    assert [A.dim(n) for n in range(7)] == [1] * 7
    x = A.generator("x")
    el = x
    for _ in range(5):
        el = el * x
    assert not el.is_zero() and el.degree == 6


def test_two_variable_quotient_basis_order():
    A = mono([("x", 1), ("y", 1)], ["x*y"])
    assert [A.dim(n) for n in range(4)] == [1, 2, 2, 2]
    assert A.labels(2) == ["x^2", "y^2"]
    x, y = A.generator("x"), A.generator("y")
    assert (x * y).is_zero() and (y * x).is_zero()
    assert not (x * x).is_zero()


def test_commutative_polynomial_two_vars():
    A = mono([("x", 1), ("y", 1)], [], cap=5)
    assert [A.dim(n) for n in range(6)] == [1, 2, 3, 4, 5, 6]
    x, y = A.generator("x"), A.generator("y")
    assert x * y == y * x


def test_free_noncommutative_algebra():
    A = mono([("x", 1), ("y", 1)], [], cap=6, commutative=False)
    assert [A.dim(n) for n in range(7)] == [1, 2, 4, 8, 16, 32, 64]
    x, y = A.generator("x"), A.generator("y")
    assert x * y != y * x


def test_noncommutative_subword_relations():
    A = mono([("x", 1), ("y", 1)], ["x^2", "y^2"], cap=6, commutative=False)
    # alternating words only
    assert [A.dim(n) for n in range(7)] == [1, 2, 2, 2, 2, 2, 2]
    x, y = A.generator("x"), A.generator("y")
    assert (x * x).is_zero()
    assert not (x * y).is_zero()
    assert not (x * y * x).is_zero()


@pytest.mark.parametrize("commutative", [True, False])
def test_a_relation_above_the_cap_is_never_expanded(commutative):
    """An exponent is read as a number: x^(10^12) at cap 4 leaves k[x]
    (or k<x, y>/(y^2)) through the cap, without a list of 10^12 letters.
    A relation's other runs still apply inside the window."""
    import tracemalloc

    tracemalloc.start()
    try:
        A = mono([("x", 1)], [f"x^{10 ** 12}"], cap=4, commutative=commutative)
        B = mono([("x", 1), ("y", 1)], [f"x^{10 ** 12}*y", "y^2", "x^3*y^0"], cap=4,
                 commutative=commutative)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    for got, rels in ((A, []), (B, ["y^2", "x^3"])):
        names = [("x", 1)] if got is A else [("x", 1), ("y", 1)]
        ref = mono(names, rels, cap=4, commutative=commutative)
        assert got.basis == ref.basis and got.generators == ref.generators
        assert all(np.array_equal(got.mult[key], ref.mult[key]) for key in ref.mult)
    assert [A.dim(n) for n in range(5)] == [1] * 5
    with pytest.raises(AlgebraError, match="unknown variable 'z'"):
        mono([("x", 1)], [f"z^{10 ** 12}"], cap=4, commutative=commutative)
    with pytest.raises(AlgebraError, match="empty monomial"):
        mono([("x", 1)], ["x^0"], cap=4, commutative=commutative)


def test_variable_of_higher_degree():
    A = mono([("z", 2)], [], cap=6)
    assert [A.dim(n) for n in range(7)] == [1, 0, 1, 0, 1, 0, 1]


def test_product_of_basis_monomials_can_vanish():
    A = mono([("x", 1), ("y", 1)], ["x^2*y^2"], cap=6)
    xy = A.element_from_string("x*y")
    assert not xy.is_zero()
    assert (xy * xy).is_zero()


def test_unit_and_associativity_checks():
    for A in (
        mono([("x", 1)], ["x^2"]),
        mono([("x", 1), ("y", 1)], ["x*y"], cap=5),
        mono([("x", 1), ("y", 1)], [], cap=4, commutative=False),
    ):
        assert A.check_associativity() == []
        one = A.unit()
        for n in range(1, A.cap + 1):
            for i in range(A.dim(n)):
                b = A.basis_element(n, i)
                assert one * b == b and b * one == b


def test_element_from_string():
    A = mono([("x", 1), ("y", 1)], ["x*y"], cap=5)
    el = A.element_from_string("x + 2*y")
    assert el.degree == 1
    assert list(el.vec) == [1, 2]
    el2 = A.element_from_string("x^2 - x*x")
    assert el2 is None
    el3 = A.element_from_string("3*x^2")
    assert el3.degree == 2 and list(el3.vec) == [3, 0]
    with pytest.raises(AlgebraError):
        A.element_from_string("x + x^2")
    with pytest.raises(AlgebraError):
        A.element_from_string("w")


@pytest.mark.parametrize("p", [0, 1, 4, 6, 65537, 4294967311])
def test_characteristic_must_be_a_prime_below_the_bound(p):
    with pytest.raises(AlgebraError, match=f"p = {p} "):
        mono([("x", 1)], ["x^2"], p=p)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_small_primes_up_to_the_bound_are_accepted(p):
    assert mono([("x", 1)], ["x^2"], p=p).p == p


def test_product_beyond_cap_rejected():
    A = mono([("x", 1)], [], cap=3)
    x = A.generator("x")
    el = x * x * x
    with pytest.raises(AlgebraError, match="beyond cap 3"):
        el * x


def test_product_is_exact_where_a_three_term_sum_overflows_int64():
    """182^2 terms of (p - 1)^3 exceed 2^63 at p = 65519; the product
    must still equal the exact sum mod p, -182^2, as left
    multiplication gives it."""
    p, n = 65519, 182
    A = GradedAlgebra(p, 2, [["1"], [f"x{i}" for i in range(n)], ["z"]],
                      {(1, 1): np.full((n, n, 1), p - 1)})
    a = Element(A, 1, np.full(n, p - 1))
    assert n * n * (p - 1) ** 3 > np.iinfo(np.int64).max
    assert A.multiply(a, a).vec.tolist() == [-n * n % p] == [32395]
    assert (a.vec @ A.left_mult_matrix(a, 1) % p).tolist() == [32395]


def test_fiber_product_dims_and_vanishing_cross_products():
    S = mono([("x", 1)], ["x^3"])
    T = mono([("y", 1)], ["y^2"])
    R = fiber_product(S, T)
    assert [R.dim(n) for n in range(4)] == [1, 2, 1, 0]
    x, y = R.generator("x"), R.generator("y")
    assert (x * y).is_zero() and (y * x).is_zero()
    assert not (x * x).is_zero()


def test_fiber_product_matches_monomial_model():
    S = mono([("x", 1)], ["x^3"])
    T = mono([("y", 1)], ["y^2"])
    R = fiber_product(S, T)
    Q = mono([("x", 1), ("y", 1)], ["x^3", "x*y", "y^2"])
    for n in range(R.cap + 1):
        assert R.dim(n) == Q.dim(n)
    # compare structure constants through the label map S:m -> m, T:m -> m
    for n in range(R.cap + 1):
        perm = [Q.labels(n).index(lab.split(":", 1)[-1]) for lab in R.labels(n)]
        assert sorted(perm) == list(range(Q.dim(n)))
    for (m, n), arr in R.mult.items():
        pm = [Q.labels(m).index(lab.split(":", 1)[-1]) for lab in R.labels(m)]
        pn = [Q.labels(n).index(lab.split(":", 1)[-1]) for lab in R.labels(n)]
        po = [Q.labels(m + n).index(lab.split(":", 1)[-1]) for lab in R.labels(m + n)]
        q = np.asarray(Q.mult[(m, n)]).reshape(Q.table_dims(m, n))[np.ix_(pm, pn, po)]
        assert np.array_equal(np.asarray(arr).reshape(R.table_dims(m, n)), q)


def project(R, side, el):
    """The projection of R onto a factor, read through ``part``."""
    return Element(R.factor(side), el.degree, el.vec[R.part(side, el.degree)])


def test_fiber_projections_are_algebra_maps():
    S = mono([("x", 1)], ["x^4"], cap=6)
    T = mono([("y", 1), ("z", 1)], ["y*z"], cap=6)
    R = fiber_product(S, T)
    assert R.check_associativity() == []
    for n in range(1, 4):
        for i in range(R.dim(n)):
            for m in range(1, 4 - n + 1):
                for j in range(R.dim(m)):
                    a, b = R.basis_element(n, i), R.basis_element(m, j)
                    for side in "ST":
                        assert project(R, side, a * b) == \
                            project(R, side, a) * project(R, side, b)
    x = S.generator("x")
    assert project(R, "S", R.embed("S", x)) == x
    assert project(R, "T", R.embed("S", x)).is_zero()
    y = T.generator("y")
    assert project(R, "T", R.embed("T", y)) == y
    assert project(R, "S", R.embed("T", y)).is_zero()
    one = R.embed("T", T.unit())
    assert one == R.unit() and project(R, "S", one) == S.unit()


def test_table_json_round_trip():
    S = mono([("x", 1)], ["x^3"], cap=5)
    obj = S.to_table_json()
    from fiberres.jsonio import algebra_from_obj

    S2 = algebra_from_obj(obj, S.p, S.cap)
    assert S2.basis == S.basis
    for key, arr in S.mult.items():
        assert np.array_equal(S2.mult[key], arr)
    assert S2.generators == S.generators


# -- typed errors: these checks hold under python -O ------------------------


def test_fiber_product_of_different_primes_raises():
    S = mono([("x", 1)], ["x^3"], cap=4, p=3)
    T = mono([("y", 1)], ["y^2"], cap=4, p=5)
    with pytest.raises(AlgebraError, match=r"GF\(3\) and GF\(5\)"):
        fiber_product(S, T)


def test_fiber_product_cap_above_a_factor_raises():
    S = mono([("x", 1)], ["x^3"], cap=4)
    T = mono([("y", 1)], ["y^2"], cap=6)
    with pytest.raises(AlgebraError, match="cap 5 above a factor's cap 4"):
        fiber_product(S, T, cap=5)


def test_element_shape_and_algebra_checks_raise():
    A = mono([("x", 1), ("y", 1)], ["x^2", "y^2"], cap=3)
    B = mono([("x", 1), ("y", 1)], ["x^2", "y^2"], cap=3)
    with pytest.raises(AlgebraError, match="dimension 2"):
        Element(A, 1, [1, 0, 0])
    x, y = A.generator("x"), A.generator("y")
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(AlgebraError, match="different algebras"):
            op(x, B.generator("x"))
        with pytest.raises(AlgebraError, match="degrees 1 and 2"):
            op(x, x * y)
    with pytest.raises(AlgebraError, match="another algebra"):
        A.multiply(x, B.generator("y"))
    R = fiber_product(A, B)
    with pytest.raises(AlgebraError, match="another algebra"):
        R.embed("S", B.generator("x"))
    with pytest.raises(AlgebraError, match="another algebra"):
        R.embed("T", x)
    with pytest.raises(AlgebraError, match="side must be 'S' or 'T', not 'U'"):
        R.factor("U")


def test_presentation_and_table_checks_raise():
    with pytest.raises(AlgebraError, match="duplicate variable"):
        MonomialQuotientPresentation(["x", "x"], [1, 1], [])
    with pytest.raises(AlgebraError, match="must be positive"):
        MonomialQuotientPresentation(["x"], [0], [])
    with pytest.raises(AlgebraError, match="need cap \\+ 1"):
        GradedAlgebra(5, 2, [["1"], ["x"]], {})
    with pytest.raises(AlgebraError, match="spanned by the unit"):
        GradedAlgebra(5, 0, [["u"]], {})
    with pytest.raises(AlgebraError, match=r"missing product tensor for degrees \(1, 1\)"):
        GradedAlgebra(5, 2, [["1"], ["x"], ["x^2"]], {})
    with pytest.raises(AlgebraError, match="has shape"):
        GradedAlgebra(5, 2, [["1"], ["x"], ["x^2"]], {(1, 1): [[1, 0]]})


def test_a_matrix_table_is_kept_and_a_tensor_is_read_mod_p():
    """The constructor holds a caller's ``linalg.Matrix`` table (rows a *
    dim n + b) as it is, so a large table is not held twice; a tensor (a
    list, another dtype or an entry outside [0, p)) is read mod p into a
    Matrix of the same cells.  A Matrix of another shape is refused."""
    basis = [["1"], ["x", "y"], ["z"]]
    table = np.array([[[1], [4]], [[0], [2]]], dtype=np.int64)
    mat = linalg.Matrix.read(table.reshape(4, 1), 5)
    A = GradedAlgebra(5, 2, basis, {(1, 1): mat})
    assert A.mult[(1, 1)] is mat
    for other in (table, [[[1], [4]], [[0], [2]]], table.astype(np.int32), table + 5,
                  table - 5):
        B = GradedAlgebra(5, 2, basis, {(1, 1): other})
        assert B.mult[(1, 1)].shape == (4, 1)
        assert np.asarray(B.mult[(1, 1)]).tolist() == [[1], [4], [0], [2]]
    with pytest.raises(AlgebraError, match=re.escape("has shape (2, 2); expected (2, 2, 1)")):
        GradedAlgebra(5, 2, basis, {(1, 1): linalg.Matrix.read(table.reshape(2, 2), 5)})


# -- every table product against einsum, on both sides of the storage rule --

# Degree dims of a random algebra and module: tables (1, 1) and (3, 0) of
# the module are dense blocks, (1, 2), (2, 1) and the module's (2, 1) are
# kept as entries (more than STORAGE_MIN_CELLS = 4096 cells).
ALG_DIMS, MOD_DIMS = [1, 3, 70, 60], [2, 40, 50, 30]


def random_tensor(rng, shape, p, density):
    return rng.integers(0, p, size=shape) * (rng.random(shape) < density)


@pytest.fixture(scope="module", params=[2, 3, 32003])
def random_tables(request):
    """A random algebra and module (not associative) over GF(p) with
    sparse tables, and the tensors they were read from."""
    from fiberres.gmodule import GradedModule
    p, rng = request.param, np.random.default_rng(request.param)
    cap = len(ALG_DIMS) - 1
    mult = {(m, n): random_tensor(rng, (ALG_DIMS[m], ALG_DIMS[n], ALG_DIMS[m + n]), p, 0.05)
            for m in range(1, cap) for n in range(1, cap + 1 - m)}
    A = GradedAlgebra(p, cap, [["1"]] + [[f"a{n}_{i}" for i in range(d)]
                                         for n, d in enumerate(ALG_DIMS) if n], mult)
    action = {(m, n): random_tensor(rng, (ALG_DIMS[m], MOD_DIMS[n], MOD_DIMS[m + n]), p, 0.05)
              for m in range(1, cap + 1) for n in range(cap + 1 - m)}
    M = GradedModule(A, [[f"v{n}_{i}" for i in range(d)] for n, d in enumerate(MOD_DIMS)],
                     action)
    return p, rng, A, M, mult, action


def test_the_random_tables_lie_on_both_sides_of_the_storage_rule(random_tables):
    _, _, A, M, _, _ = random_tables
    tables = [*A.mult.values(), *M.action.values()]
    assert {t.size >= linalg.STORAGE_MIN_CELLS for t in tables} == {False, True}
    assert all(t.kept_dense == (t.size < linalg.STORAGE_MIN_CELLS) for t in tables)


def test_table_products_equal_einsum(random_tables):
    """``left_product``, ``right_product``, ``difference`` and
    ``by_right_factor`` against einsum on the tensors, two contractions
    at a time, reduced in between."""
    p, rng, A, M, mult, action = random_tables
    for key, tensor, table in [*((k, t, A.mult[k]) for k, t in mult.items()),
                               *((k, t, M.action[k]) for k, t in action.items())]:
        dims = tensor.shape
        left = random_tensor(rng, (4, dims[0]), p, 0.5)
        right = random_tensor(rng, (dims[1], 3), p, 0.5)
        want = np.einsum("ia,abc->ibc", left, tensor) % p
        assert np.array_equal(np.asarray(left_product(table, dims, left, p)),
                              want.reshape(4, -1)), key
        want = np.einsum("abc,bn->anc", tensor, right) % p
        assert np.array_equal(np.asarray(right_product(table, dims, right, p)),
                              want.reshape(dims[0], -1)), key
        other = linalg.Matrix.read(random_tensor(rng, table.shape, p, 0.05), p)
        assert np.array_equal(np.asarray(difference(table, other, p)),
                              (np.asarray(table) - np.asarray(other)) % p), key
    for (da, e), tensor in mult.items():
        want = tensor.transpose(1, 0, 2).reshape(ALG_DIMS[e], -1)
        assert np.array_equal(np.asarray(A.by_right_factor(da, e)), want), (da, e)


def test_element_and_module_products_equal_einsum(random_tables):
    """``multiply``, ``left_mult_matrix``, ``right_mult_matrix``,
    ``act_matrix`` and ``act`` against einsum on the tensors."""
    p, rng, A, M, mult, action = random_tables
    el = {n: Element(A, n, rng.integers(0, p, size=d)) for n, d in enumerate(ALG_DIMS)}
    for (m, n), tensor in mult.items():
        a, b = el[m], el[n]
        left = np.einsum("i,ijk->jk", a.vec, tensor) % p
        right = np.einsum("ijk,j->ik", tensor, b.vec) % p
        assert np.array_equal(np.asarray(A.left_mult_matrix(a, n)), left), (m, n)
        assert np.array_equal(np.asarray(A.right_mult_matrix(m, b)), right), (m, n)
        assert np.array_equal((a * b).vec, b.vec @ left % p), (m, n)
    for (m, n), tensor in action.items():
        a, vec = el[m], rng.integers(0, p, size=MOD_DIMS[n])
        act = np.einsum("i,ijk->jk", a.vec, tensor) % p
        assert np.array_equal(np.asarray(M.act_matrix(a, n)), act), (m, n)
        degree, image = M.act(a, n, vec)
        assert degree == m + n and np.array_equal(image, vec @ act % p), (m, n)


def test_associativity_checks_equal_einsum(random_tables):
    """The violating triples of the algebra's and the module's
    associativity checks are those of the einsum reference."""
    p, _, A, M, mult, action = random_tables
    cap = A.cap
    want = [(l, m, n) for l in range(1, cap - 1) for m in range(1, cap - l)
            for n in range(1, cap + 1 - l - m)
            if not np.array_equal(
                np.einsum("abk,kcd->abcd", mult[(l, m)], mult[(l + m, n)]) % p,
                np.einsum("bcj,ajd->abcd", mult[(m, n)], mult[(l, m + n)]) % p)]
    assert A.check_associativity() == want
    want = [(m1, m2, n) for m1 in range(1, cap) for m2 in range(1, cap + 1 - m1)
            for n in range(cap + 1 - m1 - m2)
            if not np.array_equal(
                np.einsum("abk,kxy->abxy", mult[(m1, m2)], action[(m1 + m2, n)]) % p,
                np.einsum("bxj,ajy->abxy", action[(m2, n)], action[(m1, m2 + n)]) % p)]
    assert M.check_associativity() == want


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize("dims, parts", [
    ((4, 3, 5), [((2, 2, 3), (0, 0, 0)), ((2, 1, 2), (2, 2, 3))]),
    ((30, 20, 40), [((10, 20, 40), (5, 0, 0)), ((15, 5, 10), (15, 10, 20))]),
])
def test_placed_tables_equal_slice_assignment(p, dims, parts):
    rng = np.random.default_rng(p)
    want = np.zeros(dims, dtype=np.int64)
    given = []
    for shape, (a0, b0, c0) in parts:
        tensor = random_tensor(rng, shape, p, 0.3)
        want[a0: a0 + shape[0], b0: b0 + shape[1], c0: c0 + shape[2]] = tensor
        given.append((linalg.Matrix.read(tensor.reshape(-1, shape[2]), p), shape[1], (a0, b0, c0)))
    got = linalg.Matrix.placed_tables(given, dims, p)
    assert got.shape == (dims[0] * dims[1], dims[2])
    assert np.array_equal(np.asarray(got), want.reshape(got.shape))
