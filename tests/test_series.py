import random

import pytest

from fiberres.series import (
    PowerSeries,
    SeriesError,
    coproduct_module_series,
    divide,
    fiber_module_poincare_check,
    geometric_inverse,
    poincare_fiber_formula,
    reciprocal,
    word_count_series_formula,
)


def rand_series(rng, trunc, lo=-9, hi=9, const=None):
    coeffs = [rng.randint(lo, hi) for _ in range(trunc + 1)]
    if const is not None:
        coeffs[0] = const
    return PowerSeries(coeffs, trunc)


def test_construction_and_coeff_bounds():
    s = PowerSeries([1, 2], truncation=4)
    assert s.coeffs == [1, 2, 0, 0, 0]
    assert s.coeff(4) == 0
    with pytest.raises(SeriesError, match="beyond truncation 4"):
        s.coeff(5)


def test_add_mul_min_truncation():
    a = PowerSeries([1, 1, 1], truncation=2)
    b = PowerSeries([1, 2, 3, 4], truncation=3)
    assert (a + b).truncation == 2
    assert (a + b).coeffs == [2, 3, 4]
    prod = a * b
    assert prod.truncation == 2
    assert prod.coeffs == [1, 3, 6]


def test_geometric_inverse_doubling():
    m = PowerSeries([0, 2], truncation=6)
    g = geometric_inverse(m)
    assert g.coeffs == [1, 2, 4, 8, 16, 32, 64]


def test_geometric_inverse_requires_zero_constant():
    with pytest.raises(SeriesError, match="zero constant term"):
        geometric_inverse(PowerSeries([1, 1], truncation=3))


def test_geometric_inverse_identity_exact():
    rng = random.Random(7)
    for _ in range(50):
        t = rng.randrange(1, 9)
        m = rand_series(rng, t, const=0)
        g = geometric_inverse(m)
        one = PowerSeries.one(t)
        assert (g * (one - m)).coeffs == one.coeffs


def test_reciprocal_and_divide():
    rng = random.Random(8)
    for _ in range(30):
        t = rng.randrange(1, 8)
        s = rand_series(rng, t, const=1)
        assert (s * reciprocal(s)).coeffs == PowerSeries.one(t).coeffs
        num = rand_series(rng, t)
        assert (divide(num, s) * s).coeffs == num.coeffs


def test_coproduct_with_trivial_factor_is_identity():
    rng = random.Random(9)
    for _ in range(20):
        t = rng.randrange(1, 8)
        h_a = rand_series(rng, t, lo=0, hi=5, const=1)
        h_m = rand_series(rng, t, lo=0, hi=5)
        h_b = PowerSeries.one(t)
        assert coproduct_module_series(h_a, h_b, h_m).coeffs == h_m.coeffs


def test_fiber_formula_doubling_pair():
    # both residue-field series all-ones gives 1/(1 - 2t)
    t = 6
    ones = PowerSeries([1] * (t + 1), t)
    out = poincare_fiber_formula(ones, ones, ones)
    assert out.coeffs == [1, 2, 4, 8, 16, 32, 64]


def test_fiber_formula_polynomial_pair():
    # two single-variable polynomial rings: (1+t)^2 / (1 - t^2) = (1+t)/(1-t)
    t = 6
    lin = PowerSeries([1, 1], t)
    out = poincare_fiber_formula(lin, lin, lin)
    assert out.coeffs == [1, 2, 2, 2, 2, 2, 2]


def test_word_count_series_formula_free_case():
    # single letters in every positive degree on both sides and a single
    # trivial-step module: counts double each degree
    t = 6
    ones = PowerSeries([1] * (t + 1), t)
    out = word_count_series_formula(ones, ones, ones)
    assert out.coeffs == [1, 2, 4, 8, 16, 32, 64]


def test_fiber_module_poincare_check_both_ways():
    t = 4
    p_k = PowerSeries([1, 2, 4, 8, 16], t)
    p_m = PowerSeries([1, 1, 1, 1, 1], t)
    p_n = PowerSeries([2, 3, 4, 5, 6], t)
    p_fib = p_m + p_n - p_k.scale(1)
    assert fiber_module_poincare_check(p_fib, p_k, 1, p_m, p_n)
    bad = p_fib + PowerSeries.monomial(4, t)
    assert not fiber_module_poincare_check(bad, p_k, 1, p_m, p_n)


def test_matches_uses_shared_truncation():
    a = PowerSeries([1, 2, 3], truncation=2)
    b = PowerSeries([1, 2, 3, 99], truncation=3)
    assert a.matches(b) and b.matches(a)
    assert a != b


def test_json_round_trip_decimal_strings():
    s = PowerSeries([1, -2, 10**30], truncation=2)
    obj = s.to_json()
    assert obj["coefficients"] == ["1", "-2", str(10**30)]
    assert PowerSeries.from_json(obj) == s


def test_randomized_ring_axioms():
    rng = random.Random(12345)
    for _ in range(300):
        t = rng.randrange(0, 7)
        a, b, c = (rand_series(rng, t) for _ in range(3))
        assert (a + b).coeffs == (b + a).coeffs
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
