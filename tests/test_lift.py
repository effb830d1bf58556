"""The chain-map property of the three lifts built on the one stage loop
(Yoneda lifts, restrictions onto a factor, comparison maps): for every
stage n >= 1 and internal degree d in the window,

    tgt.d_n(d - s) @ L[n][d] == L[n-1][d] @ src.d_{step+n}(d)   (mod p),

and a comparison map's stage 0 commutes with the two covers."""

import numpy as np
import pytest

from fiberres.algebra import (
    MonomialQuotientPresentation,
    build_monomial_quotient,
    fiber_product,
)
from fiberres.cohomology import comparison_chain_map
from fiberres.extalg import lift_dual, restriction_chain_map
from fiberres.gmodule import (
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


def assert_chain_map(src, tgt, lifts, step=0, shift=0):
    """Check every stage n >= 1 against the stage below; return how many
    of the checked matrices are nonzero, so a vacuous lift shows."""
    nonzero = 0
    for n in range(1, len(lifts)):
        assert lifts[n], f"stage {n} is empty"
        for d, L in lifts[n].items():
            lhs = tgt.eval_diff(n, d - shift) @ L
            rhs = lifts[n - 1][d] @ src.eval_diff(step + n, d)
            assert np.array_equal(lhs % P, rhs % P), (n, d)
            nonzero += bool(np.any(L))
    return nonzero


def test_lift_dual_is_a_chain_map():
    A = mono("x", "x^3")
    res = minimal_resolution(A, residue_module(A), 5)
    nonzero = 0
    for step in range(1, 5):
        for idx, s in enumerate(res.gen_degrees(step)):
            lifts = lift_dual(res, res, step, idx, 5 - step)
            assert len(lifts) == 6 - step
            nonzero += assert_chain_map(res, res, lifts, step, s)
    assert nonzero > 0


@pytest.mark.parametrize("side", ["S", "T"])
def test_restriction_chain_map_is_a_chain_map(cube_square, side):
    S, T, R = cube_square
    fac = S if side == "S" else T
    R_res = minimal_resolution(R, residue_module(R), 4)
    fac_res = minimal_resolution(fac, residue_module(fac), 4)
    maps = restriction_chain_map(R_res, fac_res, R, side)
    assert len(maps) == 5
    assert assert_chain_map(R_res, fac_res, maps) > 0


def test_comparison_chain_map_is_a_chain_map(cube_square):
    S, _, R = cube_square
    src = minimal_resolution(
        R, restrict_to_fiber(R, free_module_table(S, [0, 0]), "S"), 4)
    tgt = minimal_resolution(R, trivial_module(R, 2), 4)
    mu = np.array([[1, 2], [3, 5]], dtype=np.int64)  # V_0 <- M_0
    chain = comparison_chain_map(src, tgt, {0: mu.T}, 4)
    assert len(chain) == 5
    for d, L in chain[0].items():
        f = mu if d == 0 else np.zeros(
            (tgt.module.dim(d), src.module.dim(d)), dtype=np.int64)
        assert np.array_equal((tgt.eval_cover(d) @ L) % P,
                              (f @ src.eval_cover(d)) % P), d
    assert assert_chain_map(src, tgt, chain) > 0
