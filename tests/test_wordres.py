import itertools

import numpy as np
import pytest

from fiberres.algebra import (
    MonomialQuotientPresentation,
    build_monomial_quotient,
    fiber_product,
)
from fiberres.gmodule import AlgMatrix, FreeModule, algebra_as_module, cokernel_module, residue_module
from fiberres.resolve import WindowError, minimal_resolution
from fiberres.wordres import (
    Letter,
    WordError,
    WordTable,
    assemble_word_complex,
    build_word_resolution,
    check_word,
    generate_words,
    verify_word_resolution,
    word_count_series,
    word_differential,
)

P = 32003


def mono(vars_degs, rels, cap=8, commutative=True):
    names = [v for v, _ in vars_degs]
    degs = [d for _, d in vars_degs]
    return build_monomial_quotient(
        P, cap, MonomialQuotientPresentation(names, degs, rels, commutative)
    )


def square_zero_pair():
    S = mono([("x", 1)], ["x^2"])
    T = mono([("y", 1)], ["y^2"])
    return S, T


def test_word_enumeration_square_zero():
    S, T = square_zero_pair()
    k = residue_module(S)
    E = minimal_resolution(S, k, 4)
    F = minimal_resolution(T, residue_module(T), 4)
    Pres = minimal_resolution(S, k, 4)
    words = generate_words(E, F, Pres, 4)
    assert [len(b) for b in words] == [1, 2, 4, 8, 16]
    G = assemble_word_complex(fiber_product(S, T), E, F, Pres, 4)
    assert G.word_labels(2) == ["p2", "f1.p1", "f2.p0", "e1.f1.p0"]
    assert G.word_labels(0) == ["p0"]


def test_word_validity_rules():
    e1 = Letter("E", 1, 0, 1)
    f1 = Letter("F", 1, 0, 1)
    p0 = Letter("P", 0, 0, 0)
    p1 = Letter("P", 1, 0, 1)
    check_word((e1, f1, p0))
    check_word((p1,))
    with pytest.raises(WordError):
        check_word((e1, p0))       # E directly before the final P
    with pytest.raises(WordError):
        check_word((f1, f1, p0))   # consecutive same tag
    with pytest.raises(WordError):
        check_word((p0, f1, p0))   # interior P
    with pytest.raises(WordError):
        check_word((e1, f1))       # must end in P


def test_word_differential_square_zero():
    S, T = square_zero_pair()
    R = fiber_product(S, T)
    k = residue_module(S)
    E = minimal_resolution(S, k, 4)
    F = minimal_resolution(T, residue_module(T), 4)
    f1 = Letter("F", 1, 0, 1)
    p0 = Letter("P", 0, 0, 0)
    img = word_differential((f1, p0), E, F, E, R)
    assert len(img) == 1
    (tgt, coeff), = img
    assert tgt == (p0,)
    assert coeff == R.embed("T", T.generator("y"))
    # the square of the differential kills e1.f1.p0 because the two
    # augmentation ideals multiply to zero
    e1 = Letter("E", 1, 0, 1)
    (w1, c1), = word_differential((e1, f1, p0), E, F, E, R)
    assert w1 == (f1, p0) and c1 == R.embed("S", S.generator("x"))
    (w2, c2), = word_differential(w1, E, F, E, R)
    assert (c1 * c2).is_zero()


def test_build_square_zero_matches_direct():
    S, T = square_zero_pair()
    G = build_word_resolution(S, T, residue_module(S), 5)
    assert [G.rank(i) for i in range(6)] == [1, 2, 4, 8, 16, 32]
    rep = verify_word_resolution(G, compare_direct=True)
    assert rep.ok, rep.first_failure()


def test_words_above_the_cap_pass_verification():
    # at cap 3 the hom-4 words have internal degree 4: they have no
    # column in the window, and the checks inside it still pass
    S = mono([("x", 1)], ["x^2"], cap=3)
    T = mono([("y", 1)], ["y^2"], cap=3)
    G = build_word_resolution(S, T, residue_module(S), 4)
    assert G.frees[4].gen_degrees == [4] * 14
    rep = verify_word_resolution(G)
    assert rep.ok, rep.first_failure()
    assert "d3 o d4 = 0" in [c["name"] for c in rep.checks]


def test_words_above_dmax_are_left_out_of_the_direct_comparison():
    # at cap 3 the words of bidegrees (4, 4) and (5, 5) lie above dmax 3,
    # where the direct resolution stops; both tables are exact at the
    # internal degrees <= 3, and only there are they compared
    S = mono([("x", 1)], ["x^2"], cap=3)
    T = mono([("y", 1)], ["y^2"], cap=3)
    G = build_word_resolution(S, T, residue_module(S), 5)
    assert G.dmax == 3
    assert {key: n for key, n in G.betti().items() if key[1] > 3} == {(4, 4): 14, (5, 5): 26}
    rep = verify_word_resolution(G, compare_direct=True)
    assert rep.ok, rep.first_failure()
    check = next(c for c in rep.checks if c["name"] == "ranks match direct minimal resolution")
    assert check["detail"].endswith("words [((0, 0), 1), ((1, 1), 2), ((2, 2), 4), ((3, 3), 8)]")


def test_build_mixed_pair_and_module():
    S = mono([("x", 1)], ["x^3"])
    T = mono([("y", 1)], ["y^2"])
    # M = S/(x^2) has resolution with generator degrees stepping 2,1,2,1,...
    F0, F1 = FreeModule(S, [0]), FreeModule(S, [2])
    M = cokernel_module(AlgMatrix(S, F1, F0, {(0, 0): S.element_from_string("x^2")}))
    G = build_word_resolution(S, T, M, 5)
    rep = verify_word_resolution(G, compare_direct=True)
    assert rep.ok, rep.first_failure()
    direct = minimal_resolution(G.algebra, G.module, 5)
    assert [G.rank(i) for i in range(6)] == [direct.rank(i) for i in range(6)]


def test_counts_match_series_cubic_pair():
    S = mono([("x", 1)], ["x^3"])
    T = mono([("y", 1)], ["y^2"])
    k = residue_module(S)
    E = minimal_resolution(S, k, 6)
    F = minimal_resolution(T, residue_module(T), 6)
    words = generate_words(E, F, E, 6)
    series = word_count_series(E, F, E, 6)
    assert [len(b) for b in words] == series.coeffs


def test_free_module_special_case():
    # M = T with the factor roles swapped: P is the rank-one free
    # module, so every word is either a bare p0 or ends with an
    # S-side letter followed by p0
    S = mono([("x", 1)], ["x^2"])
    T = mono([("y", 1)], ["y^2"])
    G = build_word_resolution(T, S, algebra_as_module(T), 5)
    rep = verify_word_resolution(G, compare_direct=True)
    assert rep.ok, rep.first_failure()
    words = generate_words(G.E, G.F, G.P, 5)
    for i in range(1, 6):
        for w in words[i]:
            assert w[-1] == Letter("P", 0, 0, 0)
            assert w[-2].tag == "F"
    # ranks are the fiber formula with P_M = 1: 1, 1, 2, 4, 8, ...
    assert [G.rank(i) for i in range(6)] == [1, 1, 2, 4, 8, 16]


def test_residue_special_case_words():
    # M = k: taking P = E makes every positive-degree word end in
    # f.p0 and degree counts follow 1/(1 - 2t) for the square-zero pair
    S, T = square_zero_pair()
    G = build_word_resolution(S, T, residue_module(S), 4)
    words = generate_words(G.E, G.F, G.P, 4)
    for i in range(1, 5):
        for w in words[i]:
            if len(w) == 1:
                assert w[0].tag == "P"
            else:
                assert w[-2].tag == "F" and w[-1].tag == "P"
    assert G.word_counts() == [1, 2, 4, 8, 16]


def test_nonminimal_input_rejected():
    S, T = square_zero_pair()
    k = residue_module(S)
    E = minimal_resolution(S, k, 3)
    F = minimal_resolution(T, residue_module(T), 3)
    bad_entries = {(0, 0): S.unit()}
    bad = AlgMatrix(S, FreeModule(S, [0]), E.frees[0], bad_entries)
    from fiberres.resolve import FreeResolution

    E_bad = FreeResolution(S, k, 1, E.dmax, [E.frees[0], bad.src], [None, bad.terms()],
                           E.cover)
    with pytest.raises(WordError):
        generate_words(E_bad, F, E, 1)


def test_wrong_fiber_rejected():
    S, T = square_zero_pair()
    other = fiber_product(T, S)
    with pytest.raises(WordError):
        build_word_resolution(S, T, residue_module(S), 3, fiber=other)


def test_two_variable_factor():
    S = mono([("x", 1), ("y", 1)], ["x*y"], cap=6)
    T = mono([("z", 1)], ["z^2"], cap=6)
    G = build_word_resolution(S, T, residue_module(S), 4)
    rep = verify_word_resolution(G, compare_direct=True)
    assert rep.ok, rep.first_failure()
    # multi-generator steps get index suffixes in word labels
    assert any("_" in lab for lab in G.word_labels(1))


def _brute_force_words(seeds, letters, cap, first):
    """Every letter sequence of the alphabet (side, weight, index), kept
    when neighbouring sides differ and the letter next to the seed is
    from side ``first``, sorted by (length, letters, seed)."""
    alphabet = [(t, w, i) for t in (0, 1) for w, k in enumerate(letters[t]) for i in range(k)]
    seeds = [(w, i) for w, k in enumerate(seeds) for i in range(k)]
    out = [[] for _ in range(cap + 1)]
    for n in range(cap + 1):
        for seq in itertools.product(alphabet, repeat=n):
            sides = [t for t, _, _ in seq]
            if any(a == b for a, b in zip(sides, sides[1:])):
                continue
            if seq and first is not None and sides[-1] != first:
                continue
            for s in seeds:
                total = s[0] + sum(w for _, w, _ in seq)
                if total <= cap:
                    out[total].append((seq, s))
    return [sorted(b, key=lambda w: (len(w[0]), w)) for b in out]


@pytest.mark.parametrize("first", [None, 0, 1])
@pytest.mark.parametrize("cap", [0, 1, 5])
@pytest.mark.parametrize("seeds", [[], [1], [1, 1, 0, 1], [2, 0, 1]])
@pytest.mark.parametrize("letters", [[[0, 1, 1], [0, 1, 0, 1]], [[], [0, 1]], [[0, 2], [0, 0, 3]]])
def test_word_table_matches_brute_force(first, cap, seeds, letters):
    """The decoded table lists each weight's words in (length, letters,
    seed) order, and its prepend lookup finds each word from its rest."""
    table = WordTable(letters, seeds, cap, first)
    want = _brute_force_words(seeds, letters, cap, first)
    assert [table.words(n) for n in range(cap + 1)] == want
    index = [{w: i for i, w in enumerate(b)} for b in want]
    for n, words in enumerate(want):
        for i, (ls, s) in enumerate(words):
            if ls:
                x = table.letters.index(ls[0])
                rest = index[n - ls[0][1]][(ls[1:], s)]
                assert (table.first[n][i], table.rest[n][i]) == (x, rest)
                assert table.prepend(x, n - ls[0][1], [rest]).tolist() == [i]
            else:
                assert (table.first[n][i], table.rest[n][i]) == (-1, s[1]) and i == s[1]


def test_word_table_rejects_weightless_letters():
    with pytest.raises(WordError, match="positive weight"):
        WordTable([[1, 0], [0, 1]], [1], 2)


def test_word_terms_equal_the_word_by_word_differential():
    """Each step's generator terms, built from the table, equal those of
    ``AlgMatrix`` on ``word_differential`` applied word by word, order
    included: s_x3 x t_y2 at hmax 6 with M = k and M = S/(x^2)."""
    S = mono([("x", 1)], ["x^3"], cap=12)
    T = mono([("y", 1)], ["y^2"], cap=12)
    R = fiber_product(S, T)
    kx2 = cokernel_module(AlgMatrix(S, FreeModule(S, [2]), FreeModule(S, [0]),
                                    {(0, 0): S.element_from_string("x^2")}))
    for M in (residue_module(S), kx2):
        G = build_word_resolution(S, T, M, 6, fiber=R)
        words = generate_words(G.E, G.F, G.P, 6)
        for i in range(1, 7):
            index = {w: r for r, w in enumerate(words[i - 1])}
            entries = {}
            for j, w in enumerate(words[i]):
                for tgt, coeff in word_differential(w, G.E, G.F, G.P, R):
                    entries[(index[tgt], j)] = coeff
            want = AlgMatrix(R, G.frees[i], G.frees[i - 1], entries).terms()
            assert list(G.terms[i]) == list(want)
            for key, arrays in want.items():
                assert all(np.array_equal(a, b) and a.dtype == b.dtype
                           for a, b in zip(G.terms[i][key], arrays)), (i, key)


def test_word_count_series_beyond_inputs_raises_word_error():
    S, T = square_zero_pair()
    E = minimal_resolution(S, residue_module(S), 3)
    F = minimal_resolution(T, residue_module(T), 3)
    assert word_count_series(E, F, E, 3).coeffs == [1, 2, 4, 8]
    with pytest.raises(WordError, match="reach degree 3, not 4"):
        word_count_series(E, F, E, 4)


def test_assemble_word_complex_applies_the_window_rule():
    """The word complex defaults dmax to the fiber product's cap and
    refuses one above it with the WindowError every entry point raises."""
    S, T = square_zero_pair()
    R = fiber_product(S, T)
    E = minimal_resolution(S, residue_module(S), 2)
    F = minimal_resolution(T, residue_module(T), 2)
    assert assemble_word_complex(R, E, F, E, 2).dmax == R.cap
    with pytest.raises(WindowError, match=f"^dmax {R.cap + 1} beyond tabulated degrees; "
                                          f"largest valid dmax is {R.cap}$"):
        assemble_word_complex(R, E, F, E, 2, R.cap + 1)
