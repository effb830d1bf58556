"""Build the word-indexed resolution of the residue field over
R = k[x]/(x^3) x_k k[y]/(y^2): the basis of each free module is a set
of alternating words in the syzygy letters of the two factors, the
differential only ever peels the last letter, and the ranks agree with
the direct degreewise computation."""

from fiberres import (
    MonomialQuotientPresentation,
    build_monomial_quotient,
    build_word_resolution,
    fiber_product,
    residue_module,
    verify_word_resolution,
    word_count_series,
    word_count_series_formula,
)

CAP, HMAX = 12, 5


def ring(var, rels):
    pres = MonomialQuotientPresentation([var], [1], rels, commutative=True)
    return build_monomial_quotient(32003, CAP, pres)


def main():
    S = ring("x", ["x^3"])
    T = ring("y", ["y^2"])
    R = fiber_product(S, T)
    G = build_word_resolution(S, T, residue_module(S), HMAX, fiber=R)

    print("Words over R = k[x]/(x^3) x_k k[y]/(y^2), module k:")
    for i in range(HMAX + 1):
        print(f"  step {i}: {', '.join(G.word_labels(i)) or '(empty word)'}")
    print("counts:", G.word_counts(), "\n")

    print("Differential in step 1 (each word loses its last letter):")
    for row in G.entry_strings(1):
        print("  ", row)
    print()

    counts = word_count_series(G.E, G.F, G.P, HMAX)
    formula = word_count_series_formula(G.P.poincare_series(),
                                        G.E.poincare_series(),
                                        G.F.poincare_series())
    print("Word-count series:", counts.coeffs[: HMAX + 1])
    print("Closed form h_P*h_F/(1-(h_E-1)(h_F-1)):", formula.coeffs[: HMAX + 1])
    print()

    rep = verify_word_resolution(G, compare_direct=True)
    for chk in rep.checks:
        print(f"  [{'PASS' if chk['ok'] else 'FAIL'}] {chk['name']}")
    print("verified:", rep.ok)


if __name__ == "__main__":
    main()
