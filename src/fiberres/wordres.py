"""Alternating-word free resolutions over a fiber product.

Take minimal resolutions P of a module and E of the residue field over
the first factor, and F of the residue field over the second.  Words
that alternate between E- and F-letters and end in a P-letter, with an
F-letter just before it, index a free basis of a resolution over the
fiber product.  The differential acts on the leading letter only;
leading letters of homological degree 1 whose image lands in the
rank-one bottom step are deleted, their coefficient multiplying the
tail word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Element, FiberProductAlgebra, GradedAlgebra, fiber_product
from .gmodule import AlgMatrix, FreeModule, GradedModule, residue_module, restrict_to_fiber
from .resolve import (
    ComplexReport,
    FreeResolution,
    cover_matrices,
    minimal_resolution,
    verify_complex,
)
from .series import PowerSeries, word_count_series_formula

__all__ = [
    "WordError",
    "Letter",
    "Word",
    "WordComplex",
    "alternating_words",
    "generate_words",
    "word_differential",
    "word_label",
    "assemble_word_complex",
    "build_word_resolution",
    "word_count_series",
    "verify_word_resolution",
]


class WordError(ValueError):
    pass


_TAG_RANK = {"E": 0, "F": 1, "P": 2}


@dataclass(frozen=True)
class Letter:
    tag: str        # "E" | "F" | "P"
    hom: int        # homological degree of the source generator
    idx: int        # index into that resolution step
    internal: int   # internal degree of the source generator

    def key(self) -> tuple[int, int, int]:
        return (_TAG_RANK[self.tag], self.hom, self.idx)


Word = tuple[Letter, ...]


def word_internal(w: Word) -> int:
    return sum(x.internal for x in w)


def _word_key(w: Word):
    return (len(w), tuple(x.key() for x in w))


def check_word(w: Word) -> None:
    if not w or w[-1].tag != "P":
        raise WordError(f"word must end in a P letter: {w}")
    for x in w[:-1]:
        if x.tag == "P":
            raise WordError(f"P letter before the end: {w}")
        if x.hom < 1:
            raise WordError(f"E/F letter of homological degree 0: {w}")
    if len(w) >= 2 and w[-2].tag != "F":
        raise WordError(f"letter before the final P letter must be F: {w}")
    for a, b in zip(w, w[1:-1]):
        if a.tag == b.tag:
            raise WordError(f"consecutive letters share a tag: {w}")


def _letters(res: FreeResolution, tag: str, hmin: int, hmax: int) -> list[Letter]:
    out = []
    for i in range(hmin, min(hmax, res.hmax) + 1):
        for j, d in enumerate(res.gen_degrees(i)):
            out.append(Letter(tag, i, j, d))
    return out


def _check_inputs(E: FreeResolution, F: FreeResolution, P: FreeResolution,
                  hmax: int) -> None:
    for name, res in (("E", E), ("F", F), ("P", P)):
        if not res.is_minimal():
            raise WordError(f"resolution {name} is not minimal")
        if res.hmax < hmax:
            raise WordError(f"resolution {name} only reaches step {res.hmax}")
    for name, res in (("E", E), ("F", F)):
        if res.rank(0) != 1 or res.gen_degrees(0) != [0]:
            raise WordError(f"{name} must start from the ring itself")
    if P.algebra is not E.algebra:
        raise WordError("P and E must be resolutions over the same factor")


def alternating_words(seeds: list[tuple[int, object]],
                      letters: list[tuple[int, int, object]], cap: int,
                      first: int | None = None) -> list[list[tuple]]:
    """Words ``(letters, seed)`` of total weight <= cap, bucketed by
    weight in no particular order.  ``seeds`` are (weight, seed) pairs
    and ``letters`` (side, weight, letter) triples, side 0 or 1, of
    positive weight; letters are prepended so that neighbours come from different sides,
    the one next to the seed from side ``first`` (either side if None)."""
    if any(w < 1 for _, w, _ in letters):
        raise WordError("letters need a positive weight")
    buckets: list[list[tuple]] = [[] for _ in range(cap + 1)]
    frontier = [(w, (), s, first) for w, s in seeds if w <= cap]
    while frontier:
        new = []
        for w, ls, s, need in frontier:
            buckets[w].append((ls, s))
            for t, lw, x in letters:
                if w + lw <= cap and (need is None or t == need):
                    new.append((w + lw, (x,) + ls, s, 1 - t))
        frontier = new
    return buckets


def generate_words(E: FreeResolution, F: FreeResolution, P: FreeResolution,
                   hmax: int) -> list[list[Word]]:
    """All valid words of homological degree <= hmax, bucketed by degree
    and sorted by (length, letter keys)."""
    _check_inputs(E, F, P, hmax)
    letters = [(0, x.hom, x) for x in _letters(E, "E", 1, hmax)]
    letters += [(1, x.hom, x) for x in _letters(F, "F", 1, hmax)]
    seeds = [(x.hom, x) for x in _letters(P, "P", 0, hmax)]
    return [sorted((ls + (x,) for ls, x in b), key=_word_key)
            for b in alternating_words(seeds, letters, hmax, first=1)]


def word_differential(w: Word, E: FreeResolution, F: FreeResolution,
                      P: FreeResolution, R: FiberProductAlgebra,
                      ) -> list[tuple[Word, Element]]:
    """Image of a word under the differential: the source differential
    applied to the leading letter, coefficients embedded into the fiber
    product, tail kept."""
    check_word(w)
    head, tail = w[0], w[1:]
    if head.tag == "P":
        if head.hom == 0:
            return []
        src, embed = P, R.embed_s
    elif head.tag == "E":
        src, embed = E, R.embed_s
    else:
        src, embed = F, R.embed_t
    out: list[tuple[Word, Element]] = []
    degs = src.gen_degrees(head.hom - 1)
    for row, el in sorted(src.diff(head.hom).column(head.idx).items()):
        coeff = embed(el)
        if head.tag != "P" and head.hom == 1:
            out.append((tail, coeff))   # bottom step is the ring: drop the letter
        else:
            out.append(((Letter(head.tag, head.hom - 1, row, degs[row]),) + tail,
                        coeff))
    return out


def letter_label(x: Letter, rank: int) -> str:
    base = f"{x.tag.lower()}{x.hom}"
    return f"{base}_{x.idx}" if rank > 1 else base


def word_label(w: Word, E: FreeResolution, F: FreeResolution,
               P: FreeResolution) -> str:
    srcs = {"E": E, "F": F, "P": P}
    return ".".join(letter_label(x, srcs[x.tag].rank(x.hom)) for x in w)


class WordComplex(FreeResolution):
    """Free resolution over the fiber product whose basis is the word
    set; retains the three source resolutions and the words."""

    def __init__(self, algebra, module, hmax, dmax, frees, diffs, cover,
                 words: list[list[Word]], E: FreeResolution,
                 F: FreeResolution, P: FreeResolution):
        super().__init__(algebra, module, hmax, dmax, frees, diffs, cover, [])
        self.words = words
        self.E = E
        self.F = F
        self.P = P

    def word_labels(self, i: int) -> list[str]:
        return self.frees[i].gen_labels

    def word_counts(self) -> list[int]:
        return [len(b) for b in self.words]


def assemble_word_complex(R: FiberProductAlgebra, E: FreeResolution,
                          F: FreeResolution, P: FreeResolution, hmax: int,
                          dmax: int | None = None) -> WordComplex:
    if dmax is None:
        dmax = min(R.cap, E.dmax, F.dmax, P.dmax)
    if dmax > R.cap:
        raise WordError(f"dmax {dmax} beyond tabulated degrees of the fiber product")
    if E.algebra is not R.s_algebra or F.algebra is not R.t_algebra:
        raise WordError("resolutions do not match the fiber product factors")
    words = generate_words(E, F, P, hmax)

    frees = []
    for bucket in words:
        frees.append(FreeModule(R, [word_internal(w) for w in bucket],
                                [word_label(w, E, F, P) for w in bucket]))

    diffs: list = [None]
    for i in range(1, hmax + 1):
        index = {w: r for r, w in enumerate(words[i - 1])}
        entries: dict[tuple[int, int], Element] = {}
        for j, w in enumerate(words[i]):
            for tgt, coeff in word_differential(w, E, F, P, R):
                key = (index[tgt], j)
                entries[key] = entries[key] + coeff if key in entries else coeff
        diffs.append(AlgMatrix(R, frees[i], frees[i - 1], entries))

    module = restrict_to_fiber(R, P.module, "S")
    gens = []
    for j, s in enumerate(P.gen_degrees(0)):
        gens.append((s, P.eval_cover(s)[:, P.frees[0].gen_index(s, j)]))
    cover = cover_matrices(R, module, gens, frees[0], dmax)
    return WordComplex(R, module, hmax, dmax, frees, diffs, cover,
                       words, E, F, P)


def build_word_resolution(S: GradedAlgebra, T: GradedAlgebra,
                          module: GradedModule, hmax: int,
                          dmax: int | None = None,
                          fiber: FiberProductAlgebra | None = None,
                          verify: bool = False) -> WordComplex:
    """Resolve an S-module over the fiber product of S and T by words,
    computing the three source resolutions from scratch."""
    if fiber is None:
        fiber = fiber_product(S, T)
    if fiber.s_algebra is not S or fiber.t_algebra is not T:
        raise WordError("fiber product was built from different factors")
    if dmax is None:
        dmax = fiber.cap
    P = minimal_resolution(S, module, hmax, dmax, gen_label="p")
    E = minimal_resolution(S, residue_module(S), hmax, dmax, gen_label="e")
    F = minimal_resolution(T, residue_module(T), hmax, dmax, gen_label="f")
    G = assemble_word_complex(fiber, E, F, P, hmax, dmax)
    if verify:
        rep = verify_word_resolution(G)
        if not rep.ok:
            raise WordError(f"word complex failed verification: {rep.first_failure()}")
    return G


def word_count_series(E: FreeResolution, F: FreeResolution, P: FreeResolution,
                      hmax: int | None = None) -> PowerSeries:
    """Closed form for the number of words per homological degree."""
    h = min(E.hmax, F.hmax, P.hmax)
    if hmax is not None:
        if hmax > h:
            raise WordError(f"inputs reach degree {h}, not {hmax}")
        h = hmax
    return word_count_series_formula(P.poincare_series().truncate(h),
                                     E.poincare_series().truncate(h),
                                     F.poincare_series().truncate(h))


def verify_word_resolution(G: WordComplex,
                           compare_direct: bool = False) -> ComplexReport:
    """Full in-window verification, plus the count cross-check against
    the closed-form series; optionally recompute the resolution directly
    over the fiber product and compare ranks."""
    rep = verify_complex(G)
    counts = G.word_counts()
    series = word_count_series(G.E, G.F, G.P, G.hmax)
    rep.add("word counts match closed form", counts == series.coeffs,
            f"enumerated {counts}, series {series.coeffs}")
    if compare_direct:
        direct = minimal_resolution(G.algebra, G.module, G.hmax, G.dmax)
        rep.add("ranks match direct minimal resolution",
                direct.betti() == G.betti(),
                f"direct {sorted(direct.betti().items())}, "
                f"words {sorted(G.betti().items())}")
    return rep
