"""Alternating-word free resolutions over a fiber product, and the one
table of alternating words.

Take minimal resolutions P of a module and E of the residue field over
the first factor, and F of the residue field over the second.  Words
that alternate between E- and F-letters and end in a P-letter, with an
F-letter just before it, index a free basis of a resolution over the
fiber product.  The differential acts on the leading letter only;
leading letters of homological degree 1 whose image lands in the
rank-one bottom step are deleted, their coefficient multiplying the
tail word.

``WordTable`` holds every set of alternating words the package builds:
this basis, and in ``extalg`` the free product's and the induced
module's, each word as its first letter and the index of its rest.
"""

from __future__ import annotations

import operator
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
    window,
)
from .series import PowerSeries, word_count_series_formula

__all__ = [
    "WordError",
    "WordTable",
    "Letter",
    "Word",
    "WordComplex",
    "generate_words",
    "word_differential",
    "assemble_word_complex",
    "build_word_resolution",
    "word_count_series",
    "verify_word_resolution",
]


class WordError(ValueError):
    pass


class WordTable:
    """The words of total weight <= ``cap`` that prepend letters to a
    seed, neighbours from different sides and the letter next to the seed
    from side ``next_to_seed`` (either if None).  Letter (t, w, i) is the
    i-th of ``letters[t][w]`` on side t and of weight w >= 1, seed (w, i)
    the i-th of ``seeds[w]``.  Letter ids follow (side, weight, index),
    as ``letters`` lists their keys.  Word k of weight n is ``first[n][k]``
    (-1 for a seed alone) prepended to word ``rest[n][k]`` of the rest's
    weight (for a seed alone, the seed's index).  The words of a weight
    go by (length, first letter, rest), so by (length, letters, seed)
    key by key, as the rests of one length are already in that order; a
    seed alone comes first, at its seed's index."""

    def __init__(self, letters, seeds: list[int], cap: int, next_to_seed: int | None = None):
        if any(len(counts) and counts[0] for counts in letters):
            raise WordError("letters need a positive weight")
        self.cap, self.letters, self._ids = cap, [], {}
        for t in (0, 1):
            for w, k in enumerate(letters[t][:cap + 1]):
                self._ids[(t, w)] = range(len(self.letters), len(self.letters) + k)
                self.letters += [(t, w, i) for i in range(k)]
        # each letter's side, then the side no letter may precede a seed
        # alone from (-1: none), read by a first letter -1
        side = np.array([t for t, _, _ in self.letters]
                        + [-1 if next_to_seed is None else 1 - next_to_seed])
        self.first: list[np.ndarray] = []
        self.rest: list[np.ndarray] = []
        self._up: dict[tuple[int, int], np.ndarray] = {}  # (x, weight) -> prepend lookup
        # per weight and side t: the words a letter of side t may precede,
        # and their lengths plus one
        after: list[list[tuple[np.ndarray, np.ndarray]]] = []
        for n in range(cap + 1):
            k = seeds[n] if n < len(seeds) else 0
            heads = [(x, n - w) for x, (_, w, _) in enumerate(self.letters) if w <= n]
            parts = [(np.arange(k), np.zeros(k, dtype=np.int64))]
            parts += [after[m][side[x]] for x, m in heads]
            sizes = [r.size for r, _ in parts]
            first = np.repeat(np.array([-1] + [x for x, _ in heads]), sizes)
            rest, length = (np.concatenate(a) for a in zip(*parts))
            order = np.argsort(length, kind="stable")
            where = np.empty_like(order)
            where[order] = np.arange(order.size)
            self.first.append(first[order])
            self.rest.append(rest[order])
            # the lookup arrays of the heads (x, m), cut from one block
            starts = np.cumsum([0] + [self.first[m].size for _, m in heads]).tolist()
            up = np.full(starts[-1], -1)
            up[np.repeat(np.array(starts[:-1], dtype=np.int64), sizes[1:]) + rest[k:]] = where[k:]
            self._up.update((head, up[a:b]) for head, a, b in zip(heads, starts, starts[1:]))
            lead = side[self.first[n]]
            after.append([(r, length[order][r] + 1)
                          for r in (np.flatnonzero(lead != t) for t in (0, 1))])

    def letter(self, side: int, weight: int, index: int = 0) -> int:
        """The id of letter (side, weight, index)."""
        return self._ids[(side, weight)][index]

    def prepend(self, x: int, weight: int, rests) -> np.ndarray:
        """The index of letter x prepended to each of the words ``rests``
        of ``weight``, among the words of weight + weight(x); -1 where
        the letter may not precede the word."""
        return self._up[(x, weight)][rests]

    def singles(self, side: int, weight: int) -> np.ndarray:
        """The index of the word x.s, s the first seed of weight 0, for
        each letter x of ``side`` and ``weight`` in index order."""
        return np.array([self._up[(x, 0)][0] for x in self._ids.get((side, weight), ())],
                        dtype=np.int64)

    def fold(self, letter_values: list, seed_values: list, op) -> list[list]:
        """Per weight, each word's value: ``seed_values[n][i]`` for seed
        (n, i) alone, ``op(letter_values[x], value of the rest)`` for a
        word with first letter x."""
        out: list[list] = []
        for n, (first, rest) in enumerate(zip(self.first, self.rest)):
            out.append([seed_values[n][r] if x < 0 else op(letter_values[x],
                                                          out[n - self.letters[x][1]][r])
                        for x, r in zip(first.tolist(), rest.tolist())])
        return out

    def labels(self, letter_labels: list[str], seed_labels: list) -> list[list[str]]:
        """Each word's label: its letters' and its seed's joined by ".",
        a seed labelled None left out."""
        return self.fold(letter_labels, seed_labels,
                         lambda x, rest: x if rest is None else f"{x}.{rest}")

    def words(self, n: int) -> list[tuple]:
        """The words of weight n decoded, each as (letter keys, seed key)."""
        seeds = [[((), (m, i)) for i in range(int((first < 0).sum()))]
                 for m, first in enumerate(self.first)]
        return self.fold([(key,) for key in self.letters], seeds,
                         lambda x, rest: (x + rest[0], rest[1]))[n]


@dataclass(frozen=True)
class Letter:
    tag: str        # "E" | "F" | "P"
    hom: int        # homological degree of the source generator
    idx: int        # index into that resolution step
    internal: int   # internal degree of the source generator


Word = tuple[Letter, ...]


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


def _word_table(E: FreeResolution, F: FreeResolution, P: FreeResolution,
                hmax: int) -> WordTable:
    """The words of homological degree <= hmax: E letters on side 0, F
    letters on side 1, weighted by step; P generators are the seeds."""
    _check_inputs(E, F, P, hmax)
    return WordTable([[0] + [res.rank(i) for i in range(1, hmax + 1)] for res in (E, F)],
                     [P.rank(i) for i in range(hmax + 1)], hmax, next_to_seed=1)


def generate_words(E: FreeResolution, F: FreeResolution, P: FreeResolution,
                   hmax: int) -> list[list[Word]]:
    """All valid words of homological degree <= hmax, bucketed by degree
    and sorted by (length, letter keys), decoded from the word table."""
    def letter(tag, res, hom, idx):
        return Letter(tag, hom, idx, res.gen_degrees(hom)[idx])

    table = _word_table(E, F, P, hmax)
    seeds = [[(letter("P", P, n, i),) for i in range(P.rank(n))] for n in range(hmax + 1)]
    return table.fold([letter("EF"[t], (E, F)[t], w, i) for t, w, i in table.letters], seeds,
                      lambda x, rest: (x,) + rest)


def _column(R: FiberProductAlgebra, side: str, src: FreeResolution, hom: int,
            idx: int) -> list[tuple[int, Element]]:
    """(row, coefficient embedded into R) of each entry of generator
    ``idx``'s column of d_hom of ``src``, a resolution over R's factor
    ``side``, read off the terms alone, by row."""
    column = []
    for (_, e), (tg, sg, _, coef) in src.terms[hom].items():
        column.extend((int(tg[k]), R.embed(side, Element(src.algebra, e, coef[k])))
                      for k in np.flatnonzero(sg == idx).tolist())
    return sorted(column, key=lambda entry: entry[0])


def word_differential(w: Word, E: FreeResolution, F: FreeResolution,
                      P: FreeResolution, R: FiberProductAlgebra,
                      ) -> list[tuple[Word, Element]]:
    """Image of a word under the differential: the source differential
    applied to the leading letter, coefficients embedded into the fiber
    product, tail kept."""
    check_word(w)
    head, tail = w[0], w[1:]
    if head.tag == "P" and head.hom == 0:
        return []
    src = {"E": E, "F": F, "P": P}[head.tag]
    degs = src.gen_degrees(head.hom - 1)
    # the bottom step of E and F is the ring: a letter of step 1 is dropped
    return [(tail if head.tag != "P" and head.hom == 1
             else (Letter(head.tag, head.hom - 1, row, degs[row]),) + tail, coeff)
            for row, coeff in _column(R, "T" if head.tag == "F" else "S", src, head.hom,
                                      head.idx)]


def _letter_label(tag: str, res: FreeResolution, hom: int, idx: int) -> str:
    return f"{tag}{hom}_{idx}" if res.rank(hom) > 1 else f"{tag}{hom}"


class WordComplex(FreeResolution):
    """Free resolution over the fiber product whose basis is the word
    set; retains the three source resolutions and the word table."""

    def __init__(self, algebra, module, hmax, dmax, frees, terms, cover,
                 table: WordTable, E: FreeResolution,
                 F: FreeResolution, P: FreeResolution):
        super().__init__(algebra, module, hmax, dmax, frees, terms, cover)
        self.table, self.E, self.F, self.P = table, E, F, P

    def word_labels(self, i: int) -> list[str]:
        return self.frees[i].gen_labels

    def word_counts(self) -> list[int]:
        return [first.size for first in self.table.first]


def _word_terms(R: FiberProductAlgebra, table: WordTable, columns: list, seed_columns: list,
                frees: list[FreeModule], n: int) -> dict:
    """Generator terms of d_n, entered by word and row as
    ``word_differential`` gives them: word j maps through its head's
    column (``columns[x]`` for a first letter x, ``seed_columns[i]`` for
    seed i alone), each target the rest with the head one step down
    prepended, or the rest alone when the head is a letter of step 1."""
    first, rest = table.first[n], table.rest[n]
    entries = [(i, row, row, c) for i, column in enumerate(seed_columns) for row, c in column]
    for x in np.flatnonzero(np.bincount(first + 1)[1:]).tolist():  # np.unique loads numpy.ma
        t, hom, _ = table.letters[x]
        js = np.flatnonzero(first == x)
        for row, c in columns[x]:
            tgt = rest[js] if hom == 1 else table.prepend(table.letter(t, hom - 1, row), n - hom,
                                                          rest[js])
            entries += [(j, row, i, c) for j, i in zip(js.tolist(), tgt.tolist())]
    entries.sort(key=lambda entry: entry[:2])
    return AlgMatrix(R, frees[n], frees[n - 1], {(i, j): c for j, _, i, c in entries}).terms()


def assemble_word_complex(R: FiberProductAlgebra, E: FreeResolution,
                          F: FreeResolution, P: FreeResolution, hmax: int,
                          dmax: int | None = None) -> WordComplex:
    dmax = window(R, hmax, dmax)
    if E.algebra is not R.s_algebra or F.algebra is not R.t_algebra:
        raise WordError("resolutions do not match the fiber product factors")
    table = _word_table(E, F, P, hmax)
    srcs = (("e", E), ("f", F))
    internal = table.fold([srcs[t][1].gen_degrees(w)[i] for t, w, i in table.letters],
                          [P.gen_degrees(n) for n in range(hmax + 1)], operator.add)
    labels = table.labels([_letter_label(*srcs[t], w, i) for t, w, i in table.letters],
                          [[_letter_label("p", P, n, i) for i in range(P.rank(n))]
                           for n in range(hmax + 1)])
    frees = [FreeModule(R, internal[n], labels[n]) for n in range(hmax + 1)]
    columns = [_column(R, "ST"[t], (E, F)[t], w, i) for t, w, i in table.letters]
    terms = [None] + [_word_terms(R, table, columns,
                                  [_column(R, "S", P, n, i) for i in range(P.rank(n))], frees, n)
                      for n in range(1, hmax + 1)]

    module = restrict_to_fiber(R, P.module, "S")
    gens = []
    for j, s in enumerate(P.gen_degrees(0)):
        gens.append((s, P.eval_cover(s)[:, P.frees[0].gen_index(s, j)]))
    cover = cover_matrices(R, module, gens, frees[0], dmax)
    return WordComplex(R, module, hmax, dmax, frees, terms, cover, table, E, F, P)


def build_word_resolution(S: GradedAlgebra, T: GradedAlgebra,
                          module: GradedModule, hmax: int,
                          dmax: int | None = None,
                          fiber: FiberProductAlgebra | None = None) -> WordComplex:
    """Resolve an S-module over the fiber product of S and T by words,
    computing the three source resolutions from scratch."""
    if fiber is None:
        fiber = fiber_product(S, T)
    if fiber.s_algebra is not S or fiber.t_algebra is not T:
        raise WordError("fiber product was built from different factors")
    dmax = window(fiber, hmax, dmax)
    P = minimal_resolution(S, module, hmax, dmax)
    E = minimal_resolution(S, residue_module(S), hmax, dmax)
    F = minimal_resolution(T, residue_module(T), hmax, dmax)
    return assemble_word_complex(fiber, E, F, P, hmax, dmax)


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
    over the fiber product and compare ranks at internal degrees <=
    dmax."""
    rep = verify_complex(G)
    counts = G.word_counts()
    series = word_count_series(G.E, G.F, G.P, G.hmax)
    rep.add("word counts match closed form", counts == series.coeffs,
            f"enumerated {counts}, series {series.coeffs}")
    if compare_direct:
        # both tables are exact at internal degrees <= dmax (a letter's
        # degree is at most its word's), and the direct one stops there
        direct = minimal_resolution(G.algebra, G.module, G.hmax, G.dmax)
        words = {key: n for key, n in G.betti().items() if key[1] <= G.dmax}
        rep.add("ranks match direct minimal resolution",
                direct.betti() == words,
                f"direct {sorted(direct.betti().items())}, "
                f"words {sorted(words.items())}")
    return rep
