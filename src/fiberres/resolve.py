"""Minimal graded free resolutions, one step over the whole window at a time.

The engine works over any tabulated connected graded algebra
(commutative or not).  Each step picks minimal generators of the
current kernel by echelon complements in the fixed coordinate order, so
the output is deterministic.  Every resolution carries its validity
window (hmax, dmax): nothing outside the window is claimed.  ``window``
is the package's one window rule (``dmax`` defaults to the ring's cap; a
negative bound or a ``dmax`` above the cap is refused), applied before
any computation by ``minimal_resolution`` and by every entry point that
reports a window or shares results by one, to the ring it is about.  The
differentials are stored only as sparse generator terms (see
``gmodule``), and ``entries`` reads their algebra entries straight off
the terms.  ``window_map`` evaluates each differential once over the
window, in ``gmodule``'s degree-major coordinates, and keeps it as one
``linalg.Matrix``, stored as ``linalg`` decides; a module map keeps the
internal degree, so the matrix is block-diagonal by degree, and so are
its elimination, its kernel and the products of its kernel rows.  So a
step is one kernel of the window map out of the step below, one
``gmodule.minimal_generators`` over the window (one echelon of all the
products, one ``linalg.reduce_rows``) and one ``generator_terms`` of
the new rows cut into their degrees, and its results are, byte for
byte, those of the same steps taken one degree at a time.
``verify_complex`` eliminates each window map once
afresh and counts its pivots per degree.  ``evaluated`` serves the
lifter the degree-d block of a window map, kept once asked for, and
``elimination`` keeps each nonempty block's ``linalg.Elimination`` the
first time a solve asks for it, so every chain-map lift through the
resolution solves against one elimination per map; a map with no rows
or no columns has nothing to eliminate, and its elimination is not
kept.

Inside a ``sharing()`` scope, equal requests share one result: each
``minimal_resolution`` key (the algebra's identity, the module's
content, hmax and dmax) is built once, and so is each
``extalg._phi_setup`` key, the one Ext-layer set-up that phi, theta and
both depth bounds read.  Outside a scope every call builds afresh.
The CLI suite opens one scope per manifest entry, because the checks of
one entry test the paper's statements about one ring against the same
resolutions; nothing else opens one.
"""

from __future__ import annotations

import contextvars
from collections import Counter
from contextlib import contextmanager

import numpy as np

from . import linalg
from .algebra import Element, GradedAlgebra, right_product
from .gmodule import (FreeModule, GradedModule, extend, extend_window, generator_terms,
                      minimal_generators, submodule_as_gmodule, window_degrees)
from .series import PowerSeries

__all__ = [
    "WindowError",
    "window",
    "FreeResolution",
    "ComplexReport",
    "minimal_resolution",
    "sharing",
    "shared",
    "verify_complex",
    "syzygy_module",
    "betti_table_text",
]


class WindowError(ValueError):
    pass


class ResolutionError(RuntimeError):
    pass


def window(algebra: GradedAlgebra, hmax: int, dmax: int | None = None) -> int:
    """The window rule: ``dmax``, defaulted to the algebra's cap; a
    ``dmax`` above the cap or a negative bound raises ``WindowError``
    naming the valid limit."""
    if dmax is None:
        dmax = algebra.cap
    if dmax > algebra.cap:
        raise WindowError(f"dmax {dmax} beyond tabulated degrees; "
                          f"largest valid dmax is {algebra.cap}")
    if dmax < 0:
        raise WindowError(f"dmax {dmax} is negative; the smallest valid dmax is 0")
    if hmax < 0:
        raise WindowError(f"hmax {hmax} is negative; the smallest valid hmax is 0")
    return dmax


class FreeResolution:
    def __init__(self, algebra: GradedAlgebra, module: GradedModule, hmax: int,
                 dmax: int, frees: list[FreeModule], terms: list,
                 cover: dict[int, np.ndarray]):
        self.algebra = algebra
        self.module = module
        self.hmax = hmax
        self.dmax = dmax
        self.frees = frees          # frees[i] for 0 <= i <= hmax
        self.terms = terms          # terms[i]: generator terms of F_i -> F_{i-1}; terms[0] is None
        self.cover = cover          # d -> matrix (dim M_d, dim F0_d)
        # the kept window maps cover degrees 0..top, which holds every
        # generator's own degree (a word complex has some above dmax); the
        # builder appends only generators inside dmax
        self.top = min(algebra.cap, max([dmax] + [d for f in frees for d in f.gen_degrees]))
        self._windows: dict[int, linalg.Matrix] = {}
        self._ev_cache: dict[tuple[int, int], linalg.Matrix] = {}
        self._elim_cache: dict[tuple[int, int], linalg.Elimination] = {}

    def entries(self, i: int) -> list[tuple[int, int, Element]]:
        """(row, column, entry) for each nonzero entry of d_i: F_i ->
        F_(i-1), read off its generator terms: row indexes F_(i-1)'s
        generators, column F_i's."""
        if not 1 <= i <= self.hmax:
            raise WindowError(f"differential d{i} outside steps 1..{self.hmax}")
        return [(int(r), int(c), Element(self.algebra, e, v))
                for (_, e), (tg, sg, _, coef) in self.terms[i].items()
                for r, c, v in zip(tg, sg, coef)]

    def entry_strings(self, i: int) -> list[list[str]]:
        """d_i as a rank(i-1) x rank(i) table of entry strings."""
        out = [["0"] * self.rank(i) for _ in range(self.rank(i - 1))]
        for r, c, el in self.entries(i):
            out[r][c] = repr(el)
        return out

    def eval_cover(self, d: int) -> np.ndarray:
        return self.cover.get(d, np.zeros((self.module.dim(d), self.frees[0].dim(d)),
                                          dtype=np.int64))

    def window_map(self, i: int) -> linalg.Matrix:
        """The map out of F_i over the window of degrees 0..top, in the
        degree-major coordinates of ``gmodule``: the differential,
        evaluated once and kept, or the cover over 0..dmax at 0, read
        afresh."""
        if i == 0:
            module, free, p = self.module, self.frees[0], self.algebra.p
            rows, cols = module.window(self.dmax), free.window(self.dmax)
            blocks = [(rows[d] + np.arange(module.dim(d))[:, None],
                       cols[d] + np.arange(free.dim(d)), self.eval_cover(d))
                      for d in range(self.dmax + 1) if module.dim(d) * free.dim(d)]
            return linalg.Matrix.summed(blocks, (rows[-1], cols[-1]), p)
        if i not in self._windows:
            self._windows[i] = extend_window(self.frees[i - 1], self.frees[i], self.terms[i],
                                             self.top)
        return self._windows[i]

    def evaluated(self, i: int, d: int) -> linalg.Matrix:
        """Degree-d map out of F_i: block (d, d) of the kept window map,
        kept once asked for (a negative degree's map is empty), or the
        cover at 0, read afresh."""
        if i == 0:
            return linalg.Matrix.read(self.eval_cover(d), self.algebra.p)
        if (i, d) not in self._ev_cache:
            if d > self.top:
                raise WindowError(f"degree {d} outside the evaluated degrees 0..{self.top}")
            if d < 0:
                mat = linalg.Matrix.zeros((0, 0))
            else:
                rows, cols = self.frees[i - 1].window(d), self.frees[i].window(d)
                mat = self.window_map(i).block(rows[d], rows[d + 1], cols[d], cols[d + 1])
            self._ev_cache[i, d] = mat
        return self._ev_cache[i, d]

    def elimination(self, i: int, d: int) -> linalg.Elimination:
        """The elimination of ``evaluated(i, d)``, kept at its first
        request: every later solve against that map starts from it.  A
        map with no rows or no columns eliminates nothing, and its
        elimination is not kept."""
        elim = self._elim_cache.get((i, d))
        if elim is None:
            mat = self.evaluated(i, d)
            elim = linalg.Elimination(mat, self.algebra.p)
            if mat.size:
                self._elim_cache[i, d] = elim
        return elim

    def rank(self, i: int) -> int:
        return self.frees[i].rank if 0 <= i <= self.hmax else 0

    def gen_degrees(self, i: int) -> list[int]:
        return self.frees[i].gen_degrees

    def betti(self) -> dict[tuple[int, int], int]:
        """(step, internal degree) -> number of generators, in order of
        step and then of each degree's first generator."""
        return {(i, d): n for i in range(self.hmax + 1)
                for d, n in Counter(self.frees[i].gen_degrees).items()}

    def poincare_series(self) -> PowerSeries:
        """Total ranks per homological degree (within-window counts)."""
        return PowerSeries([self.rank(i) for i in range(self.hmax + 1)], self.hmax)

    def is_minimal(self) -> bool:
        return all(e >= 1 for i in range(1, self.hmax + 1) for _, e in self.terms[i])


def cover_matrices(algebra: GradedAlgebra, module: GradedModule,
                   gens: list[tuple[int, np.ndarray]], free: FreeModule,
                   dmax: int) -> dict[int, np.ndarray]:
    """Numeric matrices of the map free -> module sending generator j to
    the module vector gens[j][1] in degree gens[j][0]."""
    p = algebra.p
    cover: dict[int, np.ndarray] = {}
    for d in range(dmax + 1):
        mat = np.zeros((module.dim(d), free.dim(d)), dtype=np.int64)
        off = free.offsets(d)
        for j, (s, v) in enumerate(gens):
            da = d - s
            na = algebra.dim(da)
            if da < 0 or na == 0:
                continue
            if da == 0:
                block = v.reshape(1, -1)
            else:
                block = right_product(module.action[(da, s)], module.table_dims(da, s),
                                      v.reshape(-1, 1), p).dense()
            mat[:, off[j]: off[j] + na] = block.T
        cover[d] = mat
    return cover


_memo: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "fiberres_shared", default=None)


@contextmanager
def sharing():
    """A scope in which ``shared`` builds each key once.

    Each scope starts with an empty memo and drops it on exit, so no
    result outlives the ``with`` block; nothing is cached across
    top-level library calls.  A key names its algebra (and ring) by
    ``id``; the memo holds the built object, which holds that algebra,
    so no id is reused while its entry lives.  A module enters a
    ``minimal_resolution`` key by content: its basis labels and the
    exact bytes of every action table (``linalg.Matrix.key``); it enters
    a ``gmodule.restrict_to_fiber`` key by ``id``, held.  ``dmax`` enters
    after ``window`` defaults it to the algebra's cap.  A key is built
    only inside a scope.

    Read-only contract: no library code mutates a ``FreeResolution``, a
    restricted module or an ``extalg._PhiData`` after it is built (only
    ``minimal_resolution``'s own builder appends to one), beyond the
    caches a resolution fills lazily: its window maps, their
    ``evaluated`` blocks and their ``elimination``s, each a function of
    the resolution alone; and the pieces a set-up fills on first use, each
    a function of (R, hmax, dmax) and, per module, of the module it holds.
    So a caller sees the same value whoever asked first; and a shared
    resolution's ``module`` is the first caller's object of equal
    content, of which callers read only the content.

    The CLI suite opens one scope per manifest entry: its checks test
    statements about one ring against the same resolutions of k over
    R, S and T, while separate entries share no objects."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def shared(key, build):
    """``build()``, built once per key inside a ``sharing()`` scope and
    afresh outside one.  A callable ``key`` is called for the key, and
    only inside a scope.  A build that raises is not memoized."""
    memo = _memo.get()
    if memo is None:
        return build()
    if callable(key):
        key = key()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _module_content(module: GradedModule) -> tuple:
    return (tuple(map(tuple, module.basis)),
            tuple((k, t.shape, t.key()) for k, t in sorted(module.action.items())))


def minimal_resolution(algebra: GradedAlgebra, module: GradedModule, hmax: int,
                       dmax: int | None = None) -> FreeResolution:
    """Minimal free resolution of ``module`` through homological degree
    ``hmax``, internal degrees through ``dmax``; shared inside a
    ``sharing()`` scope.  Generator k of step i is labelled ``ui_k``."""
    dmax = window(algebra, hmax, dmax)
    return shared(lambda: ("resolution", id(algebra), _module_content(module), hmax, dmax),
                  lambda: _minimal_resolution(algebra, module, hmax, dmax))


def _row_degrees(starts: np.ndarray, rows: linalg.Matrix) -> np.ndarray:
    """The degree of each row of ``rows``, nonzero and homogeneous over a
    window with the degree starts ``starts``: that of its first entry."""
    r, c, _ = rows.nonzero()
    first = np.ones(r.size, dtype=bool)
    first[1:] = r[1:] != r[:-1]
    return window_degrees(starts, c[first])


def _minimal_resolution(algebra: GradedAlgebra, module: GradedModule, hmax: int,
                        dmax: int) -> FreeResolution:
    p = algebra.p
    # Step 0: minimal generators of the module; the cover is built from
    # their unit vectors.
    starts = module.window(dmax)
    degrees = window_degrees(starts, np.arange(starts[-1]))
    kept, _ = minimal_generators(module, linalg.Matrix.identity(starts[-1]), degrees, dmax)
    gens0 = [(d, np.eye(module.dim(d), dtype=np.int64)[k - starts[d]])
             for k, d in zip(kept.tolist(), degrees[kept].tolist())]

    f0 = FreeModule(algebra, [d for d, _ in gens0],
                    [f"u0_{k}" for k in range(len(gens0))])
    cover = cover_matrices(algebra, module, gens0, f0, dmax)

    res = FreeResolution(algebra, module, hmax, dmax, [f0], [None], cover)
    for step in range(1, hmax + 1):
        prev_free = res.frees[-1]
        cols = prev_free.window(dmax)
        # one kernel of the window map out of F_(step-1), which stays in
        # res for its later users
        kernel = linalg.kernel(res.window_map(step - 1), p)
        degrees = _row_degrees(cols, kernel)
        kept, new = minimal_generators(prev_free, kernel, degrees, dmax)
        fi = FreeModule(algebra, degrees[kept].tolist(),
                        [f"u{step}_{k}" for k in range(kept.size)])
        # generator_terms reads the images of each degree's new generators
        # as columns, off their rows and their degree's columns
        terms = generator_terms(prev_free, [
            (d, gens, new.block(gens[0], gens[-1] + 1, cols[d], cols[d + 1]).T)
            for d, gens in fi.by_degree.items()])
        unit = sorted((int(j), int(i)) for (_, e), (tg, sg, _, _) in terms.items()
                      if e < 1 for i, j in zip(tg, sg))
        if unit:
            jnew, jprev = unit[0]
            raise ResolutionError(
                f"non-minimal differential entry at step {step}, degree "
                f"{fi.gen_degrees[jnew]}: generator {jnew} has a degree-0 "
                f"coefficient on generator {jprev}")
        res.frees.append(fi)
        res.terms.append(terms)
    return res


class ComplexReport:
    def __init__(self):
        self.checks: list[dict] = []
        self.data: dict = {}

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def first_failure(self):
        return next((c for c in self.checks if not c["ok"]), None)

    def absorb(self, prefix: str, other: "ComplexReport") -> None:
        """Append other's checks with names prefixed ``"{prefix}: "``,
        and file its data (if any) under ``prefix``."""
        for c in other.checks:
            self.add(f"{prefix}: {c['name']}", c["ok"], c["detail"])
        if other.data:
            self.data[prefix] = other.data


def verify_complex(res: FreeResolution) -> ComplexReport:
    """Independent rank-based verification inside the window:
    differentials compose to zero, all entries lie in the augmentation
    ideal, and homology vanishes at every bidegree the window can
    certify.  Each window map is eliminated once, for its pivots, and a
    map's rank in degree d is the number of its pivots in degree d: the
    map is block-diagonal by degree.
    d_(i-1) o d_i = 0 is checked on the window maps, in one product per
    step, at the column of each generator of F_i in its own degree: a
    module map that vanishes on generators vanishes, so this is the
    check over the algebra.  A generator above the cap has no column in
    the window, and is not checked.  A failure names the degrees and the
    generator pairs (row, column) of the nonzero entries of the
    composite; a failure of cover o d1 = 0 names the (degree, generator)
    pairs of its nonzero generator blocks."""
    p, hmax, dmax = res.algebra.p, res.hmax, res.dmax
    rep = ComplexReport()
    maps = [res.window_map(i) for i in range(hmax + 1)]
    # each map's part over degrees 0..dmax, a leading block
    inside = [mat if not i or res.top == dmax else mat.block(
        0, res.frees[i - 1].window(dmax)[-1], 0, res.frees[i].window(dmax)[-1])
        for i, mat in enumerate(maps)]
    rank = {}
    for i, mat in enumerate(inside):
        starts = res.frees[i].window(dmax)
        count = np.bincount(window_degrees(starts, linalg.pivots(mat, p)), minlength=dmax + 1)
        rank.update(((i, d), int(count[d])) for d in range(dmax + 1))

    for i in range(1, hmax + 1):
        md = min((e for _, e in res.terms[i]), default=None)
        rep.add(f"minimality step {i}", md is None or md >= 1,
                f"min entry degree {md}")

    for i in range(2, hmax + 1):
        F = res.frees[i]
        gens, coords = F.unit_coordinates
        units = np.argsort(coords, kind="stable")
        _, cols = _composite(maps[i - 1], maps[i].columns(coords[units]), p)
        bad = sorted({F.gen_degrees[j] for j in gens[units[cols]].tolist()})
        rep.add(f"d{i - 1} o d{i} = 0", not bad,
                f"degrees {bad}, generator pairs {_composite_pairs(res, i)}" if bad else "")
    if hmax >= 1:
        _, cols = _composite(maps[0], inside[1], p)
        degrees, gens = res.frees[1].window_generators(
            np.flatnonzero(np.bincount(cols, minlength=inside[1].shape[1])))
        bad = list(dict.fromkeys(zip(degrees.tolist(), gens.tolist())))
        rep.add("cover o d1 = 0", not bad,
                f"nonzero at (degree, generator) {bad}" if bad else "")

    bad = [(d, rank[0, d], res.module.dim(d)) for d in range(dmax + 1)
           if rank[0, d] != res.module.dim(d)]
    rep.add("cover surjective", not bad,
            f"(degree, rank, expected) {bad}" if bad else "")

    # exactness at F_i; at F_0 the map out is the cover
    for i in range(hmax):
        bad = [(i, d, rank[i + 1, d], rank[i, d], res.frees[i].dim(d))
               for d in range(dmax + 1)
               if rank[i + 1, d] + rank[i, d] != res.frees[i].dim(d)]
        rep.add(f"exactness at step {i}", not bad,
                f"rank_in + rank_out != dim F_{i} at (step, degree, rank_in, "
                f"rank_out, expected) {bad}" if bad else "")
    return rep


def _composite(outer, inner, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries of ``outer @
    inner`` mod p."""
    return linalg.matmul(outer, inner, p).nonzero()[:2]


def _composite_pairs(res: FreeResolution, i: int) -> list[tuple[int, int]]:
    """(target, source) generator pairs of the nonzero entries of
    d_(i-1) o d_i.  Entry (h, g) of a module map is the h-block of the
    image of g, so both maps are extended from their terms afresh at
    each generator degree, not read from the kept window maps."""
    F, mid, tgt = res.frees[i], res.frees[i - 1], res.frees[i - 2]
    pairs = set()
    for s, g in F.by_degree.items():
        outer = extend(tgt, mid, res.terms[i - 1], [s])[s]
        inner = extend(mid, F, res.terms[i], [s])[s]
        rows, cols = _composite(outer, inner.columns(F.block_indices(s, g)), res.algebra.p)
        pairs.update(zip(tgt.block_generators(s, rows).tolist(), g[cols].tolist()))
    return sorted(pairs)


def syzygy_module(res: FreeResolution, n: int) -> GradedModule:
    """The n-th syzygy (kernel of the map out of F_{n-1}) in its chosen
    echelon basis, as a graded module table.  The kernel of the kept
    window map is computed afresh and cut into its degrees."""
    if not 1 <= n <= res.hmax:
        raise WindowError(f"syzygy step {n} outside 1..{res.hmax}")
    free, dmax = res.frees[n - 1], res.dmax
    kernel = linalg.kernel(res.window_map(n - 1), res.algebra.p)
    cols = free.window(dmax)
    rows = np.searchsorted(_row_degrees(cols, kernel), np.arange(dmax + 2))
    kers = {d: kernel.block(rows[d], rows[d + 1], cols[d], cols[d + 1])
            for d in range(dmax + 1)}
    return submodule_as_gmodule(free, kers, label_prefix=f"z{n}_")


def betti_table_text(betti: dict[tuple[int, int], int], hmax: int) -> str:
    """Aligned text table: rows internal degree, columns homological."""
    if not betti:
        return "(empty)\n"
    jmax = max(j for (_, j) in betti)
    widths = [max(3, len(str(i))) for i in range(hmax + 1)]
    lines = ["j\\i " + " ".join(str(i).rjust(w) for i, w in zip(range(hmax + 1), widths))]
    for j in range(jmax + 1):
        row = [str(j).ljust(4)]
        for i, w in zip(range(hmax + 1), widths):
            v = betti.get((i, j), 0)
            row.append((str(v) if v else ".").rjust(w))
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"
