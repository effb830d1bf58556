"""Minimal graded free resolutions, computed degree by degree.

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
``gmodule``): ``evaluated`` evaluates them one degree at a time and
keeps each map as a ``linalg.Matrix``, stored as ``linalg`` decides,
and ``entries`` reads their algebra entries straight off the terms.
The kernels and the new generator rows of each step are
``linalg.Matrix``es too, and ``verify_complex`` ranks and composes the
kept maps.  A step takes a kernel only at the degrees where the free
module it maps out of is nonzero; elsewhere the kernel is empty and
nothing is evaluated.  ``elimination`` keeps each nonempty map's
``linalg.Elimination`` the first time a solve asks for it, so every
chain-map lift through the resolution solves against one elimination
per map; a map with no rows or no columns has nothing to eliminate, and
its elimination is not kept.

Inside a ``sharing()`` scope, equal requests share one result: each
``minimal_resolution`` key (the algebra's identity, the module's
content, hmax and dmax) is built once, and so is each
``extalg._phi_setup`` key.  Outside a scope every call builds afresh.
The CLI suite opens one scope per manifest entry, because the checks of
one entry test the paper's statements about one ring against the same
resolutions; nothing else opens one.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager

import numpy as np

from . import linalg
from .algebra import Element, GradedAlgebra
from .gmodule import (FreeModule, GradedModule, extend, generator_terms,
                      minimal_generators_by_degree, submodule_as_gmodule)
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

    def evaluated(self, i: int, d: int) -> linalg.Matrix:
        """Degree-d map out of F_i: the differential, evaluated once and
        kept, or the cover at 0, read afresh."""
        if i == 0:
            return linalg.Matrix.read(self.eval_cover(d), self.algebra.p)
        if (i, d) not in self._ev_cache:
            self._ev_cache[i, d] = extend(self.frees[i - 1], self.frees[i], self.terms[i], [d])[d]
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
        out: dict[tuple[int, int], int] = {}
        for i in range(self.hmax + 1):
            for d in self.frees[i].gen_degrees:
                out[(i, d)] = out.get((i, d), 0) + 1
        return out

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
                block = np.einsum("ajk,j->ak", module.action[(da, s)], v) % p
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
    exact bytes of every action tensor.  ``dmax`` enters after ``window``
    defaults it to the algebra's cap.

    Read-only contract: no library code mutates a ``FreeResolution`` or
    an ``extalg._PhiData`` after it is built (only
    ``minimal_resolution``'s own builder appends to one), beyond the
    caches a resolution fills lazily: its ``evaluated`` maps and their
    ``elimination``s, each a function of the resolution alone, so a
    caller sees the same value whoever asked first; and a shared
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
    afresh outside one.  A build that raises is not memoized."""
    memo = _memo.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _module_content(module: GradedModule) -> tuple:
    return (tuple(map(tuple, module.basis)),
            tuple((k, a.shape, a.tobytes()) for k, a in sorted(module.action.items())))


def minimal_resolution(algebra: GradedAlgebra, module: GradedModule, hmax: int,
                       dmax: int | None = None) -> FreeResolution:
    """Minimal free resolution of ``module`` through homological degree
    ``hmax``, internal degrees through ``dmax``; shared inside a
    ``sharing()`` scope.  Generator k of step i is labelled ``ui_k``."""
    dmax = window(algebra, hmax, dmax)
    key = ("resolution", id(algebra), _module_content(module), hmax, dmax)
    return shared(key, lambda: _minimal_resolution(algebra, module, hmax, dmax))


def _minimal_resolution(algebra: GradedAlgebra, module: GradedModule, hmax: int,
                        dmax: int) -> FreeResolution:
    p = algebra.p
    # Step 0: minimal generators of the module; the cover is built from
    # their unit vectors.
    units = [np.eye(module.dim(d), dtype=np.int64) for d in range(dmax + 1)]
    gens0 = [(d, units[d][j]) for d, kept, _ in
             minimal_generators_by_degree(algebra, units, module.times, dmax)
             for j in kept.tolist()]

    f0 = FreeModule(algebra, [d for d, _ in gens0],
                    [f"u0_{k}" for k in range(len(gens0))])
    cover = cover_matrices(algebra, module, gens0, f0, dmax)

    res = FreeResolution(algebra, module, hmax, dmax, [f0], [None], cover)
    for step in range(1, hmax + 1):
        prev_free = res.frees[-1]
        # the maps evaluated here stay in res's cache for their later users;
        # a degree where F_(step-1) is zero has the empty kernel, and its
        # map is neither evaluated nor eliminated
        kers = {d: linalg.kernel(res.evaluated(step - 1, d), p) if prev_free.dim(d)
                else linalg.Matrix.zeros((0, 0)) for d in range(dmax + 1)}

        new_gens = minimal_generators_by_degree(algebra, kers, prev_free.times, dmax)
        degrees = [d for d, kept, _ in new_gens for _ in kept]
        fi = FreeModule(algebra, degrees, [f"u{step}_{k}" for k in range(len(degrees))])
        # generator_terms reads the images of the new generators as columns
        terms = generator_terms(prev_free, [(d, fi.by_degree[d], new.T)
                                            for d, _, new in new_gens])
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
    certify.  Each evaluated map is ranked once.
    d_(i-1) o d_i = 0 is checked on the evaluated maps, at the column of
    each generator of F_i in its own degree: a module map that vanishes
    on generators vanishes, so this is the check over the algebra.  A
    failure names the degrees and the generator pairs (row, column) of
    the nonzero entries of the composite; a failure of cover o d1 = 0
    names the (degree, generator) pairs of its nonzero generator
    blocks."""
    p, hmax, dmax = res.algebra.p, res.hmax, res.dmax
    rep = ComplexReport()
    rank = {(i, d): linalg.rank(res.evaluated(i, d), p)
            for i in range(hmax + 1) for d in range(dmax + 1)}

    for i in range(1, hmax + 1):
        md = min((e for _, e in res.terms[i]), default=None)
        rep.add(f"minimality step {i}", md is None or md >= 1,
                f"min entry degree {md}")

    for i in range(2, hmax + 1):
        F = res.frees[i]
        bad = [d for d, g in F.by_degree.items() if _composite(
            res.evaluated(i - 1, d), res.evaluated(i, d), F.block_indices(d, g), p)[0].size]
        rep.add(f"d{i - 1} o d{i} = 0", not bad,
                f"degrees {bad}, generator pairs {_composite_pairs(res, i)}" if bad else "")
    if hmax >= 1:
        bad = []
        for d in range(dmax + 1):
            n = res.frees[1].dim(d)
            _, cols = _composite(res.evaluated(0, d), res.evaluated(1, d), np.arange(n), p)
            cols = np.flatnonzero(np.bincount(cols, minlength=n))
            gens = res.frees[1].block_generators(d, cols).tolist()
            bad += [(d, j) for j in dict.fromkeys(gens)]
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


def _composite(outer, inner, cols, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries of ``outer @
    inner[:, cols]`` mod p."""
    return linalg.matmul(outer, inner.columns(cols), p).nonzero()[:2]


def _composite_pairs(res: FreeResolution, i: int) -> list[tuple[int, int]]:
    """(target, source) generator pairs of the nonzero entries of
    d_(i-1) o d_i.  Entry (h, g) of a module map is the h-block of the
    image of g, so both maps are extended from their terms afresh at
    each generator degree, not read from the evaluation cache."""
    F, mid, tgt = res.frees[i], res.frees[i - 1], res.frees[i - 2]
    pairs = set()
    for s, g in F.by_degree.items():
        outer = extend(tgt, mid, res.terms[i - 1], [s])[s]
        inner = extend(mid, F, res.terms[i], [s])[s]
        rows, cols = _composite(outer, inner, F.block_indices(s, g), res.algebra.p)
        pairs.update(zip(tgt.block_generators(s, rows).tolist(), g[cols].tolist()))
    return sorted(pairs)


def syzygy_module(res: FreeResolution, n: int) -> GradedModule:
    """The n-th syzygy (kernel of the map out of F_{n-1}) in its chosen
    echelon basis, as a graded module table.  The kernel is computed
    afresh from the map, which stays in the evaluation cache."""
    if not 1 <= n <= res.hmax:
        raise WindowError(f"syzygy step {n} outside 1..{res.hmax}")
    kers = {d: linalg.kernel(res.evaluated(n - 1, d), res.algebra.p)
            for d in range(res.dmax + 1)}
    return submodule_as_gmodule(res.frees[n - 1], kers, label_prefix=f"z{n}_")


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
