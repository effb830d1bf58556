"""Minimal graded free resolutions, computed degree by degree.

The engine works over any tabulated connected graded algebra
(commutative or not).  Each step picks minimal generators of the
current kernel by echelon complements in the fixed coordinate order, so
the output is deterministic.  Every resolution carries its validity
window (hmax, dmax): nothing outside the window is claimed.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebra import Element, GradedAlgebra
from .gmodule import (AlgMatrix, FreeModule, GradedModule, minimal_generators,
                      submodule_as_gmodule)
from .series import PowerSeries

__all__ = [
    "WindowError",
    "FreeResolution",
    "ComplexReport",
    "minimal_resolution",
    "verify_complex",
    "syzygy_module",
    "minimal_presentation",
    "betti_table_text",
]


class WindowError(ValueError):
    pass


class ResolutionError(RuntimeError):
    pass


class FreeResolution:
    def __init__(self, algebra: GradedAlgebra, module: GradedModule, hmax: int,
                 dmax: int, frees: list[FreeModule], diffs: list,
                 cover: dict[int, np.ndarray], kernel_bases: list):
        self.algebra = algebra
        self.module = module
        self.hmax = hmax
        self.dmax = dmax
        self.frees = frees          # frees[i] for 0 <= i <= hmax
        self.diffs = diffs          # diffs[i]: F_i -> F_{i-1}, diffs[0] is None
        self.cover = cover          # d -> matrix (dim M_d, dim F0_d)
        self.kernel_bases = kernel_bases  # per step i: d -> kernel rows of the map out of F_i
        self._ev_cache: dict[tuple[int, int], np.ndarray] = {}

    def diff(self, i: int) -> AlgMatrix:
        assert 1 <= i <= self.hmax
        return self.diffs[i]

    def eval_diff(self, i: int, d: int) -> np.ndarray:
        key = (i, d)
        if key not in self._ev_cache:
            self._ev_cache[key] = self.diffs[i].evaluate(d)
        return self._ev_cache[key]

    def eval_cover(self, d: int) -> np.ndarray:
        return self.cover.get(d, np.zeros((self.module.dim(d), self.frees[0].dim(d)),
                                          dtype=np.int64))

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
        for i in range(1, self.hmax + 1):
            md = self.diffs[i].min_entry_degree()
            if md is not None and md < 1:
                return False
        return True


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


def minimal_resolution(algebra: GradedAlgebra, module: GradedModule, hmax: int,
                       dmax: int | None = None,
                       gen_label: str | None = None) -> FreeResolution:
    """Minimal free resolution of ``module`` through homological degree
    ``hmax``, internal degrees through ``dmax``."""
    p = algebra.p
    if dmax is None:
        dmax = algebra.cap
    if dmax > algebra.cap:
        raise WindowError(
            f"dmax {dmax} beyond tabulated degrees; largest valid dmax is {algebra.cap}"
        )
    if hmax < 0:
        raise WindowError(f"hmax {hmax} is negative; the smallest valid hmax is 0")

    # Step 0: minimal generators of the module; the cover is built from
    # their unit vectors.
    units = [np.eye(module.dim(d), dtype=np.int64) for d in range(dmax + 1)]
    gens0 = [(d, units[d][j]) for d, j, _ in
             minimal_generators(algebra, units, module.act_matrix, dmax)]

    label = gen_label or "u"
    f0 = FreeModule(algebra, [d for d, _ in gens0],
                    [f"{label}0_{k}" for k in range(len(gens0))])
    cover = cover_matrices(algebra, module, gens0, f0, dmax)

    frees = [f0]
    diffs: list = [None]
    kernel_bases: list[dict[int, np.ndarray]] = []

    prev_eval = lambda d: cover[d] if d <= dmax else None  # noqa: E731

    for step in range(1, hmax + 1):
        prev_free = frees[-1]
        kers = {d: linalg.kernel_basis(prev_eval(d), p) for d in range(dmax + 1)}
        kernel_bases.append(kers)

        new_gens = [(d, new) for d, _, new in
                    minimal_generators(algebra, kers, prev_free.left_mult_matrix,
                                       dmax)]

        fi = FreeModule(algebra, [d for d, _ in new_gens],
                        [f"{label}{step}_{k}" for k in range(len(new_gens))])
        entries: dict[tuple[int, int], Element] = {}
        for jnew, (d, vec) in enumerate(new_gens):
            for jprev, el in prev_free.decompose(vec, d).items():
                assert el.degree >= 1, "non-minimal differential entry"
                entries[(jprev, jnew)] = el
        dmat = AlgMatrix(algebra, fi, prev_free, entries)
        frees.append(fi)
        diffs.append(dmat)
        prev_eval = dmat.evaluate

    res = FreeResolution(algebra, module, hmax, dmax, frees, diffs, cover,
                         kernel_bases)
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


def verify_complex(res: FreeResolution, hmax: int | None = None,
                   dmax: int | None = None) -> ComplexReport:
    """Independent rank-based verification inside the window:
    differentials compose to zero as matrices over the algebra, all
    entries lie in the augmentation ideal, and homology vanishes at
    every bidegree the window can certify."""
    p = res.algebra.p
    hmax = res.hmax if hmax is None else min(hmax, res.hmax)
    dmax = res.dmax if dmax is None else min(dmax, res.dmax)
    rep = ComplexReport()

    for i in range(1, hmax + 1):
        md = res.diffs[i].min_entry_degree()
        rep.add(f"minimality step {i}", md is None or md >= 1,
                f"min entry degree {md}")

    for i in range(2, hmax + 1):
        comp = res.diffs[i - 1].compose(res.diffs[i])
        rep.add(f"d{i - 1} o d{i} = 0", comp.is_zero(),
                "" if comp.is_zero() else f"nonzero at {sorted(comp.entries)}")
    if hmax >= 1:
        bad = []
        for d in range(dmax + 1):
            prod = (res.eval_cover(d) @ res.eval_diff(1, d)) % p
            if np.any(prod):
                bad.append(d)
        rep.add("cover o d1 = 0", not bad, f"degrees {bad}" if bad else "")

    bad = []
    for d in range(dmax + 1):
        if linalg.rank(res.eval_cover(d), p) != res.module.dim(d):
            bad.append(d)
    rep.add("cover surjective", not bad, f"degrees {bad}" if bad else "")

    if hmax >= 1:
        bad = []
        for d in range(dmax + 1):
            nullity = res.frees[0].dim(d) - linalg.rank(res.eval_cover(d), p)
            if nullity != linalg.rank(res.eval_diff(1, d), p):
                bad.append(d)
        rep.add("exactness at step 0", not bad, f"degrees {bad}" if bad else "")

    for i in range(1, hmax):
        bad = []
        for d in range(dmax + 1):
            r_in = linalg.rank(res.eval_diff(i + 1, d), p)
            r_out = linalg.rank(res.eval_diff(i, d), p)
            if r_in + r_out != res.frees[i].dim(d):
                bad.append(d)
        rep.add(f"exactness at step {i}", not bad, f"degrees {bad}" if bad else "")
    return rep


def syzygy_module(res: FreeResolution, n: int) -> GradedModule:
    """The n-th syzygy (kernel of the map out of F_{n-1}) in its chosen
    echelon basis, as a graded module table."""
    assert 1 <= n <= len(res.kernel_bases), "syzygy step beyond resolution"
    return submodule_as_gmodule(res.frees[n - 1], res.kernel_bases[n - 1],
                                label_prefix=f"z{n}_")


def minimal_presentation(algebra: GradedAlgebra, module: GradedModule,
                         dmax: int | None = None):
    """Minimal presentation matrix: F_1 -> F_0 with cokernel the module.
    Returns (AlgMatrix, FreeResolution with hmax = 1)."""
    res = minimal_resolution(algebra, module, 1, dmax)
    return res.diffs[1], res


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
