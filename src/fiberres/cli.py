"""Command-line interface: build algebras and modules from JSON files,
run resolutions and the verification suites, and emit deterministic
reports.

Exit codes: 0 when every check passed (or a pure computation finished),
1 on usage or input errors, 2 when at least one verification failed.
Human-readable tables go to stdout; the JSON report goes behind
``--out`` and is byte-identical across runs on equal inputs (wall time
is printed to stdout only, never serialized).  The environment variable
``FIBERRES_CHAR`` overrides the default field characteristic for input
files that do not pin one.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import jsonio
from .algebra import DEFAULT_CHAR, AlgebraError, FiberProductAlgebra, \
    fiber_product
from .cohomology import (depth_certificate, depth_upper_bound, syzygy_split,
                         verify_ext_sequence_L,
                         verify_fiber_module_ext_sequence)
from .extalg import (ExtError, ext_algebra, ext_module, koszul_check,
                     koszul_module_check, verify_phi_iso, verify_theta_iso)
from .gmodule import ModuleError, algebra_as_module, residue_module, \
    restrict_to_fiber
from .linalg import LinalgError
from .resolve import (ComplexReport, ResolutionError, WindowError,
                      betti_table_text, minimal_resolution, verify_complex)
from .series import SeriesError, poincare_fiber_formula
from .wordres import WordError, build_word_resolution, verify_word_resolution

INPUT_ERRORS = (jsonio.InputError, AlgebraError, ModuleError, WordError,
                ExtError, WindowError, ResolutionError, LinalgError)


class UsageHalt(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageHalt(message)


# -- report plumbing ----------------------------------------------------------


class CliReport(ComplexReport):
    """A command's checks and data, headed by the command, the
    characteristic and the window it ran in."""

    def __init__(self, command: str, char: int, window: dict):
        super().__init__()
        self.command, self.char, self.window = command, char, dict(window)


def _report_json(rep: CliReport) -> dict:
    """The ``--out`` document of a command's report."""
    return {"command": rep.command, "char": rep.char, "window": rep.window,
            "checks": [{"name": c["name"],
                        "status": "pass" if c["ok"] else "fail",
                        "detail": c["detail"]} for c in rep.checks],
            "data": rep.data}


def _print_report(rep: CliReport) -> None:
    window = " ".join(f"{k}={v}" for k, v in rep.window.items())
    print(f"fiberres {rep.command}  char={rep.char}"
          + (f"  window: {window}" if window else ""))
    for c in rep.checks:
        line = f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}"
        if c["detail"]:
            line += f" — {c['detail']}"
        print(line)
    n = len(rep.checks)
    bad = sum(1 for c in rep.checks if not c["ok"])
    if n:
        print(f"summary: {n} checks, {bad} failed")


def _env_char() -> int | None:
    raw = os.environ.get("FIBERRES_CHAR")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise jsonio.InputError(f"FIBERRES_CHAR={raw!r} is not an integer") \
            from exc


def _load_algebra(path: str):
    return jsonio.load_algebra(path, default_char=_env_char())


def _load_pair(s_path: str, t_path: str):
    S = _load_algebra(s_path)
    T = _load_algebra(t_path)
    if S.p != T.p:
        raise jsonio.InputError(
            f"factors disagree on the characteristic: {S.p} vs {T.p}")
    return S, T, fiber_product(S, T)


def _require_fiber(algebra) -> FiberProductAlgebra:
    if not isinstance(algebra, FiberProductAlgebra):
        raise jsonio.InputError(
            "this command needs a fiber product ring (algebra kind 'fiber')")
    return algebra


# -- command handlers ---------------------------------------------------------


def cmd_algebra(args) -> CliReport:
    A = _load_algebra(args.algebra)
    rep = CliReport("algebra", A.p, {"cap": A.cap})
    rep.add("multiplication associative in window",
            A.check_associativity() == [])
    rep.data.update({
        "dims": [A.dim(n) for n in range(A.cap + 1)],
        "labels": [list(A.labels(n)) for n in range(A.cap + 1)],
        "hilbert": A.hilbert_series().to_json(),
    })
    print("degree:", *range(A.cap + 1))
    print("dim:   ", *rep.data["dims"])
    return rep


def cmd_fiber(args) -> CliReport:
    S, T, R = _load_pair(args.s, args.t)
    rep = CliReport("fiber", R.p, {"cap": R.cap})
    glued = all(R.dim(n) == S.dim(n) + T.dim(n) for n in range(1, R.cap + 1))
    rep.add("dimensions glue: dim R_n = dim S_n + dim T_n for n >= 1",
            glued)
    rep.add("multiplication associative in window",
            R.check_associativity() == [])
    rep.data.update({
        "dims": [R.dim(n) for n in range(R.cap + 1)],
        "s_dims": [S.dim(n) for n in range(S.cap + 1)],
        "t_dims": [T.dim(n) for n in range(T.cap + 1)],
        "labels": [list(R.labels(n)) for n in range(R.cap + 1)],
    })
    print("degree:", *range(R.cap + 1))
    print("dim:   ", *rep.data["dims"])
    return rep


def cmd_resolve(args) -> CliReport:
    A = _load_algebra(args.algebra)
    M = jsonio.load_module(args.module, A)
    dmax = A.cap if args.dmax is None else args.dmax
    res = minimal_resolution(A, M, args.hmax, dmax)
    rep = CliReport("resolve", A.p, {"hmax": args.hmax, "dmax": dmax})
    rep.absorb("resolution", verify_complex(res))
    rep.data.update({
        "ranks": [res.rank(i) for i in range(args.hmax + 1)],
        "betti": {f"{i},{j}": v for (i, j), v in sorted(res.betti().items())},
        "poincare": res.poincare_series().to_json(),
    })
    print(betti_table_text(res.betti(), args.hmax))
    return rep


def cmd_poincare(args) -> CliReport:
    if args.formula:
        if not (args.s_m and args.s_k and args.t_k):
            raise jsonio.InputError(
                "--formula needs --s-m, --s-k and --t-k series files")
        psm = jsonio.load_series(args.s_m)
        psk = jsonio.load_series(args.s_k)
        ptk = jsonio.load_series(args.t_k)
        try:
            series = poincare_fiber_formula(psm, psk, ptk)
        except SeriesError as exc:
            raise jsonio.InputError(f"series not applicable: {exc}") from exc
        rep = CliReport("poincare", 0, {"truncation": series.truncation})
        rep.data["series"] = series.to_json()
        print("coefficients:", *series.coeffs)
        return rep
    if not (args.s and args.t and args.m and args.hmax is not None):
        raise jsonio.InputError(
            "either use --formula with series files, or give --s, --t, "
            "--m and --hmax")
    S, T, R = _load_pair(args.s, args.t)
    M = jsonio.load_module(args.m, S)
    dmax = R.cap if args.dmax is None else args.dmax
    rep = CliReport("poincare", R.p, {"hmax": args.hmax, "dmax": dmax})
    formula, direct = _poincare_pair(S, T, R, M, args.hmax, dmax)
    rep.add(f"formula matches direct Betti numbers through degree {args.hmax}",
            formula.matches(direct),
            f"formula {formula.coeffs} direct {direct.coeffs}")
    rep.data.update({"formula": formula.to_json(),
                        "direct": direct.to_json()})
    print("formula:", *formula.coeffs)
    print("direct: ", *direct.coeffs)
    return rep


def _poincare_pair(S, T, R, M, hmax: int, dmax: int):
    """Poincaré series of M over the fiber product R through ``hmax``:
    the closed formula applied to the factors' series (resolved through
    ``min(dmax, cap)``), and the series of a direct resolution over R."""
    psm = minimal_resolution(S, M, hmax, min(dmax, S.cap)).poincare_series()
    psk = minimal_resolution(S, residue_module(S), hmax,
                             min(dmax, S.cap)).poincare_series()
    ptk = minimal_resolution(T, residue_module(T), hmax,
                             min(dmax, T.cap)).poincare_series()
    formula = poincare_fiber_formula(psm, psk, ptk)
    direct = minimal_resolution(R, restrict_to_fiber(R, M, "S"), hmax,
                                dmax).poincare_series()
    return formula, direct


def cmd_wordres(args) -> CliReport:
    S, T, R = _load_pair(args.s, args.t)
    M = jsonio.load_module(args.m, S)
    dmax = R.cap if args.dmax is None else args.dmax
    G = build_word_resolution(S, T, M, args.hmax, dmax, fiber=R)
    rep = CliReport("wordres", R.p, {"hmax": args.hmax, "dmax": dmax})
    rep.data.update({
        "word_counts": G.word_counts(),
        "words": [list(G.frees[i].gen_labels) for i in range(args.hmax + 1)],
        "differentials": {str(i): G.diffs[i].entry_strings()
                          for i in range(1, args.hmax + 1)},
    })
    print("word counts per homological degree:", *G.word_counts())
    if args.verify:
        rep.absorb("word resolution", verify_word_resolution(
            G, compare_direct=True))
    return rep


def cmd_ext(args) -> CliReport:
    A = _load_algebra(args.algebra)
    dmax = A.cap if args.dmax is None else args.dmax
    ext = ext_algebra(A, args.imax, dmax)
    rep = CliReport("ext", A.p, {"imax": args.imax, "dmax": dmax})
    rep.add("yoneda products associative in window",
            ext.check_associativity() == [])
    ok, offenders = koszul_check(A, args.imax, dmax,
                                 resolution=ext.resolution)
    rep.data.update({
        "dims": [ext.dim(n) for n in range(args.imax + 1)],
        "bigraded": {f"{i},{d}": v
                     for (i, d), v in sorted(ext.bigraded_dims().items())},
        "koszul": {"diagonal_in_window": ok, "offenders": offenders},
    })
    print("ext dims:", *rep.data["dims"])
    if args.module:
        M = jsonio.load_module(args.module, A)
        extm = ext_module(A, M, args.imax, dmax, ext=ext)
        mok, moff = koszul_module_check(A, M, args.imax, dmax,
                                        resolution=extm.resolution)
        rep.data["module"] = {
            "dims": [extm.dim(n) for n in range(args.imax + 1)],
            "bigraded": {f"{i},{d}": v
                         for (i, d), v in sorted(extm.bigraded_dims().items())},
            "koszul": {"diagonal_in_window": mok, "offenders": moff},
        }
        print("module ext dims:", *rep.data["module"]["dims"])
    return rep


def cmd_verify(args) -> CliReport:
    S, T, R = _load_pair(args.s, args.t)
    dmax = R.cap if args.dmax is None else args.dmax
    window = {"window": args.window, "dmax": dmax,
              "products_to": args.products_to}
    rep = CliReport(f"verify {args.what}", R.p, window)
    if args.what == "phi":
        crep = verify_phi_iso(R, args.window, dmax,
                              products_to=args.products_to)
        rep.absorb("phi", crep)
    else:
        if not args.m:
            raise jsonio.InputError("verify theta needs --m (module over "
                                    "the first factor)")
        M = jsonio.load_module(args.m, S)
        crep = verify_theta_iso(R, M, args.window, dmax,
                                products_to=args.products_to)
        rep.absorb("theta", crep)
    return rep


def cmd_koszul(args) -> CliReport:
    A = _load_algebra(args.algebra)
    dmax = A.cap if args.dmax is None else args.dmax
    ok, offenders = koszul_check(A, args.imax, dmax)
    rep = CliReport("koszul", A.p, {"imax": args.imax, "dmax": dmax})
    rep.data["koszul"] = {"diagonal_in_window": ok,
                             "offenders": offenders,
                             "certificate": offenders[0] if offenders else None}
    if ok:
        print(f"diagonal through window {args.imax}: no off-diagonal classes")
    else:
        print(f"not Koszul: first off-diagonal class at (step, degree) = "
              f"{tuple(offenders[0])}")
    return rep


def cmd_fiber_module(args) -> CliReport:
    S, T, R = _load_pair(args.s, args.t)
    m_mod = jsonio.load_module(args.m, S)
    n_mod = jsonio.load_module(args.n, T)
    dmax = R.cap if args.dmax is None else args.dmax
    rep = CliReport("fiber-module", R.p, {"hmax": args.hmax, "dmax": dmax})
    rep.absorb("fiber module",
               verify_fiber_module_ext_sequence(R, m_mod, n_mod, args.hmax, dmax))
    return rep


def cmd_syzygy_split(args) -> CliReport:
    R = _require_fiber(_load_algebra(args.r))
    L = jsonio.load_module(args.l, R)
    dmax = R.cap if args.dmax is None else args.dmax
    window = {"cap": R.cap}
    if args.hmax is not None:
        window["hmax"] = args.hmax
        window["dmax"] = dmax
    rep = CliReport("syzygy-split", R.p, window)
    split = syzygy_split(R, L)
    # the Ext sequence checks its window before anything is printed
    seq = None if args.hmax is None else verify_ext_sequence_L(R, L, args.hmax,
                                                               dmax, split)
    rep.absorb("split", split.report)
    rep.data["component_dims"] = {
        "m": [split.m_module.dim(n) for n in range(R.cap + 1)],
        "n": [split.n_module.dim(n) for n in range(R.cap + 1)],
    }
    print("degree (kernel, first component, second component):")
    for d, triple in enumerate(split.dims()):
        if any(triple):
            print(f"  {d}: {triple}")
    if seq is not None:
        rep.absorb("ext sequence", seq)
    return rep


def cmd_depth(args) -> CliReport:
    R = _require_fiber(_load_algebra(args.r))
    dmax = args.dmax
    if bool(args.m) == bool(args.l):
        raise jsonio.InputError("give exactly one of --m (module over the "
                                "first factor) or --l (module over the ring)")
    if args.m:
        M = jsonio.load_module(args.m, R.s_algebra)
        window = {"hmax": args.hmax, "jmax": args.jmax}
        rep = CliReport("depth", R.p, window)
        cert = depth_certificate(R, M, args.jmax, args.hmax, dmax)
        rep.absorb("certificate", cert.report)
        rep.data["certificate"] = cert.to_json()
        lo, hi = cert.interval
        print(f"case: {cert.case}")
        print(f"certified depth interval: [{lo}, {hi}]")
        return rep
    L = jsonio.load_module(args.l, R)
    rep = CliReport("depth", R.p, {"hmax": args.hmax})
    crep = depth_upper_bound(R, L, args.hmax, dmax)
    rep.absorb("upper bound", crep)
    print(f"case: {crep.data['case']}")
    print(f"depth: {crep.data['depth']}")
    return rep


# -- the suite ----------------------------------------------------------------

SUITE_CHECKS = ["poincare", "wordres", "phi", "theta", "koszul",
                "fiber-module", "syzygy-split", "depth"]


def _suite_triple(entry: dict, base: str, window: dict) -> tuple[bool, dict]:
    S, T, R = _load_pair(os.path.join(base, entry["s"]),
                         os.path.join(base, entry["t"]))
    M = jsonio.load_module(os.path.join(base, entry["m"]), S)
    hmax = int(window["hmax"])
    dmax = int(window.get("dmax", R.cap))
    jmax = int(window.get("jmax", 2))
    selected = entry.get("checks", SUITE_CHECKS)
    sub: dict = {}
    ok_all = True
    for name in selected:
        try:
            if name == "poincare":
                formula, direct = _poincare_pair(S, T, R, M, hmax, dmax)
                ok = formula.matches(direct)
                sub[name] = {"ok": ok, "formula": formula.coeffs,
                             "direct": direct.coeffs}
            elif name == "wordres":
                G = build_word_resolution(S, T, M, hmax, dmax, fiber=R)
                crep = verify_word_resolution(G, compare_direct=True)
                ok = crep.ok
                sub[name] = {"ok": ok, "counts": G.word_counts(),
                             "first_failure": crep.first_failure()}
            elif name == "phi":
                crep = verify_phi_iso(R, hmax, dmax)
                ok = crep.ok
                sub[name] = {"ok": ok, "first_failure": crep.first_failure()}
            elif name == "theta":
                crep = verify_theta_iso(R, M, hmax, dmax)
                ok = crep.ok
                sub[name] = {"ok": ok, "first_failure": crep.first_failure()}
            elif name == "koszul":
                s_ok, s_off = koszul_check(S, hmax)
                t_ok, t_off = koszul_check(T, hmax)
                r_ok, r_off = koszul_check(R, hmax, dmax)
                ok = r_ok == (s_ok and t_ok)
                sub[name] = {"ok": ok, "factors": [s_ok, t_ok],
                             "fiber": r_ok,
                             "offenders": {"s": s_off, "t": t_off,
                                           "r": r_off}}
            elif name == "fiber-module":
                crep = verify_fiber_module_ext_sequence(
                    R, algebra_as_module(S), algebra_as_module(T), hmax, dmax)
                ok = crep.ok
                sub[name] = {"ok": ok, "first_failure": crep.first_failure()}
            elif name == "syzygy-split":
                L = restrict_to_fiber(R, M, "S")
                split = syzygy_split(R, L)
                seq = verify_ext_sequence_L(R, L, hmax, dmax, split)
                ok = split.ok and seq.ok
                sub[name] = {"ok": ok, "dims": split.dims(),
                             "ext_dims": seq.data["ext_dims"]}
            elif name == "depth":
                cert = depth_certificate(R, M, jmax, hmax)
                ok = cert.ok
                sub[name] = {"ok": ok, **cert.to_json()}
            else:
                raise jsonio.InputError(f"unknown suite check {name!r}")
        except INPUT_ERRORS as exc:
            ok = False
            sub[name] = {"ok": False, "error": str(exc)}
        ok_all = ok_all and ok
    return ok_all, sub


def _suite_tensor_control(entry: dict, base: str, window: dict) \
        -> tuple[bool, dict]:
    S, T, R = _load_pair(os.path.join(base, entry["s"]),
                         os.path.join(base, entry["t"]))
    n = int(entry.get("degree", 2))
    b_r = minimal_resolution(R, residue_module(R), n).rank(n)
    b_s = minimal_resolution(S, residue_module(S), n)
    b_t = minimal_resolution(T, residue_module(T), n)
    tensor = sum(b_s.rank(a) * b_t.rank(n - a) for a in range(n + 1))
    ok = tensor == b_r
    return ok, {"ok": ok, "degree": n, "tensor_dim": tensor, "ext_dim": b_r,
                "detail": f"{tensor} vs {b_r}"}


def cmd_suite(args) -> CliReport:
    manifest = jsonio.load_json(args.manifest)
    if not isinstance(manifest, dict) or "window" not in manifest:
        raise jsonio.InputError("suite manifest needs a 'window' object")
    window = manifest["window"]
    if "hmax" not in window:
        raise jsonio.InputError("suite window needs 'hmax'")
    base = os.path.dirname(os.path.abspath(args.manifest))
    entries = manifest.get("entries", [])
    char = _env_char() or DEFAULT_CHAR
    rep = CliReport("suite", char, window)
    for entry in entries:
        name = entry.get("name", "(unnamed)")
        expect = entry.get("expect", "pass")
        kind = entry.get("kind", "triple")
        try:
            if kind == "triple":
                entry_ok, sub = _suite_triple(entry, base, window)
            elif kind == "tensor-control":
                entry_ok, sub = _suite_tensor_control(entry, base, window)
            else:
                raise jsonio.InputError(f"unknown suite entry kind {kind!r}")
        except (KeyError,) + INPUT_ERRORS as exc:
            entry_ok, sub = False, {"error": str(exc)}
        actual = "pass" if entry_ok else "fail"
        rep.add(name, actual == expect, f"expected {expect}, got {actual}")
        rep.data[name] = sub
    return rep


# -- argument parsing ---------------------------------------------------------


def build_parser() -> Parser:
    parser = Parser(prog="fiberres", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=Parser)

    def out_flag(p):
        p.add_argument("--out", help="write the JSON report here")

    p = subs.add_parser("algebra", help="tabulate a graded algebra")
    p.add_argument("--algebra", required=True)
    out_flag(p)
    p.set_defaults(func=cmd_algebra)

    p = subs.add_parser("fiber", help="glue two factors along k")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    out_flag(p)
    p.set_defaults(func=cmd_fiber)

    p = subs.add_parser("resolve", help="minimal free resolution")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--dmax", type=int)
    out_flag(p)
    p.set_defaults(func=cmd_resolve)

    p = subs.add_parser("poincare",
                        help="Poincare series formula and cross-check")
    p.add_argument("--formula", action="store_true",
                   help="apply the closed formula to series files")
    p.add_argument("--s-m", dest="s_m")
    p.add_argument("--s-k", dest="s_k")
    p.add_argument("--t-k", dest="t_k")
    p.add_argument("--s")
    p.add_argument("--t")
    p.add_argument("--m")
    p.add_argument("--hmax", type=int)
    p.add_argument("--dmax", type=int)
    out_flag(p)
    p.set_defaults(func=cmd_poincare)

    p = subs.add_parser("wordres", help="word-basis resolution")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--dmax", type=int)
    p.add_argument("--verify", action="store_true")
    out_flag(p)
    p.set_defaults(func=cmd_wordres)

    p = subs.add_parser("ext", help="Yoneda Ext algebra and module tables")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module")
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--dmax", type=int)
    out_flag(p)
    p.set_defaults(func=cmd_ext)

    p = subs.add_parser("verify", help="structural isomorphism checks")
    p.add_argument("what", choices=["phi", "theta"])
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--m")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--dmax", type=int)
    p.add_argument("--products-to", dest="products_to", type=int, default=4)
    out_flag(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("koszul", help="diagonal Ext test")
    p.add_argument("--algebra", required=True)
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--dmax", type=int)
    out_flag(p)
    p.set_defaults(func=cmd_koszul)

    p = subs.add_parser("fiber-module",
                        help="Ext sequence of a pullback module")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--m", required=True, help="module over the first factor")
    p.add_argument("--n", required=True, help="module over the second factor")
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--dmax", type=int)
    out_flag(p)
    p.set_defaults(func=cmd_fiber_module)

    p = subs.add_parser("syzygy-split",
                        help="split the second syzygy over a fiber product")
    p.add_argument("--r", required=True, help="fiber product ring")
    p.add_argument("--l", required=True, help="module over the ring")
    p.add_argument("--hmax", type=int,
                   help="also verify the Ext dimension bookkeeping")
    p.add_argument("--dmax", type=int)
    out_flag(p)
    p.set_defaults(func=cmd_syzygy_split)

    p = subs.add_parser("depth", help="depth certificates over cohomology")
    p.add_argument("--r", required=True, help="fiber product ring")
    p.add_argument("--m", help="module over the first factor (certificate)")
    p.add_argument("--l", help="module over the ring (upper bound)")
    p.add_argument("--jmax", type=int, default=2)
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--dmax", type=int)
    out_flag(p)
    p.set_defaults(func=cmd_depth)

    p = subs.add_parser("suite", help="run a manifest of verification jobs")
    p.add_argument("--manifest", required=True)
    out_flag(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageHalt as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        report = args.func(args)
    except UsageHalt as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_report(report)
    print(f"wall time: {time.perf_counter() - t0:.3f}s")
    if args.out:
        jsonio.write_report(args.out, _report_json(report))
        print(f"report written to {args.out}")
    return 0 if report.ok else 2


if __name__ == "__main__":
    sys.exit(main())
