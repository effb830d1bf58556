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
from types import SimpleNamespace

from . import jsonio
from .algebra import DEFAULT_CHAR, AlgebraError, FiberProductAlgebra, \
    fiber_product
from .cohomology import (depth_certificate, depth_upper_bound, syzygy_split,
                         verify_ext_sequence_L,
                         verify_fiber_module_ext_sequence)
from .extalg import (ExtError, ext_algebra, ext_module, koszul_check, off_diagonal,
                     verify_phi_iso, verify_theta_iso)
from .gmodule import ModuleError, algebra_as_module, residue_module, \
    restrict_to_fiber
from .linalg import LinalgError
from .resolve import (ComplexReport, ResolutionError, WindowError,
                      betti_table_text, minimal_resolution, sharing,
                      verify_complex, window)
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
    bad = sum(1 for c in rep.checks if not c["ok"])
    if rep.checks:
        print(f"summary: {len(rep.checks)} checks, {bad} failed")


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
    S, T = _load_algebra(s_path), _load_algebra(t_path)
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


def _tabulate(rep: CliReport, A) -> CliReport:
    """Associativity, dims and labels of A; prints the dims by degree."""
    rep.add("multiplication associative in window",
            A.check_associativity() == [])
    rep.data.update({"dims": [A.dim(n) for n in range(A.cap + 1)],
                     "labels": [list(A.labels(n)) for n in range(A.cap + 1)]})
    print("degree:", *range(A.cap + 1))
    print("dim:   ", *rep.data["dims"])
    return rep


def cmd_algebra(args) -> CliReport:
    A = _load_algebra(args.algebra)
    rep = _tabulate(CliReport("algebra", A.p, {"cap": A.cap}), A)
    rep.data["hilbert"] = A.hilbert_series().to_json()
    return rep


def cmd_fiber(args) -> CliReport:
    S, T, R = _load_pair(args.s, args.t)
    rep = CliReport("fiber", R.p, {"cap": R.cap})
    rep.add("dimensions glue: dim R_n = dim S_n + dim T_n for n >= 1",
            all(R.dim(n) == S.dim(n) + T.dim(n) for n in range(1, R.cap + 1)))
    rep.data.update({"s_dims": [S.dim(n) for n in range(S.cap + 1)],
                     "t_dims": [T.dim(n) for n in range(T.cap + 1)]})
    return _tabulate(rep, R)


def cmd_resolve(args) -> CliReport:
    A = _load_algebra(args.algebra)
    M = jsonio.load_module(args.module, A)
    dmax = window(A, args.hmax, args.dmax)
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
    rep, summary = check_poincare(S, T, R, M, args.hmax, args.dmax)
    print("formula:", *summary["formula"])
    print("direct: ", *summary["direct"])
    return rep


def cmd_wordres(args) -> CliReport:
    S, T, R = _load_pair(args.s, args.t)
    M = jsonio.load_module(args.m, S)
    rep, summary = check_wordres(S, T, R, M, args.hmax, args.dmax, args.verify)
    print("word counts per homological degree:", *summary["counts"])
    return rep


def _ext_tables(ext, imax: int) -> dict:
    """Dims, bigraded class counts and the Koszul offenders of an Ext
    algebra or module, all read off the Betti table of its resolution."""
    res = ext.resolution
    offenders = off_diagonal(res)
    return {"dims": [ext.dim(n) for n in range(imax + 1)],
            "bigraded": {f"{i},{d}": v for (i, d), v in sorted(res.betti().items())},
            "koszul": {"diagonal_in_window": not offenders, "offenders": offenders}}


def cmd_ext(args) -> CliReport:
    A = _load_algebra(args.algebra)
    dmax = window(A, args.imax, args.dmax)
    ext = ext_algebra(A, args.imax, dmax)
    rep = CliReport("ext", A.p, {"imax": args.imax, "dmax": dmax})
    rep.add("yoneda products associative in window",
            ext.check_associativity() == [])
    rep.data.update(_ext_tables(ext, args.imax))
    print("ext dims:", *rep.data["dims"])
    if args.module:
        M = jsonio.load_module(args.module, A)
        extm = ext_module(A, M, args.imax, dmax, ext=ext)
        rep.data["module"] = _ext_tables(extm, args.imax)
        print("module ext dims:", *rep.data["module"]["dims"])
    return rep


def cmd_verify(args) -> CliReport:
    S, T, R = _load_pair(args.s, args.t)
    if args.what == "theta" and not args.m:
        raise jsonio.InputError("verify theta needs --m (module over "
                                "the first factor)")
    M = jsonio.load_module(args.m, S) if args.what == "theta" else None
    return check_verify(R, M, args.window, args.dmax, args.products_to)[0]


def cmd_koszul(args) -> CliReport:
    A = _load_algebra(args.algebra)
    rep, summary = check_koszul(A, args.imax, args.dmax)
    if summary["diagonal_in_window"]:
        print(f"diagonal through window {args.imax}: no off-diagonal classes")
    else:
        print(f"not Koszul: first off-diagonal class at (step, degree) = "
              f"{tuple(summary['certificate'])}")
    return rep


def cmd_fiber_module(args) -> CliReport:
    S, T, R = _load_pair(args.s, args.t)
    m_mod = jsonio.load_module(args.m, S)
    n_mod = jsonio.load_module(args.n, T)
    return check_fiber_module(R, m_mod, n_mod, args.hmax, args.dmax)[0]


def cmd_syzygy_split(args) -> CliReport:
    R = _require_fiber(_load_algebra(args.r))
    L = jsonio.load_module(args.l, R)
    rep, summary = check_syzygy_split(R, L, args.hmax, args.dmax)
    print("degree (kernel, first component, second component):")
    for d, triple in enumerate(summary["dims"]):
        if any(triple):
            print(f"  {d}: {triple}")
    return rep


def cmd_depth(args) -> CliReport:
    R = _require_fiber(_load_algebra(args.r))
    if bool(args.m) == bool(args.l):
        raise jsonio.InputError("give exactly one of --m (module over the "
                                "first factor) or --l (module over the ring)")
    if args.m:
        M = jsonio.load_module(args.m, R.s_algebra)
        rep, cert = check_depth(R, M, args.jmax, args.hmax, args.dmax)
        print(f"case: {cert['case']}")
        print("certified depth interval: [{}, {}]".format(*cert["interval"]))
        return rep
    L = jsonio.load_module(args.l, R)
    rep = CliReport("depth", R.p, _with_dmax({"hmax": args.hmax}, args.dmax))
    crep = depth_upper_bound(R, L, args.hmax, args.dmax)
    rep.absorb("upper bound", crep)
    print(f"case: {crep.data['case']}")
    print(f"depth: {crep.data['depth']}")
    return rep


# -- the checks: one function each, shared by a subcommand and the suite ------
# Each returns the command's report and the suite's summary of it; a
# summary's ``first_failure`` is the library's, without a command prefix.
# ``dmax`` arrives as given (None for the default); ``resolve.window``
# settles it on the ring reported on, in the check or, after a smallest
# valid window of its own, in the library (verify, syzygy-split, depth).


def _with_dmax(window: dict, dmax: int | None) -> dict:
    return window if dmax is None else {**window, "dmax": dmax}


def check_poincare(S, T, R, M, hmax: int, dmax: int | None):
    """The closed formula for P^R_M, applied to the factors' series
    (resolved in R's window), against the series of a direct resolution
    over R, through ``hmax``."""
    dmax = window(R, hmax, dmax)
    psm, psk, ptk = (minimal_resolution(A, N, hmax, dmax)
                     .poincare_series() for A, N in
                     ((S, M), (S, residue_module(S)), (T, residue_module(T))))
    formula = poincare_fiber_formula(psm, psk, ptk)
    direct = minimal_resolution(R, restrict_to_fiber(R, M, "S"), hmax,
                                dmax).poincare_series()
    rep = CliReport("poincare", R.p, {"hmax": hmax, "dmax": dmax})
    rep.add(f"formula matches direct Betti numbers through degree {hmax}",
            formula.matches(direct),
            f"formula {formula.coeffs} direct {direct.coeffs}")
    rep.data.update({"formula": formula.to_json(), "direct": direct.to_json()})
    return rep, {"formula": formula.coeffs, "direct": direct.coeffs}


def check_wordres(S, T, R, M, hmax: int, dmax: int | None, verify: bool):
    dmax = window(R, hmax, dmax)
    G = build_word_resolution(S, T, M, hmax, dmax, fiber=R)
    rep = CliReport("wordres", R.p, {"hmax": hmax, "dmax": dmax})
    rep.data.update({
        "word_counts": G.word_counts(),
        "words": [list(G.frees[i].gen_labels) for i in range(hmax + 1)],
        "differentials": {str(i): G.entry_strings(i)
                          for i in range(1, hmax + 1)},
    })
    summary = {"counts": G.word_counts()}
    if verify:
        crep = verify_word_resolution(G, compare_direct=True)
        rep.absorb("word resolution", crep)
        summary["first_failure"] = crep.first_failure()
    return rep, summary


def check_verify(R, M, hmax: int, dmax: int | None, products_to: int = 4):
    """``phi`` (no module) or ``theta`` (M over the first factor)."""
    what = "phi" if M is None else "theta"
    crep = verify_phi_iso(R, hmax, dmax, products_to=products_to) \
        if M is None else verify_theta_iso(R, M, hmax, dmax,
                                           products_to=products_to)
    rep = CliReport(f"verify {what}", R.p, {
        "window": hmax, "dmax": window(R, hmax, dmax), "products_to": products_to})
    rep.absorb(what, crep)
    return rep, {"first_failure": crep.first_failure()}


def check_koszul(A, imax: int, dmax: int | None):
    dmax = window(A, imax, dmax)
    ok, offenders = koszul_check(A, imax, dmax)
    rep = CliReport("koszul", A.p, {"imax": imax, "dmax": dmax})
    rep.data["koszul"] = {"diagonal_in_window": ok, "offenders": offenders,
                          "certificate": offenders[0] if offenders else None}
    return rep, rep.data["koszul"]


def check_fiber_module(R, m_mod, n_mod, hmax: int, dmax: int | None):
    dmax = window(R, hmax, dmax)
    crep = verify_fiber_module_ext_sequence(R, m_mod, n_mod, hmax, dmax)
    rep = CliReport("fiber-module", R.p, {"hmax": hmax, "dmax": dmax})
    rep.absorb("fiber module", crep)
    return rep, {"first_failure": crep.first_failure()}


def check_syzygy_split(R, L, hmax: int | None, dmax: int | None):
    """The split of L's second syzygy and, given ``hmax``, the Ext
    sequence it forces."""
    split = syzygy_split(R, L)
    seq = None if hmax is None else verify_ext_sequence_L(R, L, hmax, dmax,
                                                          split)
    rep = CliReport("syzygy-split", R.p, {"cap": R.cap} if hmax is None
                    else {"cap": R.cap, "hmax": hmax, "dmax": window(R, hmax, dmax)})
    rep.absorb("split", split.report)
    rep.data["component_dims"] = {
        "m": [split.m_module.dim(n) for n in range(R.cap + 1)],
        "n": [split.n_module.dim(n) for n in range(R.cap + 1)],
    }
    summary = {"dims": split.dims()}
    if seq is not None:
        rep.absorb("ext sequence", seq)
        summary["ext_dims"] = seq.data["ext_dims"]
    return rep, summary


def check_depth(R, M, jmax: int, hmax: int, dmax: int | None):
    rep = CliReport("depth", R.p,
                    _with_dmax({"hmax": hmax, "jmax": jmax}, dmax))
    cert = depth_certificate(R, M, jmax, hmax, dmax)
    rep.absorb("certificate", cert.report)
    rep.data["certificate"] = cert.to_json()
    return rep, cert.to_json()


# -- the suite ----------------------------------------------------------------


def _suite_koszul(x):
    """R is Koszul exactly when both factors are: the koszul check on
    each factor and on R, all in R's window."""
    dmax = window(x.R, x.hmax, x.dmax)
    s, t, r = (check_koszul(A, x.hmax, dmax)[1] for A in (x.S, x.T, x.R))
    factors = [s["diagonal_in_window"], t["diagonal_in_window"]]
    rep = CliReport("koszul", x.R.p, {"imax": x.hmax, "dmax": dmax})
    rep.add("R diagonal exactly when both factors are",
            r["diagonal_in_window"] == all(factors))
    return rep, {"factors": factors, "fiber": r["diagonal_in_window"],
                 "offenders": {"s": s["offenders"], "t": t["offenders"],
                               "r": r["offenders"]}}


# check name -> call on a triple entry's inputs and the window
SUITE_CHECKS = {
    "poincare": lambda x: check_poincare(x.S, x.T, x.R, x.M, x.hmax, x.dmax),
    "wordres": lambda x: check_wordres(x.S, x.T, x.R, x.M, x.hmax, x.dmax,
                                       verify=True),
    "phi": lambda x: check_verify(x.R, None, x.hmax, x.dmax),
    "theta": lambda x: check_verify(x.R, x.M, x.hmax, x.dmax),
    "koszul": _suite_koszul,
    "fiber-module": lambda x: check_fiber_module(
        x.R, algebra_as_module(x.S), algebra_as_module(x.T), x.hmax, x.dmax),
    "syzygy-split": lambda x: check_syzygy_split(
        x.R, restrict_to_fiber(x.R, x.M, "S"), x.hmax, x.dmax),
    "depth": lambda x: check_depth(x.R, x.M, x.jmax, x.hmax, x.dmax),
}


def _suite_triple(entry: dict, base: str, window: dict) -> tuple[bool, dict]:
    S, T, R = _load_pair(os.path.join(base, entry["s"]),
                         os.path.join(base, entry["t"]))
    M = jsonio.load_module(os.path.join(base, entry["m"]), S)
    x = SimpleNamespace(S=S, T=T, R=R, M=M, **window)
    sub: dict = {}
    for name in entry.get("checks", SUITE_CHECKS):
        try:
            if name not in SUITE_CHECKS:
                raise jsonio.InputError(f"unknown suite check {name!r}")
            rep, summary = SUITE_CHECKS[name](x)
            sub[name] = {"ok": rep.ok, **summary}
        except INPUT_ERRORS as exc:
            sub[name] = {"ok": False, "error": str(exc)}
    return all(s["ok"] for s in sub.values()), sub


def _suite_tensor_control(entry: dict, base: str, window: dict) -> tuple[bool, dict]:
    S, T, R = _load_pair(os.path.join(base, entry["s"]),
                         os.path.join(base, entry["t"]))
    n = _manifest_int(entry, "degree", 2)
    b_r = minimal_resolution(R, residue_module(R), n).rank(n)
    tensor = (minimal_resolution(S, residue_module(S), n).poincare_series()
              * minimal_resolution(T, residue_module(T), n).poincare_series()).coeff(n)
    ok = tensor == b_r
    return ok, {"ok": ok, "degree": n, "tensor_dim": tensor, "ext_dim": b_r,
                "detail": f"{tensor} vs {b_r}"}


SUITE_KINDS = {"triple": _suite_triple, "tensor-control": _suite_tensor_control}


def _manifest_int(obj: dict, key: str, default=None):
    value = obj.get(key, default)
    if key in obj and (isinstance(value, bool) or not isinstance(value, int)):
        raise jsonio.InputError(
            f"suite manifest: {key!r} must be an integer, got {value!r}")
    return value


def cmd_suite(args) -> CliReport:
    manifest = jsonio.load_json(args.manifest)
    if not isinstance(manifest, dict) or \
            not isinstance(manifest.get("window"), dict):
        raise jsonio.InputError("suite manifest needs a 'window' object")
    window = manifest["window"]
    if "hmax" not in window:
        raise jsonio.InputError("suite window needs 'hmax'")
    limits = {key: _manifest_int(window, key, default) for key, default in
              (("hmax", None), ("dmax", None), ("jmax", 2))}
    entries = manifest.get("entries", [])
    if not isinstance(entries, list) or \
            not all(isinstance(e, dict) for e in entries):
        raise jsonio.InputError("suite 'entries' must be a list of objects")
    for entry in entries:
        checks = entry.get("checks", [])
        if not (isinstance(checks, list)
                and all(isinstance(c, str) for c in checks)):
            raise jsonio.InputError(
                f"suite 'checks' must be a list of names, got {checks!r}")
        if entry.get("kind", "triple") not in SUITE_KINDS:
            raise jsonio.InputError(f"suite entry kind {entry['kind']!r} is not one "
                                    f"of {sorted(SUITE_KINDS)}")
        if entry.get("expect", "pass") not in ("pass", "fail"):
            raise jsonio.InputError(f"suite 'expect' must be 'pass' or 'fail', "
                                    f"got {entry['expect']!r}")
    base = os.path.dirname(os.path.abspath(args.manifest))
    char = _env_char() or DEFAULT_CHAR
    rep = CliReport("suite", char, window)
    for entry in entries:
        name = entry.get("name", "(unnamed)")
        expect = entry.get("expect", "pass")
        try:
            # the checks of one entry share its resolutions (resolve.sharing)
            with sharing():
                entry_ok, sub = SUITE_KINDS[entry.get("kind", "triple")](entry, base, limits)
        except (KeyError,) + INPUT_ERRORS as exc:
            entry_ok, sub = False, {"error": str(exc)}
        # an entry that raised computed nothing, so it is never the
        # expected failure
        actual = "error" if "error" in sub else "pass" if entry_ok else "fail"
        rep.add(name, actual == expect, f"expected {expect}, got {actual}")
        rep.data[name] = sub
    return rep


# -- argument parsing ---------------------------------------------------------


def build_parser() -> Parser:
    parser = Parser(prog="fiberres", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=Parser)

    def add(func, name, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add(cmd_algebra, "algebra", help="tabulate a graded algebra")
    p.add_argument("--algebra", required=True)

    p = add(cmd_fiber, "fiber", help="glue two factors along k")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)

    p = add(cmd_resolve, "resolve", help="minimal free resolution")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--dmax", type=int)

    p = add(cmd_poincare, "poincare",
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

    p = add(cmd_wordres, "wordres", help="word-basis resolution")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--dmax", type=int)
    p.add_argument("--verify", action="store_true")

    p = add(cmd_ext, "ext", help="Yoneda Ext algebra and module tables")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module")
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--dmax", type=int)

    p = add(cmd_verify, "verify", help="structural isomorphism checks")
    p.add_argument("what", choices=["phi", "theta"])
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--m")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--dmax", type=int)
    p.add_argument("--products-to", dest="products_to", type=int, default=4,
                   help="top total degree of the product checks (at least 2 for "
                        "phi, 1 for theta; default 4)")

    p = add(cmd_koszul, "koszul", help="diagonal Ext test")
    p.add_argument("--algebra", required=True)
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--dmax", type=int)

    p = add(cmd_fiber_module, "fiber-module",
            help="Ext sequence of a pullback module")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--m", required=True, help="module over the first factor")
    p.add_argument("--n", required=True, help="module over the second factor")
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--dmax", type=int)

    p = add(cmd_syzygy_split, "syzygy-split",
            help="split the second syzygy over a fiber product")
    p.add_argument("--r", required=True, help="fiber product ring")
    p.add_argument("--l", required=True, help="module over the ring")
    p.add_argument("--hmax", type=int,
                   help="also verify the Ext dimension bookkeeping")
    p.add_argument("--dmax", type=int)

    p = add(cmd_depth, "depth", help="depth certificates over cohomology")
    p.add_argument("--r", required=True, help="fiber product ring")
    p.add_argument("--m", help="module over the first factor (certificate)")
    p.add_argument("--l", help="module over the ring (upper bound)")
    p.add_argument("--jmax", type=int, default=2,
                   help="certify witnesses j = 1..jmax (with --m); at least 1")
    p.add_argument("--hmax", type=int, required=True,
                   help="at least 3 with --m, 2 with --l")
    p.add_argument("--dmax", type=int)

    p = add(cmd_suite, "suite", help="run a manifest of verification jobs")
    p.add_argument("--manifest", required=True)

    for p in subs.choices.values():
        p.add_argument("--out", help="write the JSON report here")
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
