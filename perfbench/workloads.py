"""Inputs, operations and output digests of the benchmark's workloads.

A workload's inputs are built once (this is what ``setup_s`` times) and
its operations then run as one pass.  Each operation is one top-level
library call; its result is reduced to a canonical JSON payload whose
SHA-256 digest is compared against ``reference.json``.

The library is reached through module attributes (``_resolve.minimal_resolution``
rather than a name imported into this file), so the tracer's patches of
the ``fiberres`` module namespaces also cover the calls made from here.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITE_MANIFEST = "manifests/suite.json"

# Field primes for the library workloads; the run seed picks one.  All are
# odd, at most 32003 and large enough that no small-characteristic effect
# changes the answers (the reference digests are recorded per prime).
PRIMES = (32003, 31991, 30011, 25013, 20011, 16381, 10007, 5003)

# The window of each workload, recorded with every result.
WINDOWS = {
    "resolve": [
        {"ring": "k[x]/(x^3) x_k k[y]/(y^2)", "module": "k", "hmax": 10, "cap": 16},
        {"ring": "k[x,z]/(x^3,z^2) x_k k[y]/(y^3)", "module": "k", "hmax": 7, "cap": 12},
    ],
    "lift": [
        {"call": "verify_fiber_module_ext_sequence",
         "ring": "k[x]/(x^2) x_k k[y]/(y^2)", "modules": "free rank 2 over each factor",
         "hmax": 7, "cap": 12},
        {"call": "depth_upper_bound", "ring": "k[x]/(x^2) x_k k[y]/(y^2)",
         "module": "R/(x+y)", "hmax": 7, "cap": 12},
    ],
    "suite": [{"manifest": SUITE_MANIFEST, "hmax": 4, "dmax": 6, "jmax": 1}],
}
WORKLOADS = tuple(WINDOWS)
LIBRARY_WORKLOADS = ("resolve", "lift")

# Set in every benchmark process; see ``child_env``.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def prime_for_seed(seed: int) -> int:
    return PRIMES[seed % len(PRIMES)]


def canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, tuples as lists, numpy
    scalars as Python numbers."""
    def default(o):
        if hasattr(o, "item"):
            return o.item()
        if hasattr(o, "tolist"):
            return o.tolist()
        raise TypeError(f"cannot serialise {type(o).__name__}")
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default)


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def report_payload(rep) -> dict:
    """What a verification report is judged by: every check's ok flag,
    in order, and its data."""
    return {"checks_ok": [bool(c["ok"]) for c in rep.checks], "data": rep.data}


def betti_payload(res) -> list:
    return sorted([i, d, n] for (i, d), n in res.betti().items())


# -- inputs -------------------------------------------------------------------


def _ring(p: int, cap: int, names: list[str], rels: list[str]):
    from fiberres import algebra as _algebra
    pres = _algebra.MonomialQuotientPresentation(names, [1] * len(names), rels,
                                                 commutative=True)
    return _algebra.build_monomial_quotient(p, cap, pres)


def build_resolve(p: int) -> list[tuple]:
    """(label, ring, module, hmax) for the two rings of ``resolve``."""
    from fiberres import algebra as _algebra, gmodule as _gmodule
    out = []
    specs = [("cube_square", 16, (["x"], ["x^3"]), (["y"], ["y^2"]), 10),
             ("cube_square2_cube", 12, (["x", "z"], ["x^3", "z^2"]), (["y"], ["y^3"]), 7)]
    for label, cap, s_spec, t_spec, hmax in specs:
        R = _algebra.fiber_product(_ring(p, cap, *s_spec), _ring(p, cap, *t_spec))
        out.append((label, R, _gmodule.residue_module(R), hmax))
    return out


def build_lift(p: int) -> dict:
    from fiberres import algebra as _algebra, gmodule as _gmodule
    S = _ring(p, 12, ["x"], ["x^2"])
    T = _ring(p, 12, ["y"], ["y^2"])
    R = _algebra.fiber_product(S, T)
    phi = _gmodule.AlgMatrix(R, _gmodule.FreeModule(R, [1]), _gmodule.FreeModule(R, [0]),
                             {(0, 0): R.element_from_string("x+y")})
    return {"R": R, "M": _gmodule.free_module_table(S, [0, 0]),
            "N": _gmodule.free_module_table(T, [0, 0]),
            "L": _gmodule.cokernel_module(phi), "hmax": 7}


def build_suite() -> dict:
    """Parse the suite manifest and every ring and module file it names,
    as the CLI does before its first computation."""
    from fiberres import cli as _cli, jsonio as _jsonio  # noqa: F401  (the CLI import is set-up work)
    path = os.path.join(ROOT, SUITE_MANIFEST)
    manifest = _jsonio.load_json(path)
    base = os.path.dirname(path)
    parsed = []
    for entry in manifest["entries"]:
        S = _jsonio.load_algebra(os.path.join(base, entry["s"]))
        T = _jsonio.load_algebra(os.path.join(base, entry["t"]))
        M = _jsonio.load_module(os.path.join(base, entry["m"]), S) if "m" in entry else None
        parsed.append((S, T, M))
    return {"manifest": manifest, "parsed": parsed}


def build(workload: str, p: int | None):
    if workload == "resolve":
        return build_resolve(p)
    if workload == "lift":
        return build_lift(p)
    if workload == "suite":
        return build_suite()
    raise ValueError(f"unknown workload {workload!r}")


# -- operations ---------------------------------------------------------------


def operations(workload: str, inputs) -> list[tuple[str, object]]:
    """The pass of a library workload as (name, thunk) pairs; each thunk
    makes one top-level call and returns its canonical payload."""
    from fiberres import cohomology as _cohomology, resolve as _resolve
    ops: list[tuple[str, object]] = []
    if workload == "resolve":
        for label, R, k, hmax in inputs:
            held = {}

            def resolve_op(R=R, k=k, hmax=hmax, held=held):
                held["res"] = _resolve.minimal_resolution(R, k, hmax)
                return betti_payload(held["res"])

            def verify_op(held=held):
                return report_payload(_resolve.verify_complex(held.pop("res")))

            ops.append((f"minimal_resolution:{label}", resolve_op))
            ops.append((f"verify_complex:{label}", verify_op))
    elif workload == "lift":
        d = inputs
        ops.append(("verify_fiber_module_ext_sequence", lambda: report_payload(
            _cohomology.verify_fiber_module_ext_sequence(d["R"], d["M"], d["N"], d["hmax"]))))
        ops.append(("depth_upper_bound", lambda: report_payload(
            _cohomology.depth_upper_bound(d["R"], d["L"], d["hmax"]))))
    else:
        raise ValueError(f"{workload!r} is not a library workload")
    return ops


def run_pass(ops) -> list[dict]:
    """Run every operation once; an exception is recorded, not raised."""
    out = []
    for name, thunk in ops:
        try:
            out.append({"op": name, "digest": digest(thunk())})
        except Exception as exc:  # a failed operation is counted, not fatal
            out.append({"op": name, "error": f"{type(exc).__name__}: {exc}"})
    return out


def suite_command(out_path: str) -> list[str]:
    """argv of one suite pass, run from the repository root."""
    return [sys.executable, "-m", "fiberres.cli", "suite", "--manifest",
            SUITE_MANIFEST, "--out", out_path]


def child_env() -> dict:
    """Child environment: the source tree on the path, and no
    characteristic override, so the manifests' own ``field.char`` holds.

    fiberres does no floating point, so BLAS is never called; its thread
    pool would only be started, and spin, in every fresh interpreter (once
    per ``suite`` pass), competing with the main thread for the cores."""
    env = dict(os.environ)
    env.pop("FIBERRES_CHAR", None)
    env.update(THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def suite_digest(out_bytes: bytes, exit_code: int) -> str:
    return digest({"out_sha256": hashlib.sha256(out_bytes).hexdigest(),
                   "exit_code": exit_code})
