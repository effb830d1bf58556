"""Span tracing of calls into the ``fiberres`` modules, from outside them.

``Tracer.install`` wraps every public module-level function and every
public method of a public class in the layer modules, and rebinds each
module namespace (the package ``__init__`` included) that imported a
wrapped function by name.  ``Tracer.uninstall`` restores every patched
attribute.  Spans stay in memory as ``(parent, function, t0_ns, t1_ns,
done_ns, outermost, extra)`` records and are written out by ``dump``
after the timed work.  ``done_ns`` is when the wrapper finished computing
the span's counters; the parent's self time leaves out all of
``[t0_ns, done_ns]``, so the counters' cost is charged to no function.
Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

LAYERS = ("linalg", "algebra", "gmodule", "resolve", "wordres", "extalg",
          "cohomology", "series", "jsonio", "cli")

# Accessors that only look something up but run 10^4 to 10^6 times in one
# pass; wrapping them would distort the run and bloat the span file.  Their
# time stays in the caller's self time.
HOT = frozenset({
    "algebra.GradedAlgebra.dim",
    "gmodule.GradedModule.dim",
    "gmodule.FreeModule.dim",
    "gmodule.FreeModule.gen_index",
    "gmodule.FreeModule.pair_index",
    "linalg.inv_mod",
    "resolve.FreeResolution.eval_diff",
    "resolve.FreeResolution.gen_degrees",
    "resolve.FreeResolution.rank",
})

MARK = "_perfbench_wrapped"
WRITE_TAG = "perfbench-spans-write-s"


def _rref_extra(args, kwargs, result):
    mat = args[0] if args else kwargs["mat"]
    rows, cols = result[0].shape
    import numpy as np
    return (rows * cols, int(np.count_nonzero(np.asarray(mat))))


def _evaluate_extra(args, kwargs, result):
    return (int(result.size),)


def _span_add_extra(args, kwargs, result):
    return (int(result is not None),)


# Counters recorded on a span, computed after its end time is taken and
# left out of the parent's self time.
EXTRAS = {
    "linalg.rref": _rref_extra,
    "gmodule.AlgMatrix.evaluate": _evaluate_extra,
    "linalg.Span.add": _span_add_extra,
}


class Tracer:
    """One traced pass: install, run, uninstall, then ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_solves: set[bytes] = set()

    # -- wrapping ---------------------------------------------------------

    def _solve_extra(self, args, kwargs, result):
        mat = args[0] if args else kwargs["mat"]
        rhs = args[1] if len(args) > 1 else kwargs["rhs"]
        import numpy as np
        a = np.ascontiguousarray(mat)
        h = hashlib.blake2b(repr((a.shape, a.dtype.str)).encode(), digest_size=16)
        h.update(a)
        key = h.digest()
        repeat = key in self._seen_solves
        self._seen_solves.add(key)
        b = np.asarray(rhs)
        return (1 if b.ndim == 1 else int(b.shape[1]), int(repeat))

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        self._active.append(0)
        extra = self._solve_extra if name == "linalg.solve" else EXTRAS.get(name)
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = active[idx] == 0
            active[idx] += 1
            stack.append(sid)
            result = None
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                active[idx] -= 1
                if extra and ok:
                    ext = extra(args, kwargs, result)
                    done = clock()
                else:
                    ext, done = None, t1
                spans[sid] = (parent, idx, t0, t1, done, outermost, ext)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import fiberres
        modules = [importlib.import_module(f"fiberres.{m}") for m in LAYERS]
        wrapped: dict[int, tuple[object, object]] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{short}.{name}"
                    if qual not in HOT:
                        wrapped[id(obj)] = (obj, self._wrap(obj, qual))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, val in list(vars(obj).items()):
                        qual = f"{short}.{name}.{attr}"
                        if attr.startswith("_") or not inspect.isfunction(val) or qual in HOT:
                            continue
                        self._patch(obj, attr, val, self._wrap(val, qual))
        # Modules import functions by name (``from .resolve import
        # minimal_resolution``), so every namespace holding one is patched.
        for ns in (fiberres, *modules):
            for name, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, name, obj, hit[1])

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> dict:
        return {"functions": list(self.names), "spans": list(self.spans)}


def installed_wrappers() -> list[str]:
    """Names of ``fiberres`` attributes that are still tracer wrappers."""
    out = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "fiberres" or modname.startswith("fiberres.")):
            continue
        for name, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                out.append(f"{modname}.{name}")
            if inspect.isclass(obj) and obj.__module__ == modname:
                out.extend(f"{modname}.{name}.{a}" for a, v in vars(obj).items()
                           if getattr(v, MARK, False))
    return out


# -- aggregation ----------------------------------------------------------------


def span_stats(dump: dict) -> dict:
    """Per-function calls, inclusive time (outermost calls only, so
    recursion is not counted twice), self time (duration minus the time
    spent in direct child spans, their counters included) and summed
    counters; plus self time per module."""
    names, spans = dump["functions"], dump["spans"]
    child = [0] * len(spans)
    for parent, _fn, t0, _t1, done, _outer, _ext in spans:
        if parent >= 0:
            child[parent] += done - t0
    per_fn: dict[str, dict] = {}
    per_module: dict[str, float] = {}
    for sid, (_parent, fn, t0, t1, _done, outermost, ext) in enumerate(spans):
        name = names[fn]
        st = per_fn.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": None})
        dur = (t1 - t0) / 1e9
        self_s = dur - child[sid] / 1e9
        st["calls"] += 1
        st["self_s"] += self_s
        if outermost:
            st["total_s"] += dur
        if ext is not None:
            st["extra"] = list(ext) if st["extra"] is None else [a + b for a, b in zip(st["extra"], ext)]
        module = name.split(".", 1)[0]
        per_module[module] = per_module.get(module, 0.0) + self_s
    return {"functions": per_fn, "modules": per_module}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def flat_metrics(stats: dict) -> dict[str, float]:
    """Every metric one pass's span statistics give, by name."""
    out: dict[str, float] = {}
    for name, st in stats["functions"].items():
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.total_s"] = st["total_s"]
        out[f"{name}.self_s"] = st["self_s"]
        ext = st["extra"] or []
        if name == "linalg.rref" and ext:
            out["linalg.rref.cells"] = ext[0]
            out["linalg.rref.nnz_frac"] = _ratio(ext[1], ext[0])
        elif name == "linalg.solve" and ext:
            out["linalg.solve.rhs_cols"] = _ratio(ext[0], st["calls"])
            out["linalg.solve.repeat_frac"] = _ratio(ext[1], st["calls"])
        elif name == "linalg.Span.add" and ext:
            out["linalg.Span.add.useful_frac"] = _ratio(ext[0], st["calls"])
        elif name == "gmodule.AlgMatrix.evaluate" and ext:
            out["gmodule.AlgMatrix.evaluate.cells"] = ext[0]
    for module, self_s in stats["modules"].items():
        out[f"{module}.self_s"] = self_s
    return out


def mean_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-pass mean of ``flat_metrics`` over several traced passes; a
    metric missing from a pass counts as zero there."""
    flats = [flat_metrics(span_stats(d)) for d in dumps]
    keys = sorted(set().union(*flats)) if flats else []
    return {k: sum(f.get(k, 0.0) for f in flats) / len(flats) for k in keys}


def write_spans(path: str, meta: dict, dumps: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({**meta, "passes": dumps}, fh, separators=(",", ":"))
