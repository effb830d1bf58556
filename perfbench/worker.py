"""One benchmark process: build a workload's inputs, then (unless
``--setup-only``) run its passes in a closed loop for ``--seconds``.

Prints one JSON line: the ``time.monotonic()`` reading when the inputs
were ready (the parent subtracts its spawn time to get ``setup_s``), and
for a run the per-pass wall and CPU times, the operation digests and the
process's peak resident memory through the first pass.  With ``--trace 1`` passes alternate
untraced and traced, starting untraced, and the traced passes' spans are
written to ``--spans``.

    python3 perfbench/worker.py --workload resolve --prime 32003 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def closed_loop(ops, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Run passes back to back.  A new pass starts only if the median pass
    so far still fits in the window; there is always at least one pass,
    and with tracing always a complete untraced/traced pair."""
    if trace:
        import tracer as tracing
    passes: list[dict] = []
    dumps: list[dict] = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tr = tracing.Tracer() if traced else contextlib.nullcontext()
        with tr:
            c0, t0 = cpu_seconds(), time.perf_counter()
            results = workloads.run_pass(ops)
            t1, c1 = time.perf_counter(), cpu_seconds()
        if traced:
            dumps.append(tr.dump())
        passes.append({"wall_s": t1 - t0, "cpu_s": c1 - c0, "traced": traced,
                       "ops": results,
                       "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        if trace and len(passes) % 2 == 1:
            continue
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > seconds:
            return passes, dumps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--prime", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0, help="window; 0 runs one pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the traced passes' spans")
    args = ap.parse_args(argv)

    inputs = workloads.build(args.workload, args.prime)
    out: dict = {"ready_monotonic": time.monotonic()}
    if not args.setup_only:
        if args.workload not in workloads.LIBRARY_WORKLOADS:
            ap.error("only the library workloads run in this process")
        ops = workloads.operations(args.workload, inputs)
        passes, dumps = closed_loop(ops, args.seconds, bool(args.trace))
        out["passes"] = passes
        # Through the first pass only: later passes can raise the peak a
        # little, and how many run depends on the machine's speed.
        out["peak_rss_kb"] = passes[0]["max_rss_kb"]
        if dumps:
            import tracer as tracing
            out["layers"] = tracing.mean_metrics(dumps)
            if args.spans:
                tracing.write_spans(args.spans, {"workload": args.workload,
                                                 "prime": args.prime}, dumps)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
