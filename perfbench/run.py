"""fiberres benchmark: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload resolve --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (see README.md for why each exists):

* ``resolve`` -- direct oracle only: ``minimal_resolution`` and
  ``verify_complex`` of the residue field over two fiber products.
* ``lift`` -- chain-map lifting: ``verify_fiber_module_ext_sequence`` on
  rank-2 free modules and ``depth_upper_bound`` of ``R/(x+y)``.
* ``suite`` -- ``fiberres suite`` on the shipped manifest, one fresh
  interpreter per pass.

The seed picks the field prime of ``resolve`` and ``lift``; ``suite`` is
pinned by its manifests.  Every operation's output is compared with the
digests in ``reference.json``; a mismatch, an exception or a non-zero
exit is a failed operation, is not timed, and makes this command exit 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics, from passes
that alternate untraced and traced.  Results, with the environment, go to
``.perfbench/`` in the repository root, spans to a file of their own there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# The numpy this process loads (only to record the environment) runs with
# the children's BLAS settings, so the thread count it reports is theirs.
os.environ.update(workloads.THREAD_ENV)

# Fresh interpreters timed per run, half before the window and half after
# it, so the median spans the run's machine state rather than a two-second
# burst; the median is reported.
SETUP_SAMPLES = 10
RUN_LIMIT_S = 175.0      # every run must end within 180 s
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_JSON = os.path.join(HERE, "reference.json")


class BenchError(Exception):
    pass


# -- child processes --------------------------------------------------------------


def spawn(cmd: list[str], timeout: float, env: dict | None = None) -> dict:
    """Run one child to completion from the repository root; its CPU time
    and peak resident memory come from ``wait4``, so they are its own."""
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        t_spawn = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if wall >= timeout:
            raise BenchError(f"{' '.join(cmd[:4])} ... exceeded {timeout:.0f} s")
        out.seek(0)
        err.seek(0)
        return {"code": proc.returncode, "stdout": out.read().decode(errors="replace"),
                "stderr": err.read().decode(errors="replace"), "wall_s": wall,
                "cpu_s": ru.ru_utime + ru.ru_stime, "max_rss_kb": ru.ru_maxrss,
                "t_spawn": t_spawn}


def worker_cmd(workload: str, prime: int | None, *extra: str) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload]
    if prime is not None:
        cmd += ["--prime", str(prime)]
    return cmd + list(extra)


def last_json(child: dict) -> dict:
    if child["code"] != 0:
        raise BenchError(f"worker exited {child['code']}: {child['stderr'][-2000:]}")
    return json.loads(child["stdout"].strip().splitlines()[-1])


def setup_times(workload: str, prime: int | None, count: int, deadline: float) -> list[float]:
    """Interpreter start to inputs built, in ``count`` fresh processes."""
    out = []
    for _ in range(count):
        child = spawn(worker_cmd(workload, prime, "--setup-only"), deadline - time.monotonic(),
                      env=workloads.child_env())
        out.append(last_json(child)["ready_monotonic"] - child["t_spawn"])
    return out


# -- workloads --------------------------------------------------------------------


def run_library(workload, prime, seconds, trace, spans_path, deadline) -> dict:
    child = spawn(worker_cmd(workload, prime, "--seconds", str(seconds), "--trace", str(trace),
                             "--spans", spans_path),
                  deadline - time.monotonic(), env=workloads.child_env())
    return last_json(child)


def run_suite(seconds, trace, spans_path, deadline) -> dict:
    """Closed loop of suite passes, each a fresh interpreter; with tracing,
    untraced and traced passes alternate, starting untraced."""
    if trace:
        import tracer as tracing
    env = workloads.child_env()
    passes, dumps = [], []
    out_path = os.path.join(WORK, f"suite-out-{os.getpid()}.json")
    part_path = os.path.join(WORK, f"suite-spans-{os.getpid()}.json")
    begin = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        cmd = workloads.suite_command(out_path)
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), part_path] + cmd[3:]
        for stale in (out_path, part_path):
            if os.path.exists(stale):
                os.remove(stale)
        child = spawn(cmd, deadline - time.monotonic(), env=env)
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                op = {"op": "suite", "digest": workloads.suite_digest(fh.read(), child["code"])}
            os.remove(out_path)
        else:
            op = {"op": "suite", "error": f"exit {child['code']}, no report: "
                                          f"{child['stderr'][-500:]}"}
        wall = child["wall_s"]
        if traced and os.path.exists(part_path):
            with open(part_path) as fh:
                dumps.extend(json.load(fh)["passes"])
            os.remove(part_path)
            tail = child["stderr"].strip().splitlines()[-1:]
            if tail and tail[0].startswith(tracing.WRITE_TAG):
                wall -= float(tail[0].split()[1])
        passes.append({"wall_s": wall, "cpu_s": child["cpu_s"], "traced": traced,
                       "ops": [op], "max_rss_kb": child["max_rss_kb"]})
        if trace and len(passes) % 2 == 1:
            continue
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - begin + typical > seconds:
            break
    # The first pass is untraced; one child's peak, as for the library
    # workloads, so the figure does not depend on how many passes fit.
    result = {"passes": passes, "peak_rss_kb": passes[0]["max_rss_kb"]}
    if dumps:
        result["layers"] = tracing.mean_metrics(dumps)
        tracing.write_spans(spans_path, {"workload": "suite"}, dumps)
    return result


# -- correctness ------------------------------------------------------------------


def reference_for(workload: str, prime: int | None) -> dict:
    with open(REFERENCE_JSON) as fh:
        ref = json.load(fh)
    key = "pinned" if prime is None else str(prime)
    try:
        return ref[workload][key]
    except KeyError as exc:
        raise BenchError(f"no reference digests for {workload} at {key}") from exc


def check_passes(passes: list[dict], expected: dict) -> list[str]:
    """Mark each pass ``ok`` when every operation matched its reference;
    return one message per failed operation."""
    failures = []
    for k, p in enumerate(passes):
        p["ok"] = True
        seen = set()
        for op in p["ops"]:
            seen.add(op["op"])
            if "error" in op:
                failures.append(f"pass {k} {op['op']}: {op['error']}")
            elif op["digest"] != expected.get(op["op"]):
                failures.append(f"pass {k} {op['op']}: output differs from the reference")
            else:
                continue
            p["ok"] = False
        for name in sorted(set(expected) - seen):
            failures.append(f"pass {k} {name}: not run")
            p["ok"] = False
    return failures


# -- environment ------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(workload: str, seed: int, prime: int | None, seconds: float) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # never a repository above the checkout
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    child = workloads.child_env()
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "fiberres")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit, "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "thread_env": {k: child[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS") if k in child},
        "workload": workload, "window": workloads.WINDOWS[workload], "seed": seed,
        "prime": prime, "seconds": seconds, "clients": 1, "loop": "closed",
    }


# -- one workload -----------------------------------------------------------------


def load_spec() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = load_spec()
    prime = workloads.prime_for_seed(seed) if workload in workloads.LIBRARY_WORKLOADS else None
    expected = reference_for(workload, prime)
    tag = f"{workload}-seed{seed}-trace{trace}"
    spans_path = os.path.join(WORK, f"spans-{tag}.json")

    setups = setup_times(workload, prime, SETUP_SAMPLES // 2, deadline)
    if workload == "suite":
        result = run_suite(seconds, trace, spans_path, deadline)
    else:
        result = run_library(workload, prime, seconds, trace, spans_path, deadline)
    setups += setup_times(workload, prime, SETUP_SAMPLES - SETUP_SAMPLES // 2, deadline)
    passes = result["passes"]
    failures = check_passes(passes, expected)
    attempted = sum(len(p["ops"]) for p in passes)
    good = [p for p in passes if p["ok"]]
    untraced = [p for p in good if not p["traced"]]

    metrics: dict = {}
    if not failures:
        if trace:
            layers = result.get("layers", {})
            traced_wall = statistics.median(p["wall_s"] for p in good if p["traced"])
            plain_wall = statistics.median(p["wall_s"] for p in untraced)
            layers["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
            chosen = spec["per_layer"]
            values = {m["name"]: layers.get(m["name"], 0.0) for m in chosen}
        else:
            chosen = spec["end_to_end"]
            values = {
                "wall_s": statistics.median(p["wall_s"] for p in untraced),
                "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    record = {
        "environment": environment(workload, seed, prime, seconds),
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "ops_failed_frac": len(failures) / attempted if attempted else 1.0,
        "failures": failures, "setup_s_samples": setups,
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "traced", "ok")} for p in passes],
        "metrics": metrics,
    }
    if trace:
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(WORK, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(workload: str, rec: dict) -> None:
    env = rec["environment"]
    print(f"# {workload}: seed {env['seed']}, prime {env['prime']}, "
          f"{len(rec['passes'])} passes, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']} x{env['blas_threads']} threads")
    for name, m in rec["metrics"].items():
        print(f"{workload:8s} {name:42s} {m['value']:14.6f} {m['unit']}")
    print(f"{workload:8s} {'ops_failed_frac':42s} {rec['ops_failed_frac']:14.6f} frac"
          f"  ({rec['failed']}/{rec['attempted']})")
    for line in rec["failures"][:20]:
        print(f"FAILED {workload}: {line}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measuring window (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds must be positive")

    needed = [os.path.join(ROOT, "src", "fiberres", "__init__.py"),
              os.path.join(ROOT, workloads.SUITE_MANIFEST), BENCHMARK_JSON, REFERENCE_JSON]
    missing = [os.path.relpath(p, ROOT) for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not a fiberres checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    seconds = args.seconds or load_spec()["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args.seed, seconds, args.trace)
            print_record(name, records[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    recs = records.values()
    summary = {"correct": all(r["correct"] for r in recs),
               "attempted": sum(r["attempted"] for r in recs),
               "failed": sum(r["failed"] for r in recs),
               "metrics": records[names[0]]["metrics"] if len(records) == 1 else
               {f"{w}.{k}": v for w, r in records.items() for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
