"""Record the reference digests every benchmark run is checked against.

Runs each library workload once per prime of ``workloads.PRIMES`` and the
suite once, and writes ``reference.json``.  Only run this on a commit
whose outputs are known to be right; the digests then pin them.
``run.py`` compares every operation of every pass with them.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

REFERENCE_JSON = os.path.join(HERE, "reference.json")


def library_digests(workload: str, prime: int) -> dict:
    ops = workloads.operations(workload, workloads.build(workload, prime))
    out = {}
    for res in workloads.run_pass(ops):
        if "error" in res:
            raise SystemExit(f"{workload} at p={prime}: {res['op']} failed: {res['error']}")
        out[res["op"]] = res["digest"]
    return out


def suite_digests() -> dict:
    out_path = os.path.join(workloads.ROOT, ".perfbench", "reference-suite-out.json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    proc = subprocess.run(workloads.suite_command(out_path), cwd=workloads.ROOT,
                          env=workloads.child_env(), capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"suite exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    with open(out_path, "rb") as fh:
        data = fh.read()
    os.remove(out_path)
    return {"suite": workloads.suite_digest(data, proc.returncode)}


def main() -> int:
    ref: dict = {w: {} for w in workloads.WORKLOADS}
    ref["suite"]["pinned"] = suite_digests()
    for workload in workloads.LIBRARY_WORKLOADS:
        for prime in workloads.PRIMES:
            ref[workload][str(prime)] = library_digests(workload, prime)
            print(f"{workload} p={prime}: {len(ref[workload][str(prime)])} operations",
                  flush=True)
    with open(REFERENCE_JSON, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
