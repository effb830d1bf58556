"""Run the ``fiberres`` command with the tracer installed and write the
spans to a file; the exit code is the command's, and the last stderr line
gives the seconds spent writing the spans.

    python3 perfbench/traced_cli.py SPANS_FILE suite --manifest manifests/suite.json --out OUT
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    import tracer as tracing
    from fiberres import cli

    spans_path, argv = sys.argv[1], sys.argv[2:]
    with tracing.Tracer() as tr:
        # ``cli.main`` is looked up after install, so the command itself is a span
        code = cli.main(argv)
    t0 = time.perf_counter()
    tracing.write_spans(spans_path, {"argv": argv}, [tr.dump()])
    # the parent leaves the writing out of the pass's wall time
    print(f"{tracing.WRITE_TAG} {time.perf_counter() - t0:.9f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
