"""One fresh benchmark process: set up a workload, run its item list once,
and print one JSON line of measurements.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE OUT_DIR

MODE is ``setup`` (stop once the inputs exist), ``run`` (untraced pass) or
``trace`` (pass with every layer wrapped). ``setup_done`` is a
``time.monotonic()`` reading, a clock shared by all processes on Linux, so
the parent can time set-up from the moment it spawned this process.
"""

import time

_t0 = time.perf_counter()
import fairnoise.cli  # noqa: E402,F401  (cold import is part of set-up)

CLI_IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    workload, seed, mode, out = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    tracer = spans.Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    items = workloads.WORKLOADS[workload](seed)
    result = {"setup_done": time.monotonic()}
    if mode != "setup":
        start = time.perf_counter()
        try:
            attempted, failed = workloads.run_items(items, out, tracer)
            wall_s = time.perf_counter() - start
        finally:
            shutil.rmtree(out, ignore_errors=True)
        result.update(
            attempted=attempted,
            failed=failed,
            wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.summarize(tracer.spans)
        result["layers"]["cli.import_s"] = CLI_IMPORT_S
    print(json.dumps(result))


if __name__ == "__main__":
    main()
