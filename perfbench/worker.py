"""One benchmark operation in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload growth --seed 1 --size full --trace 0

An operation imports tsl from the checkout's `src/`, generates the
workload's inputs from the seed (set-up), then runs and checks the
workload once.  A fresh process per operation keeps one operation's
peak resident memory out of the next one's, and makes set-up include
the import a user of tsl pays.  With --trace 1 the operation records
spans and prints them with its timings.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_tsl() -> None:
    """Import tsl from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tsl

    if Path(tsl.__file__).resolve().parent != src / "tsl":
        raise ImportError(f"tsl was imported from {tsl.__file__}, not from {src}")


def run_operation(workload: str, seed: int, size: str, traced: bool) -> dict:
    """Set up and run one operation; the result holds timings, failures and spans."""
    _import_tsl()
    import mpmath
    import numpy

    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    tracer = spans.Tracer() if traced else spans.NullTracer()
    with spans.instrument(tracer) if traced else contextlib.nullcontext():
        with tracer.span("harness.setup"):
            inputs = wl.make_inputs(seed, size)
        setup_s = time.perf_counter() - T0
        error = None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.span(spans.ROOT_SPAN):
            try:
                failed = wl.check(wl.run(inputs, tracer))
            except Exception:  # a raising operation is a failed operation
                error = traceback.format_exc()
                failed = ["raised"]
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_checks": failed,
        "error": error,
        "versions": {"numpy": numpy.__version__, "mpmath": mpmath.__version__},
        "spans": tracer.dump() if traced else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run_operation(args.workload, args.seed, args.size, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
