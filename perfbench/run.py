"""Benchmark of the tsl package: four verified workloads, closed loop, serial.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client runs one operation at a
time: each operation is a fresh worker process (perfbench/worker.py)
that imports tsl from `src/`, builds its inputs from the seed, runs the
workload once and checks the outputs.  A check that fails, or an
operation that raises, is a failed operation.  Workers run with
TSL_THREADS unset, the single-threaded baseline.

--trace 0 measures the end-to-end metrics; each is the median over the
operations of the run.  --trace 1 alternates untraced and traced
operations and ends with one traced operation under TSL_THREADS = nproc;
it reports the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it report quartiles, sample counts
and run metadata.  Traces are written to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("growth", "density", "certify", "repro")
END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# a run never lasts longer than this, whatever --seconds asks for
HARD_LIMIT_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (missing sources, a worker crash)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env(threads: int | None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TSL_THREADS", None)
    if threads is not None:
        env["TSL_THREADS"] = str(threads)
    return env


def metadata(versions: dict[str, str], trace: bool) -> dict[str, object]:
    thread_vars = {
        k: v for k, v in sorted(worker_env(None).items()) if k.startswith(("OMP_", "OPENBLAS_"))
    }
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        **versions,
        "nproc": nproc(),
        # workers run with TSL_THREADS unset, except the threads pass of --trace 1
        "TSL_THREADS": None,
        **({"TSL_THREADS_threads_pass": nproc()} if trace else {}),
        "thread_env": thread_vars,
    }


class Runner:
    """Closed loop of worker operations for one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str) -> None:
        self.workload, self.seed, self.seconds, self.size = workload, seed, seconds, size
        self.start = time.perf_counter()
        self.ops: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def longest(self) -> float:
        return max(op["wall_s"] for op in self.ops)

    def op(self, traced: bool, threads: int | None = None) -> dict:
        cmd = [
            sys.executable, str(WORKER),
            "--workload", self.workload, "--seed", str(self.seed),
            "--size", self.size, "--trace", str(int(traced)),
        ]  # fmt: skip
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=worker_env(threads), capture_output=True, text=True,
                timeout=max(5.0, HARD_LIMIT_S - self.elapsed()),
            )  # fmt: skip
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{self.workload} worker exceeded the time limit") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise HarnessError(f"{self.workload} worker exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(wall_s=time.perf_counter() - t0, traced=traced, threads=threads)
        if result["error"]:
            sys.stderr.write(result["error"])
        self.ops.append(result)
        return result

    def untraced(self) -> None:
        while not self.ops or self.elapsed() + self.longest() <= self.seconds:
            self.op(traced=False)

    def traced(self) -> None:
        # pairs of (untraced, traced), then the threads pass: budget three ops
        while not self.ops or self.elapsed() + 3 * self.longest() <= self.seconds:
            self.op(traced=False)
            self.op(traced=True)
        self.op(traced=True, threads=nproc())


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def bench(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload; print its report lines and return the result object."""
    runner = Runner(workload, seed, seconds, size)
    runner.traced() if trace else runner.untraced()
    ops = runner.ops
    failed_ops = [op for op in ops if op["failed_checks"]]
    completed = [op for op in ops if op["error"] is None]
    untraced = [op for op in completed if not op["traced"]]
    traced_ops = [op["spans"] for op in completed if op["traced"] and op["threads"] is None]
    if not untraced or (trace and not traced_ops):
        raise HarnessError(f"no {workload} operation ran to completion")
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "operations": len(ops),
        "failed_checks": sorted({c for op in failed_ops for c in op["failed_checks"]}),
        "metadata": metadata(completed[0]["versions"], trace),
    }
    if trace:
        threaded = [op["spans"] for op in completed if op["threads"] is not None]
        untraced_run_s = statistics.median(op["run_s"] for op in untraced)
        values = spans.layer_metrics(traced_ops, threaded[0] if threaded else [], untraced_run_s)
        metrics = {k: {"value": values[k], "unit": u} for k, u in spans.PER_LAYER_UNITS.items()}
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"report": report, "operations": traced_ops + threaded}))
        report["trace_file"] = str(path.relative_to(ROOT))
    else:
        stats = {k: _quartiles([op[k] for op in untraced]) for k in END_TO_END_UNITS}
        report["samples"] = {k: [op[k] for op in untraced] for k in END_TO_END_UNITS}
        share = len(failed_ops) / len(ops)
        for key, unit in END_TO_END_UNITS.items():
            stats[key]["unit"] = unit
        stats["failed_share"] = {"median": share, "q1": share, "q3": share, "n": len(ops), "unit": "ratio"}
        report["end_to_end"] = stats
        metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for name, m in (report.get("end_to_end") or metrics).items():
        value = m.get("median", m.get("value"))
        extra = f"  q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}" if "q1" in m else ""
        print(f"# {workload:8s} {name:52s} {value:14.6g} {m['unit']}{extra}")
    print("# report " + json.dumps(report))
    return {"correct": not failed_ops, "attempted": len(ops), "failed": len(failed_ops), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: harness self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tsl" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no tsl sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [bench(name, args.seed, args.seconds, bool(args.trace), args.size) for name in names]
    except HarnessError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
