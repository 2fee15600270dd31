"""Fast test of the benchmark harness itself, at tiny input sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test run.  It checks
that every metric BENCHMARK.json names is printed with its unit for every
workload, that each output check can fail, and that a failed check or a
raising call counts as a failed operation.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from tsl.repro import REGISTRY  # noqa: E402

SEED = 3
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_harness_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.PER_LAYER_UNITS
    assert spans.REPRO_CHECKS == tuple(REGISTRY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--size", "tiny", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    printed = {tuple(line.split()[2:5:2]) for line in lines if line.startswith(f"# {workload} ")}
    names = [m["name"] for m in expected] + ([] if trace else ["failed_share"])
    for name in names:
        unit = "ratio" if name == "failed_share" else result["metrics"][name]["unit"]
        assert (name, unit) in printed
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        layers = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS if layer != "harness")
        assert 0.0 < layers <= values["trace.run_s"]


@pytest.fixture(scope="module")
def outputs():
    cache = {}

    def get(workload):
        if workload not in cache:
            wl = WORKLOADS[workload]
            cache[workload] = wl.run(wl.make_inputs(SEED, "tiny"), spans.NullTracer())
        return copy.deepcopy(cache[workload])

    return get


def _replace(path, value):
    def corrupt(out):
        *keys, last = path
        node = out
        for key in keys:
            node = node[key]
        node[last] = value(node[last]) if callable(value) else value

    return corrupt


def _growth_monotone(out):
    m2 = out["means"][2.0]
    m2[0], m2[1] = m2[1], m2[0]


def _growth_roundtrip(out):
    out["loaded"] = out["loaded"].copy()
    out["loaded"][-1] += 1e-12


def _density_half_rises(out):
    half = out["separating"][0]["half"]
    half[-1] = half[-2] * (1.0 + 1e-6)


def _certify_slope(out):
    out["profile"] = [v * j for v, j in zip(out["profile"], out["j"])]


def _repro_missing(out):
    out["reports"] = out["reports"][1:]


CORRUPTIONS = [
    ("growth", "slope", _replace(["slope"], lambda s: s + 0.1)),
    ("growth", "mean_order", _replace(["means", 1.0, -1], lambda v: 2.0 * v)),
    ("growth", "mean_monotone", _growth_monotone),
    ("growth", "json_roundtrip", _growth_roundtrip),
    ("density", "separating_ratio", _replace(["separating", 0, "ratio"], lambda r: r + 0.06)),
    ("density", "half_weight", _replace(["separating", 0, "half", -1], 0.051)),
    ("density", "half_weight", _density_half_rises),
    ("density", "gamma_monotone", _replace(["sups", 0], (0.5, 0.47))),
    ("density", "log_weight_sum", _replace(["separating", 0, "log_weight_sum"], lambda v: v * (1 + 1e-9))),
    ("certify", "visit_error", _replace(["visits", 0, "errors", 0], lambda e: 10.0)),
    ("certify", "visit_error", _replace(["visits"], [])),
    ("certify", "control_error", _replace(["visits", 0, "control_error"], lambda e: 0.2)),
    ("certify", "control_error", _replace(["visits", 0, "control_error"], None)),
    ("certify", "profile_monotone", _replace(["profile", 5], lambda v: 0.5 * v)),
    ("certify", "profile_slope", _certify_slope),
    ("repro", "checks_pass", _replace(["reports", 0, "passed"], False)),
    ("repro", "checks_pass", _repro_missing),
]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_outputs_pass_their_checks(outputs, workload):
    assert WORKLOADS[workload].check(outputs(workload)) == []


@pytest.mark.parametrize("workload,check,corrupt", CORRUPTIONS)
def test_each_check_can_fail(outputs, workload, check, corrupt):
    out = outputs(workload)
    corrupt(out)
    assert check in WORKLOADS[workload].check(out)


def test_every_check_has_a_corruption():
    for workload, wl in WORKLOADS.items():
        assert {c for w, c, _ in CORRUPTIONS if w == workload} == set(wl.checks)


def test_corrupted_output_fails_the_operation(monkeypatch):
    from tsl import means

    bad_fit = means.GrowthFit(slope=0.9, intercept=0.0, residual_rms=0.0, r_window=(0.5, 0.9))
    monkeypatch.setattr(means, "fit_growth_exponent", lambda table, p: bad_fit)
    op = worker.run_operation("growth", SEED, "tiny", traced=False)
    assert op["failed_checks"] == ["slope"] and op["error"] is None


def test_raising_call_fails_the_operation(monkeypatch):
    from tsl import densities

    def boom(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(densities, "log_weight_sum", boom)
    op = worker.run_operation("density", SEED, "tiny", traced=True)
    assert op["failed_checks"] == ["raised"] and "injected" in op["error"]


def test_failed_operation_is_counted(monkeypatch):
    def fake_op(self, traced, threads=None):
        result = {"failed_checks": ["slope"], "error": None, "wall_s": 0.1, "traced": traced,
                  "threads": threads, "setup_s": 0.2, "run_s": 0.1, "cpu_s": 0.1,
                  "peak_rss_mb": 50.0, "versions": {}, "spans": None}  # fmt: skip
        self.ops.append(result)
        return result

    monkeypatch.setattr(run.Runner, "op", fake_op)
    result = run.bench("growth", SEED, 0.0, trace=False, size="tiny")
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert math.isfinite(result["metrics"]["run_s"]["value"])
