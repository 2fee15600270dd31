"""The four benchmark workloads: seeded inputs, one verified run, output checks.

Each workload is three functions.  `make_inputs(seed, size)` generates
everything tsl receives; it is the set-up, before the first timed call.
`run(inputs, tracer)` makes the calls a user of tsl makes and returns
their outputs.  `check(outputs)` returns the names of the checks that
failed.  `size` is "full" for the benchmark and "tiny" for the
harness's own test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# traced functions are called through their module, where spans.instrument
# replaces them; everything else is imported by name
from tsl import constructor, densities, means, polybank, verify
from tsl.constructor import BlockLedger, ConstructionSpec, Regime, Schedule, quadratic_schedule
from tsl.densities import PrefixSet
from tsl.means import critical_exponent, dyadic_radii
from tsl.polybank import TargetEnumeration, rudin_shapiro
from tsl.repro import REGISTRY
from tsl.series import CoefficientSeries

from spans import CONTROL_SPAN, REPRO_CHECKS, VISIT_GATE

# relative slack for comparisons that hold exactly in real arithmetic
_GUARD = 1e-9

# Gaussian rationals (a, b, c) = (a + b i) / c of modulus one
_UNIMODULAR = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)] + [
    (sa * a, sb * b, c)
    for a, b, c in ((3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13))
    for sa in (1, -1)
    for sb in (1, -1)
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _scaled(rng: np.random.Generator, magnitudes: list[tuple[int, int]]) -> list[int]:
    """A seed-drawn unimodular value times a seed-drawn magnitude num/den."""
    a, b, c = _UNIMODULAR[int(rng.integers(len(_UNIMODULAR)))]
    num, den = magnitudes[int(rng.integers(len(magnitudes)))]
    return [a * num, b * num, c * den]


def _targets(slots: list[tuple[int, list[list[int]]]]) -> TargetEnumeration:
    """Enumeration from (l_k, coefficient triples) slots, through the JSON form."""
    return TargetEnumeration.from_json_obj(
        [
            {"k": k, "degree": len(coeffs) - 1, "l_k": l_k, "coefficients": coeffs}
            for k, (l_k, coeffs) in enumerate(slots, start=1)
        ]
    )


def _nondecreasing(values: list[float]) -> bool:
    return all(b >= a - _GUARD * abs(a) for a, b in zip(values, values[1:]))


def _nonincreasing(values: list[float]) -> bool:
    return all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


# --- growth: dense radial means, FFT circle sampling at p = 1 and p = infinity


@dataclass(frozen=True)
class GrowthInputs:
    spec: ConstructionSpec
    targets: TargetEnumeration


def growth_inputs(seed: int, size: str) -> GrowthInputs:
    """Eight degree-0 targets of modulus one, l_k = 1, so every gate is 4.

    This is `repro.uniform_unit_targets(8)` with seed-drawn phases: the
    blocks, the work and the L^2 means are those of the constant one.
    """
    rng = _rng(seed)
    targets = _targets([(1, [_scaled(rng, [(1, 1)])]) for _ in range(8)])
    degree = 1 << 18 if size == "full" else 1 << 14
    spec = ConstructionSpec(
        alpha=0.0, gamma=0.5, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=degree
    )
    return GrowthInputs(spec, targets)


def growth_run(inputs: GrowthInputs, tracer: Any) -> dict[str, Any]:
    """construct, series JSON round trip, means_table per p, p = 2 slope fit."""
    series, _ = constructor.construct(inputs.spec, inputs.targets)
    with tracer.span("series.json_roundtrip") as span:
        text = json.dumps(series.to_json_obj())
        loaded = CoefficientSeries.from_json_obj(json.loads(text))
        span.attrs["json_bytes"] = len(text)
    radii = dyadic_radii(inputs.spec.max_degree)
    tables = {p: means.means_table(loaded, [p], radii) for p in (2.0, 1.0, math.inf)}
    fit = means.fit_growth_exponent(tables[2.0], 2.0)
    return {
        "slope": fit.slope,
        "expected_slope": critical_exponent(2.0, inputs.spec.gamma),
        "means": {p: [row.value for row in table.rows] for p, table in tables.items()},
        "built": series.coefficients,
        "loaded": loaded.coefficients,
    }


def growth_check(out: dict[str, Any]) -> list[str]:
    m1, m2, m_inf = out["means"][1.0], out["means"][2.0], out["means"][math.inf]
    failed = []
    if not abs(out["slope"] - out["expected_slope"]) <= 0.08:
        failed.append("slope")
    ordered = len(m1) == len(m2) == len(m_inf) > 0 and all(
        a <= b * (1.0 + _GUARD) and b <= c * (1.0 + _GUARD) for a, b, c in zip(m1, m2, m_inf)
    )
    if not ordered:
        failed.append("mean_order")
    if not all(_nondecreasing(m) for m in (m1, m2, m_inf)):
        failed.append("mean_monotone")
    if not np.array_equal(out["built"], out["loaded"]):
        failed.append("json_roundtrip")
    return failed


# --- density: the weighted-density engine alone


@dataclass(frozen=True)
class DensityInputs:
    gammas: tuple[float, ...]
    top: int
    horizons: list[int]
    sets: list[tuple[PrefixSet, list[int], tuple[float, float]]]


_GAMMA_PAIRS = [(0.0, 0.3), (0.3, 0.6), (0.2, 0.9), (0.5, 1.0)]


def _snapped_horizons(members: np.ndarray, n_max: int) -> list[int]:
    """Dyadic horizons 2^10..n_max, each also snapped down to the nearest member."""
    out = set()
    for m in range(10, n_max.bit_length()):
        n = 1 << m
        out.add(n)
        below = members[members <= n]
        if len(below):
            out.add(int(below[-1]))
    return sorted(out)


def density_inputs(seed: int, size: str) -> DensityInputs:
    """Separating-set parameters and seed-drawn prefix sets.

    The sets replay the traffic of `test_sup_density_monotone_in_gamma`:
    sparse Bernoulli sets, single runs and separating sets at 2^20, in
    turn, each with one of four gamma pairs.  The gamma = 0.3 separating
    set needs horizon 2^22 to bring its half-weight ratio under 0.05, so
    the tiny size drops it.
    """
    rng = _rng(seed)
    full = size == "full"
    n_max, trials = (1 << 20, 36) if full else (1 << 14, 6)
    sets = []
    for trial in range(trials):
        kind = trial % 3
        if kind == 0:
            members = np.nonzero(rng.random(n_max) < rng.uniform(0.001, 0.05))[0] + 1
        elif kind == 1:
            lo = int(rng.integers(1, n_max // 2))
            hi = int(rng.integers(lo, min(n_max, lo + n_max // 5)))
            members = np.arange(lo, hi + 1)
        else:
            members = densities.separating_set(float(rng.uniform(0.2, 0.9)), n_max).members
        if len(members):
            pair = _GAMMA_PAIRS[trial % len(_GAMMA_PAIRS)]
            sets.append((PrefixSet(members, n_max), _snapped_horizons(members, n_max), pair))
    top = 1 << 22 if full else 1 << 16
    gammas = (0.3, 0.5, 0.8) if full else (0.5, 0.8)
    return DensityInputs(gammas, top, [1 << m for m in range(10, top.bit_length())], sets)


def density_run(inputs: DensityInputs, tracer: Any) -> dict[str, Any]:
    """Separating sets profiled at gamma and gamma/2; seeded sets at two gammas."""
    separating = []
    for gamma in inputs.gammas:
        ds = densities.separating_set(gamma, inputs.top)
        full = densities.prefix_density_profile(ds, gamma, inputs.horizons)
        half = densities.prefix_density_profile(ds, gamma / 2.0, inputs.horizons)
        separating.append(
            {
                "gamma": gamma,
                "ratio": full[-1][1],
                "log_den": full[-1][3],
                "log_weight_sum": densities.log_weight_sum(inputs.top, gamma),
                "half": [row[1] for row in half],
            }
        )
    sups = []
    for prefix_set, horizons, (g1, g2) in inputs.sets:
        sup1 = max(row[1] for row in densities.prefix_density_profile(prefix_set, g1, horizons))
        sup2 = max(row[1] for row in densities.prefix_density_profile(prefix_set, g2, horizons))
        sups.append((sup1, sup2))
    return {"separating": separating, "sups": sups}


def density_check(out: dict[str, Any]) -> list[str]:
    sep = out["separating"]
    failed = []
    if not all(abs(row["ratio"] - (1.0 - math.exp(-row["gamma"]))) <= 0.05 for row in sep):
        failed.append("separating_ratio")
    if not all(row["half"][-1] <= 0.05 and _nonincreasing(row["half"]) for row in sep):
        failed.append("half_weight")
    if not all(sup1 <= sup2 + 0.02 for sup1, sup2 in out["sups"]):
        failed.append("gamma_monotone")
    if not all(abs(row["log_weight_sum"] - row["log_den"]) <= 1e-12 * abs(row["log_den"]) for row in sep):
        failed.append("log_weight_sum")
    return failed


# --- certify: orbit visits at positive radius, and the planned critical profile


@dataclass(frozen=True)
class CertifyInputs:
    spec: ConstructionSpec
    targets: TargetEnumeration
    critical_spec: ConstructionSpec
    critical_targets: TargetEnumeration
    j_top: int


def certify_inputs(seed: int, size: str) -> CertifyInputs:
    """Four targets with l_k >= 2, so every test circle has positive radius.

    Slots: a constant at l = 2 (gate 13, radius 1/2), a degree-1
    polynomial at l = 2 (gate 14), the zero polynomial, and a constant
    at l = 3 (gate 28, radius 2/3).  The seed draws the coefficients;
    l_k and degrees are fixed, so gates, blocks and visit counts are the
    same for every seed, and every nonzero target keeps |q(0)| >= 1/2,
    which holds each negative control far above its floor 1/(2 l_k).
    """
    rng = _rng(seed)
    halves = [(1, 2), (1, 1)]
    targets = _targets(
        [
            (2, [_scaled(rng, [(1, 2), (1, 1), (3, 2)])]),
            (2, [_scaled(rng, halves), _scaled(rng, halves)]),
            (2, [[0, 0, 1]]),
            (3, [_scaled(rng, [(1, 2), (1, 1), (3, 2), (2, 1)])]),
        ]
    )
    full = size == "full"
    spec = ConstructionSpec(
        alpha=0.0,
        gamma=0.5,
        regime=Regime.RS,
        schedule=Schedule.DYADIC,
        max_degree=1 << 20 if full else 1 << 16,
    )
    critical_spec = ConstructionSpec(
        alpha=critical_exponent(2.0, 0.0),
        gamma=0.0,
        regime=Regime.RS,
        schedule=Schedule.U_SCHEDULE,
        max_degree=1 << 20,
        u=quadratic_schedule,
    )
    return CertifyInputs(spec, targets, critical_spec, polybank.enumerate_targets(16), 1100 if full else 200)


def _control_time(ledger: BlockLedger, k: int) -> int | None:
    """First -1 sign slot of a built block of target k: a time that is no visit."""
    for rec in ledger.for_target(k):
        if rec.built and rec.budget > 1:
            minus = np.nonzero(rudin_shapiro(rec.budget).coefficients == -1)[0]
            if len(minus):
                return rec.lo + rec.gate * int(minus[0])
    return None


def certify_run(inputs: CertifyInputs, tracer: Any) -> dict[str, Any]:
    """check_visit at every visit of every nonzero target, plus one control each."""
    spec, targets = inputs.spec, inputs.targets
    series, ledger = constructor.construct(spec, targets)
    visits = []
    for k in range(1, len(targets) + 1):
        entry = targets.entry(k)
        if not np.any(entry.series.coefficients):
            continue
        report = constructor.visit_set(spec, targets, k, ledger)
        errors = [verify.check_visit(series, spec, targets, k, s) for s in report.visits]
        control = _control_time(ledger, k)
        control_error = None
        if control is not None:
            with tracer.span(CONTROL_SPAN):
                control_error = verify.check_visit(series, spec, targets, k, control)
        visits.append({"k": k, "l": entry.l_bound, "errors": errors, "control_error": control_error})
    critical = inputs.critical_spec
    plan = constructor.plan_blocks(critical, inputs.critical_targets, 34)
    first_on = min(r.n for r in plan.built())
    j_grid = list(range(critical.base_exponent(first_on) + 1, inputs.j_top + 1))
    profile = means.dyadic_mean2_profile(plan, inputs.critical_targets, critical.alpha, j_grid)
    return {"visits": visits, "j": j_grid, "profile": [value for _, value in profile]}


def certify_check(out: dict[str, Any]) -> list[str]:
    visits = [v for v in out["visits"] if v["errors"]]
    failed = []
    if not visits or not all(e <= VISIT_GATE / v["l"] for v in visits for e in v["errors"]):
        failed.append("visit_error")
    if not all(v["control_error"] is not None and v["control_error"] > 1.0 / (2 * v["l"]) for v in visits):
        failed.append("control_error")
    profile = out["profile"]
    if not all(b >= a * (1.0 - 1e-12) for a, b in zip(profile, profile[1:])):
        failed.append("profile_monotone")
    upper = slice(len(profile) // 2, None)
    x = np.log(np.array(out["j"][upper], dtype=np.float64))
    y = np.log(np.array(profile[upper]))
    slope = np.polyfit(x, y, 1)[0]
    if not abs(slope - 0.5) <= 0.25:
        failed.append("profile_slope")
    return failed


# --- repro: every named check at small size, many short calls


@dataclass(frozen=True)
class ReproInputs:
    seed: int
    names: tuple[str, ...]


def repro_inputs(seed: int, size: str) -> ReproInputs:
    """The tiny size keeps the checks that finish in well under a second."""
    if size == "full":
        return ReproInputs(seed, REPRO_CHECKS)
    return ReproInputs(seed, ("rs-bound", "star-bound", "parseval", "lemma-oracles"))


def repro_run(inputs: ReproInputs, tracer: Any) -> dict[str, Any]:
    """`run_named("all", seed)` with its loop unrolled, so each check gets a span."""
    reports = []
    for name in inputs.names:
        with tracer.span(f"repro.{name}"):
            reports.append(REGISTRY[name](inputs.seed))
    return {"names": inputs.names, "reports": reports}


def repro_check(out: dict[str, Any]) -> list[str]:
    names = [r["name"] for r in out["reports"]]
    if names != list(out["names"]) or not all(r["passed"] for r in out["reports"]):
        return ["checks_pass"]
    return []


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, str], Any]
    run: Callable[[Any, Any], dict[str, Any]]
    check: Callable[[dict[str, Any]], list[str]]
    checks: tuple[str, ...]  # every name `check` can return


WORKLOADS = {
    "growth": Workload(
        growth_inputs, growth_run, growth_check,
        ("slope", "mean_order", "mean_monotone", "json_roundtrip"),
    ),
    "density": Workload(
        density_inputs, density_run, density_check,
        ("separating_ratio", "half_weight", "gamma_monotone", "log_weight_sum"),
    ),
    "certify": Workload(
        certify_inputs, certify_run, certify_check,
        ("visit_error", "control_error", "profile_monotone", "profile_slope"),
    ),
    "repro": Workload(repro_inputs, repro_run, repro_check, ("checks_pass",)),
}  # fmt: skip
