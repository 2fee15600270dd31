"""Named end-to-end checks behind the `repro` subcommand and the acceptance suite.

Each check runs one headline claim at its pinned tolerance and returns a
JSON-ready report with a `passed` flag.  The registry names every check,
so `repro --theorem <name>` and the acceptance tests share one code path;
`run_named` runs them and times each one.

The three L^2 growth checks share one route, `_planned_l2_fit`: a block
plan, its L^2 profile along r = 1 - 2**-j and one least-squares line, with
no coefficient array.  The two subcritical ones run on the canonical
targets, each within a band derived from its measured window spread.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Callable

import numpy as np

from tsl.constructor import (
    BlockLedger,
    ConstructionSpec,
    Regime,
    Schedule,
    construct,
    plan_blocks,
    quadratic_schedule,
    visit_set,
)
from tsl.densities import PrefixSet, clear_memo, prefix_density_profile, separating_set
from tsl.errors import DomainError
from tsl.means import (
    _line_fit,
    circle_mean,
    conjugate_exponent,
    critical_exponent,
    dyadic_mean2_profile,
    dyadic_radii,
    fit_growth_exponent,
    means_table,
)
from tsl.polybank import (
    TargetEntry,
    TargetEnumeration,
    enumerate_targets,
    rudin_shapiro,
    vdlp_star,
)
from tsl.series import CoefficientSeries, ShiftParams, apply_shift, apply_shift_power
from tsl.verify import check_visit, run_abel_suite, run_power_sum_suite

DEFAULT_SEED = 20240601


def _constant_entry(c: int) -> TargetEntry:
    """The constant target c with the smallest legal bound, l = 1."""
    return TargetEntry(((c, 0, 1),), 1)


def visit_fixture_targets() -> TargetEnumeration:
    """Zero target first, the constant one in slot two (gate 4), zeros after."""
    return TargetEnumeration(tuple(_constant_entry(c) for c in (0, 1, 0, 0)))


def _report(name: str, passed: bool, **details: Any) -> dict[str, Any]:
    return {"name": name, "passed": bool(passed), **details}


def check_rs_bound(seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """Sampled sup norm of the sign family stays below 5*sqrt(N)."""
    worst = 0.0
    rows = []
    for e in range(2, 15):
        n = 1 << e
        sup = circle_mean(rudin_shapiro(n).coefficients, math.inf, 1.0)
        ratio = sup / (5.0 * math.sqrt(n))
        worst = max(worst, ratio)
        rows.append({"N": n, "sup": sup, "bound": 5.0 * math.sqrt(n)})
    return _report("rs-bound", worst <= 1.0, worst_ratio=worst, rows=rows)


def check_star_bound(seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """Star-family norms stay below 3*N**(1/q) for p in {1, 1.5, 2}."""
    worst = 0.0
    for e in range(2, 13):
        n = 1 << e
        coeffs = vdlp_star(n).coefficients.astype(np.complex128)
        for p in (1.0, 1.5, 2.0):
            q = conjugate_exponent(p)
            bound = 3.0 * n ** (1.0 / q)
            val = circle_mean(coeffs, p, 1.0)
            worst = max(worst, val / bound)
    return _report("star-bound", worst <= 1.0, worst_ratio=worst)


def _iterated_shift(series: CoefficientSeries, n: int, params: ShiftParams) -> np.ndarray:
    """Coefficients of n single steps of `apply_shift`, as one running product.

    Step 1 is `apply_shift` itself.  Every later step multiplies position
    j by the one-step weight w[j] = ((j+2)/(j+1))**alpha, read once from
    `apply_shift` on the all-ones series.  After n steps, position i holds
    a[i+n] times w[i+n-1], w[i+n-2], ..., w[i], applied in that order; so
    taking step 1's positions from n - 1 on and multiplying in place by
    w[t : t + length] for t = n - 2 down to 0 performs the same products
    in the same order as n calls, and keeps their bits.  n past the
    degree leaves the zero constant, as the calls do.
    """
    a = series.coefficients
    if n == 0:
        return a
    if n >= len(a):
        return CoefficientSeries.zero(0).coefficients
    length = len(a) - n
    step = apply_shift(series, params).coefficients[n - 1 :].copy()
    w = apply_shift(CoefficientSeries(np.ones(len(a))), params).coefficients
    for t in range(n - 2, -1, -1):
        step *= w[t : t + length]
    return step


def check_shift_telescoping(seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """Closed-form shift powers match iterated single steps to 1e-12.

    The iterated side is `_iterated_shift`: two `apply_shift` calls per
    (instance, alpha) and a running product, bit for bit the n calls.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    alphas = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    worst = 0.0
    for _ in range(100):
        degree = int(rng.integers(1, 65))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        series = CoefficientSeries(coeffs)
        n = int(rng.integers(0, 33))
        for alpha in alphas:
            params = ShiftParams(alpha)
            closed = apply_shift_power(series, n, params)
            diff = np.abs(closed.coefficients - _iterated_shift(series, n, params))
            rel = diff / np.maximum(np.abs(closed.coefficients), 1e-300)
            worst = max(worst, float(rel.max()))
    return _report("shift-telescoping", worst <= 1e-12, worst_rel=worst)


def check_parseval(seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """Coefficient-side L^2 means (Parseval) agree with sampled ones to 1e-8."""
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    worst = 0.0
    for _ in range(100):
        degree = int(rng.integers(0, 513))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        for row in means_table(CoefficientSeries(coeffs), [2.0], [0.3, 0.9]).rows:
            worst = max(worst, abs(row.value - circle_mean(coeffs, 2.0, row.r)))
    return _report("parseval", worst <= 1e-8, worst_abs=worst)


def check_density_separation(seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """Dyadic-tail sets reach density 1 - e^-gamma and vanish at gamma/2."""
    horizon = 1 << 22
    dyadic_horizons = [1 << m for m in range(14, horizon.bit_length())]  # up to `horizon`
    passed = True
    rows = []
    for gamma in (0.3, 0.5, 0.8):
        ds = separating_set(gamma, horizon)
        ratio = prefix_density_profile(ds, gamma, [horizon])[0][1]
        target = 1.0 - math.exp(-gamma)
        dyadic = [row[1] for row in prefix_density_profile(ds, gamma / 2.0, dyadic_horizons)]
        low = dyadic[-1]
        decreasing = all(b <= a + 1e-12 for a, b in zip(dyadic, dyadic[1:]))
        ok = abs(ratio - target) < 0.05 and low <= 0.05 and decreasing
        passed = passed and ok
        rows.append(
            {"gamma": gamma, "ratio": ratio, "target": target, "half_weight_ratio": low,
             "dyadic_decreasing": decreasing, "ok": ok}
        )
    return _report("density-separation", passed, rows=rows)


def _planned_l2_fit(
    spec: ConstructionSpec, targets: TargetEnumeration, blocks: int, j_top: int,
    axis: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, BlockLedger, list[tuple[int, float]], dict[str, Any]]:
    """Least-squares slope of ln M_2 against axis(j), M_2 at r = 1 - 2**-j, from a block plan.

    Plans blocks 0 .. `blocks`, profiles M_2 for j from one past the first
    built block's base exponent up to `j_top`, and fits the upper half of
    that grid, past the first blocks' turn-on.  Returns the slope, the
    plan, the (j, M_2) profile and the report fields.
    """
    ledger = plan_blocks(spec, targets, blocks)
    built = ledger.built()
    j_grid = list(range(spec.base_exponent(built[0].n) + 1, j_top + 1))
    profile = dyadic_mean2_profile(ledger, targets, spec.alpha, j_grid)
    half = len(j_grid) // 2
    values = np.array([v for _, v in profile[half:]])
    slope, _ = _line_fit(axis(np.array(j_grid[half:])), np.log(values))
    return slope, ledger, profile, {
        "first_active_block": built[0].n, "j_window": [j_grid[half], j_top], "built_blocks": len(built),
    }


# The staircase ratios of the critical plan at its block ends j = 25, 81, ..., 1089
# read 0.99438, 0.9999921, 0.99999997, then within 5e-11 of 1: the worst gap,
# 0.0056 at the first end, rounded up to a multiple of 0.005.
_STAIRCASE_BAND = 0.01


def _staircase(
    ledger: BlockLedger, targets: TargetEnumeration, alpha: float, profile: list[tuple[int, float]]
) -> dict[str, Any]:
    """The lacunary lemma read on a plan: M_2**2 at each block end over the mass the radius sees.

    Block b ends at j_b = u(n_b + 1), the next block number's base
    exponent; its mass S_b is its radius-free M_2**2, the planned mean at
    a j past every flat point.  At each j_b up to the profile's last j,
    the ratio divides M_2**2(j_b) by the sum of S_b over the blocks ending
    at or before j_b; the profile starts at the first built block, as
    `_planned_l2_fit`'s does.  The paper's lemma asks for ratios within
    `_STAIRCASE_BAND` of 1, and gaps |ratio - 1| that close (1e-12 slack).
    """
    m2 = dict(profile)
    ends, ratios, mass = [], [], 0.0
    for rec in ledger.built():
        end = rec.hi.bit_length()  # hi = 2**u(n + 1) - 1
        if end > profile[-1][0]:
            break
        mass += dyadic_mean2_profile(BlockLedger((rec,)), targets, alpha, [1 << 62])[0][1] ** 2
        ends.append(end)
        ratios.append(m2[end] ** 2 / mass)
    gaps = [abs(rho - 1.0) for rho in ratios]
    return {
        "staircase_ends": ends, "staircase_ratios": ratios, "staircase_band": _STAIRCASE_BAND,
        "staircase_in_band": bool(ratios) and max(gaps) <= _STAIRCASE_BAND,
        "staircase_closing": all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])),
    }


def _ln_inverse_gap(j: np.ndarray) -> np.ndarray:
    """ln(1 / (1 - r)) at r = 1 - 2**-j."""
    return j * math.log(2.0)


def _growth_check(name: str, gamma: float, band: float) -> Callable[[int], dict[str, Any]]:
    """A named check that the plan's L^2 growth slope lies within `band` of (1 - gamma)/2.

    alpha = 0, sign family, dyadic schedule, `enumerate_targets(64)`,
    blocks 0 .. 400, j up to 300, slope against ln(1 / (1 - r)).
    """

    def check(seed: int = DEFAULT_SEED) -> dict[str, Any]:
        spec = ConstructionSpec(
            alpha=0.0, gamma=gamma, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=1 << 20
        )
        slope, _, _, fields = _planned_l2_fit(spec, enumerate_targets(64), 400, 300, _ln_inverse_gap)
        expected = critical_exponent(2.0, gamma)  # alpha = 0
        return _report(
            name, abs(slope - expected) <= band,
            slope=slope, expected=expected, band=band, gamma=gamma, **fields,
        )

    check.__doc__ = f"Planned L^2 growth slope at gamma = {gamma}: (1 - gamma)/2 +- {band}."
    return check


# Each band is the worst offset from (1 - gamma)/2 among the slopes of the
# windows j in [20, 60], [60, 150] and [150, 300] of the same profile, rounded
# up to a multiple of 0.0005: gamma = 1/2 reads 0.24994, 0.24961, 0.24986
# (worst 0.00039), gamma = 0 reads 0.49785, 0.49953, 0.49980 (worst 0.00215).
check_growth_gamma05 = _growth_check("growth-gamma05-p2", 0.5, 0.0005)
check_growth_gamma0 = _growth_check("growth-gamma0-p2", 0.0, 0.0025)


def check_critical_growth(seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """At the critical exponent, L^2 growth along 1 - 2**-j is slow and tame.

    The quadratic schedule puts block n at degree 2**(n*n), far beyond
    any dense array, so the means come from the block plan
    (`_planned_l2_fit`, blocks 0 .. 34, j up to 1100).  The check asks
    for monotone means past the first active block, a slope of ln M_2
    against ln j of 0.5 +- 0.25, and the lacunary lemma on the plan's
    own blocks (`_staircase`).
    """
    alpha = critical_exponent(2.0, 0.0)
    spec = ConstructionSpec(
        alpha=alpha, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
        max_degree=1 << 20, u=quadratic_schedule,
    )
    targets = enumerate_targets(16)
    slope, ledger, profile, fields = _planned_l2_fit(spec, targets, 34, 1100, np.log)
    monotone = all(b >= a * (1.0 - 1e-12) for (_, a), (_, b) in zip(profile, profile[1:]))
    stairs = _staircase(ledger, targets, alpha, profile)
    lemma = stairs["staircase_in_band"] and stairs["staircase_closing"]
    passed = monotone and abs(slope - 0.5) <= 0.25 and lemma
    return _report(
        "critical-u2-p2", passed,
        slope=slope, expected=0.5, band=0.25, monotone=monotone, **fields, **stairs,
    )


def check_orbit_visits(seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """Orbit points hit their target on the test circle, and only there.

    Uses the smallest-admissible fixture (constant-one target, gate 4):
    the canonical enumeration's first nonzero target carries gate 28, so
    its stride dilutes the weighted visit density to about 0.014, far
    below any workable threshold, and the zero polynomial ahead of it
    has no built block, hence no visit and no negative control.  Each
    visit error is a sup sampled on 8 * next_pow2(D + 1) points, D the
    effective degree at the test radius (`means.circle_mean`).

    Both readings come from the sorted visit times.  The density is the
    maximum over built blocks of the visit set's weighted prefix ratio
    at the block's last visit, its last +1 slot; whether that reads the
    limsup is still open (ROADMAP item 5).  The control is the first
    slot lo + gate*m of a built block that is no visit: the first -1 slot.
    """
    targets = visit_fixture_targets()
    spec = ConstructionSpec(
        alpha=0.0, gamma=0.5, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=1 << 20
    )
    series, ledger = construct(spec, targets)
    k = 2  # first target with nonzero content
    visits = visit_set(spec, targets, k, ledger).visits
    built = [rec for rec in ledger.for_target(k) if rec.built]
    ends = [visits[i - 1] for i in np.searchsorted(visits, [rec.hi for rec in built], "right").tolist()]
    taken = set(visits)
    slots = (s for rec in built for s in range(rec.lo, rec.lo + rec.gate * rec.budget, rec.gate))
    control = next((s for s in slots if s not in taken), None)
    errors = [check_visit(series, spec, targets, k, s) for s in visits]
    l_bound = targets.entry(k).l_bound
    max_err = max(errors) if errors else math.inf
    errors_ok = bool(errors) and max_err <= 10.0 / l_bound
    control_err = check_visit(series, spec, targets, k, control) if control is not None else 0.0
    control_ok = control is not None and control_err > 1.0 / (2.0 * l_bound)
    density = 0.0
    if visits:
        prefix = PrefixSet(np.array(visits), visits[-1])
        density = max(row[1] for row in prefix_density_profile(prefix, spec.gamma, ends))
    passed = errors_ok and control_ok and density >= 0.05
    return _report(
        "orbit-visits", passed,
        visit_count=len(visits), max_error=max_err, error_bound=10.0 / l_bound,
        control_time=control, control_error=control_err, control_floor=1.0 / (2.0 * l_bound),
        density=density, density_floor=0.05,
    )


def check_lemma_oracles(seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """The randomized power-sum and summation-by-parts suites pass on every instance.

    The lacunary lemma is read on the critical plan itself, by `critical-u2-p2`.
    """
    power_fail = sum(1 for v in run_power_sum_suite(1000, seed + 2) if not v.holds)
    abel_fail = sum(1 for v in run_abel_suite(1000, seed + 3) if not v.holds)
    return _report(
        "lemma-oracles", power_fail == 0 and abel_fail == 0,
        power_sum_failures=power_fail, abel_failures=abel_fail, seed=seed,
    )


def _fast_pipeline_artifacts(seed: int) -> dict[str, Any]:
    """Small deterministic pipeline whose serialized outputs must be stable."""
    targets = enumerate_targets(24)
    spec = ConstructionSpec(
        alpha=0.0, gamma=0.5, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=1 << 14
    )
    series, ledger = construct(spec, targets)
    table = means_table(series, [1.0, 2.0], dyadic_radii(spec.max_degree))
    fit = fit_growth_exponent(table, 2.0)
    ds = separating_set(0.5, 1 << 16)
    rows = prefix_density_profile(ds, 0.5, [1 << m for m in range(10, 17)])
    profile = [(n, ratio) for n, ratio, _, _ in rows]
    power = run_power_sum_suite(50, seed)
    abel = run_abel_suite(50, seed)
    return {
        "targets_json": targets.to_json(),
        "series_json": json.dumps(series.to_json_obj()),
        "ledger_csv": ledger.to_csv(),
        "means_csv": table.to_csv(),
        "fit": [fit.slope, fit.intercept, fit.residual_rms],
        "density_profile": profile,
        "oracle_margins": [v.margin for v in power[:10]] + [v.margin for v in abel[:10]],
    }


def check_determinism(seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """The same seed reproduces byte-identical pipeline outputs."""

    def cold_pass() -> str:
        clear_memo()  # the second pass recomputes every weight sum, not the first pass's
        return json.dumps(_fast_pipeline_artifacts(seed), sort_keys=True)

    first, second = cold_pass(), cold_pass()
    passed = first == second
    return _report("determinism", passed, artifact_bytes=len(first))


REGISTRY: dict[str, Callable[[int], dict[str, Any]]] = {
    "rs-bound": check_rs_bound,
    "star-bound": check_star_bound,
    "shift-telescoping": check_shift_telescoping,
    "parseval": check_parseval,
    "density-separation": check_density_separation,
    "growth-gamma05-p2": check_growth_gamma05,
    "growth-gamma0-p2": check_growth_gamma0,
    "critical-u2-p2": check_critical_growth,
    "orbit-visits": check_orbit_visits,
    "lemma-oracles": check_lemma_oracles,
    "determinism": check_determinism,
}


def run_named(name: str, seed: int = DEFAULT_SEED) -> list[dict[str, Any]]:
    """Run one named check, or all of them; each report gains its wall time, `seconds`.

    The checks seed PCG64 with seed + k, k >= 0, so a negative seed is a DomainError.
    """
    if name != "all" and name not in REGISTRY:
        raise KeyError(name)
    if seed < 0:
        raise DomainError(f"seed must be >= 0 (got {seed})")
    reports = []
    for fn in REGISTRY.values() if name == "all" else [REGISTRY[name]]:
        t0 = time.perf_counter()
        report = fn(seed)
        reports.append({**report, "seconds": round(time.perf_counter() - t0, 3)})
    return reports
