import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from tsl.constructor import BlockLedger, ConstructionSpec, Regime, Schedule, plan_blocks, quadratic_schedule
from tsl.means import dyadic_mean2_profile
from tsl.polybank import enumerate_targets, index_weighted
from tsl.series import CoefficientSeries, ShiftParams, apply_shift, apply_shift_power
from tsl import densities, repro
from tsl.repro import (
    DEFAULT_SEED,
    REGISTRY,
    _iterated_shift,
    _ln_inverse_gap,
    _planned_l2_fit,
    _staircase,
    run_named,
)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_named_check_passes(name):
    report = REGISTRY[name](DEFAULT_SEED)
    assert report["name"] == name
    assert report["passed"], report


ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)  # the ones `shift-telescoping` runs


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("degree", [1, 2, 17, 64])
def test_iterated_shift_equals_the_single_steps(alpha, degree):
    rng = np.random.Generator(np.random.PCG64(degree))
    series = CoefficientSeries(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    params = ShiftParams(alpha)
    for n in sorted({0, 1, degree, degree + 1, 32}):
        step = series
        for _ in range(n):
            step = apply_shift(step, params)
        assert np.array_equal(_iterated_shift(series, n, params), step.coefficients), n


def test_shift_telescoping_makes_two_single_steps_per_instance(monkeypatch):
    calls = []

    def spy(series, params):
        calls.append(params.alpha)
        return apply_shift(series, params)

    monkeypatch.setattr(repro, "apply_shift", spy)
    assert REGISTRY["shift-telescoping"](DEFAULT_SEED)["passed"]
    assert len(calls) <= 2 * 100 * len(ALPHAS)


def test_shift_telescoping_fails_on_a_wrong_closed_form(monkeypatch):
    # negative control: the closed form takes the weight of n - 1 steps, ((j+n)/(j+1))**alpha
    def short_by_one(series, n, params, length=None):
        a = series.coefficients
        if n == 0 or n >= len(a):
            return apply_shift_power(series, n, params, length)
        j = np.arange(len(a) - n, dtype=np.float64)
        return CoefficientSeries(a[n:] * ((j + n) / (j + 1.0)) ** params.alpha)

    monkeypatch.setattr(repro, "apply_shift_power", short_by_one)
    assert not REGISTRY["shift-telescoping"](DEFAULT_SEED)["passed"]


def test_shift_telescoping_fails_on_a_wrong_single_step(monkeypatch):
    # negative control: a one-step weight 1e-9 off in relative terms
    def off_weight(series, params):
        a = series.coefficients
        if len(a) == 1:
            return CoefficientSeries.zero(0)
        j = np.arange(len(a) - 1, dtype=np.float64)
        return CoefficientSeries(a[1:] * ((j + 2.0) / (j + 1.0)) ** params.alpha * (1.0 + 1e-9))

    monkeypatch.setattr(repro, "apply_shift", off_weight)
    report = REGISTRY["shift-telescoping"](DEFAULT_SEED)
    assert not report["passed"] and report["worst_rel"] > 1e-12


def test_determinism_fails_when_a_weight_sum_drifts_between_calls(monkeypatch):
    # negative control: every engine call after the first is one ulp high.  A second
    # pass that read the first pass's denominators from the memo would not see it
    engine = densities._log_weight_sums
    calls = itertools.count()

    def drifting(gamma, horizons):
        out = engine(gamma, horizons)
        return out if next(calls) == 0 else np.nextafter(out, np.inf)

    monkeypatch.setattr(densities, "_weight_sums", {})  # the drifted values stay out of later tests
    monkeypatch.setattr(densities, "_log_weight_sums", drifting)
    assert not REGISTRY["determinism"](DEFAULT_SEED)["passed"]
    assert next(calls) >= 2


def test_unknown_name():
    with pytest.raises(KeyError):
        run_named("no-such-check")


@pytest.mark.parametrize("name, gamma", [("growth-gamma0-p2", 0.0), ("growth-gamma05-p2", 0.5)])
def test_growth_fit_falls_with_alpha_out_of_the_band(name, gamma):
    # the weight exponent alpha = 1/8 lowers the slope to (1 - gamma)/2 - 1/8,
    # which the alpha = 0 check's band must reject
    report = REGISTRY[name](DEFAULT_SEED)
    spec = ConstructionSpec(
        alpha=0.125, gamma=gamma, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=1 << 20
    )
    slope, *_ = _planned_l2_fit(spec, enumerate_targets(64), 200, 180, _ln_inverse_gap)
    assert abs(slope - (report["expected"] - 0.125)) <= report["band"]
    assert abs(slope - report["expected"]) > report["band"]


def test_staircase_reads_the_critical_block_ends():
    report = REGISTRY["critical-u2-p2"](DEFAULT_SEED)
    assert report["staircase_ends"] == [(4 * i + 1) ** 2 for i in range(1, 9)]  # u(n + 1), n = 4, 8, .. 32
    assert report["staircase_in_band"] and report["staircase_closing"]


def test_staircase_rejects_the_dyadic_plan():
    # the critical check's alpha, gamma and targets on the dyadic schedule: a block fills
    # its one doubling [2**n, 2**(n+1)), so at its own end j = n + 1 its terms are damped
    # by e**-1 to e**-2; the newest block is never fully seen, and the ratios rise toward
    # 1 only as its share of the mass falls, not monotonically
    spec = ConstructionSpec(
        alpha=0.5, gamma=0.0, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=1 << 20
    )
    targets = enumerate_targets(16)
    _, ledger, profile, _ = _planned_l2_fit(spec, targets, 200, 200, np.log)
    stairs = _staircase(ledger, targets, 0.5, profile)
    assert stairs["staircase_ends"][0] == 9 and stairs["staircase_ends"][-1] == 197
    assert not stairs["staircase_in_band"]
    assert not stairs["staircase_closing"]


def critical_spec(alpha):
    return ConstructionSpec(
        alpha=alpha, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
        max_degree=1 << 20, u=quadratic_schedule,
    )


def block_mass_reference(rec, targets, alpha):
    """S_b = sum over j0, m of |w_j0|**2 (v0 + gate*m)**(-2 alpha), v0 = lo + j0 + 1, in closed form.

    The inner sum is (digamma(a + N) - digamma(a)) / gate at alpha = 1/2 and
    gate**(-2 alpha) (zeta(2 alpha, a) - zeta(2 alpha, a + N)) otherwise, a = v0 / gate.
    """
    weighted = index_weighted(targets.entry(rec.k).series, alpha).coefficients
    total = mp.mpf(0)
    with mp.workprec(256):
        for j0 in np.flatnonzero(weighted):
            a = mp.mpf(rec.lo + int(j0) + 1) / rec.gate
            if alpha == 0.5:
                inner = (mp.digamma(a + rec.budget) - mp.digamma(a)) / rec.gate
            else:
                s = 2 * mp.mpf(alpha)
                inner = (mp.zeta(s, a) - mp.zeta(s, a + rec.budget)) * mp.mpf(rec.gate) ** -s
            total += abs(complex(weighted[j0])) ** 2 * inner
        return float(total)


@pytest.mark.parametrize("alpha", [0.5, 0.45, 0.55])
def test_block_masses_match_closed_form(alpha):
    targets = enumerate_targets(16)
    ledger = plan_blocks(critical_spec(alpha), targets, 34)
    assert len(ledger.built()) == 8
    for rec in ledger.built():
        # S_b as `_staircase` reads it: the planned mean past every flat point
        got = dyadic_mean2_profile(BlockLedger((rec,)), targets, alpha, [1 << 62])[0][1] ** 2
        want = block_mass_reference(rec, targets, alpha)
        assert abs(got - want) <= 1e-13 * want, (rec.n, got, want)


def test_profile_lies_in_the_block_mass_sandwich():
    # each block's terms carry r**(2i), lo <= i <= hi, so the block adds between
    # S_b r**(2 hi) and S_b r**(2 (lo - 1)) to M_2**2; S_b from the closed form
    targets = enumerate_targets(16)
    _, ledger, profile, _ = _planned_l2_fit(critical_spec(0.5), targets, 34, 1100, np.log)
    built = ledger.built()
    masses = [block_mass_reference(rec, targets, 0.5) for rec in built]

    def damp(j, index):
        """r**(2 index) at r = 1 - 2**-j, from ln(2 eps index), eps = -ln r."""
        ln_eps = math.log(-math.log1p(-(2.0**-j))) if j <= 60 else -j * math.log(2.0)
        return math.exp(-math.exp(min(math.log(index) + math.log(2.0) + ln_eps, 10.0)))

    for j, m2 in profile:
        below = sum(s * damp(j, rec.hi) for s, rec in zip(masses, built))
        above = sum(s * damp(j, rec.lo - 1) for s, rec in zip(masses, built))
        assert below * (1.0 - 1e-12) <= m2**2 <= above * (1.0 + 1e-12), j
