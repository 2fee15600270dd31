import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsl
from tsl import repro
from tsl import series as series_module
from tsl.constructor import (
    BlockLedger,
    BlockRecord,
    ConstructionSpec,
    Regime,
    Schedule,
    _budget,
    _write_block,
    construct,
    iter_plan,
    plan_blocks,
    quadratic_schedule,
    target_gate,
    visit_set,
)
from tsl.densities import PrefixSet, prefix_density_profile
from tsl.errors import ConstructionError, DomainError
from tsl.means import means_table
from tsl.polybank import (
    TargetEntry,
    TargetEnumeration,
    enumerate_targets,
    index_weighted,
    rudin_shapiro,
    vdlp_star,
)
from tsl.repro import check_orbit_visits, visit_fixture_targets
from tsl.series import MAX_SERIES_DEGREE, CoefficientSeries
from unit_targets import uniform_unit_targets


def dyadic_spec(alpha=0.0, gamma=0.5, regime=Regime.RS, max_degree=1 << 20, q=math.inf):
    return ConstructionSpec(
        alpha=alpha, gamma=gamma, regime=regime, schedule=Schedule.DYADIC,
        max_degree=max_degree, q=q,
    )


def assert_sealed_finite(series):
    """A series that is finite and read-only, and that the validating public constructor accepts."""
    a = series.coefficients
    assert np.isfinite(a.view(np.float64)).all() and not a.flags.writeable
    assert np.array_equal(CoefficientSeries(a).coefficients, a)


def planned_block(n, spec, targets):
    """Block n's plan record and, when built, its content over [lo, lo + span] from `construct`."""
    rec = plan_blocks(spec, targets, n).records[n]
    if not rec.built:
        return rec, None
    series, ledger = construct(replace(spec, max_degree=rec.hi), targets)
    assert ledger.records[n] == rec
    span = rec.gate * (rec.budget - 1) + targets.entry(rec.k).degree
    return rec, series.coefficients[rec.lo : rec.lo + span + 1]


def root32_schedule(n: int) -> int:
    """Slow test schedule floor(n**1.5); keeps block intervals materializable."""
    return int(n**1.5)


class TestTargetGate:
    def test_rs_examples(self):
        assert target_gate(2, 1, 0.0, Regime.RS) == 14
        assert target_gate(1, 0, 0.0, Regime.RS) == 4

    def test_star_example(self):
        assert target_gate(2, 1, 0.0, Regime.STAR, 3.0) == 14

    def test_star_infinite_q_falls_back_to_square(self):
        assert target_gate(3, 0, 0.0, Regime.STAR, math.inf) == target_gate(3, 0, 0.0, Regime.RS)

    def test_positive_alpha_grows_gate(self):
        assert target_gate(2, 3, 1.0, Regime.RS) > target_gate(2, 3, 0.0, Regime.RS)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            target_gate(0, 0, 0.0, Regime.RS)
        with pytest.raises(DomainError):
            target_gate(1, -1, 0.0, Regime.RS)

    @pytest.mark.parametrize("l", [10**154, 10**200, 10**400])
    @pytest.mark.parametrize("regime,q", [(Regime.RS, math.inf), (Regime.STAR, 3.0)])
    def test_gate_past_the_float_range_names_l(self, l, regime, q):
        # l**2 = 1e308 still fits, but 3 l**2 does not
        with pytest.raises(DomainError, match=f"l = {l} "):
            target_gate(l, 0, 0.0, regime, q)

    def test_gate_below_the_float_limit(self):
        assert target_gate(10**150, 0, 0.0, Regime.RS) == 1 + math.floor(3.0 * 10**150 * 10**150)

    @pytest.mark.parametrize("q", [0.5, math.nan, -math.inf])
    def test_rejects_conjugate_exponent_below_one(self, q):
        with pytest.raises(DomainError):
            target_gate(1, 0, 0.0, Regime.STAR, q)
        with pytest.raises(DomainError):
            dyadic_spec(regime=Regime.STAR, q=q)


class TestBlockIndices:
    """Interval and target of a block, read off its plan record."""

    def test_odd_block(self):
        rec = next(iter_plan(dyadic_spec(), visit_fixture_targets(), 3))
        assert (rec.lo, rec.hi, rec.k) == (8, 15, None)

    def test_valuation_assignment(self):
        # 12 = 2**2 * 3 belongs to target 2
        assert plan_blocks(dyadic_spec(), visit_fixture_targets(), 12).records[12].k == 2

    def test_explicit_schedule(self):
        spec = ConstructionSpec(
            alpha=0.0, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
            max_degree=1 << 20, u=quadratic_schedule,
        )
        rec = plan_blocks(spec, visit_fixture_targets(), 2).records[2]
        assert (rec.lo, rec.hi, rec.k) == (1 << 4, (1 << 9) - 1, 1)

    def test_zero_block_unassigned(self):
        assert next(iter_plan(dyadic_spec(), visit_fixture_targets())).k is None


class TestBuildBlock:
    def test_odd_is_zero(self):
        rec, content = planned_block(5, dyadic_spec(), visit_fixture_targets())
        assert rec.skip_reason == "odd" and content is None

    def test_gate_skip(self):
        # k=1 at n=2: threshold 4 exceeds 2**(n-1) = 2
        rec, content = planned_block(2, dyadic_spec(), visit_fixture_targets())
        assert rec.skip_reason == "gate" and content is None

    def test_smallest_admissible_block(self):
        rec, content = planned_block(4, dyadic_spec(), visit_fixture_targets())
        assert rec.built and rec.gate == 4 and rec.budget == 1
        np.testing.assert_allclose(content, [1.0 + 0j])
        assert rec.lo == 16
        series, _ = construct(dyadic_spec(max_degree=rec.hi), visit_fixture_targets())
        np.testing.assert_array_equal(series.coefficients[rec.lo :], [1.0] + [0.0] * 15)

    def test_budget_zero_skip(self):
        # real enumeration: n=8 = 2^3 belongs to k=3, gate 49; the gate is
        # open (2^7 = 128 >= 49) but floor(2^(8*(1-0.5))/49) = floor(16/49) = 0
        rec, content = planned_block(8, dyadic_spec(), enumerate_targets(8))
        assert rec.k == 3 and rec.gate == 49
        assert rec.skip_reason == "budget" and rec.budget == 0 and content is None

    def test_zero_target_skip(self):
        # the canonical enumeration puts the zero polynomial first: block 6
        # passes its gate (4) and budget (16) but has nothing to build
        rec, content = planned_block(6, dyadic_spec(gamma=0.0), enumerate_targets(8))
        assert rec.k == 1 and rec.gate == 4 and rec.budget == 16
        assert rec.skip_reason == "zero" and content is None

    def test_envelope_applied(self):
        spec = dyadic_spec(alpha=1.0)
        rec, content = planned_block(6, spec, uniform_unit_targets(4))
        idx = rec.lo + np.arange(len(content))
        np.testing.assert_allclose(np.abs(content), 1.0 / (idx + 1.0), rtol=1e-12)

    def test_star_regime_content(self):
        spec = dyadic_spec(regime=Regime.STAR, q=3.0, gamma=0.0)
        rec, content = planned_block(6, spec, uniform_unit_targets(4))
        assert rec.built
        assert float(np.abs(content).max()) <= 1.0


class TestConstruct:
    def test_no_room_gives_zero_series(self):
        spec = dyadic_spec(max_degree=8)
        series, ledger = construct(spec, visit_fixture_targets())
        assert not ledger.built()
        assert np.all(series.coefficients == 0)
        reasons = {r.skip_reason for r in ledger.records}
        assert "max-degree" in reasons

    def test_coefficient_bound(self):
        spec = dyadic_spec(alpha=0.5, gamma=0.5)
        targets = uniform_unit_targets(8)
        series, ledger = construct(spec, targets)
        for rec in ledger.built():
            block = series.coefficients[rec.lo : rec.hi + 1]
            idx = rec.lo + np.arange(len(block))
            bound = (idx + 1.0) ** -0.5 * 1.0  # l1 norm of the unit target
            assert np.all(np.abs(block) <= bound + 1e-12)

    def test_disjoint_supports(self):
        _, ledger = construct(dyadic_spec(), enumerate_targets(8))
        ledger.assert_disjoint_supports()

    def test_gate_monotone_along_target(self):
        _, ledger = construct(dyadic_spec(), enumerate_targets(8))
        for k in (1, 2, 3):
            gate_open = False
            for rec in ledger.for_target(k):
                if rec.skip_reason in (None, "budget", "max-degree"):
                    gate_open = True
                elif rec.skip_reason == "gate":
                    assert not gate_open, "gate reclosed after opening"

    def test_deterministic(self):
        s1, l1 = construct(dyadic_spec(), enumerate_targets(8))
        s2, l2 = construct(dyadic_spec(), enumerate_targets(8))
        np.testing.assert_array_equal(s1.coefficients, s2.coefficients)
        assert l1.to_csv() == l2.to_csv()

    def test_requires_enough_targets(self):
        with pytest.raises(DomainError):
            construct(dyadic_spec(max_degree=1 << 20), enumerate_targets(2))

    def test_rejects_degree_above_series_limit(self, monkeypatch):
        with pytest.raises(DomainError, match="series limit"):
            construct(dyadic_spec(max_degree=MAX_SERIES_DEGREE + 1), enumerate_targets(8))
        monkeypatch.setattr(series_module, "MAX_SERIES_DEGREE", 64)
        series, _ = construct(dyadic_spec(max_degree=64), enumerate_targets(8))
        assert series.max_degree == 64
        with pytest.raises(DomainError, match="series limit"):
            construct(dyadic_spec(max_degree=65), enumerate_targets(8))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_block_weights_are_a_domain_error(self):
        spec = dyadic_spec(alpha=-120.0, gamma=0.0, max_degree=1 << 12)
        with pytest.raises(DomainError, match=r"block n=8 \(target 3\) overflows"):
            construct(spec, enumerate_targets(8))

    def test_block_just_inside_the_float_range_is_sealed_finite(self):
        # at alpha = -116.1 block n=8 overflows, as at alpha = -120 above
        spec = dyadic_spec(alpha=-116.0, gamma=0.0, max_degree=1 << 10)
        series, ledger = construct(spec, enumerate_targets(8))
        assert [rec.n for rec in ledger.built()] == [8]
        assert np.abs(series.coefficients).max() > 2.0**1023
        assert_sealed_finite(series)

    def test_block_overrunning_its_interval_is_a_construction_error(self):
        # no plan reaches this guard (the module docstring's span argument); a crafted record does
        targets = visit_fixture_targets()
        rec = BlockRecord(n=4, k=2, gate=4, budget=5, lo=16, hi=31, skip_reason=None)
        arr = np.zeros(32, dtype=np.complex128)
        with pytest.raises(ConstructionError, match="spans 17 coefficients but its interval holds 16"):
            _write_block(arr, rec, dyadic_spec(), targets)
        assert not arr.any()
        _write_block(arr, replace(rec, budget=4), dyadic_spec(), targets)  # span 13 fits
        assert np.flatnonzero(arr).tolist() == [16, 20, 24, 28]

    def test_overlapping_built_blocks_are_a_construction_error(self):
        first = BlockRecord(n=2, k=1, gate=4, budget=1, lo=4, hi=7, skip_reason=None)
        second = BlockRecord(n=4, k=2, gate=4, budget=1, lo=7, hi=15, skip_reason=None)
        with pytest.raises(ConstructionError, match="block n=4 overlaps"):
            BlockLedger((first, second)).assert_disjoint_supports()
        BlockLedger((first, replace(second, lo=8))).assert_disjoint_supports()

    def test_coefficients_are_read_only(self):
        series, _ = construct(dyadic_spec(max_degree=1 << 12), enumerate_targets(8))
        assert not series.coefficients.flags.writeable
        with pytest.raises(ValueError):
            series.coefficients[0] = 1.0

    @pytest.mark.parametrize("schedule", ["dyadic", "u2", "root32"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -1.0])
    @pytest.mark.parametrize("regime", [Regime.RS, Regime.STAR])
    def test_equals_blocks_built_through_public_constructor(self, regime, alpha, schedule):
        """Bit for bit: each built block from the formula, loop over family terms, copied in."""
        u = {"dyadic": None, "u2": quadratic_schedule, "root32": root32_schedule}[schedule]
        spec = ConstructionSpec(
            alpha=alpha, gamma=0.0, regime=regime, q=3.0, max_degree=1 << 16,
            schedule=Schedule.DYADIC if u is None else Schedule.U_SCHEDULE, u=u,
        )
        targets = enumerate_targets(8)
        series, ledger = construct(spec, targets)
        ref = CoefficientSeries.zero(spec.max_degree)
        for rec in ledger.built():
            weighted = index_weighted(targets.entry(rec.k).series, alpha).coefficients
            fam = (rudin_shapiro if regime is Regime.RS else vdlp_star)(rec.budget).coefficients
            block = np.zeros(rec.gate * (rec.budget - 1) + len(weighted), dtype=np.complex128)
            for m, f in enumerate(fam.astype(np.float64)):
                block[rec.gate * m : rec.gate * m + len(weighted)] = f * weighted
            block *= (rec.lo + np.arange(len(block), dtype=np.float64) + 1.0) ** -alpha
            head, tail = ref.coefficients[: rec.lo], ref.coefficients[rec.lo + len(block) :]
            ref = CoefficientSeries(np.concatenate([head, block, tail]))
        if schedule != "u2":  # on u2 block 2 is gated and block 4 ends at 2**25 - 1
            assert ledger.built()
        assert series.coefficients.view(np.uint64).tolist() == ref.coefficients.view(np.uint64).tolist()

    @pytest.mark.parametrize("schedule", ["dyadic", "u2", "root32"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -1.0, 1.5])
    @pytest.mark.parametrize("regime", [Regime.RS, Regime.STAR])
    def test_equals_dense_block_reference(self, regime, alpha, gamma, schedule):
        """Blocks written row by row in place equal each block materialized densely and copied in."""
        u = {"dyadic": None, "u2": quadratic_schedule, "root32": root32_schedule}[schedule]
        spec = ConstructionSpec(
            alpha=alpha, gamma=gamma, regime=regime, q=3.0, max_degree=1 << 16,
            schedule=Schedule.DYADIC if u is None else Schedule.U_SCHEDULE, u=u,
        )
        # a degree-2 target with a zero middle coefficient, a constant, a
        # degree-1 target and the zero polynomial, all at l = 1
        targets = TargetEnumeration(
            tuple(
                TargetEntry(exact, 1)
                for exact in (
                    ((1, 0, 2), (0, 0, 1), (0, 1, 2)),
                    ((1, 0, 1),),
                    ((1, 0, 2), (0, -1, 2)),
                    ((0, 0, 1),),
                )
            )
        )
        series, ledger = construct(spec, targets)
        dense = np.zeros(spec.max_degree + 1, dtype=np.complex128)
        for rec in ledger.built():
            entry = targets.entry(rec.k)
            weighted = index_weighted(entry.series, alpha).coefficients
            fam = (rudin_shapiro if regime is Regime.RS else vdlp_star)(rec.budget).coefficients
            fam = fam.astype(np.float64)
            span = rec.gate * (rec.budget - 1) + entry.degree
            content = np.zeros(span + 1, dtype=np.complex128)
            for j in range(entry.degree + 1):
                if weighted[j] != 0:
                    content[j : j + rec.gate * rec.budget : rec.gate] = fam * weighted[j]
            content *= (rec.lo + np.arange(span + 1, dtype=np.float64) + 1.0) ** -alpha
            dense[rec.lo : rec.lo + span + 1] = content
        if schedule != "u2":  # on u2 block 2 is gated and block 4 ends at 2**25 - 1
            assert ledger.built()
        assert np.array_equal(series.coefficients, dense)
        assert_sealed_finite(series)

    def test_ledger_csv_header(self):
        _, ledger = construct(dyadic_spec(max_degree=1 << 8), enumerate_targets(4))
        lines = ledger.to_csv().splitlines()
        assert lines[0] == "n,k,gate,budget,lo,hi,skip_reason"
        assert len(lines) == len(ledger.records) + 1


class TestSchedules:
    def test_u_schedule_materialized(self):
        spec = ConstructionSpec(
            alpha=0.0, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
            max_degree=1 << 18, u=root32_schedule,
        )
        series, ledger = construct(spec, enumerate_targets(8))
        built = {r.n: r for r in ledger.built()}
        assert 4 in built  # gate 28 < 2**u(3) = 32
        rec = built[4]
        assert rec.lo == 1 << 8 and rec.budget == (1 << 8) // 28

    def test_quadratic_default(self):
        spec = ConstructionSpec(
            alpha=0.5, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
            max_degree=1 << 20,
        )
        assert spec.base_exponent(5) == 25

    def test_dyadic_schedule_rejects_u(self):
        with pytest.raises(DomainError, match="u belongs to the explicit schedule"):
            ConstructionSpec(
                alpha=0.0, gamma=0.0, regime=Regime.RS, schedule=Schedule.DYADIC,
                max_degree=1 << 10, u=lambda n: n**3,
            )

    def test_rejects_nonincreasing(self):
        with pytest.raises(DomainError):
            ConstructionSpec(
                alpha=0.0, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
                max_degree=1 << 10, u=lambda n: 5,
            )

    def test_rejects_shrinking_gaps(self):
        gaps_shrink = [0, 10, 18, 24, 28, 30, 31, 32, 33, 34] + list(range(35, 80))
        with pytest.raises(DomainError, match="degree ratio below 4 at index 5"):
            ConstructionSpec(
                alpha=0.0, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
                max_degree=1 << 10, u=lambda n: gaps_shrink[n],
            )

    @pytest.mark.parametrize(
        "u, accepted",
        [
            (root32_schedule, True),
            (quadratic_schedule, True),
            (lambda n: 10 * n if n < 5 else 40 + n, False),  # gap-1 tail
            (lambda n: 5, False),  # constant
        ],
        ids=["n^1.5", "n^2", "gap-1-tail", "constant"],
    )
    def test_construction_applies_schedule_rule(self, u, accepted):
        try:
            ConstructionSpec(
                alpha=0.0, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
                max_degree=1 << 10, u=u,
            )
        except DomainError:
            assert not accepted
        else:
            assert accepted

    @pytest.mark.parametrize(
        "u, match",
        [
            (lambda n: 2 * n - 10, r"u\(0\) >= 0"),  # gaps of 2 pass; negative shift counts did not
            (lambda n: 2.5 * n * n, "integers"),  # was built on floor(2.5 n**2)
            (lambda n: n * n + (0.5 if n == 40 else 0), "integers"),
            (lambda n: math.nan if n == 3 else n * n, "integers"),
        ],
        ids=["negative-start", "non-integer", "non-integer-at-40", "nan"],
    )
    def test_rejects_negative_or_non_integer_values(self, u, match):
        with pytest.raises(DomainError, match=match):
            ConstructionSpec(
                alpha=0.0, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
                max_degree=1 << 10, u=u,
            )

    @pytest.mark.parametrize("as_float", [float, np.float64])
    def test_integral_float_values_give_the_same_ledger(self, as_float):
        ledgers = [
            construct(
                ConstructionSpec(
                    alpha=0.0, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
                    max_degree=1 << 18, u=u,
                ),
                enumerate_targets(8),
            )[1]
            for u in (root32_schedule, lambda n: as_float(root32_schedule(n)))
        ]
        assert ledgers[0].built() and ledgers[0].to_csv() == ledgers[1].to_csv()

    @pytest.mark.parametrize(
        "max_degree", [2.0**12, np.float64(4096), "4096", None], ids=["float", "numpy-float", "text", "none"]
    )
    def test_rejects_non_integer_max_degree(self, max_degree):
        with pytest.raises(DomainError, match="max_degree must be an integer"):
            dyadic_spec(max_degree=max_degree)

    def test_numpy_integer_max_degree(self):
        ledgers = [
            construct(dyadic_spec(gamma=0.0, max_degree=m), enumerate_targets(8))[1]
            for m in (1 << 16, np.int64(1 << 16))
        ]
        assert ledgers[0].built() and ledgers[0].to_csv() == ledgers[1].to_csv()

    def test_plan_budgets_exact_beyond_floats(self):
        spec = ConstructionSpec(
            alpha=0.5, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
            max_degree=1 << 20, u=quadratic_schedule,
        )
        ledger = plan_blocks(spec, enumerate_targets(16), 34)
        rec = {r.n: r for r in ledger.built()}[12]
        assert rec.budget == (1 << 144) // rec.gate  # exact integer division

    def test_star_sup_gate_raised_on_schedule(self):
        spec = ConstructionSpec(
            alpha=0.0, gamma=0.0, regime=Regime.STAR, schedule=Schedule.U_SCHEDULE,
            max_degree=1 << 20, u=quadratic_schedule, q=math.inf,
        )
        ledger = plan_blocks(spec, enumerate_targets(8), 8)
        rec = {r.n: r for r in ledger.records if r.k == 2}[4]
        # base gate for l=3 is 28; the schedule floor 2**u(3) + 2 = 514 dominates
        assert rec.gate == (1 << 9) + 2


def budget_reference(e, gamma, gate):
    """floor(2**x / gate) for the float64 x = e * (1 - gamma), 128 bits past the integer part."""
    x = e * (1.0 - gamma)
    with mp.workprec(int(x) + 128):
        return int(mp.floor(mp.mpf(2) ** mp.mpf(x) / gate))


class TestBudgetExact:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        e=st.integers(0, 1200),
        gamma=st.floats(0.0, 1.0, exclude_max=True),
        gate=st.integers(4, 10**6),
    )
    @example(e=61, gamma=0.1, gate=4)  # a 52-bit fixed-point 2**frac gave 8404014066019082
    @example(e=223, gamma=0.1, gate=49)  # a budget of about 2**194
    @example(e=801, gamma=0.75, gate=1000)
    @example(e=10, gamma=0.1, gate=4)  # x rounds to 9.0: 2**9 / 4 is an integer
    @example(e=1200, gamma=0.0, gate=3 << 40)
    def test_matches_high_precision_reference(self, e, gamma, gate):
        assert _budget(dyadic_spec(gamma=gamma), e, gate) == budget_reference(e, gamma, gate)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        budget=st.integers(1, 1 << 40),
        gate=st.integers(4, 1 << 12),
        extra=st.integers(0, 40),
        ulps=st.integers(-3, 3),
    )
    def test_near_integer_boundaries(self, budget, gate, extra, ulps):
        # gamma puts 2**(e * (1 - gamma)) within a few ulps of budget * gate
        e = (budget * gate).bit_length() + extra
        with mp.workprec(200):
            gamma = float(1 - mp.log(budget * gate, 2) / e)
        for _ in range(abs(ulps)):
            gamma = math.nextafter(gamma, math.copysign(math.inf, ulps))
        gamma = min(max(gamma, 0.0), math.nextafter(1.0, 0.0))
        assert _budget(dyadic_spec(gamma=gamma), e, gate) == budget_reference(e, gamma, gate)


class TestBlockNormBounds:
    @staticmethod
    def _log_block_mean(series, rec, p, r):
        content = CoefficientSeries(series.coefficients[rec.lo : rec.hi + 1])
        (row,) = means_table(content, [p], [r]).rows
        val = row.value
        if val == 0.0:
            return -math.inf
        return math.log(val) + rec.lo * math.log(r)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_rs_block_bound_p2(self, gamma):
        # each block's L^2 mean obeys C * 2^(n((1-gamma)/2 - alpha)) r^(2^n)
        # with one global constant across blocks and radii
        alpha = 0.0
        spec = dyadic_spec(alpha=alpha, gamma=gamma, max_degree=1 << 16)
        series, ledger = construct(spec, uniform_unit_targets(8))
        worst = 0.0
        for rec in ledger.built():
            for r in (0.5, 0.9, 0.99):
                got = self._log_block_mean(series, rec, 2.0, r)
                if got == -math.inf:
                    continue
                envelope = rec.n * ((1 - gamma) / 2 - alpha) * math.log(2.0) + rec.lo * math.log(r)
                worst = max(worst, math.exp(got - envelope))
        assert 0 < worst <= 50.0

    def test_star_block_bound_p15(self):
        alpha, gamma, p = 0.0, 0.5, 1.5
        q = p / (p - 1)
        spec = dyadic_spec(alpha=alpha, gamma=gamma, regime=Regime.STAR, q=q, max_degree=1 << 16)
        series, ledger = construct(spec, uniform_unit_targets(8))
        worst = 0.0
        for rec in ledger.built():
            for r in (0.5, 0.9, 0.99):
                got = self._log_block_mean(series, rec, p, r)
                if got == -math.inf:
                    continue
                envelope = rec.n * ((1 - gamma) / q - alpha) * math.log(2.0) + rec.lo * math.log(r)
                worst = max(worst, math.exp(got - envelope))
        assert 0 < worst <= 50.0

    def test_schedule_block_bound_constant(self):
        # on an explicit schedule at the critical exponent the block means
        # are bounded by C * r^(2^u(n)) outright
        alpha = 0.5
        spec = ConstructionSpec(
            alpha=alpha, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
            max_degree=1 << 18, u=root32_schedule,
        )
        series, ledger = construct(spec, enumerate_targets(8))
        assert ledger.built()
        worst = 0.0
        for rec in ledger.built():
            for r in (0.9, 0.99):
                got = self._log_block_mean(series, rec, 2.0, r)
                if got == -math.inf:
                    continue
                worst = max(worst, math.exp(got - rec.lo * math.log(r)))
        assert 0 < worst <= 50.0


def sign_walk_readings(ledger, k):
    """Density horizons and control of target k from a walk over each built block's signs.

    A horizon is a block's last +1 slot, the control the first -1 slot found:
    the reference for `check_orbit_visits`, which reads both from the visit times.
    """
    ends, control = [], None
    for rec in ledger.for_target(k):
        if rec.built:
            signs = rudin_shapiro(rec.budget).coefficients
            ends.append(rec.lo + rec.gate * int(np.flatnonzero(signs == 1)[-1]))
            minus = np.flatnonzero(signs == -1)
            if control is None and len(minus):
                control = rec.lo + rec.gate * int(minus[0])
    return ends, control


def visit_density(spec, targets, k, ledger):
    """`check_orbit_visits`' density reading, on a sign-family ledger."""
    visits = visit_set(spec, targets, k, ledger).visits
    ends, _ = sign_walk_readings(ledger, k)
    rows = prefix_density_profile(PrefixSet(np.array(visits), visits[-1]), spec.gamma, ends)
    return max(row[1] for row in rows)


class TestVisitSet:
    def test_no_admissible_block_empty(self):
        # target 2's first admissible block is 4 = [16, 31]; at max_degree
        # 2^4 it sticks out of the array, so nothing is built for target 2
        spec = dyadic_spec(max_degree=1 << 4)
        _, ledger = construct(spec, visit_fixture_targets())
        block4 = {r.n: r for r in ledger.for_target(2)}[4]
        assert block4.skip_reason == "max-degree"
        assert visit_set(spec, visit_fixture_targets(), 2, ledger).visits == ()

    def test_zero_target_has_no_visits(self):
        spec = dyadic_spec(gamma=0.0, max_degree=1 << 14)
        targets = enumerate_targets(8)
        _, ledger = construct(spec, targets)
        reasons = [r.skip_reason for r in ledger.for_target(1)]
        assert reasons == ["gate", "zero", "zero", "max-degree"]
        assert visit_set(spec, targets, 1, ledger).visits == ()

    def test_fixture_first_visit(self):
        spec = dyadic_spec(max_degree=1 << 5)
        targets = visit_fixture_targets()
        _, ledger = construct(spec, targets)
        report = visit_set(spec, targets, 2, ledger)
        assert report.visits == (16,)

    def test_visits_inside_their_blocks(self):
        spec = dyadic_spec()
        targets = visit_fixture_targets()
        _, ledger = construct(spec, targets)
        report = visit_set(spec, targets, 2, ledger)
        intervals = [(r.lo, r.hi) for r in ledger.for_target(2) if r.built]
        for s in report.visits:
            assert any(lo <= s <= hi for lo, hi in intervals)

    def test_visit_density_natural_surrogate(self):
        # explicit schedule, natural weights: the per-block prefix ratio
        # reaches about half of budget/(2 * max-visit); the gate dilutes
        # the paper-level constant by its stride, so 1/(8*gate) is the
        # honest floor
        spec = ConstructionSpec(
            alpha=0.5, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
            max_degree=1 << 18, u=root32_schedule,
        )
        targets = enumerate_targets(8)
        _, ledger = construct(spec, targets)
        gate = next(r.gate for r in ledger.for_target(2) if r.built)
        assert visit_set(spec, targets, 2, ledger).visits
        assert visit_density(spec, targets, 2, ledger) >= 1.0 / (8.0 * gate)

    def test_beta_density_surrogate(self):
        spec = dyadic_spec(alpha=0.0, gamma=0.5)
        targets = visit_fixture_targets()
        _, ledger = construct(spec, targets)
        assert visit_density(spec, targets, 2, ledger) >= 0.05

    @pytest.mark.parametrize("max_degree", [1 << 16, 1 << 20])
    def test_orbit_visit_readings_equal_the_sign_walk(self, monkeypatch, max_degree):
        # the check runs its fixture at 2**20; its spec is resized and its density horizons caught
        specs, horizons = [], []

        def spec_at(**kwargs):
            specs.append(ConstructionSpec(**{**kwargs, "max_degree": max_degree}))
            return specs[-1]

        def profile(prefix_set, gamma, ends):
            horizons.append(ends)
            return prefix_density_profile(prefix_set, gamma, ends)

        monkeypatch.setattr(repro, "ConstructionSpec", spec_at)
        monkeypatch.setattr(repro, "prefix_density_profile", profile)
        report = check_orbit_visits()
        _, ledger = construct(specs[0], visit_fixture_targets())
        readings = (horizons[0], report["control_time"])
        assert len(readings[0]) >= 2 and readings[1] is not None
        assert readings == sign_walk_readings(ledger, 2)

    def test_orbit_visits_density_keeps_its_bits(self):
        # the reading the visit lister gave before the orbit-visits check took it over
        assert check_orbit_visits()["density"] == 0.15306336544242255

    def test_constructor_does_not_import_densities(self):
        # the density reading lives with its one reader, the orbit-visits check
        code = "import sys, tsl.constructor; assert 'tsl.densities' not in sys.modules"
        src = str(Path(tsl.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.parametrize("k", [0, 5])
    def test_target_outside_enumeration(self, k):
        spec = dyadic_spec(max_degree=1 << 5)
        _, ledger = construct(spec, visit_fixture_targets())
        with pytest.raises(DomainError, match="outside enumeration"):
            visit_set(spec, visit_fixture_targets(), k, ledger)

    def test_visits_past_int64_are_not_wrapped(self):
        # a built block at 2**63 has visits no int64 holds: they raise, never wrap
        spec = dyadic_spec(max_degree=1 << 5)
        targets = visit_fixture_targets()
        _, ledger = construct(spec, targets)
        far = BlockRecord(n=63, k=2, gate=4, budget=3, lo=1 << 63, hi=(1 << 64) - 1,
                          skip_reason=None)
        with pytest.raises(OverflowError):
            visit_set(spec, targets, 2, BlockLedger(ledger.records + (far,)))

    def test_visits_are_sorted_python_ints(self):
        spec = dyadic_spec()
        targets = visit_fixture_targets()
        _, ledger = construct(spec, targets)
        report = visit_set(spec, targets, 2, ledger)
        assert len(report.visits) > 1 and all(type(v) is int for v in report.visits)
        assert list(report.visits) == sorted(set(report.visits))


class TestPlanIteration:
    def test_iter_plan_survives_short_targets(self):
        spec = dyadic_spec()
        gen = iter_plan(spec, enumerate_targets(2))
        records = [next(gen) for _ in range(40)]
        missing = [r for r in records if r.skip_reason == "no-target"]
        assert missing and all(r.k is not None and r.k > 2 for r in missing)

    def test_iter_plan_rejects_a_negative_start(self):
        with pytest.raises(DomainError):
            iter_plan(dyadic_spec(), enumerate_targets(2), -1)

    def test_plan_blocks_requires_enough_targets(self):
        # block 8 = 2**3 belongs to target 3
        assert len(plan_blocks(dyadic_spec(), enumerate_targets(2), 7).records) == 8
        with pytest.raises(DomainError):
            plan_blocks(dyadic_spec(), enumerate_targets(2), 8)

    def test_construct_needs_targets_of_blocks_starting_below_max_degree(self):
        # block 8 covers [256, 511]: at 300 it is dropped, yet its target is needed
        with pytest.raises(DomainError):
            construct(dyadic_spec(max_degree=300), enumerate_targets(2))
        _, ledger = construct(dyadic_spec(max_degree=255), enumerate_targets(2))
        assert ledger.records[-1].n == 7

    def test_plan_matches_construct_classification(self):
        spec = dyadic_spec(max_degree=1 << 14)
        targets = enumerate_targets(8)
        _, ledger = construct(spec, targets)
        plan = plan_blocks(spec, targets, ledger.records[-1].n)
        by_n = {r.n: r for r in plan.records}
        for rec in ledger.records:
            if rec.skip_reason == "max-degree":
                continue
            assert by_n[rec.n].skip_reason == rec.skip_reason
            assert by_n[rec.n].budget == rec.budget


class TestGoldenOutputs:
    """sha256 of the enumeration order and of one block layout.

    At alpha = 0 every coefficient is a target coefficient (a + b*i)/c
    times a sign, with no envelope rounding, so the hashes pin the layout
    itself and do not depend on the numpy version.
    """

    @staticmethod
    def _sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def test_enumeration_order(self):
        assert self._sha(enumerate_targets(64).to_json()) == (
            "360f1dc94f432dfe3e0286da7a510e48dbd3ab087bdb7b0f4642dd15329c9b8f"
        )

    def test_alpha_zero_block_layout(self):
        spec = dyadic_spec(gamma=0.0, max_degree=1 << 14)
        series, ledger = construct(spec, enumerate_targets(64))
        # blocks 6 and 10 belong to the zero polynomial (k = 1): skipped as "zero"
        assert [r.n for r in ledger.built()] == [8, 12]
        assert self._sha(ledger.to_csv()) == (
            "d6ebe1ea9ec39ed6bc09089846146dcc7b67535faeb1d8e461e07440699577cb"
        )
        assert self._sha(json.dumps(series.to_json_obj())) == (
            "40e299e735619c400bff4ebbbdabe7bd2bd2c1271f2ac810811aa924dc6b8242"
        )
