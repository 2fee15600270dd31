import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsl import means, verify
from tsl.constructor import (
    ConstructionSpec,
    Regime,
    Schedule,
    construct,
    iter_plan,
    quadratic_schedule,
    visit_set,
)
from tsl.errors import DomainError
from tsl.polybank import TargetEntry, TargetEnumeration
from tsl.series import CoefficientSeries, ShiftParams, apply_shift_power
from tsl.means import effective_degree
from tsl.repro import DEFAULT_SEED, REGISTRY
from tsl.verify import (
    abel_minorant,
    check_visit,
    power_sum_lower_bound,
    run_abel_suite,
    run_power_sum_suite,
    truncation_tail_bound,
)

DEGREE = 1 << 12


def half_targets(count=4, degree=1):
    """Every slot holds (1 + z)/2 (or the constant 1) with l_k = 2: test circles of radius 1/2."""
    exact = ((1, 0, 2), (1, 0, 2)) if degree == 1 else ((1, 0, 1),)
    return TargetEnumeration((TargetEntry(exact, 2),) * count)


def spec_at(alpha, max_degree):
    return ConstructionSpec(
        alpha=alpha, gamma=0.5, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=max_degree
    )


def schedule_spec(schedule, alpha):
    return ConstructionSpec(
        alpha=alpha, gamma=0.5, regime=Regime.RS, max_degree=DEGREE,
        schedule=Schedule.DYADIC if schedule == "dyadic" else Schedule.U_SCHEDULE,
        u=quadratic_schedule if schedule == "u2" else None,
    )


def missed_mass(alpha, s, cut, degree=1):
    """sum over the orbit coordinates the window [s, cut) of f misses of |c| * (1/2)**(i - s).

    The planned function is represented by a construction at 16x the
    degree, whose blocks reach far past where (1/2)**(i - s) underflows.
    """
    targets = half_targets(degree=degree)
    f, _ = construct(spec_at(alpha, DEGREE), targets)
    big, _ = construct(spec_at(alpha, DEGREE << 4), targets)
    full = apply_shift_power(big, s, ShiftParams(alpha)).coefficients
    seen = np.zeros_like(full)
    seen[: cut - s] = apply_shift_power(f, s, ShiftParams(alpha), length=cut - s).coefficients
    return float(np.sum(np.abs(full - seen) * 0.5 ** np.arange(len(full))))


class TestTailBound:
    @pytest.mark.parametrize("degree", (0, 1))
    @pytest.mark.parametrize("alpha", (-0.5, 0.0, 0.5))
    @pytest.mark.parametrize("s, width", [(1024, 61), (1030, 5), (2000, 30), (4090, 3), (4096, 1)])
    def test_bounds_missed_coordinates(self, alpha, s, width, degree):
        cut = min(s + width, DEGREE + 1)
        targets = half_targets(degree=degree)
        bound = truncation_tail_bound(spec_at(alpha, DEGREE), targets, s, 0.5, cut)
        assert missed_mass(alpha, s, cut, degree) <= bound

    def test_dropped_block_at_the_last_index_counts(self):
        # block 12 = [4096, 8191] is dropped whole, so f_4096 = 0 while the
        # planned function's coefficient there is +-1
        targets = half_targets(degree=0)
        bound = truncation_tail_bound(spec_at(0.0, DEGREE), targets, DEGREE, 0.5, DEGREE + 1)
        assert bound >= missed_mass(0.0, DEGREE, DEGREE + 1, degree=0) >= 1.0

    def test_cut_must_follow_s(self):
        with pytest.raises(DomainError):
            truncation_tail_bound(spec_at(0.0, DEGREE), half_targets(), 100, 0.5, 100)
        with pytest.raises(DomainError):
            truncation_tail_bound(spec_at(0.0, DEGREE), half_targets(), -1, 0.5, 100)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        schedule=st.sampled_from(["dyadic", "u2"]),
        alpha=st.sampled_from([-0.5, 0.0, 0.5]),
        s=st.integers(0, DEGREE),
        width=st.integers(1, DEGREE + 1),
        radius=st.floats(0.01, 0.999),
    )
    @example(schedule="dyadic", alpha=0.0, s=1023, width=3, radius=0.5)  # last index of block 9
    @example(schedule="dyadic", alpha=0.5, s=1024, width=61, radius=0.5)  # first index of block 10
    @example(schedule="dyadic", alpha=-0.5, s=DEGREE, width=1, radius=0.999)
    @example(schedule="u2", alpha=0.0, s=0, width=DEGREE + 1, radius=0.9)
    @example(schedule="u2", alpha=0.5, s=511, width=2, radius=0.999)
    def test_walk_from_s_equals_walk_from_block_zero(self, schedule, alpha, s, width, radius):
        # the walk skips the blocks that end before s; a reference that walks
        # from block 0 classifies them too and must read the same bits
        spec = schedule_spec(schedule, alpha)
        targets = half_targets()
        cut = min(s + width, DEGREE + 1)
        with mock.patch.object(verify, "iter_plan", lambda spec, targets, start: iter_plan(spec, targets)):
            reference = truncation_tail_bound(spec, targets, s, radius, cut)
        assert truncation_tail_bound(spec, targets, s, radius, cut) == reference

    @pytest.mark.parametrize("schedule", ["dyadic", "u2"])
    def test_first_block_equals_the_per_step_search(self, schedule):
        spec = schedule_spec(schedule, 0.0)

        def per_step(s):  # the search that takes the bit length of s at every step
            return next(n for n in itertools.count() if spec.base_exponent(n + 1) >= int(s).bit_length())

        indices = [*range((1 << 16) + 1), *((1 << 40) + d for d in (-2, -1, 0, 1, 2)), (1 << 41) - 1]
        assert [verify._first_block(spec, s) for s in indices] == [per_step(s) for s in indices]

    @pytest.mark.parametrize("schedule", ["dyadic", "u2"])
    def test_finite_and_nondecreasing_up_to_the_last_radius_below_one(self, schedule):
        # from 1 - 5e-16 on, -ln(radius) * 2**60 is below 745: the scan stops at
        # the index 745 / -ln(radius) past s, about 6.7e18 at 1 - 2**-53
        radii = (1 - 1e-6, 1 - 1e-15, 1 - 5e-16, 1 - 2**-53)
        bounds = [truncation_tail_bound(schedule_spec(schedule, 0.0), half_targets(), 16, r, 17) for r in radii]
        assert all(map(math.isfinite, bounds)) and bounds == sorted(bounds)

    @pytest.mark.parametrize("radius", [1.0, 1.5, math.nan, -0.5])
    def test_radius_outside_the_unit_interval_is_a_domain_error(self, radius):
        with pytest.raises(DomainError, match="radius"):
            truncation_tail_bound(spec_at(0.0, DEGREE), half_targets(), 16, radius, 17)


class TestCheckVisit:
    def test_window_matches_full_orbit(self):
        targets = half_targets()
        spec = spec_at(0.0, DEGREE)
        f, ledger = construct(spec, targets)
        report = visit_set(spec, targets, 1, ledger)
        assert report.visits
        size = 512  # 8 * next_pow2(61): the effective degree at radius 1/2 is 60
        q = np.fft.ifft(targets.entry(1).series.coefficients * [1.0, 0.5], n=size) * size
        for s in report.visits[:8] + (2047,):
            orbit = apply_shift_power(f, s, ShiftParams(0.0)).coefficients
            dilated = orbit * 0.5 ** np.arange(len(orbit))
            folded = np.concatenate([dilated, np.zeros((-len(dilated)) % size)])
            g = np.fft.ifft(folded.reshape(-1, size).sum(axis=0)) * size
            full = float(np.max(np.abs(g - q)))
            full += truncation_tail_bound(spec, targets, s, 0.5, DEGREE + 1)
            got = check_visit(f, spec, targets, 1, s)
            assert got == pytest.approx(full, abs=1e-12)
            assert got >= full - 1e-15

    @pytest.mark.parametrize("orbit", ("random", "peak"))
    def test_long_window_within_bernstein_factor(self, orbit):
        # l_k = 100: radius 0.99 sees a window of 4139 > 4096 coefficients.  "peak"
        # puts a Dirichlet peak of height D + 1 halfway between two of 4096
        # equispaced points; a sup sampled on N points must still lie within
        # 1 / (1 - pi D / N) of a dense reference at 4N points
        l_bound, s = 100, 1000
        radius = 1.0 - 1.0 / l_bound
        targets = TargetEnumeration((TargetEntry(((1, 0, 1),), l_bound),) * 4)
        spec = spec_at(0.0, DEGREE << 1)
        d = effective_degree(radius, spec.max_degree - s)
        assert d + 1 > 4096
        j = np.arange(d + 1, dtype=np.float64)
        if orbit == "peak":
            theta = math.pi / 4096 + math.pi / 65536
            window = np.exp(-j * math.log(radius) - 1j * theta * j)
        else:
            rng = np.random.Generator(np.random.PCG64(12))
            window = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        a = np.zeros(spec.max_degree + 1, dtype=np.complex128)
        a[s : s + d + 1] = window
        gap = window.copy()
        gap[0] -= 1.0
        n = 8 * (1 << d.bit_length())
        dense = float(np.abs(np.fft.ifft(gap * np.exp(j * math.log(radius)), n=4 * n)).max()) * 4 * n
        tail = truncation_tail_bound(spec, targets, s, radius, s + d + 1)
        sampled = check_visit(CoefficientSeries(a), spec, targets, 1, s) - tail
        assert (1.0 - math.pi * d / n) * dense <= sampled <= dense * (1.0 + 1e-12)

    def test_strided_gap_matches_direct_evaluation(self, monkeypatch):
        # constant target 1 with l_k = 4: radius 3/4, effective degree 144.  The
        # orbit window is nonzero at s + 4m only, so the gap has stride 4 and its
        # sup is reduced from a quarter of its N = 8 * next_pow2(145) points
        l_bound, s = 4, 1000
        radius = 1.0 - 1.0 / l_bound
        targets = TargetEnumeration((TargetEntry(((1, 0, 1),), l_bound),) * 4)
        spec = spec_at(0.0, DEGREE)
        d = effective_degree(radius, spec.max_degree - s)
        rng = np.random.Generator(np.random.PCG64(13))
        a = np.zeros(spec.max_degree + 1, dtype=np.complex128)
        terms = len(range(s, s + d + 1, 4))
        a[s : s + d + 1 : 4] = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
        gap = a[s : s + d + 1].copy()
        gap[0] -= 1.0
        n = 8 * (1 << d.bit_length())
        z = radius * np.exp(2j * np.pi * np.arange(n) / n)
        direct = float(np.abs(np.polyval(gap[::-1], z)).max())
        tail = truncation_tail_bound(spec, targets, s, radius, s + d + 1)
        points = []
        ifft = np.fft.ifft

        def spy(x, n=None, *args, **kwargs):
            points.append(len(x) * n)
            return ifft(x, n, *args, **kwargs)

        monkeypatch.setattr(means.np.fft, "ifft", spy)
        got = check_visit(CoefficientSeries(a), spec, targets, 1, s)
        assert sum(points) == n // 4
        assert got == pytest.approx(direct + tail, rel=1e-12)

    @pytest.mark.parametrize("l_bound", [10**200, 10**400])
    def test_bound_past_the_float_range_is_a_domain_error(self, l_bound):
        # the test radius 1 - 1/l reads 1: check_visit rejects it before the plan forms a gate
        targets = TargetEnumeration((TargetEntry(((1, 0, 1),), l_bound),) * 4)
        with pytest.raises(DomainError, match=f"l = {l_bound} "):
            check_visit(CoefficientSeries.zero(DEGREE), spec_at(0.0, DEGREE), targets, 1, 5)

    @pytest.mark.parametrize("l_bound", [10**15, 2 * 10**15, 10**16, 10**30])
    def test_test_radius_near_one(self, l_bound):
        # past l = 2**53 or so the radius 1 - 1/l rounds to 1 and has no test circle
        targets = TargetEnumeration(
            (TargetEntry(((0, 0, 1),), 1), TargetEntry(((1, 0, 1),), 1), TargetEntry(((1, 0, 1),), l_bound))
        )
        spec = spec_at(0.0, DEGREE)
        f, _ = construct(spec, targets)
        if 1.0 - 1 / l_bound < 1.0:
            assert math.isfinite(check_visit(f, spec, targets, 3, 16))
        else:
            with pytest.raises(DomainError, match=f"l = {l_bound} "):
                check_visit(f, spec, targets, 3, 16)

    def test_rejects_series_of_another_degree(self):
        # the window would read this series and the tail the plan truncated at
        # spec.max_degree: two different functions
        targets = half_targets()
        f, ledger = construct(spec_at(0.0, DEGREE), targets)
        s = visit_set(spec_at(0.0, DEGREE), targets, 1, ledger).visits[0]
        for degree in (DEGREE >> 1, DEGREE << 1):
            with pytest.raises(DomainError, match="is not the spec's max_degree"):
                check_visit(f, spec_at(0.0, degree), targets, 1, s)

    def test_bound_starts_after_the_window(self, monkeypatch):
        targets = half_targets()
        spec = spec_at(0.0, DEGREE)
        f, _ = construct(spec, targets)
        cuts = []

        def spy(spec, targets, s, radius, cut):
            cuts.append((s, cut))
            return 1.0

        monkeypatch.setattr(verify, "truncation_tail_bound", spy)
        assert check_visit(f, spec, targets, 1, 1024) >= 1.0
        assert check_visit(f, spec, targets, 1, 4090) >= 1.0
        # effective degree 60 at radius 1/2; the window stops at max_degree
        assert cuts == [(1024, 1024 + 61), (4090, DEGREE + 1)]


class TestPowerSumOracle:
    def test_hand_computed_instances(self):
        # gamma = 1: lhs 2 + 3, rhs ((2 + 1)**2 - 1) / 2
        verdict = power_sum_lower_bound([1, 2], 5, 1.0)
        assert verdict.holds and verdict.witness is None
        assert verdict.margin == 1.0
        # gamma = -1/2, n = 3: rhs = 2 sqrt(5) (1 - sqrt(2/5)) = 2 sqrt(5) - 2 sqrt(2)
        verdict = power_sum_lower_bound(np.array([1, 2, 3]), 3, -0.5)
        lhs = 1 / math.sqrt(2) + 1 / math.sqrt(3) + 1 / 2
        assert verdict.holds
        assert verdict.margin == pytest.approx(lhs - 2 * math.sqrt(5) + 2 * math.sqrt(2), rel=1e-14)

    def test_empty_subset(self):
        assert power_sum_lower_bound([], 4, 0.5).margin == 0.0

    def test_every_three_subset_holds(self):
        for members in itertools.combinations(range(1, 6), 3):
            assert power_sum_lower_bound(list(members), 5, -0.5).holds

    @pytest.mark.parametrize(
        "members, n, gamma",
        [
            ([1, 2], 5, -1.0),
            ([1, 2], 5, math.nan),
            ([1, 2], 5, math.inf),
            ([1, 2], 5, -math.inf),
            ([0, 1], 5, 0.5),
            ([1, 6], 5, 0.5),
            ([5, 5, 5], 5, -0.5),
            ([3, 1], 5, 0.5),
            ([[1, 2], [3, 4]], 5, 0.5),
        ],
    )
    def test_rejects(self, members, n, gamma):
        with pytest.raises(DomainError):
            power_sum_lower_bound(members, n, gamma)


class TestAbelOracle:
    def test_hand_computed_instance(self):
        # lhs = 2*3 + 3*2 + 4*1 = 16; S = 1, 3, 6, 10;
        # rhs = S_4 v_4 - S_1 v_1 + S_1 (v_1 - v_2) + S_2 (v_2 - v_4) = 10 - 5 + 2 + 6
        verdict = abel_minorant([1.0, 2.0, 3.0, 4.0], [5.0, 3.0, 2.0, 1.0], [1, 2, 4])
        assert verdict.holds and verdict.witness is None
        assert verdict.margin == 3.0

    @pytest.mark.parametrize(
        "u, v, subseq",
        [
            ([1.0, 1.0], [1.0], [1, 2]),
            ([1.0, -1.0], [2.0, 1.0], [1, 2]),
            ([1.0, 1.0], [2.0, -1.0], [1, 2]),
            ([1.0, 1.0], [1.0, 2.0], [1, 2]),
            ([1.0, 1.0], [2.0, 1.0], [1]),
            ([1.0, 1.0, 1.0], [3.0, 2.0, 1.0], [2, 2]),
            ([1.0, 1.0, 1.0], [3.0, 2.0, 1.0], [3, 1]),
            ([1.0, 1.0], [2.0, 1.0], [0, 2]),
            ([1.0, 1.0], [2.0, 1.0], [1, 3]),
            ([1.0, math.nan], [2.0, 1.0], [1, 2]),
            ([1.0, 1.0], [math.nan, 1.0], [1, 2]),
            ([1.0, 1.0], [2.0, math.nan], [1, 2]),
            ([math.inf, 1.0], [2.0, 1.0], [1, 2]),
            ([1.0, 1.0], [math.inf, 1.0], [1, 2]),
        ],
    )
    def test_rejects(self, u, v, subseq):
        with pytest.raises(DomainError):
            abel_minorant(u, v, subseq)


class TestOracleSuites:
    SUITES = (run_power_sum_suite, run_abel_suite)

    @pytest.mark.parametrize("suite", SUITES)
    def test_same_seed_same_margins(self, suite):
        first = [v.margin for v in suite(200, 5)]
        assert [v.margin for v in suite(200, 5)] == first
        assert [v.margin for v in suite(200, 6)] != first

    @pytest.mark.parametrize("suite", SUITES)
    def test_zero_and_one_instances(self, suite):
        assert suite(0, 5) == []
        assert len(suite(1, 5)) == 1

    @pytest.mark.parametrize("seed", (7, 99, 2024))
    @pytest.mark.parametrize("suite", SUITES)
    def test_holds_everywhere(self, suite, seed):
        verdicts = suite(1000, seed)
        assert len(verdicts) == 1000
        assert all(v.holds for v in verdicts)

    CORES = [
        (run_power_sum_suite, "power_sum_lower_bound", "_power_sum_verdict"),
        (run_abel_suite, "abel_minorant", "_abel_verdict"),
    ]

    @pytest.mark.parametrize("suite, oracle, core", CORES)
    def test_every_instance_goes_through_the_oracle(self, monkeypatch, suite, oracle, core):
        # the suites build admissible instances, so they call the verdict core, not the public oracle
        original = getattr(verify, core)
        calls = []

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(verify, core, spy)
        assert len(suite(40, 11)) == 40
        assert len(calls) == 40

    @pytest.mark.parametrize("seed", (5, 7))
    @pytest.mark.parametrize("suite, oracle, core", CORES)
    def test_every_instance_passes_the_public_validation(self, monkeypatch, suite, oracle, core, seed):
        direct = [v.margin for v in suite(200, seed)]
        public, original = getattr(verify, oracle), getattr(verify, core)
        calls = []

        def validated(*args):
            # the public oracle validates the instance, then calls the original core
            calls.append(args)
            with monkeypatch.context() as m:
                m.setattr(verify, core, original)
                return public(*args)

        monkeypatch.setattr(verify, core, validated)
        assert [v.margin for v in suite(200, seed)] == direct
        assert len(calls) == 200

    @pytest.mark.parametrize("core, failures", [
        ("_power_sum_verdict", "power_sum_failures"), ("_abel_verdict", "abel_failures"),
    ])
    def test_lemma_oracles_fail_on_a_perturbed_core(self, monkeypatch, core, failures):
        # negative control: 1 added to the right-hand side of every instance of one suite
        original = getattr(verify, core)

        def perturbed(*args):
            margin = original(*args).margin - 1.0
            holds = margin >= 0.0
            return verify.OracleVerdict(holds, margin, None if holds else {"perturbed": True})

        monkeypatch.setattr(verify, core, perturbed)
        report = REGISTRY["lemma-oracles"](DEFAULT_SEED)
        assert not report["passed"]
        assert report[failures] > 0
        other = ({"power_sum_failures", "abel_failures"} - {failures}).pop()
        assert report[other] == 0
