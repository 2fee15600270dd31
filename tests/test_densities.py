import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsl import _util, densities
from tsl.densities import (
    PrefixSet,
    log_weight_sum,
    prefix_density_profile,
    separating_set,
)
from tsl.errors import DomainError


class TestLogWeightSum:
    def test_gamma_zero_is_log_n_e(self):
        for n in (1, 10, 1000, 12345):
            assert log_weight_sum(n, 0.0) == pytest.approx(1.0 + math.log(n), rel=1e-12)

    def test_single_term_gamma_one(self):
        assert log_weight_sum(1, 1.0) == pytest.approx(1.0)

    def test_matches_asymptote(self):
        # exp(result) ~ (n^(1-g)/g) * e^(n^g) for moderate n
        n, gamma = 400, 0.5
        got = log_weight_sum(n, gamma)
        asym = math.log(n ** (1 - gamma) / gamma) + n**gamma
        assert 0.9 < math.exp(got - asym) < 1.1

    def test_overflow_free_at_large_horizon(self):
        val = log_weight_sum(1 << 26, 1.0)
        assert math.isfinite(val)
        assert val == pytest.approx((1 << 26), rel=1e-6)  # dominated by the top term

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            log_weight_sum(0, 0.5)
        with pytest.raises(DomainError):
            log_weight_sum(10, 1.5)

    @pytest.mark.parametrize("n", [2.5, 1.0001, math.nan, math.inf])
    def test_rejects_non_integral_length(self, n):
        with pytest.raises(DomainError):
            log_weight_sum(n, 1.0)

    def test_integral_float_length_is_the_integer(self):
        assert log_weight_sum(2.0, 1.0) == log_weight_sum(2, 1.0)

    @pytest.mark.parametrize("gamma", [0.0, 1e-5, 0.5, 0.9, 1.0])
    def test_largest_int64_length(self, gamma):
        # at gamma = 0.9 the window's start rounds past 2**63 - 1 itself
        n = (1 << 63) - 1
        top = float(n) ** gamma
        assert top <= log_weight_sum(n, gamma) <= top + 1.0 + math.log(n)

    @pytest.mark.parametrize("n", [1 << 63, (1 << 64) + 5, -(1 << 63) - 1, 2.0**63])
    def test_rejects_length_outside_int64(self, n):
        # numpy holds 2**63 as uint64, which a cast to int64 wraps to -2**63
        with pytest.raises(DomainError, match=r"2\*\*63"):
            log_weight_sum(n, 0.5)


class TestPrefixDensity:
    def test_full_set_density_one(self):
        n = 4096
        full = PrefixSet(np.arange(1, n + 1), n)
        for gamma in (0.0, 0.3, 1.0):
            assert prefix_density_profile(full, gamma, [n])[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_evens_natural_density(self):
        n = 1 << 20
        evens = PrefixSet(np.arange(2, n + 1, 2), n)
        assert prefix_density_profile(evens, 0.0, [n])[0][1] == pytest.approx(0.5, abs=1e-5)

    def test_horizon_beyond_set_rejected(self):
        s = PrefixSet(np.array([1, 2]), 10)
        with pytest.raises(DomainError):
            prefix_density_profile(s, 0.5, [11])

    def test_empty_set(self):
        s = PrefixSet(np.array([], dtype=np.int64), 100)
        assert prefix_density_profile(s, 0.5, [100])[0][1] == 0.0

    def test_zero_below_the_first_member(self):
        s = PrefixSet(np.array([100, 200]), 400)
        for gamma in (0.0, 0.5, 1.0):
            rows = prefix_density_profile(s, gamma, [1, 99, 100])
            assert [(ratio, num) for _, ratio, num, _ in rows[:2]] == [(0.0, -math.inf)] * 2
            assert rows[2][1] > 0.0

    def test_values_in_unit_interval(self):
        rng = np.random.Generator(np.random.PCG64(5))
        n = 1 << 14
        for _ in range(25):
            members = np.nonzero(rng.random(n) < rng.uniform(0.05, 0.9))[0] + 1
            s = PrefixSet(members, n)
            for gamma in (0.0, 0.4, 1.0):
                d = prefix_density_profile(s, gamma, [n])[0][1]
                assert 0.0 <= d <= 1.0


class TestSeparatingSet:
    def test_gamma_one_dyadic_points(self):
        s = separating_set(1.0, 100)
        np.testing.assert_array_equal(s.members, [2, 4, 8, 16, 32, 64])

    def test_rejects_gamma_zero(self):
        with pytest.raises(DomainError):
            separating_set(0.0, 100)

    def test_density_at_own_gamma(self):
        horizon = 1 << 20
        s = separating_set(0.5, horizon)
        assert prefix_density_profile(s, 0.5, [horizon])[0][1] >= 0.3

    def test_density_collapses_below(self):
        horizon = 1 << 20
        s = separating_set(0.5, horizon)
        low = prefix_density_profile(s, 0.25, [horizon])[0][1]
        assert low <= 0.05
        profile = [row[1] for row in prefix_density_profile(s, 0.25, [1 << m for m in range(12, 21)])]
        assert all(b <= a + 1e-12 for a, b in zip(profile, profile[1:]))

    @pytest.mark.parametrize("gamma", (1e-5, 0.04, 5e-324))
    def test_tiny_gamma_is_empty_below_first_interval(self, gamma):
        # the first exponent int(1/gamma) + 1 is past the bit length of n_max
        s = separating_set(gamma, 100)
        assert s.members.size == 0 and s.n_max == 100
        assert prefix_density_profile(s, gamma, [100])[0][1] == 0.0

    @pytest.mark.parametrize("n_max", [1, 5, 100, 4097, 1 << 14, (1 << 16) + 3])
    def test_members_are_the_union_of_the_intervals(self, n_max):
        # the intervals are concatenated without sorting; the reference sorts
        # and deduplicates them
        gammas = [*np.linspace(0.02, 0.98, 49).tolist(), 1 / 3, 0.25, 0.2, 0.1, 1e-5]
        for gamma in gammas:
            pieces = [np.array([], dtype=np.int64)] + [
                np.arange(max(1, (1 << n) - math.floor(2.0 ** (n * (1.0 - gamma)))),
                          min(1 << n, n_max) + 1, dtype=np.int64)
                for n in range(int(1.0 / gamma) + 1, n_max.bit_length() + 2)
            ]
            expected = np.unique(np.concatenate(pieces))
            members = separating_set(gamma, n_max).members
            assert members.dtype == np.int64
            np.testing.assert_array_equal(members, expected)

    def test_members_hug_dyadic_tails(self):
        s = separating_set(0.5, 1 << 12)
        n = 10
        width = int(2.0 ** (n * 0.5))
        block = s.members[(s.members > (1 << n) - width - 1) & (s.members <= (1 << n))]
        assert len(block) == width + 1


class TestMonotonicityHierarchy:
    @staticmethod
    def _horizons(members):
        # dyadic prefixes, each snapped down to the nearest member as well:
        # the upper density is approached along prefixes that end at a
        # member, and a purely dyadic sup can miss those peaks entirely
        # for sparse sets once the weights concentrate at the top
        out = set()
        for m in range(10, 21):
            n = 1 << m
            out.add(n)
            at_or_below = members[members <= n]
            if len(at_or_below):
                out.add(int(at_or_below[-1]))
        return sorted(out)

    def test_sup_density_monotone_in_gamma(self):
        rng = np.random.Generator(np.random.PCG64(17))
        n_max = 1 << 20
        pairs = [(0.0, 0.3), (0.3, 0.6), (0.2, 0.9), (0.5, 1.0)]
        for trial in range(200):
            kind = trial % 3
            if kind == 0:
                members = np.nonzero(rng.random(n_max) < rng.uniform(0.001, 0.05))[0] + 1
            elif kind == 1:
                lo = int(rng.integers(1, n_max // 2))
                hi = int(rng.integers(lo, min(n_max, lo + 200_000)))
                members = np.arange(lo, hi + 1)
            else:
                members = separating_set(float(rng.uniform(0.2, 0.9)), n_max).members
            if len(members) == 0:
                continue
            s = PrefixSet(members, n_max)
            horizons = self._horizons(members)
            g1, g2 = pairs[trial % len(pairs)]
            sup1 = max(r for _, r, _, _ in prefix_density_profile(s, g1, horizons))
            sup2 = max(r for _, r, _, _ in prefix_density_profile(s, g2, horizons))
            assert sup1 <= sup2 + 0.02


class TestDyadicCollapse:
    # ratio of the half-horizon weighted mass to the full one:
    # asymptotically 2**-(1-t) * exp(-2**(n t) (1 - 2**-t))
    @staticmethod
    def _log_ratio(t, n):
        return log_weight_sum(1 << (n - 1), t) - log_weight_sum(1 << n, t)

    @classmethod
    def _ratio(cls, t, n):
        return math.exp(cls._log_ratio(t, n))

    def test_asymptote_matches_at_n16(self):
        # compared in log scale: at t = 0.8 both sides underflow doubles
        for t in (0.3, 0.5, 0.8):
            log_predicted = -(1 - t) * math.log(2.0) - (2.0 ** (16 * t)) * (1 - 2.0**-t)
            assert abs(self._log_ratio(t, 16) - log_predicted) <= math.log(2.0)

    @pytest.mark.parametrize("t,n", [(0.3, 24), (0.5, 16), (0.8, 16)])
    def test_collapse_below_threshold(self, t, n):
        # the exponent scale 2**(n t) (1 - 2**-t) only clears -log(1e-6)
        # at n = 16 for t >= 0.5; the slow t = 0.3 case needs n = 24
        assert self._ratio(t, n) < 1e-6


class TestPrefixSetInvariants:
    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            PrefixSet(np.array([3, 2]), 10)

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            PrefixSet(np.array([2, 2]), 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            PrefixSet(np.array([0, 3]), 10)
        with pytest.raises(DomainError):
            PrefixSet(np.array([3, 11]), 10)

    @pytest.mark.parametrize(
        "members,n_max", [([1.5, 2.7], 10), ([1, 2], 10.5), ([1.5, 2.7], 10.5), ([1, math.nan], 10)]
    )
    def test_rejects_non_integral_values(self, members, n_max):
        with pytest.raises(DomainError):
            PrefixSet(np.array(members), n_max)

    def test_largest_int64_n_max(self):
        n = (1 << 63) - 1
        s = PrefixSet([1, 2, n], n)
        assert s.n_max == n and s.members[-1] == n
        (_, ratio, log_num, _), = prefix_density_profile(s, 0.5, [n])
        # the top term's share of the weighted mass is about f'/f = 0.5 / sqrt(n)
        assert log_num == float(n) ** 0.5
        assert ratio == pytest.approx(0.5 / math.sqrt(n), rel=1e-9)

    @pytest.mark.parametrize("v", [1 << 63, (1 << 64) + 5])
    def test_rejects_values_outside_int64(self, v):
        for members, n_max, horizons in [([1, 2], v, []), ([1, v], 10, []), ([1, 2], 10, [v])]:
            with pytest.raises(DomainError, match=r"2\*\*63"):
                prefix_density_profile(PrefixSet(members, n_max), 0.5, horizons)

    def test_rejects_a_drop_that_wraps_int64(self):
        # 1 -> -2**63 is a drop of 2**63 + 1, which int64 differences wrap to 2**63 - 1
        with pytest.raises(DomainError, match="increasing"):
            PrefixSet(np.array([1, -(1 << 63)]), 10)

    def test_non_integral_horizon_rejected(self):
        ds = PrefixSet(np.array([1, 2, 3]), 10)
        with pytest.raises(DomainError):
            prefix_density_profile(ds, 0.5, [2.9])
        with pytest.raises(DomainError):
            prefix_density_profile(ds, 0.5, [2.5])
        assert prefix_density_profile(ds, 0.5, [2.0]) == prefix_density_profile(ds, 0.5, [2])


@functools.cache
def _mp_terms(gamma):
    """exp(k**gamma) for k = 1 .. 2**14 at 40 digits, shared by the examples."""
    with mp.workdps(40):
        return [mp.exp(mp.power(k, gamma)) for k in range(1, (1 << 14) + 1)]


def _mp_log_mass(weights):
    """log of the sum of exp(w) over the given high-precision exponents."""
    return mp.log(mp.fsum(mp.e**w for w in weights)) if weights else mp.ninf


class TestEngine:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_max=st.integers(1, 2000),
        gamma=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        fill=st.floats(0.0, 1.0),
        data=st.data(),
    )
    def test_profile_matches_high_precision_sums(self, n_max, gamma, seed, fill, data):
        rng = np.random.Generator(np.random.PCG64(seed))
        members = (np.nonzero(rng.random(n_max) < fill)[0] + 1).tolist()
        horizons = data.draw(
            st.lists(st.integers(1, n_max), min_size=1, max_size=8), label="horizons"
        )  # unsorted, repeats allowed
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(densities, "_CHUNK", 64)  # pieces cross chunk edges
            rows = prefix_density_profile(PrefixSet(np.array(members), n_max), gamma, horizons)
        assert [row[0] for row in rows] == horizons
        with mp.workdps(60):
            weights = [mp.mpf(k) ** mp.mpf(gamma) for k in range(1, max(horizons) + 1)]
            for n, ratio, log_num, log_den in rows:
                den = _mp_log_mass(weights[:n])
                num = _mp_log_mass([weights[k - 1] for k in members if k <= n])
                assert abs(log_den - float(den)) <= 1e-13 * max(1.0, abs(float(den)))
                if num == mp.ninf:
                    assert log_num == -math.inf and ratio == 0.0
                    continue
                assert abs(log_num - float(num)) <= 1e-13 * max(1.0, abs(float(num)))
                assert abs(ratio - float(min(1, mp.e ** (num - den)))) <= 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        n_max=st.integers(1 << 11, 1 << 14),
        gamma=st.sampled_from([0.5, 0.8, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        fill=st.floats(0.001, 1.0),
        data=st.data(),
    )
    def test_windowed_profile_matches_full_sums(self, n_max, gamma, seed, fill, data):
        # horizons past a few thousand (gamma = 0.5), a hundred (0.8) or
        # fifty (1.0) drop terms, and sparse horizons restart their sums
        rng = np.random.Generator(np.random.PCG64(seed))
        first = data.draw(st.integers(1, n_max // 2), label="first member")
        members = (np.nonzero(rng.random(n_max - first + 1) < fill)[0] + first).tolist()
        horizons = data.draw(
            st.lists(st.integers(1, n_max), min_size=1, max_size=8), label="horizons"
        )  # unsorted, repeats allowed; those below the first member hold no members
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(densities, "_CHUNK", 97)  # pieces cross chunk edges
            rows = prefix_density_profile(PrefixSet(np.array(members), n_max), gamma, horizons)
        assert [row[0] for row in rows] == horizons
        terms = _mp_terms(gamma)
        with mp.workdps(40):
            for n, ratio, log_num, log_den in rows:
                den = mp.log(mp.fsum(terms[:n]))
                assert abs(log_den - float(den)) <= 1e-13 * abs(float(den))
                below = [terms[k - 1] for k in members if k <= n]
                if not below:
                    assert log_num == -math.inf and ratio == 0.0
                    continue
                num = mp.log(mp.fsum(below))
                assert abs(log_num - float(num)) <= 1e-13 * max(1.0, abs(float(num)))
                assert abs(ratio - float(min(1, mp.e ** (num - den)))) <= 1e-12
        by_horizon = sorted(rows)
        for (_, _, num0, den0), (_, _, num1, den1) in zip(by_horizon, by_horizon[1:]):
            assert den0 <= den1 and num0 <= num1  # across restarts as well

    def test_one_cut_cases_match_profile(self):
        rng = np.random.Generator(np.random.PCG64(11))
        n_max = 1 << 16
        s = PrefixSet(np.nonzero(rng.random(n_max) < 0.1)[0] + 1, n_max)
        horizons = [1 << m for m in range(4, 17)] + [777, 5]
        for gamma in (0.0, 0.3, 1.0):
            for n, ratio, _, log_den in prefix_density_profile(s, gamma, horizons):
                assert prefix_density_profile(s, gamma, [n])[0][1] == pytest.approx(ratio, abs=1e-12)
                assert log_weight_sum(n, gamma) == pytest.approx(log_den, rel=1e-12)

    def test_empty_horizon_list(self):
        assert prefix_density_profile(PrefixSet(np.array([3]), 10), 0.5, []) == []

    def test_profile_rejects_bad_args(self):
        s = PrefixSet(np.array([1, 2]), 10)
        with pytest.raises(DomainError):
            prefix_density_profile(s, 1.5, [4])
        with pytest.raises(DomainError):
            prefix_density_profile(s, 0.5, [4, 0])
        with pytest.raises(DomainError):
            prefix_density_profile(s, 0.5, [11, 4])

    @pytest.mark.parametrize(
        "horizons, message",
        [
            ([4, 12, 0, 11], "horizon 12 exceeds the set's n_max 10"),
            ([4, -3, 12], "horizon must be >= 1"),
            (np.array([10, 1 << 40]), "horizon 1099511627776 exceeds the set's n_max 10"),
        ],
    )
    def test_profile_names_the_first_bad_horizon(self, horizons, message):
        with pytest.raises(DomainError) as err:
            prefix_density_profile(PrefixSet(np.array([1, 2]), 10), 0.5, horizons)
        assert str(err.value) == message


@functools.cache
def _mp_prefix_sums(gamma):
    """Running 40-digit sums of `_mp_terms`: entry n - 1 sums k = 1 .. n."""
    with mp.workdps(40):
        out, total = [], mp.mpf(0)
        for term in _mp_terms(gamma):
            total += term
            out.append(total)
    return out


def _heads(gamma, horizons):
    """First integer of each horizon's window and the terms after it that the engine sums one by one."""
    horizons = np.array(horizons, dtype=np.int64)
    seen = []

    def spy(*args):
        seen.append(_util.progression_sums(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(densities, "progression_sums", spy)
        densities._log_weight_sums(gamma, horizons)
    return densities._first_kept(gamma, horizons, horizons), seen[0][3]


class TestClosedForm:
    # log_weight_sum sums a short exact head, then Euler-Maclaurin; at
    # _EM_BITS = 40 the remainder bound is 2**-40 of the sum, and from
    # horizon 2**13 on the Euler-Maclaurin route starts below 2**13 or at
    # the window's first integer, at every gamma here
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        gamma=st.sampled_from([1e-5, 0.01, 0.3, 0.5, 0.7]),
        horizons=st.lists(st.integers(1, 1 << 14), min_size=1, max_size=8),
    )
    def test_matches_high_precision_sums(self, gamma, horizons):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_util, "_EM_BITS", 40)
            first, head = _heads(gamma, [1 << 13, 1 << 14])
            assert (head < (1 << np.array([13, 14])) - first + 1).all()
            assert (first + head <= np.maximum(first, 1 << 13)).all()
            rows = prefix_density_profile(PrefixSet([], 1 << 14), gamma, horizons)
            singles = [log_weight_sum(n, gamma) for n in horizons]
        sums = _mp_prefix_sums(gamma)
        with mp.workdps(40):
            for (n, _, _, log_den), single in zip(rows, singles):
                den = float(mp.log(sums[n - 1]))
                assert abs(log_den - den) <= 1e-13 * abs(den)
                assert single == log_den

    @pytest.mark.parametrize("gamma", [1e-5, 0.2, 0.3, 0.5])
    def test_matches_the_summed_members_route(self, gamma):
        # with every integer a member, each numerator is the windowed float64
        # sum of the same terms.  At gamma = 1e-5 the window is all of them,
        # and an integral over y = N**gamma - t**gamma that recovers t as
        # (N**gamma - y)**(1/gamma) loses 1/gamma ulps: 4e-13 relative
        horizons = [1 << 20, (1 << 22) - 3, 1 << 22]
        everything = PrefixSet(np.arange(1, (1 << 22) + 1), 1 << 22)
        for n, _, log_num, log_den in prefix_density_profile(everything, gamma, horizons):
            assert abs(log_den - log_num) <= 1e-13 * abs(log_num), n

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.7, 0.95])
    def test_default_bits_match_40_digit_sums(self, gamma):
        # at 2**-56, through every route: whole windows summed, exact heads then Euler-Maclaurin,
        # and Euler-Maclaurin from the window's first integer; horizons past 2**14 against
        # windowed 40-digit sums, below each window every term weighs under e**-50 / n of the top
        horizons = [1 << 10, 3000, 1 << 12, 5000, 1 << 13, 12345, 1 << 14]
        horizons += [1 << 20] * (gamma >= 0.7) + [1 << 30] * (gamma >= 0.95)  # windows of 6,000 and 200 terms
        got = densities._log_weight_sums(gamma, np.array(horizons, dtype=np.int64))
        sums = _mp_prefix_sums(gamma)
        with mp.workdps(40):
            for n, value in zip(horizons, got.tolist()):
                if n <= 1 << 14:
                    exact = mp.log(sums[n - 1])
                else:
                    span = int((50.0 + math.log(n)) / (gamma * n ** (gamma - 1.0))) + 1
                    top = mp.mpf(n) ** gamma
                    exact = top + mp.log(mp.fsum(mp.exp(mp.mpf(k) ** gamma - top) for k in range(n - span, n + 1)))
                assert abs(value - float(exact)) <= 4 * math.ulp(value), n

    @pytest.mark.parametrize(
        "gamma, n", [(0.9, 1 << 54), (0.9, (1 << 60) + 12345), (0.99, 1 << 55), (0.95, (1 << 63) - 1)]
    )
    def test_past_2_53_matches_50_digit_sums(self, gamma, n):
        # past 2**53 float64 skips integers, so the exact head must count them in int64; at
        # 2**63 - 1 and gamma = 0.95 the summed window's terms span more than e**709
        got = log_weight_sum(n, gamma)
        # below n - span each term weighs under e**-50 / n of the top one
        span = int((50.0 + math.log(n)) / (gamma * n ** (gamma - 1.0))) + 1
        with mp.workdps(50):
            top = mp.mpf(n) ** gamma
            exact = top + mp.log(mp.fsum(mp.exp(mp.mpf(k) ** gamma - top) for k in range(n - span, n + 1)))
        assert abs(got - float(exact)) <= 2 * math.ulp(got)


def _assert_each_horizon_alone(gamma, horizons):
    rows = densities._log_weight_sums(gamma, horizons)
    for n, row in zip(horizons.tolist(), rows.tolist()):
        (alone,) = densities._log_weight_sums(gamma, np.array([n]))
        assert row == alone, n


class TestWeightSumsPerHorizon:
    # unsorted and repeated horizons, across the head-only and head + Euler-Maclaurin routes
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        gamma=st.one_of(st.sampled_from([0.0, 1e-5, 0.5, 0.9, 0.99, 1.0]), st.floats(1e-6, 0.999)),
        horizons=st.lists(
            st.one_of(st.integers(1, 1 << 14), st.integers(1, (1 << 63) - 1)), min_size=1, max_size=12
        ),
        repeats=st.integers(0, 3),
    )
    @example(gamma=0.5, horizons=[1 << 40, 5, 3000, 1 << 20, 5], repeats=2)
    def test_each_horizon_equals_it_alone(self, gamma, horizons, repeats):
        _assert_each_horizon_alone(gamma, np.array(horizons + horizons[:repeats], dtype=np.int64))

    @pytest.mark.parametrize("gamma", [1e-5, 0.3, 0.5, 0.7])
    def test_head_only_and_tail_rows_in_one_call(self, gamma):
        horizons = np.array([1 << 40, 2, 1 << 12, 10**6, 2, (1 << 63) - 1, 7], dtype=np.int64)
        first, head = _heads(gamma, horizons)
        tail = head < horizons - first + 1
        assert tail.any() and not tail.all()
        _assert_each_horizon_alone(gamma, horizons)


def _bits(rows):
    """Profile rows with every float spelled out to the last bit."""
    return [(n, *(x.hex() for x in logs)) for n, *logs in rows]


def _bare_rows(prefix_set, gamma, horizons):
    """The profile with every denominator straight from the engine, past the memo."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(densities, "_denominators", densities._log_weight_sums)
        return prefix_density_profile(prefix_set, gamma, horizons)


class TestDenominatorMemo:
    # the memo hands back the engine's own bits: cold or warm, across evictions,
    # for unsorted and repeated horizons on both sides of the Euler-Maclaurin start
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        gamma=st.one_of(st.sampled_from([0.0, 1e-5, 0.5, 0.7, 0.9, 1.0]), st.floats(1e-6, 0.999)),
        horizons=st.lists(
            st.one_of(st.integers(1, 1 << 14), st.integers(1, 1 << 62)), min_size=1, max_size=12
        ),
        limit=st.sampled_from([1, 3, 8, 1 << 12]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rows_equal_the_bare_engine_rows(self, gamma, horizons, limit, seed, data):
        rng = np.random.Generator(np.random.PCG64(seed))
        s = PrefixSet(np.nonzero(rng.random(1 << 14) < 0.05)[0] + 1, 1 << 62)
        warm = data.draw(
            st.lists(st.one_of(st.sampled_from(horizons), st.integers(1, 1 << 62)), max_size=12),
            label="warm",
        )  # profiled first; they overlap the horizons
        again = data.draw(st.permutations(horizons), label="again") + horizons[:3]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(densities, "_weight_sums", {})  # cold
            patch.setattr(densities, "_MEMO_LIMIT", limit)
            for hs in (warm, horizons, again):
                if hs:
                    assert _bits(prefix_density_profile(s, gamma, hs)) == _bits(_bare_rows(s, gamma, hs))
                assert len(densities._weight_sums) <= limit

    def test_a_full_memo_is_emptied(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(densities, "_weight_sums", {})
            patch.setattr(densities, "_MEMO_LIMIT", 4)
            s = PrefixSet([], 1 << 20)
            prefix_density_profile(s, 0.5, [10, 20, 30])
            assert len(densities._weight_sums) == 3
            prefix_density_profile(s, 0.5, [20, 40, 50])  # one miss too many for the bound
            assert sorted(n for _, n, _ in densities._weight_sums) == [40, 50]
            prefix_density_profile(s, 0.5, list(range(1, 11)))  # more misses than the bound holds
            assert len(densities._weight_sums) == 4

    def test_clear_memo_empties_the_memo(self):
        calls = []

        def counting(gamma, horizons):
            calls.append(horizons.size)
            return engine(gamma, horizons)

        engine = densities._log_weight_sums
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(densities, "_log_weight_sums", counting)
            densities.clear_memo()  # a cold memo: the profile calls the engine and fills it
            prefix_density_profile(PrefixSet([], 1 << 20), 0.5, [1 << 20])
            assert densities._weight_sums and calls == [1]
            prefix_density_profile(PrefixSet([], 1 << 20), 0.5, [1 << 20])
            assert calls == [1]  # warm: read from the memo
            densities.clear_memo()
            assert not densities._weight_sums
            prefix_density_profile(PrefixSet([], 1 << 20), 0.5, [1 << 20])
            assert calls == [1, 1]
        densities.clear_memo()

    @pytest.mark.parametrize("patched_first", [True, False])
    def test_patched_em_bits_leave_no_stale_values(self, patched_first):
        # at gamma = 0.7 a remainder bound of 2**-40 lets horizon 5,813 sum exactly up to
        # 5,793 (the first quarter-octave position past the bound) and 2**14 and 2**20 take
        # Euler-Maclaurin from their first integer, where 2**-56 sums their every term;
        # the two routes differ in the last bits at 2**14 and 2**20
        horizons = [1 << 14, 1 << 20, 1 << 12]
        s = PrefixSet([], 1 << 20)

        def profile_is_the_engines():
            assert _bits(prefix_density_profile(s, 0.7, horizons)) == _bits(_bare_rows(s, 0.7, horizons))
            return [row[3] for row in prefix_density_profile(s, 0.7, horizons)]

        def patched():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_util, "_EM_BITS", 40)
                first, head = _heads(0.7, [5813, 1 << 14, 1 << 20])
                assert (first + head).tolist() == [5793, 15092, 1043652]
                return profile_is_the_engines()

        def unpatched():
            first, head = _heads(0.7, [1 << 14, 1 << 20, 2_500_000])
            assert head.tolist() == [1293, 4925, 0]  # every term, every term, none
            assert (first + head).tolist()[:2] == [(1 << 14) + 1, (1 << 20) + 1]
            return profile_is_the_engines()

        densities.clear_memo()
        if patched_first:
            at_40, at_56 = patched(), unpatched()
        else:
            at_56, at_40 = unpatched(), patched()
        assert at_40 != at_56
        assert unpatched() == at_56 and patched() == at_40

    @pytest.mark.parametrize("gamma, horizons, start", [(0.5, [4140, 8000, 12466], 4096), (0.6, [46415], 46341)])
    def test_head_ends_at_the_first_ladder_position_past_the_bound(self, gamma, horizons, start):
        # at 2**-56 these windows start below the bound's crossing and end past it; their exact
        # heads end at the first quarter-octave position where the remainder bound holds
        first, head = _heads(gamma, horizons)
        assert (0 < head).all() and (head < np.array(horizons) - first + 1).all()
        assert (first + head == start).all()

def _elementwise_gamma_zero_masses(cuts, members):
    """The gamma = 0 numerators term by term: each piece sums exp(x**0 - 1) as an array."""
    masses, prev, total = {}, 0, -math.inf
    for c in sorted(set(cuts)):
        for lo in range(prev, c, densities._CHUNK):
            w = members[lo : min(lo + densities._CHUNK, c)].astype(np.float64) ** 0.0
            total = float(np.logaddexp(total, 1.0 + math.log(float(np.exp(w - 1.0).sum()))))
        masses[c], prev = total, c
    return [masses[c] for c in cuts]


class TestGammaZeroNumerators:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_max=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        fill=st.floats(0.0, 1.0),
        chunk=st.sampled_from([1, 7, 64, 1 << 22]),
        data=st.data(),
    )
    def test_equal_the_elementwise_route(self, n_max, seed, fill, chunk, data):
        rng = np.random.Generator(np.random.PCG64(seed))
        members = np.nonzero(rng.random(n_max) < fill)[0] + 1
        cuts = data.draw(
            st.lists(st.integers(0, members.size), max_size=10), label="cuts"
        )  # unsorted, repeats allowed; a cut of 0 is an empty window
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(densities, "_CHUNK", chunk)  # pieces cross chunk edges
            got = densities._log_masses(0.0, np.array(cuts, dtype=np.int64), members).tolist()
            want = _elementwise_gamma_zero_masses(cuts, members)
        assert [x.hex() for x in got] == [x.hex() for x in want]
