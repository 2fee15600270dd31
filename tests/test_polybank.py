import math
from dataclasses import fields
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsl.errors import DomainError
from tsl.means import circle_mean
from tsl.polybank import (
    SignedPolynomial,
    StarPolynomial,
    TargetEntry,
    TargetEnumeration,
    enumerate_targets,
    index_weighted,
    l1_ceil,
    rudin_shapiro,
    vdlp_star,
)
from tsl.series import CoefficientSeries


def as_series(arr):
    return CoefficientSeries(np.asarray(arr, dtype=np.complex128))


class TestRudinShapiro:
    def test_base_case(self):
        np.testing.assert_array_equal(rudin_shapiro(1).coefficients, [1])

    def test_first_four(self):
        np.testing.assert_array_equal(rudin_shapiro(4).coefficients, [1, 1, 1, -1])

    def test_eight_has_six_plus(self):
        assert int((rudin_shapiro(8).coefficients == 1).sum()) == 6

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            rudin_shapiro(0)

    def test_deterministic(self):
        a = rudin_shapiro(1000).coefficients
        b = rudin_shapiro(1000).coefficients
        np.testing.assert_array_equal(a, b)

    def test_truncation_is_prefix(self):
        long = rudin_shapiro(512).coefficients
        for n in (3, 17, 100, 511):
            np.testing.assert_array_equal(rudin_shapiro(n).coefficients, long[:n])

    @pytest.mark.parametrize("exp", range(2, 11))
    def test_sampled_sup_bound(self, exp):
        n = 1 << exp
        poly = rudin_shapiro(n)
        sup = circle_mean(poly.coefficients, math.inf, 1.0)
        assert sup <= 5.0 * math.sqrt(n)

    def test_plus_count_floor_all_small_n(self):
        for n in range(1, 300):
            poly = rudin_shapiro(n)  # construction validates >= ceil(n/2)
            assert int((poly.coefficients == 1).sum()) >= -(-n // 2)


class TestStarPolynomial:
    def test_n4_profile(self):
        np.testing.assert_allclose(vdlp_star(4).coefficients, [0, 1, 1, 1])

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            vdlp_star(0)

    def test_magnitudes_bounded_small_n(self):
        for n in range(1, 65):
            assert float(np.abs(vdlp_star(n).coefficients).max()) <= 1.0

    def test_plus_count(self):
        for n in range(1, 200):
            poly = vdlp_star(n)
            assert int((poly.coefficients == 1.0).sum()) >= n // 4

    def test_l1_norm_of_16(self):
        val = circle_mean(vdlp_star(16).coefficients, 1.0, 1.0)
        assert val <= 3.0

    @pytest.mark.parametrize("exp", range(2, 11))
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_interpolated_norm_bound(self, exp, p):
        n = 1 << exp
        q = math.inf if p == 1.0 else p / (p - 1.0)
        bound = 3.0 * (1.0 if q == math.inf else n ** (1.0 / q))
        val = circle_mean(vdlp_star(n).coefficients, p, 1.0)
        assert val <= bound

    def test_degree_stays_below_n(self):
        for n in (1, 2, 3, 4, 7, 9, 30, 64):
            assert len(vdlp_star(n).coefficients) == n


class TestTypeInvariants:
    def test_signed_rejects_non_unit(self):
        with pytest.raises(DomainError):
            SignedPolynomial(np.array([1, 0, -1]))

    def test_signed_rejects_minus_heavy(self):
        with pytest.raises(DomainError):
            SignedPolynomial(np.array([-1, -1, -1, 1]))

    def test_star_rejects_overshoot(self):
        with pytest.raises(DomainError):
            StarPolynomial(np.array([1.0, 1.2]))

    def test_star_rejects_too_few_ones(self):
        with pytest.raises(DomainError):
            StarPolynomial(np.array([0.5] * 8))


GOLDEN_PREFIX = [
    ((0, 0, 1),),
    ((0, 1, 1),),
    ((0, -1, 1),),
    ((1, 0, 1),),
    ((1, 1, 1),),
    ((1, -1, 1),),
    ((-1, 0, 1),),
    ((-1, 1, 1),),
    ((-1, -1, 1),),
]


class TestEnumeration:
    def test_zero_first(self):
        t = enumerate_targets(3)
        assert t.entries[0].exact == ((0, 0, 1),)
        assert t.entries[0].l_bound == 1
        assert t.entries[0].degree == 0

    def test_golden_prefix(self):
        t = enumerate_targets(len(GOLDEN_PREFIX))
        assert [e.exact for e in t.entries] == GOLDEN_PREFIX

    def test_l1_bound_holds_everywhere(self):
        t = enumerate_targets(200)
        for k, e in enumerate(t.entries, start=1):
            l1 = float(np.abs(e.series.coefficients).sum())
            assert l1 <= e.l_bound + 1e-9
            assert e.l_bound >= k

    def test_constant_one_appears(self):
        t = enumerate_targets(40)
        ks = [k for k, e in enumerate(t.entries, 1) if e.exact == ((1, 0, 1),)]
        assert ks == [4]
        assert t.entries[3].l_bound == 5

    def test_no_duplicates(self):
        t = enumerate_targets(400)
        keys = set()
        for e in t.entries:
            vals = tuple(
                (a / c, b / c) for a, b, c in e.exact[: e.degree + 1]
            )
            assert vals not in keys
            keys.add(vals)

    def test_stable_json(self):
        a = enumerate_targets(120).to_json()
        b = enumerate_targets(120).to_json()
        assert a == b

    def test_json_round_trip(self):
        t = enumerate_targets(50)
        back = TargetEnumeration.from_json(t.to_json())
        assert [e.exact for e in back.entries] == [e.exact for e in t.entries]
        assert [e.l_bound for e in back.entries] == [e.l_bound for e in t.entries]

    @pytest.mark.parametrize(
        "obj",
        [
            {"k": 1},
            [{"k": 1}],
            [None],
            [{"degree": 0, "l_k": 1, "coefficients": [[1, 0]]}],
            [{"degree": 0, "l_k": 1, "coefficients": [[1, 0, 0]]}],
            [{"degree": 0, "l_k": 1, "coefficients": [[1, 0, -2]]}],
            [{"degree": 0, "l_k": 1.0, "coefficients": [[1, 0, 1]]}],
            [{"degree": 0, "l_k": 0, "coefficients": [[0, 0, 1]]}],
            [{"degree": True, "l_k": 1, "coefficients": [[1, 0, 1]]}],
            [{"degree": 0, "l_k": 1, "coefficients": "1"}],
        ],
    )
    def test_json_rejects_malformed_shape(self, obj):
        with pytest.raises(DomainError):
            TargetEnumeration.from_json_obj(obj)

    @pytest.mark.parametrize(
        "rec",
        [
            {"degree": 1, "l_k": 1, "coefficients": [[1, 0, 1]]},
            {"degree": 0, "l_k": 1, "coefficients": [[1, 0, 2], [1, 0, 2]]},
            {"degree": 1, "l_k": 1, "coefficients": [[1, 0, 2], [0, 0, 1]]},
        ],
        ids=["above", "below", "trailing-zero"],
    )
    def test_json_rejects_degree_that_disagrees_with_coefficients(self, rec):
        with pytest.raises(DomainError, match="degree of target 1 disagrees"):
            TargetEnumeration.from_json_obj([rec])

    @pytest.mark.parametrize(
        "coefficients", [[[2, 0, 1]], [[1, 1, 1]], [[3, 4, 6], [1, 0, 2]]], ids=["2", "sqrt2", "3"]
    )
    def test_json_rejects_bound_below_l1_norm(self, coefficients):
        degree = len(coefficients) - 1
        rec = {"degree": degree, "l_k": 1, "coefficients": coefficients}
        with pytest.raises(DomainError, match="exceeds its bound"):
            TargetEnumeration.from_json_obj([rec])
        rec["l_k"] = l1_ceil(tuple(map(tuple, coefficients)))
        assert TargetEnumeration.from_json_obj([rec]).entry(1).l_bound == rec["l_k"]

    def test_entry_derives_series_and_degree_from_exact(self):
        assert [f.name for f in fields(TargetEntry) if f.init] == ["exact", "l_bound"]
        entry = TargetEntry(((1, 0, 2), (0, 0, 1), (0, -3, 4), (0, 0, 5)), 2)
        np.testing.assert_array_equal(entry.series.coefficients, [0.5, 0, -0.75j, 0])
        assert entry.degree == 2
        assert TargetEntry(((0, 0, 1), (0, 0, 3)), 1).degree == 0
        # a float image that disagrees with the exact coefficients cannot be given
        with pytest.raises(TypeError):
            TargetEntry(exact=((1, 0, 1),), series=as_series([100]), l_bound=1, degree=0)

    def test_coefficients_are_correctly_rounded(self):
        # a part below the float range reads 0; a legal target of norm 10**-400 loads
        tiny = TargetEnumeration.from_json_obj([{"degree": 0, "l_k": 1, "coefficients": [[1, -1, 10**400]]}])
        assert tiny.entry(1).degree == 0
        np.testing.assert_array_equal(tiny.entry(1).series.coefficients, [0.0])
        # (2**53 + 1) / 3 rounds once, not through the float 2**53
        (coeff,) = TargetEntry(((2**53 + 1, 0, 3),), 2**52).series.coefficients
        assert coeff == float(Fraction(2**53 + 1, 3)) != float(2**53) / 3

    @pytest.mark.parametrize("triple", [(10**400, 0, 1), (0, -(10**400), 7), (10**400, 0, 10**90)])
    def test_coefficient_past_the_float_range_is_a_domain_error(self, triple):
        with pytest.raises(DomainError, match="float range"):
            TargetEntry((triple,), 10**401)
        rec = {"degree": 0, "l_k": 10**401, "coefficients": [list(triple)]}
        with pytest.raises(DomainError, match="^target 2: "):
            TargetEnumeration.from_json_obj([{"degree": 0, "l_k": 1, "coefficients": [[1, 0, 1]]}, rec])

    def test_rejects_decreasing_l(self):
        t = enumerate_targets(3)
        entries = (t.entries[1], t.entries[0])  # l 3 then 1
        with pytest.raises(DomainError):
            TargetEnumeration(entries)

    def test_l1_ceil_exact_integers(self):
        assert l1_ceil(((0, 0, 1),)) == 0
        assert l1_ceil(((1, 0, 1),)) == 1
        assert l1_ceil(((1, 0, 1), (0, 2, 1))) == 3
        assert l1_ceil(((1, 1, 1),)) == 2  # sqrt(2) rounds up
        assert l1_ceil(((1, 0, 2),)) == 1


@st.composite
def near_integer_term(draw):
    """(a, b, c) with |a + b*i| / c just above, at or just below an integer K."""
    c = draw(st.integers(1, 60))
    k = draw(st.integers(0, 10**13))
    return (c * k + draw(st.integers(-2, 2)), draw(st.integers(-3, 3)), c)


class TestL1CeilReference:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(exact=st.lists(near_integer_term(), min_size=1, max_size=6).map(tuple))
    @example(exact=((10**6, 1, 1),))  # 10**6 + 5e-7
    @example(exact=((10**12, 1, 1),))  # 10**12 + 5e-13, inside the bound gap
    @example(exact=((3, 4, 5), (6, 8, 5), (0, 7, 7)))  # exactly 4
    @example(exact=((1, 1, 1), (1, -1, 1)))  # 2*sqrt(2)
    def test_matches_high_precision_ceiling(self, exact):
        with mp.workdps(60):
            norm = mp.fsum(mp.sqrt(a * a + b * b) / c for a, b, c in exact)
            want = int(mp.ceil(norm))
            gap = want - norm
        got = l1_ceil(exact)
        # an upper bound past the integer above the norm rounds up one
        # more, and the bound lies less than 1e-12 per term above the norm
        assert got == want or (got == want + 1 and gap < len(exact) * 1e-12)


class TestIndexWeighted:
    def test_constant_unchanged(self):
        for alpha in (-2.0, 0.0, 3.3):
            out = index_weighted(as_series([1]), alpha)
            np.testing.assert_allclose(out.coefficients, [1])

    def test_linear(self):
        out = index_weighted(as_series([0, 1]), 1.0)
        np.testing.assert_allclose(out.coefficients, [0, 2])

    def test_inverse_weights(self):
        out = index_weighted(as_series([1, 1, 1]), -1.0)
        np.testing.assert_allclose(out.coefficients, [1, 0.5, 1 / 3])
