import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsl import series as series_module
from tsl.errors import DomainError
from tsl.series import (
    MAX_SERIES_DEGREE,
    CoefficientSeries,
    ShiftParams,
    apply_shift,
    apply_shift_power,
)

ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def series_of(*coeffs):
    return CoefficientSeries(np.array(coeffs, dtype=np.complex128))


class TestApplyShift:
    def test_unweighted_backward_shift(self):
        out = apply_shift(series_of(0, 1), ShiftParams(0.0))
        assert out.max_degree == 0
        assert out.coefficients[0] == 1

    def test_constant_maps_to_zero(self):
        out = apply_shift(series_of(5), ShiftParams(1.7))
        assert out.max_degree == 0
        assert out.coefficients[0] == 0

    def test_weighted_square(self):
        out = apply_shift(series_of(0, 0, 1), ShiftParams(1.0))
        np.testing.assert_allclose(out.coefficients, [0, 1.5])

    def test_degree_drops_by_one(self):
        out = apply_shift(series_of(1, 2, 3, 4), ShiftParams(0.3))
        assert out.max_degree == 2


class TestShiftPower:
    def test_monomial_telescopes(self):
        z5 = series_of(0, 0, 0, 0, 0, 1)
        out = apply_shift_power(z5, 5, ShiftParams(1.0))
        np.testing.assert_allclose(out.coefficients, [6.0])

    def test_zero_power_is_identity(self):
        s = series_of(1, 2j, 3)
        assert apply_shift_power(s, 0, ShiftParams(0.5)) is s

    def test_power_past_degree_gives_zero(self):
        out = apply_shift_power(series_of(1, 2), 7, ShiftParams(1.0))
        assert out.max_degree == 0 and out.coefficients[0] == 0

    def test_matches_iterated_single_steps(self):
        rng = np.random.Generator(np.random.PCG64(7))
        coeffs = rng.standard_normal(65) + 1j * rng.standard_normal(65)
        s = CoefficientSeries(coeffs)
        for alpha in ALPHAS:
            params = ShiftParams(alpha)
            stepped = s
            for n in range(1, 33):
                stepped = apply_shift(stepped, params)
                closed = apply_shift_power(s, n, params)
                diff = np.abs(closed.coefficients - stepped.coefficients)
                scale = np.maximum(np.abs(closed.coefficients), 1e-300)
                assert float((diff / scale).max()) < 1e-12

    def test_evaluation_compatibility(self):
        rng = np.random.Generator(np.random.PCG64(11))
        coeffs = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        s = CoefficientSeries(coeffs)
        for alpha in ALPHAS:
            for n in (0, 1, 5, 20):
                got = apply_shift_power(s, n, ShiftParams(alpha)).coefficients[0]
                want = coeffs[n] * (n + 1.0) ** alpha
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@st.composite
def small_series(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    vals = draw(
        st.lists(
            st.tuples(
                st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
            ),
            min_size=n,
            max_size=n,
        )
    )
    return CoefficientSeries(np.array([complex(a, b) for a, b in vals]))


# edge values of float64: signed zeros, subnormals, the largest finite values
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7976931348623157e308]


@st.composite
def sparse_series(draw):
    """A series with a drawn support, so zero runs and trailing zeros occur."""
    n = draw(st.integers(min_value=0, max_value=40))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_VALUES)
    )
    a = np.zeros(n + 1, dtype=np.complex128)
    for j in draw(st.sets(st.integers(min_value=0, max_value=n), max_size=n + 1)):
        a[j] = complex(draw(value), draw(value))
    return CoefficientSeries(a)


class TestProperties:
    @settings(max_examples=80, derandomize=True)
    @given(s=small_series(), t=small_series(), alpha=st.sampled_from(ALPHAS))
    def test_linearity(self, s, t, alpha):
        n = max(s.max_degree, t.max_degree) + 1
        a = np.zeros(n, dtype=np.complex128)
        a[: len(s.coefficients)] = s.coefficients
        b = np.zeros(n, dtype=np.complex128)
        b[: len(t.coefficients)] = t.coefficients
        params = ShiftParams(alpha)
        lhs = apply_shift(CoefficientSeries(a + b), params).coefficients
        rhs = (
            apply_shift(CoefficientSeries(a), params).coefficients
            + apply_shift(CoefficientSeries(b), params).coefficients
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-14 * max(1.0, float(np.abs(rhs).max())))

    @settings(max_examples=60, derandomize=True)
    @given(s=small_series(), n=st.integers(0, 8), alpha=st.sampled_from(ALPHAS))
    def test_closed_form_matches_iteration(self, s, n, alpha):
        params = ShiftParams(alpha)
        stepped = s
        for _ in range(n):
            stepped = apply_shift(stepped, params)
        closed = apply_shift_power(s, n, params)
        np.testing.assert_allclose(
            closed.coefficients, stepped.coefficients, rtol=1e-12, atol=1e-12
        )


class TestInvariantsAndJson:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            CoefficientSeries(np.array([np.nan + 0j]))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            CoefficientSeries(np.array([], dtype=np.complex128))

    def test_length_tracks_degree(self):
        s = series_of(1, 0, 0)  # trailing zeros preserved
        assert s.max_degree == 2

    def test_immutable(self):
        s = series_of(1, 2)
        with pytest.raises(ValueError):
            s.coefficients[0] = 9

    def test_constructor_copies_its_input(self):
        a = np.array([1.0, 2.0 + 1j, 0.0])
        s = CoefficientSeries(a)
        a[:] = np.nan
        assert a.flags.writeable
        np.testing.assert_array_equal(s.coefficients, [1.0, 2.0 + 1j, 0.0])

    def test_json_round_trip(self):
        s = series_of(1 + 2j, -0.5, 0, 3j, 0)
        obj = s.to_json_obj()
        assert obj == {"max_degree": 4, "terms": [[0, 1.0, 2.0], [1, -0.5, 0.0], [3, 0.0, 3.0]]}
        back = CoefficientSeries.from_json_obj(obj)
        np.testing.assert_array_equal(back.coefficients, s.coefficients)

    @settings(max_examples=150, derandomize=True)
    @given(s=sparse_series())
    @example(s=CoefficientSeries.zero(0))
    @example(s=CoefficientSeries.zero(17))
    @example(s=series_of(2.5 - 1j))
    @example(s=series_of(1, 0, 0, 0))
    @example(s=series_of(0, 1j, 0, -2j, 0))
    @example(s=series_of(5e-324, complex(0, -5e-324), 2.2e-308))
    @example(s=series_of(1.7976931348623157e308, complex(-1e308, 1e308), 0))
    def test_json_text_round_trip(self, s):
        text = json.dumps(s.to_json_obj())
        obj = json.loads(text)
        back = CoefficientSeries.from_json_obj(obj)
        assert back.max_degree == s.max_degree
        assert np.array_equal(back.coefficients, s.coefficients)
        j = [t[0] for t in obj["terms"]]
        assert j == np.flatnonzero(s.coefficients).tolist()

    def test_json_negative_zero_reads_back_positive(self):
        s = series_of(complex(-0.0, -0.0), 1)
        back = CoefficientSeries.from_json_obj(json.loads(json.dumps(s.to_json_obj())))
        assert np.array_equal(back.coefficients, s.coefficients)
        assert not np.signbit(back.coefficients[0].real)

    def test_json_rejects_degree_mismatch(self):
        with pytest.raises(DomainError):
            CoefficientSeries.from_json_obj({"max_degree": 5, "terms": [[6, 1.0, 0.0]]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"max_degree": 0},
            {"terms": [[0, 1.0, 0.0]]},
            {"max_degree": 0, "terms": [[0, 1.0]]},
            {"max_degree": 0, "terms": [[0, 1.0, 0.0, 2.0]]},
            {"max_degree": 0, "terms": [0, 1.0, 0.0]},
            {"max_degree": 0, "terms": {"0": [1.0, 0.0]}},
            {"max_degree": 1, "terms": [[1.0, 1.0, 0.0]]},
            {"max_degree": 1, "terms": [[True, 1.0, 0.0]]},
            {"max_degree": 2, "terms": [[1, 1.0, 0.0], [0, 1.0, 0.0]]},
            {"max_degree": 2, "terms": [[1, 1.0, 0.0], [1, 2.0, 0.0]]},
            {"max_degree": 1, "terms": [[2, 1.0, 0.0]]},
            {"max_degree": 1, "terms": [[-1, 1.0, 0.0]]},
            {"max_degree": 0, "terms": [[0, "a", 0.0]]},
            {"max_degree": 0, "terms": [[0, 1.0, None]]},
            {"max_degree": 0, "terms": [[0, float("inf"), 0.0]]},
            {"max_degree": 0, "terms": [[0, 0.0, float("nan")]]},
            {"max_degree": 0, "terms": [[0, 10**400, 0.0]]},
            {"max_degree": "one", "terms": [[0, 1.0, 0.0]]},
            {"max_degree": 2.7, "terms": [[0, 1.0, 0.0]]},
            {"max_degree": 2.0, "terms": [[0, 1.0, 0.0]]},
            {"max_degree": True, "terms": [[0, 1.0, 0.0]]},
            {"max_degree": -1, "terms": []},
            {"max_degree": 10**30, "terms": []},
            {"max_degree": 0, "coefficients": [[1.0, 0.0]]},
            [[0, 1.0, 0.0]],
            None,
        ],
    )
    def test_json_rejects_malformed_shape(self, obj):
        with pytest.raises(DomainError):
            CoefficientSeries.from_json_obj(obj)

    def test_json_degree_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(series_module, "MAX_SERIES_DEGREE", 64)
        assert CoefficientSeries.from_json_obj({"max_degree": 64, "terms": []}).max_degree == 64
        with pytest.raises(DomainError, match="series limit 64"):
            CoefficientSeries.from_json_obj({"max_degree": 65, "terms": []})

    def test_json_degree_above_limit_fails_before_allocating(self):
        obj = {"max_degree": MAX_SERIES_DEGREE + 1, "terms": [[0, 1.0, 0.0]]}
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="series limit"):
                CoefficientSeries.from_json_obj(obj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the dense array would take 256 MiB

    def test_json_dense_format_names_the_sparse_one(self):
        with pytest.raises(DomainError, match='"terms"') as exc:
            CoefficientSeries.from_json_obj({"max_degree": 1, "coefficients": [[1.0, 0.0], [0.0, 0.0]]})
        assert "tsl construct" in str(exc.value) and "\n" not in str(exc.value)


class TestShiftPowerWindow:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n, length", [(0, 3), (0, 50), (2, 1), (5, 4), (5, 100), (9, 1)])
    def test_window_is_prefix_of_full_power(self, alpha, n, length):
        s = CoefficientSeries(np.arange(1, 11, dtype=np.complex128) * (1 - 0.5j))
        full = apply_shift_power(s, n, ShiftParams(alpha)).coefficients
        window = apply_shift_power(s, n, ShiftParams(alpha), length=length).coefficients
        assert np.array_equal(window, full[:length])

    def test_rejects_empty_window(self):
        with pytest.raises(DomainError):
            apply_shift_power(series_of(1, 2, 3), 1, ShiftParams(0.0), length=0)
