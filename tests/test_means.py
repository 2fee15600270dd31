import json
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsl import means as means_module
from tsl.cli import main
from tsl.constructor import (
    ConstructionSpec,
    Regime,
    Schedule,
    construct,
    plan_blocks,
    quadratic_schedule,
)
from tsl.errors import DomainError
from tsl.means import (
    RadialMeansTable,
    _dyadic_eps,
    _ln_block_integral,
    _position_sums,
    _support,
    circle_mean,
    conjugate_exponent,
    critical_exponent,
    dyadic_mean2_profile,
    dyadic_radii,
    effective_degree,
    means_table,
)
from tsl.polybank import enumerate_targets, index_weighted
from tsl.series import CoefficientSeries
from unit_targets import uniform_unit_targets

RADII = (0.5, 1.0 - 2.0**-4, 1.0 - 2.0**-8, 0.999)


def random_series(degree, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return CoefficientSeries(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


def next_pow2(n):
    return 1 << (n - 1).bit_length()


class TestEffectiveDegree:
    @pytest.mark.parametrize("r", RADII + (0.1, 0.9, 1.0 - 2.0**-20))
    def test_last_index_above_cutoff(self, r):
        d = effective_degree(r, 1 << 40)
        assert r**d >= 2.0**-60 > r ** (d + 1)

    def test_half(self):
        assert effective_degree(0.5, 1000) == 60

    @pytest.mark.parametrize("j", (4, 8, 12, 17))
    def test_dyadic_radius_scale(self, j):
        d = effective_degree(1.0 - 2.0**-j, 1 << 40)
        assert d == pytest.approx(60.0 * math.log(2.0) * 2.0**j, rel=2.0**-j)

    def test_capped_and_endpoints(self):
        assert effective_degree(0.999, 100) == 100
        assert effective_degree(1.0, 77) == 77
        assert effective_degree(0.0, 77) == 0

    @pytest.mark.parametrize("r", (-0.1, 1.5, math.nan))
    def test_rejects_radius(self, r):
        with pytest.raises(DomainError):
            effective_degree(r, 10)


def _horner(coeffs, z):
    acc = mp.mpc(0)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def stacked_samples(coeffs, r):
    """The unstrided p = inf phase blocks, assembled into circle order: value k at r exp(2 pi i k / N)."""
    nonzero, last, _ = _support(coeffs)
    chunks = means_module._phase_blocks(coeffs, (nonzero, last, 1), math.inf, r)
    return np.vstack(list(chunks)).T.reshape(-1)


def direct_mean(coeffs, p, r):
    """The L^p mean of np.polyval at circle_mean's own N points, N = 4 or 8 * next_pow2(D + 1)."""
    d = effective_degree(r, len(coeffs) - 1)
    size = (8 if p == math.inf else 4) * next_pow2(d + 1)
    vals = np.abs(np.polyval(coeffs[: d + 1][::-1], r * np.exp(2j * np.pi * np.arange(size) / size)))
    return vals.max() if p == math.inf else np.mean(vals**p) ** (1.0 / p)


class TestPhaseBlocks:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        degree=st.integers(0, 2000),
        seed=st.integers(0, 2**32 - 1),
        r=st.sampled_from(RADII),
        data=st.data(),
    )
    def test_matches_high_precision_horner(self, degree, seed, r, data):
        coeffs = random_series(degree, seed).coefficients
        values = stacked_samples(coeffs, r)
        size = 8 * next_pow2(effective_degree(r, degree) + 1)
        assert values.shape == (size,)
        tol = 1e-12 * float(np.sum(np.abs(coeffs) * r ** np.arange(degree + 1)))
        with mp.workdps(40):
            exact = [mp.mpc(float(c.real), float(c.imag)) for c in coeffs]
            for k in data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3), label="k"):
                z = mp.mpf(r) * mp.expjpi(mp.mpf(2 * k) / size)
                assert abs(_horner(exact, z) - mp.mpc(values[k])) <= tol

    def test_default_size(self):
        coeffs = random_series(1000, 1).coefficients
        assert len(stacked_samples(coeffs, 0.5)) == 8 * next_pow2(61)
        assert len(stacked_samples(coeffs, 0.999)) == 8 * next_pow2(1001)

    def test_radius_zero_is_constant_term(self):
        coeffs = random_series(50, 2).coefficients
        values = stacked_samples(coeffs, 0.0)
        assert len(values) == 8 and np.all(values == coeffs[0])
        for p in (1.0, 1.5, 2.0, math.inf):
            assert circle_mean(coeffs, p, 0.0) == pytest.approx(abs(coeffs[0]), rel=1e-15)


class TestCircleMean:
    @pytest.mark.parametrize("p", (1.0, 1.5, 2.0, math.inf))
    @pytest.mark.parametrize("r", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("degree", (0, 37, 300))
    def test_matches_direct_evaluation(self, p, r, degree):
        coeffs = random_series(degree, degree + 17).coefficients
        assert circle_mean(coeffs, p, r) == pytest.approx(direct_mean(coeffs, p, r), rel=1e-12)

    def test_p2_on_the_unit_circle_is_parseval(self):
        a = random_series(3000, 3).coefficients
        assert circle_mean(a, 2.0, 1.0) == pytest.approx(math.sqrt(float(np.sum(np.abs(a) ** 2))), rel=1e-13)

    @pytest.mark.parametrize("p", (0.5, 0.0, -1.0, math.nan, -math.inf))
    def test_rejects_p_below_one(self, p):
        with pytest.raises(DomainError):
            circle_mean(np.ones(4, dtype=np.complex128), p, 0.5)

    @pytest.mark.parametrize("r", (-0.1, 1.5, math.nan, math.inf))
    def test_rejects_radius_outside_the_closed_disc(self, r):
        with pytest.raises(DomainError):
            circle_mean(np.ones(4, dtype=np.complex128), 1.0, r)

    def test_takes_no_size(self):
        # the point count is derived from the input; no caller passes one
        with pytest.raises(TypeError):
            circle_mean(np.ones(4, dtype=np.complex128), 1.0, 0.5, 4096)
        with pytest.raises(TypeError):
            circle_mean(np.ones(4, dtype=np.complex128), 1.0, 0.5, quadrature_size=4096)


class TestMeanRows:
    def test_p2_rows_are_parseval(self):
        series = random_series(3000, 3)
        a = series.coefficients
        j = np.arange(len(a), dtype=np.float64)
        table = means_table(series, [2.0], list(RADII))
        for row in table.rows:
            parseval = math.sqrt(float(np.sum(np.abs(a * np.exp(j * math.log(row.r))) ** 2)))
            assert row.value == parseval
            assert row.quadrature_size == 0

    def test_default_size_follows_radius(self):
        series = random_series(3000, 4)
        table = means_table(series, [1.0, math.inf], list(RADII))
        for row in table.rows:
            factor = 8 if row.p == math.inf else 4
            d = effective_degree(row.r, series.max_degree)
            assert row.quadrature_size == next_pow2(factor * (d + 1))
        sizes = [row.quadrature_size for row in table.at_p(1.0)]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    @pytest.mark.parametrize("p", (1.0, 1.5, math.inf))
    def test_explicit_size_honoured(self, p):
        # each row is the mean of direct evaluations at its own quadrature_size points
        series = random_series(300, 5)
        for row in means_table(series, [p], [0.5, 0.9]).rows:
            size = row.quadrature_size
            z = np.exp(2j * np.pi * np.arange(size) / size)
            vals = np.abs(np.polyval(series.coefficients[::-1], row.r * z))
            ref = vals.max() if p == math.inf else np.mean(vals**p) ** (1.0 / p)
            assert row.value == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("p", (1.0, 1.5, math.inf))
    def test_phase_blocks_reduce_like_the_stacked_samples(self, p):
        # at r = 0.99 the 301-long window takes 2048 points in four phase-shifted
        # FFTs (4096 in eight at p = inf); the stacked samples are the p = inf
        # points, so at finite p the row's points are every other sample
        series = random_series(300, 9)
        rows = means_table(series, [p], [0.5, 0.99]).rows
        assert rows[-1].quadrature_size == (4096 if p == math.inf else 2048)
        for row in rows:
            samples = stacked_samples(series.coefficients, row.r)
            vals = np.abs(samples[:: len(samples) // row.quadrature_size])
            assert len(vals) == row.quadrature_size
            if p == math.inf:
                assert row.value == vals.max()
            else:
                assert row.value == pytest.approx(np.mean(vals**p) ** (1.0 / p), rel=1e-12)

    def test_size_below_full_degree_floor_rejected(self):
        # the FFT size is derived from the series; no caller sets it
        series = random_series(1000, 6)
        with pytest.raises(TypeError):
            means_table(series, [math.inf], [0.5], quadrature_size=4004)

    def test_rejects_radius_outside_disc(self):
        series = random_series(10, 7)
        for r in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                means_table(series, [1.0], [0.5, r])

    def test_trailing_zeros_do_not_change_the_rows(self):
        trimmed = random_series(700, 10)
        padded = CoefficientSeries(np.concatenate([trimmed.coefficients, np.zeros(1300)]))
        radii = [0.5, 0.99, 0.999, 0.9999]
        rows = means_table(trimmed, [1.0, 2.0, math.inf], radii).rows
        again = means_table(padded, [1.0, 2.0, math.inf], radii).rows
        for row, other in zip(rows, again):
            assert (row.p, row.r, row.quadrature_size) == (other.p, other.r, other.quadrature_size)
            assert other.value == pytest.approx(row.value, rel=1e-12)
        assert len(stacked_samples(padded.coefficients, 0.9999)) == 8 * next_pow2(701)
        for p in (1.0, 2.0, math.inf):
            assert circle_mean(padded.coefficients, p, 1.0) == circle_mean(trimmed.coefficients, p, 1.0)

    @pytest.mark.parametrize("p", (1.0, 2.0, math.inf))
    def test_zero_series_means_zero(self, p):
        series = CoefficientSeries.zero(500)
        for row in means_table(series, [p], [0.5, 0.999]).rows:
            assert row.value == 0.0
        assert circle_mean(series.coefficients, p, 1.0) == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        degree=st.integers(0, 5000),
        density=st.sampled_from([0.0, 0.001, 0.05, 0.5]),
        seed=st.integers(0, 2**32 - 1),
        r=st.sampled_from(RADII),
    )
    def test_sparse_p2_rows_match_dense_parseval(self, degree, density, seed, r):
        mask = np.random.Generator(np.random.PCG64([seed, 1])).random(degree + 1) < density
        a = random_series(degree, seed).coefficients * mask
        series = CoefficientSeries(a)
        j = np.arange(len(a), dtype=np.float64)
        (row,) = means_table(series, [2.0], [r]).rows
        dense = math.sqrt(float(np.sum(np.abs(a * np.exp(j * math.log(r))) ** 2)))
        assert abs(row.value - dense) <= 1e-15 * dense

    @pytest.mark.parametrize("r", (0.5, 0.99, 0.999))
    def test_sampled_sup_within_bernstein_factor(self, r):
        # degree-D polynomial sampled at N points: sup <= max / (1 - pi D / N)
        a = random_series(2000, 11).coefficients.copy()
        a[1000:] = 0.0
        series = CoefficientSeries(a)
        (row,) = means_table(series, [math.inf], [r]).rows
        d = effective_degree(r, 999)
        assert row.quadrature_size == next_pow2(8 * (d + 1))
        z = np.exp(2j * np.pi * np.arange(4 * row.quadrature_size) / (4 * row.quadrature_size))
        dense = float(np.abs(np.polyval(a[:1000][::-1], r * z)).max())
        assert row.value <= dense * (1.0 + 1e-12)
        assert row.value >= (1.0 - math.pi * d / row.quadrature_size) * dense

    @pytest.mark.parametrize("spelling", ["inf", "Infinity", "INF"])
    def test_csv_round_trip(self, spelling):
        series = random_series(500, 8)
        table = means_table(series, [1.0, 2.0, math.inf], [0.3, 0.5, 0.99])
        text = table.to_csv()
        assert text.count("\ninf,") == 3
        again = RadialMeansTable.from_csv(text.replace("\ninf,", f"\n{spelling},"))
        assert again == table
        assert table.to_csv().splitlines()[0] == "p,r,value,quadrature_size"

    def test_rows_sorted_by_p_then_r_with_inf_last(self):
        table = means_table(random_series(200, 3), [math.inf, 2.0, 1.5, 1.0, 2.0], [0.9, 0.3])
        # the key the rows were sorted by when p = inf needed its own component
        old_key = [(row.p == math.inf, row.p, row.r) for row in table.rows]
        assert len(old_key) == 8 and old_key == sorted(old_key)
        assert [row.p for row in table.rows[::2]] == [1.0, 1.5, 2.0, math.inf]
        with pytest.raises(DomainError, match="sorted"):
            RadialMeansTable((table.rows[-1], table.rows[0]))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "p,r,value\n2,0.5,1.0\n",
            "p,r,value,quadrature_size\n2,0.5,1.0\n",
            "p,r,value,quadrature_size\n2,half,1.0,0\n",
            "p,r,value,quadrature_size\n2,0.5,1.0,0.5\n",
            "p,r,value,quadrature_size\n2,0.5,1.0,0,7\n",
            "p,r,value,quadrature_size\n2,1.5,1.0,0\n",
            "p,r,value,quadrature_size\n2,1,1.0,0\n",
            "p,r,value,quadrature_size\n2,0.5,1.0,-1\n",
            "p,r,value,quadrature_size\n2,0.5,1.0,0\n2,0.5,1.0,0\n",
        ],
    )
    def test_csv_rejects_malformed_shape(self, text):
        with pytest.raises(DomainError):
            RadialMeansTable.from_csv(text)


def lattice_series(stride, residue, terms, seed):
    """Complex normal coefficients at residue, residue + stride, ..., zeros elsewhere."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = np.zeros(residue + stride * (terms - 1) + 1, dtype=np.complex128)
    a[residue::stride] = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    return CoefficientSeries(a)


def lattice_moduli(coeffs, stride, residue, r, size):
    """|P(r w)| at every w = exp(2 pi i k / size) by np.polyval, P(z) = z**residue Q(z**stride)."""
    k = np.arange(size)
    z_stride = r**stride * np.exp(2j * np.pi * ((k * stride) % size) / size)
    return np.abs(np.polyval(coeffs[residue::stride][::-1], z_stride)) * r**residue


@pytest.fixture
def fft_points(monkeypatch):
    """The points of every inverse FFT call `tsl.means` runs, rows times length, in call order."""
    seen = []
    ifft = np.fft.ifft

    def spy(a, n=None, *args, **kwargs):
        seen.append(len(a) * n)
        return ifft(a, n, *args, **kwargs)

    monkeypatch.setattr(means_module.np.fft, "ifft", spy)
    return seen


@pytest.fixture(scope="module")
def growth_series():
    """The growth benchmark's shape: 8 constant-one targets, RS, dyadic, gamma = 1/2, 2**18."""
    spec = ConstructionSpec(
        alpha=0.0, gamma=0.5, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=1 << 18
    )
    series, _ = construct(spec, uniform_unit_targets(8))
    return series


class TestStridedSampling:
    """A series on one residue class mod a power of two g is sampled at N / g points."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        shift=st.integers(1, 6),
        residue=st.integers(0, 63),
        terms=st.integers(1, 2049),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shift=2, residue=3, terms=2049, seed=7)  # degree 4095
    @example(shift=6, residue=63, terms=2049, seed=8)  # degree 4095
    def test_rows_match_direct_evaluation(self, shift, residue, terms, seed):
        stride = 1 << shift
        residue %= stride
        terms = min(terms, (4096 - residue) // stride + 1)  # degree <= 4096
        series = lattice_series(stride, residue, terms, seed)
        a, ps = series.coefficients, (1.0, 1.5, 3.0, math.inf)
        table = means_table(series, list(ps), [0.5, 0.99, 0.999])
        for r in (0.5, 0.99, 0.999, 1.0):
            d = effective_degree(r, len(a) - 1)
            top = 8 * next_pow2(d + 1)  # the p = inf row's points; finite p takes every other
            moduli = lattice_moduli(a[: d + 1], stride, residue, r, top)
            for p in ps:
                size = (8 if p == math.inf else 4) * next_pow2(d + 1)
                if r < 1.0:
                    (row,) = [row for row in table.at_p(p) if row.r == r]
                    assert row.quadrature_size == size
                    assert circle_mean(a, p, r) == row.value  # the rows' own reduction
                value = circle_mean(a, p, r)
                vals = moduli[:: top // size]
                ref = vals.max() if p == math.inf else np.mean(vals**p) ** (1.0 / p)
                assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
            # the sampled sup stays inside the Bernstein bracket of a 4x finer dense grid
            dilated = a[: d + 1] * r ** np.arange(d + 1)
            dense = float(np.abs(np.fft.ifft(dilated, n=4 * top, norm="forward")).max())
            sup = value  # the p = inf value, last in ps
            assert (1.0 - math.pi * d / top) * dense <= sup <= dense * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", (1.0, math.inf))
    def test_growth_rows_transform_a_quarter_of_their_points(self, growth_series, fft_points, p):
        for r in dyadic_radii(1 << 18):
            fft_points.clear()
            (row,) = means_table(growth_series, [p], [r]).rows
            assert 0 < sum(fft_points) <= row.quadrature_size // 4
        # every nonzero index of the 2**18 growth series is 0 mod 4
        assert _support(growth_series.coefficients)[2] == 4

    def test_off_lattice_coefficient_takes_every_point(self, growth_series, fft_points):
        a = growth_series.coefficients.copy()
        a[17] = 1e-3
        support = _support(a)
        assert support[2] == 1
        for p in (1.0, 1.5, math.inf):
            for r in (0.5, 0.99, 1.0 - 2.0**-12):
                fft_points.clear()
                (row,) = means_table(CoefficientSeries(a), [p], [r]).rows
                assert sum(fft_points) == row.quadrature_size
                # the stride-1 phase blocks, reduced as the unstrided sampler reduces them
                chunks = means_module._phase_blocks(a, support, p, r)
                if p == math.inf:
                    assert row.value == max(float(np.abs(chunk).max()) for chunk in chunks)
                else:
                    power_sum = 0.0
                    for chunk in chunks:
                        for block in chunk:
                            power_sum += float(np.sum(np.abs(block) ** p))
                    assert row.value == (power_sum / row.quadrature_size) ** (1.0 / p)

    def test_stride_wider_than_the_window_is_capped(self, fft_points):
        a = np.zeros((1 << 20) + 1, dtype=np.complex128)
        a[0], a[-1] = 1.0 - 2.0j, 3.0
        series = CoefficientSeries(a)
        assert _support(a)[2] == 1 << 20
        for p in (1.0, 1.5, math.inf):
            fft_points.clear()
            (row,) = means_table(series, [p], [0.5]).rows
            # at r = 1/2 the effective degree is 60: the window is the constant term alone
            assert row.quadrature_size == (8 if p == math.inf else 4) * 64
            assert sum(fft_points) == row.quadrature_size // 64
            assert row.value == pytest.approx(abs(a[0]), rel=1e-15)
        # on the unit circle both terms are in reach: z**(2**20) runs over the 8th
        # (p = 1) or 16th (p = inf) roots of unity
        for p, roots in ((1.0, 8), (math.inf, 16)):
            vals = np.abs(a[0] + a[-1] * np.exp(2j * np.pi * np.arange(roots) / roots))
            ref = vals.max() if p == math.inf else np.mean(vals)
            assert circle_mean(a, p, 1.0) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("p", (1.0, 1.5, math.inf))
    def test_zero_and_single_term_series(self, p):
        assert _support(np.zeros(9))[1:] == (0, 1)
        for row in means_table(CoefficientSeries.zero(500), [p], [0.5, 0.99]).rows:
            assert row.value == 0.0
        a = np.zeros(1001, dtype=np.complex128)
        a[700] = 0.5 - 0.25j
        assert _support(a)[1:] == (700, 1)
        series = CoefficientSeries(a)
        low, *rows = means_table(series, [p], [0.5, 0.99, 0.999]).rows
        assert low.value == 0.0  # index 700 is past the effective degree 60 of r = 1/2
        for row in rows:
            assert row.value == pytest.approx(abs(a[700]) * row.r**700, rel=1e-12)
        assert circle_mean(a, p, 1.0) == pytest.approx(abs(a[700]), rel=1e-12)

    def test_circle_mean_of_a_strided_series_transforms_its_share(self, fft_points):
        a = lattice_series(8, 3, 60, 5).coefficients
        assert _support(a)[2] == 8
        for p in (1.0, 2.0, math.inf):
            for r in (0.5, 0.99, 1.0):
                fft_points.clear()
                value = circle_mean(a, p, r)
                d = effective_degree(r, len(a) - 1)
                stride = min(8, next_pow2(d + 1))
                assert sum(fft_points) == (8 if p == math.inf else 4) * next_pow2(d + 1) // stride
                assert value == pytest.approx(direct_mean(a, p, r), rel=1e-12)


def reference_phase_blocks(coeffs, support, p, r):
    """The one-block-per-call sampler: each phase block its own m-point inverse FFT."""
    nonzero, last, stride = support
    degree = effective_degree(r, last)
    stride = min(stride, next_pow2(degree + 1))
    residue = int(nonzero[0]) % stride if nonzero.size else 0
    points = means_module._sample_count(degree, p) // stride
    window = np.asarray(coeffs[residue : degree + 1 : stride], dtype=np.complex128)
    if 0.0 < r < 1.0:
        window = window * np.exp(np.arange(residue, degree + 1, stride) * math.log(r))
    m = next_pow2(max(1, window.size))
    step = np.exp(2j * math.pi / points * np.arange(window.size))
    for _ in range(points // m):
        yield np.fft.ifft(window, n=m, norm="forward")
        window = window * step


def reference_reduce(coeffs, p, r):
    """`reference_phase_blocks` reduced block by block: the max at p = inf, else the power mean."""
    blocks = reference_phase_blocks(coeffs, _support(coeffs), p, r)
    if p == math.inf:
        return max(float(np.abs(block).max()) for block in blocks)
    power_sum, points = 0.0, 0
    for block in blocks:
        power_sum += float(np.sum(np.abs(block) ** p))
        points += block.size
    return (power_sum / points) ** (1.0 / p)


class TestChunkedPhaseBlocks:
    """Chunks of phase blocks in one FFT call reduce to the one-block-per-call bits."""

    @pytest.mark.parametrize("m", (1 << 13, 1 << 14, 1 << 15, 1 << 16))
    @pytest.mark.parametrize("stride", (1, 4))
    def test_reductions_equal_the_block_at_a_time_sampler(self, stride, m):
        # m terms on one residue class: the r = 1 window is m points long
        a = lattice_series(stride, stride - 1, m, m + stride).coefficients
        assert _support(a)[2] == stride
        ps, radii = (1.0, 1.5, 2.0, math.inf), (0.0, 0.5, 0.99, 1.0 - 2.0**-12, 1.0)
        for p in ps:
            for r in radii:
                assert circle_mean(a, p, r) == reference_reduce(a, p, r), (p, r)
        # the p = 2 rows come from Parseval, not from the circle reduction
        table = means_table(CoefficientSeries(a), [1.0, 1.5, math.inf], list(radii[1:-1]))
        for row in table.rows:
            assert row.value == reference_reduce(a, row.p, row.r), (row.p, row.r)

    @pytest.mark.parametrize("m", (1 << 6, 1 << 13, 1 << 15, 1 << 16))
    @pytest.mark.parametrize("stride", (1, 4))
    def test_no_call_transforms_more_than_the_ceiling(self, fft_points, stride, m):
        a = lattice_series(stride, stride - 1, m, m).coefficients
        ceiling = max(m, 1 << 15)
        for p in (1.0, math.inf):
            fft_points.clear()
            circle_mean(a, p, 1.0)
            assert sum(fft_points) == (8 if p == math.inf else 4) * m
            assert max(fft_points) <= ceiling
            assert len(fft_points) == -(-sum(fft_points) // ceiling)  # every chunk but the last full


class TestExponents:
    def test_nan_p_rejected(self):
        with pytest.raises(DomainError):
            conjugate_exponent(math.nan)
        with pytest.raises(DomainError):
            critical_exponent(math.nan, 0.5)

    def test_values(self):
        assert conjugate_exponent(1.0) == math.inf
        assert conjugate_exponent(math.inf) == 1.0
        assert critical_exponent(2.0, 0.5) == 0.25
        for gamma in (0.0, 0.5, 1.0):
            assert critical_exponent(1.0, gamma) == 0.0
        with pytest.raises(DomainError):
            conjugate_exponent(0.5)


class TestDegreeZero:
    def test_dyadic_radii_rejects_degree_zero(self):
        with pytest.raises(DomainError):
            dyadic_radii(0)
        assert dyadic_radii(1) == [0.5]

    def test_cli_means_on_constant_series(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(CoefficientSeries.zero(0).to_json_obj()))
        code = main(["means", "--in", str(path), "--out", str(tmp_path / "means.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "means.csv").exists()


def _gamma_difference(z, lam, v_a, v_b):
    """Gamma(z, lam*v_a) - Gamma(z, lam*v_b), integers v_a < v_b, 40 digits past the cancellation.

    The integrand t**(z-1) e**-t falls, so the difference is at least w
    times its value at a + w, w = min(b - a, 1); that floor bounds the
    digits the subtraction loses.  a and b are formed at the final
    precision, so their difference lam*(v_b - v_a) is not rounded away.
    """
    with mp.workdps(30):
        a = lam * v_a
        w = min(lam * (v_b - v_a), 1)
        floor = w * (a + w) ** (z - 1) * mp.exp(-a - w)
        lost = max(0, int(mp.ceil(mp.log10(mp.gammainc(z, a) / floor))))
    with mp.workdps(40 + lost):
        return mp.gammainc(z, lam * mp.mpf(v_a)) - mp.gammainc(z, lam * mp.mpf(v_b))


def _oracle_ln_block_integral(z, a, x):
    """ln of the integral from 0 to x of (1 + t)**(z-1) e**(-a t) dt, by mp.quad at 40 digits.

    The interval is split at every power of ten and at 1/a, 10/a and 100/a
    inside it, so each piece sees one scale of the power and of the decay.
    """
    with mp.workdps(40):
        z, a, x = mp.mpf(z), mp.mpf(a), mp.mpf(x)
        cuts = [mp.mpf(10) ** k for k in range(-3, 13)] + [1 / a, 10 / a, 100 / a]
        pieces = [mp.mpf(0)] + sorted(t for t in cuts if t < x) + [x]
        return float(mp.log(mp.quad(lambda t: (1 + t) ** (z - 1) * mp.exp(-a * t), pieces)))


def _oracle_eps(j):
    """eps = -ln(1 - 2**-j) at 50 digits, from j alone."""
    with mp.workdps(50):
        return -mp.log1p(-mp.mpf(2) ** -j)


def _oracle_position_sum(lo, gate, budget, j0, alpha, eps, direct_terms=2000):
    """The position sum itself, sum_m v**(-2a) exp(-2 eps (v-1)), at 50 digits.

    v = lo + j0 + 1 + gate*m, m < budget, and eps is a 50-digit number.  At
    alpha = 0 the terms form a geometric series, summed in closed form.
    Where a term is below exp(-1/16) of the one before (2 eps gate >
    1/16) they are summed one by one until they fall below exp(-120) of
    the first.  Otherwise the terms at v < 64 gate are summed one by
    one, and so is everything else when at most `direct_terms` remain;
    past that the rest is Euler-Maclaurin with six derivative
    corrections, through f^(11).  There gate / v <=
    1/64 and 2 eps gate <= 1/16, so the derivatives of log f shrink
    geometrically and the remainder, under the next correction, is
    below 1e-24 of the sum (`test_oracle_series_matches_term_by_term`).
    Its integral is an incomplete-gamma difference (`_gamma_difference`).
    """
    with mp.workdps(50):
        lam = 2 * eps
        v0 = lo + j0 + 1
        s = 2 * mp.mpf(alpha)

        def f(m):
            v = mp.mpf(v0 + gate * m)
            return v**-s * mp.exp(-lam * (v - 1))

        if alpha == 0.0:
            return f(0) * mp.expm1(-lam * gate * budget) / mp.expm1(-lam * gate)
        if lam * gate > mp.mpf(1) / 16:
            return mp.fsum(f(m) for m in range(min(budget, int(120 / (lam * gate)) + 1)))
        head = min(budget, max(0, -(-(64 * gate - v0) // gate)))
        if budget - head <= direct_terms:
            return mp.fsum(f(m) for m in range(budget))
        v_h, v_n = v0 + gate * head, v0 + gate * (budget - 1)
        total = mp.fsum(f(m) for m in range(head))
        total += mp.exp(lam) / gate * lam ** (s - 1) * _gamma_difference(1 - s, lam, v_h, v_n)

        def derivatives(m, n):
            # f^(k) = f * Y_k, Y the complete Bell polynomials of the derivatives of log f
            p = gate / mp.mpf(v0 + gate * m)
            u = [None, -s * p - lam * gate]
            u += [-s * (-1) ** (k - 1) * mp.factorial(k - 1) * p**k for k in range(2, n + 1)]
            y = [mp.mpf(1)]
            for k in range(n):
                y.append(mp.fsum(mp.binomial(k, i) * u[i + 1] * y[k - i] for i in range(k + 1)))
            return [f(m) * yk for yk in y]

        d_h, d_n = derivatives(head, 11), derivatives(budget - 1, 11)
        total += (d_h[0] + d_n[0]) / 2
        for k in range(1, 7):
            total += mp.bernoulli(2 * k) / mp.factorial(2 * k) * (d_n[2 * k - 1] - d_h[2 * k - 1])
        return total


def _rounding_allowance(lo, j0, alpha, eps):
    """Relative float64 rounding allowance around a position-sum bracket.

    Each term or integral the engine adds is exp(y), y a sum of
    -2a ln v, (1 - 2a) ln v, -2 eps (v - 1), -ln gate and ln J, each
    formed within 2 ulps of its own size (ln v from lo's bit length and
    a log1p, 2 eps (v - 1) as a power-of-two scaling of a correctly
    rounded exp).  So y is off by at most 4u (2 ln v0 + 2 eps v0), u =
    2**-53, and exp(y) by that much relative.  On top: 64u for exp
    itself, the evaluation of J (Gauss-Legendre panels of positive terms,
    the cut tail below 2**-60) and summing up to 2**16 positive terms
    pairwise.
    """
    v0 = lo + j0 + 1
    u = 2.0**-53
    return u * (4.0 * (2.0 * math.log(v0) + 2.0 * eps * v0) + 64.0)


def _assert_brackets(lower, upper, exact, allowance):
    assert lower <= upper
    assert lower * (1.0 - allowance) <= exact <= upper * (1.0 + allowance)


def _dyadic_plan(alpha, count, blocks):
    spec = ConstructionSpec(
        alpha=alpha, gamma=0.5, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=1 << 20
    )
    targets = uniform_unit_targets(count)
    return plan_blocks(spec, targets, blocks), targets


class TestPlannedMean:
    # (log2 lo, gate, budget, j0, alpha, j): summed cases, then integral cases
    CASES = [
        (24, 4, 1 << 16, 0, 0.0, 20),  # every term matters: the last summed size
        (18, 6, 1 << 30, 1, 0.25, 10),  # about 64,850 terms matter
        (300, 28, 4000, 2, 0.5, 296),
        (498, 5, 2000, 0, 0.25, 500),
        (20, 4, 1000, 0, 0.0, 200),  # past the flat point
        (30, 7, 3000, 1, 0.5, 120),  # past the flat point
        (408, 4, 100, 0, 0.0, 400),  # exp(-512) times 1 - q**100 alone underflows
        (24, 4, (1 << 16) + 1, 0, 0.0, 20),  # the first integral size
        (24, 4, (1 << 16) + 1, 1, 0.25, 20),
        (24, 4, (1 << 16) + 1, 2, 0.5, 20),
        (300, 4, 1 << 100, 0, 0.0, 296),  # width 2**-194: cancels at 40 digits
        (495, 5, 1 << 200, 0, 0.25, 500),
        (400, 28, 1 << 390, 1, 0.5, 398),
        (30, 4, 1 << 20, 0, 0.25, 100),  # past the flat point
        (60, 4, 1 << 40, 0, 0.0, 200),  # past the flat point
        (1024, 172, (1 << 1024) // 172, 0, 0.5, 1025),  # a block at 2**1024, eps subnormal
        (1024, 172, (1 << 1024) // 172, 0, 0.0, 1040),  # 2 eps gate subnormal too
        # 2 eps lo near 2**7: eps carried as a logarithm put these 1.2e-12 .. 8.8e-12 off
        (1006, 4, 1 << 20, 0, 0.25, 1000),
        (506, 4, 1 << 20, 0, 0.25, 500),
        (306, 4, 1 << 20, 0, 0.5, 300),
    ]
    SUMMED = 7  # CASES[:SUMMED] take the summed or closed-form route

    @pytest.mark.parametrize(
        "e, gate, budget, j0, alpha, j", CASES,
        ids=[
            f"lo2^{c[0]}-a{c[4]}-j{c[5]}-{route}"
            for c, route in zip(CASES, ["sum"] * SUMMED + ["integral"] * len(CASES))
        ],
    )
    def test_position_sum_matches_mpmath(self, e, gate, budget, j0, alpha, j):
        lo = 1 << e
        (lower,), (upper,) = _position_sums(lo, gate, budget, j0, alpha, _dyadic_eps([j]))
        exact = _oracle_position_sum(lo, gate, budget, j0, alpha, _oracle_eps(j))
        assert lower > 0.0
        assert abs(lower - exact) <= 1e-12 * exact
        assert abs(upper - exact) <= 1e-12 * exact

    @pytest.mark.parametrize(
        "e, gate, budget, j0, alpha, j", CASES[:SUMMED],
        ids=[f"lo2^{c[0]}-a{c[4]}-j{c[5]}" for c in CASES[:SUMMED]],
    )
    def test_summed_position_sum_within_1e13(self, e, gate, budget, j0, alpha, j):
        # 2*eps*lo is formed by an exact power-of-two scaling, not exp(ln 2 + ln eps + e ln 2)
        lo = 1 << e
        (lower,), (upper,) = _position_sums(lo, gate, budget, j0, alpha, _dyadic_eps([j]))
        exact = _oracle_position_sum(lo, gate, budget, j0, alpha, _oracle_eps(j))
        assert lower == upper
        assert abs(lower - exact) <= 1e-13 * exact

    @pytest.mark.parametrize(
        "e, alpha, j", [(10, 0.0, 10), (10, 0.25, 10), (10, 0.5, 10), (14, 0.5, 14)]
    )
    def test_integral_route_within_midpoint_bound(self, e, alpha, j):
        # the midpoint integral against the float64 fsum of every term of the sum
        lo, gate, budget, j0 = 1 << e, 4, 1 << 20, 0
        (value,), _ = _position_sums(lo, gate, budget, j0, alpha, _dyadic_eps([j]))
        eps = float(_oracle_eps(j))
        v = lo + j0 + 1 + gate * np.arange(budget, dtype=np.float64)
        exact = math.fsum(np.exp(-2.0 * alpha * np.log(v) - 2.0 * eps * (v - 1.0)).tolist())
        v0 = lo + j0 + 1
        bound = ((2.0 * eps + 2.0 * alpha / v0) * gate) ** 2 / 24.0
        assert abs(value - exact) <= 1.1 * bound * exact

    def test_bracket_holds_the_sum_at_a_wide_gate(self):
        # terms fall by exp(-0.20) per position at first, mostly from the power:
        # the midpoint integral was 6.4e-4 off here
        lo, gate, budget, j0, alpha, j = 1 << 10, 200, 1 << 17, 0, 0.5, 16
        (lower,), (upper,) = _position_sums(lo, gate, budget, j0, alpha, _dyadic_eps([j]))
        eps = float(_oracle_eps(j))
        v = lo + j0 + 1 + gate * np.arange(budget, dtype=np.float64)
        fsum = math.fsum(np.exp(-2.0 * alpha * np.log(v) - 2.0 * eps * (v - 1.0)).tolist())
        exact = _oracle_position_sum(lo, gate, budget, j0, alpha, _oracle_eps(j))
        assert abs(fsum - exact) <= 1e-12 * exact
        _assert_brackets(lower, upper, exact, _rounding_allowance(lo, j0, alpha, eps))
        # width about c**4 / 720 of the sum, c = 2 eps gate + 2 alpha gate / v0
        assert (upper - lower) / exact <= 1e-5

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        e=st.one_of(st.integers(0, 48), st.integers(49, 300)),
        gate=st.integers(1, 200),
        budget_bits=st.floats(2.0, 48.0),
        j0=st.integers(0, 3),
        alpha=st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 0.5)),
        shift=st.integers(-7, 30),
    )
    # block integrals in s: cut at a = 2, uncut at a x = 1, cut at a = 1/8
    @example(e=20, gate=4, budget_bits=30.0, j0=0, alpha=0.25, shift=0)
    @example(e=10, gate=4, budget_bits=17.0, j0=1, alpha=0.5, shift=10)
    @example(e=10, gate=4, budget_bits=20.0, j0=0, alpha=0.375, shift=4)
    def test_bracket_holds_the_high_precision_sum(self, e, gate, budget_bits, j0, alpha, shift):
        # j >= e - 7 keeps 2 eps lo <= 2**9 * 1.4, inside the reach of exp(-760);
        # budgets run from 4 terms to 2**48, across the 2**16 crossover
        j = min(300, max(1, e + shift))
        lo, budget = 1 << e, int(2.0**budget_bits)
        (lower,), (upper,) = _position_sums(lo, gate, budget, j0, alpha, _dyadic_eps([j]))
        # past the flat point the engine evaluates at eps = 2**-k_flat
        k_flat = 61 + (lo + j0 + 1 + gate * budget).bit_length()
        eps = _oracle_eps(j) if j <= k_flat else mp.mpf(2) ** -k_flat
        exact = _oracle_position_sum(lo, gate, budget, j0, alpha, eps)
        _assert_brackets(lower, upper, exact, _rounding_allowance(lo, j0, alpha, float(eps)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        e=st.integers(4, 40),
        gate=st.integers(1, 300),
        budget_bits=st.floats(2.0, 40.0),
        j0=st.integers(0, 3),
        alpha=st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0)),
        extra=st.lists(st.integers(1, 140), max_size=16),
        sample=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
    )
    # every kind in one grid: unreachable (j = 1), summed (j <= 9), bracketed
    # (j >= 10) and flat-clamped (j >= 95) radii, with repeats
    @example(e=10, gate=4, budget_bits=30.0, j0=0, alpha=0.25, extra=[5, 95, 20], sample=[3, 5, 7])
    # 71 bracketed radii of one to three panels each, j = 22 .. 92 (a BLAS product fails here)
    @example(e=30, gate=4, budget_bits=20.0, j0=1, alpha=0.5, extra=list(range(22, 93)), sample=[0, 40])
    def test_grid_equals_each_radius_alone(self, e, gate, budget_bits, j0, alpha, extra, sample):
        lo, budget = 1 << e, int(2.0**budget_bits)
        k_flat = 61 + (lo + j0 + 1 + gate * budget).bit_length()
        grid = [1, 2, max(1, e - 8), e, e + 4, 9, 10, 20, k_flat, k_flat + 1, k_flat + 7, 2**70]
        grid += extra + grid[:3]
        lower, upper = _position_sums(lo, gate, budget, j0, alpha, _dyadic_eps(grid))
        for j, lower_j, upper_j in zip(grid, lower, upper):
            (alone_lower,), (alone_upper,) = _position_sums(lo, gate, budget, j0, alpha, _dyadic_eps([j]))
            assert (lower_j, upper_j) == (alone_lower, alone_upper), j
            assert lower_j <= upper_j
        reached = np.flatnonzero(lower > 0.0)
        for i in sorted({reached[s % reached.size] for s in sample}) if reached.size else []:
            j = grid[i]
            eps = _oracle_eps(j) if j <= k_flat else mp.mpf(2) ** -k_flat
            exact = _oracle_position_sum(lo, gate, budget, j0, alpha, eps)
            _assert_brackets(lower[i], upper[i], exact, _rounding_allowance(lo, j0, alpha, float(eps)))

    def test_oracle_series_matches_term_by_term(self):
        # the oracle's Euler-Maclaurin branch against its own sum of all 20,000 terms
        for alpha in (0.25, 1.0):
            eps = _oracle_eps(14)
            by_parts = _oracle_position_sum(1 << 5, 3, 20000, 0, alpha, eps, direct_terms=0)
            by_terms = _oracle_position_sum(1 << 5, 3, 20000, 0, alpha, eps, direct_terms=20000)
            with mp.workdps(50):
                assert abs(by_parts - by_terms) <= mp.mpf(10) ** -24 * by_terms

    @pytest.mark.parametrize(
        "e, gate, budget, alpha, j",
        [(10, 4, 1 << 20, 0.75, 14), (10, 4, 1 << 20, 1.0, 14), (30, 4, 1 << 20, 1.0, 28)],
    )
    def test_alpha_above_half_matches_mpmath(self, e, gate, budget, alpha, j):
        # z = 1 - 2 alpha < 0; at alpha = 1 the series meets z + k = 0 at k = 1
        lo = 1 << e
        (lower,), (upper,) = _position_sums(lo, gate, budget, 0, alpha, _dyadic_eps([j]))
        eps = _oracle_eps(j)
        exact = _oracle_position_sum(lo, gate, budget, 0, alpha, eps)
        _assert_brackets(lower, upper, exact, _rounding_allowance(lo, 0, alpha, float(eps)))
        assert abs(lower - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("alpha", (-0.25, math.nan, math.inf))
    def test_profile_rejects_alpha_outside_domain(self, alpha):
        # the bracket's direction needs terms that fall with the position
        ledger, targets = _dyadic_plan(0.0, 8, 20)
        with pytest.raises(DomainError):
            dyadic_mean2_profile(ledger, targets, alpha, [3, 5])

    @pytest.mark.parametrize(
        "z, a, x",
        [
            (0.5, 0.5, 1.0),  # x = 1, a x < 1: two panels in s
            (0.0, 1.0, 1.0),  # x = a x = 1: two panels
            (0.5, 1.0, 1.5),  # panels in s
            (-1.0, 0.25, 3.0),
            (0.0, 0.25, 100.0),  # a x = 25, below the cut c / a = 180
            (0.5, 1e-3, 1e5),  # cut at c / a = 5.0e4
            (0.5, 1e-8, 1e8),  # tiny a, a x = 1: the cut c / a = 6.2e9 lies past x
            (0.5, 1e-8, 1e12),  # tiny a, cut at c / a = 6.2e9: about 1,400 panels
            (0.0, 500.0, 1.0),  # a x = 500 at x = 1, cut at c / a = 0.087
            (-3.0, 0.1, 50.0),
            (0.5, 0.5, 1.0 + 2.0**-20),  # x just past 1 with a x < 1
        ],
    )
    def test_block_integral_matches_quadrature(self, z, a, x):
        (ln_j,) = _ln_block_integral(z, np.array([a]), x, math.log(x))
        assert abs(ln_j - _oracle_ln_block_integral(z, a, x)) <= 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        z=st.floats(-3.0, 1.0),
        log_a=st.floats(-8.0, 3.0),
        log_x=st.floats(-3.0, 8.0),
    )
    def test_block_integral_property(self, z, log_a, log_x):
        a, x = 10.0**log_a, 10.0**log_x
        (ln_j,) = _ln_block_integral(z, np.array([a]), x, math.log(x))
        assert abs(ln_j - _oracle_ln_block_integral(z, a, x)) <= 1e-14

    def test_block_integral_ragged_panels_in_one_array(self):
        # one call lays out every a's panels, from one at a = 1e-3 to 52 at a = 100
        z, x = 0.5, 0.9
        a = np.array([1e-3, 0.5, 1.0, 1.0 / 0.9, 1.2, 5.0, 100.0, 1e3])
        ln_j = _ln_block_integral(z, a, x, math.log(x))
        for value, a_i in zip(ln_j, a):
            assert value == _ln_block_integral(z, np.array([a_i]), x, math.log(x))[0]
            assert abs(value - _oracle_ln_block_integral(z, a_i, x)) <= 1e-14

    @pytest.mark.parametrize(
        "e, gate, budget_bits, j0, alpha, j", [(1100, 4, 17, 0, 0.01, 1100), (2100, 28, 18, 1, 0.1, 2101)]
    )
    def test_last_offset_below_the_float_range(self, e, gate, budget_bits, j0, alpha, j):
        # x = gate (N - 1) / v0 rounds to 0: ln x comes from the integers, not from x
        lo, budget = 1 << e, 1 << budget_bits
        assert gate * (budget - 1) / (lo + j0 + 1) < sys.float_info.min
        (lower,), (upper,) = _position_sums(lo, gate, budget, j0, alpha, _dyadic_eps([j]))
        exact = _oracle_position_sum(lo, gate, budget, j0, alpha, _oracle_eps(j))
        assert abs(lower - exact) <= 1e-12 * exact
        assert abs(upper - exact) <= 1e-12 * exact

    def test_unreachable_block_gives_zero(self):
        # 2 eps lo = 2**21 at j = 20: every term is below exp(-760)
        lower, upper = _position_sums(1 << 40, 4, 100, 0, 0.0, _dyadic_eps([20, 40]))
        assert lower[0] == upper[0] == 0.0

    def test_deep_radius_matches_400_digits(self):
        ledger, targets = _dyadic_plan(0.0, 64, 400)
        for j, value in dyadic_mean2_profile(ledger, targets, 0.0, [150, 270]):
            eps = _oracle_eps(j)
            total = mp.mpf(0)
            for rec in ledger.built():
                weighted = index_weighted(targets.entry(rec.k).series, 0.0).coefficients
                for j0 in np.flatnonzero(weighted):
                    if 2 * eps * rec.lo <= 760:
                        s = _oracle_position_sum(
                            rec.lo, rec.gate, rec.budget, int(j0), 0.0, eps
                        )
                        total += abs(weighted[j0]) ** 2 * s
            assert abs(value - mp.sqrt(total)) <= 1e-12 * mp.sqrt(total)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    def test_profile_matches_dense_parseval(self, alpha, gamma):
        # planned blocks from degree 2**16 on weigh below r**(2**17) = exp(-128) at j <= 10
        spec = ConstructionSpec(
            alpha=alpha, gamma=gamma, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=1 << 16
        )
        targets = enumerate_targets(64)
        series, _ = construct(spec, targets)
        j_list = list(range(1, 11))
        dense = means_table(series, [2.0], [1.0 - 2.0**-j for j in j_list])
        planned = dyadic_mean2_profile(plan_blocks(spec, targets, 16), targets, alpha, j_list)
        for row, (_, value) in zip(dense.rows, planned, strict=True):
            assert abs(value - row.value) <= 1e-13 * row.value

    def test_profile_monotone_at_deep_radii(self):
        ledger, targets = _dyadic_plan(0.0, 8, 300)
        values = [v for _, v in dyadic_mean2_profile(ledger, targets, 0.0, list(range(260, 291)))]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rows_in_input_order(self):
        ledger, targets = _dyadic_plan(0.5, 8, 60)
        j_list = [7, 3, 30, 7, 1, 45, 12, 3]
        reference = dict(dyadic_mean2_profile(ledger, targets, 0.5, sorted(set(j_list))))
        rows = dyadic_mean2_profile(ledger, targets, 0.5, j_list)
        assert rows == [(j, reference[j]) for j in j_list]

    def test_rejects_exponent_below_one(self):
        ledger, targets = _dyadic_plan(0.0, 8, 20)
        with pytest.raises(DomainError):
            dyadic_mean2_profile(ledger, targets, 0.0, [3, 0])

    @pytest.mark.parametrize("j", [2.5, 3.0, True, "3", None])
    def test_rejects_exponent_that_is_not_an_integer(self, j):
        # 2.5 was a bare TypeError from math.ldexp; an int64 cast would truncate it to 2
        ledger, targets = _dyadic_plan(0.0, 8, 20)
        with pytest.raises(DomainError):
            _dyadic_eps([3, j])
        with pytest.raises(DomainError):
            dyadic_mean2_profile(ledger, targets, 0.0, [3, j])

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_exponent_past_int64_reads_the_flat_point(self, alpha):
        # every block of this plan is flat well before j = 2000
        ledger, targets = _dyadic_plan(alpha, 8, 60)
        rows = dyadic_mean2_profile(ledger, targets, alpha, [2000, 2**70, np.int64(3000), np.int64(9)])
        assert [j for j, _ in rows] == [2000, 2**70, 3000, 9]
        assert rows[0][1] == rows[1][1] == rows[2][1] > 0.0
        assert rows[3] == dyadic_mean2_profile(ledger, targets, alpha, [9])[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma, blocks", [(0.9, 1128), (0.9, 1500), (0.95, 3000)])
    def test_deep_plans_near_gamma_one_stay_finite(self, gamma, blocks):
        # from block 1128 on at gamma = 0.9, 2 eps gate N at a block's clamped flat radius
        # underflows to 0; its geometric factor h(0) was 0 / 0, read as an overflow
        spec = ConstructionSpec(
            alpha=0.0, gamma=gamma, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=1 << 20
        )
        targets = enumerate_targets(64)
        ledger = plan_blocks(spec, targets, blocks)
        j_flat = blocks + 100  # past every block's flat point, 61 + bit length of its last position
        rows = dyadic_mean2_profile(ledger, targets, 0.0, [*range(1, blocks + 1, 37), j_flat])
        values = [v for _, v in rows]
        assert all(math.isfinite(v) for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))
        # there every r**(2(v - 1)) rounds to 1, so each position weighs 1
        mass = math.fsum(
            abs(c) ** 2 * rec.budget
            for rec in ledger.built()
            for c in index_weighted(targets.entry(rec.k).series, 0.0).coefficients
            if c != 0
        )
        assert abs(values[-1] ** 2 - mass) <= 1e-12 * mass

    def test_profile_past_the_float_range_is_a_domain_error(self):
        # alpha = 0 on the quadratic schedule: at 60 blocks M_2**2 passes the float range by j = 3000
        spec = ConstructionSpec(
            alpha=0.0, gamma=0.0, regime=Regime.RS, schedule=Schedule.U_SCHEDULE,
            max_degree=1 << 20, u=quadratic_schedule,
        )
        targets = enumerate_targets(16)
        with pytest.raises(DomainError):
            dyadic_mean2_profile(plan_blocks(spec, targets, 60), targets, 0.0, [1100, 3000])
