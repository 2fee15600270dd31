import math

import numpy as np
import pytest

from tsl import verify
from tsl.constructor import ConstructionSpec, Regime, Schedule, construct, visit_set
from tsl.errors import DomainError
from tsl.polybank import TargetEntry, TargetEnumeration
from tsl.series import CoefficientSeries, ShiftParams, apply_shift_power
from tsl.means import effective_degree
from tsl.verify import check_visit, truncation_tail_bound

DEGREE = 1 << 12


def half_targets(count=4, degree=1):
    """Every slot holds (1 + z)/2 (or the constant 1) with l_k = 2: test circles of radius 1/2."""
    if degree == 1:
        exact, coeffs = ((1, 0, 2), (1, 0, 2)), [0.5, 0.5]
    else:
        exact, coeffs = ((1, 0, 1),), [1.0]
    entry = TargetEntry(
        exact=exact,
        series=CoefficientSeries(np.array(coeffs, dtype=np.complex128)),
        l_bound=2,
        degree=degree,
    )
    return TargetEnumeration((entry,) * count)


def spec_at(alpha, max_degree):
    return ConstructionSpec(
        alpha=alpha, gamma=0.5, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=max_degree
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
        bound = truncation_tail_bound(spec_at(alpha, DEGREE), targets, s, 0.5, DEGREE, cut)
        assert missed_mass(alpha, s, cut, degree) <= bound

    def test_dropped_block_at_the_last_index_counts(self):
        # block 12 = [4096, 8191] is dropped whole, so f_4096 = 0 while the
        # planned function's coefficient there is +-1
        targets = half_targets(degree=0)
        bound = truncation_tail_bound(spec_at(0.0, DEGREE), targets, DEGREE, 0.5, DEGREE, DEGREE + 1)
        assert bound >= missed_mass(0.0, DEGREE, DEGREE + 1, degree=0) >= 1.0

    def test_cut_must_follow_s(self):
        with pytest.raises(DomainError):
            truncation_tail_bound(spec_at(0.0, DEGREE), half_targets(), 100, 0.5, DEGREE, 100)


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
            full += truncation_tail_bound(spec, targets, s, 0.5, DEGREE, DEGREE + 1)
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
        entry = TargetEntry(
            exact=((1, 0, 1),),
            series=CoefficientSeries(np.ones(1, dtype=np.complex128)),
            l_bound=l_bound,
            degree=0,
        )
        targets = TargetEnumeration((entry,) * 4)
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
        tail = truncation_tail_bound(spec, targets, s, radius, spec.max_degree, s + d + 1)
        sampled = check_visit(CoefficientSeries(a), spec, targets, 1, s) - tail
        assert (1.0 - math.pi * d / n) * dense <= sampled <= dense * (1.0 + 1e-12)

    def test_bound_starts_after_the_window(self, monkeypatch):
        targets = half_targets()
        spec = spec_at(0.0, DEGREE)
        f, _ = construct(spec, targets)
        cuts = []

        def spy(spec, targets, s, radius, max_degree, cut):
            cuts.append((s, cut))
            return 1.0

        monkeypatch.setattr(verify, "truncation_tail_bound", spy)
        assert check_visit(f, spec, targets, 1, 1024) >= 1.0
        assert check_visit(f, spec, targets, 1, 4090) >= 1.0
        # effective degree 60 at radius 1/2; the window stops at max_degree
        assert cuts == [(1024, 1024 + 61), (4090, DEGREE + 1)]
