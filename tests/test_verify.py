import numpy as np
import pytest

from tsl import verify
from tsl.constructor import ConstructionSpec, Regime, Schedule, construct, visit_set
from tsl.errors import DomainError
from tsl.polybank import TargetEntry, TargetEnumeration
from tsl.series import CoefficientSeries, ShiftParams, apply_shift_power
from tsl.verify import _VISIT_SAMPLES, check_visit, truncation_tail_bound

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
        size = _VISIT_SAMPLES
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
