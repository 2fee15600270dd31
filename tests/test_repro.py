import pytest

from tsl.constructor import ConstructionSpec, Regime, Schedule
from tsl.polybank import enumerate_targets
from tsl.repro import DEFAULT_SEED, REGISTRY, _ln_inverse_gap, _planned_l2_fit, run_named


@pytest.mark.parametrize("name", list(REGISTRY))
def test_named_check_passes(name):
    report = REGISTRY[name](DEFAULT_SEED)
    assert report["name"] == name
    assert report["passed"], report


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
    slope, _, _ = _planned_l2_fit(spec, enumerate_targets(64), 200, 180, _ln_inverse_gap)
    assert abs(slope - (report["expected"] - 0.125)) <= report["band"]
    assert abs(slope - report["expected"]) > report["band"]
