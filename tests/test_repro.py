import pytest

from tsl.repro import DEFAULT_SEED, REGISTRY, run_named


@pytest.mark.parametrize("name", list(REGISTRY))
def test_named_check_passes(name):
    report = REGISTRY[name](DEFAULT_SEED)
    assert report["name"] == name
    assert report["passed"], report


def test_unknown_name():
    with pytest.raises(KeyError):
        run_named("no-such-check")
