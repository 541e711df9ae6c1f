import pytest

from trapspec import properties
from trapspec.properties import PROPERTY_SUITES, run_suite


@pytest.mark.parametrize("name", sorted(PROPERTY_SUITES))
def test_suite_passes_small(name):
    assert run_suite(name, n=10, seed=1) == []


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_angle_invariant_suite_reraises_bugs(monkeypatch):
    # only an invalid trapezoid (DomainError) shrinks the sample silently
    def broken(**kwargs):
        raise TypeError("broken constructor")

    monkeypatch.setattr(properties, "new_trapezoid", broken)
    with pytest.raises(TypeError, match="broken constructor"):
        properties.angle_invariant_suite(n=1)
