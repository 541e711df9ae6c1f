import math

import pytest

from trapspec.eigensolver import compute_spectrum
from trapspec.geometry import new_trapezoid, vertices

# the principal end-to-end reconstruction target
FLAGSHIP = dict(B=2.0, h=1.0, alpha=math.radians(75), beta=math.radians(60))

# lighter companions for the heat-trace fit battery
REFERENCE_TRAPEZOIDS = [
    dict(B=2.0, h=1.2, alpha=math.pi / 3, beta=math.pi / 3),
    dict(B=1.5, h=0.8, alpha=math.pi / 2, beta=0.8727),
    dict(B=1.8, h=0.7, alpha=math.radians(70), beta=math.radians(45)),
    dict(B=1.2, h=0.5, alpha=math.radians(85), beta=math.radians(65)),
]

# session fixtures that solve N=1500 FEM spectra: minutes of setup
FEM_FIXTURES = {"flagship_spectrum", "reference_fem_spectra"}


def pytest_collection_modifyitems(items):
    """Mark tests that need a FEM fixture, so `-m "not fem"` skips their setup."""
    for item in items:
        if FEM_FIXTURES.intersection(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.fem)


@pytest.fixture(scope="session")
def flagship_trapezoid():
    return new_trapezoid(**FLAGSHIP)


@pytest.fixture(scope="session")
def flagship_spectrum(flagship_trapezoid):
    """N=1500 FEM Dirichlet spectrum of the flagship trapezoid (minutes)."""
    return compute_spectrum(
        vertices(flagship_trapezoid), n=1500, mesh_size=0.008, refine_levels=2
    )


@pytest.fixture(scope="session")
def reference_fem_spectra():
    """FEM spectra of the four companion trapezoids at production accuracy."""
    out = []
    for params in REFERENCE_TRAPEZOIDS:
        t = new_trapezoid(**params)
        s = compute_spectrum(vertices(t), n=1500, mesh_size=0.012, refine_levels=2)
        out.append((t, s))
    return out
