"""Computational spectral geometry of non-obtuse trapezoids.

Subpackages cover exact geometry and orbit catalogs, finite-element Laplace
spectra, heat-trace invariant extraction, billiard orbit enumeration,
wave-trace singularity probing, and spectrum-to-shape reconstruction.

Each public name below is imported from its module on first access (PEP 562),
so `import trapspec` loads no module of the package, nor numpy or scipy.
"""

import importlib

# module -> the public names it provides; `errors` is the module itself
_EXPORTS = {
    "errors": ("errors",),
    "billiards": (
        "ClosedGeodesic", "ConicalChain", "LengthSpectrum", "compose_word", "enumerate_orbits",
        "find_generalized_diagonals", "length_spectrum", "poincare_map", "shortest_orbit",
    ),
    "eigensolver": ("DIRICHLET", "NEUMANN", "Spectrum", "compute_spectrum", "exact_rectangle_spectrum"),
    "geometry": (
        "Polygon", "Trapezoid", "angle_invariant", "heat_corner_sum", "new_trapezoid",
        "orbit_catalog", "random_trapezoid", "vertices",
    ),
    "heat_trace": ("HeatInvariants", "fit_invariants", "heat_trace_partial"),
    "inverse": (
        "Rectangle", "ReconstructConfig", "ReconstructionReport", "check_isospectral_consistency",
        "reconstruct_rectangle", "scan_and_reconstruct", "solve_from_h", "solve_from_h_and_b",
        "solve_from_h_and_lf", "solve_from_lf_halpha",
    ),
    "wave_trace": ("SingularityCandidate", "classify_candidate", "estimate_order", "probe", "scan_peaks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
