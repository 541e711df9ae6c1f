"""Command-line front end: spectra, invariants, orbits, wave traces, reconstruction.

Every output embeds the run configuration so results are reproducible from
the file alone. Computation failures exit 1 with a machine-readable JSON
error on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import billiards, properties
from .eigensolver import (
    DIRICHLET,
    NEUMANN,
    Spectrum,
    compute_spectrum,
    exact_rectangle_spectrum,
)
from .errors import TrapspecError
from .geometry import Polygon, Trapezoid, new_trapezoid, vertices
from .heat_trace import fit_invariants
from .inverse import (
    ReconstructConfig,
    _classified,
    check_isospectral_consistency,
    scan_and_reconstruct,
)
from .wave_trace import (
    DEFAULT_SIGMA,
    PEAK_THRESHOLD,
    order_frequencies,
    probe,
    scan_peaks,
)


def _numbers(d: dict, *keys: str) -> list:
    """The named fields of a domain, each a finite number, else ValueError."""
    values = [d[k] for k in keys]
    for k, v in zip(keys, values):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"domain field {k!r} is not a finite number: {v!r}")
    return values


def _load_domain(path: str):
    """Domain JSON: trapezoid {B,h,alpha,beta}, rectangle {a,c}, or {vertices}."""
    d = json.loads(Path(path).read_text())
    if {"B", "h", "alpha", "beta"} <= set(d):
        B, h, alpha, beta = _numbers(d, "B", "h", "alpha", "beta")
        return new_trapezoid(B=B, h=h, alpha=alpha, beta=beta)
    if {"a", "c"} <= set(d):
        a, c = _numbers(d, "a", "c")
        return ("rectangle", float(a), float(c))
    if "vertices" in d:
        return Polygon(np.array(d["vertices"], dtype=float))
    raise ValueError(f"unrecognized domain JSON in {path}")


def _domain_polygon(domain) -> Polygon:
    if isinstance(domain, Trapezoid):
        return vertices(domain)
    if isinstance(domain, Polygon):
        return domain
    _, a, c = domain
    return Polygon(np.array([[0, 0], [a, 0], [a, c], [0, c]], dtype=float))


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text)


def _config_of(args: argparse.Namespace) -> dict:
    # output paths are excluded so identical runs produce identical bytes
    skip = {"func", "out", "svg", "probe_out"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args) -> int:
    domain = _load_domain(args.domain)
    bc = DIRICHLET if args.bc == "D" else NEUMANN
    if args.exact:
        if not isinstance(domain, tuple):
            raise ValueError("--exact requires a rectangle domain file {a, c}")
        _, a, c = domain
        spec = exact_rectangle_spectrum(a, c, args.n, bc=bc)
    else:
        spec = compute_spectrum(
            _domain_polygon(domain),
            bc=bc,
            n=args.n,
            mesh_size=args.mesh_size,
            refine_levels=args.refine_levels,
        )
    lines = spec.to_csv().splitlines()
    lines.insert(1, f"# config={json.dumps(_config_of(args))}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_invariants(args) -> int:
    spec = Spectrum.from_csv(Path(args.spectrum).read_text())
    window = None if args.t_min is None else (args.t_min, args.t_max)
    inv = fit_invariants(spec, t_window=window, grid_size=args.grid_size)
    out = {"invariants": inv.to_dict(), "config": _config_of(args)}
    _write(json.dumps(out, indent=2), args.out)
    return 0


def _cmd_orbits(args) -> int:
    poly = _domain_polygon(_load_domain(args.domain))
    spec = billiards.length_spectrum(poly, args.lmax, period_max=args.period_max)
    lines = [f"# config={json.dumps(_config_of(args))}", spec.to_json_lines().rstrip()]
    _write("\n".join(lines) + "\n", args.out)
    if args.svg is not None:
        orbits = [o for _, group in spec.entries for o in group]
        Path(args.svg).write_text(billiards.render_svg(poly, orbits))
    return 0


def _cmd_wavetrace(args) -> int:
    spec = Spectrum.from_csv(Path(args.spectrum).read_text())
    sigma = args.sigma
    cands = scan_peaks(
        spec, (args.t_lo, args.t_hi), sigma, threshold=args.threshold
    )
    for c in cands:
        c.matched_orbit = _classified(spec, c, sigma)
    out = {
        "candidates": [c.to_dict() for c in cands],
        "config": _config_of(args),
    }
    # the probe is computed before either file is written, so a failing one leaves neither
    profile = None
    if args.probe_t0 is not None:
        profile = probe(spec, args.probe_t0, sigma, order_frequencies(spec))
    _write(json.dumps(out, indent=2), args.out)
    if profile is not None:
        Path(args.probe_out).write_text(profile.to_csv())
    return 0


def _cmd_reconstruct(args) -> int:
    spec = Spectrum.from_csv(Path(args.spectrum).read_text())
    cfg = ReconstructConfig(
        min_eigenvalues=args.min_n,
        rectangle_q_tol=args.rect_tol,
        invariant_rel_tol=args.tol,
    )
    if args.sigma is not None:
        cfg.sigma = args.sigma
    if args.fit_t_min is not None:
        cfg.fit_t_window = (args.fit_t_min, args.fit_t_max)
    report = scan_and_reconstruct(spec, cfg)
    _write(report.to_json(), args.out)
    return 0


def _cmd_compare(args) -> int:
    t1 = _load_domain(args.domain1)
    t2 = _load_domain(args.domain2)
    if not (isinstance(t1, Trapezoid) and isinstance(t2, Trapezoid)):
        raise ValueError("compare requires two trapezoid domain files")
    report = check_isospectral_consistency(t1, t2)
    out = {**report.to_dict(), "config": _config_of(args)}
    _write(json.dumps(out, indent=2), args.out)
    return 0


def _cmd_props(args) -> int:
    failures = properties.run_suite(args.suite, n=args.n, seed=args.seed)
    out = {"suite": args.suite, "failures": failures, "config": _config_of(args)}
    _write(json.dumps(out, indent=2), args.out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trapspec",
        description="Spectra, invariants, billiard orbits, and reconstruction "
        "for non-obtuse trapezoids.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("spectrum", help="compute a Laplace spectrum")
    s.add_argument("domain")
    s.add_argument("--bc", choices=("D", "N"), default="D")
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--mesh-size", type=float, default=None)
    s.add_argument("--refine-levels", type=int, default=3)
    s.add_argument("--exact", action="store_true", help="closed form (rectangles only)")
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_spectrum)

    s = sub.add_parser("invariants", help="heat-trace invariants from a spectrum")
    s.add_argument("spectrum")
    s.add_argument("--t-min", type=float, default=None)
    s.add_argument("--t-max", type=float, default=None)
    s.add_argument("--grid-size", type=int, default=40)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_invariants)

    s = sub.add_parser("orbits", help="closed-geodesic length spectrum")
    s.add_argument("domain")
    s.add_argument("--lmax", type=float, required=True)
    s.add_argument("--period-max", type=int, default=billiards.DEFAULT_PERIOD_MAX)
    s.add_argument("--svg", default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_orbits)

    s = sub.add_parser("wavetrace", help="scan wave-trace singularities")
    s.add_argument("spectrum")
    s.add_argument("--t-lo", type=float, required=True)
    s.add_argument("--t-hi", type=float, required=True)
    s.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    s.add_argument("--threshold", type=float, default=PEAK_THRESHOLD)
    s.add_argument("--probe-t0", type=float, default=None)
    s.add_argument("--probe-out", default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_wavetrace)

    s = sub.add_parser("reconstruct", help="recover the domain from a spectrum")
    s.add_argument("spectrum")
    s.add_argument("--min-n", type=int, default=ReconstructConfig.min_eigenvalues)
    s.add_argument("--rect-tol", type=float, default=ReconstructConfig.rectangle_q_tol)
    s.add_argument("--tol", type=float, default=ReconstructConfig.invariant_rel_tol)
    s.add_argument("--sigma", type=float, default=None)
    s.add_argument("--fit-t-min", type=float, default=None)
    s.add_argument("--fit-t-max", type=float, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_reconstruct)

    s = sub.add_parser("compare", help="exact-invariant consistency of two trapezoids")
    s.add_argument("domain1")
    s.add_argument("domain2")
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_compare)

    s = sub.add_parser("props", help="run a named property suite")
    s.add_argument("suite", choices=sorted(properties.PROPERTY_SUITES))
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_props)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for lo, hi in (("t_min", "t_max"), ("fit_t_min", "fit_t_max"), ("probe_t0", "probe_out")):
        if (getattr(args, lo, None) is None) != (getattr(args, hi, None) is None):
            flags = " and ".join("--" + k.replace("_", "-") for k in (lo, hi))
            parser.error(f"{flags} must be given together")
    try:
        return args.func(args)
    except (TrapspecError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
