"""Generate the stored FEM spectra that the `reconstruct` workload replays.

Run from the repository root:

    python3 perfbench/make_inputs.py

Each shape is solved once with `compute_spectrum` at the parameters in
SOLVE, reconstructed with `scan_and_reconstruct` and checked against its true
shape. The spectra go to perfbench/data/<name>.json; manifest.json records
the exact parameters, the environment, the branch each shape actually took,
whether it was recovered, and a SHA-256 per file that the benchmark verifies
at set-up. A shape that is not recovered is kept and marked with its
known_defect, so the defect stays visible in the benchmark's ok_frac.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from envinfo import SRC, environment, nproc, pin_blas_threads

pin_blas_threads(nproc())
sys.path.insert(0, str(SRC))

from trapspec import Rectangle, compute_spectrum, scan_and_reconstruct, vertices  # noqa: E402
from trapspec.errors import TrapspecError  # noqa: E402

from checks import check_reconstruction  # noqa: E402
from workloads import DATA, Flagship, rectangle_polygon, true_shape  # noqa: E402

SOLVE = Flagship.SOLVE

# One or two shapes per branch of the decision procedure, chosen from the
# branch rules in the package README's "How reconstruction works", plus the
# shape that was seen to come back wrong without warning. Trapezoids keep
# q >= 8/pi^2 + 1e-2.
SHAPES = [
    {"name": "rectangle", "intended": "Rectangle", "a": 1.0, "c": 1.4},
    {"name": "band_2h", "intended": "FirstOrderHalfIs2h", "B": 1.8, "h": 0.7, "alpha": 70, "beta": 45},
    {"name": "band_2h_flagship", "intended": "FirstOrderHalfIs2h", "B": 2.0, "h": 1.0, "alpha": 75, "beta": 60},
    {"name": "lf_then_2h", "intended": "LFThen2h", "B": 2.0, "h": 1.66, "alpha": 65, "beta": 60},
    {"name": "lf_then_2h_wide", "intended": "LFThen2h", "B": 2.5, "h": 2.07, "alpha": 65, "beta": 60},
    {"name": "lf_then_2h_alpha", "intended": "LFThen2hAlpha", "B": 2.0, "h": 1.95, "alpha": 70, "beta": 60},
    {"name": "lf_then_2h_alpha_b2_h182", "intended": "LFThen2hAlpha", "B": 2.0, "h": 1.82, "alpha": 65, "beta": 60},
    {"name": "alpha_right", "intended": "AlphaRightAngle", "B": 1.2, "h": 2.4, "alpha": 90, "beta": 70},
]


def polygon_of(shape):
    if isinstance(shape, Rectangle):
        return rectangle_polygon(shape.a, shape.c)
    return vertices(shape)


def shape_record(shape) -> dict:
    if isinstance(shape, Rectangle):
        return {"kind": "rectangle", "a": shape.a, "c": shape.c}
    return {"kind": "trapezoid", "B": shape.B, "h": shape.h, "alpha": shape.alpha, "beta": shape.beta}


def main() -> int:
    DATA.mkdir(parents=True, exist_ok=True)
    entries = []
    for spec in SHAPES:
        truth = true_shape(spec)
        start = time.perf_counter()
        spectrum = compute_spectrum(polygon_of(truth), **SOLVE)
        solve_s = time.perf_counter() - start
        try:
            report = scan_and_reconstruct(spectrum)
        except TrapspecError as exc:
            outcome = {"branch": f"raised {type(exc).__name__}", "ambiguous": None, "shape": None}
            check = {"ok": False, "detail": f"{type(exc).__name__}: {exc}", "shape_err": None}
        else:
            outcome = {"branch": report.branch, "ambiguous": report.ambiguous, "shape": shape_record(report.trapezoid)}
            check = check_reconstruction(truth, report)
        body = json.dumps(
            {"eigenvalues": spectrum.eigenvalues.tolist(), "accuracy": spectrum.accuracy.tolist()}
        ).encode()
        path = DATA / f"{spec['name']}.json"
        path.write_bytes(body)
        entries.append(
            {
                **spec,
                "file": path.name,
                "sha256": hashlib.sha256(body).hexdigest(),
                "count": spectrum.count,
                "max_accuracy": float(spectrum.accuracy.max()),
                "branch_at_generation": outcome["branch"],
                "ambiguous_at_generation": outcome["ambiguous"],
                "reconstructed": outcome["shape"],
                "shape_err_at_generation": check["shape_err"],
                "known_defect": None if check["ok"] else check["detail"],
                "solve_s": round(solve_s, 1),
            }
        )
        print(f"{spec['name']}: {outcome} ok={check['ok']} solve {solve_s:.1f}s", flush=True)
    manifest = {"solve": SOLVE, "environment": environment(), "shapes": entries}
    (DATA / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
