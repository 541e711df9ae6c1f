"""No silently wrong answer on the benchmark's stored FEM spectra.

The eight spectra under perfbench/data need no eigensolve: each is read,
checked against the SHA-256 in manifest.json, and reconstructed unperturbed.
A spectrum must either give a report that passes acceptance criterion 6, as
perfbench's own check_reconstruction applies it, or raise a TrapspecError; a
shape outside the criterion with no error is a silently wrong answer.

test_outputs_pinned compares each unperturbed reconstruction with
tests/data/stored_reconstruct.json: the branch or the exception class, the
ambiguity flag, the primary shape with its residuals and unmatched peaks,
each evidence candidate's time and order, and each alternative's branch and
shape. Floats agree to a relative 1e-9; those past the primary shape and its
unmatched peaks, which can be exactly 0, also to an absolute 1e-12. A change
may rewrite that file (`python tests/test_stored_spectra.py`) only together
with a CHANGES.md entry that names the output change.
"""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from trapspec import workers
from trapspec.eigensolver import DIRICHLET, Spectrum
from trapspec.errors import TrapspecError
from trapspec.geometry import new_trapezoid
from trapspec.inverse import Rectangle, scan_and_reconstruct

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

DATA = PERFBENCH / "data"
ENTRIES = {e["name"]: e for e in json.loads((DATA / "manifest.json").read_text())["shapes"]}
PINNED = Path(__file__).resolve().parent / "data" / "stored_reconstruct.json"

# returns a shape outside criterion 6 without raising (the manifest's known_defect)
SILENTLY_WRONG = {"lf_then_2h_alpha_b2_h182"}


def _truth(entry):
    if "a" in entry:
        return Rectangle(a=entry["a"], c=entry["c"])
    return new_trapezoid(
        B=entry["B"], h=entry["h"],
        alpha=math.radians(entry["alpha"]), beta=math.radians(entry["beta"]),
    )


def _case(name):
    if name not in SILENTLY_WRONG:
        return name
    reason = f"manifest known_defect: {ENTRIES[name]['known_defect']}"
    return pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=reason))


def _spectrum(entry):
    body = (DATA / entry["file"]).read_bytes()
    assert hashlib.sha256(body).hexdigest() == entry["sha256"], entry["file"]
    stored = json.loads(body)
    return Spectrum(
        np.array(stored["eigenvalues"]), DIRICHLET, accuracy=np.array(stored["accuracy"])
    )


@pytest.mark.parametrize("name", [_case(name) for name in ENTRIES])
def test_right_or_raises(name):
    entry = ENTRIES[name]
    try:
        report = scan_and_reconstruct(_spectrum(entry))
    except TrapspecError:
        return
    verdict = checks.check_reconstruction(_truth(entry), report)
    assert verdict["ok"], verdict["detail"]


def _outputs(name) -> dict:
    """What test_outputs_pinned compares: the error class, or the report's
    branch, primary shape, unmatched peaks, ambiguity flag, residuals,
    evidence readings and alternative shapes."""
    try:
        report = scan_and_reconstruct(_spectrum(ENTRIES[name]))
    except TrapspecError as exc:
        return {"error": type(exc).__name__}
    out = json.loads(report.to_json())
    return {
        "branch": report.branch, **out["shape"],
        "unmatchedPeaks": report.residuals.get("unmatchedPeaks"),
        "ambiguous": report.ambiguous,
        "evidence": [
            {"t0": c["t0"], "order": c["order"], "orderCi": c["orderCi"]}
            for c in out["evidence"]
        ],
        **{key: report.residuals.get(key) for key in ("areaRel", "perimeterRel", "qRel")},
        "alternatives": [{"branch": a["branch"], **a["shape"]} for a in out["alternatives"]],
    }


# compared at a relative 1e-9 alone, as before the report was pinned in full
_RELATIVE_ONLY = {"a", "c", "B", "h", "alpha", "beta", "unmatchedPeaks"}


def _assert_close(got, want, where, abs_tol):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key, value in want.items():
            _assert_close(got[key], value, f"{where}.{key}", abs_tol)
    elif isinstance(want, list):
        assert len(got) == len(want), (where, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]", abs_tol)
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=abs_tol), (where, got, want)
    else:
        assert got == want, (where, got, want)


def _assert_pinned(name):
    want = json.loads(PINNED.read_text())[name]
    got = _outputs(name)
    assert got.keys() == want.keys()
    for key, value in want.items():
        _assert_close(got[key], value, key, 0.0 if key in _RELATIVE_ONLY else 1e-12)


@pytest.mark.parametrize("name", list(ENTRIES))
def test_outputs_pinned(name):
    _assert_pinned(name)


@pytest.mark.parametrize("name", ["band_2h_flagship", "lf_then_2h_alpha_b2_h182"])
def test_pinned_without_the_pool(name, monkeypatch):
    # every peak of these spectra has a conical length, so cross-validation
    # never leaves its in-process conical pass
    def no_pool(tasks):
        raise AssertionError("reconstruction reached the worker pool")

    monkeypatch.setattr(workers, "executor", no_pool)
    _assert_pinned(name)


if __name__ == "__main__":
    PINNED.write_text(json.dumps({name: _outputs(name) for name in ENTRIES}, indent=1) + "\n")
