"""No silently wrong answer on the benchmark's stored FEM spectra.

The eight spectra under perfbench/data need no eigensolve: each is read,
checked against the SHA-256 in manifest.json, and reconstructed unperturbed.
A spectrum must either give a report that passes acceptance criterion 6, as
perfbench's own check_reconstruction applies it, or raise a TrapspecError; a
shape outside the criterion with no error is a silently wrong answer.

test_outputs_pinned compares each unperturbed reconstruction with
tests/data/stored_reconstruct.json: the branch or the exception class, the
primary shape and its unmatched peaks, to a relative 1e-9. A change may
rewrite that file (`python tests/test_stored_spectra.py`) only together with
a CHANGES.md entry that names the output change.
"""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

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
    """What test_outputs_pinned compares: the error class, or the branch, the
    primary shape's parameters and its unmatched peaks."""
    try:
        report = scan_and_reconstruct(_spectrum(ENTRIES[name]))
    except TrapspecError as exc:
        return {"error": type(exc).__name__}
    shape = json.loads(report.to_json())["shape"]
    return {
        "branch": report.branch, **shape,
        "unmatchedPeaks": report.residuals.get("unmatchedPeaks"),
    }


@pytest.mark.parametrize("name", list(ENTRIES))
def test_outputs_pinned(name):
    want = json.loads(PINNED.read_text())[name]
    got = _outputs(name)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert math.isclose(got[key], value, rel_tol=1e-9), (key, got[key], value)
        elif isinstance(value, list):
            assert len(got[key]) == len(value), (key, got[key], value)
            assert all(math.isclose(g, w, rel_tol=1e-9) for g, w in zip(got[key], value)), key
        else:
            assert got[key] == value, key


if __name__ == "__main__":
    PINNED.write_text(json.dumps({name: _outputs(name) for name in ENTRIES}, indent=1) + "\n")
