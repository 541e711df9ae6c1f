"""No silently wrong answer on the benchmark's stored FEM spectra.

The eight spectra under perfbench/data need no eigensolve: each is read,
checked against the SHA-256 in manifest.json, and reconstructed unperturbed.
A spectrum must either give a report that passes acceptance criterion 6, as
perfbench's own check_reconstruction applies it, or raise a TrapspecError; a
shape outside the criterion with no error is a silently wrong answer.
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


@pytest.mark.parametrize("name", [_case(name) for name in ENTRIES])
def test_right_or_raises(name):
    entry = ENTRIES[name]
    body = (DATA / entry["file"]).read_bytes()
    assert hashlib.sha256(body).hexdigest() == entry["sha256"], entry["file"]
    stored = json.loads(body)
    spectrum = Spectrum(
        np.array(stored["eigenvalues"]), DIRICHLET, accuracy=np.array(stored["accuracy"])
    )
    try:
        report = scan_and_reconstruct(spectrum)
    except TrapspecError:
        return
    verdict = checks.check_reconstruction(_truth(entry), report)
    assert verdict["ok"], verdict["detail"]
