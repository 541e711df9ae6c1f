"""The package root: each public name comes from its module on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trapspec
from trapspec import billiards, workers
from trapspec.geometry import Polygon

SRC = str(Path(trapspec.__file__).resolve().parent.parent)


def test_names_are_their_modules_objects():
    for name in trapspec.__all__:
        module_name = trapspec._MODULE_OF[name]
        module = importlib.import_module(f"trapspec.{module_name}")
        expected = module if name == module_name else getattr(module, name)
        assert getattr(trapspec, name) is expected, name


def test_star_import():
    namespace = {}
    exec("from trapspec import *", namespace)
    assert set(trapspec.__all__) <= set(namespace)
    assert namespace["Spectrum"] is importlib.import_module("trapspec.eigensolver").Spectrum


def test_unknown_name_and_errors_module():
    with pytest.raises(AttributeError):
        trapspec.no_such_name  # noqa: B018
    assert trapspec.errors is importlib.import_module("trapspec.errors")
    assert set(trapspec.__all__) <= set(dir(trapspec))


def test_fresh_import_loads_neither_numpy_nor_scipy():
    # in a subprocess: this process has numpy and scipy from conftest
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = "import sys, trapspec, trapspec.workers; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_fresh_worker_loads_only_what_a_call_needs():
    pool = workers.WorkerPool(1)
    try:
        loaded = pool.run(
            [(eval, ("[m for m in ('numpy', 'scipy', 'trapspec.inverse') if m in __import__('sys').modules]",))]
        )
    finally:
        pool.close()
    assert loaded == [[]]


def test_billiard_walk_worker_loads_no_scipy():
    # scipy would add its import time to every worker start of a pooled
    # length_spectrum
    square = Polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    pool = workers.WorkerPool(1)
    try:
        _, loaded = pool.run(
            [
                (billiards._walk_start, (square, 3.0, 8, 10**6, ("edge", 0))),
                (eval, ("sorted(m for m in __import__('sys').modules if m.split('.')[0] == 'scipy')",)),
            ]
        )
    finally:
        pool.close()
    assert loaded == []
