"""Outside-in tracing: wrap each layer's entry point where the package calls it.

No file of the package is changed. `Tracer.install` replaces module and class
attributes (for example `trapspec.inverse.length_spectrum`, the name through
which `scan_and_reconstruct` reaches the billiards layer) with wrappers that
record a span per call: name, start, end, parent span, operation id, the
exception class if the call raised, and a few attributes read off the
arguments or the result. Spans stay in memory until `dump`. A hook whose
target has disappeared is recorded as missing, and every metric derived from
it reads null rather than zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


# (module, attribute path, span name, attributes read from (args, kwargs, result))
SPAN_HOOKS = [
    ("trapspec", "compute_spectrum", "eigensolver.compute_spectrum", None),
    ("trapspec.eigensolver", "triangulate", "mesh.triangulate", lambda a, k, m: {"nodes": m.n_nodes}),
    ("trapspec.eigensolver", "refine_uniform", "mesh.refine", lambda a, k, m: {"nodes": m.n_nodes}),
    ("trapspec.eigensolver", "assemble_p1", "eigensolver.assemble", None),
    ("trapspec.eigensolver", "_restrict_dirichlet", "eigensolver.assemble", None),
    (
        "trapspec.eigensolver",
        "lowest_eigenvalues",
        "eigensolver.solve",
        lambda a, k, ev: {"dof": a[0].shape[0], "kept": len(ev)},
    ),
    ("scipy.sparse.linalg", "eigsh", "scipy.eigsh", None),
    (
        "trapspec",
        "scan_and_reconstruct",
        "inverse.reconstruct",
        lambda a, k, r: {"survivors": 1 + len(r.alternatives)},
    ),
    ("trapspec.inverse", "fit_invariants", "heat_trace.fit", None),
    ("trapspec.inverse", "scan_peaks", "wave_trace.scan", lambda a, k, out: {"peaks": len(out)}),
    ("trapspec.inverse", "estimate_order", "wave_trace.order", None),
    ("trapspec.inverse", "solve_from_h", "inverse.solver", None),
    ("trapspec.inverse", "solve_from_h_and_b", "inverse.solver", None),
    ("trapspec.inverse", "solve_from_h_and_lf", "inverse.solver", None),
    ("trapspec.inverse", "solve_from_lf_halpha", "inverse.solver", None),
    ("trapspec.inverse", "solve_alpha_right", "inverse.solver", None),
    ("trapspec.inverse", "_unmatched_peaks", "inverse.crossval", None),
    ("trapspec", "length_spectrum", "billiards.length_spectrum", None),
    ("trapspec.inverse", "length_spectrum", "billiards.length_spectrum", None),
    ("trapspec.billiards", "enumerate_orbits", "billiards.enumerate", lambda a, k, out: {"orbits": len(out)}),
    ("trapspec.billiards", "find_generalized_diagonals", "billiards.diagonals", None),
]

# (module, attribute path, counter, amount per call read from (args, kwargs))
COUNT_HOOKS = [
    ("trapspec.billiards", "hulls_separated", "planar.hull_tests", lambda a, k: 1),
    # read after the call, so a search that exhausts its budget still counts
    ("trapspec.billiards", "_Enumerator.run", "billiards.dfs_nodes", lambda a, k: a[0].nodes),
    # eigsh(A, k=6, ...): scipy's default k when it is not passed
    ("scipy.sparse.linalg", "eigsh", "eigensolver.ritz_requested", lambda a, k: k.get("k", a[1] if len(a) > 1 else 6)),
]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: str | None = None
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(module: str, path: str):
    """(owner, attribute, current value) for module:path, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = getattr(owner, attr, None)
    return None if target is None else (owner, attr, target)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []  # span or counter names whose hook target is gone
        self.op: str | None = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for module, path, name, attrs in SPAN_HOOKS:
            self._hook(module, path, name, lambda target, name=name, attrs=attrs: self._spanned(target, name, attrs))
        for module, path, name, amount in COUNT_HOOKS:
            self._hook(module, path, name, lambda target, name=name, amount=amount: self._counted(target, name, amount))

    def uninstall(self) -> None:
        for owner, attr, target in reversed(self._installed):
            setattr(owner, attr, target)
        self._installed.clear()

    def _hook(self, module, path, name, make_wrapper) -> None:
        found = _resolve(module, path)
        if found is None:
            self.missing.append(name)
            return
        owner, attr, target = found
        setattr(owner, attr, make_wrapper(target))
        self._installed.append((owner, attr, target))

    def _spanned(self, target, name, attrs):
        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None, op=self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = target(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, target, name, amount):
        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            try:
                return target(*args, **kwargs)
            finally:
                self.counts[name] += amount(args, kwargs)

        return wrapper

    # ---- analysis -------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def layer_metrics(self, passes: int) -> dict[str, float | None]:
        """Per-layer figures per traced pass (totals divided by `passes`)."""
        own = self.self_seconds()
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            by_name[s.name].append(i)

        def total(name):
            return sum(self.spans[i].seconds for i in by_name[name])

        def calls(name, error=None):
            return sum(1 for i in by_name[name] if (error is None or self.spans[i].error == error))

        def errors(name):
            return sum(1 for i in by_name[name] if self.spans[i].error is not None)

        def attr_sum(name, key):
            return sum(self.spans[i].attrs.get(key, 0) for i in by_name[name])

        def attr_max(name, key):
            return max((self.spans[i].attrs.get(key, 0) for i in by_name[name]), default=0)

        def layer_self(prefix):
            return sum(own[i] for i, s in enumerate(self.spans) if s.name.startswith(prefix))

        # the last solve under each compute_spectrum call is the finest level
        coarse = fine = 0.0
        for parent in by_name["eigensolver.compute_spectrum"]:
            solves = [i for i in by_name["eigensolver.solve"] if self.spans[i].parent == parent]
            for i in solves[:-1]:
                coarse += self.spans[i].seconds
            if solves:
                fine += self.spans[solves[-1]].seconds
        eigsh_k = self.counts["eigensolver.ritz_requested"]
        kept = attr_sum("eigensolver.solve", "kept")

        metrics = {
            "mesh.triangulate_s": total("mesh.triangulate") / passes,
            "mesh.refine_s": total("mesh.refine") / passes,
            "mesh.nodes_fine": max(attr_max("mesh.triangulate", "nodes"), attr_max("mesh.refine", "nodes")),
            "eigensolver.assemble_s": total("eigensolver.assemble") / passes,
            "eigensolver.solve_coarse_s": coarse / passes,
            "eigensolver.solve_fine_s": fine / passes,
            "eigensolver.self_s": layer_self("eigensolver.") / passes,
            "eigensolver.dof_fine": attr_max("eigensolver.solve", "dof"),
            "eigensolver.eigsh_calls": calls("scipy.eigsh") / passes,
            "eigensolver.eigsh_s": total("scipy.eigsh") / passes,
            "eigensolver.eigsh_errors": errors("scipy.eigsh") / passes,
            "eigensolver.ritz_requested": eigsh_k / passes,
            "eigensolver.ritz_kept": kept / passes,
            "eigensolver.ritz_useful_ratio": kept / eigsh_k if eigsh_k else 0.0,
            "heat_trace.fit_s": total("heat_trace.fit") / passes,
            "heat_trace.fit_calls": calls("heat_trace.fit") / passes,
            "wave_trace.scan_s": total("wave_trace.scan") / passes,
            "wave_trace.peaks": attr_sum("wave_trace.scan", "peaks") / passes,
            "wave_trace.order_s": total("wave_trace.order") / passes,
            "wave_trace.order_calls": calls("wave_trace.order") / passes,
            "wave_trace.noise_floor": calls("wave_trace.order", "NoiseFloor") / passes,
            "inverse.reconstruct_s": total("inverse.reconstruct") / passes,
            "inverse.self_s": layer_self("inverse.") / passes,
            "inverse.solver_calls": calls("inverse.solver") / passes,
            "inverse.solver_rejects": errors("inverse.solver") / passes,
            "inverse.survivors": attr_sum("inverse.reconstruct", "survivors") / passes,
            "inverse.crossval_calls": calls("inverse.crossval") / passes,
            "inverse.crossval_s": total("inverse.crossval") / passes,
            "billiards.length_spectrum_s": total("billiards.length_spectrum") / passes,
            "billiards.enumerate_s": total("billiards.enumerate") / passes,
            "billiards.diagonals_s": total("billiards.diagonals") / passes,
            "billiards.orbits": attr_sum("billiards.enumerate", "orbits") / passes,
            "billiards.dfs_nodes": self.counts["billiards.dfs_nodes"] / passes,
            "billiards.budget_exceeded": (
                calls("billiards.enumerate", "BudgetExceeded") + calls("billiards.diagonals", "BudgetExceeded")
            )
            / passes,
            "planar.hull_tests": self.counts["planar.hull_tests"] / passes,
        }
        for gone in self.missing:
            for key in DEPENDS.get(gone, ()):
                metrics[key] = None
        return metrics

    def dump(self, path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        body = {**extra, "missing_hooks": self.missing, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(body))


# which per-layer metrics each span or counter feeds
DEPENDS = {
    "mesh.triangulate": ("mesh.triangulate_s", "mesh.nodes_fine"),
    "mesh.refine": ("mesh.refine_s", "mesh.nodes_fine"),
    "eigensolver.compute_spectrum": ("eigensolver.solve_coarse_s", "eigensolver.solve_fine_s", "eigensolver.self_s"),
    "eigensolver.assemble": ("eigensolver.assemble_s", "eigensolver.self_s"),
    "eigensolver.solve": (
        "eigensolver.solve_coarse_s",
        "eigensolver.solve_fine_s",
        "eigensolver.self_s",
        "eigensolver.dof_fine",
        "eigensolver.ritz_kept",
        "eigensolver.ritz_useful_ratio",
    ),
    "scipy.eigsh": ("eigensolver.eigsh_calls", "eigensolver.eigsh_s", "eigensolver.eigsh_errors", "eigensolver.self_s"),
    "eigensolver.ritz_requested": ("eigensolver.ritz_requested", "eigensolver.ritz_useful_ratio"),
    "inverse.reconstruct": ("inverse.reconstruct_s", "inverse.self_s", "inverse.survivors"),
    "heat_trace.fit": ("heat_trace.fit_s", "heat_trace.fit_calls", "inverse.self_s"),
    "wave_trace.scan": ("wave_trace.scan_s", "wave_trace.peaks", "inverse.self_s"),
    "wave_trace.order": ("wave_trace.order_s", "wave_trace.order_calls", "wave_trace.noise_floor", "inverse.self_s"),
    "inverse.solver": ("inverse.solver_calls", "inverse.solver_rejects", "inverse.self_s"),
    "inverse.crossval": ("inverse.crossval_calls", "inverse.crossval_s", "inverse.self_s"),
    "billiards.length_spectrum": ("billiards.length_spectrum_s", "inverse.self_s"),
    "billiards.enumerate": ("billiards.enumerate_s", "billiards.orbits", "billiards.budget_exceeded"),
    "billiards.diagonals": ("billiards.diagonals_s", "billiards.budget_exceeded"),
    "billiards.dfs_nodes": ("billiards.dfs_nodes",),
    "planar.hull_tests": ("planar.hull_tests",),
}
