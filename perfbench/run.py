"""Run one benchmark workload for one seed and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 20 --trace 0

Workloads: flagship, orbits, reconstruct (see README.md next to this file).
The run sets up SETUP_REPEATS times, then repeats passes over the workload's
operations, one caller in a closed loop, until --seconds have elapsed (at
least one whole pass). Every operation is checked against an independent
reference. With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 the run makes one untraced pass,
then traced passes, and reports per-layer metrics and the tracing overhead
instead, and writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

from envinfo import ROOT, SRC, environment, nproc, pin_blas_threads

WORKLOAD_NAMES = ("flagship", "orbits", "reconstruct")
# The eigensolve's dense Lanczos work runs faster on every core (flagship
# solve 40 s with 2 threads, 52 s with 1). orbits and reconstruct make only
# small numpy calls, where a second thread just synchronises with a core that
# may be busy: reconstruct's median operation took 0.024 s on 1 thread and
# 0.027 s on 2, with a wider spread, over 5 interleaved runs each.
BLAS_THREADS = {"flagship": nproc(), "orbits": 1, "reconstruct": 1}
SETUP_REPEATS = 3
OUT = ROOT / "perfbench" / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "oracle_rel_err": "ratio",
    "invariant_rel_err": "ratio",
    "shape_err": "ratio",
}
# Accuracy figures a workload does not compute (orbits fits no invariants and
# recovers no shape; only flagship solves an oracle rectangle) read as this
# constant, since every metric must be reported by every workload.
NOT_COMPUTED = 1.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def timed_setup(workload_cls, seed: int):
    """A fresh interpreter importing trapspec, then the workload's own set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import trapspec"], env=env, check=True, timeout=120)
    workload = workload_cls(seed)
    return time.perf_counter() - start, workload


def run_pass(workload, p: int, tracer=None) -> list[dict]:
    results = []
    for op in workload.ops(p):
        if tracer is not None:
            tracer.op = f"{p}/{op.label}"
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # a call that raises is a failed operation, not a failed run
            seconds = time.perf_counter() - start
            check = {"ok": False, "detail": traceback.format_exc(limit=2).strip().splitlines()[-1]}
        else:
            seconds = time.perf_counter() - start
            check = op.check(out)
        results.append({"pass": p, "op": op.label, "seconds": seconds, "known_defect": op.known_defect, **check})
    return results


def run_passes(workload, seconds: float, first: int, tracer=None) -> list[dict]:
    """Whole passes from `first` on, until `seconds` have elapsed."""
    start, p, results = time.perf_counter(), first, []
    while True:
        results += run_pass(workload, p, tracer)
        p += 1
        if time.perf_counter() - start >= seconds:
            return results


def pass_walls(results: list[dict]) -> list[float]:
    walls: dict[int, float] = {}
    for r in results:
        walls[r["pass"]] = walls.get(r["pass"], 0.0) + r["seconds"]
    return list(walls.values())


def end_to_end(results: list[dict], setup_times: list[float]) -> dict[str, float]:
    # accuracy comes from operations expected to pass; known defects show in ok_frac
    def figures(key):
        return [r[key] for r in results if r.get(key) is not None and r["known_defect"] is None]

    def agg(key, how):
        vals = figures(key)
        return how(vals) if vals else NOT_COMPUTED

    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(pass_walls(results)),
        "op_p50_s": statistics.median(r["seconds"] for r in results),
        "ok_frac": sum(r["ok"] for r in results) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_rel_err": agg("oracle_rel_err", max),
        "invariant_rel_err": agg("invariant_rel_err", max),
        "shape_err": agg("shape_err", statistics.median),
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def report_ops(results: list[dict]) -> tuple[int, int]:
    """Print failures and known defects; return (attempted, failed)."""
    failed = [r for r in results if not r["ok"] and r["known_defect"] is None]
    known = [r for r in results if not r["ok"] and r["known_defect"] is not None]
    for r in failed:
        print(f"FAILED pass {r['pass']} {r['op']}: {r['detail'][:300]}")
    attempts = Counter(r["op"] for r in results)
    for label, n in Counter(r["op"] for r in known).items():
        detail = next(r["detail"] for r in known if r["op"] == label)
        print(f"known defect, {n} of {attempts[label]} attempts: {label}: {detail[:300]}")
    return len(results), len(failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads(BLAS_THREADS[args.workload])
    if not (SRC / "trapspec" / "__init__.py").is_file():
        print(f"trapspec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports numpy, after the BLAS threads are pinned)
    from spans import Tracer  # noqa: E402

    cls = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    print("environment:", json.dumps(env))

    if args.trace == 0:
        setups = [timed_setup(cls, args.seed) for _ in range(SETUP_REPEATS)]
        workload = setups[-1][1]
        results = run_passes(workload, args.seconds, first=0)
        metrics = end_to_end(results, [s for s, _ in setups])
    else:
        _, workload = timed_setup(cls, args.seed)
        untraced = run_pass(workload, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, args.seconds, first=1, tracer=tracer)
        finally:
            tracer.uninstall()
        walls = pass_walls(traced)
        metrics = tracer.layer_metrics(passes=len(walls))
        metrics["trace.overhead_s"] = statistics.median(walls) - pass_walls(untraced)[0]
        results = untraced + traced
        print(f"untraced pass {pass_walls(untraced)[0]:.4f} s, traced passes (median) {statistics.median(walls):.4f} s")
        tracer.dump(
            OUT / f"spans-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "environment": env, "per_layer": metrics},
        )

    attempted, failed = report_ops(results)
    tagged = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    for k, m in tagged.items():
        print(f"{k:32s} {m['value']!s:>24} {m['unit']}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "metrics": tagged, "operations": results}, indent=1)
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": tagged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
