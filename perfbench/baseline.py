"""Run every workload over a range of seeds and summarise the spread.

From the repository root:

    python3 perfbench/baseline.py --seeds 10 --seconds 20 --out perfbench/baseline.json

Runs run.py once per (workload, seed), one run at a time, with tracing off,
then once per workload with tracing on. For each end-to-end metric it
records the ten values, their median and quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median; for the traced run it records the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("flagship", "orbits", "reconstruct")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True).stdout.splitlines()
    result = json.loads(lines[-1])
    print(workload, seed, f"trace={trace}", json.dumps(result), flush=True)
    env = next(line for line in lines if line.startswith("environment:"))
    result["environment"] = json.loads(env.split(":", 1)[1])
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--no-trace", action="store_true", help="skip the traced run")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    summary, environment = {}, {}
    for w in args.workloads:
        runs = [run(w, s, args.seconds, 0) for s in range(args.first_seed, args.first_seed + args.seeds)]
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs]) | {"unit": runs[0]["metrics"][name]["unit"]}
            for name in runs[0]["metrics"]
        }
        # BLAS threads are pinned per workload (run.py), the rest is shared
        env = runs[0]["environment"]
        environment |= {k: v for k, v in env.items() if k not in ("seed", "blas_threads")}
        environment.setdefault("blas_threads", {})[w] = env["blas_threads"]
        summary[w] = {
            "seconds": args.seconds,
            "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "end_to_end": metrics,
        }
        if not args.no_trace:
            traced = run(w, args.first_seed, args.seconds, 1)
            summary[w]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    body = {"environment": environment, "workloads": summary}
    args.out.write_text(json.dumps(body, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
