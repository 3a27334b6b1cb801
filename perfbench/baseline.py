"""Run the benchmark over several seeds and record the figures as a baseline.

Usage, from the repository root::

    python3 perfbench/baseline.py --label seed --seeds 10 [--workloads table spectrum exact]

For each workload this makes one run per seed (1..N) with ``--trace 0`` and
one traced run with seed 1, and writes ``perfbench/baseline-<label>.json``:
per end-to-end metric the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread (third minus first
quartile, as a share of the median); per layer metric the traced value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    result = json.loads(out.stdout.splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": opts.seeds, "workloads": {}}
    for workload in opts.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in range(1, opts.seeds + 1)]
        traced = run_once(workload, 1, spec["run_seconds"], 1)
        entry = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "run_s": summarize([r["run_s"] for r in runs]),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name in bounds:
            entry["end_to_end"][name] = summarize([r["metrics"][name]["value"] for r in runs])
            s = entry["end_to_end"][name]
            print(
                f"{workload:9s} {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                f"  (bound {bounds[name]}, a third of it {bounds[name] / 3:.4f})",
                flush=True,
            )
        report["workloads"][workload] = entry
    out = BENCH / f"baseline-{opts.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
