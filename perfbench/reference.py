"""Run every workload several times and summarize the end-to-end metrics.

    python3 perfbench/reference.py

Each run is `perfbench/run.py --workload W --seed N --seconds S --trace 0`
in a fresh process, with seeds 1..RUNS and S from BENCHMARK.json. For every
workload and end-to-end metric it prints the median, the quartiles, and the
spread (third minus first quartile, as a share of the median) next to the
metric's bound, plus operations attempted and failed. It then makes TRACED
traced runs per workload and prints their per-layer medians. Everything is
written to perfbench/results/reference.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # untraced runs per workload
TRACED = 2  # traced runs per workload


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        t0 = time.perf_counter()
        results = [run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        print(f"{workload}: {RUNS} runs in {time.perf_counter() - t0:.0f} s, "
              f"correct={entry['correct']}, attempted={entry['attempted']}, failed={entry['failed']}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            summary = summarize(values)
            summary["values"] = values
            entry["end_to_end"][m["name"]] = summary
            print(f"  {m['name']:12s} median {summary['median']:.4f} {m['unit']}, "
                  f"quartiles {summary['q1']:.4f}..{summary['q3']:.4f}, "
                  f"spread {summary['spread']:.3f} (bound {m['bound']})")
        traced = [run(workload, seed, seconds, 1) for seed in range(1, TRACED + 1)]
        entry["correct"] = entry["correct"] and all(r["correct"] for r in traced)
        entry["per_layer"] = {
            m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
            for m in spec["per_layer"]
        }
        for name, value in entry["per_layer"].items():
            print(f"    {name:36s} {value:.6g}")
        report["workloads"][workload] = entry

    out = HERE / "results" / "reference.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
