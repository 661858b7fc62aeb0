"""Run the benchmark on ten seeds per workload and report its spread.

    python3 perfbench/steadiness.py --out .perfbench_out/steadiness.json

Each run is a separate `perfbench/run.py --trace 0` process, seeds 1 to 10,
on every workload in BENCHMARK.json. For every end-to-end metric this reports
the median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound. Under `raw` it reports
the same for `run_s` before calibration rescaling: each invocation's median
of `run_wall_s` from its sample record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="also write the report here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        results, samples, elapsed = [], [], []
        for seed in SEEDS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            elapsed.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            samples.append(json.loads(lines[-2]))
            results.append(json.loads(lines[-1]))
            print(f"{name} seed {seed}: {lines[-1]}", file=sys.stderr, flush=True)
        report[name] = {
            "seeds": [SEEDS[0], SEEDS[-1]],
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "timed_runs": [len(s["run_wall_s"]) for s in samples],
            "invocation_s": {"median": statistics.median(elapsed), "max": max(elapsed)},
            "metrics": {
                m["name"]: stats([r["metrics"][m["name"]]["value"] for r in results],
                                 m["unit"], m["bound"])
                for m in spec["end_to_end"]
            },
            "raw": {"run_wall_s": stats([statistics.median(s["run_wall_s"]) for s in samples],
                                        "s", None)},
        }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def stats(values: list[float], unit: str, bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


if __name__ == "__main__":
    sys.exit(main())
