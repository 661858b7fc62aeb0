"""Record the reference outputs that the benchmark checks every run against.

    python3 perfbench/record_references.py

Runs each workload once per reference CLI seed and writes references.json.
Re-record only in a change that is meant to alter the CLI's outputs, and say
so in that change: the references are the bit-for-bit contract.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    cli = run.import_cli()
    run.OUT.mkdir(exist_ok=True)
    seeds = {}
    for seed in range(1, run.REFERENCE_SEEDS + 1):
        seeds[str(seed)] = {}
        for name, workload in run.WORKLOADS.items():
            result = run.run_workload(cli, workload, seed, expected=None)
            if result.summary is None:
                print(f"{name} seed {seed}: raised", file=sys.stderr)
                return 1
            seeds[str(seed)][name] = result.summary
            print(f"{name} seed {seed}: exit {result.summary['exit_code']}, "
                  f"{result.seconds:.2f} s", flush=True)
    doc = {
        "config": run.CONFIG.relative_to(run.ROOT).as_posix(),
        "argv": {name: list(w.argv) for name, w in run.WORKLOADS.items()},
        "seeds": seeds,
    }
    run.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
