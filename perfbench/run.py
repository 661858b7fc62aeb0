"""Benchmark of the fdpowerctl command line, run in process.

    python3 perfbench/run.py --workload sweep-tracking --seed 1 --seconds 20 --trace 0

Run from anywhere; paths resolve against the repository root that holds this
directory. Each invocation checks every run's outputs against the recorded
references, prints progress and an environment record, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. `--trace 0` gives
the end-to-end metrics, `--trace 1` the per-layer ones, both as listed in
BENCHMARK.json. Full per-run records go to .perfbench_out/. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refcheck
from tracer import Target, Totals, Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "desk_consistent.json"
REFERENCES = Path(__file__).resolve().parent / "references.json"
OUT = ROOT / ".perfbench_out"

# The workload seed picks one of these CLI seeds. Sweep snapshot i of CLI
# seed s comes from stream s + i, so these seeds share most of their 200
# snapshots: the work per run stays comparable across seeds, and every seed
# has recorded reference outputs.
REFERENCE_SEEDS = 8
SETUP_PROBES_PER_RUN = 2

# The host's speed drifts by tens of percent within minutes (other tenants),
# so every run is timed between two runs of a fixed calibration loop and
# rescaled to a host on which that loop takes CAL_REF_S, its typical time on
# the host that recorded the baseline. The constant only sets the scale; raw
# wall times are kept in the result record.
CAL_ITERATIONS = 15000
CAL_REF_S = 0.2
CAL_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    snapshots: int = 0          # per sweep value; 0 where no sweep runs


SWEEP = ("sweep", "--axis", "num_ues", "--values", "2,5,10,20", "--snapshots", "200")
WORKLOADS = {
    "sweep-tracking": Workload(SWEEP + ("--algorithms", "TPCEH"), 200),
    "sweep-opportunistic": Workload(SWEEP + ("--algorithms", "OPCEH"), 200),
    "mobility": Workload(("mobility", "--duration", "10")),
    "verify": Workload(("verify", "--k", "2")),
}


def cli_seed(seed: int) -> int:
    return 1 + (seed - 1) % REFERENCE_SEEDS


def import_cli():
    """fdpowerctl.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fdpowerctl.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fdpowerctl imported from {cli.__file__}, not {src}")
    return cli


# --------------------------------------------------------------------------
# one run of a workload


@dataclass
class RunResult:
    seconds: float               # wall time
    problems: list[str]
    summary: dict | None = None
    layers: dict = field(default_factory=dict)
    scaled: float = math.nan     # wall time rescaled by the calibration loop


def run_workload(cli, workload: Workload, seed: int, expected: dict | None) -> RunResult:
    """Call the CLI once on fresh output, time it and check what it wrote."""
    out_dir = OUT / "cli"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [*workload.argv, "--config", str(CONFIG), "--seed", str(seed), "--out", str(out_dir)]
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return RunResult(time.perf_counter() - t0, ["raised"])
        elapsed = time.perf_counter() - t0
    summary = refcheck.summarize(out_dir, code)
    problems = [] if expected is None else refcheck.diff(expected, summary)
    for p in problems[:5]:
        print(f"output check: {p}", file=sys.stderr)
    return RunResult(elapsed, problems, summary)


def _calibration_pass() -> float:
    """Time a fixed loop of small-array numpy steps shaped like the solver's.

    The loop's time tracks how fast this host runs such code at the moment;
    it does not depend on the program under test.
    """
    h = np.linspace(1.0, 2.0, 8)
    p = np.full(8, 1e-6)
    cap = np.ones(8)
    t0 = time.perf_counter()
    for _ in range(CAL_ITERATIONS):
        received = h * p
        nxt = np.minimum(cap, 0.05 * (received.sum() - received + 1e-3) / h)
        float(np.max(np.abs(nxt - p) / np.maximum(p, 1e-18)))
        p = nxt
    return time.perf_counter() - t0


def calibration_seconds(at_least: float) -> float:
    """Mean time of one calibration pass, repeated for at least `at_least` s."""
    times = [_calibration_pass()]
    while sum(times) < at_least:
        times.append(_calibration_pass())
    return statistics.fmean(times)


def runs_for(seconds: float, run, typical: float) -> list[RunResult]:
    """Runs between calibrations for about `seconds`, at least one.

    Each calibration lasts at least CAL_SHARE of `typical`, the expected time
    of one run, so that it averages over a comparable stretch. A result's
    `scaled` time is its wall time times CAL_REF_S over the mean of the
    calibrations just before and just after it: the time it would take on a
    host where one calibration pass takes CAL_REF_S.
    """
    t_start = time.perf_counter()
    results = []
    before = calibration_seconds(CAL_SHARE * typical)
    while True:
        result = run()
        after = calibration_seconds(CAL_SHARE * typical)
        result.scaled = result.seconds * 2.0 * CAL_REF_S / (before + after)
        results.append(result)
        before = after
        now = time.perf_counter()
        if now + (now - t_start) / len(results) >= t_start + seconds:
            return results


# --------------------------------------------------------------------------
# end-to-end metrics

SETUP_CODE = """\
import sys
from fdpowerctl.cli import build_parser
from fdpowerctl.config import load_scenario
load_scenario(sys.argv[1])
build_parser()
print("ready", flush=True)
"""


def setup_seconds() -> float:
    """Fresh interpreter start to scenario loaded and parser built."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-c", SETUP_CODE, str(CONFIG)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def end_to_end(cli, name: str, seed: int, expected: dict, seconds: float):
    workload = WORKLOADS[name]
    setup: list[float] = []

    def run() -> RunResult:
        result = run_workload(cli, workload, seed, expected)
        # Probes sit between the runs, so they sample the same stretch of host
        # conditions. They are not rescaled: over two ten-seed sets, rescaling
        # narrowed their spread too little to count (see README.md).
        setup.extend(setup_seconds() for _ in range(SETUP_PROBES_PER_RUN))
        return result

    warm = run()
    timed = runs_for(seconds, run, warm.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [warm, *timed]
    checked = [r.summary for r in runs if r.summary is not None]
    dropped = refcheck.dropped_fraction(checked[-1], workload.snapshots) if checked else 1.0
    failed = sum(1 for r in runs if r.problems)
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r.scaled for r in timed),
        "peak_rss_mb": peak_rss_mb,
        "kept_frac": 1.0 - dropped,
        "ok_frac": (len(runs) - failed) / len(runs),
    }
    record = {
        "setup_wall_s": setup,
        "run_wall_s": [r.seconds for r in timed],
        "run_scaled_s": [r.scaled for r in timed],
        "warmup_wall_s": warm.seconds,
        "dropped_frac": dropped,
        "failed_frac": failed / len(runs),
    }
    return runs, values, record


# --------------------------------------------------------------------------
# per-layer metrics from a traced run


def _solve_counts(counts, trace) -> None:
    used = getattr(trace, "iterations_used", 0)
    counts["engine.iterations"] += used
    if not getattr(trace, "converged", True):
        counts["engine.iterations.unconverged"] += used
        counts["engine.nonconverged"] += 1


def _mobility_counts(counts, result) -> None:
    counts["engine.mobility.steps"] += len(getattr(result, "records", ()))


def _brute_force_counts(counts, result) -> None:
    counts["oracle.brute_force.feasible_points"] += getattr(result, "feasible_count", 0)


# span name of each oracle check -> the name cmd_verify calls it by
ORACLE_CHECKS = {
    "oracle.scalability": "check_two_sided_scalable",
    "oracle.optimality": "verify_min_power_optimality",
    "oracle.uniqueness": "check_fixed_point_uniqueness",
    "oracle.equivalence": "check_update_form_equivalence",
    "oracle.tightness": "check_harvest_power_tightness",
    "oracle.fl_conditions": "fast_lipschitz_report",
}

# Each layer is wrapped where its callers look it up, so every call that
# crosses a module boundary becomes a span.
TARGETS = [
    Target("cli.main", "fdpowerctl.cli", "main"),
    Target("config.load", "fdpowerctl.cli", "load_scenario"),
    Target("channel.snapshot", "fdpowerctl.cli", "snapshot_from_scenario"),
    Target("channel.snapshot", "fdpowerctl.engine", "snapshot_from_scenario"),
    Target("channel.with_gains", "fdpowerctl.channel", "Snapshot.with_gains"),
    Target("core.joint_update", "fdpowerctl.engine", "joint_update"),
    Target("core.joint_update", "fdpowerctl.oracle", "joint_update"),
    Target("core.metrics", "fdpowerctl.engine", "metrics"),
    Target("core.metrics", "fdpowerctl.oracle", "metrics"),
    Target("core.hbs_update", "fdpowerctl.engine", "hbs_update"),
    Target("engine.solve", "fdpowerctl.cli", "run_fixed_point", _solve_counts),
    Target("engine.solve", "fdpowerctl.engine", "run_fixed_point", _solve_counts),
    Target("engine.solve", "fdpowerctl.oracle", "run_fixed_point", _solve_counts),
    Target("engine.sweep", "fdpowerctl.cli", "run_monte_carlo"),
    Target("engine.mobility", "fdpowerctl.cli", "run_mobility", _mobility_counts),
    Target("oracle.brute_force", "fdpowerctl.oracle", "brute_force_min_power",
           _brute_force_counts),
    *(Target(span, "fdpowerctl.cli", attr) for span, attr in ORACLE_CHECKS.items()),
]


def layer_values(tracer: Tracer, result: RunResult) -> dict[str, float]:
    totals = tracer.totals()
    none = Totals(0, 0.0, 0.0)
    span = lambda name: totals.get(name, none)  # noqa: E731
    counts = tracer.counts
    solves = tracer.durations("engine.solve")
    joint = span("core.joint_update")
    iterations = counts["engine.iterations"]
    values = {
        "config.load.s": span("config.load").busy_s,
        "engine.solve.self_s": span("engine.solve").self_s,
        "engine.solve.p50_ms": float(np.percentile(solves, 50)) * 1e3 if solves.size else 0.0,
        "engine.solve.p98_ms": float(np.percentile(solves, 98)) * 1e3 if solves.size else 0.0,
        "core.joint_update.us_per_call": joint.busy_s / joint.calls * 1e6 if joint.calls else 0.0,
        "engine.iterations": iterations,
        "engine.iterations.unconverged": counts["engine.iterations.unconverged"],
        "engine.iterations.useful_ratio": (
            (iterations - counts["engine.iterations.unconverged"]) / iterations
            if iterations else 1.0
        ),
        "engine.nonconverged": counts["engine.nonconverged"],
        "engine.sweep.self_s": span("engine.sweep").self_s,
        "engine.mobility.self_s": span("engine.mobility").self_s,
        "engine.mobility.steps": counts["engine.mobility.steps"],
        "oracle.brute_force.feasible_points": counts["oracle.brute_force.feasible_points"],
        "cli.self_s": span("cli.main").self_s,
        "cli.rows_written": refcheck.rows_written(result.summary) if result.summary else 0,
    }
    for name in ("channel.snapshot", "channel.with_gains", "core.joint_update",
                 "core.metrics", "core.hbs_update", "engine.solve"):
        values[f"{name}.calls"] = span(name).calls
        values[f"{name}.busy_s"] = span(name).busy_s
    for name in (*ORACLE_CHECKS, "oracle.brute_force"):
        values[f"{name}.busy_s"] = span(name).busy_s
    return values


def per_layer(cli, name: str, seed: int, expected: dict, seconds: float):
    """Untraced runs for half the time, traced runs for the other half."""
    run = lambda: run_workload(cli, WORKLOADS[name], seed, expected)  # noqa: E731
    warm = run()
    plain = runs_for(seconds / 2, run, warm.seconds)
    absent: list[Target] = []
    tracers: list[Tracer] = []

    def traced() -> RunResult:
        tracer = Tracer()
        with patched(tracer, TARGETS) as missing:
            result = run()
        absent[:] = missing
        tracers.append(tracer)
        result.layers = layer_values(tracer, result)
        return result

    traced_runs = runs_for(seconds / 2, traced, warm.seconds)
    tracers[-1].write_csv(OUT / f"spans-{name}.csv")
    values = {
        key: statistics.median_low(r.layers[key] for r in traced_runs)
        for key in traced_runs[0].layers
    }
    values["trace.overhead_s"] = (
        statistics.median(r.scaled for r in traced_runs)
        - statistics.median(r.scaled for r in plain)
    )
    record = {
        "untraced_wall_s": [r.seconds for r in plain],
        "untraced_scaled_s": [r.scaled for r in plain],
        "traced_wall_s": [r.seconds for r in traced_runs],
        "traced_scaled_s": [r.scaled for r in traced_runs],
        "absent_targets": [f"{t.module}.{t.attr}" for t in absent],
    }
    return [warm, *plain, *traced_runs], values, record


# --------------------------------------------------------------------------


def environment(seed: int, used_seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "seed": seed,
        "cli_seed": used_seed,
    }


def emit(spec: list[dict], values: dict[str, float]) -> dict:
    """Metrics in BENCHMARK.json's order and units; names must match exactly."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"unlisted {sorted(set(values) - set(names))}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    if references["argv"][args.workload] != list(workload.argv):
        raise RuntimeError(f"references were recorded for other arguments of {args.workload}")
    seed = cli_seed(args.seed)
    expected = references["seeds"][str(seed)][args.workload]
    env = environment(args.seed, seed)
    print(json.dumps({"environment": env}), flush=True)

    OUT.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    runs, values, record = measure(cli, args.workload, seed, expected, args.seconds)
    failed = sum(1 for r in runs if r.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": emit(spec["per_layer" if args.trace else "end_to_end"], values),
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(
        json.dumps({"environment": env, "samples": record, "result": result}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(record), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
