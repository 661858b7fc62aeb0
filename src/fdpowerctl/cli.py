"""Command-line front end: scenario runs, sweeps, mobility and verification.

Every output CSV is deterministic for a given (config, flags, seed) and gets
a JSON manifest sidecar recording the invocation that produced it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channel import sample_batch, snapshot_from_scenario
from .config import ConfigError, Scenario, config_hash, load_scenario, scenario_to_dict
from .core import Algorithm
from .engine import (
    SWEEP_AXES,
    SWEEP_METRICS,
    run_fixed_point,
    run_mobility,
    run_monte_carlo,
    solve,
)
from .oracle import (
    INFEASIBLE_CONDITIONS,
    check_fixed_point_uniqueness,
    check_harvest_power_tightness,
    check_two_sided_scalable,
    check_update_form_equivalence,
    fast_lipschitz_report,
    verify_min_power_optimality,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4

CLAIMS = (
    "uniqueness",
    "scalability",
    "optimality",
    "harvest-tightness",
    "update-equivalence",
    "fl-conditions",
)
PER_SNAPSHOT_CLAIMS = {"uniqueness", "optimality", "harvest-tightness", "update-equivalence"}
SCENARIO_CLAIMS = {"scalability", "fl-conditions"}


# CSV cell formats by dtype kind: bools as 1/0, floats in scientific
# notation with 17 significant digits, anything else as str() gives it
_CELL_FORMATS = {"b": "{:d}", "f": "{:.16e}"}


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns (arrays or lists) under a header, each
    formatted by its dtype through one row template."""
    arrays = [np.asarray(column) for column in columns]
    template = ",".join(_CELL_FORMATS.get(a.dtype.kind, "{}") for a in arrays)
    rows = map(template.format, *(a.tolist() for a in arrays))
    path.write_text("\n".join([",".join(header), *rows]) + "\n", encoding="utf-8")


def _write_manifest(
    out_files: list[Path], subcommand: str, scenario: Scenario, seed: int, t0: float,
    **extra,
) -> None:
    manifest = {
        "subcommand": subcommand,
        "config_hash": config_hash(scenario_to_dict(scenario)),
        "seed": seed,
        "tool_version": __version__,
        "outputs": [f.name for f in out_files],
        "duration_s": time.monotonic() - t0,
        **extra,
    }
    for f in out_files:
        sidecar = f.with_name(f.name + ".manifest.json")
        sidecar.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _load(args) -> Scenario:
    scenario = load_scenario(args.config)
    if args.seed is not None:
        scenario = dataclasses.replace(
            scenario, cfg=dataclasses.replace(scenario.cfg, seed=args.seed)
        )
    return scenario


def _overrides(args) -> dict:
    out = {}
    if args.tol is not None:
        out["tol"] = args.tol
    if args.max_iter is not None:
        out["max_iter"] = args.max_iter
    return out


def cmd_snapshot(args) -> int:
    t0 = time.monotonic()
    scenario = _load(args)
    alg = Algorithm(args.algorithm)
    snap = snapshot_from_scenario(scenario)
    trace = run_fixed_point(alg, snap, **_overrides(args))
    K = snap.num_ues

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = (
        ["t"]
        + [f"p_u_{i+1}" for i in range(K)]
        + ["p_h"]
        + [f"sinr_{i+1}" for i in range(K)]
        + [f"rate_{i+1}" for i in range(K)]
        + [f"feasible_{i+1}" for i in range(K)]
    )
    mx = trace.metrics
    trace_path = out / f"trace_{alg.value.lower()}.csv"
    _write_csv(
        trace_path, header,
        [trace.steps, *trace.states.T, *mx.sinr.T, *mx.rate.T, *mx.energy_feasible.T],
    )

    summary = {
        "algorithm": alg.value,
        "converged": trace.converged,
        "iterations_used": trace.iterations_used,
        "final_relative_change": trace.final_change,
        "p_u": trace.fixed_point[:-1].tolist(),
        "p_h": float(trace.fixed_point[-1]),
        "sinr": mx.sinr[-1].tolist(),
        "rate": mx.rate[-1].tolist(),
        "outage": mx.outage[-1].tolist(),
        "aggregate_power": float(mx.aggregate_power[-1]),
        "aggregate_throughput": float(mx.aggregate_throughput[-1]),
        "energy_feasible": mx.energy_feasible[-1].tolist(),
        "all_feasible": bool(mx.energy_feasible[-1].all()),
        "hbs_cap_binding": bool(mx.hbs_cap_binding[-1]),
        "distances": snap.distances.tolist(),
    }
    summary_path = out / f"summary_{alg.value.lower()}.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    _write_manifest([trace_path, summary_path], "snapshot", scenario, scenario.cfg.seed, t0)

    if not trace.converged:
        print(f"non-convergence after {trace.iterations_used} iterations", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"converged in {trace.iterations_used} iterations -> {trace_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    t0 = time.monotonic()
    scenario = _load(args)
    if args.axis not in SWEEP_AXES:
        print(f"invalid axis {args.axis!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print(f"could not parse sweep values {args.values!r}", file=sys.stderr)
        return EXIT_CONFIG
    if not values:
        print("empty sweep value list", file=sys.stderr)
        return EXIT_CONFIG
    if args.axis == "num_ues" and not all(v.is_integer() for v in values):
        print(f"num_ues values must be whole numbers, got {args.values!r}", file=sys.stderr)
        return EXIT_CONFIG
    names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not names:
        print("empty algorithm list", file=sys.stderr)
        return EXIT_CONFIG
    unknown = [a for a in names if a not in {alg.value for alg in Algorithm}]
    if unknown:
        print(f"unknown algorithm(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_CONFIG
    algorithms = [Algorithm(a) for a in names]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    solves = {}
    for alg in algorithms:
        result = run_monte_carlo(
            alg, scenario, args.axis, values, args.snapshots, **_overrides(args)
        )
        solves[alg.value] = [
            {
                "value": value,
                "n_converged": result.n_converged[vi],
                "n_nonconverged": result.n_nonconverged[vi],
                "n_stopped_early": result.n_stopped_early[vi],
                "converged_iterations": None if stats is None else dict(
                    zip(("min", "median", "max"), stats)
                ),
            }
            for vi, (value, stats) in enumerate(zip(result.values, result.converged_iterations))
        ]
        # one row per (axis value, metric), metrics varying fastest
        cells = [
            (value, metric, *result.stats[metric][vi], result.n_converged[vi])
            for vi, value in enumerate(result.values)
            for metric in SWEEP_METRICS
        ]
        path = out / f"sweep_{args.axis}_{alg.value.lower()}.csv"
        _write_csv(path, ["axis", "metric_name", "mean", "half_width", "n"], list(zip(*cells)))
        outputs.append(path)
        print(f"{alg.value}: wrote {path}")
    # per algorithm and axis value: how the solves ended, and the iteration
    # counts of the converged ones
    _write_manifest(outputs, "sweep", scenario, scenario.cfg.seed, t0, solves=solves)
    return EXIT_OK


def cmd_mobility(args) -> int:
    t0 = time.monotonic()
    scenario = _load(args)
    alg = Algorithm(args.algorithm)
    try:
        result = run_mobility(
            alg, scenario, args.duration,
            step=args.step, speed_kmh=args.speed_kmh, battery_init=args.battery_init,
        )
    except ConfigError:
        raise                    # main reports these
    except ValueError as exc:    # duration, step or battery_init out of range
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    columns = [
        result.time,
        result.metrics.sinr.mean(axis=-1),
        result.states[:, :-1].mean(axis=-1),
        result.states[:, -1],
        result.battery.min(axis=-1),
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"mobility_{alg.value.lower()}.csv"
    _write_csv(path, ["t", "avg_sinr", "avg_p_u", "p_h", "min_battery"], columns)
    _write_manifest([path], "mobility", scenario, scenario.cfg.seed, t0)
    dep = result.first_depletion_step
    print(f"wrote {path} (depletion step: {dep if dep is not None else 'none'})")
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    scenario = _load(args)
    claims = [c.strip() for c in args.claims.split(",")] if args.claims else list(CLAIMS)
    unknown = [c for c in claims if c not in CLAIMS]
    if unknown:
        print(f"unknown claim(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_CONFIG

    if args.k is not None:
        scenario = dataclasses.replace(
            scenario,
            cfg=dataclasses.replace(scenario.cfg, num_ues=args.k),
            fixed_ues=None,
        )
    k = scenario.cfg.num_ues
    rng = np.random.default_rng(scenario.cfg.seed)
    report: dict[str, dict] = {}
    failing: list[str] = []

    # the random snapshots the per-snapshot claims share, and the scenario's
    # own snapshot, each drawn once
    if PER_SNAPSHOT_CLAIMS.intersection(claims):
        batch = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, args.snapshots)
    if SCENARIO_CLAIMS.intersection(claims):
        snap = snapshot_from_scenario(scenario)

    for claim in claims:
        if claim == "uniqueness":
            rep = check_fixed_point_uniqueness(batch, (Algorithm.TPCEH, Algorithm.OPCEH), 10, rng)
            report[claim] = {
                "passed": bool(rep.passed.all()),
                "max_spread": float(rep.max_spread.max()),
            }
        elif claim == "scalability":
            entry = {"passed": True}
            for alg in (Algorithm.TPCEH, Algorithm.OPCEH):
                rep = check_two_sided_scalable(snap, alg, args.trials, rng)
                entry[alg.value] = {
                    "violations": rep.violations,
                    "counterexample": rep.counterexample,
                }
                entry["passed"] = entry["passed"] and rep.passed
            report[claim] = entry
        elif claim == "optimality":
            tol = 0.005 if k == 1 else 0.01
            rep = verify_min_power_optimality(batch, rel_tol=tol)
            reasons = rep.optimum.failing
            gaps = rep.gap[rep.optimum.feasible].tolist()
            report[claim] = {
                "passed": bool(rep.passed.all()),
                "rel_tol": tol,
                "max_gap": max(gaps) if gaps else None,
                "feasible": len(gaps),
                "infeasible": len(batch) - len(gaps),
                # the first condition each infeasible snapshot fails
                "failing": {name: int((reasons == name).sum()) for name in INFEASIBLE_CONDITIONS},
                # snapshots where some UE's circuit alone needs more than p_bar_h
                "p_min_above_p_bar_h": int(
                    (batch.p_min > batch.hbs.p_bar_h).any(axis=-1).sum()
                ),
            }
            if gaps:
                print(f"optimality: max gap {max(gaps):.3e} over {len(gaps)} scenarios")
        elif claim == "harvest-tightness":
            rep = check_harvest_power_tightness(solve(Algorithm.TPCEH, batch).fixed_point, batch)
            report[claim] = {
                "passed": bool(rep.passed.all()),
                "cap_binding_skipped": int(rep.cap_binding.sum()),
            }
        elif claim == "update-equivalence":
            rep = check_update_form_equivalence(batch, max(1, args.trials // 1000), rng)
            report[claim] = {
                "passed": bool(rep.passed.all()),
                "max_fixed_point_gap": float(rep.max_fixed_point_gap.max()),
            }
        elif claim == "fl-conditions":
            rep = fast_lipschitz_report(snap)
            report[claim] = {
                "passed": True,          # informational, never asserted
                "qualifies": rep.qualifies,
                "grad_norm_inf": rep.grad_norm_inf,
                "grad_norm_rowsum": rep.grad_norm_rowsum,
                "grad_nonneg": rep.grad_nonneg,
                "grad_f0_positive": rep.grad_f0_positive,
                "alpha": rep.alpha.tolist(),
            }
        if not report[claim].get("passed", False):
            failing.append(claim)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "verification.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    _write_manifest([path], "verify", scenario, scenario.cfg.seed, t0)

    for claim in claims:
        status = "pass" if report[claim].get("passed") else "FAIL"
        print(f"{claim}: {status}")
    if failing:
        print(f"failing claims: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def count(text: str) -> int:
    """A count flag's value: a whole number of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdpowerctl",
        description="Distributed power control simulator for full-duplex "
        "energy-harvesting cellular uplinks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out", help="output directory")

    p_snap = sub.add_parser("snapshot", help="single fixed-point run with trace")
    common(p_snap)
    p_snap.add_argument("--algorithm", default="TPCEH",
                        choices=[a.value for a in Algorithm])
    p_snap.set_defaults(func=cmd_snapshot)

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo sweep over one axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--algorithms", default="TPCEH",
                         help="comma-separated algorithm names")
    p_sweep.add_argument("--snapshots", type=count, default=200)
    p_sweep.set_defaults(func=cmd_sweep)

    # mobility and verify keep the scenario's own tol and max_iter
    for p in (p_snap, p_sweep):
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None, dest="max_iter")

    p_mob = sub.add_parser("mobility", help="moving UEs with finite batteries")
    common(p_mob)
    p_mob.add_argument("--algorithm", default="TPCEH",
                       choices=[a.value for a in Algorithm])
    p_mob.add_argument("--duration", type=float, required=True, help="seconds")
    p_mob.add_argument("--step", type=float, default=1e-3)
    p_mob.add_argument("--speed-kmh", type=float, default=5.0, dest="speed_kmh")
    p_mob.add_argument("--battery-init", type=float, default=1e-6, dest="battery_init")
    p_mob.set_defaults(func=cmd_mobility)

    p_ver = sub.add_parser("verify", help="run verification oracle checks")
    common(p_ver)
    p_ver.add_argument("--claims", default=None,
                       help=f"comma-separated subset of: {', '.join(CLAIMS)}")
    p_ver.add_argument("--k", type=int, default=None, help="override UE count")
    p_ver.add_argument("--snapshots", type=count, default=10)
    p_ver.add_argument("--trials", type=count, default=10000)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
