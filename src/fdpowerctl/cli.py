"""Command-line front end: scenario runs, sweeps, mobility and verification.

Every output file is deterministic for a given (config, flags, seed) and gets
a JSON manifest sidecar recording the invocation that produced it.

`main` is the one boundary: it loads the scenario, reports every input error
(exit 2) and writes every manifest. A command computes, writes its outputs,
which create the output directory, and returns (exit code, outputs, extra
manifest fields); it raises `UsageError` for a flag value it cannot use.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
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

# CSV cell formats by dtype kind: bools as 1/0, floats in scientific
# notation with 17 significant digits, anything else as str() gives it
_CELL_FORMATS = {"b": "{:d}", "f": "{:.16e}"}
# Rows per write of _write_csv.
CSV_CHUNK = 4096


class UsageError(Exception):
    """A flag value the command cannot use; main prints the message bare."""


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns (arrays or lists) under a header, each
    formatted by its dtype through one row template. Rows are formatted and
    written CSV_CHUNK at a time, so neither the file's text nor its cells as
    Python objects are ever held whole."""
    arrays = [np.asarray(column) for column in columns]
    template = ",".join(_CELL_FORMATS.get(a.dtype.kind, "{}") for a in arrays)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(arrays[0]), CSV_CHUNK):
            cells = (a[start : start + CSV_CHUNK].tolist() for a in arrays)
            f.write("\n".join(map(template.format, *cells)) + "\n")


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _write_manifest(
    out_files: list[Path], subcommand: str, scenario: Scenario, t0: float, **extra
) -> None:
    manifest = {
        "subcommand": subcommand,
        "config_hash": config_hash(scenario_to_dict(scenario)),
        "seed": scenario.cfg.seed,
        "tool_version": __version__,
        "outputs": [f.name for f in out_files],
        "duration_s": time.monotonic() - t0,
        **extra,
    }
    for f in out_files:
        _write_json(f.with_name(f.name + ".manifest.json"), manifest)


def _listed(text: str, known, noun: str) -> list[str]:
    """The names of a comma-separated list, each once in the order first named,
    empty entries dropped; UsageError if it names nothing or a name not in `known`."""
    names = list(dict.fromkeys(n.strip() for n in text.split(",") if n.strip()))
    unknown = [n for n in names if n not in known]
    if not names:
        raise UsageError(f"empty {noun} list")
    if unknown:
        raise UsageError(f"unknown {noun}(s): {', '.join(unknown)}")
    return names


def _load(args) -> Scenario:
    """The config file's scenario with --seed, and verify's --k, applied."""
    scenario = load_scenario(args.config)
    seed = scenario.cfg.seed if args.seed is None else args.seed
    scenario = dataclasses.replace(scenario, cfg=dataclasses.replace(scenario.cfg, seed=seed))
    if getattr(args, "k", None) is not None:     # that many random UEs
        cfg = dataclasses.replace(scenario.cfg, num_ues=args.k)
        scenario = dataclasses.replace(scenario, cfg=cfg, fixed_ues=None)
    return scenario


def cmd_snapshot(args, scenario: Scenario, out: Path):
    alg = Algorithm(args.algorithm)
    snap = snapshot_from_scenario(scenario)
    trace = run_fixed_point(alg, snap, tol=args.tol, max_iter=args.max_iter)
    K = snap.num_ues
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
    _write_json(summary_path, summary)

    if not trace.converged:
        print(f"non-convergence after {trace.iterations_used} iterations", file=sys.stderr)
        return EXIT_NO_CONVERGENCE, [trace_path, summary_path], {}
    print(f"converged in {trace.iterations_used} iterations -> {trace_path}")
    return EXIT_OK, [trace_path, summary_path], {}


def cmd_sweep(args, scenario: Scenario, out: Path):
    if args.axis not in SWEEP_AXES:
        raise UsageError(f"invalid axis {args.axis!r}")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"could not parse sweep values {args.values!r}") from None
    if not values:
        raise UsageError("empty sweep value list")
    if args.axis == "num_ues" and not all(v.is_integer() for v in values):
        raise UsageError(f"num_ues values must be whole numbers, got {args.values!r}")
    names = _listed(args.algorithms, {alg.value for alg in Algorithm}, "algorithm")

    results = run_monte_carlo(
        names, scenario, args.axis, values, args.snapshots, tol=args.tol, max_iter=args.max_iter
    )
    outputs = []
    for name, result in zip(names, results):
        # one row per (axis value, metric), metrics varying fastest
        cells = [
            (record["value"], metric, *result.stats[metric][vi], record["n_converged"])
            for vi, record in enumerate(result.solves)
            for metric in SWEEP_METRICS
        ]
        path = out / f"sweep_{args.axis}_{name.lower()}.csv"
        _write_csv(path, ["axis", "metric_name", "mean", "half_width", "n"], list(zip(*cells)))
        outputs.append(path)
        print(f"{name}: wrote {path}")
    return EXIT_OK, outputs, {"solves": {n: r.solves for n, r in zip(names, results)}}


def cmd_mobility(args, scenario: Scenario, out: Path):
    alg = Algorithm(args.algorithm)
    try:
        result = run_mobility(
            alg, scenario, args.duration,
            step=args.step, speed_kmh=args.speed_kmh, battery_init=args.battery_init,
        )
    except ConfigError:
        raise                    # main reports these
    except ValueError as exc:    # duration, step, speed or battery_init out of range
        raise UsageError(str(exc)) from None
    columns = [
        result.time,
        result.metrics.sinr.mean(axis=-1),
        result.states[:, :-1].mean(axis=-1),
        result.states[:, -1],
        result.battery.min(axis=-1),
    ]
    path = out / f"mobility_{alg.value.lower()}.csv"
    _write_csv(path, ["t", "avg_sinr", "avg_p_u", "p_h", "min_battery"], columns)
    dep = result.first_depletion_step
    print(f"wrote {path} (depletion step: {dep if dep is not None else 'none'})")
    return EXIT_OK, [path], {}


def _uniqueness(batch, snap, rng, args) -> dict:
    rep = check_fixed_point_uniqueness(batch(), (Algorithm.TPCEH, Algorithm.OPCEH), 10, rng)
    return {"passed": bool(rep.passed.all()), "max_spread": float(rep.max_spread.max())}


def _scalability(batch, snap, rng, args) -> dict:
    entry = {"passed": True}
    for alg in (Algorithm.TPCEH, Algorithm.OPCEH):
        rep = check_two_sided_scalable(snap(), alg, args.trials, rng)
        entry[alg.value] = {"violations": rep.violations, "counterexample": rep.counterexample}
        entry["passed"] = entry["passed"] and rep.passed
    return entry


def _optimality(batch, snap, rng, args) -> dict:
    snaps = batch()
    tol = 0.005 if snaps.num_ues == 1 else 0.01
    rep = verify_min_power_optimality(snaps, rel_tol=tol)
    gaps = rep.gap[rep.optimum.feasible].tolist()
    if gaps:
        print(f"optimality: max gap {max(gaps):.3e} over {len(gaps)} scenarios")
    return {
        "passed": bool(rep.passed.all()),
        "rel_tol": tol,
        "max_gap": max(gaps) if gaps else None,
        "feasible": len(gaps),
        "infeasible": len(snaps) - len(gaps),
        # the first condition each infeasible snapshot fails
        "failing": {c: int((rep.optimum.failing == c).sum()) for c in INFEASIBLE_CONDITIONS},
        # snapshots where some UE's circuit alone needs more than p_bar_h
        "p_min_above_p_bar_h": int((snaps.p_min > snaps.hbs.p_bar_h).any(axis=-1).sum()),
    }


def _harvest_tightness(batch, snap, rng, args) -> dict:
    rep = check_harvest_power_tightness(solve(Algorithm.TPCEH, batch()).fixed_point, batch())
    return {"passed": bool(rep.passed.all()), "cap_binding_skipped": int(rep.cap_binding.sum())}


def _update_equivalence(batch, snap, rng, args) -> dict:
    rep = check_update_form_equivalence(batch(), max(1, args.trials // 1000), rng)
    gap = float(rep.max_fixed_point_gap.max())
    return {"passed": bool(rep.passed.all()), "max_fixed_point_gap": gap}


def _fl_conditions(batch, snap, rng, args) -> dict:
    rep = fast_lipschitz_report(snap())
    return {
        "passed": True,          # never asserted
        "informational": True,
        "qualifies": rep.qualifies,
        "grad_norm_inf": rep.grad_norm_inf,
        "grad_nonneg": rep.grad_nonneg,
        "alpha": rep.alpha.tolist(),
    }


# claim -> check(batch, snap, rng, args) -> report entry; batch() and snap()
# are cached draws, and each check calls the oracle by this module's names,
# which tests and the benchmark wrap. The claims share one generator in the
# order they run, so this order, a run's without --claims, is its draw order.
CLAIMS = {
    "uniqueness": _uniqueness,
    "scalability": _scalability,
    "optimality": _optimality,
    "harvest-tightness": _harvest_tightness,
    "update-equivalence": _update_equivalence,
    "fl-conditions": _fl_conditions,
}


def cmd_verify(args, scenario: Scenario, out: Path):
    claims = list(CLAIMS) if args.claims is None else _listed(args.claims, CLAIMS, "claim")
    rng = np.random.default_rng(scenario.cfg.seed)
    batch = functools.cache(
        lambda: sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, args.snapshots)
    )
    snap = functools.cache(lambda: snapshot_from_scenario(scenario))
    report = {claim: CLAIMS[claim](batch, snap, rng, args) for claim in claims}
    failing = [claim for claim, entry in report.items() if not entry["passed"]]
    path = out / "verification.json"
    _write_json(path, report)

    for claim, entry in report.items():
        print(f"{claim}: {'pass' if entry['passed'] else 'FAIL'}")
    if failing:
        print(f"failing claims: {', '.join(failing)}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failing else EXIT_OK, [path], {}


def count(text: str) -> int:
    """A count flag's value: a whole number of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def seed(text: str) -> int:
    """A --seed value: a whole number of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def tolerance(text: str) -> float:
    """A --tol value: a finite number above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def step_budget(text: str) -> int:
    """A --max-iter value: a whole number of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
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
        p.add_argument("--seed", type=seed, default=None)
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
        p.add_argument("--tol", type=tolerance, default=None)
        p.add_argument("--max-iter", type=step_budget, default=None, dest="max_iter")

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
    p_ver.add_argument("--k", type=count, default=None, help="override UE count")
    p_ver.add_argument("--snapshots", type=count, default=10)
    p_ver.add_argument("--trials", type=count, default=10000)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a list that starts with a negative number, such as
    # -120,-100, as an option: pass `--values X` on as `--values=X`
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--values" and not argv[i + 1].startswith("--"):
            argv[i : i + 2] = [f"--values={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        scenario = _load(args)
        code, outputs, extra = args.func(args, scenario, Path(args.out))
    except (ConfigError, FileNotFoundError) as exc:
        for err in getattr(exc, "errors", [exc]):
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    _write_manifest(outputs, args.subcommand, scenario, t0, **extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
