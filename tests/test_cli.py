import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from fdpowerctl import __version__, cli
from fdpowerctl.cli import main
from fdpowerctl.config import config_hash, load_scenario, scenario_to_dict

from conftest import CONFIG_DIR

PAPER = str(CONFIG_DIR / "paper_4a.json")
DESK = str(CONFIG_DIR / "desk_consistent.json")


def test_snapshot_reference_tpceh(tmp_path):
    rc = main(["snapshot", "--config", PAPER, "--algorithm", "TPCEH",
               "--out", str(tmp_path)])
    assert rc == 0
    trace = (tmp_path / "trace_tpceh.csv").read_text().splitlines()
    header = trace[0].split(",")
    assert header[0] == "t"
    assert "p_h" in header
    # outage-free at the fixed point: final sinr values match the targets
    summary = json.loads((tmp_path / "summary_tpceh.json").read_text())
    assert summary["converged"]
    assert summary["outage"] == [False] * 5
    assert summary["hbs_cap_binding"] is True       # verbatim parameters
    for got, want in zip(summary["sinr"], [0.04, 0.05, 0.07, 0.08, 0.1]):
        assert got == pytest.approx(want, rel=1e-6)
    # manifest sidecars exist and reference the outputs
    manifest = json.loads((tmp_path / "trace_tpceh.csv.manifest.json").read_text())
    assert "trace_tpceh.csv" in manifest["outputs"]
    assert manifest["subcommand"] == "snapshot"


def test_snapshot_desk_feasible(tmp_path):
    rc = main(["snapshot", "--config", DESK, "--algorithm", "TPCEH",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary_tpceh.json").read_text())
    assert summary["all_feasible"] is True
    assert summary["hbs_cap_binding"] is False


def test_snapshot_opceh_best_channel_dominates(tmp_path):
    rc = main(["snapshot", "--config", PAPER, "--algorithm", "OPCEH",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary_opceh.json").read_text())
    p_u = summary["p_u"]
    sinr = summary["sinr"]
    # the 8 m UE is listed last and must dominate both lists strictly
    assert max(p_u[:-1]) < p_u[-1]
    assert max(sinr[:-1]) < sinr[-1]


def test_snapshot_zero_budget_exits_3(tmp_path):
    rc = main(["snapshot", "--config", PAPER, "--max-iter", "0",
               "--out", str(tmp_path)])
    assert rc == 3


def test_missing_config_exits_2(tmp_path):
    rc = main(["snapshot", "--config", str(tmp_path / "none.json"),
               "--out", str(tmp_path)])
    assert rc == 2


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": {}, "hbs": {}, "ue_template": {},
                               "mystery": 1}))
    rc = main(["snapshot", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2


def test_snapshot_partial_mu_override(tmp_path):
    # only the first fixed UE gives mu; the others take the template's
    doc = json.loads(Path(PAPER).read_text())
    for fu in doc["fixed_ues"][1:]:
        del fu["mu"]
    path = tmp_path / "partial_mu.json"
    path.write_text(json.dumps(doc))
    rc = main(["snapshot", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "summary_tpceh.json").exists()


def test_snapshot_nan_distance_exits_2(tmp_path, capsys):
    # Python's json reads NaN; the distance check must not let it through
    doc = json.loads(Path(DESK).read_text())
    doc["fixed_ues"][1]["distance"] = float("nan")
    path = tmp_path / "nan_distance.json"
    path.write_text(json.dumps(doc))
    rc = main(["snapshot", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: ues[1].distance: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_snapshot_nan_tol_exits_2(tmp_path, capsys):
    # a NaN tol would never stop the iteration; validation must refuse it
    doc = json.loads(Path(DESK).read_text())
    doc["scenario"]["tol"] = float("nan")
    path = tmp_path / "nan_tol.json"
    path.write_text(json.dumps(doc))
    rc = main(["snapshot", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: scenario.tol: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_manifest_records_how_solves_ended(tmp_path):
    rc = main(["sweep", "--config", DESK, "--axis", "num_ues", "--values", "2,5",
               "--algorithms", "OPCEH,TPC", "--snapshots", "200", "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "sweep_num_ues_opceh.csv.manifest.json").read_text())
    opceh = manifest["solves"]["OPCEH"]
    assert [s["value"] for s in opceh] == [2.0, 5.0]
    # the 7 snapshots on which OPCEH does not converge at K=5 stop early
    assert [(s["n_converged"], s["n_nonconverged"], s["n_stopped_early"]) for s in opceh] == [
        (200, 0, 0), (193, 7, 7),
    ]
    assert opceh[1]["converged_iterations"] == {"min": 5, "median": 10.0, "max": 53}
    assert [s["n_stopped_early"] for s in manifest["solves"]["TPC"]] == [0, 0]
    # the CSV's n column is the converged count
    rows = (tmp_path / "sweep_num_ues_opceh.csv").read_text().splitlines()[1:]
    assert {r.split(",")[-1] for r in rows} == {"200", "193"}


def test_sweep_invalid_axis_exits_2(tmp_path):
    rc = main(["sweep", "--config", DESK, "--axis", "nonsense",
               "--values", "1,2", "--out", str(tmp_path)])
    assert rc == 2


def test_sweep_single_value_matches_snapshot(tmp_path):
    rc = main(["sweep", "--config", DESK, "--axis", "delta_db",
               "--values", "-120", "--algorithms", "TPCEH", "--snapshots", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "sweep_delta_db_tpceh.csv").read_text().splitlines()
    assert rows[0] == "axis,metric_name,mean,half_width,n"
    table = {r.split(",")[1]: float(r.split(",")[2]) for r in rows[1:]}
    # one random snapshot at delta=-120 dB reduces to a single run
    from fdpowerctl.channel import sample_batch
    from fdpowerctl.config import load_scenario
    from fdpowerctl.core import Algorithm
    from fdpowerctl.engine import run_fixed_point

    scenario = load_scenario(DESK)
    snap = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, 1).rows(0)
    trace = run_fixed_point(Algorithm.TPCEH, snap)
    assert table["p_h"] == pytest.approx(trace.fixed_point[-1], rel=1e-12)


def test_sweep_outputs_deterministic(tmp_path):
    args = ["sweep", "--config", DESK, "--axis", "cell_side",
            "--values", "40,50", "--algorithms", "OPCEH", "--snapshots", "3"]
    rc = main(args + ["--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(args + ["--out", str(tmp_path / "b")])
    assert rc == 0
    a = (tmp_path / "a" / "sweep_cell_side_opceh.csv").read_bytes()
    b = (tmp_path / "b" / "sweep_cell_side_opceh.csv").read_bytes()
    assert a == b


def test_sweep_repeated_algorithm_runs_once(tmp_path, capsys):
    rc = main(["sweep", "--config", DESK, "--axis", "cell_side", "--values", "40",
               "--algorithms", "TPCEH,,TPCEH", "--snapshots", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        f"TPCEH: wrote {tmp_path / 'sweep_cell_side_tpceh.csv'}"
    ]
    manifest = json.loads((tmp_path / "sweep_cell_side_tpceh.csv.manifest.json").read_text())
    assert manifest["outputs"] == ["sweep_cell_side_tpceh.csv"]


def _sweep_csv(out, config, axis, values, algorithm, snapshots=5) -> list[str]:
    rc = main(["sweep", "--config", config, "--axis", axis, "--values", values,
               "--algorithms", algorithm, "--snapshots", str(snapshots), "--out", str(out)])
    assert rc == 0
    return (out / f"sweep_{axis}_{algorithm.lower()}.csv").read_text().splitlines()


def test_sweep_draws_each_stream_once(tmp_path, monkeypatch):
    built, default_rng = [], np.random.default_rng

    def counting_rng(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    rc = main(["sweep", "--config", DESK, "--axis", "num_ues", "--values", "2,5,10,20",
               "--algorithms", "TPCEH,OPCEH", "--snapshots", "7", "--out", str(tmp_path)])
    assert rc == 0
    # one generator per snapshot stream 1 .. 7, in order, whatever the axis
    # values and algorithms
    assert built == [(seed,) for seed in range(1, 8)]
    monkeypatch.undo()
    for alg in ("TPCEH", "OPCEH"):
        _sweep_csv(tmp_path / alg, DESK, "num_ues", "2,5,10,20", alg, 7)
        name = f"sweep_num_ues_{alg.lower()}.csv"
        assert (tmp_path / name).read_bytes() == (tmp_path / alg / name).read_bytes()


def _random_mu_config(tmp_path) -> str:
    # paper_4a with each UE's mu drawn at random
    doc = json.loads((CONFIG_DIR / "paper_4a.json").read_text())
    doc["ue_template"]["mu"] = None
    path = tmp_path / "random_mu.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("axis, values", [("num_ues", "20,2,10"), ("cell_side", "40,60")])
@pytest.mark.parametrize("config", ["desk-fixed-mu", "paper-random-mu"])
def test_sweep_rows_equal_single_value_sweeps(tmp_path, config, axis, values):
    # the vectorised fixed-mu draw, and the per-UE loop of a random mu: a
    # value's rows do not depend on the other values or on their order
    path = DESK if config == "desk-fixed-mu" else _random_mu_config(tmp_path)
    swept = _sweep_csv(tmp_path / "all", path, axis, values, "TPCEH")
    alone = [_sweep_csv(tmp_path / v, path, axis, v, "TPCEH")[1:] for v in values.split(",")]
    assert swept[1:] == [row for rows in alone for row in rows]


@pytest.mark.parametrize("axis, values, rows", [
    ("num_ues", "2,5,10,20", 7 * 20),
    ("cell_side", "30,60,30", 2 * 7 * 5),
])
def test_sweep_distances_once_per_cell_side(tmp_path, monkeypatch, axis, values, rows):
    # the CSVs equal those of a sweep that places every value afresh, and
    # each distinct cell side computes the draw's distances once
    import fdpowerctl.channel as channel
    import fdpowerctl.engine as engine

    args = ["sweep", "--config", DESK, "--axis", axis, "--values", values,
            "--algorithms", "TPC,OPC,TPCEH,OPCEH", "--snapshots", "7"]
    measured = []
    hypot_rows = channel._distances

    def counting(x, y, cfg):
        measured.append(len(x))
        return hypot_rows(x, y, cfg)

    monkeypatch.setattr(channel, "_distances", counting)
    assert main(args + ["--out", str(tmp_path / "shared")]) == 0
    assert sum(measured) == rows
    draw_ues, place_ues, draws = engine.draw_ues, engine.place_ues, []

    def recording(*args):
        draws.append(draw_ues(*args))
        return draws[-1]

    def fresh(cfg, hbs, template, mu, shared):
        unit = draws[-1][0][:, :cfg.num_ues]
        return place_ues(cfg, hbs, template, mu, channel.cell_distances(cfg, unit))

    monkeypatch.setattr(engine, "draw_ues", recording)
    monkeypatch.setattr(engine, "place_ues", fresh)
    assert main(args + ["--out", str(tmp_path / "fresh")]) == 0
    for alg in ("tpc", "opc", "tpceh", "opceh"):
        name = f"sweep_{axis}_{alg}.csv"
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_sweep_bad_value_fails_before_any_solve(tmp_path, monkeypatch, capsys):
    from fdpowerctl.core import JointUpdate

    def no_solve(*args):
        raise AssertionError("a solve ran before every value was checked")

    # the solve's loop steps the update bound to its batch
    monkeypatch.setattr(JointUpdate, "__call__", no_solve)
    rc = main(["sweep", "--config", DESK, "--axis", "num_ues", "--values", "5,0",
               "--snapshots", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.strip() == "config error: scenario.num_ues: must be at least 1"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("axis, values, error", [
    ("cell_side", "50,inf", "scenario.cell_side: must be finite"),
    ("cell_side", "nan", "scenario.cell_side: must be finite"),
    ("gamma_target", "0.05,-1", "ue_template.gamma_target: must be non-negative"),
])
def test_sweep_invalid_value_is_reported_once_before_the_draw(tmp_path, monkeypatch, capsys,
                                                              axis, values, error):
    # each value's scenario is checked before the UEs are drawn and placed;
    # placing them in a cell of infinite side would warn (an error here)
    import fdpowerctl.engine as engine

    def no_draw(*args):
        raise AssertionError("UEs were drawn before every value was checked")

    monkeypatch.setattr(engine, "draw_ues", no_draw)
    rc = main(["sweep", "--config", DESK, "--axis", axis, f"--values={values}",
               "--snapshots", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"config error: {error}"
    assert not list(tmp_path.iterdir())


def test_sweep_overflowing_delta_exits_2(tmp_path, capsys):
    # 10 ** 400 is past the largest float: the delta is inf, not a traceback
    rc = main(["sweep", "--config", DESK, "--axis", "delta_db", "--values=4000",
               "--snapshots", "2", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.strip() == "config error: scenario.delta: must be finite"
    assert not list(tmp_path.iterdir())


def _overflowing_leakage_config(tmp_path):
    # delta = 1e308 is finite, but delta * p_bar_h (10 W) is not; the zero
    # target's factor of 0 would meet the infinite interference as NaN
    doc = json.loads(Path(DESK).read_text())
    doc["scenario"]["delta_db"] = 3080
    doc["fixed_ues"][0]["gamma_target"] = 0
    path = tmp_path / "overflowing_leakage.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["snapshot"],
    ["sweep", "--axis", "delta_db", "--values", "3080", "--snapshots", "2"],
])
def test_overflowing_leakage_exits_2(tmp_path, capsys, argv):
    config = DESK if argv[0] == "sweep" else _overflowing_leakage_config(tmp_path)
    rc = main([*argv, "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        "config error: scenario.delta: delta * hbs.p_bar_h must be finite"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, k, snapshots", [
    (["sweep", "--axis", "num_ues", "--values=1e20"], 10**20, 200),
    (["verify", "--k", str(10**20)], 10**20, 10),
    (["sweep", "--axis", "num_ues", "--values=2", "--snapshots", str(10**20)], 2, 10**20),
], ids=["sweep-ues", "verify-k", "sweep-snapshots"])
def test_draws_too_large_for_memory_exit_2(tmp_path, capsys, argv, k, snapshots):
    # numpy refuses these draws' shapes outright, before allocating anything
    rc = main([*argv, "--config", DESK, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"config error: scenario.num_ues: {k} UEs in each of {snapshots} snapshots "
        "do not fit in memory"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("claim, trials", [
    ("scalability", 10**17),
    ("scalability", 10**19),
    ("update-equivalence", 10**18),
    ("update-equivalence", 10**20),
])
def test_trials_too_large_for_memory_exit_2(tmp_path, capsys, claim, trials):
    # every size here is past any address space, and the larger of each
    # claim's two past what numpy can describe; both are refused before a
    # number is drawn
    rc = main(["verify", "--claims", claim, "--trials", str(trials), "--config", DESK,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"too many trials: --trials {trials} do not fit in memory"
    )
    assert not (tmp_path / "out").exists()


def test_mobility_zero_duration_header_only(tmp_path):
    rc = main(["mobility", "--config", DESK, "--algorithm", "TPC",
               "--duration", "0", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "mobility_tpc.csv").read_text().splitlines()
    assert lines == ["t,avg_sinr,avg_p_u,p_h,min_battery"]


def test_mobility_negative_duration_exits_2(tmp_path):
    rc = main(["mobility", "--config", DESK, "--duration", "-1",
               "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("flags", [
    ["--step", "0"], ["--step", "-0.001"], ["--step", "nan"], ["--step", "inf"],
    ["--duration", "nan"], ["--duration", "inf"],
    ["--battery-init", "nan"], ["--battery-init", "-1"],
    ["--speed-kmh", "nan"], ["--speed-kmh", "inf"], ["--speed-kmh", "-5"],
])
def test_mobility_invalid_step_or_duration_exits_2(tmp_path, capsys, flags):
    argv = ["mobility", "--config", DESK, "--duration", "0.01", "--out", str(tmp_path)]
    rc = main(argv + flags)
    assert rc == 2
    assert "must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_mobility_too_many_steps_exits_2(tmp_path, capsys, monkeypatch):
    # 1e303 steps: numpy refuses the run's arrays, which are allocated before
    # any per-step loop; a loop that started anyway fails here at once
    import builtins
    import fdpowerctl.engine as engine

    def bounded_range(*args):
        assert max(args) < 10**9, "a per-step loop started"
        return builtins.range(*args)

    monkeypatch.setattr(engine, "range", bounded_range, raising=False)
    rc = main(["mobility", "--config", DESK, "--duration", "1e300",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        "too many steps: duration / step = 1e+300 / 0.001 = 1e+303 steps do not fit in memory"
    )
    assert not (tmp_path / "out").exists()


def test_mobility_step_count_past_the_largest_float_exits_2(tmp_path, capsys):
    # duration / step overflows to inf, which no step count can be
    rc = main(["mobility", "--config", DESK, "--duration", "1e10", "--step", "1e-320",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        "too many steps: duration / step = 1e+10 / 9.99989e-321 = inf steps do not fit in memory"
    )
    assert not (tmp_path / "out").exists()


def test_mobility_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError for arrays too large to allocate
    import fdpowerctl.engine as engine

    def refuse(*args):
        raise MemoryError("Unable to allocate 29.1 TiB")

    monkeypatch.setattr(engine, "_trajectory", refuse)
    rc = main(["mobility", "--config", DESK, "--duration", "1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        "too many steps: duration / step = 1 / 0.001 = 1000 steps do not fit in memory"
    )
    assert not (tmp_path / "out").exists()


def test_sweep_gain_errors_reported_once(tmp_path, capsys):
    # in a cell of side 1e308 m every distance cubed overflows, so every gain
    # is 0: one error line per UE, as the uplink gain h is g, and numpy's
    # overflow warning (an error under this suite's warning filter) is not raised
    rc = main(["sweep", "--config", DESK, "--axis", "cell_side", "--values", "1e308",
               "--snapshots", "3", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: ues[{i}].g: channel gain must be strictly positive" for i in range(5)
    ]
    assert not (tmp_path / "out").exists()


def test_mobility_cell_side_near_the_largest_float_exits_2(tmp_path, capsys):
    # the fixed UEs start spread along the x=0 edge of a 1e308 m cell: the
    # first sits 1e308 / 6 m up, whose cubed distance overflows to a gain of
    # 0; the others' heights overflow to inf; each is a config error, and
    # placing them raises no overflow warning (an error under this suite's
    # warning filter)
    doc = json.loads(Path(DESK).read_text())
    doc["scenario"]["cell_side"] = 1e308
    config = tmp_path / "huge_cell.json"
    config.write_text(json.dumps(doc))
    rc = main(["mobility", "--config", str(config), "--duration", "0.01",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: ues[0].g: channel gain must be strictly positive",
        *(f"config error: ues[{i}].distance: must be finite" for i in range(1, 5)),
    ]
    assert not (tmp_path / "out").exists()


def test_mobility_tpceh_harvest_switch(tmp_path):
    rc = main(["mobility", "--config", DESK, "--algorithm", "TPCEH",
               "--duration", "0.8", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "mobility_tpceh.csv").read_text().splitlines()[1:]
    p_h = [float(line.split(",")[3]) for line in lines]
    assert p_h[0] == 0.0
    assert max(p_h) > 0.0


def test_verify_unknown_claim_exits_2(tmp_path):
    rc = main(["verify", "--config", DESK, "--claims", "notaclaim",
               "--out", str(tmp_path)])
    assert rc == 2


def test_verify_scalability_passes(tmp_path):
    rc = main(["verify", "--config", DESK, "--claims", "scalability",
               "--trials", "500", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["scalability"]["passed"]
    assert report["scalability"]["TPCEH"]["violations"] == 0


def test_verify_optimality_k2(tmp_path):
    rc = main(["verify", "--config", DESK, "--claims", "optimality",
               "--k", "2", "--snapshots", "3", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["optimality"]["passed"]
    assert report["optimality"]["max_gap"] <= 0.01


@pytest.mark.parametrize("config, flags", [
    (DESK, ["--k", "5", "--claims", "optimality"]),
    (PAPER, ["--k", "5", "--claims", "optimality"]),
    # every claim on the bundled K=5
    (DESK, ["--snapshots", "2", "--trials", "200"]),
], ids=["desk-k5", "paper-k5", "desk-all-claims"])
def test_verify_optimality_at_any_k(tmp_path, config, flags):
    rc = main(["verify", "--config", config, "--out", str(tmp_path), *flags])
    assert rc == 0
    entry = json.loads((tmp_path / "verification.json").read_text())["optimality"]
    n = entry["feasible"] + entry["infeasible"]
    assert entry["passed"]
    assert sum(entry["failing"].values()) == entry["infeasible"]
    if config == DESK:
        assert entry["feasible"] == n
        assert entry["max_gap"] <= 1e-12
    else:
        # some UE's circuit alone needs more than the harvest peak allows
        assert entry["infeasible"] == entry["p_min_above_p_bar_h"] == n
        assert entry["failing"]["cap"] == n
        assert entry["max_gap"] is None


def test_verify_fl_conditions_informational(tmp_path):
    rc = main(["verify", "--config", DESK, "--claims", "fl-conditions",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    entry = report["fl-conditions"]
    assert entry["passed"] and entry["informational"]
    assert "qualifies" in entry and "grad_norm_inf" in entry


@pytest.mark.parametrize("flags, expected", [
    # the per-snapshot claims share one batch and draw no scenario snapshot
    (["--claims", "optimality,harvest-tightness"], [("sample_batch", 3)]),
    # the scenario claims share its own snapshot and draw no batch
    (["--claims", "scalability,fl-conditions"], [("snapshot_from_scenario", 2)]),
    # every claim: one of each
    ([], [("sample_batch", 3), ("snapshot_from_scenario", 2)]),
], ids=["batch-only", "scenario-only", "all-claims"])
def test_verify_draws_each_snapshot_once(tmp_path, monkeypatch, flags, expected):
    import fdpowerctl.cli as cli

    drawn = []
    original_batch, original_one = cli.sample_batch, cli.snapshot_from_scenario

    def counting_batch(cfg, hbs, ue_template, n_snapshots):
        drawn.append(("sample_batch", n_snapshots))
        return original_batch(cfg, hbs, ue_template, n_snapshots)

    def counting_one(scenario):
        drawn.append(("snapshot_from_scenario", scenario.cfg.num_ues))
        return original_one(scenario)

    monkeypatch.setattr(cli, "sample_batch", counting_batch)
    monkeypatch.setattr(cli, "snapshot_from_scenario", counting_one)
    rc = main(["verify", "--config", DESK, "--k", "2", "--snapshots", "3",
               "--trials", "100", "--out", str(tmp_path), *flags])
    assert rc == 0
    assert sorted(drawn) == expected


def test_generator_free_claims_alone_match_the_full_run(tmp_path):
    # these claims read no generator, so where they run in the order
    # cannot change their entries
    argv = ["verify", "--config", DESK, "--k", "2", "--snapshots", "3", "--trials", "200"]
    assert main([*argv, "--out", str(tmp_path / "all")]) == 0
    full = json.loads((tmp_path / "all" / "verification.json").read_text())
    for claim in ("optimality", "harvest-tightness", "fl-conditions"):
        out = tmp_path / claim
        assert main([*argv, "--claims", claim, "--out", str(out)]) == 0
        alone = json.loads((out / "verification.json").read_text())
        assert alone == {claim: full[claim]}


@pytest.mark.parametrize("claims, same_as", [
    # an empty entry is dropped
    ("optimality,", "optimality"),
    (" ,optimality, ", "optimality"),
    # a claim named twice runs once, where it was first named
    ("optimality,optimality", "optimality"),
    ("uniqueness,uniqueness", "uniqueness"),
    ("fl-conditions,uniqueness,fl-conditions", "fl-conditions,uniqueness"),
])
def test_verify_claim_list_runs_each_named_claim_once(tmp_path, capsys, claims, same_as):
    argv = ["verify", "--config", DESK, "--k", "2", "--snapshots", "2", "--trials", "200"]
    outputs = []
    for name, text in (("given", claims), ("plain", same_as)):
        assert main([*argv, "--claims", text, "--out", str(tmp_path / name)]) == 0
        outputs.append(((tmp_path / name / "verification.json").read_text(),
                        capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0][0])
    assert list(report) == same_as.split(",")
    assert outputs[0][1].count(": pass") == len(report)


@pytest.mark.parametrize("claims", ["", ",", " , "])
def test_verify_empty_claim_list_exits_2(tmp_path, capsys, claims):
    rc = main(["verify", "--config", DESK, "--claims", claims, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.strip() == "empty claim list"
    assert not list(tmp_path.iterdir())


def test_verify_calls_each_check_and_solve_once_per_claim(tmp_path, monkeypatch):
    import fdpowerctl.cli as cli
    import fdpowerctl.oracle as oracle

    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("check_fixed_point_uniqueness", "check_update_form_equivalence",
                 "check_harvest_power_tightness", "solve"):
        counting(cli, name)
    counting(oracle, "solve")
    rc = main(["verify", "--config", DESK, "--k", "2", "--snapshots", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    # one batched call per claim, whatever the number of snapshots; solve
    # runs twice for uniqueness (one per algorithm) and once each for
    # update-equivalence, optimality, harvest-tightness and the point
    # fl-conditions is evaluated at
    assert {name: calls.count(name) for name in set(calls)} == {
        "check_fixed_point_uniqueness": 1,
        "check_update_form_equivalence": 1,
        "check_harvest_power_tightness": 1,
        "solve": 6,
    }


def _exits_2_in_argparse(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--k", "2", "--snapshots", "-1"], "--snapshots: must be at least 1, got -1"),
    (["sweep", "--axis", "num_ues", "--values", "2", "--snapshots", "-1"],
     "--snapshots: must be at least 1, got -1"),
    (["verify", "--k", "2", "--trials", "-3"], "--trials: must be at least 1, got -3"),
    # --tol and --max-iter get the checks the config file's tol and max_iter get
    (["snapshot", "--tol", "nan"], "--tol: must be positive and finite, got nan"),
    (["snapshot", "--tol", "-1"], "--tol: must be positive and finite, got -1"),
    (["snapshot", "--tol", "0"], "--tol: must be positive and finite, got 0"),
    (["snapshot", "--tol", "inf"], "--tol: must be positive and finite, got inf"),
    (["sweep", "--axis", "num_ues", "--values", "2", "--tol", "nan"],
     "--tol: must be positive and finite, got nan"),
    (["snapshot", "--max-iter", "-3"], "--max-iter: must be at least 0, got -3"),
    (["sweep", "--axis", "num_ues", "--values", "2", "--max-iter", "-1"],
     "--max-iter: must be at least 0, got -1"),
    (["verify", "--k", "0"], "--k: must be at least 1, got 0"),
    (["verify", "--k", "-2"], "--k: must be at least 1, got -2"),
])
def test_counts_below_one_exit_2(tmp_path, capsys, argv, message):
    err = _exits_2_in_argparse([*argv, "--config", DESK, "--out", str(tmp_path)], capsys)
    assert message in err
    # the flag is named, not the config field it overrides
    assert "num_ues" not in err
    assert not list(tmp_path.iterdir())


NEGATIVE_SEED_COMMANDS = [
    ["sweep", "--axis", "num_ues", "--values", "2,5", "--snapshots", "3"],
    ["verify", "--k", "2"],
]


@pytest.mark.parametrize("argv", NEGATIVE_SEED_COMMANDS, ids=["sweep", "verify"])
def test_negative_seed_flag_exits_2(tmp_path, capsys, argv):
    # numpy seeds no negative integer: the flag is rejected before any draw
    err = _exits_2_in_argparse([*argv, "--config", DESK, "--seed", "-1", "--out", str(tmp_path)],
                               capsys)
    assert "--seed: must be non-negative, got -1" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", NEGATIVE_SEED_COMMANDS, ids=["sweep", "verify"])
def test_negative_seed_in_config_exits_2(tmp_path, capsys, argv):
    doc = json.loads(Path(DESK).read_text())
    doc["scenario"]["seed"] = -1
    config = tmp_path / "negative_seed.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == "config error: scenario.seed: must be non-negative"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--algorithms", "TPC,FOO"], "unknown algorithm(s): FOO"),
    (["--values", "2.7"], "num_ues values must be whole numbers, got '2.7'"),
    (["--values", "2,nan"], "num_ues values must be whole numbers, got '2,nan'"),
    (["--algorithms", ","], "empty algorithm list"),
    (["--values", "2,five"], "could not parse sweep values '2,five'"),
    (["--values", " , "], "empty sweep value list"),
])
def test_sweep_bad_algorithm_or_ue_count_exits_2(tmp_path, capsys, flags, message):
    argv = ["sweep", "--config", DESK, "--axis", "num_ues", "--values", "2",
            "--snapshots", "2", "--out", str(tmp_path)]
    assert main(argv + flags) == 2
    assert capsys.readouterr().err.strip() == message
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["mobility", "--duration", "0.01", "--tol", "5", "--max-iter", "3"],
    ["verify", "--claims", "scalability", "--tol", "0.5", "--max-iter", "1"],
])
def test_budget_flags_only_where_a_solve_uses_them(tmp_path, capsys, argv):
    # mobility and verify never read --tol or --max-iter
    err = _exits_2_in_argparse([*argv, "--config", DESK, "--out", str(tmp_path)], capsys)
    assert "unrecognized arguments: --tol" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text, message", [
    ('{"scenario": {', "not valid JSON"),
    (json.dumps({"scenario": {"num_ues": 2}, "hbs": {}, "ue_template": {}}),
     "scenario.epsilon: missing key"),
    ((CONFIG_DIR / "desk_consistent.json").read_text().replace('"num_ues": 5', '"num_ues": "5x"'),
     "scenario.num_ues: must be a number, got '5x'"),
    ((CONFIG_DIR / "desk_consistent.json").read_text().replace('"num_ues": 5', '"num_ues": 2.7'),
     "scenario.num_ues: must be a whole number, got 2.7"),
    (b'{"scenario": "\xff"}', "not valid JSON"),
    (None, "Is a directory"),
], ids=["malformed-json", "missing-key", "not-a-number", "not-a-whole-number", "not-utf-8",
        "a-directory"])
def test_bad_config_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    if text is None:
        path.mkdir()
    else:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc = main(["snapshot", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys, monkeypatch):
    import fdpowerctl.engine as engine

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before --out was made")

    monkeypatch.setattr(engine, "solve", no_solve)
    out = tmp_path / "taken"
    out.write_text("kept")
    assert main(["snapshot", "--config", DESK, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and err.count("\n") == 1
    assert out.read_text() == "kept"


def test_sweep_values_may_start_with_a_negative_number(tmp_path):
    # delta_db is negative in practice; argparse alone reads "-120,-100" as an option
    argv = ["sweep", "--config", DESK, "--axis", "delta_db", "--snapshots", "2"]
    assert main([*argv, "--values", "-120,-100", "--out", str(tmp_path / "split")]) == 0
    assert main([*argv, "--values=-120,-100", "--out", str(tmp_path / "joined")]) == 0
    name = "sweep_delta_db_tpceh.csv"
    assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "joined" / name).read_bytes()


def _fail_first_tightness_row(monkeypatch):
    import fdpowerctl.cli as cli

    original = cli.check_harvest_power_tightness

    def failing(x, batch):
        rep = original(x, batch)
        rep.passed[0] = False
        return rep

    monkeypatch.setattr(cli, "check_harvest_power_tightness", failing)


def test_verify_failing_claim_exits_4(tmp_path, monkeypatch, capsys):
    _fail_first_tightness_row(monkeypatch)
    rc = main(["verify", "--config", DESK, "--k", "2", "--snapshots", "2", "--trials", "100",
               "--out", str(tmp_path)])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.err == "failing claims: harvest-tightness\n"
    assert "harvest-tightness: FAIL" in captured.out.splitlines()
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["harvest-tightness"]["passed"] is False
    assert [claim for claim, entry in report.items() if not entry["passed"]] == [
        "harvest-tightness"
    ]
    manifest = json.loads((tmp_path / "verification.json.manifest.json").read_text())
    assert manifest["outputs"] == ["verification.json"]


def test_seed_flag_writes_what_the_config_seed_writes(tmp_path):
    doc = json.loads(Path(DESK).read_text())
    doc["scenario"]["seed"] = 3
    seeded = tmp_path / "seed3.json"
    seeded.write_text(json.dumps(doc))
    argv = ["sweep", "--axis", "cell_side", "--values", "40", "--snapshots", "3"]
    runs = {
        "flag": ["--config", DESK, "--seed", "3"],
        "file": ["--config", str(seeded)],
        "default": ["--config", DESK],
    }
    csv = {}
    for name, flags in runs.items():
        assert main([*argv, *flags, "--out", str(tmp_path / name)]) == 0
        csv[name] = (tmp_path / name / "sweep_cell_side_tpceh.csv").read_bytes()
    assert csv["flag"] == csv["file"] != csv["default"]
    manifest = json.loads(
        (tmp_path / "flag" / "sweep_cell_side_tpceh.csv.manifest.json").read_text()
    )
    assert manifest["seed"] == 3


def test_snapshot_tol_flag_sets_the_stopping_rule(tmp_path):
    from fdpowerctl.core import Algorithm
    from fdpowerctl.channel import snapshot_from_scenario
    from fdpowerctl.engine import run_fixed_point

    rc = main(["snapshot", "--config", DESK, "--tol", "1e-4", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary_tpceh.json").read_text())
    trace = run_fixed_point(Algorithm.TPCEH, snapshot_from_scenario(load_scenario(DESK)),
                            tol=1e-4)
    assert summary["iterations_used"] == trace.iterations_used
    assert summary["final_relative_change"] == trace.final_change <= 1e-4
    default = run_fixed_point(Algorithm.TPCEH, snapshot_from_scenario(load_scenario(DESK)))
    assert trace.iterations_used < default.iterations_used


MANIFEST_KEYS = {
    "argv", "subcommand", "config_hash", "seed", "tool_version", "outputs", "duration_s",
}


@pytest.mark.parametrize("argv, code, fail_claim", [
    (["snapshot"], 0, False),
    (["snapshot", "--algorithm", "OPCEH", "--max-iter", "5"], 3, False),
    (["sweep", "--axis", "cell_side", "--values", "40,60", "--algorithms", "TPC,OPCEH",
      "--snapshots", "2"], 0, False),
    (["mobility", "--duration", "0.01"], 0, False),
    (["verify", "--k", "2", "--snapshots", "2", "--trials", "100"], 0, False),
    (["verify", "--k", "2", "--snapshots", "2", "--trials", "100"], 4, True),
], ids=["snapshot", "snapshot-exit-3", "sweep", "mobility", "verify", "verify-exit-4"])
def test_every_output_has_a_manifest(tmp_path, monkeypatch, argv, code, fail_claim):
    if fail_claim:
        _fail_first_tightness_row(monkeypatch)
    received = [*argv, "--config", DESK, "--seed", "7", "--out", str(tmp_path)]
    rc = main(received)
    assert rc == code
    outputs = sorted(p.name for p in tmp_path.iterdir() if not p.name.endswith(".manifest.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*outputs, *(f"{name}.manifest.json" for name in outputs)]
    )
    scenario = load_scenario(DESK)
    scenario = dataclasses.replace(scenario, cfg=dataclasses.replace(scenario.cfg, seed=7))
    if argv[0] == "verify":
        # the hash is that of the scenario the claims ran on
        cfg = dataclasses.replace(scenario.cfg, num_ues=2)
        scenario = dataclasses.replace(scenario, cfg=cfg, fixed_ues=None)
    manifests = [json.loads((tmp_path / f"{n}.manifest.json").read_text()) for n in outputs]
    for manifest in manifests:
        assert manifest == manifests[0]
        assert MANIFEST_KEYS <= set(manifest)
        assert manifest["argv"] == received
        assert manifest["subcommand"] == argv[0]
        assert manifest["config_hash"] == config_hash(scenario_to_dict(scenario))
        assert manifest["seed"] == 7
        assert manifest["tool_version"] == __version__
        assert sorted(manifest["outputs"]) == outputs
        assert manifest["duration_s"] >= 0.0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_csv_is_written_in_chunks_with_the_bytes_of_one_text(tmp_path, monkeypatch, n):
    monkeypatch.setattr(cli, "CSV_CHUNK", 3)
    # float cells Python's formatter writes, beside ones the kernel does
    special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -2.5e-17])[:n]
    columns = [
        np.arange(n), np.linspace(-1.5, 2.0, n) * 1e-9, np.arange(n) % 2 == 0,
        [f"m{i}" for i in range(n)], special,
    ]
    path = tmp_path / "out.csv"
    cli._write_csv(path, ["i", "x", "flag", "name", "s"], columns)
    rows = [f"{i},{x:.16e},{int(b)},{name},{s:.16e}" for i, x, b, name, s in zip(*columns)]
    assert path.read_bytes() == ("\n".join(["i,x,flag,name,s", *rows]) + "\n").encode()
