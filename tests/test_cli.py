import json

import pytest

from fdpowerctl.cli import main

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
    doc = json.loads(open(PAPER).read())
    for fu in doc["fixed_ues"][1:]:
        del fu["mu"]
    path = tmp_path / "partial_mu.json"
    path.write_text(json.dumps(doc))
    rc = main(["snapshot", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "summary_tpceh.json").exists()


def test_snapshot_nan_distance_exits_2(tmp_path, capsys):
    # Python's json reads NaN; the distance check must not let it through
    doc = json.loads(open(DESK).read())
    doc["fixed_ues"][1]["distance"] = float("nan")
    path = tmp_path / "nan_distance.json"
    path.write_text(json.dumps(doc))
    rc = main(["snapshot", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: ues[1].distance: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_snapshot_nan_tol_exits_2(tmp_path, capsys):
    # a NaN tol would never stop the iteration; validation must refuse it
    doc = json.loads(open(DESK).read())
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
    import dataclasses
    from fdpowerctl.channel import snapshot_from_scenario
    from fdpowerctl.config import load_scenario
    from fdpowerctl.core import Algorithm
    from fdpowerctl.engine import run_fixed_point

    scenario = dataclasses.replace(load_scenario(DESK), fixed_ues=None)
    snap = snapshot_from_scenario(scenario, snapshot_id=0)
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
])
def test_mobility_invalid_step_or_duration_exits_2(tmp_path, capsys, flags):
    argv = ["mobility", "--config", DESK, "--duration", "0.01", "--out", str(tmp_path)]
    rc = main(argv + flags)
    assert rc == 2
    assert "must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("flags", [
    [],                                            # all claims on the bundled K=5
    ["--k", "4", "--claims", "optimality"],
    ["--k", "9", "--claims", "scalability,optimality"],
])
def test_verify_optimality_beyond_grid_limit_exits_2(tmp_path, capsys, monkeypatch, flags):
    import fdpowerctl.cli as cli

    def no_snapshot(*args, **kwargs):
        raise AssertionError("a snapshot was drawn before the claims were checked")

    monkeypatch.setattr(cli, "snapshot_from_scenario", no_snapshot)
    rc = main(["verify", "--config", DESK, "--out", str(tmp_path), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert "K <= 3" in err and "--claims" in err
    assert not list(tmp_path.iterdir())


def test_verify_fl_conditions_informational(tmp_path):
    rc = main(["verify", "--config", DESK, "--claims", "fl-conditions",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    entry = report["fl-conditions"]
    assert entry["passed"]
    assert "qualifies" in entry and "grad_norm_inf" in entry


def test_verify_draws_each_snapshot_once(tmp_path, monkeypatch):
    import fdpowerctl.cli as cli

    drawn = []
    original = cli.snapshot_from_scenario

    def counting(scenario, *args, **kwargs):
        drawn.append(kwargs.get("snapshot_id"))
        return original(scenario, *args, **kwargs)

    monkeypatch.setattr(cli, "snapshot_from_scenario", counting)
    rc = main(["verify", "--config", DESK, "--k", "2", "--snapshots", "3",
               "--trials", "100", "--out", str(tmp_path)])
    assert rc == 0
    # three shared random snapshots, plus snapshot 0 for scalability and
    # fl-conditions, which use the scenario as configured
    assert sorted(drawn) == [0, 0, 0, 1, 2]
