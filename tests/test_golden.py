"""CLI outputs compared byte for byte with recorded golden files.

Every file a case's CLI arguments write, except the JSON manifests (they
hold wall times), must equal the file under data/golden/<case>/. A changed
fixed point, iteration count, convergence flag or sweep statistic shows up
here as a byte difference, whatever path the solver takes to it. Two more
directories, export_*, hold snapshots as recorded by a former exporter; the
snapshots drawn today must match them exactly.

To record the files again, for an output change that is intended:

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

With case names only those cases are recorded again; with none, all are.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from fdpowerctl.channel import draw_ues, sample_batch, snapshot_from_scenario
from fdpowerctl.cli import main
from fdpowerctl.config import load_scenario

from conftest import CONFIG_DIR

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
DESK = str(CONFIG_DIR / "desk_consistent.json")
PAPER = str(CONFIG_DIR / "paper_4a.json")
ALL = "TPC,OPC,TPCEH,OPCEH"


def _sweep(config, axis, values, *extra):
    return ["sweep", "--config", config, "--axis", axis, f"--values={values}",
            "--algorithms", ALL, "--snapshots", "3", *extra]


CASES = {
    "sweep_num_ues": _sweep(DESK, "num_ues", "1,2,5"),
    "sweep_delta_db": _sweep(DESK, "delta_db", "-120,-95"),
    "sweep_cell_side": _sweep(DESK, "cell_side", "30,60"),
    "sweep_gamma_target": _sweep(DESK, "gamma_target", "0.02,0.1"),
    # caps bind on the verbatim paper parameters
    "sweep_paper_num_ues": _sweep(PAPER, "num_ues", "1,3"),
    # a budget this small leaves some snapshots (and whole values) unconverged
    "sweep_short_budget": _sweep(DESK, "num_ues", "1,4", "--max-iter", "4"),
    # 27 of these 600 OPCEH solves oscillate without converging, and the
    # sweep stops them early; their exclusion must not change the CSVs
    "sweep_opportunistic_cycles": [
        "sweep", "--config", DESK, "--axis", "num_ues", "--values=5,10,20",
        "--algorithms", "OPC,OPCEH", "--snapshots", "200",
    ],
    # the last early-exit check (step 16) falls four steps before the budget
    "sweep_opportunistic_cycles_short": [
        "sweep", "--config", DESK, "--axis", "num_ues", "--values=5,10,20",
        "--algorithms", "OPC,OPCEH", "--snapshots", "200", "--max-iter", "20",
    ],
    **{
        f"snapshot_{name}_{alg.lower()}": [
            "snapshot", "--config", config, "--algorithm", alg,
        ]
        for name, config in (("desk", DESK), ("paper", PAPER))
        for alg in ALL.split(",")
    },
    "snapshot_desk_no_budget": ["snapshot", "--config", DESK, "--max-iter", "0"],
    # a multi-row trace that stops unconverged (exit 3)
    "snapshot_desk_short_budget": ["snapshot", "--config", DESK, "--algorithm", "OPCEH",
                                   "--max-iter", "5"],
    "mobility_tpceh": ["mobility", "--config", DESK, "--duration", "0.2"],
    # one second runs past the depletion step (334), so the switch-on of
    # the energy signal and the recovery after it are compared too
    **{
        f"mobility_desk_{alg.lower()}_1s": [
            "mobility", "--config", DESK, "--algorithm", alg, "--duration", "1.0",
        ]
        for alg in ALL.split(",")
    },
    "mobility_paper_tpceh": ["mobility", "--config", PAPER, "--duration", "0.5"],
    # UEs cross the cell in about 36 ms and reflect at both walls
    "mobility_desk_fast": ["mobility", "--config", DESK, "--speed-kmh", "5000",
                           "--duration", "0.3"],
    "mobility_zero_duration": ["mobility", "--config", DESK, "--duration", "0"],
    # verification.json holds max gaps, spreads and counterexamples, so any
    # drift in the oracle's numbers shows up as a byte difference
    "verify_desk_k2": ["verify", "--config", DESK, "--k", "2"],
    # one UE
    "verify_desk_k1": ["verify", "--config", DESK, "--k", "1"],
    # caps bind and the closed-form optimum reports every snapshot infeasible
    "verify_paper_k2": ["verify", "--config", PAPER, "--k", "2"],
    "verify_desk_k3": ["verify", "--config", DESK, "--k", "3",
                       "--snapshots", "2", "--trials", "1000"],
    # one snapshot, and the floor of one update-equivalence trial
    "verify_desk_k2_edge": ["verify", "--config", DESK, "--k", "2",
                            "--snapshots", "1", "--trials", "999"],
    # the optimality claim at the bundled configuration's own size
    "verify_desk_k5": ["verify", "--config", DESK, "--k", "5", "--claims", "optimality"],
    # the user's claim order sets both the order the claims draw from the
    # shared generator and the order of the report's keys
    "verify_desk_k2_reordered": ["verify", "--config", DESK, "--k", "2", "--snapshots", "3",
                                 "--trials", "2000",
                                 "--claims", "update-equivalence,scalability,uniqueness"],
}


def _outputs(out: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if not p.name.endswith(".manifest.json")
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden(case, tmp_path):
    main([*CASES[case], "--out", str(tmp_path)])
    expected = _outputs(GOLDEN / case)
    actual = _outputs(tmp_path)
    assert sorted(actual) == sorted(expected)
    for name, data in expected.items():
        assert actual[name] == data, f"{case}/{name} differs from the golden file"


# snapshot.json: snapshot_id, seed_used, hbs_placement and one record per UE
# with these fields and a position; snapshot.csv: one row (snapshot_id, ue,
# distance, g, mu) per UE
EXPORT_FIELDS = {
    "distance": lambda snap: snap.distances,
    "g": lambda snap: snap.g,
    "h": lambda snap: snap.h,
    "mu": lambda snap: snap.mu,
    "gamma_target": lambda snap: snap.gamma_target,
    "eta": lambda snap: snap.eta,
    "p_bar_u": lambda snap: np.full(snap.num_ues, snap.p_bar_u),
    "p_cir": lambda snap: np.full(snap.num_ues, snap.ue_template.p_cir),
    "p_min": lambda snap: snap.p_min,
}


@pytest.mark.parametrize("case, config, row", [
    # the pinned distances and per-UE overrides of the paper's scenario
    ("export_paper_fixed", PAPER, None),
    # random snapshot 3: positions drawn in the cell, mu from the template
    ("export_desk_sampled", DESK, 3),
], ids=["export_paper_fixed", "export_desk_sampled"])
def test_snapshots_match_export_golden(case, config, row):
    scenario = load_scenario(config)
    if row is None:
        snap = snapshot_from_scenario(scenario)
    else:
        snap = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, row + 1).rows(row)
    doc = json.loads((GOLDEN / case / "snapshot.json").read_text(encoding="utf-8"))
    assert doc["hbs_placement"] == snap.cfg.hbs_placement
    if row is not None:
        assert (doc["snapshot_id"], doc["seed_used"]) == (row, scenario.cfg.seed + row)
    for field, value in EXPORT_FIELDS.items():
        assert [ue[field] for ue in doc["ues"]] == value(snap).tolist(), field
    if row is not None:
        # the draw's unit coordinates in the cell; pinned UEs have no position
        unit = draw_ues(scenario.cfg, scenario.ue_template, row + 1)[0][row]
        assert [ue["position"] for ue in doc["ues"]] == (unit * scenario.cfg.cell_side).tolist()
    with open(GOLDEN / case / "snapshot.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        [str(doc["snapshot_id"]), str(i), str(d), str(g), str(mu)]
        for i, (d, g, mu) in enumerate(zip(snap.distances.tolist(), snap.g.tolist(),
                                           snap.mu.tolist()))
    ]


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    for case in names:
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        main([*CASES[case], "--out", str(target)])
        for manifest in target.glob("*.manifest.json"):
            manifest.unlink()
