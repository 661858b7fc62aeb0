"""CLI outputs compared byte for byte with recorded golden files.

Every file a case's CLI arguments write, except the JSON manifests (they
hold wall times), must equal the file under data/golden/<case>/. A changed
fixed point, iteration count, convergence flag or sweep statistic shows up
here as a byte difference, whatever path the solver takes to it. The
manifests of the sweep and snapshot cases are compared as JSON without
their wall time and argv (which names the output directory), so a sweep's
per-value solve counts (`n_converged`, `n_stopped_early`,
`converged_iterations`) are pinned too, though no CSV byte holds them. Two
more directories, export_*, hold snapshots as recorded by a former
exporter; the snapshots drawn today must match them exactly.

To record the files again, for an output change that is intended:

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

With case names only those cases are recorded again; with none, all are.
"""

from __future__ import annotations

import csv
import functools
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
# desk_consistent.json with 20 UEs drawn at random in place of its pinned five
DESK_K20 = str(Path(__file__).resolve().parent / "data" / "configs" / "desk_k20_sampled.json")
# desk_consistent.json with its UEs drawn at random, mu included
DESK_RANDOM_MU = str(Path(__file__).resolve().parent / "data" / "configs" / "desk_random_mu.json")
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
    # UE counts on both sides of numpy's 8-term grouping of the interference
    # sum, 15 with a 7-term tail
    "sweep_num_ues_embedded": [
        "sweep", "--config", DESK, "--axis", "num_ues", "--values=5,10,15,20",
        "--algorithms", ALL, "--snapshots", "50",
    ],
    # the longest solves: one K=20 TPCEH row runs 1,679 steps, and OPCEH
    # stops 0, 7, 10 and 10 of the 200 rows per value early
    "sweep_num_ues_long_solves": [
        "sweep", "--config", DESK, "--axis", "num_ues", "--values=2,5,10,20",
        "--algorithms", "TPCEH,OPCEH", "--snapshots", "200",
    ],
    # four deltas on the same placements: OPC and OPCEH stop 7 rows early
    # per value
    "sweep_delta_db_merged": [
        "sweep", "--config", DESK, "--axis", "delta_db", "--values=-130,-120,-100,-90",
        "--algorithms", ALL, "--snapshots", "200",
    ],
    # each UE draws its own mu after its position; OPCEH stops 0, 2, 7 and
    # 2 rows early per value
    "sweep_num_ues_random_mu": [
        "sweep", "--config", DESK_RANDOM_MU, "--axis", "num_ues", "--values=2,5,10,20",
        "--algorithms", ALL, "--snapshots", "50",
    ],
    # fewer than 8 UEs: numpy sums them left to right
    "sweep_num_ues_narrow": [
        "sweep", "--config", DESK, "--axis", "num_ues", "--values=1,2,3",
        "--algorithms", ALL, "--snapshots", "50",
    ],
    # binding caps on the paper parameters, across the 8-UE grouping
    "sweep_paper_num_ues_wide": [
        "sweep", "--config", PAPER, "--axis", "num_ues", "--values=2,5,10,20",
        "--algorithms", "TPC,OPC", "--snapshots", "50",
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
    # 20 sampled UEs: the interference sum runs in numpy's pairwise order,
    # so these pin that order's bits through the mobility windows; the first
    # never depletes, the second depletes at step 333 and then harvests
    "mobility_desk_k20": ["mobility", "--config", DESK_K20, "--battery-init", "1e-4",
                          "--duration", "0.5"],
    "mobility_desk_k20_depleting": ["mobility", "--config", DESK_K20, "--duration", "0.5"],
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


# the manifest fields that differ between runs of the same arguments
UNPINNED = ("duration_s", "argv")
MANIFEST_CASES = sorted(case for case in CASES if case.startswith(("sweep_", "snapshot_")))


def _outputs(out: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if not p.name.endswith(".manifest.json")
    }


def _pinned(manifest: dict) -> dict:
    return {key: value for key, value in manifest.items() if key not in UNPINNED}


def _manifests(out: Path) -> dict[str, dict]:
    return {p.name: _pinned(json.loads(p.read_text(encoding="utf-8")))
            for p in sorted(out.glob("*.manifest.json"))}


@pytest.fixture(scope="module")
def run_case(tmp_path_factory):
    """The output directory of a case, each case run once per module."""
    @functools.cache
    def run(case: str) -> Path:
        out = tmp_path_factory.mktemp(case)
        main([*CASES[case], "--out", str(out)])
        return out
    return run


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden(case, run_case):
    expected = _outputs(GOLDEN / case)
    actual = _outputs(run_case(case))
    assert sorted(actual) == sorted(expected)
    for name, data in expected.items():
        assert actual[name] == data, f"{case}/{name} differs from the golden file"


@pytest.mark.parametrize("case", MANIFEST_CASES)
def test_cli_manifests_match_golden(case, run_case):
    expected = _manifests(GOLDEN / case)
    assert expected, f"{case} has no golden manifests"
    assert _manifests(run_case(case)) == expected


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
        for path in target.glob("*.manifest.json"):
            if case in MANIFEST_CASES:
                manifest = _pinned(json.loads(path.read_text(encoding="utf-8")))
                path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
            else:
                path.unlink()
