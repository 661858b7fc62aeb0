"""SHA-256 digest of `solve`'s outputs over a fixed grid of solves.

The grid is desk_consistent and paper_4a, each algorithm, K in GRID_K and
`give_up` off and on: 160 solves of SNAPSHOTS snapshots each. The digest
covers the FIELDS of each `BatchSolution`, in that order, iteration counts
as int64, so two trees that print the same digest give the same fixed
points, iteration counts, convergence flags and certificate stops, bit for
bit, also where their result types hold other fields besides.

Run from the repository root:

    PYTHONPATH=src python tests/bit_grid.py
"""

import hashlib
import pathlib

import numpy as np

from fdpowerctl.channel import sample_batch
from fdpowerctl.config import load_scenario
from fdpowerctl.core import Algorithm
from fdpowerctl.engine import apply_axis, solve

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SCENARIOS = ("desk_consistent", "paper_4a")
GRID_K = (1, 2, 5, 7, 8, 10, 15, 16, 20, 23)
SNAPSHOTS = 200
FIELDS = ("fixed_point", "iterations_used", "converged", "stopped_early")


def digest() -> str:
    sha = hashlib.sha256()
    for name in SCENARIOS:
        scenario = load_scenario(CONFIGS / f"{name}.json")
        for alg in Algorithm:
            for k in GRID_K:
                sc = apply_axis(scenario, "num_ues", k)
                batch = sample_batch(sc.cfg, sc.hbs, sc.ue_template, SNAPSHOTS)
                for give_up in (False, True):
                    sol = solve(alg, batch, give_up=give_up)
                    for field in FIELDS:
                        value = getattr(sol, field)
                        if field == "iterations_used":
                            value = value.astype(np.int64)
                        sha.update(np.ascontiguousarray(value).tobytes())
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
