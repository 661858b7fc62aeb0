"""Loops as they ran before batching, kept as exact references.

The fixed-point loop steps one snapshot and one state: each step stacks the
K uplink powers and the harvest power with np.append and takes the
infinity-norm relative change. The engine now steps whole batches of
snapshots at once; the tests hold it to this loop's numbers exactly.

The oracle's sandwich test ran one trial (two single-state updates) at a
time, and its grid search evaluated every constraint afresh at each harvest
level. The tests hold the batched oracle to both, field for field.
"""

from __future__ import annotations

import math

import numpy as np

from fdpowerctl.core import Algorithm, PowerVector, joint_update
from fdpowerctl.oracle import (
    HARVEST_GRID_SLACK,
    QOS_GRID_SLACK,
    BruteForceResult,
    ScalabilityReport,
)

CHANGE_FLOOR = 1e-18


def relative_change(p_new: PowerVector, p_old: PowerVector) -> float:
    a = np.append(p_new.p_u, p_new.p_h)
    b = np.append(p_old.p_u, p_old.p_h)
    return float(np.max(np.abs(a - b) / np.maximum(b, CHANGE_FLOOR)))


def scalar_fixed_point(alg, snap, p_init=None, tol=None, max_iter=None):
    """(fixed_point, iterations_used, converged, final_change) of one snapshot."""
    alg = Algorithm(alg)
    tol = snap.cfg.tol if tol is None else tol
    max_iter = snap.cfg.max_iter if max_iter is None else max_iter
    if p_init is None:
        p_init = PowerVector(np.full(snap.num_ues, 1e-6), 1e-6 if alg.harvesting else 0.0)
    p = PowerVector(
        np.clip(p_init.p_u, 0.0, snap.p_bar_u),
        float(min(max(p_init.p_h, 0.0), snap.hbs.p_bar_h)),
    )
    converged = False
    change = math.inf
    t = 0
    for t in range(1, max_iter + 1):
        p_next = joint_update(alg, p, snap)
        change = relative_change(p_next, p)
        p = p_next
        if change <= tol:
            converged = True
            break
    return p, (t if max_iter > 0 else 0), converged, change


# ---------------------------------------------------------------------------
# the oracle's two hot loops as they ran before batching


def scalar_two_sided_scalable(snap, algorithm, trials, rng, rel_slack=1e-12):
    """ScalabilityReport of the sandwich test, one trial and one state at a time."""
    alg = Algorithm(algorithm)
    K = snap.num_ues
    caps = np.append(snap.p_bar_u, snap.hbs.p_bar_h)
    violations = 0
    example = None
    for _ in range(trials):
        exponents = rng.uniform(-14.0, 0.0, size=K + 1)
        base = caps * 10.0 ** exponents
        a = 10.0 ** rng.uniform(1e-3, 1.0)
        wiggle = a ** rng.uniform(-1.0, 1.0, size=K + 1)
        other = base * wiggle
        p = PowerVector(base[:K], float(base[K]))
        q = PowerVector(other[:K], float(other[K]))
        fp = joint_update(alg, p, snap).as_array()
        fq = joint_update(alg, q, snap).as_array()
        lower_ok = np.all(fq >= fp / a * (1.0 - rel_slack))
        upper_ok = np.all(fq <= fp * a * (1.0 + rel_slack))
        if not (lower_ok and upper_ok):
            violations += 1
            if example is None:
                example = {
                    "p": p.as_array().tolist(),
                    "p_prime": q.as_array().tolist(),
                    "a": a,
                    "f_p": fp.tolist(),
                    "f_p_prime": fq.tolist(),
                }
    return ScalabilityReport(
        passed=violations == 0,
        trials=trials,
        violations=violations,
        counterexample=example,
    )


def _feasible_mask(pu, ph, snap):
    """Constraint check for a batch of uplink vectors at one harvest power."""
    received = pu * snap.h                       # (N, K)
    tot = received.sum(axis=1, keepdims=True)
    interf = tot - received + snap.cfg.delta * ph + snap.cfg.sigma2
    s = received / interf
    ok = np.all(s >= snap.gamma_target * (1.0 - QOS_GRID_SLACK), axis=1)
    req = pu / (snap.cfg.epsilon * snap.mu * snap.g) + snap.p_min
    ok &= np.all(ph >= req * (1.0 - HARVEST_GRID_SLACK), axis=1)
    return ok


def scalar_brute_force_min_power(snap, grid_points_per_dim=64, refine_rounds=3):
    """BruteForceResult of the grid search, every constraint evaluated per level."""
    K = snap.num_ues
    n = grid_points_per_dim
    eps = snap.cfg.epsilon
    caps = [float(c) for c in snap.p_bar_u] + [snap.hbs.p_bar_h]

    grids = [
        np.concatenate([[0.0], np.geomspace(c * 1e-16, c, n - 1)]) for c in caps
    ]
    ratios = [(1e16) ** (1.0 / (n - 2))] * (K + 1)

    incumbent = None
    inc_obj = math.inf
    feasible_count = 0
    round_objectives = []

    for _ in range(refine_rounds + 1):
        pu_mesh = np.meshgrid(*grids[:K], indexing="ij")
        pu = np.stack([m.ravel() for m in pu_mesh], axis=1)    # (N, K)
        base_obj = pu.sum(axis=1) / eps + snap.p_cir.sum() + snap.hbs.p_cir
        for ph in grids[K]:
            ok = _feasible_mask(pu, float(ph), snap)
            if not ok.any():
                continue
            feasible_count += int(ok.sum())
            obj = base_obj[ok] + ph / eps
            j = int(np.argmin(obj))
            if obj[j] < inc_obj:
                inc_obj = float(obj[j])
                incumbent = np.append(pu[ok][j], ph)
        round_objectives.append(inc_obj)
        if incumbent is None:
            break
        new_grids = []
        for d in range(K + 1):
            x = incumbent[d]
            if x <= 0.0:
                new_grids.append(
                    np.concatenate([[0.0], np.geomspace(caps[d] * 1e-18, caps[d] * 1e-15, n - 1)])
                )
                continue
            w = ratios[d] ** 2
            lo = x / w
            hi = min(x * w, caps[d])
            new_grids.append(np.geomspace(lo, hi, n))
            ratios[d] = (hi / lo) ** (1.0 / (n - 1))
        grids = new_grids

    if incumbent is None:
        return BruteForceResult(
            best_power_vector=None,
            best_objective=math.inf,
            grid_points_per_dim=n,
            refine_rounds=refine_rounds,
            final_rel_resolution=math.inf,
            feasible_count=0,
            infeasible=True,
            round_objectives=round_objectives,
        )
    return BruteForceResult(
        best_power_vector=PowerVector(incumbent[:K].copy(), float(incumbent[K])),
        best_objective=inc_obj,
        grid_points_per_dim=n,
        refine_rounds=refine_rounds,
        final_rel_resolution=max(ratios) - 1.0,
        feasible_count=feasible_count,
        infeasible=False,
        round_objectives=round_objectives,
    )
