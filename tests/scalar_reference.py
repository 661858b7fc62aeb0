"""Loops as they ran before batching, kept as exact references.

The fixed-point loop steps one snapshot and one (K+1,) state (the K uplink
powers, then the harvest power) and takes the infinity-norm relative change
of each step. The engine now steps whole batches of snapshots at once; the
tests hold it to this loop's numbers exactly.

The oracle's sandwich test ran one trial (two single-state updates) at a
time, and its uniqueness, update-equivalence and harvest-tightness checks
one snapshot at a time. The tests hold the batched oracle to them, field for
field, and to the generator state they leave.

The oracle once found the minimum aggregate power by a grid search over the
joint power box; it now uses the closed form of the least fixed point. The
grid search stays here as an independent upper bound on the optimum, and the
tests hold the closed form to it at small K.

The mobility run rebuilt a Snapshot from the moved UEs and called metrics
at every step. It now computes the trajectory and the gains of all steps
first and evaluates the metrics once; the tests hold it to the old series.

The per-UE updates were the scalar form of the joint update; the tests hold
joint_update to them UE by UE.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from fdpowerctl.channel import Snapshot, draw_ues, hbs_position, path_gain, snapshot_from_scenario
from fdpowerctl.core import (
    FEASIBILITY_REL_SLACK,
    Algorithm,
    _interference,
    hbs_update,
    joint_update,
    metrics,
    required_hbs_power,
    state_caps,
)
from fdpowerctl.engine import iterate, solve
from fdpowerctl.oracle import ScalabilityReport, transformed_joint_update

CHANGE_FLOOR = 1e-18


# ---------------------------------------------------------------------------
# per-UE updates


def tpceh_ue_update(p: np.ndarray, snap: Snapshot, i: int) -> float:
    """Target-SINR tracking update for UE i with self-interference included."""
    interf = float(_interference(p, snap)[i])
    return min(snap.p_bar_u, snap.gamma_target[i] * interf / snap.h[i])


def opceh_ue_update(p: np.ndarray, snap: Snapshot, i: int) -> float:
    """Opportunistic update for UE i: eta * h / (interference + noise)."""
    interf = float(_interference(p, snap)[i])
    return min(snap.p_bar_u, snap.eta[i] * snap.h[i] / interf)


def tpc_ue_update(p_u: np.ndarray, snap: Snapshot, i: int) -> float:
    """Half-duplex target-tracking baseline: no harvest signal, no delta term."""
    return tpceh_ue_update(np.append(p_u, 0.0), snap, i)


def opc_ue_update(p_u: np.ndarray, snap: Snapshot, i: int) -> float:
    """Half-duplex opportunistic baseline: no harvest signal, no delta term."""
    return opceh_ue_update(np.append(p_u, 0.0), snap, i)


# ---------------------------------------------------------------------------
# the fixed-point loop


def relative_change(p_new: np.ndarray, p_old: np.ndarray) -> float:
    return float(np.max(np.abs(p_new - p_old) / np.maximum(p_old, CHANGE_FLOOR)))


def scalar_fixed_point(alg, snap, p_init=None, tol=None, max_iter=None):
    """(fixed_point, iterations_used, converged, final_change) of one snapshot."""
    alg = Algorithm(alg)
    tol = snap.cfg.tol if tol is None else tol
    max_iter = snap.cfg.max_iter if max_iter is None else max_iter
    if p_init is None:
        p_init = np.append(np.full(snap.num_ues, 1e-6), 1e-6 if alg.harvesting else 0.0)
    p = np.append(
        np.clip(p_init[:-1], 0.0, snap.p_bar_u),
        min(max(float(p_init[-1]), 0.0), snap.hbs.p_bar_h),
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
# the oracle's loops as they ran before batching


def scalar_two_sided_scalable(snap, algorithm, trials, rng, rel_slack=1e-12):
    """ScalabilityReport of the sandwich test, one trial and one state at a time."""
    alg = Algorithm(algorithm)
    K = snap.num_ues
    caps = np.append(np.full(K, snap.p_bar_u), snap.hbs.p_bar_h)
    violations = 0
    example = None
    for _ in range(trials):
        exponents = rng.uniform(-14.0, 0.0, size=K + 1)
        base = caps * 10.0 ** exponents
        a = 10.0 ** rng.uniform(1e-3, 1.0)
        wiggle = a ** rng.uniform(-1.0, 1.0, size=K + 1)
        other = base * wiggle
        fp = joint_update(alg, base, snap)
        fq = joint_update(alg, other, snap)
        lower_ok = np.all(fq >= fp / a * (1.0 - rel_slack))
        upper_ok = np.all(fq <= fp * a * (1.0 + rel_slack))
        if not (lower_ok and upper_ok):
            violations += 1
            if example is None:
                example = {
                    "p": base.tolist(),
                    "p_prime": other.tolist(),
                    "a": a,
                    "f_p": fp.tolist(),
                    "f_p_prime": fq.tolist(),
                }
    return ScalabilityReport(
        passed=violations == 0,
        violations=violations,
        counterexample=example,
    )


@dataclasses.dataclass
class SnapshotUniqueness:
    passed: bool
    n_inits: int
    all_converged: bool
    max_spread: float


def _uniqueness_one(snap, alg, n_inits, rng):
    alg = Algorithm(alg)
    starts = state_caps(snap) * 10.0 ** rng.uniform(-12.0, 0.0, size=(n_inits, snap.num_ues + 1))
    if not alg.harvesting:
        starts[:, -1] = 0.0
    sol = solve(alg, snap.repeated(n_inits), starts, 1e-9, 20000)
    all_ok = bool(sol.converged.all())
    stack = sol.fixed_point
    ref = stack[0]
    spread = float(
        np.max(np.abs(stack - ref) / np.maximum(np.abs(ref), 1e-30))
    ) if n_inits > 1 else 0.0
    return SnapshotUniqueness(
        passed=bool(all_ok and spread <= 1e-6),
        n_inits=n_inits,
        all_converged=all_ok,
        max_spread=spread,
    )


def scalar_fixed_point_uniqueness(batch, algorithms, n_inits, rng):
    """[s][a]: the uniqueness record of snapshot s and algorithm a, checked
    one snapshot and algorithm after the other, with one solve each."""
    return [
        [_uniqueness_one(batch.rows(s), alg, n_inits, rng) for alg in algorithms]
        for s in range(len(batch))
    ]


@dataclasses.dataclass
class SnapshotEquivalence:
    passed: bool
    max_fixed_point_gap: float
    max_cross_eval_gap: float
    counterexample: dict | None


def _equivalence_one(snap, trials, rng):
    starts = state_caps(snap) * 10.0 ** rng.uniform(-12.0, 0.0, size=(trials, snap.num_ues + 1))
    batch = snap.repeated(trials)
    plain = solve(Algorithm.TPCEH, batch, starts, 1e-13, 50000)
    ratio = iterate(transformed_joint_update, batch, starts, 1e-13, 50000)
    a, b = plain.fixed_point, ratio.fixed_point
    fp_gap = np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-30), axis=-1)
    cross = transformed_joint_update(a, batch)
    eval_gap = np.max(np.abs(cross - a) / np.maximum(np.abs(a), 1e-30), axis=-1)
    ok = (
        plain.converged & ratio.converged
        & (fp_gap <= 1e-9) & (eval_gap <= 1e-12)
    )
    example = None
    if not ok.all():
        i = int(np.argmin(ok))
        example = {
            "init": starts[i].tolist(),
            "fp_plain": a[i].tolist(),
            "fp_ratio": b[i].tolist(),
            "fp_gap": float(fp_gap[i]),
            "eval_gap": float(eval_gap[i]),
        }
    return SnapshotEquivalence(
        passed=bool(ok.all()),
        max_fixed_point_gap=float(fp_gap.max(initial=0.0)),
        max_cross_eval_gap=float(eval_gap.max(initial=0.0)),
        counterexample=example,
    )


def scalar_update_form_equivalence(batch, trials, rng):
    """[s]: the equivalence record of snapshot s, one snapshot after the other."""
    return [_equivalence_one(batch.rows(s), trials, rng) for s in range(len(batch))]


@dataclasses.dataclass
class SnapshotTightness:
    status: str
    passed: bool
    rel_gap: float
    offending_ue: int | None
    argmax_ue: int

    @property
    def cap_binding(self) -> bool:
        return self.status == "cap_binding"


def _tightness_one(x, snap, rel_tol):
    p_h = float(x[-1])
    required = required_hbs_power(x[:-1], snap)
    argmax = int(np.argmax(required))
    if p_h >= snap.hbs.p_bar_h * (1.0 - FEASIBILITY_REL_SLACK):
        return SnapshotTightness("cap_binding", True, math.nan, None, argmax)
    target = float(required[argmax])
    rel_gap = abs(p_h - target) / target
    unmet = np.where(p_h < required * (1.0 - rel_tol))[0]
    if rel_gap > rel_tol or unmet.size:
        return SnapshotTightness(
            "violated", False, rel_gap,
            int(unmet[0]) if unmet.size else None, argmax,
        )
    return SnapshotTightness("ok", True, rel_gap, None, argmax)


def scalar_harvest_power_tightness(x, batch, rel_tol=1e-9):
    """[s]: the tightness record of fixed point x[s] on snapshot s, one at a time."""
    return [_tightness_one(x[s], batch.rows(s), rel_tol) for s in range(len(batch))]


# ---------------------------------------------------------------------------
# the minimum-power grid search

# constraint slack of the grid, against floating-point ties at the boundary
QOS_GRID_SLACK = 1e-9
HARVEST_GRID_SLACK = 1e-12


@dataclasses.dataclass
class GridSearchResult:
    """Best grid point of the minimum-power search, None when none is feasible."""

    best_power_vector: np.ndarray | None     # (K+1,) state
    best_objective: float
    infeasible: bool
    round_objectives: list[float]


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
    """Grid search for the minimum aggregate power of a (K,) snapshot.

    Each round visits grid_points_per_dim^(K+1) points of the box under the
    caps (geometric grids with a zero), keeps the cheapest one that meets
    every constraint, and refines the grids around it.
    """
    K = snap.num_ues
    n = grid_points_per_dim
    eps = snap.cfg.epsilon
    caps = [snap.p_bar_u] * K + [snap.hbs.p_bar_h]

    grids = [
        np.concatenate([[0.0], np.geomspace(c * 1e-16, c, n - 1)]) for c in caps
    ]
    ratios = [(1e16) ** (1.0 / (n - 2))] * (K + 1)

    incumbent = None
    inc_obj = math.inf
    round_objectives = []

    for _ in range(refine_rounds + 1):
        pu_mesh = np.meshgrid(*grids[:K], indexing="ij")
        pu = np.stack([m.ravel() for m in pu_mesh], axis=1)    # (N, K)
        base_obj = pu.sum(axis=1) / eps + np.full(K, snap.ue_template.p_cir).sum() + snap.hbs.p_cir
        for ph in grids[K]:
            ok = _feasible_mask(pu, float(ph), snap)
            if not ok.any():
                continue
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

    return GridSearchResult(
        best_power_vector=incumbent,
        best_objective=inc_obj,
        infeasible=incumbent is None,
        round_objectives=round_objectives,
    )


# ---------------------------------------------------------------------------
# the mobility run as it ran before it was made columnar


def scalar_mobility(algorithm, scenario, duration, step=1e-3, speed_kmh=5.0,
                    battery_init=1e-6):
    """Per-step series of a mobility run: one Snapshot rebuilt and one metrics
    call per 1 ms step, the update written out inline.

    Returns a dict of the stacked series ("time", "p_u", "p_h", "metrics" as a
    list of per-step Metrics, "battery", "positions", "harvesting_active")
    and the "first_depletion_step" and "activation_step" events.
    """
    alg = Algorithm(algorithm)
    cfg = scenario.cfg
    base = snapshot_from_scenario(scenario)
    K = base.num_ues
    if scenario.fixed_ues is None:
        ys = draw_ues(cfg, scenario.ue_template, 1)[0][0, :, 1] * cfg.cell_side
    else:
        ys = cfg.cell_side * (np.arange(K) + 1.0) / (K + 1.0)
    positions = np.stack([np.zeros(K), ys], axis=1)
    direction = np.tile([1.0, 0.0], (K, 1))
    battery = np.full(K, battery_init)
    capacity = battery_init
    speed = speed_kmh / 3.6

    def with_gains(snap, positions):
        origin = hbs_position(snap.cfg)
        d, g = [], []
        for x, y in positions:
            d.append(max(math.hypot(x - origin[0], y - origin[1]), 1e-9))
            g.append(path_gain(d[-1], snap.cfg.attenuation_k))
        return dataclasses.replace(snap, distances=np.array(d), g=np.array(g))

    snap = with_gains(base, positions)
    p = np.zeros(K + 1)
    harvesting_active = False
    first_depletion = None
    activation = None
    series = {key: [] for key in (
        "time", "p_u", "p_h", "metrics", "battery", "positions", "harvesting_active",
    )}
    n_steps = int(round(duration / step))
    for n in range(1, n_steps + 1):
        t = n * step
        positions[:, 0] += direction[:, 0] * speed * step
        over = positions[:, 0] > cfg.cell_side
        positions[over, 0] = 2 * cfg.cell_side - positions[over, 0]
        direction[over, 0] *= -1.0
        under = positions[:, 0] < 0.0
        positions[under, 0] = -positions[under, 0]
        direction[under, 0] *= -1.0
        snap = with_gains(snap, positions)

        interf = snap.h * p[:-1]
        interf = interf.sum() - interf + cfg.delta * p[-1] + cfg.sigma2
        if alg.opportunistic:
            cand = np.minimum(snap.p_bar_u, snap.eta * snap.h / interf)
        else:
            cand = np.minimum(snap.p_bar_u, snap.gamma_target * interf / snap.h)
        need = (cand / cfg.epsilon + snap.ue_template.p_cir) * step

        if first_depletion is None and bool(np.any(battery < need)):
            first_depletion = n
            if alg.harvesting:
                harvesting_active = True
                activation = n

        if alg.harvesting and harvesting_active:
            p_h = hbs_update(p, snap)
        else:
            p_h = 0.0
        harvest = snap.mu * snap.g * p_h * step

        affordable = battery + harvest >= need
        p_u = np.where(affordable, cand, 0.0)
        spend = np.where(affordable, need, 0.0)
        battery = np.clip(battery + harvest - spend, 0.0, capacity)

        p = np.append(p_u, p_h)
        for key, value in (
            ("time", t), ("p_u", p_u), ("p_h", float(p_h)),
            ("metrics", metrics(p, snap)), ("battery", battery),
            ("positions", positions.copy()), ("harvesting_active", harvesting_active),
        ):
            series[key].append(value)

    out = {
        key: (values if key == "metrics" else np.array(values))
        for key, values in series.items()
    }
    out["first_depletion_step"] = first_depletion
    out["activation_step"] = activation
    return out
