"""Independent verification of the power-control scheme's claims.

Every check here avoids the iteration path it validates: the minimum-power
optimality check uses an exhaustive grid (or, for one UE, a closed form), the
sandwich-scalability check samples random states, and the constraint-stack
gradient is built analytically so tests can difference it numerically.

The randomized checks draw from the generator they are given, and a caller
may hand the same generator from one check to the next, so each check's
draw order is part of its contract. The sandwich test reads 2K+3 uniforms
per trial (K+1 exponents, the scale's exponent, K+1 wiggle exponents) with
one rng.random((trials, 2K+3)) call, the same stream trial-by-trial draws
would read. Its trials, the uniqueness restarts and the equivalence trials
each run as the rows of one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import Snapshot
from .core import (
    FEASIBILITY_REL_SLACK,
    Algorithm,
    state_caps,
    joint_update,
    required_hbs_power,
)
from .engine import IterationTrace, iterate, run_fixed_point, solve

__all__ = [
    "BruteForceResult",
    "FLReport",
    "ScalabilityReport",
    "OptimalityReport",
    "EquivalenceReport",
    "TightnessReport",
    "UniquenessReport",
    "aggregate_power",
    "closed_form_single_ue",
    "brute_force_min_power",
    "verify_min_power_optimality",
    "check_two_sided_scalable",
    "alpha_coefficients",
    "fl_constraint_stack",
    "fast_lipschitz_report",
    "transformed_joint_update",
    "check_update_form_equivalence",
    "check_harvest_power_tightness",
    "check_fixed_point_uniqueness",
    "BRUTE_FORCE_MAX_UES",
]

# constraint slacks for grid feasibility: the continuous optimum sits exactly
# on the constraint boundary, which a finite grid can only approach
QOS_GRID_SLACK = 1e-9
HARVEST_GRID_SLACK = 1e-12

# the grid search visits (points per dimension)^(K+1) points per round
BRUTE_FORCE_MAX_UES = 3


def aggregate_power(x: np.ndarray, snap: Snapshot) -> float:
    """Total consumed power of a (K+1,) state: UE transmit/eps + circuits,
    plus the HBS side."""
    eps = snap.cfg.epsilon
    return float(np.sum(x[:-1] / eps + snap.p_cir) + x[-1] / eps + snap.hbs.p_cir)


# ---------------------------------------------------------------------------
# minimum-power optimum: closed form (K=1) and grid search (K<=3)


def closed_form_single_ue(snap: Snapshot) -> tuple[np.ndarray, float] | None:
    """Exact minimum-power solution for one UE, or None when infeasible.

    Both constraints are tight at the optimum, giving a 2x2 linear system:
    p_u = gamma_hat (delta p_h + sigma2) / h and p_h = p_u/(eps mu g) + p_min.
    The self-interference feedback coefficient must stay below one.
    """
    assert snap.num_ues == 1
    cfg = snap.cfg
    h, g, mu = snap.h[0], snap.g[0], snap.mu[0]
    gt = snap.gamma_target[0]
    p_min = snap.p_min[0]
    c = gt * cfg.delta / (h * cfg.epsilon * mu * g)
    if c >= 1.0:
        return None
    p_u = gt * (cfg.delta * p_min + cfg.sigma2) / (h * (1.0 - c))
    p_h = p_u / (cfg.epsilon * mu * g) + p_min
    if p_u > snap.p_bar_u[0] or p_h > snap.hbs.p_bar_h:
        return None
    x = np.array([p_u, p_h])
    return x, aggregate_power(x, snap)


@dataclass
class BruteForceResult:
    """Outcome of the exhaustive grid search over the joint power box."""

    best_power_vector: np.ndarray | None     # (K+1,) state
    best_objective: float
    grid_points_per_dim: int
    refine_rounds: int
    final_rel_resolution: float
    feasible_count: int
    infeasible: bool
    round_objectives: list[float] = field(default_factory=list)


def brute_force_min_power(
    snap: Snapshot,
    grid_points_per_dim: int = 64,
    refine_rounds: int = 3,
) -> BruteForceResult:
    """Grid-search the minimum aggregate power over [0, caps]^(K+1).

    The initial pass uses per-dimension geometric grids (plus the exact zero)
    spanning sixteen decades below each cap, because the operating powers of
    different scenarios differ by many orders of magnitude. Each refinement
    round re-grids a shrinking multiplicative window around the incumbent.
    Only K <= BRUTE_FORCE_MAX_UES is accepted; the search is exhaustive
    within each round.

    Per round, the received powers, the interference from other UEs and the
    largest harvest requirement of every uplink grid point are computed once;
    each harvest level then adds only its self-interference term. Levels are
    visited in grid order and only a strictly lower objective replaces the
    incumbent, so ties keep the first point found.
    """
    K = snap.num_ues
    if K > BRUTE_FORCE_MAX_UES:
        raise ValueError(f"brute force limited to K <= {BRUTE_FORCE_MAX_UES} (got K={K})")
    n = grid_points_per_dim
    eps = snap.cfg.epsilon
    caps = state_caps(snap).tolist()

    grids = [
        np.concatenate([[0.0], np.geomspace(c * 1e-16, c, n - 1)]) for c in caps
    ]
    ratios = [(1e16) ** (1.0 / (n - 2))] * (K + 1)

    incumbent: np.ndarray | None = None
    inc_obj = math.inf
    feasible_count = 0
    round_objectives: list[float] = []

    # QoS threshold per UE, shaped to broadcast over the (K, N) grid
    thr = (snap.gamma_target * (1.0 - QOS_GRID_SLACK))[:, None]
    for _ in range(refine_rounds + 1):
        pu_mesh = np.meshgrid(*grids[:K], indexing="ij")
        pu = np.stack([m.ravel() for m in pu_mesh])            # (K, N)
        base_obj = pu.sum(axis=0) / eps + snap.p_cir.sum() + snap.hbs.p_cir
        # everything but the self-interference term is independent of ph
        received = pu * snap.h[:, None]
        others = received.sum(axis=0) - received
        req = pu / (eps * snap.mu * snap.g)[:, None] + snap.p_min[:, None]
        reqmax = np.max(req * (1.0 - HARVEST_GRID_SLACK), axis=0)
        for ph in grids[K]:
            interf = others + snap.cfg.delta * ph + snap.cfg.sigma2
            ok = np.all(received / interf >= thr, axis=0) & (ph >= reqmax)
            if not ok.any():
                continue
            feasible_count += int(ok.sum())
            obj = base_obj[ok] + ph / eps
            j = int(np.argmin(obj))
            if obj[j] < inc_obj:
                inc_obj = float(obj[j])
                incumbent = np.append(pu[:, ok][:, j], ph)
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
        best_power_vector=incumbent,
        best_objective=inc_obj,
        grid_points_per_dim=n,
        refine_rounds=refine_rounds,
        final_rel_resolution=max(ratios) - 1.0,
        feasible_count=feasible_count,
        infeasible=False,
        round_objectives=round_objectives,
    )


@dataclass
class OptimalityReport:
    """Fixed-point aggregate power versus an independent optimum."""

    passed: bool
    gap: float
    algorithm_objective: float
    oracle_objective: float
    oracle: str                   # "closed-form" or "grid"
    infeasible: bool              # both sides agree the scenario is infeasible
    constraints_ok: bool


def verify_min_power_optimality(
    snap: Snapshot,
    rel_tol: float,
    grid_points_per_dim: int = 64,
    refine_rounds: int = 3,
) -> OptimalityReport:
    """Compare the tracking algorithm's fixed point with the brute optimum."""
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-12, max_iter=20000)
    alg_obj = aggregate_power(trace.fixed_point, snap)
    mx = trace.metrics
    alg_feasible = bool(np.all(mx.energy_feasible[-1])) and not bool(np.any(mx.outage[-1]))

    if snap.num_ues == 1:
        closed = closed_form_single_ue(snap)
        if closed is None:
            return OptimalityReport(
                passed=not alg_feasible, gap=math.nan,
                algorithm_objective=alg_obj, oracle_objective=math.nan,
                oracle="closed-form", infeasible=True, constraints_ok=alg_feasible,
            )
        _, oracle_obj = closed
        oracle_name = "closed-form"
    else:
        bf = brute_force_min_power(snap, grid_points_per_dim, refine_rounds)
        if bf.infeasible:
            return OptimalityReport(
                passed=not alg_feasible, gap=math.nan,
                algorithm_objective=alg_obj, oracle_objective=math.nan,
                oracle="grid", infeasible=True, constraints_ok=alg_feasible,
            )
        oracle_obj = bf.best_objective
        oracle_name = "grid"

    gap = abs(alg_obj - oracle_obj) / oracle_obj
    return OptimalityReport(
        passed=bool(gap <= rel_tol and alg_feasible),
        gap=float(gap),
        algorithm_objective=alg_obj,
        oracle_objective=oracle_obj,
        oracle=oracle_name,
        infeasible=False,
        constraints_ok=alg_feasible,
    )


# ---------------------------------------------------------------------------
# two-sided scalability


@dataclass
class ScalabilityReport:
    passed: bool
    trials: int
    violations: int
    counterexample: dict | None


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Scale unit draws to [low, high) exactly as Generator.uniform does."""
    return low + (high - low) * u


def _sandwich_draws(
    caps: np.ndarray, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per trial (row): a state p (K+1 columns), a scale a and a state p'.

    Each row of one rng.random((trials, 2K+3)) call holds a trial's K+1
    exponents, the exponent of a and K+1 wiggle exponents, in that order.
    """
    n = len(caps)
    u = rng.random((trials, 2 * n + 1))
    base = caps * 10.0 ** _uniform(u[:, :n], -14.0, 0.0)
    # one Python float power per trial, as a scalar draw gives it: numpy's
    # vectorised power can differ from it in the last bit
    a = np.fromiter(
        (10.0 ** x for x in _uniform(u[:, n], 1e-3, 1.0).tolist()), float, trials
    )[:, None]
    other = base * a ** _uniform(u[:, n + 1 :], -1.0, 1.0)
    return base, a, other


def check_two_sided_scalable(
    snap: Snapshot,
    algorithm: Algorithm | str,
    trials: int,
    rng: np.random.Generator,
    rel_slack: float = 1e-12,
) -> ScalabilityReport:
    """Randomized sandwich test of the joint update map, clipping included.

    Draw p > 0 log-uniform across fourteen decades under the caps, a scale
    a in (1, 10], and p' componentwise inside [(1/a) p, a p]; the map must
    satisfy (1/a) f(p) <= f(p') <= a f(p) up to the relative slack.

    Each trial reads 2K+3 uniforms from rng, in this order: K+1 exponents,
    the exponent of a, then K+1 wiggle exponents. All trials are drawn by one
    rng.random((trials, 2K+3)) call, which reads the same stream as drawing
    trial by trial and leaves rng in the same state, and evaluated as the
    rows of one batch. The counterexample is the first violating trial.
    """
    alg = Algorithm(algorithm)
    base, a, other = _sandwich_draws(state_caps(snap), trials, rng)
    batch = snap.repeated(trials)
    fp, fq = joint_update(alg, base, batch), joint_update(alg, other, batch)
    lower_ok = np.all(fq >= fp / a * (1.0 - rel_slack), axis=-1)
    upper_ok = np.all(fq <= fp * a * (1.0 + rel_slack), axis=-1)
    bad = np.flatnonzero(~(lower_ok & upper_ok))
    example = None
    if bad.size:
        i = bad[0]
        example = {
            "p": base[i].tolist(),
            "p_prime": other[i].tolist(),
            "a": float(a[i, 0]),
            "f_p": fp[i].tolist(),
            "f_p_prime": fq[i].tolist(),
        }
    return ScalabilityReport(
        passed=bad.size == 0,
        trials=trials,
        violations=int(bad.size),
        counterexample=example,
    )


# ---------------------------------------------------------------------------
# constraint-stack gradient (fast-Lipschitz qualification)


def alpha_coefficients(snap: Snapshot) -> np.ndarray:
    """Per-UE constants gamma_hat / ((1 + gamma_hat) eps h g mu)."""
    gt = snap.gamma_target
    return gt / ((1.0 + gt) * snap.cfg.epsilon * snap.h * snap.g * snap.mu)


def fl_constraint_stack(y: np.ndarray, snap: Snapshot) -> np.ndarray:
    """Constraint functions of the negated-variable optimization form.

    y is the stacked vector (uplink components, harvest component) of the
    sign-flipped variables. The first K entries bound each uplink power via
    the SINR constraint rearranged to isolate the own power; the last entry
    is the pointwise max of the per-UE harvest requirements.
    """
    cfg = snap.cfg
    gt = snap.gamma_target
    total = float(snap.h @ y[: snap.num_ues] + cfg.delta * y[-1] + cfg.sigma2)
    rows = gt / ((1.0 + gt) * snap.h) * total
    alpha = alpha_coefficients(snap)
    z = float(np.max(alpha * total + snap.p_min))
    return np.append(rows, z)


def _fl_active_index(y: np.ndarray, snap: Snapshot) -> int:
    cfg = snap.cfg
    total = float(snap.h @ y[: snap.num_ues] + cfg.delta * y[-1] + cfg.sigma2)
    terms = alpha_coefficients(snap) * total + snap.p_min
    # ties break to the lowest UE index (np.argmax already does)
    return int(np.argmax(terms))


@dataclass
class FLReport:
    """Gradient-condition record for the constraint-iteration form."""

    alpha: np.ndarray
    grad_norm_inf: float          # column-sum norm of the gradient matrix
    grad_norm_rowsum: float       # row-sum norm, reported for transparency
    grad_nonneg: bool
    grad_f0_positive: bool
    qualifies: bool
    active_index: int
    eval_point: np.ndarray


def fast_lipschitz_report(snap: Snapshot, at: np.ndarray | None = None) -> FLReport:
    """Build the constraint-stack gradient analytically and test the
    qualification conditions (positive objective gradient, non-negative
    constraint gradient, norm below one). The qualification outcome is
    informational; it depends on the scenario's targets and gains.

    The gradient convention is the transpose of the Jacobian: entry (i, j)
    holds the derivative of constraint j with respect to variable i. The
    reported norm is the maximum absolute column sum, as the qualification
    condition states it; the row-sum norm is included alongside.
    """
    if at is None:
        at = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-10, max_iter=20000).fixed_point
    y = -at
    K = snap.num_ues
    cfg = snap.cfg
    gt = snap.gamma_target
    c = gt / ((1.0 + gt) * snap.h)
    alpha = alpha_coefficients(snap)
    istar = _fl_active_index(y, snap)

    grad = np.zeros((K + 1, K + 1))
    # columns j = 0..K-1: uplink constraint rows c_j * (sum h_l y_l + delta y_H)
    grad[:K, :K] = np.outer(snap.h, c)          # d g_j / d y_i = c_j h_i
    grad[K, :K] = cfg.delta * c                 # d g_j / d y_H
    grad[:K, K] = alpha[istar] * snap.h         # d z / d y_i
    grad[K, K] = alpha[istar] * cfg.delta       # d z / d y_H

    col_norm = float(np.max(np.abs(grad).sum(axis=0)))
    row_norm = float(np.max(np.abs(grad).sum(axis=1)))
    nonneg = bool(np.all(grad >= 0.0))
    f0_positive = cfg.epsilon > 0.0             # objective gradient is 1/eps
    return FLReport(
        alpha=alpha,
        grad_norm_inf=col_norm,
        grad_norm_rowsum=row_norm,
        grad_nonneg=nonneg,
        grad_f0_positive=f0_positive,
        qualifies=bool(f0_positive and nonneg and col_norm < 1.0),
        active_index=istar,
        eval_point=y,
    )


# ---------------------------------------------------------------------------
# equivalence of the two update parameterizations


def transformed_joint_update(x: np.ndarray, snap: Snapshot) -> np.ndarray:
    """Ratio-form restatement of the tracking update.

    The UE update folds the own-signal term into the denominator, summing the
    received power over all UEs with a (1 + gamma_hat) divisor; the harvest
    update substitutes the same expression via the alpha coefficients. Both
    share their fixed points with the plain tracking form when no cap binds.
    Like joint_update it also takes a batch of states on a batch of snapshots.
    """
    cfg = snap.cfg
    total = (
        np.sum(snap.h * x[..., :-1], axis=-1, keepdims=True)
        + cfg.delta * x[..., -1:] + cfg.sigma2
    )
    gt = snap.gamma_target
    nxt = np.empty(x.shape)
    nxt[..., :-1] = np.minimum(snap.p_bar_u, gt * total / ((1.0 + gt) * snap.h))
    alpha = alpha_coefficients(snap)
    nxt[..., -1] = np.minimum(snap.hbs.p_bar_h, np.max(alpha * total + snap.p_min, axis=-1))
    return nxt


@dataclass
class EquivalenceReport:
    passed: bool
    max_fixed_point_gap: float
    max_cross_eval_gap: float
    counterexample: dict | None


def check_update_form_equivalence(
    snap: Snapshot,
    trials: int,
    rng: np.random.Generator,
) -> EquivalenceReport:
    """Iterate the plain and ratio-form updates from random initial states.

    Asserts that both iterations (tol 1e-13) reach the same fixed point, to
    a relative 1e-9, and that the ratio-form map reproduces the plain fixed
    point, to a relative 1e-12, when evaluated there.
    Valid on scenarios whose fixed point leaves every cap slack. The trials
    run as the rows of one batch.
    """
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
    return EquivalenceReport(
        passed=bool(ok.all()),
        max_fixed_point_gap=float(fp_gap.max(initial=0.0)),
        max_cross_eval_gap=float(eval_gap.max(initial=0.0)),
        counterexample=example,
    )


# ---------------------------------------------------------------------------
# harvest-power tightness and fixed-point uniqueness


@dataclass
class TightnessReport:
    status: str                  # "ok", "cap_binding" or "violated"
    passed: bool
    rel_gap: float
    offending_ue: int | None
    argmax_ue: int


def check_harvest_power_tightness(
    trace: IterationTrace, snap: Snapshot, rel_tol: float = 1e-9
) -> TightnessReport:
    """At a converged, non-cap-binding fixed point the harvest power must
    equal the largest per-UE requirement: every UE satisfied, the argmax UE
    exactly tight. Cap-binding runs are skipped with a distinct status.

    rel_tol bounds both the relative gap to the largest requirement and how
    far the harvest power may fall short of any one UE's requirement."""
    p_h = float(trace.fixed_point[-1])
    required = required_hbs_power(trace.fixed_point[:-1], snap)
    argmax = int(np.argmax(required))
    if p_h >= snap.hbs.p_bar_h * (1.0 - FEASIBILITY_REL_SLACK):
        return TightnessReport("cap_binding", True, math.nan, None, argmax)
    target = float(required[argmax])
    rel_gap = abs(p_h - target) / target
    unmet = np.where(p_h < required * (1.0 - rel_tol))[0]
    if rel_gap > rel_tol or unmet.size:
        return TightnessReport(
            "violated", False, rel_gap,
            int(unmet[0]) if unmet.size else None, argmax,
        )
    return TightnessReport("ok", True, rel_gap, None, argmax)


@dataclass
class UniquenessReport:
    passed: bool
    n_inits: int
    all_converged: bool
    max_spread: float            # relative infinity-norm across fixed points


def check_fixed_point_uniqueness(
    snap: Snapshot,
    algorithm: Algorithm | str,
    n_inits: int,
    rng: np.random.Generator,
) -> UniquenessReport:
    """Run the iteration from random initial vectors and compare fixed points.

    The restarts run as the rows of one batch, each to tol 1e-9 within 20000
    steps; their fixed points must all converge and agree to a relative 1e-6.
    """
    alg = Algorithm(algorithm)
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
    return UniquenessReport(
        passed=bool(all_ok and spread <= 1e-6),
        n_inits=n_inits,
        all_converged=bool(all_ok),
        max_spread=spread,
    )
