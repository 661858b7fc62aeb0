"""Independent verification of the power-control scheme's claims.

Every check here avoids the iteration path it validates: the minimum-power
optimality check compares with the closed-form optimum of every snapshot of
a batch, and the sandwich-scalability check samples random states. The
fast-Lipschitz report's constraint functions are the ratio-form update,
`transformed_joint_update`, in the negated variables; the report builds
their gradient analytically, as `FLReport.grad`, and tests difference the
update to check it.

The randomized checks draw from the generator they are given, and a caller
may hand the same generator from one check to the next, so each check's
draw order is part of its contract. The sandwich test reads 2K+3 uniforms
per trial (K+1 exponents, the scale's exponent, K+1 wiggle exponents) with
one rng.random((trials, 2K+3)) call, the same stream trial-by-trial draws
would read. The uniqueness and equivalence checks take an (S, K) batch of
snapshots and draw the starts of all its rows with one call, snapshot-major:
uniqueness reads (S, algorithms, restarts, K+1) exponents and equivalence
(S, trials, K+1), the same stream as checking one snapshot after the other.
Each check then runs all its rows as one batch per algorithm, and each
snapshot's verdict depends on its own rows alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import Snapshot
from .core import (
    FEASIBILITY_REL_SLACK,
    Algorithm,
    JointUpdate,
    state_caps,
    metrics,
    required_hbs_power,
)
from .engine import iterate, solve

__all__ = [
    "FLReport",
    "ScalabilityReport",
    "OptimalityReport",
    "EquivalenceReport",
    "TightnessReport",
    "UniquenessReport",
    "MinPowerOptimum",
    "min_power_optimum",
    "verify_min_power_optimality",
    "check_two_sided_scalable",
    "alpha_coefficients",
    "fast_lipschitz_report",
    "transformed_joint_update",
    "check_update_form_equivalence",
    "check_harvest_power_tightness",
    "check_fixed_point_uniqueness",
    "INFEASIBLE_CONDITIONS",
]


# ---------------------------------------------------------------------------
# minimum-power optimum: the closed form of the least fixed point


# The conditions that can leave the minimum-power problem infeasible, in the
# order `min_power_optimum` tests them.
INFEASIBLE_CONDITIONS = ("sum_c", "self_interference", "cap")


@dataclass
class MinPowerOptimum:
    """Closed-form minimum-power point of each snapshot row. Where "sum_c" or
    "self_interference" fails no such point exists, and x means nothing."""

    x: np.ndarray                 # (..., K+1) the least fixed point, caps ignored
    objective: np.ndarray         # (...,) its aggregate power, nan where infeasible
    failing: np.ndarray           # (...,) first failing condition, "" where feasible

    @property
    def feasible(self) -> np.ndarray:
        return self.failing == ""


def min_power_optimum(batch: Snapshot) -> MinPowerOptimum:
    """Minimum aggregate power subject to every UE's target SINR and the
    harvest constraint, within the caps, for each row of the batch.

    Let c_i = gamma_i / (1 + gamma_i), C = sum_i c_i and alpha_i from
    `alpha_coefficients`. With both constraints tight, h_i p_i = c_i T where
    T = (delta p_h + sigma2) / (1 - C), and p_h is the largest of the
    per-UE harvest fixed points

        p_h = max_i (alpha_i sigma2 / (1 - C) + p_min,i) / (1 - alpha_i delta / (1 - C)).

    This is the least fixed point of the tracking update without caps, a
    maximum of monotone affine maps (Foschini & Miljanic 1993; Yates 1995),
    and every feasible point lies above it. So it is the optimum when it
    lies under the caps, and no point is feasible otherwise. It exists when
    C < 1 ("sum_c") and alpha_i delta < 1 - C for every i
    ("self_interference"); "cap" marks an optimum above a cap.
    """
    cfg = batch.cfg
    gt = batch.gamma_target
    c = gt / (1.0 + gt)
    total_c = c.sum(axis=-1)
    slack = (1.0 - total_c)[..., None]
    alpha = alpha_coefficients(batch)
    x = np.empty((*total_c.shape, batch.num_ues + 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x[..., -1] = np.max(
            (alpha * cfg.sigma2 / slack + batch.p_min) / (1.0 - alpha * cfg.delta / slack),
            axis=-1,
        )
        total = (cfg.delta * x[..., -1:] + cfg.sigma2) / slack
        x[..., :-1] = c * total / batch.h
        aggregate = metrics(x, batch).aggregate_power
    failing = np.select(
        [
            ~(total_c < 1.0),
            ~np.all(alpha * cfg.delta < slack, axis=-1),
            ~np.all(x <= state_caps(batch), axis=-1),
        ],
        INFEASIBLE_CONDITIONS,
        "",
    )
    objective = np.where(failing == "", aggregate, math.nan)
    return MinPowerOptimum(x=x, objective=objective, failing=failing)


@dataclass
class OptimalityReport:
    """Per snapshot row: the fixed point's aggregate power against the optimum."""

    passed: np.ndarray            # (S,) bool
    gap: np.ndarray               # (S,) relative gap, nan where infeasible
    optimum: MinPowerOptimum


def verify_min_power_optimality(batch: Snapshot, rel_tol: float) -> OptimalityReport:
    """Compare the tracking algorithm's fixed points with the closed-form optimum.

    A row passes when both sides find it infeasible, or when the fixed point
    meets every constraint and its aggregate power is within rel_tol of the
    optimum. The fixed points come from one solve of the batch (tol 1e-12,
    at most 20000 steps); each row's equals that of solving it alone.
    """
    x = solve(Algorithm.TPCEH, batch, tol=1e-12, max_iter=20000).fixed_point
    mx = metrics(x, batch)
    alg_feasible = mx.energy_feasible.all(axis=-1) & ~mx.outage.any(axis=-1)
    optimum = min_power_optimum(batch)
    gap = np.abs(mx.aggregate_power - optimum.objective) / optimum.objective
    return OptimalityReport(
        passed=np.where(optimum.feasible, (gap <= rel_tol) & alg_feasible, ~alg_feasible),
        gap=gap,
        optimum=optimum,
    )


# ---------------------------------------------------------------------------
# two-sided scalability


@dataclass
class ScalabilityReport:
    passed: bool
    violations: int
    counterexample: dict | None


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Scale unit draws to [low, high) exactly as Generator.uniform does."""
    return low + (high - low) * u


def _empty(shape: tuple[int, ...]) -> np.ndarray:
    """np.empty, but a size numpy cannot describe raises MemoryError, not ValueError."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"an array of shape {shape} is too big to describe")
    return np.empty(shape)


def _sandwich_draws(
    caps: np.ndarray, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per trial (row): a state p (K+1 columns), a scale a and a state p'.

    Each row of one rng.random((trials, 2K+3)) call holds a trial's K+1
    exponents, the exponent of a and K+1 wiggle exponents, in that order.
    p and p' are UE-major (Fortran order), so the update kernel runs on
    contiguous columns; their values do not depend on the layout.
    """
    n = len(caps)
    u = _empty((trials, 2 * n + 1))     # allocated before the draw fills it
    rng.random(out=u)
    base = np.multiply(caps, 10.0 ** _uniform(u[:, :n], -14.0, 0.0), order="F")
    # one Python float power per trial, as a scalar draw gives it: numpy's
    # vectorised power can differ from it in the last bit
    a = np.fromiter(
        (10.0 ** x for x in _uniform(u[:, n], 1e-3, 1.0).tolist()), float, trials
    )[:, None]
    other = np.multiply(base, a ** _uniform(u[:, n + 1 :], -1.0, 1.0), order="F")
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
    rows of one update on the snapshot itself, its (K,) arrays broadcast
    against them. The counterexample is the first violating trial.
    """
    alg = Algorithm(algorithm)
    base, a, other = _sandwich_draws(state_caps(snap), trials, rng)
    update = JointUpdate(alg, snap, base)
    fp, fq = update(base), update(other)
    del update          # its scratch would raise the peak of the tests below
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
        violations=int(bad.size),
        counterexample=example,
    )


# ---------------------------------------------------------------------------
# fast-Lipschitz qualification


def alpha_coefficients(snap: Snapshot) -> np.ndarray:
    """Per-UE constants gamma_hat / ((1 + gamma_hat) eps h g mu)."""
    gt = snap.gamma_target
    return gt / ((1.0 + gt) * snap.cfg.epsilon * snap.h * snap.g * snap.mu)


@dataclass
class FLReport:
    """Gradient-condition record for the constraint-iteration form."""

    alpha: np.ndarray
    grad: np.ndarray              # (K+1, K+1) constraint gradient at y = -at
    grad_norm_inf: float          # column-sum norm of the gradient matrix
    grad_nonneg: bool
    qualifies: bool


def fast_lipschitz_report(snap: Snapshot, at: np.ndarray | None = None) -> FLReport:
    """Build the constraint gradient analytically and test the qualification
    conditions (non-negative constraint gradient, norm below one; the
    objective gradient, 1/eps, is positive on every valid scenario). The
    qualification outcome is informational; it depends on the scenario's
    targets and gains.

    The constraint functions are `transformed_joint_update`, the ratio-form
    update, in the negated variables y = -at, without its caps; the active
    UE is the argmax of its harvest terms. `grad` is their gradient at y,
    which tests difference the update against. Its convention is the
    transpose of the Jacobian: entry (i, j) holds the derivative of
    constraint j with respect to variable i. The reported norm is the
    maximum absolute column sum, as the qualification condition states it.
    """
    if at is None:
        at = solve(Algorithm.TPCEH, snap.repeated(), tol=1e-10, max_iter=20000).fixed_point[0]
    y = -at
    K = snap.num_ues
    cfg = snap.cfg
    gt = snap.gamma_target
    c = gt / ((1.0 + gt) * snap.h)
    alpha = alpha_coefficients(snap)
    total = float(snap.h @ y[:K] + cfg.delta * y[-1] + cfg.sigma2)
    # ties break to the lowest UE index (np.argmax already does)
    istar = int(np.argmax(alpha * total + snap.p_min))

    grad = np.zeros((K + 1, K + 1))
    # columns j = 0..K-1: uplink constraint rows c_j * (sum h_l y_l + delta y_H)
    grad[:K, :K] = np.outer(snap.h, c)          # d g_j / d y_i = c_j h_i
    grad[K, :K] = cfg.delta * c                # d g_j / d y_H
    grad[:K, K] = alpha[istar] * snap.h         # d z / d y_i
    grad[K, K] = alpha[istar] * cfg.delta      # d z / d y_H

    col_norm = float(np.max(np.abs(grad).sum(axis=0)))
    nonneg = bool(np.all(grad >= 0.0))
    return FLReport(
        alpha=alpha,
        grad=grad,
        grad_norm_inf=col_norm,
        grad_nonneg=nonneg,
        qualifies=nonneg and col_norm < 1.0,
    )


# ---------------------------------------------------------------------------
# equivalence of the two update parameterizations


def transformed_joint_update(
    x: np.ndarray, snap: Snapshot, out: np.ndarray | None = None
) -> np.ndarray:
    """Ratio-form restatement of the tracking update.

    The UE update folds the own-signal term into the denominator, summing the
    received power over all UEs with a (1 + gamma_hat) divisor; the harvest
    update substitutes the same expression via the alpha coefficients. Both
    share their fixed points with the plain tracking form when no cap binds.
    Like joint_update it also takes a batch of states on a batch of
    snapshots, and writes into `out` when one is given.
    """
    cfg = snap.cfg
    total = (
        np.sum(snap.h * x[..., :-1], axis=-1, keepdims=True)
        + cfg.delta * x[..., -1:] + cfg.sigma2
    )
    gt = snap.gamma_target
    nxt = np.empty(x.shape) if out is None else out
    nxt[..., :-1] = np.minimum(snap.p_bar_u, gt * total / ((1.0 + gt) * snap.h))
    alpha = alpha_coefficients(snap)
    nxt[..., -1] = np.minimum(snap.hbs.p_bar_h, np.max(alpha * total + snap.p_min, axis=-1))
    return nxt


def _ratio_form(rows: Snapshot):
    """`iterate`'s binder for `transformed_joint_update`."""
    return lambda x, out: transformed_joint_update(x, rows, out)


@dataclass
class EquivalenceReport:
    """Per snapshot row of the batch checked."""

    passed: np.ndarray                  # (S,) bool
    max_fixed_point_gap: np.ndarray     # (S,) over the snapshot's trials


def _per_snapshot(batch: Snapshot, copies: int) -> Snapshot:
    """Each row of the batch `copies` times in a row, snapshot-major."""
    return batch.rows(np.repeat(np.arange(len(batch)), copies))


def check_update_form_equivalence(
    batch: Snapshot,
    trials: int,
    rng: np.random.Generator,
) -> EquivalenceReport:
    """Iterate the plain and ratio-form updates from random initial states.

    Asserts for every snapshot of the (S, K) batch and each of its `trials`
    starts that both iterations (tol 1e-13) reach the same fixed point, to a
    relative 1e-9, and that the ratio-form map reproduces the plain fixed
    point, to a relative 1e-12, when evaluated there. Valid on scenarios
    whose fixed point leaves every cap slack.

    The starts are one rng.uniform(-12, 0, size=(S * trials, K+1)) draw of
    exponents, snapshot-major, the stream of drawing each snapshot's trials
    in turn. All S * trials rows run as one batch per update form.
    """
    n = len(batch)
    starts = _empty((n * trials, batch.num_ues + 1))     # before the rows and the draw
    rows = _per_snapshot(batch, trials)
    exponents = rng.uniform(-12.0, 0.0, size=starts.shape)
    np.multiply(state_caps(rows), 10.0 ** exponents, out=starts)
    plain = solve(Algorithm.TPCEH, rows, starts, 1e-13, 50000)
    ratio = iterate(_ratio_form, rows, starts, 1e-13, 50000)
    a, b = plain.fixed_point, ratio.fixed_point
    fp_gap = np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-30), axis=-1)
    cross = transformed_joint_update(a, rows)
    eval_gap = np.max(np.abs(cross - a) / np.maximum(np.abs(a), 1e-30), axis=-1)
    ok = (
        plain.converged & ratio.converged
        & (fp_gap <= 1e-9) & (eval_gap <= 1e-12)
    ).reshape(n, trials)
    return EquivalenceReport(
        passed=ok.all(axis=1),
        max_fixed_point_gap=fp_gap.reshape(n, trials).max(axis=1, initial=0.0),
    )


# ---------------------------------------------------------------------------
# harvest-power tightness and fixed-point uniqueness


@dataclass
class TightnessReport:
    """Per state, (S,) for an (S, K+1) batch of states."""

    cap_binding: np.ndarray      # bool: skipped, the harvest power is at its peak
    passed: np.ndarray           # bool: skipped, or tight with every UE met


def check_harvest_power_tightness(
    x: np.ndarray, batch: Snapshot, rel_tol: float = 1e-9
) -> TightnessReport:
    """At a converged, non-cap-binding fixed point the harvest power must
    equal the largest per-UE requirement: every UE satisfied, the argmax UE
    exactly tight. Cap-binding fixed points are skipped: they pass, flagged
    in `cap_binding`. x is an (S, K+1) batch of fixed points on the (S, K)
    batch, or one (K+1,) fixed point on one snapshot; each state is judged
    alone.

    rel_tol bounds both the relative gap to the largest requirement and how
    far the harvest power may fall short of any one UE's requirement."""
    p_h = x[..., -1]
    required = required_hbs_power(x[..., :-1], batch)
    cap = p_h >= batch.hbs.p_bar_h * (1.0 - FEASIBILITY_REL_SLACK)
    target = required.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_gap = np.where(cap, math.nan, np.abs(p_h - target) / target)
    unmet = (p_h[..., None] < required * (1.0 - rel_tol)) & ~cap[..., None]
    violated = ~cap & ((rel_gap > rel_tol) | unmet.any(axis=-1))
    return TightnessReport(cap_binding=cap, passed=~violated)


@dataclass
class UniquenessReport:
    """Per snapshot row (axis 0) and algorithm (axis 1, in the order given)."""

    passed: np.ndarray           # (S, A) bool
    max_spread: np.ndarray       # (S, A) relative infinity-norm across fixed points


def check_fixed_point_uniqueness(
    batch: Snapshot,
    algorithms: Sequence[Algorithm | str],
    n_inits: int,
    rng: np.random.Generator,
) -> UniquenessReport:
    """Run each algorithm from random initial vectors and compare fixed points.

    Every snapshot of the (S, K) batch gets n_inits restarts per algorithm,
    each to tol 1e-9 within 20000 steps; a snapshot passes for an algorithm
    when all its restarts converge and their fixed points agree with its
    first restart's to a relative 1e-6.

    The starts are one rng.uniform(-12, 0, size=(S, A, n_inits, K+1)) draw
    of exponents, snapshot-major and then in the order of `algorithms`: the
    stream of checking one snapshot and algorithm after the other. Each
    algorithm's S * n_inits restarts run as one batch.
    """
    algs = [Algorithm(a) for a in algorithms]
    n, k = len(batch), batch.num_ues
    exponents = rng.uniform(-12.0, 0.0, size=(n, len(algs), n_inits, k + 1))
    starts = state_caps(batch)[:, None, None, :] * 10.0 ** exponents
    rows = _per_snapshot(batch, n_inits)
    converged = np.empty((n, len(algs)), dtype=bool)
    spread = np.empty((n, len(algs)))
    for j, alg in enumerate(algs):
        p_init = starts[:, j].reshape(-1, k + 1)
        if not alg.harvesting:
            p_init[:, -1] = 0.0
        sol = solve(alg, rows, p_init, 1e-9, 20000)
        stack = sol.fixed_point.reshape(n, n_inits, k + 1)
        ref = stack[:, :1]
        converged[:, j] = sol.converged.reshape(n, n_inits).all(axis=1)
        spread[:, j] = np.max(
            np.abs(stack - ref) / np.maximum(np.abs(ref), 1e-30), axis=(1, 2), initial=0.0
        )
    return UniquenessReport(
        passed=converged & (spread <= 1e-6),
        max_spread=spread,
    )
