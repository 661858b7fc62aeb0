"""Synchronous fixed-point iteration, Monte-Carlo sweeps and mobility runs.

The iteration is Jacobi-style: every UE and (for the harvesting algorithms)
the base station compute their next power from the full state of the current
step. Random snapshot s comes from the stream cfg.seed + s alone (see
`channel.sample_batch`). A sweep draws its snapshots once and places that
one draw for every axis value and every algorithm (common random numbers).

A state is one array: the K uplink powers, then the harvest power, so (K+1,)
for one state and (S, K+1) for S of them (see `core`). There is one
iteration loop, `iterate`. It steps S independent rows at once: an (S, K+1)
state on a batch Snapshot of (S, K) parameter arrays, with a convergence
record per row. A row stops at the first step whose relative change is at
most tol, or after max_iter steps; each row's numbers equal those of
iterating it alone. Rows that stop are written out and dropped from the
working arrays (compaction), so the cost of a step follows the rows still
running. `solve` runs it with an algorithm's joint update: a sweep solves
each axis value in one call, and `run_fixed_point` is the one-row case.

With `give_up=True` a row also stops, unconverged, once a certificate shows
it cannot converge before max_iter. The certificate rests on one premise:
the update is a two-sided scalable map (Sung & Leung 2005) whose every
component is monotone in each argument, as all four joint updates are.
Such a map does not expand the Thompson metric max_i |log(x_i / y_i)|, so
one-step distances can shrink by at most the two-step distance per step
(see `iterate`). Only `run_monte_carlo` turns it on: its averages leave
unconverged rows out anyway, so its outputs do not change. `run_fixed_point`
(the `snapshot` command's trace and exit status) and the oracle iterate to
max_iter.

A mobility run is a recurrence in time: each step is one joint update of
the step before on that step's gains, and the batteries decide which UEs
transmit. The update is a standard interference function (Yates 1995), so a
wrong start is forgotten geometrically, and `run_mobility` solves the
recurrence a window of steps at a time by waveform relaxation (Lelarasmee,
Ruehli & Sangiovanni-Vincentelli 1982). With each UE's transmit mask and the
harvest flag held, one `joint_update` call sweeps the whole window: row t is
updated from row t-1 of the previous sweep, and row 0 from the exact state
before the window. The masked trajectory is the unique fixed point of this
sweep, and after k sweeps its first k rows are exact; more sharply, every
row up to the first one a sweep changed is exact, since each of those rows
is the update of an exact row. A sweep that changes no bit therefore proves
the whole window exact, with no tolerance involved. A battery pass then
checks the held masks row by row, so the outputs are those of stepping the
recurrence one step at a time, bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import Snapshot, cell_distances, draw_ues, place_ues, snapshot_from_scenario
from .config import Scenario
from .core import Algorithm, Metrics, state_caps, joint_update, metrics, ue_max
from .units import db_to_linear

__all__ = [
    "IterationTrace",
    "BatchSolution",
    "SweepResult",
    "MobilityResult",
    "iterate",
    "solve",
    "run_fixed_point",
    "apply_axis",
    "run_monte_carlo",
    "run_mobility",
    "SWEEP_AXES",
    "SWEEP_METRICS",
]

# Denominator floor for relative power changes near zero.
CHANGE_FLOOR = 1e-18

# Mobility windows: the most steps one sweep covers, and the most sweeps a
# window takes before it commits only the rows proven exact.
MAX_WINDOW = 4096
MAX_SWEEPS = 64

# The early-exit certificate checks at steps 16, 32, 64, ... below max_iter.
FIRST_GIVE_UP_CHECK = 16
# Allowance per step for rounding in the computed update's non-expansion.
GIVE_UP_SLACK = 1e-12

SWEEP_AXES = ("delta_db", "cell_side", "gamma_target", "num_ues")

# metric -> sample(mx, x): one sample per row of a batch x of fixed points
# with metrics mx. The order is the sweep CSV's row order.
SWEEP_METRICS: dict[str, Callable[[Metrics, np.ndarray], np.ndarray]] = {
    "avg_sinr": lambda mx, x: mx.sinr.mean(axis=-1),
    "aggregate_throughput": lambda mx, x: mx.aggregate_throughput,
    "p_h": lambda mx, x: x[:, -1],
    "avg_p_u": lambda mx, x: x[:, :-1].mean(axis=-1),
    "sum_p_u": lambda mx, x: x[:, :-1].sum(axis=-1),
    "total_ue_power": lambda mx, x: mx.ue_total_power.sum(axis=-1),
    "hbs_total_power": lambda mx, x: mx.hbs_total_power,
    "aggregate_power": lambda mx, x: mx.aggregate_power,
    "outage_fraction": lambda mx, x: mx.outage.mean(axis=-1),
    "feasible_fraction": lambda mx, x: mx.energy_feasible.mean(axis=-1),
}


@dataclass
class IterationTrace:
    """Record of one fixed-point run, one row per step, the start included."""

    steps: np.ndarray             # (T,) step index of each row, 0 for the start
    states: np.ndarray            # (T, K+1) state after each step
    metrics: Metrics              # of each state
    converged: bool
    iterations_used: int
    fixed_point: np.ndarray       # (K+1,) the last row of states
    final_change: float


@dataclass
class BatchSolution:
    """Per-row outcome of `iterate`."""

    fixed_point: np.ndarray       # (S, K+1): uplink powers, then the harvest power
    iterations_used: np.ndarray   # (S,) steps taken
    converged: np.ndarray         # (S,) bool
    final_change: np.ndarray      # (S,) last relative change, inf with no step
    stopped_early: np.ndarray     # (S,) bool: certified unable to converge


def _certifiable(update, batch: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    """Rows the certificate applies to, and their components that are not 0.

    Each component of a joint update is monotone in each argument, in the
    same direction for all of them, so over the box [0, caps] it lies
    between its values at 0 and at the caps. A row qualifies when every
    component either stays at or above CHANGE_FLOOR, where the relative
    change is the exact ratio, or is identically 0 (live is False).
    """
    caps = state_caps(batch)
    at_zero = update(np.zeros_like(caps), batch)
    at_caps = update(caps, batch)
    dead = np.maximum(at_zero, at_caps) == 0.0
    low = np.minimum(at_zero, at_caps)
    return np.all(dead | (low >= CHANGE_FLOOR), axis=-1), ~dead


def _log_distance(a: np.ndarray, b: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Thompson distance max_i |log(a_i / b_i)| of each row over its live components."""
    return np.abs(np.log(np.divide(a, b, out=np.ones_like(a), where=live))).max(axis=-1)


def iterate(
    update: Callable[[np.ndarray, Snapshot], np.ndarray],
    batch: Snapshot,
    p_init: np.ndarray,
    tol: float,
    max_iter: int,
    history: list[np.ndarray] | None = None,
    give_up: bool = False,
) -> BatchSolution:
    """Iterate `update` on every row of the batch until each row stops.

    `p_init` is the (S, K+1) start, one row per snapshot; it is clipped into
    [0, caps] first. A row stops converged at the first step whose
    infinity-norm relative change (denominators floored at CHANGE_FLOOR) is
    at most tol, and unconverged after max_iter steps: an exception is never
    raised for it. `update` receives the rows still running and their
    parameters. With a `history` list, the (rows, K+1) state of every step,
    the clipped start included, is appended to it; runs of one row use it.

    With `give_up`, a row also stops unconverged, with `stopped_early` set,
    at a check step t = 16, 32, 64, ... < max_iter when

        d - (max_iter - t) * (e + GIVE_UP_SLACK) > -log1p(-tol),

    where d and e are the Thompson distances of x_t to x_{t-1} and to
    x_{t-2} over the components that are not identically 0. The update must
    be two-sided scalable and componentwise monotone (see the module
    docstring). Then the two-step distances never grow, the triangle
    inequality gives every later one-step distance at least d minus e per
    step, and a relative change of at most tol needs a one-step distance of
    at most -log1p(-tol). The argument also needs the relative change to be
    the exact ratio, so only rows whose components all stay at or above
    CHANGE_FLOOR, or at 0, qualify; that bound costs two `update` calls on
    the rows still running at step 16, and none when no row gets there.
    Every row it stops is one that full iteration leaves unconverged; the
    other rows get exactly the numbers they get without it.
    """
    n = len(batch)
    x = np.clip(p_init, 0.0, state_caps(batch))
    out = BatchSolution(
        fixed_point=x.copy(),
        iterations_used=np.zeros(n, dtype=int),
        converged=np.zeros(n, dtype=bool),
        final_change=np.full(n, math.inf),
        stopped_early=np.zeros(n, dtype=bool),
    )
    if history is not None:
        history.append(x)
    active = np.arange(n)
    # with tol >= 1 (or NaN) no distance exceeds the limit: never check
    check = FIRST_GIVE_UP_CHECK if give_up and tol < 1.0 else None
    older = None                       # x_{t-2} of the running rows at a check
    certifiable = live = None          # per batch row, from the first check on
    for t in range(1, max_iter + 1):
        if active.size == 0:
            break
        if t + 1 == check:
            older = x
        nxt = update(x, batch)
        rel = nxt - x
        np.abs(rel, out=rel)
        rel /= np.maximum(x, CHANGE_FLOOR)
        change = ue_max(rel)
        prev, x = x, nxt
        if history is not None:
            history.append(x)
        converged = change <= tol
        stop = converged if t < max_iter else np.ones_like(converged)
        early = None
        if t == check:
            if t < max_iter:
                if certifiable is None:
                    certifiable = np.zeros(n, dtype=bool)
                    live = np.zeros((n, x.shape[-1]), dtype=bool)
                    certifiable[active], live[active] = _certifiable(update, batch)
                ok = certifiable[active]
                on = live[active] & ok[:, None]
                d = _log_distance(x, prev, on)
                e = _log_distance(x, older, on)
                early = ok & ~converged & (
                    d - (max_iter - t) * (e + GIVE_UP_SLACK) > -math.log1p(-tol)
                )
                stop = stop | early
            check, older = 2 * t, None
        if stop.any():
            rows = active[stop]
            out.fixed_point[rows] = x[stop]
            out.iterations_used[rows] = t
            out.converged[rows] = converged[stop]
            out.final_change[rows] = change[stop]
            if early is not None:
                out.stopped_early[rows] = early[stop]
            go = ~stop
            active, x, batch = active[go], x[go], batch.rows(go)
            if older is not None:
                older = older[go]
    return out


def solve(
    algorithm: Algorithm | str,
    batch: Snapshot,
    p_init: np.ndarray | None = None,
    tol: float | None = None,
    max_iter: int | None = None,
    history: list[np.ndarray] | None = None,
    give_up: bool = False,
) -> BatchSolution:
    """Fixed points of the algorithm's joint update on every row of the batch.

    The default start is 1 uW on every UE and, for the harvesting algorithms,
    on the harvest signal; tol and max_iter default to the scenario's.
    `give_up` stops rows certified unable to converge (see `iterate`).
    """
    alg = Algorithm(algorithm)
    if p_init is None:
        p_init = np.full((len(batch), batch.num_ues + 1), 1e-6)
        if not alg.harvesting:
            p_init[:, -1] = 0.0
    return iterate(
        lambda x, rows: joint_update(alg, x, rows),
        batch,
        p_init,
        batch.cfg.tol if tol is None else tol,
        batch.cfg.max_iter if max_iter is None else max_iter,
        history,
        give_up,
    )


def run_fixed_point(
    algorithm: Algorithm | str,
    snap: Snapshot,
    p_init: np.ndarray | None = None,
    tol: float | None = None,
    max_iter: int | None = None,
) -> IterationTrace:
    """Iterate the joint power update until the relative change drops below tol.

    This is `solve` on a batch of one row, from a (K+1,) start. Non-convergence
    within max_iter yields converged=False, not an exception. The trace keeps
    every step, the clipped start included, and the metrics of all its states
    come from one `metrics` call; their last row holds the fixed point's
    energy verdict (`energy_feasible`, `hbs_cap_binding`).
    """
    history: list[np.ndarray] = []
    if p_init is not None:
        p_init = p_init[None, :]
    sol = solve(algorithm, snap.repeated(), p_init, tol, max_iter, history)
    states = np.concatenate(history)
    return IterationTrace(
        steps=np.arange(len(history)),
        states=states,
        metrics=metrics(states, snap),
        converged=bool(sol.converged[0]),
        iterations_used=int(sol.iterations_used[0]),
        fixed_point=states[-1],
        final_change=float(sol.final_change[0]),
    )


def apply_axis(scenario: Scenario, axis: str, value: float) -> Scenario:
    """Scenario copy with one sweep axis applied."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    cfg = scenario.cfg
    template = scenario.ue_template
    if axis == "delta_db":
        cfg = dataclasses.replace(cfg, delta=db_to_linear(float(value)))
    elif axis == "cell_side":
        cfg = dataclasses.replace(cfg, cell_side=float(value))
    elif axis == "num_ues":
        cfg = dataclasses.replace(cfg, num_ues=int(value))
    elif axis == "gamma_target":
        template = dataclasses.replace(template, gamma_target=float(value))
    return dataclasses.replace(scenario, cfg=cfg, ue_template=template)


@dataclass
class SweepResult:
    """Averaged metrics over snapshots for each value of one sweep axis.

    `solves` holds one record per axis value, in the sweep manifest's form:
    `value`; `n_converged` and `n_nonconverged` snapshots; `n_stopped_early`,
    the unconverged ones the certificate stopped; and `converged_iterations`,
    the {min, median, max} iterations of the converged ones, None without any.
    """

    stats: dict[str, list[tuple[float, float]]]   # metric -> [(mean, half_width)]
    solves: list[dict]


def run_monte_carlo(
    algorithms: list[Algorithm | str],
    scenario: Scenario,
    sweep_axis: str,
    values: list[float],
    n_snapshots: int,
    tol: float | None = None,
    max_iter: int | None = None,
) -> list[SweepResult]:
    """Per algorithm, in the order given, a SweepResult of fixed-point metrics
    averaged over seeded snapshots per axis value.

    Snapshot i is random snapshot i (stream cfg.seed + i), also when the
    scenario pins its UEs. One draw at the sweep's largest UE count is placed
    for every value before the first solve (see `channel.sample_batch`), so
    every value and algorithm gets the same placements, which keeps trend
    comparisons paired, and an invalid value fails before any solve. The
    draw's distances are computed once per cell side, and each value places
    its first K columns of them.
    Unconverged snapshots are counted and left out of the averages. Each
    (algorithm, value) is one `solve` call with `give_up` on: a row certified
    unable to converge within max_iter stops early (counted in
    n_stopped_early), and since such a row is one that full iteration leaves
    unconverged, the averages and counts are those of full iteration.
    """
    if isinstance(algorithms, str):
        raise TypeError(f"algorithms: expected a list of algorithms, got {algorithms!r}")
    scenarios = [apply_axis(scenario, sweep_axis, value) for value in values]
    widest = max(scenarios, key=lambda sc: sc.cfg.num_ues, default=scenario)
    unit, mu = draw_ues(widest.cfg, widest.ue_template, n_snapshots)
    cells = {sc.cfg.cell_side: sc.cfg for sc in scenarios}
    distances = {side: cell_distances(cfg, unit) for side, cfg in cells.items()}
    batches = [
        place_ues(sc.cfg, sc.hbs, sc.ue_template, mu, distances[sc.cfg.cell_side])
        for sc in scenarios
    ]
    results = []
    for alg in algorithms:
        stats: dict[str, list[tuple[float, float]]] = {m: [] for m in SWEEP_METRICS}
        solves = []
        for value, batch in zip(values, batches):
            sol = solve(alg, batch, tol=tol, max_iter=max_iter, give_up=True)
            ok = sol.converged
            fixed = sol.fixed_point[ok]
            mx = metrics(fixed, batch.rows(ok))
            # sorted Python ints: np.median would page in numpy's sort kernels (0.5 MB RSS)
            used = sorted(sol.iterations_used[ok].tolist())
            n_ok = len(used)
            solves.append({
                "value": value,
                "n_converged": n_ok,
                "n_nonconverged": n_snapshots - n_ok,
                "n_stopped_early": int(sol.stopped_early.sum()),
                "converged_iterations": dict(
                    min=used[0], median=(used[(n_ok - 1) // 2] + used[n_ok // 2]) / 2,
                    max=used[-1],
                ) if used else None,
            })
            for key, sample in SWEEP_METRICS.items():
                arr = sample(mx, fixed)
                if arr.size == 0:
                    stats[key].append((math.nan, math.nan))
                else:
                    half = 1.96 * arr.std(ddof=1) / math.sqrt(arr.size) if arr.size > 1 else 0.0
                    stats[key].append((float(arr.mean()), float(half)))
        results.append(SweepResult(stats=stats, solves=solves))
    return results


@dataclass
class MobilityResult:
    """Time series of a mobility run, one row per step, plus its events."""

    time: np.ndarray                     # (T,) seconds at the end of each step
    states: np.ndarray                   # (T, K+1) powers after each step
    metrics: Metrics                     # of each step's state on its gains
    battery: np.ndarray                  # (T, K) joules after each step
    positions: np.ndarray                # (T, K, 2) meters
    harvesting_active: np.ndarray        # (T,) bool
    first_depletion_step: int | None     # 1-based step index, None if never
    activation_step: int | None          # harvesting switch-on step (EH only)


def _trajectory(
    ys: np.ndarray, side: float, speed: float, step: float, n_steps: int
) -> np.ndarray:
    """Positions (T, K, 2) of UEs leaving the x = 0 edge at heights ys.

    Each UE moves along x by speed * step per step and reflects at x = side
    and x = 0; the reflected coordinate is 2 * side - x, then -x. All UEs
    start at x = 0 with the same speed, so they share one x path.
    """
    x, direction, xs = 0.0, 1.0, []
    for _ in range(n_steps):
        x += direction * speed * step
        if x > side:
            x, direction = 2 * side - x, -direction
        if x < 0.0:
            x, direction = -x, -direction
        xs.append(x)
    positions = np.empty((n_steps, len(ys), 2))
    positions[:, :, 0] = np.array(xs)[:, None]
    positions[:, :, 1] = ys
    return positions


def run_mobility(
    algorithm: Algorithm | str,
    scenario: Scenario,
    duration: float,
    step: float = 1e-3,
    speed_kmh: float = 5.0,
    battery_init: float = 1e-6,
) -> MobilityResult:
    """Straight-line back-and-forth mobility with a finite per-UE battery.

    UEs start on the x = 0 edge at distinct heights and traverse the cell
    parallel to the x axis at constant speed, reflecting at the walls. Each
    1 ms step the UEs move and one synchronous power update runs on the new
    gains. Batteries pay p_u / eps + p_cir per transmitting step and gain the
    harvested power; a UE that cannot afford a step (battery plus harvest)
    stays silent and consumes nothing. The base station's energy signal stays
    off until the first step some battery cannot cover its consumption, which
    also defines the measured depletion time. Each battery starts full at
    battery_init joules, which must be non-negative (inf: no limit); the
    speed must be finite and non-negative.

    The motion does not depend on the powers, so the whole trajectory and the
    gains of every step are computed first, as one (T, K) batch. The power
    and battery recurrence is solved in windows of steps by relaxation (see
    the module docstring), with the bits of stepping it one step at a time:

    - A window starts from an exact state, with each UE's transmit mask and
      the harvest flag held at their current values. It is swept until all
      its rows are proven exact, or for at most min(w, MAX_SWEEPS) sweeps:
      after k sweeps the first k rows are exact, and so is every row up to
      the first one the last sweep changed.
    - Each UE's battery then runs as its own chain of Python floats, in the
      operations and order of one step. The pass commits the exact rows
      before the first one that breaks a held mask: an affordability flip,
      or the first depletion. That row's inputs are exact, so its depletion
      flag and masks are settled as one step would settle them, and the next
      window starts there with them.
    - Width: a window that commits every row doubles it, up to MAX_WINDOW,
      if it was narrower than MAX_SWEEPS or proved its rows in fewer than w
      sweeps; otherwise the map contracts too slowly for wide windows to
      pay, and the width falls back to MAX_SWEEPS. After a break the width
      is the number of rows the window committed, at least 1.
    """
    alg = Algorithm(algorithm)
    if not math.isfinite(duration) or duration < 0:
        raise ValueError("duration must be finite and non-negative")
    if not math.isfinite(step) or step <= 0:
        raise ValueError("step must be positive and finite")
    if math.isnan(battery_init) or battery_init < 0:
        raise ValueError("battery_init must be non-negative")
    if not math.isfinite(speed_kmh) or speed_kmh < 0:
        raise ValueError("speed_kmh must be finite and non-negative")
    cfg = scenario.cfg
    base = snapshot_from_scenario(scenario)
    K = base.num_ues

    # start on the x=0 edge; keep sampled heights if random, else spread evenly
    if scenario.fixed_ues is None:
        ys = draw_ues(cfg, scenario.ue_template, 1)[0][0, :, 1] * cfg.cell_side
    else:
        ys = cfg.cell_side * (np.arange(K) + 1.0) / (K + 1.0)
    n_steps = int(round(duration / step))
    positions = _trajectory(ys, cfg.cell_side, speed_kmh / 3.6, step, n_steps)
    gains = base.moved(positions)
    harvest_gain = gains.mu * gains.g

    states = np.empty((n_steps, K + 1))
    battery = np.empty((n_steps, K))
    level = [battery_init] * K           # each UE's joules before step n
    transmit = [True] * K                # the held transmit masks
    x = np.zeros(K + 1)                  # the state after step n - 1, exact
    first_depletion: int | None = None
    activation: int | None = None
    n, width = 0, 1
    while n < n_steps:
        w = min(width, n_steps - n)
        rows = gains.rows(slice(n, n + w))
        # the non-harvesting updates keep p_h at 0 by themselves
        keep = np.array(transmit + [activation is not None or not alg.harvesting])
        masked = not keep.all()
        # traj[0] is the exact start, traj[1:] the window's guessed rows
        traj = np.empty((w + 1, K + 1))
        traj[:] = x
        for sweeps in range(1, min(w, MAX_SWEEPS) + 1):
            cand = joint_update(alg, traj[:-1], rows)
            nxt = np.where(keep, cand, 0.0) if masked else cand
            changed = (nxt != traj[1:]).ravel()
            traj[1:] = nxt
            # every row up to the first one this sweep changed is exact
            first = int(changed.argmax())
            exact = first // (K + 1) + 1 if changed[first] else w
            if exact == w:
                break
        need = (cand[:exact, :-1] / cfg.epsilon + base.ue_template.p_cir) * step
        harvest = harvest_gain[n : n + exact] * traj[1 : exact + 1, -1:] * step
        # Each UE's battery is its own chain while the masks hold: run it in
        # the loop's operations up to the first row that breaks its mask.
        # Until the first depletion no harvest flows and every UE transmits,
        # so that depletion breaks the depleting UE's mask. An affordable
        # step spends at most what the battery holds, so only the capacity
        # clips.
        end, chains = exact, []
        for lv, on, needs, harvests in zip(level, transmit, need.T.tolist(), harvest.T.tolist()):
            chain = []
            for nd, hv in zip(needs[:end], harvests[:end]):
                lv += hv
                if (lv >= nd) != on:
                    break
                lv = min(lv - nd if on else lv, battery_init)
                chain.append(lv)
            end = min(end, len(chain))
            chains.append(chain)
        states[n : n + end] = traj[1 : end + 1]
        battery[n : n + end] = np.array([chain[:end] for chain in chains]).T
        if end:
            x = traj[end]
            level = [chain[end - 1] for chain in chains]
        if end < exact:
            # row `end` has exact inputs: settle its flags and masks as one
            # step of the loop would, so the next window's first row holds
            lv, nd = np.array(level), need[end]
            if first_depletion is None and bool((lv < nd).any()):
                first_depletion = n + end + 1
                if alg.harvesting:
                    activation = n + end + 1
            p_h = cand[end, -1] if activation is not None else 0.0
            transmit = (lv + harvest_gain[n + end] * p_h * step >= nd).tolist()
            width = max(end, 1)
        elif w < MAX_SWEEPS or (sweeps < w and exact == w):
            width = min(2 * w, MAX_WINDOW)
        else:
            width = MAX_SWEEPS
        n += end

    steps = np.arange(1, n_steps + 1)
    return MobilityResult(
        time=steps * step,
        states=states,
        metrics=metrics(states, gains),
        battery=battery,
        positions=positions,
        harvesting_active=steps >= (activation or math.inf),
        first_depletion_step=first_depletion,
        activation_step=activation,
    )
