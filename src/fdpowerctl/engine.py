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
iterating it alone. It runs blocks of up to 16 updates into one stack of
states and then tests the block's stops, each row's outputs from its own
stop step (see `iterate`). The test is screened: one component per row,
the one with the row's largest change in its last full test (the first
before any), gives a lower bound on the row's change at every step, and
only the rows whose bound reaches tol get the full test. The loop takes a
binder, `bind(rows) -> step(x, out)`, and binds the update to its working
rows: the whole batch first, then, at the end of each block that stops some
rows, the rows still running, picked by one integer index, so a step costs
what the running rows cost (`core.JointUpdate` pads its operands to whole
rows and allocates its scratch once per binding). `solve` runs it with an algorithm's
joint update, and `run_fixed_point` is the one-row case. A sweep makes one
`solve` call per algorithm and axis value.

With `give_up=True` a row also stops, unconverged, once a certificate shows
it cannot converge before max_iter. The certificate rests on one premise:
the update is a two-sided scalable map (Sung & Leung 2005) whose every
component is monotone in each argument, as all four joint updates are.
Such a map does not expand the Thompson metric max_i |log(x_i / y_i)|, so
one-step distances can shrink by at most the two-step distance per step
(see `iterate`). It is checked every 16 steps up to step 128, where cycling
rows show themselves, then at 256, 512, 1024, ..., so a long converging
solve pays for few checks. Only `run_monte_carlo` turns it on: its averages
leave unconverged rows out anyway, so its outputs do not change.
`run_fixed_point` (the `snapshot` command's trace and exit status) and the
oracle iterate to max_iter.

A mobility run is a recurrence in time: each step is one joint update of the
step before on that step's gains, and the batteries decide which UEs
transmit. The update is a standard interference function (Yates 1995), so a
wrong start is forgotten geometrically, and `run_mobility` solves the
recurrence a window of steps at a time by waveform relaxation (Lelarasmee,
Ruehli & Sangiovanni-Vincentelli 1982). With each UE's transmit mask and the
harvest flag held, the update bound to the window once (`core.JointUpdate`)
sweeps the whole window in one call: row t is updated from row t-1 of the
previous sweep, and row 0 from the exact state before the window. The masked
trajectory is the unique fixed point of this sweep, and after k sweeps its
first k rows are exact; more sharply, every row up to the first one a sweep
changed is exact, since each of those rows is the update of an exact row. A
sweep that changes no bit therefore proves the whole window exact, with no
tolerance involved. A battery pass then checks the held masks. Each UE's
battery is a chain of harvests, payments and clips at the capacity: numpy
runs it as one accumulate up to each clip or break, and a stretch held at
the capacity as one elementwise pass (see `_chain`). The first row whose
affordability breaks a held mask ends what the window commits, so the
outputs are those of stepping the recurrence one step at a time, bit for
bit.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import Snapshot, cell_distances, draw_ues, place_ues, snapshot_from_scenario
from .config import ConfigError, Scenario, db_to_linear, validate_scenario
from .core import (
    Algorithm, JointUpdate, Metrics, state_caps, metrics, sinr, ue_max,
)

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
# Battery chains: the last fewer than SHORT_RUN rows of a chain (a whole
# window of fewer included) are stepped in plain Python, not in numpy passes,
# and a pass that commits fewer hands over to plain steps (see `_chain`).
SHORT_RUN = 64

# `iterate`'s blocks of updates: BLOCK_STEPS steps, ending on every multiple
# of it, with at most STACK_ELEMENTS numbers of states, but 2 steps.
BLOCK_STEPS = 16
STACK_ELEMENTS = 2**15

# The early-exit certificate checks at steps BLOCK_STEPS, 2 BLOCK_STEPS, ...,
# LAST_STRIDED_CHECK, then at twice that, 4 times, ... below max_iter:
# densely where cycling rows show themselves, sparsely where slow converging
# rows would pay for every check. Each check ends a block, which holds the
# x_{t-2} it reads.
LAST_STRIDED_CHECK = 128
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
    final_change: float           # relative change of the last step, inf with no step


@dataclass
class BatchSolution:
    """Per-row outcome of `iterate`: each row's stop step and why it stopped."""

    fixed_point: np.ndarray       # (S, K+1): uplink powers, then the harvest power
    iterations_used: np.ndarray   # (S,) steps taken
    converged: np.ndarray         # (S,) bool
    stopped_early: np.ndarray     # (S,) bool: certified unable to converge


def _certifiable(step, caps: np.ndarray) -> np.ndarray:
    """Rows the certificate applies to, for an update bound to the rows whose
    state caps are `caps`.

    Each component of a joint update is monotone in each argument, in the
    same direction for all of them, so over the box [0, caps] it lies
    between its values at 0 and at the caps. A row qualifies when every
    component either stays at or above CHANGE_FLOOR, where the relative
    change is the exact ratio, or is identically 0.
    """
    at_zero = step(np.zeros_like(caps), np.empty_like(caps))
    at_caps = step(caps, np.empty_like(caps))
    dead = np.maximum(at_zero, at_caps) == 0.0
    low = np.minimum(at_zero, at_caps)
    return np.all(dead | (low >= CHANGE_FLOOR), axis=-1)


def _log_distance(a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Thompson distance max_i |log(a_i / b_i)| of each row in the mask `rows`,
    over the components where b is not 0; a row outside `rows` reads 0."""
    where = rows[:, None] & (b > 0.0)
    return np.abs(np.log(np.divide(a, b, out=np.ones_like(a), where=where))).max(axis=-1)


def _relative(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Relative changes |new - old| / max(old, CHANGE_FLOOR), elementwise."""
    rel = np.abs(new - old)
    rel /= np.maximum(old, CHANGE_FLOOR)
    return rel


def iterate(
    bind: Callable[[Snapshot], Callable[[np.ndarray, np.ndarray], np.ndarray]],
    batch: Snapshot,
    p_init: np.ndarray,
    tol: float,
    max_iter: int,
    history: list[np.ndarray] | None = None,
    give_up: bool = False,
) -> BatchSolution:
    """Iterate an update on every row of the batch until each row stops.

    A single snapshot raises ValueError: `Snapshot.repeated()` makes a batch.
    `p_init` is the (S, K+1) start, one row per snapshot; it is clipped into
    [0, caps] first. A row stops converged at the first step whose
    infinity-norm relative change (denominators floored at CHANGE_FLOOR) is
    at most tol, and unconverged after max_iter steps: an exception is never
    raised for it. The steps run in blocks of b updates into a (b+1, rows,
    K+1) stack of states; the stop test (below) then marks each row's
    converged steps, and its stop is the first of them or the block's end
    (at max_iter, or by the certificate); the row's outputs come from its
    own stop step. A block is BLOCK_STEPS steps; it holds at most
    STACK_ELEMENTS numbers, but 2 steps, and ends on every multiple of 16
    and at max_iter, so each check ends a block that holds x_{t-2}.
    `bind(rows)` binds the update to a Snapshot of the working rows, the
    whole batch first: the step it returns writes, as `step(x, out)`, the
    next states of those rows' states x into the stack's `out`, which does
    not overlap x. A row stopping inside a block runs, unread, to its end,
    where one `np.flatnonzero` index drops the stopped rows from the states
    once they are written out; the old step is dropped first and the running
    rows are bound anew, `bind(batch.rows(index))`.
    `functools.partial(JointUpdate, alg)` binds an algorithm's joint update,
    and `lambda rows: lambda x, out: update(x, rows, out)` any update that
    reads its rows' parameters from a Snapshot. With a `history` list, the
    (rows, K+1) state of the running rows at every step, the clipped start
    and each row's stop step included, is appended to it; runs of one row
    use it.

    The stop test is screened, from the first block on. Each row tracks one
    component, the argmax of its relative changes at the last step of its
    last full test, component 0 before any. Every block first takes that
    component's relative change at each of its steps, by the full test's
    own operations on the same numbers, so each is bit for bit one of the
    terms the row's change is the maximum of, and a lower bound on it,
    whichever component it reads. A row whose bound exceeds tol at every
    step (NaN included) cannot stop converged in the block; only the
    others get the full test, which moves their tracked component. So the
    screen only picks the rows that get the full test, and every row stops
    where the full test alone would stop it. A block whose screen leaves
    most rows near tol runs the full test on every row, with no gather:
    there picking the rows would cost more than it saves.

    With `give_up`, a row also stops unconverged, with `stopped_early` set,
    at a check step t = 16, 32, 48, ..., 128, 256, 512, ... < max_iter when

        d - (max_iter - t) * (e + GIVE_UP_SLACK) > -log1p(-tol),

    where d and e are the Thompson distances of x_t to x_{t-1} and to
    x_{t-2} over the components where x_{t-1} and x_{t-2} are not 0. The
    update must be two-sided scalable and componentwise monotone (see the
    module docstring). Then the two-step distances never grow, the triangle
    inequality gives every later one-step distance at least d minus e per
    step, and a relative change of at most tol needs a one-step distance of
    at most -log1p(-tol). The argument also needs the relative change to be
    the exact ratio, so only rows whose components all stay at or above
    CHANGE_FLOOR past the first step, or at 0, qualify; such a component is
    0 at a check step exactly when it is 0 at every step past the first,
    so the distances skip just those. That bound costs two steps of the
    working rows, from 0 and from the caps, at the first check some row is
    still running at, and none when no row gets there.
    Every row it stops is one that full iteration leaves unconverged; the
    other rows get exactly the numbers they get without it.
    """
    if batch.g.ndim != 2:
        raise ValueError(f"expected a batch of (S, K) arrays, got shape {batch.g.shape}; "
                         "make a single snapshot a batch with Snapshot.repeated()")
    n = len(batch)
    x = np.clip(p_init, 0.0, state_caps(batch))
    step = bind(batch)
    out = BatchSolution(
        fixed_point=x.copy(),
        iterations_used=np.zeros(n, dtype=int),
        converged=np.zeros(n, dtype=bool),
        stopped_early=np.zeros(n, dtype=bool),
    )
    if history is not None:
        history.append(x)
    index = np.arange(n)               # the working rows: the batch rows still running
    # with tol >= 1 (or NaN) no distance exceeds the limit: never check
    check = BLOCK_STEPS if give_up and tol < 1.0 else None
    certifiable = None                 # per batch row, from the first check on
    t, stack = 0, None                 # steps taken; the block's states, x_t first
    track = np.zeros(n, dtype=int)     # per working row, the component the screen reads
    while t < max_iter and index.size:
        fit = 1 << max(1, (STACK_ELEMENTS // x.size).bit_length() - 1)
        b = min(fit, BLOCK_STEPS - t % BLOCK_STEPS, max_iter - t)
        if stack is None or len(stack) <= b:
            stack = np.empty((b + 1, *x.shape))
        stack[0] = x
        for i in range(b):
            step(stack[i], stack[i + 1])
        t += b
        x = stack[b]
        # the full test on the rows the screen cannot rule out, or on every
        # row when they are most rows
        seen = stack[: b + 1].reshape(b + 1, -1).take(   # (b+1, rows): each row's tracked lane
            np.arange(0, x.size, x.shape[-1]) + track, axis=1)
        tested = np.flatnonzero((_relative(seen[1:], seen[:-1]) <= tol).any(axis=0))
        if 2 * tested.size < len(x):
            conv = np.zeros((b, len(x)), dtype=bool)
            if tested.size:
                states = stack[: b + 1].transpose(1, 0, 2)[tested]
                rel = _relative(states[:, 1:], states[:, :-1])
                conv.T[tested] = ue_max(rel.reshape(-1, x.shape[-1])).reshape(-1, b) <= tol
                track[tested] = rel[:, -1].argmax(axis=-1)
        else:
            rel = _relative(stack[1 : b + 1], stack[:b])
            conv = ue_max(rel.reshape(-1, x.shape[-1])).reshape(b, -1) <= tol
            track = rel[-1].argmax(axis=-1)
        converged = conv.any(axis=0)
        at = np.where(converged, conv.argmax(axis=0), b - 1)
        stop = converged | (t == max_iter)
        # at max_iter every row stops, and a block whose rows all stop ends the loop
        if t == check and not stop.all():
            if certifiable is None:
                certifiable = np.zeros(n, dtype=bool)
                certifiable[index] = _certifiable(step, state_caps(batch)[index])
            ok = certifiable[index] & ~stop
            d = _log_distance(x, stack[b - 1], ok)
            e = _log_distance(x, stack[b - 2], ok)
            stop = stop | ok & (d - (max_iter - t) * (e + GIVE_UP_SLACK) > -math.log1p(-tol))
            check = t + BLOCK_STEPS if t < LAST_STRIDED_CHECK else 2 * t
        if history is not None:
            history.extend(stack[j + 1][at >= j] for j in range(at.max() + 1))
        rows = np.flatnonzero(stop)
        if rows.size:
            at = at[rows]
            out.fixed_point[index[rows]] = stack[at + 1, rows]
            out.iterations_used[index[rows]] = t - b + 1 + at
            out.converged[index[rows]] = converged[rows]
            # a row that stops unconverged before max_iter is certified
            out.stopped_early[index[rows]] = ~converged[rows] & (t < max_iter)
            if rows.size == index.size:
                break
            # free the block's arrays and the old binding before the running rows are bound
            keep = np.flatnonzero(~stop)
            x, stack, rel, step = x[keep], None, None, None
            track, index = track[keep], index[keep]
            step = bind(batch.rows(index))
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
        functools.partial(JointUpdate, alg),
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
    energy verdict (`energy_feasible`, `hbs_cap_binding`). Its final_change
    is the relative change between its last two states.
    """
    history: list[np.ndarray] = []
    if p_init is not None:
        p_init = p_init[None, :]
    sol = solve(algorithm, snap.repeated(), p_init, tol, max_iter, history)
    states = np.concatenate(history)
    # the stop test's change of the last step, by the same operations
    change = ue_max(_relative(states[-1], states[-2])) if len(states) > 1 else math.inf
    return IterationTrace(
        steps=np.arange(len(history)),
        states=states,
        metrics=metrics(states, snap),
        converged=bool(sol.converged[0]),
        iterations_used=int(sol.iterations_used[0]),
        fixed_point=states[-1],
        final_change=float(change),
    )


def apply_axis(scenario: Scenario, axis: str, value: float) -> Scenario:
    """Scenario copy with one sweep axis applied; a num_ues value must be whole."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    cfg = scenario.cfg
    template = scenario.ue_template
    if axis == "delta_db":
        cfg = dataclasses.replace(cfg, delta=db_to_linear(float(value)))
    elif axis == "cell_side":
        cfg = dataclasses.replace(cfg, cell_side=float(value))
    elif axis == "num_ues":
        if not float(value).is_integer():
            raise ValueError(f"num_ues values must be whole numbers, got {value!r}")
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


def _mean_half_widths(samples: np.ndarray) -> list[tuple[float, float]]:
    """(mean, 95% half-width) of each row of samples (metrics, n): nan
    without samples, half-width 0.0 with one. One reduction per statistic for
    all rows has the bits of the per-row calls: each row is summed alone,
    in numpy's pairwise order."""
    n = samples.shape[1]
    if n == 0:
        return [(math.nan, math.nan)] * len(samples)
    means = samples.mean(axis=1).tolist()
    if n == 1:
        return [(mean, 0.0) for mean in means]
    halves = 1.96 * samples.std(axis=1, ddof=1) / math.sqrt(n)
    return list(zip(means, halves.tolist()))


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

    Each algorithm makes one `solve` call per axis value, on that value's
    own batch. Unconverged snapshots are counted and left out of the
    averages. Each solve runs with `give_up` on: a row certified unable to
    converge within max_iter stops early (counted in n_stopped_early), and
    since such a row is one that full iteration leaves unconverged, the
    averages and counts are those of full iteration.
    """
    if isinstance(algorithms, str):
        raise TypeError(f"algorithms: expected a list of algorithms, got {algorithms!r}")
    scenarios = [apply_axis(scenario, sweep_axis, value) for value in values]
    # every value's scenario is checked before the draw, which would place
    # UEs in a cell of an invalid side
    for sc in scenarios:
        errors = validate_scenario(sc.cfg, sc.hbs, sc.ue_template)
        if errors:
            raise ConfigError(errors)
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
            samples = np.stack([sample(mx, fixed) for sample in SWEEP_METRICS.values()])
            for key, pair in zip(SWEEP_METRICS, _mean_half_widths(samples)):
                stats[key].append(pair)
        results.append(SweepResult(stats=stats, solves=solves))
    return results


@dataclass
class MobilityResult:
    """Time series of a mobility run, one row per step, and its first depletion,
    where the energy signal of the harvesting algorithms switches on: what
    the `mobility` CSV is made of, each series row-major."""

    time: np.ndarray                     # (T,) seconds at the end of each step
    states: np.ndarray                   # (T, K+1) powers after each step
    sinr: np.ndarray                     # (T, K) of each step's state on its gains
    battery: np.ndarray                  # (T, K) joules after each step
    first_depletion_step: int | None     # 1-based step index, None if never


def _trajectory(side: float, speed: float, step: float, n_steps: int) -> np.ndarray:
    """The (T,) x path that every UE follows from the x = 0 edge, in meters.

    The UEs move along x by speed * step per step and reflect at x = 0 and
    x = side until they are inside the cell. A step longer than a round trip
    first drops its whole round trips (math.fmod, exact); then the reflected
    coordinate is -x, then 2 * side - x. All UEs start at x = 0 with the same
    speed, so they share one x path, allocated before the first step.
    """
    x, direction = 0.0, 1.0
    xs = np.empty(n_steps)
    for t in range(n_steps):
        x += direction * speed * step
        if not 0.0 <= x <= side:
            x = math.fmod(x, 2 * side)
            if x < 0.0:
                x, direction = -x, -direction
            if x > side:
                x, direction = 2 * side - x, -direction
        xs[t] = x
    return xs


def _steps(lv: float, on: bool, needs: list[float], harvests: list[float],
           cap: float) -> list[float]:
    """One UE's battery levels after each row, stepped one row at a time from
    level lv, up to its first break.

    A step adds the harvest, breaks where affording the need differs from the
    held mask `on` (NaN affords nothing), pays the need if on, and clips at
    the capacity cap.
    """
    levels = []
    for nd, hv in zip(needs, harvests):
        lv += hv
        if (lv >= nd) != on:
            break
        if on:
            lv -= nd
        if lv > cap:
            lv = cap
        levels.append(lv)
    return levels


def _pass(lv: float, on: bool, nd: np.ndarray, hv: np.ndarray,
          cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One vectorised pass of `_chain` from level lv over the rows of nd and
    hv: the level after each row, exact up to the first row that ends the
    pass; whether each row breaks the held mask; and whether it ends the pass.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if lv == cap != 0.0:
            # a level equal to a cap that is not 0 has its bits
            post = cap + hv
            broke = (post >= nd) != on
            if on:
                post -= nd
            np.minimum(post, cap, out=post)
            return post, broke, broke | (post != cap)
        steps = np.empty(2 * len(nd) + 1 if on else len(nd) + 1)
        steps[0] = lv
        if on:
            steps[1::2] = hv
            np.negative(nd, out=steps[2::2])
        else:
            steps[1:] = hv
        np.add.accumulate(steps, out=steps)
        pre, post = (steps[1::2], steps[2::2]) if on else (steps[1:], steps[1:])
        broke = (pre >= nd) != on
        return post, broke, broke | (post > cap)


def _chain(lv: float, on: bool, need: np.ndarray, harvest: np.ndarray, cap: float,
           out: np.ndarray) -> int:
    """`_steps` over one UE's columns of a window, mostly in vectorised
    passes: the level after each row goes to out, and the number of rows
    before the first break is returned.

    Each pass (`_pass`) runs from the current level up to its first event.
    From a level that is not cap, the pass is one accumulate over [lv, hv0,
    -nd0, hv1, -nd1, ...] (the harvests alone if not on). The accumulate is
    a sequential sum and a - b is a + (-b), so its entries are the levels
    that `lv += hv; lv -= nd` gives, bit for bit, before and after each
    payment. Its event is the first break, or the first row over cap, which
    becomes cap. From cap (not 0, so an equal level has cap's bits) each row
    is one step from cap, elementwise, up to the first row that does not end
    at cap.

    The cost stays within a small factor of `_steps`. A pass looks at most
    twice as far as the last one committed, but at least SHORT_RUN rows. A
    pass that commits fewer than SHORT_RUN rows hands over to `_steps` for
    SHORT_RUN rows, twice as many after each further short pass. The last
    rows, fewer than SHORT_RUN, run in `_steps` too.
    """
    m, i, span, plain, backoff = len(need), 0, len(need), 0, SHORT_RUN
    while i < m:
        if plain or m - i < SHORT_RUN:
            j = min(i + plain, m) if plain else m
            levels = _steps(lv, on, need[i:j].tolist(), harvest[i:j].tolist(), cap)
            out[i : i + len(levels)] = levels
            i += len(levels)
            if i < j:
                return i
            lv, plain = levels[-1], 0
            continue
        post, broke, stop = _pass(lv, on, need[i : i + span], harvest[i : i + span], cap)
        k = int(stop.argmax())
        if not stop[k]:
            k = len(post)
        out[i : i + k] = post[:k]
        if k < len(post):
            if broke[k]:
                return i + k
            # the row that ends the pass stepped from an exact level
            out[i + k] = min(post[k], cap)
            k += 1
        lv = float(out[i + k - 1])
        i += k
        span = max(2 * k, SHORT_RUN)
        if k < SHORT_RUN:
            plain, backoff = backoff, 2 * backoff
        else:
            backoff = SHORT_RUN
    return m


def _battery(level: list[float], transmit: list[bool], need: np.ndarray, harvest: np.ndarray,
             cap: float) -> np.ndarray:
    """The (K, end) battery levels of a window's (w, K) needs and harvests,
    up to the first row where some UE's chain breaks.

    Each UE's chain runs in `_chain`, only as far as the shortest one before
    it.
    """
    end = len(need)
    levels = np.empty((len(level), end))
    for k, (lv, on) in enumerate(zip(level, transmit)):
        end = _chain(lv, on, need[:end, k], harvest[:end, k], cap, levels[k])
    return levels[:, :end]


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
    off until the first step some battery cannot cover its consumption,
    first_depletion_step, which also defines the measured depletion time.
    Each battery starts full at battery_init joules, which must be
    non-negative (inf: no limit); the speed must be finite and non-negative.

    The motion does not depend on the powers, so the whole trajectory and the
    gains of every step are computed first, as one (T, K) batch, after the
    run's arrays: too many steps for memory raise a ValueError that names
    duration / step, at once. The power and battery recurrence is solved in
    windows of steps by relaxation (see the module docstring), with the bits
    of stepping it one step at a time:

    - A window starts from an exact state, with each UE's transmit mask and
      the harvest flag held at their current values. It is swept until all
      its rows are proven exact, or for at most min(w, MAX_SWEEPS) sweeps:
      after k sweeps the first k rows are exact, and so is every row up to
      the first one the last sweep changed.
    - Each UE's battery then runs as its own chain, in the operations and
      order of one step, and stops at the first row whose affordability
      breaks its held mask: an affordability flip, or the first depletion
      (`_battery`). The chain runs in numpy (`_chain`): accumulates of the
      harvests and payments up to each clip or break, and one elementwise
      pass over each stretch held at the capacity, with stretches shorter
      than SHORT_RUN rows stepped in plain Python. The pass commits the
      exact rows before the first stop. That row's inputs are exact, so its
      depletion flag and masks are settled as one step would settle them,
      and the next window starts there with them.
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
        with np.errstate(over="ignore"):     # a cell side near the float limit; validated below
            ys = cfg.cell_side * (np.arange(K) + 1.0) / (K + 1.0)
    try:
        n_steps = int(round(duration / step))
        states = np.empty((n_steps, K + 1))
        battery = np.empty((n_steps, K))
        gains = base.moved(_trajectory(cfg.cell_side, speed_kmh / 3.6, step, n_steps), ys)
    except ConfigError:
        raise
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(f"too many steps: duration / step = {duration:g} / {step:g} = "
                         f"{duration / step:g} steps do not fit in memory") from None

    level = [battery_init] * K           # each UE's joules before step n
    transmit = [True] * K                # the held transmit masks
    x = np.zeros(K + 1)                  # the state after step n - 1, exact
    first_depletion: int | None = None
    n, width = 0, 1
    while n < n_steps:
        w = min(width, n_steps - n)
        rows = gains.rows(slice(n, n + w))
        # the non-harvesting updates keep p_h at 0 by themselves
        keep = np.array(transmit + [first_depletion is not None or not alg.harvesting])
        masked = not keep.all()
        # traj[0] is the exact start, traj[1:] the window's guessed rows;
        # UE-major, so the update runs on contiguous columns (see core)
        traj = np.empty((w + 1, K + 1), order="F")
        traj[:] = x
        update = JointUpdate(alg, rows, traj[:-1])
        cand = np.empty((w, K + 1), order="F")
        for sweeps in range(1, min(w, MAX_SWEEPS) + 1):
            update(traj[:-1], cand)
            if masked:
                nxt = cand.copy(order="K")
                nxt[:, ~keep] = 0.0
            else:
                nxt = cand
            changed = (nxt != traj[1:]).any(axis=1)
            traj[1:] = nxt
            # every row up to the first one this sweep changed is exact
            first = int(changed.argmax())
            exact = first + 1 if changed[first] else w
            if exact == w:
                break
        harvest_gain = rows.mu[:exact] * rows.g[:exact]
        need = (cand[:exact, :-1] / cfg.epsilon + base.ue_template.p_cir) * step
        harvest = harvest_gain * traj[1 : exact + 1, -1:] * step
        # Until the first depletion no harvest flows and every UE transmits,
        # so that depletion breaks the depleting UE's mask.
        levels = _battery(level, transmit, need, harvest, battery_init)
        end = levels.shape[1]
        states[n : n + end] = traj[1 : end + 1]
        battery[n : n + end] = levels.T
        if end:
            x = traj[end]
            level = levels[:, end - 1].tolist()
        if end < exact:
            # row `end` has exact inputs: settle its flags and masks as one
            # step of the loop would, so the next window's first row holds
            lv, nd = np.array(level), need[end]
            if first_depletion is None and bool((lv < nd).any()):
                first_depletion = n + end + 1
            p_h = cand[end, -1] if first_depletion is not None else 0.0
            transmit = (lv + harvest_gain[end] * p_h * step >= nd).tolist()
            width = max(end, 1)
        elif w < MAX_SWEEPS or (sweeps < w and exact == w):
            width = min(2 * w, MAX_WINDOW)
        else:
            width = MAX_SWEEPS
        n += end

    return MobilityResult(
        time=np.arange(1, n_steps + 1) * step,
        states=states,
        sinr=sinr(states, gains),
        battery=battery,
        first_depletion_step=first_depletion,
    )
