import dataclasses
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpowerctl import engine
from fdpowerctl.channel import Snapshot, draw_ues, sample_batch, snapshot_from_scenario
from fdpowerctl.config import ConfigError, load_scenario
from fdpowerctl.core import (
    Algorithm, JointUpdate, joint_update, metrics, required_hbs_power, state_caps,
)
from fdpowerctl.engine import (
    apply_axis,
    run_fixed_point,
    run_mobility,
    run_monte_carlo,
    solve,
)

from conftest import CONFIG_DIR, make_desk_snapshot, make_single_ue_snapshot
from scalar_reference import scalar_fixed_point, scalar_mobility


def closed_form_single_ue_tracking(snap):
    """Independent 2x2 solve: both constraints tight at the fixed point."""
    cfg = snap.cfg
    h, g, mu = snap.h[0], snap.g[0], snap.mu[0]
    gt = snap.gamma_target[0]
    c = gt * cfg.delta / (h * cfg.epsilon * mu * g)
    assert c < 1
    p_u = gt * (cfg.delta * snap.p_min[0] + cfg.sigma2) / (h * (1 - c))
    p_h = p_u / (cfg.epsilon * mu * g) + snap.p_min[0]
    return p_u, p_h


def test_single_ue_fixed_point_matches_closed_form():
    snap = make_single_ue_snapshot(h=1e-3, mu=0.5, epsilon=0.2, p_cir=1e-6,
                                   sigma2=1e-14, gamma_target=0.05, delta=0.0)
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-12)
    assert trace.converged
    assert trace.fixed_point[0] == pytest.approx(5e-13, rel=1e-9)
    assert trace.fixed_point[-1] == pytest.approx(2.000005e-3, rel=1e-9)
    p_u, p_h = closed_form_single_ue_tracking(snap)
    assert trace.fixed_point[0] == pytest.approx(p_u, rel=1e-9)
    assert trace.fixed_point[-1] == pytest.approx(p_h, rel=1e-9)


def test_single_ue_fixed_point_with_self_interference():
    snap = make_single_ue_snapshot(h=0.09 / 41 ** 3, mu=0.5, p_cir=3e-6,
                                   delta=1e-12, gamma_target=0.04)
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-13)
    p_u, p_h = closed_form_single_ue_tracking(snap)
    assert trace.fixed_point[0] == pytest.approx(p_u, rel=1e-9)
    assert trace.fixed_point[-1] == pytest.approx(p_h, rel=1e-9)


@pytest.mark.parametrize("alg", list(Algorithm))
def test_restart_from_fixed_point_converges_immediately(alg):
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    first = run_fixed_point(alg, snap, tol=1e-11)
    assert first.converged
    again = run_fixed_point(alg, snap, p_init=first.fixed_point, tol=1e-9)
    assert again.converged
    assert again.iterations_used <= 1


def test_reference_snapshot_hits_targets(paper_scenario):
    snap = snapshot_from_scenario(paper_scenario)
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-12)
    assert trace.converged
    np.testing.assert_allclose(
        trace.metrics.sinr[-1], [0.04, 0.05, 0.07, 0.08, 0.1], rtol=1e-6
    )
    assert not np.any(trace.metrics.outage[-1])


def test_non_convergence_reported_not_raised():
    snap = make_desk_snapshot([41, 25, 37, 16, 8])
    trace = run_fixed_point(Algorithm.TPCEH, snap, max_iter=1, tol=1e-15)
    assert not trace.converged
    assert trace.iterations_used == 1
    zero = run_fixed_point(Algorithm.TPCEH, snap, max_iter=0)
    assert not zero.converged
    assert zero.iterations_used == 0


def test_trace_shape_invariants():
    snap = make_desk_snapshot([20.0, 30.0])
    trace = run_fixed_point(Algorithm.TPCEH, snap, max_iter=50, tol=1e-9)
    assert len(trace.steps) <= 51
    ts = trace.steps.tolist()
    assert ts == list(range(len(ts)))
    if trace.converged:
        assert trace.final_change <= 1e-9


def test_init_clipped_into_caps():
    snap = make_desk_snapshot([20.0], p_bar_u=0.5, p_bar_h=5.0)
    bad_init = np.array([7.0, 99.0])
    trace = run_fixed_point(Algorithm.TPCEH, snap, p_init=bad_init, max_iter=0)
    assert trace.fixed_point[0] <= 0.5
    assert trace.fixed_point[-1] <= 5.0


def test_feasibility_check_desk_vs_reference(paper_scenario, desk_scenario):
    paper_snap = snapshot_from_scenario(paper_scenario)
    mx = run_fixed_point(Algorithm.TPCEH, paper_snap).metrics
    assert not mx.energy_feasible[-1].all()
    assert mx.hbs_cap_binding[-1]

    desk_snap = snapshot_from_scenario(desk_scenario)
    mx = run_fixed_point(Algorithm.TPCEH, desk_snap).metrics
    assert mx.energy_feasible[-1].all()
    assert not mx.hbs_cap_binding[-1]


def test_feasibility_equality_at_unclipped_update():
    snap = make_desk_snapshot([25.0, 14.0])
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-12)
    assert trace.metrics.energy_feasible[-1].all()
    # the max requirement is met with equality at the fixed point
    required = required_hbs_power(trace.fixed_point[:-1], snap)
    tight = np.isclose(required, trace.fixed_point[-1], rtol=1e-9)
    assert tight.any()


def test_monte_carlo_single_snapshot_degenerates_to_fixed_point(desk_scenario):
    scenario = dataclasses.replace(desk_scenario, fixed_ues=None)
    (result,) = run_monte_carlo([Algorithm.TPCEH], scenario, "delta_db", [-120.0], 1)
    # a sweep draws random snapshots also when the scenario pins its UEs
    (pinned,) = run_monte_carlo([Algorithm.TPCEH], desk_scenario, "delta_db", [-120.0], 1)
    assert pinned.stats == result.stats
    snap = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, 1).rows(0)
    trace = run_fixed_point(Algorithm.TPCEH, snap)
    mean, half = result.stats["p_h"][0]
    assert mean == pytest.approx(trace.fixed_point[-1], rel=1e-12)
    assert half == 0.0
    assert [s["n_converged"] for s in result.solves] == [1]


def test_monte_carlo_deterministic(desk_scenario):
    scenario = dataclasses.replace(desk_scenario, fixed_ues=None)
    (a,) = run_monte_carlo([Algorithm.OPCEH], scenario, "cell_side", [40.0, 60.0], 5)
    (b,) = run_monte_carlo([Algorithm.OPCEH], scenario, "cell_side", [40.0, 60.0], 5)
    assert a.stats == b.stats


@pytest.mark.parametrize("algorithm", [Algorithm.TPCEH, "OPC"])
def test_monte_carlo_rejects_a_bare_algorithm(desk_scenario, algorithm):
    with pytest.raises(TypeError, match="expected a list of algorithms"):
        run_monte_carlo(algorithm, desk_scenario, "num_ues", [2], 1)


def test_monte_carlo_invalid_axis(desk_scenario):
    with pytest.raises(ValueError):
        run_monte_carlo([Algorithm.TPCEH], desk_scenario, "bogus", [1.0], 1)


@pytest.mark.parametrize("value", [2.7, math.nan, math.inf])
def test_monte_carlo_refuses_a_fractional_ue_count(desk_scenario, value):
    # a value's record would name a UE count its solve did not use
    with pytest.raises(ValueError, match="num_ues values must be whole numbers"):
        run_monte_carlo([Algorithm.TPCEH], desk_scenario, "num_ues", [2, value], 3)


@pytest.mark.parametrize("axis, values", [
    ("delta_db", [-130.0, -110.0, -90.0]),
    ("cell_side", [30.0, 45.0, 60.0]),
    ("gamma_target", [0.02, 0.05, 0.1]),
    ("num_ues", [5, 10, 15, 20]),
])
def test_sweep_solves_each_value_once(desk_scenario, monkeypatch, axis, values):
    # one solve per algorithm and value, each on that value's own 5 rows
    calls = []

    def counted(alg, batch, *args, **kwargs):
        calls.append((alg, len(batch), batch.num_ues))
        return solve(alg, batch, *args, **kwargs)

    monkeypatch.setattr(engine, "solve", counted)
    run_monte_carlo(list(Algorithm), desk_scenario, axis, values, 5)
    widths = values if axis == "num_ues" else [desk_scenario.cfg.num_ues] * len(values)
    assert calls == [(alg, 5, k) for alg in Algorithm for k in widths]


def test_apply_axis_fields(desk_scenario):
    assert apply_axis(desk_scenario, "delta_db", -70.0).cfg.delta == pytest.approx(1e-7)
    assert apply_axis(desk_scenario, "cell_side", 60.0).cfg.cell_side == 60.0
    assert apply_axis(desk_scenario, "num_ues", 3).cfg.num_ues == 3
    assert apply_axis(desk_scenario, "gamma_target", 0.08).ue_template.gamma_target == 0.08


def _mobility_scenario(desk_scenario, n=3):
    return dataclasses.replace(
        desk_scenario,
        cfg=dataclasses.replace(desk_scenario.cfg, num_ues=n),
        fixed_ues=None,
    )


def test_mobility_tpc_depletes_and_never_recovers(desk_scenario):
    scenario = _mobility_scenario(desk_scenario)
    result = run_mobility(Algorithm.TPC, scenario, duration=2.0)
    assert result.first_depletion_step is not None
    silent = np.all(result.states[:, :-1] == 0.0, axis=-1)
    assert silent.any()
    dead_from = int(np.argmax(silent))
    assert np.all(result.states[dead_from:, :-1] == 0.0)
    assert np.all(result.sinr[dead_from:] == 0.0)
    assert np.all(result.states[dead_from:, -1] == 0.0)


def test_mobility_tpceh_activates_and_recovers(desk_scenario):
    scenario = _mobility_scenario(desk_scenario)
    result = run_mobility(Algorithm.TPCEH, scenario, duration=2.0)
    act = result.first_depletion_step
    assert act is not None
    # harvest signal off before the first depletion, on from its step
    assert np.all(result.states[: act - 1, -1] == 0.0)
    assert np.all(result.states[act - 1 :, -1] > 0.0)
    # within 100 steps after activation every UE is back on target
    idx = act - 1 + 100
    gt = 0.05
    np.testing.assert_allclose(result.sinr[idx], gt, rtol=1e-3)


def test_mobility_battery_accounting(desk_scenario):
    scenario = _mobility_scenario(desk_scenario, n=2)
    cap = 1e-6
    result = run_mobility(Algorithm.TPCEH, scenario, duration=1.0, battery_init=cap)
    eps = scenario.cfg.epsilon
    battery = result.battery
    assert np.all(battery >= 0.0)
    assert np.all(battery <= cap)
    # transmitting UEs: delta = harvest - consumption unless clamped at cap
    p_u = result.states[:, :-1]
    # the harvest mu g p_h of each step, on the gains of the UEs moved there
    base = snapshot_from_scenario(scenario)
    side = scenario.cfg.cell_side
    ys = draw_ues(scenario.cfg, scenario.ue_template, 1)[0][0, :, 1] * side
    gains = base.moved(engine._trajectory(side, 5.0 / 3.6, 1e-3, len(result.time)), ys)
    harvest = gains.mu * gains.g * result.states[:, -1:] * 1e-3
    p_cir = np.full(2, base.ue_template.p_cir)
    spend = np.where(p_u > 0.0, (p_u / eps + p_cir) * 1e-3, 0.0)
    prev = np.vstack([np.full((1, 2), cap), battery[:-1]])
    expected = np.clip(prev + harvest - spend, 0.0, cap)
    np.testing.assert_allclose(battery, expected, atol=1e-18)
    assert len(result.time)


def test_mobility_static_infinite_battery_constant(desk_scenario):
    scenario = _mobility_scenario(desk_scenario, n=2)
    result = run_mobility(
        Algorithm.TPC, scenario, duration=0.3, speed_kmh=0.0, battery_init=np.inf
    )
    tail = result.states[-50:, :-1]
    for arr in tail[1:]:
        np.testing.assert_allclose(arr, tail[0], rtol=1e-12)


def test_mobility_positions_stay_in_cell(desk_scenario):
    # x folds into [0, side] as a triangle wave of the distance travelled,
    # with period 2 side, also where one 1 ms step is longer than a round
    # trip of the 50 m cell (at 400000 km/h it is 111 m)
    side = desk_scenario.cfg.cell_side
    time = np.arange(1, 1001) * 1e-3
    for speed_kmh in (5000.0, 400000.0, 4e9):
        x = engine._trajectory(side, speed_kmh / 3.6, 1e-3, len(time))
        assert x.shape == time.shape
        assert np.all((x >= 0.0) & (x <= side)), speed_kmh
        phase = np.mod(time * (speed_kmh / 3.6), 2 * side)
        wave = np.minimum(phase, 2 * side - phase)
        np.testing.assert_allclose(x, wave, rtol=0, atol=1e-5)


def _plain_trajectory(side, speed, step, n_steps):
    x, direction, xs = 0.0, 1.0, []
    for _ in range(n_steps):
        x += direction * speed * step
        if not 0.0 <= x <= side:
            x = math.fmod(x, 2 * side)
            if x < 0.0:
                x, direction = -x, -direction
            if x > side:
                x, direction = 2 * side - x, -direction
        xs.append(x)
    return xs


@pytest.mark.parametrize("speed_kmh, n_steps", [
    (5.0, 10_000),          # the path never reaches a wall
    (50.0, 10_000),         # reflections at the far wall and back at x = 0
    (5000.0, 2_000),        # a reflection every 36 steps
    (400_000.0, 1_000),     # a step longer than a round trip: fmod
    (0.0, 100),
    (-0.0, 100),            # 0.0 + -0.0 is 0.0: the path stays at 0.0, not at -0.0
    (5.0, 1),
    (5.0, 0),
])
def test_trajectory_has_the_bits_of_the_step_loop(speed_kmh, n_steps):
    xs = engine._trajectory(50.0, speed_kmh / 3.6, 1e-3, n_steps)
    expected = np.array(_plain_trajectory(50.0, speed_kmh / 3.6, 1e-3, n_steps), dtype=float)
    assert xs.shape == (n_steps,)
    assert xs.tobytes() == expected.tobytes()


def _plain_chain(lv, on, need, harvest, cap):
    levels = []
    for nd, hv in zip(need, harvest):
        lv += hv
        if (lv >= nd) != on:
            break
        if on:
            lv -= nd
        if lv > cap:
            lv = cap
        levels.append(lv)
    return levels


def _assert_battery_exact(level, transmit, need, harvest, cap):
    # `_battery` against the plain per-step loop, bit for bit: each chain
    # runs as far as the shortest before it
    need, harvest = np.asarray(need, dtype=float), np.asarray(harvest, dtype=float)
    if need.ndim == 1:
        need, harvest = need[:, None], harvest[:, None]
    got = engine._battery(list(level), list(transmit), need, harvest, cap)
    end, chains = len(need), []
    for k, (lv, on) in enumerate(zip(level, transmit)):
        chains.append(_plain_chain(lv, on, need[:end, k].tolist(), harvest[:end, k].tolist(), cap))
        end = len(chains[-1])
    expected = np.array([chain[:end] for chain in chains], dtype=float).reshape(len(level), end)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    return got


def test_battery_chain_clipped_every_other_step():
    # the level dips 0.5 below the cap and comes back over it: every pass
    # commits 1 row, so the chain runs almost all in the plain loop
    m = 4096
    need = np.ones(m)
    harvest = np.tile([0.5, 2.0], m // 2)
    got = _assert_battery_exact([10.0], [True], need, harvest, 10.0)
    assert got.shape == (1, m)
    assert got[0, 1::2].tolist() == [10.0] * (m // 2)


@pytest.mark.parametrize("period", [17, 64, 65, 100, 1000])
def test_battery_chain_clipped_periodically(period):
    m = 4096
    need = np.ones(m)
    harvest = np.full(m, 0.5)
    harvest[period - 1 :: period] = 0.5 * period + 1.0
    _assert_battery_exact([1e4], [True], need, harvest, 1e4)


def _count_chain_work(monkeypatch):
    """Calls and rows of `engine._pass` and `engine._steps`, counted."""
    work = {"passes": 0, "pass_rows": 0, "steps": 0, "step_rows": 0}
    real_pass, real_steps = engine._pass, engine._steps

    def counted_pass(lv, on, nd, hv, cap):
        work["passes"] += 1
        work["pass_rows"] += len(nd)
        return real_pass(lv, on, nd, hv, cap)

    def counted_steps(lv, on, needs, harvests, cap):
        work["steps"] += 1
        work["step_rows"] += len(needs)
        return real_steps(lv, on, needs, harvests, cap)

    monkeypatch.setattr(engine, "_pass", counted_pass)
    monkeypatch.setattr(engine, "_steps", counted_steps)
    return work


@pytest.mark.parametrize("period", [2, 17, 100, 1000])
def test_battery_chain_work_is_linear(period, monkeypatch):
    # A chain clipped every `period` rows reads each row a few times at
    # most, in few calls: a pass that re-read the rest of the window at
    # every clip would read 5 to 22 times m rows here. A chain that clips
    # rarely runs mostly in passes, not in the plain loop.
    work = _count_chain_work(monkeypatch)
    m = 4096
    need = np.ones(m)
    harvest = np.full(m, 0.5)
    harvest[period - 1 :: period] = 0.5 * period + 1.0
    _assert_battery_exact([1e4], [True], need, harvest, 1e4)
    assert work["pass_rows"] + work["step_rows"] <= 3 * m
    assert work["passes"] + work["steps"] <= 2 * m // engine.SHORT_RUN + 2
    if period >= 1000:
        assert work["step_rows"] <= m // 4


@pytest.mark.parametrize("lv", [math.inf, 1.0])
def test_battery_chain_under_an_infinite_cap_is_one_pass(lv, monkeypatch):
    # battery_init inf: nothing ever clips, so a whole chain is one pass
    work = _count_chain_work(monkeypatch)
    m = 4096
    rng = np.random.default_rng(3)
    need, harvest = rng.uniform(0.0, 1e-7, m), rng.uniform(0.0, 2e-7, m)
    _assert_battery_exact([lv], [True], need, harvest, math.inf)
    assert work == {"passes": 1, "pass_rows": m, "steps": 0, "step_rows": 0}


@pytest.mark.parametrize("m", [10, 300])
@pytest.mark.parametrize("cap, lv", [
    (math.inf, math.inf),     # battery_init inf: the level stays inf
    (math.inf, 1.0),          # below an infinite cap: no clip ever
    (1e-6, math.inf),         # an infinite level clips to a finite cap at once
])
@pytest.mark.parametrize("on", [True, False])
def test_battery_chain_infinite_levels_and_caps(m, cap, lv, on):
    rng = np.random.default_rng(3)
    need = rng.uniform(0.0, 1e-7, m)
    harvest = rng.uniform(0.0, 2e-7, m) if on else rng.uniform(0.0, 1e-8, m)
    _assert_battery_exact([lv], [on], need, harvest, cap)


@pytest.mark.parametrize("m", [10, 300])
def test_battery_chain_silent_ue_fills_to_the_cap(m):
    # a silent UE that cannot afford its need harvests up to the cap and
    # stays there, clipped at every step
    need = np.full(m, 1.0)
    harvest = np.full(m, 0.1)
    got = _assert_battery_exact([0.0], [False], need, harvest, 0.5)
    assert got.shape == (1, m) and got[0, -1] == 0.5


@pytest.mark.parametrize("m", [10, 300])
@pytest.mark.parametrize("on", [True, False])
def test_battery_chain_nan_level(m, on):
    # NaN affords nothing: a transmitting UE breaks on row 0, a silent one
    # stays NaN
    got = _assert_battery_exact([math.nan], [on], np.ones(m), np.ones(m), 1.0)
    assert got.shape == (1, 0 if on else m)


@pytest.mark.parametrize("m", [10, 300])
def test_battery_chain_breaks_on_row_0(m):
    got = _assert_battery_exact([0.0, 1.0], [True, True], np.ones((m, 2)), np.zeros((m, 2)), 1.0)
    assert got.shape == (2, 0)


@pytest.mark.parametrize("m", [10, 300])
def test_battery_chain_level_equal_to_need(m):
    # a level that equals the need affords it (>=) and pays down to 0.0
    got = _assert_battery_exact([8.0], [True], np.ones(m), np.zeros(m), 8.0)
    assert got[0].tolist() == [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]


@pytest.mark.parametrize("m", [10, 300])
@pytest.mark.parametrize("cap", [0.0, -0.0])
def test_battery_chain_signed_zeros(m, cap):
    # -0.0 + -0.0 is -0.0, 0.0 + -0.0 is 0.0: a row equal to a zero cap
    # need not have its bits, so each row steps from the row before
    harvest = np.tile([0.0, -0.0, -0.0], m)[:m]
    _assert_battery_exact([cap], [True], np.zeros(m), harvest, cap)
    _assert_battery_exact([-cap], [False], np.ones(m), harvest, cap)


def test_battery_chain_empty_window():
    got = _assert_battery_exact([1.0, 2.0], [True, False], np.empty((0, 2)), np.empty((0, 2)), 2.0)
    assert got.shape == (2, 0)


def _random_window(rng, m, k):
    # each UE's harvest is below, near or above its need, so runs cross the
    # cap, saturate and break
    cap = float(rng.choice([1e-6, 1.0, 0.0, math.inf]))
    need = rng.uniform(0.0, 1.0, (m, k)) * rng.choice([0.0, 1e-3, 1e-2], k)
    harvest = rng.uniform(0.0, 1.0, (m, k)) * rng.choice([0.0, 1e-3, 2e-2, 1.0], k)
    level = [float(v) for v in rng.choice([cap, 0.5 * cap, 0.0, math.inf], k)]
    transmit = rng.integers(0, 2, k).astype(bool).tolist()
    return level, transmit, need, harvest, cap


@pytest.mark.parametrize("seed", range(40))
def test_battery_chains_match_the_plain_loop(seed):
    # seeded windows of up to 3 UEs
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(0, 700)), int(rng.integers(1, 4))
    _assert_battery_exact(*_random_window(rng, m, k))


@pytest.mark.parametrize("seed", range(40))
def test_short_battery_windows_step_each_chain_once(seed, monkeypatch):
    # seeded windows of fewer than SHORT_RUN rows and up to 20 UEs, as a
    # sampled K=20 or a fast run commits them: no numpy pass, and each UE's
    # chain is at most one call of the plain loop
    work = _count_chain_work(monkeypatch)
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(0, engine.SHORT_RUN)), int(rng.integers(1, 21))
    _assert_battery_exact(*_random_window(rng, m, k))
    assert work["passes"] == 0 and work["steps"] <= k


def test_mobility_zero_duration(desk_scenario):
    result = run_mobility(Algorithm.TPC, _mobility_scenario(desk_scenario), duration=0.0)
    assert result.time.shape == (0,)
    assert result.states.shape == (0, 4)
    assert result.battery.shape == (0, 3)
    assert engine._trajectory(50.0, 5.0 / 3.6, 1e-3, 0).shape == (0,)


@pytest.mark.parametrize("kwargs", [
    {"step": 0.0}, {"step": -1e-3}, {"step": math.nan}, {"step": math.inf},
    {"duration": math.nan}, {"duration": math.inf}, {"duration": -1.0},
    {"battery_init": math.nan}, {"battery_init": -1.0}, {"battery_init": -math.inf},
    {"speed_kmh": math.nan}, {"speed_kmh": math.inf}, {"speed_kmh": -5.0},
])
def test_mobility_rejects_invalid_step_and_duration(desk_scenario, kwargs):
    with pytest.raises(ValueError):
        run_mobility(Algorithm.TPCEH, desk_scenario, **{"duration": 0.01, **kwargs})


def test_mobility_gain_errors_are_not_reported_as_too_many_steps(desk_scenario):
    # the fixed UEs' own gains are valid, but in a cell of side 1e103 m the
    # farthest moved positions' distances cube past the largest float
    cfg = dataclasses.replace(desk_scenario.cfg, cell_side=1e103)
    scenario = dataclasses.replace(desk_scenario, cfg=cfg)
    snapshot_from_scenario(scenario)
    with pytest.raises(ConfigError, match="channel gain must be strictly positive"):
        run_mobility(Algorithm.TPCEH, scenario, duration=0.01, speed_kmh=1e110)


# ---------------------------------------------------------------------------
# columnar mobility run against the per-step loop


def _assert_mobility_matches_scalar(alg, scenario, **kwargs):
    result = run_mobility(alg, scenario, **kwargs)
    ref = scalar_mobility(alg, scenario, **kwargs)
    assert result.time.tolist() == ref["time"].tolist()
    assert result.states[:, :-1].tolist() == ref["p_u"].tolist()
    assert result.states[:, -1].tolist() == ref["p_h"].tolist()
    assert result.battery.tolist() == ref["battery"].tolist()
    # every UE follows the one x path the run's gains were computed on
    xs = engine._trajectory(
        scenario.cfg.cell_side, kwargs.get("speed_kmh", 5.0) / 3.6,
        kwargs.get("step", 1e-3), len(result.time),
    )
    k = result.battery.shape[1]
    assert ref["positions"].reshape(-1, k, 2)[..., 0].tolist() == [[x] * k for x in xs.tolist()]
    # the run keeps only the SINR of the loop's metrics, the one the CLI writes
    assert result.sinr.tolist() == [m.sinr.tolist() for m in ref["metrics"]]
    assert result.sinr.shape == result.battery.shape
    depletion = result.first_depletion_step
    assert depletion == ref["first_depletion_step"]
    # the energy signal switches on at the first depletion, and only for EH
    assert ref["activation_step"] == (depletion if alg.harvesting else None)
    active = [alg.harvesting and depletion is not None and t >= depletion
              for t in range(1, len(result.time) + 1)]
    assert ref["harvesting_active"].tolist() == active
    return result


@pytest.mark.parametrize("alg", list(Algorithm))
def test_mobility_matches_scalar_loop_on_fixed_ues(desk_scenario, alg):
    result = _assert_mobility_matches_scalar(alg, desk_scenario, duration=0.5)
    # TPC and TPCEH deplete at step 334 (OPC and OPCEH at once)
    assert result.first_depletion_step is not None


@pytest.mark.parametrize("speed_kmh", [0.0, 5000.0])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("alg", list(Algorithm))
def test_mobility_matches_scalar_loop_on_random_ues(desk_scenario, alg, k, speed_kmh):
    scenario = _mobility_scenario(desk_scenario, n=k)
    result = _assert_mobility_matches_scalar(
        alg, scenario, duration=0.4, speed_kmh=speed_kmh
    )
    assert result.first_depletion_step is not None


@pytest.mark.parametrize("alg", list(Algorithm))
def test_mobility_matches_scalar_loop_with_infinite_battery(desk_scenario, alg):
    scenario = _mobility_scenario(desk_scenario, n=5)
    result = _assert_mobility_matches_scalar(
        alg, scenario, duration=0.2, speed_kmh=0.0, battery_init=np.inf
    )
    assert result.first_depletion_step is None


@pytest.mark.parametrize("alg", list(Algorithm))
def test_mobility_matches_scalar_loop_at_zero_duration(desk_scenario, alg):
    _assert_mobility_matches_scalar(alg, _mobility_scenario(desk_scenario), duration=0.0)


# The window relaxation against the per-step loop. Each test checks a run bit
# for bit; `_windows` records the (start, stop) of every window it solved.


def _windows(monkeypatch):
    windows = []
    rows = Snapshot.rows

    def spy(self, index):
        if isinstance(index, slice):
            windows.append((index.start, index.stop))
        return rows(self, index)

    monkeypatch.setattr(Snapshot, "rows", spy)
    return windows


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(list(Algorithm)),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([0.0, 5.0, 5000.0]),
    st.sampled_from([1e-6, 1e-4, 6e-3, math.inf]),
)
def test_mobility_relaxation_matches_scalar_loop(desk_scenario, alg, k, seed, speed_kmh,
                                                 battery_init):
    scenario = _mobility_scenario(desk_scenario, n=k)
    scenario = dataclasses.replace(scenario, cfg=dataclasses.replace(scenario.cfg, seed=seed))
    _assert_mobility_matches_scalar(
        alg, scenario, duration=0.3, speed_kmh=speed_kmh, battery_init=battery_init
    )


def test_mobility_long_run_reaches_the_widest_window(desk_scenario, monkeypatch):
    windows = _windows(monkeypatch)
    _assert_mobility_matches_scalar(Algorithm.TPCEH, desk_scenario, duration=10.0)
    assert max(stop - start for start, stop in windows) == engine.MAX_WINDOW


def test_mobility_flip_heavy_run(desk_scenario):
    scenario = _mobility_scenario(desk_scenario, n=5)
    scenario = dataclasses.replace(scenario, cfg=dataclasses.replace(scenario.cfg, seed=11))
    result = _assert_mobility_matches_scalar(
        Algorithm.OPCEH, scenario, duration=3.0, speed_kmh=5000.0, battery_init=6e-3
    )
    on = np.vstack([np.ones((1, 5), dtype=bool), result.states[:, :-1] > 0.0])
    assert int((on[1:] != on[:-1]).sum()) == 433


@pytest.mark.parametrize("alg", list(Algorithm))
def test_mobility_battery_that_covers_one_step_exactly(desk_scenario, monkeypatch, alg):
    # the battery holds exactly the first step's need, computed as the run
    # computes it: the UE affords that step (>=), pays it down to 0.0 and
    # depletes at the next
    scenario = _mobility_scenario(desk_scenario, n=1)
    cfg, step = scenario.cfg, 1e-3
    base = snapshot_from_scenario(scenario)
    ys = draw_ues(cfg, scenario.ue_template, 1)[0][0, :, 1] * cfg.cell_side
    gains = base.moved(engine._trajectory(cfg.cell_side, 5.0 / 3.6, step, 1), ys)
    cand = joint_update(alg, np.zeros((1, 2)), gains)
    need = float((cand[0, 0] / cfg.epsilon + base.ue_template.p_cir) * step)
    # a wrong affordability test can hold the run on one row for ever
    calls, update = [], JointUpdate.__call__

    def bounded(*args):
        calls.append(None)
        assert len(calls) < 1000, "the run makes no progress"
        return update(*args)

    monkeypatch.setattr(JointUpdate, "__call__", bounded)
    result = _assert_mobility_matches_scalar(alg, scenario, duration=0.01, battery_init=need)
    assert result.states[0, 0] == cand[0, 0] and result.battery[0, 0] == 0.0
    assert result.first_depletion_step == 2


def test_mobility_depletion_inside_a_window(desk_scenario, monkeypatch):
    windows = _windows(monkeypatch)
    result = _assert_mobility_matches_scalar(Algorithm.TPCEH, desk_scenario, duration=0.5)
    row = result.first_depletion_step - 1
    assert any(start < row < stop for start, stop in windows)


def test_mobility_window_past_its_sweep_budget(desk_scenario, monkeypatch):
    # with an infinite battery no mask breaks, so a window that commits only
    # part of its rows stopped at its sweep budget with an exact prefix
    windows = _windows(monkeypatch)
    scenario = _mobility_scenario(desk_scenario, n=5)
    scenario = dataclasses.replace(scenario, cfg=dataclasses.replace(scenario.cfg, seed=38))
    _assert_mobility_matches_scalar(
        Algorithm.OPC, scenario, duration=0.6, speed_kmh=5000.0, battery_init=math.inf
    )
    assert any(nxt[0] < stop for (_, stop), nxt in zip(windows, windows[1:]))


def test_mobility_windows_run_ue_major(desk_scenario, monkeypatch):
    # every window wider than one row reaches the update kernel UE-major, each
    # UE's column contiguous, states, the bound operands and the scratch
    # alike, which is the layout the kernel's sum and maximum run fast on;
    # the result's series stay row-major, so the CLI's means over the UEs
    # keep their bits
    layouts = []
    update = JointUpdate.__call__

    def spy(self, x, out=None):
        nxt = update(self, x, out)
        if len(x) > 1:
            arrays = (x, self.h, self.gain, self.scale, self.floor, self.interf, nxt)
            layouts.append([a.strides[0] < a.strides[1] for a in arrays])
        return nxt

    monkeypatch.setattr(JointUpdate, "__call__", spy)
    result = _assert_mobility_matches_scalar(Algorithm.TPCEH, desk_scenario, duration=1.0)
    assert len(layouts) > 10
    assert all(all(layout) for layout in layouts)
    assert result.states.flags.c_contiguous and result.sinr.flags.c_contiguous


def test_mobility_relaxation_work_is_pinned(desk_scenario, monkeypatch):
    # the desk 10 s TPCEH run binds the update once per window and runs the
    # kernel once per sweep: a change to the window policy or to where the
    # battery chains break shows up in these counts
    bound, sweeps = [], []
    init, step = JointUpdate.__init__, JointUpdate.__call__

    def binding(self, *args):
        bound.append(None)
        init(self, *args)

    def sweep(self, *args):
        sweeps.append(None)
        return step(self, *args)

    monkeypatch.setattr(JointUpdate, "__init__", binding)
    monkeypatch.setattr(JointUpdate, "__call__", sweep)
    run_mobility(Algorithm.TPCEH, desk_scenario, duration=10.0)
    assert (len(bound), len(sweeps)) == (17, 527)


@pytest.mark.parametrize("alg, work", [
    (Algorithm.TPCEH, (142_028, 1_816, 61)),
    (Algorithm.OPCEH, (16_760, 262, 17)),
])
def test_sweep_work_is_pinned(desk_scenario, monkeypatch, alg, work):
    # the desk sweep's rows handed to the update, update calls and bindings:
    # a change to the block schedule, the stack bound, the compaction or
    # the certificate's steps shows up in these counts
    rows, bound = [], []
    init, step = JointUpdate.__init__, JointUpdate.__call__

    def binding(self, *args):
        bound.append(None)
        init(self, *args)

    def counted(self, x, out=None):
        rows.append(len(x))
        return step(self, x, out)

    monkeypatch.setattr(JointUpdate, "__init__", binding)
    monkeypatch.setattr(JointUpdate, "__call__", counted)
    run_monte_carlo([alg], desk_scenario, "num_ues", [2, 5, 10, 20], 200)
    assert (sum(rows), len(rows), len(bound)) == work


def test_mobility_derives_harvest_arrays_once(desk_scenario, monkeypatch):
    # each window binds the update once, on its own rows, for all its
    # sweeps, and derives p_min and harvest_scale for those rows alone: the
    # run computes no whole-run array of them
    calls = dict.fromkeys(("p_min", "harvest_scale"), 0)
    for name in calls:
        derive = vars(Snapshot)[name].fget

        def counted(self, derive=derive, name=name):
            calls[name] += 1
            return derive(self)

        monkeypatch.setattr(Snapshot, name, property(counted))
    windows = _windows(monkeypatch)
    bound, sweeps = [], []
    init, step = JointUpdate.__init__, JointUpdate.__call__

    def binding(self, alg, snap, like=None):
        bound.append(len(snap))
        init(self, alg, snap, like)

    def sweep(self, x, out=None):
        sweeps.append(len(x))
        return step(self, x, out)

    monkeypatch.setattr(JointUpdate, "__init__", binding)
    monkeypatch.setattr(JointUpdate, "__call__", sweep)
    run_mobility(Algorithm.TPCEH, desk_scenario, duration=1.0)
    assert len(windows) > 10 and len(sweeps) > len(windows)
    assert bound == [stop - start for start, stop in windows]
    assert calls == {"p_min": len(windows), "harvest_scale": len(windows)}


# ---------------------------------------------------------------------------
# batched solver against the scalar loop


def _with(scenario, k, hbs=None, **template):
    return dataclasses.replace(
        scenario,
        cfg=dataclasses.replace(scenario.cfg, num_ues=k),
        hbs=scenario.hbs if hbs is None else hbs,
        ue_template=dataclasses.replace(scenario.ue_template, **template),
        fixed_ues=None,
    )


def _assert_rows_match_scalar(alg, scenario, sol, p_init=None, max_iter=None):
    """Every row of a batched solve equals the scalar loop on its snapshot."""
    for sid in range(len(sol.converged)):
        snap = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, sid + 1).rows(sid)
        start = None if p_init is None else p_init[sid]
        p, used, converged, change = scalar_fixed_point(
            alg, snap, p_init=start, max_iter=max_iter
        )
        assert sol.fixed_point[sid].tolist() == p.tolist()
        assert sol.iterations_used[sid] == used
        assert sol.converged[sid] == converged
        trace = run_fixed_point(alg, snap, start, max_iter=used)
        assert trace.final_change == change


@pytest.mark.parametrize("max_iter", [0, 1, None])
@pytest.mark.parametrize("k", [1, 2, 5, 20])
@pytest.mark.parametrize("alg", list(Algorithm))
def test_batched_solver_matches_scalar_loop(desk_scenario, alg, k, max_iter):
    scenario = _with(desk_scenario, k)
    batch = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, 5)
    sol = solve(alg, batch, max_iter=max_iter)
    _assert_rows_match_scalar(alg, scenario, sol, max_iter=max_iter)


@pytest.mark.parametrize("alg", list(Algorithm))
def test_batched_solver_matches_scalar_loop_at_binding_caps(desk_scenario, alg):
    # a 1 mW harvest peak and a 10 pW uplink cap both bind
    hbs = dataclasses.replace(desk_scenario.hbs, p_bar_h=1e-3)
    scenario = _with(desk_scenario, 4, hbs=hbs, p_bar_u=1e-11)
    batch = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, 5)
    sol = solve(alg, batch)
    k = batch.num_ues
    assert np.any(sol.fixed_point[:, :k] == 1e-11)
    if alg.harvesting:
        assert np.any(sol.fixed_point[:, k] == 1e-3)
    _assert_rows_match_scalar(alg, scenario, sol)


@pytest.mark.parametrize("alg", list(Algorithm))
def test_batched_solver_clips_start_like_scalar_loop(desk_scenario, alg):
    scenario = _with(desk_scenario, 3)
    batch = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, 4)
    # three uplink powers, then the harvest power, per row
    p_init = np.array([
        [7.0, -1.0, 1e-9, 99.0], [0.5, 2.0, 0.0, -3.0], [1e-8] * 3 + [1e-6], [3.0] * 3 + [10.0],
    ])
    sol = solve(alg, batch, p_init=p_init)
    _assert_rows_match_scalar(alg, scenario, sol, p_init=p_init)


def test_run_fixed_point_is_the_one_row_batch(desk_scenario):
    scenario = _with(desk_scenario, 5)
    snap = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, 4).rows(3)
    for alg in Algorithm:
        trace = run_fixed_point(alg, snap)
        p, used, converged, change = scalar_fixed_point(alg, snap)
        assert trace.fixed_point.tolist() == p.tolist()
        assert (trace.iterations_used, trace.converged, trace.final_change) == (
            used, converged, change,
        )
        assert trace.steps.tolist() == list(range(used + 1))


def test_solve_rejects_a_single_snapshot(desk_scenario):
    # len() of a (K,) snapshot is K, so a single snapshot would be solved as
    # K batch rows; it must be made a batch of one first
    snap = snapshot_from_scenario(desk_scenario)
    with pytest.raises(ValueError, match=r"Snapshot\.repeated\(\)"):
        solve(Algorithm.TPCEH, snap)
    with pytest.raises(ValueError, match=r"Snapshot\.repeated\(\)"):
        engine.iterate(lambda x, rows: x, snap, np.zeros((1, snap.num_ues + 1)), 1e-9, 10)
    sol = solve(Algorithm.TPCEH, snap.repeated())
    assert sol.fixed_point.shape == (1, snap.num_ues + 1)
    assert sol.converged.tolist() == [True]
    assert sol.fixed_point[0].tolist() == run_fixed_point(Algorithm.TPCEH, snap).fixed_point.tolist()


def test_opportunistic_cycles_run_to_max_iter(desk_scenario):
    # these desk snapshots lock OPCEH into a period-2 cycle at K=5
    cycling = [57, 118, 122, 166, 173, 178, 189]
    scenario = _with(desk_scenario, 5)
    batch = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, 200)
    sol = solve(Algorithm.OPCEH, batch)
    assert np.flatnonzero(~sol.converged).tolist() == cycling
    assert sol.iterations_used[cycling].tolist() == [scenario.cfg.max_iter] * len(cycling)
    snap = sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, 58).rows(57)
    p, used, converged, change = scalar_fixed_point(Algorithm.OPCEH, snap)
    assert sol.fixed_point[57].tolist() == p.tolist()
    used = int(sol.iterations_used[57])
    assert run_fixed_point(Algorithm.OPCEH, snap, max_iter=used).final_change == change


# The traced peak (tracemalloc) of one desk sweep over K = 2, 5, 10, 20 with
# 200 snapshots, after a warm-up sweep: 1.315 MiB for TPCEH and 1.334 MiB
# for OPCEH with numpy 2.4. An iterate that kept a Snapshot of its working
# rows next to the bound update's operands, a second copy of the working
# set, read 1.494 MiB for TPCEH.
SWEEP_PEAK_BUDGET_MIB = 1.45


@pytest.mark.parametrize("alg", [Algorithm.TPCEH, Algorithm.OPCEH])
def test_sweep_traced_peak_stays_in_budget(desk_scenario, alg):
    def sweep():
        run_monte_carlo([alg], desk_scenario, "num_ues", [2, 5, 10, 20], 200)

    sweep()
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < SWEEP_PEAK_BUDGET_MIB


# The traced peak (tracemalloc) of the desk 10 s TPCEH mobility run, after a
# warm-up run: 4.29 MiB with numpy 2.4, each window binding the update on its
# own rows. Deriving p_min and harvest_scale for the whole run's gains once,
# beside the windows' padded operands, read 4.74 MiB.
MOBILITY_PEAK_BUDGET_MIB = 4.5


def test_mobility_traced_peak_stays_in_budget(desk_scenario):
    def run():
        run_mobility(Algorithm.TPCEH, desk_scenario, duration=10.0)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < MOBILITY_PEAK_BUDGET_MIB


def test_monte_carlo_zero_snapshots_takes_no_step(desk_scenario, monkeypatch):
    def no_step(*args):
        raise AssertionError("an update ran on an empty batch")

    # the solve's loop steps the update bound to its batch
    monkeypatch.setattr(JointUpdate, "__call__", no_step)
    (result,) = run_monte_carlo([Algorithm.TPCEH], desk_scenario, "num_ues", [2, 5], 0)
    assert [(s["n_converged"], s["n_nonconverged"]) for s in result.solves] == [(0, 0), (0, 0)]
    for pairs in result.stats.values():
        assert all(np.isnan(m) and np.isnan(h) for m, h in pairs)


# The row contract: `solve` gives every row of a batch the five fields it
# gets when its snapshot is solved alone, whatever other rows share the
# batch, in whatever order and layout, and whatever blocks `iterate` runs
# its steps in. The blocks rely on it: a row that stops inside a block
# runs to the block's end with the rows still running.

# block schedules of `iterate`: every block 2 steps, the smallest a check
# may end; the default (patched to itself, as `mock.patch.multiple` needs a
# name); and every block 16 steps from the first, with room for any state
BLOCKINGS = {
    "smallest": {"STACK_ELEMENTS": 0},
    "default": {"STACK_ELEMENTS": engine.STACK_ELEMENTS},
    "sixteen": {"STACK_ELEMENTS": 2**62},
}


def _assert_rows_solved_alone(sol, alone, rows=slice(None)):
    """Rows `rows` of sol have the bits of every field of the solution alone."""
    for field in dataclasses.fields(alone):
        got = getattr(sol, field.name)[rows]
        want = getattr(alone, field.name)
        assert got.dtype == want.dtype and got.shape == want.shape, field.name
        assert got.tobytes() == want.tobytes(), field.name


@functools.cache
def _pool(config: str, k: int, delta_db: float) -> Snapshot:
    scenario = load_scenario(CONFIG_DIR / f"{config}.json")
    sc = apply_axis(_with(scenario, k), "delta_db", delta_db)
    return sample_batch(sc.cfg, sc.hbs, sc.ue_template, 30)


@settings(max_examples=60, deadline=None)
@given(
    config=st.sampled_from(["desk_consistent", "paper_4a"]),
    alg=st.sampled_from(list(Algorithm)),
    k=st.integers(1, 24),
    delta_db=st.sampled_from([-130.0, -110.0, -90.0]),
    pieces=st.lists(st.lists(st.integers(0, 29), min_size=1, max_size=8), min_size=1, max_size=3),
    give_up=st.booleans(),
    max_iter=st.sampled_from([0, 1, 17, 20, 33, 100, 130, 400]),
    blocking=st.sampled_from(sorted(BLOCKINGS)),
    ue_major=st.booleans(),
)
def test_rows_get_the_numbers_they_get_alone(config, alg, k, delta_db, pieces, give_up, max_iter,
                                             blocking, ue_major):
    # the batch is one to three pieces of one pool of K-UE snapshots, each
    # piece picked in any order, repeats allowed, and concatenated; it is
    # solved row-major or UE-major, in one of the block schedules; each
    # piece alone by default
    pool = _pool(config, k, delta_db)
    batch = pool.rows(np.concatenate(pieces))
    if ue_major:
        for name, value in vars(batch).items():
            if isinstance(value, np.ndarray):
                vars(batch)[name] = np.asfortranarray(value)
    with mock.patch.multiple(engine, **BLOCKINGS[blocking]):
        sol = solve(alg, batch, max_iter=max_iter, give_up=give_up)
    start = 0
    for picks in pieces:
        alone = solve(alg, pool.rows(np.array(picks)), max_iter=max_iter, give_up=give_up)
        _assert_rows_solved_alone(sol, alone, slice(start, start + len(picks)))
        start += len(picks)


@pytest.mark.parametrize("give_up", [False, True])
@pytest.mark.parametrize("alg", list(Algorithm))
@pytest.mark.parametrize("config", ["desk_scenario", "paper_scenario"])
def test_block_schedules_match_default(request, config, alg, give_up):
    # block schedules on full 200-row batches: every row gets the bits the
    # default schedule gives it under the smallest schedule (blocks of 2
    # steps) and the sixteen-step one, which drop stopped rows at other
    # steps, with budgets on and off the 16-step grid of the checks
    scenario = request.getfixturevalue(config)
    for k in (2, 5, 20):
        sc = _with(scenario, k)
        batch = sample_batch(sc.cfg, sc.hbs, sc.ue_template, 200)
        for max_iter in (None, 17, 33, 130):
            want = solve(alg, batch, max_iter=max_iter, give_up=give_up)
            for blocking in ("smallest", "sixteen"):
                with mock.patch.multiple(engine, **BLOCKINGS[blocking]):
                    sol = solve(alg, batch, max_iter=max_iter, give_up=give_up)
                _assert_rows_solved_alone(sol, want)


def _per_metric_stats(samples):
    """The former per-metric loop of run_monte_carlo."""
    stats = []
    for arr in samples:
        if arr.size == 0:
            stats.append((math.nan, math.nan))
        else:
            half = 1.96 * arr.std(ddof=1) / math.sqrt(arr.size) if arr.size > 1 else 0.0
            stats.append((float(arr.mean()), float(half)))
    return stats


@pytest.mark.parametrize("n", [0, 1, 2, 200])
def test_stacked_averages_have_the_bits_of_per_metric_calls(desk_scenario, n):
    # one mean and one std along the rows of the stacked samples, against
    # the per-metric calls on each sample as it comes (some are strided
    # views): a sweep value's samples, and random ones over many magnitudes
    sc = _with(desk_scenario, 10)
    batch = sample_batch(sc.cfg, sc.hbs, sc.ue_template, 200)
    fixed = solve(Algorithm.TPCEH, batch).fixed_point[:n]
    mx = metrics(fixed, batch.rows(slice(0, n)))
    rng = np.random.default_rng(n)
    drawn = rng.lognormal(0.0, 1.0, size=(n, 10)) * 10.0 ** rng.integers(-30, 30, size=(n, 10))
    for samples in ([sample(mx, fixed) for sample in engine.SWEEP_METRICS.values()], list(drawn.T)):
        got = engine._mean_half_widths(np.stack(samples))
        want = _per_metric_stats(samples)
        assert [tuple(map(float.hex, pair)) for pair in got] == [
            tuple(map(float.hex, pair)) for pair in want
        ]


# the (row, step) pairs whose full relative change `iterate` computes in the
# default 200-row TPCEH solve at K=20 on desk_consistent, seed 1
SCREENED_PAIRS = 2_272

# the ends of `iterate`'s blocks with room for any block, up to the default max_iter
BLOCK_ENDS = np.arange(16, 2001, 16)


def test_opportunistic_solve_rebuilds_its_batch_a_few_times(desk_scenario, monkeypatch):
    calls = []
    init = JointUpdate.__init__

    def counted(self, alg, snap, like=None):
        calls.append(len(snap))
        init(self, alg, snap, like)

    monkeypatch.setattr(JointUpdate, "__init__", counted)
    sc = _with(desk_scenario, 20)
    batch = sample_batch(sc.cfg, sc.hbs, sc.ue_template, 200)
    # past the first binding, the update is bound to the running rows once
    # per block that stops a row, but the last; with room for any block,
    # blocks end every 16 steps
    monkeypatch.setattr(engine, "STACK_ELEMENTS", 2**62)
    sol = solve(Algorithm.OPCEH, batch, give_up=True)
    assert sol.stopped_early.sum() == 10
    blocks = set(np.searchsorted(BLOCK_ENDS, sol.iterations_used).tolist())
    assert calls[0] == len(batch)
    assert len(calls[1:]) == len(blocks) - 1 < len(set(sol.iterations_used.tolist())) - 1


@pytest.mark.parametrize("k", [5, 20])
@pytest.mark.parametrize("alg", [Algorithm.TPCEH, Algorithm.OPCEH])
def test_rows_run_to_the_end_of_their_stop_block_and_no_further(desk_scenario, monkeypatch,
                                                                 alg, k):
    # each row is updated at every step of every block up to the one it
    # stops in: no row waits in the working arrays once it is written out
    updated = []
    real = JointUpdate.__call__

    def counted(self, x, out=None):
        updated.append(len(x))
        return real(self, x, out)

    monkeypatch.setattr(JointUpdate, "__call__", counted)
    monkeypatch.setattr(engine, "STACK_ELEMENTS", 2**62)
    sc = _with(desk_scenario, k)
    sol = solve(alg, sample_batch(sc.cfg, sc.hbs, sc.ue_template, 200))
    used = sol.iterations_used
    assert sum(updated) == BLOCK_ENDS[np.searchsorted(BLOCK_ENDS, used)].sum() > used.sum()


def test_stop_test_runs_on_the_rows_that_can_stop(desk_scenario, monkeypatch):
    # the full relative change of a (row, step) is computed only where the
    # screen cannot rule the row out: 120,972 (row, step) pairs, every one
    # of the 119,895 useful steps and the ends of their stop blocks, without
    # the screen; the blocks whose screen leaves most rows near tol and the
    # last steps of the rows that stop unconverged keep theirs
    tested = []
    real = engine.ue_max

    def counted(a):
        tested.append(len(a))
        return real(a)

    monkeypatch.setattr(engine, "ue_max", counted)
    sc = _with(desk_scenario, 20)
    sol = solve(Algorithm.TPCEH, sample_batch(sc.cfg, sc.hbs, sc.ue_template, 200))
    assert sol.iterations_used.sum() == 119_895
    assert sum(tested) == SCREENED_PAIRS


def _binder(update):
    """`iterate`'s binder for an update(x, rows, out)."""
    return lambda rows: lambda x, out: update(x, rows, out)


def _halve_toward_target(x, batch, out):
    """Each uplink power halves its distance to the UE's gamma_target and
    the harvest power halves toward 0, down through CHANGE_FLOOR."""
    out[:, :-1] = (x[:, :-1] + batch.gamma_target) / 2.0
    out[:, -1] = x[:, -1] / 2.0
    return out


def _one_row_at_a_time(update, batch, p_init, tol, max_iter):
    """BatchSolution fields of iterating each row alone, a step at a time."""
    fields = []
    for s in range(len(batch)):
        row = batch.rows([s])
        x = np.clip(p_init[s : s + 1], 0.0, state_caps(row))
        t, change = 0, math.inf
        while t < max_iter:
            nxt = update(x, row, np.empty_like(x))
            change = np.max(np.abs(nxt - x) / np.maximum(x, engine.CHANGE_FLOOR))
            x, t = nxt, t + 1
            if change <= tol:
                break
        fields.append((x[0].tolist(), t, bool(change <= tol), float(change)))
    return fields


def test_screen_keeps_rows_at_tol_and_below_the_floor(desk_scenario):
    # rows that converge toward their targets from below, and rows whose
    # largest change is the harvest power's halving through CHANGE_FLOOR
    # (relative changes of 0.5 above it, shrinking below it), tracked by
    # the screen; tol is, bit for bit, the change of the converging rows at
    # steps past the plain first blocks, so they stop at a change equal to
    # tol; every row has the numbers of iterating it alone
    sc = _with(desk_scenario, 3)
    batch = sample_batch(sc.cfg, sc.hbs, sc.ue_template, 8)
    gamma = np.linspace(0.01, 0.9, 24).reshape(8, 3)
    batch = dataclasses.replace(batch, gamma_target=gamma)
    starts = np.zeros((8, 4))
    starts[2:, :-1] = gamma[2:]
    starts[2:5, -1] = 1e-6
    starts[5:] = 10.0
    for steps in (17, 25, 31, 40):
        tol = _one_row_at_a_time(_halve_toward_target, batch.rows([0]), starts[:1], 0.0,
                                 steps)[0][3]
        for max_iter in (steps, 200):
            sol = engine.iterate(_binder(_halve_toward_target), batch, starts, tol, max_iter)
            want = _one_row_at_a_time(_halve_toward_target, batch, starts, tol, max_iter)
            got = list(zip(sol.fixed_point.tolist(), sol.iterations_used.tolist(),
                           sol.converged.tolist()))
            assert got == [fields[:3] for fields in want]
            assert sol.converged[0] and sol.iterations_used[0] == steps
            assert not sol.stopped_early.any()


def _approach_target(x, batch, out):
    """Each uplink power moves the fraction eta of its distance to the UE's
    gamma_target; the harvest power halves toward 0."""
    out[:, :-1] = x[:, :-1] + (batch.gamma_target - x[:, :-1]) * batch.eta
    out[:, -1] = x[:, -1] / 2.0
    return out


@pytest.mark.parametrize("fast, pairs", [(1, 80), (2, 160)])
def test_screen_moves_to_the_largest_change(desk_scenario, monkeypatch, fast, pairs):
    # every row's screen starts on UE 0, which rules every row out in the
    # first block. In the first `fast` rows UE 0 converges fast, while UE 1,
    # 1e-4 below its target, converges slowly; the other rows converge
    # slowly throughout. The full test that finds such a row unconverged
    # with UE 0 near tol moves its screen to UE 1, which rules the row out
    # until its stop block; with two such rows it is the plain pass, as half
    # the rows are near tol. A screen left on UE 0 would test these rows in
    # every block (208 and 672 pairs)
    sc = _with(desk_scenario, 2)
    batch = sample_batch(sc.cfg, sc.hbs, sc.ue_template, 4)
    eta = np.array([[0.5, 0.05]] * fast + [[0.05, 0.05]] * (4 - fast))
    batch = dataclasses.replace(batch, gamma_target=np.full((4, 2), 0.5), eta=eta)
    starts = np.zeros((4, 3))
    starts[:fast, 1] = 0.5 * (1.0 - 1e-4)
    tested = []
    real = engine.ue_max

    def counted(a):
        tested.append(len(a))
        return real(a)

    monkeypatch.setattr(engine, "ue_max", counted)
    sol = engine.iterate(_binder(_approach_target), batch, starts, 1e-9, 2000)
    assert sol.iterations_used.tolist() == [168] * fast + [347] * (4 - fast)
    assert sum(tested) == pairs
    got = list(zip(sol.fixed_point.tolist(), sol.iterations_used.tolist(),
                   sol.converged.tolist()))
    want = _one_row_at_a_time(_approach_target, batch, starts, 1e-9, 2000)
    assert got == [fields[:3] for fields in want]


def test_history_holds_only_the_running_rows(desk_scenario):
    sc = _with(desk_scenario, 5)
    batch = sample_batch(sc.cfg, sc.hbs, sc.ue_template, 50)
    history = []
    sol = solve(Algorithm.TPCEH, batch, history=history)
    used = sol.iterations_used
    assert len(history) == used.max() + 1
    for t, states in enumerate(history):
        running = np.flatnonzero(used >= t)
        assert len(states) == len(running)
    # a row's last state is its fixed point
    assert history[-1].tolist() == sol.fixed_point[used == used.max()].tolist()

