import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpowerctl import engine
from fdpowerctl.channel import Snapshot, sample_batch, snapshot_from_scenario
from fdpowerctl.core import Algorithm, Metrics, required_hbs_power
from fdpowerctl.engine import (
    apply_axis,
    run_fixed_point,
    run_mobility,
    run_monte_carlo,
    solve,
)

from conftest import make_desk_snapshot, make_single_ue_snapshot
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
    assert np.all(result.metrics.sinr[dead_from:] == 0.0)
    assert np.all(result.states[dead_from:, -1] == 0.0)


def test_mobility_tpceh_activates_and_recovers(desk_scenario):
    scenario = _mobility_scenario(desk_scenario)
    result = run_mobility(Algorithm.TPCEH, scenario, duration=2.0)
    act = result.activation_step
    assert act is not None
    # harvest signal off before activation, on from the activation step
    assert np.all(result.states[: act - 1, -1] == 0.0)
    assert not np.any(result.harvesting_active[: act - 1])
    assert result.states[act - 1, -1] > 0.0
    assert result.harvesting_active[act - 1]
    # within 100 steps after activation every UE is back on target
    idx = act - 1 + 100
    gt = 0.05
    np.testing.assert_allclose(result.metrics.sinr[idx], gt, rtol=1e-3)


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
    harvest = result.metrics.harvested_power * 1e-3
    p_cir = np.full(2, snapshot_from_scenario(scenario).ue_template.p_cir)
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
    scenario = _mobility_scenario(desk_scenario)
    result = run_mobility(Algorithm.TPCEH, scenario, duration=1.0, speed_kmh=5000.0)
    side = scenario.cfg.cell_side
    assert np.all(result.positions[..., 0] >= -1e-9)
    assert np.all(result.positions[..., 0] <= side + 1e-9)


def test_mobility_zero_duration(desk_scenario):
    result = run_mobility(Algorithm.TPC, _mobility_scenario(desk_scenario), duration=0.0)
    assert result.time.shape == (0,)
    assert result.states.shape == (0, 4)
    assert result.battery.shape == (0, 3)
    assert result.positions.shape == (0, 3, 2)


@pytest.mark.parametrize("kwargs", [
    {"step": 0.0}, {"step": -1e-3}, {"step": math.nan}, {"step": math.inf},
    {"duration": math.nan}, {"duration": math.inf}, {"duration": -1.0},
    {"battery_init": math.nan}, {"battery_init": -1.0}, {"battery_init": -math.inf},
    {"speed_kmh": math.nan}, {"speed_kmh": math.inf}, {"speed_kmh": -5.0},
])
def test_mobility_rejects_invalid_step_and_duration(desk_scenario, kwargs):
    with pytest.raises(ValueError):
        run_mobility(Algorithm.TPCEH, desk_scenario, **{"duration": 0.01, **kwargs})


# ---------------------------------------------------------------------------
# columnar mobility run against the per-step loop


def _assert_mobility_matches_scalar(alg, scenario, **kwargs):
    result = run_mobility(alg, scenario, **kwargs)
    ref = scalar_mobility(alg, scenario, **kwargs)
    assert result.time.tolist() == ref["time"].tolist()
    assert result.states[:, :-1].tolist() == ref["p_u"].tolist()
    assert result.states[:, -1].tolist() == ref["p_h"].tolist()
    assert result.battery.tolist() == ref["battery"].tolist()
    assert result.positions.tolist() == ref["positions"].tolist()
    assert result.harvesting_active.tolist() == ref["harvesting_active"].tolist()
    for name in (f.name for f in dataclasses.fields(Metrics)):
        want = [np.asarray(getattr(m, name)).tolist() for m in ref["metrics"]]
        assert np.asarray(getattr(result.metrics, name)).tolist() == want, name
    assert result.first_depletion_step == ref["first_depletion_step"]
    assert result.activation_step == ref["activation_step"]
    return result


@pytest.mark.parametrize("alg", list(Algorithm))
def test_mobility_matches_scalar_loop_on_fixed_ues(desk_scenario, alg):
    result = _assert_mobility_matches_scalar(alg, desk_scenario, duration=0.5)
    # TPC and TPCEH deplete at step 334 (OPC and OPCEH at once)
    assert result.first_depletion_step is not None
    assert (result.activation_step is not None) == alg.harvesting


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
        assert sol.final_change[sid] == change


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
    assert sol.final_change[57] == change


def test_monte_carlo_zero_snapshots_takes_no_step(desk_scenario, monkeypatch):
    def no_step(*args):
        raise AssertionError("an update ran on an empty batch")

    monkeypatch.setattr(engine, "joint_update", no_step)
    (result,) = run_monte_carlo([Algorithm.TPCEH], desk_scenario, "num_ues", [2, 5], 0)
    assert [(s["n_converged"], s["n_nonconverged"]) for s in result.solves] == [(0, 0), (0, 0)]
    for pairs in result.stats.values():
        assert all(np.isnan(m) and np.isnan(h) for m, h in pairs)
