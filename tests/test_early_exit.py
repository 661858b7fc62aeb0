"""The sweeps' early exit: rows certified unable to converge stop early.

`solve(..., give_up=True)` may stop a row before max_iter only when full
iteration leaves that row unconverged, and every row it does not stop must
come out bit for bit as under full iteration. The certificate rests on the
joint updates not expanding the Thompson metric, which the premise test
checks along real trajectories.
"""

import dataclasses

import numpy as np
import pytest

from fdpowerctl import engine
from fdpowerctl.channel import sample_batch, snapshot_from_scenario
from fdpowerctl.core import Algorithm, JointUpdate, state_caps
from fdpowerctl.engine import apply_axis, run_fixed_point, run_monte_carlo, solve

from scalar_reference import scalar_fixed_point

N_SNAPSHOTS = 200

# the certificate's check steps below the largest budget used here (2000):
# every 16 steps up to 128, then doubling
CHECK_STEPS = {16, 32, 48, 64, 80, 96, 112, 128, 256, 512, 1024}

# desk_consistent ids, seed 1, on which OPCEH does not converge in 2000 steps
OPCEH_UNCONVERGED = {
    5: [57, 118, 122, 166, 173, 178, 189],
    10: [0, 12, 41, 70, 75, 88, 103, 137, 166, 187],
    20: [0, 76, 81, 85, 96, 102, 124, 125, 144, 166],
}
# the check steps at which the certificate stops them
OPCEH_STOP_STEPS = {5: {48, 64}, 10: {48, 64, 96}, 20: {48, 64, 80}}


def _batch(scenario, k, n=N_SNAPSHOTS):
    sc = apply_axis(scenario, "num_ues", k)
    return sample_batch(sc.cfg, sc.hbs, sc.ue_template, n)


def _assert_sound(batch, alg, max_iter=None, tol=None):
    """give_up stops only rows full iteration leaves unconverged; the rest match."""
    full = solve(alg, batch, tol=tol, max_iter=max_iter)
    early = solve(alg, batch, tol=tol, max_iter=max_iter, give_up=True)
    assert not full.stopped_early.any()
    assert early.converged.tolist() == full.converged.tolist()
    stopped = early.stopped_early
    assert not np.any(stopped & full.converged)
    rest = ~stopped
    assert early.fixed_point[rest].tolist() == full.fixed_point[rest].tolist()
    assert early.iterations_used[rest].tolist() == full.iterations_used[rest].tolist()
    # a stopped row ends at a check step before the budget
    budget = batch.cfg.max_iter if max_iter is None else max_iter
    for used in early.iterations_used[stopped].tolist():
        assert used < budget and used in CHECK_STEPS
    return early


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
@pytest.mark.parametrize("alg", list(Algorithm))
@pytest.mark.parametrize("config", ["desk_scenario", "paper_scenario"])
def test_give_up_is_sound(request, config, alg, k):
    batch = _batch(request.getfixturevalue(config), k)
    for max_iter in (16, 17, 33, 64, 200, None):
        _assert_sound(batch, alg, max_iter)


@pytest.mark.parametrize("k", [5, 10, 20])
def test_opceh_unconverged_rows_are_stopped_early(desk_scenario, k):
    batch = _batch(desk_scenario, k)
    full = solve(Algorithm.OPCEH, batch)
    assert np.flatnonzero(~full.converged).tolist() == OPCEH_UNCONVERGED[k]
    early = solve(Algorithm.OPCEH, batch, give_up=True)
    assert np.flatnonzero(early.stopped_early).tolist() == OPCEH_UNCONVERGED[k]
    assert set(early.iterations_used[early.stopped_early].tolist()) == OPCEH_STOP_STEPS[k]


def _assert_final_change_of_scalar_loop(alg, batch, sol, rows):
    """Rows `rows` of sol have the numbers of the scalar loop run to their
    iterations_used, and the trace cut there ends on the full relative
    change of that step."""
    for s in rows.tolist():
        used = int(sol.iterations_used[s])
        p, steps, converged, change = scalar_fixed_point(alg, batch.rows(s), max_iter=used)
        assert (steps, converged) == (used, bool(sol.converged[s]))
        assert sol.fixed_point[s].tolist() == p.tolist()
        trace = run_fixed_point(alg, batch.rows(s), max_iter=used)
        assert trace.final_change.hex() == change.hex()


@pytest.mark.parametrize("k", [5, 10, 20])
def test_certified_rows_keep_the_full_change_of_their_stop_step(desk_scenario, k):
    batch = _batch(desk_scenario, k)
    early = solve(Algorithm.OPCEH, batch, give_up=True)
    stopped = np.flatnonzero(early.stopped_early)
    assert stopped.tolist() == OPCEH_UNCONVERGED[k]
    _assert_final_change_of_scalar_loop(Algorithm.OPCEH, batch, early, stopped)


@pytest.mark.parametrize("k, max_iter", [(5, 22), (10, 33), (10, 41), (20, 130)])
def test_rows_at_max_iter_keep_the_full_change_of_their_last_step(desk_scenario, k, max_iter):
    # past the plain first blocks, rows stop converged and at max_iter
    batch = _batch(desk_scenario, k)
    sol = solve(Algorithm.TPCEH, batch, max_iter=max_iter, give_up=True)
    unconverged = np.flatnonzero(~sol.converged)
    assert unconverged.size and not sol.stopped_early.any()
    assert np.all(sol.iterations_used[unconverged] == max_iter)
    _assert_final_change_of_scalar_loop(Algorithm.TPCEH, batch, sol, np.arange(N_SNAPSHOTS))


def test_sweep_counts_rows_stopped_early(desk_scenario):
    (result,) = run_monte_carlo([Algorithm.OPCEH], desk_scenario, "num_ues", [2, 5, 10, 20],
                                N_SNAPSHOTS)
    assert [s["value"] for s in result.solves] == [2, 5, 10, 20]
    assert [s["n_stopped_early"] for s in result.solves] == [0, 7, 10, 10]
    assert [s["n_nonconverged"] for s in result.solves] == [0, 7, 10, 10]
    assert [s["n_converged"] for s in result.solves] == [200, 193, 190, 190]
    for s in result.solves:
        iterations = s["converged_iterations"]
        assert 1 <= iterations["min"] <= iterations["median"] <= iterations["max"] < 2000


def test_sweep_iteration_stats_without_converged_rows(desk_scenario):
    (result,) = run_monte_carlo([Algorithm.OPCEH], desk_scenario, "num_ues", [5], 3, max_iter=1)
    assert [(s["n_converged"], s["converged_iterations"]) for s in result.solves] == [(0, None)]


@pytest.mark.parametrize("alg", list(Algorithm))
def test_give_up_with_identically_zero_component(desk_scenario, alg):
    # UE 0 has a zero target: its uplink power is 0 after the first step
    batch = _batch(desk_scenario, 5)
    zero = np.zeros_like(batch.gamma_target)
    zero[:, 1:] = 1.0
    batch = dataclasses.replace(
        batch, gamma_target=batch.gamma_target * zero, eta=batch.eta * zero
    )
    early = _assert_sound(batch, alg)
    assert np.all(early.fixed_point[:, 0] == 0.0)
    if alg is Algorithm.OPCEH:
        assert early.stopped_early.any()


@pytest.mark.parametrize("tol", [1.0, 2.0, float("nan")])
def test_give_up_never_fires_when_tol_is_one_or_more(desk_scenario, tol):
    batch = _batch(desk_scenario, 10)
    for alg in Algorithm:
        early = _assert_sound(batch, alg, max_iter=100, tol=tol)
        assert not early.stopped_early.any()


def test_rows_near_the_change_floor_do_not_qualify(desk_scenario):
    batch = _batch(desk_scenario, 5, n=4)
    gamma = batch.gamma_target.copy()
    gamma[1, 2] = 1e-30          # row 1's UE 2 tracks a target of almost 0
    batch = dataclasses.replace(batch, gamma_target=gamma)
    qualifies = engine._certifiable(JointUpdate(Algorithm.TPCEH, batch), state_caps(batch))
    assert qualifies.tolist() == [True, False, True, True]


def test_log_distance_skips_zero_components_and_other_rows(desk_scenario):
    # OPC's harvest lane is 0 in every state: its 0 / 0 (an error under this
    # suite's warning filter) is not taken and adds nothing; a row outside
    # `rows` reads 0
    batch = _batch(desk_scenario, 5, n=4)
    step = JointUpdate(Algorithm.OPC, batch)
    x0 = np.full((4, 6), 1e-6)
    x0[:, -1] = 0.0
    x1 = step(x0, np.empty_like(x0))
    x2 = step(x1, np.empty_like(x1))
    assert not x1[:, -1].any() and not x2[:, -1].any()
    rows = np.array([True, False, True, True])
    d = engine._log_distance(x2, x1, rows)
    want = np.abs(np.log(x2[:, :-1] / x1[:, :-1])).max(axis=-1)
    assert d[1] == 0.0 < want[1]
    assert d[rows].tolist() == want[rows].tolist()


def test_fast_batch_makes_no_bound_calls(desk_scenario, monkeypatch):
    calls = []
    real = JointUpdate.__call__

    def counted(self, x, out=None):
        calls.append(len(x))
        return real(self, x, out)

    # the solve's loop steps the update bound to its batch
    monkeypatch.setattr(JointUpdate, "__call__", counted)
    # every row converges before the first check, so no call computes the
    # bound; the updates run to the end of the first block, at step 16
    batch = _batch(desk_scenario, 2)
    sol = solve(Algorithm.OPCEH, batch, give_up=True)
    assert sol.iterations_used.max() < 16
    assert len(calls) == 16


def _thompson_steps(states, lag):
    """max_i |log(x_t,i / x_{t-lag},i)| along a trajectory, over positive components."""
    live = np.all(states > 0, axis=0)
    assert np.all(states[:, ~live] == 0)
    ratio = states[lag:, live] / states[:-lag, live]
    return np.abs(np.log(ratio)).max(axis=-1)


@pytest.mark.parametrize("alg", list(Algorithm))
def test_updates_do_not_expand_the_thompson_metric(desk_scenario, paper_scenario, alg):
    paper, desk = paper_scenario, desk_scenario
    snaps = [
        snapshot_from_scenario(desk_scenario),
        snapshot_from_scenario(paper_scenario),
        sample_batch(paper.cfg, paper.hbs, paper.ue_template, 4).rows(3),
        *(sample_batch(desk.cfg, desk.hbs, desk.ue_template, sid + 1).rows(sid)
          for sid in (0, 57, 118)),
    ]
    for snap in snaps:
        trace = run_fixed_point(alg, snap)
        # from step 1 on, components that are identically 0 stay at 0
        states = trace.states[1:]
        for lag in (1, 2):
            distances = _thompson_steps(states, lag)
            assert np.all(np.diff(distances) <= 1e-12)
