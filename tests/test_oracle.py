import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from fdpowerctl import channel, oracle
from fdpowerctl.channel import sample_batch, snapshot_from_scenario
from fdpowerctl.core import Algorithm, joint_update, metrics, required_hbs_power, state_caps
from fdpowerctl.engine import run_fixed_point, solve
from fdpowerctl.oracle import (
    alpha_coefficients,
    check_fixed_point_uniqueness,
    check_harvest_power_tightness,
    check_two_sided_scalable,
    check_update_form_equivalence,
    fast_lipschitz_report,
    min_power_optimum,
    transformed_joint_update,
    verify_min_power_optimality,
)

from conftest import make_desk_snapshot, make_single_ue_snapshot
from scalar_reference import (
    scalar_brute_force_min_power,
    scalar_fixed_point_uniqueness,
    scalar_harvest_power_tightness,
    scalar_two_sided_scalable,
    scalar_update_form_equivalence,
)


# ---------------------------------------------------------------------------
# minimum-power optimum: the closed form against a linear program


def _stack(snaps):
    """One batch whose row s is the (K,) snapshot snaps[s]."""
    return dataclasses.replace(
        snaps[0], **{name: np.stack([getattr(s, name) for s in snaps]) for name in channel._ARRAYS}
    )


def _scenario_batch(scenario, k, n):
    cfg = dataclasses.replace(scenario.cfg, num_ues=k)
    return sample_batch(cfg, scenario.hbs, scenario.ue_template, n)


def linprog_min_power(snap):
    """Minimum transmit power (sum p_u + p_h) / eps of one (K,) snapshot by
    HiGHS, or None when infeasible.

    The SINR, harvest and cap constraints are linear in (p_u, p_h). In watts
    the powers (down to 1e-10 W) sit below HiGHS's absolute tolerances, so the
    program is posed in u_k = h_k p_k / sigma2 and q = p_h / max_i p_min,i,
    with the objective scaled to a largest coefficient of 1 and both
    feasibility tolerances at 1e-10.
    """
    cfg = snap.cfg
    k = snap.num_ues
    s2, eps = cfg.sigma2, cfg.epsilon
    scale = snap.p_min.max() if snap.p_min.max() > 0.0 else snap.hbs.p_bar_h
    gt = snap.gamma_target
    # SINR: gamma_i (sum_{j != i} u_j + delta scale q / sigma2 + 1) <= u_i
    sinr = np.zeros((k, k + 1))
    sinr[:, :k] = gt[:, None]
    sinr[np.arange(k), np.arange(k)] = -1.0
    sinr[:, k] = gt * cfg.delta * scale / s2
    # harvest: sigma2 u_i / (h_i eps mu_i g_i) + p_min,i <= scale q
    harvest = np.zeros((k, k + 1))
    harvest[np.arange(k), np.arange(k)] = s2 / (snap.h * eps * snap.mu * snap.g * scale)
    harvest[:, k] = -1.0
    weights = np.append(s2 / (snap.h * eps), scale / eps)
    top = weights.max()
    res = linprog(
        weights / top,
        A_ub=np.vstack([sinr, harvest]),
        b_ub=np.concatenate([-gt, -snap.p_min / scale]),
        bounds=[(0.0, c) for c in np.append(snap.h * snap.p_bar_u / s2, snap.hbs.p_bar_h / scale)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status in (0, 2), res.message
    return res.fun * top if res.status == 0 else None


def _assert_matches_linprog(batch):
    optimum = min_power_optimum(batch)
    for i in range(len(batch)):
        expected = linprog_min_power(batch.rows(i))
        assert bool(optimum.feasible[i]) is (expected is not None), i
        if expected is not None:
            # the part of the aggregate power the powers control
            actual = optimum.x[i].sum() / batch.cfg.epsilon
            assert actual == pytest.approx(expected, rel=1e-12, abs=0.0), i
    return optimum


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
@pytest.mark.parametrize("config", ["desk", "paper"])
def test_closed_form_matches_linprog(config, k, desk_scenario, paper_scenario):
    scenario = desk_scenario if config == "desk" else paper_scenario
    batch = _scenario_batch(scenario, k, 20)
    optimum = _assert_matches_linprog(batch)
    if config == "desk":
        assert optimum.feasible.any()
    else:
        # some UE's circuit alone needs more than the harvest peak
        assert not optimum.feasible.any()
        assert (batch.p_min.max(axis=-1) > batch.hbs.p_bar_h).all()


EDGE_SNAPSHOTS = {
    # every UE off: the optimum is the circuit power alone
    "zero-targets": make_desk_snapshot([10.0, 20.0], gamma_default=0.0,
                                       ue_p_dyn=0.0, ue_p_sta=0.0),
    # sum_i gamma_i / (1 + gamma_i) >= 1: no uplink powers meet every target
    "infeasible-target": make_desk_snapshot([10.0, 12.0], gamma_default=1e9),
    "k3-one-zero-target": make_desk_snapshot([9.0, 26.0, 31.0], gamma_targets=[0.04, 0.0, 0.08]),
    # the residual self-interference feeds back more than it harvests
    "self-interference": make_desk_snapshot([30.0, 12.0], delta=1e-9),
    # the optimum needs more harvest power than the peak
    "harvest-cap": make_desk_snapshot([30.0, 12.0], p_bar_h=1.0),
    # the optimum needs more uplink power than the cap
    "uplink-cap": make_desk_snapshot([30.0, 12.0], p_bar_u=1e-9),
}
EDGE_FAILING = {
    "zero-targets": "", "infeasible-target": "sum_c", "k3-one-zero-target": "",
    "self-interference": "self_interference", "harvest-cap": "cap", "uplink-cap": "cap",
}


@pytest.mark.parametrize("name", sorted(EDGE_SNAPSHOTS))
def test_closed_form_edge_cases_match_linprog(name):
    snap = EDGE_SNAPSHOTS[name]
    optimum = _assert_matches_linprog(snap.repeated())
    assert optimum.failing.tolist() == [EDGE_FAILING[name]]


def test_closed_form_zero_targets_zero_circuit():
    snap = EDGE_SNAPSHOTS["zero-targets"]
    optimum = min_power_optimum(snap)
    assert optimum.feasible
    np.testing.assert_array_equal(optimum.x, [0.0, 0.0, 0.0])
    assert optimum.objective == snap.hbs.p_cir


def test_closed_form_infeasible_target():
    optimum = min_power_optimum(EDGE_SNAPSHOTS["infeasible-target"])
    assert optimum.failing == "sum_c"
    assert np.isnan(optimum.objective)


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
def test_closed_form_matches_fixed_point(k, desk_scenario):
    batch = _scenario_batch(desk_scenario, k, 20)
    optimum = min_power_optimum(batch)
    ok = optimum.feasible
    # with many UEs the self-interference condition fails on some rows
    assert ok.all() if k <= 10 else ok.any()
    sol = solve(Algorithm.TPCEH, batch.rows(ok), tol=1e-13, max_iter=50000)
    assert sol.converged.all()
    np.testing.assert_allclose(optimum.x[ok], sol.fixed_point, rtol=1e-10, atol=0.0)


def test_closed_form_matches_iteration():
    snap = make_desk_snapshot([30.0])
    optimum = min_power_optimum(snap)
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-13)
    np.testing.assert_allclose(optimum.x, trace.fixed_point, rtol=1e-9)
    objective = metrics(trace.fixed_point, snap).aggregate_power
    assert optimum.objective == pytest.approx(objective, rel=1e-9)


def test_closed_form_single_ue_matches_two_by_two_solve():
    # one UE: both constraints tight give p_u = gamma (delta p_h + sigma2) / h
    # and p_h = p_u / (eps mu g) + p_min, a 2x2 linear system
    snap = make_desk_snapshot([25.0])
    cfg = snap.cfg
    h, mu, gt, p_min = snap.h[0], snap.mu[0], snap.gamma_target[0], snap.p_min[0]
    c = gt * cfg.delta / (h * cfg.epsilon * mu * h)
    p_u = gt * (cfg.delta * p_min + cfg.sigma2) / (h * (1.0 - c))
    p_h = p_u / (cfg.epsilon * mu * h) + p_min
    np.testing.assert_allclose(min_power_optimum(snap).x, [p_u, p_h], rtol=1e-14)


# ---------------------------------------------------------------------------
# minimum-power optimum: the closed form against a grid search


def _assert_grid_bounds_optimum(snap, grid, rel_gap):
    """The grid's best point is feasible, so it lies above the optimum (up to
    the grid's 1e-9 constraint slack), and within rel_gap of it."""
    optimum = min_power_optimum(snap)
    assert grid.infeasible is not bool(optimum.feasible)
    if grid.infeasible:
        assert grid.best_power_vector is None
        return None
    gap = (grid.best_objective - optimum.objective) / optimum.objective
    assert -1e-9 <= gap <= rel_gap
    return gap


def test_brute_force_single_ue_matches_closed_form():
    snap = make_desk_snapshot([25.0])
    _assert_grid_bounds_optimum(snap, scalar_brute_force_min_power(snap), 0.005)


def test_optimality_gap_shrinks_with_resolution():
    snap = make_desk_snapshot([14.0, 27.0])
    gaps = [
        _assert_grid_bounds_optimum(
            snap, scalar_brute_force_min_power(snap, grid_points_per_dim=n, refine_rounds=2), 1.0
        )
        for n in (12, 24, 48)
    ]
    assert gaps[2] <= gaps[0] * (1 + 1e-9)
    assert gaps[2] <= 0.01


def test_brute_force_incumbent_non_increasing():
    snap = make_desk_snapshot([18.0, 33.0])
    objs = scalar_brute_force_min_power(snap).round_objectives
    assert all(b <= a * (1 + 1e-12) for a, b in zip(objs, objs[1:]))


# the grid's optimum sits above the exact one by about its resolution
GRID_GAP = {64: 1e-3, 20: 0.05, 16: 0.05}


@pytest.mark.parametrize("config,k,snapshot_id,points,feasible", [
    ("desk", 1, 0, 64, True),
    ("desk", 2, 0, 64, True),
    ("desk", 2, 3, 64, True),
    ("desk", 3, 1, 20, True),
    ("paper", 2, 0, 64, False),
    ("paper", 3, 0, 20, False),
])
def test_brute_force_matches_scalar_reference(
    config, k, snapshot_id, points, feasible, desk_scenario, paper_scenario
):
    scenario = desk_scenario if config == "desk" else paper_scenario
    snap = _scenario_snapshot(scenario, k, snapshot_id)
    grid = scalar_brute_force_min_power(snap, points)
    assert grid.infeasible is not feasible
    _assert_grid_bounds_optimum(snap, grid, GRID_GAP[points])


@pytest.mark.parametrize("name", ["zero-targets", "infeasible-target", "k3-one-zero-target"])
def test_brute_force_edge_cases_match_scalar_reference(name):
    snap = EDGE_SNAPSHOTS[name]
    grid = scalar_brute_force_min_power(snap, grid_points_per_dim=16, refine_rounds=2)
    _assert_grid_bounds_optimum(snap, grid, GRID_GAP[16])
    if name == "zero-targets":
        # every UE off ties on the objective with the closed form exactly
        np.testing.assert_array_equal(grid.best_power_vector, min_power_optimum(snap).x)


# ---------------------------------------------------------------------------
# the optimality claim


def test_optimality_two_ue_gap_within_one_percent():
    rng = np.random.default_rng(5)
    batch = _stack([make_desk_snapshot(list(rng.uniform(3.0, 35.0, size=2))) for _ in range(5)])
    rep = verify_min_power_optimality(batch, rel_tol=0.01)
    assert rep.optimum.feasible.all()
    assert (rep.gap <= 0.01).all()
    assert rep.passed.all()      # on a feasible row: every constraint met, too


def test_optimality_infeasible_consistency():
    # targets too high for the power caps: oracle and iteration must agree
    snap = make_desk_snapshot([30.0, 31.0], gamma_default=1e9,
                              p_bar_u=1e-3, p_bar_h=1e-3)
    rep = verify_min_power_optimality(snap.repeated(), rel_tol=0.01)
    assert rep.optimum.failing.tolist() == ["sum_c"]
    assert rep.passed.all()   # both sides report infeasibility


@pytest.mark.parametrize("config", ["desk", "paper"])
def test_optimality_rows_match_single_solves(config, desk_scenario, paper_scenario):
    scenario = desk_scenario if config == "desk" else paper_scenario
    batch = _scenario_batch(scenario, 3, 6)
    rep = verify_min_power_optimality(batch, rel_tol=0.01)
    for i in range(len(batch)):
        row = batch.rows(i)
        trace = run_fixed_point(Algorithm.TPCEH, row, tol=1e-12, max_iter=20000)
        mx = trace.metrics
        objective = rep.optimum.objective[i]
        gap = abs(mx.aggregate_power[-1] - objective) / objective
        np.testing.assert_array_equal(rep.gap[i], gap)      # NaN where infeasible
        met = mx.energy_feasible[-1].all() and not mx.outage[-1].any()
        feasible = rep.optimum.feasible[i]
        assert rep.passed[i] == (gap <= 0.01 and met if feasible else not met)
    assert rep.passed.all()


# ---------------------------------------------------------------------------
# two-sided scalability


def test_scalable_degenerate_sandwich():
    snap = make_desk_snapshot([20.0, 25.0])
    p = np.array([1e-5, 1e-4, 2.0])
    for alg in (Algorithm.TPCEH, Algorithm.OPCEH):
        f = joint_update(alg, p, snap)
        a = 5.0
        assert np.all(f / a <= f) and np.all(f <= f * a)


@pytest.mark.parametrize("alg", [Algorithm.TPCEH, Algorithm.OPCEH])
def test_scalable_randomized(alg, rng):
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    rep = check_two_sided_scalable(snap, alg, trials=2000, rng=rng)
    assert rep.passed, rep.counterexample
    assert rep.violations == 0


# ---------------------------------------------------------------------------
# fast-Lipschitz qualification


def test_alpha_positive_and_formula():
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    alpha = alpha_coefficients(snap)
    assert np.all(alpha > 0)
    gt = snap.gamma_target
    manual = gt / ((1 + gt) * 0.2 * snap.h * snap.g * snap.mu)
    np.testing.assert_allclose(alpha, manual, rtol=1e-15)


def test_fl_gradient_matches_finite_differences():
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    at = solve(Algorithm.TPCEH, snap.repeated(), tol=1e-10, max_iter=20000).fixed_point[0]
    rep = fast_lipschitz_report(snap, at)
    y0 = -at
    K = snap.num_ues
    fd = np.zeros((K + 1, K + 1))
    for i in range(K + 1):
        hstep = max(abs(y0[i]), 1e-6) * 1e-6
        up = y0.copy(); up[i] += hstep
        dn = y0.copy(); dn[i] -= hstep
        fd[i, :] = (
            transformed_joint_update(up, snap) - transformed_joint_update(dn, snap)
        ) / (2 * hstep)

    # no cap binds here, so the update is the constraint stack itself
    assert np.all(transformed_joint_update(y0, snap) < state_caps(snap))
    scale = np.maximum(np.abs(rep.grad), 1e-30)
    rel = np.abs(fd - rep.grad) / scale
    assert rel.max() < 1e-6


def test_fl_report_fields():
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    rep = fast_lipschitz_report(snap)
    assert rep.grad_nonneg
    assert rep.grad_norm_inf > 0
    assert rep.qualifies == (rep.grad_norm_inf < 1.0)
    # the harvest constraint's column is that of one UE's harvest term
    assert any((rep.grad[:5, 5] == rep.alpha[i] * snap.h).all() for i in range(5))


def test_fl_vanishing_targets_qualify():
    snap = make_desk_snapshot([20.0, 30.0], gamma_default=1e-9)
    rep = fast_lipschitz_report(snap, at=np.array([1e-9, 1e-9, 1.0]))
    assert rep.grad_norm_inf < 1.0
    assert rep.qualifies


# ---------------------------------------------------------------------------
# update-form equivalence


def test_equivalence_single_ue_forms_agree_at_fixed_point():
    snap = make_single_ue_snapshot(h=1e-3, mu=0.5, epsilon=0.2, p_cir=1e-6,
                                   sigma2=1e-14, gamma_target=0.05, delta=0.0)
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-13)
    fp = trace.fixed_point
    again = transformed_joint_update(fp, snap)
    np.testing.assert_allclose(again, fp, rtol=1e-12)


def test_equivalence_zero_target_both_zero():
    snap = make_desk_snapshot([15.0], gamma_default=0.0)
    p = np.array([0.123, 1.0])
    plain = joint_update(Algorithm.TPCEH, p, snap)
    ratio = transformed_joint_update(p, snap)
    assert plain[0] == 0.0
    assert ratio[0] == 0.0


def test_equivalence_random_inits(rng):
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    rep = check_update_form_equivalence(snap.repeated(), trials=5, rng=rng)
    assert rep.passed.tolist() == [True]      # the cross evaluation within 1e-12, too
    assert rep.max_fixed_point_gap[0] <= 1e-9


# ---------------------------------------------------------------------------
# harvest-power tightness and uniqueness


def test_tightness_ok_on_feasible_snapshot():
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-12)
    rep = check_harvest_power_tightness(trace.fixed_point[None], snap.repeated())
    assert rep.passed.tolist() == [True]
    assert not rep.cap_binding.any()
    # the argmax UE is exactly tight by construction of the update
    required = required_hbs_power(trace.fixed_point[:-1], snap)
    assert int(np.argmax(required)) == 0     # farthest UE dominates here
    assert abs(trace.fixed_point[-1] - required[0]) <= 1e-9 * required[0]


def test_tightness_skips_cap_binding(paper_scenario):
    snap = snapshot_from_scenario(paper_scenario)
    trace = run_fixed_point(Algorithm.TPCEH, snap)
    rep = check_harvest_power_tightness(trace.fixed_point[None], snap.repeated())
    assert rep.cap_binding.tolist() == [True]
    assert rep.passed.all()


def test_tightness_unmet_check_uses_rel_tol():
    snap = make_desk_snapshot([20.0, 30.0])
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-12)
    trace.fixed_point[-1] *= 1.0 - 1e-6   # every requirement missed by 1 ppm
    x, batch = trace.fixed_point[None], snap.repeated()
    loose = check_harvest_power_tightness(x, batch, rel_tol=1e-3)
    assert loose.passed.tolist() == [True]
    strict = check_harvest_power_tightness(x, batch)
    assert strict.passed.tolist() == [False]


def test_tightness_flags_violation():
    snap = make_desk_snapshot([20.0, 30.0])
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-12)
    trace.fixed_point[-1] *= 0.5    # corrupt the harvest power
    rep = check_harvest_power_tightness(trace.fixed_point[None], snap.repeated())
    assert rep.passed.tolist() == [False]
    assert not rep.cap_binding.any()


@pytest.mark.parametrize("alg", [Algorithm.TPCEH, Algorithm.OPCEH])
def test_uniqueness_across_random_inits(alg, rng):
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    rep = check_fixed_point_uniqueness(snap.repeated(), [alg], n_inits=6, rng=rng)
    assert rep.passed.tolist() == [[True]]
    assert rep.max_spread[0, 0] <= 1e-6


# ---------------------------------------------------------------------------
# batched oracle against the one-at-a-time references


def _scenario_snapshot(scenario, k, snapshot_id=0):
    return _scenario_batch(scenario, k, snapshot_id + 1).rows(snapshot_id)


@pytest.mark.parametrize("rel_slack", [1e-12, -1e-3, -0.5])
@pytest.mark.parametrize("alg", list(Algorithm))
@pytest.mark.parametrize("k", [1, 2, 5])
def test_sandwich_matches_scalar_reference(k, alg, rel_slack, desk_scenario):
    snap = _scenario_snapshot(desk_scenario, k)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    rep = check_two_sided_scalable(snap, alg, 300, rng, rel_slack)
    ref = scalar_two_sided_scalable(snap, alg, 300, ref_rng, rel_slack)
    assert rep == ref
    # the next check draws from the same generator
    assert rng.random() == ref_rng.random()
    if rel_slack == -0.5:
        assert rep.violations > 0
        assert type(rep.counterexample["a"]) is float


@pytest.mark.parametrize("rel_slack", [1e-12, -0.5])
@pytest.mark.parametrize("alg", list(Algorithm))
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_sandwich_runs_ue_major_with_row_major_bits(k, alg, rel_slack, desk_scenario,
                                                    monkeypatch):
    # the sandwich states come UE-major, so the update runs on contiguous
    # columns; the updates, and so the report, are those of row-major states
    snap = _scenario_snapshot(desk_scenario, k)
    base, _, other = oracle._sandwich_draws(state_caps(snap), 500, np.random.default_rng(7))
    assert base.flags.f_contiguous and other.flags.f_contiguous
    batch = snap.repeated(500)
    for p in (base, other):
        ue_major = joint_update(alg, p, batch)
        assert ue_major.flags.f_contiguous
        assert ue_major.tobytes() == joint_update(alg, np.ascontiguousarray(p), batch).tobytes()
    report = check_two_sided_scalable(snap, alg, 500, np.random.default_rng(7), rel_slack)
    draws = oracle._sandwich_draws
    monkeypatch.setattr(oracle, "_sandwich_draws", lambda *args: tuple(
        np.ascontiguousarray(d) for d in draws(*args)
    ))
    assert check_two_sided_scalable(snap, alg, 500, np.random.default_rng(7), rel_slack) == report


@pytest.mark.parametrize("k", [1, 2, 5, 20])
@pytest.mark.parametrize("seed", [0, 7, 2018])
def test_sandwich_scale_is_one_python_power_per_trial(seed, k):
    # numpy's vectorised power differs from Python's scalar one in the last
    # bit for some exponents, so a vectorised a would change the reports
    trials = 400
    _, a, _ = oracle._sandwich_draws(np.ones(k + 1), trials, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    expected = []
    for _ in range(trials):
        rng.uniform(-14.0, 0.0, size=k + 1)
        expected.append(10.0 ** rng.uniform(1e-3, 1.0))
        rng.uniform(-1.0, 1.0, size=k + 1)
    assert a.shape == (trials, 1)
    assert a[:, 0].tobytes() == np.array(expected).tobytes()


def test_sandwich_zero_trials(desk_scenario):
    snap = _scenario_snapshot(desk_scenario, 2)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    rep = check_two_sided_scalable(snap, Algorithm.TPCEH, 0, rng)
    assert rep == scalar_two_sided_scalable(snap, Algorithm.TPCEH, 0, ref_rng)
    assert rng.random() == ref_rng.random()


def _assert_row_matches(rep, index, ref, fields):
    """Entry `index` of each of the batched report's fields equals the
    reference record's field; NaN matches NaN."""
    for field in fields:
        value, expected = getattr(rep, field)[index], getattr(ref, field)
        assert value == expected or (value != value and expected != expected), (
            field, index, value, expected)


UNIQUENESS_FIELDS = ("passed", "max_spread")
EQUIVALENCE_FIELDS = ("passed", "max_fixed_point_gap")
TIGHTNESS_FIELDS = ("cap_binding", "passed")
VERIFY_ALGORITHMS = (Algorithm.TPCEH, Algorithm.OPCEH)


@pytest.fixture
def scenarios(desk_scenario, paper_scenario):
    return {"desk": desk_scenario, "paper": paper_scenario}


@pytest.mark.parametrize("snapshots", [1, 3, 10])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("config", ["desk", "paper"])
def test_uniqueness_matches_scalar_reference(config, k, snapshots, scenarios):
    batch = _scenario_batch(scenarios[config], k, snapshots)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    rep = check_fixed_point_uniqueness(batch, VERIFY_ALGORITHMS, 10, rng)
    refs = scalar_fixed_point_uniqueness(batch, VERIFY_ALGORITHMS, 10, ref_rng)
    assert rep.passed.shape == (snapshots, 2)
    for s in range(snapshots):
        for a in range(2):
            _assert_row_matches(rep, (s, a), refs[s][a], UNIQUENESS_FIELDS)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("k", [2, 5])
def test_uniqueness_any_algorithms_match_scalar_reference(k, desk_scenario):
    # the half-duplex algorithms start with no harvest signal
    batch = _scenario_batch(desk_scenario, k, 3)
    algs = (Algorithm.OPC, Algorithm.TPCEH, Algorithm.TPC)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    rep = check_fixed_point_uniqueness(batch, algs, 4, rng)
    refs = scalar_fixed_point_uniqueness(batch, algs, 4, ref_rng)
    for s in range(3):
        for a in range(3):
            _assert_row_matches(rep, (s, a), refs[s][a], UNIQUENESS_FIELDS)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("trials", [999, 10000])
@pytest.mark.parametrize("snapshots", [1, 3, 10])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("config", ["desk", "paper"])
def test_equivalence_matches_scalar_reference(config, k, snapshots, trials, scenarios):
    batch = _scenario_batch(scenarios[config], k, snapshots)
    per_snapshot = max(1, trials // 1000)     # as `verify --trials` sets it
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    rep = check_update_form_equivalence(batch, per_snapshot, rng)
    refs = scalar_update_form_equivalence(batch, per_snapshot, ref_rng)
    for s in range(snapshots):
        _assert_row_matches(rep, s, refs[s], EQUIVALENCE_FIELDS)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("snapshots", [1, 3, 10])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("config", ["desk", "paper"])
def test_tightness_matches_scalar_reference(config, k, snapshots, scenarios):
    batch = _scenario_batch(scenarios[config], k, snapshots)
    x = solve(Algorithm.TPCEH, batch).fixed_point
    # every other fixed point misses its requirements by 1 ppm
    x[1::2, -1] *= 1.0 - 1e-6
    for rel_tol in (1e-9, 1e-3):
        rep = check_harvest_power_tightness(x, batch, rel_tol)
        refs = scalar_harvest_power_tightness(x, batch, rel_tol)
        for s in range(snapshots):
            _assert_row_matches(rep, s, refs[s], TIGHTNESS_FIELDS)
            # one state on one snapshot gives the same verdict
            one = check_harvest_power_tightness(x[s], batch.rows(s), rel_tol)
            _assert_row_matches(one, (), refs[s], TIGHTNESS_FIELDS)


def _starve(monkeypatch, name, snap):
    """Make the oracle's `name` (solve or iterate) stop the rows of the (K,)
    snapshot `snap` after one step, and run every other row as before."""
    real = getattr(oracle, name)

    def starved(first, batch, p_init, tol, max_iter):
        sol = real(first, batch, p_init, tol, max_iter)
        rows = np.flatnonzero((batch.g == snap.g).all(axis=-1))
        short = real(first, batch.rows(rows), p_init[rows], tol, 1)
        for field in dataclasses.fields(sol):
            getattr(sol, field.name)[rows] = getattr(short, field.name)
        return sol

    monkeypatch.setattr(oracle, name, starved)


def test_uniqueness_unconverged_snapshot_fails_alone(monkeypatch, desk_scenario):
    batch = _scenario_batch(desk_scenario, 2, 3)
    refs = scalar_fixed_point_uniqueness(batch, VERIFY_ALGORITHMS, 10,
                                         np.random.default_rng(7))
    _starve(monkeypatch, "solve", batch.rows(1))
    rep = check_fixed_point_uniqueness(batch, VERIFY_ALGORITHMS, 10, np.random.default_rng(7))
    assert rep.passed.tolist() == [[True, True], [False, False], [True, True]]
    for s in (0, 2):
        for a in range(2):
            _assert_row_matches(rep, (s, a), refs[s][a], UNIQUENESS_FIELDS)


def test_equivalence_unconverged_snapshot_fails_alone(monkeypatch, desk_scenario):
    batch = _scenario_batch(desk_scenario, 2, 3)
    refs = scalar_update_form_equivalence(batch, 4, np.random.default_rng(7))
    _starve(monkeypatch, "iterate", batch.rows(1))
    rep = check_update_form_equivalence(batch, 4, np.random.default_rng(7))
    assert rep.passed.tolist() == [True, False, True]
    for s in (0, 2):
        _assert_row_matches(rep, s, refs[s], EQUIVALENCE_FIELDS)
