import dataclasses

import numpy as np
import pytest

from fdpowerctl.channel import sample_batch, snapshot_from_scenario
from fdpowerctl.core import Algorithm, joint_update
from fdpowerctl.engine import run_fixed_point
from fdpowerctl.oracle import (
    aggregate_power,
    alpha_coefficients,
    brute_force_min_power,
    check_fixed_point_uniqueness,
    check_harvest_power_tightness,
    check_two_sided_scalable,
    check_update_form_equivalence,
    closed_form_single_ue,
    fast_lipschitz_report,
    fl_constraint_stack,
    transformed_joint_update,
    verify_min_power_optimality,
)

from conftest import make_desk_snapshot, make_single_ue_snapshot
from scalar_reference import scalar_brute_force_min_power, scalar_two_sided_scalable


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_refuses_large_k():
    snap = make_desk_snapshot([10, 20, 30, 15])
    with pytest.raises(ValueError):
        brute_force_min_power(snap)


def test_brute_force_zero_targets_zero_circuit():
    snap = make_desk_snapshot([10.0, 20.0], gamma_default=0.0,
                              ue_p_dyn=0.0, ue_p_sta=0.0)
    res = brute_force_min_power(snap, grid_points_per_dim=16, refine_rounds=1)
    assert not res.infeasible
    # optimum is everything off: objective is the HBS circuit power alone
    assert res.best_objective == pytest.approx(snap.hbs.p_cir, rel=1e-12)
    np.testing.assert_array_equal(res.best_power_vector[:-1], [0.0, 0.0])
    assert res.best_power_vector[-1] == 0.0


def test_brute_force_infeasible_target():
    snap = make_desk_snapshot([10.0, 12.0], gamma_default=1e9)
    res = brute_force_min_power(snap, grid_points_per_dim=16, refine_rounds=1)
    assert res.infeasible
    assert res.best_power_vector is None


def test_brute_force_single_ue_matches_closed_form():
    snap = make_desk_snapshot([25.0])
    closed = closed_form_single_ue(snap)
    assert closed is not None
    _, obj = closed
    res = brute_force_min_power(snap)
    assert not res.infeasible
    assert abs(res.best_objective - obj) / obj < 0.005


def test_brute_force_incumbent_non_increasing():
    snap = make_desk_snapshot([18.0, 33.0])
    res = brute_force_min_power(snap)
    objs = res.round_objectives
    assert all(b <= a * (1 + 1e-12) for a, b in zip(objs, objs[1:]))


def test_closed_form_matches_iteration():
    snap = make_desk_snapshot([30.0])
    p, obj = closed_form_single_ue(snap)
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-13)
    assert p[0] == pytest.approx(trace.fixed_point[0], rel=1e-9)
    assert p[-1] == pytest.approx(trace.fixed_point[-1], rel=1e-9)
    assert obj == pytest.approx(aggregate_power(trace.fixed_point, snap), rel=1e-9)


def test_optimality_two_ue_gap_within_one_percent():
    rng = np.random.default_rng(5)
    for _ in range(5):
        d = rng.uniform(3.0, 35.0, size=2)
        snap = make_desk_snapshot(list(d))
        rep = verify_min_power_optimality(snap, rel_tol=0.01)
        assert not rep.infeasible
        assert rep.constraints_ok
        assert rep.gap <= 0.01
        assert rep.passed


def test_optimality_infeasible_consistency():
    # targets too high for the power caps: oracle and iteration must agree
    snap = make_desk_snapshot([30.0, 31.0], gamma_default=1e9,
                              p_bar_u=1e-3, p_bar_h=1e-3)
    rep = verify_min_power_optimality(snap, rel_tol=0.01,
                                      grid_points_per_dim=16, refine_rounds=1)
    assert rep.infeasible
    assert rep.passed   # both sides report infeasibility


def test_optimality_gap_shrinks_with_resolution():
    snap = make_desk_snapshot([14.0, 27.0])
    gaps = [
        verify_min_power_optimality(snap, rel_tol=1.0,
                                    grid_points_per_dim=n, refine_rounds=2).gap
        for n in (12, 24, 48)
    ]
    assert gaps[2] <= gaps[0] * (1 + 1e-9)
    assert gaps[2] <= 0.01


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
# constraint-stack gradient


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
    rep = fast_lipschitz_report(snap)
    y0 = rep.eval_point
    K = snap.num_ues
    fd = np.zeros((K + 1, K + 1))
    for i in range(K + 1):
        hstep = max(abs(y0[i]), 1e-6) * 1e-6
        up = y0.copy(); up[i] += hstep
        dn = y0.copy(); dn[i] -= hstep
        fd[i, :] = (fl_constraint_stack(up, snap) - fl_constraint_stack(dn, snap)) / (2 * hstep)

    grad = np.zeros((K + 1, K + 1))
    c = snap.gamma_target / ((1 + snap.gamma_target) * snap.h)
    alpha = alpha_coefficients(snap)
    grad[:K, :K] = np.outer(snap.h, c)
    grad[K, :K] = snap.cfg.delta * c
    grad[:K, K] = alpha[rep.active_index] * snap.h
    grad[K, K] = alpha[rep.active_index] * snap.cfg.delta

    scale = np.maximum(np.abs(grad), 1e-30)
    rel = np.abs(fd - grad) / scale
    assert rel.max() < 1e-6


def test_fl_report_fields():
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    rep = fast_lipschitz_report(snap)
    assert rep.grad_f0_positive
    assert rep.grad_nonneg
    assert rep.grad_norm_inf > 0
    assert rep.grad_norm_rowsum > 0
    assert rep.qualifies == (rep.grad_norm_inf < 1.0)
    assert 0 <= rep.active_index < 5


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
    rep = check_update_form_equivalence(snap, trials=5, rng=rng)
    assert rep.passed, rep.counterexample
    assert rep.max_fixed_point_gap <= 1e-9
    assert rep.max_cross_eval_gap <= 1e-12


# ---------------------------------------------------------------------------
# harvest-power tightness and uniqueness


def test_tightness_ok_on_feasible_snapshot():
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-12)
    rep = check_harvest_power_tightness(trace, snap)
    assert rep.status == "ok"
    assert rep.passed
    assert rep.rel_gap <= 1e-9
    # the argmax UE is exactly tight by construction of the update
    assert rep.argmax_ue == 0     # farthest UE dominates here


def test_tightness_skips_cap_binding(paper_scenario):
    snap = snapshot_from_scenario(paper_scenario)
    trace = run_fixed_point(Algorithm.TPCEH, snap)
    rep = check_harvest_power_tightness(trace, snap)
    assert rep.status == "cap_binding"
    assert rep.passed


def test_tightness_unmet_check_uses_rel_tol():
    snap = make_desk_snapshot([20.0, 30.0])
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-12)
    trace.fixed_point[-1] *= 1.0 - 1e-6   # every requirement missed by 1 ppm
    loose = check_harvest_power_tightness(trace, snap, rel_tol=1e-3)
    assert loose.status == "ok"
    strict = check_harvest_power_tightness(trace, snap)
    assert strict.status == "violated"
    assert strict.offending_ue == strict.argmax_ue


def test_tightness_flags_violation():
    snap = make_desk_snapshot([20.0, 30.0])
    trace = run_fixed_point(Algorithm.TPCEH, snap, tol=1e-12)
    trace.fixed_point[-1] *= 0.5    # corrupt the harvest power
    rep = check_harvest_power_tightness(trace, snap)
    assert rep.status == "violated"
    assert not rep.passed
    assert rep.offending_ue is not None


@pytest.mark.parametrize("alg", [Algorithm.TPCEH, Algorithm.OPCEH])
def test_uniqueness_across_random_inits(alg, rng):
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    rep = check_fixed_point_uniqueness(snap, alg, n_inits=6, rng=rng)
    assert rep.passed
    assert rep.max_spread <= 1e-6


# ---------------------------------------------------------------------------
# batched oracle against the one-at-a-time references


def _scenario_snapshot(scenario, k, snapshot_id=0):
    cfg = dataclasses.replace(scenario.cfg, num_ues=k)
    return sample_batch(cfg, scenario.hbs, scenario.ue_template, snapshot_id + 1).rows(snapshot_id)


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


def test_sandwich_zero_trials(desk_scenario):
    snap = _scenario_snapshot(desk_scenario, 2)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    rep = check_two_sided_scalable(snap, Algorithm.TPCEH, 0, rng)
    assert rep == scalar_two_sided_scalable(snap, Algorithm.TPCEH, 0, ref_rng)
    assert rng.random() == ref_rng.random()


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
    res = brute_force_min_power(snap, points)
    assert res.infeasible is not feasible
    _assert_same_brute_force(res, scalar_brute_force_min_power(snap, points))


@pytest.mark.parametrize("snap", [
    # every point with zero uplink power ties on the objective
    make_desk_snapshot([10.0, 20.0], gamma_default=0.0, ue_p_dyn=0.0, ue_p_sta=0.0),
    make_desk_snapshot([10.0, 12.0], gamma_default=1e9),
    make_desk_snapshot([9.0, 26.0, 31.0], gamma_targets=[0.04, 0.0, 0.08]),
], ids=["zero-targets", "infeasible-target", "k3-one-zero-target"])
def test_brute_force_edge_cases_match_scalar_reference(snap):
    res = brute_force_min_power(snap, grid_points_per_dim=16, refine_rounds=2)
    ref = scalar_brute_force_min_power(snap, grid_points_per_dim=16, refine_rounds=2)
    _assert_same_brute_force(res, ref)


def _assert_same_brute_force(res, ref):
    for f in dataclasses.fields(res):
        if f.name != "best_power_vector":
            assert getattr(res, f.name) == getattr(ref, f.name), f.name
    if ref.best_power_vector is None:
        assert res.best_power_vector is None
    else:
        assert res.best_power_vector.tobytes() == ref.best_power_vector.tobytes()
