import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpowerctl import channel
from fdpowerctl.channel import sample_batch
from fdpowerctl.core import (
    Algorithm,
    JointUpdate,
    Metrics,
    hbs_update,
    joint_update,
    metrics,
    required_hbs_power,
    sinr,
    state_caps,
    ue_max,
    ue_sum,
)
from fdpowerctl.engine import run_fixed_point

from conftest import make_desk_snapshot, make_single_ue_snapshot
from scalar_reference import opc_ue_update, opceh_ue_update, tpc_ue_update, tpceh_ue_update


def test_sinr_single_ue_hand_case():
    snap = make_single_ue_snapshot(h=1e-3, sigma2=1e-9, delta=0.0)
    p = np.array([1e-9, 0.0])
    # gamma = h p / sigma2 = 1e-3 * 1e-9 / 1e-9
    assert sinr(p, snap)[0] == pytest.approx(1e-3, rel=1e-12)


def test_sinr_two_ue_symmetry():
    snap = make_desk_snapshot([10.0, 10.0], delta=0.0)
    p = np.array([0.5, 0.5, 0.0])
    s = sinr(p, snap)
    assert s[0] == pytest.approx(s[1], rel=1e-12)
    # noise negligible against mutual interference: both near 1
    assert s[0] == pytest.approx(1.0, rel=1e-6)


def test_sinr_zero_powers():
    snap = make_desk_snapshot([10.0, 20.0])
    p = np.zeros(3)
    np.testing.assert_array_equal(sinr(p, snap), [0.0, 0.0])


def test_rate_log2_points():
    snap = make_single_ue_snapshot(h=1.0, sigma2=1.0, delta=0.0)
    assert metrics(np.array([1.0, 0.0]), snap).rate[0] == pytest.approx(1.0)
    assert metrics(np.array([0.0, 0.0]), snap).rate[0] == 0.0
    assert metrics(np.array([3.0, 0.0]), snap).rate[0] == pytest.approx(2.0)


def test_hbs_update_max_of_constants():
    snap = make_desk_snapshot([10.0, 15.0, 20.0], p_bar_h=10.0)
    # with p_u = 0 the update reduces to max p_min
    p = np.zeros(4)
    assert hbs_update(p, snap) == pytest.approx(float(snap.p_min.max()))


def test_hbs_update_cap_clips():
    snap = make_desk_snapshot([10.0, 15.0, 20.0], p_bar_h=1e-6)
    p = np.zeros(4)
    assert hbs_update(p, snap) == pytest.approx(1e-6)


def test_hbs_update_hand_value():
    snap = make_single_ue_snapshot(h=1e-3, mu=0.5, epsilon=0.2, p_cir=1e-6)
    # p_min = 1e-6 / (0.5 * 1e-3) = 2e-3
    assert snap.p_min[0] == pytest.approx(2e-3, rel=1e-12)
    p = np.array([5e-13, 0.0])
    # 5e-13 / (0.2 * 0.5 * 1e-3) + 2e-3
    assert hbs_update(p, snap) == pytest.approx(2.000005e-3, rel=1e-12)


def test_optimal_hbs_power_unclipped():
    snap = make_desk_snapshot([41.0], p_bar_h=1e-9)
    p = np.array([0.5, 0.0])
    assert required_hbs_power(p[:-1], snap).max() > snap.hbs.p_bar_h
    assert hbs_update(p, snap) == snap.hbs.p_bar_h


def test_optimal_equals_update_when_below_cap():
    snap = make_desk_snapshot([20.0], p_bar_h=1e6)
    p = np.array([1e-8, 0.0])
    assert hbs_update(p, snap) == pytest.approx(required_hbs_power(p[:-1], snap).max())


def test_tpceh_update_zero_interference():
    snap = make_single_ue_snapshot(h=1e-3, sigma2=1e-14, gamma_target=0.05, delta=0.0)
    p = np.array([0.0, 0.0])
    assert tpceh_ue_update(p, snap, 0) == pytest.approx(5e-13, rel=1e-12)


def test_tpceh_update_clips_at_cap():
    snap = make_desk_snapshot([10.0, 10.0], gamma_default=1e9, p_bar_u=1.0)
    p = np.array([1.0, 1.0, 0.0])
    assert tpceh_ue_update(p, snap, 0) == 1.0


def test_tpceh_update_zero_target():
    snap = make_desk_snapshot([10.0], gamma_default=0.0)
    p = np.array([0.3, 1.0])
    assert tpceh_ue_update(p, snap, 0) == 0.0


def test_opceh_update_ratio_of_equals():
    snap = make_single_ue_snapshot(h=1e-3, eta=1.0, sigma2=1e-3, delta=0.0, p_bar_u=10.0)
    p = np.array([0.0, 0.0])
    assert opceh_ue_update(p, snap, 0) == pytest.approx(1.0, rel=1e-12)


def test_opceh_update_monotone_decreasing_in_interference():
    snap = make_desk_snapshot([8.0, 20.0], p_bar_u=1e9)
    lo = np.array([0.0, 1e-6, 0.0])
    hi = np.array([0.0, 1e-2, 0.0])
    assert opceh_ue_update(hi, snap, 0) < opceh_ue_update(lo, snap, 0)
    # interference growing without bound drives the update to zero
    huge = np.array([0.0, 1e9, 0.0])
    assert opceh_ue_update(huge, snap, 0) < 1e-7


def test_opceh_update_clipped_reference_case():
    snap = make_single_ue_snapshot(h=0.09 / 512, eta=1.0, sigma2=1e-10,
                                   delta=0.0, p_bar_u=1.0)
    p = np.array([0.0, 0.0])
    # unclipped value 1.7578e-4 / 1e-10 is far above the 1 W cap
    assert opceh_ue_update(p, snap, 0) == 1.0


def test_tpc_equals_tpceh_without_harvest_signal():
    snap = make_desk_snapshot([12.0, 30.0, 18.0])
    p_u = np.array([1e-4, 2e-3, 5e-5])
    for i in range(3):
        assert tpc_ue_update(p_u, snap, i) == tpceh_ue_update(
            np.append(p_u, 0.0), snap, i
        )


def test_tpc_single_ue_fixed_point():
    snap = make_single_ue_snapshot(h=1e-3, sigma2=1e-14, gamma_target=0.05)
    p_star = 0.05 * 1e-14 / 1e-3
    assert tpc_ue_update(np.array([p_star]), snap, 0) == pytest.approx(p_star, rel=1e-12)


def test_tpc_clips_for_huge_target():
    snap = make_desk_snapshot([35.0], gamma_default=1e12, p_bar_u=1.0)
    assert tpc_ue_update(np.array([0.0]), snap, 0) == pytest.approx(
        min(1.0, 1e12 * snap.cfg.sigma2 / snap.h[0])
    )
    snap2 = make_desk_snapshot([35.0], gamma_default=1e15, p_bar_u=1.0)
    assert tpc_ue_update(np.array([0.0]), snap2, 0) == 1.0


def test_opc_mirrors_opceh_at_zero_harvest():
    snap = make_desk_snapshot([9.0, 22.0])
    p_u = np.array([1e-3, 1e-2])
    for i in range(2):
        assert opc_ue_update(p_u, snap, i) == opceh_ue_update(
            np.append(p_u, 0.0), snap, i
        )


def test_opc_zero_eta():
    snap = make_desk_snapshot([9.0], eta=0.0)
    assert opc_ue_update(np.array([0.5]), snap, 0) == 0.0


def test_joint_update_matches_per_ue_ops():
    snap = make_desk_snapshot([41, 25, 37, 16, 8],
                              gamma_targets=[0.04, 0.05, 0.07, 0.08, 0.1])
    p = np.array([1e-7, 2e-7, 3e-7, 4e-7, 5e-7, 3.0])
    for alg, ue_op in ((Algorithm.TPCEH, tpceh_ue_update), (Algorithm.OPCEH, opceh_ue_update)):
        nxt = joint_update(alg, p, snap)
        for i in range(5):
            assert nxt[i] == pytest.approx(ue_op(p, snap, i), rel=1e-14)
        assert nxt[-1] == pytest.approx(hbs_update(p, snap), rel=1e-14)
    for alg, ue_op in ((Algorithm.TPC, tpc_ue_update), (Algorithm.OPC, opc_ue_update)):
        bare = np.append(p[:-1], 0.0)
        nxt = joint_update(alg, bare, snap)
        for i in range(5):
            assert nxt[i] == pytest.approx(ue_op(p[:-1], snap, i), rel=1e-14)
        assert nxt[-1] == 0.0


@settings(max_examples=200)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
    st.floats(min_value=0.0, max_value=10.0),
    st.sampled_from(list(Algorithm)),
)
def test_updates_always_inside_caps(p_u, p_h, alg):
    snap = make_desk_snapshot([15.0, 25.0, 35.0])
    nxt = joint_update(alg, np.array([*p_u, p_h]), snap)
    assert np.all(nxt[:-1] >= 0.0)
    assert np.all(nxt[:-1] <= snap.p_bar_u)
    assert 0.0 <= nxt[-1] <= snap.hbs.p_bar_h


@settings(max_examples=150)
@given(
    st.lists(st.floats(min_value=1e-12, max_value=0.9), min_size=2, max_size=2),
    st.floats(min_value=1e-9, max_value=9.0),
    st.floats(min_value=1.01, max_value=5.0),
)
def test_tracking_map_monotone_and_subhomogeneous(p_u, p_h, a):
    snap = make_desk_snapshot([18.0, 28.0], p_bar_u=1e12, p_bar_h=1e15)
    p = np.array([*p_u, p_h])
    bigger = p * a
    f_p = joint_update(Algorithm.TPCEH, p, snap)
    f_big = joint_update(Algorithm.TPCEH, bigger, snap)
    # monotone non-decreasing
    assert np.all(f_big >= f_p * (1 - 1e-12))
    # strictly sub-homogeneous thanks to the additive noise/circuit terms
    assert np.all(f_big < a * f_p)


@settings(max_examples=150)
@given(
    st.lists(st.floats(min_value=1e-12, max_value=0.9), min_size=2, max_size=2),
    st.floats(min_value=1e-9, max_value=9.0),
    st.floats(min_value=1.01, max_value=5.0),
)
def test_opportunistic_map_type_two_monotone(p_u, p_h, a):
    snap = make_desk_snapshot([18.0, 28.0], p_bar_u=1e12, p_bar_h=1e15)
    p = np.array([*p_u, p_h])
    bigger = p * a
    f_p = joint_update(Algorithm.OPCEH, p, snap)[:-1]
    f_big = joint_update(Algorithm.OPCEH, bigger, snap)[:-1]
    assert np.all(f_big <= f_p * (1 + 1e-12))
    assert np.all(f_big > f_p / a * (1 - 1e-12))


def test_metrics_zero_power():
    snap = make_desk_snapshot([41, 25, 37, 16, 8])
    mx = metrics(np.zeros(6), snap)
    np.testing.assert_allclose(mx.ue_total_power, np.full(5, snap.ue_template.p_cir))
    assert mx.hbs_total_power == pytest.approx(snap.hbs.p_cir)
    np.testing.assert_array_equal(mx.sinr, np.zeros(5))
    assert np.all(mx.outage)  # targets positive, sinr zero


def test_metrics_amplifier_scaling():
    snap = make_desk_snapshot([20.0])
    mx = metrics(np.array([1.0, 0.0]), snap)
    assert mx.ue_total_power[0] == pytest.approx(5.0 + snap.ue_template.p_cir, rel=1e-12)


def test_metrics_consistency_invariants():
    snap = make_desk_snapshot([41, 25, 37, 16, 8])
    p = np.array([1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 5.0])
    mx = metrics(p, snap)
    np.testing.assert_allclose(mx.rate, np.log2(1.0 + mx.sinr), rtol=0, atol=0)
    assert mx.aggregate_power == pytest.approx(
        float(mx.ue_total_power.sum()) + mx.hbs_total_power, rel=1e-15
    )
    # a UE is energy-feasible when the power it harvests, mu g p_h, covers
    # its total power
    np.testing.assert_array_equal(mx.energy_feasible, snap.mu * snap.g * 5.0 >= mx.ue_total_power)


def test_metrics_feasibility_slack_boundary():
    snap = make_desk_snapshot([20.0])
    p_u = np.array([1e-7])
    required = float(p_u[0] / (0.2 * 0.5 * snap.g[0]) + snap.p_min[0])
    exactly = metrics(np.append(p_u, required), snap)
    assert exactly.energy_feasible[0]
    below = metrics(np.append(p_u, required * (1 - 1e-6)), snap)
    assert not below.energy_feasible[0]


@pytest.mark.parametrize("snapshot_id", [0, 57])
@pytest.mark.parametrize("k", [1, 2, 5, 20])
@pytest.mark.parametrize("alg", list(Algorithm))
def test_batched_maps_equal_row_by_row(desk_scenario, alg, k, snapshot_id):
    # a trace's metrics come from one call on its (T, K+1) history; every
    # row must equal, bit for bit, the metrics of that state on its own
    cfg = dataclasses.replace(desk_scenario.cfg, num_ues=k)
    snap = sample_batch(
        cfg, desk_scenario.hbs, desk_scenario.ue_template, snapshot_id + 1
    ).rows(snapshot_id)
    one_row = snap.repeated()
    trace = run_fixed_point(alg, snap)
    assert trace.states.shape == (trace.iterations_used + 1, k + 1)
    for t, x in enumerate(trace.states):
        alone = metrics(x, snap)
        for name in (f.name for f in dataclasses.fields(Metrics)):
            row = np.asarray(getattr(trace.metrics, name)[t])
            single = np.asarray(getattr(alone, name))
            assert row.dtype == single.dtype and row.shape == single.shape, name
            assert row.tobytes() == single.tobytes(), (t, name)
        step = joint_update(alg, x, snap)
        assert step.shape == (k + 1,)
        assert step.tobytes() == joint_update(alg, x[None, :], one_row)[0].tobytes()


@pytest.mark.parametrize("k", [1, 2, 5, 20])
def test_ue_max_equals_last_axis_max_bytes(k):
    # one shape per branch and boundary: 1-D, one row, square, more rows
    # than UEs (the transposed reduction); -0.0 is left out, as its
    # maximum with 0.0 depends on the order and the kernel reduces none
    rng = np.random.default_rng(k)
    for shape in ((k,), (1, k), (k, k), (3 * k + 4, k)):
        a = rng.lognormal(-10.0, 5.0, size=shape)
        flat = a.reshape(-1)
        flat[rng.integers(flat.size, size=max(flat.size // 6, 1))] = np.inf
        flat[rng.integers(flat.size, size=max(flat.size // 6, 1))] = np.nan
        if a.ndim == 2 and len(a) > 2:
            a[1] = np.inf
            a[2] = np.nan
        got, want = np.asarray(ue_max(a)), np.asarray(np.max(a, axis=-1))
        assert got.dtype == want.dtype and got.shape == want.shape, shape
        assert got.tobytes() == want.tobytes(), shape


@pytest.mark.parametrize("k", [5, 20])
@pytest.mark.parametrize("alg", list(Algorithm))
def test_joint_update_batches_equal_rows_alone(desk_scenario, alg, k):
    # fewer rows than UEs, as many, and more: the harvest maximum runs along
    # the rows in the first two batches and across them in the last
    cfg = dataclasses.replace(desk_scenario.cfg, num_ues=k)
    rng = np.random.default_rng(k)
    for n in (k // 2, k, 3 * k + 1):
        batch = sample_batch(cfg, desk_scenario.hbs, desk_scenario.ue_template, n)
        caps = state_caps(batch)
        x = caps * 10.0 ** rng.uniform(-12.0, -6.0, size=caps.shape)
        x[0] = caps[0]
        step = joint_update(alg, x, batch)
        assert step.shape == x.shape
        if alg.harvesting:
            assert (step[1:, -1] < batch.hbs.p_bar_h).all()
        for s in range(n):
            alone = joint_update(alg, x[s], batch.rows(s))
            assert step[s].tobytes() == alone.tobytes(), (n, s)


def _same_bits(got, want):
    """Equal bytes, shapes and dtypes, except that any NaN matches any NaN:
    numpy fixes no NaN's sign (its compiled additions may swap operands)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    return np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()


def test_ue_sum_equals_add_reduce_bytes():
    # numpy's pairwise order, replayed across the rows of a UE-major array,
    # against numpy itself on contiguous rows, for K = 1 .. 300 (the order
    # changes at 8, 9, 128, 129 and 257): a numpy whose order differs fails
    # here. Magnitudes span the range, so every change of grouping shows; row
    # 0 is all -0.0, and other entries are +-0.0, +-inf, NaN and subnormals.
    rng = np.random.default_rng(19)
    for k in range(1, 301):
        a = rng.standard_normal((7, k)) * 10.0 ** rng.integers(-300, 300, size=(7, k))
        kind = rng.integers(0, 12, size=a.shape)
        for code, value in ((0, 0.0), (1, -0.0), (2, np.inf), (3, -np.inf), (4, np.nan),
                            (5, 5e-324), (6, -2.5e-310)):
            a[kind == code] = value
        a[0] = -0.0
        a[1] = rng.lognormal(0.0, 1.0, size=k)
        ue_major = np.asfortranarray(a)
        # a UE-major view whose columns are strided
        strided = np.asfortranarray(np.repeat(a, 2, axis=0))[::2]
        with np.errstate(invalid="ignore"):
            want = np.add.reduce(a, axis=-1, keepdims=True)
            for b in (a, ue_major, strided):
                assert _same_bits(ue_sum(b), want), (k, b.strides)
        assert ue_sum(ue_major[1:2]).tobytes() == want[1:2].tobytes(), k


def test_ue_sum_of_no_ues_and_of_one_state():
    assert ue_sum(np.empty((3, 0), order="F")).tolist() == [[0.0]] * 3
    x = np.array([1e-3, 2e-9, 3.0, -0.0])
    assert ue_sum(x).tobytes() == np.add.reduce(x, keepdims=True).tobytes()


@pytest.mark.parametrize("k", [1, 2, 5, 8, 9, 20])
@pytest.mark.parametrize("alg", list(Algorithm))
def test_joint_update_bits_do_not_depend_on_layout(desk_scenario, alg, k):
    # a UE-major batch (each UE's column contiguous, as a mobility window's)
    # and the row-major one give the same bytes and keep their layout
    cfg = dataclasses.replace(desk_scenario.cfg, num_ues=k)
    rng = np.random.default_rng(k)
    batch = sample_batch(cfg, desk_scenario.hbs, desk_scenario.ue_template, 3 * k + 7)
    caps = state_caps(batch)
    x = caps * 10.0 ** rng.uniform(-12.0, 0.0, size=caps.shape)
    ue_major = dataclasses.replace(batch, **{
        name: np.asfortranarray(getattr(batch, name)) for name in channel._ARRAYS
    })
    assert ue_major.g.strides[0] < ue_major.g.strides[1] or k == 1
    want = joint_update(alg, x, batch)
    got = joint_update(alg, np.asfortranarray(x), ue_major)
    assert got.flags.f_contiguous and want.flags.c_contiguous
    assert got.tobytes(order="C") == want.tobytes()
    assert sinr(np.asfortranarray(x), ue_major).tobytes() == sinr(x, batch).tobytes()


# the per-UE update of each algorithm, on a state whose harvest power the
# non-harvesting algorithms keep at 0
UE_UPDATES = {
    Algorithm.TPC: lambda p, snap, i: tpc_ue_update(p[:-1], snap, i),
    Algorithm.OPC: lambda p, snap, i: opc_ue_update(p[:-1], snap, i),
    Algorithm.TPCEH: tpceh_ue_update,
    Algorithm.OPCEH: opceh_ue_update,
}


def _per_ue_updates(alg, x, snaps):
    """The per-UE reference update of each state x[s] on snapshot snaps[s]."""
    rows = []
    for p, snap in zip(x, snaps):
        ues = [UE_UPDATES[alg](p, snap, i) for i in range(snap.num_ues)]
        rows.append([*ues, float(hbs_update(p, snap)) if alg.harvesting else 0.0])
    return np.array(rows)


def _ue_major(snap):
    """The snapshot with each per-UE array UE-major, as a mobility window's."""
    return dataclasses.replace(snap, **{
        name: np.asfortranarray(getattr(snap, name)) for name in channel._ARRAYS
    })


@pytest.mark.parametrize("k", range(1, 25))
@pytest.mark.parametrize("alg", list(Algorithm))
def test_kernel_equals_per_ue_updates_bit_for_bit(desk_scenario, alg, k):
    # the bound update against the scalar per-UE updates: on a row-major
    # batch (whose sum must read the K UE lanes alone: a padded lane would
    # regroup numpy's pairwise sum at K = 7, 15 and 23), a UE-major one, a
    # working set's rows and the rows of one (K,) snapshot (the sandwich
    # check's form), each result in the layout of its state; the batch has
    # more rows than UEs, so the harvest maximum runs across the rows of a
    # transposed copy, and the working set fewer (from K = 3), so it runs
    # along them. The cases have targets of 0, caps that bind and, in the
    # second case, a delta so near the largest float that delta p_h
    # overflows to inf, which no pad may turn into a warning (an error
    # here) or a harvest maximum
    cfg = dataclasses.replace(desk_scenario.cfg, num_ues=k)
    rng = np.random.default_rng(k)
    n = k + 3
    batch = sample_batch(cfg, desk_scenario.hbs, desk_scenario.ue_template, n)
    gamma = batch.gamma_target.copy()
    gamma[1, 0] = gamma[2] = 0.0
    cases = [
        (dataclasses.replace(batch, gamma_target=gamma), False),
        (dataclasses.replace(batch, cfg=dataclasses.replace(cfg, delta=1.7e308),
                             p_bar_u=1e-12), True),
    ]
    capped = []
    for snap, overflows in cases:
        caps = state_caps(snap)
        # row 0 at the caps, where the harvest cap binds; the others below
        x = caps * 10.0 ** rng.uniform(-14.0, -8.0, size=caps.shape)
        x[0] = caps[0]
        if not alg.harvesting:
            x[:, -1] = 0.0
        one = snap.rows(0)
        ue_major, fx = _ue_major(snap), np.asfortranarray(x)
        assert ue_major.g.strides[0] < ue_major.g.strides[1] or k == 1
        picked = np.array([3, 1])
        with np.errstate(over="ignore" if overflows else "raise"):
            want = _per_ue_updates(alg, x, [snap.rows(s) for s in range(n)])
            want_one = _per_ue_updates(alg, x, [one] * n)
            c_order = [
                (JointUpdate(alg, snap)(x), want),
                # a working set's rows, as `iterate` binds them
                (JointUpdate(alg, snap.rows(picked))(x[picked]), want[picked]),
                (joint_update(alg, x, snap), want),
                (joint_update(alg, x, one), want_one),
            ]
            f_order = [
                (joint_update(alg, fx, ue_major), want),
                (joint_update(alg, fx, one), want_one),
            ]
            alone = [(np.array([joint_update(alg, x[s], snap.rows(s)) for s in range(n)]), want)]
            sinrs = (sinr(fx, ue_major), sinr(x, snap))
        capped.append((want[:, :-1] == snap.p_bar_u).any())
        if overflows:
            assert (x[:, -1] > np.finfo(float).max / snap.cfg.delta).any() == alg.harvesting
        elif alg.harvesting:
            assert sorted(set(want[:, -1] == snap.hbs.p_bar_h)) == [False, True]
        assert sinrs[0].tobytes(order="C") == sinrs[1].tobytes()
        assert all(step.flags.c_contiguous for step, _ in c_order)
        assert all(step.flags.f_contiguous for step, _ in f_order)
        for case, (step, expected) in enumerate(c_order + f_order + alone):
            assert step.tobytes(order="C") == expected.tobytes(), (case, overflows)
    assert any(capped)


@pytest.mark.parametrize("p_h", [np.nan, np.inf])
@pytest.mark.parametrize("alg", [Algorithm.TPCEH, Algorithm.OPCEH])
def test_harvest_update_ignores_a_non_finite_harvest_power(desk_scenario, alg, p_h):
    # the harvest maximum reads the K UE lanes alone, so the state's own
    # harvest power, NaN or inf, neither reaches it nor warns (an error
    # here), on row-major, UE-major and single states alike
    cfg = dataclasses.replace(desk_scenario.cfg, num_ues=5)
    batch = sample_batch(cfg, desk_scenario.hbs, desk_scenario.ue_template, 7)
    x = state_caps(batch) * 1e-9
    x[:, -1] = p_h
    ue_major = _ue_major(batch)
    want = [hbs_update(x[s], batch.rows(s)) for s in range(len(batch))]
    assert np.isfinite(want).all()
    got = [
        joint_update(alg, x, batch)[:, -1],
        joint_update(alg, np.asfortranarray(x), ue_major)[:, -1],
        [joint_update(alg, x[s], batch.rows(s))[-1] for s in range(len(batch))],
    ]
    for harvest in got:
        assert np.array(harvest).tobytes() == np.array(want).tobytes()
