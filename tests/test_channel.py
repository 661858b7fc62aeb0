import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdpowerctl import channel
from fdpowerctl.channel import (
    Snapshot,
    path_gain,
    sample_batch,
    snapshot_from_distances,
    snapshot_from_scenario,
)
from fdpowerctl.config import MU_FLOOR, ConfigError, HbsParams, ScenarioConfig, UeTemplate


def _cfg(**kw):
    defaults = dict(num_ues=5, epsilon=0.2, delta=1e-12, sigma2=10 ** -14.3,
                    attenuation_k=0.09, cell_side=50.0, seed=7)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


HBS = HbsParams(p_bar_h=10.0, n_antennas=2, p_dyn=10 ** 0.8, p_sta=10 ** -0.3)
TEMPLATE = UeTemplate(mu=None, gamma_target=0.05, p_dyn=1e-6, p_sta=1e-6, p_bar_u=1.0)
# a fixed mu takes the vectorised (K, 2) position draw
FIXED_MU = dataclasses.replace(TEMPLATE, mu=0.5)
BOTH_TEMPLATES = pytest.mark.parametrize("template", [TEMPLATE, FIXED_MU], ids=["mu-random", "mu-fixed"])


def _positions(cfg, template, n_snapshots):
    """UE positions (S, K, 2) in meters of random snapshots 0 .. S-1: their
    unit-square draws scaled by the cell side."""
    return channel.draw_ues(cfg, template, n_snapshots)[0] * cfg.cell_side


def test_path_gain_values():
    assert path_gain(1.0, 0.09) == pytest.approx(0.09, rel=1e-15)
    # direct evaluation: 0.09 / 25^3 and 0.09 / 8^3
    assert path_gain(25.0, 0.09) == pytest.approx(0.09 / 15625, rel=1e-15)
    assert path_gain(25.0, 0.09) == pytest.approx(5.76e-6, rel=1e-12)
    assert path_gain(8.0, 0.09) == pytest.approx(0.09 / 512, rel=1e-15)
    assert path_gain(8.0, 0.09) == pytest.approx(1.7578e-4, rel=1e-4)


def test_path_gain_domain_error():
    with pytest.raises(ValueError):
        path_gain(0.0, 0.09)
    with pytest.raises(ValueError):
        path_gain(-3.0, 0.09)


@given(st.floats(min_value=0.1, max_value=1e3), st.floats(min_value=1e-4, max_value=10.0))
def test_path_gain_strictly_decreasing(d, k):
    assert path_gain(d, k) > path_gain(d * 1.01, k)


def test_sample_snapshot_reproducible():
    cfg = _cfg()
    a = sample_batch(cfg, HBS, TEMPLATE, 5).rows(4)
    b = sample_batch(cfg, HBS, TEMPLATE, 5).rows(4)
    np.testing.assert_array_equal(a.g, b.g)
    np.testing.assert_array_equal(a.mu, b.mu)
    assert _positions(cfg, TEMPLATE, 5)[4].tolist() == _positions(cfg, TEMPLATE, 5)[4].tolist()


def test_sample_snapshot_reciprocity_and_bounds():
    cfg = _cfg(num_ues=40)
    snap = sample_batch(cfg, HBS, TEMPLATE, 1).rows(0)
    np.testing.assert_array_equal(snap.g, snap.h)
    for (x, y), mu in zip(_positions(cfg, TEMPLATE, 1)[0].tolist(), snap.mu.tolist()):
        assert 0.0 <= x <= cfg.cell_side
        assert 0.0 <= y <= cfg.cell_side
        assert 0.0 < mu < 1.0


def test_ue_count_prefix_property():
    # drawing K UEs consumes a prefix of the (K+n)-UE stream
    small = sample_batch(_cfg(num_ues=3), HBS, TEMPLATE, 12).rows(11)
    big = sample_batch(_cfg(num_ues=8), HBS, TEMPLATE, 12).rows(11)
    np.testing.assert_array_equal(small.g, big.g[:3])
    np.testing.assert_array_equal(small.mu, big.mu[:3])


def test_fixed_mu_draw_keeps_prefix_and_stream():
    # one (K, 2) draw must read the stream exactly like 2K scalar draws
    cfg = _cfg(num_ues=8)
    big = sample_batch(cfg, HBS, FIXED_MU, 12).rows(11)
    rng = np.random.default_rng(cfg.seed + 11)
    scalar = [(rng.uniform(0.0, 1.0) * 50.0, rng.uniform(0.0, 1.0) * 50.0) for _ in range(8)]
    assert [tuple(xy) for xy in _positions(cfg, FIXED_MU, 12)[11].tolist()] == scalar
    small_cfg = _cfg(num_ues=3)
    small = sample_batch(small_cfg, HBS, FIXED_MU, 12).rows(11)
    assert [tuple(xy) for xy in _positions(small_cfg, FIXED_MU, 12)[11].tolist()] == scalar[:3]
    # row 11 does not depend on how many rows the batch has
    batch = sample_batch(_cfg(num_ues=3), HBS, FIXED_MU, 20)
    assert batch.g[11].tolist() == small.g.tolist() == big.g[:3].tolist()


@pytest.mark.parametrize("k", [0, 1, 2, 7, 20])
def test_fixed_mu_draw_has_the_bits_of_uniform(k):
    # rng.random((k, 2)) is numpy's uniform(0.0, 1.0, size=(k, 2)), computed
    # as 0.0 + 1.0 * u: the same bits, and the stream left at the same place
    for seed in (0, 1, 7, 12345):
        unit, _ = channel.draw_ues(_cfg(num_ues=k, seed=seed), FIXED_MU, 3)
        for sid in range(3):
            rng = np.random.default_rng(seed + sid)
            assert unit[sid].tobytes() == rng.uniform(0.0, 1.0, size=(k, 2)).tobytes()
            a, b = np.random.default_rng(seed + sid), np.random.default_rng(seed + sid)
            a.random((k, 2))
            b.uniform(0.0, 1.0, size=(k, 2))
            assert a.random() == b.random()


def _scalar_draws(cfg, template, sid, floor):
    """Positions and mu of snapshot sid, one scalar draw at a time from its
    stream: per UE x, then y, then mu (drawn again while below the floor)
    when the template leaves it random."""
    rng = np.random.default_rng(cfg.seed + sid)
    positions, mus, redraws = [], [], 0
    for _ in range(cfg.num_ues):
        positions.append([rng.uniform(0.0, 1.0) * cfg.cell_side,
                          rng.uniform(0.0, 1.0) * cfg.cell_side])
        mu = template.mu
        if mu is None:
            mu = rng.uniform(0.0, 1.0)
            while mu < floor:
                mu, redraws = rng.uniform(0.0, 1.0), redraws + 1
        mus.append(mu)
    return positions, mus, redraws


@pytest.mark.parametrize("template, floor", [
    (TEMPLATE, MU_FLOOR), (TEMPLATE, 0.5), (FIXED_MU, MU_FLOOR),
], ids=["mu-random", "mu-random-floor-0.5", "mu-fixed"])
def test_sample_batch_rows_follow_their_streams(template, floor, monkeypatch):
    # a floor of 0.5 sends about half the mu draws round the redraw loop
    monkeypatch.setattr(channel, "MU_FLOOR", floor)
    cfg = _cfg(num_ues=7)
    batch = sample_batch(cfg, HBS, template, 6)
    assert (len(batch), batch.num_ues) == (6, 7)
    redraws = 0
    for sid in range(6):
        positions, mus, n = _scalar_draws(cfg, template, sid, floor)
        redraws += n
        assert _positions(cfg, template, 6)[sid].tolist() == positions
        assert batch.mu[sid].tolist() == mus
        distances = [math.hypot(x - 25.0, y - 25.0) for x, y in positions]
        assert batch.distances[sid].tolist() == distances
        assert batch.g[sid].tolist() == [path_gain(d, cfg.attenuation_k) for d in distances]
    assert (redraws > 0) == (floor == 0.5)


# seeds around every change of SeedSequence's word count: one word, two,
# three, the full 4-word pool, and 2^128 and above, whose fifth word is
# mixed into the pool; draws of 4 snapshots cross 2^128 from 2^128 - 1
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128 + 3]


@BOTH_TEMPLATES
@pytest.mark.parametrize("seed", SEEDS)
def test_draw_ues_reads_each_stream_as_default_rng_does(template, seed):
    # with a random mu, each UE's mu is drawn after its coordinates from
    # the same generator, and drawn again while below the floor
    cfg = _cfg(num_ues=6, seed=seed)
    unit, mu = channel.draw_ues(cfg, template, 4)
    for sid in range(4):
        positions, mus, _ = _scalar_draws(cfg, template, sid, MU_FLOOR)
        assert (unit[sid] * cfg.cell_side).tolist() == positions
        assert mu[sid].tolist() == mus


def test_draw_ues_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        channel.draw_ues(_cfg(seed=-1), FIXED_MU, 1)


def test_distances_are_math_hypot_bit_for_bit():
    # on this snapshot np.hypot rounds UE 0's distance differently
    cfg, sid = _cfg(), 15
    snap = sample_batch(cfg, HBS, FIXED_MU, sid + 1).rows(sid)
    xy = _positions(cfg, FIXED_MU, sid + 1)[sid]
    centre = cfg.cell_side / 2.0
    exact = [math.hypot(x - centre, y - centre) for x, y in xy.tolist()]
    assert np.hypot(xy[:, 0] - centre, xy[:, 1] - centre).tolist() != exact
    assert snap.distances.tolist() == exact
    assert snap.g.tolist() == [path_gain(d, cfg.attenuation_k) for d in exact]


@pytest.mark.parametrize("n", [1, channel.DISTANCE_CHUNK, channel.DISTANCE_CHUNK + 1,
                               2 * channel.DISTANCE_CHUNK + 37])
def test_chunked_distances_match_one_pass(n):
    cfg = _cfg()
    positions = np.random.default_rng(3).uniform(-10.0, 60.0, size=(n, 2))
    positions[0] = (25.0, 25.0)           # on the base station: the 1 nm floor
    one_pass = np.maximum(
        [math.hypot(x - 25.0, y - 25.0) for x, y in positions.tolist()], 1e-9
    )
    distances = channel._distances(positions[:, 0], positions[:, 1], cfg)
    assert distances.tobytes() == one_pass.tobytes()


@pytest.mark.parametrize(
    "cfg_change, template_change, paths",
    [
        ({}, {"mu": 1.5}, ["ue_template.mu"]),
        ({}, {"p_bar_u": -1.0}, ["ue_template.p_bar_u"]),
        ({}, {"gamma_target": -0.1, "eta": -1.0},
         ["ue_template.gamma_target", "ue_template.eta"]),
        ({}, {"p_bar_u": None, "e_bar": -1.0}, ["ue_template.e_bar"]),
        ({"num_ues": 0}, {}, ["scenario.num_ues"]),
        ({"cell_side": -5.0}, {"p_sta": -1.0}, ["scenario.cell_side", "ue_template.circuit"]),
        ({}, {"p_bar_u": None}, ["ue_template.p_bar_u"]),
        ({"delta_t": 0.0}, {"p_bar_u": None, "e_bar": 1.0}, ["scenario.delta_t"]),
    ],
)
def test_batch_validation_matches_snapshot(cfg_change, template_change, paths):
    cfg = _cfg(**cfg_change)
    template = dataclasses.replace(FIXED_MU, **template_change)
    with pytest.raises(ConfigError) as single:
        sample_batch(cfg, HBS, template, 1).rows(0)
    with pytest.raises(ConfigError) as batched:
        sample_batch(cfg, HBS, template, 3)
    assert batched.value.errors == single.value.errors
    for path in paths:
        assert any(e.startswith(path + ":") for e in batched.value.errors), path
    # an empty batch draws and checks nothing, as no snapshot is sampled
    assert len(sample_batch(cfg, HBS, template, 0)) == 0


@pytest.mark.parametrize("mu", [1.5, math.nan])
def test_template_fixed_mu_is_reported_once(mu):
    # every UE takes the template's mu: validate_scenario reports it, and
    # no UE reports it again
    template = dataclasses.replace(FIXED_MU, mu=mu)
    with pytest.raises(ConfigError) as exc:
        sample_batch(_cfg(), HBS, template, 3)
    assert exc.value.errors == ["ue_template.mu: must lie in (0, 1)"]


@pytest.mark.parametrize("name", ["gamma_target", "eta"])
@pytest.mark.parametrize("value", [-1.0, -math.inf, math.inf, math.nan])
def test_template_gamma_target_and_eta_are_reported_once(name, value):
    # every UE takes the template's value: validate_scenario reports it,
    # and no UE reports it again
    template = dataclasses.replace(FIXED_MU, **{name: value})
    want = [f"ue_template.{name}: {msg}" for msg, violated in (
        ("must be non-negative", value < 0.0), ("must be finite", not math.isfinite(value)),
    ) if violated]
    for snaps in (3, 1):
        with pytest.raises(ConfigError) as exc:
            sample_batch(_cfg(), HBS, template, snaps)
        assert exc.value.errors == want


def test_pinned_gamma_target_and_eta_are_reported_per_ue():
    # a pinned UE's own value is checked per UE; the UEs that leave it out
    # take the template's, which is reported once
    template = dataclasses.replace(FIXED_MU, gamma_target=-1.0, eta=math.nan)
    with pytest.raises(ConfigError) as exc:
        snapshot_from_distances([10.0, 20.0, 30.0], _cfg(num_ues=3), HBS, template,
                                gamma_targets=[-2.0, None, 0.1], etas=[None, math.inf, 1.0])
    assert exc.value.errors == [
        "ue_template.gamma_target: must be non-negative",
        "ue_template.eta: must be finite",
        "ues[0].gamma_target: must be non-negative",
        "ues[1].eta: must be finite",
    ]


@pytest.mark.parametrize("template_mu", [1.5, 0.5])
def test_pinned_mu_is_reported_per_ue(template_mu):
    # a pinned UE's own mu is checked per UE; the UEs that leave it out take
    # the template's, which is reported once
    template = dataclasses.replace(FIXED_MU, mu=template_mu)
    with pytest.raises(ConfigError) as exc:
        snapshot_from_distances([10.0, 20.0, 30.0], _cfg(num_ues=3), HBS, template,
                                mus=[2.0, None, -0.5])
    ue = ["ues[0].mu: mu must be below 1", "ues[2].mu: mu must be strictly positive"]
    assert exc.value.errors == (["ue_template.mu: must lie in (0, 1)"] + ue
                                if template_mu == 1.5 else ue)


def test_cell_side_scaling_shares_draws():
    # positions scale with the side for a fixed seed, so sweeps stay paired
    pa = _positions(_cfg(cell_side=40.0), TEMPLATE, 3)[2] / 40.0
    pb = _positions(_cfg(cell_side=60.0), TEMPLATE, 3)[2] / 60.0
    np.testing.assert_allclose(pa, pb, rtol=1e-12)


def test_mean_distance_matches_quadrature_oracle():
    from scipy import integrate

    cfg = _cfg(num_ues=100, hbs_placement="center")
    empirical = float(sample_batch(cfg, HBS, TEMPLATE, 1000).distances.mean())

    side = cfg.cell_side
    val, _ = integrate.dblquad(
        lambda y, x: math.hypot(x - side / 2, y - side / 2),
        0.0, side, 0.0, side,
    )
    analytic = val / side ** 2
    assert abs(empirical - analytic) / analytic < 0.02


def test_corner_placement_bound():
    cfg = _cfg(num_ues=200, hbs_placement="corner")
    snap = sample_batch(cfg, HBS, TEMPLATE, 1).rows(0)
    assert snap.distances.max() <= cfg.cell_side * math.sqrt(2.0)


def test_snapshot_from_distances_reference_vector():
    cfg = _cfg(num_ues=5)
    gts = [0.04, 0.05, 0.07, 0.08, 0.1]
    snap = snapshot_from_distances([41, 25, 37, 16, 8], cfg, HBS, TEMPLATE,
                                   gamma_targets=gts, mus=[0.5] * 5)
    np.testing.assert_allclose(snap.gamma_target, gts)
    np.testing.assert_allclose(snap.g, 0.09 / np.array([41, 25, 37, 16, 8.0]) ** 3)


def test_snapshot_from_distances_single():
    cfg = _cfg(num_ues=1)
    snap = snapshot_from_distances([1.0], cfg, HBS, TEMPLATE, mus=[0.5])
    assert snap.g[0] == pytest.approx(0.09)
    assert snap.h[0] == pytest.approx(0.09)


def test_snapshot_from_distances_errors():
    cfg = _cfg(num_ues=2)
    with pytest.raises(ConfigError):
        snapshot_from_distances([1.0], cfg, HBS, TEMPLATE)
    with pytest.raises(ConfigError):
        snapshot_from_distances([1.0, 0.0], cfg, HBS, TEMPLATE)
    for name in ("gamma_targets", "mus", "etas"):
        with pytest.raises(ConfigError) as exc:
            snapshot_from_distances([1.0, 2.0], cfg, HBS, TEMPLATE, **{name: [0.5]})
        assert exc.value.errors == [f"{name}: expected 2 entries, got 1"]


def test_scenario_dispatch(paper_scenario):
    snap = snapshot_from_scenario(paper_scenario)
    assert snap.num_ues == 5
    assert snap.distances.tolist() == [41, 25, 37, 16, 8]
    # without pinned UEs: random snapshot 0
    sampled = snapshot_from_scenario(dataclasses.replace(paper_scenario, fixed_ues=None))
    row = sample_batch(paper_scenario.cfg, paper_scenario.hbs, paper_scenario.ue_template, 3)
    assert sampled.distances.tolist() == row.distances[0].tolist()
    assert sampled.g.tolist() == row.g[0].tolist()


@pytest.mark.parametrize("template_mu, fallback", [(None, 0.5), (0.7, 0.7)])
def test_partial_mu_override_falls_back_per_ue(template_mu, fallback):
    # UEs without a mu take the template's, or 0.5 when the template draws it
    cfg = _cfg(num_ues=3)
    template = dataclasses.replace(TEMPLATE, mu=template_mu)
    snap = snapshot_from_distances([10.0, 20.0, 30.0], cfg, HBS, template,
                                   mus=[0.3, None, None], etas=[None, 2.0, None])
    assert snap.mu.tolist() == [0.3, fallback, fallback]
    assert snap.eta.tolist() == [template.eta, 2.0, template.eta]
    assert snap.p_min.tolist() == (template.p_cir / (snap.mu * snap.g)).tolist()


@BOTH_TEMPLATES
def test_harvest_scale_is_never_stale(template):
    # a derived snapshot computes eps * mu * g and p_min = p_cir / (mu * g)
    # from its own arrays; _ARRAYS names exactly the array fields, and the
    # uplink cap stays one float
    snap = sample_batch(_cfg(), HBS, template, 4)
    fields = [f.name for f in dataclasses.fields(Snapshot)]
    eps, p_cir = snap.cfg.epsilon, template.p_cir
    assert snap.harvest_scale.tobytes() == (eps * snap.mu * snap.g).tobytes()
    assert snap.p_min.tobytes() == (p_cir / (snap.mu * snap.g)).tobytes()
    xy = _positions(_cfg(), template, 2)
    derived = [
        dataclasses.replace(snap, g=snap.g * 3.0),
        dataclasses.replace(snap, mu=snap.mu * 0.5),
        snap.rows(slice(1, 3)),
        snap.rows(np.array([True, False, True, True])),
        snap.rows(2),
        snap.rows(1).repeated(3),
        snap.rows(3).moved(xy[:, 0, 0], xy[0, :, 1]),
    ]
    for d in derived:
        assert d.harvest_scale.shape == d.g.shape
        assert d.harvest_scale.tobytes() == (eps * d.mu * d.g).tobytes()
        assert d.p_min.shape == d.g.shape
        assert d.p_min.tobytes() == (p_cir / (d.mu * d.g)).tobytes()
        assert [n for n in fields if isinstance(getattr(d, n), np.ndarray)] == list(channel._ARRAYS)
        assert type(d.p_bar_u) is float and d.p_bar_u == template.p_bar_u


@BOTH_TEMPLATES
def test_moved_batch_is_ue_major(template):
    # moved computes the same distances (math.hypot) and gains as the
    # row-major sampling path places, but stores each UE's column
    # contiguously; the arrays derived from it, and the rows of a window,
    # keep that layout
    cfg = _cfg(num_ues=4)
    xy = _positions(cfg, template, 9)
    xs, ys = xy[:, 0, 0], xy[0, :, 1]        # a path of 9 steps, 4 heights
    base = sample_batch(cfg, HBS, template, 1).rows(0)
    moved = base.moved(xs, ys)
    centre = cfg.cell_side / 2.0
    exact = [[math.hypot(x - centre, y - centre) for y in ys.tolist()] for x in xs.tolist()]
    placed = channel.place_ues(cfg, HBS, template, np.broadcast_to(base.mu, (9, 4)),
                               np.array(exact))
    for name in ("distances", "g"):
        a, b = getattr(moved, name), getattr(placed, name)
        assert a.flags.f_contiguous and a.tobytes(order="C") == b.tobytes(), name
    window = moved.rows(slice(2, 7))
    for a in (moved.g, moved.p_min, moved.harvest_scale,
              window.g, window.p_min, window.harvest_scale):
        assert a.strides[0] < a.strides[1]


@BOTH_TEMPLATES
def test_place_ues_from_shared_distances_equals_fresh(template):
    # a narrower or equal placement from the widest draw's distances in the
    # same cell is the fresh K-UE batch, field for field
    wide = _cfg(num_ues=12, cell_side=60.0)
    unit, mu = channel.draw_ues(wide, template, 5)
    distances = channel.cell_distances(wide, unit)
    for k in (1, 5, 12):
        cfg = _cfg(num_ues=k, cell_side=60.0)
        shared = channel.place_ues(cfg, HBS, template, mu, distances)
        fresh = channel.sample_batch(cfg, HBS, template, 5)
        assert shared.p_bar_u == fresh.p_bar_u
        for name in channel._ARRAYS:
            a, b = getattr(shared, name), getattr(fresh, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (k, name)
