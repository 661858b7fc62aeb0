"""Deterministic path-loss channel and seeded snapshot generation.

A snapshot is one realization of UE placement and harvesting efficiencies
inside a square cell. Channels are reciprocal (g = h) and follow the cubic
path-loss law g = k * d^-3; there is no fading or shadowing.

A Snapshot stores as arrays only what some input can set per UE: distance,
gain, mu, target SINR and eta. What the UE template fixes for every UE (the
uplink cap, the circuit power) is one scalar, and what follows from other
fields (h, p_min, harvest_scale) is derived from them, never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    ConfigError,
    HbsParams,
    Scenario,
    ScenarioConfig,
    UeTemplate,
    MU_FLOOR,
    ue_errors,
    validate_scenario,
)

__all__ = [
    "Snapshot",
    "path_gain",
    "hbs_position",
    "draw_ues",
    "cell_distances",
    "place_ues",
    "sample_batch",
    "snapshot_from_distances",
    "snapshot_from_scenario",
]


def path_gain(d: float | np.ndarray, k: float) -> float | np.ndarray:
    """Cubic path-loss channel power gain k * d^-3 at distance(s) d meters;
    0.0, without numpy's overflow warning, where d^3 overflows."""
    if not np.all(np.isfinite(d) & (d > 0.0)):
        raise ValueError(f"distance must be strictly positive and finite, got {d}")
    with np.errstate(over="ignore"):
        return k / (d * d * d)


def hbs_position(cfg: ScenarioConfig) -> tuple[float, float]:
    """Base-station coordinates for the configured placement."""
    if cfg.hbs_placement == "corner":
        return (0.0, 0.0)
    return (cfg.cell_side / 2.0, cfg.cell_side / 2.0)


@dataclass
class Snapshot:
    """Per-UE parameters of one snapshot as (K,) arrays, or of S as (S, K).

    Row s of a batch is snapshot s, so the update rules and metrics in core,
    which reduce over the last (UE) axis, apply to both. A batch's arrays may
    be row-major or UE-major (each UE's column contiguous, as `moved` makes
    them); the arrays derived from them keep the layout of g. Only the inputs
    that vary per UE are arrays (`_ARRAYS`); the uplink cap is one float for
    every UE, the circuit power is `ue_template.p_cir`, and h, p_min and
    harvest_scale are derived. Channels are reciprocal: the uplink gain h
    is the downlink gain g. Snapshots made from one another share arrays,
    which must be treated as read-only.
    """

    cfg: ScenarioConfig
    hbs: HbsParams
    ue_template: UeTemplate
    distances: np.ndarray        # meters to the base station
    g: np.ndarray                # channel power gain
    mu: np.ndarray               # energy-harvesting efficiency
    gamma_target: np.ndarray     # target SINR, linear
    eta: np.ndarray              # target signal-interference product
    p_bar_u: float               # uplink transmit power cap, watts

    @property
    def h(self) -> np.ndarray:
        return self.g

    @property
    def p_min(self) -> np.ndarray:
        """Harvest power that covers the UE circuit power alone, p_cir / (mu g);
        inf where mu g is 0."""
        denom = self.mu * self.g
        return np.divide(self.ue_template.p_cir, denom, out=np.full_like(denom, math.inf),
                         where=denom > 0)

    @property
    def harvest_scale(self) -> np.ndarray:
        """eps * mu * g, the divisor of each UE's harvest requirement."""
        return np.multiply(self.cfg.epsilon * self.mu, self.g, out=np.empty_like(self.g))

    @property
    def num_ues(self) -> int:
        return self.g.shape[-1]

    def __len__(self) -> int:
        """Number of snapshots in a batch."""
        return self.g.shape[0]

    def rows(self, index) -> Snapshot:
        """The snapshots of a batch picked by a mask, index array or slice;
        an int index picks one snapshot, with (K,) arrays."""
        return replace(self, **{name: getattr(self, name)[index] for name in _ARRAYS})

    def repeated(self, copies: int = 1) -> Snapshot:
        """A batch of `copies` rows, each one this snapshot (no copy made)."""
        return replace(self, **{
            name: np.broadcast_to(getattr(self, name), (copies, *getattr(self, name).shape))
            for name in _ARRAYS
        })

    def moved(self, xs: np.ndarray, ys: np.ndarray) -> Snapshot:
        """This snapshot's UEs moved along a shared (T,) x path xs, UE i at its
        own height ys[i], in meters.

        Row t has the gains of the distances in row t, computed as
        sample_batch computes them; mu, gamma_target and eta are this
        snapshot's in every row. The batch is UE-major: each UE's T distances
        and gains are contiguous.
        """
        shape = (len(xs), len(ys))
        distances = np.empty(shape, order="F")
        for i, y in enumerate(ys.tolist()):
            distances[:, i] = _distances(xs, np.full(len(xs), y), self.cfg)
        mu, gamma_target, eta = (
            np.broadcast_to(column, shape) for column in (self.mu, self.gamma_target, self.eta)
        )
        return _snapshot(self.cfg, self.hbs, self.ue_template, distances, mu, gamma_target, eta)


# The per-UE arrays of a snapshot, in field order.
_ARRAYS = ("distances", "g", "mu", "gamma_target", "eta")


def _snapshot(
    cfg: ScenarioConfig,
    hbs: HbsParams,
    template: UeTemplate,
    distances: np.ndarray,
    mu: np.ndarray,
    gamma_target: np.ndarray | None = None,
    eta: np.ndarray | None = None,
) -> Snapshot:
    """A validated snapshot, or batch, of UEs at the given distances.

    mu, and gamma_target and eta where given, are per-UE columns shaped like
    distances; the template supplies the rest. Invalid parameters raise a
    ConfigError listing what validate_scenario finds in the configuration
    and template, each once, and the per-UE violations of the first invalid
    snapshot (only snapshot 0 when the configuration itself is invalid, and
    then not a mu, gamma_target or eta that is the template's invalid one);
    a batch of no snapshots checks nothing.
    """
    shape = distances.shape
    t = template
    # path_gain rejects distances that are not positive and finite; those
    # get a stand-in gain, and ue_errors reports them, so it is never used
    usable = np.isfinite(distances) & (distances > 0.0)
    g = path_gain(np.where(usable, distances, 1.0), cfg.attenuation_k)
    columns = {
        "mu": mu, "g": g, "distance": distances,
        "gamma_target": np.full(shape, t.gamma_target) if gamma_target is None else gamma_target,
        "eta": np.full(shape, t.eta) if eta is None else eta,
    }
    rows = {name: np.atleast_2d(column) for name, column in columns.items()}
    p_bar_u = math.nan           # a batch of no snapshots checks nothing and reads no cap
    if len(rows["g"]):
        errors = validate_scenario(cfg, hbs, t)
        if errors:
            rows = {name: r[:1] for name, r in rows.items()}
            # validate_scenario reports the template's mu, gamma_target and
            # eta once: a UE that takes one (NaN included) gets a valid stand-in
            for name, stand_in in (("mu", 0.5), ("gamma_target", 0.0), ("eta", 0.0)):
                value = getattr(t, name)
                if value is not None:
                    column = rows[name]
                    same = (column == value) | (np.isnan(column) & math.isnan(value))
                    rows[name] = np.where(same, stand_in, column)
        errors += ue_errors(rows)
        if errors:
            raise ConfigError(errors)
        p_bar_u = t.resolve_p_bar_u(cfg.epsilon, cfg.delta_t)
    return Snapshot(cfg, hbs, t, distances, g, mu, columns["gamma_target"], columns["eta"],
                    p_bar_u)


def _draw_mu(rng: np.random.Generator) -> float:
    mu = rng.uniform(0.0, 1.0)
    while mu < MU_FLOOR:
        mu = rng.uniform(0.0, 1.0)
    return mu


# Points per Python-float pass in _distances, which bounds its temporaries
# (about 100 bytes a point) whatever the input's length.
DISTANCE_CHUNK = 512


def _distances(x: np.ndarray, y: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Distances to the base station of the points (x, y), (N,) each, floored at 1 nm."""
    ox, oy = hbs_position(cfg)
    out = np.empty(len(x))
    # math.hypot per UE: np.hypot differs from it in the last bit on some
    # inputs, which would move every derived gain and fixed point
    for start in range(0, len(x), DISTANCE_CHUNK):
        chunk = slice(start, start + DISTANCE_CHUNK)
        out[chunk] = list(map(math.hypot, (x[chunk] - ox).tolist(), (y[chunk] - oy).tolist()))
    return np.maximum(out, 1e-9, out=out)


def draw_ues(
    cfg: ScenarioConfig, ue_template: UeTemplate, n_snapshots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-square coordinates (S, K, 2) and mu (S, K) of random snapshots
    0 .. n_snapshots-1, row s read from its own generator,
    np.random.default_rng(cfg.seed + s) (see sample_batch).

    With a fixed mu, one (K, 2) draw reads the same 2K numbers, x then y per
    UE, as per-UE scalar draws; a random mu keeps the per-UE loop. The draw
    is rng.random, which has the bits of uniform(0.0, 1.0): numpy computes
    that as 0.0 + 1.0 * u, exactly u. A draw too large for memory raises a
    ConfigError before any number is drawn.
    """
    k = max(cfg.num_ues, 0)
    try:
        unit = np.empty((n_snapshots, k, 2))
        mu = np.empty((n_snapshots, k))
    except (ValueError, MemoryError):
        raise ConfigError([f"scenario.num_ues: {k} UEs in each of {n_snapshots} snapshots "
                           "do not fit in memory"]) from None
    for sid in range(n_snapshots):
        rng = np.random.default_rng(cfg.seed + sid)
        if ue_template.mu is not None:
            unit[sid] = rng.random((k, 2))
            mu[sid] = ue_template.mu
        else:
            for i in range(k):
                unit[sid, i] = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
                mu[sid, i] = _draw_mu(rng)
    return unit, mu


def cell_distances(cfg: ScenarioConfig, unit: np.ndarray) -> np.ndarray:
    """Distances (S, K) to the base station of the UEs of a draw's (S, K, 2)
    unit coordinates, placed in a cell of side cfg.cell_side."""
    x, y = (unit * cfg.cell_side).reshape(-1, 2).T
    return _distances(x, y, cfg).reshape(unit.shape[:-1])


def place_ues(
    cfg: ScenarioConfig,
    hbs: HbsParams,
    ue_template: UeTemplate,
    mu: np.ndarray,
    distances: np.ndarray,
) -> Snapshot:
    """The validated batch of cfg.num_ues UEs placed from a draw of at least
    that many: the first cfg.num_ues columns of its (S, K) mu and of the
    (S, K) `cell_distances` of its unit coordinates in a cell of side
    cfg.cell_side. A UE's distance depends on its own position alone, so one
    distance computation serves every UE count up to K."""
    k = max(cfg.num_ues, 0)
    return _snapshot(cfg, hbs, ue_template, distances[:, :k], mu[:, :k])


def sample_batch(
    cfg: ScenarioConfig, hbs: HbsParams, ue_template: UeTemplate, n_snapshots: int
) -> Snapshot:
    """Random snapshots 0 .. n_snapshots-1, one per row of a batch.

    Every random snapshot is a draw (`draw_ues`) placed in the cell
    (`place_ues`), under one contract:
    - row s draws from its own generator, default_rng(cfg.seed + s), built
      for it alone, so row s does not depend on n_snapshots;
    - each UE in turn draws x, then y (uniform on the unit square), then mu
      when the template leaves it random (uniform on [0, 1), drawn again
      while below MU_FLOOR);
    - so the K-UE row s is a prefix of the (K+1)-UE row s (K-prefix property);
    - the placement scales x and y by the cell side, so one draw serves
      every cell side, delta, target and UE count up to its own.
    Invalid parameters raise a ConfigError listing the violations of the
    first invalid row; a batch of no snapshots checks nothing.
    """
    unit, mu = draw_ues(cfg, ue_template, n_snapshots)
    return place_ues(cfg, hbs, ue_template, mu, cell_distances(cfg, unit))


def snapshot_from_distances(
    distances: list[float],
    cfg: ScenarioConfig,
    hbs: HbsParams,
    ue_template: UeTemplate,
    gamma_targets: list[float | None] | None = None,
    mus: list[float | None] | None = None,
    etas: list[float | None] | None = None,
) -> Snapshot:
    """Fixed-distance snapshot with per-UE overrides; bypasses cell geometry.

    An override list may leave some UEs out (None); they take the template's
    value, and 0.5 for mu when the template draws it at random.
    """
    k = cfg.num_ues
    if len(distances) != k:
        raise ConfigError([f"distances: expected {k} entries, got {len(distances)}"])
    for name, values in (("gamma_targets", gamma_targets), ("mus", mus), ("etas", etas)):
        if values is not None and len(values) != k:
            raise ConfigError([f"{name}: expected {k} entries, got {len(values)}"])

    def column(values, default):
        return np.array([default if v is None else v for v in values or [None] * k], dtype=float)

    return _snapshot(
        cfg, hbs, ue_template, np.array(distances, dtype=float),
        column(mus, 0.5 if ue_template.mu is None else ue_template.mu),
        column(gamma_targets, ue_template.gamma_target),
        column(etas, ue_template.eta),
    )


def snapshot_from_scenario(scenario: Scenario) -> Snapshot:
    """The pinned UEs when the scenario has them, random snapshot 0 otherwise."""
    if scenario.fixed_ues is not None:
        fus = scenario.fixed_ues
        return snapshot_from_distances(
            [fu.distance for fu in fus],
            scenario.cfg,
            scenario.hbs,
            scenario.ue_template,
            gamma_targets=[fu.gamma_target for fu in fus],
            mus=[fu.mu for fu in fus],
            etas=[fu.eta for fu in fus],
        )
    return sample_batch(scenario.cfg, scenario.hbs, scenario.ue_template, 1).rows(0)
