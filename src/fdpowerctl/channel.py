"""Deterministic path-loss channel and seeded snapshot generation.

A snapshot is one realization of UE placement and harvesting efficiencies
inside a square cell. Channels are reciprocal (g = h) and follow the cubic
path-loss law g = k * d^-3; there is no fading or shadowing.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    HbsParams,
    Scenario,
    ScenarioConfig,
    UeParams,
    UeTemplate,
    MU_FLOOR,
    make_ue,
    ue_errors,
    validate_scenario,
)

__all__ = [
    "Snapshot",
    "SnapshotBatch",
    "path_gain",
    "hbs_position",
    "sample_snapshot",
    "sample_batch",
    "snapshot_from_distances",
    "snapshot_from_scenario",
    "snapshot_to_json",
    "snapshot_csv_rows",
]


def path_gain(d: float, k: float) -> float:
    """Cubic path-loss channel power gain k * d^-3 at distance d meters."""
    if d <= 0.0:
        raise ValueError(f"distance must be strictly positive, got {d}")
    return k / (d * d * d)


def hbs_position(cfg: ScenarioConfig) -> tuple[float, float]:
    """Base-station coordinates for the configured placement."""
    if cfg.hbs_placement == "corner":
        return (0.0, 0.0)
    return (cfg.cell_side / 2.0, cfg.cell_side / 2.0)


@dataclass
class Snapshot:
    """One realization of UE positions and efficiencies, arrays precomputed.

    The per-UE arrays (g, h, mu, ...) are derived from `ues` at construction
    and must be treated as read-only; the power-control code indexes them
    directly in its inner loops.
    """

    cfg: ScenarioConfig
    hbs: HbsParams
    ues: tuple[UeParams, ...]
    snapshot_id: int = 0
    seed_used: int = 0

    def __post_init__(self):
        self.num_ues = len(self.ues)
        self.g = np.array([u.g for u in self.ues])
        self.h = np.array([u.h for u in self.ues])
        self.mu = np.array([u.mu for u in self.ues])
        self.gamma_target = np.array([u.gamma_target for u in self.ues])
        self.eta = np.array([u.eta for u in self.ues])
        self.p_bar_u = np.array([u.p_bar_u for u in self.ues])
        self.p_cir = np.array([u.p_cir for u in self.ues])
        self.p_min = np.array([u.p_min for u in self.ues])
        self.distances = np.array([u.distance for u in self.ues])


# Per-UE parameter arrays of a batch, in SnapshotBatch field order.
_BATCH_ARRAYS = ("g", "h", "mu", "gamma_target", "eta", "p_bar_u", "p_cir", "p_min")


@dataclass
class SnapshotBatch:
    """Per-UE parameters of S snapshots as (S, K) arrays, row s for snapshot s.

    The attribute names are Snapshot's, so the update rules and metrics in
    core apply to a batch row by row. A batch holds no per-UE objects.
    """

    cfg: ScenarioConfig
    hbs: HbsParams
    g: np.ndarray
    h: np.ndarray
    mu: np.ndarray
    gamma_target: np.ndarray
    eta: np.ndarray
    p_bar_u: np.ndarray
    p_cir: np.ndarray
    p_min: np.ndarray

    @property
    def num_ues(self) -> int:
        return self.g.shape[1]

    def __len__(self) -> int:
        return self.g.shape[0]

    def rows(self, index: np.ndarray) -> "SnapshotBatch":
        """The snapshots picked by a boolean mask or an index array."""
        return SnapshotBatch(
            self.cfg, self.hbs, *(getattr(self, name)[index] for name in _BATCH_ARRAYS)
        )

    @classmethod
    def of(cls, snap: Snapshot, copies: int = 1) -> "SnapshotBatch":
        """A batch of `copies` rows, each one the given snapshot (no copy made)."""
        shape = (copies, snap.num_ues)
        return cls(
            snap.cfg, snap.hbs,
            *(np.broadcast_to(getattr(snap, name), shape) for name in _BATCH_ARRAYS),
        )

    @classmethod
    def moved(cls, snap: Snapshot, positions: np.ndarray) -> "SnapshotBatch":
        """The snapshot's UEs placed at each row of positions (T, K, 2), meters.

        Row t has the gains of the distances in row t, computed as
        sample_snapshot computes them; every other parameter is the
        snapshot's, broadcast (no copy made).
        """
        shape = positions.shape[:2]
        d = _distances(positions.reshape(-1, 2), snap.cfg).reshape(shape)
        g = snap.cfg.attenuation_k / (d * d * d)
        mu, gamma_target, eta, p_bar_u, p_cir = (
            np.broadcast_to(getattr(snap, name), shape)
            for name in ("mu", "gamma_target", "eta", "p_bar_u", "p_cir")
        )
        return cls(snap.cfg, snap.hbs, g, g, mu, gamma_target, eta, p_bar_u, p_cir,
                   p_cir / (mu * g))


def _draw_mu(rng: np.random.Generator) -> float:
    mu = rng.uniform(0.0, 1.0)
    while mu < MU_FLOOR:
        mu = rng.uniform(0.0, 1.0)
    return mu


def _draw_ues(
    cfg: ScenarioConfig, ue_template: UeTemplate, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """UE positions (K, 2) in meters and harvesting efficiencies (K,).

    Each UE consumes a fixed number of draws (x, y, then mu when random), in
    UE order, so a K-UE draw is a prefix of the (K+1)-UE draw from the same
    stream. With a fixed mu, one (K, 2) draw reads the same 2K numbers as the
    per-UE scalar draws; a random mu keeps the per-UE loop.
    """
    k = max(cfg.num_ues, 0)
    if ue_template.mu is not None:
        unit = rng.uniform(0.0, 1.0, size=(k, 2))
        mu = np.full(k, ue_template.mu)
    else:
        unit = np.empty((k, 2))
        mu = np.empty(k)
        for i in range(k):
            unit[i] = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
            mu[i] = _draw_mu(rng)
    # a unit-square draw scaled by the side keeps positions comparable
    # across cell-side sweeps that share a seed
    return unit * cfg.cell_side, mu


def _distances(positions: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """UE distances to the base station, floored at 1 nm."""
    ox, oy = hbs_position(cfg)
    # math.hypot per UE: np.hypot differs from it in the last bit on some
    # inputs, which would move every derived gain and fixed point
    return np.array(
        [max(math.hypot(x - ox, y - oy), 1e-9) for x, y in positions.tolist()]
    )


def sample_snapshot(
    cfg: ScenarioConfig,
    hbs: HbsParams,
    ue_template: UeTemplate,
    rng: np.random.Generator | None = None,
    snapshot_id: int = 0,
) -> Snapshot:
    """Draw one random snapshot: positions uniform in the cell, mu per template.

    A K-UE snapshot is a prefix of the (K+1)-UE snapshot from the same
    stream. Per-snapshot streams derive from cfg.seed + snapshot_id.
    """
    seed_used = cfg.seed + snapshot_id
    if rng is None:
        rng = np.random.default_rng(seed_used)
    positions, mus = _draw_ues(cfg, ue_template, rng)
    ues = [
        make_ue(
            distance=d, g=path_gain(d, cfg.attenuation_k), mu=mu, template=ue_template,
            epsilon=cfg.epsilon, delta_t=cfg.delta_t, position=(x, y),
        )
        for (x, y), d, mu in zip(
            positions.tolist(), _distances(positions, cfg).tolist(), mus.tolist()
        )
    ]
    snap = Snapshot(cfg, hbs, tuple(ues), snapshot_id=snapshot_id, seed_used=seed_used)
    errors = validate_scenario(cfg, hbs, list(snap.ues))
    if errors:
        raise ConfigError(errors)
    return snap


def sample_batch(
    cfg: ScenarioConfig, hbs: HbsParams, ue_template: UeTemplate, n_snapshots: int
) -> SnapshotBatch:
    """Snapshots 0 .. n_snapshots-1, drawn straight into the rows of a batch.

    Row s holds the values sample_snapshot(..., snapshot_id=s) gives, bit for
    bit, and invalid parameters raise the ConfigError it would raise.
    """
    shape = (n_snapshots, max(cfg.num_ues, 0))
    distance = np.empty(shape)
    mu = np.empty(shape)
    for sid in range(n_snapshots):
        positions, mu[sid] = _draw_ues(cfg, ue_template, np.random.default_rng(cfg.seed + sid))
        distance[sid] = _distances(positions, cfg)
    g = cfg.attenuation_k / (distance * distance * distance)
    t = ue_template
    p_cir = t.n_antennas * t.p_dyn + t.p_sta
    columns = {
        "mu": mu, "g": g, "h": g, "distance": distance,
        "gamma_target": np.full(shape, t.gamma_target),
        "eta": np.full(shape, t.eta),
        "p_bar_u": np.full(shape, t.resolve_p_bar_u(cfg.epsilon, cfg.delta_t)),
        "p_dyn": np.full(shape, t.p_dyn),
        "p_sta": np.full(shape, t.p_sta),
        "e_bar": np.full(shape, math.nan if t.e_bar is None else t.e_bar),
    }
    if n_snapshots:
        # the errors sample_snapshot raises at the first invalid snapshot:
        # with config errors that is snapshot 0, whatever its UEs
        errors = validate_scenario(cfg, hbs, [])
        errors += ue_errors(
            {name: col[:1] for name, col in columns.items()} if errors else columns
        )
        if errors:
            raise ConfigError(errors)
    return SnapshotBatch(
        cfg, hbs, g=g, h=g, mu=mu,
        gamma_target=columns["gamma_target"], eta=columns["eta"],
        p_bar_u=columns["p_bar_u"], p_cir=np.full(shape, p_cir), p_min=p_cir / (mu * g),
    )


def snapshot_from_distances(
    distances: list[float],
    cfg: ScenarioConfig,
    hbs: HbsParams,
    ue_template: UeTemplate,
    gamma_targets: list[float] | None = None,
    mus: list[float] | None = None,
    etas: list[float] | None = None,
) -> Snapshot:
    """Fixed-distance snapshot with per-UE overrides; bypasses cell geometry.

    UEs are placed on a ray from the base station, so positions may fall
    outside the cell; only the distances matter in this mode.
    """
    if len(distances) != cfg.num_ues:
        raise ConfigError(
            [f"distances: expected {cfg.num_ues} entries, got {len(distances)}"]
        )
    for name, values in (("gamma_targets", gamma_targets), ("mus", mus), ("etas", etas)):
        if values is not None and len(values) != cfg.num_ues:
            raise ConfigError(
                [f"{name}: expected {cfg.num_ues} entries, got {len(values)}"]
            )
    origin = hbs_position(cfg)
    ues = []
    for i, d in enumerate(distances):
        if d <= 0:
            raise ConfigError([f"distances[{i}]: must be strictly positive"])
        g = path_gain(d, cfg.attenuation_k)
        mu = mus[i] if mus is not None else (
            ue_template.mu if ue_template.mu is not None else 0.5
        )
        ues.append(
            make_ue(
                distance=d, g=g, mu=mu, template=ue_template,
                epsilon=cfg.epsilon, delta_t=cfg.delta_t,
                position=(origin[0] + d, origin[1]),
                gamma_target=None if gamma_targets is None else gamma_targets[i],
                eta=None if etas is None else etas[i],
            )
        )
    snap = Snapshot(cfg, hbs, tuple(ues))
    errors = validate_scenario(cfg, hbs, list(snap.ues))
    if errors:
        raise ConfigError(errors)
    return snap


def snapshot_from_scenario(
    scenario: Scenario,
    rng: np.random.Generator | None = None,
    snapshot_id: int = 0,
) -> Snapshot:
    """Fixed snapshot when the scenario pins distances, random one otherwise."""
    if scenario.fixed_ues is not None:
        fus = scenario.fixed_ues
        return snapshot_from_distances(
            [fu.distance for fu in fus],
            scenario.cfg,
            scenario.hbs,
            scenario.ue_template,
            gamma_targets=_override([fu.gamma_target for fu in fus]),
            mus=_override([fu.mu for fu in fus]),
            etas=_override([fu.eta for fu in fus]),
        )
    return sample_snapshot(
        scenario.cfg, scenario.hbs, scenario.ue_template, rng=rng, snapshot_id=snapshot_id
    )


def _override(values: list):
    return None if all(v is None for v in values) else values


def snapshot_to_json(snap: Snapshot, path: str | Path) -> None:
    """Dump a snapshot (linear units) for replay or inspection."""
    doc = {
        "snapshot_id": snap.snapshot_id,
        "seed_used": snap.seed_used,
        "hbs_placement": snap.cfg.hbs_placement,
        "ues": [
            {
                "position": list(u.position),
                "distance": u.distance,
                "g": u.g,
                "h": u.h,
                "mu": u.mu,
                "gamma_target": u.gamma_target,
                "eta": u.eta,
                "p_bar_u": u.p_bar_u,
                "p_cir": u.p_cir,
                "p_min": u.p_min,
            }
            for u in snap.ues
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def snapshot_csv_rows(snap: Snapshot) -> list[tuple]:
    """Rows (snapshot_id, ue_index, distance, gain, mu) for CSV export."""
    return [
        (snap.snapshot_id, i, u.distance, u.g, u.mu)
        for i, u in enumerate(snap.ues)
    ]
