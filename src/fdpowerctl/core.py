"""Power-control update rules and derived link metrics.

All functions here are pure maps from a joint power state to the next state
or to metrics. The synchronous iteration that composes them lives in the
engine.

A state is one array x: the K uplink powers in x[..., :-1], then the base
station's harvest transmit power in x[..., -1] (watts). One state has shape
(K+1,); a batch of S states has shape (S, K+1) and goes with a Snapshot whose
per-UE arrays are (S, K). Each row gets exactly the result it would get
on its own, which fixes how the reductions over the UEs may run:

* a maximum (`ue_max`) is exact in any order, so it may run across rows,
  over a transposed copy, where that is cheaper;
* the interference sum may not: it is a last-axis `np.add.reduce` over each
  contiguous row, whose (pairwise, from 8 UEs on) order is part of the bits.

Four algorithms are supported:

* TPC    - target-SINR tracking, no harvesting (p_h stays 0).
* OPC    - opportunistic control, no harvesting.
* TPCEH  - target-SINR tracking with the harvest-power update; the base
           station raises its downlink energy signal to the largest per-UE
           requirement p_u / (eps * mu * g) + p_min.
* OPCEH  - opportunistic control with the same harvest-power update.

The uplink SINR of UE i is h_i p_i / (sum_{j != i} h_j p_j + delta p_h +
sigma2): other UEs interfere directly, and a fraction delta of the downlink
energy signal leaks into the receiver as residual self-interference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import Snapshot

__all__ = [
    "Algorithm",
    "Metrics",
    "state_caps",
    "sinr",
    "hbs_update",
    "joint_update",
    "metrics",
    "required_hbs_power",
    "ue_max",
]

# Numeric guards, not model semantics: slack applied when classifying
# energy feasibility, a binding harvest cap and outage at a fixed point.
FEASIBILITY_REL_SLACK = 1e-12
OUTAGE_REL_SLACK = 1e-6


class Algorithm(str, enum.Enum):
    TPC = "TPC"
    OPC = "OPC"
    TPCEH = "TPCEH"
    OPCEH = "OPCEH"

    @property
    def harvesting(self) -> bool:
        return self in (Algorithm.TPCEH, Algorithm.OPCEH)

    @property
    def opportunistic(self) -> bool:
        return self in (Algorithm.OPC, Algorithm.OPCEH)


def state_caps(snap: Snapshot) -> np.ndarray:
    """Upper bounds of a state on the snapshot: each UE's p_bar_u, then the
    harvest peak p_bar_h; (K+1,) for one snapshot, (S, K+1) for a batch."""
    caps = np.empty((*snap.g.shape[:-1], snap.num_ues + 1))
    caps[..., :-1] = snap.p_bar_u
    caps[..., -1] = snap.hbs.p_bar_h
    return caps


def ue_max(a: np.ndarray) -> np.ndarray:
    """Maximum over the last (UE) axis, byte for byte that of np.max(a, axis=-1).

    With more rows than UEs one reduction across the rows of a (K, S) copy
    beats S short row reductions; with fewer, the copy costs more. Either
    order gives the same bits, inf and NaN included, except that a maximum
    of 0.0 and -0.0 may come out as either: the update kernel reduces no
    -0.0.
    """
    if a.ndim == 2 and a.shape[0] > a.shape[1]:
        return np.maximum.reduce(a.T.copy(), axis=0)
    return np.maximum.reduce(a, axis=-1)


def _interference(x: np.ndarray, snap: Snapshot) -> np.ndarray:
    """Per-UE interference-plus-noise seen at the base station receiver,
    ((sum - own) + delta p_h) + sigma2."""
    received = snap.h * x[..., :-1]
    interf = np.add.reduce(received, axis=-1, keepdims=True) - received
    interf += snap.cfg.delta * x[..., -1:]
    interf += snap.cfg.sigma2
    return interf


def sinr(x: np.ndarray, snap: Snapshot) -> np.ndarray:
    """Uplink SINR per UE; the denominator is bounded below by sigma2 > 0."""
    return snap.h * x[..., :-1] / _interference(x, snap)


def required_hbs_power(p_u: np.ndarray, snap: Snapshot) -> np.ndarray:
    """Per-UE downlink power the harvest constraint demands: p_u/(eps mu g) + p_min."""
    required = p_u / snap.harvest_scale
    required += snap.p_min
    return required


def hbs_update(x: np.ndarray, snap: Snapshot) -> float | np.ndarray:
    """Harvest-power update: the smallest downlink power meeting every UE's
    harvest requirement, clipped to the peak. Above the peak the state is
    energy-infeasible."""
    return np.minimum(snap.hbs.p_bar_h, ue_max(required_hbs_power(x[..., :-1], snap)))


def joint_update(alg: Algorithm, x: np.ndarray, snap: Snapshot) -> np.ndarray:
    """One synchronous step: every UE and (for *EH) the base station update
    from the same state. Returns a new state of the same shape."""
    interf = _interference(x, snap)
    if alg.opportunistic:
        up = np.divide(snap.eta * snap.h, interf, out=interf)
    else:
        up = np.multiply(snap.gamma_target, interf, out=interf)
        up /= snap.h
    nxt = np.empty(x.shape)
    np.minimum(snap.p_bar_u, up, out=nxt[..., :-1])
    nxt[..., -1] = hbs_update(x, snap) if alg.harvesting else 0.0
    return nxt


@dataclass
class Metrics:
    """Link and power metrics derived from one joint power state.

    For a batch of states every field gains a leading (S,) axis.
    """

    sinr: np.ndarray
    rate: np.ndarray
    ue_total_power: np.ndarray       # p_u / eps + p_cir
    hbs_total_power: float | np.ndarray   # p_h / eps + hbs circuit
    harvested_power: np.ndarray      # mu * g * p_h
    aggregate_power: float | np.ndarray
    aggregate_throughput: float | np.ndarray
    energy_feasible: np.ndarray      # bool per UE
    hbs_cap_binding: bool | np.ndarray    # p_h at its peak while some UE is unmet
    outage: np.ndarray               # bool per UE


def metrics(x: np.ndarray, snap: Snapshot) -> Metrics:
    """Evaluate all metrics of a power state (or a batch) on a snapshot.

    The energy verdict is decided here: UE i is energy-feasible when p_h
    covers its requirement p_u,i / (eps mu_i g_i) + p_min,i, and the harvest
    cap binds when p_h sits at p_bar_h while some UE's requirement is unmet;
    both up to FEASIBILITY_REL_SLACK.
    """
    eps = snap.cfg.epsilon
    p_u, p_h = x[..., :-1], x[..., -1:]
    s = sinr(x, snap)
    r = np.log2(1.0 + s)
    ue_total = p_u / eps + snap.ue_template.p_cir
    hbs_total = x[..., -1] / eps + snap.hbs.p_cir
    harvested = snap.mu * snap.g * p_h
    required = required_hbs_power(p_u, snap)
    feasible = p_h >= required * (1.0 - FEASIBILITY_REL_SLACK)
    cap_binding = (
        x[..., -1] >= snap.hbs.p_bar_h * (1.0 - FEASIBILITY_REL_SLACK)
    ) & ~feasible.all(axis=-1)
    outage = s < snap.gamma_target * (1.0 - OUTAGE_REL_SLACK)
    return Metrics(
        sinr=s,
        rate=r,
        ue_total_power=ue_total,
        hbs_total_power=hbs_total,
        harvested_power=harvested,
        aggregate_power=ue_total.sum(axis=-1) + hbs_total,
        aggregate_throughput=r.sum(axis=-1),
        energy_feasible=feasible,
        hbs_cap_binding=cap_binding,
        outage=outage,
    )
