"""Power-control update rules and derived link metrics.

All functions here are pure maps from a joint power state to the next state
or to metrics; a bound update (`JointUpdate`) reuses its own scratch arrays,
so one binding serves one caller at a time. The synchronous iteration that
composes them lives in the engine.

A state is one array x: the K uplink powers in x[..., :-1], then the base
station's harvest transmit power in x[..., -1] (watts). One state has shape
(K+1,); a batch of S states has shape (S, K+1) and goes with a Snapshot whose
per-UE arrays are (S, K). A batch may be row-major, each row contiguous, or
UE-major, each UE's column contiguous (the mobility windows are); results
take the layout of their inputs. The update is one kernel, `JointUpdate`,
bound to a batch once and then applied at every step (`joint_update` binds
and applies it once). It works on all K+1 lanes of the state, the harvest
power as lane K, whatever the layout: its per-UE operands are padded to K+1
lanes in the state's layout, row-major, UE-major or one state, with pads
that keep lane K inert, so that every elementwise pass runs on whole arrays
rather than on the strided view of the K uplink powers. Each row gets
exactly the result it would get on its own, in either layout, which fixes
how the reductions over the UEs may run:

* a maximum (`ue_max`) is exact in any order, so it may run across rows,
  over a transposed copy, where that is cheaper;
* the interference sum (`ue_sum`) has the bits of a last-axis
  `np.add.reduce` over each contiguous row, whose order (pairwise, from 8
  UEs on) is part of the bits. On a UE-major batch it replays that order
  column by column, since numpy would sum such an array left to right.

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
    "JointUpdate",
    "metrics",
    "required_hbs_power",
    "ue_max",
    "ue_sum",
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

    def __init__(self, value: str):
        # plain attributes: every update step reads them
        self.harvesting = value in ("TPCEH", "OPCEH")
        self.opportunistic = value in ("OPC", "OPCEH")


def state_caps(snap: Snapshot) -> np.ndarray:
    """Upper bounds of a state on the snapshot: each UE's p_bar_u, then the
    harvest peak p_bar_h; (K+1,) for one snapshot, (S, K+1) for a batch."""
    caps = np.empty((*snap.g.shape[:-1], snap.num_ues + 1))
    caps[..., :-1] = snap.p_bar_u
    caps[..., -1] = snap.hbs.p_bar_h
    return caps


def _ue_major(a: np.ndarray) -> bool:
    """Whether a is a 2-D batch whose UE columns, not rows, are contiguous."""
    return a.ndim == 2 and a.strides[0] < a.strides[1]


def ue_max(a: np.ndarray) -> np.ndarray:
    """Maximum over the last (UE) axis, byte for byte that of np.max(a, axis=-1).

    numpy reduces a UE-major batch across its rows, one UE column at a time.
    A row-major batch with more rows than UEs gets the same by one reduction
    across the rows of a (K, S) copy, which beats S short row reductions;
    with fewer, the copy costs more. Either order gives the same bits, inf
    and NaN included, except that a maximum of 0.0 and -0.0 may come out as
    either: the update kernel reduces no -0.0.
    """
    if a.ndim == 2 and a.shape[0] > a.shape[1] and not _ue_major(a):
        return np.maximum.reduce(a.T.copy(), axis=0)
    return np.maximum.reduce(a, axis=-1)


def _pairwise(t: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of the n rows of t, for every column at once.

    It is the order in which numpy sums n contiguous terms: one running sum
    below 8 terms; eight accumulators, term i into accumulator i % 8, from 8
    on, combined as ((0+1)+(2+3))+((4+5)+(6+7)) before the terms past the
    last multiple of 8 are added one by one; and above 128 terms a split
    into halves, the first a multiple of 8 long, summed alike and added.
    """
    n = len(t)
    if n < 8:
        res = t[0] + t[1] if n > 1 else t[0].copy()
        for i in range(2, n):
            res += t[i]
        return res
    if n <= 128:
        stop = n - n % 8
        acc = t[0:8] + t[8:16] if stop > 8 else t[0:8]
        for i in range(16, stop, 8):
            acc += t[i : i + 8]
        acc = acc[0::2] + acc[1::2]
        acc = acc[0::2] + acc[1::2]
        res = acc[0] + acc[1]
        for i in range(stop, n):
            res += t[i]
        return res
    half = n // 2
    half -= half % 8
    res = _pairwise(t[:half])
    res += _pairwise(t[half:])
    return res


def ue_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last (UE) axis with the bits of
    np.add.reduce(a, axis=-1, keepdims=True) on contiguous rows.

    A UE-major batch gets numpy's pairwise order replayed across its rows
    (`_pairwise`, then numpy's final addition to the identity 0.0), on
    contiguous columns and with no copy, where a reduce would sum it left to
    right. The bits are those of the row reduction except the sign of a NaN,
    which numpy itself does not fix.
    """
    if _ue_major(a) and a.shape[1]:
        res = _pairwise(a.T)
        res += 0.0
        return res[:, None]
    return np.add.reduce(a, axis=-1, keepdims=True)


def _interference(x: np.ndarray, snap: Snapshot) -> np.ndarray:
    """Per-UE interference-plus-noise seen at the base station receiver,
    ((sum - own) + delta p_h) + sigma2."""
    received = snap.h * x[..., :-1]
    interf = ue_sum(received) - received
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


def _padded(a: np.ndarray, pad: float, order: str) -> np.ndarray:
    """a's (..., K) UE lanes and the harvest lane after them, set to pad: a
    new (..., K+1) array in the given memory order."""
    lanes = np.empty((*a.shape[:-1], a.shape[-1] + 1), order=order)
    lanes[..., :-1] = a
    lanes[..., -1] = pad
    return lanes


class JointUpdate:
    """An algorithm's joint update bound to a batch: one synchronous step in
    which every UE and (for *EH) the base station update from the same state.

    Binding looks up the operands and allocates the scratch arrays, once,
    for states shaped and laid out like `like` (by default a row-major
    batch of the snapshot's rows); a call then writes the next state of x
    into `out`, of x's shape and not overlapping x, or into a new array of
    x's layout. Every UE lane performs the operations of the plain (..., K)
    arithmetic, in its order: ((sum - own) + delta p_h) + sigma2 for the
    interference, then min(p_bar_u, (gamma interference) / h) or
    min(p_bar_u, (eta h) / interference), and p_u / (eps mu g) + p_min
    before the harvest maximum.

    The kernel runs on all K+1 lanes of the state, the harvest power as
    lane K: each per-UE operand is bound padded to K+1 lanes, in the
    state's layout (row-major, UE-major or one state), so every elementwise
    pass runs on whole arrays, where the K uplink columns alone would be a
    strided view. The interference sum and the harvest maximum read the K
    UE lanes alone (`ue_sum`, `ue_max`). The harvest lane's pads keep it
    inert: h is -1 there, so that lane's interference, ((sum + p_h) +
    delta p_h) + sigma2, is at least sigma2 for a finite p_h >= 0 and no
    division meets a 0; gamma, eta h and the harvest divisor are 1 and the
    floor 0, so an infinite interference (delta p_h overflowing) never
    meets a factor of 0 and no harvest power, inf or NaN included, makes
    that lane warn. The lane's value is overwritten with the next harvest
    power.

    The scalars are bound as 0-d arrays, which numpy combines with a whole
    array as cheaply as a second contiguous operand.
    """

    def __init__(self, alg: Algorithm, snap: Snapshot, like: np.ndarray | None = None):
        k = snap.num_ues
        shape = (*snap.g.shape[:-1], k + 1) if like is None else like.shape
        order = "F" if like is not None and _ue_major(like) else "C"
        self.alg, self.k = alg, k
        self.h = _padded(snap.h, -1.0, order)
        if alg.opportunistic:
            with np.errstate(over="ignore"):     # an infinite gain saturates the UE at its cap
                self.gain = _padded(snap.eta * snap.h, 1.0, order)
        else:
            self.gain = _padded(snap.gamma_target, 1.0, order)
        if alg.harvesting:
            self.scale = _padded(snap.harvest_scale, 1.0, order)
            self.floor = _padded(snap.p_min, 0.0, order)
        self.delta, self.sigma2 = np.array(snap.cfg.delta), np.array(snap.cfg.sigma2)
        self.p_bar_u, self.p_bar_h = np.array(snap.p_bar_u), np.array(snap.hbs.p_bar_h)
        self.interf = np.empty(shape, order=order)
        self.leak = np.empty(shape[:-1])

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        k = self.k
        # the lanes of nxt hold the received powers and the harvest
        # requirements before the next state
        nxt = np.empty_like(x) if out is None else out
        received = np.multiply(self.h, x, out=nxt)
        interf = np.subtract(ue_sum(received[..., :k]), received, out=self.interf)
        interf += np.multiply(self.delta, x[..., k], out=self.leak)[..., None]
        interf += self.sigma2
        if self.alg.opportunistic:
            up = np.divide(self.gain, interf, out=interf)
        else:
            up = np.multiply(self.gain, interf, out=interf)
            up /= self.h
        if self.alg.harvesting:
            required = np.divide(x, self.scale, out=nxt)
            required += self.floor
            harvest = ue_max(required[..., :k])
        np.minimum(self.p_bar_u, up, out=nxt)
        if self.alg.harvesting:
            np.minimum(self.p_bar_h, harvest, out=nxt[..., k])
        else:
            nxt[..., k] = 0.0
        return nxt


def joint_update(alg: Algorithm, x: np.ndarray, snap: Snapshot) -> np.ndarray:
    """One synchronous step: every UE and (for *EH) the base station update
    from the same state. Returns the next state, a new array of x's shape
    and layout. It binds the update to the snapshot and applies it once
    (see `JointUpdate`)."""
    return JointUpdate(alg, snap, x)(x)


@dataclass
class Metrics:
    """Link and power metrics derived from one joint power state.

    For a batch of states every field gains a leading (S,) axis.
    """

    sinr: np.ndarray
    rate: np.ndarray
    ue_total_power: np.ndarray       # p_u / eps + p_cir
    hbs_total_power: float | np.ndarray   # p_h / eps + hbs circuit
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
        aggregate_power=ue_total.sum(axis=-1) + hbs_total,
        aggregate_throughput=r.sum(axis=-1),
        energy_feasible=feasible,
        hbs_cap_binding=cap_binding,
        outage=outage,
    )
