"""The fixed-point loop as it ran before batching: one snapshot, one state.

The engine now steps whole batches of snapshots at once; the tests hold it
to this loop's numbers exactly. Each step stacks the K uplink powers and the
harvest power with np.append and takes the infinity-norm relative change.
"""

from __future__ import annotations

import math

import numpy as np

from fdpowerctl.core import Algorithm, PowerVector, joint_update

CHANGE_FLOOR = 1e-18


def relative_change(p_new: PowerVector, p_old: PowerVector) -> float:
    a = np.append(p_new.p_u, p_new.p_h)
    b = np.append(p_old.p_u, p_old.p_h)
    return float(np.max(np.abs(a - b) / np.maximum(b, CHANGE_FLOOR)))


def scalar_fixed_point(alg, snap, p_init=None, tol=None, max_iter=None):
    """(fixed_point, iterations_used, converged, final_change) of one snapshot."""
    alg = Algorithm(alg)
    tol = snap.cfg.tol if tol is None else tol
    max_iter = snap.cfg.max_iter if max_iter is None else max_iter
    if p_init is None:
        p_init = PowerVector(np.full(snap.num_ues, 1e-6), 1e-6 if alg.harvesting else 0.0)
    p = PowerVector(
        np.clip(p_init.p_u, 0.0, snap.p_bar_u),
        float(min(max(p_init.p_h, 0.0), snap.hbs.p_bar_h)),
    )
    converged = False
    change = math.inf
    t = 0
    for t in range(1, max_iter + 1):
        p_next = joint_update(alg, p, snap)
        change = relative_change(p_next, p)
        p = p_next
        if change <= tol:
            converged = True
            break
    return p, (t if max_iter > 0 else 0), converged, change
