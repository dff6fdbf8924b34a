"""Sequential velocity-profile passes of the planner.

Each pass walks the horizon one grid segment at a time and every step
depends on the previous speed, so the loops stay scalar Python. They live in
their own module so ``planner`` can call them as ``_kernels.backward_pass``
and ``_kernels.forward_pass``: ``perfbench/tracer.py`` wraps those names to
time the passes apart from the rest of planning.
"""

import math

import numpy as np


def backward_pass(v_cap, kappa_abs, mu_g, ds):
    """Deceleration-limited speed envelope, swept from the horizon end.

    Braking capacity at each segment is the friction-circle leftover after
    the lateral acceleration demanded at the downstream point.
    """
    n = v_cap.shape[0]
    v = np.empty(n)
    v[n - 1] = v_cap[n - 1]
    for i in range(n - 2, -1, -1):
        lat = v[i + 1] * v[i + 1] * kappa_abs[i + 1]
        avail2 = mu_g[i + 1] * mu_g[i + 1] - lat * lat
        avail = math.sqrt(avail2) if avail2 > 0.0 else 0.0
        v[i] = min(v_cap[i], math.sqrt(v[i + 1] * v[i + 1] + 2.0 * avail * ds))
    return v


PREBRAKE_LATERAL_SHARE = 0.98
CAP_VIOLATION_TOL = 0.1


def forward_pass(v0, v_bound, v_cap, kappa_abs, mu_g, ds, brake_mask, f_lat, f_brake):
    """Integrate the speed profile forward from the current speed.

    Three regimes per segment: commanded violation braking (``brake_mask``)
    sheds speed at bounded lateral/brake shares of the circle; speeds above
    the pointwise curvature cap do the same (the curve cannot be held);
    speeds above only the backward envelope pre-brake with the full circle
    leftover (a thin lateral share is reserved so braking room never
    vanishes while riding the cap); otherwise the profile accelerates
    toward the envelope.
    """
    n = v_bound.shape[0]
    v = np.empty(n)
    v[0] = v0
    for i in range(n - 1):
        vi2 = v[i] * v[i]
        lat_demand = vi2 * kappa_abs[i]
        if brake_mask[i] or v[i] > v_cap[i] + CAP_VIOLATION_TOL:
            lat = min(lat_demand, f_lat * mu_g[i])
            left2 = mu_g[i] * mu_g[i] - lat * lat
            left = math.sqrt(left2) if left2 > 0.0 else 0.0
            brake = min(f_brake * mu_g[i], left)
            vn2 = vi2 - 2.0 * brake * ds
            vn = math.sqrt(vn2) if vn2 > 0.0 else 0.0
            if not brake_mask[i] and vn < v_bound[i + 1]:
                vn = v_bound[i + 1]
            v[i + 1] = vn
        elif v[i] > v_bound[i + 1]:
            lat = min(lat_demand, PREBRAKE_LATERAL_SHARE * mu_g[i])
            left2 = mu_g[i] * mu_g[i] - lat * lat
            brake = math.sqrt(left2) if left2 > 0.0 else 0.0
            vn2 = vi2 - 2.0 * brake * ds
            vn = math.sqrt(vn2) if vn2 > 0.0 else 0.0
            v[i + 1] = max(v_bound[i + 1], vn)
        else:
            lat = min(lat_demand, mu_g[i])
            left2 = mu_g[i] * mu_g[i] - lat * lat
            accel = math.sqrt(left2) if left2 > 0.0 else 0.0
            v[i + 1] = min(v_bound[i + 1], math.sqrt(vi2 + 2.0 * accel * ds))
    return v
