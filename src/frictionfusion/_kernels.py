"""Sequential velocity-profile passes of the planner.

Each pass walks the horizon one grid segment at a time and every step
depends on the previous speed, so the loops stay scalar Python. They run on
Python floats: each pass copies its arrays once with ``tolist()``, fills a
list and returns one array. Indexing a numpy array element by element would
make every product, ``sqrt`` and comparison a numpy-scalar operation, which
costs several times the same IEEE-754 double arithmetic on floats and gives
the same bits. For the same reason ``min``/``max`` of two values are written
as ``b if b < a else a``/``b if b > a else a``, the exact equivalents of the
builtins (including which operand a tie or a NaN returns).

They live in their own module so ``planner`` can call them as
``_kernels.backward_pass`` and ``_kernels.forward_pass``:
``perfbench/tracer.py`` wraps those names to time the passes apart from the
rest of planning.
"""

import math

import numpy as np


def backward_pass(v_cap, kappa_abs, mu_g, ds):
    """Deceleration-limited speed envelope, swept from the horizon end.

    Braking capacity at each segment is the friction-circle leftover after
    the lateral acceleration demanded at the downstream point.
    """
    cap = v_cap.tolist()
    kappa = kappa_abs.tolist()
    mg = mu_g.tolist()
    ds = float(ds)
    n = len(cap)
    v = [0.0] * n
    vn = cap[n - 1]
    v[n - 1] = vn
    for i in range(n - 2, -1, -1):
        vn2 = vn * vn
        lat = vn2 * kappa[i + 1]
        m = mg[i + 1]
        avail2 = m * m - lat * lat
        avail = math.sqrt(avail2) if avail2 > 0.0 else 0.0
        reach = math.sqrt(vn2 + 2.0 * avail * ds)
        c = cap[i]
        vn = reach if reach < c else c
        v[i] = vn
    return np.array(v)


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
    bound = v_bound.tolist()
    cap = v_cap.tolist()
    kappa = kappa_abs.tolist()
    mg = mu_g.tolist()
    mask = brake_mask.tolist()
    ds = float(ds)
    f_lat = float(f_lat)
    f_brake = float(f_brake)
    vi = float(v0)
    v = [vi]
    for i in range(len(bound) - 1):
        vi2 = vi * vi
        lat_demand = vi2 * kappa[i]
        m = mg[i]
        nxt = bound[i + 1]
        if mask[i] or vi > cap[i] + CAP_VIOLATION_TOL:
            share = f_lat * m
            lat = share if share < lat_demand else lat_demand
            left2 = m * m - lat * lat
            left = math.sqrt(left2) if left2 > 0.0 else 0.0
            brake = f_brake * m
            brake = left if left < brake else brake
            vn2 = vi2 - 2.0 * brake * ds
            vi = math.sqrt(vn2) if vn2 > 0.0 else 0.0
            if not mask[i] and vi < nxt:
                vi = nxt
        elif vi > nxt:
            share = PREBRAKE_LATERAL_SHARE * m
            lat = share if share < lat_demand else lat_demand
            left2 = m * m - lat * lat
            brake = math.sqrt(left2) if left2 > 0.0 else 0.0
            vn2 = vi2 - 2.0 * brake * ds
            vn = math.sqrt(vn2) if vn2 > 0.0 else 0.0
            vi = vn if vn > nxt else nxt
        else:
            lat = m if m < lat_demand else lat_demand
            left2 = m * m - lat * lat
            accel = math.sqrt(left2) if left2 > 0.0 else 0.0
            vn = math.sqrt(vi2 + 2.0 * accel * ds)
            vi = vn if vn < nxt else nxt
        v.append(vi)
    return np.array(v)
