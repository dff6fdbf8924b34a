"""Sequential velocity-profile passes of the planner.

Each pass walks the horizon one grid segment at a time and every step
depends on the previous speed, so the loops stay scalar Python. They run on
Python floats: each pass copies its arrays once with ``tolist()`` and fills
lists; ``backward_pass`` hands its lists to ``forward_pass``, which returns
one array. Indexing a numpy array element by element would
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


# Curvatures at or below this count as straight: no curvature speed cap.
KAPPA_EPS = 1e-12


def backward_pass(kappa_abs, mu_g, v_des, ds):
    """Curvature caps and the deceleration-limited speed envelope, swept from
    the horizon end.

    A point's cap is ``v_des``, or the circle-limited cornering speed
    ``sqrt(mu_g / kappa)`` where that is lower (NaN grip gives a NaN cap,
    as ``np.minimum`` would). Braking capacity at each segment is the
    friction-circle leftover after the lateral acceleration demanded at the
    downstream point. Returns the envelope and the caps as lists.
    """
    kappa = kappa_abs.tolist()
    mg = mu_g.tolist()
    v_des = float(v_des)
    ds = float(ds)
    n = len(kappa)
    cap = [0.0] * n
    v = [0.0] * n
    reach = math.inf
    for i in range(n - 1, -1, -1):
        k = kappa[i]
        m = mg[i]
        c = math.sqrt(m / k) if k > KAPPA_EPS else v_des
        if v_des <= c:
            c = v_des
        cap[i] = c
        vn = reach if reach < c else c
        v[i] = vn
        # The speed the point upstream can still shed down to vn.
        vn2 = vn * vn
        lat = vn2 * k
        avail2 = m * m - lat * lat
        avail = math.sqrt(avail2) if avail2 > 0.0 else 0.0
        reach = math.sqrt(vn2 + 2.0 * avail * ds)
    return v, cap


PREBRAKE_LATERAL_SHARE = 0.98
CAP_VIOLATION_TOL = 0.1


def forward_pass(v0, v_bound, v_cap, kappa_abs, mu_g, ds, f_lat, f_brake, brake_mask=None):
    """Integrate the speed profile forward from the current speed.

    Three regimes per segment: commanded violation braking (``brake_mask``)
    sheds speed at bounded lateral/brake shares of the circle; speeds above
    the pointwise curvature cap do the same (the curve cannot be held);
    speeds above only the backward envelope pre-brake with the full circle
    leftover (a thin lateral share is reserved so braking room never
    vanishes while riding the cap); otherwise the profile accelerates
    toward the envelope. ``v_bound`` and ``v_cap`` are the lists
    ``backward_pass`` returns; no ``brake_mask`` is the same as an all-False
    one.
    """
    kappa = kappa_abs.tolist()
    mg = mu_g.tolist()
    mask = brake_mask.tolist() if brake_mask is not None else [False] * len(v_bound)
    ds = float(ds)
    f_lat = float(f_lat)
    f_brake = float(f_brake)
    vi = float(v0)
    v = [vi]
    for i in range(len(v_bound) - 1):
        vi2 = vi * vi
        lat_demand = vi2 * kappa[i]
        m = mg[i]
        nxt = v_bound[i + 1]
        if mask[i] or vi > v_cap[i] + CAP_VIOLATION_TOL:
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
