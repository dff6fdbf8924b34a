"""Sequential velocity-profile passes of the planner.

Each pass walks the horizon one grid segment at a time and every step
depends on the previous speed, so the loops stay scalar Python. They run on
Python floats: the planner hands them its |effective curvature| and its
grip ``mu * g`` as lists, ``backward_pass`` returns lists, and
``forward_pass`` appends to a list of speeds. Indexing a numpy array element by
element would make every product, ``sqrt`` and comparison a numpy-scalar
operation, which costs several times the same IEEE-754 double arithmetic on
floats and gives the same bits. For the same reason ``min``/``max`` of two values are written
as ``b if b < a else a``/``b if b > a else a``, the exact equivalents of the
builtins (including which operand a tie or a NaN returns). The forward
pass's commanded braking covers a prefix of the grid segments: those before
the obstacle, over ascending positions.

The backward pass covers the whole horizon on every plan. The forward pass
is resumable: it continues a plan's speeds from the last one computed up to
a stop count, so a plan integrates only as far as it is read (see
``planner.PlannedTrajectory``), and a speed has the same bits however the
horizon is split into calls.

They live in their own module so ``planner`` can call them as
``_kernels.backward_pass`` and ``_kernels.forward_pass``:
``perfbench/tracer.py`` wraps those names to time the passes apart from the
rest of planning.
"""

import math


# Curvatures at or below this count as straight: no curvature speed cap.
KAPPA_EPS = 1e-12


def backward_pass(kappa_abs, mu_g, v_des, ds):
    """Curvature caps and the deceleration-limited speed envelope, swept from
    the horizon end.

    A point's cap is ``v_des``, or the circle-limited cornering speed
    ``sqrt(mu_g / kappa)`` where that is lower (NaN grip gives a NaN cap,
    as ``np.minimum`` would). Braking capacity at each segment is the
    friction-circle leftover after the lateral acceleration demanded at the
    downstream point. ``kappa_abs`` and ``mu_g`` are lists of floats; returns
    the envelope and the caps as lists.
    """
    v_des = float(v_des)
    ds = float(ds)
    n = len(kappa_abs)
    cap = [0.0] * n
    v = [0.0] * n
    reach = math.inf
    for i in range(n - 1, -1, -1):
        k = kappa_abs[i]
        m = mu_g[i]
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


def forward_pass(v, stop, v_bound, v_cap, kappa_abs, mu_g, ds, f_lat, f_brake, brake_until):
    """Integrate the speed profile forward, appending to the speeds ``v`` in
    place until it holds ``stop`` points, or the whole horizon if fewer.

    ``v`` starts as ``[current speed]``; each call continues from its last
    speed, so any sequence of stops gives the speeds of one call to the last.

    Three regimes per segment: commanded violation braking (the first
    ``brake_until`` segments) sheds speed at bounded lateral/brake shares of
    the circle; speeds above the pointwise curvature cap do the same (the
    curve cannot be held); speeds above only the backward envelope pre-brake
    with the full circle leftover (a thin lateral share is reserved so
    braking room never vanishes while riding the cap); otherwise the profile
    accelerates toward the envelope. ``v_bound`` and ``v_cap`` are the lists
    ``backward_pass`` returns, ``kappa_abs`` and ``mu_g`` the lists it took.
    """
    ds = float(ds)
    f_lat = float(f_lat)
    f_brake = float(f_brake)
    vi = v[-1]
    n = len(v_bound)
    for i in range(len(v) - 1, (stop if stop < n else n) - 1):
        vi2 = vi * vi
        lat_demand = vi2 * kappa_abs[i]
        m = mu_g[i]
        nxt = v_bound[i + 1]
        commanded = i < brake_until
        if commanded or vi > v_cap[i] + CAP_VIOLATION_TOL:
            share = f_lat * m
            lat = share if share < lat_demand else lat_demand
            left2 = m * m - lat * lat
            left = math.sqrt(left2) if left2 > 0.0 else 0.0
            brake = f_brake * m
            brake = left if left < brake else brake
            vn2 = vi2 - 2.0 * brake * ds
            vi = math.sqrt(vn2) if vn2 > 0.0 else 0.0
            if not commanded and vi < nxt:
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
