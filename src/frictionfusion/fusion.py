"""Fusion of local and camera-class friction estimates into a conservative bound.

Assembles per-point estimates with margins of error from the two sources,
converts the margins to observation noise, runs GP regression with
observations 1 m apart ahead of the vehicle (or on the planning grid, where
that is coarser), and extracts the lower edge of the 95% confidence band on
the planning grid as the fused estimate.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gp import GpPrior, ObservationSet, SquaredExponentialKernel, posterior

Z_95 = 1.96

PRIOR_LOW = 0.1
PRIOR_HIGH = 1.0

DEFAULT_DS = 1.0
DEFAULT_HORIZON = 50.0
DEFAULT_LENGTH_SCALE = 10.0
DEFAULT_LOCAL_REACH = 5.0
# A fused replan costs O(n) in the planner and O(n m^2) in the fuse, for m = 51
# observations at 1 m. Measured on a 2-vCPU VM over fused runs on patchy roads
# (tools/replan_latency.py): ``plan`` takes 0.16 / 0.63 / 1.4 ms median at
# n = 51 / 501 / 2001, and a whole fused replan (estimate and plan) 3.3 ms
# median and 5.3-5.7 ms p99 at 2001 points (ds = 0.025 on the default 50 m
# horizon), under 6% of the 100 ms replan period. The limit keeps a replan at
# a few percent of its period; ten times the points would, extrapolated
# linearly, put the p99 near 55 ms, more than half of it.
MAX_GRID_POINTS = 2001
# A stock fused run fuses two distinct series, over and over (with and without
# the local estimate); a memo of the two most recent hits as often as an
# unbounded one there, while on patchy roads, where series rarely repeat, it
# stays small.
FUSE_MEMO_SIZE = 2


@dataclass(frozen=True)
class SGrid:
    """Uniform arc-length grid {0, ds, ..., s_f} ahead of the vehicle."""

    ds: float = DEFAULT_DS
    s_f: float = DEFAULT_HORIZON

    def __post_init__(self):
        if not self.ds > 0.0:
            raise ValueError(f"ds must be > 0, got {self.ds}")
        if not 0.0 < self.s_f < math.inf:
            raise ValueError(f"s_f must be finite and > 0, got {self.s_f}")
        ratio = self.s_f / self.ds
        # Below MAX_GRID_POINTS - 0.5, a whole ratio gives at most the limit.
        if not ratio < MAX_GRID_POINTS - 0.5:
            raise ValueError(f"s_f ({self.s_f}) over ds ({self.ds}) is {ratio + 1:.6g} "
                             f"grid points, more than the limit of {MAX_GRID_POINTS}")
        if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"s_f ({self.s_f}) must be a positive whole multiple "
                             f"of ds ({self.ds})")
        # Built once and read-only: not a dataclass field, so equality,
        # hashing and repr still see only ``ds`` and ``s_f``.
        points = np.arange(self.n_points) * self.ds
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def n_points(self):
        return int(round(self.s_f / self.ds)) + 1

    @functools.cached_property
    def observation_grid(self):
        """The grid ``emulate`` observes on for this planning grid: ``DEFAULT_DS``
        spacing over the same horizon (the nearest finer spacing that divides
        ``s_f`` when ``s_f`` is no whole multiple of it), or this grid itself
        when its spacing is ``DEFAULT_DS`` or coarser. So a fuse has no more
        observations than planning points, and at most ``s_f / DEFAULT_DS + 2``."""
        if self.ds >= DEFAULT_DS:
            return self
        intervals = math.ceil(self.s_f / DEFAULT_DS - 1e-9)
        return SGrid(ds=self.s_f / intervals, s_f=self.s_f)


@dataclass(frozen=True)
class EstimateSeries:
    """Assembled input samples (mu', m') on the grid, one pair per point."""

    grid: SGrid
    mu_prime: np.ndarray
    margin: np.ndarray

    def __init__(self, grid, mu_prime, margin):
        mu = np.asarray(mu_prime, dtype=np.float64).reshape(-1)
        mg = np.asarray(margin, dtype=np.float64).reshape(-1)
        n = grid.n_points
        if len(mu) != n or len(mg) != n:
            raise ValueError(f"mu_prime and margin must have {n} entries to match the grid")
        if not (np.isfinite(mg).all() and mg.min() >= 0.0):
            raise ValueError("margin entries must be finite and >= 0")
        if not (mu.min() > 0.0 and mu.max() <= 1.5):
            raise ValueError("mu_prime entries must be finite and lie in (0, 1.5]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "mu_prime", mu)
        object.__setattr__(self, "margin", mg)


@dataclass(frozen=True)
class FusedEstimate:
    """Lower 95% bound ``mu_hat`` = ``mean`` - 1.96 ``std`` of the posterior
    marginals, and the jitter the GP factorization needed."""

    mu_hat: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    jitter: float


def calibrate_prior(length_scale=DEFAULT_LENGTH_SCALE):
    """Prior whose 95% band is exactly [0.1, 1.0] at every position.

    The mean is the band midpoint and the signal std is the half-width
    divided by the 95% z-value, so mean +- 1.96*sigma_f recovers the band.
    """
    mean = 0.5 * (PRIOR_LOW + PRIOR_HIGH)
    sigma_f = 0.5 * (PRIOR_HIGH - PRIOR_LOW) / Z_95
    return GpPrior(mean=mean, kernel=SquaredExponentialKernel(sigma_f, length_scale))


def margin_to_std(margin):
    """Convert a 95% margin of error to an observation noise std."""
    return margin / Z_95


def check_local_reach(local_reach):
    """Raise ValueError unless ``local_reach`` >= 0 (written to reject NaN too)."""
    if not local_reach >= 0.0:
        raise ValueError(f"local_reach must be >= 0, got {local_reach}")


def assemble_input(grid, predictive_mu, predictive_margin, local=None,
                   local_reach=DEFAULT_LOCAL_REACH):
    """Overlay the local estimate on the predictive series for s < local_reach.

    ``predictive_mu``/``predictive_margin`` cover every grid point (scalars
    broadcast); ``local`` is an optional (mu_l, m_l) pair that replaces the
    predictive samples strictly below the reach threshold when present.
    """
    check_local_reach(local_reach)
    n = grid.n_points
    mu = np.full(n, predictive_mu, dtype=np.float64)
    mg = np.full(n, predictive_margin, dtype=np.float64)
    if local is not None:
        mu_l, m_l = local
        near = grid.points < local_reach
        mu[near] = mu_l
        mg[near] = m_l
    return EstimateSeries(grid=grid, mu_prime=mu, margin=mg)


def fuse(prior, series, grid=None, memo=None):
    """Run GP regression on the series and take the lower 95% confidence bound.

    Observations sit at the series' grid points with noise std =
    margin/1.96; the marginals are evaluated on ``grid`` (default: the
    series' own grid), so the cost is O(m^3 + n m^2) for m observations and
    n planning points. The bound is reported as-is, with no clamping, since
    downstream planners treat it as a constraint level.

    ``memo`` is an optional dict owned by the caller (``simulator.run`` keeps
    one per run). It holds the estimates of the ``FUSE_MEMO_SIZE`` series
    fused most recently: one whose prior, grids and exact (mu', m') bytes
    are among them returns the stored estimate without a new posterior. The
    arrays of a stored estimate are read-only, since every caller shares
    them. The memo also holds the prior Gram of the observation grid, which
    ``posterior`` keeps there under its own key, so it is built once per memo.
    """
    grid = series.grid if grid is None else grid
    if memo is not None:
        key = (prior, series.grid, grid, series.mu_prime.tobytes(), series.margin.tobytes())
        fused = memo.pop(key, None)
        if fused is not None:
            memo[key] = fused  # now the most recent
            return fused
    obs = ObservationSet(
        locations=series.grid.points,
        values=series.mu_prime,
        noise_std=margin_to_std(series.margin),
    )
    summary = posterior(prior, obs, grid.points, memo)
    fused = FusedEstimate(mu_hat=summary.mean - Z_95 * summary.std,
                          mean=summary.mean, std=summary.std, jitter=summary.jitter)
    if memo is not None:
        for arr in (fused.mu_hat, fused.mean, fused.std):
            arr.flags.writeable = False
        memo[key] = fused
        stored = [k for k, v in memo.items() if isinstance(v, FusedEstimate)]
        for old in stored[:-FUSE_MEMO_SIZE]:
            del memo[old]
    return fused
