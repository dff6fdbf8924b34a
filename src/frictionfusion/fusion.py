"""Fusion of local and camera-class friction estimates into a conservative bound.

Assembles per-point estimates with margins of error from the two sources,
converts the margins to observation noise, runs GP regression on the spatial
grid ahead of the vehicle, and extracts the lower edge of the 95% confidence
band as the fused estimate.
"""

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
# Each fuse factorizes an n x n Gram, so n is bounded: 2001 points (ds = 0.025
# on the default 50 m horizon) is a 32 MB Gram and a few copies of it per fuse.
MAX_GRID_POINTS = 2001


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
    """Lower 95% bound ``mu_hat`` = ``mean`` - 1.96 ``std`` of the posterior marginals."""

    mu_hat: np.ndarray
    mean: np.ndarray
    std: np.ndarray


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


def fuse(prior, series, memo=None):
    """Run GP regression on the series and take the lower 95% confidence bound.

    Observations sit at every grid point with noise std = margin/1.96;
    test locations are the same grid. The bound is reported as-is, with no
    clamping, since downstream planners treat it as a constraint level.

    ``memo`` is an optional dict owned by the caller (``simulator.run`` keeps
    one per run). A series whose prior, grid and exact (mu', m') bytes were
    fused before returns the stored estimate without a new posterior; the
    arrays of a stored estimate are read-only, since every caller shares them.
    The memo also holds the prior Gram of the grid, which ``posterior`` keeps
    there under its own key, so it is built once per memo.
    """
    if memo is not None:
        key = (prior, series.grid, series.mu_prime.tobytes(), series.margin.tobytes())
        if key in memo:
            return memo[key]
    pts = series.grid.points
    obs = ObservationSet(
        locations=pts,
        values=series.mu_prime,
        noise_std=margin_to_std(series.margin),
    )
    summary = posterior(prior, obs, pts, memo)
    fused = FusedEstimate(mu_hat=summary.mean - Z_95 * summary.std,
                          mean=summary.mean, std=summary.std)
    if memo is not None:
        for arr in (fused.mu_hat, fused.mean, fused.std):
            arr.flags.writeable = False
        memo[key] = fused
    return fused
