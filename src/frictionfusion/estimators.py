"""Emulated friction estimators and the four planner-facing configurations.

Ground truth (gt) feeds the true profile straight through; local-only (l)
propagates a slip-gated under-vehicle estimate minus its worst-case error;
predictive-only (p) quantizes to road-surface-class minima; fused (f) merges
class means/margins with the local estimate through the GP pipeline.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .fusion import (
    DEFAULT_LOCAL_REACH,
    assemble_input,
    calibrate_prior,
    check_local_reach,
    fuse,
)

MAX_LOCAL_ERROR = 0.025
AVAILABILITY_THRESHOLD = 0.5
# A stock fused run fuses two distinct inputs, over and over (with and without
# the local estimate); a memo of the two most recent hits as often as an
# unbounded one there, while on patchy roads, where inputs rarely repeat, it
# stays small.
FUSE_MEMO_SIZE = 2

CONFIG_KINDS = ("gt", "l", "p", "f")


@dataclass(frozen=True)
class FrictionProfile:
    """Piecewise-constant ground-truth friction over arc length.

    Segments are (s_start, mu) pairs with finite, strictly increasing starts;
    the first segment must begin at negative s so the profile covers the road
    behind the run start. Every mu must be classifiable (see ``classify``).
    """

    segments: tuple

    def __init__(self, segments):
        segs = tuple((float(s), float(mu)) for s, mu in segments)
        if not segs:
            raise ValueError("profile needs at least one segment")
        for _, mu in segs:
            if not SNOW_ICE.mu_min <= mu <= 1.2:
                raise ValueError(f"mu values must lie in [{SNOW_ICE.mu_min}, 1.2], got {mu}")
        starts, mus = (np.array(column, dtype=np.float64) for column in zip(*segs))
        classes = [classify(mu) for _, mu in segs]
        table = {name: np.array([getattr(c, name) for c in classes]) for name in CLASS_STATS}
        for column in table.values():
            column.flags.writeable = False
        self._set(starts, mus, table)

    def _set(self, start_array, mu_array, class_table):
        """Check the starts and set every field; the mu values are checked
        already, and ``class_table`` holds their surface-class statistics."""
        starts = tuple(start_array.tolist())
        if not all(map(math.isfinite, starts)):
            raise ValueError(f"segment starts must be finite, got {starts}")
        if any(not b > a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        if starts[0] >= 0.0:
            raise ValueError("first segment must start at negative s")
        object.__setattr__(self, "segments", tuple(zip(starts, mu_array.tolist())))
        # Lookup tables, built once: not dataclass fields, so equality,
        # hashing and repr still see only ``segments``.
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_start_array", start_array)
        object.__setattr__(self, "_mu_array", mu_array)
        object.__setattr__(self, "_class_table", class_table)

    def mu_at(self, s):
        """Friction of the segment containing s."""
        return self.segment_at(s)[0]

    def segment_at(self, s):
        """Friction of the segment containing s, and the bounds [start, end)
        of that segment (end is inf for the last one)."""
        if not s >= self._starts[0]:  # false for NaN too
            raise ValueError(f"profile undefined below s={self._starts[0]}, got {s}")
        starts = self._starts
        i = bisect.bisect_right(starts, s) - 1
        end = starts[i + 1] if i + 1 < len(starts) else math.inf
        return self.segments[i][1], starts[i], end

    def segment_index(self, positions):
        """Index of the segment containing each position (``mu_at`` over an array)."""
        arr = np.asarray(positions, dtype=np.float64).reshape(-1)
        # The min of an array holding NaN is NaN, which fails the check.
        if arr.size and not arr.min() >= self._starts[0]:
            raise ValueError(f"profile undefined below s={self._starts[0]}")
        return self._start_array.searchsorted(arr, side="right") - 1

    def grid_index(self, grid):
        """``segment_index`` of a grid's points, which need no check: they are
        finite and >= 0 (``SGrid``), and every profile starts below 0."""
        return self._start_array.searchsorted(grid.points, side="right") - 1

    def mu_on(self, positions):
        return self._mu_array[self.segment_index(positions)]

    def shifted(self, offset):
        """Profile expressed in a frame displaced by ``offset`` meters."""
        profile = object.__new__(FrictionProfile)
        # Same mu values: no re-check, and the same class table.
        profile._set(self._start_array + offset, self._mu_array, self._class_table)
        return profile


@dataclass(frozen=True)
class SurfaceClass:
    """Camera-distinguishable road surface class with its estimate statistics."""

    name: str
    mu_min: float
    mean: float
    margin: float


DRY = SurfaceClass("dry", mu_min=0.6, mean=0.8, margin=0.2)
WET = SurfaceClass("wet", mu_min=0.4, mean=0.5, margin=0.1)
SNOW_ICE = SurfaceClass("snow_ice", mu_min=0.1, mean=0.25, margin=0.15)
# The statistics a FrictionProfile tables per segment.
CLASS_STATS = ("mu_min", "mean", "margin")


def classify(mu_gt_value):
    """Surface class containing a true friction value.

    Each class spans from its ``mu_min`` up to the next class's. Dry requires
    mu strictly above ``DRY.mu_min``, so both class boundaries belong to wet.
    Values below ``SNOW_ICE.mu_min`` are out of range.
    """
    if mu_gt_value < SNOW_ICE.mu_min:
        raise ValueError(f"cannot classify friction below {SNOW_ICE.mu_min}, got {mu_gt_value}")
    if mu_gt_value > DRY.mu_min:
        return DRY
    if mu_gt_value >= WET.mu_min:
        return WET
    return SNOW_ICE


def _class_stats(profile, grid, *names):
    """Surface class statistics at each point of ``grid``, read from the
    profile's class table.

    Returns one array per attribute name in ``names``, e.g. ``"mu_min"``;
    each is its own 1-D array, not a view of the per-segment table.
    """
    idx = profile.grid_index(grid)
    return tuple(profile._class_table[name][idx] for name in names)


class LocalEstimator:
    """Slip-gated under-vehicle estimator with a persistent last estimate.

    The estimate is available only while tire-force utilization exceeds the
    threshold; the deterministic per-run error e_l models adversarial or
    fixed estimation error within the +-0.025 accuracy bound.
    ``initial_estimate`` is the fallback used before any sample has been
    available.
    """

    def __init__(self, e_l=0.0, initial_estimate=None):
        self.e_l = float(_check_local_error(e_l))
        self.last_available = initial_estimate


def _check_local_error(e_l):
    """Return ``e_l`` if it lies within the local accuracy bound, else raise."""
    if not abs(e_l) <= MAX_LOCAL_ERROR:
        raise ValueError(f"|e_l| must be <= {MAX_LOCAL_ERROR}, got {e_l}")
    return e_l


def resolve_error(mode):
    """Map an error-mode name ('worst-over', 'worst-under', 'fixed=<v>') to e_l."""
    if mode == "worst-over":
        return MAX_LOCAL_ERROR
    if mode == "worst-under":
        return -MAX_LOCAL_ERROR
    if isinstance(mode, str) and mode.startswith("fixed="):
        try:
            value = float(mode[len("fixed="):])
        except ValueError:
            raise ValueError(f"bad fixed error value in {mode!r}") from None
        return _check_local_error(value)
    raise ValueError(f"unknown error mode {mode!r}")


def local_estimate(profile, lambda_t, estimator):
    """Under-vehicle estimate (mu_l, m_l), or None while utilization is too low."""
    if not 0.0 <= lambda_t <= 1.0:
        raise ValueError(f"lambda_t must lie in [0, 1], got {lambda_t}")
    if lambda_t <= AVAILABILITY_THRESHOLD:
        return None
    value = profile.mu_at(0.0) + estimator.e_l
    estimator.last_available = value
    return value, MAX_LOCAL_ERROR


@dataclass(frozen=True)
class Configuration:
    """Which estimate the planner consumes; fused carries its own prior/reach."""

    kind: str
    local_reach: float = DEFAULT_LOCAL_REACH
    prior: object = None

    def __post_init__(self):
        if self.kind not in CONFIG_KINDS:
            raise ValueError(f"kind must be one of {CONFIG_KINDS}, got {self.kind!r}")
        check_local_reach(self.local_reach)
        if self.kind == "f" and self.prior is None:
            object.__setattr__(self, "prior", calibrate_prior())


@dataclass(frozen=True)
class EstimateReport:
    """Horizon estimate plus the diagnostics the simulator traces."""

    mu_hat: np.ndarray
    local_available: bool
    series: object = None
    fused: object = None


@dataclass
class FusionState:
    """What one run's fused estimates reuse; ``simulator.run`` makes one per run.

    ``reports`` holds the ``EstimateReport`` of each of the ``FUSE_MEMO_SIZE``
    fused inputs seen most recently, least recent first, under the key
    ``emulate`` builds; ``grams`` holds ``gp.posterior``'s ``PriorBlocks``.
    """

    reports: dict = field(default_factory=dict)
    grams: dict = field(default_factory=dict)


def emulate(config, profile, grid, lambda_t, estimator, memo=None):
    """Produce the horizon estimate for one configuration, with diagnostics.

    The profile is expected in the grid's frame (s=0 under the vehicle).
    The fused configuration samples the camera classes and the local overlay
    on ``grid.observation_grid`` (1 m spacing on a finer grid), and ``fuse``
    evaluates the estimate on ``grid``.

    ``memo`` is the caller's ``FusionState`` (fused config only; by default
    a new one). Its reports are keyed on everything ``assemble_input`` and
    ``fuse`` read: the arguments of both (arrays by their exact bytes) apart
    from the series, which the rest determine. A repeated input returns the
    stored report, its series and estimate shared and read-only, without
    assembling or fusing; ``fuse`` keeps its prior blocks in ``memo.grams``.
    """
    loc = local_estimate(profile, lambda_t, estimator)
    available = loc is not None

    if config.kind == "gt":
        return EstimateReport(mu_hat=profile._mu_array[profile.grid_index(grid)],
                              local_available=available)

    if config.kind == "l":
        if estimator.last_available is None:
            raise ValueError("no local estimate has been available and none was given")
        mu_hat = np.full(grid.n_points, estimator.last_available - MAX_LOCAL_ERROR)
        return EstimateReport(mu_hat=mu_hat, local_available=available)

    if config.kind == "p":
        (mu_hat,) = _class_stats(profile, grid, "mu_min")
        return EstimateReport(mu_hat=mu_hat, local_available=available)

    observed = grid.observation_grid
    mean, margin = _class_stats(profile, observed, "mean", "margin")
    key = (observed, mean.tobytes(), margin.tobytes(), loc, config.local_reach,
           config.prior, grid)
    memo = FusionState() if memo is None else memo
    reports = memo.reports
    report = reports.pop(key, None)
    if report is None:
        series = assemble_input(observed, mean, margin, loc, config.local_reach)
        for arr in (series.mu_prime, series.margin, series.noise_std):  # shared by every hit
            arr.flags.writeable = False
        fused = fuse(config.prior, series, grid, memo.grams)
        report = EstimateReport(
            mu_hat=fused.mu_hat, local_available=available, series=series, fused=fused
        )
        # Room for the entry added below: drop the least recent beyond the size.
        while reports and len(reports) >= FUSE_MEMO_SIZE:
            del reports[next(iter(reports))]
    reports[key] = report  # now the most recent
    return report
