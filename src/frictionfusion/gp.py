"""Exact Gaussian process regression with per-sample observation noise.

Single kernel family (squared exponential), constant prior mean, exact
inference through a jitter-stabilized Cholesky factorization. All linear
algebra is 64-bit; values are immutable after construction.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

JITTER_INITIAL = 1e-10
JITTER_MAX = 1e-6
DIAG_CLAMP_TOL = 1e-9


class FactorizationError(RuntimeError):
    """Raised when the regularized Gram matrix cannot be factorized.

    Signals degenerate inputs (pathological kernel parameters, non-finite
    observations) that survive jitter escalation.
    """


@dataclass(frozen=True)
class SquaredExponentialKernel:
    """Squared-exponential covariance with signal std and correlation length."""

    sigma_f: float
    length_scale: float

    def __post_init__(self):
        if not 0.0 < self.sigma_f < math.inf:
            raise ValueError(f"sigma_f must be finite and > 0, got {self.sigma_f}")
        if not self.length_scale > 0.0:
            raise ValueError(f"length_scale must be > 0, got {self.length_scale}")


@dataclass(frozen=True)
class GpPrior:
    """Constant-mean GP prior over friction as a function of arc length."""

    mean: float
    kernel: SquaredExponentialKernel

    def __post_init__(self):
        if not 0.0 < self.mean < 2.0:
            raise ValueError(f"prior mean must lie in (0, 2), got {self.mean}")


def _as_float_array(values, name):
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True)
class ObservationSet:
    """Noisy samples y(x) with one noise standard deviation per sample.

    Locations need not be sorted or distinct; zero noise is permitted and
    handled by jitter during inference.
    """

    locations: np.ndarray
    values: np.ndarray
    noise_std: np.ndarray

    def __init__(self, locations, values, noise_std):
        object.__setattr__(self, "locations", _as_float_array(locations, "locations"))
        object.__setattr__(self, "values", _as_float_array(values, "values"))
        object.__setattr__(self, "noise_std", _as_float_array(noise_std, "noise_std"))
        n = len(self.locations)
        if len(self.values) != n or len(self.noise_std) != n:
            raise ValueError("locations, values and noise_std must have equal length")
        if n and self.noise_std.min() < 0.0:
            raise ValueError("noise_std entries must be >= 0")

    def __len__(self):
        return len(self.locations)


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean/covariance on a test grid, plus the marginal std."""

    test_locations: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    std: np.ndarray


def kernel_eval(kernel, x_i, x_j):
    """Covariance between two arc-length positions."""
    d = float(x_i) - float(x_j)
    s2 = kernel.sigma_f * kernel.sigma_f
    return s2 * float(np.exp(-0.5 * d * d / (kernel.length_scale * kernel.length_scale)))


def gram_matrix(kernel, xs_a, xs_b):
    """Covariance block between two location lists; empty lists give 0-sized axes."""
    a = np.asarray(xs_a, dtype=np.float64).reshape(-1)
    b = np.asarray(xs_b, dtype=np.float64).reshape(-1)
    inv = 0.5 / (kernel.length_scale * kernel.length_scale)
    diff = np.subtract.outer(a, b)
    return (kernel.sigma_f * kernel.sigma_f) * np.exp(-(diff * diff) * inv)


def _factorize(gram):
    """Cholesky with escalating jitter; raises FactorizationError when exhausted."""
    if not np.isfinite(gram).all():
        raise FactorizationError("regularized Gram matrix contains non-finite entries")
    n = gram.shape[0]
    eye = np.eye(n)
    jitter = JITTER_INITIAL
    while True:
        try:
            chol = np.linalg.cholesky(gram + jitter * eye)
            if np.isfinite(chol).all():
                return chol
            raise np.linalg.LinAlgError("non-finite factor")
        except (np.linalg.LinAlgError, ValueError):
            if jitter >= JITTER_MAX:
                raise FactorizationError(
                    f"Gram matrix not positive definite after jitter escalation to {jitter:g}"
                ) from None
            jitter *= 10.0


def posterior(prior, obs, test_locations):
    """Condition the prior on the observations and evaluate on a test grid.

    The constant prior mean is subtracted from the observations before the
    zero-mean conditioning identities are applied and added back to the
    posterior mean. The regularized Gram matrix is solved through its
    Cholesky factor; no explicit inverse is formed.
    """
    x_star = np.asarray(test_locations, dtype=np.float64).reshape(-1)
    if x_star.size == 0:
        raise ValueError("test_locations must be non-empty")
    kernel = prior.kernel

    if len(obs) == 0:
        cov = gram_matrix(kernel, x_star, x_star)
        mean = np.full(x_star.size, prior.mean)
        return _summarize(x_star, mean, cov)

    xs = obs.locations
    same_grid = xs is x_star or (xs.shape == x_star.shape and np.array_equal(xs, x_star))
    k_obs = gram_matrix(kernel, xs, xs)
    k_cross = k_obs if same_grid else gram_matrix(kernel, x_star, xs)
    k_star = k_obs if same_grid else gram_matrix(kernel, x_star, x_star)

    chol = _factorize(k_obs + np.diag(obs.noise_std**2))
    resid = obs.values - prior.mean
    alpha = solve_triangular(chol.T, solve_triangular(chol, resid, lower=True), lower=False)
    mean = prior.mean + k_cross @ alpha

    v = solve_triangular(chol, k_cross.T, lower=True)
    cov = k_star - v.T @ v
    cov = 0.5 * (cov + cov.T)
    return _summarize(x_star, mean, cov)


def _summarize(x_star, mean, cov):
    diag = np.diag(cov).copy()
    if diag.min() < -DIAG_CLAMP_TOL:
        raise FactorizationError(
            f"posterior covariance diagonal fell below -{DIAG_CLAMP_TOL:g} "
            f"(min {diag.min():.3e}); inputs are numerically degenerate"
        )
    np.clip(diag, 0.0, None, out=diag)
    return PosteriorSummary(
        test_locations=x_star, mean=mean, covariance=cov, std=np.sqrt(diag)
    )
