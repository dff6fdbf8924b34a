"""Exact Gaussian process regression with per-sample observation noise.

Single kernel family (squared exponential), constant prior mean, exact
inference through a jitter-stabilized Cholesky factorization. All linear
algebra is 64-bit; values are immutable after construction.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

# OpenBLAS reads its thread count once, when it loads, and scipy's wheels
# bundle an OpenBLAS of their own that scipy's LAPACK extension loads. On a
# 2-vCPU host its 2-thread triangular solve and numpy's 2-thread covariance
# product (``v.T @ v``) each waited on the other pool's spinning worker: 3.5 ms
# and 3.9 ms per posterior at n=101, against 0.23 ms and 0.09 ms with scipy's
# pool on one thread. So scipy's pool loads with one thread, unless the user
# set a thread count; numpy's pool, libraries loaded later and child processes
# keep theirs. A posterior factorizes and solves (``dpotrf``, ``dtrtrs``) on
# scipy's pool; numpy's pool does only the n x m product of the mean, and the
# n x n covariance product if a caller reads the covariance. Results are the
# same bits either way. Only a posterior with observations needs LAPACK, so it
# loads at the first such posterior, not with the package.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
FLAPACK = "scipy.linalg._flapack"
_lapack = None
_lapack_lock = threading.Lock()


def _load_lapack():
    """scipy's LAPACK module, loaded once under the thread policy above; the
    lock keeps concurrent first calls from interleaving their ``os.environ``
    edits."""
    global _lapack
    with _lapack_lock:
        if _lapack is None:
            if any(name in os.environ for name in BLAS_THREAD_VARIABLES):
                _lapack = _scipy_lapack()
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = "1"
                try:
                    _lapack = _scipy_lapack()
                finally:
                    del os.environ["OPENBLAS_NUM_THREADS"]
    return _lapack


def _scipy_lapack():
    """scipy's f2py LAPACK module, which ``scipy.linalg.lapack`` re-exports.

    Unless scipy.linalg is loaded already, the extension is loaded from its
    file alone, in about 5 ms: the ``scipy`` and ``scipy.linalg`` package
    inits import most of scipy, about 240 ms and 25 MB. The extension then
    leaves ``sys.modules``, so a later ``import scipy.linalg`` builds its
    package as usual and gets the same function objects. Where the extension
    is not found, or cannot load without those inits (Windows wheels add
    their DLL directory there), the package is imported.
    """
    scipy = None if FLAPACK in sys.modules else importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    ).find_spec(FLAPACK)
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except ImportError:
            pass
        finally:
            sys.modules.pop(FLAPACK, None)
    from scipy.linalg import lapack

    return lapack


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
    handled by jitter during inference. Values and noise must be finite; a
    non-finite location fails the Gram check of ``posterior``.
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
        if not np.isfinite(self.values).all():
            raise ValueError("values entries must be finite")
        if n and not (np.isfinite(self.noise_std).all() and self.noise_std.min() >= 0.0):
            raise ValueError("noise_std entries must be finite and >= 0")

    def __len__(self):
        return len(self.locations)


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean and marginal std on a test grid, the jitter the
    factorization needed, and the covariance, derived on first read.

    ``v`` is L^-1 K(x, x*), the m x n whitened cross-covariance of the m
    observations and the n test locations (GPML Alg. 2.1), from which the
    std and the covariance both follow; it has no rows without observations.
    """

    test_locations: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    jitter: float
    kernel: SquaredExponentialKernel = field(repr=False)
    v: np.ndarray = field(repr=False)

    @functools.cached_property
    def covariance(self):
        """K(x*, x*) - v.T v, symmetrized: n x n, so built only when read."""
        x_star = self.test_locations
        cov = gram_matrix(self.kernel, x_star, x_star) - self.v.T @ self.v
        return 0.5 * (cov + cov.T)


def gram_matrix(kernel, xs_a, xs_b):
    """Covariance block between two location lists; empty lists give 0-sized axes."""
    a = np.asarray(xs_a, dtype=np.float64).reshape(-1)
    b = np.asarray(xs_b, dtype=np.float64).reshape(-1)
    inv = 0.5 / (kernel.length_scale * kernel.length_scale)
    diff = np.subtract.outer(a, b)
    return (kernel.sigma_f * kernel.sigma_f) * np.exp(-(diff * diff) * inv)


def _factorize(k_obs, noise_var):
    """Upper Cholesky factor U (U.T U = the Gram, F-ordered, from LAPACK ``dpotrf``)
    of a copy of ``k_obs`` whose diagonal holds ``(K_ii + noise_var_i) + jitter``,
    and that jitter, escalated until the factor is finite or the jitter is exhausted."""
    n = k_obs.shape[0]
    gram = k_obs.copy()
    diag = gram.diagonal() + noise_var
    gram.flat[::n + 1] = diag
    if not np.isfinite(gram).all():
        raise FactorizationError("regularized Gram matrix contains non-finite entries")
    dpotrf = (_lapack or _load_lapack()).dpotrf
    jitter = JITTER_INITIAL
    while True:
        gram.flat[::n + 1] = diag + jitter
        upper, info = dpotrf(gram)
        if info == 0 and np.isfinite(upper).all():
            return upper, jitter
        if jitter >= JITTER_MAX:
            raise FactorizationError(
                f"Gram matrix not positive definite after jitter escalation to {jitter:g}")
        jitter *= 10.0


def posterior(prior, obs, test_locations, grams=None):
    """Condition the prior on the observations and evaluate on a test grid.

    The constant prior mean is subtracted from the observations before the
    zero-mean conditioning identities are applied and added back to the
    posterior mean. The regularized Gram matrix of the m observations is
    factorized once by Cholesky and solved against; no explicit inverse is
    formed. The work is O(m^3 + n m^2) for n test locations: the marginal
    std comes from the column sums of ``v**2``, and the n x n covariance is
    built only if ``covariance`` is read.

    ``grams`` is an optional dict owned by the caller (``fusion.fuse`` keeps
    it in its per-run memo). The prior Gram of the observation locations is
    kept there, read-only, under the kernel and the exact location bytes, so
    a later posterior on the same locations and kernel reuses it; any other
    locations get their own entry.
    """
    x_star = np.asarray(test_locations, dtype=np.float64)
    x_star = x_star if x_star.ndim == 1 else x_star.reshape(-1)  # keeps ``xs is x_star``
    if x_star.size == 0 or not np.isfinite(x_star).all():
        raise ValueError("test_locations must be non-empty and finite")
    kernel = prior.kernel
    # The diagonal of K(x*, x*): the squared-exponential kernel's value at distance 0.
    prior_var = np.full(x_star.size, kernel.sigma_f * kernel.sigma_f)

    if len(obs) == 0:
        return _summarize(x_star, np.full(x_star.size, prior.mean), prior_var,
                          np.zeros((0, x_star.size)), kernel, 0.0)

    xs = obs.locations
    same_grid = xs is x_star or (xs.shape == x_star.shape and np.array_equal(xs, x_star))
    if grams is None:
        k_obs = gram_matrix(kernel, xs, xs)
    else:
        key = (kernel, xs.tobytes())
        k_obs = grams.get(key)
        if k_obs is None:
            k_obs = grams[key] = gram_matrix(kernel, xs, xs)
            k_obs.flags.writeable = False
    k_cross = k_obs if same_grid else gram_matrix(kernel, x_star, xs)

    upper, jitter = _factorize(k_obs, obs.noise_std**2)
    # dtrtrs as solve_triangular calls it for the F-ordered U (trans=1: U.T x = b), minus
    # wrappers and finiteness scans (inputs are finite); b is copied; info is 0 as diag(U) > 0.
    dtrtrs = (_lapack or _load_lapack()).dtrtrs
    resid = obs.values - prior.mean
    alpha = dtrtrs(upper, dtrtrs(upper, resid, trans=1)[0])[0]
    mean = prior.mean + k_cross @ alpha
    v = dtrtrs(upper, k_cross.T, trans=1)[0]
    return _summarize(x_star, mean, prior_var, v, kernel, jitter)


def _summarize(x_star, mean, prior_var, v, kernel, jitter):
    """The summary whose variances are ``prior_var`` minus the column sums of ``v**2``."""
    var = prior_var - (v**2).sum(axis=0)
    if var.min() < -DIAG_CLAMP_TOL:
        raise FactorizationError(
            f"posterior covariance diagonal fell below -{DIAG_CLAMP_TOL:g} "
            f"(min {var.min():.3e}); inputs are numerically degenerate"
        )
    np.clip(var, 0.0, None, out=var)
    return PosteriorSummary(test_locations=x_star, mean=mean, std=np.sqrt(var),
                            jitter=jitter, kernel=kernel, v=v)
