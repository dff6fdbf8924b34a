"""Shared test oracles, generators and the environment of fresh processes.

The GP oracles here are intentionally naive: a scalar kernel, and the
explicit inverse of the regularized Gram matrix with dense linear algebra,
exercising none of the production code paths beyond the kernel definition
itself.
"""

import os
from pathlib import Path

import numpy as np

import frictionfusion
from frictionfusion.estimators import FrictionProfile

ORACLE_JITTER = 1e-10


def kernel_eval(kernel, x_i, x_j):
    """Covariance between two arc-length positions, one pair at a time."""
    d = float(x_i) - float(x_j)
    s2 = kernel.sigma_f * kernel.sigma_f
    return s2 * float(np.exp(-0.5 * d * d / (kernel.length_scale * kernel.length_scale)))


def naive_gram(xs_a, xs_b, sigma_f, length_scale):
    diff = np.subtract.outer(np.asarray(xs_a, float), np.asarray(xs_b, float))
    return sigma_f**2 * np.exp(-0.5 * (diff / length_scale) ** 2)


def naive_posterior(prior, locations, values, noise_std, test_locations):
    """Explicit-inverse posterior mean and covariance."""
    xs = np.asarray(locations, float)
    ys = np.asarray(values, float)
    sy = np.asarray(noise_std, float)
    x_star = np.asarray(test_locations, float)
    sf = prior.kernel.sigma_f
    ls = prior.kernel.length_scale
    k_star = naive_gram(x_star, x_star, sf, ls)
    if len(xs) == 0:
        return np.full(len(x_star), prior.mean), k_star
    gram = naive_gram(xs, xs, sf, ls) + np.diag(sy**2) + ORACLE_JITTER * np.eye(len(xs))
    inv = np.linalg.inv(gram)
    cross = naive_gram(x_star, xs, sf, ls)
    mean = prior.mean + cross @ inv @ (ys - prior.mean)
    cov = k_star - cross @ inv @ cross.T
    return mean, cov


def naive_lcb(prior, locations, values, noise_std, test_locations):
    mean, cov = naive_posterior(prior, locations, values, noise_std, test_locations)
    return mean - 1.96 * np.sqrt(np.clip(np.diag(cov), 0.0, None))


def random_gp_case(rng, max_obs=30, max_test=60):
    """Random kernel/observations/test-grid tuple for oracle comparisons."""
    sigma_f = rng.uniform(0.05, 1.0)
    length_scale = rng.uniform(1.0, 50.0)
    mean = rng.uniform(0.2, 1.0)
    n = rng.randint(0, max_obs + 1)
    locations = rng.uniform(0.0, 50.0, n)
    values = rng.uniform(0.1, 1.2, n)
    noise = rng.uniform(0.0, 0.3, n)
    n_test = rng.randint(1, max_test + 1)
    test = rng.uniform(0.0, 50.0, n_test)
    return mean, sigma_f, length_scale, locations, values, noise, test


def random_profile(rng, first_transition_at_least=18.0, min_segment=15.0):
    """Random piecewise friction profile with classifiable levels.

    Segments are long relative to the fusion correlation length and the
    first transition clears the local-influence zone, so class-interior
    points exist on every draw; GP smoothing makes any conservatism bound
    vacuous inside a transition's blending zone.
    """
    n_transitions = rng.randint(0, 4)
    points = np.sort(rng.uniform(first_transition_at_least, 50.0, n_transitions))
    segments = [(-1e6, rng.uniform(0.1, 1.2))]
    last = -1e6
    for p in points:
        if p - last < min_segment:
            continue
        segments.append((float(p), rng.uniform(0.1, 1.2)))
        last = p
    return FrictionProfile(tuple(segments))


def fresh_process_env(drop=(), **variables):
    """``os.environ`` without ``drop``, plus ``variables``, for a new
    interpreter that imports the package these tests import."""
    src = str(Path(frictionfusion.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
