"""Shared test oracles, generators, pin messages and the environment of fresh
processes.

The GP oracles here are intentionally naive: a scalar kernel, and the
explicit inverse of the regularized Gram matrix with dense linear algebra,
exercising none of the production code paths beyond the kernel definition
itself. The lookup oracles are the implementations that ``_class_stats`` and
the path's table replaced. The plant, planner and run loop have no copy here:
pinned digests hold their bits and invariants their behaviour (see
``test_simulator.TestPinnedCorpus``).
"""

import bisect
import importlib.util
import json
import os
from pathlib import Path

import numpy as np

import frictionfusion
from frictionfusion.estimators import FrictionProfile, classify

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


def load_workloads():
    """``perfbench/workloads.py``, loaded by file path (perfbench is no package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_curvature_at(scenario, s):
    """Path curvature at s; before the first path start, the first segment's."""
    idx = bisect.bisect_right([start for start, _ in scenario.path], s) - 1
    return scenario.path[max(idx, 0)][1]


def reference_class_stats(profile, positions, *names):
    """Per-position surface class statistics, one ``classify`` per segment in view."""
    idx = profile.segment_index(positions)
    table = np.zeros((len(names), len(profile.segments)))
    for i in sorted(set(idx.tolist())):
        cls = classify(profile.segments[i][1])
        table[:, i] = [getattr(cls, name) for name in names]
    return tuple(row[idx] for row in table)


def repin_message(name, got, want):
    """Failure message of the pinned table ``name``: one line per key of ``got``
    and ``want``, giving the value the code gives now as a table entry that can
    be pasted over the pinned one, and the pinned value beside it."""
    lines = [f"{name} no longer matches; entries the code gives now, each with the pinned one:"]
    for key in [*want, *(k for k in got if k not in want)]:
        now, pinned = _literal(got.get(key)), _literal(want.get(key))
        lines.append(f"    {_literal(key)}: {now},  # pinned: "
                     f"{'same' if now == pinned else pinned}")
    return "\n".join(lines)


def _literal(value):
    return json.dumps(value) if isinstance(value, str) else repr(value)
