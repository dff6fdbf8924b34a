import json
import math
import os
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frictionfusion import gp
from frictionfusion.fusion import EstimateSeries, SGrid, fuse
from frictionfusion.gp import (
    BLAS_THREAD_VARIABLES,
    JITTER_INITIAL,
    JITTER_MAX,
    FactorizationError,
    GpPrior,
    ObservationSet,
    PriorBlocks,
    SquaredExponentialKernel,
    gram_matrix,
    posterior,
)
from helpers import fresh_process_env, kernel_eval, naive_posterior, random_gp_case


def make_prior(mean=0.55, sigma_f=0.45 / 1.96, length_scale=10.0):
    return GpPrior(mean=mean, kernel=SquaredExponentialKernel(sigma_f, length_scale))


class TestKernel:
    def test_validation(self):
        with pytest.raises(ValueError):
            SquaredExponentialKernel(0.0, 10.0)
        with pytest.raises(ValueError):
            SquaredExponentialKernel(0.2, -1.0)

    @pytest.mark.parametrize("sigma_f", [math.inf, math.nan])
    def test_signal_std_must_be_finite(self, sigma_f):
        with pytest.raises(ValueError, match=f"sigma_f must be finite and > 0, got {sigma_f}"):
            SquaredExponentialKernel(sigma_f, 10.0)

    @pytest.mark.parametrize("sigma_f, length_scale, message", [
        # 1e-300**2 is 0.0, and 0.5 / 1e-160**2 overflows: both gave a
        # non-finite Gram (or a ZeroDivisionError) at the first posterior.
        (0.2, 1e-300, "0.5 / length_scale\\*\\*2 must be finite, got length_scale = 1e-300"),
        (0.2, 1e-160, "0.5 / length_scale\\*\\*2 must be finite, got length_scale = 1e-160"),
        (1e200, 10.0, "sigma_f\\*\\*2 must be finite, got sigma_f = 1e\\+200"),
    ], ids=["l=1e-300", "l=1e-160", "sigma_f=1e200"])
    def test_constants_of_the_gram_must_be_finite(self, sigma_f, length_scale, message):
        with pytest.raises(ValueError, match=message):
            SquaredExponentialKernel(sigma_f, length_scale)

    def test_the_largest_constants_are_accepted(self):
        big, small = math.sqrt(sys.float_info.max), math.sqrt(0.5 / sys.float_info.max)
        for k in (SquaredExponentialKernel(big, 10.0), SquaredExponentialKernel(0.2, small * 2)):
            assert np.isfinite(gram_matrix(k, [0.0, 1.0], [0.0, 1.0])).all()

    def test_infinite_length_scale_is_the_constant_kernel(self):
        k = SquaredExponentialKernel(0.5, math.inf)
        assert kernel_eval(k, 0.0, 50.0) == 0.25
        # Its posterior runs: every observation is one shared value.
        summary = posterior(GpPrior(0.5, k), ObservationSet([0.0, 1.0], [0.4, 0.4],
                                                            [0.1, 0.1]), [0.0, 50.0])
        assert np.isfinite(summary.mean).all() and summary.mean[0] == summary.mean[1]

    def test_diagonal_value(self):
        k = SquaredExponentialKernel(0.2296, 10.0)
        assert kernel_eval(k, 5.0, 5.0) == pytest.approx(0.2296**2, rel=1e-12)
        assert kernel_eval(k, 5.0, 5.0) == pytest.approx(0.052716, abs=1e-6)

    def test_unit_identity(self):
        k = SquaredExponentialKernel(1.0, 1.0)
        assert kernel_eval(k, 0.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_one_length_scale_apart(self):
        k = SquaredExponentialKernel(1.0, 10.0)
        assert kernel_eval(k, 0.0, 10.0) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_symmetry_and_decay(self):
        k = SquaredExponentialKernel(0.3, 7.0)
        rng = np.random.RandomState(0)
        for _ in range(50):
            a, b = rng.uniform(-40, 40, 2)
            assert kernel_eval(k, a, b) == pytest.approx(kernel_eval(k, b, a), rel=1e-14)
            assert 0.0 < kernel_eval(k, a, b) <= k.sigma_f**2 + 1e-15
        gaps = [0.0, 1.0, 3.0, 9.0, 27.0]
        vals = [kernel_eval(k, 0.0, g) for g in gaps]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestGramMatrix:
    def test_empty_axes(self):
        k = SquaredExponentialKernel(1.0, 1.0)
        assert gram_matrix(k, [], [0.0, 1.0]).shape == (0, 2)
        assert gram_matrix(k, [], []).shape == (0, 0)

    def test_single_point(self):
        k = SquaredExponentialKernel(1.0, 1.0)
        np.testing.assert_allclose(gram_matrix(k, [0.0], [0.0]), [[1.0]], rtol=1e-15)

    def test_two_point_block(self):
        k = SquaredExponentialKernel(1.0, 1.0)
        expected = [[1.0, math.exp(-0.5)], [math.exp(-0.5), 1.0]]
        np.testing.assert_allclose(gram_matrix(k, [0.0, 1.0], [0.0, 1.0]),
                                   expected, rtol=1e-12)

    def test_entries_match_kernel_eval(self):
        k = SquaredExponentialKernel(0.4, 12.0)
        rng = np.random.RandomState(1)
        xa = rng.uniform(0, 50, 7)
        xb = rng.uniform(0, 50, 5)
        g = gram_matrix(k, xa, xb)
        for i in range(7):
            for j in range(5):
                assert g[i, j] == pytest.approx(kernel_eval(k, xa[i], xb[j]), rel=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.RandomState(2)
        for _ in range(20):
            k = SquaredExponentialKernel(rng.uniform(0.05, 1.0), rng.uniform(1, 50))
            xs = rng.uniform(0, 50, rng.randint(1, 25))
            eigs = np.linalg.eigvalsh(gram_matrix(k, xs, xs))
            assert eigs.min() > -1e-9


class TestObservationSet:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ObservationSet([0.0, 1.0], [0.5], [0.1, 0.1])

    def test_negative_noise(self):
        with pytest.raises(ValueError):
            ObservationSet([0.0], [0.5], [-0.1])

    def test_empty_is_valid(self):
        assert len(ObservationSet([], [], [])) == 0

    def test_two_dimensional_locations_rejected(self):
        with pytest.raises(ValueError, match="locations must be one-dimensional"):
            ObservationSet([[0.0, 1.0]], [0.5, 0.5], [0.1, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="values entries must be finite"):
            ObservationSet([0.0, 1.0], [0.5, bad], [0.1, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, bad):
        with pytest.raises(ValueError, match="noise_std entries must be finite"):
            ObservationSet([0.0, 1.0], [0.5, 0.5], [bad, 0.1])


class TestPosterior:
    def test_empty_test_locations_rejected(self):
        with pytest.raises(ValueError):
            posterior(make_prior(), ObservationSet([], [], []), [])

    def test_no_observations_returns_prior(self):
        prior = make_prior()
        summary = posterior(prior, ObservationSet([], [], []), [0.0, 10.0, 20.0])
        np.testing.assert_array_equal(summary.mean, np.full(3, prior.mean))
        expected_cov = gram_matrix(prior.kernel, [0.0, 10.0, 20.0], [0.0, 10.0, 20.0])
        np.testing.assert_array_equal(summary.covariance, expected_cov)
        np.testing.assert_allclose(summary.std, prior.kernel.sigma_f, rtol=1e-12)

    def test_exact_observation_pins_posterior(self):
        prior = make_prior()
        summary = posterior(prior, ObservationSet([0.0], [0.4], [0.0]), [0.0])
        assert summary.mean[0] == pytest.approx(0.4, abs=1e-4)
        assert summary.std[0] <= 1e-4

    def test_matches_dense_oracle_on_grid(self):
        prior = make_prior()
        grid = np.arange(0.0, 51.0, 1.0)
        obs = ObservationSet([0.0], [0.975], [0.012755])
        summary = posterior(prior, obs, grid)
        mean, cov = naive_posterior(prior, [0.0], [0.975], [0.012755], grid)
        np.testing.assert_allclose(summary.mean, mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(summary.covariance, cov, rtol=1e-9, atol=1e-12)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.RandomState(3)
        for _ in range(50):
            mean, sf, ls, xs, ys, sy, test = random_gp_case(rng)
            prior = make_prior(mean, sf, ls)
            summary = posterior(prior, ObservationSet(xs, ys, sy), test)
            o_mean, o_cov = naive_posterior(prior, xs, ys, sy, test)
            scale = max(np.abs(o_mean).max(), 1.0)
            assert np.abs(summary.mean - o_mean).max() / scale < 1e-9
            cscale = max(np.abs(o_cov).max(), sf**2)
            assert np.abs(summary.covariance - o_cov).max() / cscale < 1e-9

    def test_covariance_symmetric_and_std_bounded(self):
        rng = np.random.RandomState(4)
        for _ in range(20):
            mean, sf, ls, xs, ys, sy, test = random_gp_case(rng)
            prior = make_prior(mean, sf, ls)
            summary = posterior(prior, ObservationSet(xs, ys, sy), test)
            np.testing.assert_array_equal(summary.covariance, summary.covariance.T)
            assert summary.std.max() <= sf + 1e-9
            assert np.isfinite(summary.std).all()

    def test_std_squared_is_the_covariance_diagonal(self):
        rng = np.random.RandomState(8)
        for _ in range(50):
            mean, sf, ls, xs, ys, sy, test = random_gp_case(rng)
            summary = posterior(make_prior(mean, sf, ls), ObservationSet(xs, ys, sy), test)
            diag = np.clip(np.diag(summary.covariance), 0.0, None)
            assert np.abs(summary.std**2 - diag).max() <= 1e-12 * sf**2

    def test_covariance_is_built_on_first_read_only(self, monkeypatch):
        shapes = []
        real = gp.gram_matrix

        def spy(*args):
            block = real(*args)
            shapes.append(block.shape)
            return block

        monkeypatch.setattr(gp, "gram_matrix", spy)
        xs = np.arange(11.0) * 5.0
        test = np.arange(201) * 0.25
        summary = posterior(make_prior(), ObservationSet(xs, np.full(11, 0.4),
                                                         np.full(11, 0.1)), test)
        assert shapes == [(11, 11), (201, 11)]
        assert summary.v.shape == (11, 201)
        cov = summary.covariance
        assert summary.covariance is cov and cov.shape == (201, 201)
        assert shapes == [(11, 11), (201, 11), (201, 201)]

    def test_noise_inflation_never_shrinks_std(self):
        rng = np.random.RandomState(5)
        for _ in range(30):
            mean, sf, ls, xs, ys, sy, test = random_gp_case(rng)
            if len(xs) == 0:
                continue
            prior = make_prior(mean, sf, ls)
            s1 = posterior(prior, ObservationSet(xs, ys, sy), test).std
            s2 = posterior(prior, ObservationSet(xs, ys, sy * 2.0 + 0.05), test).std
            assert (s1 - s2).max() <= 1e-12

    def test_noise_inflation_moves_single_obs_mean_toward_prior(self):
        rng = np.random.RandomState(6)
        for _ in range(40):
            prior = make_prior(rng.uniform(0.2, 1.0), rng.uniform(0.05, 1.0),
                               rng.uniform(1, 50))
            x0, y0 = rng.uniform(0, 50), rng.uniform(0.1, 1.2)
            s0 = rng.uniform(0.0, 0.3)
            test = rng.uniform(0, 50, 15)
            m1 = posterior(prior, ObservationSet([x0], [y0], [s0]), test).mean
            m2 = posterior(prior, ObservationSet([x0], [y0], [2 * s0 + 0.05]), test).mean
            dev1 = np.abs(m1 - prior.mean)
            dev2 = np.abs(m2 - prior.mean)
            assert (dev2 - dev1).max() <= 1e-12

    def test_locality_single_observation(self):
        prior = make_prior()
        obs = ObservationSet([0.0], [0.975], [0.012755])
        summary = posterior(prior, obs, np.arange(0.0, 51.0, 10.0))
        deviation = np.abs(summary.mean - prior.mean)
        assert (np.diff(deviation) < 0).all()

    def test_interpolation_limit(self):
        prior = make_prior()
        summary = posterior(prior, ObservationSet([12.0], [0.6], [0.0]), [12.0])
        assert summary.std[0] <= math.sqrt(1e-10) * 10.0

    def test_permutation_invariance(self):
        rng = np.random.RandomState(7)
        prior = make_prior()
        xs = rng.uniform(0, 50, 12)
        ys = rng.uniform(0.1, 1.2, 12)
        sy = rng.uniform(0.0, 0.2, 12)
        test = np.arange(0.0, 51.0, 5.0)
        base = posterior(prior, ObservationSet(xs, ys, sy), test)
        perm = rng.permutation(12)
        shuffled = posterior(prior, ObservationSet(xs[perm], ys[perm], sy[perm]), test)
        np.testing.assert_allclose(shuffled.mean, base.mean, atol=1e-12)
        np.testing.assert_allclose(shuffled.std, base.std, atol=1e-12)

    def test_degenerate_inputs_raise_factorization_error(self):
        prior = make_prior()
        obs = ObservationSet([np.nan, 1.0], [0.4, 0.5], [0.0, 0.0])
        with pytest.raises(FactorizationError):
            posterior(prior, obs, [0.0])

    def test_jitter_exhaustion_raises_factorization_error(self):
        # 40 noiseless points within 1 mm under a 3e4 signal std: no jitter up
        # to JITTER_MAX makes the Gram positive definite in floating point.
        prior = GpPrior(mean=0.55, kernel=SquaredExponentialKernel(3e4, 50.0))
        obs = ObservationSet(np.linspace(0.0, 1e-3, 40), np.full(40, 0.4), np.zeros(40))
        with pytest.raises(FactorizationError, match="not positive definite after jitter "
                                                     f"escalation to {JITTER_MAX:g}"):
            posterior(prior, obs, [0.0])

    def test_negative_variance_beyond_the_clamp_raises_factorization_error(self):
        # Factorizable, but rounding drives a test point's variance to about -5e-9.
        prior = GpPrior(mean=0.55, kernel=SquaredExponentialKernel(2000.0, 0.5))
        obs = ObservationSet(np.linspace(0.0, 0.15, 60), np.full(60, 0.4), np.zeros(60))
        with pytest.raises(FactorizationError, match="posterior covariance diagonal fell "
                                                     "below -1e-09"):
            posterior(prior, obs, np.linspace(-0.15, 0.3, 50))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_test_locations_rejected(self, bad):
        for obs in (ObservationSet([], [], []), ObservationSet([0.0], [0.4], [0.1])):
            with pytest.raises(ValueError, match="test_locations must be non-empty and finite"):
                posterior(make_prior(), obs, [0.0, bad])


class TestChecksOnStoredBlocks:
    """The checks a posterior makes once per stored entry still reject, on a
    fresh store and on one that already holds the blocks of good inputs."""

    XS = np.arange(51.0)
    OBS = ObservationSet(XS, np.full(51, 0.4), np.full(51, 0.1))

    def _stores(self):
        warm = {}
        posterior(make_prior(), self.OBS, self.XS, warm)
        assert len(warm) == 1
        return {}, warm

    def test_noise_whose_square_overflows(self):
        # The regularized diagonal, K_ii + 1e400, is the only non-finite entry.
        # numpy warns of the overflow in the square; the error is the point here.
        loud = ObservationSet(self.XS, self.OBS.values, np.full(51, 1e200))
        for grams in self._stores():
            for _ in range(2):
                with pytest.raises(FactorizationError, match="regularized Gram matrix "
                                                             "contains non-finite entries"), \
                        np.errstate(over="ignore"):
                    posterior(make_prior(), loud, self.XS, grams)

    @pytest.mark.parametrize("far, length_scale", [
        (math.nan, 10.0),
        # The constant kernel's off-diagonal entry at a distance whose square
        # overflows is inf * 0.0, NaN, under a finite diagonal.
        (1e200, math.inf),
    ])
    def test_non_finite_gram_entry(self, far, length_scale):
        xs = self.XS.copy()
        xs[7] = far
        obs = ObservationSet(xs, self.OBS.values, self.OBS.noise_std)
        prior = make_prior(length_scale=length_scale)
        for grams in self._stores():
            stored = dict(grams)
            for _ in range(2):  # a failing entry is not stored, so it fails again
                with pytest.raises(FactorizationError, match="regularized Gram matrix "
                                                             "contains non-finite entries"), \
                        np.errstate(over="ignore", invalid="ignore"):
                    posterior(prior, obs, self.XS, grams)
            assert grams == stored

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_test_locations(self, bad):
        test = self.XS.copy()
        test[-1] = bad
        for grams in self._stores():
            stored = dict(grams)
            for obs in (self.OBS, ObservationSet([], [], [])):
                with pytest.raises(ValueError,
                                   match="test_locations must be non-empty and finite"):
                    posterior(make_prior(), obs, test, grams)
            assert grams == stored

    def test_non_finite_cross_block_under_the_constant_kernel(self):
        # Finite locations, but K(x*, x) at a distance whose square overflows is
        # inf * 0.0, NaN, while K(x, x) of the one observation is finite.
        prior = GpPrior(0.5, SquaredExponentialKernel(0.2, math.inf))
        obs = ObservationSet([0.0], [0.4], [0.1])
        warm = {}
        posterior(prior, obs, [0.0, 1e100], warm)
        for grams in ({}, warm):
            stored = dict(grams)
            for _ in range(2):  # a failing entry is not stored, so it fails again
                with pytest.raises(ValueError, match=r"K\(x\*, x\) contains non-finite"), \
                        np.errstate(over="ignore", invalid="ignore"):
                    posterior(prior, obs, [0.0, 1e200], grams)
            assert grams == stored

    def test_duplicate_zero_noise_observations_survive_via_jitter(self):
        prior = make_prior()
        obs = ObservationSet([5.0] * 6, [0.4] * 6, [0.0] * 6)
        summary = posterior(prior, obs, [5.0, 15.0])
        assert summary.mean[0] == pytest.approx(0.4, abs=1e-3)
        assert np.isfinite(summary.std).all()


def reference_posterior(prior, obs, test_locations):
    """``posterior`` as written on ``scipy.linalg.cholesky`` and
    ``solve_triangular``, with ``np.diag``/``np.eye`` temporaries and the full
    prior covariance: (mean, covariance, std, jitter).

    scipy is imported here, not at collection, so that the first posterior of
    the session loads scipy's BLAS under the package's thread policy and the
    in-process golden-file tests run on it."""
    from scipy.linalg import LinAlgError, cholesky, solve_triangular

    x_star = np.asarray(test_locations, dtype=np.float64).reshape(-1)
    kernel = prior.kernel
    xs = obs.locations
    same_grid = xs is x_star or (xs.shape == x_star.shape and np.array_equal(xs, x_star))
    k_obs = gram_matrix(kernel, xs, xs)
    k_cross = k_obs if same_grid else gram_matrix(kernel, x_star, xs)
    k_star = k_obs if same_grid else gram_matrix(kernel, x_star, x_star)
    gram = k_obs + np.diag(obs.noise_std**2)
    eye = np.eye(len(xs))
    jitter = JITTER_INITIAL
    while True:
        try:
            upper = cholesky(gram + jitter * eye)
            if np.isfinite(upper).all():
                break
        except LinAlgError:
            pass
        if jitter >= JITTER_MAX:
            raise FactorizationError("jitter exhausted")
        jitter *= 10.0
    resid = obs.values - prior.mean
    alpha = solve_triangular(upper, solve_triangular(upper, resid, trans="T"))
    mean = prior.mean + k_cross @ alpha
    v = solve_triangular(upper, k_cross.T, trans="T")
    cov = k_star - v.T @ v
    cov = 0.5 * (cov + cov.T)
    var = np.diag(k_star) - (v**2).sum(axis=0)
    np.clip(var, 0.0, None, out=var)
    return mean, cov, np.sqrt(var), jitter


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def gp_cases(draw):
    """Observations at n points, as ``fuse`` makes them (test grid = the
    observation grid, the same array) or on scattered points with their own
    test grid; zero noise and repeated locations included."""
    n = draw(st.sampled_from([1, 2, 51, 101]))
    prior = make_prior(draw(_floats(0.2, 1.0)), draw(_floats(0.05, 1.0)),
                       draw(_floats(1.0, 50.0)))
    noise = draw(hnp.arrays(np.float64, n, elements=st.just(0.0) | _floats(0.0, 0.3)))
    values = draw(hnp.arrays(np.float64, n, elements=_floats(0.05, 1.5)))
    if draw(st.booleans()):
        xs = np.arange(n) * draw(st.sampled_from([0.5, 1.0]))
        test = xs
    else:
        xs = draw(hnp.arrays(np.float64, n, elements=_floats(0.0, 50.0)))
        test = draw(hnp.arrays(np.float64, st.integers(1, 60), elements=_floats(0.0, 50.0)))
    return prior, ObservationSet(xs, values, noise), test


def _assert_same_posterior(got, want):
    *arrays, jitter = want
    for name, expected in zip(("mean", "covariance", "std"), arrays):
        actual = getattr(got, name)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape, name
        assert actual.tobytes() == expected.tobytes(), name
    assert got.jitter == jitter


class TestPosteriorMatchesSolveTriangularReference:
    @settings(max_examples=150, deadline=None)
    @given(gp_cases())
    def test_mean_covariance_and_std_are_bit_identical(self, case):
        prior, obs, test = case
        _assert_same_posterior(posterior(prior, obs, test), reference_posterior(prior, obs, test))

    @settings(max_examples=100, deadline=None)
    @given(gp_cases())
    def test_stored_gram_gives_the_same_bits(self, case):
        prior, obs, test = case
        want = posterior(prior, obs, test)
        grams = {}
        first = posterior(prior, obs, test, grams)
        (key, stored), = grams.items()
        again = posterior(prior, obs, test, grams)
        for got in (first, again):
            _assert_same_posterior(got, (want.mean, want.covariance, want.std, want.jitter))
        xs, x_star = obs.locations, np.asarray(test, dtype=np.float64)
        # One entry, built on the first posterior and read by the second.
        assert key == (prior.kernel, xs.tobytes(), x_star.tobytes())
        assert isinstance(stored, PriorBlocks) and list(grams.values()) == [stored]
        # Both prior blocks, K(x, x) and K(x*, x), as ``gram_matrix`` builds
        # them, and the prior variances, all read-only.
        variance = prior.kernel.sigma_f * prior.kernel.sigma_f
        for block, want in [(stored.k_obs, gram_matrix(prior.kernel, xs, xs)),
                            (stored.k_cross, gram_matrix(prior.kernel, x_star, xs)),
                            (stored.prior_var, np.full(x_star.size, variance))]:
            assert not block.flags.writeable
            assert block.shape == want.shape and block.tobytes() == want.tobytes()

    def test_stored_gram_is_used_only_for_its_kernel_and_locations(self, monkeypatch):
        built = []
        real = gp.gram_matrix
        monkeypatch.setattr(gp, "gram_matrix", lambda kernel, a, b:
                            built.append((kernel, len(a))) or real(kernel, a, b))
        xs = np.arange(51.0)
        obs = ObservationSet(xs, np.full(51, 0.4), np.full(51, 0.1))
        moved = ObservationSet(xs + 0.5, obs.values, obs.noise_std)
        fine = np.arange(101) * 0.5
        prior, other = make_prior(), make_prior(0.55, 0.2, 5.0)
        grams = {}
        cases = [(prior, obs, xs), (prior, obs, xs), (prior, moved, xs), (other, obs, xs),
                 (prior, obs, fine), (prior, obs, xs), (prior, obs, fine)]
        results = [posterior(p, o, test, grams) for p, o, test in cases]
        # Both blocks once per (kernel, observation locations, test locations);
        # each later posterior reuses its own pair.
        assert built == [(prior.kernel, 51)] * 4 + [(other.kernel, 51)] * 2 + [
            (prior.kernel, 51), (prior.kernel, 101)]
        assert len(grams) == 4
        for got, (p, o, test) in zip(results, cases):
            _assert_same_posterior(got, reference_posterior(p, o, test))

    def test_bit_identical_where_jitter_escalates(self):
        xs = np.linspace(0.0, 1.0, 51)
        prior = make_prior(0.5, 1000.0, 50.0)
        obs = ObservationSet(xs, np.full(51, 0.4), np.zeros(51))
        want = reference_posterior(prior, obs, xs)
        got = posterior(prior, obs, xs)
        assert JITTER_INITIAL < got.jitter <= JITTER_MAX
        _assert_same_posterior(got, want)

    def test_jitter_is_recorded_and_fuse_carries_it(self):
        grid = SGrid(ds=0.02, s_f=1.0)
        prior = make_prior(0.5, 1000.0, 50.0)
        series = EstimateSeries(grid, np.full(51, 0.4), np.zeros(51))
        escalated = posterior(prior, ObservationSet(grid.points, series.mu_prime,
                                                    series.margin), grid.points).jitter
        assert escalated > JITTER_INITIAL
        assert fuse(prior, series).jitter == escalated
        # A well-conditioned Gram needs only the first jitter; no observations, none.
        wet = EstimateSeries(grid, np.full(51, 0.5), np.full(51, 0.1))
        assert fuse(make_prior(), wet).jitter == JITTER_INITIAL
        assert posterior(make_prior(), ObservationSet([], [], []), grid.points).jitter == 0.0

    def test_solves_leave_the_gram_matrix_unchanged(self, monkeypatch):
        blocks = []
        original = gp.gram_matrix
        monkeypatch.setattr(gp, "gram_matrix",
                            lambda *args: blocks.append(original(*args)) or blocks[-1])
        xs = np.arange(51) * 1.0
        prior = make_prior()
        for test in (xs, np.arange(101) * 0.5):
            blocks.clear()
            posterior(prior, ObservationSet(xs, np.full(51, 0.4), np.full(51, 0.1)), test)
            # K(x, x) and K(x*, x) are built once each, even where x* equals x.
            assert len(blocks) == 2
            np.testing.assert_array_equal(blocks[0], original(prior.kernel, xs, xs))
            np.testing.assert_array_equal(blocks[1], original(prior.kernel, test, xs))


class TestGpPrior:
    def test_mean_bounds(self):
        kernel = SquaredExponentialKernel(0.2, 10.0)
        with pytest.raises(ValueError):
            GpPrior(mean=0.0, kernel=kernel)
        with pytest.raises(ValueError):
            GpPrior(mean=2.0, kernel=kernel)
        assert GpPrior(mean=0.55, kernel=kernel).mean == 0.55


# Run in a fresh interpreter: imports numpy, then frictionfusion, then makes
# the process's first posterior with observations, and prints whether the
# import loaded any scipy module, whether os.environ came back unchanged after
# the import and after the posterior, and the thread count of each OpenBLAS
# that the posterior loaded (scipy's), found and queried the way
# perfbench/environment.py does.
BLAS_PROBE = """
import ctypes, json, os, sys
import numpy

SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_", "openblas_get_num_threads")

def openblas_libraries():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return {line.split()[-1] for line in fh
                if "openblas" in line.lower() and line.rstrip().endswith(".so")}

def threads(path):
    lib = ctypes.CDLL(path)
    for symbol in SYMBOLS:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None

before = dict(os.environ)
numpy_libraries = openblas_libraries()
from frictionfusion.gp import GpPrior, ObservationSet, SquaredExponentialKernel, posterior
report = {"scipy_at_import": any(name.split(".")[0] == "scipy" for name in sys.modules),
          "environ_unchanged_after_import": dict(os.environ) == before}
posterior(GpPrior(0.55, SquaredExponentialKernel(0.23, 10.0)),
          ObservationSet([0.0, 5.0], [0.4, 0.5], [0.1, 0.1]), [0.0, 10.0])
report["environ_unchanged_after_posterior"] = dict(os.environ) == before
report["scipy_threads"] = [threads(path) for path in
                           sorted(openblas_libraries() - numpy_libraries)]
print(json.dumps(report))
"""

USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _load_in_fresh_process(preset):
    """Thread counts of scipy's OpenBLAS after ``import frictionfusion`` and
    the first posterior in a fresh interpreter whose only BLAS thread
    variables are ``preset``."""
    env = fresh_process_env(drop=BLAS_THREAD_VARIABLES, **preset)
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, check=True,
                          capture_output=True, text=True)
    report = json.loads(done.stdout)
    assert report == {"scipy_at_import": False, "environ_unchanged_after_import": True,
                      "environ_unchanged_after_posterior": True,
                      "scipy_threads": report["scipy_threads"]}
    assert report["scipy_threads"] and None not in report["scipy_threads"]
    return report["scipy_threads"]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="finds the loaded OpenBLAS through /proc/self/maps")
class TestBlasThreadPolicy:
    """``import frictionfusion`` loads no scipy; the first posterior with
    observations loads scipy's OpenBLAS on one thread unless a thread
    variable is set, and leaves ``os.environ`` as it found it."""

    def test_scipy_pool_loads_on_one_thread(self):
        assert _load_in_fresh_process({}) == [1]

    @pytest.mark.skipif(USABLE_CPUS < 2, reason="OpenBLAS runs at most one thread per CPU")
    @pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
    def test_a_preset_thread_count_is_kept(self, name):
        assert _load_in_fresh_process({name: "2"}) == [2]


# Run in a fresh interpreter (earlier tests of the session load scipy):
# prints, after the runs that never fuse (from the library and from the
# command line) and after one fused run, whether scipy's LAPACK was loaded and
# which scipy modules are in sys.modules. Only the last line of stdout is the
# report; cli.main prints the run's outcome before it.
IMPORT_SURFACE_PROBE = """
import json, sys
from frictionfusion import Configuration, cli, collision_scenario, gp, run, turn_scenario

def state():
    return {"lapack": gp._lapack is not None,
            "scipy_modules": sorted(name for name in sys.modules if name.split(".")[0] == "scipy")}

for kind in ("gt", "l", "p"):
    for scenario in (turn_scenario(), collision_scenario()):
        run(scenario, Configuration(kind))
assert cli.main(["--config", "p"]) == 0
unfused = state()
run(collision_scenario(), Configuration("f"))
print(json.dumps({"after_unfused_runs": unfused, "after_fused_run": state()}))
"""


def test_only_a_fused_run_loads_lapack_and_no_run_imports_scipy():
    done = subprocess.run([sys.executable, "-c", IMPORT_SURFACE_PROBE], check=True,
                          env=fresh_process_env(), capture_output=True, text=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"after_unfused_runs": {"lapack": False, "scipy_modules": []},
                      "after_fused_run": {"lapack": True, "scipy_modules": []}}


def test_lapack_extension_loads_alone_with_the_package_functions(monkeypatch):
    from scipy.linalg import lapack

    from frictionfusion import gp
    monkeypatch.delitem(sys.modules, gp.FLAPACK)
    alone = gp._scipy_lapack()
    assert alone is not lapack
    assert alone.dtrtrs is lapack.dtrtrs and alone.dpotrf is lapack.dpotrf
    assert gp.FLAPACK not in sys.modules


def test_lapack_falls_back_to_the_package_where_the_extension_cannot_load_alone(monkeypatch):
    from scipy.linalg import lapack

    from frictionfusion import gp

    def fails(spec):
        raise ImportError(f"cannot load {spec.name} alone")

    monkeypatch.delitem(sys.modules, gp.FLAPACK)
    monkeypatch.setattr(gp.importlib.util, "module_from_spec", fails)
    assert gp._scipy_lapack() is lapack
    assert gp.FLAPACK not in sys.modules


def test_posterior_without_observations_does_not_load_lapack(monkeypatch):
    from frictionfusion import gp
    monkeypatch.setattr(gp, "_lapack", None)
    monkeypatch.setattr(gp, "_load_lapack", lambda: pytest.fail("loaded LAPACK"))
    summary = posterior(make_prior(), ObservationSet([], [], []), [0.0, 10.0])
    assert summary.mean.tolist() == [0.55, 0.55]


class RendezvousEnviron(dict):
    """An environment for ``gp._load_lapack`` whose first membership test and
    first edit in each thread wait (up to 0.5 s) for a second thread to make
    the same call: two first loads that are not serialized both find no
    thread variable, then both set it before either deletes it."""

    def __init__(self):
        super().__init__()
        self.barrier = threading.Barrier(2, timeout=0.5)
        self.met = set()

    def _meet(self, step):
        if (threading.get_ident(), step) not in self.met:
            self.met.add((threading.get_ident(), step))
            try:
                self.barrier.wait()
            except threading.BrokenBarrierError:
                pass

    def __contains__(self, name):
        found = super().__contains__(name)
        self._meet("check")
        return found

    def __setitem__(self, name, value):
        super().__setitem__(name, value)
        self._meet("set")


def test_concurrent_first_loads_edit_the_environment_one_at_a_time(monkeypatch):
    from frictionfusion import gp
    lapack = gp._load_lapack()  # scipy loads here under the real environment, if not yet
    environ = RendezvousEnviron()
    monkeypatch.setattr(gp, "os", types.SimpleNamespace(environ=environ))
    monkeypatch.setattr(gp, "_lapack", None)
    with ThreadPoolExecutor(2) as pool:
        loads = [pool.submit(gp._load_lapack) for _ in range(2)]
        # scipy.linalg may be loaded by now; then the one load gets its package module.
        assert loads[0].result() is loads[1].result()
        assert (loads[0].result().dpotrf, loads[0].result().dtrtrs) == (lapack.dpotrf,
                                                                        lapack.dtrtrs)
    assert environ == {}
