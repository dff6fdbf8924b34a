import math

import numpy as np
import pytest

from frictionfusion.gp import (
    FactorizationError,
    GpPrior,
    ObservationSet,
    SquaredExponentialKernel,
    gram_matrix,
    kernel_eval,
    posterior,
)
from helpers import naive_posterior, random_gp_case


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

    def test_infinite_length_scale_is_the_constant_kernel(self):
        k = SquaredExponentialKernel(0.5, math.inf)
        assert kernel_eval(k, 0.0, 50.0) == 0.25

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

    def test_duplicate_zero_noise_observations_survive_via_jitter(self):
        prior = make_prior()
        obs = ObservationSet([5.0] * 6, [0.4] * 6, [0.0] * 6)
        summary = posterior(prior, obs, [5.0, 15.0])
        assert summary.mean[0] == pytest.approx(0.4, abs=1e-3)
        assert np.isfinite(summary.std).all()


class TestGpPrior:
    def test_mean_bounds(self):
        kernel = SquaredExponentialKernel(0.2, 10.0)
        with pytest.raises(ValueError):
            GpPrior(mean=0.0, kernel=kernel)
        with pytest.raises(ValueError):
            GpPrior(mean=2.0, kernel=kernel)
        assert GpPrior(mean=0.55, kernel=kernel).mean == 0.55
