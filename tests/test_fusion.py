import math

import numpy as np
import pytest

from frictionfusion import gp
from frictionfusion.estimators import Configuration, FrictionProfile, LocalEstimator, emulate
from frictionfusion.fusion import (
    MAX_GRID_POINTS,
    EstimateSeries,
    SGrid,
    Z_95,
    assemble_input,
    calibrate_prior,
    fuse,
    margin_to_std,
)
from frictionfusion.gp import ObservationSet, posterior
from helpers import naive_lcb


class TestSGrid:
    def test_default_grid(self):
        grid = SGrid()
        assert grid.n_points == 51
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 50.0
        assert np.allclose(np.diff(grid.points), 1.0)

    def test_points_built_once_outside_equality(self):
        grid = SGrid(ds=0.5, s_f=20.0)
        assert grid.points is grid.points
        assert not grid.points.flags.writeable
        np.testing.assert_array_equal(grid.points, np.arange(41) * 0.5)
        assert grid == SGrid(ds=0.5, s_f=20.0)
        assert hash(grid) == hash(SGrid(ds=0.5, s_f=20.0))
        assert repr(grid) == "SGrid(ds=0.5, s_f=20.0)"

    def test_rejects_non_multiple_horizon(self):
        with pytest.raises(ValueError):
            SGrid(ds=3.0, s_f=50.0)
        with pytest.raises(ValueError):
            SGrid(ds=0.0, s_f=50.0)

    @pytest.mark.parametrize("ds, s_f", [(1e12, 1.0), (1.0, 1e-10)])
    def test_rejects_horizon_shorter_than_one_step(self, ds, s_f):
        # s_f/ds is within 1e-9 of 0: the grid would be the single point 0,
        # which is not s_f.
        with pytest.raises(ValueError):
            SGrid(ds=ds, s_f=s_f)

    @pytest.mark.parametrize("s_f", [float("inf"), float("nan")])
    def test_rejects_non_finite_horizon(self, s_f):
        with pytest.raises(ValueError, match=f"s_f must be finite and > 0, got {s_f}"):
            SGrid(s_f=s_f)

    def test_smallest_grid_ends_at_horizon(self):
        grid = SGrid(ds=2.0, s_f=2.0)
        np.testing.assert_array_equal(grid.points, [0.0, 2.0])

    def test_coarse_grid(self):
        grid = SGrid(ds=2.5, s_f=50.0)
        assert grid.n_points == 21

    @pytest.mark.parametrize("ds, s_f", [(1e-300, 50.0), (5e-324, 50.0), (0.001, 50.0),
                                         (0.025, 50.025)])
    def test_rejects_grid_over_the_point_limit(self, ds, s_f):
        with pytest.raises(ValueError, match=rf"more than the limit of {MAX_GRID_POINTS}$"):
            SGrid(ds=ds, s_f=s_f)

    @pytest.mark.parametrize("ds, n_points", [(0.125, 401), (0.025, MAX_GRID_POINTS)])
    def test_fine_grids_within_the_limit(self, ds, n_points):
        assert SGrid(ds=ds).n_points == n_points


class TestEstimateSeries:
    def test_length_checked_against_grid(self):
        grid = SGrid()
        with pytest.raises(ValueError):
            EstimateSeries(grid, np.full(50, 0.5), np.full(50, 0.1))

    def test_margin_nonnegative(self):
        grid = SGrid()
        with pytest.raises(ValueError):
            EstimateSeries(grid, np.full(51, 0.5), np.full(51, -0.1))

    def test_mu_range(self):
        grid = SGrid()
        with pytest.raises(ValueError):
            EstimateSeries(grid, np.full(51, 1.6), np.full(51, 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mu_prime_rejected(self, bad):
        mu = np.full(51, 0.5)
        mu[7] = bad
        with pytest.raises(ValueError, match="mu_prime entries must be finite"):
            EstimateSeries(SGrid(), mu, np.full(51, 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_margin_rejected(self, bad):
        margin = np.full(51, 0.1)
        margin[0] = bad
        with pytest.raises(ValueError, match="margin entries must be finite"):
            EstimateSeries(SGrid(), np.full(51, 0.5), margin)

    def test_nan_local_estimate_rejected_before_fusion(self):
        with pytest.raises(ValueError, match="mu_prime"):
            assemble_input(SGrid(), 0.8, 0.2, local=(np.nan, 0.025))


class TestCalibratePrior:
    def test_mean_is_band_midpoint(self):
        assert calibrate_prior().mean == pytest.approx(0.55, abs=1e-15)

    def test_sigma_from_confidence_halfwidth(self):
        prior = calibrate_prior()
        assert prior.kernel.sigma_f == pytest.approx(0.45 / 1.96, rel=1e-15)

    def test_band_recovers_exactly(self):
        prior = calibrate_prior()
        sf = prior.kernel.sigma_f
        assert abs(prior.mean - Z_95 * sf - 0.1) < 1e-12
        assert abs(prior.mean + Z_95 * sf - 1.0) < 1e-12

    def test_length_scale_configurable(self):
        assert calibrate_prior(length_scale=25.0).kernel.length_scale == 25.0


class TestMarginToStd:
    def test_zero(self):
        assert margin_to_std(0.0) == 0.0

    def test_local_margin(self):
        assert margin_to_std(0.025) == pytest.approx(0.0127551020408, abs=1e-10)

    def test_dry_class_margin(self):
        assert margin_to_std(0.2) == pytest.approx(0.1020408163265, abs=1e-10)

    def test_vectorized(self):
        np.testing.assert_allclose(margin_to_std(np.array([0.0, 1.96])), [0.0, 1.0])


class TestAssembleInput:
    def test_no_local_copies_predictive(self):
        grid = SGrid()
        series = assemble_input(grid, 0.5, 0.1, local=None)
        assert (series.mu_prime == 0.5).all()
        assert (series.margin == 0.1).all()

    def test_zero_reach_ignores_local(self):
        grid = SGrid()
        series = assemble_input(grid, 0.5, 0.1, local=(0.42, 0.025), local_reach=0.0)
        assert (series.mu_prime == 0.5).all()

    def test_case_split_is_strict(self):
        grid = SGrid()
        series = assemble_input(grid, 0.5, 0.1, local=(0.42, 0.025), local_reach=5.0)
        pts = grid.points
        for i, s in enumerate(pts):
            if s < 5.0:
                assert series.mu_prime[i] == 0.42
                assert series.margin[i] == 0.025
            else:
                assert series.mu_prime[i] == 0.5
                assert series.margin[i] == 0.1

    def test_negative_reach_rejected(self):
        with pytest.raises(ValueError):
            assemble_input(SGrid(), 0.5, 0.1, local=(0.4, 0.02), local_reach=-1.0)

    def test_nan_reach_rejected(self):
        # A NaN reach used to overlay no point at all.
        with pytest.raises(ValueError, match="local_reach must be >= 0, got nan"):
            assemble_input(SGrid(), 0.5, 0.1, local=(0.4, 0.02), local_reach=math.nan)

    @pytest.mark.parametrize("reach", [-1.0, math.nan])
    def test_configuration_and_assembly_apply_one_rule(self, reach):
        with pytest.raises(ValueError) as config_error:
            Configuration("f", local_reach=reach)
        with pytest.raises(ValueError) as assembly_error:
            assemble_input(SGrid(), 0.5, 0.1, local_reach=reach)
        assert str(config_error.value) == str(assembly_error.value)


class TestFuse:
    def test_uninformative_margins_return_prior_lower_bound(self):
        grid = SGrid()
        series = assemble_input(grid, 0.5, 1e6)
        fused = fuse(calibrate_prior(), series)
        np.testing.assert_allclose(fused.mu_hat, 0.1, atol=1e-3)

    def test_uniform_wet_class_is_flat_in_the_interior(self):
        grid = SGrid()
        fused = fuse(calibrate_prior(), assemble_input(grid, 0.5, 0.1))
        interior = fused.mu_hat[15:36]
        assert interior.max() - interior.min() < 1e-3
        assert (fused.mu_hat > 0.1).all()
        assert (fused.mu_hat < 0.5).all()

    def test_local_sample_lifts_near_field(self):
        grid = SGrid()
        prior = calibrate_prior()
        with_local = fuse(prior, assemble_input(grid, 0.8, 0.2, local=(0.975, 0.025)))
        without = fuse(prior, assemble_input(grid, 0.8, 0.2))
        assert with_local.mu_hat[0] - without.mu_hat[0] >= 0.1

    def test_lower_bound_identity(self):
        grid = SGrid()
        fused = fuse(calibrate_prior(), assemble_input(grid, 0.5, 0.1, local=(0.42, 0.025)))
        reconstructed = fused.mean - Z_95 * fused.std
        np.testing.assert_allclose(fused.mu_hat, reconstructed, atol=1e-12)

    def test_never_above_posterior_mean(self):
        grid = SGrid()
        fused = fuse(calibrate_prior(), assemble_input(grid, 0.25, 0.15))
        assert (fused.mu_hat <= fused.mean).all()

    def test_matches_independent_oracle(self):
        grid = SGrid()
        prior = calibrate_prior()
        series = assemble_input(grid, 0.5, 0.1, local=(0.975, 0.025))
        fused = fuse(prior, series)
        oracle = naive_lcb(prior, grid.points, series.mu_prime,
                           series.margin / Z_95, grid.points)
        np.testing.assert_allclose(fused.mu_hat, oracle, atol=1e-9)

    def test_shrinking_margins_converge_to_inputs(self):
        # Input varies on the kernel's own scale so shrinking the margins
        # drives the bound to the data instead of fighting smoothing bias.
        grid = SGrid()
        prior = calibrate_prior()
        mu = 0.5 + 0.3 * np.sin(2.0 * np.pi * grid.points / 50.0)
        gaps = []
        for margin in (0.1, 0.01, 0.001):
            fused = fuse(prior, EstimateSeries(grid, mu, np.full(grid.n_points, margin)))
            gaps.append(np.abs(fused.mu_hat - mu).max())
        assert gaps[0] > gaps[1] > gaps[2]

    def test_local_influence_decays_past_three_length_scales(self):
        grid = SGrid()
        prior = calibrate_prior()
        tight = fuse(prior, assemble_input(grid, 0.8, 0.2, local=(0.975, 0.025),
                                           local_reach=1.0))
        base = fuse(prior, assemble_input(grid, 0.8, 0.2))
        near = grid.points <= 5.0
        far = grid.points > 3 * prior.kernel.length_scale
        assert (tight.mu_hat[near] - base.mu_hat[near] >= 0.0).all()
        assert np.abs(tight.mu_hat[far] - base.mu_hat[far]).max() < 0.01

    def test_prior_recovery_without_observations(self):
        grid = SGrid()
        prior = calibrate_prior()
        summary = posterior(prior, ObservationSet([], [], []), grid.points)
        lcb = summary.mean - Z_95 * summary.std
        np.testing.assert_allclose(lcb, 0.1, atol=1e-12)


class TestFuseKeepsNoEstimate:
    def test_each_call_is_a_new_posterior_with_the_same_bits(self):
        # The estimate memo is ``estimators.emulate``'s: ``fuse`` keeps only the
        # prior blocks in the dict it is given, one entry for its grid.
        grid = SGrid()
        prior = calibrate_prior()
        grams = {}
        first = fuse(prior, assemble_input(grid, 0.8, 0.2, local=(0.4, 0.025)), grams=grams)
        again = fuse(prior, assemble_input(grid, 0.8, 0.2, local=(0.4, 0.025)), grams=grams)
        plain = fuse(prior, assemble_input(grid, 0.8, 0.2, local=(0.4, 0.025)))
        assert again is not first and plain is not first
        assert [type(v) for v in grams.values()] == [gp.PriorBlocks]
        for name in ("mu_hat", "mean", "std"):
            for fused in (again, plain):
                assert getattr(fused, name).tobytes() == getattr(first, name).tobytes()
                assert not getattr(fused, name).flags.writeable


class TestFixedObservationSpacing:
    """The fused configuration observes at 1 m whatever the planning grid."""

    PROFILE = FrictionProfile(((-1e6, 0.8), (12.3, 0.45), (27.0, 0.2), (41.6, 1.0)))

    def _report(self, ds):
        return emulate(Configuration("f"), self.PROFILE, SGrid(ds=ds), 0.9,
                       LocalEstimator(e_l=0.01))

    @pytest.mark.parametrize("ds", [1.0, 0.5, 0.25, 0.025])
    def test_observation_grid(self, ds):
        grid = SGrid(ds=ds)
        assert grid.observation_grid == SGrid()
        assert (grid.observation_grid is grid) == (ds == 1.0)
        assert self._report(ds).series.grid == SGrid()

    @pytest.mark.parametrize("ds, s_f, spacing", [(0.5, 20.5, 20.5 / 21), (0.25, 0.5, 0.5),
                                                  (2.0, 50.0, 2.0), (25.0, 50000.0, 25.0)])
    def test_never_more_observations_than_points_or_metres(self, ds, s_f, spacing):
        grid = SGrid(ds=ds, s_f=s_f)
        observed = grid.observation_grid
        assert observed == SGrid(ds=spacing, s_f=s_f)
        assert observed.n_points <= min(grid.n_points, math.ceil(s_f) + 1)

    def test_marginals_at_shared_points_agree_across_spacings(self):
        base = self._report(1.0).fused
        for ds in (0.5, 0.25):
            fused = self._report(ds).fused
            step = round(1.0 / ds)
            np.testing.assert_allclose(fused.mean[::step], base.mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fused.std[::step], base.std, rtol=0, atol=1e-12)

    def test_finest_grid_builds_no_block_larger_than_n_by_m(self, monkeypatch):
        shapes = []
        real = gp.gram_matrix

        def spy(*args):
            block = real(*args)
            shapes.append(block.shape)
            return block

        monkeypatch.setattr(gp, "gram_matrix", spy)
        fused = self._report(0.025).fused
        n = SGrid(ds=0.025).n_points
        assert n == MAX_GRID_POINTS and fused.mu_hat.shape == (n,)
        assert sorted(set(shapes)) == [(51, 51), (n, 51)]
