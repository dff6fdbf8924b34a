import math
import random

import numpy as np
import pytest

from frictionfusion import estimators
from frictionfusion.estimators import (
    CLASS_STATS,
    DRY,
    FUSE_MEMO_SIZE,
    SNOW_ICE,
    WET,
    Configuration,
    FrictionProfile,
    FusionState,
    LocalEstimator,
    classify,
    emulate,
    local_estimate,
    resolve_error,
)
from frictionfusion.fusion import SGrid, assemble_input, calibrate_prior, fuse
from frictionfusion.gp import PriorBlocks
from helpers import load_workloads, random_profile, reference_class_stats

TURN_PROFILE = FrictionProfile(((-1e6, 0.8), (0.0, 0.4)))
HIGH_MU_PROFILE = FrictionProfile(((-1e6, 1.0),))


class TestFrictionProfile:
    def test_lookup_picks_containing_segment(self):
        assert TURN_PROFILE.mu_at(-0.001) == 0.8
        assert TURN_PROFILE.mu_at(0.0) == 0.4
        assert TURN_PROFILE.mu_at(25.0) == 0.4

    def test_below_domain_rejected(self):
        with pytest.raises(ValueError):
            TURN_PROFILE.mu_at(-2e6)

    def test_mu_at_rejects_nan(self):
        # It used to read the last segment's 0.9.
        profile = FrictionProfile(((-1e6, 0.8), (0.0, 0.4), (10.0, 0.9)))
        with pytest.raises(ValueError, match="undefined below"):
            profile.mu_at(math.nan)

    def test_segment_index_rejects_nan(self):
        profile = FrictionProfile(((-1e6, 0.8), (0.0, 0.4), (10.0, 0.9)))
        for positions in ([math.nan], [3.0, math.nan, 12.0]):
            with pytest.raises(ValueError, match="undefined below"):
                profile.segment_index(positions)
            with pytest.raises(ValueError, match="undefined below"):
                profile.mu_on(positions)

    def test_segment_at_gives_the_segment_bounds(self):
        profile = FrictionProfile(((-1e6, 0.8), (0.0, 0.4), (10.0, 0.9)))
        assert profile.segment_at(-1e6) == (0.8, -1e6, 0.0)
        assert profile.segment_at(np.nextafter(0.0, -1.0)) == (0.8, -1e6, 0.0)
        assert profile.segment_at(0.0) == (0.4, 0.0, 10.0)
        assert profile.segment_at(10.0) == (0.9, 10.0, math.inf)
        for bad in (np.nextafter(-1e6, -np.inf), math.nan):
            with pytest.raises(ValueError, match="undefined below"):
                profile.segment_at(bad)

    def test_segments_must_increase(self):
        with pytest.raises(ValueError):
            FrictionProfile(((-10.0, 0.8), (-10.0, 0.4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_segment_starts_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FrictionProfile(((-1e6, 0.8), (bad, 0.4), (5.0, 0.3)))
        with pytest.raises(ValueError, match="finite"):
            FrictionProfile(((-1e6, 0.8), (5.0, 0.3), (bad, 0.4)))

    def test_nan_start_cannot_split_the_lookups(self):
        # Accepted, this profile read 0.4 from mu_at(3.0) and 0.8 from mu_on([3.0]).
        with pytest.raises(ValueError):
            FrictionProfile(((-1e6, 0.8), (math.nan, 0.4), (5.0, 0.3)))

    def test_no_segments(self):
        with pytest.raises(ValueError, match="profile needs at least one segment"):
            FrictionProfile(())

    def test_first_segment_behind_origin(self):
        with pytest.raises(ValueError):
            FrictionProfile(((0.0, 0.8),))

    def test_mu_bounds(self):
        with pytest.raises(ValueError):
            FrictionProfile(((-10.0, 1.3),))
        # Below the snow/ice class minimum: no configuration could classify it.
        with pytest.raises(ValueError, match="0.1"):
            FrictionProfile(((-10.0, 0.8), (30.0, 0.07)))

    def test_shift(self):
        shifted = TURN_PROFILE.shifted(-10.0)
        assert shifted.mu_at(-10.0) == 0.4
        assert shifted.mu_at(-10.001) == 0.8

    def test_shift_equals_the_profile_built_from_shifted_segments(self):
        workloads = load_workloads()
        rng = random.Random(7)
        for _ in range(20):
            profile = workloads.patchy_profile(rng, 120.0)
            offset = -rng.uniform(0.0, 100.0)
            got = profile.shifted(np.float64(offset))
            want = FrictionProfile(tuple((s + offset, mu) for s, mu in profile.segments))
            assert got == want and repr(got) == repr(want)
            for name in ("_starts", "_start_array"):
                assert np.asarray(getattr(got, name)).tobytes() == \
                    np.asarray(getattr(want, name)).tobytes()
            assert list(got._table) == list(want._table)
            for name, column in want._table.items():
                assert got._table[name].tobytes() == column.tobytes()

    @pytest.mark.parametrize("offset, message", [
        (2e6, "negative"), (-1e17, "strictly increasing"), (math.nan, "finite"),
        (math.inf, "finite")])
    def test_shift_checks_the_new_starts(self, offset, message):
        # The two starts collapse into one float at -1e17.
        profile = FrictionProfile(((-1e6, 0.8), (-1e6 + 1e-9, 0.4)))
        with pytest.raises(ValueError, match=message):
            profile.shifted(offset)


class TestClassTable:
    """The per-segment table built with the profile: mu and its class statistics."""

    def _profiles(self, seed, count=20):
        workloads = load_workloads()
        rng = random.Random(seed)
        edges = FrictionProfile(((-1e6, 0.6), (0.0, 0.4), (10.0, 0.61), (20.2, 0.1),
                                 (20.4, 0.39), (30.0, 1.2)))
        return [edges] + [workloads.patchy_profile(rng, 120.0) for _ in range(count)]

    def test_equals_classify_per_segment(self):
        for profile in self._profiles(3):
            table = profile._table
            assert list(table) == ["mu", *CLASS_STATS]
            assert table["mu"].tolist() == [mu for _, mu in profile.segments]
            classes = [classify(mu) for _, mu in profile.segments]
            for name in CLASS_STATS:
                assert table[name].tolist() == [getattr(c, name) for c in classes]
            for column in table.values():
                assert column.dtype == np.float64 and not column.flags.writeable

    def test_shared_by_shifted_copies(self):
        profile = self._profiles(4, count=1)[1]
        shifted = profile.shifted(-12.5).shifted(3.0)
        assert shifted._table is profile._table

    def test_no_column_can_be_written(self):
        # Every shifted copy shares the table, so a write through one would
        # change the road under all of them.
        profile = self._profiles(6, count=1)[1]
        shifted = profile.shifted(-40.0)
        for name in ("mu", *CLASS_STATS):
            column = shifted._table[name]
            before = column.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.5
            with pytest.raises(TypeError):
                shifted._table[name] = column.copy()
            assert profile._table[name] is column and column.tobytes() == before

    def test_class_stats_match_the_per_segment_classification(self):
        # Read on grids, with the grid's first point at, just below and just
        # above each segment start in turn, and at a random shift.
        rng = random.Random(9)
        grids = (SGrid(), SGrid(ds=0.5), SGrid(ds=0.025, s_f=2.0), SGrid(ds=25.0, s_f=150.0))
        for profile in self._profiles(5):
            shifts = [-rng.uniform(0.0, 100.0), *(-_around_starts(profile))]
            for prof in (profile, *(profile.shifted(offset) for offset in shifts)):
                for grid in grids:
                    (mu,) = prof.on_grid(grid, "mu")
                    assert mu.tobytes() == prof.mu_on(grid.points).tobytes()
                    assert mu.ndim == 1 and mu.base is None
                    for names in (("mu_min",), ("mean", "margin")):
                        got = prof.on_grid(grid, *names)
                        want = reference_class_stats(prof, grid.points, *names)
                        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
                        assert all(a.ndim == 1 and a.base is None for a in got)


def _around_starts(profile):
    """Every segment start (but the first) and its nearest floats on either side."""
    starts = np.array([s for s, _ in profile.segments[1:]])
    return np.concatenate([np.nextafter(starts, -np.inf), starts,
                           np.nextafter(starts, np.inf)])


def _per_point_mu(profile, positions):
    return np.array([profile.mu_at(s) for s in positions])


class TestArrayLookups:
    """The array lookups must agree exactly with the per-point ones."""

    def test_mu_on_at_and_beside_segment_starts(self):
        profile = FrictionProfile(((-1e6, 0.8), (0.0, 0.4), (7.3, 1.0), (7.30000001, 0.2)))
        first = profile.segments[0][0]
        pts = np.concatenate([_around_starts(profile),
                              [first, np.nextafter(first, np.inf)]])
        np.testing.assert_array_equal(profile.mu_on(pts), _per_point_mu(profile, pts))

    def test_mu_on_matches_mu_at_on_patchy_roads(self):
        workloads = load_workloads()
        rng = random.Random(11)
        for _ in range(20):
            profile = workloads.patchy_profile(rng, 120.0)
            shifted = profile.shifted(-rng.uniform(0.0, 100.0))
            for prof in (profile, shifted):
                pts = np.concatenate([np.linspace(-30.0, 140.0, 1701),
                                      _around_starts(prof)])
                np.testing.assert_array_equal(prof.mu_on(pts), _per_point_mu(prof, pts))

    def test_mu_on_rejects_positions_below_first_start(self):
        with pytest.raises(ValueError, match="undefined below"):
            TURN_PROFILE.mu_on([0.0, np.nextafter(-1e6, -np.inf)])

    @pytest.mark.parametrize("kind", ["p", "f"])
    def test_emulate_matches_per_point_classification(self, kind):
        grid = SGrid(ds=0.5)
        rng = random.Random(5)
        workloads = load_workloads()
        # Class-edge values, a start on a grid point and a segment between two.
        edges = FrictionProfile(((-1e6, 0.6), (0.0, 0.4), (10.0, 0.61), (20.2, 0.1),
                                 (20.4, 0.39), (30.0, 1.2)))
        profiles = [edges] + [workloads.patchy_profile(rng, 200.0).shifted(-rng.uniform(0, 150))
                              for _ in range(10)]
        config = Configuration(kind)
        for profile in profiles:
            report = emulate(config, profile, grid, 0.9, LocalEstimator(e_l=0.01))
            classes = [classify(profile.mu_at(s)) for s in grid.points]
            if kind == "p":
                np.testing.assert_array_equal(report.mu_hat, [c.mu_min for c in classes])
                continue
            # The fused estimate observes the classes at 1 m and is evaluated on the grid.
            observed = SGrid(ds=1.0)
            classes = [classify(profile.mu_at(s)) for s in observed.points]
            series = assemble_input(
                observed,
                predictive_mu=np.array([c.mean for c in classes]),
                predictive_margin=np.array([c.margin for c in classes]),
                local=(profile.mu_at(0.0) + 0.01, 0.025),
                local_reach=config.local_reach,
            )
            assert report.series.grid == observed
            np.testing.assert_array_equal(report.series.mu_prime, series.mu_prime)
            np.testing.assert_array_equal(report.series.margin, series.margin)
            np.testing.assert_array_equal(report.mu_hat,
                                          fuse(config.prior, series, grid).mu_hat)


class TestClassify:
    def test_high_friction_is_dry(self):
        assert classify(1.0) is DRY

    def test_wet_lower_boundary(self):
        assert classify(0.4) is WET

    def test_dry_boundary_belongs_to_wet(self):
        assert classify(0.6) is WET

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            classify(0.09)

    def test_partition_is_total_and_single_valued(self):
        for mu in np.arange(0.1, 1.2001, 0.001):
            cls = classify(float(mu))
            assert cls in (DRY, WET, SNOW_ICE)
            if cls is DRY:
                assert mu > 0.6
            elif cls is WET:
                assert 0.4 <= mu <= 0.6
            else:
                assert 0.1 <= mu < 0.4

    def test_class_statistics(self):
        assert (DRY.mean, DRY.margin) == (0.8, 0.2)
        assert (WET.mean, WET.margin) == (0.5, 0.1)
        assert (SNOW_ICE.mean, SNOW_ICE.margin) == (0.25, 0.15)
        assert (DRY.mu_min, WET.mu_min, SNOW_ICE.mu_min) == (0.6, 0.4, 0.1)


class TestResolveError:
    def test_modes(self):
        assert resolve_error("worst-over") == 0.025
        assert resolve_error("worst-under") == -0.025
        assert resolve_error("fixed=0.01") == 0.01

    def test_fixed_bounds(self):
        with pytest.raises(ValueError):
            resolve_error("fixed=0.03")
        with pytest.raises(ValueError):
            resolve_error("sometimes")

    def test_fixed_value_that_is_no_number(self):
        with pytest.raises(ValueError, match="bad fixed error value in 'fixed=abc'"):
            resolve_error("fixed=abc")


class TestLocalErrorBound:
    """``resolve_error`` and ``LocalEstimator`` accept exactly |e_l| <= 0.025."""

    EDGE = 0.025
    OUTSIDE = (math.nextafter(EDGE, 1.0), -math.nextafter(EDGE, 1.0), math.nan)

    @pytest.mark.parametrize("e_l", [EDGE, -EDGE])
    def test_edge_accepted_by_both(self, e_l):
        assert resolve_error(f"fixed={e_l!r}") == e_l
        assert LocalEstimator(e_l=e_l).e_l == e_l

    @pytest.mark.parametrize("e_l", OUTSIDE)
    def test_next_float_out_rejected_by_both(self, e_l):
        with pytest.raises(ValueError, match="e_l"):
            resolve_error(f"fixed={e_l!r}")
        with pytest.raises(ValueError, match="e_l"):
            LocalEstimator(e_l=e_l)


class TestLocalEstimate:
    def test_unavailable_at_low_utilization(self):
        est = LocalEstimator(e_l=0.025)
        assert local_estimate(FrictionProfile(((-1e6, 0.8),)), 0.1, est) is None

    def test_worst_under_on_high_mu(self):
        est = LocalEstimator(e_l=-0.025)
        value = local_estimate(HIGH_MU_PROFILE, 0.8, est)
        assert value == (pytest.approx(0.975), 0.025)

    def test_threshold_crossing_with_zero_error(self):
        est = LocalEstimator(e_l=0.0)
        value = local_estimate(FrictionProfile(((-1e6, 0.4),)), 0.51, est)
        assert value == (pytest.approx(0.4), 0.025)

    def test_exactly_at_threshold_is_unavailable(self):
        est = LocalEstimator(e_l=0.0)
        assert local_estimate(HIGH_MU_PROFILE, 0.5, est) is None

    def test_updates_last_available(self):
        est = LocalEstimator(e_l=0.025, initial_estimate=0.8)
        local_estimate(HIGH_MU_PROFILE, 0.9, est)
        assert est.last_available == pytest.approx(1.025)

    def test_lambda_range_checked(self):
        est = LocalEstimator()
        with pytest.raises(ValueError):
            local_estimate(HIGH_MU_PROFILE, 1.2, est)

    def test_error_bound_enforced(self):
        with pytest.raises(ValueError):
            LocalEstimator(e_l=0.05)


class TestBuildEstimate:
    def test_gt_returns_profile(self):
        grid = SGrid()
        est = LocalEstimator()
        mu_hat = emulate(Configuration("gt"), TURN_PROFILE, grid, 0.0, est).mu_hat
        np.testing.assert_array_equal(mu_hat, np.full(51, 0.4))

    def test_gt_tracks_transitions(self):
        grid = SGrid()
        profile = FrictionProfile(((-1e6, 0.8), (10.0, 0.3)))
        mu_hat = emulate(Configuration("gt"), profile, grid, 0.0, LocalEstimator()).mu_hat
        np.testing.assert_array_equal(mu_hat[:10], 0.8)
        np.testing.assert_array_equal(mu_hat[10:], 0.3)

    def test_l_holds_last_estimate_minus_worst_error(self):
        grid = SGrid()
        est = LocalEstimator(e_l=0.025, initial_estimate=0.8)
        mu_hat = emulate(Configuration("l"), TURN_PROFILE, grid, 0.1, est).mu_hat
        np.testing.assert_allclose(mu_hat, 0.775)

    def test_l_uses_fresh_estimate_when_available(self):
        grid = SGrid()
        est = LocalEstimator(e_l=0.025, initial_estimate=0.8)
        mu_hat = emulate(Configuration("l"), TURN_PROFILE, grid, 0.9, est).mu_hat
        np.testing.assert_allclose(mu_hat, 0.4 + 0.025 - 0.025)

    def test_l_requires_seed_before_first_availability(self):
        grid = SGrid()
        with pytest.raises(ValueError):
            emulate(Configuration("l"), TURN_PROFILE, grid, 0.1, LocalEstimator())

    def test_p_takes_class_minima(self):
        grid = SGrid()
        mu_hat = emulate(Configuration("p"), HIGH_MU_PROFILE, grid, 0.0, LocalEstimator()).mu_hat
        np.testing.assert_array_equal(mu_hat, np.full(51, 0.6))

    def test_p_quantizes_per_point(self):
        grid = SGrid()
        profile = FrictionProfile(((-1e6, 1.0), (20.0, 0.45), (40.0, 0.2)))
        mu_hat = emulate(Configuration("p"), profile, grid, 0.0, LocalEstimator()).mu_hat
        np.testing.assert_array_equal(mu_hat[:20], 0.6)
        np.testing.assert_array_equal(mu_hat[20:40], 0.4)
        np.testing.assert_array_equal(mu_hat[40:], 0.1)

    def test_f_reports_series_and_posterior(self):
        grid = SGrid()
        est = LocalEstimator(e_l=-0.025, initial_estimate=0.8)
        report = emulate(Configuration("f"), HIGH_MU_PROFILE, grid, 0.9, est)
        assert report.local_available
        assert report.series is not None
        assert report.fused is not None
        near = grid.points < 5.0
        np.testing.assert_allclose(report.series.mu_prime[near], 0.975)
        np.testing.assert_allclose(report.series.margin[near], 0.025)
        np.testing.assert_allclose(report.series.mu_prime[~near], 0.8)
        assert report.mu_hat[0] >= 0.85

    def test_f_without_local_is_predictive_fusion(self):
        grid = SGrid()
        est = LocalEstimator(e_l=0.025, initial_estimate=0.8)
        report = emulate(Configuration("f"), HIGH_MU_PROFILE, grid, 0.0, est)
        assert not report.local_available
        np.testing.assert_allclose(report.series.mu_prime, 0.8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Configuration("x")

    def test_negative_local_reach_rejected(self):
        with pytest.raises(ValueError, match="local_reach"):
            Configuration("f", local_reach=-1.0)


@pytest.fixture
def fuse_calls(monkeypatch):
    """The arguments of every ``fuse`` that ``emulate`` makes."""
    calls, real = [], estimators.fuse
    monkeypatch.setattr(estimators, "fuse", lambda *args: calls.append(args) or real(*args))
    return calls


def _nudged(name):
    """A variant whose class statistic ``name`` reads 0.01 higher."""
    def vary(monkeypatch):
        real = FrictionProfile.on_grid

        def on_grid(profile, grid, *columns):
            values = real(profile, grid, *columns)
            return tuple(v + 0.01 if n == name else v for n, v in zip(columns, values))

        monkeypatch.setattr(FrictionProfile, "on_grid", on_grid)
        return {}
    return vary


def _other_observation_grid(monkeypatch):
    # The same planning grid with another 51-point observation grid: on a
    # uniform road the class statistics keep their bytes.
    grid = SGrid(ds=0.5)
    grid.__dict__["observation_grid"] = SGrid(ds=0.5, s_f=25.0)
    return {"grid": grid}


class TestFusedMemo:
    """``emulate`` looks a fused input up before assembling it."""

    UNIFORM = FrictionProfile(((-1e6, 0.45),))
    BASE = {"config": Configuration("f"), "grid": SGrid(ds=0.5), "lambda_t": 0.9, "e_l": 0.01}
    # Each changes one thing that assembly or fusion reads.
    VARIANTS = {
        "means": _nudged("mean"),
        "margins": _nudged("margin"),
        "local value": lambda mp: {"e_l": 0.02},
        "local availability": lambda mp: {"lambda_t": 0.1},
        "local_reach": lambda mp: {"config": Configuration("f", local_reach=4.0)},
        "prior": lambda mp: {"config": Configuration("f", prior=calibrate_prior(5.0))},
        "planning grid": lambda mp: {"grid": SGrid(ds=0.25)},
        "observation grid": _other_observation_grid,
    }

    def _emulate(self, memo=None, **changes):
        args = {**self.BASE, **changes}
        return emulate(args["config"], self.UNIFORM, args["grid"], args["lambda_t"],
                       LocalEstimator(e_l=args["e_l"]), memo)

    def test_a_repeated_input_returns_the_stored_report(self, fuse_calls):
        memo = FusionState()
        first = self._emulate(memo)
        again = self._emulate(memo)
        assert again is first and len(fuse_calls) == 1
        assert first.series is fuse_calls[0][1]
        # The report, and beside it the prior blocks of ``posterior``.
        assert list(memo.reports.values()) == [first]
        assert [type(v) for v in memo.grams.values()] == [PriorBlocks]
        # Shared by every record of a hit, so no array of it can be written.
        series = first.series
        for arr in (series.mu_prime, series.margin, series.noise_std, first.mu_hat):
            assert not arr.flags.writeable
        plain = self._emulate()  # no memo: assembled and fused again, the same bits
        assert plain is not first and len(fuse_calls) == 2
        for name in ("mu_prime", "margin"):
            assert getattr(plain.series, name).tobytes() == getattr(first.series, name).tobytes()
        assert plain.mu_hat.tobytes() == first.mu_hat.tobytes()

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_changing_one_key_component_misses(self, name, fuse_calls, monkeypatch):
        memo = FusionState()
        first = self._emulate(memo)
        changes = self.VARIANTS[name](monkeypatch)
        other = self._emulate(memo, **changes)
        assert other is not first and len(fuse_calls) == 2
        assert list(memo.reports.values()) == [first, other]  # kept: the memo holds two
        fresh = self._emulate(**changes)
        assert other.mu_hat.tobytes() == fresh.mu_hat.tobytes()
        assert other.series.grid == fresh.series.grid
        assert other.series.mu_prime.tobytes() == fresh.series.mu_prime.tobytes()

    def test_the_memo_keeps_the_two_most_recent_inputs(self, fuse_calls):
        memo = FusionState()
        a, b, c = ({"e_l": e_l, "grid": SGrid()} for e_l in (0.0, 0.01, 0.02))
        first = self._emulate(memo, **a)
        second = self._emulate(memo, **b)
        assert self._emulate(memo, **a) is first  # a is now the most recent
        third = self._emulate(memo, **c)  # evicts b, the least recent
        stored = list(memo.reports.values())
        assert stored == [first, third] and FUSE_MEMO_SIZE == 2
        assert all(second is not v for v in stored)
        assert len(memo.grams) == 1  # and the grid's prior blocks, built once
        assert self._emulate(memo, **a) is first
        assert len(fuse_calls) == 3
        again = self._emulate(memo, **b)  # a new posterior
        assert len(fuse_calls) == 4 and all(again is not v for v in stored)


class TestConservatism:
    def test_gt_exactness_random_profiles(self):
        grid = SGrid()
        rng = np.random.RandomState(9)
        for _ in range(20):
            profile = random_profile(rng)
            mu_hat = emulate(Configuration("gt"), profile, grid, 0.0, LocalEstimator()).mu_hat
            np.testing.assert_array_equal(mu_hat, profile.mu_on(grid.points))

    def test_l_never_exceeds_current_truth_when_available(self):
        grid = SGrid()
        rng = np.random.RandomState(10)
        for _ in range(20):
            profile = random_profile(rng)
            for e_l in (-0.025, -0.01, 0.0, 0.01, 0.025):
                est = LocalEstimator(e_l=e_l, initial_estimate=0.8)
                mu_hat = emulate(Configuration("l"), profile, grid, 0.8, est).mu_hat
                assert mu_hat.max() <= profile.mu_at(0.0) + 1e-12

    def test_p_never_exceeds_truth(self):
        grid = SGrid()
        rng = np.random.RandomState(11)
        for _ in range(30):
            profile = random_profile(rng)
            mu_hat = emulate(Configuration("p"), profile, grid, 0.0, LocalEstimator()).mu_hat
            truth = profile.mu_on(grid.points)
            assert (mu_hat <= truth + 1e-12).all()
