import math

import numpy as np
import pytest

from hypcert import bounds, graphspace, halfplane, isometry, sampled
from hypcert.errors import InputError
from helpers import point_along

H2 = halfplane.H2


class TestDerivedConstants:
    def test_values(self):
        cfg = bounds.BoundsConfig(P0=4, r0=0.5, N=1)
        der = cfg.derived()
        assert der.C0 == pytest.approx(math.log(2.0))
        assert der.E0 == pytest.approx(math.log(5.0) / 0.5)
        assert der.H0 == pytest.approx(der.E0)

    def test_invalid_config(self):
        with pytest.raises(InputError):
            bounds.BoundsConfig(eps0=0.0)


class TestPackingBound:
    def test_closed_form(self):
        assert bounds.packing_bound(4, 1.0, 2.0, 1.0) == pytest.approx(20.0)
        assert bounds.packing_bound(4, 1.0, 2.0, 0.5) == \
            pytest.approx(4.0 * 5.0 ** 3)

    def test_scale_clamps_at_r0(self):
        # r > r0 uses scale r0, never a weaker exponent
        assert bounds.packing_bound(4, 1.0, 4.0, 2.0) == \
            pytest.approx(bounds.packing_bound(4, 1.0, 4.0, 1.0))

    def test_bad_radii(self):
        with pytest.raises(InputError):
            bounds.packing_bound(4, 1.0, 1.0, 2.0)

    def test_dominates_exact_tree_packings(self, tree_ball_space):
        # verified fixture: the F2 tree ball is 4-packed at scale 1
        for R in (1.0, 2.0):
            for r in (0.5, 1.0):
                prof = sampled.packing_number(tree_ball_space, "", R, r)
                assert prof.pack_exact <= bounds.packing_bound(4, 1.0, R, r)


class TestGrowthCounts:
    def test_tree_census(self, tree2):
        counts = bounds.ball_growth_counts(tree2, "", [0, 1, 2, 3])
        assert counts == [(0.0, 1), (1.0, 5), (2.0, 17), (3.0, 53)]

    def test_orbit_counts_match_ball_for_free_action(self, tree2):
        counts = bounds.orbit_growth_counts(
            tree2, [("a", "a"), ("b", "b")], "", [1, 2], 2)
        assert counts == [(1.0, 5), (2.0, 17)]


class TestEntropyEstimate:
    def test_tree_rate_near_log3(self, tree2):
        radii = list(range(1, 13))
        counts = bounds.ball_growth_counts(tree2, "", radii)
        est = bounds.entropy_estimate(counts)
        assert est["estimate"] == pytest.approx(math.log(3.0), rel=0.05)

    def test_grid_rate_near_zero(self):
        G = graphspace.grid_graph(12)
        row = G.table[G.index[(6, 6)]]
        counts = [(float(R), int(np.count_nonzero(row <= R)))
                  for R in range(1, 7)]
        est = bounds.entropy_estimate(counts)
        assert est["estimate"] < 0.5

    def test_needs_enough_radii(self):
        with pytest.raises(InputError):
            bounds.entropy_estimate([(1.0, 3), (2.0, 9)])

    def test_bounds_check_tree(self, tree2):
        cfg = bounds.BoundsConfig(P0=4, r0=0.5, N=1)
        counts = bounds.ball_growth_counts(tree2, "", list(range(1, 13)))
        est = bounds.entropy_estimate(counts)
        check = bounds.entropy_bounds_check(cfg, est["estimate"])
        assert check["ok"]
        assert check["lower_ok"] and check["upper_ok"]

    def test_lower_bound_skipped_for_spaces(self):
        cfg = bounds.BoundsConfig(P0=4, r0=0.5, N=1)
        check = bounds.entropy_bounds_check(cfg, 0.0, context="space")
        assert check["lower_ok"] is None
        assert check["ok"]


class TestFloors:
    def test_empty_thin_part_returns_eps0(self):
        cfg = bounds.BoundsConfig(eps0=0.1)
        assert bounds.systole_floor(cfg, -math.inf) == 0.1

    def test_floor_decays_with_nilradius(self):
        cfg = bounds.BoundsConfig(eps0=0.1)
        f1 = bounds.systole_floor(cfg, 1.0)
        f2 = bounds.systole_floor(cfg, 2.0)
        assert 0.0 < f2 < f1 <= 0.1

    def test_negative_nilradius_rejected(self):
        with pytest.raises(InputError):
            bounds.systole_floor(bounds.BoundsConfig(), -1.0)

    def test_diastole_floor(self):
        assert bounds.diastole_floor(bounds.BoundsConfig(eps0=0.25)) == 0.25


class TestActionStats:
    def test_tree_standard_action(self, tree2):
        cfg = bounds.BoundsConfig(eps0=0.1)
        sample = tree2.ball("", 2)
        st = bounds.action_stats(tree2, [("a", "a"), ("b", "b")],
                                 sample, 3, cfg)
        assert min(st.sys_at.values()) == 1
        assert st.dias_estimate >= 1
        assert st.nilrad_plus_estimate == -math.inf
        assert min(st.sys_free_at.values()) >= bounds.systole_floor(
            cfg, st.nilrad_plus_estimate)

    def test_h2_schottky_action(self, schottky_pair, rng):
        a, b = schottky_pair
        cfg = bounds.BoundsConfig(eps0=0.1)
        sample = halfplane.sample_ball(1j, 2.0, 60, rng)
        st = bounds.action_stats(H2, [("a", a), ("b", b)], sample, 2, cfg)
        assert min(st.sys_free_at.values()) >= 2.0 * math.log(2.0) - 1e-9
        assert st.nilrad_plus_estimate == -math.inf

    def test_dias_dominates_sys(self, tree2):
        cfg = bounds.BoundsConfig()
        sample = tree2.ball("", 2)
        st = bounds.action_stats(tree2, [("a", "a"), ("b", "b")],
                                 sample, 3, cfg)
        assert st.dias_estimate >= max(st.sys_at.values()) - 1e-9
        assert st.dias_estimate >= bounds.diastole_floor(cfg)


def axis_proximity_length(space, a, b, reach, step=0.01, span=40.0):
    """Arclength of a's axis spent within `reach` of b's axis.

    Measured by scanning the axis parameter and counting step cells
    whose point projects within the reach; an empirical stand-in for
    the closed-form segment of the overlap bound.  The scan starts at
    the apex of an H² axis, and at the junction of the attracting end of
    a tree axis.
    """
    pa = isometry.classify(a, space)
    pb = isometry.classify(b, space)
    if pa.kind != "hyperbolic" or pb.kind != "hyperbolic":
        raise InputError("both isometries must be hyperbolic")
    axis = pa.axis
    base = (axis.at(0.0) if isinstance(axis, halfplane.HGeodesic)
            else axis[1].prefix)
    total = 0.0
    n = int(span / step)
    for k in range(-n, n + 1):
        z = point_along(axis, base, k * step)
        foot = pb.axis.project(z)
        if space.dist(z, foot) <= reach:
            total += step
    return total


class TestAxisProximity:
    def test_schottky_overlap_short(self, schottky_pair):
        a, b = schottky_pair
        ell = 2.0 * math.log(2.0)
        length = axis_proximity_length(H2, a, b, 0.1 / 37.0)
        assert length < 5.0 * ell + 0.05

    def test_self_overlap_unbounded(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        length = axis_proximity_length(H2, a, a, 0.01, span=10.0)
        assert length > 19.0
