import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcert import halfplane, isometry
from hypcert.errors import PreconditionError
from helpers import rotation_about_i

H2 = halfplane.H2


def _gap_cases(tree2):
    """(space, g, eps1, sample) of a margulis scan, by the kind of g."""
    return {
        "hyperbolic": (H2, halfplane.Moebius(2.0, 0.0, 0.0, 0.5), 1.5,
                       halfplane.sample_ball(1j, 3.0, 40, random.Random(0))),
        "parabolic": (H2, halfplane.Moebius(1.0, 1.0, 0.0, 1.0), 0.5,
                      halfplane.sample_ball(1j, 3.0, 40, random.Random(1))),
        "tree": (tree2, "ab", 2, tree2.ball("", 3)),
        "elliptic": (H2, rotation_about_i(0.3), 0.5,
                     halfplane.sample_ball(1j, 3.0, 40, random.Random(2)))}


def random_hyperbolic(rng):
    """Random matrix with |trace| > 2 after det normalization."""
    while True:
        a, b, c, d = (rng.uniform(-3.0, 3.0) for _ in range(4))
        det = a * d - b * c
        if det <= 1e-3:
            continue
        g = halfplane.Moebius(a, b, c, d)
        if abs(g.trace()) > 2.0 + 1e-3:
            return g


class TestClassification:
    def test_hyperbolic_diagonal(self):
        prof = isometry.classify(halfplane.Moebius(2.0, 0.0, 0.0, 0.5), H2)
        assert prof.kind == "hyperbolic"
        assert prof.ell == pytest.approx(2.0 * math.log(2.0))
        assert prof.fixed_boundary == (0.0, math.inf)

    def test_hyperbolic_symmetric(self):
        prof = isometry.classify(halfplane.Moebius(1.25, 0.75, 0.75, 1.25), H2)
        assert prof.kind == "hyperbolic"
        rep, att = prof.fixed_boundary
        assert rep == pytest.approx(-1.0)
        assert att == pytest.approx(1.0)

    def test_parabolic(self):
        prof = isometry.classify(halfplane.Moebius(1.0, 1.0, 0.0, 1.0), H2)
        assert prof.kind == "parabolic"
        assert prof.ell == 0.0
        assert prof.fixed_boundary == (math.inf,)

    def test_elliptic(self):
        prof = isometry.classify(rotation_about_i(1.0), H2)
        assert prof.kind == "elliptic"
        assert prof.ell == 0.0

    def test_identity_is_trivially_elliptic(self):
        prof = isometry.classify(halfplane.Moebius.identity(), H2)
        assert prof.kind == "elliptic"
        assert prof.ell == 0.0

    def test_tree_word(self, tree2):
        prof = isometry.classify("ab", tree2)
        assert prof.kind == "hyperbolic"
        assert prof.ell == 2

    def test_tree_conjugate_word(self, tree2):
        # Bab acts as a conjugated by b^-1: same length, shifted axis
        prof = isometry.classify("Bab", tree2)
        assert prof.ell == 1
        rep, att = prof.axis
        assert att.prefix == "B"


class TestTranslationLengthCrossCheck:
    def test_fifty_seeded_matrices_within_tolerance(self):
        rng = random.Random(11)
        worst = 0.0
        for _ in range(50):
            g = random_hyperbolic(rng)
            ell = 2.0 * math.acosh(abs(g.trace()) / 2.0)
            orbit = isometry.orbit_translation_length(g)
            worst = max(worst, abs(ell - orbit))
        assert worst < 1e-6

    def test_parabolic_orbit_limit_is_small(self):
        g = halfplane.Moebius(1.0, 1.0, 0.0, 1.0)
        assert isometry.orbit_translation_length(g) < 0.01

    @given(st.integers(min_value=1, max_value=8))
    def test_power_scaling(self, k):
        g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        prof = isometry.classify(g ** k, H2)
        assert prof.ell == pytest.approx(k * 2.0 * math.log(2.0), abs=1e-9)

    def test_power_scaling_tree(self, tree2):
        for k in range(1, 6):
            w = "ab" * k
            assert isometry.classify(w, tree2).ell == 2 * k


class TestDisplacementAndAxes:
    def test_displacement_minimized_on_axis(self):
        g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        on_axis = H2.dist(1j, H2.act(g, 1j))
        off_axis = H2.dist(1.0 + 1j, H2.act(g, 1.0 + 1j))
        assert on_axis == pytest.approx(2.0 * math.log(2.0))
        assert off_axis > on_axis

    def test_axis_endpoints(self):
        g = halfplane.Moebius(1.25, 0.75, 0.75, 1.25)
        ax = H2.classify(g).axis
        assert ax.neg == pytest.approx(-1.0)
        assert ax.pos == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=64),
           st.floats(min_value=0.1, max_value=3.0))
    def test_power_displacement_bound(self, n, y):
        # d(x, g^n x) <= d(x, g x) + (n - 1) ell + 4 delta log2 n
        g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        x, delta = complex(1.0, y), math.log(3.0)
        observed = H2.dist(x, H2.act(H2.power(g, n), x))
        bound = (H2.dist(x, H2.act(g, x)) + (n - 1) * H2.classify(g).ell
                 + 4.0 * delta * math.log2(n))
        assert observed <= bound + 1e-9


class TestMargulisDomain:
    def test_membership_on_and_off_axis(self):
        g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        rep = isometry.domain_gap_report(H2, g, 1.5, 1.5, [1j, 1.0 + 0.1j])
        assert (rep.inner_count, rep.outer_count) == (1, 1)
        # the first power already returns within 1.5
        rep = isometry.domain_gap_report(H2, g, 1.5, 1.5, [1j], power_cap=1)
        assert rep.inner_count == 1

    def test_eps_above_ell_includes_axis_neighborhood(self):
        g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        rep = isometry.domain_gap_report(H2, g, 2.0, 2.0, [0.1 + 1j])
        assert rep.inner_count == 1

    def test_domain_sample_split(self):
        g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        rng = random.Random(0)
        pts = halfplane.sample_ball(1j, 3.0, 200, rng)
        rep = isometry.domain_gap_report(H2, g, 1.5, 1.5, pts)
        assert rep.inner_count + rep.outer_count == 200
        assert rep.inner_count > 0

    def test_gap_report_bound(self):
        g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        rng = random.Random(0)
        pts = halfplane.sample_ball(1j, 3.0, 500, rng)
        rep = isometry.domain_gap_report(H2, g, 1.5, 2.0, pts)
        assert rep.lower_bound_i == pytest.approx(0.25)
        assert rep.min_gap_observed >= 0.25 - 0.02

    def test_gap_report_empty_inner_domain(self):
        g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        rng = random.Random(0)
        pts = halfplane.sample_ball(1j, 1.0, 50, rng)
        with pytest.raises(PreconditionError):
            isometry.domain_gap_report(H2, g, 0.1, 0.2, pts)

    @pytest.mark.parametrize("kind", ["hyperbolic", "parabolic", "tree",
                                      "elliptic"])
    def test_first_power_decides_unless_elliptic(self, kind, tree2,
                                                 monkeypatch):
        # d(x, g^i x) grows with i for non-elliptic g: one image per point
        # at any power cap; an elliptic g scans up to the cap, the points
        # still scanned stepping together through act_batch
        space, g, eps, pts = _gap_cases(tree2)[kind]
        acts, images, stepped = [], [], []
        act = isometry.apply_isometry
        monkeypatch.setattr(isometry, "apply_isometry",
                            lambda s, h, x: acts.append(x) or act(s, h, x))
        if space is H2:
            step = type(space).act_batch
            monkeypatch.setattr(type(space), "act_batch", lambda self, E, zs:
                                stepped.append(np.size(zs))
                                or step(self, E, zs))
        scan = type(space).power_scan

        def counting_scan(self, h, xs, power_cap, eps):
            images.append((power_cap, len(xs)))
            return scan(self, h, xs, power_cap, eps)

        monkeypatch.setattr(type(space), "power_scan", counting_scan)
        rep = isometry.domain_gap_report(space, g, eps, 2 * eps, pts,
                                         power_cap=64)
        assert rep.inner_count
        if kind != "elliptic":
            # one scan of the first power: an image per point
            assert acts == [] and images == [(1, len(pts))]
            if space is H2:
                assert stepped == [len(pts)]
            return
        assert images == [(64, len(pts))] and acts == []
        # an elliptic g is scanned until a power comes within eps
        expected = 0
        for x in pts:
            y = x
            for _ in range(64):
                y, expected = act(space, g, y), expected + 1
                if space.dist(x, y) <= eps + 1e-9:
                    break
        assert len(pts) < sum(stepped) == expected

    @pytest.mark.parametrize("kind", ["hyperbolic", "parabolic", "tree"])
    def test_first_power_table_is_the_per_point_loop(self, kind, tree2,
                                                     monkeypatch):
        space, g, eps, pts = _gap_cases(tree2)[kind]
        want = [space.dist(x, space.act(g, x)) for x in pts]
        got = space.power_scan(g, pts, 1, eps)
        assert [repr(d) for d in got.tolist()] == [repr(d) for d in want]
        assert {type(d) for d in got.tolist()} == {type(d) for d in want}
        if space is H2:   # the first column of the displacement table
            assert got.tobytes() == H2.displacement_table(
                pts, [H2.batch([g])])[:, 0].tobytes()
        rep = isometry.domain_gap_report(space, g, eps, 2 * eps, pts)
        monkeypatch.setattr(type(space), "power_scan",
                            lambda self, h, xs, power_cap, eps: np.array(
                                want, dtype=object))
        assert rep == isometry.domain_gap_report(space, g, eps, 2 * eps, pts)

    @pytest.mark.parametrize("kind", ["hyperbolic", "parabolic", "tree",
                                      "elliptic"])
    def test_gap_rows_in_blocks_are_the_whole_table(self, kind, tree2,
                                                    monkeypatch):
        space, g, eps, pts = _gap_cases(tree2)[kind]
        want = isometry.domain_gap_report(space, g, eps, 2 * eps, pts)
        for block in (1, 7, 100):
            monkeypatch.setattr(isometry, "_ROW_BLOCK", block)
            assert isometry.domain_gap_report(space, g, eps, 2 * eps,
                                              pts) == want

    def test_gap_report_of_5000_points_keeps_to_its_row_blocks(self):
        # the whole (1 + within + outside) x inner table peaks at 17 MB
        g = halfplane.Moebius(2, 0, 0, 0.5)
        pts = halfplane.sample_ball(1j, 3.0, 5000, random.Random(0))
        tracemalloc.start()
        try:
            rep = isometry.domain_gap_report(H2, g, 1.5, 2.0, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.inner_count * (5000 - rep.inner_count) > 1_000_000
        assert peak < 2e6

    @pytest.mark.parametrize("g", [
        rotation_about_i(0.3),
        halfplane.Moebius(0.0, -1.0, 1.0, 1.0),   # order 3: z -> -1/(z+1)
        halfplane.Moebius(0.0, -1.0, 1.0, 0.0)],  # order 2: z -> -1/z
        ids=["rotation", "order-3", "order-2"])
    @pytest.mark.parametrize("cap", [1, 5, 64])
    def test_elliptic_power_scan_is_the_scalar_loop(self, g, cap,
                                                    monkeypatch):
        pts = halfplane.sample_ball(complex(0.3, 1.5), 3.0, 40,
                                    random.Random(2))
        eps = 0.5 + isometry.TOL

        def scalar_scan(space, h, xs, power_cap, eps):
            out = []
            for x in xs:
                y, least = x, math.inf
                for _ in range(power_cap):
                    y = h(y)
                    least = min(least, halfplane.dist(x, y))
                    if least <= eps:
                        break
                out.append(least)
            return np.array(out)

        got = H2.power_scan(g, pts, cap, eps)
        want = scalar_scan(H2, g, pts, cap, eps)
        assert [repr(v) for v in got.tolist()] == \
            [repr(v) for v in want.tolist()]

        def report():
            try:
                return isometry.domain_gap_report(H2, g, 0.5, 1.0, pts,
                                                  power_cap=cap)
            except PreconditionError as e:   # no power comes within eps1
                return str(e)

        rep = report()
        monkeypatch.setattr(halfplane.HalfPlane, "power_scan", scalar_scan)
        assert rep == report()

    def test_packing_gap_floor_formula(self):
        lb = isometry.gap_lower_bound_ii(4, 0.1, 0.5)
        expected = math.log(19.0) / (2.0 * math.log(5.0)) * 0.5 - 0.5
        assert lb == pytest.approx(expected)
