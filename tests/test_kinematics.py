import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from motionstories.kinematics import (
    Disc,
    UniformMotionState,
    Vec2,
    center_distance_at,
    closest_approach_state,
)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


def make_state(px, py, vx, vy, qx, qy, wx, wy, rk=1.0, rl=2.0, epoch=0.0):
    return UniformMotionState(
        disc_k=Disc(Vec2(px, py), rk),
        vel_k=Vec2(vx, vy),
        disc_l=Disc(Vec2(qx, qy), rl),
        vel_l=Vec2(wx, wy),
        epoch=epoch,
    )


class TestVec2:
    def test_arithmetic(self):
        a, b = Vec2(1, 2), Vec2(3, -4)
        assert a - b == Vec2(-2, 6)
        assert a.dot(b) == -5
        assert a.cross(b) == -10
        assert b.norm() == 5
        assert b.norm_sq() == 25

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec2(math.nan, 0)
        with pytest.raises(ValueError):
            Vec2(0, math.inf)


class TestDisc:
    def test_rejects_non_positive_radius(self):
        with pytest.raises(ValueError):
            Disc(Vec2(0, 0), 0.0)
        with pytest.raises(ValueError):
            Disc(Vec2(0, 0), -1.0)


class TestPolynomial:
    """The minimum of the squared center distance |dp + dv t|^2."""

    def test_closest_approach_known(self):
        # |dp + dv t|^2 = 9 t^2 - 60 t + 109.
        state = make_state(0, 0, 2, 0, 10, 3, -1, 0)
        t_min, d_min = closest_approach_state(state)
        assert t_min == pytest.approx(10 / 3)
        assert d_min == pytest.approx(3.0)

    def test_rigid_motion_has_no_minimum_instant(self):
        state = make_state(0, 0, 1, 1, 5, 0, 1, 1)
        t_min, d_min = closest_approach_state(state)
        assert t_min is None
        assert d_min == pytest.approx(5.0)

    def test_overflowing_motion_is_rejected(self):
        state = make_state(0, 0, 1e200, 0, 1e200, 0, -1e200, 0)
        with pytest.raises(ValueError):
            closest_approach_state(state)

    @given(finite, finite, finite, finite, finite, finite, finite, finite)
    def test_minimum_really_is_minimal(self, px, py, vx, vy, qx, qy, wx, wy):
        state = make_state(px, py, vx, vy, qx, qy, wx, wy)
        t_min, d_min = closest_approach_state(state)
        if t_min is None:
            return
        for dt in (-1.0, -0.1, 0.1, 1.0):
            assert center_distance_at(state, t_min + dt) >= d_min - 1e-7

    @given(finite, finite, finite, finite, finite, finite, finite, finite)
    def test_minimum_is_no_farther_than_now(self, px, py, vx, vy, qx, qy, wx, wy):
        state = make_state(px, py, vx, vy, qx, qy, wx, wy)
        assert closest_approach_state(state)[1] <= state.dp.norm()

    def test_stable_minimum_for_near_collision(self):
        # A grazing pass with tiny miss distance: the geometric form keeps
        # nanometer accuracy where the polynomial form loses it entirely.
        h = 3e-9
        state = make_state(-5.0, h, 1, 0, 0, 0, 0, 0)
        _, d_min = closest_approach_state(state)
        assert d_min == pytest.approx(h, rel=1e-9)


class TestRelativeState:
    def test_direction_is_k_to_l(self):
        state = make_state(1, 1, 1, 0, 4, 5, 0, 1)
        assert state.dp == Vec2(3, 4)
        assert state.dv == Vec2(-1, 1)

    def test_derived_again_when_advanced_and_kept_out_of_repr(self):
        state = make_state(1, 1, 1, 0, 4, 5, 0, 1)
        # The same motion 1 s later.
        later = replace(
            state, disc_k=Disc(Vec2(2, 1), 1.0), disc_l=Disc(Vec2(4, 6), 2.0), epoch=1.0
        )
        assert later.dp == Vec2(2, 5)
        assert "dp=" not in repr(state) and "dv=" not in repr(state)

    def test_overflowing_difference_is_rejected(self):
        with pytest.raises(ValueError, match="x must be finite, got inf"):
            make_state(-1e308, 0, 0, 0, 1e308, 0, 0, 0)
