"""Kinematics: boost matrices, the velocity-rapidity map, invariant intervals."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lorentzqrf.kinematics import (
    Interval,
    SpacetimePoint,
    boost_matrix,
    boost_point,
    invariant_interval,
    rapidity_of_velocity,
)


def test_boost_matrix_ln2():
    lam = boost_matrix(math.log(2.0))
    assert np.allclose(lam, [[1.25, -0.75], [-0.75, 1.25]], atol=1e-15)
    assert abs(np.linalg.det(lam) - 1.0) < 1e-12


def test_boost_matrix_group_law():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = rng.uniform(-5.0, 5.0, size=2)
        lhs = boost_matrix(a) @ boost_matrix(b)
        rhs = boost_matrix(a + b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))
        assert abs(np.linalg.det(boost_matrix(a)) - 1.0) < 1e-12


def test_boost_point_example_and_matrix_consistency():
    pt = boost_point(math.log(2.0), SpacetimePoint(1.0, 0.0))
    assert pt.t == pytest.approx(1.25, abs=1e-15)
    assert pt.x == pytest.approx(-0.75, abs=1e-15)

    rng = np.random.default_rng(3)
    for _ in range(100):
        a = float(rng.uniform(-5.0, 5.0))
        t, x = rng.uniform(-10.0, 10.0, size=2)
        via_matrix = boost_matrix(a) @ np.array([t, x])
        p2 = boost_point(a, (float(t), float(x)))
        assert abs(p2.t - via_matrix[0]) < 1e-12 * max(1.0, abs(via_matrix[0]))
        assert abs(p2.x - via_matrix[1]) < 1e-12 * max(1.0, abs(via_matrix[1]))


def test_boost_on_shell_rapidity_shift():
    # the same boost that acts on events sends mass-shell rapidity theta -> theta - alpha
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = float(rng.uniform(0.2, 5.0))
        th = float(rng.uniform(-4.0, 4.0))
        a = float(rng.uniform(-4.0, 4.0))
        e2, p2 = boost_matrix(a) @ np.array([m * math.cosh(th), m * math.sinh(th)])
        e, p = m * math.cosh(th - a), m * math.sinh(th - a)
        assert abs(e2 - e) < 1e-10 * e
        assert abs(p2 - p) < 1e-10 * max(1.0, abs(p))


def test_interval_tags_and_values():
    assert invariant_interval((0.0, 0.0), (2.0, 0.0)) == Interval("timelike", 2.0)
    assert invariant_interval((0.0, 0.0), (0.0, 3.0)) == Interval("spacelike", 3.0)
    # lightlike counts as timelike with value 0
    light = invariant_interval((0.0, 0.0), (4.0, 4.0))
    assert light.kind == "timelike" and light.value == 0.0


def test_interval_rejects_an_overflowing_separation():
    """Finite events whose dt^2 - dx^2 overflows raise instead of returning
    a nan or inf interval."""
    for a, b in (
        ((1e308, 1e308), (-1e308, -1e308)),  # was Interval('spacelike', nan)
        ((1e308, 0.0), (-1e308, 0.0)),  # was Interval('timelike', inf)
        ((0.0, 0.0), (1e200, 0.0)),
    ):
        with pytest.raises(ValueError, match="overflows"):
            invariant_interval(a, b)
    assert invariant_interval((0.0, 0.0), (1e150, 0.0)) == Interval("timelike", 1e150)


def test_interval_boost_invariance():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = SpacetimePoint(*rng.uniform(-5.0, 5.0, size=2))
        b = SpacetimePoint(*rng.uniform(-5.0, 5.0, size=2))
        al = float(rng.uniform(-5.0, 5.0))
        i0 = invariant_interval(a, b)
        i1 = invariant_interval(boost_point(al, a), boost_point(al, b))
        assert i0.kind == i1.kind
        assert abs(i0.value - i1.value) < 1e-9 * max(1.0, i0.value)


def test_velocity_rapidity_round_trip():
    rng = np.random.default_rng(17)
    for v in rng.uniform(-0.99, 0.99, size=50):
        assert math.tanh(rapidity_of_velocity(float(v))) == pytest.approx(
            float(v), abs=1e-14
        )
    with pytest.raises(ValueError):
        rapidity_of_velocity(1.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        SpacetimePoint(float("inf"), 0.0)
