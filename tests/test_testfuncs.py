import numpy as np
import pytest

from evolin.testfuncs import (ellipsoid, eval_test_function, quadratic2d,
                              random_rotation, rastrigin, rotated_ellipsoid, sphere)


def test_sphere_values() -> None:
    f = sphere(3)
    assert f(np.zeros(3)) == 0.0
    assert f(np.array([1.0, 2.0, 2.0])) == 9.0


def test_quadratic2d_is_positive_definite() -> None:
    f = quadratic2d()
    assert f(np.zeros(2)) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(2) * 10
        if np.any(x != 0):
            assert f(x) > 0.0


def test_ellipsoid_conditioning() -> None:
    f = ellipsoid(3, cond=100.0)
    assert f(np.array([1.0, 0.0, 0.0])) == 1.0
    assert f(np.array([0.0, 0.0, 1.0])) == 100.0
    assert f(np.array([0.0, 1.0, 0.0])) == 10.0
    assert ellipsoid(1)(np.array([2.0])) == 4.0


def test_rotation_matrix_is_orthogonal_and_reproducible() -> None:
    r1 = random_rotation(6, seed=3)
    r2 = random_rotation(6, seed=3)
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_allclose(r1 @ r1.T, np.eye(6), atol=1e-12)
    assert not np.allclose(random_rotation(6, seed=4), r1)


def test_rotated_ellipsoid_preserves_level_sets() -> None:
    plain = ellipsoid(5, 1e4)
    rot = rotated_ellipsoid(5, 1e4, seed=2)
    r = random_rotation(5, seed=2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(5)
        assert abs(rot(x) - plain(r @ x)) <= 1e-9 * max(1.0, abs(plain(r @ x)))
    assert rot(np.zeros(5)) == 0.0


def test_rastrigin_grid_minima() -> None:
    f = rastrigin(2)
    assert f(np.zeros(2)) == 0.0
    # integer lattice points are local minima with value 10*n per unit offset
    assert abs(f(np.array([1.0, 0.0])) - 1.0) < 1e-9
    assert f(np.array([0.5, 0.0])) > 20.0


def test_dimension_validation() -> None:
    f = sphere(4)
    with pytest.raises(ValueError):
        eval_test_function(f, np.zeros(3))
    with pytest.raises(ValueError):
        sphere(0)
    with pytest.raises(ValueError):
        ellipsoid(3, cond=0.5)
