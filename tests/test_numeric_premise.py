"""The numeric premises that make batched rollouts and stacked sampling
bit-identical.

The rollout engine steps many episodes at once with numpy array operations.
Its curves equal those of an episode stepped alone, and those of the
scalar-float code the golden fixture was recorded from, only because each
operation it uses gives the same bits as the scalar operation it stands for,
whatever the array length.  A numpy, libm or BLAS upgrade that breaks one of
these fails here, by name, instead of silently moving a training curve.
"""

import math

import numpy as np
import pytest

from evolin.es import CovTransform

LENGTHS = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128)


@pytest.fixture(scope="module")
def values() -> np.ndarray:
    rng = np.random.default_rng(20240210)
    return np.concatenate([rng.uniform(-4.0, 4.0, 3000),
                           rng.uniform(-60.0, 60.0, 3000)])


def assert_matches_at_every_length(fn, x: np.ndarray, want: np.ndarray) -> None:
    for length in LENGTHS:
        for start in range(0, len(x), length):
            got = fn(x[start:start + length])
            assert got.tobytes() == want[start:start + length].tobytes(), \
                f"{fn.__name__} differs at array length {length}"


@pytest.mark.parametrize("np_fn,math_fn", [(np.sin, math.sin), (np.cos, math.cos)])
def test_trig_matches_math_at_every_length(values, np_fn, math_fn) -> None:
    want = np.array([math_fn(v) for v in values.tolist()])
    assert_matches_at_every_length(np_fn, values, want)


def test_mod_matches_python_float_mod(values) -> None:
    period = 2 * math.pi
    want = np.array([(v + math.pi) % period for v in values.tolist()])
    assert_matches_at_every_length(lambda x: np.mod(x + math.pi, period), values, want)


def test_float_power_two_matches_python_square(values) -> None:
    # libm's pow(x, 2.0) is not always x * x; float_power calls pow itself
    want = np.array([v ** 2 for v in values.tolist()])
    assert_matches_at_every_length(lambda x: np.float_power(x, 2.0), values, want)


def test_tanh_does_not_depend_on_array_length(values) -> None:
    want = np.array([np.tanh(values[i:i + 1])[0] for i in range(len(values))])
    assert_matches_at_every_length(np.tanh, values, want)


@pytest.mark.parametrize("act_dim,obs_dim", [(1, 3), (2, 4), (3, 6), (2, 5)])
def test_stacked_matmul_equals_per_row_matmul(act_dim, obs_dim) -> None:
    rng = np.random.default_rng(act_dim * 10 + obs_dim)
    for lanes in (1, 2, 3, 5, 8, 32, 33):
        weights = rng.standard_normal((lanes, act_dim, obs_dim))
        z = rng.standard_normal((lanes, obs_dim)) * 3.0
        stacked = np.matmul(weights, z[:, :, None])[:, :, 0]
        rows = np.stack([weights[i] @ z[i] for i in range(lanes)])
        assert stacked.tobytes() == rows.tobytes(), f"{lanes} lanes"


@pytest.mark.parametrize("n", [3, 8, 10, 18])
def test_full_covariance_transform_equals_per_row_product(n) -> None:
    # ask, the worker and tell all map draws through CovTransform.apply; a
    # stack of draws must give each row the bits of the 1-D product
    rng = np.random.default_rng(n)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    scale = np.sqrt(rng.uniform(1e-3, 1e3, n))
    transform = CovTransform("full", basis=basis, scale=scale)
    for lanes in (1, 2, 3, 10, 32, 33):
        z = rng.standard_normal((lanes, n))
        rows = np.stack([basis @ (scale * z[i]) for i in range(lanes)])
        assert transform.apply(z).tobytes() == rows.tobytes(), f"{lanes} lanes"
        for i in range(lanes):
            assert transform.apply(z[i]).tobytes() == rows[i].tobytes()
