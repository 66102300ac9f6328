"""Analytic test functions for exercising the search strategies.

All functions are minimization problems whose minimum, 0, is at the origin.
Each callable carries its dimension so evaluation can reject malformed
inputs early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "TestFunction",
    "sphere",
    "quadratic2d",
    "ellipsoid",
    "rotated_ellipsoid",
    "rastrigin",
    "eval_test_function",
]

# Fixed SPD matrix for the 2-d quadratic; mildly anisotropic and not
# axis-aligned so covariance adaptation has something to learn.
_QUAD_A = np.array([[3.0, 1.0], [1.0, 2.0]])


@dataclass(frozen=True)
class TestFunction:
    name: str
    n: int
    fn: Callable[[np.ndarray], float]

    def __call__(self, x: np.ndarray) -> float:
        return eval_test_function(self, x)


def eval_test_function(fn: TestFunction, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (fn.n,):
        raise ValueError(f"{fn.name} expects shape ({fn.n},), got {x.shape}")
    return float(fn.fn(x))


def sphere(n: int) -> TestFunction:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return TestFunction("sphere", n, lambda x: float(np.dot(x, x)))


def quadratic2d() -> TestFunction:
    return TestFunction("quadratic2d", 2, lambda x: float(x @ _QUAD_A @ x))


def _ellipsoid_coeffs(n: int, cond: float) -> np.ndarray:
    if n == 1:
        return np.ones(1)
    return cond ** (np.arange(n) / (n - 1))


def ellipsoid(n: int, cond: float = 1e6) -> TestFunction:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if cond < 1:
        raise ValueError("condition number must be >= 1")
    c = _ellipsoid_coeffs(n, cond)
    return TestFunction("ellipsoid", n, lambda x: float(np.dot(c, x * x)))


def random_rotation(n: int, seed: int) -> np.ndarray:
    """Uniformly distributed orthogonal matrix from a seeded QR factorization."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # sign-fix makes the factorization unique, so the matrix is reproducible
    return q * np.sign(np.diag(r))


def rotated_ellipsoid(n: int, cond: float = 1e6, seed: int = 0) -> TestFunction:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    c = _ellipsoid_coeffs(n, cond)
    rot = random_rotation(n, seed)

    def f(x: np.ndarray) -> float:
        y = rot @ x
        return float(np.dot(c, y * y))

    return TestFunction("rotated_ellipsoid", n, f)


def rastrigin(n: int) -> TestFunction:
    if n < 1:
        raise ValueError("dimension must be >= 1")

    def f(x: np.ndarray) -> float:
        return float(10.0 * n + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))

    return TestFunction("rastrigin", n, f)

