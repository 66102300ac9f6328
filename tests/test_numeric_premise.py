"""The numeric premises that make batched rollouts and stacked sampling
bit-identical, and candidate draws equal to NumPy's seeded streams.

The rollout engine steps many episodes at once with numpy array operations.
Its curves equal those of an episode stepped alone, and those of the
scalar-float code the golden fixture was recorded from, only because each
operation it uses gives the same bits as the scalar operation it stands for,
whatever the array length.  A numpy, libm or BLAS upgrade that breaks one of
these fails here, by name, instead of silently moving a training curve.

A candidate's draw is the stream of ``default_rng([seed, 0, g, i])``, whose
seeding ``candidate_z`` ports.  A NumPy release that changes
``SeedSequence`` or PCG64 seeding fails here too.
"""

import math
import random
import sys
import threading

import numpy as np
import pytest

from evolin import es
from evolin.es import candidate_z, new_strategy, sample

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
    # sample and tell both map draws through es._sampling_map; a
    # stack of draws must give each row the bits of the 1-D product
    rng = np.random.default_rng(n)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    scale = np.sqrt(rng.uniform(1e-3, 1e3, n))
    params, state = new_strategy("cma", n, 1.0)
    state.eig_basis, state.eig_scale = basis, scale
    for lanes in (1, 2, 3, 10, 32, 33):
        z = rng.standard_normal((lanes, n))
        rows = np.stack([basis @ (scale * z[i]) for i in range(lanes)])
        assert es._sampling_map(params, state, z).tobytes() == rows.tobytes(), \
            f"{lanes} lanes"
        for i in range(lanes):
            assert es._sampling_map(params, state, z[i]).tobytes() == rows[i].tobytes()


def reference_z(seed: int, generation: int, index: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 0, generation, index]).standard_normal(n)


def unit_sample(seed: int, generation: int, indexes, n: int):
    """``sample``'s ``(Z, X)`` from a ``csa`` state at the origin with unit
    step size, whose ``X`` is its ``Z``."""
    params, state = new_strategy("csa", n, 1.0)
    state.g = generation
    return sample(params, state, seed, indexes)


SEEDS = (lambda r: 0, lambda r: 1, lambda r: r.randrange(2, 2**32),
         lambda r: r.randrange(2**32, 2**64), lambda r: 2**64 - 1)
COUNTERS = (lambda r: 0, lambda r: 2**32 - 1, lambda r: r.randrange(1, 2**32),
            lambda r: r.randrange(2**32, 2**64), lambda r: r.randrange(2**64, 2**80))


def test_candidate_z_equals_default_rng_stream() -> None:
    r = random.Random(20240211)
    for case in range(400):
        seed = r.choice(SEEDS)(r)
        g, i = r.choice(COUNTERS)(r), r.choice(COUNTERS)(r)
        n = r.choice((3, 8, 10, 18))
        want = reference_z(seed, g, i, n)
        assert candidate_z(seed, g, i, n).tobytes() == want.tobytes(), \
            f"case {case}: seed {seed}, generation {g}, index {i}, n {n}"


def test_sample_rows_equal_default_rng_streams() -> None:
    r = random.Random(20240212)
    for case in range(60):
        seed, g = r.choice(SEEDS)(r), r.choice(COUNTERS)(r)
        n = r.choice((3, 8, 10, 18))
        indexes = r.sample(range(40), r.randrange(1, 12))     # ragged, unordered
        if case % 3 == 0:
            indexes.append(r.choice(COUNTERS)(r))
        z, x = unit_sample(seed, g, indexes, n)
        want = np.stack([reference_z(seed, g, i, n) for i in indexes])
        assert z.tobytes() == want.tobytes() == x.tobytes(), \
            f"case {case}: seed {seed}, generation {g}, indexes {indexes}"
    # wide calls, up to rl_popsize's cap of 128 rows, each mixing indexes of
    # one, two and three 32-bit words; the seed and generation decide whether
    # three or more words are shared by all rows
    shapes = set()
    for case in range(60, 72):
        seed, g = r.choice(SEEDS)(r), r.choice(COUNTERS)(r)
        n = r.choice((3, 8, 10, 18))
        indexes = [r.randrange(2**32), r.randrange(2**32, 2**64), r.randrange(2**64, 2**96)]
        indexes += [r.choice(COUNTERS)(r) for _ in range(r.randrange(1, 126))]
        r.shuffle(indexes)
        z, x = unit_sample(seed, g, indexes, n)
        want = np.stack([reference_z(seed, g, i, n) for i in indexes])
        assert z.tobytes() == want.tobytes() == x.tobytes(), \
            f"case {case}: seed {seed}, generation {g}, {len(indexes)} indexes"
        shapes.add(seed < 2**32 and g < 2**32)
    assert shapes == {True, False}


def test_concurrent_samples_keep_their_streams() -> None:
    # in-process workers draw from threads; one thread's draw must never
    # load or consume another's generator state
    n, indexes = 10, range(12)
    runs = {key: np.stack([reference_z(*key, i, n) for i in indexes]).tobytes()
            for key in ((7, 3), (2**40 + 1, 2**33), (2**64 - 1, 0))}
    start = threading.Barrier(len(runs), timeout=60)
    wrong = []

    def draw(seed, g):
        start.wait()
        for _ in range(300):
            z, _ = unit_sample(seed, g, indexes, n)
            if z.tobytes() != runs[seed, g]:
                wrong.append((seed, g))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=key) for key in runs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong, f"{len(wrong)} of {len(runs) * 300} concurrent samples differ"


def test_setter_fallback_keeps_the_streams(monkeypatch) -> None:
    # a thread's generator takes states through a view of NumPy's PCG64
    # struct only where a probe, run when the generator is made, finds the
    # layout it expects; elsewhere, as on a big-endian host, the public
    # ``state`` setter loads the same states
    if sys.byteorder == "little":
        assert isinstance(es._thread_generator()[0], memoryview)
    r = random.Random(20240211)
    cases = []
    for _ in range(40):
        seed = r.choice(SEEDS)(r)
        g, i = r.choice(COUNTERS)(r), r.choice(COUNTERS)(r)
        cases.append((seed, g, i, r.choice((3, 8, 10, 18))))
    key, indexes = (2**40 + 1, 2**33), range(12)
    got = {}

    def draw():
        got["writer"] = es._thread_generator()[0]
        got["z"] = [candidate_z(*case) for case in cases]
        got["sample"], _ = unit_sample(*key, indexes, 10)

    monkeypatch.setattr(sys, "byteorder", "big")
    thread = threading.Thread(target=draw)
    thread.start()
    thread.join(timeout=60)
    monkeypatch.undo()
    assert not thread.is_alive()
    assert isinstance(got["writer"], es._StateSetter)
    for case, z in zip(cases, got["z"], strict=True):
        assert z.tobytes() == reference_z(*case).tobytes(), f"case {case}"
    want = np.stack([reference_z(*key, i, 10) for i in indexes])
    assert got["sample"].tobytes() == want.tobytes()


# the elementwise ufuncs of a rollout step, which takes its constants as 0-d
# arrays and its normalizer and box bounds tiled to the lanes
STEP_UFUNCS = (np.add, np.subtract, np.multiply, np.divide, np.maximum, np.minimum,
               np.greater, np.less, np.greater_equal, np.less_equal)


@pytest.mark.parametrize("ufunc", STEP_UFUNCS, ids=lambda u: u.__name__)
def test_zero_d_operand_matches_python_float(values, ufunc) -> None:
    for c in (0.02, 4.0 / 3.0, -math.pi, 9.8, *values[:4].tolist()):
        zero_d = np.array(c)
        for length in LENGTHS:
            x = values[length:2 * length]
            assert ufunc(x, zero_d).tobytes() == ufunc(x, c).tobytes(), \
                f"{ufunc.__name__}(x, {c!r}) differs at length {length}"
            assert ufunc(zero_d, x).tobytes() == ufunc(c, x).tobytes(), \
                f"{ufunc.__name__}({c!r}, x) differs at length {length}"


@pytest.mark.parametrize("ufunc", STEP_UFUNCS, ids=lambda u: u.__name__)
def test_tiled_operand_matches_broadcast_row(values, ufunc) -> None:
    for d in (1, 3, 4, 6):
        row = values[-d:]
        for length in LENGTHS:
            x = values[:length * d].reshape(length, d)
            tiled = np.tile(row, (length, 1))
            assert ufunc(x, tiled).tobytes() == ufunc(x, row).tobytes(), \
                f"{ufunc.__name__} differs at ({length}, {d})"
            assert ufunc(tiled, x).tobytes() == ufunc(row, x).tobytes(), \
                f"{ufunc.__name__} differs at ({length}, {d}), row first"
