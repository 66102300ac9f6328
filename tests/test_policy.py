import json

import numpy as np
import pytest

from evolin import (Box, Checkpoint, Discrete, LinearPolicy, ObsNormalizer,
                    act, genome_dim, load_checkpoint, save_checkpoint)


def two_pass_stats(rows: np.ndarray):
    n = len(rows)
    mean = rows.sum(axis=0) / n
    m2 = ((rows - mean) ** 2).sum(axis=0)
    return n, mean, m2


# --------------------------------------------------------------- action spaces

def test_genome_dim_counts_rows_times_columns() -> None:
    assert genome_dim(4, Discrete(2)) == 8
    assert genome_dim(6, Discrete(3)) == 18
    assert genome_dim(3, Box(np.array([-2.0]), np.array([2.0]))) == 3
    assert genome_dim(376, Box(-np.ones(17), np.ones(17))) == 6392


def test_action_space_validation() -> None:
    with pytest.raises(ValueError):
        Discrete(1)
    with pytest.raises(ValueError):
        Box(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Box(np.array([0.0]), np.array([float("inf")]))


def test_genome_layout_is_row_major_by_action() -> None:
    genome = np.arange(6.0)
    pol = LinearPolicy.from_genome(genome, 3, Discrete(2))
    np.testing.assert_array_equal(pol.weights[0], [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(pol.weights[1], [3.0, 4.0, 5.0])
    np.testing.assert_array_equal(pol.weights.ravel(), genome)


def test_genome_round_trip_is_exact() -> None:
    rng = np.random.default_rng(4)
    space = Box(np.array([-1.0, 0.0]), np.array([1.0, 3.0]))
    genome = rng.standard_normal(genome_dim(5, space))
    pol = LinearPolicy.from_genome(genome, 5, space)
    np.testing.assert_array_equal(pol.weights.ravel(), genome)


def test_from_genome_rejects_wrong_length() -> None:
    with pytest.raises(ValueError):
        LinearPolicy.from_genome(np.zeros(7), 3, Discrete(2))


# ----------------------------------------------------------------------- act

def untrained(dim: int) -> ObsNormalizer:
    return ObsNormalizer.create(dim)


def test_zero_weights_tie_goes_to_first_action() -> None:
    pol = LinearPolicy.from_genome(np.zeros(8), 4, Discrete(2))
    assert act(pol, untrained(4), np.array([0.3, -1.0, 2.0, 0.1])) == 0


def test_zero_weights_box_returns_midpoint() -> None:
    space = Box(np.array([-2.0, 0.0]), np.array([2.0, 10.0]))
    pol = LinearPolicy.from_genome(np.zeros(6), 3, space)
    out = act(pol, untrained(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(out, [0.0, 5.0])


def test_discrete_action_matches_argmax_oracle() -> None:
    rng = np.random.default_rng(88)
    norm = ObsNormalizer.create(5)
    for row in rng.standard_normal((50, 5)):
        norm.update(row)
    pol = LinearPolicy.from_genome(rng.standard_normal(15), 5, Discrete(3))
    for _ in range(100):
        obs = rng.standard_normal(5)
        logits = pol.weights @ norm.normalize(obs)
        assert act(pol, norm, obs) == int(np.argmax(logits))


def test_box_actions_stay_in_bounds() -> None:
    rng = np.random.default_rng(12)
    space = Box(np.array([-2.0, 1.0]), np.array([2.0, 4.0]))
    pol = LinearPolicy.from_genome(rng.standard_normal(8) * 10, 4, space)
    for _ in range(200):
        a = act(pol, untrained(4), rng.standard_normal(4) * 5)
        assert np.all(a >= space.low) and np.all(a <= space.high)


def test_act_rejects_bad_observations() -> None:
    pol = LinearPolicy.from_genome(np.zeros(8), 4, Discrete(2))
    with pytest.raises(ValueError):
        act(pol, untrained(4), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        act(pol, untrained(4), np.array([1.0, float("nan"), 0.0, 0.0]))


# ----------------------------------------------------------------- normalizer

def test_welford_matches_two_pass() -> None:
    rng = np.random.default_rng(2718)
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        length = int(rng.integers(2, 400))
        scale = 10.0 ** rng.integers(-3, 4)
        rows = rng.standard_normal((length, dim)) * scale + rng.standard_normal(dim)
        norm = ObsNormalizer.create(dim)
        for row in rows:
            norm.update(row)
        n, mean, m2 = two_pass_stats(rows)
        assert norm.count == n
        np.testing.assert_allclose(norm.mean, mean, rtol=1e-9, atol=1e-9 * scale)
        np.testing.assert_allclose(norm.m2, m2, rtol=1e-9, atol=1e-9 * scale**2)


def test_merge_equals_sequential() -> None:
    rng = np.random.default_rng(31415)
    for _ in range(60):
        dim = int(rng.integers(1, 6))
        total = int(rng.integers(2, 300))
        cut = int(rng.integers(1, total))
        rows = rng.standard_normal((total, dim)) * float(rng.uniform(0.1, 50))
        seq = ObsNormalizer.create(dim)
        for row in rows:
            seq.update(row)
        left = ObsNormalizer.create(dim)
        right = ObsNormalizer.create(dim)
        for row in rows[:cut]:
            left.update(row)
        for row in rows[cut:]:
            right.update(row)
        left.merge(right)
        assert left.count == seq.count
        np.testing.assert_allclose(left.mean, seq.mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(left.m2, seq.m2, rtol=1e-9, atol=1e-12)


def test_merge_with_empty_sides() -> None:
    a = ObsNormalizer.create(3)
    b = ObsNormalizer.create(3)
    b.update(np.array([1.0, 2.0, 3.0]))
    b.update(np.array([2.0, 3.0, 4.0]))
    a.merge(ObsNormalizer.create(3))
    assert a.count == 0
    a.merge(b)
    assert a.count == 2
    np.testing.assert_array_equal(a.mean, b.mean)
    b.merge(ObsNormalizer.create(3))
    assert b.count == 2


def test_normalize_is_identity_until_two_samples() -> None:
    norm = ObsNormalizer.create(2)
    obs = np.array([3.0, -4.0])
    np.testing.assert_array_equal(norm.normalize(obs), obs)
    norm.update(obs)
    np.testing.assert_array_equal(norm.normalize(obs), obs)  # count == 1
    norm.update(np.array([5.0, 0.0]))
    assert not np.array_equal(norm.normalize(obs), obs)


def test_constant_stream_hits_epsilon_floor() -> None:
    norm = ObsNormalizer.create(2)
    x = np.array([7.0, 7.0])
    for _ in range(10):
        norm.update(x)
    # zero variance: the floor sqrt(eps) keeps division finite, center at 0
    np.testing.assert_allclose(norm.normalize(x), [0.0, 0.0], atol=1e-12)
    out = norm.normalize(np.array([7.0 + 1e-4, 7.0]))
    assert np.isfinite(out).all() and out[0] > 0


def test_normalized_stream_recovers_unit_scale() -> None:
    rng = np.random.default_rng(99)
    rows = rng.standard_normal((5000, 3)) * np.array([10.0, 0.1, 3.0]) + 5.0
    norm = ObsNormalizer.create(3)
    for row in rows:
        norm.update(row)
    z = np.stack([norm.normalize(r) for r in rows])
    assert np.all(np.abs(z.mean(axis=0)) < 0.05)
    assert np.all(np.abs(z.std(axis=0) - 1.0) < 0.05)


def test_frozen_normalizer_rejects_updates() -> None:
    norm = ObsNormalizer.create(2)
    norm.update(np.array([1.0, 2.0]))
    frozen = norm.frozen_view()
    with pytest.raises(RuntimeError):
        frozen.update(np.array([1.0, 2.0]))
    with pytest.raises(RuntimeError):
        frozen.merge(norm)
    norm.update(np.array([3.0, 1.0]))  # original is unaffected
    assert norm.count == 2 and frozen.count == 1


def test_copy_is_value_isolated() -> None:
    norm = ObsNormalizer.create(2)
    norm.update(np.array([1.0, 1.0]))
    dup = norm.copy()
    dup.update(np.array([9.0, 9.0]))
    assert norm.count == 1 and dup.count == 2


def test_update_validates_shape() -> None:
    norm = ObsNormalizer.create(3)
    with pytest.raises(ValueError):
        norm.update(np.zeros(2))
    with pytest.raises(ValueError):
        norm.merge(ObsNormalizer.create(2))


# ----------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(6)
    norm = ObsNormalizer.create(4)
    for row in rng.standard_normal((20, 4)):
        norm.update(row)
    genome = rng.standard_normal(8)
    ckpt = Checkpoint("cartpole", genome, norm.frozen_view(),
                      generation=12, master_seed=31)
    path = tmp_path / "best.json"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.env_id == "cartpole"
    assert back.generation == 12 and back.master_seed == 31
    np.testing.assert_array_equal(back.genome, genome)
    assert back.policy().space == Discrete(2)
    assert back.normalizer.count == norm.count
    np.testing.assert_array_equal(back.normalizer.mean, norm.mean)
    np.testing.assert_array_equal(back.normalizer.m2, norm.m2)
    assert back.normalizer.frozen

    pol = back.policy()
    obs = rng.standard_normal(4)
    ref = LinearPolicy.from_genome(genome, 4, Discrete(2))
    assert act(pol, back.normalizer, obs) == act(ref, norm, obs)


def test_checkpoint_box_space_round_trip(tmp_path) -> None:
    space = Box(np.array([-2.0]), np.array([2.0]))
    ckpt = Checkpoint("pendulum", np.array([0.5, -1.0, 2.0]),
                      ObsNormalizer.create(3).frozen_view(), 0, 7)
    path = tmp_path / "p.json"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path).policy().space
    np.testing.assert_array_equal(back.low, space.low)
    np.testing.assert_array_equal(back.high, space.high)


def test_checkpoint_stores_no_shapes(tmp_path) -> None:
    # the env's spec owns the observation and action shapes
    ckpt = Checkpoint("cartpole", np.zeros(8), ObsNormalizer.create(4).frozen_view(),
                      3, 2**64 - 1)
    path = tmp_path / "c.json"
    save_checkpoint(path, ckpt)
    doc = json.loads(path.read_text())
    assert set(doc) == {"env_id", "genome", "normalizer", "generation", "master_seed"}
    assert load_checkpoint(path).master_seed == 2**64 - 1


def test_checkpoint_load_ignores_other_keys(tmp_path) -> None:
    # checkpoints written before the spec owned the shapes also hold
    # obs_dim and action_space
    norm = ObsNormalizer(3, np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, 0.5]))
    ckpt = Checkpoint("pendulum", np.array([0.5, -1.0, 2.0]), norm.frozen_view(), 4, 9)
    path = tmp_path / "c.json"
    save_checkpoint(path, ckpt)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "obs_dim": 99, "note": None,
                                "action_space": {"kind": "discrete", "n": 7}}))
    back = load_checkpoint(path)
    assert (back.env_id, back.generation, back.master_seed) == ("pendulum", 4, 9)
    assert back.genome.tobytes() == ckpt.genome.tobytes()
    assert back.normalizer.to_dict() == norm.to_dict()
    assert isinstance(back.policy().space, Box)
