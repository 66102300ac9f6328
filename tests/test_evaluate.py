import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from evolin import (CSA, ENV_IDS, FULL_CMA, SEP_CMA, Batch, FitnessSpec,
                    LinearPolicy, ObsNormalizer, Scores,
                    Shaping, ask, env_spec, make_env, new_strategy,
                    read_curve_csv, rollout, shape_reward, train,
                    write_curve_csv)
from evolin import test_policy as run_test_protocol
from evolin import evaluate
from evolin.envs import CartPole, Pendulum
from evolin.evaluate import (RunSpec, collect_generation, evaluate_candidate,
                             evaluate_generation, run_episodes,
                             train_episode_seed)
from evolin.evaluate import test_episode_seed as probe_episode_seed
from evolin.policy import Discrete, ProtocolError, act, act_batch, genome_dim


def zero_policy(env_id: str) -> LinearPolicy:
    spec = env_spec(env_id)
    dim = genome_dim(spec.obs_dim, spec.action_space)
    return LinearPolicy.from_genome(np.zeros(dim), spec.obs_dim, spec.action_space)


# -------------------------------------------------------------------- shaping

def test_shaping_modes() -> None:
    assert shape_reward(1.0, Shaping()) == 1.0
    assert shape_reward(1.0, Shaping("drop_alive_bonus", 1.0)) == 0.0
    assert shape_reward(-2.0, Shaping("drop_alive_bonus", 0.5)) == -2.5
    with pytest.raises(ValueError):
        Shaping("raise_alive_bonus")


def test_fitness_spec_from_dict_round_trips_and_refuses_other_keys() -> None:
    spec = FitnessSpec(train_episodes=3, shaping=Shaping("drop_alive_bonus", 0.5),
                       common_random_numbers=False)
    assert FitnessSpec.from_dict(spec.to_dict()) == spec
    # a key the reader would ignore, or one it lacks, is refused by name
    with pytest.raises(ProtocolError, match="fitness_spec.test_episodes "):
        FitnessSpec.from_dict({**spec.to_dict(), "test_episodes": 5})
    with pytest.raises(ProtocolError, match="fitness_spec.shaping.bonus "):
        FitnessSpec.from_dict({**spec.to_dict(), "shaping": {"mode": "identity"}})


def test_drop_alive_bonus_zeroes_survival_returns() -> None:
    env = make_env("cartpole")
    res = rollout(env, zero_policy("cartpole"), ObsNormalizer.create(4), 3,
                  Shaping("drop_alive_bonus", 1.0))
    assert res.shaped[0] == 0.0
    assert res.raw[0] == res.count[0]


# -------------------------------------------------------------------- rollout

def test_zero_policy_pendulum_runs_full_episode() -> None:
    env = make_env("pendulum")
    res = rollout(env, zero_policy("pendulum"), ObsNormalizer.create(3), 0)
    assert res.count[0] == 200
    assert res.raw[0] < 0.0


def test_acrobot_raw_return_is_minus_steps_when_unsolved() -> None:
    env = make_env("acrobot")
    res = rollout(env, zero_policy("acrobot"), ObsNormalizer.create(6), 1)
    assert res.raw[0] == -res.count[0] == -500.0


def test_rollout_is_deterministic_given_seed() -> None:
    rng = np.random.default_rng(0)
    pol = LinearPolicy.from_genome(rng.standard_normal(8), 4,
                                   env_spec("cartpole").action_space)
    norm = ObsNormalizer.create(4)
    a = rollout(make_env("cartpole"), pol, norm, [7, 8])
    b = rollout(make_env("cartpole"), pol, norm, [7, 8])
    assert a.raw[0] == b.raw[0] and a.count[0] == b.count[0]
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.m2, b.m2)


def test_rollout_delta_counts_acted_on_observations() -> None:
    norm = ObsNormalizer.create(4)
    env = make_env("cartpole")
    res = rollout(env, zero_policy("cartpole"), norm, 5)
    assert norm.count == 0  # the shared normalizer is never touched
    # the moments cover the count observations the policy acted on: the
    # reset one and each non-final step's
    seen = ObsNormalizer.create(4)
    obs = env.reset(5)
    for t in range(res.count[0]):
        seen.update(obs)
        obs = env.step(0).obs
    assert res.delta(0).count == seen.count == res.count[0]
    assert res.mean[0].tobytes() == seen.mean.tobytes()
    assert res.m2[0].tobytes() == seen.m2.tobytes()


# ------------------------------------------ returns scored after the loop

def stepped_returns(env, weights, normalizer, seed, shaping):
    """One episode through ``env.step``, its raw and shaped rewards summed
    from 0.0 step by step, and its length."""
    space = env.spec.action_space
    shift, scale = normalizer.affine()
    obs = env.reset(seed)
    raw = shaped = 0.0
    steps = 0
    while True:
        action = act_batch(weights[None], space, ((obs - shift) / scale)[None])[0]
        res = env.step(int(action) if isinstance(space, Discrete) else action)
        raw += res.reward
        shaped += shape_reward(res.reward, shaping)
        steps += 1
        if res.terminated or res.truncated:
            return raw, shaped, steps
        obs = res.obs


@pytest.mark.parametrize("shaping", [Shaping(), Shaping("drop_alive_bonus", 1.0)],
                         ids=["identity", "drop_alive_bonus"])
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_batched_returns_equal_stepped_sums(env_id, shaping) -> None:
    env = make_env(env_id)
    spec = env.spec
    rng = np.random.default_rng(3)
    weights = rng.standard_normal((4, spec.action_space.act_dim, spec.obs_dim))
    norm = ObsNormalizer(10, 0.1 * rng.standard_normal(spec.obs_dim),
                         rng.uniform(5.0, 15.0, spec.obs_dim))
    seeds = [[7, 1, 0, lane] for lane in range(4)]
    scores = run_episodes(env, weights, norm, seeds, shaping)
    for lane, seed in enumerate(seeds):
        raw, shaped, steps = stepped_returns(make_env(env_id), weights[lane], norm,
                                             seed, shaping)
        assert scores.count[lane] == steps
        assert scores.raw[lane].hex() == raw.hex()
        assert scores.shaped[lane].hex() == shaped.hex()


class _UprightPendulum(Pendulum):
    """Starts at upright rest, where zero torque keeps it and costs nothing."""

    def initial_state(self, rng):
        return np.zeros(2)


def test_all_minus_zero_rewards_return_plus_zero() -> None:
    env = _UprightPendulum()
    env.reset(0)
    assert math.copysign(1.0, env.step([0.0]).reward) == -1.0
    # zero weights act 0.0: low + (tanh(0) + 1) * 0.5 * (high - low)
    scores = run_episodes(env, np.zeros((1, 1, 3)), ObsNormalizer.create(3), [0])
    assert scores.count[0] == 200
    assert math.copysign(1.0, scores.raw[0]) == math.copysign(1.0, scores.shaped[0]) == 1.0
    raw, shaped, _ = stepped_returns(env, np.zeros((1, 3)), ObsNormalizer.create(3),
                                     0, Shaping())
    assert scores.raw[0].hex() == raw.hex() and scores.shaped[0].hex() == shaped.hex()


def test_equal_seeds_share_a_start_but_a_generator_draws_twice() -> None:
    env = make_env("pendulum")
    weights, norm = np.zeros((2, 1, 3)), ObsNormalizer.create(3)
    same = run_episodes(env, weights, norm, [[4, 1, 0, 0], [4, 1, 0, 0]])
    assert same.raw[0].hex() == same.raw[1].hex()
    rng = np.random.default_rng(5)
    drawn = run_episodes(env, weights, norm, [rng, rng])
    assert drawn.raw[0] != drawn.raw[1]


def balancing_and_falling_cartpole_lanes() -> np.ndarray:
    """Lanes 0-2 balance for 500 steps; lane 3's zero weights always push
    left, so it falls near step 10."""
    weights = np.zeros((4, 2, 4))
    weights[:3, 1] = [[0.1, 0.5, 10.0, 2.0], [0.05, 0.3, 8.0, 1.5],
                      [0.2, 0.6, 12.0, 2.5]]
    return weights


def assert_same_row(a, row_a, b, row_b) -> None:
    for name in ("raw", "shaped", "count", "mean", "m2"):
        assert getattr(a, name)[row_a].tobytes() == getattr(b, name)[row_b].tobytes(), name


def test_mixed_length_batch_rows_equal_their_batches_of_one() -> None:
    env = make_env("cartpole")
    weights = balancing_and_falling_cartpole_lanes()
    seeds = [[0, 1, 0, lane] for lane in range(4)]
    norm = ObsNormalizer.create(4)
    batch = run_episodes(env, weights, norm, seeds)
    assert batch.count[:3].tolist() == [500, 500, 500]
    assert 5 <= batch.count[3] <= 20
    for lane in range(4):
        alone = run_episodes(env, weights[lane:lane + 1], norm, seeds[lane:lane + 1])
        assert_same_row(batch, lane, alone, 0)


class _DriftingCartPole(CartPole):
    """Past its limits, which a lane only is after its episode ended, the
    state turns to NaN."""

    def transition(self, state, actions, out):
        terminated = super().transition(state, actions, out)
        past = (np.abs(state[0]) > self.X_LIMIT) | (np.abs(state[2]) > self.THETA_LIMIT)
        out[:, past] = np.nan
        return terminated


def test_finished_lanes_are_not_checked_and_reach_no_result() -> None:
    weights = balancing_and_falling_cartpole_lanes()
    seeds = [[0, 1, 0, lane] for lane in range(4)]
    norm = ObsNormalizer.create(4)
    drifting = run_episodes(_DriftingCartPole(), weights, norm, seeds)
    plain = run_episodes(make_env("cartpole"), weights, norm, seeds)
    for lane in range(4):
        assert_same_row(drifting, lane, plain, lane)


class _PlacedCartPole(CartPole):
    """Starts its episodes from ``starts``, one per ``initial_state`` call."""

    def __init__(self, starts):
        super().__init__()
        self._starts = iter(starts)

    def initial_state(self, rng):
        return np.array(next(self._starts), dtype=float)


# under the balancing policy, these end at steps 1, 7, 8, 9 and 17 (the cart
# runs off the track) and 500 (truncated)
PLACED_STARTS = [[2.399, 1.0, 0.0, 0.0], [2.3, 0.6, 0.0, 0.0], [2.3, 0.55, 0.0, 0.0],
                 [2.3, 0.5, 0.0, 0.0], [2.0, 1.1, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]


def stepped_episode(env, policy, normalizer, shaping):
    """One episode through ``env.step`` and ``act``: the raw and shaped
    returns summed from 0.0 step by step, and the moments of the
    observations acted on through ``ObsNormalizer.update``."""
    seen = ObsNormalizer.create(env.spec.obs_dim)
    obs = env.reset(0)
    raw = shaped = 0.0
    while True:
        seen.update(obs)
        res = env.step(act(policy, normalizer, obs))
        raw += res.reward
        shaped += shape_reward(res.reward, shaping)
        if res.terminated or res.truncated:
            return raw, shaped, seen
        obs = res.obs


def test_lanes_ending_around_termination_blocks_match_stepped_episodes() -> None:
    assert evaluate.TERMINATION_BLOCK == 8
    policy = LinearPolicy(balancing_and_falling_cartpole_lanes()[0], Discrete(2), 4)
    lanes = len(PLACED_STARTS)
    weights = np.repeat(policy.weights[None], lanes, axis=0)
    norm = ObsNormalizer.create(4)
    shaping = Shaping("drop_alive_bonus", 1.0)
    seeds = list(range(lanes))
    batch = run_episodes(_PlacedCartPole(PLACED_STARTS), weights, norm, seeds, shaping)
    assert batch.count.tolist() == [1, 7, 8, 9, 17, 500]
    for lane, start in enumerate(PLACED_STARTS):
        alone = run_episodes(_PlacedCartPole([start]), weights[:1], norm, [0], shaping)
        assert_same_row(batch, lane, alone, 0)
        raw, shaped, seen = stepped_episode(_PlacedCartPole([start]), policy, norm,
                                            shaping)
        assert batch.raw[lane].hex() == raw.hex()
        assert batch.shaped[lane].hex() == shaped.hex()
        assert batch.count[lane] == seen.count
        assert batch.mean[lane].tobytes() == seen.mean.tobytes()
        assert batch.m2[lane].tobytes() == seen.m2.tobytes()


class _SpoiledCartPole(CartPole):
    """Lane ``lane``'s next velocities turn to ``value`` at step ``step``,
    which no limit test flags."""

    def __init__(self, lane, step, value):
        super().__init__()
        self.lane, self.step_at, self.value, self.steps = lane, step, value, 0

    def transition(self, state, actions, out):
        super().transition(state, actions, out)
        self.steps += 1
        if self.steps == self.step_at:
            out[[1, 3], self.lane] = self.value


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_state_in_a_running_lane_mid_block_raises_without_warnings(
        value) -> None:
    weights = balancing_and_falling_cartpole_lanes()
    seeds = [[0, 1, 0, lane] for lane in range(4)]
    # lane 1 balances; its state spoils at step 11, inside the second block
    env = _SpoiledCartPole(1, 11, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="observation must be finite"):
            run_episodes(env, weights, ObsNormalizer.create(4), seeds)


def test_nan_torque_raises_without_warnings() -> None:
    weights = np.zeros((3, 1, 3))
    weights[1, 0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="action must be finite"):
            run_episodes(make_env("pendulum"), weights, ObsNormalizer.create(3),
                         [[0, 1, 0, lane] for lane in range(3)])


# ------------------------------------------------------------ episode seeding

def test_common_random_numbers_share_episodes_across_candidates() -> None:
    assert train_episode_seed(9, 4, 0, 0, True) == train_episode_seed(9, 4, 3, 0, True)
    assert train_episode_seed(9, 4, 0, 0, False) != train_episode_seed(9, 4, 3, 0, False)
    assert train_episode_seed(9, 4, 0, 0, True) != train_episode_seed(9, 5, 0, 0, True)
    assert probe_episode_seed(9, 4, 0) != train_episode_seed(9, 4, 0, 0, True)
    assert probe_episode_seed(9, 4, 0) != probe_episode_seed(9, 4, 1)


def test_identical_genomes_get_identical_fitness_under_crn() -> None:
    spec = FitnessSpec(common_random_numbers=True)
    norm = ObsNormalizer.create(4)
    genome = np.full(8, 0.1)
    a = evaluate_candidate(genome, 0, "cartpole", norm, spec, 2, 11)
    b = evaluate_candidate(genome.copy(), 7, "cartpole", norm, spec, 2, 11)
    assert a.shaped[0] == b.shaped[0]
    assert a.count[0] == b.count[0]


# -------------------------------------------------------- evaluate_generation

def warmed_normalizer() -> ObsNormalizer:
    norm = ObsNormalizer.create(4)
    rng = np.random.default_rng(5)
    for row in rng.standard_normal((40, 4)):
        norm.update(row)
    return norm


def cartpole_batch(sigma0=0.1, lam=8, fitness_spec=FitnessSpec()) -> Batch:
    """Generation 0 of a cartpole run with master seed 21, as ``train``
    hands it out, with a warmed normalizer."""
    params, state = new_strategy(CSA, 8, sigma0, lam=lam)
    x = np.array([c.x for c in ask(params, state, 21)])
    return Batch("cartpole", 21, 0, range(lam), x, state.m, warmed_normalizer(),
                 fitness_spec)


def evaluate_cartpole_generation():
    return evaluate_generation(cartpole_batch())


def test_generation_timesteps_are_summed_exactly() -> None:
    result = evaluate_cartpole_generation()
    params, state = new_strategy(CSA, 8, 0.1, lam=8)
    norm = warmed_normalizer()
    counts = [evaluate_candidate(c.x, c.index, "cartpole", norm, FitnessSpec(),
                                 0, 21).count[0] for c in ask(params, state, 21)]
    assert result.moments().count == sum(counts)
    assert len(result.shaped) == 8


def test_collect_generation_requires_complete_index_cover() -> None:
    result = evaluate_cartpole_generation()
    params, state = new_strategy(CSA, 8, 0.1, lam=8)
    cands = ask(params, state, 21)
    norm = warmed_normalizer()
    evals = [([c.index], evaluate_candidate(c.x, c.index, "cartpole", norm,
                                            FitnessSpec(), 0, 21))
             for c in cands]
    shuffled = [evals[i] for i in (3, 1, 7, 0, 5, 2, 6, 4)]
    regrouped = collect_generation(shuffled, 8)
    np.testing.assert_array_equal(regrouped.shaped, result.shaped)
    assert regrouped.moments().to_dict() == result.moments().to_dict()
    with pytest.raises(ValueError):
        collect_generation(evals[:-1], 8)
    with pytest.raises(ValueError):
        collect_generation(evals + [evals[0]], 8)


def test_collect_generation_refuses_interleaved_or_ragged_parts() -> None:
    # parts are contiguous ranges with one row per index
    rows = Scores.zeros(2, 4)
    with pytest.raises(ValueError):
        collect_generation([([0, 2], rows), ([1, 3], rows)], 4)
    with pytest.raises(ValueError):
        collect_generation([(range(0, 2), rows), (range(2, 3), rows)], 3)


def test_three_episode_generation_delta_equals_merge_folds() -> None:
    batch = cartpole_batch(0.5, 6, FitnessSpec(train_episodes=3))
    norm = batch.normalizer
    result = evaluate_generation(batch)
    want = ObsNormalizer.create(4)
    counts = set()
    for index, x in zip(batch.indexes, batch.x):
        policy = LinearPolicy.from_genome(x, 4, Discrete(2))
        candidate = ObsNormalizer.create(4)
        for ep in range(3):
            seed = train_episode_seed(21, 0, index, ep, True)
            lane = rollout(make_env("cartpole"), policy, norm, seed)
            counts.add(int(lane.count[0]))
            candidate.merge(lane.delta(0))
        want.merge(candidate)
    assert len(counts) > 1
    moments = result.moments()
    assert moments.count == want.count
    assert moments.mean.tobytes() == want.mean.tobytes()
    assert moments.m2.tobytes() == want.m2.tobytes()


def test_multi_episode_fitness_is_mean_over_episodes() -> None:
    norm = ObsNormalizer.create(6)
    spec1 = FitnessSpec(train_episodes=1)
    spec3 = FitnessSpec(train_episodes=3)
    genome = np.zeros(18)
    singles = []
    for ep in range(3):
        env = make_env("acrobot")
        ep_seed = train_episode_seed(13, 0, 0, ep, True)
        singles.append(rollout(env, zero_policy("acrobot"), norm, ep_seed).shaped[0])
    combined = evaluate_candidate(genome, 0, "acrobot", norm, spec3, 0, 13)
    assert combined.shaped[0] == sum(singles) / 3
    single = evaluate_candidate(genome, 0, "acrobot", norm, spec1, 0, 13)
    assert single.shaped[0] == singles[0]


# ---------------------------------------------------------------- test_policy

def test_test_policy_reports_median_of_five() -> None:
    norm = ObsNormalizer.create(3)
    median, returns = run_test_protocol(zero_policy("pendulum"), norm, "pendulum",
                                        master_seed=3, generation=0)
    assert len(returns) == 5
    assert median == sorted(returns)[2]
    again, returns2 = run_test_protocol(zero_policy("pendulum"), norm, "pendulum",
                                        master_seed=3, generation=0)
    assert again == median and returns2 == returns


@pytest.mark.parametrize("episodes", [0, -2])
def test_test_policy_rejects_no_episodes_before_any_rollout(monkeypatch, episodes) -> None:
    def no_rollouts(*args, **kwargs):
        raise AssertionError("no episode may run")

    monkeypatch.setattr(evaluate, "run_episodes", no_rollouts)
    with pytest.raises(ValueError, match="at least one episode"):
        run_test_protocol(zero_policy("pendulum"), ObsNormalizer.create(3),
                          "pendulum", master_seed=3, generation=0, episodes=episodes)


# ---------------------------------------------------------------------- train

def test_train_smoke_produces_monotone_records() -> None:
    result = train("cartpole", CSA, sigma0=0.1, lam=4, budget_timesteps=3000,
                   master_seed=1)
    assert result.status in ("budget_exhausted", "target_reached")
    assert result.records, "training must log at least one generation"
    gens = [r.generation for r in result.records]
    assert gens == sorted(gens)
    steps = [r.cumulative_timesteps for r in result.records]
    assert steps == sorted(steps)
    assert all(s > 0 for s in steps)
    assert result.cumulative_timesteps >= 3000 or result.status == "target_reached"
    assert all(len(r.test_returns) == 5 for r in result.records)
    assert result.best is not None
    assert result.best.normalizer.frozen
    best_median = max(r.median_test_return for r in result.records)
    assert any(r.median_test_return == best_median and r.generation == result.best.generation
               for r in result.records)


def test_train_is_reproducible() -> None:
    a = train("cartpole", FULL_CMA, sigma0=0.1, lam=4, budget_timesteps=2000,
              master_seed=42)
    b = train("cartpole", FULL_CMA, sigma0=0.1, lam=4, budget_timesteps=2000,
              master_seed=42)
    assert [(r.generation, r.cumulative_timesteps, r.median_test_return,
             r.best_train_fitness, r.sigma) for r in a.records] == \
           [(r.generation, r.cumulative_timesteps, r.median_test_return,
             r.best_train_fitness, r.sigma) for r in b.records]
    np.testing.assert_array_equal(a.best.genome, b.best.genome)


def test_train_target_stops_early() -> None:
    result = train("cartpole", CSA, sigma0=0.1, lam=4, budget_timesteps=10_000,
                   master_seed=5, target_return=500.0)
    assert result.status == "target_reached"
    assert result.records[-1].median_test_return >= 500.0


def test_train_respects_max_generations() -> None:
    result = train("cartpole", CSA, sigma0=0.1, lam=4,
                   budget_timesteps=10**9, master_seed=2, max_generations=7)
    assert len(result.records) == 7
    assert result.state.g == 7


def test_train_test_every_skips_probes() -> None:
    result = train("cartpole", CSA, sigma0=0.1, lam=4, budget_timesteps=4000,
                   master_seed=2, test_every=3)
    assert all(r.generation % 3 == 0 for r in result.records)


@pytest.mark.parametrize("test_every", [0, -2])
def test_train_rejects_test_every_below_one_before_any_rollout(monkeypatch, test_every) -> None:
    def no_rollouts(*args, **kwargs):
        raise AssertionError("no episode may run")

    monkeypatch.setattr(evaluate, "run_episodes", no_rollouts)
    with pytest.raises(ValueError, match="test_every"):
        train("cartpole", CSA, sigma0=0.1, lam=4, budget_timesteps=1000,
              master_seed=0, test_every=test_every)


# settings the loop once took as they came: it trained on them or died
# inside its first generation
@pytest.mark.parametrize("bad", [
    pytest.param({"budget_timesteps": -1}, id="budget-negative"),
    pytest.param({"budget_timesteps": 0}, id="budget-zero"),
    pytest.param({"budget_timesteps": 300.5}, id="budget-fractional"),
    pytest.param({"budget_timesteps": "300"}, id="budget-string"),
    pytest.param({"max_generations": -1}, id="max-generations-negative"),
    pytest.param({"max_generations": 1.5}, id="max-generations-fractional"),
    pytest.param({"test_every": 2.5}, id="test-every-fractional"),
    pytest.param({"test_every": True}, id="test-every-bool"),
    pytest.param({"test_every": 0}, id="test-every-zero"),
    pytest.param({"target_return": math.nan}, id="target-nan"),
    pytest.param({"sigma0": True}, id="sigma0-bool"),
    pytest.param({"fitness_spec": {"train_episodes": 1}}, id="fitness-spec-dict"),
])
def test_train_refuses_a_bad_setting_by_name_before_any_generation(monkeypatch, bad) -> None:
    def no_generation(*args, **kwargs):
        raise AssertionError("no generation may start")

    monkeypatch.setattr(evaluate, "run_episodes", no_generation)
    settings = {"sigma0": 0.1, "lam": 4, "budget_timesteps": 300, "master_seed": 0, **bad}
    with pytest.raises(ValueError, match=f"^{next(iter(bad))} "):
        train("cartpole", CSA, on_generation=no_generation, **settings)


@pytest.mark.parametrize("variant", [SEP_CMA, FULL_CMA])
def test_degenerate_covariance_factors_end_the_run_as_degenerate(monkeypatch, variant) -> None:
    # tell hands back non-finite covariance factors, so the next ask raises
    # NumericalDegeneracyError outside tell
    real_tell = evaluate.tell

    def poisoned_tell(*args, **kwargs):
        new = real_tell(*args, **kwargs)
        if new.c_diag is not None:
            new.c_diag = np.full_like(new.c_diag, np.inf)
        else:
            new.eig_scale = np.full_like(new.eig_scale, np.inf)
        return new

    monkeypatch.setattr(evaluate, "tell", poisoned_tell)
    result = train("cartpole", variant, sigma0=0.1, lam=4, budget_timesteps=10**9,
                   master_seed=1, max_generations=5)
    assert result.status == "degenerate"
    assert [r.generation for r in result.records] == [0]
    assert result.state.g == 1


@pytest.mark.parametrize("bad", [{"test_every": 0}, {"env_id": "walker"},
                                 {"variant": "bfgs"}, {"sigma0": -1.0},
                                 {"lam": 1}, {"master_seed": -1}],
                         ids=lambda bad: next(iter(bad)))
def test_train_rejects_unknown_inputs(bad) -> None:
    # what train_distributed refuses before it waits for workers
    valid = {"env_id": "cartpole", "variant": CSA, "sigma0": 0.1, "lam": 4,
             "budget_timesteps": 100, "master_seed": 0}
    kw = {**valid, **bad}
    with pytest.raises(ValueError):
        RunSpec(**kw)
    with pytest.raises(ValueError):
        replace(RunSpec(**valid), **bad)
    with pytest.raises(ValueError):
        train(kw.pop("env_id"), kw.pop("variant"), **kw)


# ------------------------------------------------------------------ curve CSV

def test_curve_csv_round_trip_is_exact(tmp_path) -> None:
    result = train("cartpole", CSA, sigma0=0.1, lam=4, budget_timesteps=2500,
                   master_seed=9)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, result.records)
    back = read_curve_csv(path)
    assert len(back) == len(result.records)
    for a, b in zip(result.records, back):
        assert a.generation == b.generation
        assert a.cumulative_timesteps == b.cumulative_timesteps
        assert a.median_test_return == b.median_test_return
        assert a.test_returns == b.test_returns
        assert a.best_train_fitness == b.best_train_fitness
        assert a.sigma == b.sigma
    # writing the parsed records again reproduces the bytes
    path2 = tmp_path / "curve2.csv"
    write_curve_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_curve_csv_rejects_foreign_files(tmp_path) -> None:
    path = tmp_path / "notacurve.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_curve_csv(path)
