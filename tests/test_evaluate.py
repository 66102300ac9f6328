import numpy as np
import pytest

from evolin import (CSA, FULL_CMA, FitnessSpec, LinearPolicy, ObsNormalizer,
                    Shaping, ask, env_spec, make_env, new_strategy,
                    read_curve_csv, rollout, shape_reward, train,
                    write_curve_csv)
from evolin import test_policy as run_test_protocol
from evolin.evaluate import (collect_generation, evaluate_candidate,
                             evaluate_generation, train_episode_seed)
from evolin.evaluate import test_episode_seed as probe_episode_seed
from evolin.policy import genome_dim


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


def test_drop_alive_bonus_zeroes_survival_returns() -> None:
    env = make_env("cartpole")
    res = rollout(env, zero_policy("cartpole"), ObsNormalizer.create(4), 3,
                  Shaping("drop_alive_bonus", 1.0))
    assert res.shaped_return == 0.0
    assert res.raw_return == res.timesteps


# -------------------------------------------------------------------- rollout

def test_zero_policy_pendulum_runs_full_episode() -> None:
    env = make_env("pendulum")
    res = rollout(env, zero_policy("pendulum"), ObsNormalizer.create(3), 0)
    assert res.timesteps == 200
    assert res.raw_return < 0.0


def test_acrobot_raw_return_is_minus_steps_when_unsolved() -> None:
    env = make_env("acrobot")
    res = rollout(env, zero_policy("acrobot"), ObsNormalizer.create(6), 1)
    assert res.raw_return == -res.timesteps == -500.0


def test_rollout_is_deterministic_given_seed() -> None:
    rng = np.random.default_rng(0)
    pol = LinearPolicy.from_genome(rng.standard_normal(8), 4,
                                   env_spec("cartpole").action_space)
    norm = ObsNormalizer.create(4)
    a = rollout(make_env("cartpole"), pol, norm, [7, 8], update_normalizer=True)
    b = rollout(make_env("cartpole"), pol, norm, [7, 8], update_normalizer=True)
    assert a.raw_return == b.raw_return and a.timesteps == b.timesteps
    np.testing.assert_array_equal(a.delta.mean, b.delta.mean)
    np.testing.assert_array_equal(a.delta.m2, b.delta.m2)


def test_rollout_delta_counts_acted_on_observations() -> None:
    norm = ObsNormalizer.create(4)
    res = rollout(make_env("cartpole"), zero_policy("cartpole"), norm, 5,
                  update_normalizer=True)
    assert res.delta.count == res.timesteps
    assert norm.count == 0  # the shared normalizer is never touched


def test_rollout_without_update_returns_no_delta() -> None:
    res = rollout(make_env("pendulum"), zero_policy("pendulum"),
                  ObsNormalizer.create(3), 0)
    assert res.delta is None


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
    assert a.fitness == b.fitness
    assert a.timesteps == b.timesteps


# -------------------------------------------------------- evaluate_generation

def warmed_normalizer() -> ObsNormalizer:
    norm = ObsNormalizer.create(4)
    rng = np.random.default_rng(5)
    for row in rng.standard_normal((40, 4)):
        norm.update(row)
    return norm


def evaluate_cartpole_generation():
    params, state = new_strategy(CSA, 8, 0.1, lam=8)
    cands = ask(params, state, 21)
    return evaluate_generation(cands, "cartpole", warmed_normalizer(),
                               FitnessSpec(), 0, 21)


def test_generation_timesteps_are_summed_exactly() -> None:
    result = evaluate_cartpole_generation()
    assert result.timesteps == result.delta.count
    assert len(result.fitnesses) == 8


def test_collect_generation_requires_complete_index_cover() -> None:
    result = evaluate_cartpole_generation()
    params, state = new_strategy(CSA, 8, 0.1, lam=8)
    cands = ask(params, state, 21)
    norm = warmed_normalizer()
    evals = [evaluate_candidate(c.x, c.index, "cartpole", norm, FitnessSpec(), 0, 21)
             for c in cands]
    shuffled = [evals[i] for i in (3, 1, 7, 0, 5, 2, 6, 4)]
    regrouped = collect_generation(shuffled, 4, 8)
    np.testing.assert_array_equal(regrouped.fitnesses, result.fitnesses)
    with pytest.raises(ValueError):
        collect_generation(evals[:-1], 4, 8)
    with pytest.raises(ValueError):
        collect_generation(evals + [evals[0]], 4, 8)


def test_multi_episode_fitness_is_mean_over_episodes() -> None:
    norm = ObsNormalizer.create(6)
    spec1 = FitnessSpec(train_episodes=1)
    spec3 = FitnessSpec(train_episodes=3)
    genome = np.zeros(18)
    singles = []
    for ep in range(3):
        env = make_env("acrobot")
        ep_seed = train_episode_seed(13, 0, 0, ep, True)
        singles.append(rollout(env, zero_policy("acrobot"), norm, ep_seed,
                               update_normalizer=True).shaped_return)
    combined = evaluate_candidate(genome, 0, "acrobot", norm, spec3, 0, 13)
    assert combined.fitness == sum(singles) / 3
    single = evaluate_candidate(genome, 0, "acrobot", norm, spec1, 0, 13)
    assert single.fitness == singles[0]


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


def test_train_rejects_unknown_inputs() -> None:
    with pytest.raises(ValueError):
        train("tictactoe", CSA, sigma0=0.1, lam=4, budget_timesteps=100, master_seed=0)
    with pytest.raises(ValueError):
        train("cartpole", "annealing", sigma0=0.1, lam=4, budget_timesteps=100,
              master_seed=0)


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
