import math
import os
import threading

import numpy as np
import pytest

from evolin import env_spec, make_env
from evolin.envs import _wrapper
from evolin.policy import Box, Discrete

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_trajectory(env_id: str):
    path = os.path.join(FIXTURES, f"{env_id}_trajectory.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    obs_cols = [i for i, name in enumerate(header) if name.startswith("obs")]
    out = []
    for cells in rows:
        out.append({
            "action": float(cells[1]),
            "obs": np.array([float(cells[i]) for i in obs_cols]),
            "reward": float(cells[obs_cols[-1] + 1]),
            "terminated": cells[-2] == "1",
            "truncated": cells[-1] == "1",
        })
    return out


# ------------------------------------------------------------------- registry

def test_registry_exposes_three_tasks() -> None:
    cp = env_spec("cartpole")
    assert cp.obs_dim == 4 and cp.action_space == Discrete(2)
    assert cp.max_episode_steps == 500 and cp.solved_threshold == 475.0
    ab = env_spec("acrobot")
    assert ab.obs_dim == 6 and ab.action_space == Discrete(3)
    assert ab.max_episode_steps == 500 and ab.solved_threshold == -100.0
    pd = env_spec("pendulum")
    assert pd.obs_dim == 3 and isinstance(pd.action_space, Box)
    np.testing.assert_array_equal(pd.action_space.low, [-2.0])
    np.testing.assert_array_equal(pd.action_space.high, [2.0])
    assert pd.max_episode_steps == 200
    with pytest.raises(ValueError):
        env_spec("mountain_car")
    with pytest.raises(ValueError):
        make_env("mujoco_humanoid")


# ----------------------------------------------------------------- reset/step

@pytest.mark.parametrize("env_id", ["cartpole", "acrobot", "pendulum"])
def test_reset_is_seed_deterministic(env_id) -> None:
    a = make_env(env_id).reset(777)
    b = make_env(env_id).reset(777)
    np.testing.assert_array_equal(a, b)
    c = make_env(env_id).reset(778)
    assert not np.array_equal(a, c)


def test_cartpole_reset_bounds() -> None:
    for seed in range(30):
        obs = make_env("cartpole").reset(seed)
        assert obs.shape == (4,)
        assert np.all(np.abs(obs) <= 0.05)


def test_acrobot_reset_bounds() -> None:
    for seed in range(30):
        obs = make_env("acrobot").reset(seed)
        assert obs.shape == (6,)
        assert obs[0] >= math.cos(0.1) and obs[2] >= math.cos(0.1)
        assert abs(obs[1]) <= math.sin(0.1) + 1e-12
        assert abs(obs[3]) <= math.sin(0.1) + 1e-12
        assert abs(obs[4]) <= 0.1 and abs(obs[5]) <= 0.1


def test_pendulum_reset_bounds() -> None:
    for seed in range(30):
        obs = make_env("pendulum").reset(seed)
        assert obs.shape == (3,)
        assert abs(obs[0]) <= 1.0 and abs(obs[1]) <= 1.0
        assert abs(obs[2]) <= 1.0  # initial angular velocity range


@pytest.mark.parametrize("env_id,action", [("cartpole", 0), ("acrobot", 1),
                                           ("pendulum", [0.0])])
def test_step_before_reset_and_after_done_raise(env_id, action) -> None:
    env = make_env(env_id)
    with pytest.raises(RuntimeError):
        env.step(action)
    env.reset(0)
    while True:
        res = env.step(action)
        if res.terminated or res.truncated:
            break
    with pytest.raises(RuntimeError):
        env.step(action)


def test_discrete_envs_reject_bad_actions() -> None:
    env = make_env("cartpole")
    env.reset(0)
    with pytest.raises(ValueError):
        env.step(2)
    with pytest.raises(ValueError):
        env.step(-1)
    env2 = make_env("pendulum")
    env2.reset(0)
    with pytest.raises(ValueError):
        env2.step([float("nan")])


# ------------------------------------------------------------------- cartpole

def test_cartpole_constant_push_terminates_with_final_reward() -> None:
    env = make_env("cartpole")
    env.reset(3)
    total = 0.0
    steps = 0
    while True:
        res = env.step(1)
        total += res.reward
        steps += 1
        if res.terminated:
            break
        assert steps < 500
    assert res.reward == 1.0  # the falling step still pays
    assert total == steps
    x, _, th, _ = res.obs
    assert abs(x) > 2.4 or abs(th) > 12 * 2 * math.pi / 360
    assert 1 <= total <= 500


def test_cartpole_push_direction_moves_cart() -> None:
    env = make_env("cartpole")
    env.reset(5)
    x_dot0 = env._state[1, 0]
    res = env.step(1)
    assert res.obs[1] > x_dot0
    env.reset(5)
    res = env.step(0)
    assert res.obs[1] < x_dot0


def test_cartpole_single_step_matches_euler_oracle() -> None:
    env = make_env("cartpole")
    obs0 = env.reset(21)
    x, x_dot, th, th_dot = obs0
    force = 10.0
    temp = (force + 0.05 * th_dot**2 * math.sin(th)) / 1.1
    th_acc = (9.8 * math.sin(th) - math.cos(th) * temp) / (
        0.5 * (4.0 / 3.0 - 0.1 * math.cos(th) ** 2 / 1.1))
    x_acc = temp - 0.05 * th_acc * math.cos(th) / 1.1
    expect = np.array([x + 0.02 * x_dot, x_dot + 0.02 * x_acc,
                       th + 0.02 * th_dot, th_dot + 0.02 * th_acc])
    res = env.step(1)
    np.testing.assert_allclose(res.obs, expect, rtol=1e-12)


# -------------------------------------------------------------------- acrobot

def test_acrobot_zero_torque_runs_to_truncation() -> None:
    env = make_env("acrobot")
    env.reset(1)
    total = 0.0
    for k in range(500):
        res = env.step(1)
        total += res.reward
        assert not res.terminated
    assert res.truncated
    assert total == -500.0


def test_acrobot_state_stays_bounded() -> None:
    env = make_env("acrobot")
    env.reset(9)
    for k in range(300):
        res = env.step(k % 3)
        assert np.all(np.abs(res.obs[:4]) <= 1.0 + 1e-12)
        assert abs(res.obs[4]) <= 4 * math.pi
        assert abs(res.obs[5]) <= 9 * math.pi
        assert abs(env._state[0, 0]) <= math.pi and abs(env._state[1, 0]) <= math.pi
        if res.terminated or res.truncated:
            break


def test_wrap_passes_non_finite_angles_through() -> None:
    x = np.array([np.inf, -np.inf, np.nan, 4.0, -10.0, 1.0, math.pi])
    done = {}
    # in a thread, so that a wrap that never returns fails instead of hanging
    worker = threading.Thread(target=lambda: done.setdefault(
        "out", _wrapper(-math.pi, math.pi)(x)), daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert "out" in done, "_wrap did not return within 5 s"
    out = done["out"]
    assert out[0] == np.inf and out[1] == -np.inf and math.isnan(out[2])
    # finite entries still move one period at a time, with the same bits
    period = math.pi - -math.pi
    assert out[3:].tolist() == [4.0 - period, -10.0 + period + period, 1.0, math.pi]


def _old_wrap(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The one-period-at-a-time loop as it was before far angles were
    reduced with ``remainder``."""
    diff = hi - lo
    finite = np.isfinite(x)
    while (over := finite & (x > hi)).any():
        x = np.where(over, x - diff, x)
    while (under := finite & (x < lo)).any():
        x = np.where(under, x + diff, x)
    return x


def test_wrap_returns_on_huge_finite_angles() -> None:
    x = np.array([1e17, -1e17, 1e6, -1e6])
    done = {}
    worker = threading.Thread(target=lambda: done.setdefault(
        "out", _wrapper(-math.pi, math.pi)(x)), daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert "out" in done, "_wrap did not return within 5 s"
    out = done["out"]
    assert ((-math.pi <= out) & (out <= math.pi)).all()


def test_wrap_keeps_the_loop_bits_within_sixteen_periods() -> None:
    x = np.random.default_rng(8).uniform(-20 * math.pi, 20 * math.pi, 10_000)
    assert _wrapper(-math.pi, math.pi)(x).tobytes() == _old_wrap(x, -math.pi, math.pi).tobytes()


@pytest.mark.parametrize("env_id", ["cartpole", "acrobot"])
def test_terminal_over_a_recorded_trajectory_matches_step_flags(env_id) -> None:
    """One ``terminal`` call on a ``(k, T, L)`` block gives the flags that
    ``step()`` reported one step at a time; after an episode ends its
    columns stay NaN, which no env flags."""
    steps, lanes = 30, 8
    env = make_env(env_id)
    rng = np.random.default_rng(4)
    states = np.full((4, steps, lanes), np.nan)
    flags = np.zeros((steps, lanes), dtype=bool)
    for lane in range(lanes):
        env.reset(lane)
        if env_id == "acrobot" and lane % 2:
            # just below the goal height, so some torques end the episode
            env._state[:, 0] = [math.pi - 0.1 - 0.01 * lane, 0.0, 2.0, 0.0]
        for t in range(steps):
            res = env.step(int(rng.integers(env.spec.action_space.n)))
            states[:, t, lane] = env._state[:, 0]
            flags[t, lane] = res.terminated
            if res.terminated:
                break
    ended = flags.any(axis=0)
    assert ended.any() and not ended.all()
    assert env.terminal(states).tobytes() == flags.tobytes()


def test_pendulum_has_no_terminal() -> None:
    assert make_env("pendulum").terminal is None


def test_acrobot_terminal_pays_zero_and_matches_height() -> None:
    # plant the state just below the target height so one torque kick ends it
    env = make_env("acrobot")
    env.reset(2)
    env._state[:, 0] = [math.pi - 0.12, 0.0, 2.0, 0.0]
    res = env.step(2)
    th1, th2 = env._state[0, 0], env._state[1, 0]
    reached = -math.cos(th1) - math.cos(th2 + th1) > 1.0
    assert res.terminated == reached
    assert res.terminated
    assert res.reward == 0.0


def test_acrobot_return_range_under_random_play() -> None:
    rng = np.random.default_rng(0)
    for trial in range(5):
        env = make_env("acrobot")
        env.reset(trial)
        total = 0.0
        while True:
            res = env.step(int(rng.integers(3)))
            total += res.reward
            if res.terminated or res.truncated:
                break
        assert -500.0 <= total <= 0.0


# ------------------------------------------------------------------- pendulum

def test_pendulum_upright_rest_is_fixed_point() -> None:
    env = make_env("pendulum")
    env.reset(0)
    env._state[0, 0] = 0.0
    env._state[1, 0] = 0.0
    res = env.step([0.0])
    assert res.reward == 0.0
    np.testing.assert_array_equal(res.obs, [1.0, 0.0, 0.0])


def test_pendulum_truncates_at_200_and_never_terminates() -> None:
    env = make_env("pendulum")
    env.reset(4)
    for k in range(200):
        res = env.step([2.0])
        assert not res.terminated
    assert res.truncated
    assert abs(res.obs[2]) <= 8.0


def test_pendulum_torque_is_clipped() -> None:
    a = make_env("pendulum")
    b = make_env("pendulum")
    a.reset(11)
    b.reset(11)
    ra = a.step([50.0])
    rb = b.step([2.0])
    np.testing.assert_array_equal(ra.obs, rb.obs)
    # effort cost uses the clipped torque as well
    assert ra.reward == rb.reward


def test_pendulum_cost_components() -> None:
    env = make_env("pendulum")
    env.reset(0)
    env._state[0, 0] = math.pi / 2
    env._state[1, 0] = 1.0
    res = env.step([1.0])
    expect = -((math.pi / 2) ** 2 + 0.1 * 1.0 + 0.001 * 1.0)
    assert abs(res.reward - expect) < 1e-12


def test_pendulum_max_torque_spins_up_from_rest() -> None:
    env = make_env("pendulum")
    env.reset(0)
    env._state[0, 0] = math.pi  # hanging straight down
    env._state[1, 0] = 0.0
    env.step([2.0])
    assert abs(env._state[1, 0]) > 0.0


# ----------------------------------------------------- trajectory determinism

@pytest.mark.parametrize("env_id", ["cartpole", "acrobot", "pendulum"])
def test_trajectories_are_bitwise_reproducible(env_id) -> None:
    def run():
        env = make_env(env_id)
        env.reset(314)
        rng = np.random.default_rng(1)
        out = []
        for _ in range(50):
            if env_id == "pendulum":
                a = [float(rng.uniform(-2, 2))]
            else:
                a = int(rng.integers(env.spec.action_space.n))
            res = env.step(a)
            out.append((tuple(res.obs), res.reward))
            if res.terminated or res.truncated:
                break
        return out

    assert run() == run()


@pytest.mark.parametrize("env_id", ["cartpole", "acrobot", "pendulum"])
def test_reference_trajectory_fixture_replays(env_id) -> None:
    rows = read_trajectory(env_id)
    assert len(rows) == 100
    env = make_env(env_id)
    env.reset(12345)
    for k, row in enumerate(rows):
        action = [row["action"]] if env_id == "pendulum" else int(row["action"])
        res = env.step(action)
        np.testing.assert_allclose(res.obs, row["obs"], atol=1e-6, rtol=0,
                                   err_msg=f"{env_id} step {k}")
        assert abs(res.reward - row["reward"]) <= 1e-6
        assert res.terminated == row["terminated"]
        assert res.truncated == row["truncated"]
