"""Regenerate the committed test fixtures.

Writes one reference trajectory per environment (100 steps, scripted
actions, fixed reset seed), a small trained cart-pole checkpoint used by
the CLI tests, and the golden rollout file: every candidate's fitness, raw
return, timesteps and observation delta, plus the test-probe returns, for a
few fixed generations of each environment, with every float stored exactly
as ``float.hex``.  Run from the repository root:

    python3 tools/make_fixtures.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from evolin import (FitnessSpec, LinearPolicy, ObsNormalizer, Shaping,
                    env_spec, genome_dim, make_env, save_checkpoint,
                    test_policy, train)
from evolin.evaluate import evaluate_candidate

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures")
STEPS = 100
RESET_SEED = 12345


def cartpole_actions() -> list[int]:
    """Derive an open-loop action sequence that balances for 100 steps.

    A crude proportional rule picks each action while simulating; the
    resulting integer sequence is what gets stored, so replay needs no
    controller.
    """
    env = make_env("cartpole")
    obs = env.reset(RESET_SEED)
    actions = []
    for _ in range(STEPS):
        x, x_dot, th, th_dot = obs
        a = 1 if (th + 0.25 * th_dot + 0.02 * x + 0.05 * x_dot) > 0 else 0
        actions.append(a)
        res = env.step(a)
        if res.terminated:
            raise RuntimeError("scripted cart-pole sequence fell over; retune")
        obs = res.obs
    return actions


def acrobot_actions() -> list[int]:
    # gentle periodic torques; far too weak to reach the terminal height
    return [(k // 5) % 3 for k in range(STEPS)]


def pendulum_actions() -> list[list[float]]:
    return [[1.5 * math.sin(0.25 * k)] for k in range(STEPS)]


def write_trajectory(env_id: str, actions) -> None:
    env = make_env(env_id)
    obs = env.reset(RESET_SEED)
    obs_dim = len(obs)
    header = ["step", "action"] + [f"obs{i}" for i in range(obs_dim)] + [
        "reward", "terminated", "truncated"]
    lines = [",".join(header)]
    for k, a in enumerate(actions):
        res = env.step(a)
        act_repr = repr(float(a[0])) if isinstance(a, list) else str(a)
        cells = [str(k), act_repr]
        cells += [repr(float(v)) for v in res.obs]
        cells += [repr(res.reward), str(int(res.terminated)), str(int(res.truncated))]
        lines.append(",".join(cells))
        if res.terminated or res.truncated:
            raise RuntimeError(f"{env_id} episode ended early at step {k}")
    path = os.path.join(FIXTURE_DIR, f"{env_id}_trajectory.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote", path)


def write_cartpole_checkpoint() -> None:
    result = train("cartpole", "csa", sigma0=0.1, lam=4, budget_timesteps=10_000,
                   master_seed=5, target_return=500.0)
    best_median = max((r.median_test_return for r in result.records), default=-1.0)
    if result.best is None or best_median < 475:
        raise RuntimeError("training fixture run did not solve cart-pole")
    path = os.path.join(FIXTURE_DIR, "cartpole_solved.json")
    save_checkpoint(path, result.best)
    print("wrote", path, "median", max(r.median_test_return for r in result.records))


# name, env, lambda, generation, master seed, fitness spec, genome scale and
# normalizer warm-up size (0 and 1 leave normalization a pass-through)
GOLDEN_CASES = (
    ("cartpole-crn", "cartpole", 6, 3, 11, FitnessSpec(), 1.0, 40),
    ("cartpole-shaped", "cartpole", 5, 2, 12,
     FitnessSpec(train_episodes=3, shaping=Shaping("drop_alive_bonus", 1.0),
                 common_random_numbers=False), 1.0, 40),
    ("acrobot-nocrn", "acrobot", 4, 1, 13,
     FitnessSpec(train_episodes=2, common_random_numbers=False), 2.0, 60),
    ("pendulum-shaped", "pendulum", 8, 5, 14,
     FitnessSpec(train_episodes=3, shaping=Shaping("drop_alive_bonus", 0.5),
                 common_random_numbers=False), 1.0, 50),
    ("pendulum-cold", "pendulum", 3, 0, 15, FitnessSpec(), 1.0, 1),
)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def normalizer_doc(norm: ObsNormalizer) -> dict:
    return {"count": norm.count, "mean": hexes(norm.mean), "m2": hexes(norm.m2)}


def golden_case(name, env_id, lam, generation, master_seed, fitness_spec,
                scale, warm) -> dict:
    """Score one generation with the code as it stands and record it exactly."""
    spec = env_spec(env_id)
    rng = np.random.default_rng(master_seed)
    norm = ObsNormalizer.create(spec.obs_dim)
    spread = rng.uniform(0.5, 3.0, size=spec.obs_dim)
    for row in rng.standard_normal((warm, spec.obs_dim)) * spread:
        norm.update(row)
    n = genome_dim(spec.obs_dim, spec.action_space)
    genomes = rng.standard_normal((lam, n)) * scale
    candidates = []
    for i, x in enumerate(genomes):
        ev = evaluate_candidate(x, i, env_id, norm, fitness_spec, generation,
                                master_seed)
        candidates.append({"genome": hexes(x), "fitness": ev.fitness.hex(),
                           "raw_return": ev.raw_return.hex(),
                           "timesteps": ev.timesteps,
                           "delta": normalizer_doc(ev.delta)})
    policy = LinearPolicy.from_genome(genomes[0], spec.obs_dim, spec.action_space)
    median, returns = test_policy(policy, norm, env_id, master_seed, generation)
    return {"name": name, "env_id": env_id, "generation": generation,
            "master_seed": master_seed, "fitness_spec": fitness_spec.to_dict(),
            "normalizer": normalizer_doc(norm), "candidates": candidates,
            "probe": {"median": median.hex(), "returns": hexes(returns)}}


def write_golden_rollouts() -> None:
    doc = {"cases": [golden_case(*case) for case in GOLDEN_CASES]}
    path = os.path.join(FIXTURE_DIR, "golden_rollouts.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote", path)


def main() -> int:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    write_trajectory("cartpole", cartpole_actions())
    write_trajectory("acrobot", acrobot_actions())
    write_trajectory("pendulum", pendulum_actions())
    write_cartpole_checkpoint()
    write_golden_rollouts()
    return 0


if __name__ == "__main__":
    sys.exit(main())
