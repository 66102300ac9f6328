"""Layer microbenchmarks: steady per-call costs, apart from any workload.

Each figure is the median of several batches of calls on fixed inputs.
``REANCHOR_US`` holds the figures the roadmap's last re-anchor measured on a
2-core machine (numpy 2.4, Python 3.11); they are printed alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import evolin

perf = time.perf_counter
BATCHES = 5
BATCH_SECONDS = 0.02

REANCHOR_US = {"micro.policy.act_us.cartpole": 14.4,
               "micro.envs.step_us.cartpole": 8.1,
               "micro.envs.step_us.acrobot": 29.8,
               "micro.es.draw_us": 22.0}

# (n, lambda) of each shipped genome size: pendulum, cartpole, acrobot, and
# the test-function suite's n = 10.
TELL_SIZES = ((3, 32), (8, 4), (18, 4), (10, 10))


def per_call_us(call) -> float:
    """Median over batches of the mean time of one ``call()``."""
    t = perf()
    call()
    reps = max(1, int(BATCH_SECONDS / max(perf() - t, 1e-7)))
    means = []
    for _ in range(BATCHES):
        t = perf()
        for _ in range(reps):
            call()
        means.append((perf() - t) / reps)
    return statistics.median(means) * 1e6


def step_us(env_id: str) -> float:
    """Env step alone: each step is timed, so resets stay out."""
    env = evolin.make_env(env_id)
    space = env.spec.action_space
    actions = ([np.array([0.5]), np.array([-0.5])] if isinstance(space, evolin.Box)
               else list(range(space.n)))
    episode, done, means = 0, True, []
    for _ in range(BATCHES):
        spent = 0.0
        for i in range(2000):
            if done:
                env.reset(episode)
                episode += 1
            t = perf()
            res = env.step(actions[i % len(actions)])
            spent += perf() - t
            done = res.terminated or res.truncated
        means.append(spent / 2000)
    return statistics.median(means) * 1e6


def act_us(env_id: str) -> float:
    spec = evolin.env_spec(env_id)
    rng = np.random.default_rng(0)
    n = evolin.genome_dim(spec.obs_dim, spec.action_space)
    policy = evolin.LinearPolicy.from_genome(rng.standard_normal(n),
                                             spec.obs_dim, spec.action_space)
    norm = evolin.ObsNormalizer.create(spec.obs_dim)
    for _ in range(10):
        norm.update(rng.standard_normal(spec.obs_dim))
    obs = rng.standard_normal(spec.obs_dim)
    return per_call_us(lambda: evolin.act(policy, norm, obs))


def tell_us(variant: str, n: int, lam: int) -> float:
    params, state = evolin.new_strategy(variant, n, 0.5, np.zeros(n), lam)
    cands = evolin.ask(params, state, 1)
    rng = np.random.default_rng(n)
    for c in cands:
        c.fitness = float(rng.standard_normal())
    return per_call_us(lambda: evolin.tell(params, state, cands))


def run() -> dict[str, float]:
    """Every microbenchmark, by metric name, in microseconds per call."""
    out = {}
    for env_id in evolin.ENV_IDS:
        out[f"micro.envs.step_us.{env_id}"] = step_us(env_id)
    for env_id in ("cartpole", "pendulum"):
        out[f"micro.policy.act_us.{env_id}"] = act_us(env_id)

    rng = np.random.default_rng(0)
    obs = rng.standard_normal(4)
    norm = evolin.ObsNormalizer.create(4)
    out["micro.policy.norm_update_us"] = per_call_us(lambda: norm.update(obs))
    delta = evolin.ObsNormalizer.create(4)
    for _ in range(200):
        delta.update(rng.standard_normal(4))
    total = evolin.ObsNormalizer.create(4)
    out["micro.policy.norm_merge_us"] = per_call_us(lambda: total.merge(delta))

    index = iter(range(10**9))
    out["micro.es.draw_us"] = per_call_us(
        lambda: evolin.candidate_z(7, 3, next(index), 10))
    for variant in evolin.VARIANTS:
        for n, lam in TELL_SIZES:
            out[f"micro.es.tell_us.{variant}.n{n}"] = tell_us(variant, n, lam)
    return out
