"""Episode evaluation and the generation-based training loop.

Fitness of a candidate genome is its mean shaped return over one or more
training episodes.  Episode seeds derive from (master_seed, generation, ...)
so evaluation is reproducible and independent of scheduling.  All rollouts
go through one lockstep engine (``run_episodes``) that steps a batch of
episodes together, one lane per episode: a generation's candidates form one
batch, the test probe's episodes another, and a remote worker's single
candidate a batch of one.  A lane computes the same bits whatever batch it
is in, so a whole generation, a sub-batch, or one candidate on a remote
worker all give identical numbers.  Progress is measured by a separate
deterministic test protocol (median raw return over five fixed-seed
episodes) whose steps never count against the budget.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .envs import env_spec, make_env
from .es import (Candidate, NumericalDegeneracyError, StrategyParams,
                 DistributionState, ask, new_strategy, tell)
from .policy import (Checkpoint, LinearPolicy, ObsNormalizer, act_batch,
                     genome_dim, welford_update)

__all__ = [
    "Shaping",
    "FitnessSpec",
    "shape_reward",
    "RolloutResult",
    "run_episodes",
    "rollout",
    "CandidateEval",
    "score_candidates",
    "evaluate_candidate",
    "GenerationEval",
    "evaluate_generation",
    "test_policy",
    "TrainRecord",
    "TrainResult",
    "train",
    "train_episode_seed",
    "test_episode_seed",
    "write_curve_csv",
    "read_curve_csv",
    "CURVE_COLUMNS",
]

# Seed-stream domains; 0 is reserved for candidate sampling in es.py.
DOMAIN_TRAIN_EP = 1
DOMAIN_TEST_EP = 2


@dataclass(frozen=True)
class Shaping:
    mode: str = "identity"            # "identity" | "drop_alive_bonus"
    bonus: float = 0.0

    def __post_init__(self):
        if self.mode not in ("identity", "drop_alive_bonus"):
            raise ValueError(f"unknown shaping mode: {self.mode!r}")


@dataclass(frozen=True)
class FitnessSpec:
    train_episodes: int = 1
    test_episodes: int = 5
    shaping: Shaping = field(default_factory=Shaping)
    common_random_numbers: bool = True

    def __post_init__(self):
        if self.train_episodes < 1 or self.test_episodes < 1:
            raise ValueError("episode counts must be positive")

    def to_dict(self) -> dict:
        return {
            "train_episodes": self.train_episodes,
            "test_episodes": self.test_episodes,
            "shaping": {"mode": self.shaping.mode, "bonus": self.shaping.bonus},
            "common_random_numbers": self.common_random_numbers,
        }

    @staticmethod
    def from_dict(d: dict) -> "FitnessSpec":
        return FitnessSpec(
            train_episodes=int(d["train_episodes"]),
            test_episodes=int(d["test_episodes"]),
            shaping=Shaping(d["shaping"]["mode"], float(d["shaping"]["bonus"])),
            common_random_numbers=bool(d["common_random_numbers"]),
        )


def shape_reward(reward: float, shaping: Shaping) -> float:
    """Per-step reward transform used for training fitness only."""
    if shaping.mode == "drop_alive_bonus":
        return reward - shaping.bonus
    return reward


def train_episode_seed(master_seed: int, generation: int, candidate_index: int,
                       episode_index: int, common_random_numbers: bool) -> list[int]:
    """Seed for one training episode.

    Under common random numbers the candidate index is deliberately absent,
    so every candidate of a generation faces the same episodes.
    """
    if common_random_numbers:
        return [master_seed, DOMAIN_TRAIN_EP, generation, episode_index]
    return [master_seed, DOMAIN_TRAIN_EP, generation, candidate_index, episode_index]


def test_episode_seed(master_seed: int, generation: int, episode_index: int) -> list[int]:
    return [master_seed, DOMAIN_TEST_EP, generation, episode_index]


@dataclass
class RolloutResult:
    raw_return: float
    shaped_return: float
    timesteps: int
    delta: ObsNormalizer | None


def run_episodes(env, weights: np.ndarray, normalizer: ObsNormalizer, seeds,
                 shaping: Shaping = Shaping(),
                 update_normalizer: bool = False) -> list[RolloutResult]:
    """Run one episode per lane, stepping all lanes together.

    Lane ``i`` resets from ``seeds[i]`` and acts with the linear policy
    ``weights[i]`` (``weights`` is ``(L, act_dim, obs_dim)``) until its own
    termination or truncation, where it leaves the batch.  The passed
    normalizer is read once and never touched; with ``update_normalizer``
    each lane's observations go into its own fresh accumulator (the returned
    delta) covering exactly the observations its policy acted on.  Every
    operation is elementwise per lane or a stacked matmul, so a lane's
    result does not depend on the other lanes.
    """
    if not seeds:
        return []
    spec = env.spec
    limit = spec.max_episode_steps
    shift, scale = normalizer.affine()
    weights = np.ascontiguousarray(weights, dtype=float)
    state = np.stack([env.initial_state(np.random.default_rng(s)) for s in seeds],
                     axis=1)
    lanes = np.arange(len(seeds))
    raw = np.zeros(len(seeds))
    shaped = np.zeros(len(seeds))
    mean = m2 = np.zeros((len(seeds), spec.obs_dim))
    results: list[RolloutResult | None] = [None] * len(seeds)
    obs = env.observe(state)
    for t in range(1, limit + 1):
        if update_normalizer:
            mean, m2 = welford_update(t, mean, m2, obs)
        if not np.isfinite(obs).all():
            raise ValueError("observation must be finite")
        actions = act_batch(weights, spec.action_space, (obs - shift) / scale)
        state, reward, terminated = env.dynamics(state, actions)
        raw += reward
        shaped += shape_reward(reward, shaping)
        done = terminated if t < limit else np.ones_like(terminated)
        if done.any():
            for j in np.flatnonzero(done):
                delta = (ObsNormalizer(t, mean[j].copy(), m2[j].copy())
                         if update_normalizer else None)
                results[lanes[j]] = RolloutResult(float(raw[j]), float(shaped[j]),
                                                  t, delta)
            keep = ~done
            if not keep.any():
                break
            lanes, state, weights = lanes[keep], state[:, keep], weights[keep]
            raw, shaped, mean, m2 = raw[keep], shaped[keep], mean[keep], m2[keep]
        obs = env.observe(state)
    return results


def rollout(env, policy: LinearPolicy, normalizer: ObsNormalizer, episode_seed,
            shaping: Shaping = Shaping(), update_normalizer: bool = False) -> RolloutResult:
    """Run one episode to termination or truncation: a batch of one lane.

    The passed normalizer is read-only; newly seen observations go into a
    fresh accumulator (the returned delta) covering exactly the observations
    the policy acted on.
    """
    return run_episodes(env, policy.weights[None], normalizer, [episode_seed],
                        shaping, update_normalizer)[0]


@dataclass
class CandidateEval:
    index: int
    fitness: float
    raw_return: float
    timesteps: int
    delta: ObsNormalizer


def score_candidates(genomes, indexes, env, normalizer: ObsNormalizer,
                     fitness_spec: FitnessSpec, generation: int,
                     master_seed: int) -> list[CandidateEval]:
    """Fitness of several genomes, all their training episodes as one batch.

    Each result depends only on its genome and index, never on which other
    candidates share the batch.
    """
    if not len(indexes):
        return []
    spec = env.spec
    k = fitness_spec.train_episodes
    weights = np.stack([LinearPolicy.from_genome(g, spec.obs_dim, spec.action_space).weights
                        for g in genomes])
    seeds = [train_episode_seed(master_seed, generation, index, ep,
                                fitness_spec.common_random_numbers)
             for index in indexes for ep in range(k)]
    episodes = run_episodes(env, np.repeat(weights, k, axis=0), normalizer, seeds,
                            fitness_spec.shaping, update_normalizer=True)
    evals = []
    for c, index in enumerate(indexes):
        delta = ObsNormalizer.create(spec.obs_dim)
        raw_sum = 0.0
        shaped_sum = 0.0
        steps = 0
        for res in episodes[c * k:(c + 1) * k]:
            raw_sum += res.raw_return
            shaped_sum += res.shaped_return
            steps += res.timesteps
            delta.merge(res.delta)
        evals.append(CandidateEval(index, shaped_sum / k, raw_sum / k, steps, delta))
    return evals


def evaluate_candidate(genome: np.ndarray, index: int, env_id: str,
                       normalizer: ObsNormalizer, fitness_spec: FitnessSpec,
                       generation: int, master_seed: int) -> CandidateEval:
    """Fitness of one genome; shared verbatim by local and remote evaluation."""
    return score_candidates([genome], [index], make_env(env_id), normalizer,
                            fitness_spec, generation, master_seed)[0]


@dataclass
class GenerationEval:
    fitnesses: np.ndarray             # ordered by candidate index
    raw_returns: np.ndarray
    timesteps: int
    delta: ObsNormalizer


def evaluate_generation(candidates: list[Candidate], env_id: str,
                        normalizer: ObsNormalizer, fitness_spec: FitnessSpec,
                        generation: int, master_seed: int) -> GenerationEval:
    """Evaluate a full generation as one batch."""
    evals = score_candidates([c.x for c in candidates], [c.index for c in candidates],
                             make_env(env_id), normalizer, fitness_spec,
                             generation, master_seed)
    return collect_generation(evals, normalizer.dim, len(candidates))


def collect_generation(evals: list[CandidateEval], obs_dim: int,
                       lam: int) -> GenerationEval:
    """Fold per-candidate results in index order, however they were produced."""
    evals = sorted(evals, key=lambda e: e.index)
    if [e.index for e in evals] != list(range(lam)):
        raise ValueError("candidate evaluations must cover indexes 0..lambda-1")
    delta = ObsNormalizer.create(obs_dim)
    for e in evals:
        delta.merge(e.delta)
    return GenerationEval(
        fitnesses=np.array([e.fitness for e in evals]),
        raw_returns=np.array([e.raw_return for e in evals]),
        timesteps=sum(e.timesteps for e in evals),
        delta=delta,
    )


def test_policy(policy: LinearPolicy, normalizer: ObsNormalizer, env_id: str,
                master_seed: int, generation: int,
                episodes: int = 5) -> tuple[float, list[float]]:
    """Deterministic progress probe: median raw return over fixed seeds."""
    seeds = [test_episode_seed(master_seed, generation, ep) for ep in range(episodes)]
    weights = np.repeat(policy.weights[None], episodes, axis=0)
    returns = [res.raw_return
               for res in run_episodes(make_env(env_id), weights, normalizer, seeds)]
    return float(statistics.median(returns)), returns


@dataclass
class TrainRecord:
    generation: int
    cumulative_timesteps: int
    median_test_return: float
    test_returns: list[float]
    best_train_fitness: float
    sigma: float


@dataclass
class TrainResult:
    env_id: str
    variant: str
    master_seed: int
    status: str                       # budget_exhausted | target_reached | degenerate
    records: list[TrainRecord]
    best: Checkpoint | None
    cumulative_timesteps: int
    params: StrategyParams
    state: DistributionState


def train(env_id: str, variant: str, *, sigma0: float, lam: int | str | None,
          budget_timesteps: int, master_seed: int,
          fitness_spec: FitnessSpec | None = None, test_every: int = 1,
          target_return: float | None = None,
          max_generations: int | None = None,
          evaluator: Callable | None = None,
          on_generation: Callable | None = None) -> TrainResult:
    """Search policy weights by ask/evaluate/tell until the budget is spent.

    ``evaluator`` may replace local rollout evaluation (the distributed
    master does); it must honor the evaluate_generation contract so runs
    remain bitwise comparable.  ``on_generation(params, state)`` fires at
    the start of every generation.
    """
    spec = env_spec(env_id)
    fitness_spec = fitness_spec or FitnessSpec()
    n = genome_dim(spec.obs_dim, spec.action_space)
    params, state = new_strategy(variant, n, sigma0, np.zeros(n), lam)
    normalizer = ObsNormalizer.create(spec.obs_dim)

    if evaluator is None:
        def evaluator(prm, st, cands, norm, gen):
            return evaluate_generation(cands, env_id, norm, fitness_spec,
                                       gen, master_seed)

    records: list[TrainRecord] = []
    best: Checkpoint | None = None
    best_median = -np.inf
    cumulative = 0
    status = "budget_exhausted"

    while cumulative < budget_timesteps:
        if max_generations is not None and state.g >= max_generations:
            break
        gen = state.g
        if on_generation is not None:
            on_generation(params, state)
        cands = ask(params, state, master_seed)
        result = evaluator(params, state, cands, normalizer, gen)
        for c, f in zip(cands, result.fitnesses):
            c.fitness = float(f)
        cumulative += result.timesteps
        normalizer.merge(result.delta)
        try:
            state = tell(params, state, cands, mode="maximize")
        except NumericalDegeneracyError:
            status = "degenerate"
            break

        if gen % test_every == 0:
            policy = LinearPolicy.from_genome(state.m, spec.obs_dim, spec.action_space)
            median, returns = test_policy(policy, normalizer, env_id, master_seed,
                                          gen, fitness_spec.test_episodes)
            records.append(TrainRecord(gen, cumulative, median, returns,
                                       float(np.max(result.fitnesses)), state.sigma))
            if median > best_median:
                best_median = median
                best = Checkpoint(env_id, state.m.copy(), spec.obs_dim,
                                  spec.action_space, normalizer.frozen_view(),
                                  gen, master_seed)
            if target_return is not None and median >= target_return:
                status = "target_reached"
                break

    return TrainResult(env_id, variant, master_seed, status, records, best,
                       cumulative, params, state)


CURVE_COLUMNS = (
    "generation", "cumulative_timesteps", "median_test_return",
    "test_return_1", "test_return_2", "test_return_3", "test_return_4",
    "test_return_5", "best_train_fitness", "sigma",
)


def write_curve_csv(path: str, records: list[TrainRecord]) -> None:
    """Training curve as CSV; floats keep full round-trip precision."""
    lines = [",".join(CURVE_COLUMNS)]
    for r in records:
        if len(r.test_returns) != 5:
            raise ValueError("curve rows require the 5-episode test protocol")
        cells = [str(r.generation), str(r.cumulative_timesteps),
                 repr(r.median_test_return)]
        cells += [repr(v) for v in r.test_returns]
        cells += [repr(r.best_train_fitness), repr(r.sigma)]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curve_csv(path: str) -> list[TrainRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != ",".join(CURVE_COLUMNS):
        raise ValueError(f"{path} is not a training curve file")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        out.append(TrainRecord(
            generation=int(cells[0]),
            cumulative_timesteps=int(cells[1]),
            median_test_return=float(cells[2]),
            test_returns=[float(v) for v in cells[3:8]],
            best_train_fitness=float(cells[8]),
            sigma=float(cells[9]),
        ))
    return out
