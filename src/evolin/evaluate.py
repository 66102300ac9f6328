"""Episode evaluation and the generation-based training loop.

Fitness of a candidate genome is its mean shaped return over one or more
training episodes.  Episode seeds derive from (master_seed, generation, ...)
so evaluation is reproducible and independent of scheduling.  All rollouts
go through one lockstep engine (``run_episodes``) that steps a batch of
episodes together, one lane per episode: a generation's candidates form one
batch, and a remote worker's range of candidates another.  A lane computes
the same bits whatever batch it is in, so a whole generation, a sub-batch, or
a worker's range all give identical numbers.  Results travel as ``Scores``,
one array row per lane or per candidate: raw and shaped return, and the
moments (count, mean, M2) of the observations its policy acted on, whose
count is also its timesteps.  Progress is measured by a separate
deterministic test protocol (median raw return over ``TEST_EPISODES``
fixed-seed episodes) whose steps never count against the budget.  A
generation is scored as one ``Batch`` into one ``Scores``, and so is each
range of it that a distributed TASK carries.  The probe of generation g needs only the mean
and normalizer that g + 1 starts from, so g + 1's ``Batch`` owes it and runs
it as further lanes (in a distributed run, of one worker's range), returned
as the ``Scores``' ``probe``; only a probe still owed when the run ends runs
alone, through ``test_policy``.  A run's
settings are one checked ``RunSpec``, which ``train``, ``train_distributed``
and the command line's trials all build and ``_run`` reads.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Generator

import numpy as np

from .envs import env_spec, make_env
from .es import (NumericalDegeneracyError, StrategyParams, DistributionState,
                 _check_seed, ask, new_strategy, tell)
from .policy import (Box, Checkpoint, LinearPolicy, ObsNormalizer, _count, _keys,
                     _real, act_batch, chan_merge, genome_dim, welford_update)

__all__ = [
    "Shaping",
    "FitnessSpec",
    "shape_reward",
    "Scores",
    "run_episodes",
    "rollout",
    "Batch",
    "score_candidates",
    "evaluate_candidate",
    "evaluate_generation",
    "test_policy",
    "TrainRecord",
    "TrainResult",
    "RunSpec",
    "train",
    "train_episode_seed",
    "test_episode_seed",
    "write_curve_csv",
    "read_curve_csv",
    "CURVE_COLUMNS",
    "TEST_EPISODES",
]

# Seed-stream domains; 0 is reserved for candidate sampling in es.py.
DOMAIN_TRAIN_EP = 1
DOMAIN_TEST_EP = 2

# Episodes of the test protocol: one test probe, one row of a curve file.
TEST_EPISODES = 5

# Steps between run_episodes' termination checks.
TERMINATION_BLOCK = 8


@dataclass(frozen=True)
class Shaping:
    mode: str = "identity"            # "identity" | "drop_alive_bonus"
    bonus: float = 0.0

    def __post_init__(self):
        if self.mode not in ("identity", "drop_alive_bonus"):
            raise ValueError(f"unknown shaping mode: {self.mode!r}")
        object.__setattr__(self, "bonus", _real(self.bonus, "shaping bonus"))
        if self.mode == "identity" and self.bonus != 0:
            raise ValueError(f"shaping mode 'identity' takes no bonus, not {self.bonus!r}")


@dataclass(frozen=True)
class FitnessSpec:
    train_episodes: int = 1
    shaping: Shaping = field(default_factory=Shaping)
    common_random_numbers: bool = True

    def __post_init__(self):
        _count(self.train_episodes, "train_episodes", 1)
        if not isinstance(self.common_random_numbers, bool):
            raise ValueError("common_random_numbers must be a bool, "
                             f"not {self.common_random_numbers!r}")

    def to_dict(self) -> dict:
        return {
            "train_episodes": self.train_episodes,
            "shaping": {"mode": self.shaping.mode, "bonus": self.shaping.bonus},
            "common_random_numbers": self.common_random_numbers,
        }

    @staticmethod
    def from_dict(d: dict) -> "FitnessSpec":
        """Inverse of ``to_dict``, the one reader of a fitness spec in a config
        file or a TASK.  Values are checked, not coerced; the keys must be
        ``to_dict``'s, the shaping's too."""
        settings = FitnessSpec().to_dict()
        _keys(d, settings, "fitness_spec")
        _keys(d["shaping"], settings["shaping"], "fitness_spec.shaping")
        return FitnessSpec(d["train_episodes"],
                           Shaping(d["shaping"]["mode"], d["shaping"]["bonus"]),
                           d["common_random_numbers"])


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
class Scores:
    """Results as arrays, one row per episode lane or per candidate.

    ``raw`` and ``shaped`` are a row's raw and shaped returns; a candidate's
    are means over its episodes, and its ``shaped`` is its fitness.
    ``count`` is the row's timesteps, which are also the observations its
    policy acted on; ``mean`` and ``m2`` (``(rows, obs_dim)``) are those
    observations' Welford moments.  ``probe`` holds the raw returns of the
    test probe a batch owed, or None; they feed no row.
    """

    raw: np.ndarray
    shaped: np.ndarray
    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    probe: list[float] | None = None

    @staticmethod
    def zeros(rows: int, obs_dim: int) -> "Scores":
        return Scores(np.zeros(rows), np.zeros(rows), np.zeros(rows, dtype=np.int64),
                      np.zeros((rows, obs_dim)), np.zeros((rows, obs_dim)))

    def delta(self, row: int) -> ObsNormalizer:
        """Row ``row``'s observation moments as an accumulator to merge."""
        return ObsNormalizer(int(self.count[row]), self.mean[row], self.m2[row])

    def moments(self) -> ObsNormalizer:
        """Every row's observation moments folded in row order, from a copy
        of row 0; a generation's count is its timesteps."""
        count, mean, m2 = int(self.count[0]), self.mean[0].copy(), self.m2[0].copy()
        for r in range(1, len(self.count)):
            count, mean, m2 = chan_merge(count, mean, m2, int(self.count[r]),
                                         self.mean[r], self.m2[r])
        return ObsNormalizer(count, mean, m2)


def run_episodes(env, weights: np.ndarray, normalizer: ObsNormalizer, seeds,
                 shaping: Shaping = Shaping()) -> Scores:
    """Run one episode per lane, stepping all lanes together.

    Lane ``i`` resets from ``seeds[i]`` and acts with the linear policy
    ``weights[i]`` (``weights`` is ``(L, act_dim, obs_dim)``) until its own
    termination or truncation; its results become row ``i``.  Equal seeds
    (ints, or lists of ints) share one ``initial_state`` draw.  The passed
    normalizer is read once and never touched; each lane's observations go
    into its own moments, covering exactly the observations its policy acted
    on.

    A step computes only what feeds back: the observations, their moments,
    the normalized policy input, the actions and the next states, all
    recorded in arrays allocated once per batch (states as a ``(k, T + 1,
    L)`` trajectory, observations as ``(T, L, obs_dim)``, actions as ``(T,
    L)`` or ``(T, L, act_dim)``).  Each elementwise numpy call of a step
    takes arrays of the lanes' shape or 0-d arrays (see ``_EnvBase``): the
    normalizer's shift and scale and a box's bounds are tiled to the lanes
    once per batch, and Welford's count is a 0-d float.  Every
    ``TERMINATION_BLOCK`` steps, and at the limit, one ``env.terminal`` call
    checks the block's recorded next states: a running lane's first flag
    sets its timesteps and its moments, which are kept for each step of the
    block.  A block of 8 leaves the check out of 7 steps in 8, and a batch
    steps at most 7 steps past its last lane's end.  A finished lane keeps
    stepping with the others, since a step costs about the same for any
    number of lanes; nothing it computes after its end reaches a result, and
    ``np.errstate`` keeps its non-finite values from raising warnings.
    After the loop the observations of every acting step are checked finite
    at once: a non-finite state or box action of a running lane reaches
    them, and the action is named when the step before acted with a
    non-finite one.  Then the box actions acted with are checked finite.
    Both checks first test the whole recorded arrays, and search for an
    acting step only if that test fails, since a finished lane may leave
    non-finite values that count for nothing.  Then one ``env.reward`` call
    scores the whole trajectory, and each lane's rewards are summed in step
    order from 0.0, with the bits of adding them up step by step.  Every
    operation is elementwise per lane or a stacked matmul, so a lane's
    result does not depend on the other lanes.
    """
    spec = env.spec
    space = spec.action_space
    limit = spec.max_episode_steps
    terminal = env.terminal
    weights = np.ascontiguousarray(weights, dtype=float)
    start = _start_states(env, seeds)
    lanes = start.shape[1]
    shift, scale = (np.tile(v, (lanes, 1)) for v in normalizer.affine())
    states = np.empty((len(start), limit + 1, lanes))
    states[:, 0] = start
    box = isinstance(space, Box)
    actions = (np.empty((limit, lanes, space.act_dim)) if box
               else np.empty((limit, lanes), dtype=np.intp))
    if box:                           # act_batch's bounds, tiled to the lanes
        space = SimpleNamespace(half_width=np.tile(space.half_width, (lanes, 1)),
                                low=np.tile(space.low, (lanes, 1)))
    obs = np.empty((limit, lanes, spec.obs_dim))
    mean = m2 = np.zeros((lanes, spec.obs_dim))
    count = np.empty(())              # Welford's count, a 0-d float operand
    out = Scores.zeros(lanes, spec.obs_dim)
    running = np.ones(lanes, dtype=bool)
    block = []                        # (mean, m2) after each step of the block

    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(limit):
            state = states[:, t]
            observed = env.observe(state, obs[t])
            count[()] = t + 1
            mean, m2 = welford_update(count, mean, m2, observed)
            z = (observed - shift) / scale
            env.transition(state, act_batch(weights, space, z, out=actions[t]),
                           states[:, t + 1])
            if terminal is None:
                continue
            block.append((mean, m2))
            if len(block) < TERMINATION_BLOCK and t + 1 < limit:
                continue
            first = t + 1 - len(block)    # the block's first step
            hit = terminal(states[:, first + 1:t + 2])
            ended = np.flatnonzero(hit.any(axis=0) & running)
            if ended.size:
                for lane, j in zip(ended, hit[:, ended].argmax(axis=0)):
                    out.count[lane] = first + j + 1
                    out.mean[lane], out.m2[lane] = block[j][0][lane], block[j][1][lane]
                running[ended] = False
                if not running.any():
                    break
            block = []
        else:
            out.count[running] = limit
            out.mean[running], out.m2[running] = mean[running], m2[running]
        steps = t + 1

        acted = actions[:steps]
        # the masked search for an acting step runs only if the whole array fails
        if not np.isfinite(obs[:steps]).all() or box and not np.isfinite(acted).all():
            acting = np.arange(steps)[:, None] < out.count
            bad = acting & ~np.isfinite(obs[:steps]).all(axis=2)
            if bad.any():
                step = int(bad.any(axis=1).argmax())
                # a non-finite action shows up in the next observation
                if box and step and not np.isfinite(actions[step - 1, bad[step]]).all():
                    raise ValueError("action must be finite")
                raise ValueError("observation must be finite")
            if box and not np.isfinite(acted[acting]).all():
                raise ValueError("action must be finite")
        rewards = env.reward(states[:, :steps], acted, states[:, 1:steps + 1])
    out.raw[:] = _returns(rewards, out.count)
    shaped = shape_reward(rewards, shaping)
    out.shaped[:] = out.raw if shaped is rewards else _returns(shaped, out.count)
    return out


def _start_states(env, seeds) -> np.ndarray:
    """``(k, L)`` start states, one ``initial_state`` draw per distinct seed.
    Only ints and lists of ints are shared: a generator given twice must
    draw twice."""
    drawn = {}
    columns = []
    for seed in seeds:
        key = (tuple(seed) if isinstance(seed, list)
               else seed if isinstance(seed, int) else object())
        if key not in drawn:
            drawn[key] = env.initial_state(np.random.default_rng(seed))
        columns.append(drawn[key])
    return np.stack(columns, axis=1)


def _returns(rewards: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Lane ``i``'s first ``count[i]`` rewards of ``(T, L)`` ``rewards``,
    summed in step order from 0.0: ``np.add.accumulate`` adds one step at a
    time, where ``sum`` would add pairwise and change the bits.  The leading
    zero also makes an all ``-0.0`` episode return ``+0.0``."""
    totals = np.add.accumulate(
        np.concatenate([np.zeros((1, rewards.shape[1])), rewards]), axis=0)
    return totals[count, np.arange(len(count))]


def rollout(env, policy: LinearPolicy, normalizer: ObsNormalizer, episode_seed,
            shaping: Shaping = Shaping()) -> Scores:
    """Run one episode to termination or truncation: a batch of one lane,
    whose results are the returned ``Scores``' one row."""
    return run_episodes(env, policy.weights[None], normalizer, [episode_seed], shaping)


@dataclass(frozen=True)
class Batch:
    """A generation's evaluation request, or a range of one: exactly what a
    TASK carries.

    Row ``r`` of ``x`` is the genome of candidate ``indexes[r]``, drawn
    around the mean ``m`` of generation ``generation``; every lane
    normalizes with the ``normalizer`` snapshot.  ``probe``, if not None, is
    the generation whose test probe the batch owes: the policy ``m`` on that
    generation's ``TEST_EPISODES`` test seeds.
    """

    env_id: str
    master_seed: int
    generation: int
    indexes: range
    x: np.ndarray
    m: np.ndarray
    normalizer: ObsNormalizer
    fitness_spec: FitnessSpec
    probe: int | None = None


def score_candidates(batch: Batch) -> Scores:
    """Fitness of a batch's genomes, all their training episodes as one
    lockstep batch.

    Returns one row per genome, in index order.  An owed probe's episodes run
    as further lanes of the same batch, and their raw returns, bit for bit
    what ``test_policy`` gives, become the ``probe``.  Each row depends only
    on its genome and index, never on which other candidates share the
    batch; probe lanes feed no row.  ``batch.indexes`` must not be empty.
    """
    env = make_env(batch.env_id)
    spec = env.spec
    fitness_spec = batch.fitness_spec
    k = fitness_spec.train_episodes
    genomes = np.asarray(batch.x, dtype=float)
    expect = genome_dim(spec.obs_dim, spec.action_space)
    if genomes.shape != (len(batch.indexes), expect):
        raise ValueError(f"x must be {len(batch.indexes)} rows of {expect}, got {genomes.shape}")
    # row-major by action, as LinearPolicy.from_genome
    shape = (-1, spec.action_space.act_dim, spec.obs_dim)
    weights = np.repeat(genomes.reshape(shape), k, axis=0)
    seeds = [train_episode_seed(batch.master_seed, batch.generation, index, ep,
                                fitness_spec.common_random_numbers)
             for index in batch.indexes for ep in range(k)]
    if batch.probe is not None:
        weights = np.concatenate(
            [weights, np.repeat(batch.m.reshape(shape), TEST_EPISODES, axis=0)])
        seeds += [test_episode_seed(batch.master_seed, batch.probe, ep)
                  for ep in range(TEST_EPISODES)]
    lanes = run_episodes(env, weights, batch.normalizer, seeds, fitness_spec.shaping)
    train_lanes = len(batch.indexes) * k
    out = Scores.zeros(len(batch.indexes), spec.obs_dim)
    out.probe = None if batch.probe is None else lanes.raw[train_lanes:].tolist()
    # candidate c's lanes are c * k .. c * k + k - 1.  Sum each candidate's
    # returns one episode at a time from 0.0: numpy's sum turns pairwise at
    # 8 terms, which would change the bits
    raw_sum = shaped_sum = 0.0
    for ep in range(k):
        raw_sum = raw_sum + lanes.raw[ep:train_lanes:k]
        shaped_sum = shaped_sum + lanes.shaped[ep:train_lanes:k]
    out.raw[:], out.shaped[:] = raw_sum / k, shaped_sum / k
    # fold every candidate's lanes one episode at a time, as merging them
    # into a fresh ObsNormalizer would; counts as (rows, 1) columns
    def episode(ep):
        rows = slice(ep, train_lanes, k)
        return lanes.count[rows, None], lanes.mean[rows], lanes.m2[rows]

    count, mean, m2 = episode(0)
    for ep in range(1, k):
        count, mean, m2 = chan_merge(count, mean, m2, *episode(ep))
    out.count[:], out.mean[:], out.m2[:] = count[:, 0], mean, m2
    return out


def evaluate_candidate(genome: np.ndarray, index: int, env_id: str,
                       normalizer: ObsNormalizer, fitness_spec: FitnessSpec,
                       generation: int, master_seed: int) -> Scores:
    """Fitness of one genome: ``score_candidates`` on a batch of one, which
    owes no probe and so never reads its mean."""
    genome = np.asarray(genome, dtype=float)
    return score_candidates(Batch(env_id, master_seed, generation,
                                  range(index, index + 1), genome[None], genome,
                                  normalizer, fitness_spec))


def evaluate_generation(batch: Batch) -> Scores:
    """``score_candidates`` on a whole generation's ``batch``, in this process."""
    return score_candidates(batch)


def collect_generation(parts, lam: int) -> Scores:
    """Join ``(indexes, scores)`` parts, each a contiguous range of
    candidates with one row per index, into one generation's ``Scores`` in
    index order, whatever order the parts came in.  The parts must cover
    indexes 0..lam-1 exactly; the ``probe`` is the part's that carries one."""
    parts = sorted(parts, key=lambda part: part[0][0])
    if ([index for indexes, _ in parts for index in indexes] != list(range(lam))
            or any(len(scores.count) != len(indexes) for indexes, scores in parts)):
        raise ValueError("candidate evaluations must cover indexes 0..lambda-1")
    columns = (np.concatenate([getattr(scores, name) for _, scores in parts])
               for name in ("raw", "shaped", "count", "mean", "m2"))
    probe = next((scores.probe for _, scores in parts if scores.probe is not None), None)
    return Scores(*columns, probe=probe)


def test_policy(policy: LinearPolicy, normalizer: ObsNormalizer, env_id: str,
                master_seed: int, generation: int,
                episodes: int = TEST_EPISODES) -> tuple[float, list[float]]:
    """Deterministic progress probe: median raw return over fixed seeds."""
    if episodes < 1:
        raise ValueError(f"test_policy needs at least one episode, got {episodes}")
    weights = np.repeat(policy.weights[None], episodes, axis=0)
    seeds = [test_episode_seed(master_seed, generation, ep) for ep in range(episodes)]
    returns = run_episodes(make_env(env_id), weights, normalizer, seeds).raw.tolist()
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
    status: str                       # budget_exhausted | target_reached | degenerate
    records: list[TrainRecord]
    best: Checkpoint | None
    cumulative_timesteps: int
    params: StrategyParams
    state: DistributionState


@dataclass(frozen=True)
class RunSpec:
    """Every setting of one training run.  The constructor checks each field
    through ``policy``'s readers (counts must be Python ints >= 1) and by
    building generation zero, so ``replace`` checks again; ValueError names
    the setting.  A None ``target_return`` or ``max_generations`` sets no
    limit; a None ``fitness_spec`` is the default ``FitnessSpec``."""

    env_id: str
    variant: str
    sigma0: float
    lam: int | str | None
    budget_timesteps: int
    master_seed: int
    fitness_spec: FitnessSpec | None = None
    test_every: int = 1
    target_return: float | None = None
    max_generations: int | None = None

    def __post_init__(self):
        _count(self.budget_timesteps, "budget_timesteps", 1)
        _count(self.test_every, "test_every", 1)
        if self.max_generations is not None:
            _count(self.max_generations, "max_generations", 1)
        object.__setattr__(self, "sigma0", _real(self.sigma0, "sigma0"))
        if self.target_return is not None:
            object.__setattr__(self, "target_return",
                               _real(self.target_return, "target_return"))
        if self.fitness_spec is None:
            object.__setattr__(self, "fitness_spec", FitnessSpec())
        elif not isinstance(self.fitness_spec, FitnessSpec):
            raise ValueError("fitness_spec must be a FitnessSpec, "
                             f"not {self.fitness_spec!r}")
        _check_seed(self.master_seed)
        self.start()

    def start(self) -> tuple:
        """Generation zero: ``(env spec, params, state)``."""
        spec = env_spec(self.env_id)
        n = genome_dim(spec.obs_dim, spec.action_space)
        return (spec, *new_strategy(self.variant, n, self.sigma0, np.zeros(n), self.lam))


def train(env_id: str, variant: str, *, on_generation: Callable | None = None,
          **settings) -> TrainResult:
    """Search policy weights by ask/evaluate/tell until the budget is spent,
    scoring each generation's ``Batch`` in this process with
    ``evaluate_generation``.  ``settings`` are ``RunSpec``'s other fields.

    The test probe of generation g is owed until generation g + 1 is
    evaluated, and runs in g + 1's batch.  g's record, best checkpoint and
    target check come before g + 1's results are merged or told, and a met
    target drops those results, so every recorded number is what probing
    right after g's tell would give.  A probe still owed when the loop ends
    runs alone through ``test_policy``.  ``on_generation(params, state)``
    fires at the start of every generation, including one whose results a
    met target then drops.
    """
    return _drive(RunSpec(env_id, variant, **settings), evaluate_generation,
                  on_generation)


def _drive(spec: RunSpec, evaluate: Callable[[Batch], Scores],
           on_generation: Callable | None = None) -> TrainResult:
    """Run ``spec``, answering each ``Batch`` ``_run`` yields with
    ``evaluate(batch)``, which must give what ``evaluate_generation`` would."""
    run = _run(spec, on_generation)
    try:
        batch = next(run)
        while True:
            batch = run.send(evaluate(batch))
    except StopIteration as done:
        return done.value


def _run(spec: RunSpec, on_generation: Callable | None = None
         ) -> Generator[Batch, Scores, TrainResult]:
    """``train``'s loop: yields each generation's ``Batch``, with the probe
    the previous generation owes, takes back its ``Scores`` in index order
    and returns the ``TrainResult``."""
    env, params, state = spec.start()
    normalizer = ObsNormalizer.create(env.obs_dim)
    records: list[TrainRecord] = []
    best: Checkpoint | None = None
    best_median = -np.inf
    cumulative = 0
    status = "budget_exhausted"
    # generation, budget spent, best training fitness and sigma of the last
    # tested generation, whose record waits for its probe's returns
    owed: tuple[int, int, float, float] | None = None

    def settle(returns: list[float]) -> bool:
        """Record the owed generation; ``state`` and ``normalizer`` are still
        the ones its probe saw.  True when the record meets the target."""
        nonlocal owed, best, best_median
        generation, spent, best_fitness, sigma = owed
        owed = None
        median = float(statistics.median(returns))
        records.append(TrainRecord(generation, spent, median, returns,
                                   best_fitness, sigma))
        if median > best_median:
            best_median = median
            best = Checkpoint(spec.env_id, state.m.copy(), normalizer.frozen_view(),
                              generation, spec.master_seed)
        return spec.target_return is not None and median >= spec.target_return

    while cumulative < spec.budget_timesteps:
        if spec.max_generations is not None and state.g >= spec.max_generations:
            break
        gen = state.g
        if on_generation is not None:
            on_generation(params, state)
        try:
            cands = ask(params, state, spec.master_seed)
        except NumericalDegeneracyError:
            status = "degenerate"
            break
        result = yield Batch(spec.env_id, spec.master_seed, gen, range(params.lam),
                             np.array([c.x for c in cands]), state.m,
                             normalizer.copy(), spec.fitness_spec,
                             None if owed is None else owed[0])
        if owed is not None and settle(result.probe):
            status = "target_reached"
            break
        for c, f in zip(cands, result.shaped):
            c.fitness = float(f)
        delta = result.moments()
        cumulative += delta.count
        normalizer.merge(delta)
        try:
            state = tell(params, state, cands, mode="maximize")
        except NumericalDegeneracyError:
            status = "degenerate"
            break
        if gen % spec.test_every == 0:
            owed = (gen, cumulative, float(np.max(result.shaped)), state.sigma)

    if owed is not None:
        policy = LinearPolicy.from_genome(state.m, env.obs_dim, env.action_space)
        _, returns = test_policy(policy, normalizer, spec.env_id, spec.master_seed,
                                 owed[0])
        if settle(returns):
            status = "target_reached"

    return TrainResult(status, records, best, cumulative, params, state)


CURVE_COLUMNS = ("generation", "cumulative_timesteps", "median_test_return",
                 *(f"test_return_{i}" for i in range(1, TEST_EPISODES + 1)),
                 "best_train_fitness", "sigma")


def write_curve_csv(path: str, records: list[TrainRecord]) -> None:
    """Training curve as CSV; floats keep full round-trip precision."""
    lines = [",".join(CURVE_COLUMNS)]
    for r in records:
        if len(r.test_returns) != TEST_EPISODES:
            raise ValueError(f"curve rows hold {TEST_EPISODES} test returns")
        cells = [str(r.generation), str(r.cumulative_timesteps),
                 repr(r.median_test_return)]
        cells += [repr(v) for v in r.test_returns]
        cells += [repr(r.best_train_fitness), repr(r.sigma)]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _cell(text: str, kind: type):
    """A curve cell as ``write_curve_csv`` writes an int (ASCII digits) or a
    float (the repr of a finite one)."""
    pattern = r"[0-9]+" if kind is int else r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?"
    if re.fullmatch(pattern, text) and (kind is int or math.isfinite(float(text))):
        return kind(text)
    raise ValueError(f"{text!r} is not {'a count' if kind is int else 'a finite number'}")


def read_curve_csv(path: str) -> list[TrainRecord]:
    """Records of a file ``write_curve_csv`` wrote.  Values are checked, not
    coerced; generations and timesteps must increase, and each median must be
    its returns'.  Raises ValueError, naming the file and line, otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh.read().splitlines(), 1) if ln]
    if not lines or lines[0][1] != ",".join(CURVE_COLUMNS):
        raise ValueError(f"{path} is not a training curve file")
    out = []
    for number, ln in lines[1:]:
        cells = ln.split(",")
        try:
            if len(cells) != len(CURVE_COLUMNS):
                raise ValueError(f"{len(cells)} cells, not {len(CURVE_COLUMNS)}")
            generation, steps = _cell(cells[0], int), _cell(cells[1], int)
            if out and (generation <= out[-1].generation
                        or steps <= out[-1].cumulative_timesteps):
                raise ValueError("generation and cumulative_timesteps must increase")
            reals = [_cell(v, float) for v in cells[2:]]
            if reals[0] != statistics.median(reals[1:-2]):
                raise ValueError("median_test_return is not the median of the test returns")
            out.append(TrainRecord(generation, steps, reals[0], reals[1:-2],
                                   reals[-2], reals[-1]))
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from None
    return out
