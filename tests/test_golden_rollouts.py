"""Rollout results pinned bit for bit.

``fixtures/golden_rollouts.json`` (written by ``tools/make_fixtures.py``)
holds, for a few fixed generations of each environment, every candidate's
fitness, raw return, timesteps and observation delta and the test-probe
returns, all as ``float.hex``; a candidate's timesteps are its delta's
count.  Every way of scoring a candidate must
reproduce those bits: alone, inside its full generation's ``Batch``, and
inside uneven ranges of it, whose results fold to the same generation in
either order.  The probe's returns must be the same whether it runs alone
or as lanes of a generation's batch.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from evolin import (Batch, FitnessSpec, LinearPolicy, ObsNormalizer, env_spec)
from evolin import test_policy as run_test_protocol
from evolin.envs import CartPole
from evolin.evaluate import (collect_generation, evaluate_candidate,
                             evaluate_generation, rollout, score_candidates)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_rollouts.json")

with open(FIXTURE, encoding="utf-8") as _fh:
    CASES = json.load(_fh)["cases"]


def floats(hexes) -> np.ndarray:
    return np.array([float.fromhex(h) for h in hexes])


def normalizer(doc) -> ObsNormalizer:
    return ObsNormalizer(doc["count"], floats(doc["mean"]), floats(doc["m2"]))


def setup(case) -> Batch:
    """The case's generation as a ``Batch`` whose mean, the policy of any
    probe it owes, is genome 0: the fixture probes that policy."""
    x = np.array([floats(c["genome"]) for c in case["candidates"]])
    return Batch(case["env_id"], case["master_seed"], case["generation"],
                 range(len(x)), x, x[0], normalizer(case["normalizer"]),
                 FitnessSpec.from_dict(case["fitness_spec"]))


def part(batch: Batch, indexes: range) -> Batch:
    return replace(batch, indexes=indexes, x=batch.x[indexes.start:indexes.stop])


def assert_same_bits(a: ObsNormalizer, b: ObsNormalizer) -> None:
    assert a.count == b.count
    assert a.mean.tobytes() == b.mean.tobytes()
    assert a.m2.tobytes() == b.m2.tobytes()


def assert_matches(scores, row, want) -> None:
    assert scores.shaped[row].hex() == want["fitness"]
    assert scores.raw[row].hex() == want["raw_return"]
    assert scores.count[row] == want["timesteps"]
    assert_same_bits(scores.delta(row), normalizer(want["delta"]))


def expected_generation_delta(case) -> ObsNormalizer:
    total = ObsNormalizer.create(env_spec(case["env_id"]).obs_dim)
    for c in case["candidates"]:
        total.merge(normalizer(c["delta"]))
    return total


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_candidate_scored_alone_matches_fixture(case) -> None:
    batch = setup(case)
    for index, want in zip(batch.indexes, case["candidates"]):
        scores = evaluate_candidate(batch.x[index], index, case["env_id"],
                                    batch.normalizer, batch.fitness_spec,
                                    case["generation"], case["master_seed"])
        assert len(scores.raw) == 1
        assert_matches(scores, 0, want)


def sub_ranges(lam: int) -> list[range]:
    """The full generation and uneven ranges of it (ragged halves, and all
    but the first or the last index), so each candidate meets different
    neighbours."""
    half = lam // 2 + 1
    return [range(lam), range(half), range(half, lam), range(1, lam),
            range(lam - 1)]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_candidate_results_do_not_depend_on_batch(case) -> None:
    batch = setup(case)
    for indexes in sub_ranges(len(batch.indexes)):
        scores = score_candidates(part(batch, indexes))
        assert len(scores.raw) == len(indexes) and scores.probe is None
        for row, index in enumerate(indexes):
            assert_matches(scores, row, case["candidates"][index])


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_generation_batches_match_fixture(case, order) -> None:
    # the whole generation as one batch, or as batches of one candidate
    # folded from the last index to the first
    batch = setup(case)
    if order == "forward":
        gen = evaluate_generation(batch)
    else:
        singles = [range(i, i + 1) for i in reversed(batch.indexes)]
        gen = collect_generation([(r, score_candidates(part(batch, r)))
                                  for r in singles], len(batch.indexes))
    want = case["candidates"]
    assert [f.hex() for f in gen.shaped] == [c["fitness"] for c in want]
    assert [r.hex() for r in gen.raw] == [c["raw_return"] for c in want]
    assert gen.moments().count == sum(c["timesteps"] for c in want)
    assert_same_bits(gen.moments(), expected_generation_delta(case))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_probe_matches_fixture(case) -> None:
    batch = setup(case)
    spec = env_spec(case["env_id"])
    policy = LinearPolicy.from_genome(batch.m, spec.obs_dim, spec.action_space)
    median, returns = run_test_protocol(policy, batch.normalizer, case["env_id"],
                                        case["master_seed"], case["generation"])
    assert [r.hex() for r in returns] == case["probe"]["returns"]
    assert median.hex() == case["probe"]["median"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_probe_lanes_in_a_generation_batch_match_fixture(case) -> None:
    batch = setup(case)
    env_id, generation, seed = case["env_id"], case["generation"], case["master_seed"]
    espec = env_spec(env_id)
    policy = LinearPolicy.from_genome(batch.m, espec.obs_dim, espec.action_space)
    alone = evaluate_generation(batch)
    merged = evaluate_generation(replace(batch, probe=generation))
    _, returns = run_test_protocol(policy, batch.normalizer, env_id, seed, generation)

    assert alone.probe is None
    assert [r.hex() for r in merged.probe] == case["probe"]["returns"]
    assert merged.probe == returns
    # probe lanes leave the generation's own numbers untouched
    assert merged.shaped.tobytes() == alone.shaped.tobytes()
    assert merged.raw.tobytes() == alone.raw.tobytes()
    assert_same_bits(merged.moments(), alone.moments())
    assert_same_bits(merged.moments(), expected_generation_delta(case))


class _DivergedCartPole(CartPole):
    def initial_state(self, rng):
        return np.array([np.inf, 0.0, 0.0, 0.0])


def test_rollouts_reject_non_finite_observations() -> None:
    policy = LinearPolicy.from_genome(np.zeros(8), 4, env_spec("cartpole").action_space)
    with pytest.raises(ValueError):
        rollout(_DivergedCartPole(), policy, ObsNormalizer.create(4), 0)


def test_rollouts_reject_non_finite_torque() -> None:
    spec = env_spec("pendulum")
    genome = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        evaluate_candidate(genome, 0, "pendulum", ObsNormalizer.create(spec.obs_dim),
                           FitnessSpec(), 0, 1)
