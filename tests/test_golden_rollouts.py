"""Rollout results pinned bit for bit.

``fixtures/golden_rollouts.json`` (written by ``tools/make_fixtures.py``)
holds, for a few fixed generations of each environment, every candidate's
fitness, raw return, timesteps and observation delta and the test-probe
returns, all as ``float.hex``; a candidate's timesteps are its delta's
count.  Every way of scoring a candidate must
reproduce those bits: alone, inside its full generation, and inside a
reversed or split batch of its generation.  The probe's returns must be the
same whether it runs alone or as lanes of a generation's batch.
"""

import json
import os

import numpy as np
import pytest

from evolin import (FitnessSpec, LinearPolicy, ObsNormalizer, Probe, env_spec,
                    make_env)
from evolin import test_policy as run_test_protocol
from evolin.es import Candidate
from evolin.envs import CartPole
from evolin.evaluate import (evaluate_candidate, evaluate_generation, rollout,
                             score_candidates)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_rollouts.json")

with open(FIXTURE, encoding="utf-8") as _fh:
    CASES = json.load(_fh)["cases"]


def floats(hexes) -> np.ndarray:
    return np.array([float.fromhex(h) for h in hexes])


def normalizer(doc) -> ObsNormalizer:
    return ObsNormalizer(doc["count"], floats(doc["mean"]), floats(doc["m2"]))


def setup(case):
    cands = [Candidate(i, np.zeros(0), floats(c["genome"]))
             for i, c in enumerate(case["candidates"])]
    return (cands, normalizer(case["normalizer"]),
            FitnessSpec.from_dict(case["fitness_spec"]))


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
    cands, norm, spec = setup(case)
    for cand, want in zip(cands, case["candidates"]):
        scores = evaluate_candidate(cand.x, cand.index, case["env_id"], norm, spec,
                                    case["generation"], case["master_seed"])
        assert len(scores.raw) == 1
        assert_matches(scores, 0, want)


def sub_batches(lam: int) -> list[list[int]]:
    """The full generation, reversed, and split unevenly (ragged halves and
    every other index), so each candidate meets different neighbours."""
    idx = list(range(lam))
    half = lam // 2 + 1
    return [idx, idx[::-1], idx[:half], idx[half:], idx[::2], idx[1::2][::-1]]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_candidate_results_do_not_depend_on_batch(case) -> None:
    cands, norm, spec = setup(case)
    env = make_env(case["env_id"])
    for batch in sub_batches(len(cands)):
        scores, returns = score_candidates([cands[i].x for i in batch], batch, env,
                                           norm, spec, case["generation"],
                                           case["master_seed"])
        assert len(scores.raw) == len(batch) and returns is None
        for row, index in enumerate(batch):
            assert_matches(scores, row, case["candidates"][index])


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_generation_batches_match_fixture(case, order) -> None:
    cands, norm, spec = setup(case)
    if order == "reversed":
        cands = cands[::-1]
    gen = evaluate_generation(cands, case["env_id"], norm, spec, case["generation"],
                              case["master_seed"])
    want = case["candidates"]
    assert [f.hex() for f in gen.fitnesses] == [c["fitness"] for c in want]
    assert [r.hex() for r in gen.raw_returns] == [c["raw_return"] for c in want]
    assert gen.delta.count == sum(c["timesteps"] for c in want)
    assert_same_bits(gen.delta, expected_generation_delta(case))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_probe_matches_fixture(case) -> None:
    cands, norm, _ = setup(case)
    spec = env_spec(case["env_id"])
    policy = LinearPolicy.from_genome(cands[0].x, spec.obs_dim, spec.action_space)
    median, returns = run_test_protocol(policy, norm, case["env_id"],
                                        case["master_seed"], case["generation"])
    assert [r.hex() for r in returns] == case["probe"]["returns"]
    assert median.hex() == case["probe"]["median"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_probe_lanes_in_a_generation_batch_match_fixture(case) -> None:
    cands, norm, spec = setup(case)
    env_id, generation, seed = case["env_id"], case["generation"], case["master_seed"]
    espec = env_spec(env_id)
    policy = LinearPolicy.from_genome(cands[0].x, espec.obs_dim, espec.action_space)
    alone = evaluate_generation(cands, env_id, norm, spec, generation, seed)
    merged = evaluate_generation(cands, env_id, norm, spec, generation, seed,
                                 probe=Probe(policy, generation))
    _, returns = run_test_protocol(policy, norm, env_id, seed, generation)

    assert alone.probe_returns is None
    assert [r.hex() for r in merged.probe_returns] == case["probe"]["returns"]
    assert merged.probe_returns == returns
    # probe lanes leave the generation's own numbers untouched
    assert merged.fitnesses.tobytes() == alone.fitnesses.tobytes()
    assert merged.raw_returns.tobytes() == alone.raw_returns.tobytes()
    assert_same_bits(merged.delta, alone.delta)
    assert_same_bits(merged.delta, expected_generation_delta(case))


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
