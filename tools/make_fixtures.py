"""Regenerate the committed test fixtures.

Writes one reference trajectory per environment (100 steps, scripted
actions, fixed reset seed), a small trained cart-pole checkpoint used by
the CLI tests, and the golden rollout file: every candidate's fitness, raw
return, timesteps and observation delta (whose count is the timesteps),
plus the test-probe returns, for a few fixed generations of each
environment, with every float stored exactly as ``float.hex``, and the
golden training file: the curve CSV, status, budget spent, final generation
and best checkpoint of a few whole training runs, and the golden optimize
file: every history row, the status and the best point of a few ``optimize``
runs, and the golden wire file: every TASK and RESULT line of the first
generations of two distributed runs.  Run from the repository root:

    python3 tools/make_fixtures.py
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from evolin import (FitnessSpec, LinearPolicy, ObsNormalizer, Shaping,
                    env_spec, genome_dim, make_env, optimize, save_checkpoint,
                    test_policy, train, write_curve_csv)
from evolin import evaluate, testfuncs
from evolin.distributed import (build_gen_message, decode_message, encode_message,
                                gen_context, result_message, run_task,
                                scores_from_result, split_ranges)
from evolin.evaluate import RunSpec, collect_generation, evaluate_candidate

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
        scores = evaluate_candidate(x, i, env_id, norm, fitness_spec, generation,
                                    master_seed)
        candidates.append({"genome": hexes(x), "fitness": scores.shaped[0].hex(),
                           "raw_return": scores.raw[0].hex(),
                           "timesteps": int(scores.count[0]),
                           "delta": normalizer_doc(scores.delta(0))})
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


# name, env, variant and train() keywords; "degenerate_at" makes the tell
# that reaches that generation hand back non-finite covariance factors, so
# the next ask raises NumericalDegeneracyError
GOLDEN_TRAIN_CASES = (
    ("pendulum-sep-cma-lam32", "pendulum", "sep-cma",
     dict(sigma0=0.1, lam=32, budget_timesteps=10**12, master_seed=0,
          max_generations=25)),
    ("cartpole-cma-target", "cartpole", "cma",
     dict(sigma0=0.1, lam=4, budget_timesteps=10**9, master_seed=3,
          target_return=475.0)),
    ("cartpole-csa-every3", "cartpole", "csa",
     dict(sigma0=0.1, lam=4, budget_timesteps=10**9, master_seed=2,
          test_every=3, max_generations=20)),
    ("cartpole-sep-cma-degenerate", "cartpole", "sep-cma",
     dict(sigma0=0.1, lam=4, budget_timesteps=10**9, master_seed=1,
          max_generations=10, degenerate_at=4)),
    ("cartpole-sep-cma-budget", "cartpole", "sep-cma",
     dict(sigma0=0.1, lam=6, budget_timesteps=3000, master_seed=4,
          test_every=2)),
)


@contextlib.contextmanager
def degenerate_from(generation: int | None):
    """Poison ``tell`` so the state it returns at ``generation`` cannot be
    sampled from; a no-op for None."""
    real_tell = evaluate.tell

    def poisoned_tell(*args, **kwargs):
        new = real_tell(*args, **kwargs)
        if new.g >= generation:
            if new.c_diag is not None:
                new.c_diag = np.full_like(new.c_diag, np.inf)
            else:
                new.eig_scale = np.full_like(new.eig_scale, np.inf)
        return new

    if generation is not None:
        evaluate.tell = poisoned_tell
    try:
        yield
    finally:
        evaluate.tell = real_tell


def golden_train_case(name, env_id, variant, kwargs) -> dict:
    """Train one whole run with the code as it stands and record its outcome."""
    train_kw = dict(kwargs)
    with degenerate_from(train_kw.pop("degenerate_at", None)):
        result = train(env_id, variant, **train_kw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.csv")
        write_curve_csv(path, result.records)
        with open(path, encoding="utf-8", newline="") as fh:
            curve = fh.read()
    return {"name": name, "env_id": env_id, "variant": variant, "kwargs": kwargs,
            "curve_csv": curve, "status": result.status,
            "cumulative_timesteps": result.cumulative_timesteps,
            "state_g": result.state.g, "state_m": hexes(result.state.m),
            "state_sigma": result.state.sigma.hex(),
            "best_generation": result.best.generation,
            "best_genome": hexes(result.best.genome),
            "best_normalizer": normalizer_doc(result.best.normalizer)}


def write_golden_train() -> None:
    doc = {"cases": [golden_train_case(*case) for case in GOLDEN_TRAIN_CASES]}
    path = os.path.join(FIXTURE_DIR, "golden_train.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote", path)


# name, test function and its arguments, variant and optimize() keywords; each
# case runs once per seed in GOLDEN_OPTIMIZE_SEEDS from m0 = ones(n)
GOLDEN_OPTIMIZE_CASES = tuple(
    (f"rotated-ellipsoid-{variant}", "rotated_ellipsoid", dict(n=10, cond=1e6, seed=7),
     variant, dict(sigma0=1.0, budget_evals=2000))
    for variant in ("csa", "sep-cma", "cma")) + (
    ("sphere-cma-target", "sphere", dict(n=10), "cma",
     dict(sigma0=1.0, budget_evals=2000, target=1e-8)),
)
GOLDEN_OPTIMIZE_SEEDS = (0, 1)


def history_row(record) -> str:
    """One ``OptRecord`` as ``generation evals best_f_gen best_f sigma``."""
    return " ".join([str(record.generation), str(record.evals),
                     *hexes((record.best_f_gen, record.best_f, record.sigma))])


def golden_optimize_case(name, function, args, variant, kwargs, seed) -> dict:
    """Minimize one test function with the code as it stands and record it."""
    fn = getattr(testfuncs, function)(**args)
    result = optimize(fn, variant, np.ones(fn.n), seed=seed, **kwargs)
    return {"name": name, "function": function, "args": args, "variant": variant,
            "kwargs": kwargs, "seed": seed, "status": result.status,
            "evals": result.evals, "best_f": result.best_f.hex(),
            "best_x": hexes(result.best_x),
            "history": [history_row(r) for r in result.history]}


def write_golden_optimize() -> None:
    doc = {"cases": [golden_optimize_case(*case, seed) for case in GOLDEN_OPTIMIZE_CASES
                     for seed in GOLDEN_OPTIMIZE_SEEDS]}
    path = os.path.join(FIXTURE_DIR, "golden_optimize.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote", path)


# name, env, variant and RunSpec keywords of the runs whose TASK and RESULT
# lines golden_wire.json holds, each generation cut into WIRE_PARTS ranges
GOLDEN_WIRE_CASES = tuple(
    (f"{env_id}-csa-lam{lam}", env_id, "csa",
     dict(sigma0=0.5, lam=lam, budget_timesteps=10**9, master_seed=7, max_generations=3))
    for env_id, lam in (("cartpole", 4), ("pendulum", 32)))
WIRE_PARTS = 2


def golden_wire_case(name, env_id, variant, kwargs) -> dict:
    """Run a master and its workers through the codec, without sockets, and
    record every line in the order it is sent: each range's TASK, then the
    RESULT that answers it."""
    run_id = f"{env_id}-{variant}-seed{kwargs['master_seed']}"
    lines = []

    def answer(batch):
        spans = split_ranges(len(batch.indexes), WIRE_PARTS)
        parts = []
        for span in spans:
            task = replace(batch, indexes=span, x=batch.x[span.start:span.stop],
                           probe=batch.probe if span is spans[-1] else None)
            lines.append(encode_message(build_gen_message(task, run_id)))
            rid, got = gen_context(decode_message(lines[-1]))
            lines.append(encode_message(result_message(
                rid, got.generation, got.indexes.start, run_task(got, got.indexes))))
            parts.append((span, scores_from_result(decode_message(lines[-1]), task,
                                                   run_id)))
        return collect_generation(parts, len(batch.indexes))

    evaluate._drive(RunSpec(env_id, variant, **kwargs), answer)
    return {"name": name, "env_id": env_id, "variant": variant, "kwargs": kwargs,
            "run_id": run_id, "parts": WIRE_PARTS,
            "lines": [line.decode("utf-8").rstrip("\n") for line in lines]}


def write_golden_wire() -> None:
    doc = {"cases": [golden_wire_case(*case) for case in GOLDEN_WIRE_CASES]}
    path = os.path.join(FIXTURE_DIR, "golden_wire.json")
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
    write_golden_train()
    write_golden_optimize()
    write_golden_wire()
    return 0


if __name__ == "__main__":
    sys.exit(main())
