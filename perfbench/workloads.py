"""The benchmark's workloads: what each job runs and which master seeds it uses.

A job is one fixed amount of work (a fixed generation count, or a fixed
evaluation cap with no early stop), run in a fresh process.  A run repeats
jobs over the workload's panel of master seeds.

The RL workloads pin their master seeds.  Across seeds the generation at
which cartpole or pendulum first meets its threshold ranges from 0 to "not
within 60 generations", so a panel drawn from ``--seed`` would move
time-to-solve by far more than any bound a speed change can be judged by.
``--seed`` orders the pinned panel.  ``testfunc-es`` draws its master seeds
from ``--seed``: CMA-ES on a convex quadratic needs nearly the same number of
evaluations on every seed, so its figures stay steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

WORKLOADS = ("pendulum-lam32", "testfunc-es", "cartpole-dist2")


@dataclass(frozen=True)
class RLJob:
    env_id: str
    variant: str
    sigma0: float
    lam: int | str
    generations: int
    threshold: float
    workers: int                 # 0 runs locally through train()


@dataclass(frozen=True)
class Problem:
    label: str
    function: str                # "sphere" | "rotated_ellipsoid"
    variant: str
    cap: int                     # evaluation cap; optimize runs to it
    target: float


@dataclass(frozen=True)
class ESJob:
    n: int
    rotation_seed: int
    problems: tuple[Problem, ...]
    headline: str                # label of the problem time-to-solve reports


# The pendulum bar is criterion 3's swing-up performance (-800); the env's own
# solved threshold (-100) is out of reach of linear policies at this budget.
# Seeds 0 and 1 first reach it at generations 7 and 11.
PENDULUM = RLJob("pendulum", "sep-cma", 0.1, "default", 25, -800.0, 0)
# Cartpole uses its env's solved threshold (475) on 50 generations, as in the
# byte-identity gate's distributed run.
CARTPOLE_DIST = RLJob("cartpole", "csa", 0.1, 4, 50, 475.0, 2)
# Criterion 4's suite and caps: sphere for cma, then each variant on the
# rotated ellipsoid.  Only cma reaches 1e-6 on the rotated ellipsoid within the
# cap; that is the suite's claim, so its time to target is the headline.
TESTFUNC = ESJob(10, 7, (
    Problem("sphere-cma", "sphere", "cma", 5000, 1e-8),
    Problem("rotell-csa", "rotated_ellipsoid", "csa", 20_000, 1e-6),
    Problem("rotell-sep-cma", "rotated_ellipsoid", "sep-cma", 20_000, 1e-6),
    Problem("rotell-cma", "rotated_ellipsoid", "cma", 20_000, 1e-6),
), "rotell-cma")

JOBS = {"pendulum-lam32": PENDULUM, "cartpole-dist2": CARTPOLE_DIST,
        "testfunc-es": TESTFUNC}
# Two seeds, so that each gets several jobs in a run and time to solve, a
# window of one or two seconds, is the mean of two per-seed medians rather
# than one seed's few samples.  Two seeds also keep the distributed
# workload's local twins affordable.
PINNED_PANELS = {"pendulum-lam32": (0, 1), "cartpole-dist2": (0, 1)}
TESTFUNC_PANEL_SIZE = 8


def smoke_job(workload: str):
    """A size of the workload that runs in seconds, for the benchmark's tests."""
    job = JOBS[workload]
    if isinstance(job, RLJob):
        return replace(job, generations=3)
    return replace(job, problems=tuple(replace(p, cap=200) for p in job.problems))


def panel(workload: str, seed: int, smoke: bool = False) -> list[int]:
    """Master seeds of a run, in the order its jobs cycle through them."""
    rng = random.Random(seed)
    if workload in PINNED_PANELS:
        seeds = list(PINNED_PANELS[workload])
        rng.shuffle(seeds)
    else:
        seeds = [rng.randrange(2**32) for _ in range(TESTFUNC_PANEL_SIZE)]
    return seeds[:2] if smoke else seeds
