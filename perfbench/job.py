"""One fixed-work job of a workload, in a fresh process.

Prints ``ready`` on its own line when set-up ends (imports, test-function
construction, and for the distributed workload worker spawn plus HELLO),
then one JSON line with the job's timings, outcome and outputs.  The curve
CSV is written after the timed region.

    python3 perfbench/job.py --workload W --seed S --out DIR --tag T [--trace] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import workloads

perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Generation boundaries seen through the public ``on_generation`` hook."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.marks: list[float] = []

    def start(self) -> None:
        print("ready", flush=True)
        if self.tracer is not None:
            self.tracer.start_timed()
        self.marks.append(perf())

    def mark(self, *_args) -> None:
        self.marks.append(perf())

    def stop(self) -> float:
        if self.tracer is not None:
            self.tracer.stop_timed()
        return perf()


def spawn_workers(count: int, address, out: str, tag: str, trace: bool):
    host, port = address
    procs, span_files = [], []
    for w in range(count):
        path = os.path.join(out, f"{tag}-worker{w}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--connect", f"{host}:{port}", "--worker-id", f"{tag}-w{w}"]
        if trace:
            cmd += ["--spans", path]
            span_files.append(path)
        procs.append(subprocess.Popen(cmd, stdout=subprocess.DEVNULL))
    return procs, span_files


def run_rl(job: workloads.RLJob, seed: int, out: str, tag: str, tracer) -> dict:
    import evolin

    clock = Clock(tracer)
    kw = dict(sigma0=job.sigma0, lam=job.lam, budget_timesteps=10**12,
              master_seed=seed, max_generations=job.generations)
    worker_exit, drops, span_files = [], [], []

    def hook(params, state):
        if state.g == 0:
            clock.start()
        else:
            clock.mark()

    if job.workers:
        server = evolin.MasterServer()
        procs = []
        try:
            procs, span_files = spawn_workers(job.workers, server.address, out,
                                              tag, tracer is not None)
            result = evolin.train_distributed(
                job.env_id, job.variant, **kw, expected_workers=job.workers,
                server=server, wait_timeout=60.0, run_id=tag,
                on_generation=hook)
            end = clock.stop()
            drops = [f"{w}: {r}" for w, r in server.dropped]
        finally:
            server.close()
            for p in procs:
                try:
                    worker_exit.append(p.wait(timeout=30))
                except subprocess.TimeoutExpired:
                    p.kill()
                    worker_exit.append(p.wait())
    else:
        result = evolin.train(job.env_id, job.variant, **kw, on_generation=hook)
        end = clock.stop()
    rss = peak_rss_mb()

    marks = clock.marks + [end]
    t0 = marks[0]
    solved = next((r for r in result.records
                   if r.median_test_return >= job.threshold), None)
    if solved is not None:
        # the probe of generation g ends where generation g + 1 begins
        solve_time = marks[solved.generation + 1] - t0
        solve_budget = solved.cumulative_timesteps
    else:
        solve_time, solve_budget = end - t0, result.cumulative_timesteps
    curve = os.path.join(out, f"{tag}.csv")
    evolin.write_curve_csv(curve, result.records)
    workers = []
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            workers.append(json.load(fh)["busy"])
    return {
        "wall_s": end - t0,
        "gen_ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        "generations": len(result.records),
        "evals": result.params.lam * len(result.records),
        "train_steps": result.cumulative_timesteps,
        "solved": [solved is not None],
        "solve_time_s": solve_time,
        "solve_budget": solve_budget,
        "status": result.status,
        "rss_mb": rss,
        "curve": curve,
        "drops": drops,
        "worker_exit": worker_exit,
        "worker_busy": workers,
    }


def run_es(job: workloads.ESJob, seed: int, tracer) -> dict:
    import numpy as np
    import evolin

    functions = {"sphere": evolin.sphere(job.n),
                 "rotated_ellipsoid": evolin.rotated_ellipsoid(
                     job.n, 1e6, seed=job.rotation_seed)}
    lam = evolin.cma_popsize(job.n)
    clock = Clock(tracer)
    clock.start()
    runs = []
    for p in job.problems:
        fn = functions[p.function]
        hit = []
        start = perf()

        def hook(params, state, cands, _hit=hit, _target=p.target):
            clock.mark()
            # state.g already counts this generation
            if not _hit and min(c.fitness for c in cands) <= _target:
                _hit.append((perf(), state.g))

        r = evolin.optimize(fn, p.variant, np.ones(job.n), 1.0,
                            budget_evals=p.cap, target=None, seed=seed,
                            lam="cma", on_generation=hook)
        runs.append({"result": r, "hit": hit[0] if hit else None,
                     "start": start, "finish": perf()})
    end = clock.stop()
    rss = peak_rss_mb()

    marks = clock.marks
    problems, solved = [], []
    for run, p in zip(runs, job.problems):
        r, hit = run["result"], run["hit"]
        if hit is not None:
            t, g = hit
            evals_to_target = 1 + g * lam
        else:
            t, evals_to_target = run["finish"], r.evals
        solved.append(hit is not None)
        problems.append({
            "label": p.label,
            "time_to_target_s": t - run["start"],
            "evals_to_target": evals_to_target,
            "reached": hit is not None,
            "evals": r.evals,
            "best_f": repr(r.best_f),
            "sigma": repr(r.history[-1].sigma),
            # the reported optimum must be what the objective says it is
            "best_f_recomputed": functions[p.function](r.best_x) == r.best_f,
        })
    head = next(pr for pr in problems if pr["label"] == job.headline)
    return {
        "wall_s": end - marks[0],
        # between consecutive hooks; the first of each optimize call also
        # covers its set-up (new_strategy and one objective call)
        "gen_ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        "generations": len(marks) - 1,
        "evals": sum(pr["evals"] for pr in problems),
        "solved": solved,
        "solve_time_s": head["time_to_target_s"],
        "solve_budget": head["evals_to_target"],
        "status": "ok" if all(pr["best_f_recomputed"] for pr in problems) else "mismatch",
        "rss_mb": rss,
        "problems": problems,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    import evolin  # noqa: F401  (set-up includes the import)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(args.tag)
        spans.install(tracer)
    job = (workloads.smoke_job(args.workload) if args.smoke
           else workloads.JOBS[args.workload])
    if isinstance(job, workloads.RLJob):
        res = run_rl(job, args.seed, args.out, args.tag, tracer)
    else:
        res = run_es(job, args.seed, tracer)
    if tracer is not None:
        res["layers"] = tracer.summary()
        tracer.write(os.path.join(args.out, f"{args.tag}-spans.json"))
    res["seed"] = args.seed
    print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
