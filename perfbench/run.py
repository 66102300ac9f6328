"""evolin benchmark: time to solve and throughput, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  A
run repeats fixed-work jobs (see workloads.py), each in a fresh process,
until ``--seconds`` have passed and every master seed of the run's panel has
had a job.  Outputs are then checked outside the timed region: repeated jobs
of one seed must give byte-equal curves or identical optimize results, and
each distributed curve must be byte-equal to a local ``train`` twin.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs of the same seed, reports per-layer metrics from the
traced ones with the tracing overhead, and runs the layer microbenchmarks.
Readable lines come first; the last line is one JSON object.  The exit code
is 1 when a check fails and 2 when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict

# One BLAS thread in this process and every process it starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import workloads  # noqa: E402

perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB_TIMEOUT_S = 150.0
# Share of a traced generation's wall time that its ask, evaluate, tell and
# probe spans must cover.
COVERAGE_MIN = 0.9
LAYERS = ("es", "envs", "policy", "evaluate", "distributed", "testfuncs")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "evals_per_s": "1/s", "gen_ms_p50": "ms",
    "gen_ms_p90": "ms", "time_to_solve_s": "s", "budget_to_solve_median": "count",
    "solved_share": "ratio", "peak_rss_mb": "MB",
}


class Failures:
    """Attempted operations and the ones that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.reasons.append(reason)
        return ok


def run_job(workload: str, seed: int, out: str, tag: str, trace: bool,
            smoke: bool) -> dict:
    """Run one job in a fresh process; set-up is timed from spawn to ready."""
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload", workload,
           "--seed", str(seed), "--out", out, "--tag", tag]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    t = perf()
    # its own process group, so a hung job is killed with its workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(JOB_TIMEOUT_S, kill_group)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf() - t
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or code != 0 or not lines:
        return {"seed": seed, "tag": tag, "error": f"exit code {code}"}
    res = json.loads(lines[-1])
    res.update(tag=tag, setup_s=setup, traced=trace)
    return res


def job_ok(res: dict, job, failures: Failures) -> bool:
    tag = res["tag"]
    if not failures.check("error" not in res, f"{tag}: job failed ({res.get('error')})"):
        return False
    ok = res["status"] in ("budget_exhausted", "ok")
    if isinstance(job, workloads.RLJob):
        ok = ok and res["generations"] == job.generations
        ok = ok and not res["drops"] and all(c == 0 for c in res["worker_exit"])
    return failures.check(ok, f"{tag}: status {res['status']}, "
                              f"{res.get('generations')} generations, "
                              f"drops {res.get('drops')}, "
                              f"worker exits {res.get('worker_exit')}")


def output_key(res: dict):
    if "curve" in res:
        with open(res["curve"], "rb") as fh:
            return fh.read()
    return [(p["label"], p["evals"], p["evals_to_target"], p["best_f"], p["sigma"])
            for p in res["problems"]]


def check_outputs(job, jobs: list[dict], out: str, failures: Failures) -> None:
    """Repeated seeds must agree; distributed curves must match local twins."""
    by_seed = defaultdict(list)
    for res in jobs:
        by_seed[res["seed"]].append(output_key(res))
    if isinstance(job, workloads.RLJob) and job.workers:
        import evolin

        for seed, keys in sorted(by_seed.items()):
            twin = evolin.train(job.env_id, job.variant, sigma0=job.sigma0,
                                lam=job.lam, budget_timesteps=10**12,
                                master_seed=seed, max_generations=job.generations)
            path = os.path.join(out, f"twin-{seed}.csv")
            evolin.write_curve_csv(path, twin.records)
            with open(path, "rb") as fh:
                local = fh.read()
            failures.check(all(k == local for k in keys),
                           f"seed {seed}: distributed curve differs from local train")
        return
    for seed, keys in sorted(by_seed.items()):
        if len(keys) > 1:
            failures.check(all(k == keys[0] for k in keys),
                           f"seed {seed}: repeated jobs gave different outputs")


def median_per_seed(jobs: list[dict], value) -> float:
    """Median over seeds of each seed's median, so repeats do not weigh in."""
    by_seed = defaultdict(list)
    for res in jobs:
        by_seed[res["seed"]].append(value(res))
    return statistics.median(statistics.median(v) for v in by_seed.values())


def percentile(samples: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(samples, q))


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99.9, 99, 95, 90, 75):
        if len(samples) * (1 - q / 100) >= 10:
            return f"p{q:g}={percentile(samples, q):.6g}"
    return "no tail percentile"


def end_to_end(jobs: list[dict]) -> tuple[dict, list[str]]:
    first = {}
    for res in jobs:
        first.setdefault(res["seed"], res)
    gen_ms = [g for res in jobs for g in res["gen_ms"]]
    setups = [res["setup_s"] for res in jobs]
    walls = [res["wall_s"] for res in jobs]
    solved = [s for res in first.values() for s in res["solved"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": median_per_seed(jobs, lambda r: r["wall_s"]),
        "evals_per_s": median_per_seed(jobs, lambda r: r["evals"] / r["wall_s"]),
        "gen_ms_p50": percentile(gen_ms, 50),
        "gen_ms_p90": percentile(gen_ms, 90),
        "time_to_solve_s": median_per_seed(jobs, lambda r: r["solve_time_s"]),
        "budget_to_solve_median": median_per_seed(jobs, lambda r: r["solve_budget"]),
        "solved_share": sum(solved) / len(solved),
        "peak_rss_mb": statistics.median(res["rss_mb"] for res in jobs),
    }
    n_seeds = len(first)
    notes = {
        "setup_s": f"{tail(setups)} n={len(setups)} jobs",
        "wall_s": f"{tail(walls)} n={len(walls)} jobs over {n_seeds} seeds",
        "gen_ms_p50": f"{tail(gen_ms)} n={len(gen_ms)} generations",
        "gen_ms_p90": f"n={len(gen_ms)} generations",
        "time_to_solve_s": f"median over {n_seeds} seeds",
        "budget_to_solve_median": f"median over {n_seeds} seeds",
        "solved_share": f"{sum(solved)} of {len(solved)}",
    }
    lines = [f"{k} = {v:.6g} {END_TO_END[k]}  {notes.get(k, '')}".rstrip()
             for k, v in values.items()]
    if "train_steps" in jobs[0]:
        rate = median_per_seed(jobs, lambda r: r["train_steps"] / r["wall_s"])
        lines.append(f"env_steps_per_s = {rate:.6g} 1/s  training timesteps")
        lines.append(f"steps_to_solve_median = {values['budget_to_solve_median']:.6g}"
                     " count  (budget_to_solve_median)")
    else:
        lines.append(f"evals_to_target_median = {values['budget_to_solve_median']:.6g}"
                     " count  (budget_to_solve_median)")
        for i, p in enumerate(jobs[0]["problems"]):
            e = median_per_seed(jobs, lambda r: r["problems"][i]["evals_to_target"])
            lines.append(f"  {p['label']}: evals_to_target median {e:.6g}, "
                         f"reached on {sum(r['problems'][i]['reached'] for r in first.values())}"
                         f" of {n_seeds} seeds")
    return values, lines


def merge_layers(traced: list[dict]) -> dict:
    total = {"wall_s": 0.0, "phases_s": 0.0, "probe_steps": 0,
             "spans": defaultdict(lambda: [0, 0.0]),
             "aggs": defaultdict(lambda: [0, 0.0]),
             "self_s": defaultdict(float), "counters": defaultdict(float)}
    for res in traced:
        lay = res["layers"]
        for key in ("wall_s", "phases_s", "probe_steps"):
            total[key] += lay[key]
        for key in ("spans", "aggs"):
            for name, (n, s) in lay[key].items():
                total[key][name][0] += n
                total[key][name][1] += s
        for key in ("self_s", "counters"):
            for name, v in lay[key].items():
                total[key][name] += v
    return total


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced jobs, and the ones only some
    workloads call (printed, not in the JSON)."""
    traced = [t for _, t in pairs]
    m = merge_layers(traced)
    spans, aggs, c = m["spans"], m["aggs"], m["counters"]
    wall = m["wall_s"]
    gens = sum(t["generations"] for t in traced)
    evals = sum(t["evals"] for t in traced)

    def mean(stats, name, scale):
        n, s = stats.get(name, (0, 0.0))
        return s / n * scale if n else None

    def total(stats, prefix):
        picked = [v for k, v in stats.items() if k.startswith(prefix)]
        return sum(v[0] for v in picked), sum(v[1] for v in picked)

    tell_n, tell_s = total(spans, "es.tell.")
    steps_n, _ = total(aggs, "envs.step.")
    train_steps = sum(t.get("train_steps", 0) for t in traced)
    probe_steps = m["probe_steps"]
    busy = [w for t in traced for w in t.get("worker_busy", [])]
    workers = sum(len(t.get("worker_busy", [])) for t in traced)
    tasks, busy_s = sum(w[0] for w in busy), sum(w[1] for w in busy)
    plain = median_per_seed([p for p, _ in pairs], lambda r: r["wall_s"])
    with_trace = median_per_seed(traced, lambda r: r["wall_s"])

    metrics = {
        "es.ask_us": (mean(spans, "es.ask", 1e6), "us"),
        "es.draw_us": (spans["es.ask"][1] / max(aggs["es.candidate_z"][0], 1) * 1e6, "us"),
        "es.tell_us": (tell_s / tell_n * 1e6, "us"),
        "es.eig_refreshes": (c["eig_refreshes"], "count"),
        "envs.steps": (steps_n, "count"),
        "policy.act_calls": (aggs["policy.act"][0], "count"),
        "evaluate.train_steps": (train_steps, "count"),
        "evaluate.probe_steps": (probe_steps, "count"),
        "evaluate.probe_share": (spans["evaluate.test_policy"][1] / wall, "ratio"),
        "evaluate.budget_step_ratio": (
            train_steps / (train_steps + probe_steps) if train_steps else 0.0, "ratio"),
        "distributed.msgs_per_gen": (c["msgs"] / gens, "count"),
        "distributed.bytes_per_gen": (c["bytes"] / gens, "B"),
        "distributed.redispatches": (c["tasks_sent"] - evals if c["tasks_sent"] else 0, "count"),
        "distributed.worker_drops": (sum(len(t.get("drops", [])) for t in traced), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (m["self_s"].get(layer, 0.0) / wall, "ratio")
    metrics.update({
        "trace.coverage": (m["phases_s"] / wall, "ratio"),
        "trace.wall_s": (with_trace, "s"),
        "trace.untraced_wall_s": (plain, "s"),
        "trace.overhead": (with_trace / plain - 1.0, "ratio"),
    })

    rtt = c["rtt_s"] / c["rtt_n"] * 1e3 if c["rtt_n"] else None
    worker_ms = busy_s / tasks * 1e3 if tasks else None
    specific = {
        f"es.tell_us.{v}": (mean(spans, f"es.tell.{v}", 1e6), "us")
        for v in ("csa", "sep-cma", "cma")}
    for name in sorted(k for k in aggs if k.startswith("envs.step.")):
        specific[f"envs.step_us.{name.split('.')[-1]}"] = (mean(aggs, name, 1e6), "us")
    specific.update({
        "envs.reset_us": (mean(aggs, "envs.reset", 1e6), "us"),
        "policy.act_us": (mean(aggs, "policy.act", 1e6), "us"),
        "policy.norm_update_us": (mean(aggs, "policy.norm_update", 1e6), "us"),
        "policy.norm_merge_us": (mean(aggs, "policy.norm_merge", 1e6), "us"),
        "evaluate.rollout_ms": (mean(spans, "evaluate.rollout", 1e3), "ms"),
        "evaluate.generation_ms": (mean(spans, "evaluate.evaluate_generation", 1e3), "ms"),
        "evaluate.probe_ms": (mean(spans, "evaluate.test_policy", 1e3), "ms"),
        "evaluate.curve_write_ms": (mean(spans, "evaluate.write_curve_csv", 1e3), "ms"),
        "distributed.gen_roundtrip_ms": (
            mean(spans, "distributed.MasterServer.evaluate_generation", 1e3), "ms"),
        "distributed.task_rtt_ms": (rtt, "ms"),
        "distributed.worker_task_ms": (worker_ms, "ms"),
        "distributed.task_overhead_ms": (
            rtt - worker_ms if rtt is not None and worker_ms is not None else None, "ms"),
        "distributed.worker_idle_share": (
            1.0 - busy_s / (wall / len(traced) * workers) if workers else None, "ratio"),
        "testfuncs.eval_us": (mean(aggs, "testfuncs.eval", 1e6), "us"),
    })
    return metrics, specific


def machine_record(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {v: os.environ[v] for v in THREAD_VARS},
            "platform": platform.platform(), "workload_seed": seed}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the workload at a size that takes seconds")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(SRC, "evolin")):
        print(f"evolin sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    workload, trace = args.workload, bool(args.trace)
    job = (workloads.smoke_job(workload) if args.smoke else workloads.JOBS[workload])
    order = workloads.panel(workload, args.seed, args.smoke)
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{workload}-{args.seed}-", dir=base)
    failures = Failures()
    counter = itertools.count()

    def launch(seed: int, traced: bool) -> dict:
        tag = f"{workload}-s{seed}-j{next(counter)}"
        return run_job(workload, seed, out, tag, traced, args.smoke)

    try:
        jobs, pairs = [], []
        start = perf()
        i = 0
        # untraced runs give every seed a job and the first seed a second one,
        # so each run checks that a repeated seed reproduces its outputs
        while i < (1 if trace else len(order) + 1) or perf() - start < args.seconds:
            seed = order[i % len(order)]
            i += 1
            plain = launch(seed, False)
            plain_ok = job_ok(plain, job, failures)
            if plain_ok:
                jobs.append(plain)
            if trace:
                traced = launch(seed, True)
                if job_ok(traced, job, failures):
                    jobs.append(traced)
                    if plain_ok:
                        pairs.append((plain, traced))
        if jobs:
            check_outputs(job, jobs, out, failures)

        print(f"# evolin benchmark: workload={workload} seed={args.seed} "
              f"trace={args.trace} seconds={args.seconds:g}"
              + (" smoke" if args.smoke else ""))
        print(f"# machine {json.dumps(machine_record(args.seed))}")
        print(f"# master seeds, in job order: {order}")
        for res in jobs:
            print(f"# job {res['tag']}{' traced' * res['traced']}: "
                  f"setup {res['setup_s']:.4f} s, wall {res['wall_s']:.4f} s")
        metrics = {}
        if trace and pairs:
            layer, specific = per_layer(pairs)
            failures.check(layer["trace.coverage"][0] >= COVERAGE_MIN,
                           f"ask/evaluate/tell/probe spans cover only "
                           f"{layer['trace.coverage'][0]:.3f} of traced wall time")
            import micro
            micro_us = micro.run()
            for name, (value, unit) in layer.items():
                print(f"{name} = {value:.6g} {unit}")
                metrics[name] = {"value": value, "unit": unit}
            for name, (value, unit) in specific.items():
                shown = "n/a (not called in this workload)" if value is None else f"{value:.6g} {unit}"
                print(f"{name} = {shown}")
            for name, value in micro_us.items():
                ref = micro.REANCHOR_US.get(name)
                print(f"{name} = {value:.6g} us" + (f"  (re-anchor {ref} us)" if ref else ""))
                metrics[name] = {"value": value, "unit": "us"}
        elif jobs and not trace:
            values, lines = end_to_end(jobs)
            for line in lines:
                print(line)
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"failed_ratio = {len(failures.reasons) / max(failures.attempted, 1):.6g}"
              f" ratio  ({len(failures.reasons)} of {failures.attempted} operations)")
        for reason in failures.reasons:
            print(f"FAILED: {reason}")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    correct = not failures.reasons and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(failures.attempted, 1),
                      "failed": len(failures.reasons), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
