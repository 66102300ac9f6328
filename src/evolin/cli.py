"""Command-line front end: training runs, sanity suites, distributed
masters and workers, checkpoint evaluation, and curve aggregation.

Exit codes: 0 success; 1 failed checks or runtime errors; 2 bad usage
(unknown environment or variant, empty seed list, out-of-range seed, step
size or population, missing inputs);
3 unwritable output directory; 4 network bind/connect failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import sys

import numpy as np

from . import __version__
from .distributed import (DesyncError, GenerationFailedError, MasterServer,
                          serve_worker, train_distributed)
from .envs import ENV_IDS, env_spec
from .es import CSA, FULL_CMA, SEP_CMA, VARIANTS, optimize
from .evaluate import FitnessSpec, read_curve_csv, test_policy, train, write_curve_csv
from .policy import load_checkpoint, save_checkpoint
from .testfuncs import quadratic2d, rotated_ellipsoid, sphere

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_OUTPUT = 3
EXIT_NETWORK = 4

OUTPUT_DIR_VAR = "EVOLIN_OUTPUT_DIR"

# per-environment defaults: initial step size, population, search budget
ENV_DEFAULTS = {
    "cartpole": {"sigma0": 0.1, "lambda": 4, "budget_timesteps": 10_000},
    "acrobot": {"sigma0": 0.05, "lambda": 4, "budget_timesteps": 20_000},
    "pendulum": {"sigma0": 0.1, "lambda": "default", "budget_timesteps": 500_000},
}
DEFAULT_SEEDS = [0, 1, 2, 3, 4]


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_VAR, "runs")


# ---------------------------------------------------------------------------
# experiment configuration


def _parse_lambda(value) -> int | str:
    if value is None:
        return "default"
    if isinstance(value, int):
        return value
    text = str(value)
    if text in ("default", "rl", "cma"):
        return text
    try:
        return int(text)
    except ValueError:
        raise CliError(EXIT_USAGE, f"bad lambda value {value!r}") from None


def _parse_seeds(value) -> list[int]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise CliError(EXIT_USAGE, f"bad seeds value {value!r}") from None
    return [int(s) for s in value]


def resolve_config(args) -> dict:
    """Merge env defaults, config file, and flags (flags win) and validate."""
    file_cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise CliError(EXIT_USAGE, f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(EXIT_USAGE, f"config is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise CliError(EXIT_USAGE, "config must be a JSON object")

    def pick(flag_name, file_name, fallback=None):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return flag
        return file_cfg.get(file_name, fallback)

    env_id = pick("env", "env_id")
    if env_id not in ENV_IDS:
        raise CliError(EXIT_USAGE,
                       f"unknown environment {env_id!r}; choose from {sorted(ENV_IDS)}")
    variant = pick("variant", "variant")
    if variant not in VARIANTS:
        raise CliError(EXIT_USAGE,
                       f"unknown variant {variant!r}; choose from {list(VARIANTS)}")

    env_defaults = ENV_DEFAULTS[env_id]
    try:
        sigma0 = float(pick("sigma0", "sigma0", env_defaults["sigma0"]))
        lam = _parse_lambda(pick("lam", "lambda", env_defaults["lambda"]))
        budget = int(pick("budget", "budget_timesteps", env_defaults["budget_timesteps"]))
        seeds = _parse_seeds(pick("seeds", "seeds", DEFAULT_SEEDS))
        test_every = int(pick("test_every", "test_every", 1))
        threshold = float(pick("threshold", "threshold",
                               env_spec(env_id).solved_threshold))
        target = pick("target_return", "target_return")
        target = None if target is None else float(target)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"bad config value: {exc}") from exc
    output_dir = pick("output_dir", "output_dir", default_output_dir())

    if not seeds:
        raise CliError(EXIT_USAGE, "seed list is empty")
    if not all(0 <= s < 2**64 for s in seeds):
        raise CliError(EXIT_USAGE, "seeds must lie in [0, 2^64)")
    if not (math.isfinite(sigma0) and sigma0 > 0):
        raise CliError(EXIT_USAGE, "sigma0 must be positive and finite")
    if isinstance(lam, int) and lam < 2:
        raise CliError(EXIT_USAGE, "lambda must be at least 2")
    if budget < 1:
        raise CliError(EXIT_USAGE, "budget_timesteps must be positive")
    if test_every < 1:
        raise CliError(EXIT_USAGE, "test_every must be >= 1")

    try:
        fitness_spec = FitnessSpec.from_dict(
            {**FitnessSpec().to_dict(), **file_cfg.get("fitness_spec", {})})
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"bad fitness_spec: {exc}") from exc
    if fitness_spec.test_episodes != 5:
        raise CliError(EXIT_USAGE, "fitness_spec.test_episodes must be 5: "
                       "curve files hold five test returns per row")

    return {
        "env_id": env_id,
        "variant": variant,
        "sigma0": sigma0,
        "lambda": lam,
        "budget_timesteps": budget,
        "seeds": seeds,
        "test_every": test_every,
        "threshold": threshold,
        "target_return": target,
        "fitness_spec": fitness_spec.to_dict(),
        "output_dir": str(output_dir),
    }


def ensure_output_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise CliError(EXIT_OUTPUT, f"output directory not writable: {exc}") from exc


# ---------------------------------------------------------------------------
# train / train-distributed


def trial_basename(cfg: dict, seed: int) -> str:
    return f"{cfg['env_id']}_{cfg['variant']}_seed{seed}"


def steps_to_threshold(records, threshold: float) -> int | None:
    hits = [r.cumulative_timesteps for r in records
            if r.median_test_return >= threshold]
    return min(hits) if hits else None


def run_trials(cfg: dict, runner) -> tuple[dict, str]:
    """Run one trial per seed, write per-trial artifacts, return the summary."""
    ensure_output_dir(cfg["output_dir"])
    out = cfg["output_dir"]
    rows = []
    resolved_lambda = None
    for seed in cfg["seeds"]:
        try:
            result = runner(seed)
        except (GenerationFailedError, TimeoutError, OSError) as exc:
            print(f"seed {seed}: failed ({exc})")
            rows.append({"seed": seed, "status": "failed", "error": str(exc),
                         "max_median_return": None,
                         "timesteps_to_threshold": None})
            continue
        resolved_lambda = result.params.lam
        base = trial_basename(cfg, seed)
        curve = f"{base}.csv"
        try:
            write_curve_csv(os.path.join(out, curve), result.records)
            ckpt_name = None
            if result.best is not None:
                ckpt_name = f"{base}_best.json"
                save_checkpoint(os.path.join(out, ckpt_name), result.best)
        except OSError as exc:
            raise CliError(EXIT_OUTPUT, f"cannot write artifacts: {exc}") from exc
        max_median = max((r.median_test_return for r in result.records),
                         default=None)
        reached = steps_to_threshold(result.records, cfg["threshold"])
        rows.append({
            "seed": seed,
            "status": result.status,
            "max_median_return": max_median,
            "timesteps_to_threshold": reached,
            "cumulative_timesteps": result.cumulative_timesteps,
            "generations": result.state.g,
            "curve": curve,
            "checkpoint": ckpt_name,
        })
        print(f"seed {seed}: status={result.status} "
              f"max_median_return={max_median} "
              f"timesteps_to_threshold={reached}")

    medians = [r["max_median_return"] for r in rows
               if r["max_median_return"] is not None]
    reached = [r["timesteps_to_threshold"] for r in rows
               if r["timesteps_to_threshold"] is not None]
    summary = {
        "artifact_version": __version__,
        "config": cfg,
        "resolved_lambda": resolved_lambda,
        "env_id": cfg["env_id"],
        "variant": cfg["variant"],
        "threshold": cfg["threshold"],
        "seeds": rows,
        # both cross-seed aggregations of the per-trial peak median return
        "max_median_return_mean": statistics.mean(medians) if medians else None,
        "max_median_return_median": statistics.median(medians) if medians else None,
        "timesteps_to_threshold": min(reached) if reached else None,
    }
    name = f"{cfg['env_id']}_{cfg['variant']}_summary.json"
    path = os.path.join(out, name)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise CliError(EXIT_OUTPUT, f"cannot write summary: {exc}") from exc
    print(f"summary: {path}")
    return summary, path


def cmd_train(args) -> int:
    cfg = resolve_config(args)

    def runner(seed: int):
        return train(cfg["env_id"], cfg["variant"], sigma0=cfg["sigma0"],
                     lam=cfg["lambda"], budget_timesteps=cfg["budget_timesteps"],
                     master_seed=seed,
                     fitness_spec=FitnessSpec.from_dict(cfg["fitness_spec"]),
                     test_every=cfg["test_every"],
                     target_return=cfg["target_return"])

    run_trials(cfg, runner)
    return 0


def cmd_train_distributed(args) -> int:
    cfg = resolve_config(args)
    if args.expected_workers < 1:
        raise CliError(EXIT_USAGE, "expected workers must be >= 1")
    if not (math.isfinite(args.wait_timeout) and args.wait_timeout >= 0):
        raise CliError(EXIT_USAGE, "--wait-timeout must be finite and >= 0")
    host, port = parse_address(args.listen, default_port=5789)
    try:
        server = MasterServer(host, port)
    except OSError as exc:
        raise CliError(EXIT_NETWORK, f"cannot bind {host}:{port}: {exc}") from exc
    print(f"listening on {server.address[0]}:{server.address[1]}, "
          f"waiting for {args.expected_workers} worker(s)")

    def runner(seed: int):
        return train_distributed(
            cfg["env_id"], cfg["variant"], sigma0=cfg["sigma0"],
            lam=cfg["lambda"], budget_timesteps=cfg["budget_timesteps"],
            master_seed=seed, expected_workers=args.expected_workers,
            server=server, wait_timeout=args.wait_timeout,
            fitness_spec=FitnessSpec.from_dict(cfg["fitness_spec"]),
            test_every=cfg["test_every"], target_return=cfg["target_return"])

    try:
        run_trials(cfg, runner)
    finally:
        server.close()
    return 0


def cmd_serve_worker(args) -> int:
    host, port = parse_address(args.connect, default_port=5789)
    try:
        reason = serve_worker(host, port, worker_id=args.worker_id)
    except DesyncError as exc:
        print(f"worker desynchronized: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"cannot connect to {host}:{port} ({exc}); "
              f"start the master first, then retry", file=sys.stderr)
        return EXIT_NETWORK
    print(f"worker stopped: {reason}")
    return 0


def parse_address(text: str, default_port: int) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = text, str(default_port)
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port)
    except ValueError:
        raise CliError(EXIT_USAGE, f"bad address {text!r}") from None
    if not 0 <= port <= 65535:
        raise CliError(EXIT_USAGE, f"port must lie in [0, 65535] in {text!r}")
    return host, port


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    try:
        ckpt = load_checkpoint(args.checkpoint)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"cannot load checkpoint: {exc}") from exc
    if args.episodes < 1:
        raise CliError(EXIT_USAGE, "--episodes must be >= 1")
    median, returns = test_policy(ckpt.policy(), ckpt.normalizer, ckpt.env_id,
                                  ckpt.master_seed, ckpt.generation,
                                  episodes=args.episodes)
    for i, ret in enumerate(returns):
        print(f"episode {i}: return {ret!r}")
    print(f"median_test_return {median!r}")
    return 0


# ---------------------------------------------------------------------------
# sanity


SANITY_CHECKS = ("sphere_full_cma_convergence",
                 "rotated_ellipsoid_adaptation_ordering",
                 "quadratic2d_sigma_decrease_csa",
                 "quadratic2d_sigma_decrease_sep-cma",
                 "quadratic2d_sigma_decrease_cma")


def _sanity_sphere() -> dict:
    # budget and target pinned after cross-checking a reference implementation
    fn = sphere(10)
    evals = []
    for seed in range(10):
        r = optimize(fn, FULL_CMA, np.ones(10), 1.0, budget_evals=5000,
                     target=1e-8, seed=seed)
        evals.append(r.evals if r.status == "target_reached" else 5001)
    med = statistics.median(evals)
    return {"name": SANITY_CHECKS[0], "passed": med <= 5000,
            "median_evals": med, "per_seed_evals": evals,
            "budget": 5000, "target": 1e-8}


def _sanity_ordering() -> dict:
    # adaptation must pay off where the landscape is rotated and ill-conditioned
    fn = rotated_ellipsoid(10, 1e6, seed=7)
    cap = 20_000
    med = {}
    per = {}
    for variant in VARIANTS:
        evals = []
        for seed in range(15):
            r = optimize(fn, variant, np.ones(10), 1.0, budget_evals=cap,
                         target=1e-6, seed=seed, lam="cma")
            evals.append(r.evals if r.status == "target_reached" else cap)
        med[variant] = statistics.median(evals)
        per[variant] = evals
    passed = med[FULL_CMA] < med[SEP_CMA] and med[FULL_CMA] < med[CSA]
    return {"name": SANITY_CHECKS[1], "passed": passed,
            "median_evals": med, "per_seed_evals": per, "eval_cap": cap,
            "target": 1e-6}


def _trace_rows(params, state) -> dict:
    if state.c_full is not None:
        c = state.c_full
        eig = np.sort(np.linalg.eigvalsh(c))
    elif state.c_diag is not None:
        c = np.diag(state.c_diag)
        eig = np.sort(state.c_diag)
    else:
        c = np.eye(params.n)
        eig = np.ones(params.n)
    return {"sigma": float(state.sigma), "m": state.m, "c": c, "eig": eig}


def _write_trace(path: str, rows: list[dict]) -> None:
    header = ["generation", "sigma", "m_0", "m_1",
              "c_00", "c_01", "c_10", "c_11", "eig_0", "eig_1"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for g, row in enumerate(rows):
            cells = [str(g), repr(row["sigma"]),
                     repr(float(row["m"][0])), repr(float(row["m"][1])),
                     repr(float(row["c"][0, 0])), repr(float(row["c"][0, 1])),
                     repr(float(row["c"][1, 0])), repr(float(row["c"][1, 1])),
                     repr(float(row["eig"][0])), repr(float(row["eig"][1]))]
            fh.write(",".join(cells) + "\n")


def _sanity_sigma_decrease(out_dir: str) -> list[dict]:
    # far-off mean with a too-large step size: sigma must shrink early on
    fn = quadratic2d()
    sigma0, gens = 3.0, 10
    checks = []
    for variant in VARIANTS:
        below = 0
        per_seed = []
        for seed in range(10):
            sigmas = []
            rows = []

            def record(params, state, _cands):
                sigmas.append(float(state.sigma))
                if seed == 0:
                    rows.append(_trace_rows(params, state))

            optimize(fn, variant, [2.0, 2.0], sigma0, budget_evals=100,
                     seed=seed, on_generation=record)
            final = sigmas[gens - 1]
            per_seed.append(final)
            below += final < sigma0
            if seed == 0:
                _write_trace(os.path.join(
                    out_dir, f"sanity_quadratic2d_trace_{variant}.csv"), rows)
        checks.append({"name": f"quadratic2d_sigma_decrease_{variant}",
                       "passed": below >= 9, "seeds_below_sigma0": below,
                       "sigma_at_gen10": per_seed, "sigma0": sigma0})
    return checks


def cmd_sanity(args) -> int:
    out_dir = args.output_dir or default_output_dir()
    ensure_output_dir(out_dir)
    checks = [_sanity_sphere(), _sanity_ordering()]
    checks.extend(_sanity_sigma_decrease(out_dir))
    assert [c["name"] for c in checks] == list(SANITY_CHECKS)
    for check in checks:
        print(f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}")
    report = {"artifact_version": __version__, "checks": checks}
    path = os.path.join(out_dir, "sanity_report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"report: {path}")
    return 0 if all(c["passed"] for c in checks) else EXIT_FAIL


# ---------------------------------------------------------------------------
# plot-data


CURVE_NAME = re.compile(r"^(?P<env>[a-z]+)_(?P<variant>[a-z-]+)_seed(?P<seed>\d+)\.csv$")


def find_curves(run_dir: str) -> dict[str, dict[str, list[str]]]:
    """Map env -> variant -> curve paths found under ``run_dir``."""
    found: dict[str, dict[str, list[str]]] = {}
    try:
        names = sorted(os.listdir(run_dir))
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot list run dir: {exc}") from exc
    for name in names:
        match = CURVE_NAME.match(name)
        if not match:
            continue
        env, variant = match.group("env"), match.group("variant")
        if env not in ENV_IDS or variant not in VARIANTS:
            continue
        found.setdefault(env, {}).setdefault(variant, []).append(
            os.path.join(run_dir, name))
    return found


def step_values(records, grid: list[int]) -> list[float]:
    """Sample a curve on ``grid`` by last-value-carried-forward."""
    steps = [r.cumulative_timesteps for r in records]
    values = [r.median_test_return for r in records]
    out = []
    j = -1
    for t in grid:
        while j + 1 < len(steps) and steps[j + 1] <= t:
            j += 1
        out.append(values[max(j, 0)])
    return out


def aggregate_env(curves: dict[str, list[str]]) -> tuple[list[int], dict]:
    per_variant = {}
    grid_points: set[int] = set()
    for variant, paths in curves.items():
        series = [read_curve_csv(p) for p in paths]
        per_variant[variant] = series
        for records in series:
            grid_points.update(r.cumulative_timesteps for r in records)
    grid = sorted(grid_points)
    table = {}
    for variant, series in per_variant.items():
        sampled = np.array([step_values(records, grid) for records in series])
        table[variant] = {
            "median": np.median(sampled, axis=0),
            "std": np.std(sampled, axis=0),
        }
    return grid, table


def cmd_plot_data(args) -> int:
    run_dir = args.run_dir or default_output_dir()
    found = find_curves(run_dir)
    if not found:
        raise CliError(EXIT_USAGE, f"no curve files found in {run_dir!r}")
    out_dir = args.output_dir or run_dir
    ensure_output_dir(out_dir)
    for env, curves in sorted(found.items()):
        grid, table = aggregate_env(curves)
        variants = [v for v in VARIANTS if v in table]
        header = ["cumulative_timesteps"]
        for variant in variants:
            header += [f"{variant}_median", f"{variant}_std"]
        path = os.path.join(out_dir, f"{env}_aggregate.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for i, t in enumerate(grid):
                cells = [str(t)]
                for variant in variants:
                    cells.append(repr(float(table[variant]["median"][i])))
                    cells.append(repr(float(table[variant]["std"][i])))
                fh.write(",".join(cells) + "\n")
        print(f"wrote {path} ({len(grid)} grid points, "
              f"{sum(len(p) for p in curves.values())} curves)")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON experiment config; flags override it")
    sub.add_argument("--env", help="environment id")
    sub.add_argument("--variant", help=f"one of {list(VARIANTS)}")
    sub.add_argument("--sigma0", type=float, help="initial step size")
    sub.add_argument("--lambda", dest="lam",
                     help="population size, or 'default'/'rl'/'cma'")
    sub.add_argument("--budget", type=int, help="training timestep budget")
    sub.add_argument("--seeds", help="comma-separated master seeds")
    sub.add_argument("--test-every", dest="test_every", type=int,
                     help="generations between test probes")
    sub.add_argument("--threshold", type=float,
                     help="solved threshold used in summaries")
    sub.add_argument("--target-return", dest="target_return", type=float,
                     help="stop a trial early at this median test return")
    sub.add_argument("--output-dir", dest="output_dir",
                     help=f"artifact directory (default ${OUTPUT_DIR_VAR} or ./runs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evolin",
        description="Evolution-strategy search for linear control policies.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one experiment over its seed list")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-distributed",
                       help="run an experiment with worker processes")
    _add_experiment_flags(p)
    p.add_argument("--listen", default="127.0.0.1:5789",
                   help="host:port to bind the master on")
    p.add_argument("--expected-workers", dest="expected_workers", type=int,
                   required=True, help="workers to wait for before starting")
    p.add_argument("--wait-timeout", dest="wait_timeout", type=float,
                   default=60.0, help="seconds to wait for workers")
    p.set_defaults(func=cmd_train_distributed)

    p = sub.add_parser("serve-worker", help="evaluate candidates for a master")
    p.add_argument("--connect", default="127.0.0.1:5789",
                   help="host:port of the master")
    p.add_argument("--worker-id", dest="worker_id", help="name shown in logs")
    p.set_defaults(func=cmd_serve_worker)

    p = sub.add_parser("sanity",
                       help="analytic test-function checks and traces")
    p.add_argument("--output-dir", dest="output_dir",
                   help="where the report and trace CSVs go")
    p.set_defaults(func=cmd_sanity)

    p = sub.add_parser("eval", help="replay a checkpoint's test protocol")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON path")
    p.add_argument("--episodes", type=int, default=5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot-data",
                       help="aggregate curve CSVs into plot-ready tables")
    p.add_argument("--run-dir", dest="run_dir",
                   help="directory holding per-seed curve CSVs")
    p.add_argument("--output-dir", dest="output_dir",
                   help="where aggregate CSVs go (default: the run dir)")
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
