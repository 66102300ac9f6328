"""Exit codes, artifacts, and recomputation oracles for the command line."""

import json
import math
import os
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from evolin.cli import SANITY_CHECKS, main, parse_address
from evolin.distributed import serve_worker
from evolin.evaluate import CURVE_COLUMNS, TrainRecord, read_curve_csv, write_curve_csv


def run_cli(*argv):
    return main(list(argv))


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# validation exit codes


def test_unknown_environment_exits_2(tmp_path):
    assert run_cli("train", "--env", "moonlander", "--variant", "csa",
                   "--output-dir", str(tmp_path)) == 2


def test_unknown_variant_exits_2(tmp_path):
    assert run_cli("train", "--env", "cartpole", "--variant", "nes",
                   "--output-dir", str(tmp_path)) == 2


def test_empty_seed_list_exits_2(tmp_path):
    assert run_cli("train", "--env", "cartpole", "--variant", "csa",
                   "--seeds", "", "--output-dir", str(tmp_path)) == 2


@pytest.mark.parametrize("flag,value", [("--lambda", "1"), ("--lambda", "-4"),
                                        ("--sigma0", "nan"), ("--sigma0", "inf"),
                                        ("--seeds", "0,-1"),
                                        ("--seeds", str(2**64)),
                                        ("--lambda", "many"),
                                        ("--test-every", "0")])
def test_out_of_range_inputs_exit_2_before_training(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    assert run_cli("train", "--env", "cartpole", "--variant", "csa",
                   "--budget", "300", "--seeds", "0", flag, value,
                   "--output-dir", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unwritable_output_dir_exits_3():
    assert run_cli("train", "--env", "cartpole", "--variant", "csa",
                   "--seeds", "5", "--output-dir", "/dev/null/nested") == 3


def test_expected_workers_zero_exits_2(tmp_path):
    assert run_cli("train-distributed", "--env", "cartpole", "--variant", "csa",
                   "--seeds", "5", "--output-dir", str(tmp_path),
                   "--listen", "127.0.0.1:0", "--expected-workers", "0") == 2


def test_bind_failure_exits_4(tmp_path):
    blocker = socket.create_server(("127.0.0.1", 0))
    host, port = blocker.getsockname()[:2]
    try:
        assert run_cli("train-distributed", "--env", "cartpole",
                       "--variant", "csa", "--seeds", "5",
                       "--output-dir", str(tmp_path),
                       "--listen", f"{host}:{port}",
                       "--expected-workers", "1") == 4
    finally:
        blocker.close()


def test_worker_connect_failure_exits_4():
    probe = socket.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()[:2]
    probe.close()
    assert run_cli("serve-worker", "--connect", f"{host}:{port}") == 4


def test_eval_missing_checkpoint_exits_2(tmp_path):
    assert run_cli("eval", "--checkpoint", str(tmp_path / "nope.json")) == 2


@pytest.mark.parametrize("episodes", ["0", "-3"])
def test_eval_without_episodes_exits_2(episodes, capsys):
    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "cartpole_solved.json")
    assert run_cli("eval", "--checkpoint", fixture, "--episodes", episodes) == 2
    assert capsys.readouterr().err.startswith("error: --episodes")


def test_config_with_other_test_episode_count_exits_2_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"fitness_spec": {"test_episodes": 3}}))
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--env", "cartpole",
                   "--variant", "csa", "--budget", "300", "--seeds", "0",
                   "--output-dir", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: fitness_spec.test_episodes")
    assert not out.exists()


MISTYPED_SHAPING = {"mode": "identity", "bonus": 0.0, "mod": "drop_alive_bonus"}
PARTIAL_SHAPING = {"mode": "drop_alive_bonus"}


@pytest.mark.parametrize("doc", [[1, 2], {"sigma0": "big"},
                                 {"budget_timesteps": "lots"}, {"seeds": 5},
                                 {"test_every": [1]}, {"target_return": "high"},
                                 {"fitness_spec": 3},
                                 {"seeds": [0.5, 1.9]}, {"budget_timesteps": 2.5},
                                 {"seeds": [True]}, {"test_every": 1.7},
                                 {"threshold": float("nan")},
                                 {"target_return": float("nan")},
                                 {"fitness_spec": {"common_random_numbers": "false"}},
                                 {"fitness_spec": {"train_episodes": 2.7}},
                                 {"fitness_spec": {"train_episodes": True}},
                                 {"fitness_spec": {"train_episodes": 0}},
                                 {"fitness_spec": {"shaping": {"mode": "drop_alive_bonus",
                                                               "bonus": "nan"}}},
                                 {"fitness_spec": {"shaping": {"mode": "drop_alive_bonus",
                                                               "bonus": float("nan")}}},
                                 {"fitness_spec": {"shaping": {"mode": 0, "bonus": 0.0}}},
                                 {"fitness_spec": {"train_episode": 2}},
                                 {"seeds": [0, 0]},
                                 {"fitness_spec": {"shaping": {"mode": "identity",
                                                               "bonus": 5.0}}},
                                 {"sigma0": "0.1"}, {"budget_timesteps": "600"},
                                 {"test_every": "1"}, {"seeds": ["1"]},
                                 {"threshold": "400"}, {"seeds": "1,2"},
                                 {"lambda": "4"}, {"threshold": float("inf")},
                                 {"budget_timesteps": 600.0}, {"seeds": [0.0]},
                                 {"fitness_spec": {"shaping": MISTYPED_SHAPING}},
                                 {"fitness_spec": {"shaping": PARTIAL_SHAPING}},
                                 {"budget": 100}, {"max_generations": 1},
                                 {"lambda": None}],
                         ids=["not-an-object", "sigma0", "budget", "seeds",
                              "test-every", "target", "fitness-spec",
                              "fractional-seeds", "fractional-budget",
                              "bool-seeds", "fractional-test-every",
                              "nan-threshold", "nan-target", "string-crn",
                              "fractional-train-episodes", "bool-train-episodes",
                              "zero-train-episodes", "string-bonus", "nan-bonus",
                              "number-mode", "mistyped-key", "repeated-seeds",
                              "identity-bonus", "string-sigma0", "string-budget",
                              "string-test-every", "string-seed", "string-threshold",
                              "seeds-string", "string-lambda", "infinite-threshold",
                              "float-budget", "float-seed", "shaping-mistyped-key",
                              "shaping-missing-key", "unknown-key-budget",
                              "unknown-key-max-generations", "null-lambda"])
def test_malformed_config_exits_2_before_training(tmp_path, capsys, doc):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--env", "cartpole",
                   "--variant", "csa", "--output-dir", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("shaping,key", [(MISTYPED_SHAPING, "mod"),
                                         (PARTIAL_SHAPING, "bonus")],
                         ids=["mistyped", "missing"])
def test_shaping_key_errors_name_the_key(tmp_path, capsys, shaping, key):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"fitness_spec": {"shaping": shaping}}))
    assert run_cli("train", "--config", str(cfg_path), "--env", "cartpole",
                   "--variant", "csa", "--output-dir", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err.startswith(f"error: fitness_spec.shaping.{key} ")


@pytest.mark.parametrize("doc,prefix", [({"budget": 100}, "config.budget "),
                                        ({"max_generations": 1}, "config.max_generations "),
                                        ({"lambda": None}, "lambda ")],
                         ids=["budget", "max-generations", "null-lambda"])
def test_config_errors_name_the_key(tmp_path, capsys, doc, prefix):
    # a flag's name, a library keyword and a null would otherwise train with
    # the defaults
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"env_id": "cartpole", "variant": "csa", "seeds": [0],
                                    **doc}))
    assert run_cli("train", "--config", str(cfg_path), "--output-dir",
                   str(tmp_path / "run")) == 2
    assert capsys.readouterr().err.startswith(f"error: {prefix}")
    assert not (tmp_path / "run").exists()


def test_config_output_dir_that_is_not_a_string_exits_2(tmp_path, tmp_path_factory,
                                                        monkeypatch, capsys):
    # without --output-dir the file's value is used, relative to the cwd
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path_factory.mktemp("config") / "exp.json"
    for value in (["a", 1], 5):
        cfg_path.write_text(json.dumps({"env_id": "cartpole", "variant": "csa",
                                        "seeds": [0], "budget_timesteps": 200,
                                        "output_dir": value}))
        assert run_cli("train", "--config", str(cfg_path)) == 2
        assert capsys.readouterr().err.startswith("error: output_dir ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value", [("--listen", "127.0.0.1:99999"),
                                        ("--listen", "127.0.0.1:-1"),
                                        ("--wait-timeout", "nan"),
                                        ("--wait-timeout", "inf"),
                                        ("--wait-timeout", "-1")])
def test_bad_listen_port_or_wait_timeout_exits_2_before_binding(tmp_path, capsys,
                                                                flag, value):
    flags = {"--listen": "127.0.0.1:0", "--wait-timeout": "5", flag: value}
    out = tmp_path / "run"
    assert run_cli("train-distributed", "--env", "cartpole", "--variant", "csa",
                   "--seeds", "5", "--output-dir", str(out),
                   "--expected-workers", "1",
                   *(part for item in flags.items() for part in item)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "listening" not in captured.out
    assert not out.exists()


def test_worker_port_out_of_range_exits_2(capsys):
    assert run_cli("serve-worker", "--connect", "127.0.0.1:70000") == 2
    assert capsys.readouterr().err.startswith("error: port")


def test_plot_data_without_curves_exits_2(tmp_path):
    assert run_cli("plot-data", "--run-dir", str(tmp_path)) == 2


@pytest.mark.parametrize("body", [
    "1,100,9.0,9.0,9.0\n", "1,100,x,1,2,3,4,5,6,0.1\n",
    "1,100,9.0,9.0,9.0,9.0,9.0,9.0,12.0,0.1,7\n",
    # write_curve_csv writes none of these
    "1,100,nan,9.0,9.0,9.0,9.0,9.0,12.0,0.1\n",
    "1,100,9.0,inf,9.0,9.0,9.0,9.0,12.0,0.1\n",
    "1,100,9.0,9.0,9.0,9.0,9.0,9.0,12.0,1e999\n",
    "1,100,9.0,9.0,9.0,9.0,9.0,9.0,1_2.0,0.1\n",
    "1_0,100,9.0,9.0,9.0,9.0,9.0,9.0,12.0,0.1\n",
    "1, 100,9.0,9.0,9.0,9.0,9.0,9.0,12.0,0.1\n",
    "\u0661,100,9.0,9.0,9.0,9.0,9.0,9.0,12.0,0.1\n",
    "0,100,9.0,9.0,9.0,9.0,9.0,9.0,12.0,0.1\n",
    "1,50,9.0,9.0,9.0,9.0,9.0,9.0,12.0,0.1\n",
    "1,20,9.0,9.0,9.0,9.0,9.0,9.0,12.0,0.1\n",
], ids=["truncated", "not-a-number", "too-wide", "nan-median", "infinite-return",
        "overflowing-sigma", "underscore-real", "underscore-generation",
        "space-timesteps", "non-ascii-digit", "generation-repeated",
        "timesteps-repeated", "timesteps-decreasing"])
def test_plot_data_on_a_malformed_curve_exits_2(tmp_path, capsys, body):
    good = "0,50,9.0,9.0,9.0,9.0,9.0,9.0,12.0,0.1\n"
    path = tmp_path / "cartpole_csa_seed0.csv"
    path.write_text(",".join(CURVE_COLUMNS) + "\n" + good + body)
    assert run_cli("plot-data", "--run-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path} line 3" in err


def test_plot_data_on_a_foreign_csv_exits_2(tmp_path, capsys):
    (tmp_path / "cartpole_csa_seed0.csv").write_text("a,b\n1,2\n")
    assert run_cli("plot-data", "--run-dir", str(tmp_path)) == 2
    assert "not a training curve file" in capsys.readouterr().err


def test_plot_data_skips_a_curve_without_records(tmp_path, capsys):
    # a run whose generation 0 ends degenerate writes a header-only curve
    empty = [tmp_path / "cartpole_csa_seed0.csv", tmp_path / "cartpole_cma_seed0.csv"]
    for path in empty:
        write_curve_csv(str(path), [])
    write_curve_csv(str(tmp_path / "cartpole_csa_seed1.csv"),
                    [TrainRecord(0, 50, 9.0, [9.0] * 5, 12.0, 0.1)])
    assert run_cli("plot-data", "--run-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert all(f"skipped {path}: the curve has no records" in out for path in empty)
    lines = (tmp_path / "cartpole_aggregate.csv").read_text().splitlines()
    assert lines == ["cumulative_timesteps,csa_median,csa_std", "50,9.0,0.0"]


def test_parse_address_forms():
    assert parse_address("10.0.0.1:70", default_port=1) == ("10.0.0.1", 70)
    assert parse_address(":70", default_port=1) == ("127.0.0.1", 70)
    assert parse_address("somehost", default_port=9) == ("somehost", 9)
    from evolin.cli import CliError
    with pytest.raises(CliError):
        parse_address("host:notaport", default_port=9)


# ---------------------------------------------------------------------------
# train artifacts and summary oracle


def train_run(tmp_path, *extra):
    out = tmp_path / "run"
    code = run_cli("train", "--env", "cartpole", "--variant", "csa",
                   "--seeds", "5,6", "--budget", "2500",
                   "--output-dir", str(out), *extra)
    assert code == 0
    return out


def test_train_artifacts_and_summary_match_curves(tmp_path):
    out = train_run(tmp_path)
    summary = load_json(out / "cartpole_csa_summary.json")
    assert summary["resolved_lambda"] == 4
    assert summary["config"]["env_id"] == "cartpole"
    assert summary["config"]["budget_timesteps"] == 2500
    assert summary["threshold"] == 475.0

    maxima, reached = [], []
    for row in summary["seeds"]:
        records = read_curve_csv(str(out / row["curve"]))
        assert row["status"] == "budget_exhausted"
        max_median = max(r.median_test_return for r in records)
        hits = [r.cumulative_timesteps for r in records
                if r.median_test_return >= summary["threshold"]]
        assert row["max_median_return"] == max_median
        assert row["timesteps_to_threshold"] == (min(hits) if hits else None)
        maxima.append(max_median)
        if hits:
            reached.append(min(hits))
        ckpt = out / row["checkpoint"]
        assert ckpt.exists()
    assert summary["max_median_return_mean"] == statistics.mean(maxima)
    assert summary["max_median_return_median"] == statistics.median(maxima)
    assert summary["timesteps_to_threshold"] == (min(reached) if reached else None)


def test_train_is_reproducible_byte_for_byte(tmp_path):
    first = train_run(tmp_path / "a")
    second = train_run(tmp_path / "b")
    name = "cartpole_csa_seed5.csv"
    assert (first / name).read_bytes() == (second / name).read_bytes()


def test_lambda_default_resolves_per_environment(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--env", "cartpole", "--variant", "csa",
                   "--seeds", "5", "--budget", "600", "--lambda", "default",
                   "--output-dir", str(out)) == 0
    summary = load_json(out / "cartpole_csa_summary.json")
    assert summary["resolved_lambda"] == 32


def test_config_file_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "env_id": "cartpole", "variant": "csa", "sigma0": 0.05,
        "seeds": [5], "budget_timesteps": 1500,
        "output_dir": str(tmp_path / "from_file"),
    }))
    assert run_cli("train", "--config", str(cfg_path), "--sigma0", "0.1") == 0
    summary = load_json(tmp_path / "from_file" / "cartpole_csa_summary.json")
    assert summary["config"]["sigma0"] == 0.1
    assert summary["config"]["budget_timesteps"] == 1500
    assert summary["config"]["seeds"] == [5]


CONFIG_KEYS = ["env_id", "variant", "sigma0", "lambda", "budget_timesteps", "seeds",
               "test_every", "threshold", "target_return", "fitness_spec", "output_dir"]


def test_summary_config_block_from_flags(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--env", "cartpole", "--variant", "csa",
                   "--seeds", "5,6", "--budget", "300", "--output-dir", str(out)) == 0
    config = load_json(out / "cartpole_csa_summary.json")["config"]
    assert list(config) == CONFIG_KEYS
    assert config == {
        "env_id": "cartpole", "variant": "csa", "sigma0": 0.1, "lambda": 4,
        "budget_timesteps": 300, "seeds": [5, 6], "test_every": 1,
        "threshold": 475.0, "target_return": None,
        "fitness_spec": {"train_episodes": 1,
                         "shaping": {"mode": "identity", "bonus": 0.0},
                         "common_random_numbers": True},
        "output_dir": str(out)}


def test_summary_config_block_from_a_config_file(tmp_path):
    fitness_spec = {"train_episodes": 2,
                    "shaping": {"mode": "drop_alive_bonus", "bonus": 1.0},
                    "common_random_numbers": False}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "env_id": "cartpole", "variant": "sep-cma", "sigma0": 0.2,
        "lambda": "default", "budget_timesteps": 300, "seeds": [3],
        "test_every": 2, "threshold": 100, "target_return": 450,
        "fitness_spec": fitness_spec, "output_dir": str(tmp_path / "run")}))
    assert run_cli("train", "--config", str(cfg_path)) == 0
    config = load_json(tmp_path / "run" / "cartpole_sep-cma_summary.json")["config"]
    assert list(config) == CONFIG_KEYS
    assert config == {
        "env_id": "cartpole", "variant": "sep-cma", "sigma0": 0.2,
        "lambda": "default", "budget_timesteps": 300, "seeds": [3],
        "test_every": 2, "threshold": 100.0, "target_return": 450.0,
        "fitness_spec": fitness_spec, "output_dir": str(tmp_path / "run")}
    assert type(config["threshold"]) is float and type(config["target_return"]) is float


def test_eval_replays_checkpoint_median(tmp_path, capsys):
    out = train_run(tmp_path)
    summary = load_json(out / "cartpole_csa_summary.json")
    row = summary["seeds"][0]
    assert run_cli("eval", "--checkpoint", str(out / row["checkpoint"])) == 0
    printed = capsys.readouterr().out
    median_line = [l for l in printed.splitlines()
                   if l.startswith("median_test_return")][0]
    assert float(median_line.split()[1]) == row["max_median_return"]


def edit_normalizer(**fields):
    return lambda d: dict(d, normalizer={**d["normalizer"], **fields})


def pendulum(genome=(0.0, 0.0, 0.0), mean=(0.0, 0.0, 0.0), m2=(1.0, 1.0, 1.0)):
    """An edit giving a pendulum checkpoint of these entries."""
    return lambda d: dict(d, env_id="pendulum", genome=list(genome),
                          normalizer={"count": 3, "mean": list(mean), "m2": list(m2)})


@pytest.mark.parametrize("edit", [
    lambda d: dict(d, genome=d["genome"][:2]),
    lambda d: dict(d, normalizer={"count": 3, "mean": [0.0] * 3, "m2": [1.0] * 3}),
    lambda d: dict(d, env_id="walker"),
    lambda d: [d],
    lambda d: dict(d, genome=[math.nan] + d["genome"][1:]),
    lambda d: dict(d, genome=d["genome"][:-1] + [math.inf]),
    edit_normalizer(mean=[0.0, 0.0, 0.0, math.nan]),
    edit_normalizer(m2=[1.0, 1.0, 1.0, math.inf]),
    edit_normalizer(m2=[1.0, 1.0, 1.0, -1.0]),
    edit_normalizer(count=-1),
    pendulum(genome=(math.nan, 0.0, 0.0)),
    pendulum(m2=(1.0, -1.0, 1.0)),
    pendulum(mean=(0.0, math.inf, 0.0)),
    lambda d: dict(d, master_seed="-1"),
    lambda d: dict(d, generation=-1),
    lambda d: dict(d, generation=2.5),
    edit_normalizer(count=3.7),
    edit_normalizer(count=True),
    lambda d: dict(d, genome=[repr(v) for v in d["genome"]]),
    lambda d: dict(d, normalizer={**d["normalizer"],
                                  "mean": [repr(v) for v in d["normalizer"]["mean"]]}),
    lambda d: dict(d, genome=[True] * 8),
], ids=["short-genome", "3-dim-normalizer", "unknown-env", "not-an-object",
        "nan-genome", "infinite-genome", "nan-mean", "infinite-m2", "negative-m2",
        "negative-count", "pendulum-nan-genome", "pendulum-negative-m2",
        "pendulum-infinite-mean", "negative-seed", "negative-generation",
        "float-generation", "float-count", "bool-count", "string-genome",
        "string-mean", "bool-genome"])
def test_eval_bad_checkpoint_exits_2(tmp_path, capsys, edit):
    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "cartpole_solved.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(load_json(fixture))))
    assert run_cli("eval", "--checkpoint", str(bad)) == 2
    assert capsys.readouterr().err.startswith("error: cannot load checkpoint")


def test_eval_fixture_checkpoint_scores_500(capsys):
    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "cartpole_solved.json")
    assert run_cli("eval", "--checkpoint", fixture) == 0
    assert "median_test_return 500.0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# plot-data oracle


def oracle_fill(records, grid):
    # NaN before the curve's first record
    out = []
    for t in grid:
        value = math.nan
        for r in records:
            if r.cumulative_timesteps <= t:
                value = r.median_test_return
            else:
                break
        out.append(value)
    return out


def test_plot_data_matches_independent_recomputation(tmp_path):
    out = train_run(tmp_path)
    assert run_cli("plot-data", "--run-dir", str(out)) == 0
    agg_path = out / "cartpole_aggregate.csv"
    lines = agg_path.read_text().splitlines()
    header = lines[0].split(",")
    med_col = header.index("csa_median")
    std_col = header.index("csa_std")

    series = [read_curve_csv(str(out / f"cartpole_csa_seed{s}.csv"))
              for s in (5, 6)]
    grid = sorted({r.cumulative_timesteps for recs in series for r in recs})
    filled = np.array([oracle_fill(recs, grid) for recs in series])

    assert len(lines) - 1 == len(grid)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == grid[i]
        assert abs(float(cells[med_col]) - np.nanmedian(filled[:, i])) <= 1e-9
        assert abs(float(cells[std_col]) - np.nanstd(filled[:, i])) <= 1e-9


def test_plot_data_counts_a_curve_only_from_its_first_record(tmp_path, recwarn):
    def curve(name, points):
        write_curve_csv(str(tmp_path / name),
                        [TrainRecord(g, step, value, [value] * 5, value, 0.1)
                         for g, (step, value) in enumerate(points)])

    curve("cartpole_csa_seed0.csv", [(100, 10.0), (300, 20.0)])
    curve("cartpole_csa_seed1.csv", [(200, 500.0)])
    curve("cartpole_cma_seed0.csv", [(300, 7.0)])
    assert run_cli("plot-data", "--run-dir", str(tmp_path)) == 0
    # csa at 100: seed0 alone, 10.0; at 200: median of 10 and 500 is 255,
    # std 245; at 300: median of 20 and 500 is 260, std 240.  cma has no
    # value before 300
    assert (tmp_path / "cartpole_aggregate.csv").read_text().splitlines() == [
        "cumulative_timesteps,csa_median,csa_std,cma_median,cma_std",
        "100,10.0,0.0,nan,nan",
        "200,255.0,245.0,nan,nan",
        "300,260.0,240.0,7.0,0.0"]
    assert not recwarn.list


def test_plot_data_single_trial_has_zero_std(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--env", "cartpole", "--variant", "csa",
                   "--seeds", "5", "--budget", "1200",
                   "--output-dir", str(out)) == 0
    assert run_cli("plot-data", "--run-dir", str(out)) == 0
    lines = (out / "cartpole_aggregate.csv").read_text().splitlines()
    records = read_curve_csv(str(out / "cartpole_csa_seed5.csv"))
    by_step = {r.cumulative_timesteps: r.median_test_return for r in records}
    for line in lines[1:]:
        step, median, std = line.split(",")
        assert float(std) == 0.0
        assert float(median) == by_step[int(step)]


# ---------------------------------------------------------------------------
# distributed command equivalence


def free_port():
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def patient_worker(port, deadline=15.0):
    stop = time.monotonic() + deadline
    while True:
        try:
            return serve_worker("127.0.0.1", port)
        except OSError:
            if time.monotonic() > stop:
                raise
            time.sleep(0.05)


def test_train_distributed_cli_matches_local_cli(tmp_path):
    local_out = train_run(tmp_path / "local")
    port = free_port()
    threads = [threading.Thread(target=patient_worker, args=(port,), daemon=True)
               for _ in range(2)]
    for t in threads:
        t.start()
    dist_out = tmp_path / "dist"
    code = run_cli("train-distributed", "--env", "cartpole", "--variant", "csa",
                   "--seeds", "5,6", "--budget", "2500",
                   "--output-dir", str(dist_out),
                   "--listen", f"127.0.0.1:{port}", "--expected-workers", "2",
                   "--wait-timeout", "30")
    assert code == 0
    for t in threads:
        t.join(timeout=10)
    for seed in (5, 6):
        name = f"cartpole_csa_seed{seed}.csv"
        assert (dist_out / name).read_bytes() == (local_out / name).read_bytes()
    local_summary = load_json(local_out / "cartpole_csa_summary.json")
    dist_summary = load_json(dist_out / "cartpole_csa_summary.json")
    for summary in (local_summary, dist_summary):
        summary["config"].pop("output_dir")
    assert dist_summary == local_summary


# ---------------------------------------------------------------------------
# sanity command


def test_sanity_report_lists_exactly_the_configured_checks(tmp_path):
    out = tmp_path / "sanity"
    assert run_cli("sanity", "--output-dir", str(out)) == 0
    report = load_json(out / "sanity_report.json")
    assert [c["name"] for c in report["checks"]] == list(SANITY_CHECKS)
    assert all(c["passed"] for c in report["checks"])
    for variant in ("csa", "sep-cma", "cma"):
        trace = out / f"sanity_quadratic2d_trace_{variant}.csv"
        lines = trace.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["generation", "sigma", "m_0", "m_1"]
        sigmas = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(sigmas) >= 10
        assert sigmas[9] < 3.0
