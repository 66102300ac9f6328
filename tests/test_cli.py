"""Exit codes, artifacts, and recomputation oracles for the command line."""

import json
import os
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from evolin.cli import SANITY_CHECKS, main, parse_address
from evolin.distributed import serve_worker
from evolin.evaluate import read_curve_csv


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
                                        ("--seeds", str(2**64))])
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


@pytest.mark.parametrize("doc", [[1, 2], {"sigma0": "big"},
                                 {"budget_timesteps": "lots"}, {"seeds": 5},
                                 {"test_every": [1]}, {"target_return": "high"},
                                 {"fitness_spec": 3}],
                         ids=["not-an-object", "sigma0", "budget", "seeds",
                              "test-every", "target", "fitness-spec"])
def test_malformed_config_exits_2_before_training(tmp_path, capsys, doc):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--env", "cartpole",
                   "--variant", "csa", "--output-dir", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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


def test_eval_replays_checkpoint_median(tmp_path, capsys):
    out = train_run(tmp_path)
    summary = load_json(out / "cartpole_csa_summary.json")
    row = summary["seeds"][0]
    assert run_cli("eval", "--checkpoint", str(out / row["checkpoint"])) == 0
    printed = capsys.readouterr().out
    median_line = [l for l in printed.splitlines()
                   if l.startswith("median_test_return")][0]
    assert float(median_line.split()[1]) == row["max_median_return"]


@pytest.mark.parametrize("edit", [
    lambda d: dict(d, genome=d["genome"][:2]),
    lambda d: dict(d, normalizer={"count": 3, "mean": [0.0] * 3, "m2": [1.0] * 3}),
    lambda d: dict(d, env_id="walker"),
    lambda d: dict(d, obs_dim=3),
    lambda d: [d],
], ids=["short-genome", "3-dim-normalizer", "unknown-env", "wrong-obs-dim",
        "not-an-object"])
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
    out = []
    for t in grid:
        value = records[0].median_test_return
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
        assert abs(float(cells[med_col]) - np.median(filled[:, i])) <= 1e-9
        assert abs(float(cells[std_col]) - np.std(filled[:, i])) <= 1e-9


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
