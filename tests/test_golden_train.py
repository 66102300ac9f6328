"""Whole training runs pinned bit for bit.

``fixtures/golden_train.json`` (written by ``tools/make_fixtures.py``) holds,
for a few training runs, the curve CSV bytes, the status, the budget spent,
the final distribution and the best checkpoint.  The runs cover the ways a
run ends: the generation cap, a met target, a spent budget and a degenerate
``ask``, with probes every generation and every second or third one.  A
distributed run must replay them too, and so must the training loop when
each generation's ``Batch`` is cut into ranges scored separately.
"""

import json
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from evolin import (MasterServer, serve_worker, train, train_distributed,
                    write_curve_csv)
from evolin import evaluate
from evolin.evaluate import RunSpec, collect_generation, score_candidates

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_train.json")

with open(FIXTURE, encoding="utf-8") as _fh:
    CASES = json.load(_fh)["cases"]


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def poison_tell_from(monkeypatch, generation: int) -> None:
    """Make every state ``tell`` returns from ``generation`` on unsampleable,
    so the next ``ask`` raises NumericalDegeneracyError."""
    real_tell = evaluate.tell

    def poisoned_tell(*args, **kwargs):
        new = real_tell(*args, **kwargs)
        if new.g >= generation:
            if new.c_diag is not None:
                new.c_diag = np.full_like(new.c_diag, np.inf)
            else:
                new.eig_scale = np.full_like(new.eig_scale, np.inf)
        return new

    monkeypatch.setattr(evaluate, "tell", poisoned_tell)


def assert_matches_fixture(result, case, tmp_path) -> None:
    path = tmp_path / "curve.csv"
    write_curve_csv(str(path), result.records)
    assert path.read_bytes().decode("utf-8") == case["curve_csv"]
    assert result.status == case["status"]
    assert result.cumulative_timesteps == case["cumulative_timesteps"]
    assert result.state.g == case["state_g"]
    assert hexes(result.state.m) == case["state_m"]
    assert result.state.sigma.hex() == case["state_sigma"]
    assert result.best.generation == case["best_generation"]
    assert hexes(result.best.genome) == case["best_genome"]
    norm = case["best_normalizer"]
    assert result.best.normalizer.count == norm["count"]
    assert hexes(result.best.normalizer.mean) == norm["mean"]
    assert hexes(result.best.normalizer.m2) == norm["m2"]


def run_case(case, monkeypatch, run):
    kwargs = dict(case["kwargs"])
    degenerate_at = kwargs.pop("degenerate_at", None)
    if degenerate_at is not None:
        poison_tell_from(monkeypatch, degenerate_at)
    return run(case["env_id"], case["variant"], **kwargs)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_training_run_matches_fixture(case, monkeypatch, tmp_path) -> None:
    assert_matches_fixture(run_case(case, monkeypatch, train), case, tmp_path)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_distributed_training_run_matches_fixture(case, monkeypatch, tmp_path) -> None:
    with MasterServer() as server:
        worker = threading.Thread(target=serve_worker, args=server.address,
                                  daemon=True)
        worker.start()
        result = run_case(case, monkeypatch, lambda *a, **kw: train_distributed(
            *a, **kw, expected_workers=1, server=server, wait_timeout=30.0))
    worker.join(timeout=10)
    assert_matches_fixture(result, case, tmp_path)


def answer_in_parts(batch):
    """Answer a generation's ``Batch`` as workers would, without sockets:
    cut it into uneven ranges, score each with ``score_candidates``, the
    owed probe with the middle one, and fold them in reverse order."""
    lam = len(batch.indexes)
    assert batch.indexes == range(lam) and batch.x.shape[0] == lam
    bounds = sorted({0, 1, lam // 2 + 1, lam})
    spans = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    parts = []
    for span in reversed(spans):
        owes = span is spans[len(spans) // 2]
        parts.append((span, score_candidates(replace(
            batch, indexes=span, x=batch.x[span.start:span.stop],
            probe=batch.probe if owes else None))))
    return collect_generation(parts, lam)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_run_answered_in_ranges_matches_fixture(case, monkeypatch, tmp_path) -> None:
    result = run_case(case, monkeypatch, lambda *a, **kw: evaluate._drive(
        RunSpec(*a, **kw), answer_in_parts))
    assert_matches_fixture(result, case, tmp_path)
