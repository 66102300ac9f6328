"""Whole ``optimize`` runs pinned bit for bit.

``fixtures/golden_optimize.json`` (written by ``tools/make_fixtures.py``)
holds, for each variant on a rotated ellipsoid and for full CMA on a sphere
with a target, two seeds' history rows, status, evaluation count and best
point.  The runs take about 200 generations each, so they cover the
minimize path and many eigen refreshes of the full covariance.
"""

import json
import os

import numpy as np
import pytest

from evolin import optimize, testfuncs

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_optimize.json")

with open(FIXTURE, encoding="utf-8") as _fh:
    CASES = json.load(_fh)["cases"]


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("case", CASES, ids=[f"{c['name']}-seed{c['seed']}" for c in CASES])
def test_optimize_run_matches_fixture(case) -> None:
    fn = getattr(testfuncs, case["function"])(**case["args"])
    result = optimize(fn, case["variant"], np.ones(fn.n), seed=case["seed"],
                      **case["kwargs"])
    rows = [" ".join([str(r.generation), str(r.evals),
                      *hexes((r.best_f_gen, r.best_f, r.sigma))]) for r in result.history]
    assert rows == case["history"]
    assert result.status == case["status"]
    assert result.evals == case["evals"]
    assert result.best_f.hex() == case["best_f"]
    assert hexes(result.best_x) == case["best_x"]
