"""Replay ``golden_wire.json``: the protocol's TASK and RESULT lines of the
first generations of two runs, pinned byte for byte.

A change to the wire shows here first, so a new protocol version is a
deliberate edit of this fixture (``tools/make_fixtures.py`` rewrites it),
never a side effect.  Each end is checked on its own: the master must send
the fixture's TASK lines, a worker must answer each of them with the
fixture's RESULT line, and the master must read each RESULT into the
``Scores`` that carry the run on to the next generation's TASKs.
"""

import json
import os
from dataclasses import replace

import pytest

from evolin import evaluate
from evolin.distributed import (PROTOCOL_VERSION, build_gen_message, decode_message,
                                encode_message, gen_context, result_message, run_task,
                                scores_from_result, split_ranges)
from evolin.evaluate import RunSpec, collect_generation

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "fixtures", "golden_wire.json"), encoding="utf-8") as fh:
    CASES = json.load(fh)["cases"]

TASK_KEYS = ["type", "protocol_version", "run_id", "generation", "master_seed",
             "env_id", "index", "x", "m", "normalizer", "fitness_spec", "probe"]


def line(msg) -> str:
    return encode_message(msg).decode("utf-8").rstrip("\n")


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_wire_replays_fixture(case) -> None:
    run_id, lines = case["run_id"], iter(case["lines"])
    generations = []

    def answer(batch):
        parts = []
        spans = split_ranges(len(batch.indexes), case["parts"])
        for span in spans:
            # the master sends each range's Batch, the last owing the probe
            task_line, result_line = next(lines), next(lines)
            want = replace(batch, indexes=span, x=batch.x[span.start:span.stop],
                           probe=batch.probe if span is spans[-1] else None)
            assert line(build_gen_message(want, run_id)) == task_line
            task = decode_message(task_line)
            assert list(task) == TASK_KEYS and task["protocol_version"] == PROTOCOL_VERSION
            # a worker reads it back and answers with the fixture's RESULT
            rid, got = gen_context(task)
            assert rid == run_id and line(build_gen_message(got, rid)) == task_line
            assert line(result_message(rid, got.generation, got.indexes.start,
                                       run_task(got, got.indexes))) == result_line
            parts.append((span, scores_from_result(decode_message(result_line),
                                                   want, run_id)))
        generations.append(batch.generation)
        return collect_generation(parts, len(batch.indexes))

    evaluate._drive(RunSpec(case["env_id"], case["variant"], **case["kwargs"]), answer)
    assert generations == [0, 1, 2] and next(lines, None) is None
