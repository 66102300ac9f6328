"""A seed-sharing worker for the distributed workload.

Runs ``evolin.serve_worker`` like ``evolin serve-worker`` does.  With
``--spans PATH`` it also times every ``run_task`` call and writes the spans
to PATH when the master says BYE.
"""

from __future__ import annotations

import argparse
import json
import time

import evolin
from evolin import distributed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--connect", required=True)
    ap.add_argument("--worker-id", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    host, port = args.connect.rsplit(":", 1)

    spans: list[tuple[float, float]] = []
    if args.spans:
        run_task = distributed.run_task

        def timed_run_task(ctx, index):
            t = time.perf_counter()
            try:
                return run_task(ctx, index)
            finally:
                spans.append((t, time.perf_counter()))

        distributed.run_task = timed_run_task

    reason = evolin.serve_worker(host, int(port), worker_id=args.worker_id)
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"run_id": args.worker_id, "reason": reason,
                       "busy": [len(spans), sum(e - s for s, e in spans)],
                       "spans": [["distributed.run_task", s, e, -1]
                                 for s, e in spans]}, fh)
    return 0 if reason == "shutdown" else 1


if __name__ == "__main__":
    raise SystemExit(main())
