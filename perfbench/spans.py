"""In-memory tracing of evolin's layers, installed from outside the package.

``install`` replaces the public functions and methods at each layer boundary
with wrappers, in every evolin module that holds a reference to them, so the
package itself is unchanged.  Calls that happen once per generation or per
episode record a span (name, start, end, parent, run id).  Calls that happen
once per env step or per candidate draw (env step, ``act``, normaliser
update, candidate draw, objective evaluation, message framing) are
aggregated as a count and summed time under their parent span, so tracing
does not record millions of spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# Spans whose inclusive time makes up a generation: ask, evaluate, tell and
# the test probe.  Objective evaluations (an aggregate) are optimize's
# evaluate phase.
PHASE_SPANS = ("es.ask", "es.tell", "evaluate.evaluate_generation",
               "distributed.build_gen_message",
               "distributed.MasterServer.evaluate_generation",
               "evaluate.collect_generation", "evaluate.test_policy")
PHASE_AGGS = ("testfuncs.eval",)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []          # [name, start, end, parent]
        self.stack = [-1]
        self.aggs = defaultdict(lambda: [0, 0.0])   # (parent, name) -> [n, s]
        self.counters = defaultdict(float)
        self.t0 = None
        self.t1 = None
        self.window_aggs: dict = {}
        self.window_counters: dict = {}

    def start_timed(self) -> None:
        """Begin the timed window; aggregates from set-up are discarded."""
        self.t0 = perf()
        self.aggs.clear()
        self.counters.clear()

    def stop_timed(self) -> None:
        self.t1 = perf()
        self.window_aggs = {k: tuple(v) for k, v in self.aggs.items()}
        self.window_counters = dict(self.counters)

    def span(self, name, fn):
        """Wrap ``fn`` so each call records a span; ``name`` may be a callable
        of the call's arguments."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid = len(spans)
            spans.append([label, perf(), None, stack[-1]])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = perf()

        return wrapper

    def agg(self, name, fn):
        aggs, stack = self.aggs, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec = aggs[(stack[-1], name(args) if callable(name) else name)]
                rec[0] += 1
                rec[1] += perf() - t

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

    def summary(self) -> dict:
        """Per-layer sums over the timed window, for the parent to merge."""
        t0, t1 = self.t0, self.t1
        spans = self.spans

        def clipped(i):
            _, s, e, _ = spans[i]
            return max(0.0, min(e, t1) - max(s, t0))

        child_time = defaultdict(float)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += clipped(i)
        for (parent, _), (_, total) in self.window_aggs.items():
            if parent >= 0:
                child_time[parent] += total

        layer_self = defaultdict(float)
        span_stats = defaultdict(lambda: [0, 0.0])
        phases = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            stat = span_stats[name]
            stat[0] += 1
            stat[1] += end - start
            layer_self[name.split(".")[0]] += clipped(i) - child_time[i]
            if name.startswith(PHASE_SPANS) and not self._inside_phase(parent):
                phases += clipped(i)

        agg_stats = defaultdict(lambda: [0, 0.0])
        probe_steps = 0
        for (parent, name), (n, total) in self.window_aggs.items():
            agg_stats[name][0] += n
            agg_stats[name][1] += total
            layer_self[name.split(".")[0]] += total
            if name.startswith(PHASE_AGGS):
                phases += total
            if name.startswith("envs.step.") and self._under(parent, "evaluate.test_policy"):
                probe_steps += n
        return {"wall_s": t1 - t0, "phases_s": phases,
                "spans": dict(span_stats), "aggs": dict(agg_stats),
                "self_s": dict(layer_self), "probe_steps": probe_steps,
                "counters": self.window_counters}

    def _under(self, sid: int, name: str) -> bool:
        while sid >= 0:
            if self.spans[sid][0] == name:
                return True
            sid = self.spans[sid][3]
        return False

    def _inside_phase(self, sid: int) -> bool:
        while sid >= 0:
            if self.spans[sid][0].startswith(PHASE_SPANS):
                return True
            sid = self.spans[sid][3]
        return False


def _replace(orig, new) -> None:
    """Point every evolin module's reference to ``orig`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "evolin" or modname.startswith("evolin."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def _wrap_method(cls, attr: str, make) -> None:
    setattr(cls, attr, make(getattr(cls, attr)))


def install(tracer: Tracer) -> None:
    """Wrap evolin's layer boundaries in the driving process."""
    from evolin import distributed, envs, es, evaluate, policy, testfuncs

    for mod, names in ((es, ("new_strategy", "ask", "optimize")),
                       (evaluate, ("train", "evaluate_generation",
                                   "evaluate_candidate", "rollout",
                                   "test_policy", "collect_generation",
                                   "write_curve_csv")),
                       (distributed, ("train_distributed", "build_gen_message"))):
        for fname in names:
            orig = getattr(mod, fname)
            _replace(orig, tracer.span(f"{mod.__name__.split('.')[-1]}.{fname}", orig))

    for mod, fname, label in ((es, "candidate_z", "es.candidate_z"),
                              (policy, "act", "policy.act"),
                              (testfuncs, "eval_test_function", "testfuncs.eval")):
        orig = getattr(mod, fname)
        _replace(orig, tracer.agg(label, orig))

    orig_tell = es.tell

    def tell(*args, **kwargs):
        new = orig_tell(*args, **kwargs)
        if new.c_full is not None and new.eig_age == 0:
            tracer.counters["eig_refreshes"] += 1
        return new

    _replace(orig_tell, tracer.span(lambda a: f"es.tell.{a[0].variant}",
                                    functools.wraps(orig_tell)(tell)))

    _wrap_method(envs._EnvBase, "step",
                 lambda f: tracer.agg(lambda a: f"envs.step.{a[0].spec.env_id}", f))
    _wrap_method(envs._EnvBase, "reset", lambda f: tracer.agg("envs.reset", f))
    _wrap_method(policy.ObsNormalizer, "update",
                 lambda f: tracer.agg("policy.norm_update", f))
    _wrap_method(policy.ObsNormalizer, "merge",
                 lambda f: tracer.agg("policy.norm_merge", f))
    from_genome = policy.LinearPolicy.from_genome
    policy.LinearPolicy.from_genome = staticmethod(
        tracer.agg("policy.from_genome", from_genome))
    _wrap_method(distributed.MasterServer, "evaluate_generation",
                 lambda f: tracer.span("distributed.MasterServer.evaluate_generation", f))
    _install_framing(tracer, distributed)


def _install_framing(tracer: Tracer, distributed) -> None:
    """Count the master's messages and bytes, and time each TASK from its
    encoding to the decoding of its RESULT."""
    counters = tracer.counters
    sent: dict[tuple, float] = {}
    orig_encode, orig_decode = distributed.encode_message, distributed.decode_message

    def encode_message(msg):
        out = orig_encode(msg)
        counters["msgs"] += 1
        counters["bytes"] += len(out)
        if msg.get("type") == "task":
            counters["tasks_sent"] += 1
            sent[(msg["generation"], msg["index"])] = perf()
        return out

    def decode_message(line):
        obj = orig_decode(line)
        counters["msgs"] += 1
        counters["bytes"] += len(line) + 1
        if obj.get("type") == "result":
            t = sent.pop((obj.get("generation"), obj.get("index")), None)
            if t is not None:
                counters["rtt_n"] += 1
                counters["rtt_s"] += perf() - t
        return obj

    _replace(orig_encode, tracer.agg("distributed.encode_message",
                                     functools.wraps(orig_encode)(encode_message)))
    _replace(orig_decode, tracer.agg("distributed.decode_message",
                                     functools.wraps(orig_decode)(decode_message)))
