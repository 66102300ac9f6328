"""Master/worker evaluation over newline-delimited JSON on TCP.

``train_distributed`` runs ``train``'s loop and cuts each generation's
``Batch`` into TASKs, one contiguous range of candidate indexes for each
idle worker.  A TASK carries a ``Batch``'s fields: the range's genome rows
``x``, which ``ask`` drew on the master, the mean, the normalizer snapshot,
the fitness spec and the owed probe.  A worker keeps no state between TASKs
and draws no candidate.  It parses a TASK back into the ``Batch`` of its
range, scores it as ``train`` scores a whole generation, and answers with
one RESULT holding the range's ``Scores`` in columns ``fitness``,
``raw_return``, ``count`` (timesteps and observation count), ``mean`` and
``m2``, one row per index, and its ``probe``; the master joins them into the
generation's ``Scores``.  A candidate's result does not depend on the batch
it is scored in, and a row reaches the worker with the master's exact bits,
so a distributed run reproduces a single-process run bit for bit.

The master plans each generation once: one contiguous range of at least one
index per worker, the larger first, each a TASK on one queue from which idle
workers take in turn.  The last (smallest) range's TASK also names, by its
generation, the test probe owed by the previous generation, if any; its
inputs are the TASK's own mean and normalizer, so the worker adds the
probe's ``TEST_EPISODES`` episodes to its batch and returns their raw
returns.  Every other TASK's probe is null.  The master runs no rollout.

Each TASK gets exactly one RESULT.  A worker that is lost, times out or
sends a reply that does not answer its TASK exactly is dropped and its whole
TASK queued again, so no live connection holds a TASK between generations
and no late reply is ever read.

Wire format (protocol version 8): one JSON object per line, UTF-8, field
"type" selecting HELLO / TASK / RESULT / BYE.  Reals use shortest-roundtrip
decimal form (the json module's default); 64-bit seeds travel as decimal
strings.  Both ends read a message through ``policy``'s checked readers, so
its values are checked, not coerced.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import time
import uuid
from collections import deque
from dataclasses import replace
from typing import Callable

from .envs import env_spec
from .es import _parse_seed
from .evaluate import (TEST_EPISODES, Batch, FitnessSpec, RunSpec, Scores,
                       TrainResult, _drive, collect_generation, score_candidates)
from .policy import ObsNormalizer, ProtocolError, _column, _count, genome_dim

PROTOCOL_VERSION = 8
DEFAULT_TASK_TIMEOUT = 60.0


class GenerationFailedError(RuntimeError):
    """No workers remain while candidate evaluations or a probe are owed."""


# ---------------------------------------------------------------------------
# framing


def encode_message(msg: dict) -> bytes:
    return (json.dumps(msg, separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")


def decode_message(line: bytes | str) -> dict:
    try:
        obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except ValueError as exc:   # bad UTF-8, bad JSON, an int past str's digit limit
        raise ProtocolError(f"malformed message line: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise ProtocolError("message must be an object with a string 'type'")
    return obj


def _take_line(buf: bytearray) -> bytes | None:
    """Cut the first newline-framed line off ``buf``; None if it holds no
    whole line."""
    i = buf.find(b"\n")
    if i < 0:
        return None
    line = bytes(buf[:i])
    del buf[: i + 1]
    return line


class _LineReader:
    """Accumulate stream bytes and yield one newline-framed line at a time."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = bytearray()

    def readline(self) -> bytes | None:
        while (line := _take_line(self._buf)) is None:
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                return None
            if not chunk:
                return None
            self._buf += chunk
        return line


def _no_delay(sock: socket.socket) -> None:
    """Send small messages at once: under Nagle's algorithm a small write
    waits until the peer acknowledges earlier data, which a delayed ACK can
    hold back for tens of milliseconds."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


# ---------------------------------------------------------------------------
# message builders


def hello_message(worker_id: str) -> dict:
    return {"type": "hello", "protocol_version": PROTOCOL_VERSION,
            "worker_id": worker_id}


def bye_message(reason: str) -> dict:
    return {"type": "bye", "reason": reason}


def task_message(gen_msg: dict, span: range, probe: bool = False) -> dict:
    """Score candidates ``span`` (at least one) of the generation
    ``gen_msg`` describes, whose rows the TASK carries as ``x``, and with
    ``probe`` the probe it owes."""
    return dict(gen_msg, type="task", index=span.start, count=len(span),
                x=gen_msg["x"][span.start:span.stop],
                probe=gen_msg["probe"] if probe else None)


def build_gen_message(batch: Batch, run_id: str) -> dict:
    """The fields the TASKs of a whole generation's ``batch`` carry, with the
    genome rows ``x`` of all its candidates, in index order, from which
    ``task_message`` cuts each TASK's range.  A worker tests the owed probe's
    policy from the TASK's mean ``m``."""
    return {
        "protocol_version": PROTOCOL_VERSION,
        "run_id": run_id,
        "generation": int(batch.generation),
        "master_seed": str(int(batch.master_seed)),
        "env_id": batch.env_id,
        "lambda": len(batch.indexes),
        "m": batch.m.tolist(),
        "x": batch.x.tolist(),
        "normalizer": batch.normalizer.to_dict(),
        "fitness_spec": batch.fitness_spec.to_dict(),
        "probe": batch.probe,
    }


def result_message(run_id: str, generation: int, index: int, scores: Scores) -> dict:
    """The one reply to a TASK whose range starts at ``index``: its
    ``Scores`` as columns, one row per index in index order, and their
    ``probe`` (None if not flagged)."""
    return {
        "type": "result",
        "run_id": run_id,
        "generation": int(generation),
        "index": int(index),
        "fitness": scores.shaped.tolist(),
        "raw_return": scores.raw.tolist(),
        "count": scores.count.tolist(),
        "mean": scores.mean.tolist(),
        "m2": scores.m2.tolist(),
        "probe": scores.probe,
    }


def scores_from_result(msg: dict, task: dict) -> Scores:
    """Parse the reply to ``task``: the range's ``Scores``, whose ``probe``
    is None unless ``task`` names a probe.  Raises ProtocolError unless
    ``msg`` is a RESULT answering exactly that TASK: one row per index in
    every column, finite fitness and raw return, counts no fewer than one
    step per training episode and no more than the episode limit allows,
    moments of the env's ``obs_dim`` finite entries (m2 not negative), and
    ``TEST_EPISODES`` finite probe returns or none."""
    if (msg.get("type") != "result" or msg.get("run_id") != task["run_id"]
            or _count(msg.get("generation"), "RESULT generation") != task["generation"]
            or _count(msg.get("index"), "RESULT index") != task["index"]):
        raise ProtocolError("reply answers another TASK")
    if task["probe"] is None and msg.get("probe") is not None:
        raise ProtocolError("RESULT carries a probe its TASK did not ask for")
    probe = None if task["probe"] is None else _column(msg, "probe", TEST_EPISODES).tolist()
    rows, spec = task["count"], env_spec(task["env_id"])
    episodes = task["fitness_spec"]["train_episodes"]
    m2 = _column(msg, "m2", rows, spec.obs_dim)
    if (m2 < 0).any():
        raise ProtocolError("RESULT m2 must not be negative")
    count = _column(msg, "count", rows, parse=lambda v, what: _count(
        v, what, episodes, episodes * spec.max_episode_steps))
    return Scores(raw=_column(msg, "raw_return", rows),
                  shaped=_column(msg, "fitness", rows), count=count,
                  mean=_column(msg, "mean", rows, spec.obs_dim), m2=m2, probe=probe)


# ---------------------------------------------------------------------------
# worker side


def gen_context(msg: dict) -> tuple[str, Batch]:
    """Validate a TASK and parse it into its run id and the ``Batch`` of its
    range.  Values are checked, not coerced.  Raises ProtocolError (or
    KeyError, TypeError, ValueError) on a TASK the worker cannot score."""
    if msg.get("protocol_version") != PROTOCOL_VERSION:
        raise ProtocolError("unsupported protocol version in TASK")
    run_id, env_id = msg["run_id"], msg["env_id"]
    if not (isinstance(run_id, str) and isinstance(env_id, str)):
        raise ProtocolError("TASK run_id and env_id must be strings")
    spec = env_spec(env_id)
    n = genome_dim(spec.obs_dim, spec.action_space)
    generation = _count(msg.get("generation"), "TASK generation")
    indexes = _task_range(msg, _count(msg.get("lambda"), "TASK lambda", 1))
    probe = msg["probe"]
    return run_id, Batch(
        env_id=env_id,
        master_seed=_parse_seed(msg["master_seed"]),
        generation=generation,
        indexes=indexes,
        x=_column(msg, "x", len(indexes), n, where="TASK"),
        m=_column(msg, "m", n, where="TASK"),
        normalizer=ObsNormalizer.from_dict(msg.get("normalizer"), spec.obs_dim),
        fitness_spec=FitnessSpec.from_dict(msg["fitness_spec"]),
        probe=None if probe is None else _count(probe, "TASK probe", 0, generation - 1),
    )


def _task_range(msg: dict, lam: int) -> range:
    """The candidate indexes a TASK names: at least one, all below ``lam``."""
    index = _count(msg.get("index"), "TASK index", 0, lam - 1)
    return range(index, index + _count(msg.get("count"), "TASK count", 1, lam - index))


def run_task(batch: Batch, indexes: range) -> Scores:
    """``score_candidates`` on the rows of candidates ``indexes``, a
    sub-range of ``batch``'s, with the probe ``batch`` owes, if any."""
    first = indexes.start - batch.indexes.start
    return score_candidates(replace(batch, indexes=indexes,
                                    x=batch.x[first:first + len(indexes)]))


def serve_worker(host: str, port: int, *, worker_id: str | None = None,
                 connect_timeout: float = 10.0) -> str:
    """Connect to a master and answer each TASK on its own until told to
    stop.

    Returns the reason the loop ended ("eof", "protocol", or the reason
    carried by the master's BYE).  Raises OSError if the master cannot be
    reached at all.
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.settimeout(None)
    _no_delay(sock)
    wid = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
    reader = _LineReader(sock)

    def send(msg: dict) -> None:
        try:
            sock.sendall(encode_message(msg))
        except OSError:
            pass

    try:
        send(hello_message(wid))
        while True:
            line = reader.readline()
            if line is None:
                return "eof"
            try:
                msg = decode_message(line)
                if msg["type"] == "bye":
                    return str(msg.get("reason", ""))
                if msg["type"] != "task":
                    raise ProtocolError(f"unexpected {msg['type']!r} message")
                run_id, batch = gen_context(msg)
            except (KeyError, TypeError, ValueError):
                send(bye_message("protocol"))
                return "protocol"
            send(result_message(run_id, batch.generation, batch.indexes.start,
                                run_task(batch, batch.indexes)))
    finally:
        sock.close()


# ---------------------------------------------------------------------------
# master side


class _Conn:
    __slots__ = ("sock", "buf", "worker_id", "task", "alive")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()
        self.worker_id: str | None = None
        # the TASK held and its deadline
        self.task: tuple[dict, float] | None = None
        self.alive = True


def split_ranges(lam: int, parts: int) -> list[range]:
    """Cut ``range(lam)`` into at most ``parts`` contiguous ranges, the
    larger first; their sizes differ by at most one."""
    size, extra = divmod(lam, parts)
    bounds = [p * size + min(p, extra) for p in range(min(parts, lam) + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


class MasterServer:
    """Single-threaded event loop that farms candidate ranges to workers.

    Each generation is planned once into a queue of TASKs: one contiguous
    range of at least one index per worker, the larger first, the last also
    naming the probe the generation owes.  Each idle worker takes the next
    TASK; each TASK gets exactly one RESULT.  A worker whose reply does not
    answer its TASK exactly is sent BYE and dropped with reason
    ``protocol``; one whose TASK outlives ``task_timeout`` seconds is
    dropped with reason ``timeout`` and no BYE, since a send could block on
    a stalled peer.  Any drop (these, ``eof``, ``send-error``, ...) queues
    the worker's whole TASK again.
    Results are joined by candidate index, so neither scheduling nor worker
    failures can change what a generation returns.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 task_timeout: float = DEFAULT_TASK_TIMEOUT):
        if not (math.isfinite(task_timeout) and task_timeout > 0):
            raise ValueError("task_timeout must be finite and > 0")
        self._listener = socket.create_server((host, port), backlog=16)
        self._listener.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self._conns: list[_Conn] = []
        # TASKs of the generation in flight that no live worker holds
        self._queue: deque[dict] = deque()
        self.task_timeout = task_timeout
        self.dropped: list[tuple[str, str]] = []
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return host, port

    def worker_count(self) -> int:
        return len(self._workers())

    def _workers(self) -> list[_Conn]:
        return [c for c in self._conns if c.worker_id is not None]

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            # blocking with a deadline: reads are select-gated, sends bounded
            sock.settimeout(self.task_timeout)
            _no_delay(sock)
            conn = _Conn(sock)
            self._sel.register(sock, selectors.EVENT_READ, conn)
            self._conns.append(conn)

    def _drop(self, conn: _Conn, reason: str) -> None:
        if not conn.alive:
            return
        conn.alive = False
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.remove(conn)
        self.dropped.append((conn.worker_id or "<no-hello>", reason))
        if conn.task is not None:
            self._queue.append(conn.task[0])

    def _send(self, conn: _Conn, msg: dict) -> bool:
        try:
            conn.sock.sendall(encode_message(msg))
            return True
        except OSError:
            self._drop(conn, "send-error")
            return False

    def _reject(self, conn: _Conn) -> None:
        self._send(conn, bye_message("protocol"))
        self._drop(conn, "protocol")

    def _handle_hello(self, conn: _Conn, msg: dict) -> None:
        conn.worker_id = str(msg.get("worker_id", ""))
        if msg.get("protocol_version") != PROTOCOL_VERSION:
            self._send(conn, bye_message("protocol"))
            self._drop(conn, "protocol-version")

    def _pump(self, timeout: float) -> list[tuple[_Conn, dict]]:
        """One event-loop tick: accept, read, and sort worker messages."""
        out: list[tuple[_Conn, dict]] = []
        for key, _mask in self._sel.select(timeout):
            if key.data is None:
                self._accept()
                continue
            conn: _Conn = key.data
            try:
                chunk = conn.sock.recv(65536)
            except OSError:
                self._drop(conn, "recv-error")
                continue
            if not chunk:
                self._drop(conn, "eof")
                continue
            conn.buf += chunk
            while conn.alive and (line := _take_line(conn.buf)) is not None:
                try:
                    msg = decode_message(line)
                except ProtocolError:
                    self._reject(conn)
                    break
                kind = msg["type"]
                if kind == "hello":
                    self._handle_hello(conn, msg)
                elif kind == "bye":
                    self._drop(conn, f"bye:{msg.get('reason', '')}")
                else:
                    out.append((conn, msg))
        return out

    def wait_for_workers(self, count: int, timeout: float | None = None) -> None:
        """Block until ``count`` workers have completed their HELLO, or
        raise TimeoutError after ``timeout`` seconds (None waits forever).
        No TASK is out, so any reply drops its worker."""
        if timeout is not None and not timeout >= 0:
            raise ValueError(f"wait timeout must be >= 0, not {timeout!r}")
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.worker_count() < count:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{self.worker_count()} of {count} workers connected")
            for conn, _msg in self._pump(0.1):
                if conn.alive:
                    self._reject(conn)

    def evaluate_generation(self, gen_msg: dict) -> list[tuple[range, Scores]]:
        """Queue the TASKs of the generation ``gen_msg`` describes (one range
        per worker, the probe it owes on the last), hand them to idle
        workers, and collect the one RESULT each TASK gets.

        Returns each TASK's range with its ``Scores``, the last range's
        carrying the probe the generation owes.  A TASK whose
        worker is lost, times out or sends a reply that does not answer it
        is queued again whole.
        Raises GenerationFailedError when no workers remain and work is owed.
        """
        lam = gen_msg["lambda"]
        spans = split_ranges(lam, max(1, self.worker_count()))
        self._queue = deque(task_message(gen_msg, span, span is spans[-1])
                            for span in spans)

        parts: list[tuple[range, Scores]] = []
        while self._queue or any(c.task is not None for c in self._conns):
            workers = self._workers()
            if not workers:
                detail = "; ".join(f"{w}: {r}" for w, r in self.dropped[-4:])
                owed = gen_msg["probe"] is not None and all(s.probe is None for _, s in parts)
                raise GenerationFailedError(
                    f"no workers remain with {lam - sum(len(p[0]) for p in parts)} "
                    f"candidate(s) unevaluated at generation {gen_msg['generation']}"
                    + (" and its probe owed" if owed else "")
                    + (f" (recent drops: {detail})" if detail else ""))
            for conn in workers:
                if conn.task is None and self._queue:
                    task = self._queue.popleft()
                    # held before the send, so a failed send queues it again
                    conn.task = (task, time.monotonic() + self.task_timeout)
                    self._send(conn, task)
            for conn, msg in self._pump(0.05):
                if not conn.alive:
                    continue
                try:
                    if conn.task is None:
                        raise ProtocolError("reply without a TASK")
                    task = conn.task[0]
                    scores = scores_from_result(msg, task)
                except ProtocolError:
                    self._reject(conn)
                    continue
                conn.task = None
                parts.append((range(task["index"], task["index"] + task["count"]),
                              scores))
            now = time.monotonic()
            for conn in self._workers():
                if conn.task is not None and now > conn.task[1]:
                    self._drop(conn, "timeout")
        return parts

    def close(self, reason: str = "shutdown") -> None:
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns):
            self._send(conn, bye_message(reason))
            self._drop(conn, "closed")
        try:
            self._sel.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._sel.close()

    def __enter__(self) -> "MasterServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# training entry point


def train_distributed(env_id: str, variant: str, *, expected_workers: int,
                      server: MasterServer, wait_timeout: float | None = 60.0,
                      run_id: str | None = None, on_generation: Callable | None = None,
                      **settings) -> TrainResult:
    """Run ``train``'s loop with each generation's ``Batch`` cut into TASKs
    for the workers of ``server``, which stays open; the master itself runs
    no rollout.  ``settings`` are ``RunSpec``'s other fields.

    Identical in every recorded number to a local ``train`` call with the
    same arguments.  Each generation's test probe runs on a worker, in the
    batch of one range of the next generation; only a probe still owed when
    the run ends runs alone on the master.
    """
    return _train_distributed(RunSpec(env_id, variant, **settings), server,
                              expected_workers, wait_timeout, run_id, on_generation)


def _train_distributed(spec: RunSpec, server: MasterServer, expected_workers: int,
                       wait_timeout: float | None, run_id: str | None = None,
                       on_generation: Callable | None = None) -> TrainResult:
    """``train_distributed`` of a ``RunSpec``, which has been checked."""
    _count(expected_workers, "expected_workers", 1)
    run_id = run_id or f"{spec.env_id}-{spec.variant}-seed{spec.master_seed}"
    server.wait_for_workers(expected_workers, wait_timeout)

    def evaluate(batch: Batch) -> Scores:
        return collect_generation(
            server.evaluate_generation(build_gen_message(batch, run_id)),
            len(batch.indexes))

    return _drive(spec, evaluate, on_generation)
