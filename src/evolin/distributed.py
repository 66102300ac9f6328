"""Seed-sharing master/worker evaluation over newline-delimited JSON on TCP.

The master never ships genomes: each generation it broadcasts one GEN
message carrying the search distribution (mean, step size, covariance
payload) plus the normalizer snapshot, then hands out candidate indexes
as TASK messages.  Workers regenerate the candidate from
(master_seed, generation, index) with the exact code the local evaluator
uses, so a distributed run reproduces a single-process run bit for bit.

Wire format: one JSON object per line, UTF-8, field "type" selecting
HELLO / GEN / TASK / RESULT / BYE.  Reals use shortest-roundtrip decimal
form (the json module's default); 64-bit seeds travel as decimal strings.
"""

from __future__ import annotations

import hashlib
import json
import selectors
import socket
import struct
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .envs import env_spec
from .es import CovTransform, DistributionState, sample_candidate_from_seed
from .evaluate import (CandidateEval, FitnessSpec, TrainResult,
                       collect_generation, evaluate_candidate, train)
from .policy import ObsNormalizer

PROTOCOL_VERSION = 1
DEFAULT_TASK_TIMEOUT = 60.0


class ProtocolError(RuntimeError):
    """A peer sent a message this end cannot act on."""


class DesyncError(RuntimeError):
    """Received covariance payload does not match its digest."""


class GenerationFailedError(RuntimeError):
    """No workers remain while candidate evaluations are still owed."""


# ---------------------------------------------------------------------------
# framing


def encode_message(msg: dict) -> bytes:
    return (json.dumps(msg, separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")


def decode_message(line: bytes | str) -> dict:
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable message bytes: {exc}") from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed message line: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise ProtocolError("message must be an object with a string 'type'")
    return obj


class _LineReader:
    """Accumulate stream bytes and yield one newline-framed line at a time."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = bytearray()

    def readline(self) -> bytes | None:
        while True:
            i = self._buf.find(b"\n")
            if i >= 0:
                line = bytes(self._buf[:i])
                del self._buf[: i + 1]
                return line
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                return None
            if not chunk:
                return None
            self._buf += chunk


def _no_delay(sock: socket.socket) -> None:
    """Send small messages at once.  A GEN followed by a TASK is two small
    writes; with Nagle's algorithm the second waits for the peer's delayed
    ACK of the first."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


# ---------------------------------------------------------------------------
# message builders


def hello_message(worker_id: str) -> dict:
    return {"type": "hello", "protocol_version": PROTOCOL_VERSION,
            "worker_id": worker_id}


def bye_message(reason: str) -> dict:
    return {"type": "bye", "reason": reason}


def task_message(generation: int, index: int) -> dict:
    return {"type": "task", "generation": int(generation), "index": int(index)}


def cov_payload(state: DistributionState) -> dict:
    """Distribution shape as a wire payload, eigenfactors included so the
    worker applies the identical linear map rather than refactorizing."""
    n = len(state.m)
    if state.c_full is not None:
        return {"kind": "full", "n": n,
                "c": [float(v) for v in state.c_full.ravel()],
                "basis": [float(v) for v in state.eig_basis.ravel()],
                "scale": [float(v) for v in state.eig_scale]}
    if state.c_diag is not None:
        return {"kind": "diag", "n": n,
                "d": [float(v) for v in state.c_diag]}
    return {"kind": "unit", "n": n}


def cov_digest(payload: dict) -> str:
    """64-bit hash of the covariance payload, as a decimal string."""
    h = hashlib.blake2b(digest_size=8)
    h.update(payload["kind"].encode("ascii"))
    h.update(struct.pack("<Q", int(payload["n"])))
    for key in ("d", "c", "basis", "scale"):
        if key in payload:
            h.update(np.asarray(payload[key], dtype="<f8").tobytes())
    return str(int.from_bytes(h.digest(), "little"))


def transform_from_payload(payload: dict) -> CovTransform:
    """Rebuild the sampling map exactly as CovTransform.from_state does."""
    kind = payload.get("kind")
    n = int(payload["n"])
    if kind == "unit":
        return CovTransform("unit")
    if kind == "diag":
        d = np.asarray(payload["d"], dtype=float)
        if d.shape != (n,):
            raise ProtocolError("diag payload has wrong length")
        return CovTransform("diag", sqrt_diag=np.sqrt(d))
    if kind == "full":
        basis = np.asarray(payload["basis"], dtype=float)
        scale = np.asarray(payload["scale"], dtype=float)
        if basis.shape != (n * n,) or scale.shape != (n,):
            raise ProtocolError("full payload has wrong shape")
        return CovTransform("full", basis=basis.reshape(n, n), scale=scale)
    raise ProtocolError(f"unknown covariance kind {kind!r}")


def build_gen_message(*, run_id: str, generation: int, master_seed: int,
                      env_id: str, lam: int, state: DistributionState,
                      normalizer: ObsNormalizer,
                      fitness_spec: FitnessSpec) -> dict:
    payload = cov_payload(state)
    return {
        "type": "gen",
        "protocol_version": PROTOCOL_VERSION,
        "run_id": run_id,
        "generation": int(generation),
        "master_seed": str(int(master_seed)),
        "env_id": env_id,
        "lambda": int(lam),
        "m": [float(v) for v in state.m],
        "sigma": float(state.sigma),
        "cov": payload,
        "cov_digest": cov_digest(payload),
        "normalizer": {**normalizer.to_dict(), "eps": normalizer.eps},
        "fitness_spec": fitness_spec.to_dict(),
    }


def result_message(generation: int, ev: CandidateEval) -> dict:
    return {
        "type": "result",
        "generation": int(generation),
        "index": int(ev.index),
        "fitness": float(ev.fitness),
        "raw_return": float(ev.raw_return),
        "timesteps": int(ev.timesteps),
        "delta": ev.delta.to_dict(),
    }


def eval_from_result(msg: dict) -> CandidateEval:
    return CandidateEval(
        index=int(msg["index"]),
        fitness=float(msg["fitness"]),
        raw_return=float(msg["raw_return"]),
        timesteps=int(msg["timesteps"]),
        delta=ObsNormalizer.from_dict(msg["delta"]),
    )


# ---------------------------------------------------------------------------
# worker side


@dataclass
class WorkerContext:
    """Everything a worker needs to regenerate and score one generation."""

    run_id: str
    generation: int
    master_seed: int
    env_id: str
    lam: int
    m: np.ndarray
    sigma: float
    transform: CovTransform
    normalizer: ObsNormalizer
    fitness_spec: FitnessSpec


def gen_context(msg: dict) -> WorkerContext:
    """Validate a GEN message and rebuild the sampling context it carries."""
    if msg.get("protocol_version") != PROTOCOL_VERSION:
        raise ProtocolError("unsupported protocol version in GEN")
    payload = msg["cov"]
    if cov_digest(payload) != msg.get("cov_digest"):
        raise DesyncError(
            f"covariance digest mismatch at generation {msg.get('generation')}")
    m = np.asarray(msg["m"], dtype=float)
    if m.shape != (int(payload["n"]),):
        raise ProtocolError("mean length disagrees with covariance payload")
    norm = msg["normalizer"]
    return WorkerContext(
        run_id=str(msg["run_id"]),
        generation=int(msg["generation"]),
        master_seed=int(msg["master_seed"]),
        env_id=str(msg["env_id"]),
        lam=int(msg["lambda"]),
        m=m,
        sigma=float(msg["sigma"]),
        transform=transform_from_payload(payload),
        normalizer=ObsNormalizer.from_dict(norm, eps=float(norm.get("eps", 1e-8))),
        fitness_spec=FitnessSpec.from_dict(msg["fitness_spec"]),
    )


def run_task(ctx: WorkerContext, index: int) -> dict:
    """Regenerate candidate ``index``, score it, and build its RESULT."""
    cand = sample_candidate_from_seed(ctx.master_seed, ctx.generation, index,
                                      ctx.m, ctx.sigma, ctx.transform, ctx.lam)
    ev = evaluate_candidate(cand.x, index, ctx.env_id, ctx.normalizer,
                            ctx.fitness_spec, ctx.generation, ctx.master_seed)
    return result_message(ctx.generation, ev)


def serve_worker(host: str, port: int, *, worker_id: str | None = None,
                 connect_timeout: float = 10.0) -> str:
    """Connect to a master and evaluate tasks until told to stop.

    Returns the reason the loop ended ("eof", "protocol", or the reason
    carried by the master's BYE).  Raises DesyncError after replying
    BYE{desync} to a GEN whose payload fails its digest check, and
    OSError if the master cannot be reached at all.
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
        ctx: WorkerContext | None = None
        while True:
            line = reader.readline()
            if line is None:
                return "eof"
            try:
                msg = decode_message(line)
            except ProtocolError:
                send(bye_message("protocol"))
                return "protocol"
            kind = msg["type"]
            if kind == "bye":
                return str(msg.get("reason", ""))
            if kind == "gen":
                try:
                    ctx = gen_context(msg)
                except DesyncError:
                    send(bye_message("desync"))
                    raise
                except (ProtocolError, KeyError, TypeError, ValueError):
                    send(bye_message("protocol"))
                    return "protocol"
            elif kind == "task":
                ok = (ctx is not None
                      and msg.get("generation") == ctx.generation
                      and isinstance(msg.get("index"), int)
                      and 0 <= msg["index"] < ctx.lam)
                if not ok:
                    send(bye_message("protocol"))
                    return "protocol"
                send(run_task(ctx, msg["index"]))
            else:
                send(bye_message("protocol"))
                return "protocol"
    finally:
        sock.close()


# ---------------------------------------------------------------------------
# master side


class _Conn:
    __slots__ = ("sock", "buf", "worker_id", "busy", "alive")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()
        self.worker_id: str | None = None
        self.busy = False
        self.alive = True


class MasterServer:
    """Single-threaded event loop that farms candidate indexes to workers.

    Results are folded by candidate index, so neither scheduling nor
    worker failures can change what a generation returns.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 task_timeout: float = DEFAULT_TASK_TIMEOUT):
        self._listener = socket.create_server((host, port), backlog=16)
        self._listener.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self._conns: list[_Conn] = []
        self._gen_msg: dict | None = None
        self._drop_events: list[_Conn] = []
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
        self._drop_events.append(conn)

    def _send(self, conn: _Conn, msg: dict) -> bool:
        try:
            conn.sock.sendall(encode_message(msg))
            return True
        except OSError:
            self._drop(conn, "send-error")
            return False

    def _handle_hello(self, conn: _Conn, msg: dict) -> None:
        if msg.get("protocol_version") != PROTOCOL_VERSION:
            self._send(conn, bye_message("protocol"))
            self._drop(conn, "protocol-version")
            return
        conn.worker_id = str(msg.get("worker_id", ""))
        # late joiners start serving the generation already in flight
        if self._gen_msg is not None:
            self._send(conn, self._gen_msg)

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
            while conn.alive:
                i = conn.buf.find(b"\n")
                if i < 0:
                    break
                line = bytes(conn.buf[:i])
                del conn.buf[: i + 1]
                try:
                    msg = decode_message(line)
                except ProtocolError:
                    self._send(conn, bye_message("protocol"))
                    self._drop(conn, "protocol")
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
        """Block until ``count`` workers have completed their HELLO."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.worker_count() < count:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{self.worker_count()} of {count} workers connected")
            self._pump(0.1)

    def evaluate_generation(self, gen_msg: dict, lam: int) -> list[CandidateEval]:
        """Broadcast one GEN, dispatch its indexes, and collect all results.

        Duplicate results for an index are discarded (first accepted wins);
        unanswered indexes are re-dispatched on worker loss or timeout.
        """
        self._gen_msg = gen_msg
        generation = gen_msg["generation"]
        for conn in list(self._workers()):
            self._send(conn, gen_msg)

        pending: deque[int] = deque(range(lam))
        outstanding: dict[int, tuple[_Conn, float]] = {}
        results: dict[int, CandidateEval] = {}

        def dispatch() -> None:
            for conn in [c for c in self._workers() if not c.busy]:
                idx = None
                while pending:
                    head = pending.popleft()
                    if head not in results:
                        idx = head
                        break
                if idx is None:
                    return
                if self._send(conn, task_message(generation, idx)):
                    conn.busy = True
                    outstanding[idx] = (conn, time.monotonic() + self.task_timeout)
                else:
                    pending.appendleft(idx)

        dispatch()
        while len(results) < lam:
            if not self._workers():
                detail = "; ".join(f"{w}: {r}" for w, r in self.dropped[-4:])
                raise GenerationFailedError(
                    f"no workers remain with {lam - len(results)} candidate(s) "
                    f"unevaluated at generation {generation}"
                    + (f" (recent drops: {detail})" if detail else ""))
            for conn, msg in self._pump(0.05):
                if msg["type"] != "result":
                    continue
                conn.busy = False
                if msg.get("generation") != generation:
                    continue
                idx = msg.get("index")
                if isinstance(idx, int) and 0 <= idx < lam and idx not in results:
                    results[idx] = eval_from_result(msg)
                    outstanding.pop(idx, None)
            if self._drop_events:
                dead = set(self._drop_events)
                self._drop_events.clear()
                for idx in sorted(i for i, (c, _) in outstanding.items() if c in dead):
                    del outstanding[idx]
                    pending.append(idx)
            now = time.monotonic()
            for idx in sorted(i for i, (_, dl) in outstanding.items() if now > dl):
                del outstanding[idx]
                pending.append(idx)
            dispatch()
        return [results[i] for i in range(lam)]

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


def distributed_evaluator(server: MasterServer, env_id: str,
                          fitness_spec: FitnessSpec, master_seed: int,
                          run_id: str) -> Callable:
    """Generation evaluator that scores candidates on connected workers."""
    obs_dim = env_spec(env_id).obs_dim

    def evaluator(_params, state, cands, normalizer, gen):
        msg = build_gen_message(run_id=run_id, generation=gen,
                                master_seed=master_seed, env_id=env_id,
                                lam=len(cands), state=state,
                                normalizer=normalizer, fitness_spec=fitness_spec)
        evals = server.evaluate_generation(msg, len(cands))
        return collect_generation(evals, obs_dim, len(cands))

    return evaluator


def train_distributed(env_id: str, variant: str, *, sigma0: float,
                      lam: int | str | None, budget_timesteps: int,
                      master_seed: int, expected_workers: int,
                      server: MasterServer | None = None,
                      listen: tuple[str, int] = ("127.0.0.1", 0),
                      wait_timeout: float | None = 60.0,
                      fitness_spec: FitnessSpec | None = None,
                      test_every: int = 1, target_return: float | None = None,
                      max_generations: int | None = None,
                      run_id: str | None = None,
                      on_generation: Callable | None = None) -> TrainResult:
    """Run a training loop whose candidate evaluations happen on workers.

    Identical in every recorded number to a local ``train`` call with the
    same arguments; test episodes still run on the master.  Pass ``server``
    to reuse an already-bound MasterServer (it stays open); otherwise one
    is bound on ``listen`` and closed when training ends.
    """
    if expected_workers < 1:
        raise ValueError("expected_workers must be >= 1")
    fitness_spec = fitness_spec or FitnessSpec()
    run_id = run_id or f"{env_id}-{variant}-seed{master_seed}"
    own = server is None
    if own:
        server = MasterServer(listen[0], listen[1])
    try:
        server.wait_for_workers(expected_workers, wait_timeout)
        evaluator = distributed_evaluator(server, env_id, fitness_spec,
                                          master_seed, run_id)
        return train(env_id, variant, sigma0=sigma0, lam=lam,
                     budget_timesteps=budget_timesteps, master_seed=master_seed,
                     fitness_spec=fitness_spec, test_every=test_every,
                     target_return=target_return,
                     max_generations=max_generations, evaluator=evaluator,
                     on_generation=on_generation)
    finally:
        if own:
            server.close()
