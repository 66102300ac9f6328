"""Seed-sharing master/worker evaluation over newline-delimited JSON on TCP.

The master never ships genomes: each generation it broadcasts one GEN
message carrying the search distribution (mean, step size, covariance
payload) plus the normalizer snapshot, then hands each idle worker one
contiguous range of candidate indexes as a TASK.  A worker regrows its
range's candidates from (master_seed, generation, index) with ``es.sample``,
the sampler ``ask`` uses, scores the range as one lockstep batch, and
answers with one RESULT holding the range's results in index order.  A
candidate's result does not depend on the batch it is scored in, so a
distributed run reproduces a single-process run bit for bit.

GEN also names the test probe owed by the previous generation, if any.  Its
inputs are GEN's own mean and normalizer, so one flagged TASK per generation
(the smallest range, or an empty one when only the probe is left) adds the
probe's episodes to its batch, and its RESULT carries their raw returns.
The master runs no rollout while it waits.

Each TASK gets exactly one RESULT.  A reply that does not answer its
connection's TASK exactly, and a TASK past its deadline, drop the worker and
re-queue the whole TASK, so no live connection holds a TASK between
generations and no late reply is ever read.

Wire format: one JSON object per line, UTF-8, field "type" selecting
HELLO / GEN / TASK / RESULT / BYE.  Reals use shortest-roundtrip decimal
form (the json module's default); 64-bit seeds travel as decimal strings.
"""

from __future__ import annotations

import hashlib
import json
import math
import selectors
import socket
import struct
import time
import uuid
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .envs import env_spec, make_env
from .es import CovTransform, DistributionState, sample
from .evaluate import (CandidateEval, FitnessSpec, Probe, TrainResult,
                       _score_batch, _training_strategy, collect_generation,
                       train)
from .policy import LinearPolicy, ObsNormalizer

PROTOCOL_VERSION = 4
DEFAULT_TASK_TIMEOUT = 60.0


class ProtocolError(RuntimeError):
    """A peer sent a message this end cannot act on."""


class DesyncError(RuntimeError):
    """Received covariance payload does not match its digest."""


class GenerationFailedError(RuntimeError):
    """No workers remain while candidate evaluations or a probe are owed."""


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


def task_message(run_id: str, generation: int, index: int, count: int,
                 probe: bool = False) -> dict:
    """Score candidates ``index`` .. ``index + count - 1`` of a generation,
    and with ``probe`` the probe its GEN owes (``count`` may then be 0)."""
    return {"type": "task", "run_id": run_id, "generation": int(generation),
            "index": int(index), "count": int(count), "probe": probe}


def cov_payload(state: DistributionState) -> dict:
    """Distribution shape as a wire payload: the eigenfactors the sampling
    map uses, so the worker applies the identical map rather than
    refactorizing."""
    n = len(state.m)
    if state.c_full is not None:
        return {"kind": "full", "n": n,
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
    for key in ("d", "basis", "scale"):
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
                      normalizer: ObsNormalizer, fitness_spec: FitnessSpec,
                      probe: Probe | None = None) -> dict:
    """GEN for ``generation``.  ``probe``, the test probe owed by the
    previous generation, must be of the policy ``state.m``: the worker
    rebuilds it from the message's mean."""
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
        "probe": None if probe is None else {"generation": int(probe.generation),
                                             "episodes": int(probe.episodes)},
    }


def result_message(run_id: str, generation: int, index: int,
                   evals: list[CandidateEval], returns: list[float] | None) -> dict:
    """The one reply to a TASK whose range starts at ``index``: its results
    in index order, and the probe's raw returns (None if not flagged)."""
    return {
        "type": "result",
        "run_id": run_id,
        "generation": int(generation),
        "index": int(index),
        "results": [{"fitness": float(ev.fitness),
                     "raw_return": float(ev.raw_return),
                     "timesteps": int(ev.timesteps),
                     "delta": ev.delta.to_dict()} for ev in evals],
        "probe": None if returns is None else [float(r) for r in returns],
    }


def _real(value, what: str) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ProtocolError(f"{what} must be a finite number")
    return float(value)


def _count(value, what: str) -> int:
    if type(value) is not int or value < 0:
        raise ProtocolError(f"RESULT {what} must be a non-negative int")
    return value


def evals_from_result(msg: dict, run_id: str, generation: int, span: range,
                      episodes: int | None, obs_dim: int
                      ) -> tuple[list[CandidateEval], list[float] | None]:
    """Parse the reply to the TASK for ``span`` of ``run_id``'s
    ``generation``, flagged to run a probe of ``episodes`` unless that is
    None.  Returns the range's results in index order and the probe's raw
    returns.  Raises ProtocolError unless ``msg`` is a RESULT answering
    exactly that TASK: one entry per index, each with a finite fitness and
    raw return, int counts and a delta whose moments have ``obs_dim``
    finite entries (m2 not negative), and ``episodes`` finite returns or
    none."""
    if (msg.get("type") != "result" or msg.get("run_id") != run_id
            or msg.get("generation") != generation
            or _count(msg.get("index"), "index") != span.start):
        raise ProtocolError("reply answers another TASK")
    entries, returns = msg.get("results"), msg.get("probe")
    if not isinstance(entries, list) or len(entries) != len(span):
        raise ProtocolError(f"RESULT results must be a list of {len(span)} entries")
    if episodes is None:
        if returns is not None:
            raise ProtocolError("RESULT carries a probe its TASK did not ask for")
    elif not isinstance(returns, list) or len(returns) != episodes:
        raise ProtocolError(f"RESULT probe must be a list of {episodes} numbers")
    else:
        returns = [_real(r, "RESULT probe return") for r in returns]
    evals = []
    for index, entry in zip(span, entries):
        delta = entry.get("delta") if isinstance(entry, dict) else None
        if not isinstance(delta, dict):
            raise ProtocolError("RESULT entries must be objects with a delta object")
        mean, m2 = delta.get("mean"), delta.get("m2")
        if not (isinstance(mean, list) and isinstance(m2, list)
                and len(mean) == len(m2) == obs_dim):
            raise ProtocolError(f"RESULT delta mean and m2 must be lists of length {obs_dim}")
        m2 = np.array([_real(v, "RESULT delta m2") for v in m2])
        if (m2 < 0).any():
            raise ProtocolError("RESULT delta m2 must not be negative")
        evals.append(CandidateEval(
            index=index,
            fitness=_real(entry.get("fitness"), "RESULT fitness"),
            raw_return=_real(entry.get("raw_return"), "RESULT raw_return"),
            timesteps=_count(entry.get("timesteps"), "timesteps"),
            delta=ObsNormalizer(_count(delta.get("count"), "delta count"),
                                np.array([_real(v, "RESULT delta mean") for v in mean]),
                                m2)))
    return evals, returns


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
    probe: Probe | None               # the probe a task runs with its range


def gen_context(msg: dict) -> WorkerContext:
    """Validate a GEN message and rebuild the sampling context it carries,
    with the probe it owes: the policy ``m`` for GEN's episode count."""
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
    env_id = str(msg["env_id"])
    probe = msg["probe"]
    if probe is not None:
        gen, episodes = probe["generation"], probe["episodes"]
        if type(gen) is not int or type(episodes) is not int or episodes < 1:
            raise ProtocolError("GEN probe needs an int generation and episode count")
        spec = env_spec(env_id)
        probe = Probe(LinearPolicy.from_genome(m, spec.obs_dim, spec.action_space),
                      gen, episodes)
    return WorkerContext(
        run_id=str(msg["run_id"]),
        generation=int(msg["generation"]),
        master_seed=int(msg["master_seed"]),
        env_id=env_id,
        lam=int(msg["lambda"]),
        m=m,
        sigma=float(msg["sigma"]),
        transform=transform_from_payload(payload),
        normalizer=ObsNormalizer.from_dict(norm, eps=float(norm.get("eps", 1e-8))),
        fitness_spec=FitnessSpec.from_dict(msg["fitness_spec"]),
        probe=probe,
    )


def _task_range(ctx: WorkerContext | None, msg: dict) -> range | None:
    """The candidate indexes a TASK names, or None if it does not fit
    ``ctx``: only a probe-flagged TASK may name none, and only when its GEN
    owes a probe."""
    index, count, probe = msg.get("index"), msg.get("count"), msg.get("probe")
    if (ctx is None or msg.get("run_id") != ctx.run_id
            or msg.get("generation") != ctx.generation
            or type(index) is not int or type(count) is not int
            or type(probe) is not bool or (probe and ctx.probe is None)
            or index < 0 or count < (0 if probe else 1) or index + count > ctx.lam):
        return None
    return range(index, index + count)


def run_task(ctx: WorkerContext, indexes: range) -> dict:
    """Regrow the candidates ``indexes`` with ``es.sample``, the sampler
    ``ask`` uses, and score them as one batch, ``ctx.probe``'s episodes
    included when it is set.  Returns the one RESULT answering the TASK."""
    genomes = (sample(ctx.master_seed, ctx.generation, indexes, ctx.m,
                      ctx.sigma, ctx.transform)[1] if len(indexes) else [])
    evals, returns = _score_batch(genomes, list(indexes), make_env(ctx.env_id),
                                  ctx.normalizer, ctx.fitness_spec,
                                  ctx.generation, ctx.master_seed, ctx.probe)
    return result_message(ctx.run_id, ctx.generation, indexes.start, evals, returns)


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
                indexes = _task_range(ctx, msg)
                if indexes is None:
                    send(bye_message("protocol"))
                    return "protocol"
                send(run_task(ctx if msg["probe"] else replace(ctx, probe=None),
                              indexes))
            else:
                send(bye_message("protocol"))
                return "protocol"
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
        # the TASK owed: its range, probe episodes (None if not flagged), deadline
        self.task: tuple[range, int | None, float] | None = None
        self.alive = True


def split_ranges(indexes: list[int], parts: int) -> list[range]:
    """Cut sorted ``indexes`` into at most ``parts`` contiguous ranges.

    The chunks differ in size by at most one.  A chunk that spans a gap
    (only possible after a re-dispatch) is cut at the gap; its tail stays
    for a later call.
    """
    size, extra = divmod(len(indexes), parts)
    out, at = [], 0
    for p in range(min(parts, len(indexes))):
        chunk = indexes[at:at + size + (p < extra)]
        at += len(chunk)
        start, n = chunk[0], 1
        while n < len(chunk) and chunk[n] == start + n:
            n += 1
        out.append(range(start, start + n))
    return out


class MasterServer:
    """Single-threaded event loop that farms candidate ranges to workers.

    Each idle worker gets one TASK at a time: a contiguous range of a
    generation's candidate indexes, and, on the smallest range of a
    dispatch, the probe the GEN owes until one worker holds it.  Each TASK
    gets exactly one RESULT.  A worker whose reply does not answer its TASK
    exactly is sent BYE and dropped with reason ``protocol``; one whose TASK
    outlives ``task_timeout`` seconds is dropped with reason ``timeout`` and
    no BYE, since a send could block on a stalled peer.  Either way its
    whole TASK goes to the others.  Results are folded by candidate index,
    so neither scheduling nor worker failures can change what a generation
    returns.
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
        self._gen_msg: dict | None = None
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
        """Block until ``count`` workers have completed their HELLO.  No
        TASK is out, so any reply drops its worker."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.worker_count() < count:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{self.worker_count()} of {count} workers connected")
            for conn, _msg in self._pump(0.1):
                if conn.alive:
                    self._reject(conn)

    def evaluate_generation(self, gen_msg: dict, lam: int
                            ) -> tuple[list[CandidateEval], list[float] | None]:
        """Broadcast one GEN, dispatch its index ranges and the probe it
        owes as TASKs, and collect the one RESULT each TASK gets.

        Returns the results in index order and the probe's raw returns (None
        when GEN owes no probe).  A TASK whose worker is lost, times out or
        sends a reply that does not answer it is re-dispatched whole.
        Raises GenerationFailedError when no workers remain and work is owed.
        """
        self._gen_msg = gen_msg
        run_id, generation = gen_msg["run_id"], gen_msg["generation"]
        obs_dim = len(gen_msg["normalizer"]["mean"])
        episodes = None if gen_msg["probe"] is None else gen_msg["probe"]["episodes"]
        for conn in list(self._workers()):
            self._send(conn, gen_msg)

        results: dict[int, CandidateEval] = {}
        returns: list[float] | None = None
        while len(results) < lam or (episodes is not None and returns is None):
            workers = self._workers()
            if not workers:
                detail = "; ".join(f"{w}: {r}" for w, r in self.dropped[-4:])
                raise GenerationFailedError(
                    f"no workers remain with {lam - len(results)} candidate(s) "
                    f"unevaluated at generation {generation}"
                    + (" and its probe owed" if episodes is not None and returns is None else "")
                    + (f" (recent drops: {detail})" if detail else ""))
            # hand the work that is neither answered nor held by a live TASK
            # to the idle workers
            idle = [c for c in workers if c.task is None]
            held = [c.task for c in workers if c.task is not None]
            pending = sorted(set(range(lam)) - results.keys()
                             - {i for span, _, _ in held for i in span})
            probe_due = (episodes is not None and returns is None
                         and all(asked is None for _, asked, _ in held))
            if idle and (pending or probe_due):
                deadline = time.monotonic() + self.task_timeout
                # split_ranges puts the larger chunks first
                spans = split_ranges(pending, len(idle)) if pending else [range(0)]
                for k, (conn, span) in enumerate(zip(idle, spans)):
                    flag = probe_due and k == len(spans) - 1
                    task = task_message(run_id, generation, span.start, len(span), flag)
                    if self._send(conn, task):
                        conn.task = (span, episodes if flag else None, deadline)

            for conn, msg in self._pump(0.05):
                if not conn.alive:
                    continue
                try:
                    if conn.task is None:
                        raise ProtocolError("reply without a TASK")
                    span, asked, _ = conn.task
                    evals, probe = evals_from_result(msg, run_id, generation,
                                                     span, asked, obs_dim)
                except ProtocolError:
                    self._reject(conn)
                    continue
                conn.task = None
                results.update((ev.index, ev) for ev in evals)
                if asked is not None:
                    returns = probe
            now = time.monotonic()
            for conn in self._workers():
                if conn.task is not None and now > conn.task[2]:
                    self._drop(conn, "timeout")
        return [results[i] for i in range(lam)], returns

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
    """Generation evaluator that scores candidates, and the owed test probe
    with them, on connected workers; the master itself runs no rollout."""
    obs_dim = env_spec(env_id).obs_dim

    def evaluator(_params, state, cands, normalizer, gen, probe):
        msg = build_gen_message(run_id=run_id, generation=gen,
                                master_seed=master_seed, env_id=env_id,
                                lam=len(cands), state=state,
                                normalizer=normalizer, fitness_spec=fitness_spec,
                                probe=probe)
        evals, probe_returns = server.evaluate_generation(msg, len(cands))
        result = collect_generation(evals, obs_dim, len(cands))
        result.probe_returns = probe_returns
        return result

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
    same arguments.  Each generation's test probe runs on a worker, in the
    batch of one range of the next generation; only a probe still owed when
    the run ends runs alone on the master.  Pass ``server``
    to reuse an already-bound MasterServer (it stays open); otherwise one
    is bound on ``listen`` and closed when training ends.
    """
    if expected_workers < 1:
        raise ValueError("expected_workers must be >= 1")
    _training_strategy(env_id, variant, sigma0, lam, master_seed, test_every)
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
