"""Wire protocol and master/worker behavior, including fault injection."""

import socket
import threading
import time

import numpy as np
import pytest

from evolin import (CSA, FULL_CMA, SEP_CMA, FitnessSpec, MasterServer,
                    ObsNormalizer, ask, env_spec, evaluate_candidate,
                    new_strategy, tell, train)
from evolin.distributed import (DesyncError, GenerationFailedError,
                                ProtocolError, _LineReader, build_gen_message,
                                bye_message, cov_digest, cov_payload,
                                decode_message, encode_message,
                                eval_from_result, gen_context, hello_message,
                                run_task, serve_worker, task_message,
                                train_distributed, transform_from_payload)
from evolin.es import CovTransform
from evolin.evaluate import write_curve_csv


def warmed_state(variant, n=6, sigma0=0.3, tells=3, seed=77, lam=None):
    params, state = new_strategy(variant, n, sigma0, np.zeros(n), lam)
    rng = np.random.default_rng(seed)
    for _ in range(tells):
        cands = ask(params, state, 99)
        for c in cands:
            c.fitness = float(rng.standard_normal())
        state = tell(params, state, cands)
    return params, state


def sample_gen_message(variant=CSA, master_seed=3, env_id="cartpole", lam=4):
    """A strategy, its warmed normalizer, and a GEN message consistent with
    both (generation = state.g, so a local ask reproduces the candidates)."""
    spec = env_spec(env_id)
    n = spec.obs_dim * spec.action_space.act_dim
    params, state = warmed_state(variant, n=n, tells=2, lam=lam)
    norm = ObsNormalizer.create(spec.obs_dim)
    rng = np.random.default_rng(5)
    for _ in range(10):
        norm.update(rng.standard_normal(spec.obs_dim))
    return params, state, norm, build_gen_message(
        run_id="t", generation=state.g, master_seed=master_seed,
        env_id=env_id, lam=params.lam, state=state, normalizer=norm,
        fitness_spec=FitnessSpec())


# ---------------------------------------------------------------------------
# framing and payloads


def test_messages_round_trip_through_framing():
    _, _, _, gen_msg = sample_gen_message(FULL_CMA)
    samples = [
        hello_message("w-1"),
        gen_msg,
        task_message(4, 2),
        bye_message("shutdown"),
        {"type": "result", "generation": 1, "index": 0, "fitness": 1 / 3,
         "raw_return": 1e-300, "timesteps": 17,
         "delta": {"count": 2, "mean": [0.1, -0.25], "m2": [0.0, 4.0]}},
    ]
    for msg in samples:
        encoded = encode_message(msg)
        assert encoded.endswith(b"\n") and encoded.count(b"\n") == 1
        assert decode_message(encoded[:-1]) == msg


def test_decode_rejects_garbage():
    for line in [b"not json", b"[1,2]", b"{\"no_type\":1}", b"\xff\xfe"]:
        with pytest.raises(ProtocolError):
            decode_message(line)


def test_cov_digest_is_64_bit_decimal_and_content_sensitive():
    _, state = warmed_state(SEP_CMA)
    payload = cov_payload(state)
    digest = cov_digest(payload)
    assert digest == str(int(digest)) and 0 <= int(digest) < 2 ** 64
    assert cov_digest(payload) == digest
    tampered = dict(payload, d=list(payload["d"]))
    tampered["d"][0] += 1e-12
    assert cov_digest(tampered) != digest


@pytest.mark.parametrize("variant", [CSA, SEP_CMA, FULL_CMA])
def test_wire_payload_reproduces_sampling_map_bitwise(variant):
    params, state = warmed_state(variant)
    local = CovTransform.from_state(params, state)
    payload = decode_message(encode_message({"type": "x", "cov": cov_payload(state)}))["cov"]
    wire = transform_from_payload(payload)
    z = np.random.default_rng(1).standard_normal(params.n)
    assert np.array_equal(local.apply(z), wire.apply(z))


@pytest.mark.parametrize("variant", [CSA, SEP_CMA, FULL_CMA])
def test_gen_context_reconstructs_candidates_bitwise(variant):
    from evolin import sample_candidate_from_seed

    spec = env_spec("cartpole")
    n = spec.obs_dim * spec.action_space.act_dim
    params, state = warmed_state(variant, n=n)
    norm = ObsNormalizer.create(spec.obs_dim)
    seed = 2 ** 63 + 5
    msg = build_gen_message(run_id="r", generation=state.g, master_seed=seed,
                            env_id="cartpole", lam=params.lam, state=state,
                            normalizer=norm, fitness_spec=FitnessSpec())
    ctx = gen_context(decode_message(encode_message(msg)))
    assert ctx.master_seed == seed and ctx.lam == params.lam
    local_cands = ask(params, state, seed)
    for cand in local_cands:
        remote = sample_candidate_from_seed(seed, ctx.generation, cand.index,
                                            ctx.m, ctx.sigma, ctx.transform,
                                            ctx.lam)
        assert np.array_equal(remote.x, cand.x)
        assert np.array_equal(remote.z, cand.z)


def test_gen_context_rejects_digest_mismatch_and_bad_shapes():
    _, _, _, msg = sample_gen_message()
    bad = dict(msg, cov_digest=str((int(msg["cov_digest"]) + 1) % 2 ** 64))
    with pytest.raises(DesyncError):
        gen_context(bad)
    short = dict(msg, m=msg["m"][:-1])
    with pytest.raises(ProtocolError):
        gen_context(short)


def test_run_task_matches_local_evaluation_exactly():
    params, state, norm, msg = sample_gen_message(SEP_CMA, master_seed=912)
    gen = msg["generation"]
    ctx = gen_context(decode_message(encode_message(msg)))
    cands = ask(params, state, 912)
    for cand in cands:
        local = evaluate_candidate(cand.x, cand.index,
                                   "cartpole", norm, FitnessSpec(), gen, 912)
        remote = eval_from_result(
            decode_message(encode_message(run_task(ctx, cand.index))))
        assert remote.fitness == local.fitness
        assert remote.raw_return == local.raw_return
        assert remote.timesteps == local.timesteps
        assert remote.delta.to_dict() == local.delta.to_dict()


# ---------------------------------------------------------------------------
# socket-level helpers


def start_real_worker(server, **kw):
    host, port = server.address
    out = {}

    def run():
        try:
            out["reason"] = serve_worker(host, port, **kw)
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, out


class ScriptedWorker:
    """Raw socket peer for driving the protocol off the happy path."""

    def __init__(self, address, worker_id="scripted"):
        self.sock = socket.create_connection(address)
        self.reader = _LineReader(self.sock)
        self.send(hello_message(worker_id))

    def send(self, msg):
        self.sock.sendall(encode_message(msg))

    def read(self):
        line = self.reader.readline()
        return None if line is None else decode_message(line)

    def read_until(self, kind):
        while True:
            msg = self.read()
            if msg is None or msg["type"] == kind:
                return msg

    def close(self):
        self.sock.close()


def empty_delta(dim):
    return {"count": 0, "mean": [0.0] * dim, "m2": [0.0] * dim}


# ---------------------------------------------------------------------------
# master/worker integration


def test_single_worker_generation_matches_local():
    params, state, norm, msg = sample_gen_message(CSA, master_seed=31)
    with MasterServer() as server:
        thread, out = start_real_worker(server)
        server.wait_for_workers(1, timeout=10)
        evals = server.evaluate_generation(msg, 4)
        assert [e.index for e in evals] == [0, 1, 2, 3]
        for cand, got in zip(ask(params, state, 31), evals):
            want = evaluate_candidate(cand.x, cand.index, "cartpole", norm,
                                      FitnessSpec(), msg["generation"], 31)
            assert got.fitness == want.fitness
            assert got.timesteps == want.timesteps
    thread.join(timeout=10)
    assert out.get("reason") == "shutdown"


def test_master_and_worker_sockets_disable_nagle(monkeypatch):
    # a GEN followed by a TASK is two small writes; Nagle would hold the
    # second until the peer's delayed ACK of the first
    opened = []
    connect = socket.create_connection

    def spy(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(socket, "create_connection", spy)

    def nodelay(sock):
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    with MasterServer() as server:
        thread, out = start_real_worker(server)
        server.wait_for_workers(1, timeout=10)
        assert [nodelay(c.sock) for c in server._conns] == [True]
        assert [nodelay(s) for s in opened] == [True]
    thread.join(timeout=10)
    assert out.get("reason") == "shutdown"


def test_worker_says_bye_on_out_of_range_task_index():
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    out = {}

    def run():
        out["reason"] = serve_worker(host, port, worker_id="w")

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    conn, _ = listener.accept()
    reader = _LineReader(conn)
    assert decode_message(reader.readline())["type"] == "hello"
    _, _, _, msg = sample_gen_message()
    conn.sendall(encode_message(msg))
    conn.sendall(encode_message(task_message(msg["generation"], msg["lambda"])))
    reply = decode_message(reader.readline())
    assert reply == bye_message("protocol")
    thread.join(timeout=10)
    assert out["reason"] == "protocol"
    conn.close()
    listener.close()


def test_worker_says_bye_on_task_before_gen_and_raises_on_desync():
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]

    def check(send_first, expect_bye_reason):
        out = {}

        def run():
            try:
                out["reason"] = serve_worker(host, port)
            except DesyncError as exc:
                out["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        conn, _ = listener.accept()
        reader = _LineReader(conn)
        decode_message(reader.readline())
        conn.sendall(encode_message(send_first))
        assert decode_message(reader.readline()) == bye_message(expect_bye_reason)
        thread.join(timeout=10)
        conn.close()
        return out

    out = check(task_message(0, 0), "protocol")
    assert out["reason"] == "protocol"

    _, _, _, msg = sample_gen_message()
    corrupted = dict(msg, cov_digest=str((int(msg["cov_digest"]) + 7) % 2 ** 64))
    out = check(corrupted, "desync")
    assert isinstance(out.get("error"), DesyncError)
    listener.close()


def test_master_rejects_wrong_protocol_version():
    with MasterServer() as server:
        sock = socket.create_connection(server.address)
        sock.sendall(encode_message(
            {"type": "hello", "protocol_version": 99, "worker_id": "old"}))
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            server._pump(0.05)
            if any(reason == "protocol-version" for _, reason in server.dropped):
                break
        reply = decode_message(_LineReader(sock).readline())
        assert reply == bye_message("protocol")
        assert server.worker_count() == 0
        sock.close()


def test_generation_fails_with_zero_workers():
    _, _, _, msg = sample_gen_message()
    with MasterServer() as server:
        with pytest.raises(GenerationFailedError):
            server.evaluate_generation(msg, 4)


def test_generation_fails_when_only_worker_dies():
    _, _, _, msg = sample_gen_message()
    with MasterServer() as server:
        address = server.address

        def doomed():
            w = ScriptedWorker(address, "doomed")
            w.read_until("task")
            w.close()

        thread = threading.Thread(target=doomed, daemon=True)
        thread.start()
        server.wait_for_workers(1, timeout=10)
        with pytest.raises(GenerationFailedError):
            server.evaluate_generation(msg, 4)
        thread.join(timeout=10)
        assert any(reason == "eof" for _, reason in server.dropped)


def test_duplicate_and_stale_results_are_discarded():
    spec = env_spec("cartpole")
    _, _, _, msg = sample_gen_message()
    lam = 3
    with MasterServer() as server:
        address = server.address
        seen = []

        def scripted():
            w = ScriptedWorker(address, "dup")
            w.read_until("gen")
            for _ in range(lam):
                task = w.read_until("task")
                idx = task["index"]
                seen.append(idx)
                base = {"type": "result", "generation": task["generation"],
                        "index": idx, "raw_return": 0.0, "timesteps": 1,
                        "delta": empty_delta(spec.obs_dim)}
                w.send(dict(base, generation=10 ** 6, fitness=-123.0))
                w.send(dict(base, fitness=10.0 + idx))
                w.send(dict(base, fitness=999.0))
            w.read_until("bye")
            w.close()

        thread = threading.Thread(target=scripted, daemon=True)
        thread.start()
        server.wait_for_workers(1, timeout=10)
        evals = server.evaluate_generation(msg, lam)
        assert sorted(seen) == [0, 1, 2]
        assert [e.fitness for e in evals] == [10.0, 11.0, 12.0]
    thread.join(timeout=10)


def test_late_joiner_receives_gen_and_takes_over_timed_out_task():
    params, state, norm, msg = sample_gen_message(CSA, master_seed=31)
    server = MasterServer(task_timeout=0.3)
    try:
        address = server.address
        silent = ScriptedWorker(address, "silent")
        server.wait_for_workers(1, timeout=10)
        box = {}

        def evaluate():
            box["evals"] = server.evaluate_generation(msg, 2)

        ev_thread = threading.Thread(target=evaluate, daemon=True)
        ev_thread.start()
        time.sleep(0.15)
        worker_thread, out = start_real_worker(server)
        ev_thread.join(timeout=30)
        assert "evals" in box
        for cand, got in zip(ask(params, state, 31)[:2], box["evals"]):
            want = evaluate_candidate(cand.x, cand.index, "cartpole", norm,
                                      FitnessSpec(), msg["generation"], 31)
            assert got.fitness == want.fitness
        silent.close()
    finally:
        server.close()
    worker_thread.join(timeout=10)


# ---------------------------------------------------------------------------
# end-to-end training equivalence


TRAIN_KW = dict(sigma0=0.1, lam=4, budget_timesteps=10 ** 9,
                master_seed=11, max_generations=12)


def records_of(result):
    return [(r.generation, r.cumulative_timesteps, r.median_test_return,
             tuple(r.test_returns), r.best_train_fitness, r.sigma)
            for r in result.records]


def test_distributed_run_is_bitwise_equal_to_local(tmp_path):
    local = train("cartpole", CSA, **TRAIN_KW)
    with MasterServer() as server:
        thread, out = start_real_worker(server)
        dist = train_distributed("cartpole", CSA, expected_workers=1,
                                 server=server, **TRAIN_KW)
    thread.join(timeout=10)

    assert records_of(dist) == records_of(local)
    assert dist.status == local.status
    assert dist.cumulative_timesteps == local.cumulative_timesteps
    assert np.array_equal(dist.state.m, local.state.m)
    assert dist.state.sigma == local.state.sigma

    a, b = tmp_path / "local.csv", tmp_path / "dist.csv"
    write_curve_csv(str(a), local.records)
    write_curve_csv(str(b), dist.records)
    assert a.read_bytes() == b.read_bytes()


def test_worker_crash_mid_generation_does_not_change_results():
    local = train("cartpole", CSA, **TRAIN_KW)
    with MasterServer() as server:
        address = server.address

        def crasher():
            w = ScriptedWorker(address, "crasher")
            w.read_until("task")
            w.close()

        crash_thread = threading.Thread(target=crasher, daemon=True)
        crash_thread.start()
        worker_thread, _ = start_real_worker(server)
        dist = train_distributed("cartpole", CSA, expected_workers=2,
                                 server=server, **TRAIN_KW)
    crash_thread.join(timeout=10)
    worker_thread.join(timeout=10)

    assert records_of(dist) == records_of(local)
    assert any(reason == "eof" for _, reason in server.dropped)


def test_multi_worker_run_equals_single_worker_run():
    with MasterServer() as server:
        threads = [start_real_worker(server, worker_id=f"w{i}")[0]
                   for i in range(3)]
        multi = train_distributed("cartpole", CSA, expected_workers=3,
                                  server=server, **TRAIN_KW)
    for t in threads:
        t.join(timeout=10)
    local = train("cartpole", CSA, **TRAIN_KW)
    assert records_of(multi) == records_of(local)


def test_train_distributed_validates_worker_count():
    with pytest.raises(ValueError):
        train_distributed("cartpole", CSA, expected_workers=0, **TRAIN_KW)


def test_worker_connect_failure_raises_os_error():
    probe = socket.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()[:2]
    probe.close()
    with pytest.raises(OSError):
        serve_worker(host, port, connect_timeout=0.5)
