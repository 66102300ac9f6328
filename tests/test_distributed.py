"""Wire protocol and master/worker behavior, including fault injection."""

import json
import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from evolin import (CSA, FULL_CMA, SEP_CMA, FitnessSpec, LinearPolicy,
                    MasterServer, ObsNormalizer, Probe, ask, env_spec,
                    evaluate_candidate, evaluate_generation, new_strategy,
                    sample, tell, train)
from evolin import distributed, evaluate
from evolin.distributed import (DesyncError, GenerationFailedError,
                                ProtocolError, _LineReader, build_gen_message,
                                bye_message, cov_digest, cov_payload,
                                decode_message, encode_message,
                                eval_from_result, gen_context, hello_message,
                                run_task, serve_worker, split_ranges,
                                task_message, train_distributed,
                                transform_from_payload)
from evolin.es import CovTransform
from evolin.evaluate import collect_generation, write_curve_csv


def warmed_state(variant, n=6, sigma0=0.3, tells=3, seed=77, lam=None):
    params, state = new_strategy(variant, n, sigma0, np.zeros(n), lam)
    rng = np.random.default_rng(seed)
    for _ in range(tells):
        cands = ask(params, state, 99)
        for c in cands:
            c.fitness = float(rng.standard_normal())
        state = tell(params, state, cands)
    return params, state


def sample_gen_message(variant=CSA, master_seed=3, env_id="cartpole", lam=4,
                       probe_generation=None):
    """A strategy, its warmed normalizer, and a GEN message consistent with
    both (generation = state.g, so a local ask reproduces the candidates).
    With ``probe_generation`` the GEN owes the probe of the mean."""
    spec = env_spec(env_id)
    n = spec.obs_dim * spec.action_space.act_dim
    params, state = warmed_state(variant, n=n, tells=2, lam=lam)
    norm = ObsNormalizer.create(spec.obs_dim)
    rng = np.random.default_rng(5)
    for _ in range(10):
        norm.update(rng.standard_normal(spec.obs_dim))
    probe = None if probe_generation is None else Probe(
        LinearPolicy.from_genome(state.m, spec.obs_dim, spec.action_space),
        probe_generation)
    return params, state, norm, build_gen_message(
        run_id="t", generation=state.g, master_seed=master_seed,
        env_id=env_id, lam=params.lam, state=state, normalizer=norm,
        fitness_spec=FitnessSpec(), probe=probe)


# ---------------------------------------------------------------------------
# framing and payloads


def test_messages_round_trip_through_framing():
    _, _, _, gen_msg = sample_gen_message(FULL_CMA)
    samples = [
        hello_message("w-1"),
        gen_msg,
        task_message("r", 4, 2, 3),
        task_message("r", 4, 0, 0, probe=True),
        bye_message("shutdown"),
        {"type": "probe", "run_id": "r", "generation": 3,
         "returns": [500.0, -1e-300, 2 / 3, 9.0, 0.0]},
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


def test_full_payload_carries_only_the_sampling_factors():
    # the worker samples from basis and scale; the digest covers exactly those
    _, state = warmed_state(FULL_CMA)
    payload = cov_payload(state)
    assert set(payload) == {"kind", "n", "basis", "scale"}
    digest = cov_digest(payload)
    for key in ("basis", "scale"):
        tampered = dict(payload, **{key: list(payload[key])})
        tampered[key][-1] += 1e-12
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
    for indexes in ([17], range(8, 20), [31, 0, 12]):
        z, x = sample(seed, ctx.generation, indexes, ctx.m, ctx.sigma,
                      ctx.transform)
        for row, i in enumerate(indexes):
            assert x[row].tobytes() == local_cands[i].x.tobytes()
            assert z[row].tobytes() == local_cands[i].z.tobytes()


def test_gen_context_rejects_digest_mismatch_and_bad_shapes():
    _, _, _, msg = sample_gen_message()
    bad = dict(msg, cov_digest=str((int(msg["cov_digest"]) + 1) % 2 ** 64))
    with pytest.raises(DesyncError):
        gen_context(bad)
    short = dict(msg, m=msg["m"][:-1])
    with pytest.raises(ProtocolError):
        gen_context(short)


@pytest.mark.parametrize("probe", [{"generation": 1.0, "episodes": 5},
                                   {"generation": 1, "episodes": 0},
                                   {"generation": 1, "episodes": True}],
                         ids=["float-generation", "no-episodes", "bool-episodes"])
def test_gen_context_rejects_a_malformed_probe(probe):
    _, _, _, msg = sample_gen_message(probe_generation=1)
    with pytest.raises(ProtocolError):
        gen_context(dict(msg, probe=probe))


def test_run_task_runs_the_probe_as_test_policy_does():
    _, state, norm, msg = sample_gen_message(SEP_CMA, master_seed=912,
                                             probe_generation=1)
    ctx = gen_context(decode_message(encode_message(msg)))
    spec = env_spec("cartpole")
    policy = LinearPolicy.from_genome(state.m, spec.obs_dim, spec.action_space)
    _, want = evaluate.test_policy(policy, norm, "cartpole", 912, 1)
    plain = run_task(replace(ctx, probe=None), range(1, 3))
    for indexes in (range(1, 3), range(0)):
        replies = run_task(ctx, indexes)
        assert replies[:-1] == plain[:len(indexes)]
        assert replies[-1] == {"type": "probe", "run_id": "t", "generation": 1,
                               "returns": want}


def test_run_task_ranges_match_local_generation_exactly():
    lam = 7
    params, state, norm, msg = sample_gen_message(SEP_CMA, master_seed=912, lam=lam)
    gen = msg["generation"]
    ctx = gen_context(decode_message(encode_message(msg)))
    cands = ask(params, state, 912)
    local = evaluate_generation(cands, "cartpole", norm, FitnessSpec(), gen, 912)

    def remote(indexes):
        return [eval_from_result(decode_message(encode_message(r)), len(norm.mean))
                for r in run_task(ctx, indexes)]

    # a range of one, a middle range, and the whole generation
    for indexes in (range(3, 4), range(1, 5), range(lam)):
        evals = remote(indexes)
        assert [e.index for e in evals] == list(indexes)
        for e in evals:
            alone = evaluate_candidate(cands[e.index].x, e.index, "cartpole",
                                       norm, FitnessSpec(), gen, 912)
            assert e.fitness == local.fitnesses[e.index] == alone.fitness
            assert e.raw_return == local.raw_returns[e.index]
            assert e.timesteps == alone.timesteps
            assert e.delta.to_dict() == alone.delta.to_dict()

    # ragged ranges covering the generation fold to the local generation
    folded = collect_generation(remote(range(0, 1)) + remote(range(1, 5))
                                + remote(range(5, lam)), len(norm.mean), lam)
    assert folded.fitnesses.tobytes() == local.fitnesses.tobytes()
    assert folded.raw_returns.tobytes() == local.raw_returns.tobytes()
    assert folded.timesteps == local.timesteps
    assert folded.delta.to_dict() == local.delta.to_dict()


def test_split_ranges_is_balanced_contiguous_and_cut_at_gaps():
    assert split_ranges(list(range(4)), 2) == [range(0, 2), range(2, 4)]
    assert split_ranges(list(range(7)), 3) == [range(0, 3), range(3, 5), range(5, 7)]
    assert split_ranges(list(range(2)), 5) == [range(0, 1), range(1, 2)]
    assert split_ranges([1, 2, 5, 6], 1) == [range(1, 3)]
    assert split_ranges([1, 2, 5, 6], 2) == [range(1, 3), range(5, 7)]


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
        evals, probe_returns = server.evaluate_generation(msg, 4)
        assert [e.index for e in evals] == [0, 1, 2, 3]
        assert probe_returns is None
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


def worker_replies_to_task(edit, replies=1, probe_generation=None):
    """Start a real worker, send it a GEN (owing the probe of
    ``probe_generation``, if given) and the TASK ``edit`` makes of a valid
    one-candidate TASK, and return its first ``replies`` messages and its
    exit reason once the connection is closed."""
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
    _, _, _, msg = sample_gen_message(probe_generation=probe_generation)
    conn.sendall(encode_message(msg))
    task = task_message(msg["run_id"], msg["generation"], 0, 1)
    conn.sendall(encode_message(edit(task, msg["lambda"])))
    got = [decode_message(reader.readline()) for _ in range(replies)]
    conn.close()
    thread.join(timeout=10)
    listener.close()
    return got, out["reason"]


def test_worker_says_bye_on_out_of_range_task_index():
    (reply,), reason = worker_replies_to_task(lambda t, lam: dict(t, index=lam))
    assert reply == bye_message("protocol")
    assert reason == "protocol"


@pytest.mark.parametrize("edit", [
    lambda t, lam: dict(t, count=0),
    lambda t, lam: dict(t, count=-2),
    lambda t, lam: dict(t, count=1.0),
    lambda t, lam: dict(t, count="2"),
    lambda t, lam: dict(t, count=True),
    lambda t, lam: {k: v for k, v in t.items() if k != "count"},
    lambda t, lam: dict(t, index=1, count=lam),
    lambda t, lam: dict(t, index=-1, count=2),
    lambda t, lam: dict(t, run_id="another-run"),
    lambda t, lam: dict(t, probe=1),
    lambda t, lam: dict(t, probe="true"),
    lambda t, lam: {k: v for k, v in t.items() if k != "probe"},
    lambda t, lam: dict(t, probe=True),
    lambda t, lam: dict(t, probe=True, count=0),
], ids=["count-0", "count-negative", "count-float", "count-string",
        "count-bool", "count-missing", "past-lambda", "index-negative",
        "foreign-run", "probe-int", "probe-string", "probe-missing",
        "probe-not-owed", "probe-only-not-owed"])
def test_worker_says_bye_on_malformed_task_range(edit):
    (reply,), reason = worker_replies_to_task(edit)
    assert reply == bye_message("protocol")
    assert reason == "protocol"


def test_worker_answers_a_range_with_one_result_per_index():
    replies, reason = worker_replies_to_task(
        lambda t, lam: dict(t, index=1, count=2), replies=2)
    assert [(r["type"], r["run_id"], r["index"]) for r in replies] == [
        ("result", "t", 1), ("result", "t", 2)]
    assert reason == "eof"


def test_worker_runs_the_owed_probe_only_when_flagged():
    # the GEN is for generation 2 and owes the probe of generation 1
    flagged, reason = worker_replies_to_task(
        lambda t, lam: dict(t, index=1, count=2, probe=True), replies=3,
        probe_generation=1)
    assert [(r["type"], r.get("index"), r["generation"]) for r in flagged] == [
        ("result", 1, 2), ("result", 2, 2), ("probe", None, 1)]
    assert len(flagged[-1]["returns"]) == 5 and reason == "eof"
    (alone,), _ = worker_replies_to_task(
        lambda t, lam: dict(t, count=0, probe=True), probe_generation=1)
    assert alone == flagged[-1]
    unflagged, _ = worker_replies_to_task(
        lambda t, lam: dict(t, index=1, count=2), replies=2, probe_generation=1)
    assert unflagged == flagged[:2]


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

    out = check(task_message("t", 0, 0, 1), "protocol")
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
            task = w.read_until("task")
            for idx in range(task["index"], task["index"] + task["count"]):
                seen.append(idx)
                base = {"type": "result", "run_id": task["run_id"],
                        "generation": task["generation"],
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
        evals, _ = server.evaluate_generation(msg, lam)
        assert sorted(seen) == [0, 1, 2]
        assert [e.fitness for e in evals] == [10.0, 11.0, 12.0]
    thread.join(timeout=10)


def test_result_from_another_run_is_discarded():
    # a server reused across seeds must not take a late result of the
    # previous run for the same generation and index
    spec = env_spec("cartpole")
    _, _, _, msg = sample_gen_message()
    lam = 2
    with MasterServer() as server:
        address = server.address

        def scripted():
            w = ScriptedWorker(address, "stale")
            w.read_until("gen")
            task = w.read_until("task")
            for idx in range(task["index"], task["index"] + task["count"]):
                base = {"type": "result", "generation": task["generation"],
                        "index": idx, "raw_return": 0.0, "timesteps": 1,
                        "delta": empty_delta(spec.obs_dim)}
                w.send(dict(base, run_id="previous-seed", fitness=-123.0))
                w.send(dict(base, fitness=-456.0))
                w.send(dict(base, run_id=task["run_id"], fitness=10.0 + idx))
            w.read_until("bye")
            w.close()

        thread = threading.Thread(target=scripted, daemon=True)
        thread.start()
        server.wait_for_workers(1, timeout=10)
        evals, _ = server.evaluate_generation(msg, lam)
        assert [e.fitness for e in evals] == [10.0, 11.0]
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
            box["evals"], _ = server.evaluate_generation(msg, 2)

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


def test_each_worker_gets_one_task_per_generation(monkeypatch):
    tasks = []
    scored = distributed.run_task

    def recording_run_task(ctx, indexes):
        tasks.append((ctx.generation, threading.current_thread().name, indexes,
                      None if ctx.probe is None else ctx.probe.generation))
        return scored(ctx, indexes)

    monkeypatch.setattr(distributed, "run_task", recording_run_task)
    kw = dict(TRAIN_KW, max_generations=5)
    with MasterServer() as server:
        threads = [start_real_worker(server, worker_id=f"w{i}")[0]
                   for i in range(2)]
        dist = train_distributed("cartpole", CSA, expected_workers=2,
                                 server=server, **kw)
    for t in threads:
        t.join(timeout=10)
    assert records_of(dist) == records_of(train("cartpole", CSA, **kw))
    for gen in range(5):
        got = [(name, r) for g, name, r, _ in tasks if g == gen]
        assert len({name for name, _ in got}) == len(got) == 2
        assert sorted(r.start for _, r in got) == [0, 2]
        assert all(len(r) == 2 for _, r in got)
        # exactly one TASK runs the probe the previous generation owes, on
        # the last (smallest) range
        probed = [(r.start, p) for g, _, r, p in tasks if g == gen and p is not None]
        assert probed == ([] if gen == 0 else [(2, gen - 1)])


def test_master_runs_no_rollout_inside_evaluate_generation(monkeypatch):
    kw = dict(TRAIN_KW, max_generations=5)
    master = threading.current_thread()
    inside = []
    master_rollouts, worker_rollouts = [], []
    for name in ("run_episodes", "test_policy"):
        real = getattr(evaluate, name)

        def watched(*args, _real=real, _name=name, **kwargs):
            if threading.current_thread() is not master:
                worker_rollouts.append(_name)
            elif inside:
                master_rollouts.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(evaluate, name, watched)
    real_evaluate = MasterServer.evaluate_generation

    def watched_evaluate(self, *args):
        inside.append(True)
        try:
            return real_evaluate(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(MasterServer, "evaluate_generation", watched_evaluate)
    with MasterServer() as server:
        threads = [start_real_worker(server, worker_id=f"w{i}")[0]
                   for i in range(2)]
        dist = train_distributed("cartpole", CSA, expected_workers=2,
                                 server=server, **kw)
    for t in threads:
        t.join(timeout=10)
    local = train("cartpole", CSA, **kw)
    assert records_of(dist) == records_of(local)
    assert master_rollouts == [] and worker_rollouts
    assert sorted(server.dropped) == [("w0", "closed"), ("w1", "closed")]


def serve_until_probe(w, on_probe):
    """Serve TASKs honestly on ScriptedWorker ``w`` until one is flagged to
    run the probe, then hand its replies (RESULTs, then PROBE) to
    ``on_probe`` instead of sending them."""
    ctx = None
    while True:
        msg = w.read()
        if msg is None or msg["type"] == "bye":
            return
        if msg["type"] == "gen":
            ctx = gen_context(msg)
        elif msg["type"] == "task":
            span = range(msg["index"], msg["index"] + msg["count"])
            if msg["probe"]:
                return on_probe(run_task(ctx, span))
            for reply in run_task(replace(ctx, probe=None), span):
                w.send(reply)


def run_beside_a_scripted_worker(on_probe, kw, task_timeout=10.0):
    """A 2-worker run whose second worker, scripted, gets the first probe
    (the smallest range goes to the last idle worker) and gives its
    replies to ``on_probe(worker, replies)``."""
    with MasterServer(task_timeout=task_timeout) as server:
        honest, _ = start_real_worker(server, worker_id="honest")
        server.wait_for_workers(1, timeout=10)
        w = ScriptedWorker(server.address, "scripted")
        scripted = threading.Thread(
            target=serve_until_probe, args=(w, lambda r: on_probe(w, r)),
            daemon=True)
        scripted.start()
        dist = train_distributed("cartpole", CSA, expected_workers=2,
                                 server=server, **kw)
    scripted.join(timeout=10)
    honest.join(timeout=10)
    w.close()
    return dist, server


def test_lost_probe_goes_to_the_surviving_worker(tmp_path):
    kw = dict(TRAIN_KW, max_generations=4)

    def vanish(w, replies):
        for reply in replies[:-1]:
            w.send(reply)
        w.close()

    # the drop re-queues the probe at once, not when the task times out
    started = time.perf_counter()
    dist, server = run_beside_a_scripted_worker(vanish, kw, task_timeout=30.0)
    assert time.perf_counter() - started < 30.0
    assert ("scripted", "eof") in server.dropped
    a, b = tmp_path / "local.csv", tmp_path / "dist.csv"
    write_curve_csv(str(a), train("cartpole", CSA, **kw).records)
    write_curve_csv(str(b), dist.records)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("edit", [
    lambda p: dict(p, run_id="another-run"),
    lambda p: dict(p, generation=p["generation"] + 1),
    lambda p: dict(p, returns=dict(enumerate(p["returns"]))),
    lambda p: {k: v for k, v in p.items() if k != "returns"},
    lambda p: dict(p, returns=p["returns"][:-1]),
    lambda p: dict(p, returns=p["returns"] + [0.0]),
    lambda p: dict(p, returns=p["returns"][:-1] + [float("nan")]),
    lambda p: dict(p, returns=p["returns"][:-1] + [float("inf")]),
    lambda p: dict(p, returns=p["returns"][:-1] + ["9.0"]),
    lambda p: dict(p, returns=p["returns"][:-1] + [True]),
], ids=["foreign-run", "wrong-generation", "not-a-list", "missing", "short",
        "long", "nan", "infinite", "string", "bool"])
def test_malformed_probe_drops_the_worker_and_the_run_matches_local(edit):
    kw = dict(TRAIN_KW, max_generations=3)

    def mangle(w, replies):
        # json.dumps, unlike encode_message, writes NaN and Infinity
        w.sock.sendall(b"".join((json.dumps(r) + "\n").encode()
                                for r in replies[:-1] + [edit(replies[-1])]))
        w.read_until("bye")

    dist, server = run_beside_a_scripted_worker(mangle, kw)
    local = train("cartpole", CSA, **kw)
    assert ("scripted", "protocol") in server.dropped
    assert records_of(dist) == records_of(local)


def test_unasked_probe_drops_the_worker():
    _, _, _, msg = sample_gen_message()
    with MasterServer() as server:
        address = server.address

        def scripted():
            w = ScriptedWorker(address, "eager")
            w.read_until("gen")
            task = w.read_until("task")
            w.send({"type": "probe", "run_id": task["run_id"],
                    "generation": task["generation"] - 1,
                    "returns": [0.0] * 5})
            w.read_until("bye")
            w.close()

        thread = threading.Thread(target=scripted, daemon=True)
        thread.start()
        server.wait_for_workers(1, timeout=10)
        with pytest.raises(GenerationFailedError):
            server.evaluate_generation(msg, 4)
        thread.join(timeout=10)
        assert server.dropped == [("eager", "protocol")]


def corrupt_first_result(address, edit):
    """A worker that scores its range honestly but mangles its first RESULT."""
    w = ScriptedWorker(address, "corrupt")
    ctx = gen_context(w.read_until("gen"))
    task = w.read_until("task")
    results = run_task(ctx, range(task["index"], task["index"] + task["count"]))
    results[0] = edit(results[0])
    # json.dumps, unlike encode_message, writes NaN and Infinity
    w.sock.sendall(b"".join((json.dumps(r) + "\n").encode() for r in results))
    w.read_until("bye")
    w.close()


@pytest.mark.parametrize("edit", [
    lambda r: {k: v for k, v in r.items() if k != "fitness"},
    lambda r: {k: v for k, v in r.items() if k != "index"},
    lambda r: dict(r, timesteps=str(r["timesteps"])),
    lambda r: dict(r, fitness=float("nan")),
    lambda r: dict(r, raw_return=float("-inf")),
    lambda r: dict(r, delta=dict(r["delta"], mean=r["delta"]["mean"][:-1])),
    lambda r: dict(r, delta=dict(r["delta"], m2=[float("nan")] * 4)),
    lambda r: dict(r, delta=dict(r["delta"], m2=[-1.0] * 4)),
], ids=["missing-fitness", "missing-index", "string-timesteps", "nan-fitness",
        "infinite-raw-return", "short-delta", "nan-delta", "negative-delta-m2"])
def test_malformed_result_drops_the_worker_and_the_run_matches_local(edit):
    kw = dict(TRAIN_KW, max_generations=4)
    with MasterServer(task_timeout=10.0) as server:
        corrupt = threading.Thread(target=corrupt_first_result,
                                   args=(server.address, edit), daemon=True)
        corrupt.start()
        worker, _ = start_real_worker(server, worker_id="honest")
        dist = train_distributed("cartpole", CSA, expected_workers=2,
                                 server=server, **kw)
    corrupt.join(timeout=10)
    worker.join(timeout=10)
    local = train("cartpole", CSA, **kw)
    assert ("corrupt", "protocol") in server.dropped
    assert records_of(dist) == records_of(local)
    assert dist.cumulative_timesteps == local.cumulative_timesteps


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


@pytest.mark.parametrize("bad", [{"test_every": 0}, {"env_id": "walker"},
                                 {"variant": "bfgs"}, {"sigma0": -1.0},
                                 {"lam": 1}, {"master_seed": -1}],
                         ids=lambda bad: next(iter(bad)))
def test_train_distributed_validates_arguments_before_waiting(bad):
    kw = {"env_id": "cartpole", "variant": CSA, **TRAIN_KW, **bad}
    started = time.perf_counter()
    with pytest.raises(ValueError):
        train_distributed(kw.pop("env_id"), kw.pop("variant"), expected_workers=1,
                          wait_timeout=5.0, **kw)
    assert time.perf_counter() - started < 1.0


def test_worker_connect_failure_raises_os_error():
    probe = socket.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()[:2]
    probe.close()
    with pytest.raises(OSError):
        serve_worker(host, port, connect_timeout=0.5)
