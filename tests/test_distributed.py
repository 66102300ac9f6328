"""Wire protocol and master/worker behavior, including fault injection."""

import json
import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from evolin import (CSA, FULL_CMA, SEP_CMA, Batch, FitnessSpec, LinearPolicy,
                    MasterServer, ObsNormalizer, ask, env_spec,
                    evaluate_candidate, evaluate_generation, new_strategy,
                    tell, train)
from evolin import distributed, evaluate
from evolin.distributed import (GenerationFailedError, ProtocolError,
                                _LineReader, build_gen_message, bye_message,
                                decode_message, encode_message,
                                gen_context, hello_message, result_message,
                                run_task, scores_from_result, serve_worker, split_ranges,
                                task_message, train_distributed)
from evolin.evaluate import collect_generation, write_curve_csv


# RESULT's columns, one row per candidate of the TASK's range
COLUMNS = ("fitness", "raw_return", "count", "mean", "m2")


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
    """The ``Batch`` of generation ``state.g`` of a warmed strategy, whose
    rows a local ask draws, with a warmed normalizer, and the generation
    fields of its TASKs for run "t".  With ``probe_generation`` the batch
    owes that generation's probe of the mean."""
    spec = env_spec(env_id)
    n = spec.obs_dim * spec.action_space.act_dim
    params, state = warmed_state(variant, n=n, tells=2, lam=lam)
    norm = ObsNormalizer.create(spec.obs_dim)
    rng = np.random.default_rng(5)
    for _ in range(10):
        norm.update(rng.standard_normal(spec.obs_dim))
    cands = ask(params, state, master_seed)
    batch = Batch(env_id, master_seed, state.g, range(len(cands)),
                  np.array([c.x for c in cands]), state.m, norm, FitnessSpec(),
                  probe_generation)
    return batch, build_gen_message(batch, "t")


def answer(batch, indexes, run_id="t"):
    """The RESULT a worker sends for candidates ``indexes`` of ``batch``."""
    return result_message(run_id, batch.generation, indexes.start,
                          run_task(batch, indexes))


# ---------------------------------------------------------------------------
# framing and payloads


def test_messages_round_trip_through_framing():
    _, gen_msg = sample_gen_message(FULL_CMA, probe_generation=1)
    samples = [
        hello_message("w-1"),
        task_message(gen_msg, range(2, 5)),
        task_message(gen_msg, range(5, 6), probe=True),
        bye_message("shutdown"),
        {"type": "result", "run_id": "r", "generation": 1, "index": 2,
         "fitness": [1 / 3], "raw_return": [1e-300], "count": [17],
         "mean": [[0.1, -0.25]], "m2": [[0.0, 4.0]], "probe": None},
        {"type": "result", "run_id": "r", "generation": 4, "index": 0,
         "fitness": [2.0, -0.5], "raw_return": [2.0, 9.0], "count": [2, 9],
         "mean": [[0.0], [1e-9]], "m2": [[0.0], [7.5]],
         "probe": [500.0, -1e-300, 2 / 3, 9.0, 0.0]},
    ]
    for msg in samples:
        encoded = encode_message(msg)
        assert encoded.endswith(b"\n") and encoded.count(b"\n") == 1
        assert decode_message(encoded[:-1]) == msg


def test_decode_rejects_garbage():
    # the last holds an int past the digit limit of Python's int parsing
    for line in [b"not json", b"[1,2]", b"{\"no_type\":1}", b"\xff\xfe", b"9" * 5000]:
        with pytest.raises(ProtocolError):
            decode_message(line)


def test_task_carries_its_generation_and_its_range_rows():
    _, msg = sample_gen_message(probe_generation=1)
    task = task_message(msg, range(1, 3), probe=True)
    assert set(task) == {"type", "protocol_version", "run_id", "generation",
                         "master_seed", "env_id", "lambda", "m", "x",
                         "normalizer", "fitness_spec", "index", "count", "probe"}
    assert task["x"] == msg["x"][1:3] and len(msg["x"]) == msg["lambda"]


@pytest.mark.parametrize("variant", [CSA, SEP_CMA, FULL_CMA])
def test_gen_context_reconstructs_candidates_bitwise(variant):
    # a TASK parses back into its range of the master's Batch, every row
    # with the bits ask drew on the master
    seed = 2 ** 63 + 5
    batch, msg = sample_gen_message(variant, master_seed=seed, lam=7,
                                    probe_generation=1)
    for span in (range(7), range(0, 1), range(1, 4), range(6, 7)):
        wire = decode_message(encode_message(task_message(msg, span, probe=True)))
        run_id, got = gen_context(wire)
        assert run_id == "t" and got.indexes == span
        assert (got.env_id, got.master_seed, got.generation, got.probe) == (
            "cartpole", seed, batch.generation, 1)
        assert got.x.shape == (len(span), batch.x.shape[1])
        assert got.x.tobytes() == batch.x[span.start:span.stop].tobytes()
        assert got.m.tobytes() == batch.m.tobytes()
        assert got.normalizer.to_dict() == batch.normalizer.to_dict()
        assert got.fitness_spec == batch.fitness_spec


def edit_normalizer(**fields):
    return lambda t: dict(t, normalizer={**t["normalizer"], **fields})


def edit_first_row(value):
    return lambda t: dict(t, x=[[value] + t["x"][0][1:]] + t["x"][1:])


# edits of a valid cartpole TASK (obs_dim 4, genome_dim 4) of range(0, 2)
MALFORMED_TASKS = {
    "old-protocol": lambda t: dict(t, protocol_version=7),
    "short-mean": lambda t: dict(t, m=t["m"][:-1]),
    "unknown-env": lambda t: dict(t, env_id="mountaincar"),
    "negative-generation": lambda t: dict(t, generation=-1),
    "negative-seed": lambda t: dict(t, master_seed="-1"),
    # the master sends seeds as decimal strings; int() would read these too
    "seed-float": lambda t: dict(t, master_seed=3.7),
    "seed-bool": lambda t: dict(t, master_seed=True),
    "seed-number": lambda t: dict(t, master_seed=3),
    "seed-plus": lambda t: dict(t, master_seed="+3"),
    "seed-space": lambda t: dict(t, master_seed=" 3"),
    "seed-underscore": lambda t: dict(t, master_seed="3_0"),
    "seed-empty": lambda t: dict(t, master_seed=""),
    "seed-non-ascii-digit": lambda t: dict(t, master_seed="\u0663"),
    "seed-too-big": lambda t: dict(t, master_seed=str(2**64)),
    "x-missing": lambda t: {k: v for k, v in t.items() if k != "x"},
    "x-short": lambda t: dict(t, x=t["x"][:-1]),
    "x-long": lambda t: dict(t, x=t["x"] + t["x"][:1]),
    "x-narrow": lambda t: dict(t, x=[row[:-1] for row in t["x"]]),
    "x-flat": lambda t: dict(t, x=[v for row in t["x"] for v in row]),
    "x-nan": edit_first_row(float("nan")),
    "x-infinite": edit_first_row(float("inf")),
    "x-string": edit_first_row("0.5"),
    "x-bool": edit_first_row(True),
    "x-huge-int": edit_first_row(10 ** 400),
    "normalizer-short": edit_normalizer(mean=[0.0] * 3, m2=[1.0] * 3),
    "normalizer-m2-short": edit_normalizer(m2=[1.0] * 3),
    "normalizer-m2-negative": edit_normalizer(m2=[1.0, 1.0, 1.0, -1.0]),
    "normalizer-nan": edit_normalizer(mean=[0.0, 0.0, 0.0, float("nan")]),
    "normalizer-count-negative": edit_normalizer(count=-1),
    "normalizer-count-float": edit_normalizer(count=10.0),
    "normalizer-count-missing": lambda t: dict(
        t, normalizer={k: v for k, v in t["normalizer"].items() if k != "count"}),
    "normalizer-list": lambda t: dict(t, normalizer=[]),
    "normalizer-number": lambda t: dict(t, normalizer=5),
    "normalizer-null": lambda t: dict(t, normalizer=None),
    # str() would turn these into '5' and "['a']"
    "run-id-number": lambda t: dict(t, run_id=5),
    "run-id-list": lambda t: dict(t, run_id=["a"]),
    "env-id-list": lambda t: dict(t, env_id=["cartpole"]),
}


@pytest.mark.parametrize("edit", MALFORMED_TASKS.values(), ids=MALFORMED_TASKS.keys())
def test_gen_context_rejects_a_malformed_task(edit):
    # each of these a worker refuses with BYE protocol
    _, msg = sample_gen_message()
    task = task_message(msg, range(0, 2))
    gen_context(task)
    with pytest.raises((ProtocolError, KeyError, TypeError, ValueError)):
        gen_context(edit(task))


# a probe is null or an int generation before the TASK's own (here 2)
@pytest.mark.parametrize("probe", [1.0, True, "1", {"generation": 1, "episodes": 5},
                                   2, -1],
                         ids=["float-generation", "bool-generation",
                              "string-generation", "v6-object", "own-generation",
                              "negative-generation"])
def test_gen_context_rejects_a_malformed_probe(probe):
    _, msg = sample_gen_message(probe_generation=1)
    with pytest.raises(ProtocolError):
        gen_context(dict(msg, probe=probe))


def test_run_task_runs_the_probe_as_test_policy_does():
    batch, msg = sample_gen_message(SEP_CMA, master_seed=912, probe_generation=1)
    spec = env_spec("cartpole")
    policy = LinearPolicy.from_genome(batch.m, spec.obs_dim, spec.action_space)
    _, want = evaluate.test_policy(policy, batch.normalizer, "cartpole", 912, 1)

    def reply(probe):
        task = decode_message(encode_message(task_message(msg, range(1, 3), probe)))
        return answer(gen_context(task)[1], range(1, 3))

    plain = reply(False)
    assert plain["probe"] is None and len(plain["fitness"]) == 2
    assert reply(True) == dict(plain, probe=want)


def test_run_task_ranges_match_local_generation_exactly():
    lam = 7
    batch, msg = sample_gen_message(SEP_CMA, master_seed=912, lam=lam)
    gen = msg["generation"]
    _, parsed = gen_context(decode_message(encode_message(task_message(msg, range(lam)))))
    local = evaluate_generation(batch)

    def remote(indexes):
        reply = decode_message(encode_message(answer(parsed, indexes)))
        scores = scores_from_result(reply, task_message(msg, indexes))
        assert scores.probe is None
        return indexes, scores

    # a range of one, a middle range, and the whole generation
    for indexes in (range(3, 4), range(1, 5), range(lam)):
        _, scores = remote(indexes)
        assert len(scores.raw) == len(indexes)
        for row, i in enumerate(indexes):
            alone = evaluate_candidate(batch.x[i], i, "cartpole",
                                       batch.normalizer, FitnessSpec(), gen, 912)
            assert scores.shaped[row] == local.shaped[i] == alone.shaped[0]
            assert scores.raw[row] == local.raw[i]
            assert scores.count[row] == alone.count[0]
            assert scores.delta(row).to_dict() == alone.delta(0).to_dict()

    # ragged ranges covering the generation fold to the local generation
    folded = collect_generation([remote(range(0, 1)), remote(range(1, 5)),
                                 remote(range(5, lam))], lam)
    assert folded.shaped.tobytes() == local.shaped.tobytes()
    assert folded.raw.tobytes() == local.raw.tobytes()
    assert folded.moments().to_dict() == local.moments().to_dict()


@pytest.mark.parametrize("episodes", [1, 3])
def test_result_counts_lie_within_the_episode_bounds(episodes):
    # every training episode acts at least once and at most up to the limit
    _, msg = sample_gen_message()
    task = dict(task_message(msg, range(0, 2)),
                fitness_spec=FitnessSpec(train_episodes=episodes).to_dict())
    reply = answer_honestly(task)
    limit = episodes * env_spec("cartpole").max_episode_steps
    scores = scores_from_result(dict(reply, count=[episodes, limit]), task)
    assert scores.count.tolist() == [episodes, limit]
    for count in (episodes - 1, limit + 1, 2 ** 70):
        with pytest.raises(ProtocolError):
            scores_from_result(dict(reply, count=[limit, count]), task)


def test_split_ranges_is_balanced_contiguous_and_larger_first():
    assert split_ranges(4, 2) == [range(0, 2), range(2, 4)]
    assert split_ranges(7, 3) == [range(0, 3), range(3, 5), range(5, 7)]
    assert split_ranges(2, 5) == [range(0, 1), range(1, 2)]


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


def assert_matches_local(parts, batch):
    """The ``(range, Scores)`` ``parts`` cover the first candidates of
    ``batch`` and fold to what a local evaluation of those candidates
    gives."""
    lam = sum(len(span) for span, _ in parts)
    got = collect_generation(parts, lam)
    want = evaluate_generation(replace(batch, indexes=range(lam), x=batch.x[:lam]))
    assert got.shaped.tobytes() == want.shaped.tobytes()
    assert got.raw.tobytes() == want.raw.tobytes()
    assert got.moments().to_dict() == want.moments().to_dict()


def answer_honestly(task):
    run_id, batch = gen_context(task)
    return answer(batch, batch.indexes, run_id)


# ---------------------------------------------------------------------------
# master/worker integration


def test_single_worker_generation_matches_local():
    batch, msg = sample_gen_message(CSA, master_seed=31)
    with MasterServer() as server:
        thread, out = start_real_worker(server)
        server.wait_for_workers(1, timeout=10)
        parts = server.evaluate_generation(msg)
        assert [span for span, _ in parts] == [range(4)]
        assert all(scores.probe is None for _, scores in parts)
        assert_matches_local(parts, batch)
    thread.join(timeout=10)
    assert out.get("reason") == "shutdown"


def test_master_and_worker_sockets_disable_nagle(monkeypatch):
    # Nagle would hold a small write while the peer delays its ACK of the
    # one before
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


def worker_replies_to_task(edit, probe_generation=None, span=range(0, 1)):
    """Start a real worker, send it the TASK ``edit`` makes of a valid TASK
    of range ``span`` (naming the probe of ``probe_generation``, if given),
    and return its first reply and its exit reason once the connection is
    closed."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    out = {}

    def run():
        out["reason"] = serve_worker(host, port, worker_id="w")

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    conn, _ = listener.accept()
    conn.settimeout(10)             # a worker that ignores the TASK fails
    reader = _LineReader(conn)
    assert decode_message(reader.readline())["type"] == "hello"
    _, msg = sample_gen_message(probe_generation=probe_generation)
    task = task_message(msg, span, probe=probe_generation is not None)
    # json.dumps, unlike encode_message, writes NaN and Infinity
    conn.sendall((json.dumps(edit(task, msg["lambda"])) + "\n").encode())
    reply = reader.readline()
    assert reply is not None
    got = decode_message(reply)
    conn.close()
    thread.join(timeout=10)
    listener.close()
    return got, out["reason"]


def test_worker_says_bye_on_out_of_range_task_index():
    reply, reason = worker_replies_to_task(lambda t, lam: dict(t, index=lam))
    assert reply == bye_message("protocol")
    assert reason == "protocol"


@pytest.mark.parametrize("edit, owed", [
    (lambda t, lam: dict(t, count=0), None),
    (lambda t, lam: dict(t, count=-2), None),
    (lambda t, lam: dict(t, count=1.0), None),
    (lambda t, lam: dict(t, count="2"), None),
    (lambda t, lam: dict(t, count=True), None),
    (lambda t, lam: {k: v for k, v in t.items() if k != "count"}, None),
    (lambda t, lam: dict(t, index=1, count=lam), None),
    (lambda t, lam: dict(t, index=-1, count=2), None),
    # a probe is null or an earlier generation; protocol 6's object and
    # protocol 5's bool flag are refused
    (lambda t, lam: dict(t, probe=t["generation"]), None),
    (lambda t, lam: dict(t, probe={"generation": 1, "episodes": 5}), None),
    (lambda t, lam: dict(t, probe="true"), None),
    (lambda t, lam: {k: v for k, v in t.items() if k != "probe"}, None),
    (lambda t, lam: dict(t, probe=True), None),
    # a TASK names at least one index, even when it names a probe
    (lambda t, lam: dict(t, count=0), 1),
], ids=["count-0", "count-negative", "count-float", "count-string",
        "count-bool", "count-missing", "past-lambda", "index-negative",
        "probe-int", "probe-object", "probe-string", "probe-missing", "probe-bool",
        "probe-only-owed"])
def test_worker_says_bye_on_malformed_task_range(edit, owed):
    reply, reason = worker_replies_to_task(edit, probe_generation=owed)
    assert reply == bye_message("protocol")
    assert reason == "protocol"


@pytest.mark.parametrize("spec", [{"common_random_numbers": "false"},
                                  {"train_episodes": 2.7},
                                  {"train_episodes": True},
                                  {"shaping": {"mode": "drop_alive_bonus", "bonus": "nan"}},
                                  {"shaping": {"mode": 1, "bonus": 0.0}},
                                  {"shaping": {"mode": "identity", "bonus": 5.0}},
                                  {"note": None},
                                  {"shaping": {"mode": "drop_alive_bonus"}}],
                         ids=["string-crn", "fractional-episodes", "bool-episodes",
                              "string-bonus", "number-mode", "identity-bonus",
                              "extra-key", "shaping-without-bonus"])
def test_worker_says_bye_on_a_malformed_fitness_spec(spec):
    reply, reason = worker_replies_to_task(
        lambda t, lam: dict(t, fitness_spec={**t["fitness_spec"], **spec}))
    assert reply == bye_message("protocol")
    assert reason == "protocol"


def test_worker_answers_a_range_with_one_result_per_index():
    # one RESULT for the whole range, each column holding one row per index
    reply, reason = worker_replies_to_task(lambda t, lam: t, span=range(1, 3))
    assert (reply["type"], reply["run_id"], reply["index"]) == ("result", "t", 1)
    assert all(len(reply[key]) == 2 for key in COLUMNS) and reply["probe"] is None
    assert all(len(row) == 4 for key in ("mean", "m2") for row in reply[key])
    assert reason == "eof"


def test_worker_runs_the_owed_probe_only_when_flagged():
    # the TASK is for generation 2 and names the probe of generation 1
    flagged, reason = worker_replies_to_task(
        lambda t, lam: t, probe_generation=1, span=range(1, 3))
    assert (flagged["type"], flagged["index"], flagged["generation"]) == ("result", 1, 2)
    assert len(flagged["fitness"]) == 2 and len(flagged["probe"]) == 5
    assert reason == "eof"
    unflagged, _ = worker_replies_to_task(
        lambda t, lam: dict(t, probe=None), probe_generation=1, span=range(1, 3))
    assert unflagged == dict(flagged, probe=None)


def test_worker_says_bye_on_a_gen_message():
    # protocol 5 sent each generation once as a GEN, before its TASKs
    reply, reason = worker_replies_to_task(
        lambda t, lam: {k: v for k, v in t.items() if k not in ("index", "count")}
        | {"type": "gen"})
    assert reply == bye_message("protocol")
    assert reason == "protocol"


@pytest.mark.parametrize("name", ["x-missing", "x-short", "x-long", "x-narrow",
                                  "x-nan", "x-string", "x-huge-int",
                                  "normalizer-short", "normalizer-null",
                                  "unknown-env", "seed-float", "seed-plus"])
def test_worker_says_bye_on_a_task_it_cannot_score(name):
    # the TASK names range(0, 1); the edits cut and extend its one row
    reply, reason = worker_replies_to_task(lambda t, lam: MALFORMED_TASKS[name](t))
    assert reply == bye_message("protocol")
    assert reason == "protocol"


def test_master_rejects_wrong_protocol_version():
    # 5 sent each generation as a GEN; 7, the previous protocol, sent the
    # search distribution for workers to draw the candidates from
    for version in (5, 7, 99):
        with MasterServer() as server:
            sock = socket.create_connection(server.address)
            sock.sendall(encode_message(
                {"type": "hello", "protocol_version": version, "worker_id": "old"}))
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                server._pump(0.05)
                if server.dropped:
                    break
            assert server.dropped == [("old", "protocol-version")]
            reply = decode_message(_LineReader(sock).readline())
            assert reply == bye_message("protocol")
            assert server.worker_count() == 0
            sock.close()


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
def test_master_rejects_a_task_timeout_that_is_not_finite_and_positive(timeout):
    # a timeout drops its worker: 0 would drop every one, NaN none
    with pytest.raises(ValueError):
        MasterServer(task_timeout=timeout)


def test_generation_fails_with_zero_workers():
    _, msg = sample_gen_message()
    with MasterServer() as server:
        with pytest.raises(GenerationFailedError):
            server.evaluate_generation(msg)


def test_generation_fails_when_only_worker_dies():
    _, msg = sample_gen_message()
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
            server.evaluate_generation(msg)
        thread.join(timeout=10)
        assert any(reason == "eof" for _, reason in server.dropped)


def test_generation_failure_names_the_owed_probe():
    # each worker answers a TASK without the probe and hangs up on the one
    # with it, so two candidates and the probe are left owed
    _, msg = sample_gen_message(probe_generation=1)
    with MasterServer() as server:
        workers = [ScriptedWorker(server.address, f"s{i}") for i in range(2)]
        threads = [threading.Thread(target=serve_until,
                                    args=(w, True, lambda _, w=w: w.close()),
                                    daemon=True) for w in workers]
        for t in threads:
            t.start()
        server.wait_for_workers(2, timeout=10)
        with pytest.raises(GenerationFailedError,
                           match=r"2 candidate\(s\) unevaluated .* and its probe owed"):
            server.evaluate_generation(msg)
    for t in threads:
        t.join(timeout=10)


def test_unsolicited_results_drop_the_worker():
    # a second answer to a TASK, and an answer sent before any TASK
    batch, msg = sample_gen_message()
    with MasterServer() as server:
        address = server.address
        byes = {}

        def duplicate():
            w = ScriptedWorker(address, "dup")
            reply = answer_honestly(w.read_until("task"))
            # in one write, so that the master reads both in one tick
            w.sock.sendall(encode_message(reply) * 2)
            byes["dup"] = w.read_until("bye")
            w.close()

        thread = threading.Thread(target=duplicate, daemon=True)
        thread.start()
        server.wait_for_workers(1, timeout=10)
        parts = server.evaluate_generation(msg)
        assert_matches_local(parts, batch)

        eager = ScriptedWorker(address, "eager")
        eager.send({"type": "result", "run_id": "t", "generation": 0, "index": 0,
                    **{key: [] for key in COLUMNS}, "probe": None})
        with pytest.raises(TimeoutError):
            server.wait_for_workers(2, timeout=1.0)
        assert sorted(server.dropped) == [("dup", "protocol"), ("eager", "protocol")]
        assert eager.read_until("bye") == bye_message("protocol")
        eager.close()
    thread.join(timeout=10)
    assert byes["dup"] == bye_message("protocol")


def test_late_result_drops_the_worker_and_the_next_run_is_correct():
    # a worker that answers after its deadline is dropped unheard, so a
    # server reused for the next seed never reads its late reply
    batch, msg = sample_gen_message(CSA, master_seed=31)
    with MasterServer(task_timeout=1.0) as server:
        address = server.address
        box = {}

        def late():
            w = ScriptedWorker(address, "late")
            reply = answer_honestly(w.read_until("task"))
            box["after_deadline"] = w.read()     # no BYE: the master hangs up
            try:
                w.send(reply)
            except OSError:
                pass
            w.close()

        thread = threading.Thread(target=late, daemon=True)
        thread.start()
        server.wait_for_workers(1, timeout=10)
        honest, out = start_real_worker(server, worker_id="honest")
        server.wait_for_workers(2, timeout=10)
        for run_id in ("first-seed", "second-seed"):
            parts = server.evaluate_generation(dict(msg, run_id=run_id))
            assert_matches_local(parts, batch)
        assert server.dropped == [("late", "timeout")]
    thread.join(timeout=10)
    honest.join(timeout=10)
    assert box == {"after_deadline": None}
    assert out.get("reason") == "shutdown"


def test_late_joiner_takes_over_timed_out_task():
    batch, msg = sample_gen_message(CSA, master_seed=31)
    server = MasterServer(task_timeout=1.0)
    try:
        address = server.address
        silent = ScriptedWorker(address, "silent")
        server.wait_for_workers(1, timeout=10)
        box = {}

        def evaluate():
            box["parts"] = server.evaluate_generation({**msg, "lambda": 2})

        ev_thread = threading.Thread(target=evaluate, daemon=True)
        ev_thread.start()
        time.sleep(0.15)
        worker_thread, out = start_real_worker(server)
        ev_thread.join(timeout=30)
        assert "parts" in box
        assert_matches_local(box["parts"], batch)
        assert server.dropped == [("silent", "timeout")]
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


def test_worker_crash_mid_generation_does_not_change_results(monkeypatch):
    local = train("cartpole", CSA, **TRAIN_KW)
    sent = []
    send = MasterServer._send

    def recording_send(self, conn, msg):
        if msg["type"] == "task":
            sent.append((conn.worker_id, msg["generation"], msg["index"],
                         msg["count"], msg["probe"]))
        return send(self, conn, msg)

    monkeypatch.setattr(MasterServer, "_send", recording_send)
    with MasterServer() as server:
        address = server.address

        def crasher():
            w = ScriptedWorker(address, "crasher")
            w.read_until("task")
            w.close()

        crash_thread = threading.Thread(target=crasher, daemon=True)
        crash_thread.start()
        worker_thread, _ = start_real_worker(server, worker_id="survivor")
        dist = train_distributed("cartpole", CSA, expected_workers=2,
                                 server=server, **TRAIN_KW)
    crash_thread.join(timeout=10)
    worker_thread.join(timeout=10)

    assert records_of(dist) == records_of(local)
    assert any(reason == "eof" for _, reason in server.dropped)
    # the crashed worker's TASK goes whole, once, to the survivor
    [lost] = [task[1:] for task in sent if task[0] == "crasher"]
    assert [task[0] for task in sent if task[1:] == lost] == ["crasher", "survivor"]
    assert all(count >= 1 for _, _, _, count, _ in sent)


def test_each_worker_gets_one_task_per_generation(monkeypatch):
    tasks = []
    received = {}
    scored = distributed.run_task
    send = MasterServer._send

    def recording_run_task(batch, indexes):
        tasks.append((batch.generation, threading.current_thread().name, indexes,
                      batch.probe))
        return scored(batch, indexes)

    def recording_send(self, conn, msg):
        received.setdefault(conn.worker_id, []).append(
            (msg["type"], msg.get("generation")))
        return send(self, conn, msg)

    monkeypatch.setattr(distributed, "run_task", recording_run_task)
    monkeypatch.setattr(MasterServer, "_send", recording_send)
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
    # each TASK carries its generation: one message per worker and generation
    want = [("task", gen) for gen in range(5)] + [("bye", None)]
    assert received == {"w0": want, "w1": want}


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


def serve_until(w, flagged, on_reply):
    """Serve TASKs honestly on ScriptedWorker ``w`` until one that names a
    probe if ``flagged`` (none if not), then hand its RESULT to ``on_reply``
    instead of sending it."""
    while True:
        msg = w.read()
        if msg is None or msg["type"] == "bye":
            return
        reply = answer_honestly(msg)
        if (msg["probe"] is not None) == flagged:
            return on_reply(reply)
        w.send(reply)


def run_beside_a_scripted_worker(on_reply, kw, flagged=True, task_timeout=10.0):
    """A 2-worker run whose second worker, scripted, gives the RESULT of its
    first TASK that names a probe if ``flagged`` (none if not) to
    ``on_reply(worker, result)``.  Each generation queues one range per
    worker, the larger first, and only the last (smallest, at least one
    index) names the owed probe; the k-th idle worker takes the k-th TASK.
    So the scripted worker's first TASK (generation 0) names no probe and
    its second names the first one."""
    with MasterServer(task_timeout=task_timeout) as server:
        honest, _ = start_real_worker(server, worker_id="honest")
        server.wait_for_workers(1, timeout=10)
        w = ScriptedWorker(server.address, "scripted")
        scripted = threading.Thread(
            target=serve_until, args=(w, flagged, lambda r: on_reply(w, r)),
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

    # the drop re-queues the flagged TASK at once, not when it times out
    started = time.perf_counter()
    dist, server = run_beside_a_scripted_worker(lambda w, _: w.close(), kw,
                                                task_timeout=30.0)
    assert time.perf_counter() - started < 30.0
    assert ("scripted", "eof") in server.dropped
    a, b = tmp_path / "local.csv", tmp_path / "dist.csv"
    write_curve_csv(str(a), train("cartpole", CSA, **kw).records)
    write_curve_csv(str(b), dist.records)
    assert a.read_bytes() == b.read_bytes()


def send_mangled(edit):
    """An ``on_reply`` that sends ``edit(result)`` and waits for the BYE."""
    def on_reply(w, reply):
        # json.dumps, unlike encode_message, writes NaN and Infinity
        w.sock.sendall((json.dumps(edit(reply)) + "\n").encode())
        w.read_until("bye")
    return on_reply


def assert_dropped_and_matches_local(edit, flagged, max_generations):
    kw = dict(TRAIN_KW, max_generations=max_generations)
    dist, server = run_beside_a_scripted_worker(send_mangled(edit), kw, flagged)
    local = train("cartpole", CSA, **kw)
    assert ("scripted", "protocol") in server.dropped
    assert records_of(dist) == records_of(local)
    assert dist.cumulative_timesteps == local.cumulative_timesteps


def edit_probe(edit):
    return lambda r: dict(r, probe=edit(r["probe"]))


@pytest.mark.parametrize("edit", [
    lambda r: dict(r, run_id="another-run"),
    lambda r: dict(r, generation=r["generation"] + 1),
    edit_probe(lambda p: dict(enumerate(p))),
    lambda r: {k: v for k, v in r.items() if k != "probe"},
    edit_probe(lambda p: p[:-1]),
    edit_probe(lambda p: p + [0.0]),
    edit_probe(lambda p: p[:-1] + [float("nan")]),
    edit_probe(lambda p: p[:-1] + [float("inf")]),
    edit_probe(lambda p: p[:-1] + ["9.0"]),
    edit_probe(lambda p: p[:-1] + [True]),
], ids=["foreign-run", "wrong-generation", "not-a-list", "missing", "short",
        "long", "nan", "infinite", "string", "bool"])
def test_malformed_probe_drops_the_worker_and_the_run_matches_local(edit):
    assert_dropped_and_matches_local(edit, flagged=True, max_generations=3)


def test_unasked_probe_drops_the_worker():
    _, msg = sample_gen_message()
    with MasterServer() as server:
        address = server.address

        def scripted():
            w = ScriptedWorker(address, "eager")
            reply = answer_honestly(w.read_until("task"))
            w.send(dict(reply, probe=[0.0] * 5))
            w.read_until("bye")
            w.close()

        thread = threading.Thread(target=scripted, daemon=True)
        thread.start()
        server.wait_for_workers(1, timeout=10)
        with pytest.raises(GenerationFailedError):
            server.evaluate_generation(msg)
        thread.join(timeout=10)
        assert server.dropped == [("eager", "protocol")]


def edit_first(key, edit):
    """Edit the first row of RESULT column ``key``."""
    return lambda r: dict(r, **{key: [edit(r[key][0])] + r[key][1:]})


def edit_columns(edit):
    return lambda r: dict(r, **{key: edit(r[key]) for key in COLUMNS})


@pytest.mark.parametrize("edit", [
    lambda r: {k: v for k, v in r.items() if k != "fitness"},
    lambda r: {k: v for k, v in r.items() if k != "index"},
    edit_first("count", str),
    edit_first("fitness", lambda f: float("nan")),
    edit_first("raw_return", lambda f: float("-inf")),
    edit_first("mean", lambda row: row[:-1]),
    edit_first("m2", lambda row: [float("nan")] * len(row)),
    edit_first("m2", lambda row: [-1.0] * len(row)),
    lambda r: dict(r, raw_return=r["raw_return"][:-1]),
    edit_first("fitness", lambda f: True),
    edit_first("raw_return", str),
    edit_first("count", lambda n: n + 0.5),
    edit_first("count", float),
    edit_first("count", lambda n: -1),
    edit_first("count", lambda n: True),
    # one training episode (the default) acts at least once, at most up to
    # the episode limit
    edit_first("count", lambda n: 0),
    edit_first("count", lambda n: env_spec("cartpole").max_episode_steps + 1),
    # past float range: an int JSON number, not an infinity
    edit_first("fitness", lambda f: 10 ** 400),
], ids=["missing-fitness", "missing-index", "string-count", "nan-fitness",
        "infinite-raw-return", "short-delta", "nan-delta", "negative-delta-m2",
        "short-column", "bool-fitness", "string-raw-return", "fractional-count",
        "float-count", "negative-count", "bool-count", "count-zero",
        "count-past-episode-limit", "huge-int-fitness"])
def test_malformed_result_drops_the_worker_and_the_run_matches_local(edit):
    assert_dropped_and_matches_local(edit, flagged=False, max_generations=4)


@pytest.mark.parametrize("edit", [
    lambda r: dict(r, type="probe"),
    lambda r: dict(r, index=r["index"] + 1),
    edit_columns(lambda col: col[:-1]),
    edit_columns(lambda col: col + col[-1:]),
    lambda r: dict(r, fitness=dict(enumerate(r["fitness"]))),
    edit_first("mean", lambda row: 0.0),
    lambda r: dict(r, generation=float(r["generation"])),
], ids=["not-a-result", "other-range-start", "short-columns", "long-columns",
        "column-not-a-list", "row-not-a-list", "float-generation"])
def test_reply_not_answering_its_task_drops_the_worker_and_the_run_matches_local(edit):
    assert_dropped_and_matches_local(edit, flagged=False, max_generations=3)


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


@pytest.mark.parametrize("workers", [0, 1.5, True, "2"])
def test_train_distributed_validates_worker_count(workers):
    # 1.5 would wait for 2 workers, and "2" fail to compare
    with MasterServer() as server, pytest.raises(ValueError):
        train_distributed("cartpole", CSA, expected_workers=workers, server=server,
                          wait_timeout=1.0, **TRAIN_KW)


@pytest.mark.parametrize("bad", [{"test_every": 0}, {"env_id": "walker"},
                                 {"variant": "bfgs"}, {"sigma0": -1.0},
                                 {"lam": 1}, {"master_seed": -1},
                                 {"wait_timeout": float("nan")},
                                 *(pytest.param({key: value}, id=f"{key}={value!r}")
                                   for key, value in [
                                       ("budget_timesteps", -1), ("budget_timesteps", 0),
                                       ("budget_timesteps", 300.5),
                                       ("budget_timesteps", "300"),
                                       ("max_generations", -1), ("max_generations", 1.5),
                                       ("test_every", 2.5), ("test_every", True),
                                       ("target_return", float("nan")),
                                       ("sigma0", True),
                                       ("fitness_spec", {"train_episodes": 1})])],
                         ids=lambda bad: next(iter(bad)))
def test_train_distributed_validates_arguments_before_waiting(bad):
    kw = {"env_id": "cartpole", "variant": CSA, "wait_timeout": 5.0, **TRAIN_KW, **bad}
    with MasterServer() as server, pytest.raises(ValueError):
        started = time.perf_counter()
        train_distributed(kw.pop("env_id"), kw.pop("variant"), expected_workers=1,
                          server=server, **kw)
    assert time.perf_counter() - started < 1.0


def test_wait_for_workers_refuses_a_nan_or_negative_timeout():
    # a NaN deadline is never passed, so the wait would never end
    with MasterServer() as server:
        for timeout in (float("nan"), -1.0):
            with pytest.raises(ValueError):
                server.wait_for_workers(1, timeout)


def test_worker_connect_failure_raises_os_error():
    probe = socket.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()[:2]
    probe.close()
    with pytest.raises(OSError):
        serve_worker(host, port, connect_timeout=0.5)
