"""
Distributed training in one process
====================================

``train`` and ``train_distributed`` run the same loop, which hands out
each generation as one ``Batch``: the genome rows ``ask`` drew on the
master, the mean, the normalizer snapshot, the fitness spec and the owed
test probe.  ``train`` scores it in-process; the master cuts it into one
task per worker, a range of its rows, and the worker scores the batch of
its range.  JSON writes every float as its shortest round-trip decimal, so
a row arrives with the master's exact bits and a distributed run
reproduces the single-process run bit for bit.  Here two workers run as threads;
across machines the protocol is identical.
"""

import threading

from evolin import MasterServer, serve_worker, train, train_distributed

KW = dict(sigma0=0.1, lam=4, budget_timesteps=10_000, master_seed=5,
          target_return=500.0)

# single-process baseline
local = train("cartpole", "csa", **KW)
print(f"local run:       {local.status} after "
      f"{local.cumulative_timesteps} timesteps, "
      f"{len(local.records)} generations")

# the master binds an ephemeral port; two workers connect and block in
# their own evaluate loop until the master says goodbye
server = MasterServer()
host, port = server.address
workers = [threading.Thread(target=serve_worker, args=(host, port),
                            kwargs={"worker_id": f"w{i}"}, daemon=True)
           for i in range(2)]
for w in workers:
    w.start()

dist = train_distributed("cartpole", "csa", **KW, expected_workers=2,
                         server=server)
server.close()
for w in workers:
    w.join(timeout=5)
print(f"distributed run: {dist.status} after "
      f"{dist.cumulative_timesteps} timesteps, "
      f"{len(dist.records)} generations")

# every recorded number matches, not just approximately
pairs = zip(local.records, dist.records)
identical = (len(local.records) == len(dist.records) and
             all(a == b for a, b in pairs))
print(f"curves identical: {identical}")
assert identical
