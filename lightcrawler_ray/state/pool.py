"""One warm state actor per partition.

A crawl keeps four kinds of keyed state: the URL-seen table, the
content-seen table, the politeness ledger and the sim-band index.  Each kind
is split into partitions by its own key rule (``seenset.shard_of``,
``politeness.host_shard``, the simhash band), and partition i of every kind
lives on actor ``i % n`` of one pool of n ``StateShard`` actors — the
reference likewise keeps all of a crawl's keyed state in one store per crawl
(the URL cache with its UNIQUE ``distinct_hash``, the processed flags and the
dedup keys, sql/db.sql:1-23).  One process per partition instead of one per
partition per kind: a crawl on 4 partitions starts 4 state processes, not 16.

Ordering: a ``StateShard`` is single-threaded with one FIFO mailbox (no
``max_concurrency``, no concurrency groups), so the driver's calls run in
submission order across every kind the actor hosts.  Each kind's snapshot
is therefore still queued after that kind's own updates — the epoch-exact
snapshot invariant holds unchanged.  The price: a kind's call also queues
behind the other kinds' earlier calls on the same actor (the next round's
URL-seen gate waits for the previous round's content-dedup chain).
"""

from __future__ import annotations

import pyarrow as pa
import ray


@ray.remote(num_cpus=0)
class StateShard:
    """One partition of every state kind, each held under its slot name.

    ``num_cpus=0``: state actors are memory holders whose per-call work is
    microseconds per thousand keys — reserving whole CPUs for them starves
    the map stages (a 4-CPU test cluster deadlocks).  On a real cluster,
    placement follows object-store memory, not CPU."""

    def __init__(self):
        # pyarrow imports pandas lazily on its first array build; pay that
        # at set-up, not inside round 0's first ledger write
        pa.array([0])
        self.parts: dict[str, object] = {}

    def host(self, slot: str, cls: type, *args) -> None:
        self.parts[slot] = cls(*args)

    def call(self, slot: str, method: str, *args):
        return getattr(self.parts[slot], method)(*args)


class StatePool:
    """n ``StateShard`` actors; ``place`` puts a kind's partitions on them."""

    def __init__(self, n: int):
        self.actors = [StateShard.remote() for _ in range(n)]
        self._hosting: list = []

    def place(self, slot: str, cls: type, args: list[tuple]) -> list:
        """Build partition i as ``cls(*args[i])`` on actor ``i % n``; returns
        the actor handle per partition."""
        shards = [self.actors[i % len(self.actors)] for i in range(len(args))]
        self._hosting += [a.host.remote(slot, cls, *x) for a, x in zip(shards, args)]
        return shards

    def ready(self) -> list:
        """Refs that resolve once every actor is up and every placed
        partition is built (a failed constructor raises on ``ray.get``)."""
        refs, self._hosting = self._hosting, []
        return refs + [a.__ray_ready__.remote() for a in self.actors]

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []


class Partitioned:
    """Driver facade base: partition s of kind ``slot`` lives on
    ``shards[s]``.  Built without a pool (tests, trace replay), a facade
    starts its own actors and ``shutdown`` kills them; a shared pool is shut
    down by its owner."""

    def __init__(self, slot: str, cls: type, args: list[tuple], pool: StatePool | None):
        self.slot = slot
        self._owns_pool = pool is None
        self.pool = StatePool(len(args)) if pool is None else pool
        self.shards = self.pool.place(slot, cls, args)

    def _call(self, s: int, method: str, *args, num_returns: int = 1):
        return self.shards[s].call.options(num_returns=num_returns).remote(
            self.slot, method, *args
        )

    def _each(self, method: str, *args) -> list:
        return [self._call(s, method, *args) for s in range(len(self.shards))]

    def shutdown(self) -> None:
        if self._owns_pool:
            self.pool.shutdown()
        self.shards = []
