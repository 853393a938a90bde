"""Sharded node replication — NrOS's write-scaling mechanism.

"To scale writes further, NrOS shards kernel state into multiple NR
instances and replicates them over independent logs, allowing for
scalability to many cores" (Section 4.1).  A :class:`ShardedNr` partitions
the key space over several :class:`~repro.nr.core.NodeReplicated`
instances, each with its own operation log, so writes to different shards
do not serialize against each other.

Shard-local operations stay linearizable per shard (each shard is plain
NR).  Cross-shard consistency is the usual sharding trade-off: a
`consistent_snapshot` quiesces every shard in shard order.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.nr.core import NodeReplicated


def _stable_hash(key) -> int:
    """A placement hash that is the same in every interpreter.

    The built-in ``hash()`` of ``str``/``bytes`` is salted per process
    (``PYTHONHASHSEED``), so placing by it makes two runs of one sharded
    workload disagree on every simulated output.  Integers place by
    their value; anything else by a BLAKE2b digest of its ``repr`` (as
    :func:`repro.cluster.ring.ring_hash` does for the cluster)."""
    if isinstance(key, int):
        return key
    return int.from_bytes(
        hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest(),
        "big")


class ShardedNr:
    """Key-partitioned NR instances over independent logs."""

    def __init__(
        self,
        ds_factory: Callable,
        num_shards: int,
        num_nodes: int = 1,
        shard_of: Callable | None = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        self.shards = [
            NodeReplicated(ds_factory, num_nodes=num_nodes)
            for _ in range(num_shards)
        ]
        self._shard_of = shard_of if shard_of is not None else (
            lambda key: _stable_hash(key) % num_shards
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, key) -> int:
        index = self._shard_of(key)
        if not 0 <= index < len(self.shards):
            raise ValueError(f"shard function returned {index}")
        return index

    def execute(self, key, op, node: int = 0, thread: int = 0):
        """Mutating op routed to `key`'s shard."""
        return self.shards[self.shard_for(key)].execute(
            op, node=node, thread=thread
        )

    def execute_ro(self, key, op, node: int = 0, thread: int = 0):
        return self.shards[self.shard_for(key)].execute_ro(
            op, node=node, thread=thread
        )

    def execute_steps(self, key, op, node: int = 0, thread: int = 0):
        """The step-protocol generator for the timed/interleaved drivers."""
        return self.shards[self.shard_for(key)].execute_steps(
            op, node, thread
        )

    def read_steps(self, key, op, node: int = 0, thread: int = 0):
        return self.shards[self.shard_for(key)].read_steps(op, node, thread)

    def sync_all(self) -> None:
        for shard in self.shards:
            shard.sync_all()

    def gc_logs(self) -> int:
        return sum(shard.gc_log() for shard in self.shards)

    def consistent_snapshot(self, reader: Callable) -> list:
        """Quiesce every shard and apply `reader(replica_ds)` to shard 0's
        replica of each; returns the per-shard results in shard order."""
        self.sync_all()
        return [reader(shard.replicas[0].ds) for shard in self.shards]

    def total_log_entries(self) -> int:
        return sum(shard.log.tail for shard in self.shards)
