"""Consistent-hash ring with virtual nodes and deterministic placement.

:mod:`repro.nr.shard` partitions a key space over NR instances *inside*
one machine; this ring extends the same idea to machines.  Each node
owns `vnodes` tokens on a 64-bit ring, placed by hashing
``"<node>#<vnode>"`` with BLAKE2b — a keyed, process-independent hash,
so placement never depends on ``PYTHONHASHSEED`` and two processes (a
server and a client library) always agree on who owns a key.

Replica groups are the first `n` *distinct* nodes clockwise from the
key's point.  Because removing a node deletes only its own tokens, the
clockwise order of the survivors is preserved: the first surviving
replica of a dead primary becomes the new primary, which is exactly the
node guaranteed to hold every acknowledged write (see
:mod:`repro.cluster.node`).
"""

from __future__ import annotations

import bisect
import hashlib


def ring_hash(data: bytes | str) -> int:
    """64-bit position on the ring (BLAKE2b, deterministic everywhere)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big")


class HashRing:
    """Virtual-node consistent hashing over a set of node ids."""

    def __init__(self, nodes=(), vnodes: int = 64) -> None:
        if vnodes <= 0:
            raise ValueError("need at least one virtual node per node")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._tokens: list[tuple[int, str]] = []  # sorted (point, node)
        # token index -> every node, in clockwise order of first token
        # from there.  A function of the membership alone, so it is
        # filled on demand, holds at most one entry per token however
        # many keys are looked up, and is dropped when membership moves.
        self._clockwise: dict[int, list[str]] = {}
        for node in nodes:
            self.add_node(node)

    # -- membership ---------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        self._clockwise.clear()
        for i in range(self.vnodes):
            token = (ring_hash(f"{node}#{i}"), node)
            bisect.insort(self._tokens, token)

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not on the ring")
        self._nodes.remove(node)
        self._clockwise.clear()
        self._tokens = [t for t in self._tokens if t[1] != node]

    # -- placement ----------------------------------------------------------

    def owners(self, key: str, n: int = 1) -> list[str]:
        """The first `n` distinct nodes clockwise from `key`'s point
        (primary first).  `n` is clamped to the ring population."""
        if not self._tokens:
            raise ValueError("ring is empty")
        start = bisect.bisect_right(
            self._tokens, (ring_hash(key), "\uffff")) % len(self._tokens)
        order = self._clockwise.get(start)
        if order is None:
            order = self._clockwise[start] = self._distinct_from(start)
        return order[:n] if n > 0 else []

    def _distinct_from(self, start: int) -> list[str]:
        """Every node, in the order a clockwise walk from token `start`
        first meets it."""
        order: list[str] = []
        for offset in range(len(self._tokens)):
            node = self._tokens[(start + offset) % len(self._tokens)][1]
            if node not in order:
                order.append(node)
                if len(order) == len(self._nodes):
                    break
        return order

    def primary_for(self, key: str) -> str:
        return self.owners(key, 1)[0]

    # -- diagnostics --------------------------------------------------------

    def assignment_counts(self, keys) -> dict[str, int]:
        """How many of `keys` each node is primary for (balance checks)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.primary_for(key)] += 1
        return counts
