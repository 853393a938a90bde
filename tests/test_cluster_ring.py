"""The consistent-hash ring: determinism, balance, minimal movement."""

import bisect
import os
import random
import subprocess
import sys

import pytest

from repro.cluster.ring import HashRing, ring_hash

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NODES = [f"node{i}" for i in range(5)]
KEYS = [f"k{i}" for i in range(2000)]


def test_ring_hash_is_process_independent():
    # placement must not depend on PYTHONHASHSEED: a server and a client
    # library in different processes have to agree on who owns a key
    probe = ("import sys; sys.path.insert(0, 'src'); "
             "from repro.cluster.ring import ring_hash; "
             "print(ring_hash('k42'))")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", probe],
            env={"PYTHONHASHSEED": seed},
            capture_output=True, text=True, cwd=ROOT,
        ).stdout.strip()
        for seed in ("0", "1", "12345")
    }
    assert outputs == {str(ring_hash("k42"))}


def test_placement_is_deterministic_across_instances():
    a = HashRing(NODES, vnodes=64)
    b = HashRing(reversed(NODES), vnodes=64)  # insertion order irrelevant
    for key in KEYS[:200]:
        assert a.owners(key, 3) == b.owners(key, 3)


def test_owners_are_distinct_and_clamped():
    ring = HashRing(NODES, vnodes=32)
    owners = ring.owners("some-key", 3)
    assert len(owners) == len(set(owners)) == 3
    assert ring.owners("some-key", 99) == ring.owners("some-key", 5)
    assert ring.primary_for("some-key") == owners[0]


def test_balance_within_bounded_spread_at_1k_vnodes():
    ring = HashRing(NODES, vnodes=1000)
    counts = ring.assignment_counts(KEYS)
    ideal = len(KEYS) / len(NODES)
    for node, count in counts.items():
        # with 1k vnodes the per-node share stays within 25% of ideal
        assert abs(count - ideal) <= 0.25 * ideal, (node, count)


def test_minimal_movement_on_join():
    before = HashRing(NODES, vnodes=256)
    after = HashRing(NODES + ["node5"], vnodes=256)
    moved = sum(1 for key in KEYS
                if before.primary_for(key) != after.primary_for(key))
    # only keys landing on the joiner's tokens move: ~1/(n+1) of them
    expected = len(KEYS) / (len(NODES) + 1)
    assert moved <= 2 * expected
    # every moved key moved *to* the joiner, never between old nodes
    for key in KEYS:
        if before.primary_for(key) != after.primary_for(key):
            assert after.primary_for(key) == "node5"


def test_minimal_movement_on_leave_promotes_first_replica():
    ring = HashRing(NODES, vnodes=256)
    survivor_view = HashRing([n for n in NODES if n != "node2"],
                             vnodes=256)
    for key in KEYS:
        owners = ring.owners(key, 2)
        if owners[0] != "node2":
            # keys not owned by the leaver do not move
            assert survivor_view.primary_for(key) == owners[0]
        else:
            # the old first replica is exactly the new primary — the
            # property that makes failover lose no acknowledged write
            assert survivor_view.primary_for(key) == owners[1]


def test_remove_then_add_restores_placement():
    ring = HashRing(NODES, vnodes=128)
    want = {key: ring.primary_for(key) for key in KEYS[:300]}
    ring.remove_node("node3")
    ring.add_node("node3")
    assert {key: ring.primary_for(key) for key in KEYS[:300]} == want


def test_membership_errors():
    ring = HashRing(["a"], vnodes=8)
    with pytest.raises(ValueError):
        ring.add_node("a")
    with pytest.raises(ValueError):
        ring.remove_node("zz")
    with pytest.raises(ValueError):
        HashRing(vnodes=0)
    empty = HashRing()
    with pytest.raises(ValueError):
        empty.owners("k")


# -- the per-token owner table ----------------------------------------------


def reference_owners(nodes, vnodes, key, n):
    """The clockwise walk `owners` used to do per call, on tokens built
    from scratch — what the per-token table must keep answering."""
    tokens = sorted((ring_hash(f"{node}#{i}"), node)
                    for node in nodes for i in range(vnodes))
    n = min(n, len(set(nodes)))
    start = bisect.bisect_right(tokens, (ring_hash(key), "￿"))
    owners = []
    for offset in range(len(tokens)):
        node = tokens[(start + offset) % len(tokens)][1]
        if node not in owners:
            owners.append(node)
            if len(owners) == n:
                break
    return owners


@pytest.mark.parametrize("seed", range(6))
def test_owners_after_any_membership_sequence_match_a_fresh_ring(seed):
    rng = random.Random(seed)
    vnodes = rng.choice((1, 3, 16, 64))
    ring = HashRing([f"n{i}" for i in range(rng.randrange(1, 5))],
                    vnodes=vnodes)
    spare = [f"n{i}" for i in range(len(ring), 9)]
    for _ in range(12):
        # query between changes, so a stale table would be caught
        members = ring.nodes
        fresh = HashRing(rng.sample(members, len(members)), vnodes=vnodes)
        for key in KEYS[:200]:
            for n in (1, 2, 3, 99):
                got = ring.owners(key, n)
                assert got == fresh.owners(key, n)
                assert got == reference_owners(members, vnodes, key, n)
        if spare and (len(ring) == 1 or rng.random() < 0.5):
            ring.add_node(spare.pop(rng.randrange(len(spare))))
        else:
            gone = rng.choice(members)
            ring.remove_node(gone)
            spare.append(gone)


def test_returned_owner_lists_are_the_callers_to_mutate():
    ring = HashRing(NODES, vnodes=16)
    first = ring.owners("some-key", 3)
    want = list(first)
    first.clear()
    first.append("intruder")
    assert ring.owners("some-key", 3) == want
    assert ring.owners("some-key", 99)[:3] == want
    assert ring.owners("some-key", 0) == []


def test_owner_table_is_bounded_by_the_ring_not_by_the_keys():
    ring = HashRing(NODES, vnodes=8)
    for i in range(10_000):
        ring.owners(f"client-{i}/key-{i * 7919}", 1 + i % 3)
    assert 0 < len(ring._clockwise) <= len(NODES) * 8
    assert all(len(order) == len(NODES) for order in ring._clockwise.values())
    ring.remove_node("node0")
    assert not ring._clockwise   # dropped with the membership it described
    ring.owners("k", 2)
    ring.add_node("node0")
    assert not ring._clockwise
