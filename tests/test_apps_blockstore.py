"""Storage-node tests, including the model-based 'lightweight formal
methods' check the paper's motivating example calls for."""

import random

import pytest

from repro.apps.blockstore import (
    BlockClient,
    BlockStoreError,
    BlockStoreModel,
    storage_node,
)
from repro.nros.cluster import Cluster
from repro.nros.kernel import Kernel
from repro.nros.net.ip import ip_addr

SERVER_IP = ip_addr("10.1.0.1")
CLIENT_IP = ip_addr("10.1.0.2")
PORT = 9400


def run_blockstore(client_script, drop_rate=0.0, seed=0, num_connections=1):
    """Run `client_script(client)` (a generator factory) against a server."""
    cluster = Cluster()
    server = cluster.add(Kernel(ip=SERVER_IP, hostname="store",
                                disk_sectors=2048))
    clientk = cluster.add(Kernel(ip=CLIENT_IP, hostname="client"))
    cluster.connect(server, clientk, drop_rate=drop_rate, seed=seed)
    server.register_program("storage_node", storage_node)
    clientk.register_program("client", client_script)
    server.spawn("storage_node", (PORT, num_connections))
    clientk.spawn("client")
    cluster.run()
    return server, clientk


class TestBlockStore:
    def test_put_get_roundtrip(self):
        results = {}

        def client():
            c = BlockClient(SERVER_IP, PORT)
            yield from c.connect()
            yield from c.put("blob1", b"block store payload")
            results["data"] = yield from c.get("blob1")
            results["missing"] = yield from c.get("nope")
            yield from c.close()

        run_blockstore(client)
        assert results["data"] == b"block store payload"
        assert results["missing"] is None

    def test_delete_and_list(self):
        results = {}

        def client():
            c = BlockClient(SERVER_IP, PORT)
            yield from c.connect()
            yield from c.put("a", b"1")
            yield from c.put("b", b"2")
            results["listing"] = yield from c.list_keys()
            results["deleted"] = yield from c.delete("a")
            results["deleted_again"] = yield from c.delete("a")
            results["after"] = yield from c.list_keys()
            yield from c.close()

        run_blockstore(client)
        assert sorted(results["listing"]) == ["a", "b"]
        assert results["deleted"] is True
        assert results["deleted_again"] is False
        assert results["after"] == ("b",)

    def test_overwrite(self):
        results = {}

        def client():
            c = BlockClient(SERVER_IP, PORT)
            yield from c.connect()
            yield from c.put("k", b"old")
            yield from c.put("k", b"new contents")
            results["data"] = yield from c.get("k")
            yield from c.close()

        run_blockstore(client)
        assert results["data"] == b"new contents"

    def test_large_block_over_lossy_link(self):
        payload = bytes(range(256)) * 64  # 16 KiB
        results = {}

        def client():
            c = BlockClient(SERVER_IP, PORT)
            yield from c.connect()
            yield from c.put("big", payload)
            results["data"] = yield from c.get("big")
            yield from c.close()

        run_blockstore(client, drop_rate=0.15, seed=11)
        assert results["data"] == payload

    def test_corrupted_block_detected(self):
        """Flip bits in the stored file behind the server's back: the node
        must refuse to serve the corrupted block."""
        results = {}
        cluster = Cluster()
        server = cluster.add(Kernel(ip=SERVER_IP, disk_sectors=2048))
        clientk = cluster.add(Kernel(ip=CLIENT_IP))
        cluster.connect(server, clientk)
        server.register_program("storage_node", storage_node)

        def client_put():
            c = BlockClient(SERVER_IP, PORT)
            yield from c.connect()
            yield from c.put("fragile", b"precious data")
            yield from c.close()

        clientk.register_program("client_put", client_put)
        server.spawn("storage_node", (PORT, 1))
        clientk.spawn("client_put")
        cluster.run()

        # corrupt the on-disk block (bit flip in the payload area)
        inum = server.fs.lookup("/blocks/fragile")
        stored = server.fs.read_at(inum, 0, 10_000)
        corrupted = bytearray(stored)
        corrupted[-3] ^= 0x40
        server.fs.write_at(inum, 0, bytes(corrupted))

        def client_get():
            c = BlockClient(SERVER_IP, PORT + 1)
            yield from c.connect()
            try:
                yield from c.get("fragile")
                results["outcome"] = "served"
            except BlockStoreError as exc:
                results["outcome"] = str(exc)
            yield from c.close()

        clientk.register_program("client_get", client_get)
        server.spawn("storage_node", (PORT + 1, 1))  # fresh listener
        clientk.spawn("client_get")
        cluster.run()
        assert "corrupt" in results["outcome"]

    def test_corrupted_framing_is_a_corrupt_block(self):
        """An empty block whose last stored byte is flipped no longer
        decodes (the flip lands in the length word): `get` answers
        corrupt_block and the same node goes on to serve another key."""
        results = {}

        def client():
            c = BlockClient(SERVER_IP, PORT)
            yield from c.connect()
            yield from c.put("empty", b"")
            yield from c.put("other", b"still here")
            inum = server.fs.lookup("/blocks/empty")
            stored = bytearray(server.fs.read_at(inum, 0, 10_000))
            stored[-1] ^= 0x01
            server.fs.write_at(inum, 0, bytes(stored))
            results["reply"] = yield from c._call(("get", "empty"))
            results["other"] = yield from c.get("other")
            yield from c.close()

        cluster = Cluster()
        server = cluster.add(Kernel(ip=SERVER_IP, disk_sectors=2048))
        clientk = cluster.add(Kernel(ip=CLIENT_IP))
        cluster.connect(server, clientk)
        server.register_program("storage_node", storage_node)
        clientk.register_program("client", client)
        server.spawn("storage_node", (PORT, 1))
        clientk.spawn("client")
        cluster.run()
        assert results == {"reply": ("err", "corrupt_block"),
                           "other": b"still here"}

    def test_model_based_random_ops(self):
        """The S3-style lightweight-formal-methods check: random operation
        sequences agree with the functional model."""
        rng = random.Random(1337)
        model = BlockStoreModel()
        ops = []
        keys = ["k0", "k1", "k2", "k3"]
        for _ in range(30):
            verb = rng.choice(["put", "get", "delete", "list"])
            key = rng.choice(keys)
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            ops.append((verb, key, data))

        observations = []

        def client():
            c = BlockClient(SERVER_IP, PORT)
            yield from c.connect()
            for verb, key, data in ops:
                if verb == "put":
                    yield from c.put(key, data)
                    observations.append(("put", None))
                elif verb == "get":
                    got = yield from c.get(key)
                    observations.append(("get", got))
                elif verb == "delete":
                    existed = yield from c.delete(key)
                    observations.append(("delete", existed))
                else:
                    listing = yield from c.list_keys()
                    observations.append(("list", tuple(sorted(listing))))
            yield from c.close()

        run_blockstore(client)

        # replay against the model
        index = 0
        for verb, key, data in ops:
            kind, observed = observations[index]
            index += 1
            if verb == "put":
                model.put(key, data)
            elif verb == "get":
                assert observed == model.get(key), (verb, key)
            elif verb == "delete":
                assert observed == model.delete(key), (verb, key)
            else:
                assert observed == model.list_keys()


class TestReplicatedKv:
    def test_basic_ops(self):
        from repro.apps.kvstore import ReplicatedKv

        kv = ReplicatedKv(num_nodes=2)
        assert kv.put("k", 1) is None
        assert kv.get("k", node=1) == 1  # visible on the other replica
        assert kv.delete("k") == 1
        assert kv.get("k") is None
        assert kv.stats.puts == 1

    def test_snapshot_consistent(self):
        from repro.apps.kvstore import ReplicatedKv

        kv = ReplicatedKv(num_nodes=3)
        for i in range(10):
            kv.put(f"key{i}", i, node=i % 3)
        snap = kv.snapshot()
        assert snap == {f"key{i}": i for i in range(10)}

    def test_concurrent_workload_linearizable(self):
        from repro.apps.kvstore import run_concurrent_workload

        for seed in (0, 1, 2):
            _, history, result = run_concurrent_workload(seed=seed)
            assert len(history) == 24
            assert result.ok, result.detail
