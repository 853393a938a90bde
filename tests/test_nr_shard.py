"""Sharded NR tests: routing, per-shard linearizability, write scaling."""

import os
import subprocess
import sys

import pytest

from repro.immutable import EMPTY_MAP
from repro.nr.core import NodeReplicated
from repro.nr.datastructures import Counter, KvStore, kv_model_step
from repro.nr.interleave import ThreadScript, run_interleaved
from repro.nr.linearizability import check_linearizable
from repro.nr.shard import ShardedNr
from repro.nr.timed import (
    TimedNrConfig,
    run_timed_sharded,
    run_timed_workload,
    tlb_shootdown_cost,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Run in a fresh interpreter: default placement of string keys, then a
#: timed four-shard run keyed by strings.
PLACEMENT_PROBE = """
import sys
sys.path.insert(0, 'src')
from repro.nr.datastructures import KvStore
from repro.nr.shard import ShardedNr
from repro.nr.timed import TimedNrConfig, run_timed_sharded

sharded = ShardedNr(KvStore, num_shards=4)
print([sharded.shard_for(f'key{i}') for i in range(32)])

def workload(core, i):
    key = f'key{(core * 5 + i) % 8}'
    return (key, ('put', key, i), False)

result = run_timed_sharded(KvStore, workload,
                           TimedNrConfig(num_cores=16, ops_per_core=6),
                           num_shards=4)
print(result.sim_ns, result.latency.samples)
"""


class TestRouting:
    def test_same_key_same_shard(self):
        sharded = ShardedNr(KvStore, num_shards=4)
        assert sharded.shard_for("k") == sharded.shard_for("k")

    def test_default_placement_of_ints_is_modulo(self):
        # plain modulo, also for -1 (whose `hash()` is -2)
        sharded = ShardedNr(KvStore, num_shards=4)
        assert [sharded.shard_for(k) for k in range(-4, 9)] == [
            k % 4 for k in range(-4, 9)]

    def test_default_placement_spreads_other_keys(self):
        sharded = ShardedNr(KvStore, num_shards=4)
        for keys in ([f"key{i}" for i in range(64)],
                     [bytes([i]) for i in range(64)],
                     [("t", i) for i in range(64)]):
            assert {sharded.shard_for(k) for k in keys} == {0, 1, 2, 3}

    def test_default_placement_independent_of_hash_seed(self):
        """`hash()` of str/bytes is salted per interpreter; placement (and
        with it every simulated output of a sharded run) must not be."""
        outputs = {
            seed: subprocess.run(
                [sys.executable, "-c", PLACEMENT_PROBE],
                env={"PYTHONHASHSEED": seed},
                capture_output=True, text=True, cwd=ROOT, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert outputs["1"] == outputs["2"]
        assert outputs["1"].count("\n") == 2

    def test_custom_shard_function(self):
        sharded = ShardedNr(KvStore, num_shards=2,
                            shard_of=lambda key: key % 2)
        sharded.execute(0, ("put", 0, "even"))
        sharded.execute(1, ("put", 1, "odd"))
        assert sharded.shards[0].replicas[0].ds.data == {0: "even"}
        assert sharded.shards[1].replicas[0].ds.data == {1: "odd"}

    def test_bad_shard_function(self):
        sharded = ShardedNr(KvStore, num_shards=2, shard_of=lambda k: 9)
        with pytest.raises(ValueError):
            sharded.execute("k", ("put", "k", 1))

    def test_num_shards_validated(self):
        with pytest.raises(ValueError):
            ShardedNr(KvStore, num_shards=0)


class TestSemantics:
    def test_put_get_through_shards(self):
        sharded = ShardedNr(KvStore, num_shards=3, num_nodes=2)
        for i in range(12):
            sharded.execute(f"key{i}", ("put", f"key{i}", i))
        for i in range(12):
            assert sharded.execute_ro(f"key{i}", ("get", f"key{i}"),
                                      node=1) == i

    def test_consistent_snapshot(self):
        sharded = ShardedNr(KvStore, num_shards=2,
                            shard_of=lambda k: len(k) % 2)
        sharded.execute("a", ("put", "a", 1))
        sharded.execute("bb", ("put", "bb", 2))
        parts = sharded.consistent_snapshot(lambda ds: dict(ds.data))
        merged = {}
        for part in parts:
            merged.update(part)
        assert merged == {"a": 1, "bb": 2}

    def test_gc_logs(self):
        sharded = ShardedNr(Counter, num_shards=2, num_nodes=2,
                            shard_of=lambda k: k % 2)
        for i in range(8):
            sharded.execute(i, ("add", 1))
        assert sharded.total_log_entries() == 8
        sharded.sync_all()
        assert sharded.gc_logs() == 8

    def test_per_shard_linearizability(self):
        """Interleave threads over one shard through the step protocol:
        each shard is plain NR, so the history must be linearizable."""
        sharded = ShardedNr(KvStore, num_shards=2, num_nodes=2,
                            shard_of=lambda k: 0 if k < "m" else 1)

        # drive shard 0 via its underlying NodeReplicated directly
        shard0: NodeReplicated = sharded.shards[0]
        scripts = [
            ThreadScript(0, 0, [(("put", "a", 1), False),
                                (("get", "a"), True)]),
            ThreadScript(1, 1, [(("put", "a", 2), False),
                                (("del", "a"), False)]),
        ]
        for seed in range(6):
            fresh = ShardedNr(KvStore, num_shards=2, num_nodes=2,
                              shard_of=lambda k: 0)
            history = run_interleaved(fresh.shards[0], scripts, seed=seed)
            result = check_linearizable(history, EMPTY_MAP, kv_model_step)
            assert result.ok, result.detail
        del shard0


class TestWriteScaling:
    def test_shards_scale_writes(self):
        """The Section 4.1 claim: sharding over independent logs raises
        write throughput, because writes to different shards no longer
        serialize on one log."""

        def sharded_workload(core, i):
            key = core % 8  # eight independent key groups
            return (key, ("put", key, i), False)

        def single_workload(core, i):
            return (("put", core % 8, i), False)

        cores = 16
        cfg = TimedNrConfig(num_cores=cores, ops_per_core=12)
        single = run_timed_workload(
            KvStore, single_workload, cfg
        )
        sharded = run_timed_sharded(
            KvStore, sharded_workload, cfg, num_shards=8
        )
        assert sharded.throughput_ops_per_ms > single.throughput_ops_per_ms
        assert sharded.log_appends > 0

    def test_single_shard_equals_plain_nr(self):
        def workload_sharded(core, i):
            return (0, ("add", 1), False)

        def workload_plain(core, i):
            return (("add", 1), False)

        cfg = TimedNrConfig(num_cores=4, ops_per_core=8)
        plain = run_timed_workload(Counter, workload_plain, cfg)
        one_shard = run_timed_sharded(Counter, workload_sharded, cfg,
                                      num_shards=1)
        # identical protocol, identical costs: same simulated time
        assert one_shard.sim_ns == plain.sim_ns

        # ... and the same config: a sharded op pays its post-op cost too
        charged = TimedNrConfig(num_cores=4, ops_per_core=8,
                                post_op_cost_fn=tlb_shootdown_cost)
        plain_charged = run_timed_workload(Counter, workload_plain, charged)
        one_shard = run_timed_sharded(Counter, workload_sharded, charged,
                                      num_shards=1)
        assert plain_charged.sim_ns > plain.sim_ns
        assert one_shard.sim_ns == plain_charged.sim_ns
        assert one_shard.latency.samples == plain_charged.latency.samples
        assert one_shard.events == plain_charged.events
