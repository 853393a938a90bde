"""Crash-restart: a killed node rejoins from its WAL without breaking
the service contract — plus the degraded/recovering refusal paths and
the seeded jitter that keeps all of it deterministic."""

import pytest

from repro.cluster import messages as msg
from repro.cluster.client import AUDIT_CLIENT
from repro.cluster.deploy import Deployment
from repro.cluster.harness import recovery_bench, run_cluster
from repro.cluster.core import HB_EVERY, HB_TIMEOUT
from repro.cluster.node import SERVICE_PORT, ClusterNode
from repro.cluster.workload import WorkloadProfile, run_workload
from repro.faults.cluster import run_wal_crash_matrix
from repro.faults.plan import FaultPlan, FaultRule
from repro.nros.fs.alloc import NoSpace
from repro.nros.fs.blockdev import BLOCK_SIZE
from repro.nros.fs.fsck import fsck
from repro.obs.registry import Registry


def _profile(ops=400, seed=1):
    return WorkloadProfile(ops=ops, seed=seed)


def _responses(node):
    """The messages the node's core has queued to send."""
    return [message for _, message, _ in node.core.out]


# -- kill + restart end to end ---------------------------------------------


def test_kill_and_restart_preserves_every_acked_write():
    deployment, report = run_cluster(
        num_nodes=3, rf=2, profile=_profile(),
        kill_at_op=100, kill_node="node1", restart_at_op=200)
    assert report.ok, report.summary_lines()
    assert report.kills == 1 and report.restarts == 1
    assert report.lost_acked_writes == []
    assert report.ryw_violations == []
    # the restarted node came back through fsck + WAL replay and serves
    [rec] = report.recovery
    assert rec["node"] == "node1"
    assert rec["fsck_issues"] == 0
    assert rec["replayed_records"] > 0
    assert rec["serving"] and rec["recovery_ticks"] is not None
    assert deployment.nodes["node1"].core.state == "serving"
    assert sorted(deployment.serving_nodes) == ["node0", "node1", "node2"]


def test_crash_restart_is_deterministic_under_its_seed():
    def one_run():
        _, report = run_cluster(
            num_nodes=3, rf=2, profile=_profile(),
            kill_at_op=100, kill_node="node1", restart_at_op=200)
        return report

    first, second = one_run(), one_run()
    assert first.summary_lines() == second.summary_lines()
    assert first.recovery == second.recovery
    assert first.latency == second.latency


def test_catch_up_of_large_values_fits_each_sync_in_one_datagram():
    """60 puts of 8 000-character values while node1 is down: sixteen of
    them make a sync batch past UDP's limit.  Each batch now stops
    short of it, so the rejoiner receives every key it owns."""
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    gateway = deployment.gateway
    deployment.kill("node1")
    keys = [f"k{i}" for i in range(60)]
    for i, key in enumerate(keys):
        gateway.issue("put", key, f"{i}".ljust(8_000, "."), i,
                      deployment.now)
        deployment.step()
    deployment.run_ticks(2_000)
    deployment.restart("node1")
    deployment.run_ticks(4_000)

    node1 = deployment.nodes["node1"]
    assert node1.core.state == "serving"
    owned = [key for key in keys
             if "node1" in node1.core.ring.owners(key, 2)]
    assert len(owned) == 43
    assert set(owned) <= set(node1.core.local_data())
    assert sum(counter.value for counter in deployment.registry.counters()
               if counter.name == "cluster.oversize_drops") == 0
    for key in keys:
        gateway.issue("get", key, None, AUDIT_CLIENT, deployment.now)
    deployment.run_ticks(600)
    assert gateway.acked.value == 2 * len(keys)
    assert gateway.audit_losses() == []


def test_recovery_bench_measures_replay_and_rf_restore():
    payload = recovery_bench(seed=1, ops=400)
    assert payload["lost_acked_writes"] == 0
    assert payload["ryw_violations"] == 0
    assert payload["undrained"] == 0
    assert payload["fsck_issues"] == 0
    assert payload["serving"]
    assert payload["replayed_records"] > 0
    assert payload["recovery_ticks"] >= 0
    # every acked write is back on all rf owners at some finite tick
    assert payload["rf_restore_ticks"] >= payload["recovery_ticks"] >= 0


# -- seeded jitter ----------------------------------------------------------


def test_heartbeat_jitter_is_seeded_not_wallclock():
    def schedules(seed):
        deployment = Deployment(3, rf=2, registry=Registry(), seed=seed)
        deployment.run_ticks(150)
        return [deployment.nodes[n].core._hb_due
                for n in sorted(deployment.nodes)]

    assert schedules(1) == schedules(1)          # same seed: same timers
    assert schedules(1) != schedules(2)          # seed moves the jitter


# -- recovering / degraded refusal paths -----------------------------------


def test_recovering_node_refuses_reads_and_writes_mid_sync():
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    deployment.run_ticks(100)
    deployment.kill("node1")
    node = deployment.restart("node1")
    assert node.core.state == "recovering"
    node.core.on_message({"kind": "get", "req": 1, "key": "k", "client": 7},
                         ("client", 1), deployment.now)
    node.core.on_message({"kind": "put", "req": 2, "key": "k", "value": "v",
                          "client": 7}, ("client", 1), deployment.now)
    captured = _responses(node)
    assert [r["err"] for r in captured] == [msg.ERR_RECOVERING] * 2
    assert all(r["ok"] is False for r in captured)
    # ring queries are dropped outright: a recovering node must not
    # hand the gateway its stale (single-member) view
    node.core.on_message({"kind": "ring", "req": 3}, ("gateway", 0),
                         deployment.now)
    assert len(_responses(node)) == 2


def test_write_to_underreplicated_group_is_typed_degraded():
    deployment = Deployment(3, rf=3, registry=Registry(), seed=1)
    deployment.run_ticks(100)
    deployment.kill("node1")
    deployment.kill("node2")
    deployment.run_ticks(HB_TIMEOUT + 2 * HB_EVERY)   # node0 notices
    node = deployment.nodes["node0"]
    assert node.core.ring.nodes == ["node0"]
    node.core.on_message({"kind": "put", "req": 1, "key": "k", "value": "v",
                          "client": 7}, ("client", 1), deployment.now)
    [resp] = _responses(node)
    assert resp["ok"] is False and resp["err"] == msg.ERR_DEGRADED
    assert msg.ERR_DEGRADED in msg.RETRYABLE_ERRS


def test_exhausted_retries_surface_as_typed_giveups(monkeypatch):
    # 2 nodes at rf=2: killing one leaves every write under-replicated,
    # so retries burn through the (shrunken) attempt budget
    monkeypatch.setattr("repro.cluster.client.MAX_ATTEMPTS", 3)
    _, report = run_cluster(num_nodes=2, rf=2, profile=_profile(ops=200),
                            kill_at_op=50, kill_node="node1")
    assert report.gaveup > 0
    assert report.failed >= report.gaveup
    for record in report.gaveup_ops:
        assert record["attempts"] > 3
        assert record["reason"] in (msg.ERR_DEGRADED, msg.ERR_RECOVERING,
                                    "timeout")
        assert record["op"] in ("put", "get", "del")
    # but nothing acked was lost: give-up is a client-visible typed
    # failure, never a silent drop of an acknowledged write
    assert report.lost_acked_writes == []


# -- the WAL-boundary crash matrix (cluster level) -------------------------


def test_wal_crash_matrix_smoke_every_boundary_recovers():
    matrix = run_wal_crash_matrix(seed=1, ops=16, compact_every=4)
    assert matrix.crash_points > 0
    assert matrix.ok, matrix.violations


# -- group commit: one WAL write per pass, nothing sent ahead of it ---------


def test_one_wal_write_per_inbox_pass_that_applied_a_record():
    registry = Registry()
    deployment = Deployment(3, rf=2, registry=registry, seed=1)
    writes = dict.fromkeys(deployment.nodes, 0)
    passes = dict.fromkeys(deployment.nodes, 0)
    for node_id, node in deployment.nodes.items():
        landed: list[bool] = []

        def counting_write(fd, data, node=node, node_id=node_id,
                           write=node.fdtable.write):
            writes[node_id] += fd == node.wal._wal_fd
            return write(fd, data)

        def noting_apply(*record, apply=node.core._apply, landed=landed):
            landed.append(apply(*record))
            return landed[-1]

        def counting_pass(now, inbox=node._process_inbox, landed=landed,
                          node_id=node_id):
            landed.clear()
            alive = inbox(now)
            passes[node_id] += any(landed)
            return alive

        node.fdtable.write = counting_write
        node.core._apply = noting_apply
        node._process_inbox = counting_pass
    report = run_workload(deployment, _profile(ops=400))
    assert report.ok, report.summary_lines()
    for node_id, node in deployment.nodes.items():
        batches = registry.histogram("cluster.wal.batch_records",
                                     node=node_id)
        assert writes[node_id] == passes[node_id] == batches.count > 0
        assert batches.total == node.wal.total_appends
    assert report.wal_batches.max >= 2          # passes do share a write


def _crash_a_batch_write(seed: int = 1):
    """A 3-node run in which node1's disk dies under the first WAL write
    that carries >= 2 records, in a tick where node1 sent nothing before
    that pass's first record.  Returns the deployment, what the
    observers saw — ``seen["crash"]`` is the fail-stop's reason and
    node1's NIC tx count at the start of that tick and at the
    fail-stop — and the audited workload report."""
    deployment = Deployment(3, rf=2, registry=Registry(), seed=seed,
                            auto_restart_delay=150)
    node = deployment.nodes["node1"]
    nic = node.kernel.nic
    seen: dict = {}
    on_tick, apply, append, crash = (node.on_tick, node.core._apply,
                                     node.wal.append, node.crash)

    def observed_tick(now):
        seen["tick_tx"] = nic.stats.tx_frames
        on_tick(now)

    def observed_apply(*record):
        if not node.core.records:
            seen["first_record_tx"] = nic.stats.tx_frames
        return apply(*record)

    def arming_append(records):
        if "armed" not in seen and len(records) >= 2 \
                and seen["first_record_tx"] == seen["tick_tx"]:
            seen["armed"] = len(records)
            node.kernel.disk.fault_plan = FaultPlan(seed, rules=[
                FaultRule(site="disk.write", kind="crash", at=1)])
        append(records)

    def observed_crash(now, reason="killed"):
        seen.setdefault("crash", (reason, seen["tick_tx"],
                                  nic.stats.tx_frames))
        crash(now, reason)

    node.on_tick, node.core._apply = observed_tick, observed_apply
    node.wal.append, node.crash = arming_append, observed_crash
    report = run_workload(deployment, _profile(ops=400, seed=seed))
    return deployment, seen, report


def test_a_crashed_batch_write_sends_nothing_from_its_tick():
    deployment, seen, report = _crash_a_batch_write()
    assert seen["armed"] >= 2
    reason, tick_tx, tx = seen["crash"]
    assert reason == "disk-crash"
    # the forwards, confirmations and acks of that pass died unsent
    assert tx == tick_tx
    # ... and the node came back from its platter with the audit clean
    assert report.restarts == 1
    assert deployment.nodes["node1"].core.state == "serving"
    assert report.ok, report.summary_lines()
    assert report.lost_acked_writes == [] and report.ryw_violations == []


def test_releasing_the_outbox_before_the_wal_write_fails_that_check(
        monkeypatch):
    """The ``ack-before-WAL-append`` mutant: the same run, with the
    held datagrams released before the batch is written."""
    commit = ClusterNode._commit

    def release_then_write(self, now):
        held, self._outbox = self._outbox, []
        for dst_ip, dst_port, payload in held:
            self.stack.udp_send(SERVICE_PORT, dst_ip, dst_port, payload)
        return commit(self, now)

    monkeypatch.setattr(ClusterNode, "_commit", release_then_write)
    _, seen, _ = _crash_a_batch_write()
    reason, tick_tx, tx = seen["crash"]
    assert reason == "disk-crash"
    assert tx > tick_tx


# -- a full volume degrades the service, it does not abort it ---------------


def test_full_volume_fails_compaction_softly_and_the_run_completes():
    """256-sector volumes under 4096 keys x 200-byte values: a snapshot
    stops fitting beside its predecessor mid-run.  That used to raise
    NoSpace out of ``Deployment.step()``."""
    registry = Registry()
    deployment = Deployment(3, rf=2, registry=registry, seed=1)
    report = run_workload(deployment, WorkloadProfile(
        ops=6000, num_keys=4096, zipf_theta=0.2, put_fraction=0.95,
        del_fraction=0.0, value_bytes=200, rate=3e6))
    assert report.ok, report.summary_lines()
    assert report.acked + report.failed == report.issued == 6000
    assert report.failed == report.gaveup        # refusals are typed
    failed = {node_id: registry.counter("cluster.wal_compact_failed",
                                        node=node_id).value
              for node_id in deployment.nodes}
    assert sum(failed.values()) > 0, "the volume never filled"
    for node_id, node in deployment.nodes.items():
        # the failed attempt left generation g live and nothing behind
        assert node.alive
        assert node.wal.files() == [f"/snap.{node.wal.gen}",
                                    f"/wal.{node.wal.gen}"]
        assert fsck(node.kernel.fs) == []
        assert node.wal.gen == node.wal.compactions
        if failed[node_id]:
            assert node.wal.appended >= node.wal.compact_every


def _leave_two_free_blocks(fs) -> None:
    ballast = fs.create("/ballast")
    with pytest.raises(NoSpace):
        fs.write_at(ballast, 0, bytes(fs.bitmap.count_free() * BLOCK_SIZE))
    fs.truncate(ballast, fs.stat_inum(ballast).size - 2 * BLOCK_SIZE)


def test_append_on_a_full_volume_fail_stops_the_node_before_any_ack():
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    node = deployment.nodes["node1"]
    _leave_two_free_blocks(node.kernel.fs)
    reasons = []
    crash = node.crash

    def recording_crash(now, reason="killed"):
        reasons.append(reason)
        crash(now, reason)

    node.crash = recording_crash
    report = run_workload(deployment, _profile(ops=600))
    # two blocks of WAL later node1 cannot log, so it stops serving ...
    assert reasons == ["volume-full"] and not node.alive
    assert node.wal.total_appends > 0
    # ... and the survivors carry on: nothing acknowledged was lost
    assert report.ok, report.summary_lines()
    assert report.lost_acked_writes == [] and report.ryw_violations == []
    assert report.acked + report.failed == report.issued
    assert report.failed == report.gaveup


def test_a_node_whose_volume_is_full_restarts_into_a_fail_stop(
        monkeypatch):
    """The replacement cannot write its clean generation: it fail-stops
    ``volume-full`` instead of raising out of the deployment."""
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1,
                            auto_restart_delay=150)
    first = deployment.nodes["node1"]
    _leave_two_free_blocks(first.kernel.fs)
    reasons = []
    crash = ClusterNode.crash

    def recording_crash(self, now, reason="killed"):
        reasons.append((self.node_id, reason))
        crash(self, now, reason)

    monkeypatch.setattr(ClusterNode, "crash", recording_crash)
    report = run_workload(deployment, _profile(ops=600))
    assert report.restarts >= 1
    assert reasons == [("node1", "volume-full")] * (1 + report.restarts)
    replacement = deployment.nodes["node1"]
    assert replacement is not first and not replacement.alive
    assert replacement.wal is None
    # the survivors carried on: nothing acknowledged was lost
    assert report.ok, report.summary_lines()
    assert report.lost_acked_writes == [] and report.ryw_violations == []
    assert report.acked + report.failed == report.issued
    # and a restart by hand fail-stops the same way
    assert not deployment.restart("node1").alive
    assert reasons[-1] == ("node1", "volume-full")
