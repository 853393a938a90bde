"""The replicated KV service end to end: deployment, failover,
partitions, and the trace schema."""

import pytest

from repro import obs
from repro.cluster.deploy import Deployment
from repro.cluster.node import TICK_NS
from repro.cluster.workload import WorkloadProfile, run_workload
from repro.nros.cluster import Cluster
from repro.nros.kernel import Kernel
from repro.nros.net.ip import ip_addr
from repro.obs.events import validate_record
from repro.obs.registry import Registry

MB = 1024 * 1024


def _deployment(num_nodes=3, rf=2, **kwargs):
    return Deployment(num_nodes, rf=rf, registry=Registry(), **kwargs)


def _run(deployment, ops=200, seed=1, **kwargs):
    return run_workload(deployment, WorkloadProfile(ops=ops, seed=seed),
                        **kwargs)


def test_three_node_smoke_serves_all_ops():
    deployment = _deployment()
    report = _run(deployment)
    assert report.acked == report.issued == 200
    assert report.failed == 0
    assert report.ok
    # writes really are replicated: every acked key exists on rf nodes
    gateway = deployment.gateway
    for key, (version, value) in sorted(gateway.acked_writes.items())[:20]:
        holders = [
            node_id for node_id, node in deployment.nodes.items()
            if node.core.local_data().get(key, (None, -1))[1] >= version
        ]
        assert len(holders) >= deployment.rf, (key, holders)


def test_node_kill_mid_workload_loses_no_acked_write():
    deployment = _deployment()
    report = _run(deployment, ops=600, seed=7, kill_at_op=200,
                  kill_node="node1")
    assert deployment.alive_nodes == ["node0", "node2"]
    assert report.kills == 1
    assert report.lost_acked_writes == []
    assert report.ryw_violations == []
    assert report.undrained == 0
    assert report.audited_keys > 0


def test_kill_is_deterministic_under_a_seed():
    def summary():
        report = _run(_deployment(), ops=300, seed=11, kill_at_op=100,
                      kill_node="node0")
        return report.summary_lines()

    assert summary() == summary()


def test_partition_and_heal_between_storage_nodes():
    deployment = _deployment()
    deployment.partition("node0", "node1")
    # the cut is total for that pair until healed
    for link in deployment.cluster.links_between(
            deployment.kernels["node0"], deployment.kernels["node1"]):
        assert link.partitioned
    report = _run(deployment, ops=200, seed=3)
    assert report.lost_acked_writes == []
    assert report.undrained == 0
    deployment.heal("node0", "node1")
    for link in deployment.cluster.links_between(
            deployment.kernels["node0"], deployment.kernels["node1"]):
        assert not link.partitioned


def test_single_node_rf1_deployment_works():
    deployment = _deployment(num_nodes=1, rf=1)
    report = _run(deployment, ops=150)
    assert report.acked == 150
    assert report.ok


def test_deployment_validates_shape():
    with pytest.raises(ValueError):
        _deployment(num_nodes=0)
    with pytest.raises(ValueError):
        _deployment(num_nodes=2, rf=3)


def test_trace_events_are_schema_valid():
    events = []
    obs.bus().subscribe(events.append)
    try:
        deployment = _deployment()
        report = _run(deployment, ops=300, seed=5, kill_at_op=100,
                      kill_node="node2")
    finally:
        obs.bus().unsubscribe(events.append)
    assert report.ok
    names = {event.name for event in events}
    assert "cluster.kill" in names
    assert "cluster.member" in names
    assert "cluster.failover" in names
    assert "cluster.sync" in names
    for event in events:
        assert validate_record(event.to_dict()) == []
        # fs.op events (the nodes' WALs run through the verified FS)
        # are wall-clocked instrumentation; the service's own trace
        # must stay on simulated time
        if event.name.startswith("cluster."):
            assert event.clock == "sim"
            assert event.t % TICK_NS == 0


# -- Cluster.connect validation + partition/heal (repro.nros.cluster) ------


def _kernel(ip, hostname):
    return Kernel(num_cores=1, memory_bytes=4 * MB, disk_sectors=256,
                  ip=ip_addr(ip), hostname=hostname)


def test_connect_validates_before_any_mutation():
    cluster = Cluster()
    good = _kernel("10.9.0.1", "good")
    bad = Kernel(num_cores=1, memory_bytes=4 * MB, disk_sectors=256)
    cluster.add(good)
    neighbours_before = dict(good.net.neighbours)
    with pytest.raises(ValueError, match="bad|no network"):
        cluster.connect(good, bad)
    # validation happened before mutation: nothing half-connected
    assert good.net.neighbours == neighbours_before
    assert cluster.links == []
    assert cluster.links_between(good, bad) == []


def test_cluster_partition_requires_a_link():
    cluster = Cluster()
    a = cluster.add(_kernel("10.9.0.1", "a"))
    b = cluster.add(_kernel("10.9.0.2", "b"))
    with pytest.raises(ValueError, match="no link"):
        cluster.partition(a, b)
    link = cluster.connect(a, b)
    assert cluster.partition(a, b) == 1
    assert link.partitioned
    assert cluster.heal(a, b) == 1
    assert not link.partitioned


def test_partitioned_link_drops_frames_to_the_peer():
    cluster = Cluster()
    a = cluster.add(_kernel("10.9.0.1", "a"))
    b = cluster.add(_kernel("10.9.0.2", "b"))
    link = cluster.connect(a, b)
    sock = b.net.udp_bind(5000)
    cluster.partition(a, b)
    a.net.udp_send(5000, b.net.ip, 5000, b"lost")
    link.pump()
    b.net.poll()
    assert not sock.recv_queue
    assert link.dropped == 1
    cluster.heal(a, b)
    a.net.udp_send(5000, b.net.ip, 5000, b"found")
    link.pump()
    b.net.poll()
    assert [payload for _, _, payload in sock.recv_queue] == [b"found"]
