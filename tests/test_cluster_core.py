"""The node's protocol core on its own, and the shell's input guard.

`NodeCore` is the sans-I/O half of a cluster node: these tests replay a
live run through fresh cores with no kernel, disk, network or fault
plan, pin what the core may import, and check that no datagram — a
message with a field cut short or mistyped, arbitrary bytes, an
arbitrary well-formed message, or JSON — can stop the deployment."""

import copy
import json
import pathlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.imports import build_import_graph, discover_sources
from repro.cluster import core as coremod
from repro.cluster import messages as msg
from repro.cluster.client import AUDIT_CLIENT
from repro.cluster.deploy import Deployment
from repro.cluster.node import SERVICE_PORT
from repro.cluster.workload import WorkloadProfile, run_workload
from repro.faults.plan import FaultPlan
from repro.nros.fs.fd import FdTable
from repro.nros.kernel import Kernel
from repro.nros.net.stack import NetStack
from repro.obs.registry import Registry
from tests.test_cluster_messages import arbitrary_bytes, of_kind

#: The core's timer steps and its one message entry point.
_STEPS = ("heartbeat", "detect_failures", "recover_tick", "retry_pending",
          "drain_queues", "on_message")


def _produced(core, out_from: int, records_from: int):
    """What `core` appended since the given list lengths: the records,
    and each send as (ip, port, encoded bytes, held)."""
    sends = [(ip, port, msg.encode(message), held)
             for (ip, port), message, held in core.out[out_from:]]
    return list(core.records[records_from:]), sends


class _RecordingCore(coremod.NodeCore):
    """A NodeCore that logs its construction and every step it takes,
    with the step's inputs and what the step produced."""

    cores: list = []

    def __init__(self, node_id, members, registry, **kwargs):
        init = copy.deepcopy({k: v for k, v in kwargs.items()
                              if k != "emit"})
        super().__init__(node_id, members, registry, **kwargs)
        self.log = {"node": node_id, "members": dict(members),
                    "init": init, "steps": []}
        _RecordingCore.cores.append(self.log)
        for name in _STEPS:
            setattr(self, name, self._recorded(name, getattr(self, name)))

    def _recorded(self, name, step):
        def run(*args):
            before = copy.deepcopy(args)
            out_from, records_from = len(self.out), len(self.records)
            step(*args)
            self.log["steps"].append(
                (name, before, _produced(self, out_from, records_from)))
        return run


@pytest.fixture(scope="module")
def recorded_run():
    """Every core of a seeded 3-node run in which node1 is killed
    mid-workload and auto-restarted from its disk 150 ticks later."""
    patch = pytest.MonkeyPatch()
    _RecordingCore.cores = []
    patch.setattr("repro.cluster.node.NodeCore", _RecordingCore)
    try:
        deployment = Deployment(3, rf=2, registry=Registry(), seed=1,
                                auto_restart_delay=150)
        report = run_workload(deployment, WorkloadProfile(ops=400, seed=1),
                              kill_at_op=150, kill_node="node1")
    finally:
        patch.undo()
    return deployment, report, _RecordingCore.cores


def test_the_recorded_run_covers_kill_restart_and_held_sends(recorded_run):
    deployment, report, cores = recorded_run
    assert report.ok, report.summary_lines()
    assert report.kills == 1 and report.restarts == 1
    assert [log["node"] for log in cores] == ["node0", "node1", "node2",
                                              "node1"]
    assert cores[3]["init"]["recover"] and cores[3]["init"]["entries"]
    assert deployment.nodes["node1"].core.state == "serving"
    names = {name for log in cores for name, _, _ in log["steps"]}
    assert names == set(_STEPS)
    held = [send for log in cores for _, _, (_, sends) in log["steps"]
            for send in sends if send[3]]
    assert held, "no pass sent anything behind a WAL record"


def test_the_core_replays_a_live_run_alone(recorded_run, monkeypatch):
    """Fresh cores fed the recorded inputs produce the same records and
    the same encoded sends, step by step — with every kernel, file
    table, net stack and fault plan constructor booby-trapped."""
    _, _, cores = recorded_run

    def forbidden(*args, **kwargs):
        raise AssertionError("the core built an I/O object")

    for cls in (Kernel, FdTable, NetStack, FaultPlan):
        monkeypatch.setattr(cls, "__init__", forbidden)
    for log in cores:
        core = coremod.NodeCore(log["node"], log["members"], Registry(),
                                **copy.deepcopy(log["init"]))
        for index, (name, args, produced) in enumerate(log["steps"]):
            # the shell drains the output after every step, and commits
            # the pass's records before any timer step runs
            core.out.clear()
            if name != "on_message":
                core.records.clear()
            records_from = len(core.records)
            getattr(core, name)(*copy.deepcopy(args))
            assert _produced(core, 0, records_from) == produced, \
                (log["node"], index, name)


# -- the boundary ----------------------------------------------------------


def test_the_core_imports_no_kernel_hardware_obs_or_faults():
    root = pathlib.Path(repro.__file__).resolve().parents[2]
    edges = [edge for edge in build_import_graph(discover_sources(root))
             if edge.src == "src/repro/cluster/core.py"]
    assert {edge.dst for edge in edges} >= {"src/repro/cluster/ring.py"}
    forbidden = ("src/repro/nros/", "src/repro/hw/", "src/repro/obs/",
                 "src/repro/faults/")
    crossing = [(edge.line, edge.name, edge.module_level) for edge in edges
                if edge.dst.startswith(forbidden)]
    assert crossing == []


# -- no datagram can stop the cluster ---------------------------------------

#: JSON — the wire format before the binary layouts — that the node's
#: handlers used to raise on (the exception in the comment), then
#: datagrams that never decoded.  No JSON text decodes now.
MALFORMED = [json.dumps(message).encode() for message in (
    {"kind": "put"},                                          # KeyError
    {"kind": "get"},                                          # KeyError
    {"kind": "get", "key": ["x"], "req": 1},                  # TypeError
    {"kind": "repl", "key": "k", "req": 1, "version": "x"},   # TypeError
    {"kind": "sync", "req": 0, "entries": [1]},               # TypeError
    {"kind": "repl-ack"},                                     # KeyError
    {"kind": "hb", "from": ["a"]},                            # unhashable
    # a key JSON can carry but UTF-8 cannot: UnicodeEncodeError
    {"kind": "get", "key": "\ud800", "req": 1},
)] + [b"\xff", b"[1]", b'{"kind": "nope"}', b"{"]


def _send_from_gateway(deployment, payload: bytes, port: int = 4000):
    deployment._gateway_kernel.net.udp_send(
        port, deployment.kernels["node0"].net.ip, SERVICE_PORT, payload)


def _bad_messages(deployment) -> int:
    return deployment.registry.counter("cluster.bad_messages",
                                       node="node0").value


def _round_trip(deployment) -> None:
    """A put then a get of the same key through the real gateway."""
    gateway = deployment.gateway
    gateway.issue("put", "probe", "v1", 7, deployment.now)
    deployment.run_ticks(60)
    gateway.issue("get", "probe", None, 7, deployment.now)
    deployment.run_ticks(60)
    assert not gateway.outstanding
    assert gateway.failed.value == 0 and gateway.acked.value == 2
    assert gateway.acked_writes["probe"][1] == "v1"


@pytest.mark.parametrize("payload", MALFORMED,
                         ids=[repr(p)[2:-1] for p in MALFORMED])
def test_a_mistyped_datagram_is_counted_and_dropped(payload):
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    deployment.run_ticks(5)
    before = _bad_messages(deployment)
    _send_from_gateway(deployment, payload)
    deployment.step()
    deployment.step()
    assert _bad_messages(deployment) == before + 1
    _round_trip(deployment)
    assert _bad_messages(deployment) == before + 1


def test_a_reply_too_big_for_udp_is_dropped_and_counted():
    """A put at the UDP size limit: its replica forward, which adds the
    sender and the version, cannot be sent.  That used to raise out of
    ``Deployment.step``."""
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    deployment.run_ticks(5)
    ring = deployment.nodes["node0"].core.ring
    key = next(f"k{i}" for i in range(100)
               if ring.owners(f"k{i}", 2)[0] == "node0")
    put = {"kind": "put", "req": 1, "key": key, "client": 7, "value": ""}
    room = msg.MAX_DATAGRAM - len(msg.encode(put))
    _send_from_gateway(deployment, msg.encode({**put, "value": "x" * room}))
    deployment.run_ticks(5)
    drops = deployment.registry.counter("cluster.oversize_drops",
                                        node="node0")
    assert drops.value >= 1
    _round_trip(deployment)


@pytest.mark.parametrize("value", [b"x", "x" * 70_000],
                         ids=["bytes", "70000-characters"])
def test_a_put_the_wire_cannot_carry_is_refused_before_it_is_sent(value):
    """Such a put used to be accepted, and the retry timer then raised
    out of ``Deployment.step`` 1 200 ticks later."""
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    deployment.run_ticks(5)
    gateway = deployment.gateway
    with pytest.raises(msg.ClusterMsgError):
        gateway.issue("put", "k", value, 7, deployment.now)
    assert gateway.outstanding == {}
    deployment.run_ticks(2_000)
    _round_trip(deployment)


def test_a_put_at_the_entry_limit_is_acked_and_read_back():
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    deployment.run_ticks(5)
    gateway = deployment.gateway
    value = "é" * ((msg.MAX_ENTRY - len("probe")) // 2)
    value += "x" * (msg.MAX_ENTRY - len("probe") - len(value.encode()))
    with pytest.raises(msg.ClusterMsgError):
        gateway.issue("put", "probe", value + "x", 7, deployment.now)
    gateway.issue("put", "probe", value, 7, deployment.now)
    deployment.run_ticks(60)
    gateway.issue("get", "probe", None, AUDIT_CLIENT, deployment.now)
    deployment.run_ticks(60)
    assert gateway.acked.value == 2 and not gateway.outstanding
    assert gateway.audit_results["probe"] == (
        value, gateway.acked_writes["probe"][0])
    assert sum(counter.value for counter in deployment.registry.counters()
               if counter.name == "cluster.oversize_drops") == 0


def test_a_put_past_the_top_version_is_refused_not_raised():
    """A forward at the largest version a layout carries leaves no
    version for the next put of its key: the primary refuses that put
    with a typed error (its WAL record used to raise)."""
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    deployment.run_ticks(5)
    ring = deployment.nodes["node0"].core.ring
    key = next(f"k{i}" for i in range(100)
               if ring.owners(f"k{i}", 2)[0] == "node0")
    _send_from_gateway(deployment, _wire("repl", key=key,
                                         version=msg.MAX_INT))
    deployment.run_ticks(5)
    gateway = deployment.gateway
    gateway.issue("put", key, "w", 7, deployment.now)
    deployment.run_ticks(60)
    assert [entry["reason"] for entry in gateway.gaveup] == [
        msg.ERR_VERSIONS_EXHAUSTED]


def test_a_healthy_run_drops_nothing():
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    report = run_workload(deployment, WorkloadProfile(ops=300, seed=1),
                          kill_at_op=100, kill_node="node1",
                          restart_at_op=200)
    assert report.ok, report.summary_lines()
    assert sum(counter.value for counter in deployment.registry.counters()
               if counter.name in ("cluster.bad_messages",
                                   "cluster.oversize_drops")) == 0


def _wire(kind: str, **fields) -> bytes:
    """A well-formed `kind` message from the gateway's side."""
    values = {"req": 1, "key": "k", "client": 7, "value": "v",
              "from": "node1", "epoch": 0, "version": 1, "state": "serving",
              "entries": [("k", "v", 1)], **fields}
    return msg.encode({"kind": kind, **{name: values[name]
                                        for name, _ in msg.LAYOUTS[kind]}})


#: The defects the handlers once needed a field check for, as binary
#: datagrams `decode` refuses: a field cut off, a string that is not
#: UTF-8, a list item cut short, trailing bytes.
BAD_FIELDS = {
    "put-without-value": _wire("put")[:-1],
    "repl-without-version": _wire("repl")[:15] + _wire("repl")[23:],
    "sync-entry-cut-short": _wire("sync")[:-2],
    "sync-count-past-the-end": _wire("sync", entries=[])[:-7]
    + struct.pack("<H", 2) + _wire("sync", entries=[])[-5:],
    "join-ack-without-epoch": _wire("join-ack")[:3] + b"node1",
    "pull-done-trailing-req": _wire("pull-done") + b"1",
    # ED A0 80: a lone surrogate, which JSON's \ud800 escape decoded to
    "get-key-lone-surrogate": _wire("get", key="xyz")[:-3] + b"\xed\xa0\x80",
    "hb-state-not-utf8": _wire("hb", state="ok")[:-2] + b"\xff\xfe",
}


@pytest.mark.parametrize("payload", BAD_FIELDS.values(), ids=BAD_FIELDS)
def test_decode_refuses_each_bad_field(payload):
    with pytest.raises(msg.ClusterMsgError):
        msg.decode(payload)
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    deployment.run_ticks(5)
    before = _bad_messages(deployment)
    _send_from_gateway(deployment, payload)
    deployment.step()
    deployment.step()
    assert _bad_messages(deployment) == before + 1


json_leaf = st.one_of(
    st.none(), st.booleans(),
    st.integers(-(1 << 70), 1 << 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10,
)
field_names = st.sampled_from(["req", "key", "from", "version", "entries",
                               "epoch", "state", "value", "client"])
field_values = st.one_of(json_value,
                         st.sampled_from(["node0", "node1", "node2",
                                          "recovering", "serving"]),
                         st.lists(st.tuples(st.text(max_size=3), json_value,
                                            st.integers(-3, 1 << 40)),
                                  max_size=3))
node_bound = st.builds(
    lambda kind, fields: {**fields, "kind": kind},
    st.sampled_from(msg.CLIENT_KINDS + msg.PEER_KINDS),
    st.dictionaries(field_names, field_values, max_size=5))

#: Well-formed messages of every kind a node or client reads, their
#: senders and states mostly real ones so the handlers act on them.
well_formed = st.sampled_from(msg.ALL_KINDS).flatmap(
    lambda kind: of_kind(kind).flatmap(lambda m: st.builds(
        lambda sender, state: {**m, **({"from": sender} if "from" in m
                                       else {}),
                               **({"state": state} if "state" in m
                                  else {})},
        st.sampled_from(["node0", "node1", "node2"]) | st.text(max_size=5),
        st.sampled_from(["recovering", "serving"]))))


@pytest.fixture(scope="module")
def warm_deployment():
    deployment = Deployment(3, rf=2, registry=Registry(), seed=1)
    deployment.run_ticks(30)
    return deployment


@settings(max_examples=150, deadline=None)
@given(st.lists(node_bound, min_size=1, max_size=4))
def test_no_json_object_stops_the_deployment(warm_deployment, messages):
    for message in messages:
        _send_from_gateway(warm_deployment, json.dumps(message).encode())
    warm_deployment.step()
    warm_deployment.step()


@settings(max_examples=150, deadline=None)
@given(st.lists(arbitrary_bytes, min_size=1, max_size=4))
def test_no_datagram_stops_the_deployment(warm_deployment, payloads):
    for payload in payloads:
        _send_from_gateway(warm_deployment, payload)
    warm_deployment.step()
    warm_deployment.step()


@settings(max_examples=150, deadline=None)
@given(st.lists(well_formed, min_size=1, max_size=4))
def test_no_well_formed_message_stops_the_deployment(warm_deployment,
                                                     messages):
    for message in messages:
        _send_from_gateway(warm_deployment, msg.encode(message))
    warm_deployment.step()
    warm_deployment.step()
