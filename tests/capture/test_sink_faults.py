"""Sink-fault acceptance: every capture sink ingests exactly once.

A transient backend error must neither crash a sink nor lose a record it
already answered for, and a replayed enveloped payload must be ingested
once — on every registered transport, whichever path the record took.
"""

import pytest

from repro.capture import (
    CaptureConfig,
    create_client,
    deploy_capture_sink,
    transport_names,
    wrap_payload,
)
from repro.core import CallableBackend, ProvLightServer, Task, Workflow
from repro.core.serialization import encode_payload
from repro.device import A8M3, Device
from repro.net import Network
from repro.simkernel import Environment

#: workflow begin + 4 tasks x (begin, end) + workflow end
N_RECORDS = 10

TOPICS = {"mqttsn": "faults/edge/data", "coap": "/prov", "http": "/provlight"}


class FlakyIngest:
    """Backend callable that raises once, on its ``fail_on``-th call."""

    def __init__(self, fail_on=None):
        self.fail_on = fail_on
        self.calls = 0
        self.records = []

    def __call__(self, translated):
        self.calls += 1
        if self.calls == self.fail_on:
            raise RuntimeError("injected backend fault")
        self.records.extend(translated)


def record_key(record):
    """``(type, task_id, status)``; workflow records use their event."""
    return (record["type"], record.get("task_id"),
            record.get("status", record.get("event")))


def make_world(transport, ingest, config):
    """One edge device + the sink for ``transport`` on a cloud host.

    Returns ``(env, client, sink, pre)``; ``pre`` is the generator the
    MQTT-SN sink needs run before capture (its topic subscription).
    """
    env = Environment()
    net = Network(env, seed=7)
    dev = Device(env, A8M3, name="edge-dev")
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    cloud = net.hosts["cloud"]
    pre = None
    if transport == "mqttsn":
        server = ProvLightServer(cloud, CallableBackend(ingest))
        pre = server.add_translator("faults/#")
        sink, endpoint = server, server.endpoint
    elif transport in ("coap", "http"):
        server, endpoint = deploy_capture_sink(transport, cloud, ingest)
        sink = getattr(server, "sink", server)
    else:  # a transport someone registered without extending this suite
        pytest.skip(f"no sink-fault world for transport {transport!r}")
    client = create_client(dev, endpoint, TOPICS[transport], config)
    return env, client, sink, pre


@pytest.mark.parametrize("transport", transport_names())
def test_transient_backend_fault_loses_and_duplicates_nothing(transport,
                                                              tmp_path):
    ingest = FlakyIngest(fail_on=3)
    config = CaptureConfig(transport=transport, durable=True,
                           journal_dir=str(tmp_path),
                           reconnect_base_s=0.2, reconnect_max_s=2.0)
    env, client, sink, pre = make_world(transport, ingest, config)
    done = {}

    def proc(env):
        if pre is not None:
            yield from pre
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(4):
            task = Task(i, wf)
            yield from task.begin()
            yield env.timeout(0.05)
            yield from task.end()
        yield from wf.end(drain=True)
        done["ok"] = True

    env.process(proc(env))
    env.run()
    assert done.get("ok")
    assert ingest.calls > N_RECORDS  # the fault fired and was recovered
    keys = [record_key(r) for r in ingest.records]
    assert len(keys) == N_RECORDS
    assert len(set(keys)) == N_RECORDS
    assert sink.records_ingested.total == N_RECORDS


@pytest.mark.parametrize("transport", transport_names())
def test_replayed_wire_is_ingested_once(transport):
    ingest = FlakyIngest()
    env, client, sink, pre = make_world(
        transport, ingest, CaptureConfig(transport=transport))
    wire = wrap_payload("edge-dev/replayed", 1, encode_payload({
        "kind": "task_begin", "workflow_id": 1, "transformation_id": 0,
        "task_id": 7, "time": 0.0,
    }))

    def proc(env):
        if pre is not None:
            yield from pre
        yield from client.setup()
        for _ in range(2):
            yield client.transport.send(wire)

    env.process(proc(env))
    env.run()
    assert [record_key(r) for r in ingest.records] == [("task", 7, "RUNNING")]
    assert sink.records_ingested.total == 1
    assert sink.duplicates_dropped.count == 1
