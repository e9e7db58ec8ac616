"""Regression guard: a packet hop costs timers, not kernel bookkeeping.

A fire-and-forget hop used to start a process per link hop
(``link-propagate``), per loopback datagram (``loopback``) and per
retry deadline (``mqttsn-retry-*``, ``mqttsn-connect-retry-*``,
``broker-qos-retry``), and every
``Store.put`` scheduled a no-op event nobody waited on.  Those are
callback timers (``Environment.call_later``) and ``Store.put_nowait``
now.  The guard counts constructions instead of timing anything, so it
is deterministic.
"""

from repro.harness import ExperimentSetup, run_capture_experiment
from repro.net import Network
from repro.simkernel import Process
from repro.simkernel import resources
from repro.workloads import SyntheticWorkloadConfig

TIMER_PROCESSES = (
    "link-propagate", "loopback", "mqttsn-retry-", "mqttsn-connect-retry-",
    "broker-qos-retry",
)


def test_mqttsn_fan_in_starts_no_hop_or_timer_processes(monkeypatch):
    names, puts, loopbacks = [], [], []
    process_init = Process.__init__
    put_init = resources._StorePut.__init__
    network_send = Network.send

    def counted_process(self, env, generator, name=None):
        process_init(self, env, generator, name=name)
        names.append(self.name)

    def counted_put(self, store, item):
        puts.append(item)
        put_init(self, store, item)

    def counted_send(self, packet):
        if packet.src[0] == packet.dst[0]:
            loopbacks.append(packet)
        network_send(self, packet)

    monkeypatch.setattr(Process, "__init__", counted_process)
    monkeypatch.setattr(resources._StorePut, "__init__", counted_put)
    monkeypatch.setattr(Network, "send", counted_send)

    setup = ExperimentSetup(
        system="provlight", n_devices=4, transport="mqttsn", qos=2,
        translator_workers=2, broker_shards=1, broker_placement="hash",
        pool_min=None, pool_max=None, chaos=None, topology=None,
    )
    config = SyntheticWorkloadConfig(number_of_tasks=5, task_duration_s=0.1,
                                     attributes_per_task=10)
    outcome = run_capture_experiment(setup, config, seed=1)

    assert outcome.backend_records == 4 * (2 * 5 + 2)
    assert loopbacks, "the world must exercise loopback delivery"
    timer_processes = [n for n in names if n.startswith(TIMER_PROCESSES)]
    assert timer_processes == []
    assert puts == []
