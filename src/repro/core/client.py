"""The ProvLight capture client's ``mqttsn`` transport adapter.

This is the paper's core contribution: a capture library whose critical
path (what the instrumented workflow waits on) is only

1. building the record (simplified model classes),
2. binary-encoding + compressing it (:mod:`repro.core.serialization`),
3. appending it to the outbound queue.

That shared critical path now lives in
:class:`repro.capture.CaptureClient`; this module contributes only the
protocol-specific part: :class:`MqttSnCaptureTransport`, a thin adapter
over :class:`~repro.mqttsn.MqttSnClient` driving the MQTT-SN QoS 2
exchange in the background so network latency, bandwidth and the broker
never delay the workflow (the design property behind Tables VII/VIII).
Build a client with :func:`repro.capture.create_client`; ``mqttsn`` is
the default transport of :class:`~repro.capture.CaptureConfig`.

Costs are charged per :mod:`repro.calibration`; payload bytes are real
(actual codec + zlib output), so network numbers are emergent.
"""

from __future__ import annotations

import itertools
from typing import Optional

# the capture submodules, not the package: repro.capture.client imports
# repro.core, so the package may still be initialising when this runs
from ..capture.config import CaptureConfig
from ..capture.registry import register_transport
from ..capture.transport import CaptureTransport
from ..device import Device
from ..mqttsn import MqttSnClient
from ..net import Endpoint

__all__ = ["MqttSnCaptureTransport"]

_client_ids = itertools.count(1)


class MqttSnCaptureTransport(CaptureTransport):
    """Capture over an asynchronous MQTT-SN publish (the paper's choice).

    ``send()`` is :meth:`~repro.mqttsn.MqttSnClient.publish_nowait`: the
    QoS machinery (PUBREC/PUBREL/PUBCOMP, retransmissions) runs in the
    MQTT-SN client's receive loop, off the workflow's critical path.
    """

    name = "mqttsn"
    blocking = False
    requires_setup = True  # the broker must assign a topic id first

    def __init__(self, device: Device, broker: Endpoint, topic: str,
                 config: CaptureConfig):
        self.mqtt = MqttSnClient(
            device.host,
            config.client_id or f"provlight-{next(_client_ids)}",
            broker,
        )
        self.qos = config.qos
        self.topic_id: Optional[int] = None

    def connect(self):
        yield from self.mqtt.connect()

    def register(self, topic: str):
        self.topic_id = yield from self.mqtt.register(topic)
        return self.topic_id

    def send(self, payload: bytes):
        return self.mqtt.publish_nowait(self.topic_id, payload, qos=self.qos)

    def disconnect(self) -> None:
        self.mqtt.disconnect()


register_transport("mqttsn", MqttSnCaptureTransport)

