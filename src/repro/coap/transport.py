"""ProvLight capture over CoAP instead of MQTT-SN.

Same design properties as the MQTT-SN client (asynchronous background
sender, binary+zlib payloads, ended-task grouping — all owned by the
shared :class:`~repro.capture.CaptureClient` façade), but the transport
is a confirmable CoAP POST per message: a 2-packet CON/ACK exchange
versus MQTT-SN QoS 2's 4-packet handshake — at-least-once with
server-side deduplication versus exactly-once.  The protocol-comparison
benchmark quantifies the trade.
"""

from __future__ import annotations

from ..capture import CaptureConfig, CaptureTransport, register_transport
from ..core.ingest import IngestSink
from ..core.resilience import RetryPolicy
from ..device import Device
from ..net import Endpoint, Host
from ..simkernel import Store
from .endpoint import DEFAULT_COAP_PORT, CoapClient, CoapServer
from .messages import CODE_CHANGED

__all__ = [
    "ProvLightCoapServer",
    "CoapCaptureTransport",
    "DEFAULT_CAPTURE_PATH",
]

#: resource the capture server exposes and clients POST to by default
DEFAULT_CAPTURE_PATH = "/prov"


class ProvLightCoapServer(IngestSink):
    """Capture sink: CoAP server + :class:`IngestSink`.  The POST is ACKed
    on enqueue, so a failed delivery is retried in place, never dropped."""

    def __init__(self, host: Host, backend, port: int = DEFAULT_COAP_PORT,
                 target: str = "dfanalyzer", cipher=None):
        super().__init__(backend, target=target, cipher=cipher)
        self.host = host
        self.env = host.env
        self.server = CoapServer(host, port)
        self.retry_policy = RetryPolicy(seed_key="coap-prov-translator")
        self._inbox: Store = Store(self.env)
        self.server.route(DEFAULT_CAPTURE_PATH, self._on_post)
        self.env.process(self._work_loop(), name="coap-prov-translator")

    @property
    def endpoint(self) -> Endpoint:
        return (self.host.name, self.server.port)

    def _on_post(self, path, payload):
        self._inbox.put(payload)
        return CODE_CHANGED, b""

    def _work_loop(self):
        device = self.host.device
        while True:
            payload = yield self._inbox.get()
            groups, marks, work = self.prepare((payload,))
            if not groups:
                continue
            if device is not None:
                yield from device.cpu.run(io_busy_s=work, tag="translator")
            else:
                yield self.env.timeout(work)
            attempt = 0
            while True:
                try:
                    yield from self.deliver(groups, marks)
                    break
                except Exception:
                    yield self.env.timeout(self.retry_policy.delay(attempt))
                    # the delay saturates at max_s long before 2**6
                    attempt = min(attempt + 1, 6)


class CoapCaptureTransport(CaptureTransport):
    """Capture over confirmable CoAP POSTs.

    ``send()`` is :meth:`~repro.coap.CoapClient.post_nowait`: the CON
    retransmission machinery runs in the CoAP client's receive loop, off
    the workflow's critical path.  CoAP is connectionless, so there is
    nothing to establish and capture may begin before ``setup()``.
    """

    name = "coap"
    blocking = False
    requires_setup = False

    def __init__(self, device: Device, server: Endpoint, topic: str,
                 config: CaptureConfig):
        self.coap = CoapClient(device.host, server)
        # topics map onto the resource path; MQTT-style topic names keep
        # the server's default capture resource
        self.path = topic if topic.startswith("/") else DEFAULT_CAPTURE_PATH

    def connect(self):
        """CoAP is connectionless: nothing to establish."""
        return None
        yield  # pragma: no cover - generator shape

    def register(self, topic: str):
        return self.path
        yield  # pragma: no cover - generator shape

    def send(self, payload: bytes):
        return self.coap.post_nowait(self.path, payload)


register_transport("coap", CoapCaptureTransport)

