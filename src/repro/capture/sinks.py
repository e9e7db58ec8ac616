"""Capture-*sink* deployment shared by the harness and E2Clab.

``create_client`` picks the device-side transport; something on the
cloud side still has to terminate it.  The MQTT-SN sink is the full
:class:`~repro.core.server.ProvLightServer` (broker + translator pool)
whose knobs the callers own, but the CoAP server and the blocking-HTTP
collector are boilerplate — a transport front end over the shared
:class:`~repro.core.ingest.IngestSink` — that the experiment harness and
the Provenance Manager would otherwise each hand-roll.
:func:`deploy_capture_sink` builds them once, so a new transport's sink
is added here, next to the registry that names it.

Imports are deferred: the protocol stacks import :mod:`repro.capture`
for their adapters, so importing them at module time would be circular.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .registry import normalize_transport

__all__ = ["deploy_capture_sink"]

#: default port of the blocking-HTTP capture collector
DEFAULT_HTTP_SINK_PORT = 5000


def deploy_capture_sink(
    transport: str,
    host,
    ingest: Callable,
    target: str = "dfanalyzer",
    http_port: int = DEFAULT_HTTP_SINK_PORT,
    http_workers: int = 1,
    dedup_state_path: Optional[str] = None,
) -> Tuple[object, Tuple[str, int]]:
    """Deploy the capture sink for ``transport`` on ``host``.

    ``ingest`` is the backend callable translated records are fed to.
    Returns ``(server, endpoint)`` where ``endpoint`` is what
    :func:`~repro.capture.create_client` takes as ``server``.  The
    ``mqttsn`` sink is *not* built here — construct a
    :class:`~repro.core.server.ProvLightServer` directly (its worker and
    shard knobs belong to the deployment).  The CoAP server is an
    :class:`~repro.core.ingest.IngestSink`; the HTTP collector's sink
    (counters, dedup index) is ``server.sink``.

    ``dedup_state_path`` makes the HTTP collector's replay-dedup index
    durable: a restarted collector recovering from the same path keeps
    rejecting ``(client_id, seq)`` pairs it ingested before the crash,
    so journal replays stay exactly-once across sink restarts.
    """
    transport = normalize_transport(transport)
    from ..core.server import CallableBackend

    if transport == "coap":
        from ..coap import ProvLightCoapServer

        server = ProvLightCoapServer(host, CallableBackend(ingest), target=target)
        return server, server.endpoint
    if transport == "http":
        from ..core.ingest import IngestSink
        from ..http import HttpResponse, HttpServer

        sink = IngestSink(CallableBackend(ingest), target=target,
                          dedup_state_path=dedup_state_path)

        def collector(request):
            # no CPU charge: the request service time covers the work.  A
            # backend error escapes to HttpServer's 500 so a durable client
            # replays; malformed bytes and replays still get 201 (acked)
            groups, marks, _work_s = sink.prepare((request.body,))
            if groups:
                yield from sink.deliver(groups, marks)
            return HttpResponse(status=201, reason="Created")

        server = HttpServer(host, http_port, collector, workers=http_workers)
        server.sink = sink
        return server, (host.name, http_port)
    raise ValueError(
        f"no capture sink known for transport {transport!r} "
        "(mqttsn sinks are a ProvLightServer; see repro.capture.sinks)"
    )
