"""Ablation variants of ProvLight for the design-choice analysis.

Paper Section VII-A attributes ProvLight's gains to a combination of
choices: the asynchronous MQTT-SN/UDP transport (major impact on capture
time, energy, CPU, network), payload compression, grouping, and the
simplified data model (major impact on memory, ~1.7%/1.4% further
capture-time/CPU reduction).  The classes here isolate those choices so
the ablation benchmark can toggle them one at a time:

* :class:`SyncHttpProvLightClient` — ProvLight's model + binary codec,
  but shipped through a *blocking HTTP POST per message* like the
  baselines.  Isolates the transport choice.
* :class:`VerboseModelProvLightClient` — ProvLight's transport, but
  records are built through a heavyweight PROV-document path and carry
  the un-simplified attribute layout.  Isolates the simplified model.
* compression and grouping are first-class fields of
  :class:`~repro.capture.CaptureConfig` (``compress``, ``group_size``)
  and need no variant class.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..calibration import MEMORY_FOOTPRINTS, PROVLAKE_COSTS
from ..capture import CaptureClient, CaptureConfig
from ..core.model import count_attributes_from_record
from ..device import Device
from ..net import Endpoint
from .common import HttpPostCaptureTransport

__all__ = ["SyncHttpProvLightClient", "VerboseModelProvLightClient"]


class SyncHttpProvLightClient(CaptureClient):
    """ProvLight's compact payloads over the baselines' blocking HTTP.

    The shared façade over a blocking HTTP POST transport with its own
    user agent and resource path, so the ablation's request bytes stay
    fixed whatever ``create_client(transport="http")`` sends.
    Client-side record building, encoding and memory accounting keep
    ProvLight's cheap simplified-model costs; what changes is the
    transport: one synchronous request/response cycle per message over
    TCP, paying connection latency on the workflow's critical path.  The
    measured gap to real ProvLight is the *protocol* contribution.
    """

    def __init__(self, device: Device, server: Endpoint,
                 path: str = "/provlight", compress: bool = True):
        config = CaptureConfig(transport="http", compress=compress)
        transport = HttpPostCaptureTransport(
            device, server, path=path,
            user_agent="provlight-sync-http-capture/1.0",
        )
        super().__init__(device, server, path, config, transport=transport)
        # wire counters under the baseline-family names
        self.requests_sent = self.transport.requests_sent
        self.body_bytes = self.transport.body_bytes
        self.capture_errors = self.transport.capture_errors

    def supports_grouping(self) -> bool:
        # the ablation isolates the transport; grouping stays off
        return False


class VerboseModelProvLightClient(CaptureClient):
    """ProvLight's transport with a heavyweight provenance data model.

    Records pass through a full PROV-document construction (charged at the
    baselines' record-build cost) and carry the verbose nested layout, so
    payloads are larger and the client's buffers grow — isolating what the
    paper's *simplified data model* buys on top of the protocol.
    """

    def __init__(self, device: Device, server: Endpoint, topic: str,
                 config: Optional[CaptureConfig] = None):
        super().__init__(device, server, topic, config)
        # the heavyweight model's resident footprint matches the baselines'
        extra = MEMORY_FOOTPRINTS.provlake_lib_bytes - self.footprints.provlight_lib_bytes
        self.device.memory.allocate(extra, tag="capture-static")
        self._extra_static = extra

    def capture(self, record: Dict[str, Any], groupable: bool = True):
        n_attrs = count_attributes_from_record(record)
        # heavyweight document building before the normal capture path
        yield from self.device.cpu.run(
            compute_s=PROVLAKE_COSTS.record_build_compute_s
            + PROVLAKE_COSTS.record_build_per_attr_s * n_attrs,
            tag="capture",
        )
        verbose = _verbose_record(record)
        yield from super().capture(verbose, groupable=groupable)

    def close(self) -> None:
        if not self.closed:  # close() is idempotent; free the extra once
            self.device.memory.free(self._extra_static, tag="capture-static")
        super().close()


def _verbose_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Re-shape a record the way non-simplified PROV layouts do."""
    verbose = {
        "@type": f"prov:{record.get('kind', 'record')}",
        "prov:wasAssociatedWith": {
            "agent": {"@id": f"workflow/{record.get('workflow_id')}"}
        },
        "metadata": {
            "schema": "prov-dm-1.1",
            "generated_by": "provlight-verbose",
            "timestamp": {"value": record.get("time"), "unit": "seconds"},
        },
    }
    verbose.update(record)
    verbose["data"] = [
        {
            # keep the simplified keys so translation still works...
            "id": item.get("id"),
            "workflow_id": item.get("workflow_id"),
            "derivations": list(item.get("derivations", ())),
            "attributes": dict(item.get("attributes", {})),
            # ...and add the verbose PROV envelope around them
            "entity": {"@id": f"data/{item.get('id')}"},
            "prov:wasAttributedTo": {
                "agent": {"@id": f"workflow/{item.get('workflow_id')}"}
            },
            "prov:wasDerivedFrom": [
                {"entity": {"@id": f"data/{d}"}} for d in item.get("derivations", ())
            ],
            "attribute_annotations": [
                {"name": key, "type": type(value).__name__}
                for key, value in item.get("attributes", {}).items()
            ],
        }
        for item in record.get("data", ())
    ]
    return verbose
