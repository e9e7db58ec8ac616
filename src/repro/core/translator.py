"""Provenance data translator: ProvLight wire records -> target systems.

The ProvLight server runs one translator per topic (paper Fig. 5).  The
translator decodes the (possibly grouped, compressed) payload and emits
the data model of the configured provenance system.  Users extend this
by registering additional targets — the mechanism the paper describes
for integrating with "DfAnalyzer, ProvLake, PROV-IO, Komadu, among
others".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from .provdm import document_from_records
from .serialization import decode_payload

__all__ = [
    "TranslationError",
    "Translator",
    "records_from_payload",
    "to_dfanalyzer",
    "to_prov_json",
    "to_provlake",
]


class TranslationError(ValueError):
    """Payload could not be translated."""


def records_from_payload(payload: bytes, cipher=None) -> List[Dict[str, Any]]:
    """Decode a wire payload into a list of records.

    A payload is either one record (dict) or a group (list of dicts).
    Durable-capture dedup envelopes are stripped by the sink
    (:class:`~repro.core.ingest.IngestSink`) before this is called.  The
    decoder only ever produces plain dicts/lists, so exact type checks
    suffice on this per-message path.
    """
    value = decode_payload(payload, cipher=cipher)
    if type(value) is dict:
        return [value]
    if type(value) is list and all(type(r) is dict for r in value):
        return value
    raise TranslationError(f"unexpected payload structure: {type(value).__name__}")


def to_dfanalyzer(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Translate to the DfAnalyzer ingestion schema.

    DfAnalyzer models dataflows / transformations / tasks / datasets; the
    mapping is: workflow -> dataflow tag, transformation_id ->
    transformation tag, data items -> datasets with attribute elements.
    """
    out = []
    for record in records:
        kind = record.get("kind")
        if kind in ("workflow_begin", "workflow_end"):
            out.append(
                {
                    "type": "dataflow",
                    "dataflow_tag": str(record["workflow_id"]),
                    "event": "begin" if kind == "workflow_begin" else "end",
                    "time": record.get("time"),
                }
            )
            continue
        if kind not in ("task_begin", "task_end"):
            raise TranslationError(f"unknown record kind {kind!r}")
        out.append(
            {
                "type": "task",
                "dataflow_tag": str(record["workflow_id"]),
                "transformation_tag": str(record.get("transformation_id")),
                "task_id": record["task_id"],
                "status": "RUNNING" if kind == "task_begin" else "FINISHED",
                "dependencies": list(record.get("dependencies", ())),
                "time": record.get("time"),
                "datasets": [
                    {
                        "tag": str(item["id"]),
                        "direction": "input" if kind == "task_begin" else "output",
                        "derivations": list(item.get("derivations", ())),
                        "elements": dict(item.get("attributes", {})),
                    }
                    for item in record.get("data", ())
                ],
            }
        )
    return out


def to_prov_json(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Translate to a PROV-JSON document (via the PROV-DM mapping)."""
    return document_from_records(records).to_prov_json()


def to_provlake(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Translate to a ProvLake-style workflow/task message list."""
    out = []
    for record in records:
        kind = record.get("kind")
        if kind in ("workflow_begin", "workflow_end"):
            out.append(
                {
                    "prov_obj": "workflow",
                    "wf_execution": str(record["workflow_id"]),
                    "act_type": kind.split("_")[1],
                    "timestamp": record.get("time"),
                }
            )
            continue
        if kind not in ("task_begin", "task_end"):
            raise TranslationError(f"unknown record kind {kind!r}")
        values_in, values_out = {}, {}
        bucket = values_in if kind == "task_begin" else values_out
        for item in record.get("data", ()):
            bucket[str(item["id"])] = dict(item.get("attributes", {}))
        out.append(
            {
                "prov_obj": "task",
                "wf_execution": str(record["workflow_id"]),
                "data_transformation": str(record.get("transformation_id")),
                "task_id": record["task_id"],
                "status": "RUNNING" if kind == "task_begin" else "FINISHED",
                "used": values_in,
                "generated": values_out,
                "timestamp": record.get("time"),
            }
        )
    return out


_TARGETS: Dict[str, Callable[[List[Dict[str, Any]]], Any]] = {
    "dfanalyzer": to_dfanalyzer,
    "prov-json": to_prov_json,
    "provlake": to_provlake,
    "raw": lambda records: records,
}


class Translator:
    """Decodes payloads and translates them to a target data model."""

    def __init__(self, target: str = "dfanalyzer", cipher=None):
        if target not in _TARGETS:
            raise ValueError(
                f"unknown target {target!r}; known: {sorted(_TARGETS)}"
            )
        self.target = target
        self.cipher = cipher
        self._translate = _TARGETS[target]

    @classmethod
    def register_target(
        cls, name: str, fn: Callable[[List[Dict[str, Any]]], Any]
    ) -> None:
        """Extend the translator with a new provenance-system format."""
        _TARGETS[name] = fn

    @classmethod
    def known_targets(cls) -> List[str]:
        return sorted(_TARGETS)

    def translate_payload(self, payload: bytes):
        """Decode a wire payload and translate it; returns
        ``(records, translated)``."""
        records = records_from_payload(payload, cipher=self.cipher)
        return records, self._translate(records)
