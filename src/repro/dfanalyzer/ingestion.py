"""DfAnalyzer ingestion: runtime provenance intake into the column store.

Accepts both wire formats that exist in this reproduction:

* the ProvLight translator output (:func:`repro.core.translator.to_dfanalyzer`),
* the DfAnalyzer capture library's own JSON messages
  (:mod:`repro.baselines.dfanalyzer_capture`),

normalizing them into three storage families:

* ``dataflows`` — begin/end events per dataflow;
* ``tasks`` — one row per task, upserted RUNNING -> FINISHED through a
  hash index on ``(dataflow_tag, task_id)``;
* ``datasets`` — one row per data item with attribute columns, which is
  what the paper's hyperparameter queries run against.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Union

from ..simkernel import Counter
from .dataflow import DataflowSpec
from .query import Query
from .store import ColumnStore

__all__ = ["DfAnalyzerService", "IngestError"]


class IngestError(ValueError):
    """Payload not recognized as DfAnalyzer provenance."""


#: the ``tasks`` index a task end is resolved through
TASK_KEY = ("dataflow_tag", "task_id")


class DfAnalyzerService:
    """The storage/query component of DfAnalyzer (paper Section V-A).

    The paper deliberately uses only this part of DfAnalyzer (its capture
    side is the slow baseline); ProvLight feeds it through the translator.
    """

    def __init__(self) -> None:
        self.store = ColumnStore()
        self.store.create_table(
            "dataflows", ["dataflow_tag", "event", "time"]
        )
        tasks = self.store.create_table(
            "tasks",
            [
                "dataflow_tag",
                "transformation_tag",
                "task_id",
                "status",
                "time_begin",
                "time_end",
                "dependencies",
            ],
        )
        tasks.create_index(*TASK_KEY)
        self.store.create_table(
            "datasets",
            ["dataflow_tag", "task_id", "dataset_tag", "direction", "derivations"],
        )
        self.specs: Dict[str, DataflowSpec] = {}
        self.records_ingested = Counter("records")
        self.validation_warnings: List[str] = []

    # -- prospective provenance -----------------------------------------------
    def register_dataflow(self, spec: DataflowSpec) -> None:
        """Declare a dataflow specification (prospective provenance)."""
        self.specs[spec.tag] = spec

    # -- ingestion ---------------------------------------------------------------
    def ingest(self, payload: Union[Dict[str, Any], List[Dict[str, Any]]]) -> int:
        """Ingest one payload (translator batch or capture-lib message).

        Returns the number of records ingested.
        """
        records = self._normalize(payload)
        for record in records:
            if record["type"] == "dataflow":
                self.store.table("dataflows").insert(
                    {
                        "dataflow_tag": record["dataflow_tag"],
                        "event": record["event"],
                        "time": record.get("time"),
                    }
                )
            else:
                self._ingest_task(record)
            self.records_ingested.record()
        return len(records)

    def _ingest_task(self, record: Dict[str, Any]) -> None:
        tasks = self.store.table("tasks")
        key_df, key_task = record["dataflow_tag"], record["task_id"]
        try:
            hash((key_df, key_task))
        except TypeError:
            raise IngestError(
                f"task key must be hashable: {(key_df, key_task)!r}"
            ) from None
        status = record.get("status", "RUNNING")
        if status == "FINISHED":
            # every row under the key is updated (fan-in devices share ids)
            updated = tasks.update_by(
                TASK_KEY,
                (key_df, key_task),
                {"status": "FINISHED", "time_end": record.get("time")},
            )
            if not updated:  # end arrived before begin (grouping reorders)
                tasks.insert(
                    {
                        "dataflow_tag": key_df,
                        "transformation_tag": record.get("transformation_tag"),
                        "task_id": key_task,
                        "status": "FINISHED",
                        "time_end": record.get("time"),
                        "dependencies": ",".join(
                            str(d) for d in record.get("dependencies", ())
                        ),
                    }
                )
        else:
            tasks.insert(
                {
                    "dataflow_tag": key_df,
                    "transformation_tag": record.get("transformation_tag"),
                    "task_id": key_task,
                    "status": status,
                    "time_begin": record.get("time"),
                    "dependencies": ",".join(
                        str(d) for d in record.get("dependencies", ())
                    ),
                }
            )
        datasets = self.store.table("datasets")
        for item in record.get("datasets", ()):
            row = {
                "dataflow_tag": key_df,
                "task_id": key_task,
                "dataset_tag": item.get("tag"),
                "direction": item.get("direction"),
                "derivations": ",".join(str(d) for d in item.get("derivations", ())),
            }
            elements = item.get("elements", {})
            self._validate_elements(key_df, item.get("tag"), elements)
            for name, value in elements.items():
                row[name] = value
            datasets.insert(row)

    def _validate_elements(self, dataflow_tag, dataset_tag, elements) -> None:
        spec = self.specs.get(str(dataflow_tag))
        if spec is None:
            return
        ds = spec.datasets.get(str(dataset_tag))
        if ds is None:
            return
        self.validation_warnings.extend(ds.validate_elements(elements))

    # -- format normalization -----------------------------------------------------
    def _normalize(self, payload) -> List[Dict[str, Any]]:
        if isinstance(payload, dict) and "messages" in payload:
            return [self._from_capture_message(m) for m in payload["messages"]]
        if isinstance(payload, dict):
            payload = [payload]
        if not isinstance(payload, list):
            raise IngestError(f"unsupported payload type {type(payload).__name__}")
        out = []
        for record in payload:
            if not isinstance(record, dict):
                raise IngestError("records must be dicts")
            if "type" in record:
                out.append(record)  # translator format is native
            elif "object" in record:
                out.append(self._from_capture_message(record))
            else:
                raise IngestError(f"unrecognized record: {sorted(record)[:5]}")
        return out

    @staticmethod
    def _from_capture_message(message: Dict[str, Any]) -> Dict[str, Any]:
        obj = message.get("object")
        if obj == "dataflow":
            return {
                "type": "dataflow",
                "dataflow_tag": message["dataflow_tag"],
                "event": message.get("event"),
                "time": message.get("timestamp"),
            }
        if obj != "task":
            raise IngestError(f"unknown message object {obj!r}")
        status = message.get("status", "RUNNING")
        return {
            "type": "task",
            "dataflow_tag": message["dataflow_tag"],
            "transformation_tag": message.get("transformation_tag"),
            "task_id": message.get("id"),
            "status": status,
            "dependencies": message.get("dependency", {}).get("tags", []),
            "time": message.get("performance", {}).get("time"),
            "datasets": [
                {
                    "tag": item.get("tag"),
                    "direction": "input" if status == "RUNNING" else "output",
                    "derivations": item.get("dependency", []),
                    "elements": (item.get("elements") or [{}])[0],
                }
                for item in message.get("sets", ())
            ],
        }

    # -- queries ------------------------------------------------------------------
    def query(self, table: str) -> Query:
        """Start a :class:`~repro.dfanalyzer.query.Query` on a table."""
        return Query(self.store, table)

    def dataflow_summary(self, dataflow_tag: str) -> Dict[str, Any]:
        """Run-time view: task counts by status for one dataflow."""
        rows = self.query("tasks").where("dataflow_tag", "==", dataflow_tag).rows()
        by_status: Dict[str, int] = {}
        for row in rows:
            by_status[row["status"]] = by_status.get(row["status"], 0) + 1
        return {
            "dataflow": dataflow_tag,
            "tasks": len(rows),
            "by_status": by_status,
            "spec": self.specs.get(dataflow_tag).describe()
            if dataflow_tag in self.specs
            else None,
        }

