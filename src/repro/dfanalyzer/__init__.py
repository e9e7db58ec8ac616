"""DfAnalyzer-style provenance backend: columnar storage, dataflow
specifications, runtime ingestion and a query
engine including the paper's FL analysis queries.

The paper uses only DfAnalyzer's storage/query components (its capture
side is a baseline); the E2Clab Provenance Manager wires ProvLight's
translator output into this service.
"""

from .dataflow import AttributeSpec, DataflowSpec, DatasetSpec, TransformationSpec
from .ingestion import DfAnalyzerService, IngestError
from .queries import lineage_of, latest_epoch_metrics, task_durations, top_k_by_metric
from .query import AGGREGATES, Query, QueryError
from .store import ColumnStore, StoreError, Table

__all__ = [
    "ColumnStore",
    "Table",
    "StoreError",
    "Query",
    "QueryError",
    "AGGREGATES",
    "DataflowSpec",
    "DatasetSpec",
    "TransformationSpec",
    "AttributeSpec",
    "DfAnalyzerService",
    "IngestError",
    "top_k_by_metric",
    "latest_epoch_metrics",
    "task_durations",
    "lineage_of",
]
