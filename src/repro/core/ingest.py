"""The one ingest path every capture sink shares (paper Fig. 5)."""

from __future__ import annotations

from typing import Optional

from ..calibration import SERVER_COSTS, ServerCosts
from ..capture.envelope import ReplayDeduper, unwrap_payload
from ..simkernel import Counter
from .translator import Translator

__all__ = ["IngestSink"]


class IngestSink:
    """Envelope unwrap → dedup → translate → backend → mark, written once.

    The MQTT-SN, CoAP and HTTP sinks differ only in how they schedule
    :meth:`prepare` and :meth:`deliver` (CPU charging, failure retry).
    With ``dedup_state_path`` the dedup index survives a sink restart.
    """

    def __init__(self, backend, target: str = "dfanalyzer", cipher=None,
                 costs: ServerCosts = SERVER_COSTS,
                 dedup_state_path: Optional[str] = None):
        self.backend = backend
        self.costs = costs
        self.translator = Translator(target, cipher=cipher)
        self.deduper = ReplayDeduper(state_path=dedup_state_path)
        self.records_ingested = Counter("records-ingested")
        self.translate_errors = Counter("translate-errors")
        self.duplicates_dropped = Counter("duplicates-dropped")

    def prepare(self, payloads):
        """Returns ``(groups, marks, work_s)``: the ``(records,
        translated)`` groups, the ``(client_id, seq)`` pairs they carry
        and the simulated translate work.

        The envelope is peeked before any translate cost is paid, and
        pairs already ingested or already in this batch are dropped.
        Malformed payloads are counted and skipped: wire bytes are
        untrusted and must never stop the sink.
        """
        costs = self.costs
        groups, marks, in_batch, work = [], [], set(), 0.0
        for payload in payloads:
            try:
                envelope = unwrap_payload(payload)
            except Exception:
                self.translate_errors.record()
                continue
            if envelope is not None:
                client_id, seq, payload = envelope
                pair = (client_id, seq)
                if self.deduper.seen(client_id, seq) or pair in in_batch:
                    self.duplicates_dropped.record()
                    continue
                in_batch.add(pair)
                marks.append(pair)
            try:
                records, translated = self.translator.translate_payload(payload)
            except Exception:
                self.translate_errors.record()
                continue
            work += costs.translate_per_message_s
            if len(records) > 1:
                work += costs.translate_group_fixed_s
            groups.append((records, translated))
        return groups, marks, work

    def deliver(self, groups, marks):
        """Generator: hand ``groups`` to the backend, then mark and count.

        There is no yield between the backend's return and the marks, so
        a crash cannot split accept from mark, and a backend exception
        propagates with nothing marked: a retry or a durable client's
        replay then ingests the records instead of dropping them.
        """
        ingest_batch = getattr(self.backend, "ingest_batch", None)
        if ingest_batch is not None:
            yield from ingest_batch([translated for _, translated in groups])
        else:
            for _records, translated in groups:
                yield from self.backend.ingest(translated)
        for client_id, seq in marks:
            self.deduper.mark(client_id, seq)
        for records, _translated in groups:
            self.records_ingested.record(len(records))
