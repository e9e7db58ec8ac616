"""Delivery envelope + replay dedup: the at-least-once -> exactly-once glue.

A durable capture client may send the same journaled payload more than
once (a retransmitted QoS exchange whose ack was lost, a replay after an
uplink partition, a crash-recovery replay of the whole journal).  To
make replays idempotent end-to-end, every durable payload travels inside
a tiny envelope frame carrying the client identity and the journal
sequence number::

    magic "PE" | version (1) | flags (1) | varint(len cid) | cid utf8
               | varint(seq) | inner payload...

The sink side (translator pool, CoAP capture server, HTTP collector)
peeks the envelope *without* decoding the inner payload, asks a
:class:`ReplayDeduper` whether ``(client_id, seq)`` was already ingested
and drops duplicates before paying any translate cost.  Non-durable
clients send bare payloads (magic ``PL``) which pass through untouched,
so the wire stays backward compatible.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Set, Tuple

__all__ = [
    "ENVELOPE_MAGIC",
    "EnvelopeError",
    "wrap_payload",
    "unwrap_payload",
    "ReplayDeduper",
]

ENVELOPE_MAGIC = b"PE"
ENVELOPE_VERSION = 1


class EnvelopeError(ValueError):
    """A payload carrying the envelope magic could not be parsed."""


def _encode_varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise EnvelopeError("truncated varint in envelope")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise EnvelopeError("varint overflow in envelope")


def wrap_payload(client_id: str, seq: int, payload: bytes) -> bytes:
    """Frame ``payload`` with its dedup identity."""
    cid = client_id.encode("utf-8")
    return (
        ENVELOPE_MAGIC
        + bytes((ENVELOPE_VERSION, 0))
        + _encode_varint(len(cid))
        + cid
        + _encode_varint(seq)
        + payload
    )


def unwrap_payload(data: bytes) -> Optional[Tuple[str, int, bytes]]:
    """``(client_id, seq, inner payload)`` for an enveloped payload,
    ``None`` for anything else (bare payloads pass through)."""
    if len(data) < 4 or data[:2] != ENVELOPE_MAGIC:
        return None
    if data[2] != ENVELOPE_VERSION:
        raise EnvelopeError(f"unsupported envelope version {data[2]}")
    cid_len, offset = _decode_varint(data, 4)
    if offset + cid_len > len(data):
        raise EnvelopeError("truncated client id in envelope")
    try:
        client_id = data[offset:offset + cid_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EnvelopeError("client id is not valid UTF-8") from exc
    seq, offset = _decode_varint(data, offset + cid_len)
    return client_id, seq, data[offset:]


class ReplayDeduper:
    """Tracks ``(client_id, seq)`` pairs already ingested.

    Per client it keeps a *floor* (every sequence number up to and
    including it has been seen) plus the sparse set of seen numbers
    above the floor; acked-in-order traffic therefore costs O(1) memory
    per client, and out-of-order replays only cost memory for the gap
    they straddle.

    :meth:`seen` and :meth:`mark` split the check from the record so a
    sink can check *before* translating but mark only *after* the
    backend accepted the batch — marking at check time would make a
    failed ingest drop the retried or replayed records as "duplicates".

    With ``state_path`` every mark is appended to a JSON-lines file and
    the index is rebuilt (then compacted) on construction, so a sink
    restart does not re-ingest records a durable client replays.
    """

    def __init__(self, state_path: Optional[str] = None):
        self._floor: Dict[str, int] = {}
        self._above: Dict[str, Set[int]] = {}
        self._state_path = state_path
        self._state_file = None
        if state_path is not None:
            self._recover(state_path)

    # ------------------------------------------------------------- queries
    def seen(self, client_id: str, seq: int) -> bool:
        """True when this pair was already marked (pure check)."""
        if seq <= self._floor.get(client_id, 0):
            return True
        above = self._above.get(client_id)
        return above is not None and seq in above

    def mark(self, client_id: str, seq: int) -> None:
        """Record the pair as ingested (idempotent)."""
        floor = self._floor.get(client_id, 0)
        if seq <= floor:
            return
        above = self._above.get(client_id)
        if above is None:
            above = self._above[client_id] = set()
        if seq in above:
            return
        above.add(seq)
        while floor + 1 in above:
            floor += 1
            above.discard(floor)
        self._floor[client_id] = floor
        if self._state_file is not None:
            self._state_file.write(json.dumps([client_id, seq]) + "\n")
            self._state_file.flush()

    def floor(self, client_id: str) -> int:
        """Highest contiguous sequence number seen for ``client_id``."""
        return self._floor.get(client_id, 0)

    # --------------------------------------------------------- persistence
    def _recover(self, state_path: str) -> None:
        """Rebuild the index from the append log, then compact it.

        The log is replayed line by line (a torn final line from a crash
        mid-append is skipped — its record was never acked as ingested
        either, so the replayed payload will simply be ingested again)
        and rewritten as one entry per client floor plus the sparse
        above-floor pairs.
        """
        if os.path.exists(state_path):
            with open(state_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # torn tail write: at-least-once covers it
                    if not isinstance(entry, list):
                        continue
                    if len(entry) == 3 and entry[0] == "floor":
                        # compacted floor line: every seq <= floor was seen
                        _, client_id, floor = entry
                        if floor > self._floor.get(client_id, 0):
                            self._floor[client_id] = floor
                            above = self._above.get(client_id)
                            if above is not None:
                                self._above[client_id] = {
                                    s for s in above if s > floor
                                }
                    elif len(entry) == 2:
                        client_id, seq = entry
                        self.mark(client_id, seq)
        tmp_path = state_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as fh:
            for client_id, floor in self._floor.items():
                if floor > 0:
                    fh.write(json.dumps(["floor", client_id, floor]) + "\n")
            for client_id, above in self._above.items():
                for seq in sorted(above):
                    fh.write(json.dumps([client_id, seq]) + "\n")
        os.replace(tmp_path, state_path)
        self._state_file = open(state_path, "a", encoding="utf-8")

    def close(self) -> None:
        """Close the persistence handle (state remains on disk)."""
        if self._state_file is not None:
            self._state_file.close()
            self._state_file = None

    def __repr__(self) -> str:
        return f"<ReplayDeduper clients={len(self._floor)}>"
