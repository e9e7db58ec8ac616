"""UDP datagram sockets over the simulated network.

Faithful to the properties the paper's design exploits: ``sendto`` never
blocks on the network (fire-and-forget — the reason ProvLight's publish
path stays off the workflow's critical path), datagrams may be lost or
reordered, and there is no connection state.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..simkernel import Store
from .packet import Endpoint, Packet, UDP_HEADER_BYTES

__all__ = ["UdpSocket"]


class UdpSocket:
    """A bound UDP socket on one host."""

    def __init__(self, host: "Host", port: int):  # noqa: F821
        self.host = host
        self.port = port
        self._inbox: Store = Store(host.env)
        self.closed = False

    # -- sending ---------------------------------------------------------------
    def sendto(self, payload: bytes, dest: Endpoint) -> Packet:
        """Send a datagram; returns the packet (already on its way)."""
        if self.closed:
            raise RuntimeError("socket is closed")
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError("UDP payload must be bytes")
        packet = Packet(
            src=(self.host.name, self.port),
            dst=dest,
            protocol="udp",
            payload=bytes(payload),
            header_bytes=UDP_HEADER_BYTES,
        )
        self.host.network.send(packet)
        return packet

    # -- receiving -----------------------------------------------------------
    def recv(self):
        """Event yielding ``(payload, source_endpoint)`` for one datagram."""
        if self.closed:
            raise RuntimeError("socket is closed")
        return self._inbox.get()

    def recv_pending(self, limit: Optional[int] = None):
        """Datagrams already buffered, as ``[(payload, source), ...]``.

        Non-blocking: returns at most ``limit`` entries (all when None),
        possibly none.  Lets a server drain every datagram that queued
        while it was servicing the previous one — one wakeup, one batch.
        """
        if self.closed:
            raise RuntimeError("socket is closed")
        return self._inbox.drain_pending(limit)

    @property
    def pending(self) -> int:
        """Datagrams waiting in the receive buffer."""
        return len(self._inbox.items)

    def _deliver(self, packet: Packet) -> None:
        if not self.closed:
            self._inbox.put_nowait((packet.payload, packet.src))

    def close(self) -> None:
        """Unbind the socket; further sends/recvs raise."""
        if not self.closed:
            self.closed = True
            self.host._unbind_udp(self.port)

    def __repr__(self) -> str:
        return f"<UdpSocket {self.host.name}:{self.port}>"
