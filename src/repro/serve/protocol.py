"""Wire protocol of the :mod:`repro.serve` compute service.

The service speaks **length-prefixed JSON** over a byte stream: every
message is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  JSON is a deliberate choice for an FHE service
front end: Python's ``json`` round-trips arbitrary-precision integers
exactly, so γ-bit DGHV ciphertexts and 64-bit field coefficients travel
without any base64/hex detour, and every frame stays inspectable with
``nc`` + ``python -m json.tool``.

Message vocabulary (the ``type`` field):

``submit``
    ``{"type": "submit", "id": ..., "tenant": ..., "op": ...,
    "priority": 0, "timeout": null, "payload": {...}}`` — queue one
    request; the service answers with a ``response`` frame carrying the
    same ``id``.  Responses are **not** ordered: a connection may
    pipeline many submits and receive completions as they land.
``stats``
    ``{"type": "stats", "id": ...}`` — the metrics-registry snapshot.
``ping``
    liveness probe, answered with ``{"type": "pong"}``.

Response status values are typed, not stringly ad hoc:

- :data:`STATUS_OK` — ``result`` holds the op's output;
- :data:`STATUS_REJECTED` — admission control refused the request
  (queue caps); ``error`` names the exhausted bound.  The request was
  **never queued** — backpressure is bounded by construction;
- :data:`STATUS_TIMEOUT` — the request's deadline expired (in queue or
  while its batch ran);
- :data:`STATUS_ERROR` — the job failed; ``error_type`` carries the
  exception class name and ``fault_events`` whatever the resilience
  runtime recorded (worker crashes, respawns, retries, dead-letter).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.engine.ops import ProtocolError

#: Frame length prefix: 4-byte big-endian unsigned length.
_LENGTH = struct.Struct(">I")

#: Upper bound on one frame's body.  64 MiB comfortably fits a batch of
#: paper-sized (786432-bit) operands while bounding what one client can
#: make the server buffer.
MAX_FRAME_BYTES = 64 * 1024 * 1024

STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"


# -- framing ---------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    """One wire frame: length prefix + compact JSON body."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """The JSON object inside one frame body."""
    try:
        message = json.loads(body.decode("utf-8"))
    except ValueError as error:
        # Bad UTF-8, bad JSON, or an integer past Python's int-string
        # digit limit — all answered with a typed error frame.
        raise ProtocolError(f"frame body is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one frame from an asyncio stream (``None`` on clean EOF)."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-length-prefix") from None
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_body(body)


async def write_frame(
    writer: asyncio.StreamWriter, message: dict
) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(encode_frame(message))
    await writer.drain()


def send_frame(sock: socket.socket, message: dict) -> None:
    """Blocking-socket counterpart of :func:`write_frame`."""
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Blocking-socket counterpart of :func:`read_frame`."""

    def read_exactly(count: int) -> Optional[bytes]:
        chunks = []
        remaining = count
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    prefix = read_exactly(_LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length)
    body = read_exactly(length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_body(body)


# -- responses -------------------------------------------------------------


@dataclass
class Response:
    """One request's typed outcome.

    ``result`` holds the op's *raw* (in-process) output on the server
    side — numpy rows, ciphertext objects — and the JSON-decoded form
    on a TCP client.  ``coalesced`` is how many requests shared the
    batched engine pass that produced this response (1 = ran alone);
    ``queue_wait_s`` / ``latency_s`` split where the time went.
    """

    status: str
    request_id: Optional[object] = None
    result: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    fault_events: List[str] = field(default_factory=list)
    dead_lettered: bool = False
    coalesced: int = 0
    queue_wait_s: float = 0.0
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        return self.status == STATUS_REJECTED

    def to_wire(self, encoded_result: Any = None) -> dict:
        """The JSON ``response`` frame for this outcome.

        ``encoded_result`` is the op's JSON encoding of :attr:`result`
        (the raw result may hold numpy arrays or ciphertext objects).
        """
        message: dict = {
            "type": "response",
            "id": self.request_id,
            "status": self.status,
            "coalesced": self.coalesced,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "latency_s": round(self.latency_s, 6),
        }
        if self.status == STATUS_OK:
            message["result"] = encoded_result
        else:
            message["error"] = self.error
            if self.error_type:
                message["error_type"] = self.error_type
            if self.dead_lettered:
                message["dead_lettered"] = True
        if self.fault_events:
            message["fault_events"] = list(self.fault_events)
        return message

    @classmethod
    def from_wire(cls, message: dict) -> "Response":
        """Decode a ``response`` frame (TCP-client side)."""
        if message.get("type") != "response":
            raise ProtocolError(
                f"expected a response frame, got {message.get('type')!r}"
            )
        return cls(
            status=message.get("status", STATUS_ERROR),
            request_id=message.get("id"),
            result=message.get("result"),
            error=message.get("error"),
            error_type=message.get("error_type"),
            fault_events=list(message.get("fault_events", ())),
            dead_lettered=bool(message.get("dead_lettered", False)),
            coalesced=int(message.get("coalesced", 0)),
            queue_wait_s=float(message.get("queue_wait_s", 0.0)),
            latency_s=float(message.get("latency_s", 0.0)),
        )


def submit_message(
    op: str,
    payload: dict,
    *,
    tenant: str = "default",
    priority: int = 0,
    timeout: Optional[float] = None,
    request_id: Optional[object] = None,
) -> dict:
    """A well-formed ``submit`` frame body."""
    message: dict = {
        "type": "submit",
        "id": request_id,
        "tenant": tenant,
        "op": op,
        "priority": priority,
        "payload": payload,
    }
    if timeout is not None:
        message["timeout"] = timeout
    return message


__all__ = [
    "MAX_FRAME_BYTES",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_TIMEOUT",
    "STATUS_ERROR",
    "ProtocolError",
    "encode_frame",
    "decode_body",
    "read_frame",
    "write_frame",
    "send_frame",
    "recv_frame",
    "Response",
    "submit_message",
]
