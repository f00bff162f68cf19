"""Service clients: in-process, blocking TCP, and asyncio TCP.

Three ways to talk to the service, one :class:`Response` surface:

- :class:`ServiceClient` — in-process, wraps a
  :class:`~repro.serve.service.ComputeService` directly.  No sockets,
  no JSON: ops are built from live objects (numpy rows, ciphertexts)
  with the :mod:`repro.engine.ops` constructors and results come
  back raw.  The tool of choice for tests and benchmarks.
- :class:`TCPServiceClient` — blocking sockets, for scripts and the
  ``repro client`` CLI.  One call = submit + wait, but pipelining is
  available through :meth:`~TCPServiceClient.send` /
  :meth:`~TCPServiceClient.wait` (responses arrive completion-ordered
  and are matched by id).
- :class:`AsyncServiceClient` — asyncio, for many concurrent in-flight
  requests on one connection: a background reader task resolves one
  future per request id, so ``await client.submit(...)`` composes with
  ``asyncio.gather`` naturally.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.engine.ops import (
    ConvolveJob,
    DGHVMultJob,
    MultiplyJob,
    Op,
    RingTransformJob,
    RLWEMultiplyJob,
    RLWEMultiplyPlainJob,
)
from repro.serve.protocol import (
    ProtocolError,
    Response,
    recv_frame,
    read_frame,
    send_frame,
    submit_message,
    write_frame,
)
from repro.serve.service import ComputeService


class ServiceClient:
    """In-process client over a :class:`ComputeService`.

    ``submit`` returns the raw ``Future[Response]`` (open-loop load,
    concurrency); ``call`` blocks.  The op helpers below build the op
    and block — e.g. ``client.multiply([(a, b)]).result[0]``.
    """

    def __init__(self, service: ComputeService, *, tenant: str = "default"):
        self.service = service
        self.tenant = tenant

    def submit(
        self,
        op: Op,
        *,
        tenant: Optional[str] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        request_id=None,
    ):
        return self.service.submit(
            op,
            tenant=tenant if tenant is not None else self.tenant,
            priority=priority,
            timeout=timeout,
            request_id=request_id,
        )

    def call(self, op: Op, **kwargs) -> Response:
        return self.submit(op, **kwargs).result()

    def stats(self) -> dict:
        return self.service.stats()

    # -- op helpers --------------------------------------------------------

    def multiply(
        self, pairs: Sequence[Tuple[int, int]], **kwargs
    ) -> Response:
        return self.call(MultiplyJob(pairs), **kwargs)

    def ring_transform(
        self,
        n: int,
        values,
        *,
        inverse: bool = False,
        negacyclic: bool = False,
        radices=None,
        **kwargs,
    ) -> Response:
        return self.call(
            RingTransformJob(
                n,
                values,
                inverse=inverse,
                negacyclic=negacyclic,
                radices=radices,
            ),
            **kwargs,
        )

    def convolve(
        self, n: int, a, b, *, negacyclic: bool = False, **kwargs
    ) -> Response:
        return self.call(
            ConvolveJob(n, a, b, negacyclic=negacyclic), **kwargs
        )

    def dghv_mult(
        self, pairs, x0: Optional[int] = None, **kwargs
    ) -> Response:
        return self.call(DGHVMultJob(pairs, x0=x0), **kwargs)

    def rlwe_multiply_plain(
        self, params, ciphertexts, plains, **kwargs
    ) -> Response:
        return self.call(
            RLWEMultiplyPlainJob(params, ciphertexts, plains),
            **kwargs,
        )

    def rlwe_multiply(self, params, relin, pairs, **kwargs) -> Response:
        """Ciphertext-by-ciphertext products under ``relin`` keys
        (an :class:`repro.fhe.rlwe.RelinKeys` or a full key pair)."""
        return self.call(
            RLWEMultiplyJob(params, relin, pairs), **kwargs
        )


class TCPServiceClient:
    """Blocking-socket client speaking the length-prefixed framing.

    Not thread-safe; one instance per thread.  Out-of-order responses
    (the server answers completion-ordered) are cached internally and
    delivered by :meth:`wait`, so ``send``/``send``/``wait``/``wait``
    pipelines work regardless of which job finishes first.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tenant: str = "default",
        connect_timeout: Optional[float] = 10.0,
    ):
        self.tenant = tenant
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._sock.settimeout(None)
        self._ids = itertools.count(1)
        self._responses: Dict[Any, Response] = {}

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "TCPServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def ping(self) -> bool:
        send_frame(self._sock, {"type": "ping"})
        message = recv_frame(self._sock)
        return message is not None and message.get("type") == "pong"

    def stats(self) -> dict:
        request_id = f"stats-{next(self._ids)}"
        send_frame(self._sock, {"type": "stats", "id": request_id})
        while True:
            message = self._recv()
            if (
                message.get("type") == "stats"
                and message.get("id") == request_id
            ):
                return message.get("stats", {})

    def send(
        self,
        op: str,
        payload: dict,
        *,
        tenant: Optional[str] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
    ):
        """Pipeline one submit; returns the request id for :meth:`wait`."""
        request_id = next(self._ids)
        send_frame(
            self._sock,
            submit_message(
                op,
                payload,
                tenant=tenant if tenant is not None else self.tenant,
                priority=priority,
                timeout=timeout,
                request_id=request_id,
            ),
        )
        return request_id

    def wait(self, request_id) -> Response:
        """The response for one pipelined submit (any arrival order)."""
        cached = self._responses.pop(request_id, None)
        if cached is not None:
            return cached
        while True:
            message = self._recv()
            if message.get("type") != "response":
                continue
            response = Response.from_wire(message)
            if response.request_id == request_id:
                return response
            self._responses[response.request_id] = response

    def request(self, op: str, payload: dict, **kwargs) -> Response:
        """Submit one request and block for its response."""
        return self.wait(self.send(op, payload, **kwargs))

    def _recv(self) -> dict:
        message = recv_frame(self._sock)
        if message is None:
            raise ConnectionError("service closed the connection")
        if message.get("type") == "error":
            raise ProtocolError(str(message.get("error")))
        return message


class AsyncServiceClient:
    """Asyncio client: many concurrent requests on one connection.

    A background reader task matches ``response`` frames to per-request
    futures by id, so any number of ``await client.submit(...)``
    coroutines may be in flight at once (``asyncio.gather`` them).
    """

    def __init__(self, reader, writer, *, tenant: str = "default"):
        self.tenant = tenant
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._ids = itertools.count(1)
        self._waiters: Dict[Any, asyncio.Future] = {}
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tenant: str = "default",
    ) -> "AsyncServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, tenant=tenant)

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError(
            "service closed the connection"
        )
        try:
            while True:
                message = await read_frame(self._reader)
                if message is None:
                    break
                message_type = message.get("type")
                if message_type == "response":
                    waiter = self._waiters.pop(message.get("id"), None)
                    if waiter is not None and not waiter.done():
                        waiter.set_result(Response.from_wire(message))
                elif message_type == "stats":
                    waiter = self._waiters.pop(message.get("id"), None)
                    if waiter is not None and not waiter.done():
                        waiter.set_result(message.get("stats", {}))
                elif message_type == "error":
                    failure = ProtocolError(str(message.get("error")))
                    waiter = self._waiters.pop(message.get("id"), None)
                    if waiter is not None:
                        if not waiter.done():
                            waiter.set_exception(failure)
                    else:
                        error = failure
                        break
        except (ProtocolError, ConnectionError, OSError) as err:
            error = err
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        finally:
            for waiter in self._waiters.values():
                if not waiter.done():
                    waiter.set_exception(error)
            self._waiters.clear()

    def _register(self, request_id) -> asyncio.Future:
        waiter = asyncio.get_event_loop().create_future()
        self._waiters[request_id] = waiter
        return waiter

    async def submit(
        self,
        op: str,
        payload: dict,
        *,
        tenant: Optional[str] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> Response:
        request_id = next(self._ids)
        waiter = self._register(request_id)
        async with self._write_lock:
            await write_frame(
                self._writer,
                submit_message(
                    op,
                    payload,
                    tenant=(
                        tenant if tenant is not None else self.tenant
                    ),
                    priority=priority,
                    timeout=timeout,
                    request_id=request_id,
                ),
            )
        return await waiter

    async def stats(self) -> dict:
        request_id = f"stats-{next(self._ids)}"
        waiter = self._register(request_id)
        async with self._write_lock:
            await write_frame(
                self._writer, {"type": "stats", "id": request_id}
            )
        return await waiter

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


__all__ = [
    "ServiceClient",
    "TCPServiceClient",
    "AsyncServiceClient",
]
