"""The compute service: engine + fair scheduler + asyncio TCP front.

:class:`ComputeService` is the in-process composition root — it owns an
:class:`~repro.engine.jobs.JobScheduler` (and, unless handed an
existing engine, the engine behind it), a
:class:`~repro.serve.scheduler.ServiceScheduler` and a
:class:`~repro.serve.metrics.MetricsRegistry`, and exposes exactly
three verbs: ``submit`` (a future over a typed
:class:`~repro.serve.protocol.Response`), ``stats`` (the metrics
snapshot) and ``shutdown`` (drain-or-reject, then
:meth:`JobScheduler.drain` to surface dead-letters).

:class:`ServiceServer` is the asyncio shell: one coroutine per
connection reads length-prefixed JSON frames, decodes ops, submits
them, and writes each ``response`` frame back *as its job lands* — a
connection may pipeline many submits and receives completions out of
order, matched by ``id``.  All compute runs on the service's dispatcher
thread(s); the event loop only parses, queues and serializes, so a slow
job never blocks another client's admission or a ``stats`` probe.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Callable, List, Optional

from repro.engine.jobs import JobHandle, JobScheduler
from repro.serve.metrics import MetricsRegistry
from repro.engine.ops import Op, decode_op
from repro.serve.protocol import (
    STATUS_ERROR,
    ProtocolError,
    Response,
    read_frame,
    write_frame,
)
from repro.serve.scheduler import ServiceConfig, ServiceScheduler


class ComputeService:
    """One served engine: fair scheduling, admission, metrics.

    Parameters
    ----------
    source:
        Forwarded to :class:`~repro.engine.jobs.JobScheduler` — an
        ``Engine``, an ``ExecutionConfig``, or ``None`` for a default
        software engine the service owns and closes.
    backend:
        Backend name when the service builds its own engine
        (``software``, ``software-mp``, ``hw-model``).
    config:
        The :class:`~repro.serve.scheduler.ServiceConfig` knob block.
    """

    def __init__(
        self,
        source=None,
        *,
        backend: Optional[str] = None,
        config: Optional[ServiceConfig] = None,
    ):
        self.jobs = JobScheduler(source, backend=backend)
        self.config = config if config is not None else ServiceConfig()
        self.metrics = MetricsRegistry(
            batch_item_budget=self.config.max_coalesce_items
        )
        self.scheduler = ServiceScheduler(
            self.jobs, self.config, self.metrics
        )
        self._closed = False

    # -- the three verbs ---------------------------------------------------

    def submit(
        self,
        op: Op,
        *,
        tenant: str = "default",
        priority: int = 0,
        timeout: Optional[float] = None,
        request_id=None,
    ):
        """Admit one op; returns a ``Future[Response]`` immediately."""
        return self.scheduler.submit(
            tenant,
            op,
            priority=priority,
            timeout=timeout,
            request_id=request_id,
        )

    def stats(self) -> dict:
        """The metrics-registry snapshot (the ``stats`` RPC body)."""
        return self.metrics.snapshot()

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> List[JobHandle]:
        """Stop the service; returns the engine queue's dead-letters.

        Admission closes first (late submits get typed ``REJECTED``
        responses), then the service queue drains (or is rejected,
        ``drain=False``), then :meth:`JobScheduler.drain` flushes the
        engine queue so every in-flight job reaches a terminal state
        and its dead-letter — if that is how it ended — is surfaced
        here instead of vanishing into a closed pool.  Idempotent.
        """
        if self._closed:
            return []
        self._closed = True
        self.scheduler.stop(drain=drain, timeout=timeout)
        dead = self.jobs.drain(timeout=timeout)
        self.jobs.shutdown(wait=True)
        return dead

    def __enter__(self) -> "ComputeService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ServiceServer:
    """Asyncio TCP front end over one :class:`ComputeService`.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  ``max_requests`` — mainly for CI smoke runs —
    stops the server once that many ``submit`` frames have been
    answered.
    """

    def __init__(
        self,
        service: ComputeService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_requests: Optional[int] = None,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._remaining = max_requests
        self._server: Optional[asyncio.AbstractServer] = None
        self._done: Optional[asyncio.Event] = None

    async def start(self) -> "ServiceServer":
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_done(self) -> None:
        """Serve until :meth:`request_stop` (or ``max_requests``)."""
        assert self._server is not None and self._done is not None
        async with self._server:
            await self._server.start_serving()
            await self._done.wait()

    def request_stop(self) -> None:
        if self._done is not None:
            self._done.set()

    # -- connection handling -----------------------------------------------

    def _count_request(self) -> None:
        if self._remaining is not None:
            self._remaining -= 1
            if self._remaining <= 0:
                self.request_stop()

    async def _handle_connection(self, reader, writer) -> None:
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except ProtocolError as error:
                    async with write_lock:
                        await write_frame(
                            writer,
                            {"type": "error", "error": str(error)},
                        )
                    break
                if message is None:
                    break
                message_type = message.get("type")
                if message_type == "ping":
                    async with write_lock:
                        await write_frame(writer, {"type": "pong"})
                elif message_type == "stats":
                    async with write_lock:
                        await write_frame(
                            writer,
                            {
                                "type": "stats",
                                "id": message.get("id"),
                                "stats": self.service.stats(),
                            },
                        )
                elif message_type == "submit":
                    # Per-request coroutine: the connection keeps
                    # reading (pipelining) while jobs run; responses
                    # land as they complete, matched by id.
                    task = asyncio.ensure_future(
                        self._respond(message, writer, write_lock)
                    )
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                else:
                    async with write_lock:
                        await write_frame(
                            writer,
                            {
                                "type": "error",
                                "id": message.get("id"),
                                "error": (
                                    "unknown message type "
                                    f"{message_type!r}"
                                ),
                            },
                        )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # loop teardown cancels close handshakes

    async def _respond(self, message, writer, write_lock) -> None:
        request_id = message.get("id")
        try:
            op = decode_op(
                str(message.get("op")), message.get("payload")
            )
            tenant = str(message.get("tenant", "default"))
            priority = message.get("priority", 0)
            if not isinstance(priority, int) or isinstance(
                priority, bool
            ):
                raise ProtocolError("priority must be an integer")
            timeout = message.get("timeout")
            if timeout is not None and (
                not isinstance(timeout, (int, float))
                or isinstance(timeout, bool)
            ):
                raise ProtocolError("timeout must be a number")
        except ProtocolError as error:
            response = Response(
                status=STATUS_ERROR,
                request_id=request_id,
                error=str(error),
                error_type=ProtocolError.__name__,
            )
        else:
            future = self.service.submit(
                op,
                tenant=tenant,
                priority=priority,
                timeout=timeout,
                request_id=request_id,
            )
            response = await asyncio.wrap_future(future)
        try:
            async with write_lock:
                try:
                    await write_frame(
                        writer,
                        response.to_wire(
                            op.encode_result(response.result)
                            if response.ok
                            else None
                        ),
                    )
                except ValueError as error:
                    # The result does not fit the wire (an integer past
                    # the int-string digit limit, a frame past
                    # MAX_FRAME_BYTES): nothing was written, so answer
                    # the request with a typed error instead.
                    failed = replace(
                        response,
                        status=STATUS_ERROR,
                        result=None,
                        error=f"result cannot be encoded: {error}",
                        error_type=ProtocolError.__name__,
                    )
                    await write_frame(writer, failed.to_wire())
        except (ConnectionError, OSError):
            pass  # client went away; the job's work is already done
        self._count_request()


def run_server(
    source=None,
    *,
    backend: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServiceConfig] = None,
    max_requests: Optional[int] = None,
    on_ready: Optional[Callable[[ServiceServer], None]] = None,
) -> ComputeService:
    """Build a service, serve TCP until stopped, shut down cleanly.

    The blocking entry point behind ``repro serve``: ``on_ready`` fires
    once the socket is bound (with the resolved port), Ctrl-C is a
    clean drain-and-exit, and the service (engine pool included) is
    shut down before returning.
    """
    service = ComputeService(source, backend=backend, config=config)

    async def main() -> None:
        server = ServiceServer(
            service, host=host, port=port, max_requests=max_requests
        )
        await server.start()
        if on_ready is not None:
            on_ready(server)
        await server.serve_until_done()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return service


__all__ = ["ComputeService", "ServiceServer", "run_server"]
