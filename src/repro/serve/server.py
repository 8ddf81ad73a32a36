"""Transports: asyncio TCP server (NDJSON + HTTP) and clients.

The network face of :class:`~repro.serve.service.PredictionService`,
hand-rolled on :func:`asyncio.start_server` — no ``http.server``, no
threads.  One listener speaks two protocols, sniffed from the first
line of each connection:

* **NDJSON** (the native protocol): one request envelope per line, one
  response envelope per line, pipelined — a client may write many
  requests before reading; responses carry the request's ``id`` and
  may arrive out of submission order (batching reorders).
* **HTTP/1.1** (curl-friendly): ``POST /v1/query`` with a JSON
  envelope body, ``GET /healthz`` for liveness, ``GET /v1/platforms``
  for the catalog.  Connections are ``Connection: close``.

:class:`ServeClient` is the in-process client — it submits directly to
the service and is what the load generator and most tests use;
:class:`TcpServeClient` is the one socket client: pipelined NDJSON, used
by ``query --connect`` and as the fleet router's worker link.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Set, Tuple

from . import api
from .service import PredictionService

#: Largest accepted request line/body in bytes (anti-foot-gun bound);
#: also the server's ``StreamReader`` limit, so a longer NDJSON line is
#: answered with a ``request-too-large`` 400 instead of breaking the read.
MAX_REQUEST_BYTES = 1 << 20

#: Largest reply line :class:`TcpServeClient` reads.  The largest reply
#: is a sweep's: each requested server count (at least two request
#: bytes, ``1,``) comes back with a time and a speedup of at most 24
#: bytes each, so it stays under 25 times ``MAX_REQUEST_BYTES``.
MAX_REPLY_BYTES = 32 * MAX_REQUEST_BYTES

#: Seconds a refused connection keeps discarding input before closing,
#: so the kernel does not reset it (and drop the 400) over unread data.
LINGER_SECONDS = 1.0

#: Seconds :meth:`TcpServeClient.connect` waits for the server to accept.
CONNECT_TIMEOUT = 10.0


class ServeClient:
    """In-process client: zero-copy path straight into the service."""

    def __init__(self, service: PredictionService) -> None:
        self.service = service

    async def request(self, envelope: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one envelope and await its response."""
        return await self.service.submit(envelope)

    async def ping(self) -> bool:
        """Liveness probe."""
        response = await self.request({"kind": "ping", "id": "ping"})
        return api.is_ok(response)


class TcpServeClient:
    """Pipelined NDJSON client over one TCP connection.

    Requests are written with a link-local id (``f<seq>``), a single
    reader task resolves each reply line to its waiter, and the
    original envelope id is restored before the response returns — so
    concurrent requests share one socket and survive the server's
    out-of-order (batched) replies.  EOF or reset fails every pending
    request with :class:`ConnectionError`; the fleet router treats that
    as a worker death, which is why its worker links are this client.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self._pending: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._seq = 0
        self._closed = False

    @property
    def alive(self) -> bool:
        """Whether the link is connected and the reader loop is live."""
        return self._writer is not None and not self._closed

    async def connect(self) -> None:
        """Open the socket and start the reply reader (idempotent)."""
        if self._writer is not None:
            return
        reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port, limit=MAX_REPLY_BYTES),
            CONNECT_TIMEOUT,
        )
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_replies(reader)
        )

    async def __aenter__(self) -> "TcpServeClient":
        """Async context manager: connect on enter."""
        await self.connect()
        return self

    async def __aexit__(self, *exc: object) -> None:
        """Async context manager: close on exit."""
        await self.close()

    async def _read_replies(self, reader: asyncio.StreamReader) -> None:
        """Resolve reply lines to their waiters until EOF/reset."""
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # a line over MAX_REPLY_BYTES ends the link
                    break
                if not line:
                    break
                try:
                    reply = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn line; its waiter fails at link death
                waiter = self._pending.pop(str(reply.get("id", "")), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(reply)
        except (ConnectionError, OSError):
            pass
        finally:
            self._closed = True
            for waiter in self._pending.values():
                if not waiter.done():
                    waiter.set_exception(
                        ConnectionError(f"connection to {self.host}:{self.port} lost")
                    )
            self._pending.clear()

    async def ping(self) -> bool:
        """Heartbeat probe (the router wraps this in ``wait_for``)."""
        response = await self.request({"kind": "ping", "id": "hb", "client": "router"})
        return api.is_ok(response)

    async def request(self, envelope: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one envelope and await its response."""
        if not self.alive:
            raise ConnectionError(f"connection to {self.host}:{self.port} is down")
        assert self._writer is not None
        if self._writer.transport.is_closing():
            # the socket died but the reader loop hasn't seen EOF yet;
            # failing here keeps asyncio from logging every dead write
            raise ConnectionError(
                f"connection to {self.host}:{self.port} is closing"
            )
        self._seq += 1
        link_id = f"f{self._seq}"
        waiter: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[link_id] = waiter
        try:
            self._writer.write(
                api.canonical(dict(envelope, id=link_id)).encode("utf-8") + b"\n"
            )
            await self._writer.drain()
            reply = await waiter
        finally:
            self._pending.pop(link_id, None)
        return dict(reply, id=str(envelope.get("id", "")))

    async def close(self) -> None:
        """Stop the reader and close the socket (idempotent)."""
        self._closed = True
        task, writer = self._reader_task, self._writer
        self._reader_task = self._writer = None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


class ServeServer:
    """The asyncio TCP listener wrapping one service instance."""

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> int:
        """The actually bound port (resolves ``port=0`` after start)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Start the service and begin listening."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_REQUEST_BYTES
        )

    async def stop(self) -> None:
        """Stop listening, drain in-flight work, stop the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def __aenter__(self) -> "ServeServer":
        """Async context manager: start on enter."""
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        """Async context manager: stop on exit."""
        await self.stop()

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's foreground mode)."""
        assert self._server is not None
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Sniff the protocol from the first line and dispatch."""
        try:
            try:
                first = await reader.readline()
            except ValueError:  # over the reader limit, MAX_REQUEST_BYTES
                await self._refuse_oversized(reader, writer)
                return
            if not first:
                return
            if first.startswith((b"POST ", b"GET ", b"HEAD ")):
                await self._handle_http(first, reader, writer)
            else:
                await self._handle_ndjson(first, reader, writer)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):  # pragma: no cover
                pass

    # -- NDJSON ---------------------------------------------------------
    async def _handle_ndjson(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One envelope per line; responses written as they complete.

        Only unanswered lines hold a task: each leaves ``inflight`` as it
        completes, so a long-lived connection keeps no per-line history.
        """
        inflight: Set["asyncio.Task[None]"] = set()
        lock = asyncio.Lock()

        async def answer(line: bytes) -> None:
            try:
                envelope = json.loads(line)
            except ValueError:  # not JSON, or not UTF-8 at all
                response = api.error_response(
                    "", api.BAD_REQUEST, "invalid-json", "unparseable request line"
                )
            else:
                response = await self.service.submit(envelope)
            async with lock:  # one response line at a time
                writer.write(api.canonical(response).encode("utf-8") + b"\n")
                await writer.drain()

        def settle(task: "asyncio.Task[None]") -> None:
            inflight.discard(task)
            if not task.cancelled():
                task.exception()  # retrieved: a dead socket ends the connection quietly

        line = first
        oversized = False
        while line:
            stripped = line.strip()
            if stripped:
                task = asyncio.get_running_loop().create_task(answer(stripped))
                inflight.add(task)
                task.add_done_callback(settle)
            try:
                line = await reader.readline()
            except ValueError:  # over the reader limit, MAX_REQUEST_BYTES
                oversized = True
                break
        if inflight:
            await asyncio.wait(inflight)
        if oversized:
            await self._refuse_oversized(reader, writer)

    @classmethod
    async def _refuse_oversized(
        cls, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer a line over ``MAX_REQUEST_BYTES`` with a 400, then linger."""
        response = api.error_response(
            "", api.BAD_REQUEST, "request-too-large",
            f"request lines are limited to {MAX_REQUEST_BYTES} bytes",
        )
        writer.write(api.canonical(response).encode("utf-8") + b"\n")
        await writer.drain()
        await cls._linger(reader, writer)

    @staticmethod
    async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Half-close, then discard input until EOF (at most ``LINGER_SECONDS``),
        so closing over an unread request does not reset away the reply."""
        writer.write_eof()

        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        try:
            await asyncio.wait_for(discard(), LINGER_SECONDS)
        except asyncio.TimeoutError:
            pass

    # -- HTTP -----------------------------------------------------------
    async def _handle_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP/1.1: one request, one JSON response, close."""
        try:
            method, target, _version = first.decode("latin-1").split(" ", 2)
        except ValueError:
            await self._http_reply(
                writer,
                api.BAD_REQUEST,
                api.error_response("", api.BAD_REQUEST, "bad-request-line"),
            )
            return
        try:
            headers = await self._read_headers(reader)
        except ValueError:  # a header line or block over MAX_REQUEST_BYTES
            response = api.error_response("", api.BAD_REQUEST, "request-too-large")
            await self._http_reply(writer, api.BAD_REQUEST, response)
            await self._linger(reader, writer)
            return
        if method == "GET" and target == "/healthz":
            await self._http_reply(writer, api.OK, {"status": "ok"})
            return
        if method == "GET" and target == "/v1/platforms":
            response = await self.service.submit(
                {"kind": "platforms", "id": "http"}
            )
            await self._http_reply(writer, response["status"], response)
            return
        if method == "POST" and target == "/v1/query":
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:  # not a number: refused like a missing one
                length = 0
            if length <= 0 or length > MAX_REQUEST_BYTES:
                await self._http_reply(
                    writer,
                    api.BAD_REQUEST,
                    api.error_response(
                        "", api.BAD_REQUEST, "invalid-length",
                        "POST /v1/query needs a JSON body with Content-Length",
                    ),
                )
                await self._linger(reader, writer)
                return
            body = await reader.readexactly(length)
            try:
                envelope = json.loads(body)
            except ValueError:  # not JSON, or not UTF-8 at all
                await self._http_reply(
                    writer,
                    api.BAD_REQUEST,
                    api.error_response("", api.BAD_REQUEST, "invalid-json"),
                )
                return
            response = await self.service.submit(envelope)
            await self._http_reply(writer, response["status"], response)
            return
        await self._http_reply(
            writer,
            api.NOT_FOUND,
            api.error_response(
                "", api.NOT_FOUND, "unknown-endpoint",
                f"no handler for {method} {target}",
            ),
        )

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
        """Read HTTP headers up to the blank line (names lowercased);
        ``ValueError`` if a line or the block is over ``MAX_REQUEST_BYTES``."""
        headers: Dict[str, str] = {}
        size = 0
        while True:
            line = await reader.readline()
            size += len(line)
            if size > MAX_REQUEST_BYTES:
                raise ValueError(f"header block over {MAX_REQUEST_BYTES} bytes")
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    @staticmethod
    async def _http_reply(
        writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> None:
        """Write one JSON response and flush."""
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   429: "Too Many Requests", 500: "Internal Server Error",
                   504: "Gateway Timeout"}
        body = api.canonical(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


async def _http_exchange(
    host: str, port: int, head: str, body: bytes = b""
) -> Tuple[int, Dict[str, Any]]:
    """Send one HTTP request; returns ``(status, decoded JSON body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = await ServeServer._read_headers(reader)
        length = int(headers.get("content-length", "0"))
        payload = await reader.readexactly(length) if length else b"{}"
        return status, json.loads(payload)
    finally:
        writer.close()
        await writer.wait_closed()


async def http_get(host: str, port: int, path: str) -> Tuple[int, Dict[str, Any]]:
    """Tiny HTTP GET helper (tests and the CLI's health probe)."""
    return await _http_exchange(
        host, port, f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n"
    )


async def http_post(
    host: str, port: int, path: str, payload: Dict[str, Any]
) -> Tuple[int, Dict[str, Any]]:
    """Tiny HTTP POST helper (tests and ``repro serve query --http``)."""
    body = api.canonical(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return await _http_exchange(host, port, head, body)
