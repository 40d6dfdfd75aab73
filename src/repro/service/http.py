"""Asyncio HTTP front door: submit, poll, stream, cancel, observe.

A deliberately small stdlib-only HTTP/1.1 server (``asyncio.start_server``
plus a hand-rolled request parser — the repository adds no dependencies)
exposing the :class:`~repro.service.core.ExperimentService`:

====================  =====================================================
``POST /jobs``        submit an ExperimentSpec JSON; 202 with the job id
                      (409-free: an identical in-flight spec dedupes)
``GET /jobs/{id}``    poll: state, timestamps, and the result when done
``GET /jobs/{id}/events``  stream the event log as NDJSON (one JSON object
                      per line; sweeps stream per-point results live)
``DELETE /jobs/{id}`` cooperative cancel; queued batch groups are dropped
``GET /metrics``      queue depth, p50/p99 latency, cache hit rate, ...
``GET /healthz``      liveness
====================  =====================================================

Error discipline: a malformed or hostile spec is a 400 with the parser's
client-safe message, a full tenant backlog is a 429, an unknown id a 404
— and *anything* unexpected is a 500 with the constant body
``{"error": "internal server error"}``.  No path returns a stack trace.

:class:`ServiceServer` wraps the event loop in a background thread with a
context-manager lifecycle, which is how the tests, the example client,
and the benchmark drive a real server over real sockets in-process.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading

from .core import ExperimentService
from .queue import QuotaExceeded
from .specparse import SpecError

__all__ = ["ServiceServer", "serve"]

_log = logging.getLogger("repro.service.http")

_MAX_HEADER_BYTES = 64 * 1024
_STREAM_POLL_SECONDS = 0.25


class _HttpError(Exception):
    """An error with a status code and a client-safe message."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _response(status: int, payload: dict, extra_headers: tuple = ()) -> bytes:
    body = json.dumps(payload).encode()
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
        *extra_headers,
        "",
        "",
    ]
    return "\r\n".join(head).encode() + body


class _Request:
    """One parsed request: method, path segments, JSON body."""

    __slots__ = ("method", "path", "body")

    def __init__(self, method: str, path: str, body: bytes):
        self.method = method
        self.path = path
        self.body = body

    def json(self):
        if not self.body:
            raise _HttpError(400, "request body must be JSON")
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError):
            raise _HttpError(400, "request body is not valid JSON") from None


async def _read_request(reader, max_body: int) -> _Request | None:
    """Parse one HTTP/1.1 request; None on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _HttpError(400, "truncated request") from None
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "request headers too large") from None
    if len(head) > _MAX_HEADER_BYTES:
        raise _HttpError(413, "request headers too large")
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, path, _version = lines[0].split(" ", 2)
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    length = 0
    for line in lines[1:]:
        if ":" not in line:
            continue
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise _HttpError(400, "malformed Content-Length") from None
    if length < 0 or length > max_body:
        raise _HttpError(413, f"request body exceeds {max_body} bytes")
    body = await reader.readexactly(length) if length else b""
    return _Request(method.upper(), path.split("?", 1)[0], body)


class _Router:
    """Dispatches parsed requests onto one service."""

    def __init__(self, service: ExperimentService):
        self.service = service

    async def handle(self, reader, writer) -> None:
        try:
            try:
                request = await _read_request(reader, self.service.config.max_body_bytes)
                if request is None:
                    return
                await self.dispatch(request, writer)
            except _HttpError as exc:
                writer.write(_response(exc.status, {"error": exc.message}))
            except (SpecError, ValueError) as exc:
                writer.write(_response(400, {"error": str(exc)}))
            except QuotaExceeded as exc:
                writer.write(_response(429, {"error": str(exc)}))
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            except Exception:
                _log.exception("unhandled error serving request")
                writer.write(_response(500, {"error": "internal server error"}))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def dispatch(self, request: _Request, writer) -> None:
        segments = [s for s in request.path.split("/") if s]
        if request.path == "/healthz" and request.method == "GET":
            writer.write(_response(200, self.service.health()))
            return
        if request.path == "/metrics" and request.method == "GET":
            writer.write(_response(200, self.service.metrics_snapshot()))
            return
        if segments[:1] == ["jobs"]:
            await self._jobs(request, segments[1:], writer)
            return
        raise _HttpError(404, f"no such path: {request.path}")

    async def _jobs(self, request: _Request, rest: list, writer) -> None:
        if not rest:
            if request.method != "POST":
                raise _HttpError(405, "job collection accepts POST only")
            payload = request.json()
            record, deduped = self.service.submit(payload)
            writer.write(_response(202, {
                "job_id": record.job_id,
                "state": record.state,
                "deduped": deduped,
            }))
            return
        job_id = rest[0]
        record = self.service.get(job_id)
        if record is None:
            raise _HttpError(404, f"no such job: {job_id}")
        if len(rest) == 1:
            if request.method == "GET":
                writer.write(_response(200, record.to_dict()))
                return
            if request.method == "DELETE":
                self.service.cancel(job_id)
                writer.write(_response(200, {
                    "job_id": job_id,
                    "state": record.state,
                }))
                return
            raise _HttpError(405, "job accepts GET or DELETE")
        if rest[1:] == ["events"] and request.method == "GET":
            await self._stream(record, writer)
            return
        raise _HttpError(404, f"no such path: {request.path}")

    async def _stream(self, record, writer) -> None:
        """NDJSON event stream: replays the log, then follows it live."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        loop = asyncio.get_running_loop()
        changed = asyncio.Event()
        record.add_waker(lambda: loop.call_soon_threadsafe(changed.set))
        cursor = 0
        while True:
            chunk, cursor, finished = record.events_since(cursor)
            for event in chunk:
                writer.write(json.dumps(event).encode() + b"\n")
            if chunk:
                await writer.drain()
            if finished:
                return
            # The waker is the fast path; the timeout is a backstop for
            # events published before the waker was registered.
            try:
                await asyncio.wait_for(changed.wait(), timeout=_STREAM_POLL_SECONDS)
            except (asyncio.TimeoutError, TimeoutError):
                pass
            changed.clear()


async def serve(service: ExperimentService, host: str = "127.0.0.1", port: int = 0):
    """Start the service workers and the HTTP listener; returns the server."""
    await service.start()
    router = _Router(service)
    return await asyncio.start_server(router.handle, host, port)


class ServiceServer:
    """A real HTTP server on a background thread (tests, examples, bench).

    ``port=0`` picks a free port; :attr:`base_url` reports the bound
    address once :meth:`start` (or the context manager) returns.  The
    event loop, the service workers, and the listener all live on the
    background thread; ``stop()`` shuts them down and joins it.
    """

    def __init__(self, service: ExperimentService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        if not self._started.is_set():
            raise RuntimeError("service did not start within 30s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await serve(self.service, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self.service.stop()
