"""Stdlib asyncio HTTP/JSONL transport over :class:`ServeServer`.

No frameworks, no dependencies: ``asyncio.start_server`` plus a small
HTTP/1.1 request parser. Every response is JSON (or raw JSONL/text
where noted) and the connection closes after each exchange — the API
is poll-and-stream shaped, not keep-alive shaped.

Routes::

    GET  /healthz                  liveness + drain state
    GET  /v1/stats                 scheduler/cache/job counters
    GET  /v1/metrics               OpenMetrics text (counters + gauges)
    GET  /v1/gauges                server-wide calibration scoreboard
    POST /v1/jobs                  submit a sweep (JSON body) -> 202
    GET  /v1/jobs[?tenant=&state=] list jobs
    GET  /v1/jobs/<id>             one job record
    GET  /v1/jobs/<id>/result      result payload (values keyed like
                                   the sweep CLI's --json export)
    GET  /v1/jobs/<id>/manifest    the run manifest
    GET  /v1/jobs/<id>/events      the job's run ledger (JSONL), a
                                   view of the server ledger;
                                   ?follow=1 streams chunked until the
                                   job settles (SSE-style tail)
    GET  /v1/events                the server-wide ledger (JSONL);
                                   ?follow=1 tails every job's events
                                   live until drain/stop (what
                                   ``repro watch URL`` consumes)
    GET  /v1/artifacts/<digest>    raw content-addressed blob
    POST /v1/drain                 stop admissions, settle, report

Error mapping: :class:`BadRequest` → 400, unknown id → 404,
:class:`QueueFull` → 429, :class:`Draining` → 503.

``run_in_thread`` hosts the whole stack on a background thread with
its own event loop — what the tests, the load generator, and the
benchmark use. ``repro serve`` drives :meth:`ServeHTTP.start` and
:meth:`ServeHTTP.serve_until_shutdown` itself, with SIGTERM/SIGINT
wired to graceful drain.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.serve.config import ServeConfig
from repro.serve.jobs import BadRequest
from repro.serve.scheduler import Draining, QueueFull
from repro.serve.server import JobEventsView, ServeServer

_MAX_BODY_BYTES = 8 * 1024 * 1024
_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    request_line = await reader.readline()
    if not request_line:
        raise ConnectionError("empty request")
    try:
        method, target, _version = (
            request_line.decode("latin-1").strip().split(" ", 2)
        )
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, "bad Content-Length") from None
        if n > _MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        body = await reader.readexactly(n)
    return method.upper(), target, headers, body


def _response_bytes(
    status: int, body: bytes, content_type: str
) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def _json_response(status: int, payload: Any) -> bytes:
    body = (json.dumps(payload, indent=1, allow_nan=False) + "\n").encode()
    return _response_bytes(status, body, "application/json")


class ServeHTTP:
    """The asyncio shell: sockets in, :class:`ServeServer` calls out."""

    def __init__(self, core: ServeServer) -> None:
        self.core = core
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = None  # asyncio.Event, created on the loop
        self._active_tails = 0
        self.port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------
    async def start(
        self, host: Optional[str] = None, port: Optional[int] = None
    ) -> int:
        """Bind and start accepting; returns the bound port."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host if host is not None else self.core.config.host,
            port if port is not None else self.core.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown`; then drain and close."""
        assert self._server is not None
        async with self._server:
            await self._server.start_serving()
            await self._shutdown.wait()
            # Stop accepting before draining: new connections are
            # refused while in-flight jobs settle.
            self._server.close()
            await asyncio.get_running_loop().run_in_executor(
                None, self.core.close
            )
            # In-flight follow streams need a couple more polls to see
            # the ledger's final bytes (serve_stop) and send their
            # chunked terminator; don't kill the loop under them.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while self._active_tails and loop.time() < deadline:
                await asyncio.sleep(0.05)
            # One more tick so the drained connection handlers can run
            # writer.wait_closed() before the loop is torn down (else
            # their sockets leak past the loop as destroyed tasks).
            await asyncio.sleep(0.1)

    def request_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    # -- request handling ------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                method, target, _headers, body = await _read_request(reader)
            except HttpError as exc:
                writer.write(
                    _json_response(exc.status, {"error": exc.message})
                )
                await writer.drain()
                return
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            try:
                await self._route(method, target, body, writer)
            except HttpError as exc:
                writer.write(
                    _json_response(exc.status, {"error": exc.message})
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception as exc:  # never let one request kill the loop
            try:
                writer.write(
                    _json_response(
                        500,
                        {"error": f"{exc.__class__.__name__}: {exc}"},
                    )
                )
                await writer.drain()
            except OSError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _route(self, method, target, body, writer) -> None:
        parsed = urlparse(target)
        path = parsed.path.rstrip("/") or "/"
        query = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        parts = [p for p in path.split("/") if p]
        core = self.core

        if path == "/healthz" and method == "GET":
            status = "draining" if core.draining else "ok"
            writer.write(_json_response(200, {"status": status}))
        elif path == "/v1/stats" and method == "GET":
            writer.write(_json_response(200, core.stats()))
        elif path == "/v1/metrics" and method == "GET":
            writer.write(
                _response_bytes(
                    200,
                    core.metrics_text().encode(),
                    "application/openmetrics-text",
                )
            )
        elif path == "/v1/gauges" and method == "GET":
            writer.write(
                _json_response(200, {"gauges": core.gauge_board()})
            )
        elif path == "/v1/events" and method == "GET":
            follow = query.get("follow") in ("1", "true", "yes")
            await self._tail_chunked(
                writer,
                _file_reader(core.config.ledger_path),
                follow,
                lambda: core.closed,
            )
        elif path == "/v1/drain" and method == "POST":
            settled = await asyncio.get_running_loop().run_in_executor(
                None, core.drain
            )
            writer.write(
                _json_response(
                    200,
                    {"settled": settled, "jobs": core.jobs.counts_by_state()},
                )
            )
        elif path == "/v1/jobs" and method == "POST":
            self._submit(body, writer)
        elif path == "/v1/jobs" and method == "GET":
            records = core.jobs.list(
                tenant=query.get("tenant"), state=query.get("state")
            )
            writer.write(
                _json_response(
                    200,
                    {"jobs": [r.as_public_dict() for r in records]},
                )
            )
        elif (
            len(parts) == 3 and parts[:2] == ["v1", "jobs"]
            and method == "GET"
        ):
            record = self._record_or_404(parts[2])
            writer.write(_json_response(200, record.as_public_dict()))
        elif (
            len(parts) == 4 and parts[:2] == ["v1", "jobs"]
            and method == "GET"
        ):
            await self._job_subresource(parts[2], parts[3], query, writer)
        elif (
            len(parts) == 3 and parts[:2] == ["v1", "artifacts"]
            and method == "GET"
        ):
            data = core.artifacts.get_bytes(parts[2])
            if data is None:
                raise HttpError(404, f"unknown artifact {parts[2]!r}")
            writer.write(
                _response_bytes(200, data, "application/octet-stream")
            )
        else:
            raise HttpError(404, f"no route for {method} {path}")
        await writer.drain()

    def _record_or_404(self, job_id: str):
        record = self.core.jobs.get(job_id)
        if record is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return record

    def _submit(self, body: bytes, writer) -> None:
        try:
            payload = json.loads(body.decode() or "null")
        except ValueError:
            raise HttpError(400, "body is not valid JSON") from None
        try:
            record = self.core.submit(payload)
        except BadRequest as exc:
            raise HttpError(400, str(exc)) from None
        except QueueFull as exc:
            raise HttpError(429, str(exc)) from None
        except Draining as exc:
            raise HttpError(503, str(exc)) from None
        writer.write(_json_response(202, record.as_public_dict()))

    async def _job_subresource(self, job_id, sub, query, writer) -> None:
        record = self._record_or_404(job_id)
        if sub == "result":
            payload = self.core.job_result(job_id)
            if payload is None:
                raise HttpError(
                    409, f"job {job_id} has no result (state={record.state})"
                )
            writer.write(_json_response(200, payload))
        elif sub == "manifest":
            if record.manifest_digest is None:
                raise HttpError(
                    409,
                    f"job {job_id} has no manifest (state={record.state})",
                )
            payload = self.core.artifacts.get_json(record.manifest_digest)
            writer.write(_json_response(200, payload))
        elif sub == "events":
            follow = query.get("follow") in ("1", "true", "yes")
            await self._stream_events(record, follow, writer)
        else:
            raise HttpError(404, f"no job subresource {sub!r}")

    async def _stream_events(self, record, follow, writer) -> None:
        """Send the job's view of the server ledger as chunked JSONL."""
        view = JobEventsView(self.core.config.ledger_path, record)
        await self._tail_chunked(
            writer, view.read, follow, lambda: record.terminal
        )

    async def _tail_chunked(self, writer, read, follow, done_fn) -> None:
        """Chunked JSONL of what ``read()`` returns, until ``done_fn()``.

        Each chunk carries what has landed since the last poll — the
        server ledger's raw bytes, or one job's view of them — and the
        stream ends when ``done_fn`` says the writer is finished (job
        settled, server stopped), or right away without ``follow``.
        ``done_fn`` is asked *before* each read, so the read after it
        turns true sees the writer's final bytes.
        """
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/jsonl\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        self._active_tails += 1
        try:
            while True:
                done = not follow or done_fn()
                data = read()
                if data:
                    writer.write(
                        f"{len(data):x}\r\n".encode() + data + b"\r\n"
                    )
                    await writer.drain()
                if done:
                    break
                await asyncio.sleep(0.05)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            self._active_tails -= 1


def _file_reader(path):
    """A ``read()`` returning the bytes appended since its last call."""
    pos = 0

    def read() -> bytes:
        nonlocal pos
        try:
            with open(path, "rb") as handle:
                handle.seek(pos)
                data = handle.read()
        except OSError:
            return b""
        pos += len(data)
        return data

    return read


class ServerHandle:
    """A serve stack running on a background thread (tests, loadgen)."""

    def __init__(self, core: ServeServer, http: ServeHTTP, thread, loop):
        self.core = core
        self.http = http
        self._thread = thread
        self._loop = loop

    @property
    def port(self) -> int:
        assert self.http.port is not None
        return self.http.port

    @property
    def url(self) -> str:
        return f"http://{self.core.config.host}:{self.port}"

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain + shutdown; joins the server thread."""
        self._loop.call_soon_threadsafe(self.http.request_shutdown)
        self._thread.join(timeout=timeout)


def run_in_thread(
    config: ServeConfig, start_timeout: float = 10.0
) -> ServerHandle:
    """Start a full serve stack on a daemon thread; wait until bound."""
    core = ServeServer(config)
    http = ServeHTTP(core)
    started = threading.Event()
    box: Dict[str, Any] = {}

    def _main() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop

        async def _run() -> None:
            await http.start(port=config.port)
            core.start()
            started.set()
            await http.serve_until_shutdown()

        try:
            loop.run_until_complete(_run())
        finally:
            loop.close()

    thread = threading.Thread(
        target=_main, name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=start_timeout):
        raise RuntimeError("serve stack failed to start in time")
    return ServerHandle(core, http, thread, box["loop"])
