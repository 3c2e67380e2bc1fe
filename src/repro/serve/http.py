"""Stdlib-asyncio HTTP/1.1 front end for :class:`MevQueryService`.

One reader/writer pair per connection via :func:`asyncio.start_server`
— no third-party web framework, because the serving layer must run in
the same no-new-dependencies envelope as the rest of the repo.  The
server speaks the minimum of HTTP/1.1 the load harness and ``curl``
need: GET only, ``Content-Length`` framing, keep-alive by default,
``If-None-Match`` pass-through for the service's conditional caching.

Responses deliberately omit the ``Date`` header: every header byte is
part of the serve identity surface, and a wall-clock header would make
byte-identity meaningless.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple

from repro.serve.service import MevQueryService, ServeResponse, _render

__all__ = ["MevHttpServer"]

#: refuse request heads larger than this (one line + headers)
MAX_HEAD_BYTES = 16384

_REASONS = {200: "OK", 304: "Not Modified", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            431: "Request Header Fields Too Large",
            505: "HTTP Version Not Supported"}


class MevHttpServer:
    """Serve one :class:`MevQueryService` over a TCP socket.

    >>> server = MevHttpServer(service)          # doctest: +SKIP
    >>> await server.start()                     # doctest: +SKIP
    >>> server.port                              # doctest: +SKIP
    41873
    """

    def __init__(self, service: MevQueryService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        #: requested port; ``0`` asks the OS for an ephemeral one —
        #: read :attr:`port` after :meth:`start` for the bound value
        self._requested_port = port
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: connections accepted / requests served over this lifetime
        self.connections = 0
        self.requests = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host,
            port=self._requested_port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # Connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        try:
            while True:
                head = await self._read_head(reader)
                if head is None:
                    break
                method, target, version, headers = head
                keep_alive = self._serve_one(
                    writer, method, target, version, headers)
                await writer.drain()
                self.requests += 1
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_head(self, reader: asyncio.StreamReader,
                         ) -> Optional[Tuple[str, str, str,
                                             Dict[str, str]]]:
        """One request head, or ``None`` on a clean EOF."""
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        except asyncio.LimitOverrunError:
            return ("GET", "/", "HTTP/1.1",
                    {"x-repro-overrun": "1"})
        if len(raw) > MAX_HEAD_BYTES:
            return ("GET", "/", "HTTP/1.1", {"x-repro-overrun": "1"})
        lines = raw.decode("latin-1").split("\r\n")
        request_line = lines[0].split(" ")
        if len(request_line) != 3:
            return ("GET", "/", "HTTP/1.1", {"x-repro-malformed": "1"})
        method, target, version = request_line
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return (method, target, version, headers)

    def _serve_one(self, writer: asyncio.StreamWriter, method: str,
                   target: str, version: str,
                   headers: Dict[str, str]) -> bool:
        """Render one response onto the wire; returns keep-alive."""
        if "x-repro-overrun" in headers:
            response = _plain_error(431, "request head too large")
        elif "x-repro-malformed" in headers:
            response = _plain_error(400, "malformed request line")
        elif version not in ("HTTP/1.1", "HTTP/1.0"):
            response = _plain_error(505, f"unsupported {version}")
        elif method != "GET":
            response = _plain_error(
                405, f"method {method} not allowed; the API is "
                "read-only")
        else:
            response = self.service.handle(
                target, if_none_match=headers.get("if-none-match"))
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
            and response.status not in (431, 505))
        writer.write(_wire_bytes(response, keep_alive))
        return keep_alive


def _plain_error(status: int, message: str) -> ServeResponse:
    body = _render({"error": message, "status": status})
    return ServeResponse(status, body, None, "transport_error")


def _wire_bytes(response: ServeResponse, keep_alive: bool) -> bytes:
    """Serialize status line + headers + body.

    Header set and order are fixed (and hold no wall-clock ``Date``)
    so identical :class:`ServeResponse` objects put identical bytes on
    the wire — the transport preserves the serve identity rule.
    """
    reason = _REASONS.get(response.status, "Error")
    head = [f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}"]
    if response.etag is not None:
        head.append(f"ETag: {response.etag}")
    head.append("Connection: "
                + ("keep-alive" if keep_alive else "close"))
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") \
        + response.body
