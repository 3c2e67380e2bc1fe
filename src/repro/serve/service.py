"""Endpoint layer: routes, response caching, and the identity probes.

:class:`MevQueryService` maps request targets onto
:class:`~repro.serve.store.ColumnStore` reads and renders canonical
JSON bodies (sorted keys, compact separators) so equal data is equal
bytes.  Responses carry a strong ETag — the SHA-256 of the body — and
a conditional request with a matching ``If-None-Match`` gets a
``304 Not Modified``.  The body cache is keyed to the store
*generation*: any write (including a reorg retraction) invalidates
every cached body at once, so a retraction is immediately visible as a
fresh body under a fresh ETag.

The service is transport-free — :mod:`repro.serve.http` puts it behind
a socket, the tests and the ``serve_identical`` gate call
:meth:`MevQueryService.handle` directly.  ``/v1/status`` is the one
deliberately non-deterministic endpoint (generation counts and traffic
counters differ between a batch-built and a stream-built store), so it
is never cached and never probed by :func:`responses_identical`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.store import ColumnStore, CursorError

__all__ = ["MevQueryService", "ServeResponse", "probe_targets",
           "responses_identical"]

#: hard ceiling on one page of rows, whatever ``limit=`` asks for
MAX_PAGE = 500
DEFAULT_PAGE = 100
#: most leaderboard entries one response will rank
MAX_LEADERBOARD = 100

JSON_TYPE = "application/json"


@dataclass(frozen=True)
class ServeResponse:
    """One rendered response, transport-agnostic."""

    status: int
    body: bytes
    etag: Optional[str]
    endpoint: str
    content_type: str = JSON_TYPE

    @property
    def json(self) -> Any:
        """The decoded body (test convenience)."""
        return json.loads(self.body) if self.body else None


def _render(payload: Any) -> bytes:
    """Canonical JSON bytes: equal payloads are equal bodies."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _etag_of(body: bytes) -> str:
    return '"' + hashlib.sha256(body).hexdigest()[:24] + '"'


class MevQueryService:
    """The query API over one :class:`ColumnStore`.

    Routes::

        /v1/blocks/{n}/mev                  one block's MEV rows
        /v1/mev?from=&to=&limit=&cursor=    range scan with pagination
        /v1/aggregates/table1               Table-1-style aggregates
        /v1/leaderboards/searchers?limit=   top extracting accounts
        /v1/leaderboards/miners?limit=      top including miners
        /v1/coverage                        quality ledger + label gaps
        /v1/status                          generation/digest/counters
    """

    def __init__(self, store: ColumnStore) -> None:
        self.store = store
        #: per-endpoint traffic accounting, served by ``/v1/status``
        self.counters: Dict[str, Dict[str, int]] = {}
        #: target → (generation, etag, body) — valid while the store
        #: generation is unchanged
        self._cache: Dict[str, Tuple[int, str, bytes]] = {}

    # Entry point ---------------------------------------------------------

    def handle(self, target: str,
               if_none_match: Optional[str] = None) -> ServeResponse:
        """Serve one GET target (path plus query string)."""
        split = urlsplit(target)
        query = {name: values[-1] for name, values
                 in parse_qs(split.query).items()}
        try:
            endpoint, payload = self._route(split.path, query)
        except _BadRequest as exc:
            return self._error(400, str(exc), exc.endpoint)
        except _NotFound as exc:
            return self._error(404, str(exc), "not_found")
        if endpoint == "status":
            # never cached: generation/counters are serving-instance
            # facts, not data facts
            self._count(endpoint, "requests")
            body = _render(payload)
            return ServeResponse(200, body, None, endpoint)
        generation = self.store.generation
        cached = self._cache.get(target)
        if cached is not None and cached[0] == generation:
            etag, body = cached[1], cached[2]
        else:
            body = _render(payload)
            etag = _etag_of(body)
            self._cache[target] = (generation, etag, body)
        self._count(endpoint, "requests")
        if if_none_match is not None and if_none_match == etag:
            self._count(endpoint, "not_modified")
            return ServeResponse(304, b"", etag, endpoint)
        return ServeResponse(200, body, etag, endpoint)

    # Routing -------------------------------------------------------------

    def _route(self, path: str,
               query: Dict[str, str]) -> Tuple[str, Any]:
        parts = [part for part in path.split("/") if part]
        if len(parts) >= 1 and parts[0] == "v1":
            if len(parts) == 4 and parts[1] == "blocks" \
                    and parts[3] == "mev":
                return ("block_mev",
                        self._block_mev(_int_of(parts[2], "block")))
            if parts[1:] == ["mev"]:
                return ("range_mev", self._range_mev(query))
            if parts[1:] == ["aggregates", "table1"]:
                return ("table1", {"rows": self.store.table1()})
            if len(parts) == 3 and parts[1] == "leaderboards" \
                    and parts[2] in ("searchers", "miners"):
                return (f"leaderboard_{parts[2]}",
                        self._leaderboard(parts[2], query))
            if parts[1:] == ["coverage"]:
                return ("coverage", self._coverage())
            if parts[1:] == ["status"]:
                return ("status", self._status())
        raise _NotFound(f"no route for {path}")

    # Endpoints -----------------------------------------------------------

    def _block_mev(self, height: int) -> Dict[str, Any]:
        rows = self.store.rows_at(height)
        return {"block": height, "count": len(rows), "rows": rows}

    def _range_mev(self, query: Dict[str, str]) -> Dict[str, Any]:
        lo = _int_of(query["from"], "from") if "from" in query else None
        hi = _int_of(query["to"], "to") if "to" in query else None
        limit = DEFAULT_PAGE
        if "limit" in query:
            limit = _int_of(query["limit"], "limit")
            if limit < 1:
                raise _BadRequest("limit must be >= 1", "range_mev")
            limit = min(limit, MAX_PAGE)
        cursor = query.get("cursor")
        try:
            rows, next_cursor = self.store.page(
                lo=lo, hi=hi, cursor=cursor, limit=limit)
        except CursorError as exc:
            raise _BadRequest(str(exc), "range_mev") from exc
        return {"count": len(rows), "rows": rows,
                "next_cursor": next_cursor}

    def _leaderboard(self, by: str,
                     query: Dict[str, str]) -> Dict[str, Any]:
        limit = 20
        if "limit" in query:
            limit = _int_of(query["limit"], "limit")
            if limit < 1:
                raise _BadRequest("limit must be >= 1",
                                  f"leaderboard_{by}")
            limit = min(limit, MAX_LEADERBOARD)
        return {"by": by,
                "entries": self.store.leaderboard(by, limit=limit)}

    def _coverage(self) -> Dict[str, Any]:
        lo, hi = self.store.bounds()
        document = self.store.coverage()
        document["bounds"] = {"first_block": lo, "last_block": hi,
                              "blocks_with_mev":
                              self.store.block_count}
        return document

    def _status(self) -> Dict[str, Any]:
        return {"generation": self.store.generation,
                "digest": self.store.digest(),
                "rows": self.store.row_count,
                "counters": self.counters,
                "meta": self.store.meta}

    # Bookkeeping ---------------------------------------------------------

    def _count(self, endpoint: str, event: str) -> None:
        entry = self.counters.setdefault(
            endpoint, {"requests": 0, "not_modified": 0, "errors": 0})
        entry[event] += 1

    def _error(self, status: int, message: str,
               endpoint: str) -> ServeResponse:
        self._count(endpoint, "requests")
        self._count(endpoint, "errors")
        body = _render({"error": message, "status": status})
        return ServeResponse(status, body, None, endpoint)


class _BadRequest(Exception):
    def __init__(self, message: str, endpoint: str) -> None:
        super().__init__(message)
        self.endpoint = endpoint


class _NotFound(Exception):
    pass


def _int_of(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise _BadRequest(f"{name} must be an integer, got {raw!r}",
                          "bad_request") from exc


# Identity gate -----------------------------------------------------------

def probe_targets(store: ColumnStore) -> List[str]:
    """Deterministic targets covering every data endpoint.

    Built from the store's own bounds so the probe set is identical for
    any two stores holding the same canonical chain.  ``/v1/status`` is
    deliberately absent — it reports instance facts (generation,
    counters) that legitimately differ between builds.
    """
    targets = ["/v1/aggregates/table1",
               "/v1/leaderboards/searchers",
               "/v1/leaderboards/miners",
               "/v1/leaderboards/searchers?limit=3",
               "/v1/coverage",
               "/v1/mev"]
    lo, hi = store.bounds()
    if lo is not None and hi is not None:
        mid = (lo + hi) // 2
        for height in sorted({lo, mid, hi, hi + 1}):
            targets.append(f"/v1/blocks/{height}/mev")
        targets.append(f"/v1/mev?from={lo}&to={mid}")
        # a small page size forces a multi-step cursor walk
        targets.append(f"/v1/mev?from={lo}&to={hi}&limit=3")
    return targets


def responses_identical(left: "MevQueryService",
                        right: "MevQueryService",
                        targets: Optional[List[str]] = None,
                        ) -> bool:
    """The serve identity rule, checked byte-for-byte.

    Every probe target — and every page of every cursor walk the
    probes open — must come back with the same status and the same
    body bytes from both services.  Used with a batch-built ``left``
    and a stream-built ``right`` over the final canonical chain.
    """
    if targets is None:
        targets = probe_targets(left.store)
        if targets != probe_targets(right.store):
            return False
    pending = list(targets)
    seen = set(pending)
    while pending:
        target = pending.pop(0)
        a = left.handle(target)
        b = right.handle(target)
        if (a.status, a.body) != (b.status, b.body):
            return False
        if a.status != 200 or a.endpoint != "range_mev":
            continue
        cursor = a.json.get("next_cursor")
        if cursor is None:
            continue
        base = target.split("cursor=")[0].rstrip("?&")
        joiner = "&" if "?" in base else "?"
        follow = f"{base}{joiner}cursor={cursor}"
        if follow not in seen:
            seen.add(follow)
            pending.append(follow)
    return True
