"""Seeded heavy-traffic replay for the ``serve`` bench stage.

:func:`build_mix` expands a seed into a deterministic request mix —
point reads, range scans, aggregates, leaderboards, paginated walks,
and conditional re-reads — shaped like the traffic an analysis
front end sends: mostly cheap point/range reads, a steady trickle of
expensive aggregates, and cache-revalidation round trips.

:func:`serve_and_replay` puts a :class:`MevQueryService` behind a real
socket (:class:`~repro.serve.http.MevHttpServer`) and drives the mix
over a handful of persistent keep-alive connections, timing each
request wall-to-wall (write → full body read).  The resulting
:class:`LoadReport` (p50/p99 latency, qps, per-endpoint counts) is
what ``repro bench`` folds into ``BENCH_pipeline.json``.

The *mix* is bit-deterministic per seed; the *latencies* are honest
wall-clock measurements and are the one sanctioned nondeterminism in
this package (``_clock`` is on the R101 sanction list next to the
bench harness's clock).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve.http import MevHttpServer
from repro.serve.service import MevQueryService

__all__ = ["LoadReport", "build_mix", "nearest_rank", "probe_once",
           "replay", "serve_and_replay"]

#: (kind, weight) — the traffic shape of the replay mix
MIX_WEIGHTS: Tuple[Tuple[str, int], ...] = (
    ("point", 35), ("range", 20), ("aggregate", 10),
    ("leaderboard", 10), ("coverage", 5), ("walk", 10),
    ("conditional", 10),
)

#: a paginated walk stops after this many pages even if more remain
MAX_WALK_PAGES = 8


def _clock() -> float:
    """Wall-clock latency source — sanctioned via R101.

    Latency is the *measurement output* of the serve bench stage, so
    unlike everywhere else in the repo it is allowed to read the real
    clock; the request mix itself stays seed-deterministic.
    """
    return time.perf_counter()  # repro-lint: disable=R002


@dataclass
class LoadReport:
    """What the replay measured."""

    seed: int
    requests: int = 0
    duration_s: float = 0.0
    qps: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    connections: int = 0
    not_modified: int = 0
    errors: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "requests": self.requests,
                "duration_s": round(self.duration_s, 6),
                "qps": round(self.qps, 3),
                "p50_ms": round(self.p50_ms, 6),
                "p99_ms": round(self.p99_ms, 6),
                "max_ms": round(self.max_ms, 6),
                "connections": self.connections,
                "not_modified": self.not_modified,
                "errors": self.errors,
                "by_kind": dict(sorted(self.by_kind.items()))}


def build_mix(first_block: int, last_block: int, requests: int = 200,
              seed: int = 0) -> List[Dict[str, Any]]:
    """A deterministic request mix over ``[first_block, last_block]``.

    Returns entries ``{"kind": ..., "target": ...}``; ``walk`` entries
    open a cursor walk the replay follows live, ``conditional``
    entries are read twice — the second time with ``If-None-Match`` —
    to exercise the 304 path.
    """
    if last_block < first_block:
        raise ValueError("empty block range for the load mix")
    rng = random.Random(seed)
    kinds = [kind for kind, _ in MIX_WEIGHTS]
    weights = [weight for _, weight in MIX_WEIGHTS]
    span = last_block - first_block
    mix: List[Dict[str, Any]] = []
    for kind in rng.choices(kinds, weights=weights, k=requests):
        if kind == "point":
            height = first_block + rng.randint(0, span)
            target = f"/v1/blocks/{height}/mev"
        elif kind in ("range", "walk"):
            lo = first_block + rng.randint(0, span)
            hi = min(lo + rng.randint(0, max(span // 4, 1)),
                     last_block)
            limit = rng.choice((2, 3, 5, 25, 100)) \
                if kind == "walk" else rng.choice((50, 100, 250))
            target = f"/v1/mev?from={lo}&to={hi}&limit={limit}"
        elif kind == "aggregate":
            target = "/v1/aggregates/table1"
        elif kind == "leaderboard":
            board = rng.choice(("searchers", "miners"))
            limit = rng.choice((5, 10, 20))
            target = f"/v1/leaderboards/{board}?limit={limit}"
        elif kind == "coverage":
            target = "/v1/coverage"
        else:  # conditional: revalidate a point read
            height = first_block + rng.randint(0, span)
            target = f"/v1/blocks/{height}/mev"
        mix.append({"kind": kind, "target": target})
    return mix


async def serve_and_replay(service: MevQueryService,
                           mix: List[Dict[str, Any]], seed: int = 0,
                           connections: int = 4,
                           host: str = "127.0.0.1") -> LoadReport:
    """Start a server around ``service``, replay ``mix``, tear down."""
    server = MevHttpServer(service, host=host, port=0)
    await server.start()
    try:
        return await replay(host, server.port or 0, mix, seed=seed,
                            connections=connections)
    finally:
        await server.stop()


async def probe_once(host: str, port: int, target: str,
                     if_none_match: Optional[str] = None,
                     ) -> Tuple[int, Optional[str], bytes]:
    """One ad-hoc GET against a live server, on its own connection.

    Returns ``(status, etag, body)`` — the building block for
    mid-stream probes (``repro serve --smoke``) and for tests that
    want a single request without standing up a full replay mix.
    """
    client = _Client(host, port)
    await client.connect()
    try:
        return await client.get(target, if_none_match)
    finally:
        await client.close()


async def replay(host: str, port: int, mix: List[Dict[str, Any]],
                 seed: int = 0, connections: int = 4) -> LoadReport:
    """Drive the mix against a live server over keep-alive sockets."""
    report = LoadReport(seed=seed, connections=connections)
    latencies: List[float] = []
    queue: List[Dict[str, Any]] = list(mix)
    cursor = {"next": 0}

    async def worker() -> None:
        client = _Client(host, port)
        await client.connect()
        try:
            while True:
                index = cursor["next"]
                if index >= len(queue):
                    return
                cursor["next"] = index + 1
                await _one_entry(client, queue[index], report,
                                 latencies)
        finally:
            await client.close()

    started = _clock()
    await asyncio.gather(*(worker()
                           for _ in range(max(1, connections))))
    report.duration_s = max(_clock() - started, 1e-9)
    report.requests = len(latencies)
    report.qps = report.requests / report.duration_s
    if latencies:
        report.p50_ms = nearest_rank(latencies, 50) * 1000.0
        report.p99_ms = nearest_rank(latencies, 99) * 1000.0
        report.max_ms = max(latencies) * 1000.0
    return report


async def _one_entry(client: "_Client", entry: Dict[str, Any],
                     report: LoadReport,
                     latencies: List[float]) -> None:
    kind = entry["kind"]
    report.by_kind[kind] = report.by_kind.get(kind, 0) + 1
    status, etag, body = await _timed(client, entry["target"], None,
                                      report, latencies)
    if kind == "conditional" and status == 200 and etag:
        status, _, _ = await _timed(client, entry["target"], etag,
                                    report, latencies)
        if status == 304:
            report.not_modified += 1
    elif kind == "walk":
        pages = 1
        while pages < MAX_WALK_PAGES and status == 200:
            next_cursor = _cursor_in(body)
            if next_cursor is None:
                break
            target = entry["target"] + f"&cursor={next_cursor}"
            status, _, body = await _timed(client, target, None,
                                           report, latencies)
            pages += 1


async def _timed(client: "_Client", target: str, etag: Optional[str],
                 report: LoadReport, latencies: List[float],
                 ) -> Tuple[int, Optional[str], bytes]:
    before = _clock()
    status, got_etag, body = await client.get(target, etag)
    latencies.append(_clock() - before)
    if status >= 400:
        report.errors += 1
    return (status, got_etag, body)


def _cursor_in(body: bytes) -> Optional[str]:
    """Pull ``next_cursor`` out of a range response without a full
    JSON parse (the cursor grammar has no quotes or escapes)."""
    marker = b'"next_cursor":"'
    start = body.find(marker)
    if start < 0:
        return None
    start += len(marker)
    end = body.index(b'"', start)
    return body[start:end].decode("ascii")


def nearest_rank(samples: Sequence[Any], pct: int) -> Any:
    """Nearest-rank percentile: the sample itself, never an
    interpolation (``None`` when there are no samples)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[min(rank, len(ordered)) - 1]


class _Client(object):
    """A minimal keep-alive HTTP/1.1 GET client over asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def get(self, target: str, if_none_match: Optional[str],
                  ) -> Tuple[int, Optional[str], bytes]:
        assert self._reader is not None and self._writer is not None
        head = [f"GET {target} HTTP/1.1",
                f"Host: {self.host}:{self.port}"]
        if if_none_match is not None:
            head.append(f"If-None-Match: {if_none_match}")
        self._writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("ascii"))
        await self._writer.drain()
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        etag: Optional[str] = None
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "etag":
                etag = value.strip()
            elif name == "content-length":
                length = int(value.strip())
        body = await self._reader.readexactly(length) if length \
            else b""
        return (status, etag, body)
